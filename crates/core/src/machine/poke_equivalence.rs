//! Bulk host stores against the per-word loop (DESIGN.md §5k).
//!
//! Two identical machines receive the same bytes: one in a single
//! `poke`, whose quiet-NIC page runs take the bulk path, the other one
//! word per `poke`. A one-word poke never batches, and with no events
//! pending its `run_until` only moves the clock, so the second machine
//! is the per-word reference. Both must end in the same state.

use proptest::prelude::*;
use shrimp_mem::{VirtAddr, PAGE_SIZE, WORD_SIZE};
use shrimp_mesh::{MeshShape, NodeId};
use shrimp_nic::{NicBackend, UpdatePolicy};
use shrimp_os::Pid;

use super::{Machine, MapRequest};
use crate::config::MachineConfig;

/// Pages of the sender's buffer: a run of up to three pages from a
/// mid-page start spans four.
const PAGES: u64 = 4;

/// One machine configuration of a case.
#[derive(Debug, Clone)]
struct Setup {
    unpinned: bool,
    /// Leading buffer pages mapped for deliberate update; the rest stay
    /// write-back memory, which always goes word by word.
    mapped_pages: u64,
    /// Write-back pokes made before `map`: (page, word, words). They
    /// leave cache lines resident and dirty when the page turns
    /// write-through.
    dirty: Vec<(u64, u64, u64)>,
    /// A one-word poke on every page after `map`, so the poke's first
    /// lookups hit the TLB instead of walking the page table.
    warm_tlb: bool,
}

fn build(setup: &Setup) -> (Machine, Pid, VirtAddr) {
    let mut cfg = MachineConfig::prototype(MeshShape::new(2, 1));
    if setup.unpinned {
        cfg.nic_backend = NicBackend::Unpinned;
    }
    let (snd, rcv) = (NodeId(0), NodeId(1));
    let mut m = Machine::new(cfg);
    let s = m.create_process(snd);
    let r = m.create_process(rcv);
    let src = m.alloc_pages(snd, s, PAGES).expect("alloc send");
    let dst = m.alloc_pages(rcv, r, PAGES).expect("alloc recv");
    for &(page, word, words) in &setup.dirty {
        let words = words.min(PAGE_SIZE / WORD_SIZE - word);
        let at = src.add(page * PAGE_SIZE + word * WORD_SIZE);
        m.poke(snd, s, at, &vec![0xa5; (words * WORD_SIZE) as usize])
            .expect("write-back poke");
    }
    let export = m
        .export_buffer(rcv, r, dst, PAGES, Some(snd))
        .expect("export");
    m.map(MapRequest {
        src_node: snd,
        src_pid: s,
        src_va: src,
        dst_node: rcv,
        export,
        dst_offset: 0,
        len: setup.mapped_pages * PAGE_SIZE,
        policy: UpdatePolicy::Deliberate,
    })
    .expect("map");
    if setup.warm_tlb {
        for page in 0..PAGES {
            m.poke(snd, s, src.add(page * PAGE_SIZE), &[1, 2, 3, 4])
                .expect("warming poke");
        }
    }
    m.run_until_idle().expect("quiesce after set-up");
    (m, s, src)
}

/// Everything a store can change, as comparable text.
fn observe(m: &Machine, pid: Pid, src: VirtAddr) -> Vec<String> {
    let mut out = vec![
        format!("now {:?} events {}", m.now(), m.events_processed()),
        format!("{:?}", m.peek(NodeId(0), pid, src, PAGES * PAGE_SIZE)),
        m.metrics_snapshot().to_json(),
    ];
    for n in &m.nodes {
        out.push(format!("{:?}", m.nic_stats(n.id)));
        out.push(format!("{:?}", n.tlb));
        out.push(format!("{:?}", n.cache));
        out.push(format!("{:?}", n.xpress));
    }
    out
}

fn arb_setup() -> impl Strategy<Value = Setup> {
    (
        any::<bool>(),
        1..=PAGES,
        prop::collection::vec((0..PAGES, 0..PAGE_SIZE / WORD_SIZE, 1..64u64), 0..6),
        any::<bool>(),
    )
        .prop_map(|(unpinned, mapped_pages, dirty, warm_tlb)| Setup {
            unpinned,
            mapped_pages,
            dirty,
            warm_tlb,
        })
}

proptest! {
    #[test]
    fn bulk_poke_matches_per_word_pokes(
        setup in arb_setup(),
        start_word in 0..PAGE_SIZE / WORD_SIZE,
        words in 1..=3 * PAGE_SIZE / WORD_SIZE,
        seed in any::<u8>(),
    ) {
        let va_offset = start_word * WORD_SIZE;
        let data: Vec<u8> = (0..words * WORD_SIZE)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect();

        let (mut bulk, pid, src) = build(&setup);
        bulk.poke(NodeId(0), pid, src.add(va_offset), &data).expect("bulk poke");

        let (mut per_word, pid2, src2) = build(&setup);
        prop_assert_eq!((pid, src), (pid2, src2));
        for (i, w) in data.chunks_exact(WORD_SIZE as usize).enumerate() {
            let at = src.add(va_offset + i as u64 * WORD_SIZE);
            per_word.poke(NodeId(0), pid, at, w).expect("one-word poke");
        }

        let (got, want) = (observe(&bulk, pid, src), observe(&per_word, pid, src));
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g, w, "{:?}", setup);
        }
    }
}
