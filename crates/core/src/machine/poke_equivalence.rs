//! Bulk host stores against the per-word loop (DESIGN.md §5k).
//!
//! Two identical machines receive the same bytes: one in a single
//! `poke`, whose page runs take the bulk step where they can, the other
//! through the word loop `poke` falls back to, `Machine::store_through`
//! per word and then `run_until` the last word's end. (One-word pokes
//! are no reference on automatic-update pages: their `run_until` would
//! fire the queued housekeeps between words.) Both machines must agree
//! right after the store, and again once drained.
//!
//! The equivalence cannot see a bulk step that stopped firing, so two
//! guard tests drive a buffer page by page and assert that the bulk
//! step takes every page: the merged step on the benchmark's
//! `auto_stream` shape, the quiet-NIC step on a deliberate-update fill.
//! A third asserts that each fallback refuses without changing
//! anything.

use proptest::prelude::*;
use shrimp_mem::{VirtAddr, PAGE_SIZE, WORD_SIZE};
use shrimp_mesh::{MeshShape, NodeId};
use shrimp_nic::{NicBackend, RetxConfig, UpdatePolicy};
use shrimp_os::Pid;
use shrimp_sim::{SimDuration, SimTime};

use super::{Machine, MapRequest};
use crate::config::MachineConfig;

/// Pages of the sender's buffer: a run of up to three pages from a
/// mid-page start spans four.
const PAGES: u64 = 4;

const SND: NodeId = NodeId(0);
const RCV: NodeId = NodeId(1);

/// One machine configuration of a case.
#[derive(Debug, Clone)]
struct Setup {
    unpinned: bool,
    retx: bool,
    policy: UpdatePolicy,
    /// Bytes of the buffer mapped, from its start; the rest stays
    /// write-back memory, which always goes word by word. A length that
    /// ends mid-page leaves a segment that ends mid-page.
    mapped_len: u64,
    /// Write-back pokes made before `map`: (page, word, words). They
    /// leave cache lines resident and dirty when the page turns
    /// write-through.
    dirty: Vec<(u64, u64, u64)>,
    warm: Warm,
    /// Flush the sender's TLB just before the store.
    cold_tlb: bool,
}

/// One-word pokes on every page after `map`. They fill the TLB and, on
/// automatic pages, send a packet each and make the page resident on
/// the unpinned NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Warm {
    /// No warming: the store is every page's first touch.
    No,
    /// Warmed, then run idle: packets delivered, map-ins complete.
    Settled,
    /// Warmed just before the store: their packets and map-ins are still
    /// in flight.
    InFlight,
}

/// A built machine and the two buffers of its mapping.
struct Rig {
    m: Machine,
    pid: Pid,
    src: VirtAddr,
    rpid: Pid,
    dst: VirtAddr,
}

fn build(setup: &Setup) -> Rig {
    build_with(setup, |_| {})
}

fn build_with(setup: &Setup, tune: impl FnOnce(&mut MachineConfig)) -> Rig {
    let mut cfg = MachineConfig::prototype(MeshShape::new(2, 1));
    if setup.unpinned {
        cfg.nic_backend = NicBackend::Unpinned;
    }
    if setup.retx {
        cfg.nic.retx = RetxConfig::reliable();
    }
    tune(&mut cfg);
    let mut m = Machine::new(cfg);
    let pid = m.create_process(SND);
    let rpid = m.create_process(RCV);
    let src = m.alloc_pages(SND, pid, PAGES).expect("alloc send");
    let dst = m.alloc_pages(RCV, rpid, PAGES).expect("alloc recv");
    for &(page, word, words) in &setup.dirty {
        let words = words.min(PAGE_SIZE / WORD_SIZE - word);
        let at = src.add(page * PAGE_SIZE + word * WORD_SIZE);
        m.poke(SND, pid, at, &vec![0xa5; (words * WORD_SIZE) as usize])
            .expect("write-back poke");
    }
    let export = m
        .export_buffer(RCV, rpid, dst, PAGES, Some(SND))
        .expect("export");
    m.map(MapRequest {
        src_node: SND,
        src_pid: pid,
        src_va: src,
        dst_node: RCV,
        export,
        dst_offset: 0,
        len: setup.mapped_len,
        policy: setup.policy,
    })
    .expect("map");
    if setup.warm == Warm::InFlight {
        m.run_until_idle().expect("quiesce after set-up");
    }
    if setup.warm != Warm::No {
        for page in 0..PAGES {
            m.poke(SND, pid, src.add(page * PAGE_SIZE), &[1, 2, 3, 4])
                .expect("warming poke");
        }
    }
    if setup.warm != Warm::InFlight {
        m.run_until_idle().expect("quiesce after set-up");
    }
    if setup.cold_tlb {
        m.nodes[SND.0 as usize].tlb.flush();
    }
    Rig {
        m,
        pid,
        src,
        rpid,
        dst,
    }
}

fn word(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("one word"))
}

/// The reference: `poke`'s word loop, every word through
/// `store_through`, then the clock moved past the last bus write.
fn store_word_by_word(m: &mut Machine, pid: Pid, va: VirtAddr, data: &[u8]) {
    let mut t = m.now();
    for (i, w) in data.chunks_exact(WORD_SIZE as usize).enumerate() {
        let at = va.add(i as u64 * WORD_SIZE);
        t = m.store_through(SND, pid, t, at, word(w)).expect("store").0;
    }
    m.run_until(t);
}

/// Everything a store can change, as comparable text: clock and event
/// count, both buffers, the metrics, and each node's NIC (FIFOs, open
/// merge, IOTLB), wakeup slots, TLB, cache and bus, plus every queued
/// event.
fn observe(rig: &Rig) -> Vec<String> {
    let m = &rig.m;
    let mut out = vec![
        format!("now {:?} events {}", m.now(), m.events_processed()),
        format!("{:?}", m.peek(SND, rig.pid, rig.src, PAGES * PAGE_SIZE)),
        format!("{:?}", m.peek(RCV, rig.rpid, rig.dst, PAGES * PAGE_SIZE)),
        m.metrics_snapshot().to_json(),
        format!("{:?}", m.sched),
    ];
    for n in &m.nodes {
        out.push(format!("{:?}", n.nic));
        out.push(format!(
            "wakeups {:?} {:?} {:?}",
            n.housekeep_wakeup, n.drain_wakeup, n.pop_wakeup
        ));
        out.push(format!("{:?}", n.tlb));
        out.push(format!("{:?}", n.cache));
        out.push(format!("{:?}", n.xpress));
    }
    out
}

fn arb_setup() -> impl Strategy<Value = Setup> {
    (
        (any::<bool>(), any::<bool>(), 0..3u8, 0..3u8, any::<bool>()),
        (1..=PAGES, any::<bool>(), 1..PAGE_SIZE / WORD_SIZE),
        prop::collection::vec((0..PAGES, 0..PAGE_SIZE / WORD_SIZE, 1..64u64), 0..6),
    )
        .prop_map(|(flags, (pages, trim, trim_words), dirty)| {
            let (unpinned, retx, policy, warm, cold_tlb) = flags;
            let trim = if trim { trim_words * WORD_SIZE } else { 0 };
            Setup {
                unpinned,
                retx,
                policy: [
                    UpdatePolicy::Deliberate,
                    UpdatePolicy::AutomaticSingle,
                    UpdatePolicy::AutomaticBlocked,
                ][usize::from(policy)],
                mapped_len: pages * PAGE_SIZE - trim,
                dirty,
                warm: [Warm::No, Warm::Settled, Warm::InFlight][usize::from(warm)],
                cold_tlb,
            }
        })
}

proptest! {
    #[test]
    fn bulk_poke_matches_the_word_loop(
        setup in arb_setup(),
        start_word in 0..PAGE_SIZE / WORD_SIZE,
        words in 1..=3 * PAGE_SIZE / WORD_SIZE,
        seed in any::<u8>(),
    ) {
        let va_offset = start_word * WORD_SIZE;
        let data: Vec<u8> = (0..words * WORD_SIZE)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect();

        let mut bulk = build(&setup);
        let (pid, src) = (bulk.pid, bulk.src);
        bulk.m.poke(SND, pid, src.add(va_offset), &data).expect("bulk poke");

        let mut per_word = build(&setup);
        prop_assert_eq!((pid, src), (per_word.pid, per_word.src));
        store_word_by_word(&mut per_word.m, pid, src.add(va_offset), &data);

        for (g, w) in observe(&bulk).iter().zip(&observe(&per_word)) {
            prop_assert_eq!(g, w, "after the store: {:?}", setup);
        }
        bulk.m.run_until_idle().expect("bulk drains");
        per_word.m.run_until_idle().expect("reference drains");
        let (mut got, mut want) = (observe(&bulk), observe(&per_word));
        got.push(format!("{:?}", bulk.m.deliveries()));
        want.push(format!("{:?}", per_word.m.deliveries()));
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g, w, "drained: {:?}", setup);
        }
    }
}

// ───────────────────────── the bulk steps fire ─────────────────────────

/// The benchmark's `auto_stream` shape: the whole buffer mapped for
/// automatic blocked-write update, nothing warmed.
fn auto_stream() -> Setup {
    Setup {
        unpinned: false,
        retx: false,
        policy: UpdatePolicy::AutomaticBlocked,
        mapped_len: PAGES * PAGE_SIZE,
        dirty: Vec::new(),
        warm: Warm::No,
        cold_tlb: false,
    }
}

/// Stores the word at `va` as `poke` stores a page run's first word,
/// from time `t`: returns its end and the NIC's quiet bit.
fn first_word(rig: &mut Rig, t: SimTime, va: VirtAddr) -> (SimTime, bool) {
    rig.m
        .store_through(SND, rig.pid, t, va, 0x5eed_f00d)
        .expect("first word")
}

/// `words` words from `va`, at `t`, through the bulk step.
fn bulk_step(rig: &mut Rig, t: SimTime, va: VirtAddr, words: u64, quiet: bool) -> Option<SimTime> {
    let rest = vec![0x3c; (words * WORD_SIZE) as usize];
    let m = &mut rig.m;
    let pages_per_node = m.config.pages_per_node;
    m.nodes[SND.0 as usize].store_run_bulk(t, va, &rest, quiet, pages_per_node, &mut m.sched)
}

#[test]
fn merged_runs_take_the_bulk_step() {
    let mut rig = build(&auto_stream());
    let mut t = rig.m.now();
    for page in 0..PAGES {
        let va = rig.src.add(page * PAGE_SIZE);
        let (end, quiet) = first_word(&mut rig, t, va);
        let nic = &rig.m.nodes[SND.0 as usize].nic;
        // From page 1 on the NIC holds earlier pages' packets, queued and
        // (from page 2) overflowed.
        assert!(!quiet, "page {page}: the open merge is a deadline");
        assert_eq!(nic.outgoing_ready_at().is_some(), page > 0, "page {page}");
        assert_eq!(nic.cpu_must_stall(), page > 1, "page {page}");
        let words = PAGE_SIZE / WORD_SIZE - 1;
        t = bulk_step(&mut rig, end, va.add(WORD_SIZE), words, quiet)
            .unwrap_or_else(|| panic!("page {page} went word by word"));
    }
    rig.m.run_until(t);
    rig.m.run_until_idle().expect("stream drains");
    assert_eq!(rig.m.deliveries().len() as u64, PAGES);
    assert_eq!(
        rig.m.nic_stats(SND).merged_writes,
        PAGES * (PAGE_SIZE / WORD_SIZE - 1)
    );
}

/// A fill of a deliberate-update buffer: the NIC ignores every store,
/// so each page's first word leaves it quiet and the quiet-NIC step
/// takes the rest of the page.
#[test]
fn quiet_runs_take_the_bulk_step() {
    let deliberate = Setup {
        policy: UpdatePolicy::Deliberate,
        ..auto_stream()
    };
    let mut rig = build(&deliberate);
    let mut t = rig.m.now();
    for page in 0..PAGES {
        let va = rig.src.add(page * PAGE_SIZE);
        let (end, quiet) = first_word(&mut rig, t, va);
        assert!(quiet, "page {page}: the NIC ignores a deliberate-update store");
        let words = PAGE_SIZE / WORD_SIZE - 1;
        t = bulk_step(&mut rig, end, va.add(WORD_SIZE), words, quiet)
            .unwrap_or_else(|| panic!("page {page} went word by word"));
    }
    rig.m.run_until(t);
    let stored = rig
        .m
        .peek(SND, rig.pid, rig.src, PAGES * PAGE_SIZE)
        .expect("peek");
    for page in stored.chunks_exact(PAGE_SIZE as usize) {
        assert_eq!(word(&page[..4]), 0x5eed_f00d);
        assert!(page[4..].iter().all(|&b| b == 0x3c));
    }
    assert!(rig.m.deliveries().is_empty(), "a fill sends nothing");
}

/// Where a refused case stores, as byte offsets into the buffer: a
/// page run's first word at `first`, then the bulk step over the rest
/// of that page from `rest`, requested `delay` after the first word
/// ends.
#[derive(Debug, Clone, Copy)]
struct Run {
    first: u64,
    rest: u64,
    delay: SimDuration,
}

/// A full page run from the buffer's start.
const PAGE_RUN: Run = Run {
    first: 0,
    rest: WORD_SIZE,
    delay: SimDuration::ZERO,
};

/// Runs `m` in 10 ns steps until `done` holds, for at most 1 ms.
fn step_until(m: &mut Machine, done: impl Fn(&Machine) -> bool) {
    for _ in 0..100_000 {
        if done(m) {
            return;
        }
        m.run_for(SimDuration::from_ns(10));
    }
    panic!("the awaited state never came");
}

/// Stores `run`'s first word from the current time, lets `disturb`
/// change the machine, then asserts that the bulk step over the rest
/// refuses and changes nothing.
fn assert_refused(why: &str, mut rig: Rig, run: Run, disturb: impl FnOnce(&mut Rig)) {
    let (t, va) = (rig.m.now(), rig.src.add(run.first));
    let (end, quiet) = first_word(&mut rig, t, va);
    disturb(&mut rig);
    let before = observe(&rig);
    let rest = rig.src.add(run.rest);
    let words = (PAGE_SIZE - rest.offset()) / WORD_SIZE;
    let got = bulk_step(&mut rig, end + run.delay, rest, words, quiet);
    assert_eq!(got, None, "{why}");
    assert_eq!(
        observe(&rig),
        before,
        "{why}: a refusal must change nothing"
    );
}

#[test]
fn bulk_step_refuses_what_the_word_loop_would_do_differently() {
    let auto = auto_stream();
    let rig = build(&auto);
    assert_refused("not the MRU page", rig, PAGE_RUN, |r| {
        r.m.nodes[0].tlb.flush()
    });
    let single = Setup {
        policy: UpdatePolicy::AutomaticSingle,
        ..auto.clone()
    };
    assert_refused("single-write page", build(&single), PAGE_RUN, |_| {});
    let half = Setup {
        mapped_len: PAGE_SIZE / 2,
        ..auto.clone()
    };
    assert_refused("segment ends mid-run", build(&half), PAGE_RUN, |_| {});
    let gap = Run {
        rest: 2 * WORD_SIZE,
        ..PAGE_RUN
    };
    assert_refused(
        "offset the merge does not continue",
        build(&auto),
        gap,
        |_| {},
    );
    let small = build_with(&auto, |c| c.nic.max_payload = PAGE_SIZE / 2);
    assert_refused("past max_payload", small, PAGE_RUN, |_| {});
    let short = build_with(&auto, |c| c.nic.merge_window = SimDuration::from_ns(50));
    assert_refused("a bus word outlasts the window", short, PAGE_RUN, |_| {});
    let late = Run {
        delay: SimDuration::from_ns(500),
        ..PAGE_RUN
    };
    assert_refused("first gap outlasts the window", build(&auto), late, |_| {});
    let unpinned = Setup {
        unpinned: true,
        warm: Warm::Settled,
        ..auto.clone()
    };
    assert_refused("page not IOTLB-resident", build(&unpinned), PAGE_RUN, |r| {
        let frame = r.m.translate(SND, r.pid, r.src).expect("mapped").page();
        r.m.nodes[0].nic.map_in(frame, false).expect("in range");
    });
    // A run the NIC ignores while it has work: page 1 is mapped up to
    // its middle, and page 0 has a merge open.
    let mut busy = build(&Setup {
        mapped_len: PAGE_SIZE + PAGE_SIZE / 2,
        ..auto.clone()
    });
    busy.m
        .poke(SND, busy.pid, busy.src, &[7; 4])
        .expect("open a merge");
    let past_segment = Run {
        first: PAGE_SIZE + PAGE_SIZE / 2,
        rest: PAGE_SIZE + PAGE_SIZE / 2 + WORD_SIZE,
        ..PAGE_RUN
    };
    assert_refused("uncaptured run, busy NIC", busy, past_segment, |_| {});
    // Page 1's open merge leaves as a packet at page 0's first word,
    // whose wakeups cover its ready instant; here they do not.
    let mut queued = build(&auto);
    let page1 = queued.src.add(PAGE_SIZE);
    queued
        .m
        .poke(SND, queued.pid, page1, &[7; 4])
        .expect("open a merge");
    assert_refused("drain wakeup does not cover", queued, PAGE_RUN, |r| {
        r.m.nodes[0].drain_wakeup = None;
    });

    // Deadlines besides the merge: a go-back-N timer...
    let mut timer = build(&Setup {
        retx: true,
        ..auto.clone()
    });
    let page1 = timer.src.add(PAGE_SIZE);
    timer
        .m
        .poke(SND, timer.pid, page1, &[7; 16])
        .expect("one packet");
    step_until(&mut timer.m, |m| m.mesh_stats().packets_injected > 0);
    let nic = &timer.m.nodes[0].nic;
    assert!(
        nic.next_deadline().is_some(),
        "the packet's retransmit timer runs"
    );
    assert!(nic.outgoing_ready_at().is_none() && nic.incoming_ready_at().is_none());
    assert_refused("go-back-N timer", timer, PAGE_RUN, |_| {});
    // ...and a map-in in flight: with a two-entry IOTLB, warming leaves
    // pages 2 and 3 resident, so page 0's first word misses.
    let mut map_in = build_with(&unpinned, |c| c.nic.unpinned.iotlb_entries = 2);
    let (t, src) = (map_in.m.now(), map_in.src);
    first_word(&mut map_in, t, src);
    let last_page = Run {
        first: 3 * PAGE_SIZE,
        rest: 3 * PAGE_SIZE + WORD_SIZE,
        ..PAGE_RUN
    };
    assert_refused("map-in in flight", map_in, last_page, |_| {});

    // An incoming delivery waits at the sender: node 1 stores a word
    // into a page of node 0's, and the machine steps until node 0
    // accepts it.
    let mut incoming = build(&auto);
    let (pid, rpid) = (incoming.pid, incoming.rpid);
    let m = &mut incoming.m;
    let back = m.alloc_pages(SND, pid, 1).expect("alloc");
    let export = m
        .export_buffer(SND, pid, back, 1, Some(RCV))
        .expect("export");
    let out = m.alloc_pages(RCV, rpid, 1).expect("alloc");
    m.map(MapRequest {
        src_node: RCV,
        src_pid: rpid,
        src_va: out,
        dst_node: SND,
        export,
        dst_offset: 0,
        len: PAGE_SIZE,
        policy: UpdatePolicy::AutomaticSingle,
    })
    .expect("map back");
    m.poke(RCV, rpid, out, &[9; 4]).expect("send back");
    step_until(m, |m| m.nodes[0].nic.incoming_ready_at().is_some());
    assert_refused("incoming delivery pending", incoming, PAGE_RUN, |_| {});
}
