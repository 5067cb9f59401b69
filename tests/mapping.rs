//! The mapping control plane (paper §2, §3.2, §4.4) on both NIC
//! backends: `map`, `unmap` and the write-fault re-establishment keep
//! every NIPT, kernel record and receiver import in agreement, a `map`
//! that fails changes nothing, and a range past the top of an address
//! space is an error, not a panic.
//!
//! Every test ends with [`check_agreement`], which also runs on the
//! machines of five generated session scenarios.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use shrimp::cpu::{Assembler, Reg};
use shrimp::mem::{PageNum, VirtAddr, PAGE_SIZE};
use shrimp::mesh::NodeId;
use shrimp::nic::{NicBackend, NicError, UpdatePolicy};
use shrimp::os::{ExportId, OsError, Pid};
use shrimp::workload::{dsl::Scenario, run_scenario_observed};
use shrimp::{Machine, MachineConfig, MachineError, MapRequest, MappingId};

const BACKENDS: [NicBackend; 2] = [NicBackend::Shrimp, NicBackend::Unpinned];
const SND: NodeId = NodeId(0);
const RCV: NodeId = NodeId(1);
const HALF: u64 = PAGE_SIZE / 2;

/// The mapping agreement, from public accessors only. On every node and
/// frame:
/// - the NIPT out-segments equal the kernel's outgoing records, as
///   multisets of (destination node, destination frame);
/// - the frame is mapped in exactly when it has an importer;
/// - its importers are the nodes with a live segment into it.
fn check_agreement(m: &Machine) {
    let frames = m.config().pages_per_node;
    let mut senders: BTreeMap<(NodeId, PageNum), BTreeSet<NodeId>> = BTreeMap::new();
    for node in m.config().shape.iter_nodes() {
        let nipt = m.nic(node).nipt();
        for frame in (0..frames).map(PageNum::new) {
            let mut segments: Vec<(NodeId, PageNum)> = nipt
                .entry(frame)
                .into_iter()
                .flat_map(|e| e.segments())
                .map(|s| (s.dst_node, s.dst_base.page()))
                .collect();
            let mut records: Vec<(NodeId, PageNum)> = m
                .kernel(node)
                .outgoing_for_frame(frame)
                .iter()
                .map(|r| (r.dst_node, r.dst_frame))
                .collect();
            segments.sort_unstable();
            records.sort_unstable();
            assert_eq!(segments, records, "{node:?} {frame}: NIPT segments against records");
            for dst in segments {
                senders.entry(dst).or_default().insert(node);
            }
        }
    }
    for node in m.config().shape.iter_nodes() {
        for frame in (0..frames).map(PageNum::new) {
            let importers = m.kernel(node).importers_of(frame);
            assert_eq!(
                m.nic(node).nipt().is_mapped_in(frame),
                !importers.is_empty(),
                "{node:?} {frame}: mapped in exactly when imported"
            );
            let live: Vec<NodeId> = senders
                .get(&(node, frame))
                .map_or_else(Vec::new, |s| s.iter().copied().collect());
            assert_eq!(importers, live, "{node:?} {frame}: importers against live segments");
        }
    }
}

/// Everything a refused `map` must leave as it found it: the clock,
/// each frame's NIPT segments, mapped-in bit, records and importers,
/// and every process page's frame, protection and caching.
fn state(m: &Machine) -> String {
    let mut out = format!("{:?}\n", m.now());
    for node in m.config().shape.iter_nodes() {
        let (nipt, kernel) = (m.nic(node).nipt(), m.kernel(node));
        for frame in (0..m.config().pages_per_node).map(PageNum::new) {
            let segments: Vec<_> =
                nipt.entry(frame).into_iter().flat_map(|e| e.segments()).collect();
            let records = kernel.outgoing_for_frame(frame);
            let importers = kernel.importers_of(frame);
            let mapped_in = nipt.is_mapped_in(frame);
            if !segments.is_empty() || !records.is_empty() || !importers.is_empty() || mapped_in {
                let _ = writeln!(
                    out,
                    "{node:?} {frame}: {segments:?} in={mapped_in} {records:?} {importers:?}"
                );
            }
        }
        for pid in kernel.pids() {
            let pages: Vec<_> = kernel.process(pid).unwrap().page_table().iter().collect();
            let _ = writeln!(out, "{node:?} {pid}: {pages:?}");
        }
    }
    out
}

/// A two-node machine with one process on each node.
struct World {
    m: Machine,
    s: Pid,
    r: Pid,
}

impl World {
    fn new(backend: NicBackend) -> Self {
        let mut cfg = MachineConfig::two_nodes();
        cfg.nic_backend = backend;
        let mut m = Machine::new(cfg);
        let s = m.create_process(SND);
        let r = m.create_process(RCV);
        World { m, s, r }
    }

    /// `pages` fresh sender pages.
    fn src(&mut self, pages: u64) -> VirtAddr {
        self.m.alloc_pages(SND, self.s, pages).unwrap()
    }

    /// `pages` fresh receiver pages, exported to any node.
    fn dst(&mut self, pages: u64) -> (VirtAddr, ExportId) {
        let va = self.m.alloc_pages(RCV, self.r, pages).unwrap();
        (va, self.m.export_buffer(RCV, self.r, va, pages, None).unwrap())
    }

    /// Maps `len` bytes at `src` to `dst_offset` of `export`.
    fn map(
        &mut self,
        src_va: VirtAddr,
        export: ExportId,
        dst_offset: u64,
        len: u64,
    ) -> Result<MappingId, MachineError> {
        self.m.map(MapRequest {
            src_node: SND,
            src_pid: self.s,
            src_va,
            dst_node: RCV,
            export,
            dst_offset,
            len,
            policy: UpdatePolicy::AutomaticSingle,
        })
    }

    /// The receiver frame backing `va`.
    fn frame(&self, va: VirtAddr) -> PageNum {
        self.m.kernel(RCV).frame_of(self.r, va.page()).unwrap()
    }

    /// Pages out the receiver frame backing `va` through the whole
    /// §4.4 protocol: invalidate, acknowledge, replace.
    fn page_out(&mut self, va: VirtAddr) {
        let frame = self.frame(va);
        self.m.begin_pageout(RCV, frame).unwrap();
        self.m.run_until_idle().unwrap();
        assert!(self.m.pageout_complete(RCV, frame));
        self.m.complete_pageout(RCV, frame).unwrap();
    }

    /// Stores `value` at `va` from a CPU program, so a write fault is
    /// serviced; the program must run to its end rather than be killed.
    fn cpu_store(&mut self, va: VirtAddr, value: u32) {
        let mut asm = Assembler::new();
        asm.li(Reg::R1, value).store(Reg::R1, Reg::R5, 0).li(Reg::R2, 1).halt();
        self.m.load_program(SND, self.s, asm.assemble().unwrap());
        self.m.set_reg(SND, self.s, Reg::R5, va.raw() as u32);
        self.m.start(SND, self.s);
        self.m.run_until_idle().unwrap();
        assert_eq!(self.m.cpu(SND, self.s).unwrap().reg(Reg::R2), 1, "store at {va} killed");
    }

    /// A host store of `value` at `va`, run to quiescence.
    fn poke(&mut self, va: VirtAddr, value: u32) {
        self.m.poke(SND, self.s, va, &value.to_le_bytes()).unwrap();
        self.m.run_until_idle().unwrap();
    }

    /// The receiver's word at `va`.
    fn peek(&self, va: VirtAddr) -> u32 {
        let bytes = self.m.peek(RCV, self.r, va, 4).unwrap();
        u32::from_le_bytes(bytes.try_into().unwrap())
    }

    /// No packet was dropped, and the mapping state agrees.
    fn done(self) {
        assert!(self.m.drops().is_empty(), "dropped: {:?}", self.m.drops());
        check_agreement(&self.m);
    }
}

/// A source page split across two receiver frames (§3.2), both paged
/// out: the fault re-establishes both segments, each with one record.
#[test]
fn split_page_keeps_a_record_per_segment() {
    for backend in BACKENDS {
        let mut w = World::new(backend);
        let src = w.src(1);
        let (dst, export) = w.dst(2);
        w.map(src, export, 100, PAGE_SIZE).unwrap();
        w.page_out(dst);
        w.page_out(dst.add(PAGE_SIZE));
        w.cpu_store(src, 7);
        w.poke(src.add(PAGE_SIZE - 4), 8);
        assert_eq!((w.peek(dst.add(100)), w.peek(dst.add(PAGE_SIZE + 96))), (7, 8));
        w.done();
    }
}

/// A mapping re-established into a new receiver frame records that
/// frame, so paging it out invalidates the sender again.
#[test]
fn reestablished_mapping_records_its_new_frame() {
    for backend in BACKENDS {
        let mut w = World::new(backend);
        let src = w.src(1);
        let (dst, export) = w.dst(1);
        w.map(src, export, 0, PAGE_SIZE).unwrap();
        let old = w.frame(dst);
        w.page_out(dst);
        // The freed frame goes to another page, so `dst` comes back elsewhere.
        w.m.alloc_pages(RCV, w.r, 1).unwrap();
        w.cpu_store(src, 1);
        assert_ne!(w.frame(dst), old);
        w.page_out(dst);
        w.cpu_store(src, 2);
        assert_eq!(w.peek(dst), 2);
        w.done();
    }
}

/// Unmapping one of two mappings that share a source page and a
/// destination node leaves the other's record and receiver frame.
#[test]
fn unmap_keeps_a_mapping_on_the_same_source_page() {
    for backend in BACKENDS {
        let mut w = World::new(backend);
        let src = w.src(1);
        let (dst, export) = w.dst(2);
        let a = w.map(src, export, 0, HALF).unwrap();
        w.map(src.add(HALF), export, PAGE_SIZE, HALF).unwrap();
        w.m.unmap(a).unwrap();
        w.poke(src.add(HALF), 5);
        assert_eq!(w.peek(dst.add(PAGE_SIZE)), 5);
        w.done();
    }
}

/// Unmapping one of two mappings from one node into one receiver frame
/// keeps the frame mapped in for the other.
#[test]
fn unmap_keeps_a_mapping_into_the_same_frame() {
    for backend in BACKENDS {
        let mut w = World::new(backend);
        let src = w.src(2);
        let (dst, export) = w.dst(1);
        let a = w.map(src, export, 0, HALF).unwrap();
        w.map(src.add(PAGE_SIZE), export, HALF, HALF).unwrap();
        w.m.unmap(a).unwrap();
        w.poke(src.add(PAGE_SIZE), 6);
        assert_eq!(w.peek(dst.add(HALF)), 6);
        w.done();
    }
}

/// A `map` that fails part-way, on a NIPT overlap or on an unmapped
/// send buffer, leaves every NIPT, record, import, page and the clock
/// as it found them.
#[test]
fn failed_map_changes_nothing() {
    for backend in BACKENDS {
        let mut w = World::new(backend);
        let src = w.src(2);
        let (_, export) = w.dst(3);
        // Eight bytes of the second source page are mapped already.
        w.map(src.add(PAGE_SIZE + 8), export, 2 * PAGE_SIZE, 8).unwrap();
        let before = state(&w.m);
        let overlap = w.map(src, export, 0, 2 * PAGE_SIZE);
        assert_eq!(overlap, Err(MachineError::Nic(NicError::BadMapping("segments overlap"))));
        assert_eq!(state(&w.m), before);
        let unmapped = w.map(src.add(8 * PAGE_SIZE), export, 0, PAGE_SIZE);
        assert!(matches!(unmapped, Err(MachineError::Os(OsError::RangeNotMapped { .. }))));
        assert_eq!(state(&w.m), before);
        w.done();
    }
}

/// Two mappings on one source page, both invalidated: the write fault
/// re-establishes both.
#[test]
fn fault_reestablishes_every_mapping_of_the_page() {
    for backend in BACKENDS {
        let mut w = World::new(backend);
        let src = w.src(1);
        let (dst, export) = w.dst(2);
        w.map(src, export, 0, HALF).unwrap();
        w.map(src.add(HALF), export, PAGE_SIZE, HALF).unwrap();
        w.page_out(dst);
        w.page_out(dst.add(PAGE_SIZE));
        w.cpu_store(src, 3);
        w.poke(src.add(HALF), 4);
        assert_eq!((w.peek(dst), w.peek(dst.add(PAGE_SIZE))), (3, 4));
        w.done();
    }
}

/// Unmapping a mapping whose destination was paged out makes its source
/// page writable again.
#[test]
fn unmap_of_an_invalidated_mapping_restores_writes() {
    for backend in BACKENDS {
        let mut w = World::new(backend);
        let src = w.src(1);
        let (dst, export) = w.dst(1);
        let id = w.map(src, export, 0, PAGE_SIZE).unwrap();
        w.page_out(dst);
        w.m.unmap(id).unwrap();
        w.cpu_store(src, 9);
        assert_eq!(w.m.peek(SND, w.s, src, 4).unwrap(), 9u32.to_le_bytes());
        w.done();
    }
}

/// A second `map` of a mapped source range is refused with the overlap
/// error, and the first mapping keeps its destination.
#[test]
fn mapping_a_mapped_range_again_is_refused() {
    for backend in BACKENDS {
        let mut w = World::new(backend);
        let src = w.src(1);
        let (dst, export) = w.dst(2);
        w.map(src, export, 0, PAGE_SIZE).unwrap();
        let before = state(&w.m);
        let again = w.map(src, export, PAGE_SIZE, PAGE_SIZE);
        assert_eq!(again, Err(MachineError::Nic(NicError::BadMapping("segments overlap"))));
        assert_eq!(state(&w.m), before);
        w.poke(src, 11);
        assert_eq!(w.peek(dst), 11);
        w.done();
    }
}

/// A range past the top of either address space gets the in-range
/// check's error and changes nothing.
#[test]
fn ranges_past_the_top_are_errors() {
    for backend in BACKENDS {
        let mut w = World::new(backend);
        let src = w.src(1);
        let (_, export) = w.dst(1);
        let before = state(&w.m);
        let wraps = [(u64::MAX - (PAGE_SIZE - 1), 2 * PAGE_SIZE), (u64::MAX, 1), (1, u64::MAX)];
        for (dst_offset, len) in wraps {
            let err = w.map(src, export, dst_offset, len);
            let too_small = Err(MachineError::Os(OsError::ExportTooSmall));
            assert_eq!(err, too_small, "+{dst_offset}, {len} B");
        }
        let top = VirtAddr::new(u64::MAX - 99);
        let err = w.map(top, export, 0, PAGE_SIZE);
        assert!(matches!(err, Err(MachineError::Os(OsError::RangeNotMapped { .. }))), "{err:?}");
        assert_eq!(state(&w.m), before);
        w.done();
    }
}

/// The agreement holds on generated session workloads: lazily mapped
/// channels on both backends, with loss and link churn.
#[test]
fn scenario_machines_agree() {
    for name in ["mixed", "unpinned_faulty", "churn", "dsm", "fanout"] {
        let path = format!("{}/scenarios/{name}.shrimp", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let sc = Scenario::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"));
        let (_, m) = run_scenario_observed(&sc).unwrap_or_else(|e| panic!("{name}: {e}"));
        check_agreement(&m);
    }
}
