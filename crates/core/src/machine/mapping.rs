//! The mapping control plane: the paper's `map` call (§2) with its
//! split-page segments (§3.2), `unmap`, command pages (§4.2), and the
//! §4.4 consistency protocol's pageout and write-fault
//! re-establishment.
//!
//! Every path runs on one segment walk (`MapRequest::segments`), one
//! all-or-nothing `install` and one per-segment `teardown`. Each NIPT
//! segment has exactly one kernel record on the sender and one import
//! on the receiver. The plane is part of `Machine` because one install
//! edits two nodes' kernels and NICs, possibly the same node's, and only
//! the machine owns both (DESIGN.md §5l).

use std::ops::Range;

use shrimp_mem::{
    CacheMode, MemError, PageFlags, PageNum, Protection, VirtAddr, VirtPageNum, PAGE_SIZE,
};
use shrimp_mesh::NodeId;
use shrimp_nic::{OutSegment, UpdatePolicy};
use shrimp_os::kernel::OutgoingRecord;
use shrimp_os::{ExportId, OsError, Pid};
use shrimp_sim::{ComponentId, SimTime, TraceData};

use super::Machine;
use crate::config::{FAULT_COST, KERNEL_MSG_LATENCY, MAP_SYSCALL_COST};
use crate::error::MachineError;
use crate::node::NodeEvent;

/// Identifies one established mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MappingId(pub u32);

/// A request to establish a virtual memory mapping — the kernel half of
/// the paper's `map(send-buf, destination, receive-buf)` call (§2). The
/// receive buffer is named by an export the receiving process published.
#[derive(Debug, Clone, Copy)]
pub struct MapRequest {
    /// Sending node.
    pub src_node: NodeId,
    /// Sending process.
    pub src_pid: Pid,
    /// First byte of the send buffer (any alignment).
    pub src_va: VirtAddr,
    /// Receiving node.
    pub dst_node: NodeId,
    /// The receiving process's export.
    pub export: ExportId,
    /// Byte offset into the exported buffer (any alignment).
    pub dst_offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// Transfer strategy.
    pub policy: UpdatePolicy,
}

/// An established mapping.
#[derive(Debug)]
pub(super) struct Registration {
    id: MappingId,
    req: MapRequest,
}

/// One NIPT segment of a request: `len` bytes from request byte `pos`,
/// at `src_off` of source page `vpn` and at `dst_off` of the export's
/// page `dst_page`.
#[derive(Debug, Clone, Copy)]
struct Segment {
    pos: u64,
    len: u64,
    vpn: VirtPageNum,
    src_off: u64,
    dst_page: u64,
    dst_off: u64,
}

impl MapRequest {
    /// The §3.2 split, the only one: the NIPT segments of request bytes
    /// `bytes`, cut at every page boundary of either side.
    fn segments(self, bytes: Range<u64>) -> impl Iterator<Item = Segment> {
        let mut pos = bytes.start;
        std::iter::from_fn(move || {
            if pos >= bytes.end {
                return None;
            }
            let (src, dst) = (self.src_va.add(pos), self.dst_offset + pos);
            let (src_off, dst_off) = (src.offset(), dst % PAGE_SIZE);
            let len = (PAGE_SIZE - src_off).min(PAGE_SIZE - dst_off).min(bytes.end - pos);
            let (vpn, dst_page) = (src.page(), dst / PAGE_SIZE);
            let seg = Segment { pos, len, vpn, src_off, dst_page, dst_off };
            pos += len;
            Some(seg)
        })
    }
}

impl Machine {
    /// Establishes a virtual memory mapping: the expensive, fully
    /// protection-checked `map` system call of paper §2. Costs
    /// [`MAP_SYSCALL_COST`] of simulated time.
    ///
    /// Arbitrary (non-page-aligned) ranges are supported through the
    /// §3.2 split-page mechanism; each source page may end up carrying
    /// two NIPT segments.
    ///
    /// # Errors
    ///
    /// Fails if the send buffer is not mapped, the export does not admit
    /// the sender or cover the range, or the NIPT cannot hold the
    /// required segments (an already-mapped source byte overlaps). A
    /// failed `map` changes nothing and takes no time.
    pub fn map(&mut self, req: MapRequest) -> Result<MappingId, MachineError> {
        self.mark_endpoints(req);
        if req.len == 0 {
            return Err(MachineError::EmptyMapping);
        }
        // A range past the top of either address space gets the in-range
        // checks' error before any arithmetic on it can overflow.
        if req.dst_offset.checked_add(req.len).is_none() {
            return Err(OsError::ExportTooSmall.into());
        }
        if req.src_va.raw().checked_add(req.len).is_none() {
            let (pid, vpn) = (req.src_pid, req.src_va.page());
            return Err(OsError::RangeNotMapped { pid, vpn }.into());
        }
        self.install(req, 0..req.len)?;
        self.node_mut(req.src_node).tlb.flush();
        let id = MappingId(self.next_mapping);
        self.next_mapping += 1;
        self.registrations.push(Registration { id, req });
        if self.trace.is_on() {
            let data = TraceData::PageMapped {
                node: req.dst_node.0,
                page: req.src_va.page().raw(),
            };
            self.emit(req.src_node, self.now(), ComponentId::MACHINE, data);
        }

        // The map call is the deliberately slow, rare operation.
        let done = self.now() + MAP_SYSCALL_COST;
        self.run_until(done);
        Ok(id)
    }

    /// Tears down a mapping established by [`Machine::map`], segment by
    /// segment: each NIPT segment with its record, or the invalidation
    /// a pageout left for it, and its receiver import. A source page is
    /// writable again once no invalidation is left on it, and write-back
    /// once no segment is; a receiver frame with no import left is no
    /// longer mapped in. Costs half a `map` call of kernel time.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::EmptyMapping`] if `id` is unknown (or
    /// already unmapped).
    pub fn unmap(&mut self, id: MappingId) -> Result<(), MachineError> {
        let pos = self
            .registrations
            .iter()
            .position(|r| r.id == id)
            .ok_or(MachineError::EmptyMapping)?;
        let req = self.registrations.remove(pos).req;
        self.mark_endpoints(req);
        for seg in req.segments(0..req.len) {
            self.teardown(req, seg);
        }
        self.node_mut(req.src_node).tlb.flush();
        if self.trace.is_on() {
            let data = TraceData::PageUnmapped {
                node: req.dst_node.0,
                page: req.src_va.page().raw(),
            };
            self.emit(req.src_node, self.now(), ComponentId::MACHINE, data);
        }
        let done = self.now() + MAP_SYSCALL_COST / 2;
        self.run_until(done);
        Ok(())
    }

    /// Puts both endpoints of `req` on the pump worklist (DESIGN.md
    /// §5j): installing or tearing down its segments changes both NICs.
    /// An off-mesh id names no node to mark.
    fn mark_endpoints(&mut self, req: MapRequest) {
        for node in [req.src_node, req.dst_node] {
            if usize::from(node.0) < self.nodes.len() {
                self.active.mark(node.0);
            }
        }
    }

    /// Installs the segments of request bytes `bytes`, all or nothing:
    /// the receiver grants one import per segment and maps each frame
    /// in, then the sender writes each segment into its NIPT with
    /// exactly one kernel record, and its pages turn write-through (the
    /// caller flushes the TLB). On an error everything installed is
    /// torn down again.
    fn install(&mut self, req: MapRequest, bytes: Range<u64>) -> Result<(), MachineError> {
        // The receiver frames granted and the segments written, for the
        // rollback.
        let (mut frames, mut written) = (Vec::new(), 0);
        let mut steps = || -> Result<(), MachineError> {
            let (dst, from) = (&mut self.nodes[req.dst_node.0 as usize], req.src_node);
            for seg in req.segments(bytes.clone()) {
                let token = dst.kernel.grant_in_mapping(req.export, from, seg.dst_page, 1)?;
                frames.push(token.frames[0]);
                dst.nic.map_in(token.frames[0], true)?;
            }
            let src = &mut self.nodes[req.src_node.0 as usize];
            for (seg, &dst_frame) in req.segments(bytes.clone()).zip(&frames) {
                let src_frame = src.kernel.frame_of(req.src_pid, seg.vpn)?;
                let out = OutSegment {
                    src_start: seg.src_off,
                    src_end: seg.src_off + seg.len,
                    dst_node: req.dst_node,
                    dst_base: dst_frame.base().add(seg.dst_off),
                    policy: req.policy,
                };
                src.nic.map_out_segment(src_frame, out)?;
                src.kernel.add_outgoing_record(OutgoingRecord {
                    dst_node: req.dst_node,
                    dst_frame,
                    pid: req.src_pid,
                    vpn: seg.vpn,
                    src_frame,
                });
                written += 1;
            }
            let first = req.src_va.add(bytes.start).page();
            let pages = req.src_va.add(bytes.end - 1).page().raw() - first.raw() + 1;
            src.kernel.prepare_out_mapping(req.src_pid, first, pages)?;
            Ok(())
        };
        let result = steps();
        if result.is_err() {
            for seg in req.segments(bytes).take(written) {
                self.teardown(req, seg);
            }
            for &frame in &frames[written..] {
                self.release_import(req, frame);
            }
        }
        result
    }

    /// Tears down one segment of `req`: its NIPT entry and record, or
    /// the invalidation left for it if a pageout scrubbed it, and its
    /// receiver import. The sender's kernel restores the page's caching
    /// and protection once nothing is left on it.
    fn teardown(&mut self, req: MapRequest, seg: Segment) {
        let src = &mut self.nodes[req.src_node.0 as usize];
        let Ok(src_frame) = src.kernel.frame_of(req.src_pid, seg.vpn) else {
            return;
        };
        let dst_frame = src.nic.unmap_out(src_frame, seg.src_off).map(|s| s.dst_base.page());
        src.kernel.remove_outgoing(req.src_pid, seg.vpn, req.dst_node, dst_frame);
        if let Some(frame) = dst_frame {
            self.release_import(req, frame);
        }
    }

    /// Releases one import of receiver `frame`; the last one maps the
    /// frame out.
    fn release_import(&mut self, req: MapRequest, frame: PageNum) {
        let dst = &mut self.nodes[req.dst_node.0 as usize];
        if dst.kernel.release_import(frame, req.src_node) {
            let _ = dst.nic.map_in(frame, false);
        }
    }

    /// Maps the command page controlling the page backing `data_va` into
    /// the process's address space, returning the command page's virtual
    /// base address (§4.2). Accesses at offset `o` of the command page
    /// talk to the NIC about offset `o` of the data page.
    ///
    /// # Errors
    ///
    /// Fails if `data_va` is not mapped.
    pub fn map_command_page(
        &mut self,
        node: NodeId,
        pid: Pid,
        data_va: VirtAddr,
    ) -> Result<VirtAddr, MachineError> {
        let frame = self.node(node).kernel.frame_of(pid, data_va.page())?;
        let n = self.node_mut(node);
        // Command "frames" live just past installed memory, at the fixed
        // distance the hardware decodes.
        let cmd_frame = n.nic.command_space().command_addr_for(frame.base()).page();
        let proc = n
            .kernel
            .process_mut(pid)
            .ok_or(OsError::NoSuchProcess(pid))?;
        let vpn = proc.reserve_vpns(1);
        let flags = PageFlags {
            protection: Protection::ReadWrite,
            cache_mode: CacheMode::WriteThrough, // uncached in effect; bypassed below
        };
        proc.page_table_mut().map(vpn, cmd_frame, flags);
        Ok(vpn.base())
    }

    // ───────────────────────────── paging ────────────────────────────────

    /// Starts the §4.4 pageout protocol for a frame of `node`.
    ///
    /// # Errors
    ///
    /// Propagates kernel protocol errors (no importers, already in
    /// progress).
    pub fn begin_pageout(&mut self, node: NodeId, frame: PageNum) -> Result<(), MachineError> {
        let msgs = self.node_mut(node).kernel.begin_pageout(frame)?;
        let at = self.now() + KERNEL_MSG_LATENCY;
        for (dst, msg) in msgs {
            self.push_event(at, dst.0, NodeEvent::KernelMsg { msg });
        }
        Ok(())
    }

    /// True once every importer acknowledged (run the machine first).
    pub fn pageout_complete(&self, node: NodeId, frame: PageNum) -> bool {
        self.node(node).kernel.pageout_complete(frame)
    }

    /// Finishes a complete pageout, freeing the frame.
    ///
    /// # Errors
    ///
    /// Propagates kernel protocol errors.
    pub fn complete_pageout(&mut self, node: NodeId, frame: PageNum) -> Result<(), MachineError> {
        let n = self.node_mut(node);
        n.kernel.complete_pageout(frame)?;
        n.nic.map_in(frame, false)?;
        n.tlb.flush();
        Ok(())
    }

    // ─────────────────────────── fault service ───────────────────────────

    /// Services a CPU fault. A write to a page a pageout invalidated
    /// re-establishes its mappings (§4.4) and resumes the store after
    /// the fault, two kernel messages and a quarter `map`; any other
    /// fault kills the process.
    pub(super) fn handle_fault(&mut self, t: SimTime, node: NodeId, pid: Pid, error: MemError) {
        if let MemError::ProtectionViolation { addr, write: true } = error {
            if self.node_mut(node).kernel.handle_write_fault(pid, addr).is_ok()
                && self.reestablish(node, pid, addr.page()).is_ok()
            {
                let cost = FAULT_COST + KERNEL_MSG_LATENCY * 2 + MAP_SYSCALL_COST / 4;
                let resume = t + cost;
                let n = self.node_mut(node);
                n.cpu_busy_until = resume;
                n.tlb.flush();
                self.push_event(resume, node.0, NodeEvent::CpuStep);
                return;
            }
        }
        // Unserviceable fault: the process is killed.
        let n = &mut self.nodes[node.0 as usize];
        n.sched.remove(pid);
        n.running = None;
        self.syscall_log.push((t, node, pid, u32::MAX));
        self.push_event(t, node.0, NodeEvent::CpuStep);
    }

    /// Re-installs, for every mapping of `pid` on `node`, each segment
    /// on source page `vpn` that a pageout scrubbed from the NIPT,
    /// paging its receiver page back in first.
    fn reestablish(
        &mut self,
        node: NodeId,
        pid: Pid,
        vpn: VirtPageNum,
    ) -> Result<(), MachineError> {
        let frame = self.node(node).kernel.frame_of(pid, vpn)?;
        let reqs: Vec<MapRequest> = self
            .registrations
            .iter()
            .map(|r| r.req)
            .filter(|r| r.src_node == node && r.src_pid == pid)
            .collect();
        for req in reqs {
            let on_page = req.segments(0..req.len).skip_while(|s| s.vpn < vpn);
            for seg in on_page.take_while(|s| s.vpn == vpn) {
                let entry = self.node(node).nic.nipt().entry(frame);
                if entry.is_some_and(|e| e.segment_at(seg.src_off).is_some()) {
                    continue;
                }
                // The faulting node is on the pump worklist already (its
                // own event raised the fault); the receiver is touched
                // from here.
                self.active.mark(req.dst_node.0);
                let kernel = &mut self.nodes[req.dst_node.0 as usize].kernel;
                let export = *kernel.export(req.export).ok_or(OsError::NotExported)?;
                let page = VirtPageNum::new(export.vpn.raw() + seg.dst_page);
                kernel.ensure_mapped(export.pid, page)?;
                self.install(req, seg.pos..seg.pos + seg.len)?;
            }
        }
        Ok(())
    }
}
