//! The per-node kernel.
//!
//! The kernel owns everything the `map` system call must get right so
//! that the data path can be protection-free:
//!
//! * **Exports** — a receiving process grants standing permission for a
//!   buffer to be mapped in (optionally restricted to one sending node).
//!   `map` on the sender side names an export; the receiving kernel
//!   verifies it. This is the protection check of paper §2.
//! * **Sender half** ([`Kernel::prepare_out_mapping`]) — validates the
//!   send buffer and switches its pages to write-through caching so the
//!   NIC can snoop every store (§3.1); each installed segment is then
//!   recorded ([`Kernel::add_outgoing_record`]) for §4.4.
//! * **Receiver half** ([`Kernel::grant_in_mapping`]) — validates the
//!   export, then either **pins** the frames (the simple §4.4 policy) or
//!   merely records the import (the invalidate policy). Imports are
//!   counted per segment, so a frame is released with the last segment
//!   that sends into it.
//! * **Mapping consistency** (§4.4) — before replacing an imported frame,
//!   the kernel broadcasts `InvalidateNipt` to every importer, which
//!   marks its source pages read-only (so the next store faults and the
//!   mapping can be re-established) and acknowledges; the frame is only
//!   replaced when all acks are in.

use std::collections::{BTreeMap, BTreeSet};

use shrimp_mem::{CacheMode, PageNum, Protection, VirtAddr, VirtPageNum};
use shrimp_mesh::NodeId;

use crate::error::OsError;
use crate::msg::KernelMsg;
use crate::process::{Pid, Process};

/// Identifies one export on its node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExportId(pub u32);

/// A standing permission to map a buffer in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Export {
    /// The export's id.
    pub id: ExportId,
    /// Owning process.
    pub pid: Pid,
    /// First virtual page of the buffer.
    pub vpn: VirtPageNum,
    /// Length in pages.
    pub pages: u64,
    /// `None` admits any node; `Some(n)` admits only node `n`.
    pub allowed: Option<NodeId>,
}

/// What [`Kernel::grant_in_mapping`] hands back for the sender's NIPT:
/// the receiver-side physical frames, in buffer order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapToken {
    /// Receiver frames backing the buffer.
    pub frames: Vec<PageNum>,
}

/// How the kernel keeps remote NIPTs consistent with local paging (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsistencyPolicy {
    /// Pin every frame with an incoming mapping; replacement of such a
    /// frame is simply refused. "Satisfactory if there are not too many
    /// communication mappings."
    Pin,
    /// Allow replacement after an invalidation round-trip with every
    /// importer (the TLB-shootdown-style protocol).
    Invalidate,
}

/// A sender-side outgoing mapping record (used to service invalidations
/// and faults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutgoingRecord {
    /// Destination node.
    pub dst_node: NodeId,
    /// Destination frame.
    pub dst_frame: PageNum,
    /// Local owning process.
    pub pid: Pid,
    /// Local source virtual page.
    pub vpn: VirtPageNum,
    /// Local source frame.
    pub src_frame: PageNum,
}

/// The kernel of one node.
///
/// See the crate docs for an example.
#[derive(Debug, Clone)]
pub struct Kernel {
    node: NodeId,
    policy: ConsistencyPolicy,
    procs: BTreeMap<Pid, Process>,
    free_frames: Vec<PageNum>,
    next_pid: u32,
    next_export: u32,
    exports: Vec<Export>,
    /// Local frames remote NIPTs send into → each importing node's
    /// count of segments into the frame.
    importers: BTreeMap<PageNum, BTreeMap<NodeId, u32>>,
    /// One record per live local NIPT out-segment.
    outgoing: Vec<OutgoingRecord>,
    /// Pageouts awaiting acknowledgements: frame → nodes still to ack.
    pageouts: BTreeMap<PageNum, BTreeSet<NodeId>>,
    /// The records of segments a remote pageout scrubbed, waiting for a
    /// write fault on their page to trigger re-establishment.
    invalidated: Vec<OutgoingRecord>,
}

impl Kernel {
    /// Creates a kernel managing `num_frames` frames with the pin policy.
    pub fn new(node: NodeId, num_frames: u64) -> Self {
        Kernel::with_policy(node, num_frames, ConsistencyPolicy::Pin)
    }

    /// Creates a kernel with an explicit consistency policy.
    pub fn with_policy(node: NodeId, num_frames: u64, policy: ConsistencyPolicy) -> Self {
        Kernel {
            node,
            policy,
            procs: BTreeMap::new(),
            // Reverse order so allocation hands out ascending frames.
            free_frames: (0..num_frames).rev().map(PageNum::new).collect(),
            next_pid: 1,
            next_export: 1,
            exports: Vec::new(),
            importers: BTreeMap::new(),
            outgoing: Vec::new(),
            pageouts: BTreeMap::new(),
            invalidated: Vec::new(),
        }
    }

    /// This kernel's node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The consistency policy in force.
    pub fn policy(&self) -> ConsistencyPolicy {
        self.policy
    }

    /// Frames not currently allocated.
    pub fn free_frame_count(&self) -> usize {
        self.free_frames.len()
    }

    // ─────────────────────────── processes ──────────────────────────────

    /// Creates an empty process.
    pub fn create_process(&mut self) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.procs.insert(pid, Process::new(pid));
        pid
    }

    /// The process table entry.
    pub fn process(&self, pid: Pid) -> Option<&Process> {
        self.procs.get(&pid)
    }

    /// Mutable process table entry.
    pub fn process_mut(&mut self, pid: Pid) -> Option<&mut Process> {
        self.procs.get_mut(&pid)
    }

    /// All pids on this node.
    pub fn pids(&self) -> Vec<Pid> {
        self.procs.keys().copied().collect()
    }

    /// Allocates and maps `pages` fresh frames into `pid`, read-write,
    /// write-back. Returns the first virtual page.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] or [`OsError::OutOfMemory`].
    pub fn alloc_pages(&mut self, pid: Pid, pages: u64) -> Result<VirtPageNum, OsError> {
        if !self.procs.contains_key(&pid) {
            return Err(OsError::NoSuchProcess(pid));
        }
        if (self.free_frames.len() as u64) < pages {
            return Err(OsError::OutOfMemory);
        }
        let proc = self.procs.get_mut(&pid).expect("checked above");
        let base = proc.reserve_vpns(pages);
        for i in 0..pages {
            let frame = self.free_frames.pop().expect("checked above");
            proc.page_table_mut().map(
                VirtPageNum::new(base.raw() + i),
                frame,
                shrimp_mem::PageFlags::default(),
            );
        }
        Ok(base)
    }

    /// The frame backing `(pid, vpn)`.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] / [`OsError::RangeNotMapped`].
    pub fn frame_of(&self, pid: Pid, vpn: VirtPageNum) -> Result<PageNum, OsError> {
        let proc = self.procs.get(&pid).ok_or(OsError::NoSuchProcess(pid))?;
        proc.page_table()
            .entry(vpn)
            .map(|(f, _)| f)
            .ok_or(OsError::RangeNotMapped { pid, vpn })
    }

    // ─────────────────────────── exports ────────────────────────────────

    /// Records a standing permission for `[vpn, vpn + pages)` of `pid` to
    /// be mapped in, optionally restricted to one node.
    ///
    /// # Errors
    ///
    /// [`OsError::RangeNotMapped`] if any page of the range is unmapped.
    pub fn export_buffer(
        &mut self,
        pid: Pid,
        vpn: VirtPageNum,
        pages: u64,
        allowed: Option<NodeId>,
    ) -> Result<ExportId, OsError> {
        let proc = self.procs.get(&pid).ok_or(OsError::NoSuchProcess(pid))?;
        if !proc.range_mapped(vpn, pages) {
            return Err(OsError::RangeNotMapped { pid, vpn });
        }
        let id = ExportId(self.next_export);
        self.next_export += 1;
        self.exports.push(Export {
            id,
            pid,
            vpn,
            pages,
            allowed,
        });
        Ok(id)
    }

    /// Looks up an export.
    pub fn export(&self, id: ExportId) -> Option<&Export> {
        self.exports.iter().find(|e| e.id == id)
    }

    /// Revokes an export (already-established mappings stay; new `map`
    /// calls fail). Returns whether it existed.
    pub fn revoke_export(&mut self, id: ExportId) -> bool {
        let before = self.exports.len();
        self.exports.retain(|e| e.id != id);
        before != self.exports.len()
    }

    // ──────────────────── map(): the two kernel halves ──────────────────

    /// Sender half of `map`: validates `[vpn, vpn+pages)` of `pid` as a
    /// send buffer and switches its pages to write-through caching.
    /// Returns the local frames in order. The caller records each NIPT
    /// segment it then installs with [`Kernel::add_outgoing_record`].
    ///
    /// # Errors
    ///
    /// [`OsError::RangeNotMapped`] if the buffer is not fully mapped.
    pub fn prepare_out_mapping(
        &mut self,
        pid: Pid,
        vpn: VirtPageNum,
        pages: u64,
    ) -> Result<Vec<PageNum>, OsError> {
        let proc = self.procs.get_mut(&pid).ok_or(OsError::NoSuchProcess(pid))?;
        if !proc.range_mapped(vpn, pages) {
            return Err(OsError::RangeNotMapped { pid, vpn });
        }
        let mut frames = Vec::with_capacity(pages as usize);
        for i in 0..pages {
            let v = VirtPageNum::new(vpn.raw() + i);
            let (frame, _) = proc.page_table().entry(v).expect("range checked");
            proc.page_table_mut().set_cache_mode(v, CacheMode::WriteThrough);
            frames.push(frame);
        }
        Ok(frames)
    }

    /// Receiver half of `map`: checks the export admits `from_node` and
    /// covers `[offset_pages, offset_pages + pages)`, pins frames under
    /// the pin policy, records one import of each frame, and returns the
    /// frames for the sender's NIPT.
    ///
    /// A grant of a frame whose pageout is pending (a §4.4 write fault
    /// serviced before [`Kernel::complete_pageout`]) cancels the
    /// pageout: the frame stays, and the imports the pageout invalidated
    /// are forgotten, so this grant's is the frame's only one.
    ///
    /// # Errors
    ///
    /// [`OsError::NotExported`], [`OsError::ExportRefused`],
    /// [`OsError::ExportTooSmall`].
    pub fn grant_in_mapping(
        &mut self,
        export_id: ExportId,
        from_node: NodeId,
        offset_pages: u64,
        pages: u64,
    ) -> Result<MapToken, OsError> {
        let export = *self.export(export_id).ok_or(OsError::NotExported)?;
        if let Some(allowed) = export.allowed {
            if allowed != from_node {
                return Err(OsError::ExportRefused { node: from_node });
            }
        }
        if offset_pages.checked_add(pages).is_none_or(|end| end > export.pages) {
            return Err(OsError::ExportTooSmall);
        }
        let pin = self.policy == ConsistencyPolicy::Pin;
        let proc = self
            .procs
            .get_mut(&export.pid)
            .ok_or(OsError::NoSuchProcess(export.pid))?;
        let mut frames = Vec::with_capacity(pages as usize);
        for i in 0..pages {
            let v = VirtPageNum::new(export.vpn.raw() + offset_pages + i);
            let (frame, _) = proc
                .page_table()
                .entry(v)
                .ok_or(OsError::RangeNotMapped { pid: export.pid, vpn: v })?;
            if pin {
                proc.page_table_mut().set_pinned(v, true);
            }
            frames.push(frame);
        }
        for &frame in &frames {
            if self.pageouts.remove(&frame).is_some() {
                self.importers.remove(&frame);
            }
            *self.importers.entry(frame).or_default().entry(from_node).or_default() += 1;
        }
        Ok(MapToken { frames })
    }

    /// Ensures `(pid, vpn)` is backed by a frame, allocating one if the
    /// page was replaced — the "page back in" step of §4.4
    /// re-establishment. Returns the backing frame.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] / [`OsError::OutOfMemory`].
    pub fn ensure_mapped(&mut self, pid: Pid, vpn: VirtPageNum) -> Result<PageNum, OsError> {
        if let Ok(f) = self.frame_of(pid, vpn) {
            return Ok(f);
        }
        let frame = self.free_frames.pop().ok_or(OsError::OutOfMemory)?;
        self.procs
            .get_mut(&pid)
            .ok_or(OsError::NoSuchProcess(pid))?
            .page_table_mut()
            .map(vpn, frame, shrimp_mem::PageFlags::default());
        Ok(frame)
    }

    /// Records one outgoing mapping segment for §4.4 invalidation: a
    /// source page sending into a remote frame. A source page split
    /// across two remote frames (§3.2) gets one record per segment.
    pub fn add_outgoing_record(&mut self, rec: OutgoingRecord) {
        self.outgoing.push(rec);
    }

    /// Removes the record of one torn-down segment of `(pid, vpn)`
    /// towards `dst_node` (the sender half of `unmap`): the live record
    /// into `dst_frame`, or, with `None` for a segment a pageout already
    /// scrubbed, one of the page's invalidations. The page is writable
    /// again once no invalidation is left on it, and write-back once no
    /// record is.
    pub fn remove_outgoing(
        &mut self,
        pid: Pid,
        vpn: VirtPageNum,
        dst_node: NodeId,
        dst_frame: Option<PageNum>,
    ) {
        let on_page = |r: &OutgoingRecord| r.pid == pid && r.vpn == vpn;
        let records = match dst_frame {
            Some(_) => &mut self.outgoing,
            None => &mut self.invalidated,
        };
        let this = |r: &OutgoingRecord| {
            on_page(r) && r.dst_node == dst_node && dst_frame.is_none_or(|f| r.dst_frame == f)
        };
        if let Some(i) = records.iter().position(this) {
            records.remove(i);
        }
        if self.invalidated.iter().any(on_page) {
            return;
        }
        if let Some(proc) = self.procs.get_mut(&pid) {
            let pt = proc.page_table_mut();
            pt.set_protection(vpn, Protection::ReadWrite);
            if !self.outgoing.iter().any(on_page) {
                pt.set_cache_mode(vpn, CacheMode::WriteBack);
            }
        }
    }

    /// Releases one of `from`'s imports of local `frame`: a segment that
    /// sent into it is gone (the receiver half of `unmap`). Returns true
    /// once no import is left, so the caller can clear the mapped-in
    /// bit; the frame is unpinned then.
    pub fn release_import(&mut self, frame: PageNum, from: NodeId) -> bool {
        let Some(nodes) = self.importers.get_mut(&frame) else {
            return true;
        };
        match nodes.get_mut(&from) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                nodes.remove(&from);
            }
        }
        if !nodes.is_empty() {
            return false;
        }
        self.importers.remove(&frame);
        for proc in self.procs.values_mut() {
            for v in proc.page_table().virt_pages_of_frame(frame) {
                proc.page_table_mut().set_pinned(v, false);
            }
        }
        true
    }

    /// The outgoing mapping records for a local source frame.
    pub fn outgoing_for_frame(&self, frame: PageNum) -> Vec<OutgoingRecord> {
        self.outgoing
            .iter()
            .filter(|r| r.src_frame == frame)
            .copied()
            .collect()
    }

    /// The nodes currently importing (sending into) a local frame.
    pub fn importers_of(&self, frame: PageNum) -> Vec<NodeId> {
        self.importers
            .get(&frame)
            .map(|n| n.keys().copied().collect())
            .unwrap_or_default()
    }

    // ───────────────── §4.4 mapping-consistency protocol ────────────────

    /// Starts replacing local frame `frame`, which remote NIPTs send
    /// into. Returns `(destination, message)` pairs to transport.
    ///
    /// # Errors
    ///
    /// [`OsError::FramePinned`] under the pin policy,
    /// [`OsError::PageoutInProgress`] if already started,
    /// [`OsError::NoPageout`] if nothing imports the frame (no protocol
    /// is needed — pages with only outgoing mappings "can safely be
    /// replaced").
    pub fn begin_pageout(&mut self, frame: PageNum) -> Result<Vec<(NodeId, KernelMsg)>, OsError> {
        if self.policy == ConsistencyPolicy::Pin && self.importers.contains_key(&frame) {
            return Err(OsError::FramePinned(frame));
        }
        if self.pageouts.contains_key(&frame) {
            return Err(OsError::PageoutInProgress(frame));
        }
        let importers: BTreeSet<NodeId> = self
            .importers
            .get(&frame)
            .map(|n| n.keys().copied().collect())
            .ok_or(OsError::NoPageout(frame))?;
        let msgs: Vec<(NodeId, KernelMsg)> = importers
            .iter()
            .map(|&n| {
                (
                    n,
                    KernelMsg::InvalidateNipt {
                        from: self.node,
                        frame,
                    },
                )
            })
            .collect();
        self.pageouts.insert(frame, importers);
        Ok(msgs)
    }

    /// The nodes a pageout of `frame` is still waiting on.
    pub fn pending_acks(&self, frame: PageNum) -> Vec<NodeId> {
        self.pageouts
            .get(&frame)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Handles an incoming kernel message, returning replies to transport
    /// and the local source frames whose NIPT out-segments towards the
    /// requester must be cleared by the machine.
    pub fn handle_msg(&mut self, msg: KernelMsg) -> (Vec<KernelMsg>, Vec<PageNum>) {
        match msg {
            KernelMsg::InvalidateNipt { from, frame } => {
                // We are a sender whose NIPT points at (from, frame):
                // invalidate by marking source pages read-only; the next
                // store faults and re-establishes (§4.4).
                let start = self.invalidated.len();
                let hit = |r: &mut OutgoingRecord| r.dst_node == from && r.dst_frame == frame;
                self.invalidated.extend(self.outgoing.extract_if(.., hit));
                let scrub = &self.invalidated[start..];
                for rec in scrub {
                    if let Some(proc) = self.procs.get_mut(&rec.pid) {
                        proc.page_table_mut().set_protection(rec.vpn, Protection::ReadOnly);
                    }
                }
                let scrub = scrub.iter().map(|r| r.src_frame).collect();
                (
                    vec![KernelMsg::InvalidateAck {
                        from: self.node,
                        frame,
                    }],
                    scrub,
                )
            }
            KernelMsg::InvalidateAck { from, frame } => {
                if let Some(waiting) = self.pageouts.get_mut(&frame) {
                    waiting.remove(&from);
                }
                (Vec::new(), Vec::new())
            }
        }
    }

    /// True once every importer acknowledged the invalidation of `frame`.
    pub fn pageout_complete(&self, frame: PageNum) -> bool {
        self.pageouts.get(&frame).is_some_and(|s| s.is_empty())
    }

    /// Finishes a pageout: forgets importer state and frees the frame
    /// (unmapping it from its owner).
    ///
    /// # Errors
    ///
    /// [`OsError::NoPageout`] if no complete pageout is pending, also
    /// when a grant cancelled it.
    pub fn complete_pageout(&mut self, frame: PageNum) -> Result<(), OsError> {
        if !self.pageout_complete(frame) {
            return Err(OsError::NoPageout(frame));
        }
        self.pageouts.remove(&frame);
        self.importers.remove(&frame);
        for proc in self.procs.values_mut() {
            let vpns = proc.page_table().virt_pages_of_frame(frame);
            for v in vpns {
                proc.page_table_mut().set_pinned(v, false);
                proc.page_table_mut().unmap(v);
            }
        }
        self.free_frames.push(frame);
        Ok(())
    }

    /// Services a write fault at `addr` in `pid`. If a remote pageout
    /// invalidated segments of the page, the page becomes writable again
    /// and the first of their records is returned; the machine re-runs
    /// the mapping handshake, which records each segment anew.
    ///
    /// # Errors
    ///
    /// [`OsError::RangeNotMapped`] for faults the kernel cannot explain
    /// (a genuine protection violation — the process is misbehaving).
    pub fn handle_write_fault(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
    ) -> Result<OutgoingRecord, OsError> {
        let vpn = addr.page();
        let on_page = |r: &OutgoingRecord| r.pid == pid && r.vpn == vpn;
        let rec = *self
            .invalidated
            .iter()
            .find(|r| on_page(r))
            .ok_or(OsError::RangeNotMapped { pid, vpn })?;
        self.invalidated.retain(|r| !on_page(r));
        if let Some(proc) = self.procs.get_mut(&pid) {
            proc.page_table_mut()
                .set_protection(vpn, Protection::ReadWrite);
        }
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> Kernel {
        Kernel::new(NodeId(0), 32)
    }

    #[test]
    fn alloc_maps_fresh_frames() {
        let mut k = kernel();
        let pid = k.create_process();
        let base = k.alloc_pages(pid, 4).unwrap();
        assert!(k.process(pid).unwrap().range_mapped(base, 4));
        assert_eq!(k.free_frame_count(), 28);
        // Frames ascend.
        let f0 = k.frame_of(pid, base).unwrap();
        let f1 = k.frame_of(pid, VirtPageNum::new(base.raw() + 1)).unwrap();
        assert_eq!(f1.raw(), f0.raw() + 1);
    }

    #[test]
    fn alloc_fails_when_out_of_frames() {
        let mut k = Kernel::new(NodeId(0), 2);
        let pid = k.create_process();
        assert!(matches!(k.alloc_pages(pid, 3), Err(OsError::OutOfMemory)));
        assert!(matches!(
            k.alloc_pages(Pid(99), 1),
            Err(OsError::NoSuchProcess(_))
        ));
    }

    #[test]
    fn export_requires_mapped_range() {
        let mut k = kernel();
        let pid = k.create_process();
        let base = k.alloc_pages(pid, 2).unwrap();
        assert!(k.export_buffer(pid, base, 3, None).is_err());
        let id = k.export_buffer(pid, base, 2, Some(NodeId(1))).unwrap();
        assert_eq!(k.export(id).unwrap().allowed, Some(NodeId(1)));
        assert!(k.revoke_export(id));
        assert!(!k.revoke_export(id));
        assert!(k.export(id).is_none());
    }

    #[test]
    fn grant_checks_export_permissions() {
        let mut k = kernel();
        let pid = k.create_process();
        let base = k.alloc_pages(pid, 4).unwrap();
        let id = k.export_buffer(pid, base, 4, Some(NodeId(2))).unwrap();
        assert!(matches!(
            k.grant_in_mapping(id, NodeId(3), 0, 4),
            Err(OsError::ExportRefused { .. })
        ));
        assert!(matches!(
            k.grant_in_mapping(id, NodeId(2), 2, 3),
            Err(OsError::ExportTooSmall)
        ));
        assert!(matches!(
            k.grant_in_mapping(id, NodeId(2), u64::MAX, 2),
            Err(OsError::ExportTooSmall)
        ));
        assert!(matches!(
            k.grant_in_mapping(ExportId(999), NodeId(2), 0, 1),
            Err(OsError::NotExported)
        ));
        let token = k.grant_in_mapping(id, NodeId(2), 1, 2).unwrap();
        assert_eq!(token.frames.len(), 2);
        // Pin policy: frames pinned and importer recorded.
        let (_, flags) = k
            .process(pid)
            .unwrap()
            .page_table()
            .entry(VirtPageNum::new(base.raw() + 1))
            .unwrap();
        assert!(flags.pinned);
        assert_eq!(k.importers_of(token.frames[0]), vec![NodeId(2)]);
    }

    #[test]
    fn prepare_out_sets_write_through() {
        let mut k = kernel();
        let pid = k.create_process();
        let base = k.alloc_pages(pid, 2).unwrap();
        let frames = k.prepare_out_mapping(pid, base, 2).unwrap();
        assert_eq!(frames.len(), 2);
        let (_, flags) = k.process(pid).unwrap().page_table().entry(base).unwrap();
        assert_eq!(flags.cache_mode, CacheMode::WriteThrough);
        assert!(k.outgoing_for_frame(frames[0]).is_empty(), "segments are recorded one by one");
        let rec = OutgoingRecord {
            dst_node: NodeId(1),
            dst_frame: PageNum::new(7),
            pid,
            vpn: base,
            src_frame: frames[0],
        };
        k.add_outgoing_record(rec);
        assert_eq!(k.outgoing_for_frame(frames[0]), vec![rec]);
    }

    #[test]
    fn pin_policy_refuses_pageout() {
        let mut k = kernel();
        let pid = k.create_process();
        let base = k.alloc_pages(pid, 1).unwrap();
        let id = k.export_buffer(pid, base, 1, None).unwrap();
        let token = k.grant_in_mapping(id, NodeId(1), 0, 1).unwrap();
        assert!(matches!(
            k.begin_pageout(token.frames[0]),
            Err(OsError::FramePinned(_))
        ));
    }

    #[test]
    fn invalidate_protocol_full_round() {
        // Receiver kernel (node 0, invalidate policy) and sender kernel
        // (node 1).
        let mut recv = Kernel::with_policy(NodeId(0), 16, ConsistencyPolicy::Invalidate);
        let mut send = Kernel::new(NodeId(1), 16);

        let rpid = recv.create_process();
        let rbuf = recv.alloc_pages(rpid, 1).unwrap();
        let id = recv.export_buffer(rpid, rbuf, 1, None).unwrap();
        let token = recv.grant_in_mapping(id, NodeId(1), 0, 1).unwrap();
        let frame = token.frames[0];

        let spid = send.create_process();
        let sbuf = send.alloc_pages(spid, 1).unwrap();
        let sframes = send.prepare_out_mapping(spid, sbuf, 1).unwrap();
        send.add_outgoing_record(OutgoingRecord {
            dst_node: NodeId(0),
            dst_frame: frame,
            pid: spid,
            vpn: sbuf,
            src_frame: sframes[0],
        });

        // Receiver starts the pageout.
        let msgs = recv.begin_pageout(frame).unwrap();
        assert_eq!(msgs.len(), 1);
        assert!(!recv.pageout_complete(frame));
        assert_eq!(recv.pending_acks(frame), vec![NodeId(1)]);

        // Sender handles the invalidation: source page goes read-only.
        let (dst, msg) = msgs[0];
        assert_eq!(dst, NodeId(1));
        let (replies, scrub) = send.handle_msg(msg);
        assert_eq!(replies.len(), 1);
        assert_eq!(scrub.len(), 1);
        let (_, flags) = send.process(spid).unwrap().page_table().entry(sbuf).unwrap();
        assert_eq!(flags.protection, Protection::ReadOnly);

        // Receiver collects the ack and completes.
        recv.handle_msg(replies[0]);
        assert!(recv.pageout_complete(frame));
        let free_before = recv.free_frame_count();
        recv.complete_pageout(frame).unwrap();
        assert_eq!(recv.free_frame_count(), free_before + 1);
        assert!(recv
            .process(rpid)
            .unwrap()
            .page_table()
            .entry(rbuf)
            .is_none());

        // Sender's next store faults; the kernel returns the record for
        // re-establishment and restores writability.
        let rec = send
            .handle_write_fault(spid, sbuf.base())
            .expect("invalidated mapping must be recognized");
        assert_eq!(rec.dst_node, NodeId(0));
        let (_, flags) = send.process(spid).unwrap().page_table().entry(sbuf).unwrap();
        assert_eq!(flags.protection, Protection::ReadWrite);
        // A second fault at the same page is a genuine violation.
        assert!(send.handle_write_fault(spid, sbuf.base()).is_err());
    }

    #[test]
    fn pageout_without_importers_is_trivial() {
        let mut k = Kernel::with_policy(NodeId(0), 16, ConsistencyPolicy::Invalidate);
        let pid = k.create_process();
        let base = k.alloc_pages(pid, 1).unwrap();
        let frame = k.frame_of(pid, base).unwrap();
        // "There is no consistency problem for pages that have only
        // outgoing communication mappings."
        assert!(matches!(k.begin_pageout(frame), Err(OsError::NoPageout(_))));
    }

    #[test]
    fn double_pageout_rejected() {
        let mut k = Kernel::with_policy(NodeId(0), 16, ConsistencyPolicy::Invalidate);
        let pid = k.create_process();
        let base = k.alloc_pages(pid, 1).unwrap();
        let id = k.export_buffer(pid, base, 1, None).unwrap();
        let token = k.grant_in_mapping(id, NodeId(1), 0, 1).unwrap();
        k.begin_pageout(token.frames[0]).unwrap();
        assert!(matches!(
            k.begin_pageout(token.frames[0]),
            Err(OsError::PageoutInProgress(_))
        ));
        assert!(matches!(
            k.complete_pageout(token.frames[0]),
            Err(OsError::NoPageout(_))
        ));
    }

    #[test]
    fn pids_listing() {
        let mut k = kernel();
        let a = k.create_process();
        let b = k.create_process();
        assert_eq!(k.pids(), vec![a, b]);
        assert_ne!(a, b);
    }
}
