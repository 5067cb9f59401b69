//! The Network Interface Page Table (NIPT).
//!
//! "The NIPT has one entry for each page of physical memory on the node,
//! and contains information about whether, and how, the page is mapped"
//! (paper §4). Each entry holds:
//!
//! * up to **two outgoing mapping segments** — a page can be split between
//!   two separate mappings at a configurable offset (§3.2), which lets
//!   applications map buffers that are not page-aligned;
//! * the **mapped-in** bit — whether incoming packets may be delivered to
//!   this page;
//! * a one-shot **interrupt-on-arrival** request, settable from user level
//!   through a command page (§4.2).

use shrimp_mem::{PageNum, PhysAddr, PAGE_SIZE};
use shrimp_mesh::NodeId;

use crate::error::NicError;

/// How snooped writes to a mapped-out region are transferred (§2, §4.1,
/// §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdatePolicy {
    /// Every store becomes a packet immediately: lowest latency.
    AutomaticSingle,
    /// Consecutive same-page stores within the merge window share one
    /// packet: better bandwidth at slightly higher latency.
    AutomaticBlocked,
    /// Data moves only when the process issues an explicit send through a
    /// command page; the DMA engine streams the region: highest bandwidth.
    Deliberate,
}

impl UpdatePolicy {
    /// True for either automatic-update flavor.
    pub fn is_automatic(self) -> bool {
        !matches!(self, UpdatePolicy::Deliberate)
    }
}

/// One outgoing mapping segment: a byte range of a local physical page
/// mapped to a contiguous destination region on a remote node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutSegment {
    /// First covered in-page byte offset (inclusive).
    pub src_start: u64,
    /// End of the covered range (exclusive, at most [`PAGE_SIZE`]).
    pub src_end: u64,
    /// The node the data is sent to.
    pub dst_node: NodeId,
    /// Destination physical address corresponding to `src_start`.
    pub dst_base: PhysAddr,
    /// Transfer strategy for this segment.
    pub policy: UpdatePolicy,
}

impl OutSegment {
    /// A segment covering a whole page, mapped to a whole remote page —
    /// the common, page-aligned case.
    pub fn full_page(dst_node: NodeId, dst_page: PageNum, policy: UpdatePolicy) -> Self {
        OutSegment {
            src_start: 0,
            src_end: PAGE_SIZE,
            dst_node,
            dst_base: dst_page.base(),
            policy,
        }
    }

    /// True if this segment covers the in-page byte `offset`.
    pub fn contains(&self, offset: u64) -> bool {
        (self.src_start..self.src_end).contains(&offset)
    }

    /// Destination address for in-page byte `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is outside the segment.
    pub fn translate(&self, offset: u64) -> PhysAddr {
        assert!(self.contains(offset), "offset {offset} outside segment");
        self.dst_base.add(offset - self.src_start)
    }

    /// Covered length in bytes.
    pub fn len(&self) -> u64 {
        self.src_end - self.src_start
    }

    /// True for an empty (degenerate) segment.
    pub fn is_empty(&self) -> bool {
        self.src_start >= self.src_end
    }

    fn validate(&self) -> Result<(), NicError> {
        if self.is_empty() {
            return Err(NicError::BadMapping("empty segment"));
        }
        if self.src_end > PAGE_SIZE {
            return Err(NicError::BadMapping("segment extends past the page"));
        }
        if self.dst_base.offset() + self.len() > PAGE_SIZE {
            return Err(NicError::BadMapping(
                "destination region crosses a page boundary; split the mapping",
            ));
        }
        Ok(())
    }

    fn overlaps(&self, other: &OutSegment) -> bool {
        self.src_start < other.src_end && other.src_start < self.src_end
    }
}

/// One NIPT entry (one local physical page).
#[derive(Debug, Clone, Default)]
pub struct NiptEntry {
    segments: [Option<OutSegment>; 2],
    mapped_in: bool,
    interrupt_on_arrival: bool,
}

impl NiptEntry {
    /// The outgoing segments configured on this page.
    pub fn segments(&self) -> impl Iterator<Item = &OutSegment> {
        self.segments.iter().flatten()
    }

    /// The segment covering in-page byte `offset`, if any.
    pub fn segment_at(&self, offset: u64) -> Option<&OutSegment> {
        self.segments().find(|s| s.contains(offset))
    }
}

/// The page table of one network interface.
///
/// # Examples
///
/// ```
/// use shrimp_nic::{Nipt, OutSegment, UpdatePolicy};
/// use shrimp_mem::{PageNum, PhysAddr};
/// use shrimp_mesh::NodeId;
///
/// let mut nipt = Nipt::new(16);
/// nipt.set_out_segment(
///     PageNum::new(2),
///     OutSegment::full_page(NodeId(1), PageNum::new(5), UpdatePolicy::Deliberate),
/// )?;
/// let seg = nipt.lookup_out(PhysAddr::new(2 * 4096 + 100)).unwrap();
/// assert_eq!(seg.translate(100), PhysAddr::new(5 * 4096 + 100));
/// # Ok::<(), shrimp_nic::NicError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Nipt {
    entries: Vec<NiptEntry>,
}

impl Nipt {
    /// Creates a NIPT with one (unmapped) entry per local physical page.
    pub fn new(num_pages: u64) -> Self {
        Nipt {
            entries: vec![NiptEntry::default(); num_pages as usize],
        }
    }

    /// Number of entries (== local physical pages).
    pub fn num_pages(&self) -> u64 {
        self.entries.len() as u64
    }

    /// The entry for `page`, if the page exists.
    pub fn entry(&self, page: PageNum) -> Option<&NiptEntry> {
        self.entries.get(page.raw() as usize)
    }

    fn entry_mut(&mut self, page: PageNum) -> Result<&mut NiptEntry, NicError> {
        self.entries
            .get_mut(page.raw() as usize)
            .ok_or(NicError::PageOutOfRange { page })
    }

    /// Installs an outgoing segment on `page` in a free slot. It never
    /// replaces a segment: one with the same start overlaps too.
    ///
    /// # Errors
    ///
    /// Returns [`NicError::BadMapping`] if the segment is malformed,
    /// overlaps an existing segment, or both slots are taken (a page can
    /// be split between at most two mappings, §3.2);
    /// [`NicError::PageOutOfRange`] if `page` does not exist.
    pub fn set_out_segment(&mut self, page: PageNum, seg: OutSegment) -> Result<(), NicError> {
        seg.validate()?;
        let entry = self.entry_mut(page)?;
        if entry.segments.iter().flatten().any(|s| s.overlaps(&seg)) {
            return Err(NicError::BadMapping("segments overlap"));
        }
        match entry.segments.iter_mut().find(|s| s.is_none()) {
            Some(slot) => {
                *slot = Some(seg);
                Ok(())
            }
            None => Err(NicError::BadMapping(
                "page already split between two mappings",
            )),
        }
    }

    /// Switches the update policy of the outgoing segment covering
    /// `offset` on `page` (the `SetPolicy` command, §4.2).
    ///
    /// # Errors
    ///
    /// Returns [`NicError::NotDeliberateMapped`] if no segment covers
    /// that byte.
    pub fn set_policy(&mut self, page: PageNum, offset: u64, policy: UpdatePolicy) -> Result<(), NicError> {
        let seg = self
            .entries
            .get_mut(page.raw() as usize)
            .and_then(|e| e.segments.iter_mut().flatten().find(|s| s.contains(offset)))
            .ok_or(NicError::NotDeliberateMapped { addr: page.at_offset(offset) })?;
        seg.policy = policy;
        Ok(())
    }

    /// Removes the outgoing segment that covers `offset` on `page`.
    /// Returns the removed segment.
    pub fn clear_out_segment(&mut self, page: PageNum, offset: u64) -> Option<OutSegment> {
        let entry = self.entries.get_mut(page.raw() as usize)?;
        for slot in entry.segments.iter_mut() {
            if slot.is_some_and(|s| s.contains(offset)) {
                return slot.take();
            }
        }
        None
    }

    /// The outgoing segment covering physical address `addr`, if any.
    /// This is the lookup the snooping datapath performs on every bus
    /// write.
    pub fn lookup_out(&self, addr: PhysAddr) -> Option<&OutSegment> {
        self.entry(addr.page())?.segment_at(addr.offset())
    }

    /// The segment that captures a snooped bus write starting anywhere in
    /// `[addr, addr + span)`, if any. The NIC captures a write only under
    /// an automatic-update segment (§3.1, §4.2): deliberate-update and
    /// unmapped memory is ordinary memory to the snoop logic, and its
    /// data leaves only through command-page DMA. One write asks with
    /// `span` 1; at most one segment covers that byte.
    pub fn capture(&self, addr: PhysAddr, span: u64) -> Option<&OutSegment> {
        let (start, end) = (addr.offset(), addr.offset() + span);
        self.entry(addr.page())?
            .segments()
            .find(|s| s.policy.is_automatic() && s.src_start < end && start < s.src_end)
    }

    /// Marks `page` as mapped in (or not).
    ///
    /// # Errors
    ///
    /// Returns [`NicError::PageOutOfRange`] if `page` does not exist.
    pub fn set_mapped_in(&mut self, page: PageNum, mapped: bool) -> Result<(), NicError> {
        self.entry_mut(page)?.mapped_in = mapped;
        Ok(())
    }

    /// True if incoming packets may be delivered to `page`.
    pub fn is_mapped_in(&self, page: PageNum) -> bool {
        self.entry(page).is_some_and(|e| e.mapped_in)
    }

    /// Arms (or disarms) the one-shot interrupt-on-arrival request for
    /// `page` (§4.2).
    ///
    /// # Errors
    ///
    /// Returns [`NicError::PageOutOfRange`] if `page` does not exist.
    pub fn set_interrupt_on_arrival(&mut self, page: PageNum, armed: bool) -> Result<(), NicError> {
        self.entry_mut(page)?.interrupt_on_arrival = armed;
        Ok(())
    }

    /// Consumes the one-shot interrupt request for `page`, returning
    /// whether it was armed.
    pub fn take_interrupt_request(&mut self, page: PageNum) -> bool {
        match self.entries.get_mut(page.raw() as usize) {
            Some(e) => std::mem::take(&mut e.interrupt_on_arrival),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(start: u64, end: u64, dst_off: u64) -> OutSegment {
        OutSegment {
            src_start: start,
            src_end: end,
            dst_node: NodeId(1),
            dst_base: PageNum::new(9).base().add(dst_off),
            policy: UpdatePolicy::AutomaticSingle,
        }
    }

    #[test]
    fn full_page_mapping_translates_identically() {
        let s = OutSegment::full_page(NodeId(2), PageNum::new(4), UpdatePolicy::Deliberate);
        assert_eq!(s.len(), PAGE_SIZE);
        assert_eq!(s.translate(0), PageNum::new(4).base());
        assert_eq!(s.translate(4095), PageNum::new(4).base().add(4095));
        assert!(!s.policy.is_automatic());
    }

    #[test]
    fn split_page_mapping_two_segments() {
        // Paper §3.2: one page split at offset 1000 between two mappings.
        let mut nipt = Nipt::new(8);
        let p = PageNum::new(3);
        nipt.set_out_segment(p, seg(0, 1000, 3096)).unwrap(); // tail of remote page
        nipt.set_out_segment(p, seg(1000, PAGE_SIZE, 0)).unwrap(); // next region
        let low = nipt.lookup_out(p.at_offset(500)).unwrap();
        assert_eq!(low.translate(500), PageNum::new(9).base().add(3096 + 500));
        let high = nipt.lookup_out(p.at_offset(1000)).unwrap();
        assert_eq!(high.translate(1000), PageNum::new(9).base());
        assert_eq!(nipt.entry(p).unwrap().segments().count(), 2);
    }

    #[test]
    fn third_segment_rejected() {
        let mut nipt = Nipt::new(8);
        let p = PageNum::new(0);
        nipt.set_out_segment(p, seg(0, 100, 0)).unwrap();
        nipt.set_out_segment(p, seg(100, 200, 100)).unwrap();
        assert!(matches!(
            nipt.set_out_segment(p, seg(200, 300, 200)),
            Err(NicError::BadMapping(_))
        ));
    }

    #[test]
    fn overlapping_segments_rejected() {
        let mut nipt = Nipt::new(8);
        let p = PageNum::new(0);
        nipt.set_out_segment(p, seg(0, 200, 0)).unwrap();
        assert!(matches!(
            nipt.set_out_segment(p, seg(100, 300, 500)),
            Err(NicError::BadMapping(_))
        ));
    }

    /// A same-start segment is an overlap; `set_policy` changes the
    /// covering segment's policy and nothing else.
    #[test]
    fn set_policy_keeps_the_segment() {
        let mut nipt = Nipt::new(8);
        let p = PageNum::new(0);
        nipt.set_out_segment(p, seg(0, 200, 0)).unwrap();
        assert!(matches!(
            nipt.set_out_segment(p, seg(0, 150, 64)),
            Err(NicError::BadMapping(_))
        ));
        nipt.set_policy(p, 180, UpdatePolicy::Deliberate).unwrap();
        let s = *nipt.lookup_out(p.at_offset(0)).unwrap();
        assert_eq!(s, OutSegment { policy: UpdatePolicy::Deliberate, ..seg(0, 200, 0) });
        assert!(matches!(
            nipt.set_policy(p, 200, UpdatePolicy::AutomaticSingle),
            Err(NicError::NotDeliberateMapped { .. })
        ));
        assert!(nipt.set_policy(PageNum::new(9), 0, UpdatePolicy::Deliberate).is_err());
    }

    #[test]
    fn malformed_segments_rejected() {
        let mut nipt = Nipt::new(8);
        let p = PageNum::new(0);
        assert!(nipt.set_out_segment(p, seg(100, 100, 0)).is_err(), "empty");
        assert!(
            nipt.set_out_segment(p, seg(0, PAGE_SIZE + 1, 0)).is_err(),
            "past page end"
        );
        // Destination region crossing a page boundary must be split.
        assert!(
            nipt.set_out_segment(p, seg(0, 200, PAGE_SIZE - 100)).is_err(),
            "dest crosses boundary"
        );
    }

    #[test]
    fn lookup_out_misses_unmapped() {
        let nipt = Nipt::new(4);
        assert!(nipt.lookup_out(PhysAddr::new(0)).is_none());
        assert!(nipt.entry(PageNum::new(4)).is_none());
    }

    #[test]
    fn capture_only_under_automatic_segments() {
        let mut nipt = Nipt::new(4);
        let page = PageNum::new(1);
        nipt.set_out_segment(page, seg(0, 100, 0)).unwrap();
        let mut deliberate = seg(100, 4096, 100);
        deliberate.policy = UpdatePolicy::Deliberate;
        nipt.set_out_segment(page, deliberate).unwrap();
        let at = |off: u64| page.at_offset(off);
        assert_eq!(nipt.capture(at(96), 1).map(|s| s.src_start), Some(0));
        assert!(nipt.capture(at(100), 1).is_none(), "deliberate memory");
        assert!(nipt.capture(at(100), 3996).is_none());
        assert!(
            nipt.capture(at(96), 4000).is_some(),
            "run starts under the automatic segment"
        );
        assert!(
            nipt.capture(PageNum::new(2).base(), 4096).is_none(),
            "unmapped page"
        );
        assert!(
            nipt.capture(PageNum::new(9).base(), 1).is_none(),
            "page off the table"
        );
    }

    #[test]
    fn page_out_of_range_errors() {
        let mut nipt = Nipt::new(4);
        assert!(matches!(
            nipt.set_out_segment(PageNum::new(9), seg(0, 10, 0)),
            Err(NicError::PageOutOfRange { .. })
        ));
        assert!(nipt.set_mapped_in(PageNum::new(9), true).is_err());
    }

    #[test]
    fn mapped_in_and_interrupt_flags() {
        let mut nipt = Nipt::new(4);
        let p = PageNum::new(2);
        assert!(!nipt.is_mapped_in(p));
        nipt.set_mapped_in(p, true).unwrap();
        assert!(nipt.is_mapped_in(p));
        nipt.set_interrupt_on_arrival(p, true).unwrap();
        assert!(nipt.take_interrupt_request(p), "armed request fires");
        assert!(!nipt.take_interrupt_request(p), "one-shot: cleared");
    }

    #[test]
    fn clear_segments() {
        let mut nipt = Nipt::new(4);
        let p = PageNum::new(1);
        nipt.set_out_segment(p, seg(0, 100, 0)).unwrap();
        nipt.set_out_segment(p, seg(200, 300, 200)).unwrap();
        let removed = nipt.clear_out_segment(p, 250).unwrap();
        assert_eq!(removed.src_start, 200);
        assert_eq!(nipt.entry(p).unwrap().segments().count(), 1);
        assert_eq!(nipt.clear_out_segment(p, 50).unwrap().src_start, 0);
        assert_eq!(nipt.entry(p).unwrap().segments().count(), 0);
    }
}
