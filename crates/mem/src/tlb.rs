//! A small translation lookaside buffer.
//!
//! The TLB caches page-table entries so the CPU model doesn't pay the
//! page-table walk on every access, and gives the kernel a realistic
//! invalidation hook: the NIPT consistency protocol of paper §4.4 is
//! "essentially the same as the TLB consistency problem in shared-memory
//! multiprocessors".

use crate::addr::{PageNum, VirtPageNum};
use crate::page_table::PageFlags;

/// A fully associative TLB with true-LRU replacement.
///
/// # Examples
///
/// ```
/// use shrimp_mem::{Tlb, VirtPageNum, PageNum, PageFlags};
///
/// let mut tlb = Tlb::new(2);
/// assert!(tlb.lookup(VirtPageNum::new(1)).is_none());
/// tlb.insert(VirtPageNum::new(1), PageNum::new(9), PageFlags::default());
/// assert!(tlb.lookup(VirtPageNum::new(1)).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    capacity: usize,
    // Most recently used entries at the back.
    entries: Vec<(VirtPageNum, PageNum, PageFlags)>,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates an empty TLB holding up to `capacity` translations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be positive");
        Tlb {
            capacity,
            entries: Vec::with_capacity(capacity),
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up a translation, updating LRU order and hit/miss statistics.
    ///
    /// The search starts at the MRU end, so the store path's common case
    /// (another word on the page it just touched) hits on the first
    /// compare and leaves the order as it is. A page has at most one
    /// entry, so the match found is the same one a search from the LRU
    /// end would find.
    pub fn lookup(&mut self, vpn: VirtPageNum) -> Option<(PageNum, PageFlags)> {
        let Some(pos) = self.entries.iter().rposition(|e| e.0 == vpn) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        let mru = self.entries.len() - 1;
        if pos != mru {
            self.entries[pos..].rotate_left(1);
        }
        let (_, frame, flags) = self.entries[mru];
        Some((frame, flags))
    }

    /// Inserts a translation, evicting the least recently used entry if
    /// full. Replaces any existing entry for the same page.
    pub fn insert(&mut self, vpn: VirtPageNum, frame: PageNum, flags: PageFlags) {
        if let Some(pos) = self.entries.iter().position(|e| e.0 == vpn) {
            self.entries.remove(pos);
        } else if self.entries.len() == self.capacity {
            self.entries.remove(0);
        }
        self.entries.push((vpn, frame, flags));
    }

    /// Drops the entry for one virtual page, if present. Returns whether an
    /// entry was dropped.
    pub fn invalidate(&mut self, vpn: VirtPageNum) -> bool {
        if let Some(pos) = self.entries.iter().position(|e| e.0 == vpn) {
            self.entries.remove(pos);
            true
        } else {
            false
        }
    }

    /// Drops every entry (context switch on a real machine).
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Lookups that hit.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Currently cached translation count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no translations are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page_table::PageFlags;

    fn fl() -> PageFlags {
        PageFlags::default()
    }

    fn v(n: u64) -> VirtPageNum {
        VirtPageNum::new(n)
    }

    fn p(n: u64) -> PageNum {
        PageNum::new(n)
    }

    #[test]
    fn hit_and_miss_counting() {
        let mut tlb = Tlb::new(4);
        assert!(tlb.lookup(v(1)).is_none());
        tlb.insert(v(1), p(10), fl());
        assert_eq!(tlb.lookup(v(1)).unwrap().0, p(10));
        assert_eq!(tlb.hits(), 1);
        assert_eq!(tlb.misses(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut tlb = Tlb::new(2);
        tlb.insert(v(1), p(1), fl());
        tlb.insert(v(2), p(2), fl());
        // Touch 1 so 2 becomes LRU.
        tlb.lookup(v(1));
        tlb.insert(v(3), p(3), fl());
        assert!(tlb.lookup(v(2)).is_none(), "2 should have been evicted");
        assert!(tlb.lookup(v(1)).is_some());
        assert!(tlb.lookup(v(3)).is_some());
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut tlb = Tlb::new(2);
        tlb.insert(v(1), p(1), fl());
        tlb.insert(v(1), p(9), fl());
        assert_eq!(tlb.len(), 1);
        assert_eq!(tlb.lookup(v(1)).unwrap().0, p(9));
    }

    #[test]
    fn invalidate_and_flush() {
        let mut tlb = Tlb::new(4);
        tlb.insert(v(1), p(1), fl());
        tlb.insert(v(2), p(2), fl());
        assert!(tlb.invalidate(v(1)));
        assert!(!tlb.invalidate(v(1)));
        assert_eq!(tlb.len(), 1);
        tlb.flush();
        assert!(tlb.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        Tlb::new(0);
    }
}
