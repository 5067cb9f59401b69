//! Per-process page tables.
//!
//! Besides the usual translation and protection bits, each entry carries a
//! per-page [`CacheMode`]: the `map` system call configures mapped-out
//! pages as write-through so every user-level store appears on the memory
//! bus where the network interface can snoop it (paper §3.1).

use std::collections::BTreeMap;

use crate::addr::{PageNum, PhysAddr, VirtAddr, VirtPageNum};
use crate::error::MemError;

/// Access rights of a mapped page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protection {
    /// Page may be read but not written. The kernel uses this state to
    /// "invalidate" outgoing mappings during the NIPT consistency protocol
    /// (paper §4.4): the next store page-faults and re-establishes the
    /// mapping.
    ReadOnly,
    /// Page may be read and written.
    ReadWrite,
}

impl Protection {
    /// True if writes are permitted.
    pub fn allows_write(self) -> bool {
        matches!(self, Protection::ReadWrite)
    }
}

/// Per-page caching strategy, selectable per virtual page on the Xpress PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheMode {
    /// Stores update the cache and are immediately driven onto the memory
    /// bus, where the NIC snoops them. Required for mapped-out pages.
    WriteThrough,
    /// Stores dirty the cache line and reach the bus only on eviction.
    /// The default for ordinary pages.
    WriteBack,
}

/// The flags of one page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageFlags {
    /// Access rights.
    pub protection: Protection,
    /// Caching strategy.
    pub cache_mode: CacheMode,
}

impl Default for PageFlags {
    fn default() -> Self {
        PageFlags {
            protection: Protection::ReadWrite,
            cache_mode: CacheMode::WriteBack,
        }
    }
}

/// The result of a successful translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The physical address the virtual address maps to.
    pub phys: PhysAddr,
    /// The frame the page maps to.
    pub frame: PageNum,
    /// The entry's flags.
    pub flags: PageFlags,
}

/// One process's virtual→physical page table.
///
/// # Examples
///
/// ```
/// use shrimp_mem::{PageTable, PageFlags, VirtAddr, VirtPageNum, PageNum};
///
/// let mut pt = PageTable::new();
/// pt.map(VirtPageNum::new(4), PageNum::new(9), PageFlags::default());
/// let t = pt.translate_read(VirtAddr::new(4 * 4096 + 12))?;
/// assert_eq!(t.phys.raw(), 9 * 4096 + 12);
/// # Ok::<(), shrimp_mem::MemError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    entries: BTreeMap<VirtPageNum, (PageNum, PageFlags)>,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        PageTable::default()
    }

    /// Maps `vpn` to `frame` with the given flags, replacing any previous
    /// mapping of `vpn`. Returns the previous frame, if any.
    pub fn map(&mut self, vpn: VirtPageNum, frame: PageNum, flags: PageFlags) -> Option<PageNum> {
        self.entries.insert(vpn, (frame, flags)).map(|(f, _)| f)
    }

    /// Removes the mapping of `vpn`, returning the frame it mapped to.
    pub fn unmap(&mut self, vpn: VirtPageNum) -> Option<PageNum> {
        self.entries.remove(&vpn).map(|(f, _)| f)
    }

    /// Looks up the entry for `vpn` without any permission check.
    pub fn entry(&self, vpn: VirtPageNum) -> Option<(PageNum, PageFlags)> {
        self.entries.get(&vpn).copied()
    }

    /// Changes only the protection of an existing entry. Returns `false`
    /// if `vpn` is not mapped.
    pub fn set_protection(&mut self, vpn: VirtPageNum, protection: Protection) -> bool {
        match self.entries.get_mut(&vpn) {
            Some(e) => {
                e.1.protection = protection;
                true
            }
            None => false,
        }
    }

    /// Changes only the cache mode of an existing entry. Returns `false`
    /// if `vpn` is not mapped.
    pub fn set_cache_mode(&mut self, vpn: VirtPageNum, mode: CacheMode) -> bool {
        match self.entries.get_mut(&vpn) {
            Some(e) => {
                e.1.cache_mode = mode;
                true
            }
            None => false,
        }
    }

    /// Translates a virtual address for a read access.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NotMapped`] if the page has no entry.
    pub fn translate_read(&self, addr: VirtAddr) -> Result<Translation, MemError> {
        let (frame, flags) = self
            .entries
            .get(&addr.page())
            .copied()
            .ok_or(MemError::NotMapped { addr })?;
        Ok(Translation {
            phys: frame.at_offset(addr.offset()),
            frame,
            flags,
        })
    }

    /// Translates a virtual address for a write access, enforcing
    /// protection.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NotMapped`] if the page has no entry, or
    /// [`MemError::ProtectionViolation`] if the page is read-only.
    pub fn translate_write(&self, addr: VirtAddr) -> Result<Translation, MemError> {
        let t = self.translate_read(addr).map_err(|_| MemError::NotMapped { addr })?;
        if !t.flags.protection.allows_write() {
            return Err(MemError::ProtectionViolation { addr, write: true });
        }
        Ok(t)
    }

    /// Iterates over all entries in virtual-page order.
    pub fn iter(&self) -> impl Iterator<Item = (VirtPageNum, PageNum, PageFlags)> + '_ {
        self.entries.iter().map(|(&v, &(f, fl))| (v, f, fl))
    }

    /// The virtual pages currently mapping to `frame` (usually zero or one).
    pub fn virt_pages_of_frame(&self, frame: PageNum) -> Vec<VirtPageNum> {
        self.entries
            .iter()
            .filter(|(_, &(f, _))| f == frame)
            .map(|(&v, _)| v)
            .collect()
    }

    /// Number of mapped pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE;

    fn rw() -> PageFlags {
        PageFlags::default()
    }

    #[test]
    fn translation_applies_offset() {
        let mut pt = PageTable::new();
        pt.map(VirtPageNum::new(1), PageNum::new(5), rw());
        let t = pt.translate_read(VirtAddr::new(PAGE_SIZE + 123)).unwrap();
        assert_eq!(t.phys, PhysAddr::new(5 * PAGE_SIZE + 123));
        assert_eq!(t.frame, PageNum::new(5));
    }

    #[test]
    fn unmapped_page_errors() {
        let pt = PageTable::new();
        assert!(matches!(
            pt.translate_read(VirtAddr::new(0)),
            Err(MemError::NotMapped { .. })
        ));
        assert!(matches!(
            pt.translate_write(VirtAddr::new(0)),
            Err(MemError::NotMapped { .. })
        ));
    }

    #[test]
    fn read_only_blocks_writes_only() {
        let mut pt = PageTable::new();
        let flags = PageFlags {
            protection: Protection::ReadOnly,
            ..rw()
        };
        pt.map(VirtPageNum::new(0), PageNum::new(0), flags);
        assert!(pt.translate_read(VirtAddr::new(4)).is_ok());
        assert!(matches!(
            pt.translate_write(VirtAddr::new(4)),
            Err(MemError::ProtectionViolation { write: true, .. })
        ));
    }

    #[test]
    fn set_protection_takes_effect() {
        let mut pt = PageTable::new();
        pt.map(VirtPageNum::new(0), PageNum::new(0), rw());
        assert!(pt.translate_write(VirtAddr::new(0)).is_ok());
        assert!(pt.set_protection(VirtPageNum::new(0), Protection::ReadOnly));
        assert!(pt.translate_write(VirtAddr::new(0)).is_err());
        assert!(!pt.set_protection(VirtPageNum::new(9), Protection::ReadOnly));
    }

    #[test]
    fn set_cache_mode_takes_effect() {
        let mut pt = PageTable::new();
        pt.map(VirtPageNum::new(0), PageNum::new(0), rw());
        assert!(pt.set_cache_mode(VirtPageNum::new(0), CacheMode::WriteThrough));
        let (_, flags) = pt.entry(VirtPageNum::new(0)).unwrap();
        assert_eq!(flags.cache_mode, CacheMode::WriteThrough);
    }

    #[test]
    fn remap_returns_previous_frame() {
        let mut pt = PageTable::new();
        assert_eq!(pt.map(VirtPageNum::new(0), PageNum::new(1), rw()), None);
        assert_eq!(
            pt.map(VirtPageNum::new(0), PageNum::new(2), rw()),
            Some(PageNum::new(1))
        );
        assert_eq!(pt.unmap(VirtPageNum::new(0)), Some(PageNum::new(2)));
        assert_eq!(pt.unmap(VirtPageNum::new(0)), None);
        assert!(pt.is_empty());
    }

    #[test]
    fn reverse_lookup_finds_sharers() {
        let mut pt = PageTable::new();
        pt.map(VirtPageNum::new(1), PageNum::new(7), rw());
        pt.map(VirtPageNum::new(3), PageNum::new(7), rw());
        pt.map(VirtPageNum::new(2), PageNum::new(8), rw());
        let mut sharers = pt.virt_pages_of_frame(PageNum::new(7));
        sharers.sort();
        assert_eq!(sharers, vec![VirtPageNum::new(1), VirtPageNum::new(3)]);
        assert_eq!(pt.len(), 3);
        assert_eq!(pt.iter().count(), 3);
    }
}
