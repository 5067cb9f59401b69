//! Snooping second-level cache model.
//!
//! The Xpress PC's caches snoop DMA transactions and invalidate matching
//! lines, which is why SHRIMP can deliver incoming packets straight to
//! DRAM "without any special hardware" (paper §3). This model tracks tags
//! and dirty bits only — data always lives in [`crate::PhysicalMemory`],
//! which is sound because mapped-out pages are write-through and incoming
//! DMA invalidates before the CPU re-reads.

use crate::addr::{PhysAddr, WORD_SIZE};
use crate::page_table::CacheMode;

/// Geometry of the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes.
    pub line_size: u64,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// A 256 KB, 4-way, 32-byte-line second-level cache — the class of
    /// cache shipped with Pentium Xpress systems.
    pub fn pentium_l2() -> Self {
        CacheConfig {
            size_bytes: 256 * 1024,
            line_size: 32,
            ways: 4,
        }
    }

    fn num_sets(&self) -> u64 {
        self.size_bytes / (self.line_size * self.ways as u64)
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::pentium_l2()
    }
}

/// What one cache access did, so the caller can charge bus time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheOutcome {
    /// The access hit in the cache.
    pub hit: bool,
    /// The access must appear on the memory bus: every write-through
    /// store, and every miss (line fill or uncached read).
    pub bus_access: bool,
    /// A dirty victim line must be written back first.
    pub writeback: Option<PhysAddr>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    dirty: bool,
}

/// A set-associative, true-LRU cache with snoop invalidation.
///
/// # Examples
///
/// ```
/// use shrimp_mem::{CacheModel, CacheConfig, PhysAddr};
/// use shrimp_mem::CacheMode;
///
/// let mut cache = CacheModel::new(CacheConfig::default());
/// let a = PhysAddr::new(0x1000);
/// assert!(!cache.load(a).hit);     // cold miss
/// assert!(cache.load(a).hit);      // now resident
/// // A DMA write from the NIC invalidates the line:
/// cache.snoop_invalidate(a, 4);
/// assert!(!cache.load(a).hit);
/// ```
#[derive(Debug, Clone)]
pub struct CacheModel {
    config: CacheConfig,
    // sets[set] is LRU-ordered, most recent at the back.
    sets: Vec<Vec<Line>>,
    hits: u64,
    misses: u64,
    writebacks: u64,
    snoop_invalidations: u64,
}

impl CacheModel {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics unless the geometry is coherent (power-of-two line size,
    /// at least one set, at least one way).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.line_size.is_power_of_two(), "line size must be a power of two");
        assert!(config.ways >= 1, "cache must have at least one way");
        assert!(config.num_sets() >= 1, "cache must have at least one set");
        let sets = vec![Vec::with_capacity(config.ways); config.num_sets() as usize];
        CacheModel {
            config,
            sets,
            hits: 0,
            misses: 0,
            writebacks: 0,
            snoop_invalidations: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    fn decompose(&self, addr: PhysAddr) -> (usize, u64) {
        let line_addr = addr.raw() / self.config.line_size;
        let set = (line_addr % self.config.num_sets()) as usize;
        let tag = line_addr / self.config.num_sets();
        (set, tag)
    }

    fn line_base(&self, set: usize, tag: u64) -> PhysAddr {
        let line_addr = tag * self.config.num_sets() + set as u64;
        PhysAddr::new(line_addr * self.config.line_size)
    }

    /// A CPU load. Misses allocate the line.
    pub fn load(&mut self, addr: PhysAddr) -> CacheOutcome {
        let (set, tag) = self.decompose(addr);
        if let Some(pos) = self.sets[set].iter().position(|l| l.tag == tag) {
            let line = self.sets[set].remove(pos);
            self.sets[set].push(line);
            self.hits += 1;
            return CacheOutcome {
                hit: true,
                bus_access: false,
                writeback: None,
            };
        }
        self.misses += 1;
        let writeback = self.allocate(set, tag, false);
        CacheOutcome {
            hit: false,
            bus_access: true,
            writeback,
        }
    }

    /// A CPU store with the page's cache mode.
    ///
    /// Write-through stores always produce a bus access (that bus access is
    /// what the SHRIMP NIC snoops); they update the line if present but do
    /// not allocate on miss. Write-back stores allocate and dirty the line,
    /// reaching the bus only on miss fill and victim writeback.
    pub fn store(&mut self, addr: PhysAddr, mode: CacheMode) -> CacheOutcome {
        let (set, tag) = self.decompose(addr);
        let pos = self.sets[set].iter().position(|l| l.tag == tag);
        match mode {
            CacheMode::WriteThrough => {
                if let Some(pos) = pos {
                    let mut line = self.sets[set].remove(pos);
                    // The store also updates memory, so the line stays clean.
                    line.dirty = false;
                    self.sets[set].push(line);
                    self.hits += 1;
                } else {
                    self.misses += 1;
                }
                CacheOutcome {
                    hit: pos.is_some(),
                    bus_access: true,
                    writeback: None,
                }
            }
            CacheMode::WriteBack => {
                if let Some(pos) = pos {
                    let mut line = self.sets[set].remove(pos);
                    line.dirty = true;
                    self.sets[set].push(line);
                    self.hits += 1;
                    return CacheOutcome {
                        hit: true,
                        bus_access: false,
                        writeback: None,
                    };
                }
                self.misses += 1;
                let writeback = self.allocate(set, tag, true);
                CacheOutcome {
                    hit: false,
                    bus_access: true,
                    writeback,
                }
            }
        }
    }

    /// The write-through word stores of `[addr, addr + len)`, in address
    /// order, with one step per line. Write-through stores never
    /// allocate, so the first store to a line either moves it to MRU
    /// and cleans it, or misses; the repeats on that line find it in the
    /// same state and move only the hit or miss counter. The cache ends
    /// exactly as after one [`CacheModel::store`] per word.
    pub fn write_through_run(&mut self, addr: PhysAddr, len: u64) {
        let end = addr.raw() + len;
        let mut at = addr.raw();
        while at < end {
            // Every word that starts on this line.
            let next_line = (at / self.config.line_size + 1) * self.config.line_size;
            let words = (next_line.min(end) - at).div_ceil(WORD_SIZE);
            let (set, tag) = self.decompose(PhysAddr::new(at));
            if let Some(pos) = self.sets[set].iter().position(|l| l.tag == tag) {
                let mut line = self.sets[set].remove(pos);
                line.dirty = false;
                self.sets[set].push(line);
                self.hits += words;
            } else {
                self.misses += words;
            }
            at += words * WORD_SIZE;
        }
    }

    fn allocate(&mut self, set: usize, tag: u64, dirty: bool) -> Option<PhysAddr> {
        let mut writeback = None;
        if self.sets[set].len() == self.config.ways {
            let victim = self.sets[set].remove(0);
            if victim.dirty {
                self.writebacks += 1;
                writeback = Some(self.line_base(set, victim.tag));
            }
        }
        self.sets[set].push(Line { tag, dirty });
        writeback
    }

    /// Invalidates every line overlapping `[addr, addr + len)` — the snoop
    /// reaction to a DMA write from the network interface.
    pub fn snoop_invalidate(&mut self, addr: PhysAddr, len: u64) {
        if len == 0 {
            return;
        }
        let first = addr.raw() / self.config.line_size;
        let last = (addr.raw() + len - 1) / self.config.line_size;
        for line_addr in first..=last {
            let set = (line_addr % self.config.num_sets()) as usize;
            let tag = line_addr / self.config.num_sets();
            if let Some(pos) = self.sets[set].iter().position(|l| l.tag == tag) {
                self.sets[set].remove(pos);
                self.snoop_invalidations += 1;
            }
        }
    }

    /// Accesses that hit.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Accesses that missed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty victim lines written back.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Lines killed by DMA snooping.
    pub fn snoop_invalidations(&self) -> u64 {
        self.snoop_invalidations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheModel {
        // 2 sets x 2 ways x 32B lines = 128 B.
        CacheModel::new(CacheConfig {
            size_bytes: 128,
            line_size: 32,
            ways: 2,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        let a = PhysAddr::new(0);
        let first = c.load(a);
        assert!(!first.hit);
        assert!(first.bus_access);
        let second = c.load(a);
        assert!(second.hit);
        assert!(!second.bus_access);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn same_line_different_bytes_hit() {
        let mut c = small();
        c.load(PhysAddr::new(0));
        assert!(c.load(PhysAddr::new(31)).hit);
        assert!(!c.load(PhysAddr::new(32)).hit, "next line is separate");
    }

    #[test]
    fn write_through_always_hits_the_bus() {
        let mut c = small();
        let a = PhysAddr::new(64);
        let o1 = c.store(a, CacheMode::WriteThrough);
        assert!(o1.bus_access);
        assert!(!o1.hit);
        // WT does not allocate: a subsequent load still misses.
        assert!(!c.load(a).hit);
        // But a resident line is updated and the store still uses the bus.
        let o2 = c.store(a, CacheMode::WriteThrough);
        assert!(o2.bus_access);
        assert!(o2.hit);
    }

    #[test]
    fn write_through_run_matches_word_stores() {
        // Resident dirty and clean lines, absent lines, two lines per set
        // (so their LRU order shows), a mid-line start and a partial end.
        for line_size in [2, 32] {
            let mut one = CacheModel::new(CacheConfig {
                size_bytes: 4 * line_size,
                line_size,
                ways: 2,
            });
            for a in [0, 3 * line_size, 5 * line_size] {
                one.store(PhysAddr::new(a), CacheMode::WriteBack);
            }
            one.load(PhysAddr::new(2 * line_size));
            let mut run = one.clone();
            let (start, len) = (4, 6 * line_size + 4);
            for a in (start..start + len).step_by(WORD_SIZE as usize) {
                one.store(PhysAddr::new(a), CacheMode::WriteThrough);
            }
            run.write_through_run(PhysAddr::new(start), len);
            assert_eq!(
                format!("{run:?}"),
                format!("{one:?}"),
                "line size {line_size}"
            );
        }
    }

    #[test]
    fn write_back_dirties_and_writes_back_on_eviction() {
        let mut c = small();
        // Three distinct tags in set 0 (stride = num_sets * line = 64).
        let a = PhysAddr::new(0);
        let b = PhysAddr::new(64);
        let d = PhysAddr::new(128);
        assert!(c.store(a, CacheMode::WriteBack).bus_access); // miss fill
        assert!(!c.store(a, CacheMode::WriteBack).bus_access); // hit, silent
        c.store(b, CacheMode::WriteBack);
        // Set 0 now holds dirty a and b; filling d must evict dirty a.
        let o = c.store(d, CacheMode::WriteBack);
        assert_eq!(o.writeback, Some(PhysAddr::new(0)));
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn snoop_invalidation_kills_lines() {
        let mut c = small();
        c.load(PhysAddr::new(0));
        c.load(PhysAddr::new(32));
        // DMA write spanning both lines.
        c.snoop_invalidate(PhysAddr::new(0), 64);
        assert_eq!(c.snoop_invalidations(), 2);
        assert!(!c.load(PhysAddr::new(0)).hit);
        assert!(!c.load(PhysAddr::new(32)).hit);
        // Zero-length snoops are no-ops.
        c.snoop_invalidate(PhysAddr::new(0), 0);
        assert_eq!(c.snoop_invalidations(), 2);
    }

    #[test]
    fn snoop_partial_line_overlap_invalidates() {
        let mut c = small();
        c.load(PhysAddr::new(32));
        // DMA write of 4 bytes landing inside the line.
        c.snoop_invalidate(PhysAddr::new(40), 4);
        assert!(!c.load(PhysAddr::new(32)).hit);
    }

    #[test]
    fn lru_within_set() {
        let mut c = small();
        let a = PhysAddr::new(0);
        let b = PhysAddr::new(64);
        let d = PhysAddr::new(128);
        c.load(a);
        c.load(b);
        c.load(a); // a most recent; b is LRU
        c.load(d); // evicts b
        assert!(c.load(a).hit);
        assert!(!c.load(b).hit);
    }

    #[test]
    fn default_config_is_pentium_like() {
        let cfg = CacheConfig::default();
        assert_eq!(cfg.size_bytes, 256 * 1024);
        assert_eq!(cfg.line_size, 32);
        let c = CacheModel::new(cfg);
        assert_eq!(c.config().ways, 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_rejected() {
        CacheModel::new(CacheConfig {
            size_bytes: 128,
            line_size: 33,
            ways: 2,
        });
    }
}
