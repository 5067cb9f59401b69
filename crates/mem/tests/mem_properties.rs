//! Property-based tests of the memory substrate.

use proptest::prelude::*;

use shrimp_mem::{
    CacheConfig, CacheModel, CacheMode, MemError, PageFlags, PageNum, PageTable, PhysAddr,
    PhysicalMemory, Protection, Tlb, VirtPageNum, PAGE_SIZE,
};

proptest! {
    /// Physical memory behaves like a flat byte array for any in-range
    /// write sequence.
    #[test]
    fn physical_memory_is_a_byte_array(
        writes in prop::collection::vec((0u64..(8 * PAGE_SIZE - 64), prop::collection::vec(any::<u8>(), 1..64)), 1..50),
    ) {
        let mut mem = PhysicalMemory::new(8);
        let mut model = vec![0u8; (8 * PAGE_SIZE) as usize];
        for (addr, bytes) in &writes {
            mem.write_bytes(PhysAddr::new(*addr), bytes).unwrap();
            model[*addr as usize..*addr as usize + bytes.len()].copy_from_slice(bytes);
        }
        let got = mem.read_bytes(PhysAddr::new(0), 8 * PAGE_SIZE).unwrap();
        prop_assert_eq!(got, model);
    }

    /// Translation is exact for any mapping layout, and protection is
    /// enforced on every page independently.
    #[test]
    fn page_table_translation_exact(
        mappings in prop::collection::btree_map(0u64..64, (0u64..256, any::<bool>()), 1..32),
        probe in 0u64..64,
        offset in 0u64..PAGE_SIZE,
    ) {
        let mut pt = PageTable::new();
        for (&vpn, &(frame, writable)) in &mappings {
            pt.map(
                VirtPageNum::new(vpn),
                PageNum::new(frame),
                PageFlags {
                    protection: if writable { Protection::ReadWrite } else { Protection::ReadOnly },
                    cache_mode: CacheMode::WriteBack,
                    pinned: false,
                },
            );
        }
        let va = VirtPageNum::new(probe).at_offset(offset);
        match mappings.get(&probe) {
            Some(&(frame, writable)) => {
                let t = pt.translate_read(va).unwrap();
                prop_assert_eq!(t.phys, PageNum::new(frame).at_offset(offset));
                prop_assert_eq!(pt.translate_write(va).is_ok(), writable);
            }
            None => {
                let r = pt.translate_read(va);
                prop_assert!(matches!(r, Err(MemError::NotMapped { addr: _ })), "unmapped probe");
            }
        }
    }

    /// The TLB never contradicts the page table it caches: after any
    /// interleaving of inserts/invalidates, a hit returns what was last
    /// inserted for that page.
    #[test]
    fn tlb_coherent_with_inserts(
        ops in prop::collection::vec((0u64..32, 0u64..64, any::<bool>()), 1..100),
    ) {
        let mut tlb = Tlb::new(8);
        let mut model: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for (vpn, frame, invalidate) in ops {
            if invalidate {
                tlb.invalidate(VirtPageNum::new(vpn));
                model.remove(&vpn);
            } else {
                tlb.insert(VirtPageNum::new(vpn), PageNum::new(frame), PageFlags::default());
                model.insert(vpn, frame);
            }
            if let Some((got, _)) = tlb.lookup(VirtPageNum::new(vpn)) {
                prop_assert_eq!(Some(&got.raw()), model.get(&vpn), "TLB must agree with inserts");
            }
            prop_assert!(tlb.len() <= 8);
        }
    }

    /// The TLB is exactly a true-LRU cache: against a naive LRU list on
    /// traces with long runs on one page (the store path's pattern),
    /// every lookup result, the hit and miss counts, and the resident
    /// set after every step (hence every eviction victim) agree.
    #[test]
    fn tlb_matches_naive_lru(
        capacity in 1usize..9,
        // (page, run length, action): 0..=5 look up (inserting on a
        // miss, as the store path does), 6 invalidates, 7 flushes.
        runs in prop::collection::vec((0u64..12, 1usize..200, 0u8..8), 1..40),
    ) {
        let mut tlb = Tlb::new(capacity);
        // LRU first, MRU last; frame = vpn + 100.
        let mut model: Vec<u64> = Vec::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        for (vpn, run, action) in runs {
            let v = VirtPageNum::new(vpn);
            match action {
                6 => {
                    let had = model.iter().position(|&e| e == vpn).map(|i| model.remove(i));
                    prop_assert_eq!(tlb.invalidate(v), had.is_some());
                }
                7 => {
                    tlb.flush();
                    model.clear();
                }
                _ => {
                    for _ in 0..run {
                        let got = tlb.lookup(v).map(|(f, _)| f.raw());
                        let expect = match model.iter().position(|&e| e == vpn) {
                            Some(i) => {
                                model.remove(i);
                                model.push(vpn);
                                hits += 1;
                                Some(vpn + 100)
                            }
                            None => {
                                misses += 1;
                                if model.len() == capacity {
                                    model.remove(0);
                                }
                                model.push(vpn);
                                tlb.insert(v, PageNum::new(vpn + 100), PageFlags::default());
                                None
                            }
                        };
                        prop_assert_eq!(got, expect, "lookup of page {}", vpn);
                    }
                }
            }
            prop_assert_eq!((tlb.hits(), tlb.misses()), (hits, misses));
            prop_assert_eq!(tlb.len(), model.len());
            // Probe residency on a copy so the probe's own LRU update
            // cannot steer the trace.
            for page in 0..12 {
                let resident = tlb.clone().lookup(VirtPageNum::new(page)).is_some();
                prop_assert_eq!(resident, model.contains(&page), "residency of page {}", page);
            }
        }
    }

    /// The cache never reports a hit for a line that was snooped away,
    /// and its occupancy never exceeds its configured geometry.
    #[test]
    fn cache_snoop_soundness(
        ops in prop::collection::vec((0u64..(64 * 1024), 0u8..3), 1..200),
    ) {
        let mut cache = CacheModel::new(CacheConfig {
            size_bytes: 4 * 1024,
            line_size: 32,
            ways: 2,
        });
        let mut resident: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for (addr, op) in ops {
            let line = addr / 32;
            match op {
                0 => {
                    let o = cache.load(PhysAddr::new(addr));
                    if o.hit {
                        prop_assert!(resident.contains(&line), "hit only on resident line");
                    }
                    // The model is a superset of true residency (it never
                    // models evictions), which is all the hit-check needs.
                    resident.insert(line);
                }
                1 => {
                    cache.store(PhysAddr::new(addr), CacheMode::WriteBack);
                    resident.insert(line);
                }
                _ => {
                    cache.snoop_invalidate(PhysAddr::new(addr), 32);
                    resident.remove(&line);
                    resident.remove(&(line + 1));
                    // After a snoop, the line must miss (the probe load
                    // also refills it, so re-add to the model).
                    let o = cache.load(PhysAddr::new(addr));
                    prop_assert!(!o.hit, "snooped line cannot hit");
                    resident.insert(line);
                }
            }
        }
    }

    /// Word accesses honour alignment and range exactly.
    #[test]
    fn word_access_validity(addr in 0u64..(2 * PAGE_SIZE + 16)) {
        let mut mem = PhysicalMemory::new(2);
        let r = mem.write_word(PhysAddr::new(addr), 0x55aa_55aa);
        let in_range = addr + 4 <= 2 * PAGE_SIZE;
        let aligned = addr % 4 == 0;
        prop_assert_eq!(r.is_ok(), in_range && aligned);
        if r.is_ok() {
            prop_assert_eq!(mem.read_word(PhysAddr::new(addr)).unwrap(), 0x55aa_55aa);
        }
    }
}
