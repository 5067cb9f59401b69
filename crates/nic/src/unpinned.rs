//! The unpinned (NP-RDMA-style) NIC backend.
//!
//! The paper's design pins every mapped page at map time so the NIC's
//! NIPT translation is always backed by resident memory. This backend
//! models the alternative explored by NP-RDMA-class designs: **no
//! map-time pinning**. It is the same [`NetworkInterface`], built by
//! [`NetworkInterface::unpinned`] with an outgoing IOTLB: a bounded
//! cache of which mapped pages are NIC-resident. A miss means a dynamic
//! map-in — one kernel round trip, [`MAP_IN_LATENCY`] — must complete
//! before the write can packetize.
//!
//! The IOTLB is consulted at five places, all hooks in this module; on
//! the pinned NIC each is a no-op:
//!
//! - **Snoop.** A snooped write the NIPT captures, to a page that is
//!   not resident, is buffered and a map-in is scheduled at
//!   `now + MAP_IN_LATENCY`. A write that misses on a page whose map-in
//!   is already in flight joins the pending entry without escalating the
//!   wait — the flat-pacing discipline the go-back-N engine uses for
//!   reroute bounces (a miss means "not resident yet", not "lossy path",
//!   so there is nothing to back off from). A hit proceeds exactly as on
//!   the pinned NIC: the IOTLB caches *residency* only and the
//!   translation is always read from the NIPT, so a stale entry can
//!   never produce a wrong address.
//! - **Merge run.** [`NetworkInterface::merge_run`] takes a run of
//!   snooped writes in one step only on a resident page, and counts the
//!   hit each write would count.
//! - **Deliberate-update start.** The DMA source read of a non-resident
//!   page waits for one synchronous map-in round trip.
//! - **Poll.** [`NetworkInterface::poll`] first completes the map-ins
//!   that are ready: it installs each entry and replays its buffered
//!   writes through the resident snoop path, stamped at the completion
//!   time. [`NetworkInterface::next_deadline`] includes the earliest
//!   pending completion.
//! - **Shootdown.** [`NetworkInterface::unmap_out`] and
//!   [`NetworkInterface::map_in`] with `mapped = false` drop the page's
//!   entry and the buffered writes no remaining segment captures.
//!   Installing into a full IOTLB evicts the least-recently-used entry.
//!
//! Everything is deterministic: completions run in `(ready, page)` order
//! and the LRU victim is the smallest `(last use, page)`.

use std::collections::BTreeMap;

use shrimp_mem::{PageNum, PhysAddr};
use shrimp_sim::{SimDuration, SimTime};

use crate::datapath::SnoopOutcome;
use crate::nic::NetworkInterface;

/// Kernel round trip charged for one dynamic map-in: the time from an
/// IOTLB miss to the entry being installed and the buffered write(s)
/// replayed.
pub const MAP_IN_LATENCY: SimDuration = SimDuration::from_us(20);

/// IOTLB and dynamic map-in counters of the unpinned backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IotlbStats {
    /// Outgoing translations served from the IOTLB.
    pub hits: u64,
    /// Outgoing translations that missed (write buffered or DMA start
    /// delayed behind a dynamic map-in).
    pub misses: u64,
    /// Dynamic map-in round trips performed.
    pub map_ins: u64,
    /// Entries evicted under capacity pressure (LRU shootdown).
    pub evictions: u64,
    /// Entries currently resident.
    pub resident: u64,
}

/// One snooped write parked behind an in-flight map-in. Snooped stores
/// are at most a bus word, so the data inlines.
#[derive(Debug, Clone, Copy)]
struct BufferedWrite {
    addr: PhysAddr,
    len: u8,
    data: [u8; 8],
}

/// An in-flight dynamic map-in for one page.
#[derive(Debug, Clone)]
struct MissEntry {
    /// When the kernel round trip completes and the entry installs.
    ready: SimTime,
    /// Writes to replay, in snoop order, once the page is resident.
    writes: Vec<BufferedWrite>,
}

/// The unpinned backend's outgoing IOTLB and its in-flight map-ins.
#[derive(Debug, Clone, Default)]
pub(crate) struct Iotlb {
    /// Resident pages → last-use tick. The LRU victim is the entry with
    /// the smallest `(tick, page)` — total order, so eviction is
    /// deterministic.
    resident: BTreeMap<PageNum, u64>,
    use_tick: u64,
    /// In-flight map-ins keyed by page.
    pending: BTreeMap<PageNum, MissEntry>,
    hits: u64,
    misses: u64,
    map_ins: u64,
    evictions: u64,
}

impl Iotlb {
    /// Marks `page` most recently used.
    fn touch(&mut self, page: PageNum) {
        self.use_tick += 1;
        self.resident.insert(page, self.use_tick);
    }

    /// `n` outgoing translations of resident `page`: each counts a hit
    /// and marks the page most recently used.
    fn hit(&mut self, page: PageNum, n: u64) {
        self.hits += n;
        self.use_tick += n;
        self.resident.insert(page, self.use_tick);
    }

    /// Installs `page`, evicting the LRU entry if `cap` are resident.
    fn install(&mut self, page: PageNum, cap: usize) {
        while !self.resident.contains_key(&page) && self.resident.len() >= cap {
            let victim = self
                .resident
                .iter()
                .min_by_key(|&(p, t)| (*t, *p))
                .map(|(p, _)| *p)
                .expect("full IOTLB has a victim");
            self.evict(victim);
        }
        self.touch(page);
    }

    /// Drops `page` from the IOTLB — shared by capacity eviction and the
    /// kernel shootdown.
    fn evict(&mut self, page: PageNum) {
        if self.resident.remove(&page).is_some() {
            self.evictions += 1;
        }
    }

    /// Completes the earliest map-in ready by `now`, if any: installs
    /// its page and hands back the completion time and buffered writes.
    fn complete_next(&mut self, now: SimTime, cap: usize) -> Option<(SimTime, Vec<BufferedWrite>)> {
        let (page, ready) = self
            .pending
            .iter()
            .filter(|(_, e)| e.ready <= now)
            .min_by_key(|(p, e)| (e.ready, **p))
            .map(|(p, e)| (*p, e.ready))?;
        let entry = self.pending.remove(&page).expect("entry was just found");
        self.install(page, cap);
        Some((ready, entry.writes))
    }

    /// When the earliest in-flight map-in completes.
    pub(crate) fn next_ready(&self) -> Option<SimTime> {
        self.pending.values().map(|e| e.ready).min()
    }
}

impl NetworkInterface {
    /// IOTLB counter snapshot; `None` on the pinned NIC.
    pub fn iotlb_stats(&self) -> Option<IotlbStats> {
        self.iotlb.as_ref().map(|t| IotlbStats {
            hits: t.hits,
            misses: t.misses,
            map_ins: t.map_ins,
            evictions: t.evictions,
            resident: t.resident.len() as u64,
        })
    }

    /// The snoop hook, run before the resident path: a write the NIPT
    /// captures, to a page that is not resident, is buffered behind a
    /// map-in and the write stalls. `None` hands the write to the
    /// resident path (a hit, an uncaptured write, or the pinned NIC).
    pub(crate) fn snoop_unpinned(
        &mut self,
        now: SimTime,
        addr: PhysAddr,
        data: &[u8],
    ) -> Option<SnoopOutcome> {
        let tlb = self.iotlb.as_mut()?;
        self.nipt.capture(addr, 1)?;
        let page = addr.page();
        if tlb.resident.contains_key(&page) {
            tlb.hit(page, 1);
            return None;
        }
        tlb.misses += 1;
        let mut w = BufferedWrite {
            addr,
            len: data.len() as u8,
            data: [0; 8],
        };
        w.data[..data.len()].copy_from_slice(data);
        if let Some(entry) = tlb.pending.get_mut(&page) {
            entry.writes.push(w);
        } else {
            tlb.map_ins += 1;
            let ready = now + MAP_IN_LATENCY;
            tlb.pending.insert(
                page,
                MissEntry {
                    ready,
                    writes: vec![w],
                },
            );
        }
        Some(SnoopOutcome::Stalled)
    }

    /// True when a captured write to `page` would hit the IOTLB, as it
    /// always does on the pinned NIC.
    pub(crate) fn is_resident(&self, page: PageNum) -> bool {
        self.iotlb
            .as_ref()
            .is_none_or(|tlb| tlb.resident.contains_key(&page))
    }

    /// The merge-run hook: `n` captured writes to resident `page` hit
    /// in one step, as each would on its own. A no-op on the pinned NIC.
    pub(crate) fn count_resident_hits(&mut self, page: PageNum, n: u64) {
        if let Some(tlb) = self.iotlb.as_mut() {
            tlb.hit(page, n);
        }
    }

    /// The deliberate-update hook, run right after the DMA source read
    /// of `page`. A resident page counts a hit. A miss counts a miss and
    /// a map-in, installs the page, and returns the round trip the read
    /// completion waits for: the kernel is already involved on this
    /// path, so the map-in is synchronous. Zero on the pinned NIC.
    pub(crate) fn map_in_dma_source(&mut self, page: PageNum) -> SimDuration {
        let cap = self.config.iotlb_entries;
        let Some(tlb) = self.iotlb.as_mut() else {
            return SimDuration::ZERO;
        };
        if tlb.resident.contains_key(&page) {
            tlb.hit(page, 1);
            return SimDuration::ZERO;
        }
        tlb.misses += 1;
        tlb.map_ins += 1;
        tlb.install(page, cap);
        MAP_IN_LATENCY
    }

    /// The poll hook: completes every map-in ready by `now`, earliest
    /// first, replaying its buffered writes through the resident snoop
    /// path at the completion instant. Replays count no hit.
    pub(crate) fn complete_map_ins(&mut self, now: SimTime) {
        let cap = self.config.iotlb_entries;
        while let Some((ready, writes)) =
            self.iotlb.as_mut().and_then(|t| t.complete_next(now, cap))
        {
            for w in &writes {
                self.snoop_resident(ready, w.addr, &w.data[..usize::from(w.len)]);
            }
        }
    }

    /// The shootdown hook: every cached translation for `page` is
    /// dropped (the TLB-shootdown analogue). A buffered write dies with
    /// its segment, matching the pinned NIC's treatment of writes to
    /// pages unmapped mid-flight; a write another segment still captures
    /// waits on for its map-in. A no-op on the pinned NIC, whose NIPT is
    /// always authoritative.
    pub(crate) fn invalidate_translation(&mut self, page: PageNum) {
        let Some(tlb) = self.iotlb.as_mut() else {
            return;
        };
        tlb.evict(page);
        if let Some(entry) = tlb.pending.get_mut(&page) {
            entry.writes.retain(|w| self.nipt.capture(w.addr, 1).is_some());
            if entry.writes.is_empty() {
                tlb.pending.remove(&page);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NicConfig;
    use crate::datapath::CommandEffect;
    use crate::nipt::UpdatePolicy;
    use crate::packet::Payload;
    use crate::testutil::{map_out, shape, t};
    use shrimp_mesh::NodeId;

    fn unic() -> NetworkInterface {
        NetworkInterface::unpinned(NodeId(0), shape(), NicConfig::default(), 64)
    }

    fn tiny_unic(entries: usize) -> NetworkInterface {
        let cfg = NicConfig {
            iotlb_entries: entries,
            ..NicConfig::default()
        };
        NetworkInterface::unpinned(NodeId(0), shape(), cfg, 64)
    }

    #[test]
    fn miss_buffers_then_replays_after_map_in() {
        let mut n = unic();
        map_out(&mut n, 2, 1, 9, UpdatePolicy::AutomaticSingle);
        let addr = PageNum::new(2).at_offset(16);
        // First touch misses: buffered, no packet yet.
        assert_eq!(n.snoop_write(t(0), addr, &7u32.to_le_bytes()), SnoopOutcome::Stalled);
        assert!(n.pop_outgoing(t(10_000)).is_none());
        let lat = MAP_IN_LATENCY;
        assert_eq!(n.next_deadline(), Some(t(0) + lat));
        // Map-in completes: the write replays stamped at completion.
        n.poll(t(0) + lat);
        let mp = n
            .pop_outgoing(t(0) + lat + SimDuration::from_us(1))
            .expect("replayed after map-in");
        assert_eq!(mp.payload().payload(), &7u32.to_le_bytes());
        let s = n.iotlb_stats().unwrap();
        assert_eq!((s.misses, s.map_ins, s.hits, s.resident), (1, 1, 0, 1));
    }

    #[test]
    fn second_miss_joins_inflight_map_in() {
        let mut n = unic();
        map_out(&mut n, 2, 1, 9, UpdatePolicy::AutomaticSingle);
        let base = PageNum::new(2).base();
        assert_eq!(n.snoop_write(t(0), base, &[1; 4]), SnoopOutcome::Stalled);
        assert_eq!(n.snoop_write(t(100), base.add(4), &[2; 4]), SnoopOutcome::Stalled);
        let s = n.iotlb_stats().unwrap();
        // Two misses, ONE kernel round trip: the second write joined the
        // in-flight entry (flat pacing, no escalation).
        assert_eq!((s.misses, s.map_ins), (2, 1));
        let lat = MAP_IN_LATENCY;
        n.poll(t(0) + lat);
        assert!(n.pop_outgoing(t(0) + lat + SimDuration::from_us(1)).is_some());
        assert!(n.pop_outgoing(t(0) + lat + SimDuration::from_us(1)).is_some());
    }

    #[test]
    fn resident_page_hits_like_pinned() {
        let mut n = unic();
        map_out(&mut n, 2, 1, 9, UpdatePolicy::AutomaticSingle);
        let addr = PageNum::new(2).at_offset(8);
        n.snoop_write(t(0), addr, &[1; 4]);
        let lat = MAP_IN_LATENCY;
        n.poll(t(0) + lat);
        n.pop_outgoing(t(0) + lat + SimDuration::from_us(1)).unwrap();
        // Resident now: the next write queues immediately.
        assert_eq!(
            n.snoop_write(t(100_000), addr, &[2; 4]),
            SnoopOutcome::Queued
        );
        assert_eq!(n.iotlb_stats().unwrap().hits, 1);
    }

    #[test]
    fn capacity_pressure_evicts_lru() {
        let mut n = tiny_unic(2);
        for page in 2..5 {
            map_out(&mut n, page, 1, 9 + page, UpdatePolicy::AutomaticSingle);
        }
        let lat = MAP_IN_LATENCY;
        let mut now = t(0);
        for page in 2..5u64 {
            n.snoop_write(now, PageNum::new(page).base(), &[page as u8; 4]);
            now += lat;
            n.poll(now);
        }
        let s = n.iotlb_stats().unwrap();
        // Page 2 (least recently used) was shot down for page 4.
        assert_eq!((s.evictions, s.resident), (1, 2));
        assert_eq!(
            n.snoop_write(now, PageNum::new(2).base(), &[9; 4]),
            SnoopOutcome::Stalled,
            "evicted page must miss again"
        );
        assert_eq!(
            n.snoop_write(now, PageNum::new(4).base(), &[9; 4]),
            SnoopOutcome::Queued,
            "most recent page stays resident"
        );
    }

    #[test]
    fn unmap_shootdown_drops_entry_and_pending_misses() {
        let mut n = unic();
        map_out(&mut n, 2, 1, 9, UpdatePolicy::AutomaticSingle);
        n.snoop_write(t(0), PageNum::new(2).base(), &[1; 4]);
        n.unmap_out(PageNum::new(2), 0);
        let lat = MAP_IN_LATENCY;
        n.poll(t(0) + lat);
        assert!(
            n.pop_outgoing(t(0) + lat + SimDuration::from_us(1)).is_none(),
            "buffered write for an unmapped page must not replay"
        );
        assert_eq!(n.iotlb_stats().unwrap().resident, 0);
    }

    #[test]
    fn deliberate_start_pays_map_in_on_miss_only() {
        let mut n = unic();
        map_out(&mut n, 6, 1, 12, UpdatePolicy::Deliberate);
        let data_addr = PageNum::new(6).base();
        let cmd = n.cmd_space.command_addr_for(data_addr);
        let lat = MAP_IN_LATENCY;
        let e = n
            .command_write(t(0), cmd, 4, |_, _| (Payload::from(vec![0; 16]), t(500)))
            .unwrap();
        let CommandEffect::DmaStarted { done_at } = e else {
            panic!("expected DmaStarted, got {e:?}");
        };
        assert!(done_at >= t(500) + lat, "miss pays the kernel round trip");
        // Second transfer on the now-resident page pays no map-in.
        let done_at = done_at + SimDuration::from_us(1);
        let e2 = n
            .command_write(done_at, cmd, 4, |_, _| {
                (Payload::from(vec![0; 16]), done_at + SimDuration::from_ns(500))
            })
            .unwrap();
        let CommandEffect::DmaStarted { done_at: d2 } = e2 else {
            panic!("expected DmaStarted, got {e2:?}");
        };
        assert!(d2 < done_at + lat, "hit must not pay the round trip");
        let s = n.iotlb_stats().unwrap();
        assert_eq!((s.misses, s.hits, s.map_ins), (1, 1, 1));
    }
}
