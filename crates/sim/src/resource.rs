//! Occupancy models for one-at-a-time hardware resources.
//!
//! A memory bus, a mesh link, or the NIC's single DMA engine can serve only
//! one transaction at a time. [`SerialResource`] tracks when such a
//! resource next becomes free and hands out back-to-back reservations;
//! [`BandwidthResource`] layers a bytes-per-second rate on top so that
//! transfer durations follow from payload size.

use crate::time::{SimDuration, SimTime};

/// A resource that serves one request at a time (a bus, a link, a DMA
/// engine). Requests are serialized in the order they are reserved.
///
/// # Examples
///
/// ```
/// use shrimp_sim::{SerialResource, SimTime, SimDuration};
///
/// let mut bus = SerialResource::new();
/// let a = bus.reserve(SimTime::ZERO, SimDuration::from_ns(10));
/// let b = bus.reserve(SimTime::ZERO, SimDuration::from_ns(10));
/// assert_eq!(a.start, SimTime::ZERO);
/// assert_eq!(b.start, a.end); // second transaction waits for the first
/// ```
#[derive(Debug, Clone, Default)]
pub struct SerialResource {
    free_at: SimTime,
}

/// The time window granted to one reservation on a [`SerialResource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When the resource starts serving this request.
    pub start: SimTime,
    /// When the resource becomes free again.
    pub end: SimTime,
}

impl Grant {
    /// Total latency from request to completion.
    pub fn latency(&self, requested_at: SimTime) -> SimDuration {
        self.end.saturating_since(requested_at)
    }
}

impl SerialResource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        SerialResource::default()
    }

    /// Reserves the resource at or after `now` for `duration`, returning
    /// the granted service window.
    pub fn reserve(&mut self, now: SimTime, duration: SimDuration) -> Grant {
        let start = now.max(self.free_at);
        let end = start + duration;
        self.free_at = end;
        Grant { start, end }
    }

    /// `n` reservations of `duration` each, the first requested at `now`
    /// and every later one at the previous one's end, in closed form:
    /// they run back to back, so the state ends exactly as after `n`
    /// [`SerialResource::reserve`] calls. The grant spans the whole run.
    fn reserve_run(&mut self, now: SimTime, n: u64, duration: SimDuration) -> Grant {
        debug_assert!(n > 0, "a run reserves at least once");
        let start = now.max(self.free_at);
        let end = start + duration * n;
        self.free_at = end;
        Grant { start, end }
    }

    /// The next instant at which the resource is idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }
}

/// A serialized resource with a byte rate: transfer duration is computed
/// from payload size, plus a fixed per-transaction overhead.
///
/// This models the EISA bus (33 MB/s burst), the Xpress memory bus, mesh
/// links, and DMA engines.
///
/// # Examples
///
/// ```
/// use shrimp_sim::{BandwidthResource, SimTime};
///
/// // EISA burst mode: 33 MB/s, no per-transaction overhead.
/// let mut eisa = BandwidthResource::new(33_000_000, shrimp_sim::SimDuration::ZERO);
/// let g = eisa.transfer(SimTime::ZERO, 33_000_000);
/// assert!((g.end.as_micros_f64() - 1_000_000.0).abs() < 1.0); // ~1 second
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthResource {
    inner: SerialResource,
    bytes_per_sec: u64,
    per_transaction: SimDuration,
    bytes_total: u64,
}

impl BandwidthResource {
    /// Creates a resource with the given rate and fixed per-transaction
    /// overhead (arbitration, setup).
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero.
    pub fn new(bytes_per_sec: u64, per_transaction: SimDuration) -> Self {
        assert!(bytes_per_sec > 0, "bandwidth must be positive");
        BandwidthResource {
            inner: SerialResource::new(),
            bytes_per_sec,
            per_transaction,
            bytes_total: 0,
        }
    }

    /// Reserves the resource for a transfer of `bytes`, returning the
    /// service window.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> Grant {
        let dur = self.duration_of(bytes);
        self.bytes_total += bytes;
        self.inner.reserve(now, dur)
    }

    /// `n` back-to-back transfers of `bytes` each, the first requested at
    /// `now` and every later one at the previous one's end: the resource
    /// ends exactly as after `n` [`BandwidthResource::transfer`] calls,
    /// with one duration computation instead of `n`. The grant runs from
    /// the first transfer's start to the last one's end.
    pub fn transfer_run(&mut self, now: SimTime, n: u64, bytes: u64) -> Grant {
        let dur = self.duration_of(bytes);
        self.bytes_total += bytes * n;
        self.inner.reserve_run(now, n, dur)
    }

    /// The service time a transfer of `bytes` would take (overhead
    /// included), without reserving anything.
    pub fn duration_of(&self, bytes: u64) -> SimDuration {
        self.per_transaction + SimDuration::from_bytes_at_rate(bytes, self.bytes_per_sec)
    }

    /// The next instant at which the resource is idle.
    pub fn free_at(&self) -> SimTime {
        self.inner.free_at()
    }

    /// Total bytes transferred so far.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_total
    }

    /// Achieved throughput over `[0, now]` in bytes/second.
    pub fn achieved_rate(&self, now: SimTime) -> f64 {
        let secs = now.as_picos() as f64 / 1e12;
        if secs == 0.0 {
            0.0
        } else {
            self.bytes_total as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimDuration {
        SimDuration::from_ns(n)
    }

    #[test]
    fn serial_resource_serializes_back_to_back() {
        let mut r = SerialResource::new();
        let a = r.reserve(SimTime::ZERO, ns(10));
        let b = r.reserve(SimTime::ZERO, ns(5));
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(a.end, SimTime::ZERO + ns(10));
        assert_eq!(b.start, a.end);
        assert_eq!(b.end, a.end + ns(5));
        assert_eq!(r.free_at(), SimTime::ZERO + ns(15));
    }

    #[test]
    fn idle_gaps_are_respected() {
        let mut r = SerialResource::new();
        r.reserve(SimTime::ZERO, ns(10));
        // Next request arrives after the resource went idle.
        let g = r.reserve(SimTime::ZERO + ns(100), ns(10));
        assert_eq!(g.start, SimTime::ZERO + ns(100));
        assert_eq!(r.free_at(), SimTime::ZERO + ns(110));
    }

    #[test]
    fn grant_delay_accounting() {
        let mut r = SerialResource::new();
        r.reserve(SimTime::ZERO, ns(10));
        let g = r.reserve(SimTime::ZERO + ns(2), ns(4));
        assert_eq!(g.start, SimTime::ZERO + ns(10), "queued behind the first");
        assert_eq!(g.latency(SimTime::ZERO + ns(2)), ns(12));
    }

    #[test]
    fn bandwidth_duration_includes_overhead() {
        let r = BandwidthResource::new(1_000_000_000, ns(7)); // 1 GB/s
        // 1000 bytes at 1 GB/s is 1 us, plus 7 ns overhead.
        let d = r.duration_of(1000);
        assert_eq!(d, ns(7) + SimDuration::from_us(1));
    }

    #[test]
    fn eisa_rate_reproduces_33_mbs() {
        let mut eisa = BandwidthResource::new(33_000_000, SimDuration::ZERO);
        let start = SimTime::ZERO;
        let g = eisa.transfer(start, 4096);
        let us = g.end.since(start).as_micros_f64();
        // 4096 / 33e6 s = 124.12 us
        assert!((us - 124.12).abs() < 0.01, "got {us}");
        assert_eq!(eisa.bytes_total(), 4096);
    }

    #[test]
    fn achieved_rate_approaches_configured_rate_under_saturation() {
        let mut r = BandwidthResource::new(50_000_000, SimDuration::ZERO);
        let mut now = SimTime::ZERO;
        for _ in 0..100 {
            let g = r.transfer(now, 8192);
            now = g.end;
        }
        let rate = r.achieved_rate(now);
        assert!((rate - 50_000_000.0).abs() / 50_000_000.0 < 0.01, "rate {rate}");
    }

    #[test]
    fn transfer_run_matches_repeated_transfers() {
        // Idle gap before the run, and a run queued behind a busy bus.
        for (prior_bytes, request) in [(0, 50), (80, 20)] {
            let mut one = BandwidthResource::new(132_000_000, ns(30));
            one.transfer(SimTime::ZERO, prior_bytes);
            let mut run = one.clone();
            let mut t = SimTime::ZERO + ns(request);
            let first = one.transfer(t, 4);
            t = first.end;
            for _ in 1..100 {
                t = one.transfer(t, 4).end;
            }
            let g = run.transfer_run(SimTime::ZERO + ns(request), 100, 4);
            assert_eq!((g.start, g.end), (first.start, t));
            assert_eq!(format!("{run:?}"), format!("{one:?}"));
        }
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        BandwidthResource::new(0, SimDuration::ZERO);
    }
}
