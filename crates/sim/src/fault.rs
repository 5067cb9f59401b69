//! Deterministic, seeded fault injection.
//!
//! The simulator's reliability machinery (per-packet CRC-32, FIFO
//! backpressure, the overflow queue and — with retransmission enabled —
//! the go-back-N engine) is only load-bearing if something actually goes
//! wrong. This module supplies the "something": per-link packet drops
//! (Bernoulli or bursty), wire bit-flips, link latency jitter, and
//! transient NIC FIFO stalls.
//!
//! # Stream-splitting rule
//!
//! Every fault *site* (one directed mesh link, one NIC) owns a private
//! [`SimRng`] created with [`SimRng::stream_from`] on a stream id of the
//! form `(kind << 56) | site_index`. Named streams never touch shared
//! state, so:
//!
//! - enabling a fault never perturbs workload randomness (the workload
//!   draws from entirely different streams), and
//! - enabling one site never shifts the draws of another site.
//!
//! The result is that a fault scenario is a pure function of
//! `(FaultConfig, workload)` — the property the chaos soak test pins.
//!
//! With every rate at zero (the default) no site is created and no RNG
//! is ever constructed: the fault layer is pay-for-what-you-use.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// Stream-id tag for per-directed-link fault sites.
pub const STREAM_KIND_LINK: u64 = 1 << 56;
/// Stream-id tag for per-NIC fault sites.
pub const STREAM_KIND_NIC: u64 = 2 << 56;
/// Stream-id tag for per-directed-link churn schedules.
pub const STREAM_KIND_CHURN: u64 = 3 << 56;

/// Faults applied on every directed mesh link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaultConfig {
    /// Bernoulli probability that a packet is dropped as it crosses the
    /// link (the bytes still occupy the wire; the packet never arrives).
    pub drop_rate: f64,
    /// When a Bernoulli drop fires, this many *additional* back-to-back
    /// packets on the same link are also dropped, drawn uniformly from
    /// the inclusive range. `(0, 0)` disables bursts.
    pub burst_extra: (u32, u32),
    /// Probability that a packet crosses the link with flipped bits.
    pub corrupt_rate: f64,
    /// Number of bits flipped per corruption event, drawn uniformly from
    /// the inclusive range. Positions are uniform over the wire image.
    pub corrupt_bits: (u32, u32),
    /// Probability that a packet sees extra propagation delay.
    pub jitter_rate: f64,
    /// Extra delay per jitter event, uniform over the inclusive range.
    pub jitter: (SimDuration, SimDuration),
}

impl Default for LinkFaultConfig {
    fn default() -> Self {
        LinkFaultConfig {
            drop_rate: 0.0,
            burst_extra: (0, 0),
            corrupt_rate: 0.0,
            corrupt_bits: (1, 4),
            jitter_rate: 0.0,
            jitter: (SimDuration::ZERO, SimDuration::ZERO),
        }
    }
}

impl LinkFaultConfig {
    /// True when any link fault can ever fire.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.drop_rate > 0.0 || self.corrupt_rate > 0.0 || self.jitter_rate > 0.0
    }
}

/// Seeded link up/down churn: every directed link fails and repairs on
/// its own schedule, drawn from a per-link stream.
///
/// Each link's windows come from [`FaultConfig::churn_windows`], drawn
/// one at a time as the run reaches them. The draws depend on nothing
/// but the link's own stream, so the schedule is a pure function of
/// `(seed, link_index)`, independent of traffic or of how far any
/// particular run happens to advance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkChurnConfig {
    /// Number of fail/repair cycles per directed link. 0 disables churn.
    pub times: u32,
    /// Uptime before each failure, uniform over the inclusive range.
    pub fail_after: (SimDuration, SimDuration),
    /// Downtime before the matching repair, uniform over the inclusive
    /// range.
    pub repair_after: (SimDuration, SimDuration),
}

impl Default for LinkChurnConfig {
    fn default() -> Self {
        LinkChurnConfig {
            times: 0,
            fail_after: (SimDuration::ZERO, SimDuration::ZERO),
            repair_after: (SimDuration::ZERO, SimDuration::ZERO),
        }
    }
}

impl LinkChurnConfig {
    /// True when links will actually fail.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.times > 0
    }
}

/// Faults applied at a NIC's network-receive port.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NicFaultConfig {
    /// Probability, per accepted packet, that the receive FIFO then
    /// stalls (stops accepting from the network) for a while.
    pub stall_rate: f64,
    /// Stall length, uniform over the inclusive range.
    pub stall: (SimDuration, SimDuration),
}

impl Default for NicFaultConfig {
    fn default() -> Self {
        NicFaultConfig {
            stall_rate: 0.0,
            stall: (SimDuration::ZERO, SimDuration::ZERO),
        }
    }
}

impl NicFaultConfig {
    /// True when the stall fault can ever fire.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.stall_rate > 0.0
    }
}

/// Top-level fault plan for a machine. Defaults to everything off.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultConfig {
    /// Master seed; every site stream derives from it.
    pub seed: u64,
    /// Per-link faults.
    pub link: LinkFaultConfig,
    /// Per-NIC faults.
    pub nic: NicFaultConfig,
    /// Per-link up/down churn schedule.
    pub churn: LinkChurnConfig,
}

impl FaultConfig {
    /// True when any fault site would be created.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.link.is_active() || self.nic.is_active() || self.churn.is_active()
    }

    /// The fail/repair schedule of one directed link, drawn lazily: each
    /// window is drawn from the link's stream only when the iterator
    /// reaches it. Empty when churn is disabled.
    #[must_use]
    pub fn churn_windows(&self, link_index: u64) -> ChurnCycles {
        ChurnCycles {
            cfg: self.churn,
            rng: SimRng::stream_from(self.seed, STREAM_KIND_CHURN | link_index),
            at: SimDuration::ZERO,
            left: self.churn.times,
        }
    }

    /// Builds the fault site for one directed link, or `None` when link
    /// faults are disabled.
    #[must_use]
    pub fn link_site(&self, link_index: u64) -> Option<LinkFaultSite> {
        self.link.is_active().then(|| LinkFaultSite {
            cfg: self.link,
            rng: SimRng::stream_from(self.seed, STREAM_KIND_LINK | link_index),
            burst_remaining: 0,
        })
    }

    /// Builds the fault site for one NIC, or `None` when NIC faults are
    /// disabled.
    #[must_use]
    pub fn nic_site(&self, node_index: u64) -> Option<NicFaultSite> {
        self.nic.is_active().then(|| NicFaultSite {
            cfg: self.nic,
            rng: SimRng::stream_from(self.seed, STREAM_KIND_NIC | node_index),
        })
    }
}

/// One directed link's fail/repair windows as `(down_at, up_at)`
/// offsets from simulation start, in time order: a window never
/// starts before the previous one ends. Made by
/// [`FaultConfig::churn_windows`].
#[derive(Debug, Clone)]
pub struct ChurnCycles {
    cfg: LinkChurnConfig,
    rng: SimRng,
    /// End of the last window drawn.
    at: SimDuration,
    /// Windows not yet drawn.
    left: u32,
}

impl Iterator for ChurnCycles {
    type Item = (SimDuration, SimDuration);

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let mut draw = |(lo, hi): (SimDuration, SimDuration)| {
            SimDuration::from_picos(self.rng.gen_range(lo.as_picos()..=hi.as_picos()))
        };
        let down_at = self.at + draw(self.cfg.fail_after);
        let up_at = down_at + draw(self.cfg.repair_after);
        self.at = up_at;
        Some((down_at, up_at))
    }
}

/// What a link decided to do to one packet traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFault {
    /// The packet is consumed by the wire but never arrives.
    pub drop: bool,
    /// Number of bit positions to flip in the wire image (0 = clean).
    pub corrupt_bits: u32,
    /// Extra propagation delay added to this traversal.
    pub jitter: SimDuration,
}

impl LinkFault {
    /// A traversal with no fault at all.
    pub const NONE: LinkFault = LinkFault {
        drop: false,
        corrupt_bits: 0,
        jitter: SimDuration::ZERO,
    };
}

/// Mutable fault state for one directed mesh link.
#[derive(Debug, Clone)]
pub struct LinkFaultSite {
    cfg: LinkFaultConfig,
    rng: SimRng,
    burst_remaining: u32,
}

impl LinkFaultSite {
    /// Decides the fate of one packet traversal.
    pub fn decide(&mut self) -> LinkFault {
        let mut fault = LinkFault::NONE;
        if self.burst_remaining > 0 {
            self.burst_remaining -= 1;
            fault.drop = true;
            return fault;
        }
        if self.cfg.drop_rate > 0.0 && self.rng.chance(self.cfg.drop_rate) {
            fault.drop = true;
            let (lo, hi) = self.cfg.burst_extra;
            if hi > 0 {
                self.burst_remaining = self.rng.gen_range(lo..=hi);
            }
            return fault;
        }
        if self.cfg.corrupt_rate > 0.0 && self.rng.chance(self.cfg.corrupt_rate) {
            let (lo, hi) = self.cfg.corrupt_bits;
            fault.corrupt_bits = self.rng.gen_range(lo.max(1)..=hi.max(lo.max(1)));
        }
        if self.cfg.jitter_rate > 0.0 && self.rng.chance(self.cfg.jitter_rate) {
            let (lo, hi) = self.cfg.jitter;
            fault.jitter =
                SimDuration::from_picos(self.rng.gen_range(lo.as_picos()..=hi.as_picos()));
        }
        fault
    }

    /// Draws a uniform bit position in `0..total_bits` for a corruption
    /// event (the site cannot know the packet's length up front).
    pub fn pick_bit(&mut self, total_bits: u64) -> u64 {
        self.rng.gen_range(0..total_bits)
    }
}

/// Mutable fault state for one NIC's receive port.
#[derive(Debug, Clone)]
pub struct NicFaultSite {
    cfg: NicFaultConfig,
    rng: SimRng,
}

impl NicFaultSite {
    /// Decides, after one accepted packet, whether the receive FIFO
    /// stalls, and for how long.
    pub fn decide_stall(&mut self) -> Option<SimDuration> {
        if self.cfg.stall_rate > 0.0 && self.rng.chance(self.cfg.stall_rate) {
            let (lo, hi) = self.cfg.stall;
            Some(SimDuration::from_picos(
                self.rng.gen_range(lo.as_picos()..=hi.as_picos()),
            ))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy() -> FaultConfig {
        FaultConfig {
            seed: 11,
            link: LinkFaultConfig {
                drop_rate: 0.5,
                corrupt_rate: 0.25,
                jitter_rate: 0.25,
                jitter: (SimDuration::from_ns(1), SimDuration::from_ns(50)),
                ..LinkFaultConfig::default()
            },
            nic: NicFaultConfig {
                stall_rate: 0.5,
                stall: (SimDuration::from_ns(10), SimDuration::from_ns(10)),
            },
            churn: LinkChurnConfig::default(),
        }
    }

    #[test]
    fn default_config_creates_no_sites() {
        let cfg = FaultConfig::default();
        assert!(!cfg.is_active());
        assert!(cfg.link_site(0).is_none());
        assert!(cfg.nic_site(0).is_none());
    }

    #[test]
    fn sites_are_reproducible_and_independent() {
        let cfg = lossy();
        let mut a = cfg.link_site(3).unwrap();
        let mut b = cfg.link_site(3).unwrap();
        for _ in 0..256 {
            assert_eq!(a.decide(), b.decide());
        }
        // A different site index gives a different sequence.
        let seq = |mut s: LinkFaultSite| -> Vec<LinkFault> {
            (0..64).map(|_| s.decide()).collect()
        };
        assert_ne!(
            seq(cfg.link_site(3).unwrap()),
            seq(cfg.link_site(4).unwrap())
        );
    }

    #[test]
    fn drop_rate_is_roughly_honoured() {
        let cfg = FaultConfig {
            seed: 5,
            link: LinkFaultConfig {
                drop_rate: 0.1,
                ..LinkFaultConfig::default()
            },
            ..FaultConfig::default()
        };
        let mut site = cfg.link_site(0).unwrap();
        let drops = (0..10_000).filter(|_| site.decide().drop).count();
        assert!((800..1200).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn bursts_extend_drops() {
        let cfg = FaultConfig {
            seed: 5,
            link: LinkFaultConfig {
                drop_rate: 0.05,
                burst_extra: (2, 2),
                ..LinkFaultConfig::default()
            },
            ..FaultConfig::default()
        };
        let mut site = cfg.link_site(0).unwrap();
        let mut run = 0u32;
        let mut max_run = 0u32;
        for _ in 0..10_000 {
            if site.decide().drop {
                run += 1;
                max_run = max_run.max(run);
            } else {
                run = 0;
            }
        }
        assert!(max_run >= 3, "bursts must chain drops (max run {max_run})");
    }

    #[test]
    fn churn_windows_are_ordered_and_reproducible() {
        let cfg = FaultConfig {
            seed: 9,
            churn: LinkChurnConfig {
                times: 4,
                fail_after: (SimDuration::from_us(1), SimDuration::from_us(5)),
                repair_after: (SimDuration::from_us(2), SimDuration::from_us(3)),
            },
            ..FaultConfig::default()
        };
        let windows = |link| cfg.churn_windows(link).collect::<Vec<_>>();
        let a = windows(7);
        assert_eq!(a, windows(7), "same link, same schedule");
        assert_ne!(a, windows(8), "links draw independent schedules");
        assert_eq!(a.len(), 4);
        let mut prev = SimDuration::ZERO;
        for &(down_at, up_at) in &a {
            assert!(down_at >= prev, "cycles do not overlap");
            assert!(up_at > down_at, "every failure is eventually repaired");
            prev = up_at;
        }
        assert_eq!(FaultConfig::default().churn_windows(0).next(), None);
    }

    #[test]
    fn nic_stall_draws_duration_in_range() {
        let cfg = lossy();
        let mut site = cfg.nic_site(1).unwrap();
        let mut hits = 0;
        for _ in 0..256 {
            if let Some(d) = site.decide_stall() {
                hits += 1;
                assert_eq!(d, SimDuration::from_ns(10));
            }
        }
        assert!(hits > 0, "a 50% stall rate must fire in 256 draws");
    }
}
