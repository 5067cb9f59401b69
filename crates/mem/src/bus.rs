//! Xpress memory bus and EISA expansion bus timing models.
//!
//! Both buses serve one transaction at a time, and a transaction returns
//! only its [`Grant`]: when the bus served it. Every *write* transaction
//! on the Xpress bus is visible to snoopers — that visibility is the
//! SHRIMP NIC's input (paper §3: "Outgoing data ... is snooped directly
//! off the Xpress memory bus"); the snooper needs only the write's data,
//! which the caller holds, and the grant's end. The EISA bus carries
//! incoming data from the NIC to main memory at its 33 MB/s burst rate,
//! which is the paper's peak-bandwidth bottleneck (§5.1).

use shrimp_sim::resource::Grant;
use shrimp_sim::{BandwidthResource, SimDuration, SimTime};

use crate::addr::WORD_SIZE;

/// Xpress memory bus sustained rate in bytes/second: four times the
/// prototype's 33 MB/s EISA burst ("all other parts of the datapath have
/// at least twice this bandwidth", paper §5.1).
pub const XPRESS_BYTES_PER_SEC: u64 = 132_000_000;

/// Fixed arbitration/setup overhead per Xpress transaction.
pub const XPRESS_OVERHEAD: SimDuration = SimDuration::from_ns(30);

/// The incoming-path bus of one node: the one bus the paper's two
/// implementations build differently (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusConfig {
    /// EISA expansion bus burst rate in bytes/second.
    pub eisa_bytes_per_sec: u64,
    /// Fixed setup overhead per EISA transfer.
    pub eisa_overhead: SimDuration,
}

impl BusConfig {
    /// The EISA-based SHRIMP prototype: 33 MB/s EISA burst (paper §5.1).
    pub fn shrimp_prototype() -> Self {
        BusConfig {
            eisa_bytes_per_sec: 33_000_000,
            eisa_overhead: SimDuration::from_ns(120),
        }
    }

    /// The "next implementation" the paper describes: incoming data drives
    /// the Xpress memory bus directly, bypassing EISA, for ~70 MB/s peak.
    pub fn shrimp_next_generation() -> Self {
        BusConfig {
            // Incoming path is the Xpress bus itself, modelled at the
            // 70 MB/s the paper projects end-to-end.
            eisa_bytes_per_sec: 70_000_000,
            eisa_overhead: SimDuration::from_ns(30),
        }
    }
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig::shrimp_prototype()
    }
}

/// The Xpress memory bus of one node.
///
/// # Examples
///
/// ```
/// use shrimp_mem::XpressBus;
/// use shrimp_sim::SimTime;
///
/// let mut bus = XpressBus::new();
/// let grant = bus.write(SimTime::ZERO, 4);
/// assert!(grant.end > grant.start);
/// ```
#[derive(Debug, Clone)]
pub struct XpressBus {
    resource: BandwidthResource,
}

impl XpressBus {
    /// Creates an idle bus.
    pub fn new() -> Self {
        XpressBus {
            resource: BandwidthResource::new(XPRESS_BYTES_PER_SEC, XPRESS_OVERHEAD),
        }
    }

    /// Performs a write transaction of `len` bytes. Its end is when
    /// snoopers (the NIC) see the write.
    pub fn write(&mut self, now: SimTime, len: u64) -> Grant {
        self.resource.transfer(now, len)
    }

    /// Performs `n` write transactions of `len` bytes each, back to back:
    /// the first requested at `now`, every later one at the previous
    /// one's end. The bus ends exactly as after `n` [`XpressBus::write`]
    /// calls (see [`BandwidthResource::transfer_run`]); the grant runs
    /// from the first write's start to the last one's end.
    pub fn write_run(&mut self, now: SimTime, n: u64, len: u64) -> Grant {
        self.resource.transfer_run(now, n, len)
    }

    /// The service time of one word transaction, overhead included: how
    /// far apart the writes of a [`XpressBus::write_run`] of words end.
    pub fn word_time(&self) -> SimDuration {
        self.resource.duration_of(WORD_SIZE)
    }

    /// Performs a read transaction of `len` bytes.
    pub fn read(&mut self, now: SimTime, len: u64) -> Grant {
        self.resource.transfer(now, len)
    }

    /// When the bus next goes idle.
    pub fn free_at(&self) -> SimTime {
        self.resource.free_at()
    }
}

impl Default for XpressBus {
    fn default() -> Self {
        XpressBus::new()
    }
}

/// The EISA expansion bus: the incoming DMA path of the prototype NIC.
///
/// # Examples
///
/// ```
/// use shrimp_mem::{EisaBus, BusConfig};
/// use shrimp_sim::SimTime;
///
/// let mut eisa = EisaBus::new(BusConfig::default());
/// let grant = eisa.dma_write(SimTime::ZERO, 4096);
/// // 4 KB at 33 MB/s is ~124 us.
/// assert!(grant.end.as_micros_f64() > 120.0);
/// ```
#[derive(Debug, Clone)]
pub struct EisaBus {
    resource: BandwidthResource,
}

impl EisaBus {
    /// Creates an idle bus.
    pub fn new(config: BusConfig) -> Self {
        EisaBus {
            resource: BandwidthResource::new(config.eisa_bytes_per_sec, config.eisa_overhead),
        }
    }

    /// DMA-writes `len` bytes of incoming packet data to memory.
    pub fn dma_write(&mut self, now: SimTime, len: u64) -> Grant {
        self.resource.transfer(now, len)
    }

    /// Total bytes moved.
    pub fn bytes_total(&self) -> u64 {
        self.resource.bytes_total()
    }

    /// Achieved throughput over `[0, now]` in bytes/second.
    pub fn achieved_rate(&self, now: SimTime) -> f64 {
        self.resource.achieved_rate(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xpress_serializes_transactions() {
        let mut bus = XpressBus::new();
        let a = bus.write(SimTime::ZERO, 4);
        let b = bus.write(SimTime::ZERO, 4);
        assert_eq!(b.start, a.end);
    }

    #[test]
    fn write_run_matches_word_writes() {
        let mut one = XpressBus::new();
        one.read(SimTime::ZERO, 64);
        let mut run = one.clone();
        let mut t = SimTime::ZERO;
        for i in 0..64 {
            let end = one.write(t, 4).end;
            if i > 0 {
                assert_eq!(end.since(t), one.word_time(), "word {i}");
            }
            t = end;
        }
        assert_eq!(run.write_run(SimTime::ZERO, 64, 4).end, t);
        assert_eq!(format!("{run:?}"), format!("{one:?}"));
    }

    #[test]
    fn word_write_is_fast_relative_to_eisa() {
        let mut bus = XpressBus::new();
        let grant = bus.write(SimTime::ZERO, 4);
        let ns = grant.end.since(grant.start).as_nanos_f64();
        // 30ns overhead + 4B/132MB/s ≈ 30ns: word write well under 100ns.
        assert!(ns < 100.0, "word write took {ns}ns");
    }

    #[test]
    fn eisa_peak_rate_is_33_mbs() {
        let cfg = BusConfig::shrimp_prototype();
        let mut eisa = EisaBus::new(cfg);
        let mut now = SimTime::ZERO;
        for _ in 0..64 {
            now = eisa.dma_write(now, 4096).end;
        }
        let rate = eisa.achieved_rate(now);
        // Setup overhead shaves a bit off 33 MB/s but must stay close.
        assert!(rate > 32_000_000.0 && rate <= 33_000_000.0, "rate {rate}");
    }

    #[test]
    fn next_generation_doubles_incoming_rate() {
        let proto = BusConfig::shrimp_prototype();
        let next = BusConfig::shrimp_next_generation();
        assert!(next.eisa_bytes_per_sec > 2 * proto.eisa_bytes_per_sec);
        // 70 KB at 70 MB/s is 1 ms, plus the setup overhead.
        let grant = EisaBus::new(next).dma_write(SimTime::ZERO, 70_000);
        let expected = SimDuration::from_ms(1) + next.eisa_overhead;
        assert_eq!(grant.end.since(grant.start), expected);
    }

    #[test]
    fn reads_and_writes_share_the_bus() {
        let mut bus = XpressBus::new();
        let w = bus.write(SimTime::ZERO, 64);
        let r = bus.read(SimTime::ZERO, 64);
        assert_eq!(r.start, w.end);
    }
}
