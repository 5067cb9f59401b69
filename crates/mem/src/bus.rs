//! Xpress memory bus and EISA expansion bus timing models.
//!
//! Both buses serve one transaction at a time. Every *write* transaction
//! on the Xpress bus is visible to snoopers — that visibility is the
//! SHRIMP NIC's input (paper §3: "Outgoing data ... is snooped directly
//! off the Xpress memory bus"). The EISA bus carries incoming data from
//! the NIC to main memory at its 33 MB/s burst rate, which is the paper's
//! peak-bandwidth bottleneck (§5.1).

use shrimp_sim::resource::Grant;
use shrimp_sim::{BandwidthResource, SimDuration, SimTime};

use crate::addr::{PhysAddr, WORD_SIZE};

/// Who initiated a bus transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusInitiator {
    /// The node CPU.
    Cpu,
    /// The network interface's DMA engine.
    NicDma,
}

/// Direction of a bus transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusKind {
    /// Data moves from initiator to memory (snoopable on the Xpress bus).
    Write,
    /// Data moves from memory to initiator.
    Read,
}

/// The completed timing record of one bus transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusTransaction {
    /// When the bus served this transaction.
    pub grant: Grant,
    /// Start address.
    pub addr: PhysAddr,
    /// Length in bytes.
    pub len: u64,
    /// Read or write.
    pub kind: BusKind,
    /// Who drove the transaction.
    pub initiator: BusInitiator,
}

/// Bus bandwidths and overheads for one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusConfig {
    /// Xpress memory bus sustained rate in bytes/second.
    pub xpress_bytes_per_sec: u64,
    /// Fixed arbitration/setup overhead per Xpress transaction.
    pub xpress_overhead: SimDuration,
    /// EISA expansion bus burst rate in bytes/second.
    pub eisa_bytes_per_sec: u64,
    /// Fixed setup overhead per EISA transfer.
    pub eisa_overhead: SimDuration,
}

impl BusConfig {
    /// The EISA-based SHRIMP prototype: 33 MB/s EISA burst (paper §5.1),
    /// with an Xpress bus at four times that rate ("all other parts of the
    /// datapath have at least twice this bandwidth").
    pub fn shrimp_prototype() -> Self {
        BusConfig {
            xpress_bytes_per_sec: 132_000_000,
            xpress_overhead: SimDuration::from_ns(30),
            eisa_bytes_per_sec: 33_000_000,
            eisa_overhead: SimDuration::from_ns(120),
        }
    }

    /// The "next implementation" the paper describes: incoming data drives
    /// the Xpress memory bus directly, bypassing EISA, for ~70 MB/s peak.
    pub fn shrimp_next_generation() -> Self {
        BusConfig {
            xpress_bytes_per_sec: 132_000_000,
            xpress_overhead: SimDuration::from_ns(30),
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
/// use shrimp_mem::{XpressBus, BusConfig, BusInitiator, PhysAddr};
/// use shrimp_sim::SimTime;
///
/// let mut bus = XpressBus::new(BusConfig::default());
/// let txn = bus.write(SimTime::ZERO, PhysAddr::new(0x100), 4, BusInitiator::Cpu);
/// assert!(txn.grant.end > txn.grant.start);
/// ```
#[derive(Debug, Clone)]
pub struct XpressBus {
    resource: BandwidthResource,
    writes: u64,
    reads: u64,
}

impl XpressBus {
    /// Creates an idle bus.
    pub fn new(config: BusConfig) -> Self {
        XpressBus {
            resource: BandwidthResource::new(config.xpress_bytes_per_sec, config.xpress_overhead),
            writes: 0,
            reads: 0,
        }
    }

    /// Performs a write transaction. The returned record is what snoopers
    /// (the NIC) observe.
    pub fn write(
        &mut self,
        now: SimTime,
        addr: PhysAddr,
        len: u64,
        initiator: BusInitiator,
    ) -> BusTransaction {
        self.writes += 1;
        BusTransaction {
            grant: self.resource.transfer(now, len),
            addr,
            len,
            kind: BusKind::Write,
            initiator,
        }
    }

    /// Performs `n` write transactions of `len` bytes each, back to back:
    /// the first requested at `now`, every later one at the previous
    /// one's end. The bus ends exactly as after `n` [`XpressBus::write`]
    /// calls (see [`BandwidthResource::transfer_run`]); the grant runs
    /// from the first write's start to the last one's end.
    pub fn write_run(&mut self, now: SimTime, n: u64, len: u64) -> Grant {
        self.writes += n;
        self.resource.transfer_run(now, n, len)
    }

    /// The service time of one word transaction, overhead included: how
    /// far apart the writes of a [`XpressBus::write_run`] of words end.
    pub fn word_time(&self) -> SimDuration {
        self.resource.duration_of(WORD_SIZE)
    }

    /// Performs a read transaction.
    pub fn read(
        &mut self,
        now: SimTime,
        addr: PhysAddr,
        len: u64,
        initiator: BusInitiator,
    ) -> BusTransaction {
        self.reads += 1;
        BusTransaction {
            grant: self.resource.transfer(now, len),
            addr,
            len,
            kind: BusKind::Read,
            initiator,
        }
    }

    /// When the bus next goes idle.
    pub fn free_at(&self) -> SimTime {
        self.resource.free_at()
    }

    /// Total write transactions served.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Total read transactions served.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Bus utilization over `[0, now]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.resource.utilization(now)
    }

    /// Total bytes moved.
    pub fn bytes_total(&self) -> u64 {
        self.resource.bytes_total()
    }
}

/// The EISA expansion bus: the incoming DMA path of the prototype NIC.
///
/// # Examples
///
/// ```
/// use shrimp_mem::{EisaBus, BusConfig, PhysAddr};
/// use shrimp_sim::SimTime;
///
/// let mut eisa = EisaBus::new(BusConfig::default());
/// let txn = eisa.dma_write(SimTime::ZERO, PhysAddr::new(0), 4096);
/// // 4 KB at 33 MB/s is ~124 us.
/// assert!(txn.grant.end.as_micros_f64() > 120.0);
/// ```
#[derive(Debug, Clone)]
pub struct EisaBus {
    resource: BandwidthResource,
    transfers: u64,
}

impl EisaBus {
    /// Creates an idle bus.
    pub fn new(config: BusConfig) -> Self {
        EisaBus {
            resource: BandwidthResource::new(config.eisa_bytes_per_sec, config.eisa_overhead),
            transfers: 0,
        }
    }

    /// DMA-writes `len` bytes of incoming packet data to memory.
    pub fn dma_write(&mut self, now: SimTime, addr: PhysAddr, len: u64) -> BusTransaction {
        self.transfers += 1;
        BusTransaction {
            grant: self.resource.transfer(now, len),
            addr,
            len,
            kind: BusKind::Write,
            initiator: BusInitiator::NicDma,
        }
    }

    /// When the bus next goes idle.
    pub fn free_at(&self) -> SimTime {
        self.resource.free_at()
    }

    /// Total DMA transfers served.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Total bytes moved.
    pub fn bytes_total(&self) -> u64 {
        self.resource.bytes_total()
    }

    /// Achieved throughput over `[0, now]` in bytes/second.
    pub fn achieved_rate(&self, now: SimTime) -> f64 {
        self.resource.achieved_rate(now)
    }

    /// Configured burst rate in bytes/second.
    pub fn bytes_per_sec(&self) -> u64 {
        self.resource.bytes_per_sec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xpress_serializes_transactions() {
        let mut bus = XpressBus::new(BusConfig::default());
        let a = bus.write(SimTime::ZERO, PhysAddr::new(0), 4, BusInitiator::Cpu);
        let b = bus.write(SimTime::ZERO, PhysAddr::new(4), 4, BusInitiator::Cpu);
        assert_eq!(b.grant.start, a.grant.end);
        assert_eq!(bus.writes(), 2);
        assert_eq!(bus.reads(), 0);
        assert_eq!(bus.bytes_total(), 8);
    }

    #[test]
    fn write_run_matches_word_writes() {
        let mut one = XpressBus::new(BusConfig::default());
        one.read(SimTime::ZERO, PhysAddr::new(0), 64, BusInitiator::NicDma);
        let mut run = one.clone();
        let mut t = SimTime::ZERO;
        for i in 0..64 {
            let end = one
                .write(t, PhysAddr::new(i * 4), 4, BusInitiator::Cpu)
                .grant
                .end;
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
        let mut bus = XpressBus::new(BusConfig::default());
        let txn = bus.write(SimTime::ZERO, PhysAddr::new(0), 4, BusInitiator::Cpu);
        let ns = txn.grant.end.since(txn.grant.start).as_nanos_f64();
        // 30ns overhead + 4B/132MB/s ≈ 30ns: word write well under 100ns.
        assert!(ns < 100.0, "word write took {ns}ns");
    }

    #[test]
    fn eisa_peak_rate_is_33_mbs() {
        let cfg = BusConfig::shrimp_prototype();
        let mut eisa = EisaBus::new(cfg);
        let mut now = SimTime::ZERO;
        for i in 0..64 {
            let txn = eisa.dma_write(now, PhysAddr::new(i * 4096), 4096);
            now = txn.grant.end;
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
        let eisa = EisaBus::new(next);
        assert_eq!(eisa.bytes_per_sec(), 70_000_000);
    }

    #[test]
    fn reads_and_writes_share_the_bus() {
        let mut bus = XpressBus::new(BusConfig::default());
        let w = bus.write(SimTime::ZERO, PhysAddr::new(0), 64, BusInitiator::NicDma);
        let r = bus.read(SimTime::ZERO, PhysAddr::new(64), 64, BusInitiator::Cpu);
        assert_eq!(r.grant.start, w.grant.end);
        assert_eq!(bus.reads(), 1);
        assert!(bus.utilization(r.grant.end) > 0.9);
    }

    #[test]
    fn transaction_records_carry_metadata() {
        let mut eisa = EisaBus::new(BusConfig::default());
        let txn = eisa.dma_write(SimTime::ZERO, PhysAddr::new(0x40), 16);
        assert_eq!(txn.kind, BusKind::Write);
        assert_eq!(txn.initiator, BusInitiator::NicDma);
        assert_eq!(txn.len, 16);
        assert_eq!(txn.addr, PhysAddr::new(0x40));
        assert_eq!(eisa.transfers(), 1);
    }
}
