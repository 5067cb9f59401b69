//! End-to-end simulation of kernel-mediated message passing.

use shrimp_mesh::{MeshConfig, MeshNetwork, MeshPacket, MeshShape, NodeId};
use shrimp_sim::{BandwidthResource, SimDuration, SimTime};

use crate::model::BaselineConfig;

/// The per-stage breakdown of one kernel-mediated message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageTimeline {
    /// `csend` trap + kernel fast path.
    pub send_software: SimDuration,
    /// User → system buffer copy on the sender.
    pub send_copy: SimDuration,
    /// DMA setup + injection serialization on the sender.
    pub send_dma: SimDuration,
    /// Backplane transit.
    pub wire: SimDuration,
    /// Receive DMA into the system buffer + completion interrupt.
    pub recv_dma: SimDuration,
    /// `crecv` trap + kernel fast path + dispatch.
    pub recv_software: SimDuration,
    /// System → user buffer copy on the receiver.
    pub recv_copy: SimDuration,
    /// Sender/receiver kernel instructions executed.
    pub instructions: (u64, u64),
}

impl MessageTimeline {
    /// Total end-to-end latency.
    pub fn total(&self) -> SimDuration {
        self.send_software
            + self.send_copy
            + self.send_dma
            + self.wire
            + self.recv_dma
            + self.recv_software
            + self.recv_copy
    }

    /// Software-only overhead (everything except wire and DMA
    /// serialization) — the number the paper contrasts with hardware
    /// latency.
    pub fn software_overhead(&self) -> SimDuration {
        self.send_software + self.send_copy + self.recv_software + self.recv_copy
    }
}

/// A multicomputer with traditional DMA NICs: every message is
/// kernel-mediated on both ends.
///
/// # Examples
///
/// ```
/// use shrimp_baseline::{BaselineMachine, BaselineConfig};
/// use shrimp_mesh::{MeshShape, NodeId};
///
/// let mut m = BaselineMachine::new(BaselineConfig::default(), MeshShape::new(4, 4));
/// let t = m.send_message(NodeId(0), NodeId(15), 1024);
/// assert!(t.software_overhead() > t.wire, "software dominates (the paper's point)");
/// ```
#[derive(Debug)]
pub struct BaselineMachine {
    config: BaselineConfig,
    mesh: MeshNetwork,
    /// Send-side DMA engine per node.
    send_dma: Vec<BandwidthResource>,
    /// Receive-side DMA engine per node.
    recv_dma: Vec<BandwidthResource>,
    now: SimTime,
    messages: u64,
    bytes: u64,
}

impl BaselineMachine {
    /// Builds an idle baseline machine on the same Paragon-class mesh the
    /// SHRIMP model uses.
    pub fn new(config: BaselineConfig, shape: MeshShape) -> Self {
        let n = shape.nodes() as usize;
        BaselineMachine {
            config,
            mesh: MeshNetwork::new(MeshConfig::paragon(shape)),
            send_dma: (0..n)
                .map(|_| BandwidthResource::new(config.dma_bytes_per_sec, config.dma_setup))
                .collect(),
            recv_dma: (0..n)
                .map(|_| BandwidthResource::new(config.dma_bytes_per_sec, config.dma_setup))
                .collect(),
            now: SimTime::ZERO,
            messages: 0,
            bytes: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &BaselineConfig {
        &self.config
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Messages sent so far.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Payload bytes moved so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    fn copy_time(&self, len: u64) -> SimDuration {
        SimDuration::from_bytes_at_rate(len.max(1), self.config.copy_bytes_per_sec)
    }

    /// Performs one `csend`/`crecv` pair end to end, advancing simulated
    /// time, and returns the stage breakdown.
    ///
    /// # Panics
    ///
    /// Panics if either node is off-mesh.
    pub fn send_message(&mut self, src: NodeId, dst: NodeId, len: u64) -> MessageTimeline {
        let c = self.config;
        let (send_sw_insn, recv_sw_insn) = (c.csend_instructions, c.crecv_instructions);

        // Sender: trap, fast path, copy to a system buffer, start DMA,
        // take the completion interrupt.
        let send_software = c.syscall_cost + c.cpu_cycle * send_sw_insn + c.interrupt_cost;
        let send_copy = self.copy_time(len);
        let mut t = self.now + send_software + send_copy;
        let send_grant = self.send_dma[src.0 as usize].transfer(t, len.max(1));
        let send_dma = send_grant.end.since(t);
        t = send_grant.end;

        // Wire: one packet through the mesh (kernel-level protocols
        // fragment large messages, but fragmentation does not change who
        // wins, so one packet per message keeps the model simple).
        let mut packet = MeshPacket::new(src, dst, vec![0u8; len.min(60_000) as usize]);
        let wire_start = t;
        while let Err(refused) = self.mesh.try_inject(t, packet) {
            packet = refused;
            let next = self
                .mesh
                .next_event_time()
                .expect("blocked injection implies pending events");
            self.mesh.advance(next);
            t = t.max(next);
        }
        // The wire phase runs on the mesh's own clock.
        let arrival = loop {
            match self.mesh.eject(self.mesh.now(), dst) {
                Some((_, at)) => break at,
                None => {
                    let next = self
                        .mesh
                        .next_event_time()
                        .expect("in-flight packet implies pending events");
                    self.mesh.advance(next);
                }
            }
        };
        let wire = arrival.since(wire_start);
        t = t.max(arrival);

        // Receiver: DMA into the system buffer, interrupt, then the
        // crecv trap + dispatch + copy out.
        let recv_grant = self.recv_dma[dst.0 as usize].transfer(t, len.max(1));
        let recv_dma = recv_grant.end.since(t) + c.interrupt_cost;
        t = recv_grant.end + c.interrupt_cost;
        let recv_software = c.syscall_cost + c.cpu_cycle * recv_sw_insn;
        let recv_copy = self.copy_time(len);
        t = t + recv_software + recv_copy;

        self.now = t;
        self.messages += 1;
        self.bytes += len;
        MessageTimeline {
            send_software,
            send_copy,
            send_dma,
            wire,
            recv_dma,
            recv_software,
            recv_copy,
            instructions: (send_sw_insn, recv_sw_insn),
        }
    }

    /// Achieved payload throughput over the run so far, bytes/second.
    pub fn achieved_rate(&self) -> f64 {
        let secs = self.now.as_picos() as f64 / 1e12;
        if secs == 0.0 {
            0.0
        } else {
            self.bytes as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> BaselineMachine {
        BaselineMachine::new(BaselineConfig::default(), MeshShape::new(4, 4))
    }

    #[test]
    fn software_dwarfs_hardware() {
        // The paper's §1 DELTA observation: ~67 us software, <1 us
        // hardware, per send+receive.
        let mut m = machine();
        let t = m.send_message(NodeId(0), NodeId(15), 64);
        let sw = t.software_overhead().as_micros_f64();
        let hw = t.wire.as_micros_f64();
        assert!(sw > 30.0, "software overhead {sw} us");
        assert!(hw < 4.0, "hardware wire time {hw} us");
        assert!(sw / hw > 10.0, "software must dominate: {sw} vs {hw}");
    }

    #[test]
    fn instruction_counts_are_nx2() {
        let mut m = machine();
        let t = m.send_message(NodeId(0), NodeId(1), 16);
        assert_eq!(t.instructions, (222, 261));
    }

    #[test]
    fn timeline_sums() {
        let mut m = machine();
        let before = m.now();
        let t = m.send_message(NodeId(0), NodeId(5), 4096);
        assert_eq!(m.now().since(before), t.total());
        assert_eq!(m.messages(), 1);
        assert_eq!(m.bytes(), 4096);
    }

    #[test]
    fn larger_messages_amortize_overhead() {
        let mut m = machine();
        let small = m.send_message(NodeId(0), NodeId(1), 64);
        let large = m.send_message(NodeId(0), NodeId(1), 65536);
        let small_rate = 64.0 / small.total().as_micros_f64();
        let large_rate = 65536.0 / large.total().as_micros_f64();
        // Per-message overhead amortizes, but kernel copies bound the
        // gain — unlike SHRIMP, where large transfers pay no copies.
        assert!(large_rate > 3.0 * small_rate);
    }

    #[test]
    fn rate_accounting() {
        let mut m = machine();
        for _ in 0..10 {
            m.send_message(NodeId(0), NodeId(1), 8192);
        }
        assert!(m.achieved_rate() > 0.0);
        assert_eq!(m.messages(), 10);
    }
}
