//! Whole-machine configuration.

use shrimp_cpu::CpuConfig;
use shrimp_mem::{BusConfig, CacheConfig};
use shrimp_mesh::{MeshConfig, MeshShape};
use shrimp_nic::{NicBackend, NicConfig};
use shrimp_sim::{FaultConfig, SimDuration, TelemetryConfig};

/// Configuration of a simulated SHRIMP machine.
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// Mesh dimensions.
    pub shape: MeshShape,
    /// Physical pages per node.
    pub pages_per_node: u64,
    /// CPU timing.
    pub cpu: CpuConfig,
    /// Cache geometry.
    pub cache: CacheConfig,
    /// Xpress/EISA bus parameters.
    pub bus: BusConfig,
    /// Network interface parameters.
    pub nic: NicConfig,
    /// Which NIC backend the nodes are built with: the paper's pinned
    /// SHRIMP design (the default) or the NP-RDMA-style unpinned one
    /// (bounded IOTLB + dynamic map-in; see `shrimp_nic::unpinned`).
    pub nic_backend: NicBackend,
    /// Backplane parameters.
    pub mesh: MeshConfig,
    /// Cost of the `map` system call (protection checking, page-table and
    /// NIPT updates on both nodes). Paid once per mapping — deliberately
    /// expensive, off the critical path (paper §2).
    pub map_syscall_cost: SimDuration,
    /// One-way latency of a kernel-to-kernel control message (§4.4
    /// protocol traffic).
    pub kernel_msg_latency: SimDuration,
    /// Cost of taking a page fault into the kernel and returning.
    pub fault_cost: SimDuration,
    /// Cost of a context switch (register save/restore + TLB flush).
    pub context_switch_cost: SimDuration,
    /// Scheduler quantum.
    pub quantum: SimDuration,
    /// TLB entries per node.
    pub tlb_entries: usize,
    /// Deterministic fault injection (all rates zero by default, which
    /// creates no fault sites and leaves the machine bit-identical to a
    /// build without the subsystem).
    pub fault: FaultConfig,
    /// Telemetry: typed tracing and packet-lifecycle latency recording.
    /// Off by default; turning it on never perturbs simulated time.
    pub telemetry: TelemetryConfig,
}

impl MachineConfig {
    /// The EISA-based prototype the paper evaluates: 33 MB/s incoming
    /// path, <2 µs automatic-update latency on 16 nodes.
    pub fn prototype(shape: MeshShape) -> Self {
        MachineConfig {
            shape,
            pages_per_node: 256, // 1 MB per node keeps tests fast
            cpu: CpuConfig::default(),
            cache: CacheConfig::pentium_l2(),
            bus: BusConfig::shrimp_prototype(),
            nic: NicConfig::prototype(),
            nic_backend: NicBackend::default(),
            mesh: MeshConfig::paragon(shape),
            map_syscall_cost: SimDuration::from_us(50),
            kernel_msg_latency: SimDuration::from_us(10),
            fault_cost: SimDuration::from_us(20),
            context_switch_cost: SimDuration::from_us(15),
            quantum: SimDuration::from_ms(10),
            tlb_entries: 64,
            fault: FaultConfig::default(),
            telemetry: TelemetryConfig::default(),
        }
    }

    /// The "next implementation" (§5.1): incoming data drives the Xpress
    /// bus directly, bypassing EISA — <1 µs latency, ~70 MB/s peak.
    pub fn next_generation(shape: MeshShape) -> Self {
        let mut cfg = MachineConfig::prototype(shape);
        cfg.bus = BusConfig::shrimp_next_generation();
        cfg.nic.receive_latency = SimDuration::from_ns(50);
        cfg.nic.packetize_latency = SimDuration::from_ns(60);
        cfg
    }

    /// A two-node machine (the paper's experimental environment was a
    /// pair of PCs, §5.2).
    pub fn two_nodes() -> Self {
        MachineConfig::prototype(MeshShape::new(2, 1))
    }

    /// Validates all sub-configurations.
    ///
    /// # Panics
    ///
    /// Panics if any component configuration is invalid.
    pub fn validate(&self) {
        self.nic.validate();
        self.mesh.validate();
        assert!(self.pages_per_node >= 32, "nodes need at least 32 pages");
        assert!(self.tlb_entries > 0, "TLB must hold at least one entry");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        MachineConfig::prototype(MeshShape::new(4, 4)).validate();
        MachineConfig::next_generation(MeshShape::new(4, 4)).validate();
        MachineConfig::two_nodes().validate();
    }

    #[test]
    fn next_generation_upgrades_incoming_path() {
        let p = MachineConfig::prototype(MeshShape::new(2, 2));
        let n = MachineConfig::next_generation(MeshShape::new(2, 2));
        assert!(n.bus.eisa_bytes_per_sec > p.bus.eisa_bytes_per_sec);
        assert!(n.nic.receive_latency < p.nic.receive_latency);
    }

    #[test]
    #[should_panic(expected = "at least 32 pages")]
    fn tiny_memory_rejected() {
        let mut c = MachineConfig::two_nodes();
        c.pages_per_node = 4;
        c.validate();
    }
}
