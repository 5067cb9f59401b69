//! Backplane configuration.

use shrimp_sim::SimDuration;

use crate::topology::MeshShape;

/// Timing and buffering parameters of the routing backplane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshConfig {
    /// Mesh dimensions.
    pub shape: MeshShape,
    /// Link bandwidth in bytes/second (each direction of each link is an
    /// independent physical channel).
    pub link_bytes_per_sec: u64,
    /// Router pipeline latency per hop (address decode + switch).
    pub hop_latency: SimDuration,
    /// Input buffer depth at each router port, in packets.
    pub input_buffer_packets: usize,
    /// Ejection buffer depth at each node (between the last router and the
    /// NIC), in packets.
    pub ejection_buffer_packets: usize,
}

impl MeshConfig {
    /// An Intel Paragon-class backplane. The iMRC routers are "faster and
    /// wider versions of the Caltech Mesh Routing Chip" (paper §3);
    /// 175 MB/s links and ~40 ns per hop put the mesh well above the
    /// 2×33 MB/s floor the paper requires of the non-EISA datapath.
    pub fn paragon(shape: MeshShape) -> Self {
        MeshConfig {
            shape,
            link_bytes_per_sec: 175_000_000,
            hop_latency: SimDuration::from_ns(40),
            input_buffer_packets: 2,
            ejection_buffer_packets: 2,
        }
    }

    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics if any buffer is zero-depth or the link rate is zero.
    pub fn validate(&self) {
        assert!(self.link_bytes_per_sec > 0, "link bandwidth must be positive");
        assert!(self.input_buffer_packets > 0, "input buffers must hold a packet");
        assert!(
            self.ejection_buffer_packets > 0,
            "ejection buffers must hold a packet"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paragon_meets_paper_bandwidth_floor() {
        let cfg = MeshConfig::paragon(MeshShape::new(4, 4));
        // "All other parts of the datapath have at least twice [33 MB/s]".
        assert!(cfg.link_bytes_per_sec >= 2 * 33_000_000);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "input buffers")]
    fn validate_rejects_zero_buffers() {
        let mut cfg = MeshConfig::paragon(MeshShape::new(2, 2));
        cfg.input_buffer_packets = 0;
        cfg.validate();
    }
}
