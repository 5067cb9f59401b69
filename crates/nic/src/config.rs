//! Network interface configuration.

use shrimp_sim::SimDuration;

/// Tunable parameters of the network interface board.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NicConfig {
    /// Outgoing FIFO capacity in bytes.
    pub out_fifo_bytes: u64,
    /// Outgoing FIFO threshold in bytes: above it the CPU is interrupted
    /// and waits until the FIFO drains (paper §4).
    pub out_fifo_threshold: u64,
    /// Incoming FIFO capacity in bytes.
    pub in_fifo_bytes: u64,
    /// Incoming FIFO threshold in bytes: above it the NIC ceases to accept
    /// packets from the network (paper §4).
    pub in_fifo_threshold: u64,
    /// Time to snoop a bus write, index the NIPT and build a packet header.
    pub packetize_latency: SimDuration,
    /// Time for the destination NIC to check coordinates/CRC and index its
    /// NIPT before starting the memory transfer.
    pub receive_latency: SimDuration,
    /// The blocked-write merge window: consecutive same-page writes within
    /// this limit of one another join the pending packet (§4.1).
    pub merge_window: SimDuration,
    /// Largest payload of one packet in bytes. Deliberate-update transfers
    /// are also limited to one page per command (§4.3).
    pub max_payload: u64,
    /// Fixed setup cost for the deliberate-update DMA engine per transfer.
    pub dma_setup: SimDuration,
    /// Link-level go-back-N retransmission. Disabled by default: the
    /// baseline wire format and timing are then bit-identical to a NIC
    /// without the engine.
    pub retx: RetxConfig,
    /// Parameters of the unpinned (NP-RDMA-style) backend. Inert on the
    /// pinned SHRIMP backend, so carrying them here keeps [`NicConfig`]
    /// the single NIC parameter block either backend is built from.
    pub unpinned: UnpinnedConfig,
}

/// Parameters of the unpinned backend's outgoing IOTLB and dynamic
/// map-in path (see `shrimp_nic::unpinned`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnpinnedConfig {
    /// Outgoing-translation IOTLB capacity in pages. Capacity pressure
    /// evicts the least-recently-used entry through the shootdown path.
    pub iotlb_entries: usize,
    /// Kernel round-trip charged for one dynamic map-in: the time from
    /// an IOTLB miss to the entry being installed and the buffered
    /// write(s) replayed.
    pub map_in_latency: SimDuration,
}

impl UnpinnedConfig {
    /// Defaults sized for the prototype mesh: a 32-page IOTLB and a
    /// 20 µs kernel round-trip per dynamic map-in.
    pub fn prototype() -> Self {
        UnpinnedConfig {
            iotlb_entries: 32,
            map_in_latency: SimDuration::from_us(20),
        }
    }
}

impl Default for UnpinnedConfig {
    fn default() -> Self {
        UnpinnedConfig::prototype()
    }
}

/// Which NIC backend a machine is built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NicBackend {
    /// The paper's design: pages are pinned at map time and the NIPT at
    /// the NIC always holds a valid translation.
    #[default]
    Shrimp,
    /// NP-RDMA-style: no map-time pinning; outgoing translations are
    /// cached in a bounded IOTLB and faulted in dynamically on miss.
    Unpinned,
}

impl NicBackend {
    /// The DSL/CLI spelling of this backend.
    pub fn as_str(self) -> &'static str {
        match self {
            NicBackend::Shrimp => "shrimp",
            NicBackend::Unpinned => "unpinned",
        }
    }

    /// Parses the DSL/CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "shrimp" => Some(NicBackend::Shrimp),
            "unpinned" => Some(NicBackend::Unpinned),
            _ => None,
        }
    }
}

/// Go-back-N retransmission parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetxConfig {
    /// Master switch. When off, packets carry no sequence trailer.
    pub enabled: bool,
    /// Per-destination retransmit buffer size in packets; when full the
    /// NIC stops pulling new data for that destination (backpressure up
    /// the FIFO chain).
    pub window_packets: usize,
    /// Initial retransmit timeout after the last send to a destination.
    pub base_timeout: SimDuration,
    /// Exponential-backoff cap for the retransmit timeout.
    pub max_timeout: SimDuration,
    /// Replay pacing after the mesh *bounces* a frame back (no route to
    /// the destination under the current link set). A bounce means the
    /// fabric is down, not lossy: the engine retries every
    /// `reroute_backoff` at a flat rate instead of escalating the
    /// exponential loss backoff, so recovery starts promptly once a
    /// link heals or a reroute appears.
    pub reroute_backoff: SimDuration,
}

impl RetxConfig {
    /// The engine switched off (the default).
    pub fn disabled() -> Self {
        RetxConfig {
            enabled: false,
            ..RetxConfig::reliable()
        }
    }

    /// Reliable delivery with parameters sized for the prototype mesh:
    /// the base timeout comfortably exceeds a page-packet round trip.
    pub fn reliable() -> Self {
        RetxConfig {
            enabled: true,
            window_packets: 32,
            base_timeout: SimDuration::from_us(60),
            max_timeout: SimDuration::from_us(960),
            reroute_backoff: SimDuration::from_us(30),
        }
    }
}

impl Default for RetxConfig {
    fn default() -> Self {
        RetxConfig::disabled()
    }
}

impl NicConfig {
    /// Parameters of the EISA-prototype board described in the paper.
    pub fn prototype() -> Self {
        NicConfig {
            out_fifo_bytes: 8 * 1024,
            out_fifo_threshold: 6 * 1024,
            in_fifo_bytes: 8 * 1024,
            in_fifo_threshold: 6 * 1024,
            packetize_latency: SimDuration::from_ns(350),
            receive_latency: SimDuration::from_ns(350),
            merge_window: SimDuration::from_ns(500),
            max_payload: 4096,
            dma_setup: SimDuration::from_ns(200),
            retx: RetxConfig::disabled(),
            unpinned: UnpinnedConfig::prototype(),
        }
    }

    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics if a threshold exceeds its FIFO capacity, capacities cannot
    /// hold one maximal packet, or `max_payload` is zero.
    pub fn validate(&self) {
        assert!(self.max_payload > 0, "max payload must be positive");
        assert!(
            self.out_fifo_threshold <= self.out_fifo_bytes,
            "outgoing threshold exceeds capacity"
        );
        assert!(
            self.in_fifo_threshold <= self.in_fifo_bytes,
            "incoming threshold exceeds capacity"
        );
        let link = if self.retx.enabled {
            crate::packet::LinkCtl::WIRE_BYTES
        } else {
            0
        };
        let max_wire = crate::packet::WireHeader::WIRE_BYTES + self.max_payload + link + 4;
        assert!(
            self.out_fifo_bytes >= max_wire && self.in_fifo_bytes >= max_wire,
            "FIFOs must hold at least one maximal packet"
        );
        if self.retx.enabled {
            assert!(self.retx.window_packets >= 1, "retx window must be positive");
            assert!(
                self.retx.base_timeout > SimDuration::ZERO
                    && self.retx.base_timeout <= self.retx.max_timeout,
                "retx timeouts must be positive and ordered"
            );
            assert!(
                self.retx.reroute_backoff > SimDuration::ZERO,
                "reroute backoff must be positive"
            );
        }
        assert!(
            self.unpinned.iotlb_entries >= 1,
            "IOTLB must hold at least one entry"
        );
        assert!(
            self.unpinned.map_in_latency > SimDuration::ZERO,
            "map-in latency must be positive"
        );
    }
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig::prototype()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_validates() {
        NicConfig::prototype().validate();
    }

    #[test]
    #[should_panic(expected = "threshold exceeds capacity")]
    fn bad_threshold_rejected() {
        let mut c = NicConfig::prototype();
        c.in_fifo_threshold = c.in_fifo_bytes + 1;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "hold at least one maximal packet")]
    fn tiny_fifo_rejected() {
        let mut c = NicConfig::prototype();
        c.out_fifo_bytes = 64;
        c.out_fifo_threshold = 32;
        c.validate();
    }
}
