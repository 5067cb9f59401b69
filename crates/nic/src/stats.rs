//! NIC counters: the [`NicStats`] struct the datapath increments in
//! place, and its registry wiring.
//!
//! Every hot-path increment is a plain field add on
//! `NetworkInterface::stats`; the dotted registry names are written
//! once, at snapshot time, by [`NetworkInterface::register_metrics`].

use shrimp_sim::MetricsRegistry;

use crate::nic::NetworkInterface;

/// Counters exposed by the NIC.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicStats {
    /// Packets queued for the network.
    pub packets_sent: u64,
    /// Payload bytes queued for the network.
    pub bytes_sent: u64,
    /// Packets accepted from the network.
    pub packets_received: u64,
    /// Payload bytes accepted from the network.
    pub bytes_received: u64,
    /// Snooped writes merged into a pending blocked-write packet.
    pub merged_writes: u64,
    /// Packets produced by the single-write path.
    pub single_write_packets: u64,
    /// Packets produced by the blocked-write path.
    pub blocked_write_packets: u64,
    /// Packets produced by the deliberate-update DMA engine.
    pub dma_packets: u64,
    /// Arriving packets dropped for CRC/framing errors.
    pub crc_drops: u64,
    /// Arriving packets dropped because they were misrouted.
    pub misroutes: u64,
    /// Arriving packets addressed to pages that are not mapped in.
    pub unmapped_drops: u64,
    /// Data packets re-sent by the go-back-N engine.
    pub retransmissions: u64,
    /// Retransmit timeouts that fired (each rewinds one send window).
    pub retx_timeouts: u64,
    /// Ack control frames generated.
    pub acks_sent: u64,
    /// Ack control frames consumed.
    pub acks_received: u64,
    /// Nack control frames generated.
    pub nacks_sent: u64,
    /// Nack control frames consumed.
    pub nacks_received: u64,
    /// Arriving data frames dropped as already-delivered duplicates.
    pub dup_drops: u64,
    /// Arriving data frames dropped for a sequence gap (a predecessor
    /// was lost; go-back-N refetches from the hole).
    pub gap_drops: u64,
    /// Injected receive-FIFO stalls (fault injection).
    pub fault_stalls: u64,
    /// Elevated retransmit backoffs reset by ack progress.
    pub gbn_backoff_resets: u64,
    /// Gap nacks suppressed because the hole was already nacked (the
    /// nack-storm guard fired).
    pub gbn_nack_suppressions: u64,
    /// Own frames returned by the mesh bounce path (no route to the
    /// destination under the link set in force).
    pub gbn_bounces: u64,
}

impl NetworkInterface {
    /// Counter snapshot (the registry view is
    /// [`NetworkInterface::register_metrics`]).
    pub fn stats(&self) -> NicStats {
        self.stats
    }

    /// Registers this NIC's counters and FIFO gauges under `prefix`
    /// (e.g. `nic0` → `nic0.packets_sent`, `nic0.fifo.out.occupancy`),
    /// plus `{prefix}.iotlb.*` when the NIC has an IOTLB.
    pub fn register_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        let s = &self.stats;
        let counters = [
            ("packets_sent", s.packets_sent),
            ("bytes_sent", s.bytes_sent),
            ("packets_received", s.packets_received),
            ("bytes_received", s.bytes_received),
            ("merged_writes", s.merged_writes),
            ("single_write_packets", s.single_write_packets),
            ("blocked_write_packets", s.blocked_write_packets),
            ("dma_packets", s.dma_packets),
            ("crc_drops", s.crc_drops),
            ("misroutes", s.misroutes),
            ("unmapped_drops", s.unmapped_drops),
            ("retx.retransmissions", s.retransmissions),
            ("retx.timeouts", s.retx_timeouts),
            ("retx.acks_sent", s.acks_sent),
            ("retx.acks_received", s.acks_received),
            ("retx.nacks_sent", s.nacks_sent),
            ("retx.nacks_received", s.nacks_received),
            ("retx.dup_drops", s.dup_drops),
            ("retx.gap_drops", s.gap_drops),
            ("fault_stalls", s.fault_stalls),
            // Go-back-N health rollup: one namespace a churn soak can
            // assert recovery against. `gbn.retransmissions` mirrors
            // `retx.retransmissions` so the namespace is self-contained.
            ("gbn.retransmissions", s.retransmissions),
            ("gbn.backoff_resets", s.gbn_backoff_resets),
            ("gbn.nack_suppressions", s.gbn_nack_suppressions),
            ("gbn.bounces", s.gbn_bounces),
        ];
        for (name, value) in counters {
            reg.set_counter(format!("{prefix}.{name}"), value);
        }
        if let Some(t) = self.iotlb_stats() {
            for (name, value) in [
                ("hits", t.hits),
                ("misses", t.misses),
                ("map_ins", t.map_ins),
                ("evictions", t.evictions),
            ] {
                reg.set_counter(format!("{prefix}.iotlb.{name}"), value);
            }
        }
        for (name, fifo) in [("out", &self.out_fifo), ("in", &self.in_fifo)] {
            reg.set_gauge(format!("{prefix}.fifo.{name}.occupancy"), fifo.bytes() as f64);
            reg.set_counter(format!("{prefix}.fifo.{name}.peak_bytes"), fifo.high_watermark());
            reg.set_counter(format!("{prefix}.fifo.{name}.pushes"), fifo.pushes());
            reg.set_counter(format!("{prefix}.fifo.{name}.rejections"), fifo.rejections());
        }
    }
}
