//! The incoming path: mesh → Incoming FIFO → EISA delivery DMA.
//!
//! [`NetworkInterface::accept_packet`] verifies routing and CRC, then
//! dispatches to the go-back-N receiver book (see [`crate::retx`]) or
//! queues the packet straight on the Incoming FIFO;
//! [`NetworkInterface::pop_incoming`] yields deliveries once they clear
//! the receive pipeline.

use shrimp_mesh::MeshPacket;
use shrimp_mesh::NodeId;
use shrimp_mem::PhysAddr;
use shrimp_sim::{SimTime, TraceData};

use crate::error::NicError;
use crate::nic::NetworkInterface;
use crate::packet::{FrameKind, LinkCtl, PacketStamp, Payload, ShrimpPacket};

/// A packet popped from the Incoming FIFO, ready for the memory transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncomingDelivery {
    /// Destination physical address.
    pub dst_addr: PhysAddr,
    /// The data to deposit — the same buffer the sender packetized,
    /// passed along by refcount.
    pub data: Payload,
    /// Earliest time the memory transfer may start.
    pub ready_at: SimTime,
    /// The sending node.
    pub src: NodeId,
    /// True if the page's one-shot interrupt request was armed.
    pub interrupt: bool,
    /// Lifecycle timestamps carried by the packet through the datapath.
    pub stamp: PacketStamp,
}

impl NetworkInterface {
    /// Emits an in-FIFO backpressure trace event on threshold crossings.
    /// Call after any Incoming FIFO push or pop.
    pub(crate) fn trace_in_threshold(&mut self, now: SimTime) {
        if !self.outbox.is_on() {
            return;
        }
        let over = self.in_fifo.over_threshold();
        if over != self.in_threshold_traced {
            self.in_threshold_traced = over;
            let occupancy = self.in_fifo.bytes();
            self.trace(
                now,
                TraceData::FifoThreshold {
                    fifo: "in",
                    raised: over,
                    occupancy,
                },
            );
        }
    }

    /// True while the NIC accepts packets from the network. Below the
    /// Incoming FIFO threshold only (paper §4).
    pub fn can_accept_from_network(&self) -> bool {
        !self.in_fifo.over_threshold()
    }

    /// [`NetworkInterface::can_accept_from_network`], additionally
    /// honouring an injected transient receive stall at time `now`.
    pub fn can_accept_from_network_at(&self, now: SimTime) -> bool {
        self.stall_until.is_none_or(|s| now >= s) && self.can_accept_from_network()
    }

    /// Accepts one packet from the mesh: verifies routing and CRC, then
    /// either consumes it (link-level ack/nack), sequence-checks it
    /// (go-back-N data frame) or queues it straight on the Incoming FIFO
    /// (legacy unframed packet). The CRC check recomputes the checksum
    /// over header, payload and trailer slices — no wire buffer exists.
    ///
    /// # Errors
    ///
    /// Returns the verification error; the packet is dropped and counted.
    /// A lost data frame is *not* an error here: go-back-N recovers it
    /// invisibly via nack or timeout.
    pub fn accept_packet(
        &mut self,
        now: SimTime,
        packet: MeshPacket<ShrimpPacket>,
    ) -> Result<(), NicError> {
        let mut packet = packet.into_payload();
        if !packet.verify_crc() {
            // Corruption anywhere (header, payload, seq trailer) lands
            // here; with go-back-N on, the sender's timeout or a later
            // gap-nack triggers the resend.
            self.stats.crc_drops += 1;
            return Err(NicError::BadCrc);
        }
        if packet.header().src == self.node && packet.header().dst_coord != self.coord {
            // One of our own frames came home: the mesh bounced it
            // because no legal route to its destination existed under
            // the current link set (or its link died mid-flight).
            return self.accept_bounce(now, &packet);
        }
        if packet.header().dst_coord != self.coord {
            self.stats.misroutes += 1;
            return Err(NicError::WrongDestination {
                packet: packet.header().dst_coord,
                local: self.coord,
            });
        }
        self.maybe_stall_after_arrival(now);
        packet.stamp.accepted = now;
        let src = packet.header().src;
        match packet.link() {
            None => {
                self.stats.packets_received += 1;
                self.stats.bytes_received += packet.payload().len() as u64;
                let pushed = self
                    .in_fifo
                    .try_push(now, packet)
                    .map_err(|_| NicError::IncomingFifoFull);
                self.trace_in_threshold(now);
                pushed
            }
            Some(LinkCtl {
                kind: FrameKind::Ack,
                seq,
            }) => {
                self.stats.acks_received += 1;
                self.handle_ack(now, src, seq);
                Ok(())
            }
            Some(LinkCtl {
                kind: FrameKind::Nack,
                seq,
            }) => {
                self.stats.nacks_received += 1;
                self.handle_nack(now, src, seq);
                Ok(())
            }
            Some(LinkCtl {
                kind: FrameKind::Data,
                seq,
            }) => self.accept_data_frame(now, src, seq, packet),
        }
    }

    /// Fault injection: after each good arrival, the receive port may
    /// wedge shut for a while.
    pub(crate) fn maybe_stall_after_arrival(&mut self, now: SimTime) {
        if let Some(site) = self.fault.as_mut() {
            if let Some(d) = site.decide_stall() {
                let until = now + d;
                if self.stall_until.is_none_or(|s| until > s) {
                    self.stall_until = Some(until);
                }
                self.stats.fault_stalls += 1;
            }
        }
    }

    /// Pops the head of the Incoming FIFO once it has cleared the receive
    /// pipeline, yielding the memory transfer to perform — or an error if
    /// the addressed page is not mapped in (the packet is dropped and a
    /// [`TraceData::BadDelivery`] interrupt is raised). An armed page's
    /// arrival raises [`TraceData::DataArrival`].
    pub fn pop_incoming(&mut self, now: SimTime) -> Option<Result<IncomingDelivery, NicError>> {
        let ready_at = {
            let (_, pushed) = self.in_fifo.peek_with_time()?;
            pushed + self.config.receive_latency
        };
        if ready_at > now {
            return None;
        }
        let (packet, _) = self.in_fifo.pop().expect("head checked above");
        self.trace_in_threshold(now);
        let page = packet.header().dst_addr.page();
        if !self.nipt.is_mapped_in(page) {
            self.stats.unmapped_drops += 1;
            self.trace(now, TraceData::BadDelivery { page: page.raw() });
            return Some(Err(NicError::NotMappedIn { page }));
        }
        let interrupt = self.nipt.take_interrupt_request(page);
        if interrupt {
            self.trace(now, TraceData::DataArrival { page: page.raw() });
        }
        let src = packet.header().src;
        let dst_addr = packet.header().dst_addr;
        let stamp = packet.stamp;
        Some(Ok(IncomingDelivery {
            dst_addr,
            data: packet.into_payload(),
            ready_at,
            src,
            interrupt,
            stamp,
        }))
    }

    /// When the head incoming packet clears the receive pipeline, if any.
    pub fn incoming_ready_at(&self) -> Option<SimTime> {
        self.in_fifo.peek_with_time()
            .map(|(_, pushed)| pushed + self.config.receive_latency)
    }

    /// Incoming FIFO occupancy in bytes.
    pub fn in_fifo_bytes(&self) -> u64 {
        self.in_fifo.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{drain_trace, nic, t, wire_packet_for};
    use shrimp_mem::PageNum;
    use shrimp_mesh::MeshCoord;
    use shrimp_sim::SimDuration;

    #[test]
    fn incoming_delivery_to_mapped_in_page() {
        let mut n = nic();
        n.map_in(PageNum::new(4), true).unwrap();
        let mp = wire_packet_for(&n, PageNum::new(4).at_offset(8), vec![9; 16]);
        n.accept_packet(t(0), mp).unwrap();
        assert!(n.pop_incoming(t(0)).is_none(), "receive latency first");
        let d = n.pop_incoming(t(1000)).unwrap().unwrap();
        assert_eq!(d.dst_addr, PageNum::new(4).at_offset(8));
        assert_eq!(d.data.as_slice(), &[9u8; 16][..]);
        assert!(!d.interrupt);
        assert_eq!(d.src, NodeId(3));
        assert_eq!(n.stats().packets_received, 1);
    }

    #[test]
    fn incoming_to_unmapped_page_drops_and_interrupts() {
        let mut n = nic();
        n.trace_outbox_mut().enable();
        let mp = wire_packet_for(&n, PageNum::new(4).base(), vec![1; 4]);
        n.accept_packet(t(0), mp).unwrap();
        let r = n.pop_incoming(t(1000)).unwrap();
        assert!(matches!(r, Err(NicError::NotMappedIn { .. })));
        assert_eq!(n.stats().unmapped_drops, 1);
        assert_eq!(drain_trace(&mut n), vec![TraceData::BadDelivery { page: 4 }]);
    }

    #[test]
    fn misrouted_packet_rejected() {
        let mut n = nic();
        let p = ShrimpPacket::new(
            crate::packet::WireHeader {
                dst_coord: MeshCoord { x: 1, y: 1 },
                src: NodeId(3),
                dst_addr: PhysAddr::new(0),
            },
            vec![0; 4],
        );
        let mp = MeshPacket::new(NodeId(3), n.node(), p);
        assert!(matches!(
            n.accept_packet(t(0), mp),
            Err(NicError::WrongDestination { .. })
        ));
        assert_eq!(n.stats().misroutes, 1);
    }

    #[test]
    fn corrupted_packet_rejected() {
        let mut n = nic();
        n.map_in(PageNum::new(4), true).unwrap();
        let mp = wire_packet_for(&n, PageNum::new(4).base(), vec![1; 8]);
        // A network error: payload bytes change, stored CRC does not.
        let good = mp.into_payload();
        let mut corrupted = good.payload().to_vec();
        corrupted[5] ^= 0xff;
        let bad = ShrimpPacket::from_parts(*good.header(), corrupted, good.crc());
        let mp = MeshPacket::new(NodeId(3), n.node(), bad);
        assert!(matches!(n.accept_packet(t(0), mp), Err(NicError::BadCrc)));
        assert_eq!(n.stats().crc_drops, 1);
    }

    #[test]
    fn arrival_interrupt_fires_once() {
        let mut n = nic();
        n.trace_outbox_mut().enable();
        n.map_in(PageNum::new(4), true).unwrap();
        n.nipt.set_interrupt_on_arrival(PageNum::new(4), true).unwrap();
        for _ in 0..2 {
            let mp = wire_packet_for(&n, PageNum::new(4).base(), vec![1; 4]);
            n.accept_packet(t(0), mp).unwrap();
        }
        let d1 = n.pop_incoming(t(1000)).unwrap().unwrap();
        assert!(d1.interrupt);
        let d2 = n.pop_incoming(t(1000)).unwrap().unwrap();
        assert!(!d2.interrupt, "one-shot request");
        assert_eq!(drain_trace(&mut n), vec![TraceData::DataArrival { page: 4 }]);
    }

    #[test]
    fn incoming_threshold_gates_acceptance() {
        let mut n = nic();
        n.map_in(PageNum::new(4), true).unwrap();
        assert!(n.can_accept_from_network());
        // Fill past the threshold (6 KB of 8 KB) with 1 KB payloads.
        let mut pushed = 0;
        while n.can_accept_from_network() {
            let mp = wire_packet_for(&n, PageNum::new(4).base(), vec![0; 1024]);
            n.accept_packet(t(0), mp).unwrap();
            pushed += 1;
        }
        assert!(pushed >= 6);
        // Draining re-opens acceptance.
        while n.pop_incoming(t(1_000_000)).is_some() {}
        assert!(n.can_accept_from_network());
    }

    #[test]
    fn injected_stall_gates_acceptance_until_deadline() {
        use shrimp_sim::fault::{FaultConfig, NicFaultConfig};
        let mut n = nic();
        let cfg = FaultConfig {
            seed: 3,
            nic: NicFaultConfig {
                stall_rate: 1.0,
                stall: (SimDuration::from_ns(500), SimDuration::from_ns(500)),
            },
            ..FaultConfig::default()
        };
        n.set_fault_injection(cfg.nic_site(0).expect("active"));
        n.map_in(PageNum::new(4), true).unwrap();
        assert!(n.can_accept_from_network_at(t(0)));
        let mp = wire_packet_for(&n, PageNum::new(4).base(), vec![1; 8]);
        n.accept_packet(t(0), mp).unwrap();
        assert_eq!(n.stats().fault_stalls, 1);
        assert!(!n.can_accept_from_network_at(t(100)), "stalled");
        assert_eq!(n.next_deadline(), Some(t(500)), "wakeup at stall end");
        assert!(n.can_accept_from_network_at(t(500)), "stall expired");
        n.poll(t(500));
        assert!(n.next_deadline().is_none());
    }
}
