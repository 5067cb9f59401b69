//! Outgoing FIFO management: queueing, overflow spill/refill, threshold
//! backpressure, and the FIFO→mesh injection path.
//!
//! Packets produced by the datapath land here via
//! `NetworkInterface::queue_packet`; the machine drains them with
//! [`NetworkInterface::pop_outgoing`]. When the FIFO is full, packets
//! detour through the overflow queue and re-enter in order as space
//! frees — the overflow is the modelled "CPU stalled, data buffered"
//! state of paper §4.

use shrimp_mem::PhysAddr;
use shrimp_mesh::{MeshPacket, NodeId};
use shrimp_sim::{SimTime, TraceData, TraceLevel};

use crate::datapath::{NicInterrupt, SnoopOutcome};
use crate::nic::NetworkInterface;
use crate::packet::{FrameKind, LinkCtl, Payload, ShrimpPacket, WireHeader};
use crate::retx::SendPeer;

impl NetworkInterface {
    pub(crate) fn queue_packet(
        &mut self,
        ready_at: SimTime,
        dst_node: NodeId,
        dst_addr: PhysAddr,
        data: Payload,
    ) -> SnoopOutcome {
        self.stats.packets_sent += 1;
        self.stats.bytes_sent += data.len() as u64;
        let mut packet = ShrimpPacket::new(
            WireHeader {
                dst_coord: self.shape.coord_of(dst_node),
                src: self.node,
                dst_addr,
            },
            data,
        );
        packet.stamp.born = ready_at;
        match self.out_fifo.try_push(ready_at, packet) {
            Ok(()) => {
                if self.out_fifo.over_threshold() && !self.out_threshold_raised {
                    self.out_threshold_raised = true;
                    self.interrupts.push(NicInterrupt::OutgoingThreshold);
                    self.trace_out_threshold(ready_at, true);
                }
                SnoopOutcome::Queued
            }
            Err(packet) => {
                self.overflow.push_back(packet);
                if !self.out_threshold_raised {
                    self.out_threshold_raised = true;
                    self.interrupts.push(NicInterrupt::OutgoingThreshold);
                    self.trace_out_threshold(ready_at, true);
                }
                SnoopOutcome::Stalled
            }
        }
    }

    /// Emits an out-FIFO backpressure raise/clear trace event.
    fn trace_out_threshold(&mut self, at: SimTime, raised: bool) {
        if self.tracer.wants(TraceLevel::Info) {
            let component = self.component();
            let occupancy = self.out_fifo.bytes();
            self.tracer.emit(
                at,
                TraceLevel::Info,
                component,
                TraceData::FifoThreshold {
                    fifo: "out",
                    raised,
                    occupancy,
                },
            );
        }
    }

    /// Clears the out-FIFO backpressure flag (tracing the transition)
    /// once the FIFO has drained below its threshold.
    pub(crate) fn clear_out_threshold(&mut self, now: SimTime) {
        if self.out_threshold_raised && !self.out_fifo.over_threshold() {
            self.out_threshold_raised = false;
            self.trace_out_threshold(now, false);
        }
    }

    /// Moves stalled packets into the Outgoing FIFO as space frees,
    /// preserving order.
    ///
    /// A stalled deliberate-update packet may still be waiting on its
    /// DMA read: `stamp.born` is the engine's `done_at`, possibly in the
    /// future. Re-entering the FIFO at the refill instant would let the
    /// packet inject before its data exists, which the born clamp at the
    /// pop sites then papers over by rewriting `born` backwards. Refill
    /// at `max(now, born)` instead, matching the ready time the packet
    /// would have had without the overflow detour.
    pub(crate) fn refill_from_overflow(&mut self, now: SimTime) {
        while let Some(pkt) = self.overflow.front() {
            if !self.out_fifo.would_fit(pkt.wire_len()) {
                break;
            }
            let pkt = self.overflow.pop_front().expect("front checked above");
            let ready = now.max(pkt.stamp.born);
            self.out_fifo
                .try_push(ready, pkt)
                .expect("would_fit checked above");
        }
    }

    // ───────────────────────── outgoing: FIFO → mesh ─────────────────────

    /// When the head outgoing packet (data or link control) becomes
    /// ready for injection, if any. The `try_push` timestamp doubles as
    /// the readiness time; pending retransmissions are ready immediately.
    pub fn outgoing_ready_at(&self) -> Option<SimTime> {
        let mut ready = self.out_fifo.peek_with_time().map(|(_, t)| t);
        if let Some((t, _, _)) = self.ctl_queue.front() {
            ready = Some(ready.map_or(*t, |r| r.min(*t)));
        }
        if let Some(st) = &self.retx {
            if st.send.values().any(|p| p.resend_from.is_some()) {
                ready = Some(SimTime::ZERO);
            }
        }
        ready
    }

    /// Pops the next outgoing mesh packet if one is ready by `now`:
    /// ack/nack control frames first, then pending go-back-N resends,
    /// then new data from the Outgoing FIFO (held back while the
    /// destination's retransmit window is full — that backpressure is
    /// what eventually stalls the CPU, per the paper's flow-control
    /// chain). The packet is handed to the mesh whole — no serialization.
    pub fn pop_outgoing(&mut self, now: SimTime) -> Option<MeshPacket<ShrimpPacket>> {
        if let Some((ready, _, _)) = self.ctl_queue.front() {
            if *ready <= now {
                let (_, dst, frame) = self.ctl_queue.pop_front().expect("front checked above");
                return Some(MeshPacket::new(self.node, dst, frame));
            }
        }
        if self.retx.is_some() {
            if let Some(mp) = self.pop_resend(now) {
                return Some(mp);
            }
        }
        let (head, ready) = self.out_fifo.peek_with_time()?;
        if ready > now {
            return None;
        }
        if self.retx.is_some() {
            let dst = self.shape.id_at(head.header().dst_coord);
            let base_rto = self.config.retx.base_timeout;
            let window = self.config.retx.window_packets;
            let st = self.retx.as_mut().expect("checked above");
            let peer = st
                .send
                .entry(dst.0)
                .or_insert_with(|| SendPeer::new(base_rto));
            if peer.unacked.len() >= window {
                // Retransmit buffer full: stop draining until acks or a
                // timeout free it.
                return None;
            }
            let (packet, _) = self.out_fifo.pop().expect("head peeked above");
            let seq = peer.next_seq;
            peer.next_seq += 1;
            let mut framed = packet.framed(LinkCtl {
                kind: FrameKind::Data,
                seq,
            });
            framed.stamp.injected = now;
            // Defensive: refill_from_overflow preserves `born` as the
            // ready time, so injection can no longer precede it; the
            // clamp only degrades gracefully if that invariant breaks.
            framed.stamp.born = framed.stamp.born.min(now);
            peer.unacked.push_back(framed.clone());
            peer.timeout_at = Some(now + peer.rto);
            self.refill_from_overflow(now);
            self.clear_out_threshold(now);
            return Some(MeshPacket::new(self.node, dst, framed));
        }
        let (mut packet, _) = self.out_fifo.pop()?;
        packet.stamp.injected = now;
        packet.stamp.born = packet.stamp.born.min(now);
        let dst = self.shape.id_at(packet.header().dst_coord);
        // Space freed: stalled packets enter the FIFO now.
        self.refill_from_overflow(now);
        self.clear_out_threshold(now);
        Some(MeshPacket::new(self.node, dst, packet))
    }

    /// True when link-level control frames or go-back-N replays are
    /// waiting to be injected. Always false with retransmission off, so
    /// callers can gate extra drain passes on it for free.
    pub fn has_pending_control(&self) -> bool {
        !self.ctl_queue.is_empty()
            || self
                .retx
                .as_ref()
                .is_some_and(|st| st.send.values().any(|p| p.resend_from.is_some()))
    }

    /// True while the Outgoing FIFO is over its threshold — the CPU must
    /// not issue further mapped writes (paper §4).
    pub fn cpu_must_stall(&self) -> bool {
        self.out_fifo.over_threshold() || !self.overflow.is_empty()
    }

    /// Outgoing FIFO occupancy in bytes (for flow-control benches).
    pub fn out_fifo_bytes(&self) -> u64 {
        self.out_fifo.bytes()
    }
}

#[cfg(test)]
mod tests {
    use crate::datapath::CommandEffect;
    use crate::nipt::UpdatePolicy;
    use crate::packet::Payload;
    use crate::testutil::{map_out, nic, t};
    use shrimp_mem::{PageNum, PAGE_SIZE, WORD_SIZE};
    use shrimp_sim::{SimDuration, SimTime};

    /// Regression for the overflow-refill born clamp: a deliberate
    /// packet whose DMA read finishes in the future (`born == done_at`)
    /// that detours through the overflow queue must re-enter the FIFO at
    /// `born`, not at the refill instant. Before the fix, the refill's
    /// fresh ready time let the packet inject *before* its data existed
    /// and the pop-site clamp rewrote `born` backwards, silently
    /// shortening the out-FIFO stage. A session transfer popped in the
    /// same instant as its refill must show `born == injected` exactly,
    /// so the stage sums still telescope to end-to-end.
    #[test]
    fn overflow_refill_preserves_future_born() {
        let mut n = nic();
        map_out(&mut n, 6, 1, 12, UpdatePolicy::Deliberate);
        map_out(&mut n, 7, 1, 13, UpdatePolicy::Deliberate);
        let full_page = PAGE_SIZE as u32 / WORD_SIZE as u32;

        // First transfer: fills just over half the 8 KB out FIFO.
        let e1 = n
            .command_write(t(0), n.command_space().command_addr_for(PageNum::new(6).base()),
                full_page, |_, len| (Payload::from(vec![0x11; len as usize]), t(500)))
            .unwrap();
        let CommandEffect::DmaStarted { done_at: done1 } = e1 else {
            panic!("expected DmaStarted, got {e1:?}");
        };

        // Second transfer, started once the engine frees: its packet no
        // longer fits behind the first, so it lands in overflow with a
        // future born (= its own done_at).
        let e2 = n
            .command_write(done1, n.command_space().command_addr_for(PageNum::new(7).base()),
                full_page, |_, len| (Payload::from(vec![0x22; len as usize]), done1 + SimDuration::from_ns(500)))
            .unwrap();
        let CommandEffect::DmaStarted { done_at: done2 } = e2 else {
            panic!("expected DmaStarted, got {e2:?}");
        };
        assert!(done2 > done1);

        // Popping the first packet triggers refill_from_overflow at
        // `done1`, while the second packet's DMA is still in flight.
        let first = n.pop_outgoing(done1).expect("first packet ready at its done_at");
        assert_eq!(first.payload().payload()[0], 0x11);

        // The refilled packet must stay invisible until its read is done…
        assert!(
            n.pop_outgoing(done2 - SimDuration::from_ns(1)).is_none(),
            "overflowed packet must not inject before its DMA read completes"
        );

        // …and at `done2` it pops with born == injected == done2: the
        // same-instant refill/pop case telescopes with a zero out-FIFO
        // stage instead of a clamped, rewritten born.
        let second = n.pop_outgoing(done2).expect("ready exactly at done_at");
        let stamp = second.payload().stamp;
        assert_eq!(stamp.born, done2);
        assert_eq!(stamp.injected, done2);
        assert_eq!(stamp.injected.since(stamp.born), SimDuration::ZERO);
    }

    #[test]
    fn outgoing_threshold_raises_cpu_stall() {
        let mut n = nic();
        map_out(&mut n, 2, 1, 9, UpdatePolicy::AutomaticSingle);
        let addr = PageNum::new(2).base();
        let mut writes = 0;
        while !n.cpu_must_stall() {
            n.snoop_write(t(writes), addr, &[0u8; 4]);
            writes += 1;
            assert!(writes < 10_000, "threshold must eventually trip");
        }
        assert!(n
            .take_interrupts()
            .contains(&crate::datapath::NicInterrupt::OutgoingThreshold));
        // Draining clears the stall.
        while n.pop_outgoing(SimTime::from_picos(u64::MAX / 2)).is_some() {}
        n.poll(t(writes));
        assert!(!n.cpu_must_stall());
    }
}
