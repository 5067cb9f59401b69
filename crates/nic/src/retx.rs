//! Go-back-N retransmission state and the bounce/reroute recovery path.
//!
//! Per-peer sender and receiver books live in `RetxState` (present only
//! when [`crate::RetxConfig::enabled`] is set). The engine distinguishes
//! two loss regimes: a *lossy* fabric (timeouts escalate with exponential
//! backoff, capped) and a *down* fabric (a bounced own-frame resets the
//! backoff and arms a flat [`crate::RetxConfig::reroute_backoff`] pace —
//! escalation would only delay recovery past the repair).

use std::collections::BTreeMap;

use shrimp_mesh::{MeshPacket, NodeId};
use shrimp_sim::{ComponentId, SimDuration, SimTime, TraceData, TraceLevel};

use crate::error::NicError;
use crate::nic::NetworkInterface;
use crate::packet::{FrameKind, LinkCtl, ShrimpPacket};

/// Go-back-N sender state toward one destination node.
#[derive(Debug, Clone)]
pub(crate) struct SendPeer {
    /// Sequence number the next new data frame will carry.
    pub(crate) next_seq: u32,
    /// Lowest unacknowledged sequence number.
    pub(crate) base_seq: u32,
    /// Frames `base_seq..next_seq`, retained until cumulatively acked.
    pub(crate) unacked: std::collections::VecDeque<ShrimpPacket>,
    /// When `Some(s)`, the engine is replaying `s..next_seq` ahead of any
    /// new data.
    pub(crate) resend_from: Option<u32>,
    /// Current retransmit timeout (doubles on expiry, capped).
    pub(crate) rto: SimDuration,
    /// Deadline of the running retransmit timer, armed while frames are
    /// outstanding.
    pub(crate) timeout_at: Option<SimTime>,
}

impl SendPeer {
    pub(crate) fn new(rto: SimDuration) -> Self {
        SendPeer {
            next_seq: 0,
            base_seq: 0,
            unacked: std::collections::VecDeque::new(),
            resend_from: None,
            rto,
            timeout_at: None,
        }
    }
}

/// Go-back-N receiver state from one source node.
#[derive(Debug, Clone, Default)]
pub(crate) struct RecvPeer {
    /// Next in-order sequence number wanted.
    pub(crate) expected: u32,
    /// Last sequence nacked, to suppress a nack storm while the same
    /// hole drains; cleared on progress.
    pub(crate) last_nacked: Option<u32>,
}

/// All go-back-N state of one NIC (present only when
/// [`crate::RetxConfig::enabled`] is set).
#[derive(Debug, Clone, Default)]
pub(crate) struct RetxState {
    /// Sender books, keyed by destination node id (BTreeMap for
    /// deterministic iteration order).
    pub(crate) send: BTreeMap<u16, SendPeer>,
    /// Receiver books, keyed by source node id.
    pub(crate) recv: BTreeMap<u16, RecvPeer>,
}

impl NetworkInterface {
    /// Scans the per-peer retransmit timers at `now`: an expired timer
    /// rewinds the window to its base and doubles the timeout (capped).
    /// Called from [`NetworkInterface::poll`].
    pub(crate) fn poll_retx(&mut self, now: SimTime) {
        let Some(st) = self.retx.as_mut() else {
            return;
        };
        let max_rto = self.config.retx.max_timeout;
        let base_rto = self.config.retx.base_timeout;
        let component = ComponentId::nic(self.node.0);
        for (&peer_id, peer) in st.send.iter_mut() {
            if peer.unacked.is_empty() {
                peer.timeout_at = None;
                peer.resend_from = None;
            } else if peer.timeout_at.is_some_and(|t| now >= t) {
                // Nothing came back in time: go back to the window
                // base and double the timeout (capped).
                peer.resend_from = Some(peer.base_seq);
                peer.rto = (peer.rto * 2).min(max_rto);
                peer.timeout_at = Some(now + peer.rto);
                self.stats.retx_timeouts += 1;
                if self.tracer.wants(TraceLevel::Warn) {
                    let attempt =
                        (peer.rto.as_picos() / base_rto.as_picos().max(1)).max(1) as u32;
                    self.tracer.emit(
                        now,
                        TraceLevel::Warn,
                        component,
                        TraceData::RetxTimeout {
                            peer: peer_id,
                            base_seq: peer.base_seq,
                            attempt,
                        },
                    );
                }
            }
        }
    }

    /// Emits the next frame of an in-progress go-back-N replay, if any.
    pub(crate) fn pop_resend(&mut self, now: SimTime) -> Option<MeshPacket<ShrimpPacket>> {
        let node = self.node;
        let st = self.retx.as_mut()?;
        for (&peer_id, peer) in st.send.iter_mut() {
            let Some(from) = peer.resend_from else {
                continue;
            };
            let idx = from.wrapping_sub(peer.base_seq) as usize;
            if idx >= peer.unacked.len() {
                peer.resend_from = None;
                continue;
            }
            let mut framed = peer.unacked[idx].clone();
            framed.stamp.injected = now;
            let next = from + 1;
            let more = (next.wrapping_sub(peer.base_seq) as usize) < peer.unacked.len();
            peer.resend_from = more.then_some(next);
            peer.timeout_at = Some(now + peer.rto);
            self.stats.retransmissions += 1;
            if self.tracer.wants(TraceLevel::Warn) {
                self.tracer.emit(
                    now,
                    TraceLevel::Warn,
                    ComponentId::nic(node.0),
                    TraceData::Retransmit { peer: peer_id, seq: from },
                );
            }
            return Some(MeshPacket::new(node, NodeId(peer_id), framed));
        }
        None
    }

    /// Handles one of our own frames returned by the mesh bounce path.
    ///
    /// For a data frame the send window toward its destination is still
    /// holding it (nothing was acked), so recovery is a rewind: reset
    /// the loss backoff — the fabric is *down*, not lossy, and
    /// escalation would only delay recovery past the repair — cancel
    /// any pending replay, and arm a flat-rate retry
    /// [`crate::RetxConfig::reroute_backoff`] from now. Every further
    /// bounce re-arms the same pacing, so the engine probes the fabric
    /// at a constant rate until a route exists again. Bounced ack/nack
    /// frames are simply dropped: the data path's own timers recover.
    pub(crate) fn accept_bounce(&mut self, now: SimTime, packet: &ShrimpPacket) -> Result<(), NicError> {
        self.stats.gbn_bounces += 1;
        let base_rto = self.config.retx.base_timeout;
        let pace = self.config.retx.reroute_backoff;
        if let Some(LinkCtl { kind: FrameKind::Data, .. }) = packet.link() {
            let dst = self.shape.id_at(packet.header().dst_coord);
            if let Some(peer) = self.retx.as_mut().and_then(|st| st.send.get_mut(&dst.0)) {
                if !peer.unacked.is_empty() {
                    peer.rto = base_rto;
                    peer.resend_from = None;
                    peer.timeout_at = Some(now + pace);
                }
            }
        }
        Ok(())
    }

    /// Sequence-checks one framed data packet against the per-source
    /// receiver book: in-order frames are delivered and acked, duplicates
    /// re-acked, gaps nacked (once per hole).
    pub(crate) fn accept_data_frame(
        &mut self,
        now: SimTime,
        src: NodeId,
        seq: u32,
        packet: ShrimpPacket,
    ) -> Result<(), NicError> {
        let Some(st) = self.retx.as_mut() else {
            // A framed packet with the local engine off (mixed
            // configuration): deliver it like a legacy packet.
            self.stats.packets_received += 1;
            self.stats.bytes_received += packet.payload().len() as u64;
            let pushed = self
                .in_fifo
                .try_push(now, packet)
                .map_err(|_| NicError::IncomingFifoFull);
            self.trace_in_threshold(now);
            return pushed;
        };
        let peer = st.recv.entry(src.0).or_default();
        let expected = peer.expected;
        if seq == expected {
            let payload_len = packet.payload().len() as u64;
            if let Err(packet) = self.in_fifo.try_push(now, packet) {
                // FIFO full: drop without advancing; the sender's
                // timeout replays it once we drain.
                drop(packet);
                return Err(NicError::IncomingFifoFull);
            }
            self.stats.packets_received += 1;
            self.stats.bytes_received += payload_len;
            let st = self.retx.as_mut().expect("engine checked above");
            let peer = st.recv.get_mut(&src.0).expect("entry created above");
            peer.expected = expected + 1;
            peer.last_nacked = None;
            let ack = peer.expected;
            self.queue_control(now, src, FrameKind::Ack, ack);
            self.trace_in_threshold(now);
            Ok(())
        } else if seq < expected {
            // Already delivered (a replayed frame): re-ack so a lost ack
            // cannot stall the sender forever.
            self.stats.dup_drops += 1;
            self.queue_control(now, src, FrameKind::Ack, expected);
            Ok(())
        } else {
            // Gap: a predecessor died on the wire. Request a replay from
            // the hole, but only once per hole — the frames already in
            // flight behind it would each re-trigger it otherwise.
            self.stats.gap_drops += 1;
            let nack = peer.last_nacked != Some(expected);
            peer.last_nacked = Some(expected);
            if nack {
                self.queue_control(now, src, FrameKind::Nack, expected);
            } else {
                self.stats.gbn_nack_suppressions += 1;
            }
            Ok(())
        }
    }

    /// Cumulative ack: every sequence below `seq` has arrived at `peer`.
    pub(crate) fn handle_ack(&mut self, now: SimTime, peer_node: NodeId, seq: u32) {
        let base_rto = self.config.retx.base_timeout;
        let Some(st) = self.retx.as_mut() else {
            return;
        };
        let Some(peer) = st.send.get_mut(&peer_node.0) else {
            return;
        };
        let mut progressed = false;
        while peer.base_seq < seq && !peer.unacked.is_empty() {
            peer.unacked.pop_front();
            peer.base_seq += 1;
            progressed = true;
        }
        if progressed {
            // Progress restarts the timer and resets the backoff.
            if peer.rto > base_rto {
                self.stats.gbn_backoff_resets += 1;
            }
            peer.rto = base_rto;
            peer.timeout_at = if peer.unacked.is_empty() {
                None
            } else {
                Some(now + peer.rto)
            };
            if let Some(r) = peer.resend_from {
                let r = r.max(peer.base_seq);
                let live = (r.wrapping_sub(peer.base_seq) as usize) < peer.unacked.len();
                peer.resend_from = live.then_some(r);
            }
        }
    }

    /// Go-back-N request: replay everything from `seq` on. Also carries
    /// the cumulative-ack meaning for sequences below `seq`.
    pub(crate) fn handle_nack(&mut self, now: SimTime, peer_node: NodeId, seq: u32) {
        self.handle_ack(now, peer_node, seq);
        let Some(st) = self.retx.as_mut() else {
            return;
        };
        let Some(peer) = st.send.get_mut(&peer_node.0) else {
            return;
        };
        if seq >= peer.base_seq && !peer.unacked.is_empty() {
            peer.resend_from = Some(peer.base_seq);
            peer.timeout_at = Some(now + peer.rto);
        }
    }

    /// Queues a link-level control frame for immediate injection.
    pub(crate) fn queue_control(&mut self, now: SimTime, dst: NodeId, kind: FrameKind, seq: u32) {
        match kind {
            FrameKind::Ack => self.stats.acks_sent += 1,
            FrameKind::Nack => self.stats.nacks_sent += 1,
            FrameKind::Data => unreachable!("data frames travel via the FIFO"),
        }
        let frame = ShrimpPacket::control(self.shape.coord_of(dst), self.node, kind, seq);
        self.ctl_queue.push_back((now, dst, frame));
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{NicConfig, RetxConfig};
    use crate::nipt::UpdatePolicy;
    use crate::packet::FrameKind;
    use crate::testutil::{map_out, relay_ctl, rnic, rpair, send_word, shape, t};
    use shrimp_mem::PageNum;
    use shrimp_mesh::NodeId;
    use crate::nic::NetworkInterface;

    #[test]
    fn retx_data_frames_carry_sequence_numbers() {
        let (mut s, _r) = rpair();
        for i in 0..3 {
            let mp = send_word(&mut s, i, u64::from(i) * 2000);
            let link = mp.payload().link().expect("retx frames data");
            assert_eq!(link.kind, FrameKind::Data);
            assert_eq!(link.seq, i);
            assert!(mp.payload().verify_crc(), "CRC covers the trailer");
        }
    }

    #[test]
    fn retx_acks_retire_the_window() {
        let (mut s, mut r) = rpair();
        for i in 0..3 {
            let mp = send_word(&mut s, i, u64::from(i) * 2000);
            r.accept_packet(t(u64::from(i) * 2000 + 1100), mp).unwrap();
        }
        assert_eq!(r.stats().packets_received, 3);
        assert_eq!(r.stats().acks_sent, 3);
        assert_eq!(relay_ctl(&mut r, &mut s, 10_000), 3);
        assert_eq!(s.stats().acks_received, 3);
        // Everything acked: no retransmit timer remains.
        assert!(s.next_deadline().is_none());
        // In-order delivery out the far side.
        for i in 0..3u32 {
            let d = r.pop_incoming(t(50_000)).unwrap().unwrap();
            assert_eq!(d.data.as_slice(), &i.to_le_bytes());
        }
    }

    #[test]
    fn retx_gap_nack_triggers_go_back_n() {
        let (mut s, mut r) = rpair();
        let lost = send_word(&mut s, 0, 0);
        drop(lost); // the mesh ate frame 0
        let mp1 = send_word(&mut s, 1, 2000);
        r.accept_packet(t(3100), mp1).unwrap();
        assert_eq!(r.stats().gap_drops, 1);
        assert_eq!(r.stats().nacks_sent, 1);
        assert_eq!(r.stats().packets_received, 0, "out-of-order is not delivered");
        // Nack reaches the sender: it replays 0 and 1.
        assert_eq!(relay_ctl(&mut r, &mut s, 4000), 1);
        assert_eq!(s.stats().nacks_received, 1);
        let r0 = s.pop_outgoing(t(4000)).expect("replay of frame 0");
        assert_eq!(r0.payload().link().unwrap().seq, 0);
        let r1 = s.pop_outgoing(t(4000)).expect("replay of frame 1");
        assert_eq!(r1.payload().link().unwrap().seq, 1);
        assert_eq!(s.stats().retransmissions, 2);
        r.accept_packet(t(5000), r0).unwrap();
        r.accept_packet(t(5100), r1).unwrap();
        assert_eq!(r.stats().packets_received, 2);
        relay_ctl(&mut r, &mut s, 6000);
        assert!(s.next_deadline().is_none(), "window fully retired");
        // Payload order is preserved end to end.
        for i in 0..2u32 {
            let d = r.pop_incoming(t(50_000)).unwrap().unwrap();
            assert_eq!(d.data.as_slice(), &i.to_le_bytes());
        }
    }

    #[test]
    fn retx_duplicates_are_dropped_and_reacked() {
        let (mut s, mut r) = rpair();
        let mp = send_word(&mut s, 0, 0);
        let dup = mp.clone();
        r.accept_packet(t(1100), mp).unwrap();
        r.accept_packet(t(1200), dup).unwrap();
        assert_eq!(r.stats().packets_received, 1);
        assert_eq!(r.stats().dup_drops, 1);
        // Both arrivals ack, so a lost first ack cannot wedge the sender.
        assert_eq!(r.stats().acks_sent, 2);
    }

    #[test]
    fn retx_timeout_replays_with_backoff() {
        let (mut s, mut r) = rpair();
        let mp = send_word(&mut s, 0, 0);
        drop(mp); // lost, and no later frame will surface the gap
        let base = s.config().retx.base_timeout;
        let first_deadline = s.next_deadline().expect("timer armed");
        s.poll(first_deadline);
        assert_eq!(s.stats().retx_timeouts, 1);
        let replay = s.pop_outgoing(first_deadline).expect("timeout replay");
        assert_eq!(replay.payload().link().unwrap().seq, 0);
        assert_eq!(s.stats().retransmissions, 1);
        // Backoff: the next timer is 2× base after the replay.
        let second_deadline = s.next_deadline().expect("timer re-armed");
        assert_eq!(second_deadline, first_deadline + base * 2);
        // Delivery + ack cancels the timer and resets the backoff.
        r.accept_packet(second_deadline, replay).unwrap();
        relay_ctl(&mut r, &mut s, 1_000_000);
        assert!(s.next_deadline().is_none());
    }

    #[test]
    fn retx_window_full_asserts_backpressure() {
        let cfg = NicConfig {
            retx: RetxConfig {
                window_packets: 2,
                ..RetxConfig::reliable()
            },
            ..NicConfig::default()
        };
        let mut s = NetworkInterface::new(NodeId(0), shape(), cfg, 64);
        map_out(&mut s, 2, 1, 4, UpdatePolicy::AutomaticSingle);
        let mut r = rnic(1);
        r.nipt_mut().set_mapped_in(PageNum::new(4), true).unwrap();
        for i in 0..3u32 {
            let addr = PageNum::new(2).at_offset(u64::from(i) * 4);
            s.snoop_write(t(u64::from(i) * 10), addr, &i.to_le_bytes());
        }
        let a = s.pop_outgoing(t(5000)).expect("frame 0");
        let _b = s.pop_outgoing(t(5000)).expect("frame 1");
        assert!(
            s.pop_outgoing(t(5000)).is_none(),
            "window of 2 must hold back the third frame"
        );
        // An ack for frame 0 reopens the window.
        r.accept_packet(t(5100), a).unwrap();
        relay_ctl(&mut r, &mut s, 6000);
        let c = s.pop_outgoing(t(6000)).expect("window reopened");
        assert_eq!(c.payload().link().unwrap().seq, 2);
    }
}
