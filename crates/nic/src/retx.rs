//! Go-back-N retransmission state and the bounce/reroute recovery path.
//!
//! Per-peer sender and receiver books live in `RetxState` (present only
//! when [`crate::RetxConfig::enabled`] is set). The engine distinguishes
//! two loss regimes: a *lossy* fabric (timeouts escalate with exponential
//! backoff, capped) and a *down* fabric (a bounced own-frame resets the
//! backoff and arms a flat [`REROUTE_BACKOFF`] pace — escalation would
//! only delay recovery past the repair).

use shrimp_mesh::{MeshPacket, NodeId};
use shrimp_sim::{ComponentId, SimDuration, SimTime, TraceData};

use crate::error::NicError;
use crate::nic::NetworkInterface;
use crate::packet::{FrameKind, LinkCtl, ShrimpPacket};

/// Initial retransmit timeout after the last send to a destination:
/// comfortably above a page-packet round trip on the prototype mesh.
pub const BASE_TIMEOUT: SimDuration = SimDuration::from_us(60);

/// Exponential-backoff cap for the retransmit timeout (four doublings
/// of [`BASE_TIMEOUT`]).
pub const MAX_TIMEOUT: SimDuration = SimDuration::from_us(960);

/// Replay pacing after the mesh *bounces* a frame back (no route to the
/// destination under the current link set). A bounce means the fabric
/// is down, not lossy: the engine retries at this flat rate instead of
/// escalating the exponential loss backoff, so recovery starts promptly
/// once a link heals or a reroute appears.
pub const REROUTE_BACKOFF: SimDuration = SimDuration::from_us(30);

/// Go-back-N sender state toward one destination node.
///
/// A peer with nothing outstanding runs no timer and replays nothing:
/// `unacked` empty implies `timeout_at` and `resend_from` are `None`.
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

pub(crate) use books::RetxState;

/// The sender books behind private fields, so that every change to them
/// refreshes the cached wake values (DESIGN.md §5b).
mod books {
    use std::collections::BTreeMap;

    use shrimp_sim::SimTime;

    use super::{RecvPeer, SendPeer};

    /// All go-back-N state of one NIC (present only when
    /// [`crate::RetxConfig::enabled`] is set).
    #[derive(Debug, Clone, Default)]
    pub(crate) struct RetxState {
        /// Sender books, keyed by destination node id (BTreeMap for
        /// deterministic iteration order). Changed only through
        /// [`RetxState::edit`].
        send: BTreeMap<u16, SendPeer>,
        /// Receiver books, keyed by source node id.
        pub(crate) recv: BTreeMap<u16, RecvPeer>,
        /// The earliest `timeout_at` over `send`.
        next_timeout: Option<SimTime>,
        /// Whether any peer in `send` has `resend_from` set.
        replaying: bool,
    }

    impl RetxState {
        /// The sender books, read-only.
        pub(crate) fn send(&self) -> &BTreeMap<u16, SendPeer> {
            &self.send
        }

        /// Runs `f` on the sender books, then refreshes the earliest
        /// retransmit deadline and the replay flag by a rescan. The only
        /// way to change a peer's `timeout_at` or `resend_from`.
        pub(crate) fn edit<R>(&mut self, f: impl FnOnce(&mut BTreeMap<u16, SendPeer>) -> R) -> R {
            let out = f(&mut self.send);
            self.next_timeout = earliest_timeout(&self.send);
            self.replaying = any_replaying(&self.send);
            debug_assert!(
                self.send.values().all(|p| !p.unacked.is_empty()
                    || (p.timeout_at.is_none() && p.resend_from.is_none())),
                "a peer with nothing outstanding runs a timer or a replay"
            );
            out
        }

        /// The earliest running retransmit timer over all peers. Debug
        /// builds check it against a fresh scan.
        pub(crate) fn next_timeout(&self) -> Option<SimTime> {
            debug_assert_eq!(
                self.next_timeout,
                earliest_timeout(&self.send),
                "cached retransmit deadline went stale"
            );
            self.next_timeout
        }

        /// Whether any peer is replaying its window. Debug builds check
        /// it against a fresh scan.
        pub(crate) fn replaying(&self) -> bool {
            debug_assert_eq!(
                self.replaying,
                any_replaying(&self.send),
                "cached replay flag went stale"
            );
            self.replaying
        }
    }

    fn earliest_timeout(send: &BTreeMap<u16, SendPeer>) -> Option<SimTime> {
        send.values().filter_map(|p| p.timeout_at).min()
    }

    fn any_replaying(send: &BTreeMap<u16, SendPeer>) -> bool {
        send.values().any(|p| p.resend_from.is_some())
    }
}

impl NetworkInterface {
    /// Fires the per-peer retransmit timers due at `now`: an expired
    /// timer rewinds the window to its base and doubles the timeout
    /// (capped). Called from [`NetworkInterface::poll`]; returns at once
    /// while the earliest timer lies ahead.
    pub(crate) fn poll_retx(&mut self, now: SimTime) {
        let Some(st) = self.retx.as_mut() else {
            return;
        };
        if st.next_timeout().is_none_or(|t| now < t) {
            return;
        }
        let component = ComponentId::nic(self.node.0);
        let (node, stats, outbox) = (self.node.0, &mut self.stats, &mut self.outbox);
        st.edit(|send| {
            for (&peer_id, peer) in send.iter_mut() {
                if peer.timeout_at.is_none_or(|t| now < t) {
                    continue;
                }
                // Nothing came back in time: go back to the window base
                // and double the timeout (capped).
                peer.resend_from = Some(peer.base_seq);
                peer.rto = (peer.rto * 2).min(MAX_TIMEOUT);
                peer.timeout_at = Some(now + peer.rto);
                stats.retx_timeouts += 1;
                if outbox.is_on() {
                    let attempt =
                        (peer.rto.as_picos() / BASE_TIMEOUT.as_picos()).max(1) as u32;
                    let data = TraceData::RetxTimeout {
                        peer: peer_id,
                        base_seq: peer.base_seq,
                        attempt,
                    };
                    outbox.push(node, now, component, data);
                }
            }
        });
    }

    /// Emits the next frame of an in-progress go-back-N replay, if any;
    /// returns at once when no peer is replaying.
    pub(crate) fn pop_resend(&mut self, now: SimTime) -> Option<MeshPacket<ShrimpPacket>> {
        let node = self.node;
        let st = self.retx.as_mut()?;
        if !st.replaying() {
            return None;
        }
        let (peer_id, from, framed) = st.edit(|send| {
            for (&peer_id, peer) in send.iter_mut() {
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
                return Some((peer_id, from, framed));
            }
            None
        })?;
        self.stats.retransmissions += 1;
        let data = TraceData::Retransmit { peer: peer_id, seq: from };
        self.outbox.push(node.0, now, ComponentId::nic(node.0), data);
        Some(MeshPacket::new(node, NodeId(peer_id), framed))
    }

    /// Handles one of our own frames returned by the mesh bounce path.
    ///
    /// For a data frame the send window toward its destination is still
    /// holding it (nothing was acked), so recovery is a rewind: reset
    /// the loss backoff — the fabric is *down*, not lossy, and
    /// escalation would only delay recovery past the repair — cancel
    /// any pending replay, and arm a flat-rate retry
    /// [`REROUTE_BACKOFF`] from now. Every further
    /// bounce re-arms the same pacing, so the engine probes the fabric
    /// at a constant rate until a route exists again. Bounced ack/nack
    /// frames are simply dropped: the data path's own timers recover.
    pub(crate) fn accept_bounce(&mut self, now: SimTime, packet: &ShrimpPacket) -> Result<(), NicError> {
        self.stats.gbn_bounces += 1;
        if let Some(LinkCtl { kind: FrameKind::Data, .. }) = packet.link() {
            let dst = self.shape.id_at(packet.header().dst_coord);
            if let Some(st) = self.retx.as_mut() {
                st.edit(|send| {
                    if let Some(peer) = send.get_mut(&dst.0).filter(|p| !p.unacked.is_empty()) {
                        peer.rto = BASE_TIMEOUT;
                        peer.resend_from = None;
                        peer.timeout_at = Some(now + REROUTE_BACKOFF);
                    }
                });
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
        let Some(st) = self.retx.as_mut() else {
            return;
        };
        let stats = &mut self.stats;
        st.edit(|send| {
            let Some(peer) = send.get_mut(&peer_node.0) else {
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
                if peer.rto > BASE_TIMEOUT {
                    stats.gbn_backoff_resets += 1;
                }
                peer.rto = BASE_TIMEOUT;
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
        });
    }

    /// Go-back-N request: replay everything from `seq` on. Also carries
    /// the cumulative-ack meaning for sequences below `seq`.
    pub(crate) fn handle_nack(&mut self, now: SimTime, peer_node: NodeId, seq: u32) {
        self.handle_ack(now, peer_node, seq);
        let Some(st) = self.retx.as_mut() else {
            return;
        };
        st.edit(|send| {
            let Some(peer) = send.get_mut(&peer_node.0) else {
                return;
            };
            if seq >= peer.base_seq && !peer.unacked.is_empty() {
                peer.resend_from = Some(peer.base_seq);
                peer.timeout_at = Some(now + peer.rto);
            }
        });
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
    use shrimp_mesh::{MeshPacket, NodeId};
    use shrimp_sim::{SimDuration, SimTime};
    use crate::nic::NetworkInterface;
    use crate::packet::ShrimpPacket;
    use crate::unpinned::Iotlb;
    use proptest::prelude::*;

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
        let base = super::BASE_TIMEOUT;
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
        r.map_in(PageNum::new(4), true).unwrap();
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

    /// `next_deadline` and `outgoing_ready_at` as a scan of every
    /// go-back-N peer computes them.
    fn scanned(n: &NetworkInterface) -> (Option<SimTime>, Option<SimTime>) {
        let peers: Vec<_> = n.retx.iter().flat_map(|st| st.send().values()).collect();
        let timer = peers.iter().filter_map(|p| p.timeout_at).min();
        let replaying = peers.iter().any(|p| p.resend_from.is_some());
        let merge = n.pending.as_ref().map(|p| p.last_write + n.config.merge_window);
        let iotlb = n.iotlb.as_ref().and_then(Iotlb::next_ready);
        let deadline = [merge, n.stall_until, timer, iotlb].into_iter().flatten().min();
        let fifo = n.out_fifo.peek_with_time().map(|(_, at)| at);
        let ctl = n.ctl_queue.front().map(|&(at, _, _)| at);
        let ready = if replaying {
            Some(SimTime::ZERO)
        } else {
            fifo.into_iter().chain(ctl).min()
        };
        (deadline, ready)
    }

    /// Moves every packet `from` will send at `now` onto `wire`.
    fn drain(from: &mut NetworkInterface, now: SimTime, wire: &mut Vec<MeshPacket<ShrimpPacket>>) {
        while let Some(mp) = from.pop_outgoing(now) {
            wire.push(mp);
        }
    }

    proptest! {
        /// The cached earliest retransmit timer and replay flag answer
        /// every wake query as a scan of all peers would, under random
        /// sends, drops, acks, nacks, timeouts and bounces.
        #[test]
        fn cached_wake_values_match_a_scan(
            steps in prop::collection::vec((0u8..10, 0u64..40_000, any::<prop::sample::Index>()), 1..200)
        ) {
            let (mut s, mut r) = rpair();
            let (mut data, mut ctl) = (Vec::new(), Vec::new());
            let mut now = SimTime::ZERO;
            for (i, (action, gap_ns, pick)) in steps.into_iter().enumerate() {
                now += SimDuration::from_ns(gap_ns);
                match action {
                    // A store on the mapped page.
                    0 | 1 => {
                        let addr = PageNum::new(2).at_offset((i as u64 % 1024) * 4);
                        s.snoop_write(now, addr, &(i as u32).to_le_bytes());
                    }
                    // The sender injects whatever is ready: new data,
                    // replays, acks.
                    2 => drain(&mut s, now, &mut data),
                    // The oldest data frame (first or replayed) reaches
                    // the receiver: the mesh keeps each pair in order.
                    3 if !data.is_empty() => {
                        let _ = r.accept_packet(now, data.remove(0));
                    }
                    // The mesh eats a frame.
                    4 if !data.is_empty() => {
                        data.remove(pick.index(data.len()));
                    }
                    // The receiver injects its acks and nacks.
                    5 => drain(&mut r, now, &mut ctl),
                    // The oldest ack or nack reaches the sender, or is lost.
                    6 if !ctl.is_empty() => {
                        let mp = ctl.remove(0);
                        if pick.index(4) > 0 {
                            s.accept_packet(now, mp).unwrap();
                        }
                    }
                    // The sender's earliest deadline fires.
                    7 => {
                        if let Some(d) = s.next_deadline() {
                            now = now.max(d);
                        }
                        s.poll(now);
                    }
                    // No route: the mesh bounces a frame to its source.
                    8 if !data.is_empty() => {
                        s.accept_packet(now, data.remove(pick.index(data.len()))).unwrap();
                    }
                    // The receiver delivers to memory, freeing its FIFO.
                    _ => {
                        while r.pop_incoming(now).is_some() {}
                        r.poll(now);
                    }
                }
                for n in [&s, &r] {
                    let (deadline, ready) = scanned(n);
                    prop_assert_eq!(n.next_deadline(), deadline, "step {}", i);
                    prop_assert_eq!(n.outgoing_ready_at(), ready, "step {}", i);
                }
            }
        }
    }
}
