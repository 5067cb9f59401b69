//! The wake policy and the mesh coupling (DESIGN.md §5j): when the
//! network pump visits a node, and when a node's NIC gets a wakeup
//! event. SHRIMP's NIC does work only when a store is snooped or a
//! packet arrives (§4). A NIC's timed work (deadlines, later-ready
//! packets, incoming pops) runs at the node's own events; the pump
//! couples the nodes to the mesh. No other non-test code reads or
//! writes the pump worklist (`ActiveNodes`; the rest of the crate only
//! `mark`s a node) or a node's wakeup slots (`NicWakeups`), or pushes a
//! `NicHousekeep`, `DrainOutgoing` or `PopIncoming`. One `WakePlan`
//! reads what a NIC has due; the wakeups, the quiet bit and the pump's
//! skipped-visit check all follow from it.

use shrimp_mesh::NodeId;
use shrimp_nic::NetworkInterface;
use shrimp_sim::{ComponentId, EnginePhase, EventQueue, SimDuration, SimTime, TraceData};

use super::{DeliveryRecord, LatencyRecord, Machine};
use crate::node::{Event, NodeEvent};

/// The pump worklist: one bit per node whose next visit may do work,
/// iterated in ascending node id.
#[derive(Debug)]
pub(super) struct ActiveNodes {
    words: Vec<u64>,
}

impl ActiveNodes {
    /// An empty set of `n` nodes.
    pub(super) fn new(n: usize) -> Self {
        ActiveNodes { words: vec![0; n.div_ceil(64)] }
    }

    /// Puts `node` on the worklist: its next visit may have work.
    #[inline]
    pub(super) fn mark(&mut self, node: u16) {
        self.words[node as usize / 64] |= 1 << (node % 64);
    }

    #[inline]
    fn clear(&mut self, node: u16) {
        self.words[node as usize / 64] &= !(1 << (node % 64));
    }

    #[cfg(debug_assertions)]
    fn contains(&self, node: u16) -> bool {
        self.words[node as usize / 64] & (1 << (node % 64)) != 0
    }
}

/// What a node's NIC has due, read once at `t`: the one source of its
/// wakeups, of the quiet bit and of the pump's leave rule.
#[derive(Debug)]
pub(crate) struct WakePlan {
    /// The NIC's next deadline, no earlier than `t`: a `NicHousekeep`.
    housekeep: Option<SimTime>,
    /// When the head outgoing packet is ready, if that is after `t`: a
    /// `DrainOutgoing`.
    drain: Option<SimTime>,
    /// When the head incoming delivery clears the receive pipeline, no
    /// earlier than `t`: a `PopIncoming`.
    pop: Option<SimTime>,
    /// When the head outgoing packet is ready for injection, if any
    /// ([`NetworkInterface::outgoing_ready_at`]).
    outgoing: Option<SimTime>,
}

impl WakePlan {
    /// Reads `nic`'s deadline and its outgoing and incoming ready times
    /// at `t`.
    pub(crate) fn of(nic: &NetworkInterface, t: SimTime) -> Self {
        let housekeep = nic.next_deadline().map(|d| d.max(t));
        let outgoing = nic.outgoing_ready_at();
        let pop = nic.incoming_ready_at().map(|r| r.max(t));
        WakePlan {
            housekeep,
            drain: outgoing.filter(|&r| r > t),
            pop,
            outgoing,
        }
    }

    /// No deadline, no outgoing packet (ready now or later) and no
    /// incoming delivery.
    pub(crate) fn quiet(&self) -> bool {
        self.housekeep.is_none() && self.outgoing.is_none() && self.pop.is_none()
    }
}

/// Whether a pending wakeup at `w` covers work due at `at`, so a visit
/// at `t` need push no new one: it has not fired yet and is no later.
fn covered(w: Option<SimTime>, at: SimTime, t: SimTime) -> bool {
    w.is_some_and(|w| t <= w && w <= at)
}

/// One node's pending NIC wakeups: the earliest scheduled
/// `NicHousekeep`, `DrainOutgoing` and `PopIncoming`, so the pump paths
/// don't flood the queue with redundant wakeups.
#[derive(Debug, Default)]
pub(crate) struct NicWakeups {
    housekeep: Option<SimTime>,
    drain: Option<SimTime>,
    pop: Option<SimTime>,
}

impl NicWakeups {
    /// Pushes, in this order, the housekeep, drain and pop wakeups of
    /// `plan` that no pending wakeup covers.
    fn schedule(&mut self, node: u16, plan: &WakePlan, t: SimTime, queue: &mut EventQueue<Event>) {
        if let Some(at) = plan.housekeep {
            if !covered(self.housekeep, at, t) {
                self.housekeep = Some(at);
                queue.push(at, Event { node, ev: NodeEvent::NicHousekeep });
            }
        }
        if let Some(at) = plan.drain {
            if !covered(self.drain, at, t) {
                self.drain = Some(at);
                queue.push(at, Event { node, ev: NodeEvent::DrainOutgoing });
            }
        }
        if let Some(at) = plan.pop {
            self.schedule_pop(node, at, t, queue);
        }
    }

    /// Pushes a `PopIncoming` at `at` unless a pending one covers it.
    fn schedule_pop(&mut self, node: u16, at: SimTime, t: SimTime, queue: &mut EventQueue<Event>) {
        if !covered(self.pop, at, t) {
            self.pop = Some(at);
            queue.push(at, Event { node, ev: NodeEvent::PopIncoming });
        }
    }

    /// True when [`NicWakeups::schedule`] of `plan` at `t` would push
    /// nothing: each of its wakeups is covered by its pending one.
    #[cfg(debug_assertions)]
    fn covers(&self, plan: &WakePlan, t: SimTime) -> bool {
        let due = |w, at: Option<SimTime>| at.is_none_or(|at| covered(w, at, t));
        due(self.housekeep, plan.housekeep) && due(self.drain, plan.drain) && due(self.pop, plan.pop)
    }

    /// Whether the pending drain wakeup is at `r`.
    pub(crate) fn drains_at(&self, r: SimTime) -> bool {
        self.drain == Some(r)
    }

    /// Pushes the `NicHousekeep` events that [`NicWakeups::schedule`]
    /// would push after each of `n` words merged into `nic`'s open
    /// blocked-write packet (DESIGN.md §5k). Word `k` is scheduled at
    /// its request time, `t` for the first and the previous word's bus
    /// end after that, and finds the merge deadline at its own bus end,
    /// `start + (k + 1) * step`, plus the window. Each visited word
    /// applies the `covered` rule; the words skipped between them are
    /// requested no later than the pending wakeup, which is no later
    /// than their deadline, so they are covered.
    pub(crate) fn replay_merge_housekeeps(
        &mut self,
        nic: &NetworkInterface,
        t: SimTime,
        start: SimTime,
        step: SimDuration,
        n: u64,
        queue: &mut EventQueue<Event>,
    ) {
        let node = nic.node().0;
        let window = nic.config().merge_window;
        let request = |k: u64| if k == 0 { t } else { start + step * k };
        let mut k = 0;
        while k < n {
            let at = start + step * (k + 1) + window;
            if !covered(self.housekeep, at, request(k)) {
                self.housekeep = Some(at);
                queue.push(at, Event { node, ev: NodeEvent::NicHousekeep });
            }
            // The next word requested after the pending wakeup.
            let w = self.housekeep.expect("set or covered above");
            k = (k + 1).max(w.saturating_since(start).as_picos() / step.as_picos() + 1);
        }
        #[cfg(debug_assertions)]
        {
            let last = request(n - 1);
            assert!(
                self.covers(&WakePlan::of(nic, last), last),
                "a merged run must leave the wakeups as the word loop does"
            );
        }
    }
}

impl Machine {
    /// Pushes `node`'s NIC wakeups for whatever its NIC has pending at
    /// `t`, and returns the plan it read.
    pub(super) fn schedule_wakeups(&mut self, t: SimTime, node: NodeId) -> WakePlan {
        let n = &mut self.nodes[node.0 as usize];
        let plan = WakePlan::of(&n.nic, t);
        n.wakeups.schedule(node.0, &plan, t, &mut self.queue);
        plan
    }

    /// A `NicHousekeep` fired: polls the NIC's deadlines, re-arms the
    /// wakeups, and, since a housekeep may end an injected FIFO stall or
    /// arm a retransmit replay, resumes acceptance and pushes replays.
    pub(super) fn housekeep_fired(&mut self, t: SimTime, node: NodeId) {
        let n = &mut self.nodes[node.0 as usize];
        // Even a stale housekeep clears the slot, and so re-arms one at
        // the live deadline (DESIGN.md §5k); the drain and pop arms too.
        n.wakeups.housekeep = None;
        n.nic.poll(t);
        self.schedule_wakeups(t, node);
        self.deliver_ejections(t, node);
        self.drain_outgoing(t, node);
    }

    /// A `DrainOutgoing` fired: injects what is ready.
    pub(super) fn drain_fired(&mut self, t: SimTime, node: NodeId) {
        self.nodes[node.0 as usize].wakeups.drain = None;
        self.drain_outgoing(t, node);
    }

    /// A `PopIncoming` fired: starts the DMA of what is ready.
    pub(super) fn pop_fired(&mut self, t: SimTime, node: NodeId) {
        self.nodes[node.0 as usize].wakeups.pop = None;
        self.pop_incoming(t, node);
    }

    /// Advances the mesh to `t`, then marks the nodes it ejected to,
    /// drains its link, reroute and bounce events into the trace and
    /// pumps the network.
    pub(super) fn advance_mesh(&mut self, t: SimTime) {
        // Sampled: this runs several times per simulated event, so
        // exact per-call timing would cost more than the pump itself.
        let p = self.profiler.begin_sampled(EnginePhase::MeshPump);
        self.mesh.advance(t);
        let active = &mut self.active;
        self.mesh.drain_ejection_notices(|node| active.mark(node.0));
        self.mesh.trace_outbox_mut().drain_into(&mut self.trace);
        self.pump_network(t);
        self.profiler.end_sampled(EnginePhase::MeshPump, p);
    }

    /// Delivers due ejections, drains Outgoing FIFOs into the mesh and
    /// drains NIC trace events on every node of the active worklist, in
    /// ascending node id. Runs after every mesh advance and after every
    /// `DmaComplete`; the run loops interleave mesh events natively, so
    /// no wakeup needs to be scheduled here.
    ///
    /// A node stays on the worklist only while an ejection is queued
    /// for it or an outgoing packet is ready now (held back by the mesh,
    /// a full go-back-N window or a pending resend). Its timed work (a
    /// deadline, a packet ready later, an incoming pop) runs at its own
    /// `NicHousekeep`, `DrainOutgoing` and `PopIncoming` events, which
    /// mark it (DESIGN.md §5j). A visit touches only its own node and
    /// the mesh's injection side, so no node joins the worklist
    /// mid-pump.
    pub(super) fn pump_network(&mut self, t: SimTime) {
        #[cfg(debug_assertions)]
        self.assert_skipped_visits_are_no_ops(t);
        let mut visits = 0u64;
        for w in 0..self.active.words.len() {
            let mut bits = self.active.words[w];
            while bits != 0 {
                let node = (w * 64) as u16 + bits.trailing_zeros() as u16;
                bits &= bits - 1;
                let id = NodeId(node);
                self.deliver_ejections(t, id);
                let outgoing = self.drain_outgoing(t, id);
                self.drain_nic_trace(node);
                if outgoing.is_none_or(|r| r > t) && self.mesh.peek_ejection(id).is_none() {
                    self.active.clear(node);
                }
                visits += 1;
            }
        }
        self.profiler.note_pump_visits(visits);
    }

    /// The worklist invariant: a visit to any node the pump at `t`
    /// skips would be a no-op, but for injecting a packet ready at `t`,
    /// which the node's own `DrainOutgoing` queued at `t` does. Nothing
    /// is ejected, no wakeup is pushed and no NIC trace event waits to
    /// be drained.
    #[cfg(debug_assertions)]
    fn assert_skipped_visits_are_no_ops(&self, t: SimTime) {
        for (i, n) in self.nodes.iter().enumerate() {
            let id = NodeId(i as u16);
            if self.active.contains(id.0) {
                continue;
            }
            let plan = WakePlan::of(&n.nic, t);
            assert!(
                self.mesh.peek_ejection(id).is_none(),
                "{id:?} is off the pump worklist with an ejection queued"
            );
            assert!(
                plan.outgoing.is_none_or(|r| r > t || (r == t && n.wakeups.drains_at(t))),
                "{id:?} is off the pump worklist with an outgoing packet ready \
                 by {t:?} and no DrainOutgoing at {t:?}"
            );
            assert!(
                n.wakeups.covers(&plan, t),
                "{id:?} is off the pump worklist with a NIC wakeup to push"
            );
            assert!(
                n.nic.trace_outbox().is_empty(),
                "{id:?} is off the pump worklist with NIC trace events to drain"
            );
        }
    }

    /// Moves every due ejection the NIC can accept into its Incoming
    /// FIFO, then schedules the pop of its head delivery.
    fn deliver_ejections(&mut self, t: SimTime, node: NodeId) {
        loop {
            let n = &mut self.nodes[node.0 as usize];
            if !n.nic.can_accept_from_network_at(t) {
                break;
            }
            match self.mesh.peek_ejection(node) {
                Some(arrival) if arrival <= t => {
                    let (pkt, arrival) = self.mesh.eject(t, node).expect("peeked ejection");
                    if self.trace.is_on() {
                        let data = TraceData::PacketEjected {
                            src: pkt.src().0,
                            dst: pkt.dst().0,
                            bytes: pkt.wire_len() as u32,
                        };
                        self.emit(node, arrival.max(t), ComponentId::nic(node.0), data);
                    }
                    let n = &mut self.nodes[node.0 as usize];
                    if let Err(e) = n.nic.accept_packet(arrival.max(t), pkt) {
                        self.drop_log.push((t, node, e));
                    }
                }
                _ => break,
            }
        }
        let n = &mut self.nodes[node.0 as usize];
        if let Some(r) = n.nic.incoming_ready_at() {
            n.wakeups.schedule_pop(node.0, r.max(t), t, &mut self.queue);
        }
    }

    /// Injects every ready Outgoing-FIFO packet the mesh accepts, then
    /// schedules the node's wakeups. Returns when the head outgoing
    /// packet left behind is ready, if any.
    fn drain_outgoing(&mut self, t: SimTime, node: NodeId) -> Option<SimTime> {
        loop {
            if !self.mesh.can_inject(node) {
                // Mesh backpressure: retried on the next mesh event.
                break;
            }
            match self.nodes[node.0 as usize].drain_outbound(t) {
                Some(pkt) => {
                    if self.trace.is_on() {
                        let inner = pkt.payload();
                        let data = TraceData::PacketInjected {
                            src: pkt.src().0,
                            dst: pkt.dst().0,
                            bytes: inner.wire_len() as u32,
                            seq: inner.link().map(|l| l.seq),
                        };
                        self.emit(node, t, ComponentId::nic(node.0), data);
                    }
                    if self.mesh.try_inject(t, pkt).is_err() {
                        debug_assert!(false, "can_inject checked above");
                        break;
                    }
                }
                None => break,
            }
        }
        self.schedule_wakeups(t, node).outgoing
    }

    /// Starts the EISA DMA of every Incoming-FIFO packet ready by `t`,
    /// logging each delivery, then refills the FIFO from the mesh.
    fn pop_incoming(&mut self, t: SimTime, node: NodeId) {
        loop {
            let n = &mut self.nodes[node.0 as usize];
            match n.nic.pop_incoming(t) {
                Some(Ok(delivery)) => {
                    let start = delivery.ready_at.max(t);
                    let grant = n.eisa.dma_write(start, delivery.data.len() as u64);
                    if self.trace.is_on() {
                        let bytes = delivery.data.len() as u32;
                        let c = ComponentId::nic(node.0);
                        self.emit(node, grant.start, c, TraceData::DmaStart { node: node.0, bytes });
                        self.emit(node, grant.end, c, TraceData::DmaEnd { node: node.0, bytes });
                        let data = TraceData::PacketDelivered {
                            src: delivery.src.0,
                            dst: node.0,
                            bytes,
                        };
                        self.emit(node, grant.end, c, data);
                    }
                    if self.config.telemetry.latency {
                        self.telemetry.record(LatencyRecord {
                            node,
                            src: delivery.src,
                            bytes: delivery.data.len() as u64,
                            born: delivery.stamp.born,
                            injected: delivery.stamp.injected,
                            accepted: delivery.stamp.accepted,
                            dma_start: grant.start,
                            dma_end: grant.end,
                        });
                    }
                    self.delivery_log.push(DeliveryRecord {
                        time: grant.end,
                        node,
                        dst_addr: delivery.dst_addr,
                        len: delivery.data.len() as u64,
                        src: delivery.src,
                    });
                    self.push_event(
                        grant.end,
                        node.0,
                        NodeEvent::DmaComplete {
                            addr: delivery.dst_addr,
                            data: delivery.data,
                        },
                    );
                }
                Some(Err(e)) => self.drop_log.push((t, node, e)),
                None => break,
            }
        }
        // Space freed: blocked ejections may now proceed. An ack or
        // nack minted while accepting them goes out in the pump that
        // the ejection's own mesh retry at `t` triggers.
        self.deliver_ejections(t, node);
    }
}

#[cfg(test)]
mod tests {
    use shrimp_mesh::{MeshShape, NodeId};

    use super::super::Machine;
    use super::NicWakeups;
    use crate::config::MachineConfig;

    impl NicWakeups {
        /// Forgets the pending drain wakeup, so a test can build a node
        /// whose wakeups do not cover its outgoing packet.
        pub(in crate::machine) fn forget_drain(&mut self) {
            self.drain = None;
        }
    }

    /// A host call puts only the node it touches on the pump worklist
    /// (DESIGN.md §5j): after a poke on node 2 of a quiet 2x2 machine,
    /// the next pump visits node 2 alone.
    #[test]
    fn a_poke_marks_only_its_node() {
        let mut cfg = MachineConfig::prototype(MeshShape::new(2, 2));
        cfg.telemetry.profile = true;
        let mut m = Machine::new(cfg);
        let pid = m.create_process(NodeId(2));
        let va = m.alloc_pages(NodeId(2), pid, 1).unwrap();
        m.run_until_idle().unwrap();
        m.pump_network(m.now());
        assert_eq!(m.active.words, [0], "a quiet pump clears every node");
        m.poke(NodeId(2), pid, va, &[7; 8]).unwrap();
        assert_eq!(m.active.words, [1 << 2], "the poke marks its node alone");
        let visits = |m: &Machine| m.profile().expect("profiling on").pump_node_visits;
        let before = visits(&m);
        m.pump_network(m.now());
        assert_eq!(visits(&m) - before, 1);
    }
}
