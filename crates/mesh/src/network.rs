//! The routing backplane simulation.
//!
//! Packets move at packet granularity: each router stores a whole packet
//! in an input buffer, then forwards it over the next link once that link
//! is free *and* the downstream buffer has a free slot (credit-based flow
//! control). A forwarded packet occupies its source slot until its tail
//! has left (`wire_len / link_bandwidth`), and its head appears downstream
//! one `hop_latency` later.
//!
//! Destinations *pull* packets out of a bounded ejection buffer. A NIC
//! that stops pulling (Incoming FIFO over threshold, paper §4) fills the
//! ejection buffer, then the router input buffers, then upstream links —
//! reproducing the paper's end-to-end backpressure chain.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use shrimp_sim::fault::{ChurnCycles, FaultConfig, LinkFault, LinkFaultSite};
use shrimp_sim::{
    ComponentId, EventQueue, Histogram, SimDuration, SimTime, TraceData, TraceOutbox,
};

use crate::config::MeshConfig;
use crate::packet::{MeshPacket, MeshPayload};
use crate::routing::{RouteColumns, RouteDecision, CH_START};
use crate::topology::{Direction, MeshShape, NodeId};

const PORT_INJECT: usize = 4;
const NUM_PORTS: usize = 5;

#[derive(Debug, Clone)]
enum Event {
    /// A packet has fully arrived in `node`'s input buffer `port`.
    Arrive {
        packet: usize,
        node: NodeId,
        port: usize,
    },
    /// A forwarded packet's tail has left `node`'s input buffer `port`.
    SlotDrained { node: NodeId, port: usize },
    /// Something changed; re-attempt forwarding at `node`.
    Retry { node: NodeId },
}

/// A link churn schedule, drawn as it fires (DESIGN.md §5g). It holds
/// each churned link's undrawn windows and at most one pending
/// transition per link, outside the mesh's event queue.
#[derive(Debug, Default)]
struct ChurnSchedule {
    /// Each churned link's windows not yet drawn, indexed like
    /// `MeshNetwork::link_free_at` (`None` on the mesh edge).
    cycles: Vec<Option<ChurnCycles>>,
    /// The next transition of each link with one left, keyed
    /// `(time, link)`: a failure carries its window's repair time, a
    /// repair `None`. With one entry per link, same-instant transitions
    /// run in link order.
    due: BinaryHeap<Reverse<(SimTime, usize, Option<SimTime>)>>,
}

impl ChurnSchedule {
    /// The schedule `cfg` draws for every physical link of `shape`.
    fn new(cfg: &FaultConfig, shape: MeshShape) -> Self {
        let mut churn = ChurnSchedule::default();
        for link in 0..shape.nodes() as usize * 4 {
            let node = NodeId((link / 4) as u16);
            let physical = shape.neighbor(node, Direction::ALL[link % 4]).is_some();
            let cycles = physical.then(|| cfg.churn_windows(link as u64));
            churn.cycles.push(cycles);
            churn.queue_next_window(link);
        }
        churn
    }

    /// Queues the failure of `link`'s next window, if it has one.
    fn queue_next_window(&mut self, link: usize) {
        if let Some((down_at, up_at)) = self.cycles[link].as_mut().and_then(Iterator::next) {
            let (down_at, up_at) = (SimTime::ZERO + down_at, SimTime::ZERO + up_at);
            self.due.push(Reverse((down_at, link, Some(up_at))));
        }
    }

    /// When the next transition falls due.
    fn next_time(&self) -> Option<SimTime> {
        self.due.peek().map(|&Reverse((t, ..))| t)
    }

    /// Takes the next transition as `(time, link, up)` and queues the
    /// link's one after it: a failure's repair, a repair's next window.
    fn pop(&mut self) -> (SimTime, usize, bool) {
        let Reverse((t, link, repair_at)) = self.due.pop().expect("a transition is due");
        match repair_at {
            Some(up_at) => self.due.push(Reverse((up_at, link, None))),
            None => self.queue_next_window(link),
        }
        (t, link, repair_at.is_none())
    }
}

#[derive(Debug, Clone, Default)]
struct Buffer {
    queue: VecDeque<usize>,
    /// Slots claimed by packets currently in flight towards this buffer.
    reserved: usize,
    /// Slots still occupied by tails of packets being forwarded out.
    draining: usize,
}

impl Buffer {
    fn occupancy(&self) -> usize {
        self.queue.len() + self.reserved + self.draining
    }
}

#[derive(Debug, Clone)]
struct RouterState {
    inputs: [Buffer; NUM_PORTS],
    ejection: VecDeque<(usize, SimTime)>,
}

#[derive(Debug)]
struct InFlight<P> {
    packet: MeshPacket<P>,
    injected_at: SimTime,
    hops: u16,
    /// When the packet's tail arrives wherever its head currently is.
    /// Cut-through timing: the head moves one `hop_latency` per hop and
    /// serialization is pipelined across the path (uniform link rates),
    /// so the tail trails the head by one serialization time. Ejection —
    /// which needs the whole packet for CRC checking — waits for the
    /// tail.
    tail_at: SimTime,
}

/// Aggregate statistics of a [`MeshNetwork`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Packets handed to [`MeshNetwork::try_inject`] and accepted.
    pub packets_injected: u64,
    /// Packets pulled out with [`MeshNetwork::eject`].
    pub packets_ejected: u64,
    /// Total bytes serialized over links (wire envelope included).
    pub link_bytes: u64,
    /// Network transit latencies (inject → arrival at ejection buffer),
    /// in picoseconds.
    pub transit_latency: Histogram,
    /// Hop counts of delivered packets.
    pub hops: Histogram,
    /// Packets destroyed on a link by fault injection.
    pub packets_dropped: u64,
    /// Packets that crossed a link with injected bit-flips.
    pub packets_corrupted: u64,
    /// Link traversals that saw injected latency jitter.
    pub packets_jittered: u64,
    /// Forwards whose adaptive west-first direction differed from the
    /// static dimension-order route (the dynamic path was exercised).
    pub reroutes: u64,
    /// Packets bounced back to their source NIC because no legal
    /// west-first path existed (or their link died under them).
    pub bounced: u64,
}

/// Usage accumulated by one directed link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkUse {
    /// Bytes serialized over the link (wire envelope included).
    pub bytes: u64,
    /// Total time the link spent serializing packets.
    pub busy: SimDuration,
}

/// The simulated routing backplane, generic over the payload type its
/// packets carry (raw bytes, a `Vec<u8>`, by default; the full machine
/// instantiates it with the NIC's structured packet so nothing is
/// re-serialized at the mesh boundary).
///
/// Drive it with [`MeshNetwork::try_inject`], [`MeshNetwork::advance`] and
/// [`MeshNetwork::eject`]; see the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct MeshNetwork<P = Vec<u8>> {
    config: MeshConfig,
    shape: MeshShape,
    routers: Vec<RouterState>,
    /// `free_at` per directed link, indexed `node * 4 + direction`.
    link_free_at: Vec<SimTime>,
    /// Packet slab: a packet's id is its slot for as long as it is in
    /// flight. Freed slots are reused through `free_ids`, so the slab
    /// never outgrows the peak number of packets in flight.
    packets: Vec<Option<InFlight<P>>>,
    free_ids: Vec<usize>,
    events: EventQueue<Event>,
    now: SimTime,
    in_flight: usize,
    /// Earliest pending Retry per node, deduplicating wakeups so
    /// congestion cannot flood the event queue with redundant retries.
    retry_at: Vec<Option<SimTime>>,
    /// Fault site per directed link (same indexing as `link_free_at`);
    /// empty unless [`MeshNetwork::set_fault_injection`] armed one.
    faults: Vec<Option<LinkFaultSite>>,
    stats: NetworkStats,
    /// Per-directed-link usage, indexed like `link_free_at`.
    link_use: Vec<LinkUse>,
    /// Per-directed-link up/down state (same indexing as `link_free_at`).
    link_up: Vec<bool>,
    /// Link-state epoch: bumped on every up/down transition. A route
    /// column is valid for exactly the epoch it was built in.
    epoch: u64,
    /// West-first routes, one destination column rebuilt lazily per
    /// epoch. Present exactly while a churn schedule is armed: adaptive
    /// routing and the bounce paths then replace static dimension-order.
    routes: Option<RouteColumns>,
    /// The armed churn schedule's pending transitions; empty without
    /// churn.
    churn: ChurnSchedule,
    /// Link up/down, reroute and bounce events, made deep inside
    /// [`MeshNetwork::advance`], for the host's tracer to drain. Pure
    /// observation: it never affects routing or timing.
    outbox: TraceOutbox,
    /// Nodes whose ejection buffer received a packet since the last
    /// [`MeshNetwork::drain_ejection_notices`], so the host can pump only
    /// those nodes. `noticed` lists each node once, which bounds the list
    /// by the node count even when nobody drains it.
    ejection_notices: Vec<u16>,
    noticed: Vec<bool>,
}

impl<P: MeshPayload> MeshNetwork<P> {
    /// Creates an idle backplane.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MeshConfig::validate`].
    pub fn new(config: MeshConfig) -> Self {
        config.validate();
        let shape = config.shape;
        let n = shape.nodes() as usize;
        MeshNetwork {
            config,
            shape,
            routers: (0..n)
                .map(|_| RouterState {
                    inputs: Default::default(),
                    ejection: VecDeque::new(),
                })
                .collect(),
            link_free_at: vec![SimTime::ZERO; n * 4],
            packets: Vec::new(),
            free_ids: Vec::new(),
            events: EventQueue::new(),
            now: SimTime::ZERO,
            in_flight: 0,
            retry_at: vec![None; n],
            faults: Vec::new(),
            stats: NetworkStats::default(),
            link_use: vec![LinkUse::default(); n * 4],
            link_up: vec![true; n * 4],
            epoch: 0,
            routes: None,
            churn: ChurnSchedule::default(),
            outbox: TraceOutbox::default(),
            ejection_notices: Vec::new(),
            noticed: vec![false; n],
        }
    }

    /// Arms (or, with an inactive config, disarms) per-link fault
    /// injection. Each directed link gets its own named RNG stream, so a
    /// fault plan is reproducible regardless of traffic order elsewhere.
    ///
    /// An active churn config additionally arms every physical link's
    /// fail/repair schedule, whose windows are drawn as they fire (a pure
    /// function of the seed), and switches routing from static
    /// dimension-order to west-first adaptive for the rest of the run.
    /// Arming again replaces the schedule.
    ///
    /// # Panics
    ///
    /// Panics if churn is armed while packets or events are pending.
    pub fn set_fault_injection(&mut self, cfg: &FaultConfig) {
        let links = self.link_free_at.len();
        if cfg.link.is_active() {
            self.faults = (0..links).map(|i| cfg.link_site(i as u64)).collect();
        } else {
            self.faults = Vec::new();
        }
        self.routes = cfg.churn.is_active().then(|| RouteColumns::new(self.shape));
        self.churn = ChurnSchedule::default();
        if self.routes.is_none() {
            return;
        }
        assert!(
            self.in_flight == 0 && self.events.is_empty(),
            "link churn is armed on an idle mesh"
        );
        self.churn = ChurnSchedule::new(cfg, self.shape);
    }

    /// The outbox of link up/down, reroute and bounce events. Off until
    /// enabled; the host drains it after each advance.
    pub fn trace_outbox_mut(&mut self) -> &mut TraceOutbox {
        &mut self.outbox
    }

    /// Applies one churn transition: flips the link, bumps the epoch
    /// (staling every route column), and wakes every router so heads
    /// that were waiting on — or newly have — a route re-decide.
    fn set_link_state(&mut self, link: usize, up: bool, t: SimTime) {
        if self.link_up[link] == up {
            return;
        }
        self.link_up[link] = up;
        self.epoch += 1;
        if self.outbox.is_on() {
            let from = NodeId((link / 4) as u16);
            let to = self
                .shape
                .neighbor(from, Direction::ALL[link % 4])
                .expect("churn only schedules physical links");
            let data = if up {
                TraceData::LinkUp { from: from.0, to: to.0, epoch: self.epoch }
            } else {
                TraceData::LinkDown { from: from.0, to: to.0, epoch: self.epoch }
            };
            self.outbox.push(from.0, t, ComponentId::MESH, data);
        }
        for node in 0..self.retry_at.len() {
            self.schedule_retry(NodeId(node as u16), t);
        }
    }

    /// The mesh geometry.
    pub fn shape(&self) -> MeshShape {
        self.shape
    }

    /// The configuration in force.
    pub fn config(&self) -> &MeshConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Per-directed-link usage: `(from, to, use)` for every link that
    /// carried traffic, in deterministic link-index order.
    pub fn link_usage(&self) -> Vec<(NodeId, NodeId, LinkUse)> {
        let mut out = Vec::new();
        for (i, u) in self.link_use.iter().enumerate() {
            if u.bytes == 0 {
                continue;
            }
            let node = NodeId((i / 4) as u16);
            let dir = Direction::ALL[i % 4];
            if let Some(to) = self.shape.neighbor(node, dir) {
                out.push((node, to, *u));
            }
        }
        out
    }

    /// The time of the latest processed internal event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// True if `node` can accept a packet into its injection port right
    /// now. When false, the sender's Outgoing FIFO has ceased draining —
    /// the upstream half of the paper's flow-control chain.
    pub fn can_inject(&self, node: NodeId) -> bool {
        self.routers[node.0 as usize].inputs[PORT_INJECT].occupancy()
            < self.config.input_buffer_packets
    }

    /// Offers a packet to `node`'s injection port at time `now`.
    /// Returns the packet back as `Err` if the injection buffer is full,
    /// so callers retry without cloning it every pump.
    ///
    /// # Panics
    ///
    /// Panics if the packet's source or destination is off-mesh, or if
    /// `now` is earlier than events already processed.
    pub fn try_inject(
        &mut self,
        now: SimTime,
        packet: MeshPacket<P>,
    ) -> Result<(), MeshPacket<P>> {
        assert!(self.shape.contains(packet.src()), "source off mesh");
        assert!(self.shape.contains(packet.dst()), "destination off mesh");
        assert!(now >= self.now, "injection in the past");
        let node = packet.src();
        if !self.can_inject(node) {
            return Err(packet);
        }
        let inflight = Some(InFlight {
            packet,
            injected_at: now,
            hops: 0,
            tail_at: now,
        });
        // Ids only name slots: the event queue breaks ties by sequence
        // number, never by packet id, so reusing a slot is invisible.
        let id = match self.free_ids.pop() {
            Some(id) => {
                self.packets[id] = inflight;
                id
            }
            None => {
                self.packets.push(inflight);
                self.packets.len() - 1
            }
        };
        self.in_flight += 1;
        self.stats.packets_injected += 1;
        self.routers[node.0 as usize].inputs[PORT_INJECT]
            .queue
            .push_back(id);
        self.schedule_retry(node, now);
        Ok(())
    }

    /// Processes all internal events up to and including `until`. A churn
    /// transition runs before every queued event of its instant.
    pub fn advance(&mut self, until: SimTime) {
        loop {
            let queued = self.events.peek_time();
            if let Some(at) = self.churn.next_time() {
                if at <= until && queued.is_none_or(|t| at <= t) {
                    let (at, link, up) = self.churn.pop();
                    self.now = self.now.max(at);
                    self.set_link_state(link, up, at);
                    continue;
                }
            }
            if queued.is_none_or(|t| t > until) {
                break;
            }
            let (t, ev) = self.events.pop().expect("peeked event must pop");
            self.now = self.now.max(t);
            match ev {
                Event::Arrive { packet, node, port } => {
                    self.routers[node.0 as usize].inputs[port].reserved -= 1;
                    // If the traversed link died while the packet was on
                    // the wire, the worm is torn: bounce it to its source
                    // NIC for go-back-N recovery instead of letting a
                    // half-arrived packet vanish.
                    if self.routes.is_some() && port != PORT_INJECT {
                        let feeder = self
                            .shape
                            .neighbor(node, Direction::ALL[port])
                            .expect("transit ports face a neighbor");
                        let link =
                            feeder.0 as usize * 4 + Direction::ALL[port].opposite().index();
                        if !self.link_up[link] {
                            self.bounce(packet, node, t);
                            continue;
                        }
                    }
                    self.routers[node.0 as usize].inputs[port].queue.push_back(packet);
                    self.try_forward(node, t);
                }
                Event::SlotDrained { node, port } => {
                    self.routers[node.0 as usize].inputs[port].draining -= 1;
                    // The feeder of this buffer may have been stalled on
                    // the freed slot.
                    if port != PORT_INJECT {
                        let dir = Direction::ALL[port];
                        if let Some(feeder) = self.shape.neighbor(node, dir) {
                            self.schedule_retry(feeder, t);
                        }
                    }
                    self.try_forward(node, t);
                }
                Event::Retry { node } => {
                    // Clear the dedup slot (stale earlier-time markers too).
                    if self.retry_at[node.0 as usize].is_some_and(|w| w <= t) {
                        self.retry_at[node.0 as usize] = None;
                    }
                    self.try_forward(node, t);
                }
            }
        }
    }

    /// The time of the next internal event or churn transition, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let queued = self.events.peek_time();
        match self.churn.next_time() {
            Some(at) => Some(queued.map_or(at, |t| t.min(at))),
            None => queued,
        }
    }

    /// Arrival time of the packet at the head of `node`'s ejection buffer.
    pub fn peek_ejection(&self, node: NodeId) -> Option<SimTime> {
        self.routers[node.0 as usize].ejection.front().map(|&(_, t)| t)
    }

    /// Calls `f` once for every node whose ejection buffer received a
    /// packet (delivered or bounced) since the previous drain, in the
    /// order the buffers first filled.
    pub fn drain_ejection_notices(&mut self, mut f: impl FnMut(NodeId)) {
        for node in self.ejection_notices.drain(..) {
            self.noticed[node as usize] = false;
            f(NodeId(node));
        }
    }

    /// Appends `packet` to `node`'s ejection buffer, noting the node for
    /// [`MeshNetwork::drain_ejection_notices`].
    fn push_ejection(&mut self, node: NodeId, packet: usize, arrival: SimTime) {
        self.routers[node.0 as usize].ejection.push_back((packet, arrival));
        if !std::mem::replace(&mut self.noticed[node.0 as usize], true) {
            self.ejection_notices.push(node.0);
        }
    }

    /// Frees packet `id`'s slab slot, returning what it held.
    fn release(&mut self, id: usize) -> InFlight<P> {
        let inflight = self.packets[id].take().expect("released packet must exist");
        self.free_ids.push(id);
        self.in_flight -= 1;
        inflight
    }

    /// Pulls the next delivered packet (and its arrival time) from `node`'s
    /// ejection buffer at the caller's time `now`. Pulling frees a slot,
    /// which may restart a stalled upstream pipeline: the mesh retries
    /// there at `now`, or at the arrival if that is later, never earlier.
    ///
    /// # Panics
    ///
    /// Panics if `now` is earlier than events already processed.
    pub fn eject(&mut self, now: SimTime, node: NodeId) -> Option<(MeshPacket<P>, SimTime)> {
        assert!(now >= self.now, "ejection in the past");
        let (id, arrival) = self.routers[node.0 as usize].ejection.pop_front()?;
        let inflight = self.release(id);
        self.stats.packets_ejected += 1;
        self.stats
            .transit_latency
            .record(arrival.since(inflight.injected_at).as_picos());
        self.stats.hops.record(inflight.hops as u64);
        self.schedule_retry(node, now.max(arrival));
        Some((inflight.packet, arrival))
    }

    /// True when nothing is in flight and no events or churn transitions
    /// are pending (undelivered packets sitting in ejection buffers count
    /// as in flight).
    pub fn is_idle(&self) -> bool {
        self.in_flight == 0 && self.events.is_empty() && self.churn.due.is_empty()
    }

    /// Number of packets injected but not yet ejected.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    fn serialization(&self, wire_len: u64) -> SimDuration {
        SimDuration::from_bytes_at_rate(wire_len, self.config.link_bytes_per_sec)
    }

    fn try_forward(&mut self, node: NodeId, t: SimTime) {
        for port in 0..NUM_PORTS {
            // A successful forward exposes the next queued packet, which
            // may also be forwardable (e.g. to a different output link).
            while self.try_forward_head(node, port, t) {}
        }
    }

    /// Attempts to forward the head packet of `(node, port)`.
    /// Returns true if the packet moved.
    fn try_forward_head(&mut self, node: NodeId, port: usize, t: SimTime) -> bool {
        let Some(&id) = self.routers[node.0 as usize].inputs[port].queue.front() else {
            return false;
        };
        let dst = self.packets[id].as_ref().expect("queued packet must exist").packet.dst();

        match self.route(node, port, dst) {
            RouteDecision::Eject => {
                // Eject into the bounded ejection buffer; the packet is
                // only complete (CRC-checkable) once its tail arrives.
                let tail_at = self.packets[id]
                    .as_ref()
                    .expect("queued packet must exist")
                    .tail_at;
                if tail_at > t {
                    self.schedule_retry(node, tail_at);
                    return false;
                }
                let router = &mut self.routers[node.0 as usize];
                if router.ejection.len() >= self.config.ejection_buffer_packets {
                    return false;
                }
                router.inputs[port].queue.pop_front();
                self.push_ejection(node, id, t);
                // The input slot frees immediately: wake the feeder.
                self.wake_feeder(node, port, t);
                true
            }
            RouteDecision::Unreachable => {
                // No legal west-first path under the current link set.
                // Wait for the tail (the bounce carries the whole
                // packet), then return it to the source NIC.
                let tail_at = self.packets[id]
                    .as_ref()
                    .expect("queued packet must exist")
                    .tail_at;
                if tail_at > t {
                    self.schedule_retry(node, tail_at);
                    return false;
                }
                self.routers[node.0 as usize].inputs[port].queue.pop_front();
                self.wake_feeder(node, port, t);
                self.bounce(id, node, t);
                true
            }
            RouteDecision::Forward(dir) => {
                let link_idx = node.0 as usize * 4 + dir.index();
                let link_free = self.link_free_at[link_idx];
                if link_free > t {
                    // Too early: retry when the link frees.
                    self.schedule_retry(node, link_free);
                    return false;
                }
                let down = self
                    .shape
                    .neighbor(node, dir)
                    .expect("route_next only returns on-mesh directions");
                let dport = dir.opposite().index();
                if self.routers[down.0 as usize].inputs[dport].occupancy()
                    >= self.config.input_buffer_packets
                {
                    // Downstream full: the SlotDrained/eject path will
                    // wake us when a credit frees.
                    return false;
                }

                let wire_len = self.packets[id]
                    .as_ref()
                    .expect("queued packet must exist")
                    .packet
                    .wire_len();
                let ser = self.serialization(wire_len);
                let fault = match self.faults.get_mut(link_idx).and_then(Option::as_mut) {
                    Some(site) => site.decide(),
                    None => LinkFault::NONE,
                };
                self.link_free_at[link_idx] = t + ser;
                self.stats.link_bytes += wire_len;
                self.link_use[link_idx].bytes += wire_len;
                self.link_use[link_idx].busy += ser;
                let src_buf = &mut self.routers[node.0 as usize].inputs[port];
                src_buf.queue.pop_front();
                src_buf.draining += 1;
                self.events.push(t + ser, Event::SlotDrained { node, port });
                if fault.drop {
                    // The wire serialized the bytes but the packet is
                    // gone: no downstream reservation, no Arrive.
                    self.release(id);
                    self.stats.packets_dropped += 1;
                    return true;
                }
                self.routers[down.0 as usize].inputs[dport].reserved += 1;
                if self.routes.is_some() && self.shape.route_next(node, dst) != Some(dir) {
                    self.stats.reroutes += 1;
                    if self.outbox.is_on() {
                        let src = self.packets[id]
                            .as_ref()
                            .expect("forwarding packet must exist")
                            .packet
                            .src();
                        let data = TraceData::PacketRerouted {
                            src: src.0,
                            dst: dst.0,
                            at: node.0,
                        };
                        self.outbox.push(node.0, t, ComponentId::MESH, data);
                    }
                }
                let inflight = self.packets[id].as_mut().expect("forwarding packet must exist");
                inflight.hops += 1;
                if fault.corrupt_bits > 0 {
                    // Line noise: flip bits in the payload's wire image.
                    // The payload's own integrity check (CRC for NIC
                    // packets) is expected to catch this downstream.
                    let payload_bits = inflight.packet.payload().byte_len().max(1) * 8;
                    let site = self.faults[link_idx].as_mut().expect("site decided above");
                    for _ in 0..fault.corrupt_bits {
                        let bit = site.pick_bit(payload_bits);
                        inflight.packet.payload_mut().corrupt_bit(bit);
                    }
                    self.stats.packets_corrupted += 1;
                }
                if fault.jitter > SimDuration::ZERO {
                    self.stats.packets_jittered += 1;
                }
                // Cut-through: the head is at the next router after one
                // hop latency; the tail follows one serialization later
                // (it cannot leave here before it has fully arrived).
                let head_at = t + self.config.hop_latency + fault.jitter;
                // The tail leaves once the link has serialized it and it
                // has fully arrived here, then rides the router pipeline.
                inflight.tail_at =
                    (t + ser).max(inflight.tail_at) + self.config.hop_latency + fault.jitter;
                self.events.push(
                    head_at,
                    Event::Arrive {
                        packet: id,
                        node: down,
                        port: dport,
                    },
                );
                true
            }
        }
    }

    /// The routing decision for the head of `(node, port)`: static
    /// dimension-order while the topology is fixed, west-first adaptive
    /// (the destination's column rebuilt lazily per link-state epoch)
    /// once churn is armed.
    fn route(&mut self, node: NodeId, port: usize, dst: NodeId) -> RouteDecision {
        let Some(routes) = self.routes.as_mut() else {
            return match self.shape.route_next(node, dst) {
                None => RouteDecision::Eject,
                Some(dir) => RouteDecision::Forward(dir),
            };
        };
        let channel = if port == PORT_INJECT {
            CH_START
        } else {
            Direction::ALL[port].opposite().index()
        };
        routes.decide(&self.link_up, self.epoch, node, channel, dst)
    }

    /// Returns packet `id` to its source node's ejection buffer. The
    /// bounce channel is out of band — not subject to the data ejection
    /// bound — so recovery cannot itself be backpressured into a
    /// deadlock; in practice it is bounded by the NICs' go-back-N
    /// windows.
    fn bounce(&mut self, id: usize, at: NodeId, t: SimTime) {
        let inflight = self.packets[id].as_ref().expect("bounced packet must exist");
        let src = inflight.packet.src();
        let dst = inflight.packet.dst();
        let back_at = t + self.config.hop_latency;
        self.push_ejection(src, id, back_at);
        self.stats.bounced += 1;
        let data = TraceData::PacketBounced {
            src: src.0,
            dst: dst.0,
            at: at.0,
        };
        self.outbox.push(at.0, t, ComponentId::MESH, data);
        // A mesh event at `back_at` so the host pumps ejections then.
        self.schedule_retry(src, back_at);
    }

    fn wake_feeder(&mut self, node: NodeId, port: usize, t: SimTime) {
        if port != PORT_INJECT {
            let dir = Direction::ALL[port];
            if let Some(feeder) = self.shape.neighbor(node, dir) {
                self.schedule_retry(feeder, t);
            }
        }
    }

    /// Pushes a Retry for `node` at `at` unless an earlier-or-equal one
    /// is already pending.
    fn schedule_retry(&mut self, node: NodeId, at: SimTime) {
        let slot = &mut self.retry_at[node.0 as usize];
        if slot.is_none_or(|w| at < w) {
            *slot = Some(at);
            self.events.push(at, Event::Retry { node });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::MeshShape;
    use shrimp_sim::{SimRng, Tracer};

    const FAR: SimTime = SimTime::from_picos(u64::MAX / 2);

    fn net(w: u16, h: u16) -> MeshNetwork {
        MeshNetwork::new(MeshConfig::paragon(MeshShape::new(w, h)))
    }

    fn pkt(src: u16, dst: u16, len: usize) -> MeshPacket {
        MeshPacket::new(NodeId(src), NodeId(dst), vec![0u8; len])
    }

    fn drain(net: &mut MeshNetwork, node: NodeId) -> Vec<(MeshPacket, SimTime)> {
        let mut out = Vec::new();
        loop {
            net.advance(FAR);
            match net.eject(net.now(), node) {
                Some(d) => out.push(d),
                None => break,
            }
        }
        out
    }

    #[test]
    fn delivers_across_the_mesh() {
        let mut n = net(4, 4);
        assert!(n.try_inject(SimTime::ZERO, pkt(0, 15, 32)).is_ok());
        let got = drain(&mut n, NodeId(15));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0.payload().len(), 32);
        assert!(n.is_idle());
        assert_eq!(n.stats().packets_ejected, 1);
        // 0 -> 15 on a 4x4 mesh is 6 hops.
        assert_eq!(n.stats().hops.max(), Some(6));
    }

    #[test]
    fn self_send_ejects_locally() {
        let mut n = net(2, 2);
        assert!(n.try_inject(SimTime::ZERO, pkt(1, 1, 8)).is_ok());
        let got = drain(&mut n, NodeId(1));
        assert_eq!(got.len(), 1);
        assert_eq!(n.stats().hops.max(), Some(0));
    }

    #[test]
    fn latency_scales_with_hops() {
        // Same payload, increasing distance on a 1-row mesh.
        let mut lat = Vec::new();
        for dst in [1u16, 2, 3, 4, 5, 6, 7] {
            let mut n = net(8, 1);
            n.try_inject(SimTime::ZERO, pkt(0, dst, 16)).unwrap();
            let got = drain(&mut n, NodeId(dst));
            lat.push(got[0].1.as_picos());
        }
        for w in lat.windows(2) {
            assert!(w[1] > w[0], "latency must grow with distance: {lat:?}");
        }
        // Per-hop increment is hop_latency + serialization, constant here.
        let d1 = lat[1] - lat[0];
        let d2 = lat[2] - lat[1];
        assert_eq!(d1, d2);
    }

    /// Injects `p`, making progress (advancing events, and ejecting
    /// delivered packets at `sink` into `got`) until the port accepts it.
    fn inject_with_progress(
        n: &mut MeshNetwork,
        now: &mut SimTime,
        mut p: MeshPacket,
        sink: NodeId,
        got: &mut Vec<(MeshPacket, SimTime)>,
    ) {
        loop {
            n.advance(*now);
            match n.try_inject(*now, p) {
                Ok(()) => return,
                Err(refused) => p = refused,
            }
            if let Some(next) = n.next_event_time() {
                n.advance(next);
                *now = (*now).max(next);
            } else {
                // Fully backpressured: the receiver must consume.
                got.push(
                    n.eject(*now, sink)
                        .expect("backpressured network must have a delivery"),
                );
            }
        }
    }

    #[test]
    fn in_order_per_sender_receiver_pair() {
        let mut n = net(4, 4);
        let mut now = SimTime::ZERO;
        let mut got = Vec::new();
        for i in 0..20u8 {
            let p = MeshPacket::new(NodeId(0), NodeId(15), vec![i; 8]);
            inject_with_progress(&mut n, &mut now, p, NodeId(15), &mut got);
        }
        got.extend(drain(&mut n, NodeId(15)));
        assert_eq!(got.len(), 20);
        for (i, (p, _)) in got.iter().enumerate() {
            assert_eq!(p.payload()[0], i as u8, "delivery must preserve order");
        }
    }

    #[test]
    fn arrival_times_are_monotonic_per_pair() {
        let mut n = net(4, 1);
        let mut now = SimTime::ZERO;
        for i in 0..10u8 {
            loop {
                if n.try_inject(now, MeshPacket::new(NodeId(0), NodeId(3), vec![i; 64])).is_ok() {
                    break;
                }
                let next = n.next_event_time().unwrap();
                n.advance(next);
                now = now.max(next);
            }
        }
        let got = drain(&mut n, NodeId(3));
        for w in got.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn injection_backpressure_when_buffer_full() {
        let mut n = MeshNetwork::new(MeshConfig::constrained(MeshShape::new(2, 1)));
        // Capacity 1: the first packet sits in the injection buffer until
        // forwarded; a second immediate injection must be refused.
        assert!(n.try_inject(SimTime::ZERO, pkt(0, 1, 900)).is_ok());
        assert!(!n.can_inject(NodeId(0)) || n.try_inject(SimTime::ZERO, pkt(0, 1, 900)).is_ok());
        drain(&mut n, NodeId(1));
    }

    #[test]
    fn blocked_receiver_backpressures_to_sender() {
        let mut n = MeshNetwork::new(MeshConfig::constrained(MeshShape::new(2, 1)));
        let mut accepted = 0;
        let mut now = SimTime::ZERO;
        // Never eject at node 1. Buffers: inject(1) + input(1) + eject(1).
        for _ in 0..50 {
            n.advance(now);
            if n.try_inject(now, pkt(0, 1, 100)).is_ok() {
                accepted += 1;
            }
            now += SimDuration::from_us(10);
        }
        n.advance(now);
        assert!(
            accepted <= 4,
            "backpressure must bound acceptance without ejection, got {accepted}"
        );
        assert!(n.in_flight() > 0);
        // Ejecting drains the pipeline completely.
        let got = drain(&mut n, NodeId(1));
        assert_eq!(got.len(), accepted);
        assert!(n.is_idle());
    }

    #[test]
    fn contention_serializes_on_shared_link() {
        // Nodes 0 and 1 both send to node 3 on a 4x1 mesh: the 2->3 link
        // is shared. Compare against node 1 sending alone.
        let payload = 1750; // 10 us serialization at 175 MB/s
        let mut solo = net(4, 1);
        solo.try_inject(SimTime::ZERO, pkt(1, 3, payload)).unwrap();
        let t_solo = drain(&mut solo, NodeId(3))[0].1;

        let mut shared = net(4, 1);
        shared.try_inject(SimTime::ZERO, pkt(0, 3, payload)).unwrap();
        shared.try_inject(SimTime::ZERO, pkt(1, 3, payload)).unwrap();
        let got = drain(&mut shared, NodeId(3));
        assert_eq!(got.len(), 2);
        let last = got.iter().map(|d| d.1).max().unwrap();
        assert!(
            last > t_solo,
            "contending packets must finish later than a solo packet"
        );
    }

    #[test]
    fn stats_account_for_traffic() {
        let mut n = net(3, 3);
        n.try_inject(SimTime::ZERO, pkt(0, 8, 100)).unwrap();
        drain(&mut n, NodeId(8));
        let s = n.stats();
        assert_eq!(s.packets_injected, 1);
        assert_eq!(s.packets_ejected, 1);
        // 4 hops, each serializing wire_len bytes.
        let wire = 100 + crate::packet::ROUTING_OVERHEAD_BYTES;
        assert_eq!(s.link_bytes, 4 * wire);
        assert!(s.transit_latency.count() == 1);
    }

    fn always_drop() -> shrimp_sim::FaultConfig {
        shrimp_sim::FaultConfig {
            seed: 1,
            link: shrimp_sim::LinkFaultConfig {
                drop_rate: 1.0,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn dropped_packets_never_arrive_but_leave_the_mesh_idle() {
        let mut n = net(2, 2);
        n.set_fault_injection(&always_drop());
        for _ in 0..4 {
            n.try_inject(n.now(), pkt(0, 3, 64)).unwrap();
            n.advance(FAR);
        }
        assert!(drain(&mut n, NodeId(3)).is_empty());
        assert!(n.is_idle(), "drops must not wedge the mesh");
        assert_eq!(n.stats().packets_dropped, 4);
        assert_eq!(n.stats().packets_ejected, 0);
    }

    #[test]
    fn inactive_fault_config_is_free() {
        let mut n = net(2, 2);
        n.set_fault_injection(&shrimp_sim::FaultConfig::default());
        n.try_inject(SimTime::ZERO, pkt(0, 3, 64)).unwrap();
        assert_eq!(drain(&mut n, NodeId(3)).len(), 1);
        assert_eq!(n.stats().packets_dropped, 0);
        assert_eq!(n.stats().packets_corrupted, 0);
    }

    #[test]
    fn fault_plans_are_deterministic() {
        let lossy = shrimp_sim::FaultConfig {
            seed: 9,
            link: shrimp_sim::LinkFaultConfig {
                drop_rate: 0.3,
                jitter_rate: 0.2,
                jitter: (SimDuration::from_ns(1), SimDuration::from_ns(80)),
                ..Default::default()
            },
            ..Default::default()
        };
        let run = || {
            let mut n = net(3, 3);
            n.set_fault_injection(&lossy);
            for i in 0..32u64 {
                let src = (i % 9) as u16;
                let dst = ((i + 4) % 9) as u16;
                if src == dst {
                    continue;
                }
                n.try_inject(n.now().max(SimTime::from_picos(i * 10)), pkt(src, dst, 80))
                    .unwrap();
                n.advance(FAR);
            }
            let mut got = 0;
            for node in 0..9 {
                got += drain(&mut n, NodeId(node)).len();
            }
            (got, n.stats().clone())
        };
        let (a_got, a_stats) = run();
        let (b_got, b_stats) = run();
        assert_eq!(a_got, b_got);
        assert_eq!(a_stats, b_stats);
        assert!(a_stats.packets_dropped > 0, "0.3 drop rate must fire");
    }

    /// Directed link index helper for churn tests.
    fn link(node: u16, dir: Direction) -> usize {
        node as usize * 4 + dir.index()
    }

    #[test]
    fn dead_link_reroutes_adaptively_and_delivers() {
        // 2x2 mesh: 0 -> 1 is one East hop. Kill it; west-first routes
        // the long way round (0 -> 2 -> 3 -> 1 or equivalent).
        let mut n = net(2, 2);
        n.routes = Some(RouteColumns::new(n.shape()));
        n.set_link_state(link(0, Direction::East), false, SimTime::ZERO);
        n.try_inject(SimTime::ZERO, pkt(0, 1, 64)).unwrap();
        let got = drain(&mut n, NodeId(1));
        assert_eq!(got.len(), 1, "the detour must deliver");
        assert_eq!(n.stats().hops.max(), Some(3), "non-minimal 3-hop detour");
        assert!(n.stats().reroutes > 0, "the adaptive path was taken");
        assert_eq!(n.stats().bounced, 0);
        assert!(n.is_idle());
    }

    #[test]
    fn unreachable_west_destination_bounces_to_source() {
        // 2x1 mesh: 1 -> 0 needs a West hop; with the only west link
        // dead there is no legal west-first detour. The packet must
        // come back to node 1's ejection buffer for go-back-N.
        let mut n = net(2, 1);
        n.routes = Some(RouteColumns::new(n.shape()));
        n.set_link_state(link(1, Direction::West), false, SimTime::ZERO);
        n.try_inject(SimTime::ZERO, pkt(1, 0, 64)).unwrap();
        assert!(drain(&mut n, NodeId(0)).is_empty(), "nothing reaches node 0");
        let back = drain(&mut n, NodeId(1));
        assert_eq!(back.len(), 1, "the packet bounces home");
        assert_eq!(back[0].0.dst(), NodeId(0), "unmodified original packet");
        assert_eq!(n.stats().bounced, 1);
        assert!(n.is_idle());
        // After repair the same route works again.
        n.set_link_state(link(1, Direction::West), true, n.now());
        n.try_inject(n.now(), pkt(1, 0, 64)).unwrap();
        assert_eq!(drain(&mut n, NodeId(0)).len(), 1);
    }

    #[test]
    fn packet_in_flight_across_dying_link_is_bounced() {
        // Head leaves node 0 at t=0 and arrives at t=hop_latency; the
        // link dies in between. The packet must bounce, not vanish.
        let mut n = net(2, 1);
        n.routes = Some(RouteColumns::new(n.shape()));
        n.try_inject(SimTime::ZERO, pkt(0, 1, 64)).unwrap();
        // Process the injection retry at t=0 only: the forward happens,
        // the Arrive is now in flight.
        n.advance(SimTime::ZERO);
        let mid = SimTime::from_picos(n.config().hop_latency.as_picos() / 2);
        n.set_link_state(link(0, Direction::East), false, mid);
        assert!(drain(&mut n, NodeId(1)).is_empty(), "the torn worm never arrives");
        let back = drain(&mut n, NodeId(0));
        assert_eq!(back.len(), 1, "the packet bounces to its source");
        assert_eq!(n.stats().bounced, 1);
        assert_eq!(n.stats().packets_dropped, 0, "a bounce is not a drop");
        assert!(n.is_idle());
    }

    #[test]
    fn churn_schedule_is_deterministic_and_settles() {
        let churned = shrimp_sim::FaultConfig {
            seed: 77,
            churn: shrimp_sim::LinkChurnConfig {
                times: 2,
                fail_after: (SimDuration::from_ns(100), SimDuration::from_us(4)),
                repair_after: (SimDuration::from_ns(500), SimDuration::from_us(2)),
            },
            ..Default::default()
        };
        let run = || {
            let mut n = net(3, 3);
            n.set_fault_injection(&churned);
            let mut now = SimTime::ZERO;
            let mut got = 0usize;
            let eject_all = |n: &mut MeshNetwork, got: &mut usize| {
                for node in 0..9 {
                    while n.eject(n.now(), NodeId(node)).is_some() {
                        *got += 1;
                    }
                }
            };
            for i in 0..40u64 {
                let src = (i % 9) as u16;
                let dst = ((i + 5) % 9) as u16;
                now = now.max(SimTime::from_picos(i * 300_000)).max(n.now());
                let mut p = pkt(src, dst, 80);
                let mut spins = 0;
                loop {
                    n.advance(now);
                    match n.try_inject(now.max(n.now()), p) {
                        Ok(()) => break,
                        Err(refused) => p = refused,
                    }
                    eject_all(&mut n, &mut got);
                    if let Some(next) = n.next_event_time() {
                        n.advance(next);
                        now = now.max(next);
                    }
                    spins += 1;
                    assert!(spins < 100_000, "injection starved under churn");
                }
            }
            loop {
                while let Some(t) = n.next_event_time() {
                    n.advance(t);
                }
                let before = got;
                eject_all(&mut n, &mut got);
                if got == before && n.next_event_time().is_none() {
                    break;
                }
            }
            // Every injected packet either arrived or bounced home;
            // nothing vanished and nothing wedged.
            assert!(n.is_idle(), "churn must not wedge the mesh");
            (got, n.stats().clone())
        };
        let (a_got, a_stats) = run();
        let (b_got, b_stats) = run();
        assert_eq!(a_got, b_got);
        assert_eq!(a_stats, b_stats);
        assert_eq!(
            a_stats.packets_injected,
            a_stats.packets_ejected,
            "bounces come back through ejection: totals reconcile"
        );
    }

    /// Churn transitions run in `(time, link)` order, each window's
    /// failure before its repair, and never enter the event queue:
    /// `next_event_time` names the next one while the queue is empty,
    /// and the mesh stays busy until the last repair.
    #[test]
    fn churn_transitions_follow_the_per_link_windows() {
        let us = SimDuration::from_us;
        // Fixed cycle lengths fail and heal every link at the same
        // instants, so the tie rule decides the whole order; drawn
        // lengths interleave the links.
        let plans = [
            ((us(1), us(1)), (us(2), us(2))),
            ((us(1), us(9)), (SimDuration::ZERO, us(3))),
        ];
        for (fail_after, repair_after) in plans {
            let cfg = shrimp_sim::FaultConfig {
                seed: 5,
                churn: shrimp_sim::LinkChurnConfig {
                    times: 3,
                    fail_after,
                    repair_after,
                },
                ..Default::default()
            };
            let mut n = net(3, 2);
            n.trace_outbox_mut().enable();
            n.set_fault_injection(&cfg);
            let mut want = Vec::new();
            for link in 0..n.link_up.len() {
                let from = NodeId((link / 4) as u16);
                let Some(to) = n.shape().neighbor(from, Direction::ALL[link % 4]) else {
                    continue;
                };
                for (down_at, up_at) in cfg.churn_windows(link as u64) {
                    want.push((SimTime::ZERO + down_at, link, from.0, to.0, false));
                    want.push((SimTime::ZERO + up_at, link, from.0, to.0, true));
                }
            }
            // Stable: each link keeps its own down-before-up order.
            want.sort_by_key(|&(t, link, ..)| (t, link));
            let want: Vec<_> = want
                .into_iter()
                .map(|(t, _, from, to, up)| (t, from, to, up))
                .collect();

            let mut tracer = Tracer::new(n.shape().nodes() as usize, 0, true);
            while let Some(t) = n.next_event_time() {
                assert!(n.events.is_empty(), "no transition enters the event queue");
                assert_eq!(n.churn.next_time(), Some(t));
                assert!(!n.is_idle(), "a pending transition keeps the mesh busy");
                n.advance(t);
                n.trace_outbox_mut().drain_into(&mut tracer);
            }
            assert!(n.is_idle());
            assert!(n.link_up.iter().all(|&up| up), "every failure was repaired");
            let got: Vec<_> = tracer
                .events()
                .iter()
                .map(|e| match e.data {
                    TraceData::LinkDown { from, to, .. } => (e.time, from, to, false),
                    TraceData::LinkUp { from, to, .. } => (e.time, from, to, true),
                    ref other => panic!("unexpected trace event {other:?}"),
                })
                .collect();
            assert_eq!(got.len(), 14 * 3 * 2, "14 directed links, 3 windows each");
            assert_eq!(got, want);
        }
    }

    /// A transition runs before the queued mesh events of its instant:
    /// a link that fails exactly when a packet's head arrives over it
    /// tears the worm, which bounces home.
    #[test]
    fn churn_transition_precedes_same_instant_traffic() {
        let hop = MeshConfig::paragon(MeshShape::new(2, 1)).hop_latency;
        let cfg = shrimp_sim::FaultConfig {
            seed: 3,
            churn: shrimp_sim::LinkChurnConfig {
                times: 1,
                fail_after: (hop, hop),
                repair_after: (SimDuration::from_us(1), SimDuration::from_us(1)),
            },
            ..Default::default()
        };
        let mut n = net(2, 1);
        n.set_fault_injection(&cfg);
        // Forwarded at 0, the head arrives at node 1 at `hop`, the very
        // instant every link fails.
        n.try_inject(SimTime::ZERO, pkt(0, 1, 64)).unwrap();
        assert!(drain(&mut n, NodeId(1)).is_empty(), "the torn worm never arrives");
        assert_eq!(drain(&mut n, NodeId(0)).len(), 1, "the packet bounces home");
        assert_eq!(n.stats().bounced, 1);
        assert!(n.is_idle());
    }

    /// An ejection by a host whose clock ran past the mesh's last event
    /// must not schedule mesh work before that clock (DESIGN.md §5d).
    #[test]
    fn ejection_never_schedules_before_the_callers_clock() {
        let mut n = net(2, 1);
        n.try_inject(SimTime::ZERO, pkt(0, 1, 64)).unwrap();
        n.advance(FAR);
        assert_eq!(n.next_event_time(), None);
        let arrival = n.peek_ejection(NodeId(1)).expect("the packet arrived");
        let host = n.now() + SimDuration::from_us(5);
        let (_, at) = n.eject(host, NodeId(1)).expect("one delivery");
        assert_eq!(at, arrival, "ejection keeps the arrival time");
        assert!(
            n.next_event_time().is_some_and(|t| t >= host),
            "mesh event at {:?}, before the host clock {host:?}",
            n.next_event_time()
        );
    }

    #[test]
    fn packet_slab_is_bounded_by_peak_in_flight() {
        let mut n = net(4, 4);
        let mut peak = 0;
        let mut injected = 0usize;
        for round in 0..200u16 {
            let burst = 1 + round % 6;
            for k in 0..burst {
                let src = (round + k) % 16;
                n.try_inject(n.now(), pkt(src, (src + 5) % 16, 48)).unwrap();
                injected += 1;
            }
            peak = peak.max(n.in_flight());
            n.advance(FAR);
            for node in 0..16 {
                while n.eject(n.now(), NodeId(node)).is_some() {}
            }
        }
        assert_eq!(n.stats().packets_ejected, injected as u64);
        assert!(peak * 50 < injected, "the test must recycle: peak {peak}");
        assert!(
            n.packets.len() <= peak,
            "slab grew to {} slots with at most {peak} packets in flight",
            n.packets.len()
        );
    }

    #[test]
    fn ejection_notices_name_each_filled_buffer_once() {
        let mut n = net(4, 1);
        for src in [0, 1, 2] {
            n.try_inject(SimTime::ZERO, pkt(src, 3, 16)).unwrap();
        }
        n.try_inject(SimTime::ZERO, pkt(3, 0, 16)).unwrap();
        n.advance(FAR);
        let mut noticed = Vec::new();
        n.drain_ejection_notices(|node| noticed.push(node.0));
        noticed.sort_unstable();
        assert_eq!(noticed, [0, 3], "one notice per filled buffer");
        n.drain_ejection_notices(|_| panic!("drained notices must not repeat"));
    }

    #[test]
    #[should_panic(expected = "destination off mesh")]
    fn off_mesh_destination_panics() {
        let mut n = net(2, 2);
        let _ = n.try_inject(SimTime::ZERO, pkt(0, 99, 4));
    }

    #[test]
    fn many_to_one_hotspot_delivers_everything() {
        let mut n = net(4, 4);
        let mut now = SimTime::ZERO;
        let mut sent = 0;
        let mut got = Vec::new();
        for round in 0..5 {
            for src in 0..16u16 {
                if src == 5 {
                    continue;
                }
                inject_with_progress(&mut n, &mut now, pkt(src, 5, 32 + round), NodeId(5), &mut got);
                sent += 1;
            }
        }
        got.extend(drain(&mut n, NodeId(5)));
        assert_eq!(n.stats().packets_ejected as usize, sent);
        assert_eq!(got.len(), sent);
        assert!(n.is_idle());
    }

    /// Uniform random traffic on a 4x4 mesh, each node holding up to
    /// four packets for injection, drains completely: no routing cycle
    /// wedges the mesh.
    #[test]
    fn uniform_traffic_never_wedges() {
        let mut n = net(4, 4);
        let mut rng = SimRng::seed_from(42);
        let mut queues: Vec<VecDeque<MeshPacket>> = (0..16).map(|_| VecDeque::new()).collect();
        let mut now = SimTime::ZERO;
        for _ in 0..60 {
            for src in 0..16u16 {
                let mut dst = rng.gen_range(0..16u16);
                while dst == src {
                    dst = rng.gen_range(0..16u16);
                }
                if queues[src as usize].len() < 4 {
                    queues[src as usize].push_back(pkt(src, dst, 128));
                }
            }
            n.advance(now);
            for node in 0..16u16 {
                while n.eject(now, NodeId(node)).is_some() {}
                while let Some(p) = queues[node as usize].pop_front() {
                    if let Err(p) = n.try_inject(now.max(n.now()), p) {
                        queues[node as usize].push_front(p);
                        break;
                    }
                }
            }
            now += SimDuration::from_us(4);
        }
        // Drain.
        let mut stall = 0;
        loop {
            let before = n.in_flight() + queues.iter().map(|q| q.len()).sum::<usize>();
            while let Some(t) = n.next_event_time() {
                n.advance(t);
                now = now.max(t);
            }
            for node in 0..16u16 {
                while n.eject(now, NodeId(node)).is_some() {}
                while let Some(p) = queues[node as usize].pop_front() {
                    if let Err(p) = n.try_inject(now.max(n.now()), p) {
                        queues[node as usize].push_front(p);
                        break;
                    }
                }
            }
            let after = n.in_flight() + queues.iter().map(|q| q.len()).sum::<usize>();
            if after == 0 {
                // Drain leftover (stale) retry events before the idle check.
                while let Some(t) = n.next_event_time() {
                    n.advance(t);
                }
                break;
            }
            if after == before && n.next_event_time().is_none() {
                stall += 1;
                assert!(stall < 3, "mesh wedged with {after} packets outstanding");
            } else {
                stall = 0;
            }
        }
        assert!(n.is_idle());
    }
}
