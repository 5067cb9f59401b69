//! The one trace sink and the events it records.
//!
//! Components describe what happened as typed [`TraceEvent`]s. The
//! machine owns the only [`Tracer`], which admits each event once into
//! a preallocated ring per node (the newest events, for panic dumps and
//! packet trails) and, when [`TelemetryConfig::trace`] is on, into the
//! log the Chrome exporter ([`crate::chrome`]) reads. Components the
//! machine cannot reach while they run (the mesh inside an advance, a
//! NIC inside a snoop) park their events in a [`TraceOutbox`] that the
//! machine drains. Payloads are a typed [`TraceData`] enum, never
//! pre-formatted strings, so with the sink off an emission site costs
//! one branch and builds nothing.

use std::fmt;

use crate::time::SimTime;

/// Identifies the component an event came from: a kind tag plus an
/// optional instance index (`nic0`, `mesh`, `machine`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComponentId {
    /// Component kind, e.g. `"nic"`.
    pub kind: &'static str,
    /// Instance index for per-node components.
    pub index: Option<u16>,
}

impl ComponentId {
    /// The machine / event loop itself.
    pub const MACHINE: ComponentId = ComponentId {
        kind: "machine",
        index: None,
    };

    /// The mesh backplane.
    pub const MESH: ComponentId = ComponentId {
        kind: "mesh",
        index: None,
    };

    /// The network interface of one node.
    pub const fn nic(node: u16) -> ComponentId {
        ComponentId {
            kind: "nic",
            index: Some(node),
        }
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.index {
            Some(i) => write!(f, "{}{}", self.kind, i),
            None => f.write_str(self.kind),
        }
    }
}

/// The structured payload of one trace event.
///
/// Variants carry the fields the event taxonomy in DESIGN.md §5c
/// defines; none of them allocate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceData {
    /// A data packet entered the mesh.
    PacketInjected {
        /// Source node.
        src: u16,
        /// Destination node.
        dst: u16,
        /// Wire bytes.
        bytes: u32,
        /// Go-back-N sequence number, when retransmission is on.
        seq: Option<u32>,
    },
    /// A packet's payload reached destination memory.
    PacketDelivered {
        /// Source node.
        src: u16,
        /// Destination node.
        dst: u16,
        /// Payload bytes.
        bytes: u32,
    },
    /// An Outgoing/Incoming FIFO crossed its programmable threshold.
    /// The Outgoing FIFO's raise is the interrupt that stalls the CPU
    /// until the FIFO drains (§4).
    FifoThreshold {
        /// `"out"` or `"in"`.
        fifo: &'static str,
        /// True when the threshold was exceeded, false when it cleared.
        raised: bool,
        /// FIFO occupancy in bytes at the transition.
        occupancy: u64,
    },
    /// The go-back-N retransmission timer fired.
    RetxTimeout {
        /// Peer node.
        peer: u16,
        /// Oldest unacknowledged sequence (replay starts here).
        base_seq: u32,
        /// Consecutive timeouts on this window (drives backoff).
        attempt: u32,
    },
    /// A frame was retransmitted.
    Retransmit {
        /// Peer node.
        peer: u16,
        /// Sequence number replayed.
        seq: u32,
    },
    /// An incoming-path DMA burst started.
    DmaStart {
        /// Destination node.
        node: u16,
        /// Bytes in the burst.
        bytes: u32,
    },
    /// An incoming-path DMA burst completed.
    DmaEnd {
        /// Destination node.
        node: u16,
        /// Bytes in the burst.
        bytes: u32,
    },
    /// `map()` installed a mapping.
    PageMapped {
        /// Destination node of the mapping.
        node: u16,
        /// Source virtual page number.
        page: u64,
    },
    /// `unmap()` tore a mapping down.
    PageUnmapped {
        /// Destination node of the mapping.
        node: u16,
        /// Source virtual page number.
        page: u64,
    },
    /// A directed mesh link failed (churn).
    LinkDown {
        /// Node the link leaves.
        from: u16,
        /// Node the link enters.
        to: u16,
        /// Link-state epoch after the transition.
        epoch: u64,
    },
    /// A failed directed mesh link was repaired.
    LinkUp {
        /// Node the link leaves.
        from: u16,
        /// Node the link enters.
        to: u16,
        /// Link-state epoch after the transition.
        epoch: u64,
    },
    /// Adaptive routing sent a packet off its static west-first path
    /// (churn rerouting).
    PacketRerouted {
        /// Source node.
        src: u16,
        /// Destination node.
        dst: u16,
        /// Node where the reroute decision was made.
        at: u16,
    },
    /// A packet hit a dead or unreachable link and was bounced back to
    /// its source.
    PacketBounced {
        /// Source node.
        src: u16,
        /// Destination node.
        dst: u16,
        /// Node where the bounce happened.
        at: u16,
    },
    /// A packet left the mesh into the destination's ejection buffer.
    PacketEjected {
        /// Source node.
        src: u16,
        /// Destination node.
        dst: u16,
        /// Wire bytes.
        bytes: u32,
    },
    /// Data arrived for a page whose one-shot arrival interrupt was
    /// armed, interrupting the CPU (§4.2).
    DataArrival {
        /// The physical page the data landed on.
        page: u64,
    },
    /// An arriving packet addressed a page that is not mapped in: the
    /// packet is dropped and the kernel interrupted.
    BadDelivery {
        /// The physical page the packet addressed.
        page: u64,
    },
}

impl TraceData {
    /// The `(src, dst)` packet lane this event belongs to, when it is
    /// part of a packet's lifecycle (inject → route/reroute/bounce →
    /// eject → deliver). [`Tracer::trail`] filters on it.
    pub fn packet_lane(&self) -> Option<(u16, u16)> {
        match *self {
            TraceData::PacketInjected { src, dst, .. }
            | TraceData::PacketDelivered { src, dst, .. }
            | TraceData::PacketRerouted { src, dst, .. }
            | TraceData::PacketBounced { src, dst, .. }
            | TraceData::PacketEjected { src, dst, .. } => Some((src, dst)),
            _ => None,
        }
    }
}

impl fmt::Display for TraceData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceData::PacketInjected {
                src,
                dst,
                bytes,
                seq,
            } => match seq {
                Some(s) => write!(f, "packet injected {src}->{dst} {bytes}B seq={s}"),
                None => write!(f, "packet injected {src}->{dst} {bytes}B"),
            },
            TraceData::PacketDelivered { src, dst, bytes } => {
                write!(f, "packet delivered {src}->{dst} {bytes}B")
            }
            TraceData::FifoThreshold {
                fifo,
                raised,
                occupancy,
            } => write!(
                f,
                "{fifo} fifo threshold {} at {occupancy}B",
                if *raised { "raised" } else { "cleared" }
            ),
            TraceData::RetxTimeout {
                peer,
                base_seq,
                attempt,
            } => write!(f, "retx timeout peer={peer} base_seq={base_seq} attempt={attempt}"),
            TraceData::Retransmit { peer, seq } => {
                write!(f, "retransmit peer={peer} seq={seq}")
            }
            TraceData::DmaStart { node, bytes } => write!(f, "dma start node={node} {bytes}B"),
            TraceData::DmaEnd { node, bytes } => write!(f, "dma end node={node} {bytes}B"),
            TraceData::PageMapped { node, page } => {
                write!(f, "page mapped dst_node={node} src_page={page}")
            }
            TraceData::PageUnmapped { node, page } => {
                write!(f, "page unmapped dst_node={node} src_page={page}")
            }
            TraceData::LinkDown { from, to, epoch } => {
                write!(f, "link down {from}->{to} epoch={epoch}")
            }
            TraceData::LinkUp { from, to, epoch } => {
                write!(f, "link up {from}->{to} epoch={epoch}")
            }
            TraceData::PacketRerouted { src, dst, at } => {
                write!(f, "packet rerouted {src}->{dst} at node {at}")
            }
            TraceData::PacketBounced { src, dst, at } => {
                write!(f, "packet bounced {src}->{dst} at node {at}")
            }
            TraceData::PacketEjected { src, dst, bytes } => {
                write!(f, "packet ejected {src}->{dst} {bytes}B")
            }
            TraceData::DataArrival { page } => write!(f, "data arrival interrupt page={page}"),
            TraceData::BadDelivery { page } => write!(f, "bad delivery interrupt page={page}"),
        }
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// When the event happened.
    pub time: SimTime,
    /// Which component emitted it.
    pub component: ComponentId,
    /// Structured payload.
    pub data: TraceData,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {}] {}", self.time, self.component, self.data)
    }
}

/// One event in a node's ring, with the global admission sequence
/// number that makes a dump's order total even for same-picosecond
/// events.
#[derive(Debug, Clone)]
pub struct FlightEntry {
    /// Global monotonically increasing admission number.
    pub seq: u64,
    /// Node ring this entry was recorded into.
    pub node: usize,
    /// The recorded event.
    pub event: TraceEvent,
}

/// One node's ring: `(seq, event)` slots, pushed until the ring is
/// full and then overwritten oldest first. The node is the ring's index.
#[derive(Debug, Clone)]
struct Ring {
    buf: Vec<(u64, TraceEvent)>,
    /// The slot the next event takes.
    next: usize,
}

/// The machine's one trace sink (DESIGN.md §5c, §5h).
///
/// [`Tracer::emit`] admits each event once, under one global sequence
/// number, into
/// - `node`'s ring, preallocated with room for `capacity` events: the
///   newest overwrites the oldest, with no allocation per event;
/// - the log of every event in admission order, kept only when it was
///   asked for ([`TelemetryConfig::trace`]).
///
/// With no ring and no log nothing is admitted, and emission sites
/// check [`Tracer::is_on`] before building an event.
///
/// # Examples
///
/// ```
/// use shrimp_sim::{SimTime, Tracer};
/// use shrimp_sim::trace::{ComponentId, TraceData, TraceEvent};
///
/// let mut tracer = Tracer::new(2, 4, true);
/// tracer.emit(1, TraceEvent {
///     time: SimTime::ZERO,
///     component: ComponentId::nic(1),
///     data: TraceData::PacketInjected { src: 1, dst: 0, bytes: 22, seq: None },
/// });
/// assert_eq!(tracer.events().len(), 1);
/// assert_eq!(tracer.dump()[0].node, 1);
/// assert!(tracer.contains("packet injected"));
/// ```
#[derive(Debug, Clone)]
pub struct Tracer {
    rings: Vec<Ring>,
    capacity: usize,
    seq: u64,
    log: Option<Vec<TraceEvent>>,
}

impl Tracer {
    /// Preallocates `nodes` rings of `capacity` events each, and keeps
    /// the log when `log` is set.
    pub fn new(nodes: usize, capacity: usize, log: bool) -> Self {
        let rings = (0..nodes)
            .map(|_| Ring {
                buf: Vec::with_capacity(capacity),
                next: 0,
            })
            .collect();
        Tracer {
            rings,
            capacity,
            seq: 0,
            log: log.then(Vec::new),
        }
    }

    /// Whether an emitted event is kept anywhere.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.capacity > 0 || self.log.is_some()
    }

    /// Ring capacity per node.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Admits `event` into `node`'s ring and the log.
    #[inline]
    pub fn emit(&mut self, node: usize, event: TraceEvent) {
        if !self.is_on() {
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        if self.capacity > 0 {
            let ring = &mut self.rings[node];
            if ring.buf.len() < self.capacity {
                ring.buf.push((seq, event));
            } else {
                ring.buf[ring.next] = (seq, event);
            }
            ring.next += 1;
            if ring.next == self.capacity {
                ring.next = 0;
            }
        }
        if let Some(log) = &mut self.log {
            log.push(event);
        }
    }

    /// Events ever admitted, including those the rings overwrote.
    pub fn recorded(&self) -> u64 {
        self.seq
    }

    /// The log: every admitted event in admission order, or nothing
    /// when the log is off.
    pub fn events(&self) -> &[TraceEvent] {
        self.log.as_deref().unwrap_or_default()
    }

    /// True if any logged event's rendered form contains `needle`.
    pub fn contains(&self, needle: &str) -> bool {
        self.events().iter().any(|e| e.data.to_string().contains(needle))
    }

    /// Every entry the rings retain, sorted by `(time, seq)`: a total,
    /// stable order.
    pub fn dump(&self) -> Vec<FlightEntry> {
        self.retained(|_| true)
    }

    /// Retained entries on the packet lane `src → dst`, `(time, seq)`
    /// sorted: the causal trail of its transfers through inject →
    /// route/reroute/bounce → eject → deliver.
    pub fn trail(&self, src: u16, dst: u16) -> Vec<FlightEntry> {
        self.retained(|e| e.data.packet_lane() == Some((src, dst)))
    }

    fn retained(&self, keep: impl Fn(&TraceEvent) -> bool) -> Vec<FlightEntry> {
        let mut out: Vec<FlightEntry> = self
            .rings
            .iter()
            .enumerate()
            .flat_map(|(node, r)| {
                r.buf.iter().map(move |&(seq, event)| FlightEntry { seq, node, event })
            })
            .filter(|e| keep(&e.event))
            .collect();
        out.sort_by_key(|e| (e.event.time, e.seq));
        out
    }

    /// Renders the retained entries one line per event, oldest first:
    /// the panic-dump format.
    pub fn render(&self) -> String {
        let entries = self.dump();
        let mut out = String::with_capacity(entries.len() * 64);
        out.push_str(&format!(
            "--- flight recorder: {} retained of {} recorded ---\n",
            entries.len(),
            self.recorded()
        ));
        for e in &entries {
            out.push_str(&format!(
                "[{:>12} ps] seq={:<6} node={:<3} {}\n",
                e.event.time.as_picos(),
                e.seq,
                e.node,
                e.event.data
            ));
        }
        out
    }
}

/// Trace events a component raised where the machine's [`Tracer`]
/// cannot reach (inside a mesh advance, a NIC snoop), each with the
/// node whose ring it belongs to. The machine drains it into the
/// tracer (DESIGN.md §5h). Off by default, when it keeps nothing; the
/// machine enables it when its tracer is on.
#[derive(Debug, Clone, Default)]
pub struct TraceOutbox {
    on: bool,
    events: Vec<(u16, TraceEvent)>,
}

impl TraceOutbox {
    /// Starts keeping events.
    pub fn enable(&mut self) {
        self.on = true;
    }

    /// Whether pushed events are kept. Sites whose payload costs work
    /// to compute check it first.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Keeps `data`, raised by `component` at `time`, for `node`'s ring.
    #[inline]
    pub fn push(&mut self, node: u16, time: SimTime, component: ComponentId, data: TraceData) {
        if self.on {
            self.events.push((node, TraceEvent { time, component, data }));
        }
    }

    /// True when nothing waits to be drained.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Moves every kept event into `tracer`, in the order pushed.
    pub fn drain_into(&mut self, tracer: &mut Tracer) {
        for (node, event) in self.events.drain(..) {
            tracer.emit(node as usize, event);
        }
    }
}

/// What the machine observes about itself: every knob defaults to a
/// state that cannot perturb simulation results, and an all-off config
/// must be bit-identical to a machine without the telemetry subsystem
/// (pinned by `tests/determinism.rs` and `tests/profiling.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Keep every trace event in the tracer's log, which the Chrome
    /// export reads. The log grows with the run.
    pub trace: bool,
    /// Record per-packet lifecycle latency histograms and breakdowns.
    pub latency: bool,
    /// Collect wall-clock engine phase attribution (`engine.profile.*`).
    /// Wall times never enter the deterministic metrics snapshot, so
    /// this cannot perturb results either way.
    pub profile: bool,
    /// Trace events kept per node in the tracer's ring (the newest
    /// win), for panic dumps and packet trails. With `0` and `trace`
    /// off no trace event is built at all; the default keeps a small
    /// ring always on.
    pub flight_recorder: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            trace: false,
            latency: false,
            profile: false,
            flight_recorder: 64,
        }
    }
}

impl TelemetryConfig {
    /// Everything on.
    pub fn full() -> Self {
        TelemetryConfig {
            trace: true,
            latency: true,
            profile: true,
            flight_recorder: 256,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, src: u16, dst: u16) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_picos(t),
            component: ComponentId::MESH,
            data: TraceData::PacketInjected {
                src,
                dst,
                bytes: 64,
                seq: None,
            },
        }
    }

    #[test]
    fn ring_wraps_at_capacity_keeping_newest() {
        let mut t = Tracer::new(1, 3, false);
        for i in 0..5u64 {
            t.emit(0, ev(i, 0, 1));
        }
        let d = t.dump();
        assert_eq!(t.recorded(), 5);
        assert_eq!(d.len(), 3, "ring retains exactly its capacity");
        let times: Vec<u64> = d.iter().map(|e| e.event.time.as_picos()).collect();
        assert_eq!(times, vec![2, 3, 4], "oldest entries overwritten first");
        assert!(t.events().is_empty(), "no log unless asked for");
    }

    #[test]
    fn dump_is_time_then_seq_sorted_across_rings() {
        let mut t = Tracer::new(3, 4, false);
        // Interleave same-time events across rings; admission order
        // (seq) must break the tie deterministically.
        t.emit(2, ev(10, 2, 0));
        t.emit(0, ev(5, 0, 1));
        t.emit(1, ev(10, 1, 2));
        t.emit(0, ev(7, 0, 2));
        let d = t.dump();
        let keys: Vec<(u64, u64)> = d.iter().map(|e| (e.event.time.as_picos(), e.seq)).collect();
        assert_eq!(keys, vec![(5, 1), (7, 3), (10, 0), (10, 2)]);
    }

    #[test]
    fn off_tracer_admits_nothing() {
        let mut t = Tracer::new(4, 0, false);
        assert!(!t.is_on());
        t.emit(0, ev(1, 0, 1));
        assert_eq!(t.recorded(), 0);
        assert!(t.dump().is_empty() && t.events().is_empty());
    }

    #[test]
    fn log_keeps_every_event_in_admission_order() {
        let mut t = Tracer::new(2, 1, true);
        for i in 0..3u64 {
            t.emit(1, ev(10 - i, 1, 0));
        }
        let times: Vec<u64> = t.events().iter().map(|e| e.time.as_picos()).collect();
        assert_eq!(times, vec![10, 9, 8], "the log is unbounded and unsorted");
        assert_eq!(t.dump().len(), 1, "the ring still keeps its capacity");
        assert_eq!(t.recorded(), 3);

        let mut log_only = Tracer::new(2, 0, true);
        assert!(log_only.is_on());
        log_only.emit(0, ev(1, 0, 1));
        assert_eq!((log_only.events().len(), log_only.dump().len()), (1, 0));
    }

    #[test]
    fn trail_filters_by_packet_lane() {
        let mut t = Tracer::new(2, 8, false);
        t.emit(0, ev(1, 0, 1));
        t.emit(1, ev(2, 1, 0));
        t.emit(0, ev(3, 0, 1));
        let trail = t.trail(0, 1);
        assert_eq!(trail.len(), 2);
        assert!(trail.iter().all(|e| e.event.data.packet_lane() == Some((0, 1))));
        assert!(t.trail(3, 3).is_empty());
    }

    #[test]
    fn render_mentions_counts_and_events() {
        let mut t = Tracer::new(1, 2, false);
        t.emit(0, ev(42, 0, 1));
        let s = t.render();
        assert!(s.contains("1 retained of 1 recorded"));
        assert!(s.contains("42"));
    }

    #[test]
    fn outbox_keeps_nothing_until_enabled_and_drains_in_order() {
        let mut outbox = TraceOutbox::default();
        let mut t = Tracer::new(2, 4, true);
        outbox.push(1, SimTime::ZERO, ComponentId::MESH, ev(0, 0, 1).data);
        assert!(outbox.is_empty() && !outbox.is_on());
        outbox.enable();
        outbox.push(1, SimTime::from_picos(9), ComponentId::MESH, ev(9, 0, 1).data);
        outbox.push(0, SimTime::from_picos(3), ComponentId::nic(0), ev(3, 1, 0).data);
        outbox.drain_into(&mut t);
        assert!(outbox.is_empty());
        let admitted: Vec<(u64, usize)> = t.dump().iter().map(|e| (e.seq, e.node)).collect();
        assert_eq!(admitted, vec![(1, 0), (0, 1)], "pushed order, each in its node's ring");
    }

    #[test]
    fn contains_matches_rendered_log_events() {
        let mut t = Tracer::new(2, 4, true);
        t.emit(
            0,
            TraceEvent {
                time: SimTime::ZERO,
                component: ComponentId::nic(0),
                data: TraceData::PacketInjected {
                    src: 0,
                    dst: 1,
                    bytes: 22,
                    seq: Some(7),
                },
            },
        );
        t.emit(
            1,
            TraceEvent {
                time: SimTime::ZERO,
                component: ComponentId::nic(1),
                data: TraceData::PacketDelivered {
                    src: 0,
                    dst: 1,
                    bytes: 22,
                },
            },
        );
        assert!(t.contains("seq=7"));
        assert!(t.contains("delivered"));
        assert!(!t.contains("dropped"));
    }

    #[test]
    fn display_formats_fields() {
        let e = TraceEvent {
            time: SimTime::ZERO,
            component: ComponentId::nic(3),
            data: TraceData::FifoThreshold {
                fifo: "out",
                raised: true,
                occupancy: 4096,
            },
        };
        let s = e.to_string();
        assert!(s.contains("nic3"), "{s}");
        assert!(s.contains("out fifo threshold raised at 4096B"), "{s}");
        assert_eq!(
            TraceData::DataArrival { page: 4 }.to_string(),
            "data arrival interrupt page=4"
        );
    }

    /// Every ring slot is preallocated, so a slot must not grow: 1024
    /// nodes of 64 slots stay within 1024 × 64 × 72 B.
    #[test]
    fn ring_slots_stay_small() {
        assert!(std::mem::size_of::<(u64, TraceEvent)>() <= 72);
    }

    #[test]
    fn telemetry_config_defaults_off() {
        let c = TelemetryConfig::default();
        assert!(!c.trace && !c.latency && !c.profile);
        assert!(c.flight_recorder > 0, "the ring rides along by default");
        let f = TelemetryConfig::full();
        assert!(f.trace && f.latency && f.profile);
    }

    #[test]
    fn packet_lane_covers_lifecycle_variants_only() {
        let lane = |d: TraceData| d.packet_lane();
        assert_eq!(
            lane(TraceData::PacketInjected { src: 2, dst: 5, bytes: 64, seq: None }),
            Some((2, 5))
        );
        assert_eq!(lane(TraceData::PacketRerouted { src: 2, dst: 5, at: 3 }), Some((2, 5)));
        assert_eq!(lane(TraceData::PacketBounced { src: 2, dst: 5, at: 3 }), Some((2, 5)));
        assert_eq!(lane(TraceData::PacketEjected { src: 2, dst: 5, bytes: 64 }), Some((2, 5)));
        assert_eq!(lane(TraceData::PacketDelivered { src: 2, dst: 5, bytes: 64 }), Some((2, 5)));
        assert_eq!(lane(TraceData::DmaStart { node: 2, bytes: 64 }), None);
        assert_eq!(lane(TraceData::LinkDown { from: 0, to: 1, epoch: 1 }), None);
        assert_eq!(lane(TraceData::BadDelivery { page: 7 }), None);
    }
}
