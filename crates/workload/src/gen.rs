//! The closed-loop session generator: drives a [`Machine`] through the
//! ordinary host API (map / poke / run) according to a parsed
//! [`Scenario`], keeping at most `users` sessions in flight and opening
//! the next one the moment a slot frees — the closed loop.
//!
//! # Determinism
//!
//! Every random choice comes from a per-session `SimRng` stream derived
//! from the scenario seed and the session's global open index, never
//! from iteration order of a hash map or from wall-clock state. The
//! generator advances the machine only through `run_until` /
//! `run_until_pred`, so an entire scenario run — delivery log, hashes,
//! metrics — replays exactly from its seed.
//!
//! # Engine serialization
//!
//! A node has one outgoing DMA engine, and a host-issued command to a
//! busy engine is dropped by the hardware (the CPU-side idiom is the
//! CMPXCHG retry loop). The generator therefore serializes deliberate
//! transfers per source node: one in flight, the rest queued FIFO and
//! issued as completions arrive. Automatic-update (DSM) writes bypass
//! the engine and need no serialization.

use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::cmp::Reverse;

use shrimp_core::{Machine, MachineConfig, MachineError, MapRequest};
use shrimp_core::pram::SharedPair;
use shrimp_mem::{VirtAddr, PAGE_SIZE, WORD_SIZE};
use shrimp_mesh::{MeshShape, NodeId};
use shrimp_nic::{RetxConfig, UpdatePolicy};
use shrimp_os::Pid;
use shrimp_sim::{
    FaultConfig, Histogram, LinkChurnConfig, LinkFaultConfig, SimDuration, SimRng, SimTime,
};

use crate::dsl::{DurRange, NodeSel, Scenario, SessionKind};
use crate::report::{delivery_hash, Report};

/// Per-wait simulated-time horizon: a scenario whose next delivery is
/// further away than this is declared stalled.
const WAIT_HORIZON: SimDuration = SimDuration::from_ms(10_000);

/// Rng stream id base for session streams (distinct from the fault
/// layer's site streams, which hash their own site ids).
const SESSION_STREAM_BASE: u64 = 0x5e55_1000;

/// A workload run failure.
#[derive(Debug)]
pub enum WorkloadError {
    /// The machine rejected an operation.
    Machine(MachineError),
    /// The machine idled (or passed the wait horizon) with sessions
    /// still waiting on deliveries — a lost transfer.
    Stalled {
        /// Simulated time of the stall.
        at_ps: u64,
        /// Sessions still open.
        open_sessions: u64,
        /// Sessions that did complete before the stall.
        completed: u64,
        /// Deliveries observed before the stall.
        deliveries: u64,
    },
}

impl From<MachineError> for WorkloadError {
    fn from(e: MachineError) -> Self {
        WorkloadError::Machine(e)
    }
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::Machine(e) => write!(f, "machine error: {e}"),
            WorkloadError::Stalled { at_ps, open_sessions, completed, deliveries } => {
                write!(
                    f,
                    "workload stalled at {at_ps} ps with {open_sessions} open sessions \
                     ({completed} completed, {deliveries} deliveries seen)"
                )
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Runs a scenario on a freshly built machine.
///
/// # Errors
///
/// Propagates machine errors and stalls.
pub fn run_scenario(sc: &Scenario) -> Result<Report, WorkloadError> {
    run_scenario_observed(sc).map(|(r, _)| r)
}

/// Runs a scenario and also hands back the finished machine, for tests
/// that inspect telemetry beyond what the report summarizes.
///
/// # Errors
///
/// Propagates machine errors and stalls.
pub fn run_scenario_observed(sc: &Scenario) -> Result<(Report, Machine), WorkloadError> {
    run_scenario_tuned(sc, None, |_| {})
}

/// Runs a scenario with a final hook over the built [`MachineConfig`],
/// for callers that flip telemetry knobs (profview turns on the engine
/// profiler this way) without re-deriving the scenario→config mapping.
///
/// The tweak runs last, after the scenario's own settings, so it can
/// override anything.
///
/// The second parameter is unused. It stays because the standalone
/// benchmark package (`crates/bench/src/bin/benchmark`) passes `None`
/// here and must keep building unchanged; drop it together with that
/// argument.
///
/// # Errors
///
/// Propagates machine errors and stalls.
pub fn run_scenario_tuned(
    sc: &Scenario,
    _unused: Option<usize>,
    tune: impl FnOnce(&mut MachineConfig),
) -> Result<(Report, Machine), WorkloadError> {
    let mut cfg = MachineConfig::prototype(MeshShape::new(sc.mesh.0, sc.mesh.1));
    cfg.pages_per_node = sc.pages;
    cfg.nic_backend = sc.nic;
    cfg.telemetry.latency = true;
    // Always reliable: under incast congestion a full-page packet can
    // arrive when the receive FIFO is past its backpressure threshold
    // but holds less than a page of headroom, and without go-back-N
    // that drop is permanent — the session would wait forever.
    cfg.nic.retx = RetxConfig::reliable();
    if let Some(f) = &sc.fault {
        cfg.fault = FaultConfig {
            seed: f.seed,
            link: LinkFaultConfig {
                drop_rate: f.drop,
                corrupt_rate: f.corrupt,
                ..LinkFaultConfig::default()
            },
            ..FaultConfig::default()
        };
    }
    if let Some(c) = &sc.churn {
        // The churn stream derives from the fault-line seed when one is
        // present (so `fault` + `link` share a fault universe) and from
        // the scenario seed otherwise.
        if sc.fault.is_none() {
            cfg.fault.seed = sc.seed;
        }
        cfg.fault.churn = LinkChurnConfig {
            times: c.times,
            fail_after: (c.fail.lo, c.fail.hi),
            repair_after: (c.repair.lo, c.repair.hi),
        };
    }
    tune(&mut cfg);
    let mut generator = Generator::new(sc, Machine::new(cfg));
    generator.run_to_completion()?;
    Ok(generator.into_parts())
}

// ───────────────────────────── plumbing types ────────────────────────────

/// One unidirectional delivery target: either a deliberate-update
/// mapping bundle (with command pages) or one direction of a DSM pair.
struct Link {
    /// Sender node (owns the DMA engine for deliberate links).
    src: NodeId,
    /// Sender process.
    src_pid: Pid,
    /// Deliberate issue state; `None` for DSM (automatic) links.
    deliberate: Option<Deliberate>,
}

/// Issue handles for a deliberate link.
struct Deliberate {
    /// Base of the source pages.
    data_va: VirtAddr,
    /// One command page VA per source page.
    cmd_vas: Vec<VirtAddr>,
}

/// An outstanding delivery expectation on a link.
struct Pending {
    /// Owning session slot.
    slot: usize,
    /// Bytes still to arrive.
    bytes_left: u64,
}

/// A deliberate transfer waiting for its source node's engine.
struct TransferReq {
    /// Which link carries it.
    link: usize,
    /// Owning session slot.
    slot: usize,
    /// Source page index within the link.
    page: u32,
    /// Transfer size in words.
    words: u32,
    /// Optional payload to poke into the data page before the command.
    fill: Option<Vec<u8>>,
}

/// The per-(spec, src, dst) reusable mapping bundle. Mappings pin pages
/// for their lifetime, so channels are pooled and never torn down: 10k
/// sessions reuse the bundles of at most `users` concurrent ones.
enum Channel {
    Rpc { req: usize, rsp: usize },
    Stream { link: usize },
    Fanout { links: Vec<usize> },
    Dsm { ab: usize, ba: usize, pair: SharedPair },
}

/// What a session does next when its heap action fires.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Client/root/writer performs its next op.
    Issue,
    /// RPC server sends the response.
    Respond,
}

/// Per-session progress.
struct Session {
    spec: usize,
    channel: usize,
    src: NodeId,
    dst: NodeId,
    rng: SimRng,
    opened_at: SimTime,
    /// RPC: exchanges left. Stream: pages left. Fanout: rounds left.
    /// DSM: ops left.
    remaining: u32,
    /// Fanout: leaf deliveries outstanding this round.
    outstanding: u16,
    /// RPC: when the current request was initiated (op latency start).
    issued_at: SimTime,
    /// Session payload bytes delivered so far.
    bytes: u64,
}

/// Latency/duration accounting for one session kind.
#[derive(Default)]
pub(crate) struct KindStats {
    pub completed: u64,
    pub duration: Histogram,
    pub op_latency: Histogram,
    pub e2e: Histogram,
    pub out_fifo: Histogram,
    pub mesh: Histogram,
    pub in_fifo: Histogram,
    pub dma: Histogram,
}

/// Index of a kind into the stats array.
fn kind_index(k: &SessionKind) -> usize {
    match k {
        SessionKind::Rpc { .. } => 0,
        SessionKind::Stream { .. } => 1,
        SessionKind::Fanout { .. } => 2,
        SessionKind::Dsm { .. } => 3,
    }
}

pub(crate) const KIND_NAMES: [&str; 4] = ["rpc", "stream", "fanout", "dsm"];

// ───────────────────────────── the generator ─────────────────────────────

struct Generator<'a> {
    sc: &'a Scenario,
    m: Machine,
    pids: Vec<Pid>,

    links: Vec<Link>,
    pending: Vec<Option<Pending>>,
    /// (dst node, physical page) → link, for delivery attribution.
    route: BTreeMap<(u16, u64), usize>,
    /// Per-node deliberate transfer in flight (link id).
    engine_busy: Vec<Option<usize>>,
    /// Per-node queued transfers.
    engine_queue: Vec<VecDeque<TransferReq>>,

    channels: Vec<Channel>,
    pool: BTreeMap<(usize, u16, u16), Vec<usize>>,

    sessions: Vec<Option<Session>>,
    /// Spec index of each session instance, round-robin interleaved.
    order: Vec<usize>,
    next_instance: usize,
    active: usize,
    /// Links with an outstanding expectation.
    inflight: usize,

    /// (due, seq, slot, step): total order ties broken by issue seq.
    heap: BinaryHeap<Reverse<(SimTime, u64, usize, StepKey)>>,
    seq: u64,
    /// Delivery-log read cursor (also indexes telemetry records).
    cursor: usize,

    stats: [KindStats; 4],
    /// Session durations across all kinds (the bench's p50/p95/p99).
    duration_all: Histogram,
    goodput: u64,
}

/// `Step` as an orderable heap key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum StepKey {
    Issue,
    Respond,
}

impl From<Step> for StepKey {
    fn from(s: Step) -> Self {
        match s {
            Step::Issue => StepKey::Issue,
            Step::Respond => StepKey::Respond,
        }
    }
}

impl<'a> Generator<'a> {
    fn new(sc: &'a Scenario, mut m: Machine) -> Self {
        let nodes = sc.nodes() as usize;
        let pids = (0..nodes).map(|i| m.create_process(NodeId(i as u16))).collect();
        // Round-robin interleave of instances across specs, so mixed
        // scenarios overlap their kinds instead of running them in
        // phases.
        let mut remaining: Vec<u32> = sc.specs.iter().map(|s| s.count).collect();
        let mut order = Vec::with_capacity(sc.total_sessions() as usize);
        while order.len() < sc.total_sessions() as usize {
            for (i, r) in remaining.iter_mut().enumerate() {
                if *r > 0 {
                    *r -= 1;
                    order.push(i);
                }
            }
        }
        Generator {
            sc,
            m,
            pids,
            links: Vec::new(),
            pending: Vec::new(),
            route: BTreeMap::new(),
            engine_busy: vec![None; nodes],
            engine_queue: (0..nodes).map(|_| VecDeque::new()).collect(),
            channels: Vec::new(),
            pool: BTreeMap::new(),
            sessions: (0..sc.users as usize).map(|_| None).collect(),
            order,
            next_instance: 0,
            active: 0,
            inflight: 0,
            heap: BinaryHeap::new(),
            seq: 0,
            cursor: 0,
            stats: Default::default(),
            duration_all: Histogram::default(),
            goodput: 0,
        }
    }

    // ─────────────────────────── the main loop ───────────────────────────

    fn run_to_completion(&mut self) -> Result<(), WorkloadError> {
        loop {
            self.harvest()?;
            self.refill_slots()?;
            if let Some(&Reverse((due, _, _, _))) = self.heap.peek() {
                let now = self.m.now();
                if due > now {
                    self.m.run_until(due);
                    continue; // harvest what the advance produced
                }
                let Reverse((_, _, slot, step)) = self.heap.pop().expect("peeked above");
                self.execute(slot, step)?;
            } else if self.inflight > 0 {
                let limit = self.m.now() + WAIT_HORIZON;
                if !self.m.run_until_new_delivery(limit, self.cursor) {
                    return Err(WorkloadError::Stalled {
                        at_ps: self.m.now().as_picos(),
                        open_sessions: self.active as u64,
                        completed: self.stats.iter().map(|s| s.completed).sum(),
                        deliveries: self.m.deliveries().len() as u64,
                    });
                }
            } else if self.active == 0 && self.next_instance >= self.order.len() {
                return Ok(());
            } else {
                // Active sessions but nothing scheduled and nothing in
                // flight: a generator bug, not a machine state.
                unreachable!("active sessions with no pending work");
            }
        }
    }

    fn schedule(&mut self, due: SimTime, slot: usize, step: Step) {
        self.seq += 1;
        self.heap.push(Reverse((due, self.seq, slot, step.into())));
    }

    fn draw_dur(rng: &mut SimRng, r: DurRange) -> SimDuration {
        SimDuration::from_picos(rng.gen_range(r.lo.as_picos()..=r.hi.as_picos()))
    }

    // ───────────────────────── opening and closing ───────────────────────

    fn refill_slots(&mut self) -> Result<(), WorkloadError> {
        while self.active < self.sc.users as usize && self.next_instance < self.order.len() {
            let slot = self
                .sessions
                .iter()
                .position(Option::is_none)
                .expect("active < users implies a free slot");
            self.open_session(slot)?;
        }
        Ok(())
    }

    fn open_session(&mut self, slot: usize) -> Result<(), WorkloadError> {
        let instance = self.next_instance;
        self.next_instance += 1;
        let spec_idx = self.order[instance];
        let spec = &self.sc.specs[spec_idx];
        let nodes = self.sc.nodes();
        let mut rng = SimRng::stream_from(self.sc.seed, SESSION_STREAM_BASE + instance as u64);

        let src = match spec.src {
            NodeSel::Fixed(n) => n,
            NodeSel::Any => rng.gen_range(0..nodes as u64) as u16,
        };
        let dst = if matches!(spec.kind, SessionKind::Fanout { .. }) {
            src
        } else {
            match spec.dst {
                NodeSel::Fixed(n) => n,
                NodeSel::Any => {
                    // Uniform over the other nodes, never equal to src.
                    let off = rng.gen_range(1..nodes as u64) as u16;
                    (src + off) % nodes
                }
            }
        };

        let channel = self.acquire_channel(spec_idx, src, dst)?;
        let remaining = match spec.kind {
            SessionKind::Rpc { requests, .. } => requests,
            SessionKind::Stream { pages, .. } => pages,
            SessionKind::Fanout { rounds, .. } => rounds,
            SessionKind::Dsm { ops, .. } => ops,
        };
        let think = match spec.kind {
            SessionKind::Rpc { think, .. } => think,
            SessionKind::Stream { gap, .. } => gap,
            SessionKind::Fanout { think, .. } => think,
            SessionKind::Dsm { think, .. } => think,
        };
        let now = self.m.now();
        let first = now + Self::draw_dur(&mut rng, think);
        self.m.note_session_opened(NodeId(src));
        self.sessions[slot] = Some(Session {
            spec: spec_idx,
            channel,
            src: NodeId(src),
            dst: NodeId(dst),
            rng,
            opened_at: now,
            remaining,
            outstanding: 0,
            issued_at: now,
            bytes: 0,
        });
        self.active += 1;
        self.schedule(first, slot, Step::Issue);
        Ok(())
    }

    fn close_session(&mut self, slot: usize) {
        let s = self.sessions[slot].take().expect("closing an open session");
        let now = self.m.now();
        let k = kind_index(&self.sc.specs[s.spec].kind);
        self.stats[k].completed += 1;
        self.stats[k].duration.record_duration(now.since(s.opened_at));
        self.duration_all.record_duration(now.since(s.opened_at));
        self.goodput += s.bytes;
        self.m.note_session_closed(s.src);
        self.active -= 1;
        self.pool
            .entry((s.spec, s.src.0, s.dst.0))
            .or_default()
            .push(s.channel);
    }

    // ─────────────────────────── channel build ───────────────────────────

    fn acquire_channel(&mut self, spec: usize, src: u16, dst: u16) -> Result<usize, WorkloadError> {
        if let Some(free) = self.pool.get_mut(&(spec, src, dst)) {
            if let Some(id) = free.pop() {
                return Ok(id);
            }
        }
        let kind = self.sc.specs[spec].kind;
        let ch = match kind {
            SessionKind::Rpc { .. } => {
                let req = self.build_deliberate_link(NodeId(src), NodeId(dst), 1)?;
                let rsp = self.build_deliberate_link(NodeId(dst), NodeId(src), 1)?;
                Channel::Rpc { req, rsp }
            }
            SessionKind::Stream { pages, .. } => {
                let link = self.build_deliberate_link(NodeId(src), NodeId(dst), pages)?;
                Channel::Stream { link }
            }
            SessionKind::Fanout { leaves, .. } => {
                let nodes = self.sc.nodes();
                let links = (0..leaves)
                    .map(|j| {
                        let leaf = (src + 1 + j) % nodes;
                        self.build_deliberate_link(NodeId(src), NodeId(leaf), 1)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Channel::Fanout { links }
            }
            SessionKind::Dsm { pages, .. } => {
                let (a, b) = (NodeId(src), NodeId(dst));
                let pair = SharedPair::establish(
                    &mut self.m,
                    (a, self.pids[src as usize]),
                    (b, self.pids[dst as usize]),
                    u64::from(pages),
                )?;
                // a's stores arrive in b's pages and vice versa.
                let ab = self.new_link(a, self.pids[src as usize], None);
                self.register_pages(b, self.pids[dst as usize], pair.b_base(), pages, ab)?;
                let ba = self.new_link(b, self.pids[dst as usize], None);
                self.register_pages(a, self.pids[src as usize], pair.a_base(), pages, ba)?;
                Channel::Dsm { ab, ba, pair }
            }
        };
        self.channels.push(ch);
        Ok(self.channels.len() - 1)
    }

    fn new_link(&mut self, src: NodeId, src_pid: Pid, deliberate: Option<Deliberate>) -> usize {
        self.links.push(Link { src, src_pid, deliberate });
        self.pending.push(None);
        self.links.len() - 1
    }

    /// Routes deliveries landing in `[va, va + pages)` of `(node, pid)`
    /// to `link`.
    fn register_pages(
        &mut self,
        node: NodeId,
        pid: Pid,
        va: VirtAddr,
        pages: u32,
        link: usize,
    ) -> Result<(), WorkloadError> {
        for i in 0..u64::from(pages) {
            let phys = self.m.translate(node, pid, va.add(i * PAGE_SIZE))?;
            self.route.insert((node.0, phys.raw() / PAGE_SIZE), link);
        }
        Ok(())
    }

    /// Builds a `pages`-page deliberate-update mapping src→dst with one
    /// command page per source page, and registers the destination
    /// pages for delivery attribution.
    fn build_deliberate_link(
        &mut self,
        src: NodeId,
        dst: NodeId,
        pages: u32,
    ) -> Result<usize, WorkloadError> {
        let src_pid = self.pids[src.0 as usize];
        let dst_pid = self.pids[dst.0 as usize];
        let data_va = self.m.alloc_pages(src, src_pid, u64::from(pages))?;
        let recv_va = self.m.alloc_pages(dst, dst_pid, u64::from(pages))?;
        let export = self.m.export_buffer(dst, dst_pid, recv_va, u64::from(pages), Some(src))?;
        self.m.map(MapRequest {
            src_node: src,
            src_pid,
            src_va: data_va,
            dst_node: dst,
            export,
            dst_offset: 0,
            len: u64::from(pages) * PAGE_SIZE,
            policy: UpdatePolicy::Deliberate,
        })?;
        let cmd_vas = (0..u64::from(pages))
            .map(|i| self.m.map_command_page(src, src_pid, data_va.add(i * PAGE_SIZE)))
            .collect::<Result<Vec<_>, _>>()?;
        let link = self.new_link(src, src_pid, Some(Deliberate { data_va, cmd_vas }));
        self.register_pages(dst, dst_pid, recv_va, pages, link)?;
        Ok(link)
    }

    // ─────────────────────── deliberate issue path ───────────────────────

    /// Queues (or immediately issues) a deliberate transfer, honoring
    /// the one-in-flight-per-source-engine rule.
    fn submit_transfer(&mut self, req: TransferReq) -> Result<(), WorkloadError> {
        let node = self.links[req.link].src.0 as usize;
        if self.engine_busy[node].is_none() {
            self.issue_transfer(req)
        } else {
            self.engine_queue[node].push_back(req);
            Ok(())
        }
    }

    fn issue_transfer(&mut self, req: TransferReq) -> Result<(), WorkloadError> {
        let link = &self.links[req.link];
        let (src, pid) = (link.src, link.src_pid);
        let d = link.deliberate.as_ref().expect("deliberate transfers need a deliberate link");
        let page_va = d.data_va.add(u64::from(req.page) * PAGE_SIZE);
        let cmd_va = d.cmd_vas[req.page as usize];
        if let Some(fill) = &req.fill {
            self.m.poke(src, pid, page_va, fill)?;
        }
        // The §4.2 command store: word count to the command page. The
        // engine is provably free (one in flight per node), so a plain
        // store suffices — the CPU-side CMPXCHG retry is not needed.
        self.m.poke(src, pid, cmd_va, &req.words.to_le_bytes())?;
        debug_assert!(self.pending[req.link].is_none(), "one expectation per link");
        self.pending[req.link] = Some(Pending {
            slot: req.slot,
            bytes_left: u64::from(req.words) * WORD_SIZE,
        });
        self.engine_busy[src.0 as usize] = Some(req.link);
        self.inflight += 1;
        Ok(())
    }

    // ────────────────────────── session stepping ─────────────────────────

    fn execute(&mut self, slot: usize, step: StepKey) -> Result<(), WorkloadError> {
        let s = self.sessions[slot].as_mut().expect("scheduled slot is open");
        let spec_idx = s.spec;
        let kind = self.sc.specs[spec_idx].kind;
        match (kind, step) {
            (SessionKind::Rpc { request_bytes, .. }, StepKey::Issue) => {
                let mut fill = vec![0u8; request_bytes as usize];
                s.rng.fill_bytes(&mut fill);
                s.issued_at = self.m.now();
                let Channel::Rpc { req, .. } = self.channels[s.channel] else {
                    unreachable!("rpc session on rpc channel")
                };
                let words = request_bytes / WORD_SIZE as u32;
                self.submit_transfer(TransferReq { link: req, slot, page: 0, words, fill: Some(fill) })?;
            }
            (SessionKind::Rpc { response_bytes, .. }, StepKey::Respond) => {
                let mut fill = vec![0u8; response_bytes as usize];
                s.rng.fill_bytes(&mut fill);
                let Channel::Rpc { rsp, .. } = self.channels[s.channel] else {
                    unreachable!("rpc session on rpc channel")
                };
                let words = response_bytes / WORD_SIZE as u32;
                self.submit_transfer(TransferReq { link: rsp, slot, page: 0, words, fill: Some(fill) })?;
            }
            (SessionKind::Stream { pages, .. }, StepKey::Issue) => {
                let page = pages - s.remaining;
                let Channel::Stream { link } = self.channels[s.channel] else {
                    unreachable!("stream session on stream channel")
                };
                let words = (PAGE_SIZE / WORD_SIZE) as u32;
                self.submit_transfer(TransferReq { link, slot, page, words, fill: None })?;
            }
            (SessionKind::Fanout { bytes, .. }, StepKey::Issue) => {
                let Channel::Fanout { ref links } = self.channels[s.channel] else {
                    unreachable!("fanout session on fanout channel")
                };
                let links = links.clone();
                s.outstanding = links.len() as u16;
                let words = bytes / WORD_SIZE as u32;
                for link in links {
                    self.submit_transfer(TransferReq { link, slot, page: 0, words, fill: None })?;
                }
            }
            (SessionKind::Dsm { pages, write_bytes, .. }, StepKey::Issue) => {
                let Channel::Dsm { ab, ba, pair } = self.channels[s.channel] else {
                    unreachable!("dsm session on dsm channel")
                };
                if s.rng.chance(0.5) {
                    // Seeded word-aligned write from a seeded side; the
                    // complementary automatic-update mapping propagates
                    // it word by word.
                    let len = u64::from(write_bytes);
                    let span = u64::from(pages) * PAGE_SIZE - len;
                    let offset = (s.rng.gen_range(0..=span) / WORD_SIZE) * WORD_SIZE;
                    let mut data = vec![0u8; len as usize];
                    s.rng.fill_bytes(&mut data);
                    let a_writes = s.rng.chance(0.5);
                    let link = if a_writes { ab } else { ba };
                    debug_assert!(self.pending[link].is_none(), "one expectation per link");
                    self.pending[link] = Some(Pending { slot, bytes_left: len });
                    self.inflight += 1;
                    if a_writes {
                        pair.write_a(&mut self.m, offset, &data)?;
                    } else {
                        pair.write_b(&mut self.m, offset, &data)?;
                    }
                } else {
                    // A local read: consumes an op and a think time but
                    // produces no traffic.
                    let len = u64::from(write_bytes);
                    let span = u64::from(pages) * PAGE_SIZE - len;
                    let offset = (s.rng.gen_range(0..=span) / WORD_SIZE) * WORD_SIZE;
                    if s.rng.chance(0.5) {
                        pair.read_a(&self.m, offset, len)?;
                    } else {
                        pair.read_b(&self.m, offset, len)?;
                    }
                    self.op_done(slot)?;
                }
            }
            (_, StepKey::Respond) => unreachable!("Respond is an rpc-only step"),
        }
        Ok(())
    }

    /// A session op finished without traffic (DSM read) or after its
    /// deliveries completed: decrement and either schedule the next op
    /// or close.
    fn op_done(&mut self, slot: usize) -> Result<(), WorkloadError> {
        let s = self.sessions[slot].as_mut().expect("op on an open session");
        s.remaining -= 1;
        if s.remaining == 0 {
            self.close_session(slot);
            return Ok(());
        }
        let think = match self.sc.specs[s.spec].kind {
            SessionKind::Rpc { think, .. } => think,
            SessionKind::Stream { gap, .. } => gap,
            SessionKind::Fanout { think, .. } => think,
            SessionKind::Dsm { think, .. } => think,
        };
        let due = self.m.now() + Self::draw_dur(&mut s.rng, think);
        self.schedule(due, slot, Step::Issue);
        Ok(())
    }

    // ──────────────────────── delivery attribution ───────────────────────

    /// Consumes new delivery records: route each to its link, account
    /// latency stages to the owning session's kind, and fire link
    /// completions in delivery order.
    fn harvest(&mut self) -> Result<(), WorkloadError> {
        loop {
            // Collect first (immutable borrow), then act.
            let mut done: Vec<(usize, SimTime)> = Vec::new();
            {
                let deliveries = self.m.deliveries();
                if self.cursor >= deliveries.len() {
                    return Ok(());
                }
                let records = &self.m.telemetry().records;
                debug_assert_eq!(deliveries.len(), records.len(), "latency telemetry must be on");
                while self.cursor < deliveries.len() {
                    let d = &deliveries[self.cursor];
                    let rec = &records[self.cursor];
                    self.cursor += 1;
                    let key = (d.node.0, d.dst_addr.raw() / PAGE_SIZE);
                    let Some(&link) = self.route.get(&key) else {
                        continue; // not session traffic (none today)
                    };
                    let Some(p) = self.pending[link].as_mut() else {
                        continue; // late duplicate (reliable mode re-sends)
                    };
                    let slot = p.slot;
                    let s = self.sessions[slot].as_mut().expect("pending link has an open session");
                    s.bytes += d.len;
                    let k = kind_index(&self.sc.specs[s.spec].kind);
                    let st = &mut self.stats[k];
                    st.e2e.record_duration(rec.end_to_end());
                    st.out_fifo.record_duration(rec.out_fifo());
                    st.mesh.record_duration(rec.mesh());
                    st.in_fifo.record_duration(rec.in_fifo());
                    st.dma.record_duration(rec.dma());
                    p.bytes_left = p.bytes_left.saturating_sub(d.len);
                    if p.bytes_left == 0 {
                        self.pending[link] = None;
                        self.inflight -= 1;
                        done.push((link, d.time));
                    }
                }
            }
            for (link, at) in done {
                self.link_done(link, at)?;
            }
        }
    }

    /// All bytes of a link's expectation arrived: free the engine, let
    /// the next queued transfer go, then advance the owning session.
    fn link_done(&mut self, link: usize, at: SimTime) -> Result<(), WorkloadError> {
        // The completed transfer's slot was recorded when it was issued;
        // recover it from the session owning the link *before* the
        // engine hand-off (the pending entry is already cleared).
        let src = self.links[link].src;
        let deliberate = self.links[link].deliberate.is_some();
        let mut owner = None;
        if deliberate {
            let node = src.0 as usize;
            if self.engine_busy[node] == Some(link) {
                self.engine_busy[node] = None;
                if let Some(next) = self.engine_queue[node].pop_front() {
                    self.issue_transfer(next)?;
                }
            }
        }
        // Find the session that was waiting on this link.
        for (slot, s) in self.sessions.iter().enumerate() {
            if let Some(sess) = s {
                let waits = match self.channels[sess.channel] {
                    Channel::Rpc { req, rsp } => link == req || link == rsp,
                    Channel::Stream { link: l } => link == l,
                    Channel::Fanout { ref links } => links.contains(&link),
                    Channel::Dsm { ab, ba, .. } => link == ab || link == ba,
                };
                if waits {
                    owner = Some(slot);
                    break;
                }
            }
        }
        let slot = owner.expect("completed link belongs to an open session");
        let s = self.sessions[slot].as_mut().expect("owner is open");
        match self.sc.specs[s.spec].kind {
            SessionKind::Rpc { server, .. } => {
                let Channel::Rpc { req, .. } = self.channels[s.channel] else {
                    unreachable!("rpc session on rpc channel")
                };
                if link == req {
                    // Request at the server: respond after service time.
                    let due = at + Self::draw_dur(&mut s.rng, server);
                    self.schedule(due.max(self.m.now()), slot, Step::Respond);
                } else {
                    // Response at the client: the exchange is complete.
                    let s = self.sessions[slot].as_mut().expect("owner is open");
                    let k = kind_index(&self.sc.specs[s.spec].kind);
                    self.stats[k].op_latency.record_duration(at.since(s.issued_at));
                    self.op_done(slot)?;
                }
            }
            SessionKind::Stream { .. } => self.op_done(slot)?,
            SessionKind::Fanout { .. } => {
                s.outstanding -= 1;
                if s.outstanding == 0 {
                    self.op_done(slot)?;
                }
            }
            SessionKind::Dsm { .. } => self.op_done(slot)?,
        }
        Ok(())
    }

    // ────────────────────────────── report ───────────────────────────────

    fn into_parts(self) -> (Report, Machine) {
        let report = Report::build(
            self.sc,
            &self.m,
            &self.stats,
            &self.duration_all,
            self.goodput,
            delivery_hash(self.m.deliveries()),
        );
        (report, self.m)
    }
}
