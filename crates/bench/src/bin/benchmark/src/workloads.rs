//! The five workloads: inputs made from the seed, set-up, timed
//! repetitions, per-repetition correctness checks, and the traced pass.
//!
//! Every workload is a closed loop driven from one thread: a repetition
//! starts only when the previous one has drained, and the session
//! workloads keep a fixed number of users in flight, each opening its
//! next session only when its last one closes.

use std::rc::Rc;
use std::time::Instant;

use shrimp_core::{
    DeliveryRecord, LatencyRecord, Machine, MachineConfig, MachineError, MapRequest,
};
use shrimp_cpu::{Program, Reg};
use shrimp_mem::{VirtAddr, PAGE_SIZE};
use shrimp_mesh::{MeshShape, NodeId};
use shrimp_nic::UpdatePolicy;
use shrimp_os::Pid;
use shrimp_sim::json::Value;
use shrimp_sim::{SimRng, SimTime};
use shrimp_workload::dsl::Scenario;
use shrimp_workload::{delivery_hash, run_scenario_tuned};

use crate::alloc;
use crate::metrics::{self, Layer, LayerInput, Probe, E2E};
use crate::stats;
use crate::trace::{self, SpanId, Spans};

/// The benchmark's workloads, in run order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DmaStream,
    AutoStream,
    Ring1k,
    SessionsMixed,
    SessionsFaulty,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::DmaStream,
        Workload::AutoStream,
        Workload::Ring1k,
        Workload::SessionsMixed,
        Workload::SessionsFaulty,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DmaStream => "dma_stream",
            Workload::AutoStream => "auto_stream",
            Workload::Ring1k => "ring1k",
            Workload::SessionsMixed => "sessions_mixed",
            Workload::SessionsFaulty => "sessions_faulty",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Host seconds one timed repetition takes on the reference host (a
    /// 2-core x86-64 container). `--seconds` divided by this fixes the
    /// repetition count, so both sides of a comparison simulate the same
    /// work however fast each one runs.
    fn nominal_rep_s(self) -> f64 {
        match self {
            Workload::DmaStream => 0.12,
            Workload::AutoStream => 0.45,
            Workload::Ring1k => 0.14,
            Workload::SessionsMixed => 0.60,
            Workload::SessionsFaulty => 1.0,
        }
    }

    /// Whether one machine serves every repetition (set up once, program
    /// restarted per repetition) rather than a fresh one per repetition.
    fn persistent(self) -> bool {
        matches!(self, Workload::DmaStream | Workload::Ring1k)
    }

    /// Operations per repetition: page transfers, or sessions.
    fn ops(self, size: &Size) -> u64 {
        match self {
            Workload::DmaStream => size.dma_pages,
            Workload::AutoStream => size.auto_pages,
            Workload::Ring1k => u64::from(size.ring_dim).pow(2) * size.ring_pages,
            Workload::SessionsMixed | Workload::SessionsFaulty => u64::from(size.sessions),
        }
    }
}

/// Workload sizes. The smoke size exercises every code path in well
/// under a second per workload in a debug build.
struct Size {
    dma_pages: u64,
    auto_pages: u64,
    ring_dim: u16,
    ring_pages: u64,
    sessions: u32,
}

const FULL: Size = Size {
    dma_pages: 4096,
    auto_pages: 2048,
    ring_dim: 32,
    ring_pages: 2,
    sessions: 2000,
};

const SMOKE: Size = Size {
    dma_pages: 16,
    auto_pages: 16,
    ring_dim: 4,
    ring_pages: 2,
    sessions: 40,
};

/// Timed set-ups per run on persistent workloads (after one discarded
/// cold set-up); `setup_s` is their median.
const SETUPS: usize = 7;

/// Stream ids that derive independent seeds from `--seed`.
const PAYLOAD_STREAM: u64 = 0xb0d7_0001;
const FAULT_STREAM: u64 = 0xb0d7_0002;

/// Run options.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Opts {
    fn size(&self) -> &'static Size {
        if self.smoke {
            &SMOKE
        } else {
            &FULL
        }
    }
}

/// The session mix of mixed10k (rpc 40%, stream 20%, fanout 10%, dsm
/// 30%) scaled to `total` sessions. `sessions_faulty` runs the same mix
/// on the unpinned backend under loss and link churn, so the two differ
/// only in the recovery paths.
pub fn scenario_text(w: Workload, seed: u64, total: u32) -> String {
    let rpc = total * 4 / 10;
    let stream = total * 2 / 10;
    let fanout = total / 10;
    let dsm = total - rpc - stream - fanout;
    let mut text = format!("scenario {}\nmesh 4x4\nseed {seed}\npages 768\n", w.name());
    if w == Workload::SessionsFaulty {
        let fault_seed = SimRng::stream_from(seed, FAULT_STREAM).next_u64();
        // Every cycle lasts at least 55 us, so 400 cycles outlast any
        // makespan of this mix (a few milliseconds) and every link keeps
        // churning until the last session closes.
        text.push_str(&format!(
            "users 32\nnic unpinned\nfault drop=0.005 corrupt=0.001 seed={fault_seed}\n\
             link fail=50us..400us repair=5us..20us times=400\n"
        ));
    } else {
        text.push_str("users 64\n");
    }
    text.push_str(&format!(
        "session rpc count={rpc} src=any dst=any requests=3 request=256 response=512 think=1us..20us server=1us..8us\n\
         session stream count={stream} src=any dst=any pages=2 gap=1us..6us\n\
         session fanout count={fanout} src=any leaves=3 rounds=2 bytes=512 think=2us..10us\n\
         session dsm count={dsm} src=any dst=any pages=2 ops=4 write=32 think=1us..8us\n"
    ));
    text
}

/// The deterministic outputs of one repetition. Every repetition of a
/// run must reproduce the first timed one exactly.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    delivery_hash: u64,
    packets: usize,
    goodput_mb_s: f64,
    p50_us: Option<f64>,
    p99_us: Option<f64>,
    session_mean_us: Option<f64>,
}

impl Fingerprint {
    fn new(
        hash: u64,
        records: &[LatencyRecord],
        bytes: u64,
        sim_ps: u64,
        session_mean_us: Option<f64>,
    ) -> Self {
        let mut e2e: Vec<u64> = records.iter().map(|r| r.end_to_end().as_picos()).collect();
        let us = |ps: Option<u64>| ps.map(|ps| ps as f64 / 1e6);
        Fingerprint {
            delivery_hash: hash,
            packets: records.len(),
            goodput_mb_s: bytes as f64 / (sim_ps as f64 * 1e-12) / 1e6,
            p50_us: us(stats::percentile(&mut e2e, 0.50)),
            p99_us: us(stats::percentile(&mut e2e, 0.99)),
            session_mean_us,
        }
    }
}

/// What one repetition did.
struct Rep {
    /// Set-up seconds, on workloads that set up a fresh machine per
    /// repetition.
    setup_s: Option<f64>,
    wall_s: f64,
    events: u64,
    failed: u64,
    failure: Option<String>,
    /// `None` when the repetition's run itself failed.
    fingerprint: Option<Fingerprint>,
    /// Per-layer metrics, on the traced repetition only.
    layers: Option<Vec<Layer>>,
}

/// Traced-repetition context: the untraced median the overhead is
/// measured against.
#[derive(Clone, Copy)]
struct Traced {
    untraced_median_s: f64,
}

/// A set-up workload instance.
trait Instance {
    /// Runs and checks one repetition, opening its spans under `root`.
    fn rep(&mut self, spans: &mut Spans, root: SpanId, traced: Option<Traced>) -> Rep;
}

// ───────────────────────────── stream workloads ─────────────────────────

/// Shape of a stream workload: which nodes send `pages` pages to their
/// successor in node order, under which update policy.
struct StreamSpec {
    shape: MeshShape,
    senders: Vec<usize>,
    pages: u64,
    policy: UpdatePolicy,
}

impl StreamSpec {
    fn of(w: Workload, size: &Size) -> StreamSpec {
        match w {
            Workload::DmaStream => StreamSpec {
                shape: MeshShape::new(2, 1),
                senders: vec![0],
                pages: size.dma_pages,
                policy: UpdatePolicy::Deliberate,
            },
            Workload::AutoStream => StreamSpec {
                shape: MeshShape::new(2, 1),
                senders: vec![0],
                pages: size.auto_pages,
                policy: UpdatePolicy::AutomaticBlocked,
            },
            Workload::Ring1k => StreamSpec {
                shape: MeshShape::new(size.ring_dim, size.ring_dim),
                senders: (0..usize::from(size.ring_dim).pow(2)).collect(),
                pages: size.ring_pages,
                policy: UpdatePolicy::Deliberate,
            },
            _ => unreachable!("not a stream workload"),
        }
    }

    fn deliberate(&self) -> bool {
        self.policy == UpdatePolicy::Deliberate
    }
}

/// One sending process and the receive buffer its mapping targets.
struct Sender {
    node: NodeId,
    pid: Pid,
    src_va: VirtAddr,
    cmd_delta: u32,
    dst_node: NodeId,
    dst_pid: Pid,
    dst_va: VirtAddr,
}

/// A set-up stream machine.
struct Streams {
    m: Machine,
    spec: Rc<StreamSpec>,
    payloads: Rc<Vec<Vec<u8>>>,
    senders: Vec<Sender>,
    program: Program,
}

fn node(i: usize) -> NodeId {
    NodeId(u16::try_from(i).expect("node index fits the mesh"))
}

impl Streams {
    /// Builds the machine: processes, buffers, exports, one mapping per
    /// sender, and on deliberate workloads the command pages plus the
    /// source fill, drained.
    fn build(
        spec: Rc<StreamSpec>,
        payloads: Rc<Vec<Vec<u8>>>,
        profile: bool,
        spans: &mut Spans,
        root: SpanId,
    ) -> Streams {
        let setup = spans.open("setup", root);
        let mut cfg = MachineConfig::prototype(spec.shape);
        // Each node holds at most one send and one receive buffer; the
        // paper's 1 MB per node would cost a gigabyte of host memory on
        // the 1024-node ring.
        cfg.pages_per_node = (4 * spec.pages).max(32);
        cfg.telemetry.latency = true;
        cfg.telemetry.profile = profile;
        let mut m = spans.time("core.machine_new", setup, || Machine::new(cfg));
        let n = usize::from(spec.shape.nodes());
        let pids: Vec<Pid> = (0..n).map(|i| m.create_process(node(i))).collect();
        let bytes = spec.pages * PAGE_SIZE;
        let mut senders = Vec::with_capacity(spec.senders.len());
        for &i in &spec.senders {
            let j = (i + 1) % n;
            let dst_va = m
                .alloc_pages(node(j), pids[j], spec.pages)
                .expect("alloc receive buffer");
            let export = m
                .export_buffer(node(j), pids[j], dst_va, spec.pages, Some(node(i)))
                .expect("export receive buffer");
            let src_va = m
                .alloc_pages(node(i), pids[i], spec.pages)
                .expect("alloc send buffer");
            let req = MapRequest {
                src_node: node(i),
                src_pid: pids[i],
                src_va,
                dst_node: node(j),
                export,
                dst_offset: 0,
                len: bytes,
                policy: spec.policy,
            };
            spans.time("core.map", setup, || m.map(req)).expect("map");
            let mut cmd_delta = 0;
            if spec.deliberate() {
                for p in 0..spec.pages {
                    let data_va = src_va.add(p * PAGE_SIZE);
                    let cmd = spans
                        .time("core.command_page", setup, || {
                            m.map_command_page(node(i), pids[i], data_va)
                        })
                        .expect("map command page");
                    if p == 0 {
                        cmd_delta = u32::try_from(cmd.raw() - src_va.raw())
                            .expect("command distance fits a register");
                    }
                }
            }
            senders.push(Sender {
                node: node(i),
                pid: pids[i],
                src_va,
                cmd_delta,
                dst_node: node(j),
                dst_pid: pids[j],
                dst_va,
            });
        }
        if spec.deliberate() {
            let fill = spans.open("core.fill", setup);
            for (s, data) in senders.iter().zip(payloads.iter()) {
                m.poke(s.node, s.pid, s.src_va, data)
                    .expect("fill send buffer");
            }
            m.run_until_idle().expect("quiesce after fill");
            m.clear_deliveries();
            spans.close(fill);
        }
        spans.close(setup);
        Streams {
            m,
            spec,
            payloads,
            senders,
            program: shrimp_core::msglib::deliberate_stream_program(),
        }
    }

    /// The timed region: deliberate workloads (re)load and start the
    /// stream program on every sender; automatic ones store the payload
    /// through the snooped bus. Both then drain the machine.
    fn drive(&mut self, spans: &mut Spans, rep: SpanId) -> Result<(), MachineError> {
        let m = &mut self.m;
        if self.spec.deliberate() {
            let words = u32::try_from(PAGE_SIZE / 4).expect("page words fit a register");
            let pages = u32::try_from(self.spec.pages).expect("page count fits a register");
            for s in &self.senders {
                m.load_program(s.node, s.pid, self.program.clone());
                m.set_reg(s.node, s.pid, Reg::R5, s.src_va.raw() as u32);
                m.set_reg(s.node, s.pid, Reg::R7, s.cmd_delta);
                m.set_reg(s.node, s.pid, Reg::R3, pages);
                m.set_reg(s.node, s.pid, Reg::R2, words);
                m.set_reg(s.node, s.pid, Reg::R4, words);
            }
            for s in &self.senders {
                m.start(s.node, s.pid);
            }
        } else {
            let poke = spans.open("core.poke", rep);
            let stored = self
                .senders
                .iter()
                .zip(self.payloads.iter())
                .try_for_each(|(s, data)| m.poke(s.node, s.pid, s.src_va, data));
            spans.close(poke);
            stored?;
        }
        spans.time("core.run_until_idle", rep, || m.run_until_idle())
    }

    /// Runs one repetition on this machine and checks it: every byte
    /// delivered, every destination page equal to its source, and the
    /// deterministic outputs recorded for comparison across repetitions.
    fn rep(
        &mut self,
        spans: &mut Spans,
        root: SpanId,
        traced: Option<Traced>,
        setup_s: Option<f64>,
    ) -> Rep {
        let rep = spans.open("rep", root);
        let (t0, ev0, r0) = (
            self.m.now(),
            self.m.events_processed(),
            self.m.telemetry().records.len(),
        );
        let before = traced.map(|_| Probe::of(&self.m, alloc::allocations()));
        alloc::counting(traced.is_some());
        let wall = Instant::now();
        let run = self.drive(spans, rep);
        let wall_s = wall.elapsed().as_secs_f64();
        alloc::counting(false);
        let events = self.m.events_processed() - ev0;

        let verify = spans.open("verify", rep);
        let ops = self.senders.len() as u64 * self.spec.pages;
        let (failed, failure, fingerprint) = match run {
            Err(e) => (ops, Some(format!("run failed: {e}")), None),
            Ok(()) => {
                let (failed, failure) = self.check();
                let t0_shift = |d: &DeliveryRecord| DeliveryRecord {
                    time: SimTime::ZERO + d.time.since(t0),
                    ..d.clone()
                };
                let shifted: Vec<DeliveryRecord> =
                    self.m.deliveries().iter().map(t0_shift).collect();
                let bytes = shifted.iter().map(|d| d.len).sum();
                let fp = Fingerprint::new(
                    delivery_hash(&shifted),
                    &self.m.telemetry().records[r0..],
                    bytes,
                    self.m.now().since(t0).as_picos(),
                    None,
                );
                (failed, failure, Some(fp))
            }
        };
        spans.close(verify);
        spans.close(rep);

        let layers = traced.map(|t| {
            let after = Probe::of(&self.m, alloc::allocations());
            let sent: u64 = self.senders.len() as u64 * self.spec.pages;
            let instructions: u64 = self
                .senders
                .iter()
                .filter_map(|s| self.m.cpu(s.node, s.pid).map(|c| c.retired()))
                .sum();
            metrics::layers(&LayerInput {
                before: before.as_ref().expect("probe taken when traced"),
                after: &after,
                records: &self.m.telemetry().records[r0..],
                spans: &spans.list,
                rep_wall_s: wall_s,
                untraced_median_s: t.untraced_median_s,
                filled_pages: self.spec.deliberate().then_some(sent),
                instructions: self.spec.deliberate().then_some((instructions, sent)),
                sessions: None,
            })
        });
        self.m.clear_deliveries();
        Rep {
            setup_s,
            wall_s,
            events,
            failed,
            failure,
            fingerprint,
            layers,
        }
    }

    /// Counts failed page transfers: all of them when the delivered byte
    /// total is wrong, otherwise every destination page that differs
    /// from its source.
    fn check(&self) -> (u64, Option<String>) {
        let pages = self.spec.pages;
        let ops = self.senders.len() as u64 * pages;
        let delivered: u64 = self.m.deliveries().iter().map(|d| d.len).sum();
        if delivered != ops * PAGE_SIZE {
            return (
                ops,
                Some(format!(
                    "delivered {delivered} bytes, expected {}",
                    ops * PAGE_SIZE
                )),
            );
        }
        let mut bad = 0;
        for (s, want) in self.senders.iter().zip(self.payloads.iter()) {
            match self
                .m
                .peek(s.dst_node, s.dst_pid, s.dst_va, pages * PAGE_SIZE)
            {
                Ok(got) => {
                    let page = PAGE_SIZE as usize;
                    bad += got
                        .chunks(page)
                        .zip(want.chunks(page))
                        .filter(|(g, w)| g != w)
                        .count() as u64;
                }
                Err(_) => bad += pages,
            }
        }
        let failure =
            (bad > 0).then(|| format!("{bad} destination pages differ from their source"));
        (bad, failure)
    }
}

/// Deliberate stream workloads: one machine, program restarted per
/// repetition.
impl Instance for Streams {
    fn rep(&mut self, spans: &mut Spans, root: SpanId, traced: Option<Traced>) -> Rep {
        Streams::rep(self, spans, root, traced, None)
    }
}

/// `auto_stream`: a fresh machine per repetition, because an automatic
/// update fires on the store itself and a repetition must store anew.
struct FreshStreams {
    spec: Rc<StreamSpec>,
    payloads: Rc<Vec<Vec<u8>>>,
}

impl Instance for FreshStreams {
    fn rep(&mut self, spans: &mut Spans, root: SpanId, traced: Option<Traced>) -> Rep {
        let t = Instant::now();
        let mut s = Streams::build(
            self.spec.clone(),
            self.payloads.clone(),
            traced.is_some(),
            spans,
            root,
        );
        let setup_s = t.elapsed().as_secs_f64();
        s.rep(spans, root, traced, Some(setup_s))
    }
}

// ───────────────────────────── session workloads ────────────────────────

/// A generated scenario, run on a fresh machine per repetition.
struct Sessions {
    text: String,
    /// The machine configuration `run_scenario_tuned` built, captured on
    /// the first repetition.
    cfg: Option<MachineConfig>,
}

impl Instance for Sessions {
    fn rep(&mut self, spans: &mut Spans, root: SpanId, traced: Option<Traced>) -> Rep {
        // Set-up is what precedes the closed loop: parsing the scenario
        // and building its machine. The generator builds its own machine
        // inside `run_scenario_tuned`, so the one built here only times
        // that cost and is dropped untimed.
        let setup = spans.open("setup", root);
        let t = Instant::now();
        let sc = spans.time("workload.parse", setup, || Scenario::parse(&self.text));
        let built = self
            .cfg
            .map(|cfg| spans.time("core.machine_new", setup, || Machine::new(cfg)));
        let setup_s = self.cfg.map(|_| t.elapsed().as_secs_f64());
        drop(built);
        spans.close(setup);
        let sc = sc.expect("generated scenario parses");
        let total = sc.total_sessions();

        let rep = spans.open("rep", root);
        let allocs0 = alloc::allocations();
        alloc::counting(traced.is_some());
        let mut cfg = None;
        let wall = Instant::now();
        let run = spans.time("workload.run_scenario", rep, || {
            run_scenario_tuned(&sc, None, |c| {
                cfg = Some(*c);
                c.telemetry.profile = traced.is_some();
            })
        });
        let wall_s = wall.elapsed().as_secs_f64();
        alloc::counting(false);
        self.cfg = self.cfg.or(cfg);

        let verify = spans.open("verify", rep);
        let out = match run {
            Err(e) => Rep {
                setup_s,
                wall_s,
                events: 0,
                failed: total,
                failure: Some(format!("scenario failed: {e}")),
                fingerprint: None,
                layers: None,
            },
            Ok((report, m)) => {
                let failed = total.saturating_sub(report.sessions_completed);
                let session_mean_us = report
                    .metrics
                    .histogram("sessions.duration")
                    .map(|h| h.mean / 1e6);
                let fingerprint = Fingerprint::new(
                    report.delivery_hash,
                    &m.telemetry().records,
                    report.goodput_bytes,
                    report.final_time_ps,
                    session_mean_us,
                );
                let layers = traced.map(|t| {
                    metrics::layers(&LayerInput {
                        before: &Probe::unbuilt(allocs0),
                        after: &Probe::of(&m, alloc::allocations()),
                        records: &m.telemetry().records,
                        spans: &spans.list,
                        rep_wall_s: wall_s,
                        untraced_median_s: t.untraced_median_s,
                        filled_pages: None,
                        instructions: None,
                        sessions: Some((report.sessions_completed, report.deliveries)),
                    })
                });
                Rep {
                    setup_s,
                    wall_s,
                    events: report.events_processed,
                    failed,
                    failure: (failed > 0).then(|| {
                        format!(
                            "{} of {total} sessions completed",
                            report.sessions_completed
                        )
                    }),
                    fingerprint: Some(fingerprint),
                    layers,
                }
            }
        };
        spans.close(verify);
        spans.close(rep);
        out
    }
}

// ───────────────────────────── the run ──────────────────────────────────

/// Peak resident set of this process in MiB (`VmHWM`), if readable.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Builds an instance of `w`. Persistent workloads set their machine up
/// here; the others set up inside each repetition.
fn build(
    w: Workload,
    inputs: &Inputs,
    profile: bool,
    spans: &mut Spans,
    root: SpanId,
) -> Box<dyn Instance> {
    match inputs {
        Inputs::Sessions(text) => Box::new(Sessions {
            text: text.clone(),
            cfg: None,
        }),
        Inputs::Streams(spec, payloads) if w.persistent() => Box::new(Streams::build(
            spec.clone(),
            payloads.clone(),
            profile,
            spans,
            root,
        )),
        Inputs::Streams(spec, payloads) => Box::new(FreshStreams {
            spec: spec.clone(),
            payloads: payloads.clone(),
        }),
    }
}

/// Inputs generated from the seed before any timing starts: the stream
/// shape with one payload per sender, or the scenario text.
enum Inputs {
    Streams(Rc<StreamSpec>, Rc<Vec<Vec<u8>>>),
    Sessions(String),
}

impl Inputs {
    fn new(w: Workload, o: &Opts) -> Inputs {
        let size = o.size();
        match w {
            Workload::SessionsMixed | Workload::SessionsFaulty => {
                Inputs::Sessions(scenario_text(w, o.seed, size.sessions))
            }
            _ => {
                let spec = StreamSpec::of(w, size);
                let payloads = (0..spec.senders.len() as u64)
                    .map(|k| {
                        let mut data = vec![0u8; (spec.pages * PAGE_SIZE) as usize];
                        SimRng::stream_from(o.seed, PAYLOAD_STREAM + k).fill_bytes(&mut data);
                        data
                    })
                    .collect();
                Inputs::Streams(Rc::new(spec), Rc::new(payloads))
            }
        }
    }
}

/// Running totals over every repetition of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    reference: Option<Fingerprint>,
}

impl Tally {
    /// Books one repetition. `compare` repetitions must reproduce the
    /// reference fingerprint; a mismatch fails all of their operations.
    fn book(&mut self, ops: u64, rep: &Rep, compare: bool) {
        self.attempted += ops;
        let mut failed = rep.failed;
        if let Some(f) = &rep.failure {
            self.note(f.clone());
        }
        if compare {
            match (&self.reference, &rep.fingerprint) {
                (None, Some(fp)) => self.reference = Some(fp.clone()),
                (Some(want), Some(got)) if want != got => {
                    failed = ops;
                    self.note(format!("repetition diverged: {got:?} != {want:?}"));
                }
                _ => {}
            }
        }
        self.failed += failed.min(ops);
    }

    fn note(&mut self, msg: String) {
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }
}

/// A metric value with its unit, or `null` with the reason.
fn metric(unit: &str, value: Result<f64, String>) -> Value {
    let mut fields = vec![
        (
            "value".to_string(),
            value.as_ref().map_or(Value::Null, |v| Value::Float(*v)),
        ),
        ("unit".to_string(), Value::Str(unit.to_string())),
    ];
    if let Err(reason) = value {
        fields.push(("reason".to_string(), Value::Str(reason)));
    }
    Value::Object(fields)
}

/// A host metric: the median of `samples` with its quartiles and range.
fn sampled(unit: &str, samples: &[f64], why_empty: &str) -> Value {
    let Some(med) = stats::median(samples) else {
        return metric(unit, Err(why_empty.to_string()));
    };
    let (q1, q3) = stats::quartiles(samples).expect("non-empty samples have quartiles");
    let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let Value::Object(mut fields) = metric(unit, Ok(med)) else {
        unreachable!("metric() builds an object")
    };
    fields.extend([
        ("q1".to_string(), Value::Float(q1)),
        ("q3".to_string(), Value::Float(q3)),
        ("min".to_string(), Value::Float(lo)),
        ("max".to_string(), Value::Float(hi)),
        ("n".to_string(), Value::Uint(samples.len() as u64)),
    ]);
    Value::Object(fields)
}

/// Timed repetitions per run.
fn reps(w: Workload, o: &Opts) -> usize {
    if o.smoke {
        2
    } else {
        ((o.seconds / w.nominal_rep_s()).ceil() as usize).max(3)
    }
}

/// The result document of a workload whose process died: every
/// operation it would have attempted counts as failed.
pub fn crashed(w: Workload, o: &Opts, reason: String) -> Value {
    let attempted = w.ops(o.size()) * (reps(w, o) as u64 + 1);
    Value::Object(vec![
        ("workload".to_string(), Value::Str(w.name().to_string())),
        ("seed".to_string(), Value::Uint(o.seed)),
        ("attempted".to_string(), Value::Uint(attempted)),
        ("failed".to_string(), Value::Uint(attempted)),
        (
            "failures".to_string(),
            Value::Array(vec![Value::Str(reason)]),
        ),
    ])
}

/// Runs workload `w` in this process and returns its result document.
pub fn run(w: Workload, o: &Opts) -> Value {
    let size = o.size();
    let ops = w.ops(size);
    let reps = reps(w, o);
    let inputs = Inputs::new(w, o);
    let mut tally = Tally::default();
    let mut off = Spans::new(false);

    // Untraced pass, in blocks: each block sets up an instance, runs one
    // discarded warm-up repetition, then its share of the timed ones.
    // Persistent workloads rebuild their machine once per block, so the
    // set-up samples are spread over the whole run like the repetitions
    // and see the same host conditions. Block 0's set-up runs on a cold
    // allocator and is discarded.
    let mut setup_s = Vec::new();
    let (mut run_s, mut events_per_s) = (Vec::new(), Vec::new());
    let blocks = match (w.persistent(), o.smoke) {
        (false, _) => 1,
        (true, true) => 2,
        (true, false) => SETUPS + 1,
    };
    for b in 0..blocks {
        let t = Instant::now();
        let mut inst = build(w, &inputs, false, &mut off, SpanId::ROOT);
        if w.persistent() && b > 0 {
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let warm = inst.rep(&mut off, SpanId::ROOT, None);
        tally.book(ops, &warm, false);
        for _ in 0..(reps - run_s.len()) / (blocks - b) {
            let r = inst.rep(&mut off, SpanId::ROOT, None);
            tally.book(ops, &r, true);
            setup_s.extend(r.setup_s);
            run_s.push(r.wall_s);
            events_per_s.push(r.events as f64 / r.wall_s);
        }
    }
    let peak = peak_rss_mb();

    // Traced pass: a separate instance with the engine profiler on,
    // spans around every layer call, and the allocation counter running
    // during the traced repetition.
    let mut traced_layers = None;
    let mut spans = Spans::new(o.trace);
    if o.trace {
        let untraced_median_s = stats::median(&run_s).expect("timed repetitions ran");
        let root = spans.open("workload", SpanId::ROOT);
        let mut inst = build(w, &inputs, true, &mut spans, root);
        if w.persistent() {
            let warm = inst.rep(&mut spans, root, None);
            tally.book(ops, &warm, false);
        }
        let r = inst.rep(&mut spans, root, Some(Traced { untraced_median_s }));
        tally.book(ops, &r, true);
        spans.close(root);
        traced_layers = r.layers;
    }

    let fp = tally.reference.clone();
    let sim = |f: fn(&Fingerprint) -> Option<f64>, why: &str| -> Result<f64, String> {
        fp.as_ref()
            .ok_or_else(|| "no repetition completed".to_string())
            .and_then(|fp| f(fp).ok_or_else(|| why.to_string()))
    };
    let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    let e2e: Vec<(String, Value)> = E2E
        .iter()
        .map(|m| {
            let v = match m.name {
                "setup_s" => sampled(m.unit, &setup_s, "no set-up sample"),
                "run_s" => sampled(m.unit, &run_s, "no timed repetition"),
                "events_per_s" => sampled(m.unit, &events_per_s, "no timed repetition"),
                "peak_rss_mb" => metric(
                    m.unit,
                    peak.ok_or_else(|| "/proc/self/status has no VmHWM".to_string()),
                ),
                "sim_goodput_mb_s" => metric(m.unit, sim(|f| Some(f.goodput_mb_s), "")),
                "pkt_latency_p50_us" => metric(m.unit, sim(|f| f.p50_us, "no packet delivered")),
                "pkt_latency_p99_us" => metric(m.unit, sim(|f| f.p99_us, "no packet delivered")),
                "session_mean_us" => metric(
                    m.unit,
                    sim(|f| f.session_mean_us, "stream workloads have no sessions"),
                ),
                "error_rate" => metric(m.unit, Ok(error_rate)),
                other => unreachable!("unhandled end-to-end metric {other}"),
            };
            (m.name.to_string(), v)
        })
        .collect();

    let mut fields = vec![
        ("workload".to_string(), Value::Str(w.name().to_string())),
        ("seed".to_string(), Value::Uint(o.seed)),
        ("reps".to_string(), Value::Uint(reps as u64)),
        ("ops_per_rep".to_string(), Value::Uint(ops)),
        ("attempted".to_string(), Value::Uint(tally.attempted)),
        ("failed".to_string(), Value::Uint(tally.failed)),
        (
            "failures".to_string(),
            Value::Array(tally.failures.into_iter().map(Value::Str).collect()),
        ),
        (
            "delivery_hash".to_string(),
            fp.as_ref().map_or(Value::Null, |f| {
                Value::Str(format!("{:#018x}", f.delivery_hash))
            }),
        ),
        (
            "packets_per_rep".to_string(),
            fp.as_ref()
                .map_or(Value::Null, |f| Value::Uint(f.packets as u64)),
        ),
        (
            "scenario".to_string(),
            match inputs {
                Inputs::Sessions(text) => Value::Str(text),
                Inputs::Streams(..) => Value::Null,
            },
        ),
        ("metrics".to_string(), Value::Object(e2e)),
    ];
    if let Some(layers) = traced_layers {
        fields.push((
            "layers".to_string(),
            Value::Object(
                layers
                    .into_iter()
                    .map(|l| (l.name.to_string(), metric(l.unit, l.value)))
                    .collect(),
            ),
        ));
    }
    if o.trace {
        fields.push(("spans".to_string(), trace::to_value(&spans.list)));
    }
    Value::Object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_scenarios_parse_and_round_trip() {
        for seed in [0, 1, 777, 4242, u64::MAX] {
            for w in [Workload::SessionsMixed, Workload::SessionsFaulty] {
                let sc = Scenario::parse(&scenario_text(w, seed, FULL.sessions))
                    .expect("generated text parses");
                assert_eq!(sc.seed, seed);
                assert_eq!(sc.total_sessions(), u64::from(FULL.sessions));
                assert_eq!(
                    Scenario::parse(&sc.to_text()).expect("canonical text parses"),
                    sc
                );
            }
        }
        let faulty =
            |seed| Scenario::parse(&scenario_text(Workload::SessionsFaulty, seed, 100)).unwrap();
        assert_ne!(
            faulty(1).fault.unwrap().seed,
            faulty(2).fault.unwrap().seed,
            "the fault seed derives from --seed"
        );
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let o = |seed| Opts {
            seed,
            seconds: 0.0,
            trace: false,
            smoke: true,
        };
        let payloads = |seed| match Inputs::new(Workload::DmaStream, &o(seed)) {
            Inputs::Streams(_, payloads) => payloads,
            Inputs::Sessions(_) => unreachable!("dma_stream is a stream workload"),
        };
        assert_eq!(payloads(7), payloads(7));
        assert_ne!(payloads(7), payloads(8));
    }
}
