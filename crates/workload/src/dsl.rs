//! The scenario DSL: a line-oriented text format describing a closed-loop
//! workload, with a hand-rolled parser and a canonical serializer such
//! that `parse(serialize(s)) == s` for every valid scenario (the
//! proptest round-trip property).
//!
//! # Grammar
//!
//! ```text
//! # comments and blank lines are ignored
//! scenario <name>                    # [A-Za-z0-9_-]+
//! mesh <W>x<H>                       # machine shape, at most 1024 nodes
//! seed <u64>                         # master seed; every stream derives from it
//! pages <u64>                        # physical pages per node (>= 32; at most
//!                                    # 2^20 pages, 4 GiB, over all nodes)
//! users <u32>                        # closed-loop concurrency cap
//! nic <shrimp|unpinned>              # optional NIC backend (default shrimp)
//! fault drop=<f64> corrupt=<f64> seed=<u64>     # optional; enables go-back-N
//! link fail=LO..HI repair=LO..HI times=N        # optional; per-link churn
//! session rpc count=N src=S dst=D requests=R request=B response=B \
//!         think=LO..HI server=LO..HI
//! session stream count=N src=S dst=D pages=P gap=LO..HI
//! session fanout count=N src=S leaves=K rounds=R bytes=B think=LO..HI
//! session dsm count=N src=S dst=D pages=P ops=O write=B think=LO..HI
//! ```
//!
//! `S`/`D` are either a node index or `any` (seed-resolved per session
//! instance). `LO..HI` are durations with a unit suffix (`ps`, `ns`,
//! `us`, `ms`); the serializer picks the largest unit that divides the
//! value exactly, so durations round-trip bit-exactly. A count that
//! overflows its field (`leaves` is `u16`, the other counts `u32`) or a
//! duration past `u64` picoseconds is an error on its line, never
//! wrapped.

use std::fmt::Write as _;

use shrimp_nic::NicBackend;
use shrimp_sim::SimDuration;

/// Bytes per page — must agree with `shrimp_mem::PAGE_SIZE`.
const PAGE_SIZE: u64 = shrimp_mem::PAGE_SIZE;
const WORD: u64 = shrimp_mem::WORD_SIZE;
/// The largest mesh a scenario may ask for.
const MAX_NODES: u16 = 1024;
/// The most physical pages a scenario may ask for over all nodes
/// (4 GiB).
const MAX_TOTAL_PAGES: u64 = 1 << 20;
/// The most link transitions (fails plus repairs over every directed
/// link) a `link` line may ask for. A transition costs ~0.12 µs of host
/// time, so this is about two seconds; `sessions_faulty` asks for
/// 38,400.
const MAX_CHURN_TRANSITIONS: u64 = 1 << 24;

/// A parse or validation failure, with the offending line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DslError {
    /// 1-based line number (0 for whole-document errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for DslError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scenario line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DslError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, DslError> {
    Err(DslError { line, message: message.into() })
}

/// Which node a session endpoint lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeSel {
    /// Seed-resolved per session instance.
    Any,
    /// A fixed node index.
    Fixed(u16),
}

impl NodeSel {
    fn parse(s: &str, line: usize) -> Result<Self, DslError> {
        if s == "any" {
            Ok(NodeSel::Any)
        } else {
            match s.parse::<u16>() {
                Ok(n) => Ok(NodeSel::Fixed(n)),
                Err(_) => err(line, format!("bad node selector {s:?} (want `any` or an index)")),
            }
        }
    }

    fn render(&self) -> String {
        match self {
            NodeSel::Any => "any".into(),
            NodeSel::Fixed(n) => n.to_string(),
        }
    }
}

/// An inclusive seeded draw range of think/gap times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurRange {
    /// Smallest drawable duration.
    pub lo: SimDuration,
    /// Largest drawable duration (inclusive).
    pub hi: SimDuration,
}

/// What one session of a spec does between open and close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionKind {
    /// Request/response over a pair of deliberate-update mappings: the
    /// client pokes a request page and commands a transfer; the server
    /// replies after a seeded service time; repeat after a think time.
    Rpc {
        /// Request/response exchanges per session.
        requests: u32,
        /// Request payload bytes (word multiple, ≤ one page).
        request_bytes: u32,
        /// Response payload bytes (word multiple, ≤ one page).
        response_bytes: u32,
        /// Client think time between exchanges.
        think: DurRange,
        /// Server service time before the response.
        server: DurRange,
    },
    /// A one-way deliberate-update stream: one full-page transfer per
    /// mapped page, a seeded gap apart.
    Stream {
        /// Pages transferred (each its own mapping + command).
        pages: u32,
        /// Gap between page commands.
        gap: DurRange,
    },
    /// A fan-out collective: the root commands a one-page deliberate
    /// transfer to each leaf and waits for all deliveries (a barrier),
    /// then thinks and repeats.
    Fanout {
        /// Leaf count (distinct nodes, excluding the root).
        leaves: u16,
        /// Barrier rounds per session.
        rounds: u32,
        /// Payload bytes per leaf per round (word multiple, ≤ one page).
        bytes: u32,
        /// Think time between rounds.
        think: DurRange,
    },
    /// DSM-style shared pages: complementary automatic-update mappings
    /// (as in `shrimp_core::pram`); each op is a seeded local read or a
    /// word-granular remote-propagating write from a seeded side.
    Dsm {
        /// Shared pages per session.
        pages: u32,
        /// Read/write ops per session.
        ops: u32,
        /// Bytes per write (word multiple, ≤ one page).
        write_bytes: u32,
        /// Think time between ops.
        think: DurRange,
    },
}

impl SessionKind {
    /// The keyword naming this kind in the DSL.
    pub fn keyword(&self) -> &'static str {
        match self {
            SessionKind::Rpc { .. } => "rpc",
            SessionKind::Stream { .. } => "stream",
            SessionKind::Fanout { .. } => "fanout",
            SessionKind::Dsm { .. } => "dsm",
        }
    }

    /// The range a session draws its wait before each op from: the
    /// think time, or a stream's gap.
    pub(crate) fn think(&self) -> DurRange {
        match *self {
            SessionKind::Rpc { think, .. }
            | SessionKind::Fanout { think, .. }
            | SessionKind::Dsm { think, .. } => think,
            SessionKind::Stream { gap, .. } => gap,
        }
    }
}

/// One `session` line: `count` sessions all shaped by `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSpec {
    /// How many sessions this spec contributes.
    pub count: u32,
    /// Source (client / root / writer-a) node.
    pub src: NodeSel,
    /// Destination node (ignored by `fanout`, which derives leaves).
    pub dst: NodeSel,
    /// The traffic pattern.
    pub kind: SessionKind,
}

/// Optional fault-injection block (`fault` line); presence also turns
/// on reliable go-back-N retransmission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Per-packet drop probability.
    pub drop: f64,
    /// Per-packet corruption probability.
    pub corrupt: f64,
    /// Fault-stream seed (independent of the scenario seed).
    pub seed: u64,
}

/// Optional link-churn block (`link` line): every directed mesh link
/// independently fails and repairs `times` times, with up/down
/// intervals drawn from the given ranges. Presence also turns on
/// reliable go-back-N retransmission (churn bounces packets back to
/// the source NIC, which must be able to retry them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnSpec {
    /// Up-time drawn before each failure.
    pub fail: DurRange,
    /// Down-time drawn before the matching repair.
    pub repair: DurRange,
    /// Fail/repair cycles per directed link.
    pub times: u32,
}

/// A parsed scenario document.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (metrics prefix, report label).
    pub name: String,
    /// Mesh shape (width, height).
    pub mesh: (u16, u16),
    /// Master seed.
    pub seed: u64,
    /// Physical pages per node.
    pub pages: u64,
    /// Closed-loop concurrency cap.
    pub users: u32,
    /// NIC backend the machine is built with (`nic` line; defaults to
    /// the paper's pinned SHRIMP design).
    pub nic: NicBackend,
    /// Optional fault injection.
    pub fault: Option<FaultSpec>,
    /// Optional link churn.
    pub churn: Option<ChurnSpec>,
    /// The session specs, in file order.
    pub specs: Vec<SessionSpec>,
}

impl Scenario {
    /// Total sessions across all specs.
    pub fn total_sessions(&self) -> u64 {
        self.specs.iter().map(|s| u64::from(s.count)).sum()
    }

    /// Nodes in the mesh (saturating: [`Scenario::validate`] rejects a
    /// mesh of more than 1,024).
    pub fn nodes(&self) -> u16 {
        self.mesh.0.saturating_mul(self.mesh.1)
    }

    /// Parses a scenario document.
    ///
    /// # Errors
    ///
    /// Returns the first syntax or validation error with its line.
    pub fn parse(text: &str) -> Result<Scenario, DslError> {
        let mut name: Option<String> = None;
        let mut mesh: Option<(u16, u16)> = None;
        let mut seed: Option<u64> = None;
        let mut pages: Option<u64> = None;
        let mut users: Option<u32> = None;
        let mut nic: Option<NicBackend> = None;
        let mut fault: Option<FaultSpec> = None;
        let mut churn: Option<ChurnSpec> = None;
        let mut specs: Vec<SessionSpec> = Vec::new();

        for (idx, raw) in text.lines().enumerate() {
            let ln = idx + 1;
            let line = match raw.find('#') {
                Some(h) => &raw[..h],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            let (head, rest) = match line.split_once(char::is_whitespace) {
                Some((h, r)) => (h, r.trim()),
                None => (line, ""),
            };
            match head {
                "scenario" => {
                    if name.is_some() {
                        return err(ln, "duplicate `scenario` line");
                    }
                    if rest.is_empty()
                        || !rest.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
                    {
                        return err(ln, format!("bad scenario name {rest:?}"));
                    }
                    name = Some(rest.to_string());
                }
                "mesh" => {
                    let (w, h) = rest
                        .split_once('x')
                        .ok_or(())
                        .and_then(|(w, h)| Ok((w.parse().map_err(|_| ())?, h.parse().map_err(|_| ())?)))
                        .map_err(|()| DslError {
                            line: ln,
                            message: format!("bad mesh {rest:?} (want WxH)"),
                        })?;
                    if mesh_nodes((w, h)).is_none() {
                        return err(ln, format!("mesh {rest:?} has over {MAX_NODES} nodes"));
                    }
                    mesh = Some((w, h));
                }
                "seed" => {
                    seed = Some(parse_u64(rest, ln, "seed")?);
                }
                "pages" => {
                    pages = Some(parse_u64(rest, ln, "pages")?);
                }
                "users" => {
                    users = Some(parse_int(rest, ln, "users")?);
                }
                "nic" => {
                    if nic.is_some() {
                        return err(ln, "duplicate `nic` line");
                    }
                    nic = Some(parse_backend(rest, ln)?);
                }
                "fault" => {
                    if fault.is_some() {
                        return err(ln, "duplicate `fault` line");
                    }
                    let kv = KvLine::parse(rest, ln)?;
                    fault = Some(FaultSpec {
                        drop: kv.f64("drop")?,
                        corrupt: kv.f64("corrupt")?,
                        seed: kv.u64("seed")?,
                    });
                    kv.finish()?;
                }
                "link" => {
                    if churn.is_some() {
                        return err(ln, "duplicate `link` line");
                    }
                    let kv = KvLine::parse(rest, ln)?;
                    churn = Some(ChurnSpec {
                        fail: kv.range("fail")?,
                        repair: kv.range("repair")?,
                        times: kv.int("times")?,
                    });
                    kv.finish()?;
                }
                "session" => {
                    let (kind_kw, kvrest) = rest
                        .split_once(char::is_whitespace)
                        .map(|(k, r)| (k, r.trim()))
                        .unwrap_or((rest, ""));
                    let kv = KvLine::parse(kvrest, ln)?;
                    let count = kv.int("count")?;
                    let src = NodeSel::parse(&kv.raw("src")?, ln)?;
                    let kind = match kind_kw {
                        "rpc" => SessionKind::Rpc {
                            requests: kv.int("requests")?,
                            request_bytes: kv.int("request")?,
                            response_bytes: kv.int("response")?,
                            think: kv.range("think")?,
                            server: kv.range("server")?,
                        },
                        "stream" => SessionKind::Stream {
                            pages: kv.int("pages")?,
                            gap: kv.range("gap")?,
                        },
                        "fanout" => SessionKind::Fanout {
                            leaves: kv.int("leaves")?,
                            rounds: kv.int("rounds")?,
                            bytes: kv.int("bytes")?,
                            think: kv.range("think")?,
                        },
                        "dsm" => SessionKind::Dsm {
                            pages: kv.int("pages")?,
                            ops: kv.int("ops")?,
                            write_bytes: kv.int("write")?,
                            think: kv.range("think")?,
                        },
                        other => return err(ln, format!("unknown session kind {other:?}")),
                    };
                    let dst = if matches!(kind, SessionKind::Fanout { .. }) {
                        NodeSel::Any
                    } else {
                        NodeSel::parse(&kv.raw("dst")?, ln)?
                    };
                    kv.finish()?;
                    specs.push(SessionSpec { count, src, dst, kind });
                }
                other => return err(ln, format!("unknown directive {other:?}")),
            }
        }

        let sc = Scenario {
            name: name.ok_or(DslError { line: 0, message: "missing `scenario` line".into() })?,
            mesh: mesh.ok_or(DslError { line: 0, message: "missing `mesh` line".into() })?,
            seed: seed.ok_or(DslError { line: 0, message: "missing `seed` line".into() })?,
            pages: pages.unwrap_or(256),
            users: users.ok_or(DslError { line: 0, message: "missing `users` line".into() })?,
            nic: nic.unwrap_or_default(),
            fault,
            churn,
            specs,
        };
        sc.validate()?;
        Ok(sc)
    }

    /// Checks cross-field invariants (the generator relies on these).
    ///
    /// # Errors
    ///
    /// Returns a whole-document [`DslError`] (line 0) on violation.
    pub fn validate(&self) -> Result<(), DslError> {
        let e = |m: String| -> Result<(), DslError> { err(0, m) };
        let Some(nodes) = mesh_nodes(self.mesh) else {
            return e(format!("mesh must have at most {MAX_NODES} nodes"));
        };
        if nodes == 0 {
            return e("mesh must have at least one node".into());
        }
        if self.pages < 32 {
            return e("pages must be >= 32 (MachineConfig::validate)".into());
        }
        if u64::from(nodes).saturating_mul(self.pages) > MAX_TOTAL_PAGES {
            return e(format!("nodes x pages must be <= {MAX_TOTAL_PAGES}"));
        }
        if self.users == 0 {
            return e("users must be >= 1".into());
        }
        if self.specs.is_empty() {
            return e("at least one `session` line required".into());
        }
        if let Some(f) = &self.fault {
            if !(0.0..=1.0).contains(&f.drop) || !(0.0..=1.0).contains(&f.corrupt) {
                return e("fault probabilities must be in [0,1]".into());
            }
            if !f.drop.is_finite() || !f.corrupt.is_finite() {
                return e("fault probabilities must be finite".into());
            }
        }
        if let Some(c) = &self.churn {
            if c.times == 0 {
                return e("link times must be >= 1".into());
            }
            if c.fail.lo > c.fail.hi {
                return e("link fail range is inverted".into());
            }
            if c.repair.lo > c.repair.hi {
                return e("link repair range is inverted".into());
            }
            // Each directed link fails and is repaired `times` times.
            let (w, h) = (u64::from(self.mesh.0), u64::from(self.mesh.1));
            let directed = 2 * ((w - 1) * h + w * (h - 1));
            if 2 * directed * u64::from(c.times) > MAX_CHURN_TRANSITIONS {
                return e(format!(
                    "link times={} asks for over {MAX_CHURN_TRANSITIONS} link transitions",
                    c.times
                ));
            }
        }
        for (i, s) in self.specs.iter().enumerate() {
            let at = |m: String| -> Result<(), DslError> { err(0, format!("session {i}: {m}")) };
            if s.count == 0 {
                return at("count must be >= 1".into());
            }
            let fixed_ok = |sel: NodeSel| match sel {
                NodeSel::Any => true,
                NodeSel::Fixed(n) => n < nodes,
            };
            if !fixed_ok(s.src) || !fixed_ok(s.dst) {
                return at(format!("node index out of range (mesh has {nodes} nodes)"));
            }
            let needs_peer = !matches!(s.kind, SessionKind::Fanout { .. });
            if needs_peer {
                if nodes < 2 {
                    return at("needs at least 2 nodes".into());
                }
                if let (NodeSel::Fixed(a), NodeSel::Fixed(b)) = (s.src, s.dst) {
                    if a == b {
                        return at("src and dst must differ".into());
                    }
                }
            }
            let word_page = |label: &str, b: u32| -> Result<(), DslError> {
                if b == 0 || u64::from(b) % WORD != 0 || u64::from(b) > PAGE_SIZE {
                    err(0, format!("session {i}: {label} must be a nonzero word multiple <= {PAGE_SIZE}"))
                } else {
                    Ok(())
                }
            };
            let range_ok = |label: &str, r: DurRange| -> Result<(), DslError> {
                if r.lo > r.hi {
                    err(0, format!("session {i}: {label} range is inverted"))
                } else {
                    Ok(())
                }
            };
            match s.kind {
                SessionKind::Rpc { requests, request_bytes, response_bytes, think, server } => {
                    if requests == 0 {
                        return at("requests must be >= 1".into());
                    }
                    word_page("request", request_bytes)?;
                    word_page("response", response_bytes)?;
                    range_ok("think", think)?;
                    range_ok("server", server)?;
                }
                SessionKind::Stream { pages, gap } => {
                    if pages == 0 {
                        return at("pages must be >= 1".into());
                    }
                    range_ok("gap", gap)?;
                }
                SessionKind::Fanout { leaves, rounds, bytes, think } => {
                    if leaves == 0 || leaves >= nodes {
                        return at(format!("leaves must be in 1..{nodes}"));
                    }
                    if rounds == 0 {
                        return at("rounds must be >= 1".into());
                    }
                    word_page("bytes", bytes)?;
                    range_ok("think", think)?;
                }
                SessionKind::Dsm { pages, ops, write_bytes, think } => {
                    if pages == 0 {
                        return at("pages must be >= 1".into());
                    }
                    if ops == 0 {
                        return at("ops must be >= 1".into());
                    }
                    word_page("write", write_bytes)?;
                    range_ok("think", think)?;
                }
            }
        }
        Ok(())
    }

    /// Serializes to the canonical text form (the round-trip inverse of
    /// [`Scenario::parse`]).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "scenario {}", self.name);
        let _ = writeln!(out, "mesh {}x{}", self.mesh.0, self.mesh.1);
        let _ = writeln!(out, "seed {}", self.seed);
        let _ = writeln!(out, "pages {}", self.pages);
        let _ = writeln!(out, "users {}", self.users);
        if self.nic != NicBackend::default() {
            let _ = writeln!(out, "nic {}", self.nic.as_str());
        }
        if let Some(f) = &self.fault {
            let _ = writeln!(out, "fault drop={} corrupt={} seed={}", f.drop, f.corrupt, f.seed);
        }
        if let Some(c) = &self.churn {
            let _ = writeln!(
                out,
                "link fail={} repair={} times={}",
                render_range(c.fail),
                render_range(c.repair),
                c.times,
            );
        }
        for s in &self.specs {
            let _ = write!(out, "session {} count={} src={}", s.kind.keyword(), s.count, s.src.render());
            match s.kind {
                SessionKind::Rpc { requests, request_bytes, response_bytes, think, server } => {
                    let _ = writeln!(
                        out,
                        " dst={} requests={requests} request={request_bytes} response={response_bytes} think={} server={}",
                        s.dst.render(),
                        render_range(think),
                        render_range(server),
                    );
                }
                SessionKind::Stream { pages, gap } => {
                    let _ = writeln!(out, " dst={} pages={pages} gap={}", s.dst.render(), render_range(gap));
                }
                SessionKind::Fanout { leaves, rounds, bytes, think } => {
                    let _ = writeln!(out, " leaves={leaves} rounds={rounds} bytes={bytes} think={}", render_range(think));
                }
                SessionKind::Dsm { pages, ops, write_bytes, think } => {
                    let _ = writeln!(
                        out,
                        " dst={} pages={pages} ops={ops} write={write_bytes} think={}",
                        s.dst.render(),
                        render_range(think),
                    );
                }
            }
        }
        out
    }
}

fn parse_backend(s: &str, line: usize) -> Result<NicBackend, DslError> {
    NicBackend::parse(s)
        .ok_or_else(|| DslError {
            line,
            message: format!("unknown nic backend {s:?} (want shrimp|unpinned)"),
        })
}

/// A `W`x`H` mesh's node count, unless it overflows or exceeds
/// [`MAX_NODES`].
fn mesh_nodes((w, h): (u16, u16)) -> Option<u16> {
    w.checked_mul(h).filter(|&n| n <= MAX_NODES)
}

fn parse_u64(s: &str, line: usize, what: &str) -> Result<u64, DslError> {
    s.parse::<u64>()
        .map_err(|_| DslError { line, message: format!("bad {what} {s:?}") })
}

/// Parses a `u64` and converts it to the field's narrower type.
fn parse_int<T: TryFrom<u64>>(s: &str, line: usize, what: &str) -> Result<T, DslError> {
    let v = parse_u64(s, line, what)?;
    T::try_from(v).map_err(|_| DslError { line, message: format!("{what} {v} is out of range") })
}

/// Renders a duration with the largest unit that divides it exactly, so
/// parsing the result reproduces the same picosecond count.
fn render_dur(d: SimDuration) -> String {
    let ps = d.as_picos();
    if ps == 0 {
        return "0ns".into();
    }
    for (unit, scale) in [("ms", 1_000_000_000u64), ("us", 1_000_000), ("ns", 1_000)] {
        if ps.is_multiple_of(scale) {
            return format!("{}{unit}", ps / scale);
        }
    }
    format!("{ps}ps")
}

fn render_range(r: DurRange) -> String {
    format!("{}..{}", render_dur(r.lo), render_dur(r.hi))
}

fn parse_dur(s: &str, line: usize) -> Result<SimDuration, DslError> {
    let (num, scale) = if let Some(v) = s.strip_suffix("ms") {
        (v, 1_000_000_000)
    } else if let Some(v) = s.strip_suffix("us") {
        (v, 1_000_000)
    } else if let Some(v) = s.strip_suffix("ns") {
        (v, 1_000)
    } else if let Some(v) = s.strip_suffix("ps") {
        (v, 1)
    } else {
        return err(line, format!("duration {s:?} needs a unit (ps/ns/us/ms)"));
    };
    let v = parse_u64(num, line, "duration")?;
    let ps = v
        .checked_mul(scale)
        .ok_or(DslError { line, message: format!("duration {s:?} is out of range") })?;
    Ok(SimDuration::from_picos(ps))
}

/// A `key=value ...` line with consumed-key tracking (so stray keys are
/// rejected).
struct KvLine {
    line: usize,
    pairs: std::cell::RefCell<Vec<(String, String)>>,
}

impl KvLine {
    fn parse(rest: &str, line: usize) -> Result<Self, DslError> {
        let mut pairs = Vec::new();
        for tok in rest.split_whitespace() {
            let (k, v) = tok
                .split_once('=')
                .ok_or(DslError { line, message: format!("expected key=value, got {tok:?}") })?;
            pairs.push((k.to_string(), v.to_string()));
        }
        Ok(KvLine { line, pairs: std::cell::RefCell::new(pairs) })
    }

    fn take(&self, key: &str) -> Result<String, DslError> {
        let mut pairs = self.pairs.borrow_mut();
        match pairs.iter().position(|(k, _)| k == key) {
            Some(i) => Ok(pairs.remove(i).1),
            None => err(self.line, format!("missing {key}=")),
        }
    }

    fn raw(&self, key: &str) -> Result<String, DslError> {
        self.take(key)
    }

    fn u64(&self, key: &str) -> Result<u64, DslError> {
        let v = self.take(key)?;
        parse_u64(&v, self.line, key)
    }

    fn int<T: TryFrom<u64>>(&self, key: &str) -> Result<T, DslError> {
        let v = self.take(key)?;
        parse_int(&v, self.line, key)
    }

    fn f64(&self, key: &str) -> Result<f64, DslError> {
        let v = self.take(key)?;
        v.parse::<f64>()
            .map_err(|_| DslError { line: self.line, message: format!("bad {key} {v:?}") })
    }

    fn range(&self, key: &str) -> Result<DurRange, DslError> {
        let v = self.take(key)?;
        let (lo, hi) = v
            .split_once("..")
            .ok_or(DslError { line: self.line, message: format!("bad {key} {v:?} (want LO..HI)") })?;
        Ok(DurRange { lo: parse_dur(lo, self.line)?, hi: parse_dur(hi, self.line)? })
    }

    fn finish(&self) -> Result<(), DslError> {
        let pairs = self.pairs.borrow();
        if let Some((k, _)) = pairs.first() {
            return err(self.line, format!("unknown key {k:?}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> String {
        "scenario demo\nmesh 2x1\nseed 7\npages 64\nusers 2\n\
         session rpc count=3 src=0 dst=1 requests=2 request=64 response=32 think=1us..2us server=500ns..500ns\n"
            .to_string()
    }

    #[test]
    fn parses_minimal() {
        let sc = Scenario::parse(&minimal()).unwrap();
        assert_eq!(sc.name, "demo");
        assert_eq!(sc.mesh, (2, 1));
        assert_eq!(sc.total_sessions(), 3);
        assert!(sc.fault.is_none());
    }

    #[test]
    fn round_trips_canonical_text() {
        let sc = Scenario::parse(&minimal()).unwrap();
        let again = Scenario::parse(&sc.to_text()).unwrap();
        assert_eq!(sc, again);
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let text = format!("# header\n\n{}  # trailing\n", minimal());
        assert!(Scenario::parse(&text).is_ok());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Scenario::parse("").is_err());
        assert!(Scenario::parse("scenario x\nmesh 1x1\nseed 1\nusers 1\n").is_err(), "no sessions");
        let bad = minimal().replace("request=64", "request=63");
        assert!(Scenario::parse(&bad).is_err(), "non-word-multiple bytes");
        let bad = minimal().replace("dst=1", "dst=0");
        assert!(Scenario::parse(&bad).is_err(), "src == dst");
        let bad = minimal().replace("think=1us..2us", "think=2us..1us");
        assert!(Scenario::parse(&bad).is_err(), "inverted range");
        let bad = minimal() + "session rpc count=1 src=0 dst=9 requests=1 request=4 response=4 think=0ns..0ns server=0ns..0ns\n";
        assert!(Scenario::parse(&bad).is_err(), "node out of range");

        // Hostile numbers return `Err`: nothing overflows, wraps or panics.
        let line_of = |text: &str| Scenario::parse(text).expect_err(text).line;
        // The u16 product of `nodes` overflows; 33x32 only exceeds the cap.
        for mesh in ["mesh 300x300", "mesh 33x32", "mesh 65535x65535"] {
            assert_eq!(line_of(&minimal().replace("mesh 2x1", mesh)), 2, "{mesh}");
        }
        let big = minimal().replace("mesh 2x1", "mesh 32x32");
        assert_eq!(Scenario::parse(&big).unwrap().nodes(), 1024);
        // Pages over all nodes past 2^20 (4 GiB), or past u64.
        assert!(Scenario::parse(&big.replace("pages 64", "pages 1024")).is_ok());
        for pages in ["pages 1025", "pages 18446744073709551615"] {
            assert!(Scenario::parse(&big.replace("pages 64", pages)).is_err(), "{pages}");
        }
        // Every narrowed count reports its line instead of wrapping.
        let rpc = 6;
        for (from, to) in [
            ("count=3", "count=4294967297"),
            ("requests=2", "requests=4294967297"),
            ("request=64", "request=4294967360"),
            ("response=32", "response=4294967328"),
        ] {
            assert_eq!(line_of(&minimal().replace(from, to)), rpc, "{to}");
        }
        assert_eq!(line_of(&minimal().replace("users 2", "users 4294967298")), 5);
        let extra = [
            "link fail=1us..2us repair=1us..2us times=4294967297",
            "session stream count=1 src=0 dst=1 pages=4294967297 gap=0ns..0ns",
            "session fanout count=1 src=0 leaves=65537 rounds=1 bytes=4 think=0ns..0ns",
            "session fanout count=1 src=0 leaves=1 rounds=4294967297 bytes=4 think=0ns..0ns",
            "session fanout count=1 src=0 leaves=1 rounds=1 bytes=4294967300 think=0ns..0ns",
            "session dsm count=1 src=0 dst=1 pages=4294967297 ops=1 write=4 think=0ns..0ns",
            "session dsm count=1 src=0 dst=1 pages=1 ops=4294967297 write=4 think=0ns..0ns",
            "session dsm count=1 src=0 dst=1 pages=1 ops=1 write=4294967300 think=0ns..0ns",
            "session stream count=1 src=0 dst=1 pages=1 gap=0ns..18446744073709552ms",
        ];
        for line in extra {
            assert_eq!(line_of(&format!("{}{line}\n", minimal())), rpc + 1, "{line}");
        }
        // Churn work is bounded: a fail and a repair per directed link
        // and time, at most 2^24 transitions. A 2x1 mesh has 2 directed
        // links, a 32x32 mesh 3,968.
        let churn = |text: &str, times: u64| {
            Scenario::parse(&format!("{text}link fail=1ps..1ps repair=1ps..1ps times={times}\n"))
        };
        assert!(churn(&minimal(), 1 << 22).is_ok());
        assert_eq!(churn(&minimal(), (1 << 22) + 1).expect_err("over the bound").line, 0);
        assert!(churn(&big, 4_294_967_295).is_err());
    }

    #[test]
    fn durations_round_trip_all_units() {
        for ps in [0u64, 1, 999, 1_000, 1_500, 1_000_000, 2_000_000_000, 3_500_000] {
            let d = SimDuration::from_picos(ps);
            let s = render_dur(d);
            assert_eq!(parse_dur(&s, 1).unwrap(), d, "unit rendering of {ps} ps");
        }
    }

    #[test]
    fn link_line_round_trips() {
        let text = minimal() + "link fail=40us..80us repair=5us..10us times=2\n";
        let sc = Scenario::parse(&text).unwrap();
        assert_eq!(
            sc.churn,
            Some(ChurnSpec {
                fail: DurRange {
                    lo: SimDuration::from_us(40),
                    hi: SimDuration::from_us(80),
                },
                repair: DurRange {
                    lo: SimDuration::from_us(5),
                    hi: SimDuration::from_us(10),
                },
                times: 2,
            })
        );
        assert_eq!(Scenario::parse(&sc.to_text()).unwrap(), sc);
        let bad = minimal() + "link fail=40us..80us repair=5us..10us times=0\n";
        assert!(Scenario::parse(&bad).is_err(), "zero churn cycles");
        let bad = minimal() + "link fail=80us..40us repair=5us..10us times=1\n";
        assert!(Scenario::parse(&bad).is_err(), "inverted fail range");
    }

    #[test]
    fn nic_line_round_trips() {
        let sc = Scenario::parse(&minimal()).unwrap();
        assert_eq!(sc.nic, NicBackend::Shrimp);
        assert!(!sc.to_text().contains("nic "), "default backend is implicit");

        let sc = Scenario::parse(&(minimal() + "nic unpinned\n")).unwrap();
        assert_eq!(sc.nic, NicBackend::Unpinned);
        let text = sc.to_text();
        assert!(text.contains("nic unpinned"), "canonical form: {text}");
        assert_eq!(Scenario::parse(&text).unwrap(), sc);

        assert!(Scenario::parse(&(minimal() + "nic rdma\n")).is_err(), "unknown backend");
        assert!(
            Scenario::parse(&(minimal() + "nic shrimp\nnic unpinned\n")).is_err(),
            "duplicate nic line"
        );
        assert!(Scenario::parse(&(minimal() + "nic=unpinned\n")).is_err(), "one spelling");
    }

    #[test]
    fn fault_line_round_trips() {
        let text = minimal() + "fault drop=0.01 corrupt=0.001 seed=42\n";
        let sc = Scenario::parse(&text).unwrap();
        assert_eq!(sc.fault, Some(FaultSpec { drop: 0.01, corrupt: 0.001, seed: 42 }));
        assert_eq!(Scenario::parse(&sc.to_text()).unwrap(), sc);
    }
}
