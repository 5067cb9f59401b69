//! Engine self-profiling: barrier-cause accounting, window-shape
//! telemetry, and coarse wall-clock phase attribution.
//!
//! Two strictly separated kinds of data live here (DESIGN.md §5h):
//!
//! * **Deterministic window telemetry** ([`WindowStats`]) — per-cause
//!   window-close counters and window-shape histograms. These are
//!   computed from simulation state only (queue contents, clamp
//!   decisions, slice barriers), so they are byte-identical for every
//!   worker count and safe to publish in the worker-invariant
//!   `shrimp.metrics.v1` snapshot.
//! * **Wall-clock phase attribution** ([`EngineProfiler`],
//!   [`EngineProfileReport`]) — monotonic-clock time spent forming
//!   windows, executing them, committing the merge, and pumping the
//!   mesh. Wall clock varies run to run and worker count to worker
//!   count, so it is *never* part of the machine's deterministic
//!   snapshot; it surfaces only through the explicit profile report
//!   (the `profview` bench and Perfetto counter tracks).

use std::time::Instant;

use crate::metrics::MetricsRegistry;
use crate::stats::Histogram;

/// Why a lookahead window closed (or was refused). Every window the
/// engine considers is attributed to exactly one cause, so the
/// per-cause counters sum to the total number of windows closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierCause {
    /// A slice executed a §4.4 kernel message; the commit must refresh
    /// armed-invalidation counts before anything later runs.
    KernelMsg,
    /// A slice raised a fault action; fault service is machine-level.
    Fault,
    /// A slice scheduled a mesh-coupled wakeup for itself inside the
    /// window; the machine must pump the network first.
    MeshWakeup,
    /// The window end was clamped to the next pending mesh event — the
    /// direct measurement of the "window formation serializes at every
    /// mesh event" headroom.
    MeshEventClamp,
    /// A window could not open at all: a §4.4 invalidation was armed
    /// somewhere, so a remote write fault could reach across nodes
    /// with zero delay.
    ArmedInvalidation,
    /// The window end was clamped to the run bound.
    LimitClamp,
    /// The window ran its full static lookahead with no clamp and no
    /// slice barrier.
    Horizon,
}

impl BarrierCause {
    /// Every cause, in stable reporting order.
    pub const ALL: [BarrierCause; 7] = [
        BarrierCause::KernelMsg,
        BarrierCause::Fault,
        BarrierCause::MeshWakeup,
        BarrierCause::MeshEventClamp,
        BarrierCause::ArmedInvalidation,
        BarrierCause::LimitClamp,
        BarrierCause::Horizon,
    ];

    /// Stable metric-name segment (`engine.barrier.<name>`).
    pub fn name(self) -> &'static str {
        match self {
            BarrierCause::KernelMsg => "kernel_msg",
            BarrierCause::Fault => "fault",
            BarrierCause::MeshWakeup => "mesh_wakeup",
            BarrierCause::MeshEventClamp => "mesh_event_clamp",
            BarrierCause::ArmedInvalidation => "armed_invalidation",
            BarrierCause::LimitClamp => "limit_clamp",
            BarrierCause::Horizon => "horizon",
        }
    }

    fn index(self) -> usize {
        BarrierCause::ALL
            .iter()
            .position(|&c| c == self)
            .expect("ALL covers every variant")
    }
}

/// Deterministic window telemetry: per-cause close counters and
/// window-shape histograms. Worker-invariant by construction — every
/// count derives from the deterministic formation/commit path.
///
/// # Examples
///
/// ```
/// use shrimp_sim::profile::{BarrierCause, WindowStats};
///
/// let mut w = WindowStats::default();
/// w.note_close(BarrierCause::MeshEventClamp);
/// w.note_close(BarrierCause::KernelMsg);
/// assert_eq!(w.closes(BarrierCause::MeshEventClamp), 1);
/// assert_eq!(w.total_closed(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WindowStats {
    closes: [u64; BarrierCause::ALL.len()],
    /// Events committed per executed window (roots plus in-window
    /// children).
    pub depth: Histogram,
    /// Distinct participating nodes per executed window.
    pub participants: Histogram,
    /// Events executed per node slice of a window.
    pub slice_events: Histogram,
}

impl WindowStats {
    /// Attributes one window close (or refusal) to `cause`.
    #[inline]
    pub fn note_close(&mut self, cause: BarrierCause) {
        self.closes[cause.index()] = self.closes[cause.index()].saturating_add(1);
    }

    /// Closes attributed to `cause` so far.
    pub fn closes(&self, cause: BarrierCause) -> u64 {
        self.closes[cause.index()]
    }

    /// Total windows closed — always the sum of the per-cause counters.
    pub fn total_closed(&self) -> u64 {
        self.closes.iter().sum()
    }

    /// Publishes the deterministic window telemetry under `engine.*`.
    /// Emits every cause counter (zeros included) so the per-cause
    /// breakdown always sums to `engine.windows.closed`.
    pub fn register(&self, reg: &mut MetricsRegistry) {
        reg.set_counter("engine.windows.closed", self.total_closed());
        for cause in BarrierCause::ALL {
            reg.set_counter(format!("engine.barrier.{}", cause.name()), self.closes(cause));
        }
        if self.depth.count() > 0 {
            reg.set_histogram("engine.window.depth", &self.depth);
            reg.set_histogram("engine.window.participants", &self.participants);
            reg.set_histogram("engine.window.slice_events", &self.slice_events);
        }
    }
}

/// A wall-clock phase of the engine's main loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnginePhase {
    /// Draining and grouping windowable events per node.
    Formation,
    /// Fanning slices out and executing them (includes the
    /// coordinator's own slice and its wait for worker results).
    Execution,
    /// Replaying recorded consequences in global `(time, seq)` order.
    Commit,
    /// Serial mesh advancement and NIC pumping: every network pump,
    /// whether after a mesh advance or after a `DmaComplete`.
    MeshPump,
}

impl EnginePhase {
    /// Every phase, in stable reporting order.
    pub const ALL: [EnginePhase; 4] = [
        EnginePhase::Formation,
        EnginePhase::Execution,
        EnginePhase::Commit,
        EnginePhase::MeshPump,
    ];

    /// Stable metric-name segment (`engine.profile.<name>_ns`).
    pub fn name(self) -> &'static str {
        match self {
            EnginePhase::Formation => "formation",
            EnginePhase::Execution => "execution",
            EnginePhase::Commit => "commit",
            EnginePhase::MeshPump => "mesh_pump",
        }
    }

    fn index(self) -> usize {
        EnginePhase::ALL
            .iter()
            .position(|&p| p == self)
            .expect("ALL covers every variant")
    }
}

/// Coarse monotonic-clock phase accumulator. When disabled it never
/// reads the clock — [`EngineProfiler::begin`] returns `None` and
/// [`EngineProfiler::end`] is a no-op — so an unprofiled run pays one
/// branch per phase boundary.
///
/// # Examples
///
/// ```
/// use shrimp_sim::profile::{EnginePhase, EngineProfiler};
///
/// let mut p = EngineProfiler::new(true);
/// let t = p.begin();
/// p.end(EnginePhase::Commit, t);
/// assert_eq!(p.calls(EnginePhase::Commit), 1);
///
/// let mut off = EngineProfiler::new(false);
/// assert!(off.begin().is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct EngineProfiler {
    enabled: bool,
    nanos: [u64; EnginePhase::ALL.len()],
    calls: [u64; EnginePhase::ALL.len()],
    pump_node_visits: u64,
}

impl EngineProfiler {
    /// Creates a profiler; `enabled = false` makes every call inert.
    pub fn new(enabled: bool) -> Self {
        EngineProfiler {
            enabled,
            ..EngineProfiler::default()
        }
    }

    /// Whether phase timing is being collected.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts timing a phase. `None` when disabled.
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Ends a phase started by [`EngineProfiler::begin`].
    #[inline]
    pub fn end(&mut self, phase: EnginePhase, started: Option<Instant>) {
        if let Some(t0) = started {
            let i = phase.index();
            self.nanos[i] = self.nanos[i].saturating_add(t0.elapsed().as_nanos() as u64);
            self.calls[i] = self.calls[i].saturating_add(1);
        }
    }

    /// Starts a *sampled* timing of `phase`: the call is always
    /// counted, but the clock is read only once every
    /// [`EngineProfiler::SAMPLE`] calls and the elapsed time scaled
    /// back up in [`EngineProfiler::end_sampled`]. Use for phases that
    /// fire many times per simulated event (mesh pumping), where two
    /// clock reads per call would dominate the phase itself.
    #[inline]
    pub fn begin_sampled(&mut self, phase: EnginePhase) -> Option<Instant> {
        if !self.enabled {
            return None;
        }
        let i = phase.index();
        self.calls[i] = self.calls[i].saturating_add(1);
        (self.calls[i] % Self::SAMPLE == 1).then(Instant::now)
    }

    /// Ends a sampled timing started by [`EngineProfiler::begin_sampled`],
    /// attributing `elapsed × SAMPLE` nanoseconds to `phase`.
    #[inline]
    pub fn end_sampled(&mut self, phase: EnginePhase, started: Option<Instant>) {
        if let Some(t0) = started {
            let i = phase.index();
            let ns = (t0.elapsed().as_nanos() as u64).saturating_mul(Self::SAMPLE);
            self.nanos[i] = self.nanos[i].saturating_add(ns);
        }
    }

    /// Counts `visits` node visits made by one network pump (a plain
    /// counter: no clock read). Inert when disabled.
    #[inline]
    pub fn note_pump_visits(&mut self, visits: u64) {
        if self.enabled {
            self.pump_node_visits = self.pump_node_visits.saturating_add(visits);
        }
    }

    /// Node visits made by network pumps so far.
    pub fn pump_node_visits(&self) -> u64 {
        self.pump_node_visits
    }

    /// Sampling period for [`EngineProfiler::begin_sampled`].
    pub const SAMPLE: u64 = 8;

    /// Accumulated wall nanoseconds in `phase`.
    pub fn nanos(&self, phase: EnginePhase) -> u64 {
        self.nanos[phase.index()]
    }

    /// Number of timed intervals attributed to `phase`.
    pub fn calls(&self, phase: EnginePhase) -> u64 {
        self.calls[phase.index()]
    }
}

/// A finished profile: per-phase wall time plus worker-pool busy/idle
/// attribution. Produced by the machine on demand; never part of the
/// deterministic metrics snapshot.
#[derive(Debug, Clone)]
pub struct EngineProfileReport {
    /// `(phase name, wall nanoseconds, timed intervals)` per phase, in
    /// [`EnginePhase::ALL`] order.
    pub phases: Vec<(&'static str, u64, u64)>,
    /// Wall nanoseconds worker threads spent executing window slices.
    pub worker_busy_ns: u64,
    /// Estimated wall nanoseconds worker threads sat idle during the
    /// execution phase (`execution × spawned workers − busy`, clamped).
    pub worker_idle_ns: u64,
    /// Configured worker count (1 = no pool, coordinator only).
    pub workers: usize,
    /// Node visits made by network pumps; divided by the `mesh_pump`
    /// calls it gives the mean worklist length per pump.
    pub pump_node_visits: u64,
}

impl EngineProfileReport {
    /// Builds a report from a profiler plus pool observations.
    pub fn new(profiler: &EngineProfiler, workers: usize, worker_busy_ns: u64) -> Self {
        let phases: Vec<(&'static str, u64, u64)> = EnginePhase::ALL
            .iter()
            .map(|&p| (p.name(), profiler.nanos(p), profiler.calls(p)))
            .collect();
        let spawned = workers.saturating_sub(1) as u64;
        let exec_ns = profiler.nanos(EnginePhase::Execution);
        let worker_idle_ns = (exec_ns * spawned).saturating_sub(worker_busy_ns);
        EngineProfileReport {
            phases,
            worker_busy_ns,
            worker_idle_ns,
            workers,
            pump_node_visits: profiler.pump_node_visits(),
        }
    }

    /// Total wall nanoseconds attributed to any phase.
    pub fn total_ns(&self) -> u64 {
        self.phases.iter().map(|&(_, ns, _)| ns).sum()
    }

    /// Publishes the profile under `engine.profile.*`. Wall-clock data:
    /// callers must keep this out of worker-invariant snapshots.
    pub fn register(&self, reg: &mut MetricsRegistry) {
        for &(name, ns, calls) in &self.phases {
            reg.set_counter(format!("engine.profile.{name}_ns"), ns);
            reg.set_counter(format!("engine.profile.{name}_calls"), calls);
        }
        reg.set_counter("engine.profile.worker_busy_ns", self.worker_busy_ns);
        reg.set_counter("engine.profile.worker_idle_ns", self.worker_idle_ns);
        reg.set_counter("engine.profile.workers", self.workers as u64);
        reg.set_counter("engine.profile.pump_node_visits", self.pump_node_visits);
    }

    /// A human-readable phase table for terminal reports.
    pub fn render(&self) -> String {
        let total = self.total_ns().max(1);
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:>12} {:>10} {:>7}\n",
            "phase", "wall ms", "calls", "share"
        ));
        for &(name, ns, calls) in &self.phases {
            out.push_str(&format!(
                "{:<12} {:>12.3} {:>10} {:>6.1}%\n",
                name,
                ns as f64 / 1e6,
                calls,
                ns as f64 * 100.0 / total as f64,
            ));
        }
        out.push_str(&format!(
            "workers={} busy={:.3} ms idle={:.3} ms\n",
            self.workers,
            self.worker_busy_ns as f64 / 1e6,
            self.worker_idle_ns as f64 / 1e6,
        ));
        let pumps = self
            .phases
            .iter()
            .find(|&&(name, _, _)| name == EnginePhase::MeshPump.name())
            .map_or(0, |&(_, _, calls)| calls);
        out.push_str(&format!(
            "pump node visits={} ({:.1} per pump)\n",
            self.pump_node_visits,
            self.pump_node_visits as f64 / pumps.max(1) as f64,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_cause_counters_sum_to_total() {
        let mut w = WindowStats::default();
        for (i, cause) in BarrierCause::ALL.into_iter().enumerate() {
            for _ in 0..=i {
                w.note_close(cause);
            }
        }
        let sum: u64 = BarrierCause::ALL.iter().map(|&c| w.closes(c)).sum();
        assert_eq!(sum, w.total_closed());
        assert_eq!(w.total_closed(), (1..=7).sum::<u64>());
    }

    #[test]
    fn register_emits_every_cause_and_the_sum_invariant() {
        let mut w = WindowStats::default();
        w.note_close(BarrierCause::MeshEventClamp);
        w.note_close(BarrierCause::MeshEventClamp);
        w.note_close(BarrierCause::KernelMsg);
        w.depth.record(3);
        w.participants.record(2);
        w.slice_events.record(1);
        w.slice_events.record(2);
        let mut reg = MetricsRegistry::new();
        w.register(&mut reg);
        let s = reg.snapshot();
        assert_eq!(s.counter("engine.windows.closed"), Some(3));
        assert_eq!(s.counter("engine.barrier.mesh_event_clamp"), Some(2));
        assert_eq!(s.counter("engine.barrier.kernel_msg"), Some(1));
        assert_eq!(s.counter("engine.barrier.fault"), Some(0), "zero causes still emitted");
        let sum: u64 = BarrierCause::ALL
            .iter()
            .map(|c| s.counter(&format!("engine.barrier.{}", c.name())).unwrap())
            .sum();
        assert_eq!(Some(sum), s.counter("engine.windows.closed"));
        assert_eq!(s.histogram("engine.window.depth").unwrap().count, 1);
        assert_eq!(s.histogram("engine.window.slice_events").unwrap().count, 2);
    }

    #[test]
    fn disabled_profiler_never_reads_the_clock() {
        let mut p = EngineProfiler::new(false);
        let t = p.begin();
        assert!(t.is_none());
        p.end(EnginePhase::Formation, t);
        assert_eq!(p.nanos(EnginePhase::Formation), 0);
        assert_eq!(p.calls(EnginePhase::Formation), 0);
        assert!(!p.is_enabled());
        p.note_pump_visits(5);
        assert_eq!(p.pump_node_visits(), 0, "disabled profiler counts no visits");
    }

    #[test]
    fn sampled_timing_counts_every_call_but_reads_the_clock_rarely() {
        let mut p = EngineProfiler::new(true);
        let mut clock_reads = 0;
        for _ in 0..(EngineProfiler::SAMPLE * 3) {
            let t = p.begin_sampled(EnginePhase::MeshPump);
            clock_reads += u64::from(t.is_some());
            p.end_sampled(EnginePhase::MeshPump, t);
        }
        assert_eq!(p.calls(EnginePhase::MeshPump), EngineProfiler::SAMPLE * 3);
        assert_eq!(clock_reads, 3, "one timed interval per sample period");
        let mut off = EngineProfiler::new(false);
        assert!(off.begin_sampled(EnginePhase::MeshPump).is_none());
        assert_eq!(off.calls(EnginePhase::MeshPump), 0, "disabled profiler counts nothing");
    }

    #[test]
    fn enabled_profiler_accumulates_phases() {
        let mut p = EngineProfiler::new(true);
        for _ in 0..3 {
            let t = p.begin();
            p.end(EnginePhase::MeshPump, t);
        }
        assert_eq!(p.calls(EnginePhase::MeshPump), 3);
        assert_eq!(p.calls(EnginePhase::Commit), 0);
        p.note_pump_visits(7);
        let report = EngineProfileReport::new(&p, 4, 10);
        assert_eq!(report.workers, 4);
        assert_eq!(report.phases.len(), EnginePhase::ALL.len());
        assert!(report.render().contains("mesh_pump"));
        let mut reg = MetricsRegistry::new();
        report.register(&mut reg);
        let s = reg.snapshot();
        assert_eq!(s.counter("engine.profile.mesh_pump_calls"), Some(3));
        assert_eq!(s.counter("engine.profile.workers"), Some(4));
        assert_eq!(s.counter("engine.profile.pump_node_visits"), Some(7));
    }
}
