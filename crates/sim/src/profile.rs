//! Engine self-profiling: coarse wall-clock phase attribution.
//!
//! [`EngineProfiler`] and [`EngineProfileReport`] measure monotonic-clock
//! time spent in the engine's phases (today: pumping the mesh) and the
//! node visits those pumps make. Wall clock varies run to run, so this
//! data is *never* part of the machine's deterministic metrics snapshot
//! (DESIGN.md §5h); it surfaces only through the explicit profile report
//! (the `profview` bench and Perfetto counter tracks).

use std::time::Instant;

use crate::metrics::MetricsRegistry;

/// A wall-clock phase of the engine's main loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnginePhase {
    /// Mesh advancement and NIC pumping: every network pump,
    /// whether after a mesh advance or after a `DmaComplete`.
    MeshPump,
}

impl EnginePhase {
    /// Every phase, in stable reporting order.
    pub const ALL: [EnginePhase; 1] = [EnginePhase::MeshPump];

    /// Stable metric-name segment (`engine.profile.<name>_ns`).
    pub fn name(self) -> &'static str {
        match self {
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
/// reads the clock — [`EngineProfiler::begin_sampled`] returns `None`
/// and [`EngineProfiler::end_sampled`] is a no-op — so an unprofiled run
/// pays one branch per phase boundary.
///
/// # Examples
///
/// ```
/// use shrimp_sim::profile::{EnginePhase, EngineProfiler};
///
/// let mut p = EngineProfiler::new(true);
/// let t = p.begin_sampled(EnginePhase::MeshPump);
/// p.end_sampled(EnginePhase::MeshPump, t);
/// assert_eq!(p.calls(EnginePhase::MeshPump), 1);
///
/// let mut off = EngineProfiler::new(false);
/// assert!(off.begin_sampled(EnginePhase::MeshPump).is_none());
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

/// A finished profile: per-phase wall time and pump node visits.
/// Produced by the machine on demand; never part of the deterministic
/// metrics snapshot.
#[derive(Debug, Clone)]
pub struct EngineProfileReport {
    /// `(phase name, wall nanoseconds, timed intervals)` per phase, in
    /// [`EnginePhase::ALL`] order.
    pub phases: Vec<(&'static str, u64, u64)>,
    /// Node visits made by network pumps; divided by the `mesh_pump`
    /// calls it gives the mean worklist length per pump.
    pub pump_node_visits: u64,
}

impl EngineProfileReport {
    /// Builds a report from a profiler.
    pub fn new(profiler: &EngineProfiler) -> Self {
        EngineProfileReport {
            phases: EnginePhase::ALL
                .iter()
                .map(|&p| (p.name(), profiler.nanos(p), profiler.calls(p)))
                .collect(),
            pump_node_visits: profiler.pump_node_visits(),
        }
    }

    /// Total wall nanoseconds attributed to any phase.
    pub fn total_ns(&self) -> u64 {
        self.phases.iter().map(|&(_, ns, _)| ns).sum()
    }

    /// Publishes the profile under `engine.profile.*`. Wall-clock data:
    /// callers must keep this out of deterministic snapshots.
    pub fn register(&self, reg: &mut MetricsRegistry) {
        for &(name, ns, calls) in &self.phases {
            reg.set_counter(format!("engine.profile.{name}_ns"), ns);
            reg.set_counter(format!("engine.profile.{name}_calls"), calls);
        }
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
    fn disabled_profiler_never_reads_the_clock() {
        let mut p = EngineProfiler::new(false);
        let t = p.begin_sampled(EnginePhase::MeshPump);
        assert!(t.is_none());
        p.end_sampled(EnginePhase::MeshPump, t);
        assert_eq!(p.nanos(EnginePhase::MeshPump), 0);
        assert_eq!(p.calls(EnginePhase::MeshPump), 0);
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
            let t = p.begin_sampled(EnginePhase::MeshPump);
            p.end_sampled(EnginePhase::MeshPump, t);
        }
        assert_eq!(p.calls(EnginePhase::MeshPump), 3);
        p.note_pump_visits(7);
        let report = EngineProfileReport::new(&p);
        assert_eq!(report.phases.len(), EnginePhase::ALL.len());
        assert!(report.render().contains("mesh_pump"));
        let mut reg = MetricsRegistry::new();
        report.register(&mut reg);
        let s = reg.snapshot();
        assert_eq!(s.counter("engine.profile.mesh_pump_calls"), Some(3));
        assert_eq!(s.counter("engine.profile.pump_node_visits"), Some(7));
    }
}
