//! The run report: scenario-level outcomes plus a merged
//! `shrimp.metrics.v1` snapshot containing the machine's own metrics,
//! its latency histograms, and the generator's `sessions.*` family.

use shrimp_core::{DeliveryRecord, Machine};
use shrimp_sim::metrics::{MetricValue, MetricsRegistry, MetricsSnapshot};

use crate::dsl::Scenario;
use crate::gen::{KindStats, KIND_NAMES};

/// FNV-1a over the full delivery log: time, destination node, physical
/// address, length and source of every record, in order. The same hash
/// the determinism suite pins, exported so scenario tests and external
/// tools agree on one definition.
#[must_use]
pub fn delivery_hash(deliveries: &[DeliveryRecord]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for d in deliveries {
        eat(d.time.as_picos());
        eat(u64::from(d.node.0));
        eat(d.dst_addr.raw());
        eat(d.len);
        eat(u64::from(d.src.0));
    }
    h
}

/// Everything a scenario run produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// Scenario name (from the DSL file).
    pub scenario: String,
    /// Sessions opened and run to completion.
    pub sessions_completed: u64,
    /// Packet deliveries the machine logged.
    pub deliveries: u64,
    /// Session payload bytes delivered.
    pub goodput_bytes: u64,
    /// Machine events processed.
    pub events_processed: u64,
    /// Simulated end time, picoseconds.
    pub final_time_ps: u64,
    /// FNV-1a over the delivery log ([`delivery_hash`]).
    pub delivery_hash: u64,
    /// Merged machine + session metrics.
    pub metrics: MetricsSnapshot,
}

impl Report {
    pub(crate) fn build(
        sc: &Scenario,
        m: &Machine,
        stats: &[KindStats; 4],
        duration_all: &shrimp_sim::Histogram,
        goodput: u64,
        hash: u64,
    ) -> Report {
        let completed: u64 = stats.iter().map(|s| s.completed).sum();
        let final_time = m.now();

        // Start from the machine's own snapshot. Histogram entries are
        // summaries that the registry can't re-register, but every one
        // of them (the `latency.*` family) is re-derivable from the
        // telemetry's live histograms, so rebuild those and copy the
        // scalar entries over.
        let mut reg = MetricsRegistry::new();
        for (name, value) in m.metrics_snapshot().entries() {
            match value {
                MetricValue::Counter(v) => reg.set_counter(name, *v),
                MetricValue::Gauge(v) => reg.set_gauge(name, *v),
                MetricValue::Histogram(_) => {}
            }
        }
        m.telemetry().stages.register(&mut reg, "latency");

        reg.set_counter("sessions.completed", completed);
        reg.set_counter("sessions.goodput_bytes", goodput);
        if duration_all.count() > 0 {
            reg.set_histogram("sessions.duration", duration_all);
        }
        let secs = final_time.as_picos() as f64 * 1e-12;
        if secs > 0.0 {
            reg.set_gauge("sessions.goodput_mb_per_s", goodput as f64 / 1e6 / secs);
        }
        for (k, st) in stats.iter().enumerate() {
            if st.completed == 0 {
                continue;
            }
            let name = KIND_NAMES[k];
            reg.set_counter(format!("sessions.{name}.completed"), st.completed);
            reg.set_histogram(format!("sessions.{name}.duration"), &st.duration);
            if st.op_latency.count() > 0 {
                reg.set_histogram(format!("sessions.{name}.op_latency"), &st.op_latency);
            }
            st.stages.register(&mut reg, &format!("sessions.{name}"));
        }

        Report {
            scenario: sc.name.clone(),
            sessions_completed: completed,
            deliveries: m.deliveries().len() as u64,
            goodput_bytes: goodput,
            events_processed: m.events_processed(),
            final_time_ps: final_time.as_picos(),
            delivery_hash: hash,
            metrics: reg.snapshot(),
        }
    }
}
