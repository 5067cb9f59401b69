//! The metric catalogs and the per-layer computation.
//!
//! Counters are read by name from `Machine::metrics_snapshot()`, so a
//! counter a later simulator drops reads as `null` with a reason rather
//! than as a measured zero.

use std::collections::BTreeMap;

use shrimp_core::{LatencyRecord, Machine};
use shrimp_sim::MetricValue;

use crate::trace::{self, Span};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct E2e {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Host-time (or host-memory) metrics vary run to run and are judged
    /// against a bound; simulated metrics are deterministic per seed and
    /// judged exactly.
    pub host: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, host: bool) -> E2e {
    E2e {
        name,
        unit,
        better,
        host,
    }
}

/// Every end-to-end metric, host metrics first. The host metrics are the
/// `end_to_end` list of `BENCHMARK.json`.
pub const E2E: [E2e; 9] = [
    e2e("setup_s", "s", Better::Lower, true),
    e2e("run_s", "s", Better::Lower, true),
    e2e("events_per_s", "events/s", Better::Higher, true),
    e2e("peak_rss_mb", "MiB", Better::Lower, true),
    e2e("sim_goodput_mb_s", "MB/s", Better::Higher, false),
    e2e("pkt_latency_p50_us", "us", Better::Lower, false),
    e2e("pkt_latency_p99_us", "us", Better::Lower, false),
    e2e("session_mean_us", "us", Better::Lower, false),
    e2e("error_rate", "ratio", Better::Lower, false),
];

/// The per-layer metrics defined on every workload, in `BENCHMARK.json`
/// order: a traced run reports each as a number. The other per-layer
/// metrics exist only on some workloads and are `null` with a reason
/// elsewhere.
pub const DRIVER_LAYERS: [&str; 25] = [
    "core.events_per_packet",
    "sim.mesh_pump_share",
    "sim.mesh_pump_calls_per_event",
    "sim.allocs_per_event",
    "sim.latency_records",
    "mem.eisa_mb_s",
    "mem.sim_dma_share",
    "mesh.packets",
    "mesh.host_us_per_packet",
    "mesh.hops_mean",
    "mesh.sim_share",
    "mesh.link_util_max",
    "mesh.reroutes",
    "mesh.bounced",
    "mesh.dropped",
    "nic.packets_sent",
    "nic.dma_packets",
    "nic.blocked_write_packets",
    "nic.sim_out_fifo_share",
    "nic.sim_in_fifo_share",
    "nic.fifo_rejections",
    "nic.retx_ratio",
    "nic.drops",
    "os.syscalls",
    "trace.overhead_pct",
];

/// One per-layer value, or the reason it was not measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Result<f64, String>,
}

/// Machine observations taken before and after a traced repetition; the
/// per-layer metrics are differences of two probes.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    events: u64,
    sim_ps: u64,
    /// Snapshot counters by name, with `nic<i>.<x>` summed into `nic.<x>`.
    counters: BTreeMap<String, u64>,
    /// Busy picoseconds per directed link (`util × elapsed`).
    link_busy_ps: BTreeMap<String, f64>,
    /// Events committed inside lookahead windows (`engine.window.depth`).
    window_events: Option<f64>,
    hops: (u64, f64),
    reroutes: u64,
    bounced: u64,
    eisa_bytes: u64,
    syscalls: u64,
    records: usize,
    /// `(wall ns, calls)` of the engine profiler's mesh-pump phase.
    mesh_pump: Option<(u64, u64)>,
    allocs: u64,
}

impl Probe {
    /// The probe of a machine not yet built: every count zero, with the
    /// allocation count at this instant.
    pub fn unbuilt(allocs: u64) -> Probe {
        Probe {
            allocs,
            ..Probe::default()
        }
    }

    /// Observes `m` now. `allocs` is the allocation count at this instant.
    pub fn of(m: &Machine, allocs: u64) -> Probe {
        let sim_ps = m.now().as_picos();
        let mut p = Probe {
            events: m.events_processed(),
            sim_ps,
            allocs,
            ..Probe::default()
        };
        for (name, value) in m.metrics_snapshot().entries() {
            match value {
                MetricValue::Counter(c) => match nic_suffix(name) {
                    Some(suffix) => *p.counters.entry(format!("nic.{suffix}")).or_default() += c,
                    None => {
                        p.counters.insert(name.to_string(), *c);
                    }
                },
                MetricValue::Gauge(u)
                    if name.starts_with("mesh.link.") && name.ends_with(".util") =>
                {
                    p.link_busy_ps.insert(name.to_string(), u * sim_ps as f64);
                }
                MetricValue::Histogram(h) if name == "engine.window.depth" => {
                    p.window_events = Some(h.count as f64 * h.mean);
                }
                _ => {}
            }
        }
        let ms = m.mesh_stats();
        p.hops = (
            ms.hops.count(),
            ms.hops.mean().unwrap_or(0.0) * ms.hops.count() as f64,
        );
        p.reroutes = ms.reroutes;
        p.bounced = ms.bounced;
        p.eisa_bytes = m
            .config()
            .shape
            .iter_nodes()
            .map(|n| m.eisa_stats(n).0)
            .sum();
        p.syscalls = m.syscalls().len() as u64;
        p.records = m.telemetry().records.len();
        p.mesh_pump = m.profile().and_then(|r| {
            r.phases
                .iter()
                .find(|(name, _, _)| *name == "mesh_pump")
                .map(|&(_, ns, calls)| (ns, calls))
        });
        p
    }
}

/// `nic12.retx.timeouts` → `retx.timeouts`.
fn nic_suffix(name: &str) -> Option<&str> {
    let rest = name.strip_prefix("nic")?;
    let (index, suffix) = rest.split_once('.')?;
    (!index.is_empty() && index.bytes().all(|b| b.is_ascii_digit())).then_some(suffix)
}

/// What one traced repetition saw, beyond the two probes.
pub struct LayerInput<'a> {
    pub before: &'a Probe,
    pub after: &'a Probe,
    /// The repetition's latency records.
    pub records: &'a [LatencyRecord],
    /// Spans of the traced pass (setup and repetitions).
    pub spans: &'a [Span],
    /// Wall seconds of the traced repetition's timed region.
    pub rep_wall_s: f64,
    /// Median wall seconds of the untraced repetitions.
    pub untraced_median_s: f64,
    /// Pages filled during setup (deliberate stream workloads).
    pub filled_pages: Option<u64>,
    /// `(instructions retired, pages sent)` by the stream programs.
    pub instructions: Option<(u64, u64)>,
    /// `(sessions completed, deliveries)` on session workloads.
    pub sessions: Option<(u64, u64)>,
}

/// Computes every per-layer metric of one traced repetition.
pub fn layers(x: &LayerInput<'_>) -> Vec<Layer> {
    let (b, a) = (x.before, x.after);
    let counter = |name: &str| -> Result<f64, String> {
        let after = a
            .counters
            .get(name)
            .ok_or_else(|| format!("`{name}` absent from metrics_snapshot"))?;
        Ok(after.saturating_sub(b.counters.get(name).copied().unwrap_or(0)) as f64)
    };
    let ratio = |num: Result<f64, String>, den: Result<f64, String>, what: &str| {
        let (n, d) = (num?, den?);
        if d > 0.0 {
            Ok(n / d)
        } else {
            Err(format!("no {what} in the repetition"))
        }
    };
    let events = Ok((a.events - b.events) as f64);
    let packets = counter("mesh.packets_injected");
    let pump = match (a.mesh_pump, b.mesh_pump.unwrap_or((0, 0))) {
        (Some((ns, calls)), (ns0, calls0)) => Ok(((ns - ns0) as f64, (calls - calls0) as f64)),
        (None, _) => Err("Machine::profile() returned no mesh_pump phase".to_string()),
    };
    let pump_ns = pump.clone().map(|p| p.0);
    let sim_s = (a.sim_ps - b.sim_ps) as f64 * 1e-12;
    let stage = |f: fn(&LatencyRecord) -> u64| -> Result<f64, String> {
        let e2e: u64 = x.records.iter().map(|r| r.end_to_end().as_picos()).sum();
        if e2e == 0 {
            return Err("no latency records in the repetition".into());
        }
        Ok(x.records.iter().map(f).sum::<u64>() as f64 / e2e as f64)
    };
    let session_only = |v: Option<f64>| v.ok_or_else(|| "not a session workload".to_string());
    let link_util_max = a
        .link_busy_ps
        .iter()
        .map(|(name, busy)| {
            (busy - b.link_busy_ps.get(name).copied().unwrap_or(0.0)) / (sim_s * 1e12)
        })
        .fold(None, |m: Option<f64>, u| Some(m.map_or(u, |m| m.max(u))))
        .ok_or_else(|| "no mesh.link.*.util gauges".to_string());
    let window_events = match (a.window_events, b.window_events.unwrap_or(0.0)) {
        (Some(w), w0) => Ok(w - w0),
        (None, _) => Err(
            "engine.window.depth absent from metrics_snapshot (no window closed, or no window engine)"
                .to_string(),
        ),
    };
    let iotlb = |n: &str| {
        counter(n)
            .map_err(|_| "no iotlb counters: the SHRIMP backend pins pages at map time".to_string())
    };
    let sum = |x: Result<f64, String>, y: Result<f64, String>| Ok(x? + y?);

    let mut out = Vec::new();
    let mut put = |name: &'static str, unit: &'static str, value: Result<f64, String>| {
        out.push(Layer { name, unit, value });
    };
    put(
        "core.map_us",
        "us",
        trace::mean_us(x.spans, "core.map").ok_or_else(|| "no Machine::map call in setup".into()),
    );
    put(
        "core.command_page_us",
        "us",
        trace::mean_us(x.spans, "core.command_page")
            .ok_or_else(|| "no command page mapped in setup".into()),
    );
    put(
        "core.fill_us_per_page",
        "us",
        match (trace::total_ns(x.spans, "core.fill"), x.filled_pages) {
            (Some(ns), Some(pages)) => Ok(ns as f64 / 1e3 / pages as f64),
            _ => Err("no setup fill: the repetition itself writes the data".into()),
        },
    );
    put(
        "core.events_per_packet",
        "events/packet",
        ratio(events.clone(), packets.clone(), "mesh packets"),
    );
    put(
        "sim.mesh_pump_share",
        "ratio",
        pump_ns.clone().map(|ns| ns / (x.rep_wall_s * 1e9)),
    );
    put(
        "sim.mesh_pump_calls_per_event",
        "calls/event",
        ratio(pump.map(|p| p.1), events.clone(), "events"),
    );
    put(
        "sim.window_event_share",
        "ratio",
        ratio(window_events, events.clone(), "events"),
    );
    put(
        "sim.allocs_per_event",
        "allocs/event",
        ratio(Ok((a.allocs - b.allocs) as f64), events.clone(), "events"),
    );
    put(
        "sim.latency_records",
        "count",
        Ok((a.records - b.records) as f64),
    );
    put(
        "cpu.instructions_per_page",
        "instr/page",
        x.instructions
            .map(|(i, pages)| i as f64 / pages as f64)
            .ok_or_else(|| "no CPU program runs: the host API drives this workload".into()),
    );
    put(
        "mem.eisa_mb_s",
        "MB/s",
        if sim_s > 0.0 {
            Ok((a.eisa_bytes - b.eisa_bytes) as f64 / sim_s / 1e6)
        } else {
            Err("no simulated time elapsed".into())
        },
    );
    put("mem.sim_dma_share", "ratio", stage(|r| r.dma().as_picos()));
    put("mesh.packets", "count", packets.clone());
    put(
        "mesh.host_us_per_packet",
        "us/packet",
        ratio(pump_ns.map(|ns| ns / 1e3), packets, "mesh packets"),
    );
    put(
        "mesh.hops_mean",
        "hops",
        ratio(
            Ok(a.hops.1 - b.hops.1),
            Ok((a.hops.0 - b.hops.0) as f64),
            "delivered packets",
        ),
    );
    put("mesh.sim_share", "ratio", stage(|r| r.mesh().as_picos()));
    put("mesh.link_util_max", "ratio", link_util_max);
    put(
        "mesh.reroutes",
        "count",
        Ok((a.reroutes - b.reroutes) as f64),
    );
    put("mesh.bounced", "count", Ok((a.bounced - b.bounced) as f64));
    put("mesh.dropped", "count", counter("mesh.packets_dropped"));
    put("nic.packets_sent", "count", counter("nic.packets_sent"));
    put("nic.dma_packets", "count", counter("nic.dma_packets"));
    put(
        "nic.blocked_write_packets",
        "count",
        counter("nic.blocked_write_packets"),
    );
    put(
        "nic.merge_ratio",
        "ratio",
        ratio(
            counter("nic.merged_writes"),
            sum(
                counter("nic.merged_writes"),
                counter("nic.blocked_write_packets"),
            ),
            "automatic-update writes",
        ),
    );
    put(
        "nic.sim_out_fifo_share",
        "ratio",
        stage(|r| r.out_fifo().as_picos()),
    );
    put(
        "nic.sim_in_fifo_share",
        "ratio",
        stage(|r| r.in_fifo().as_picos()),
    );
    put(
        "nic.fifo_rejections",
        "count",
        sum(
            counter("nic.fifo.out.rejections"),
            counter("nic.fifo.in.rejections"),
        ),
    );
    put(
        "nic.retx_ratio",
        "ratio",
        ratio(
            counter("nic.retx.retransmissions"),
            counter("nic.packets_sent"),
            "packets sent",
        ),
    );
    put(
        "nic.iotlb_hit_ratio",
        "ratio",
        ratio(
            iotlb("nic.iotlb.hits"),
            sum(iotlb("nic.iotlb.hits"), iotlb("nic.iotlb.misses")),
            "IOTLB lookups",
        ),
    );
    put("nic.map_ins", "count", iotlb("nic.iotlb.map_ins"));
    put(
        "nic.drops",
        "count",
        sum(counter("nic.crc_drops"), counter("nic.unmapped_drops")),
    );
    put("os.syscalls", "count", Ok((a.syscalls - b.syscalls) as f64));
    put(
        "workload.sessions_per_s",
        "sessions/s",
        session_only(x.sessions.map(|(s, _)| s as f64 / x.rep_wall_s)),
    );
    put(
        "workload.deliveries_per_session",
        "count",
        session_only(x.sessions.map(|(s, d)| d as f64 / s as f64)),
    );
    put(
        "trace.overhead_pct",
        "%",
        Ok((x.rep_wall_s / x.untraced_median_s - 1.0) * 100.0),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nic_suffixes() {
        assert_eq!(nic_suffix("nic0.packets_sent"), Some("packets_sent"));
        assert_eq!(nic_suffix("nic1023.retx.timeouts"), Some("retx.timeouts"));
        assert_eq!(nic_suffix("nic.packets_sent"), None);
        assert_eq!(nic_suffix("nicx.packets_sent"), None);
        assert_eq!(nic_suffix("mesh.packets_injected"), None);
    }
}
