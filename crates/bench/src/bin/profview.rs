//! Engine self-profile viewer: runs any scenario DSL file with the
//! engine profiler and the default trace rings on, then reports where
//! the simulator spent its wall clock.
//!
//! ```text
//! cargo run --release -p shrimp-bench --bin profview -- \
//!     scenarios/mixed.shrimp [--metrics-out PATH] [--overhead-budget PCT]
//! ```
//!
//! The report's deterministic metrics and this run's wall-clock phase
//! profile (`engine.profile.*`, which varies run to run) both land in
//! the metrics file (default `BENCH_profview.metrics.json`).
//!
//! `--overhead-budget PCT` additionally times adjacent pairs of single
//! runs, one with profiling off and one with it on, alternating which
//! side of a pair runs first, for about 3.5 s. It verifies that the two
//! sides of every pair are byte-identical in simulation outcome, prints
//! the pair count, the median overhead and its quartiles, and fails
//! when the median exceeds PCT percent.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use shrimp_bench::{banner, write_metrics};
use shrimp_sim::MetricsRegistry;
use shrimp_workload::dsl::Scenario;
use shrimp_workload::gen::run_scenario_tuned;

struct Args {
    scenario: String,
    overhead_budget: Option<f64>,
}

fn parse_args() -> Args {
    let mut scenario = None;
    let mut overhead_budget = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--metrics-out" => {
                args.next(); // consumed again by metrics_out_path
            }
            "--overhead-budget" => {
                let v = args.next().expect("--overhead-budget requires a percentage");
                overhead_budget = Some(v.parse().expect("--overhead-budget takes a number"));
            }
            other if !other.starts_with("--") && scenario.is_none() => {
                scenario = Some(other.to_string());
            }
            other => {
                eprintln!(
                    "unknown argument `{other}`; usage: profview <scenario.shrimp> \
                     [--metrics-out PATH] [--overhead-budget PCT]"
                );
                std::process::exit(2);
            }
        }
    }
    let Some(scenario) = scenario else {
        eprintln!("usage: profview <scenario.shrimp> [--metrics-out PATH] [--overhead-budget PCT]");
        std::process::exit(2);
    };
    Args {
        scenario,
        overhead_budget,
    }
}

/// Wall clock the overhead gate spends on its off/on pairs, in seconds.
const GATE_SECONDS: f64 = 3.5;

/// Wall clock of one scenario run and its delivery hash.
fn timed_run(sc: &Scenario, profile: bool) -> (Duration, u64) {
    let t0 = Instant::now();
    let (r, _) = run_scenario_tuned(sc, None, |cfg| {
        cfg.telemetry.profile = profile;
    })
    .expect("scenario completes");
    (t0.elapsed(), r.delivery_hash)
}

fn main() {
    let args = parse_args();
    let text = std::fs::read_to_string(&args.scenario)
        .unwrap_or_else(|e| panic!("read {}: {e}", args.scenario));
    let sc = Scenario::parse(&text).unwrap_or_else(|e| panic!("parse {}: {e}", args.scenario));

    banner(format!("Engine profile: scenario `{}`", sc.name));
    let start = Instant::now();
    let (report, machine) = run_scenario_tuned(&sc, None, |cfg| {
        cfg.telemetry.profile = true;
    })
    .expect("scenario completes");
    let wall = start.elapsed();

    println!(
        "sessions={} deliveries={} events={} sim_time={:.3} ms wall={wall:.2?}\n",
        report.sessions_completed,
        report.deliveries,
        report.events_processed,
        report.final_time_ps as f64 / 1e9,
    );

    // Wall-clock phase attribution.
    let profile = machine.profile().expect("profiler was enabled");
    print!("{}", profile.render());

    let trace = machine.trace();
    println!(
        "\ntrace: {} events recorded, {} retained ({} per node ring)",
        trace.recorded(),
        trace.dump().len(),
        trace.capacity(),
    );

    // Metrics file: the report's scalars and this run's wall-clock phase
    // profile.
    let mut reg = MetricsRegistry::new();
    for (name, value) in report.metrics.entries() {
        match value {
            shrimp_sim::MetricValue::Counter(v) => reg.set_counter(name.to_string(), *v),
            shrimp_sim::MetricValue::Gauge(v) => reg.set_gauge(name.to_string(), *v),
            shrimp_sim::MetricValue::Histogram(_) => {}
        }
    }
    profile.register(&mut reg);
    write_metrics("profview", &reg.snapshot());

    if let Some(budget) = args.overhead_budget {
        banner(format!("Overhead budget: profiling must cost <= {budget}%"));
        // Adjacent single runs see the same host state, so each pair's
        // ratio is the profiler's cost plus that pair's noise; the
        // median over hundreds of pairs rejects the noise. Alternating
        // the order cancels host-speed drift within a pair.
        let gate = Instant::now();
        let mut overheads = Vec::new();
        while gate.elapsed().as_secs_f64() < GATE_SECONDS {
            let on_first = overheads.len() % 2 == 1;
            let first = timed_run(&sc, on_first);
            let second = timed_run(&sc, !on_first);
            let ((off, hash_off), (on, hash_on)) =
                if on_first { (second, first) } else { (first, second) };
            assert_eq!(
                hash_off, hash_on,
                "profiling perturbed the simulation (delivery hash drifted)"
            );
            overheads.push((on.as_secs_f64() / off.as_secs_f64() - 1.0) * 100.0);
        }
        overheads.sort_by(f64::total_cmp);
        let quantile = |q: f64| overheads[((overheads.len() - 1) as f64 * q).round() as usize];
        let (q1, overhead, q3) = (quantile(0.25), quantile(0.5), quantile(0.75));
        println!(
            "{} off/on pairs: overhead median {overhead:+.2}% (quartiles {q1:+.2}% .. {q3:+.2}%)",
            overheads.len()
        );
        if overhead > budget {
            eprintln!("FAIL: median profiling overhead {overhead:.2}% exceeds budget {budget}%");
            std::process::exit(1);
        }
        println!("within budget");
    }
}
