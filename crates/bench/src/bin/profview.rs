//! Engine self-profile viewer: runs any scenario DSL file with the
//! engine profiler and flight recorder on, then reports where the
//! simulator spent its wall clock.
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
//! `--overhead-budget PCT` additionally times seven pairs of ~250 ms
//! batched regions, one with profiling off and one with it on,
//! alternating which side of a pair runs first. It verifies that the
//! two sides are byte-identical in simulation outcome, prints every
//! pair's overhead with the quartiles, and fails when the median
//! overhead exceeds PCT percent.

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

/// Off/on region pairs the overhead gate times.
const PAIRS: usize = 7;

/// Wall clock of one timed region of `iters` back-to-back scenario
/// runs, and the last run's delivery hash. A single short scenario is
/// scheduler noise all the way down; ~quarter-second regions are not.
fn region(sc: &Scenario, profile: bool, iters: usize) -> (std::time::Duration, u64) {
    let t0 = std::time::Instant::now();
    let mut hash = 0;
    for _ in 0..iters {
        let (r, _) = run_scenario_tuned(sc, None, |cfg| {
            cfg.telemetry.profile = profile;
        })
        .expect("scenario completes");
        hash = r.delivery_hash;
    }
    (t0.elapsed(), hash)
}

fn main() {
    let args = parse_args();
    let text = std::fs::read_to_string(&args.scenario)
        .unwrap_or_else(|e| panic!("read {}: {e}", args.scenario));
    let sc = Scenario::parse(&text).unwrap_or_else(|e| panic!("parse {}: {e}", args.scenario));

    banner(format!("Engine profile: scenario `{}`", sc.name));
    let start = std::time::Instant::now();
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

    let fr = machine.flight_recorder();
    println!(
        "\nflight recorder: {} events recorded, {} retained ({} per node ring)",
        fr.recorded(),
        fr.dump().len(),
        fr.capacity(),
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
        // Size regions to ~250 ms using the wall clock of the profiled
        // run above, so short scenarios get enough repetitions to
        // average out scheduler noise.
        let iters = ((0.25 / wall.as_secs_f64().max(1e-4)).ceil() as usize).clamp(1, 200);
        let mut overheads = Vec::with_capacity(PAIRS);
        for pair in 0..PAIRS {
            // Alternating the order cancels host-speed drift within a
            // pair (a neighbour's load, frequency scaling).
            let on_first = pair % 2 == 1;
            let first = region(&sc, on_first, iters);
            let second = region(&sc, !on_first, iters);
            let ((off, hash_off), (on, hash_on)) =
                if on_first { (second, first) } else { (first, second) };
            assert_eq!(
                hash_off, hash_on,
                "profiling perturbed the simulation (delivery hash drifted)"
            );
            let overhead = (on.as_secs_f64() / off.as_secs_f64() - 1.0) * 100.0;
            let order = if on_first { "on first " } else { "off first" };
            println!(
                "pair {pair} ({order}, {iters} runs per region): profile off {off:.2?}, \
                 on {on:.2?} — overhead {overhead:+.2}%"
            );
            overheads.push(overhead);
        }
        overheads.sort_by(f64::total_cmp);
        // Seven values: the quartiles are the 2nd, 4th and 6th.
        let (q1, overhead, q3) = (overheads[1], overheads[3], overheads[5]);
        println!("overhead median {overhead:+.2}% (quartiles {q1:+.2}% .. {q3:+.2}%)");
        if overhead > budget {
            eprintln!("FAIL: median profiling overhead {overhead:.2}% exceeds budget {budget}%");
            std::process::exit(1);
        }
        println!("within budget");
    }
}
