//! Charts **per-session latency and aggregate goodput vs. session
//! count** for the closed-loop mixed workload: at each scale the
//! generator keeps 64 users in flight (or fewer, at the small end) and
//! runs the four session kinds in the mixed10k proportions — 40% RPC,
//! 20% streaming, 10% fan-out, 30% DSM. Results are printed and written
//! to `BENCH_sessions.metrics.json` in the `shrimp.metrics.v1` schema.
//!
//! ```text
//! cargo run --release -p shrimp-bench --bin sessions [-- --smoke]
//! ```
//!
//! `--smoke` runs a two-point sweep small enough for CI.

#![forbid(unsafe_code)]

use shrimp_bench::{banner, fmt_rate, fmt_us, write_metrics, Table};
use shrimp_sim::MetricsRegistry;
use shrimp_workload::dsl::Scenario;
use shrimp_workload::run_scenario;

/// A mixed scenario with `total` sessions in the mixed10k proportions.
fn mixed(total: u32) -> Scenario {
    let rpc = total * 4 / 10;
    let stream = total * 2 / 10;
    let fanout = total / 10;
    let dsm = total - rpc - stream - fanout;
    let users = (total / 4).clamp(4, 64);
    let text = format!(
        "scenario sessions_{total}\n\
         mesh 4x4\n\
         seed 777\n\
         pages 768\n\
         users {users}\n\
         session rpc count={rpc} src=any dst=any requests=3 request=256 response=512 think=1us..20us server=1us..8us\n\
         session stream count={stream} src=any dst=any pages=2 gap=1us..6us\n\
         session fanout count={fanout} src=any leaves=3 rounds=2 bytes=512 think=2us..10us\n\
         session dsm count={dsm} src=any dst=any pages=2 ops=4 write=32 think=1us..8us\n"
    );
    Scenario::parse(&text).expect("generated scenario is valid")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner("Closed-loop sessions: per-session latency and goodput vs. session count");

    let points: &[u32] = if smoke { &[32, 128] } else { &[64, 256, 1024, 4096] };
    let mut t = Table::new(vec![
        "sessions",
        "users",
        "deliveries",
        "goodput",
        "p50",
        "p95",
        "p99",
        "wall",
    ]);
    let mut reg = MetricsRegistry::new();
    for &n in points {
        let sc = mixed(n);
        let start = std::time::Instant::now();
        let r = run_scenario(&sc).expect("scenario completes");
        let wall = start.elapsed();
        assert_eq!(r.sessions_completed, sc.total_sessions());
        let d = r
            .metrics
            .histogram("sessions.duration")
            .expect("duration histogram populated");
        let goodput =
            r.goodput_bytes as f64 / (r.final_time_ps as f64 / 1e12);
        t.row(vec![
            n.to_string(),
            sc.users.to_string(),
            r.deliveries.to_string(),
            fmt_rate(goodput),
            fmt_us(d.p50 as f64 / 1e6),
            fmt_us(d.p95 as f64 / 1e6),
            fmt_us(d.p99 as f64 / 1e6),
            format!("{wall:.2?}"),
        ]);
        let p = format!("sessions.{n}");
        reg.set_counter(format!("{p}.completed"), r.sessions_completed);
        reg.set_counter(format!("{p}.deliveries"), r.deliveries);
        reg.set_counter(format!("{p}.goodput_bytes"), r.goodput_bytes);
        reg.set_gauge(format!("{p}.goodput_bytes_per_s"), goodput);
        reg.set_counter(format!("{p}.duration_p50_ps"), d.p50);
        reg.set_counter(format!("{p}.duration_p95_ps"), d.p95);
        reg.set_counter(format!("{p}.duration_p99_ps"), d.p99);
        if let Some(op) = r.metrics.histogram("sessions.rpc.op_latency") {
            reg.set_counter(format!("{p}.rpc_op_p50_ps"), op.p50);
            reg.set_counter(format!("{p}.rpc_op_p99_ps"), op.p99);
        }
        reg.set_counter(format!("{p}.delivery_hash"), r.delivery_hash);
    }
    t.print();

    println!(
        "\nclosed loop: a session opens only when a user slot frees, so \
         the offered load holds steady while total work scales"
    );
    write_metrics("sessions", &reg.snapshot());
}
