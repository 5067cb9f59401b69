//! Regenerates the paper's two comparison results:
//!
//! * **§5.2** — SHRIMP's user-level `csend`/`crecv` vs the NX/2
//!   kernel implementation (73+78 vs 222+261 instructions, "about 1/4 of
//!   the overhead", plus NX/2's system calls and DMA interrupts).
//! * **§1** — the Intel DELTA motivation: traditional send+receive costs
//!   ~67 µs of software, of which <1 µs is hardware.
//!
//! Plus a three-way NIC-backend table over the mixed workload: the
//! pinned SHRIMP datapath vs the NP-RDMA-style unpinned backend
//! (bounded IOTLB + dynamic map-in) vs the kernel-mediated NX/2
//! baseline — goodput, p50/p99 latency decomposition and the unpinned
//! backend's map-in/IOTLB-miss counters, emitted as
//! `comparison.{shrimp,unpinned,nx2}.*`.
//!
//! ```text
//! cargo run -p shrimp-bench --bin comparison
//! ```

#![forbid(unsafe_code)]

use shrimp_baseline::{BaselineConfig, BaselineMachine};
use shrimp_bench::{banner, fmt_rate, fmt_ratio, fmt_us, write_metrics, Table};
use shrimp_core::msglib;
use shrimp_mesh::{MeshShape, NodeId};
use shrimp_nic::NicBackend;
use shrimp_sim::MetricsRegistry;
use shrimp_workload::{run_scenario, Report, Scenario};

/// The `mixed.shrimp` session mix, parameterized by NIC backend so the
/// two simulated columns see byte-identical offered load.
fn backend_scenario(backend: NicBackend) -> Scenario {
    let nic_line = match backend {
        NicBackend::Shrimp => String::new(),
        b => format!("nic {}\n", b.as_str()),
    };
    let text = format!(
        "scenario backends\n\
         mesh 2x2\n\
         seed 55\n\
         pages 96\n\
         users 6\n\
         {nic_line}\
         session rpc count=6 src=any dst=any requests=3 request=256 response=256 think=1us..8us server=1us..4us\n\
         session stream count=4 src=any dst=any pages=3 gap=1us..3us\n\
         session fanout count=4 src=any leaves=2 rounds=2 bytes=512 think=2us..6us\n\
         session dsm count=6 src=any dst=any pages=2 ops=4 write=64 think=1us..5us\n"
    );
    Scenario::parse(&text).expect("backend scenario is valid")
}

/// Per-backend figures pulled out of a scenario [`Report`].
struct BackendRow {
    goodput_bps: f64,
    e2e_p50_ps: u64,
    e2e_p99_ps: u64,
    dma_p50_ps: u64,
    iotlb_misses: u64,
    map_ins: u64,
}

fn summarize(r: &Report) -> BackendRow {
    let e2e = r.metrics.histogram("latency.e2e").expect("e2e histogram");
    let dma = r.metrics.histogram("latency.dma").expect("dma histogram");
    let sum = |key: &str| {
        (0..4)
            .filter_map(|i| r.metrics.counter(&format!("nic{i}.iotlb.{key}")))
            .sum()
    };
    BackendRow {
        goodput_bps: r.goodput_bytes as f64 / (r.final_time_ps as f64 * 1e-12),
        e2e_p50_ps: e2e.p50,
        e2e_p99_ps: e2e.p99,
        dma_p50_ps: dma.p50,
        iotlb_misses: sum("misses"),
        map_ins: sum("map_ins"),
    }
}

fn emit_backend(reg: &mut MetricsRegistry, name: &str, row: &BackendRow) {
    reg.set_gauge(format!("comparison.{name}.goodput_mbps"), row.goodput_bps / 1e6);
    reg.set_counter(format!("comparison.{name}.latency.e2e.p50_ps"), row.e2e_p50_ps);
    reg.set_counter(format!("comparison.{name}.latency.e2e.p99_ps"), row.e2e_p99_ps);
    reg.set_counter(format!("comparison.{name}.latency.dma.p50_ps"), row.dma_p50_ps);
    reg.set_counter(format!("comparison.{name}.iotlb.misses"), row.iotlb_misses);
    reg.set_counter(format!("comparison.{name}.map_ins"), row.map_ins);
}

const PS_PER_US: f64 = 1e6;

fn main() {
    banner("Section 5.2: csend/crecv vs NX/2");

    let shrimp = msglib::csend_crecv().expect("SHRIMP csend/crecv runs");
    assert!(shrimp.verified, "message must arrive");
    let ours = shrimp.copy_excluded.unwrap_or(shrimp.counts);

    let cfg = BaselineConfig::ipsc2();
    let mut t = Table::new(vec![
        "implementation",
        "csend insns",
        "crecv insns",
        "syscalls",
        "interrupts",
    ]);
    t.row(vec![
        "SHRIMP user-level (this repro)".into(),
        ours.sender.to_string(),
        ours.receiver.to_string(),
        "0".into(),
        "0".into(),
    ]);
    t.row(vec![
        "SHRIMP user-level (paper)".into(),
        "73".into(),
        "78".into(),
        "0".into(),
        "0".into(),
    ]);
    t.row(vec![
        "NX/2 on iPSC/2 (paper)".into(),
        cfg.csend_instructions.to_string(),
        cfg.crecv_instructions.to_string(),
        "2".into(),
        "2".into(),
    ]);
    t.print();

    let ratio = ours.total() as f64 / (cfg.csend_instructions + cfg.crecv_instructions) as f64;
    println!(
        "\npaper: SHRIMP ≈ 0.31x of NX/2's fast-path instructions; measured {}",
        fmt_ratio(ratio)
    );
    assert!(
        ratio < 0.5,
        "user-level csend/crecv must stay well under NX/2's instruction counts"
    );

    banner("Section 1: DELTA-style software vs hardware breakdown");
    let mut m = BaselineMachine::new(cfg, MeshShape::new(4, 4));
    let timeline = m.send_message(NodeId(0), NodeId(15), 64);
    let mut t = Table::new(vec!["stage", "time"]);
    for (stage, d) in [
        ("csend trap + kernel fast path", timeline.send_software),
        ("sender user->system copy", timeline.send_copy),
        ("send DMA", timeline.send_dma),
        ("backplane transit (hardware)", timeline.wire),
        ("receive DMA + interrupt", timeline.recv_dma),
        ("crecv trap + dispatch", timeline.recv_software),
        ("receiver system->user copy", timeline.recv_copy),
    ] {
        t.row(vec![stage.into(), format!("{d}")]);
    }
    t.print();

    let sw = timeline.software_overhead().as_micros_f64();
    let hw = timeline.wire.as_micros_f64();
    println!(
        "\npaper (DELTA): ~67 us software, <1 us hardware per send+receive"
    );
    println!(
        "measured (iPSC/2-class baseline): {} software vs {} hardware ({} ratio)",
        fmt_us(sw),
        fmt_us(hw),
        fmt_ratio(sw / hw)
    );
    assert!(sw / hw > 10.0, "software must dominate hardware");

    // SHRIMP's same-size message end to end, for the punchline.
    println!(
        "\nSHRIMP csend+crecv end-to-end (simulated): {}",
        fmt_us(shrimp.elapsed.as_micros_f64())
    );
    println!("kernel-mediated baseline end-to-end:        {}", fmt_us(timeline.total().as_micros_f64()));
    let speedup = timeline.total().as_micros_f64() / shrimp.elapsed.as_micros_f64();
    println!("SHRIMP speedup: {}", fmt_ratio(speedup));
    assert!(speedup > 2.0, "SHRIMP must clearly win end-to-end");

    banner("NIC backends: pinned SHRIMP vs unpinned (NP-RDMA-style) vs NX/2");

    let pinned_report = run_scenario(&backend_scenario(NicBackend::Shrimp)).expect("pinned run");
    let unpinned_report =
        run_scenario(&backend_scenario(NicBackend::Unpinned)).expect("unpinned run");
    let pinned_row = summarize(&pinned_report);
    let unpinned_row = summarize(&unpinned_report);

    // NX/2 moves the same page-sized payload through traps, copies and
    // DMA interrupts; the model is deterministic, so p50 = p99 = total.
    let nx2_timeline = BaselineMachine::new(BaselineConfig::ipsc2(), MeshShape::new(2, 2))
        .send_message(NodeId(0), NodeId(3), 4096);
    let nx2_total_ps = nx2_timeline.total().as_picos();
    let nx2_row = BackendRow {
        goodput_bps: 4096.0 / (nx2_total_ps as f64 * 1e-12),
        e2e_p50_ps: nx2_total_ps,
        e2e_p99_ps: nx2_total_ps,
        dma_p50_ps: (nx2_timeline.send_dma + nx2_timeline.recv_dma).as_picos(),
        iotlb_misses: 0,
        map_ins: 0,
    };

    let mut t = Table::new(vec![
        "backend",
        "goodput",
        "e2e p50",
        "e2e p99",
        "dma p50",
        "iotlb misses",
        "map-ins",
    ]);
    for (name, row) in [
        ("SHRIMP pinned", &pinned_row),
        ("unpinned IOTLB", &unpinned_row),
        ("NX/2 kernel (modeled)", &nx2_row),
    ] {
        t.row(vec![
            name.into(),
            fmt_rate(row.goodput_bps),
            fmt_us(row.e2e_p50_ps as f64 / PS_PER_US),
            fmt_us(row.e2e_p99_ps as f64 / PS_PER_US),
            fmt_us(row.dma_p50_ps as f64 / PS_PER_US),
            row.iotlb_misses.to_string(),
            row.map_ins.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nunpinned slowdown vs pinned (same load, same seed): {}",
        fmt_ratio(unpinned_report.final_time_ps as f64 / pinned_report.final_time_ps as f64)
    );

    assert_eq!(
        unpinned_report.goodput_bytes, pinned_report.goodput_bytes,
        "both backends must deliver the same session payload"
    );
    assert!(
        unpinned_report.final_time_ps > pinned_report.final_time_ps,
        "dynamic map-in must cost simulated time"
    );
    assert!(unpinned_row.iotlb_misses > 0 && unpinned_row.map_ins > 0);
    assert!(
        nx2_row.e2e_p50_ps > pinned_row.e2e_p50_ps,
        "the kernel-mediated baseline must lose to the mapped datapath"
    );

    let mut reg = shrimp_sim::MetricsRegistry::new();
    emit_backend(&mut reg, "shrimp", &pinned_row);
    emit_backend(&mut reg, "unpinned", &unpinned_row);
    emit_backend(&mut reg, "nx2", &nx2_row);
    reg.set_counter("comparison.shrimp.csend_insns", ours.sender);
    reg.set_counter("comparison.shrimp.crecv_insns", ours.receiver);
    reg.set_counter("comparison.nx2.csend_insns", cfg.csend_instructions);
    reg.set_counter("comparison.nx2.crecv_insns", cfg.crecv_instructions);
    reg.set_gauge("comparison.instruction_ratio", ratio);
    reg.set_gauge("comparison.software_vs_hardware_ratio", sw / hw);
    reg.set_gauge("comparison.end_to_end_speedup", speedup);
    write_metrics("comparison", &reg.snapshot());
}
