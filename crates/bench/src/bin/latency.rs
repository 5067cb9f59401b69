//! Regenerates the paper's §5.1 **latency** result: single-write
//! automatic-update latency on a 16-node (4×4) machine is under 2 µs on
//! the EISA prototype and under 1 µs on the next-generation datapath.
//!
//! Latency is the paper's definition: time from the sending CPU's write
//! to the arrival of the written data in destination memory.
//!
//! ```text
//! cargo run -p shrimp-bench --bin latency
//! ```

#![forbid(unsafe_code)]

use shrimp_bench::{banner, fmt_us, write_metrics, Table};
use shrimp_core::{Machine, MachineConfig, MapRequest};
use shrimp_mesh::{MeshShape, NodeId};
use shrimp_nic::UpdatePolicy;
use shrimp_sim::{SimDuration, TelemetryConfig};

/// One-word automatic-update latency from node 0 to `dst` on `cfg`.
fn one_word_latency(cfg: MachineConfig, dst: NodeId) -> f64 {
    let mut m = Machine::new(cfg);
    let s = m.create_process(NodeId(0));
    let r = m.create_process(dst);
    let src = m.alloc_pages(NodeId(0), s, 1).expect("alloc");
    let rcv = m.alloc_pages(dst, r, 1).expect("alloc");
    let export = m
        .export_buffer(dst, r, rcv, 1, Some(NodeId(0)))
        .expect("export");
    m.map(MapRequest {
        src_node: NodeId(0),
        src_pid: s,
        src_va: src,
        dst_node: dst,
        export,
        dst_offset: 0,
        len: 4096,
        policy: UpdatePolicy::AutomaticSingle,
    })
    .expect("map");

    let t0 = m.now();
    m.poke(NodeId(0), s, src, &0xdead_beefu32.to_le_bytes())
        .expect("store");
    m.run_until_idle().expect("quiesce");
    let arrival = m
        .deliveries()
        .iter()
        .find(|d| d.node == dst)
        .expect("the word must arrive")
        .time;
    arrival.since(t0).as_micros_f64()
}

/// Runs a burst of single-word updates with packet-lifecycle telemetry
/// on and returns the machine for stage decomposition.
fn traced_burst(mut cfg: MachineConfig, dst: NodeId, words: u64) -> Machine {
    cfg.telemetry = TelemetryConfig {
        latency: true,
        ..TelemetryConfig::default()
    };
    let mut m = Machine::new(cfg);
    let s = m.create_process(NodeId(0));
    let r = m.create_process(dst);
    let src = m.alloc_pages(NodeId(0), s, 1).expect("alloc");
    let rcv = m.alloc_pages(dst, r, 1).expect("alloc");
    let export = m
        .export_buffer(dst, r, rcv, 1, Some(NodeId(0)))
        .expect("export");
    m.map(MapRequest {
        src_node: NodeId(0),
        src_pid: s,
        src_va: src,
        dst_node: dst,
        export,
        dst_offset: 0,
        len: 4096,
        policy: UpdatePolicy::AutomaticSingle,
    })
    .expect("map");
    for i in 0..words {
        m.poke(NodeId(0), s, src.add(i * 4), &(i as u32).to_le_bytes())
            .expect("store");
        m.run_until_idle().expect("quiesce");
    }
    m
}

/// Per-stage latency decomposition of the prototype datapath: where the
/// <2 µs actually goes (snoop → Out FIFO → mesh → In FIFO → EISA DMA).
fn stage_breakdown(shape: MeshShape) {
    banner("latency decomposition: per-stage breakdown (EISA prototype)");
    const WORDS: u64 = 64;
    let m = traced_burst(MachineConfig::prototype(shape), NodeId(15), WORDS);
    let tel = m.telemetry();
    assert_eq!(tel.records.len(), WORDS as usize, "every word must arrive");
    let mut sum = [SimDuration::ZERO; 5];
    for rec in &tel.records {
        let stages = [rec.out_fifo(), rec.mesh(), rec.in_fifo(), rec.dma(), rec.end_to_end()];
        for (acc, s) in sum.iter_mut().zip(stages) {
            *acc += s;
        }
        assert_eq!(
            rec.out_fifo() + rec.mesh() + rec.in_fifo() + rec.dma(),
            rec.end_to_end(),
            "per-stage latencies must sum to the end-to-end latency"
        );
    }
    let e2e_total = sum[4];
    let mut t = Table::new(vec!["stage", "mean", "p50", "p95", "p99", "share"]);
    let pct = |h: &shrimp_sim::Histogram| {
        (
            fmt_us(h.mean().unwrap_or(0.0) / 1e6),
            fmt_us(h.p50().unwrap_or(0) as f64 / 1e6),
            fmt_us(h.p95().unwrap_or(0) as f64 / 1e6),
            fmt_us(h.p99().unwrap_or(0) as f64 / 1e6),
        )
    };
    for (name, hist, total) in [
        ("snoop -> Out FIFO", &tel.stages.out_fifo, sum[0]),
        ("mesh transit", &tel.stages.mesh, sum[1]),
        ("In FIFO + EISA arb", &tel.stages.in_fifo, sum[2]),
        ("DMA burst", &tel.stages.dma, sum[3]),
        ("end-to-end", &tel.stages.e2e, sum[4]),
    ] {
        let (mean, p50, p95, p99) = pct(hist);
        let share = 100.0 * total.as_picos() as f64 / e2e_total.as_picos() as f64;
        t.row(vec![
            name.into(),
            mean,
            p50,
            p95,
            p99,
            format!("{share:.1}%"),
        ]);
    }
    t.print();
    println!("\nstage sums equal the end-to-end latency for every packet (checked)");
    write_metrics("latency", &m.metrics_snapshot());
}

fn main() {
    banner("Section 5.1: automatic-update latency (single-write)");
    let shape = MeshShape::new(4, 4);

    let mut t = Table::new(vec![
        "destination",
        "hops",
        "EISA prototype",
        "next generation",
    ]);
    // Nearest neighbor, mid-mesh, and the far corner of the 4x4 mesh.
    for dst in [1u16, 5, 10, 15] {
        let hops = shape.hops(NodeId(0), NodeId(dst));
        let proto = one_word_latency(MachineConfig::prototype(shape), NodeId(dst));
        let next = one_word_latency(MachineConfig::next_generation(shape), NodeId(dst));
        t.row(vec![
            format!("node {dst}"),
            hops.to_string(),
            fmt_us(proto),
            fmt_us(next),
        ]);
    }
    t.print();

    let worst_proto = one_word_latency(MachineConfig::prototype(shape), NodeId(15));
    let worst_next = one_word_latency(MachineConfig::next_generation(shape), NodeId(15));
    println!();
    println!(
        "paper: <2 us on the 16-node EISA prototype   -> measured worst case {}",
        fmt_us(worst_proto)
    );
    println!(
        "paper: <1 us on the next implementation      -> measured worst case {}",
        fmt_us(worst_next)
    );
    assert!(worst_proto < 2.0, "prototype must stay under 2 us");
    assert!(worst_next < 1.0, "next generation must stay under 1 us");
    println!("\nboth envelopes hold");

    stage_breakdown(shape);
}
