//! Simulator throughput benchmark: wall-clock events/sec and
//! simulated-bytes/sec on the paper's bandwidth and latency workloads.
//!
//! Unlike the other bench binaries (which regenerate *paper* numbers),
//! this one measures the *simulator itself*, so perf PRs have a tracked
//! trajectory. Results are printed and written to `BENCH_simspeed.json`
//! in the current directory.
//!
//! ```text
//! cargo run --release -p shrimp-bench --bin simspeed
//! cargo run --release -p shrimp-bench --features alloc-stats --bin simspeed
//! cargo run --release -p shrimp-bench --bin simspeed -- --smoke
//! ```
//!
//! With `--features alloc-stats` a counting global allocator is
//! installed and every sample also reports heap allocations per
//! simulated event — the number the packet arena is meant to drive
//! toward zero on streaming workloads.
//!
//! `--smoke` runs a reduced 32×32-mesh scaling check meant for CI: the
//! 1024-node ring at workers 1 and 8, asserting the delivery hash and
//! event count are bit-identical and that single-worker throughput
//! stays above a lenient floor.

use std::time::Instant;

use shrimp_bench::{alloc_stats, banner, write_metrics};
use shrimp_core::{DeliveryRecord, Machine, MachineConfig, MapRequest};
use shrimp_sim::{BarrierCause, WindowStats};
use shrimp_cpu::Reg;
use shrimp_mem::PAGE_SIZE;
use shrimp_mesh::{MeshShape, NodeId};
use shrimp_nic::UpdatePolicy;

/// Per-workload measurement.
struct Sample {
    name: &'static str,
    wall_seconds: f64,
    events: u64,
    sim_bytes: u64,
    /// Heap allocations during the measured region (0 unless the
    /// `alloc-stats` feature installed the counting allocator).
    allocs: u64,
}

impl Sample {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_seconds
    }
    fn sim_bytes_per_sec(&self) -> f64 {
        self.sim_bytes as f64 / self.wall_seconds
    }
    /// Heap allocations per event, or `None` when this build did not
    /// count them (no `alloc-stats`): an unmeasured count is not zero.
    fn allocs_per_event(&self) -> Option<f64> {
        if !alloc_stats::ENABLED {
            None
        } else if self.events == 0 {
            Some(0.0)
        } else {
            Some(self.allocs as f64 / self.events as f64)
        }
    }
}

/// An allocs/event figure for the printed tables (`-` when unmeasured).
fn table_allocs(a: Option<f64>) -> String {
    a.map_or_else(|| "-".to_string(), |a| format!("{a:.3}"))
}

/// FNV-1a over every field of every delivery record — one number that
/// captures the exact content *and order* of the delivery log (the same
/// fingerprint the determinism suite pins).
fn delivery_hash(deliveries: &[DeliveryRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in deliveries {
        for v in [
            d.time.as_picos(),
            d.node.0 as u64,
            d.dst_addr.raw(),
            d.len,
            d.src.0 as u64,
        ] {
            h ^= v;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

struct Sender {
    m: Machine,
    s: shrimp_os::Pid,
    data_va: shrimp_mem::VirtAddr,
    cmd_delta: u32,
}

/// Two-node machine with `pages` mapped from node 0 to node 1 under
/// `policy` (same shape as the §5.1 bandwidth experiment).
fn sender_setup(cfg: MachineConfig, pages: u64, policy: UpdatePolicy) -> Sender {
    let snd = NodeId(0);
    let rcv = NodeId(1);
    let mut m = Machine::new(cfg);
    let s = m.create_process(snd);
    let r = m.create_process(rcv);
    let data_va = m.alloc_pages(snd, s, pages).expect("alloc send");
    let rcv_va = m.alloc_pages(rcv, r, pages).expect("alloc recv");
    let export = m
        .export_buffer(rcv, r, rcv_va, pages, Some(snd))
        .expect("export");
    m.map(MapRequest {
        src_node: snd,
        src_pid: s,
        src_va: data_va,
        dst_node: rcv,
        export,
        dst_offset: 0,
        len: pages * PAGE_SIZE,
        policy,
    })
    .expect("map");
    let mut cmd_delta = 0u32;
    for p in 0..pages {
        let cmd = m
            .map_command_page(snd, s, data_va.add(p * PAGE_SIZE))
            .expect("command page");
        if p == 0 {
            cmd_delta = (cmd.raw() - data_va.raw()) as u32;
        }
    }
    let payload: Vec<u8> = (0..pages * PAGE_SIZE).map(|i| (i % 253) as u8).collect();
    m.poke(snd, s, data_va, &payload).expect("fill");
    m.run_until_idle().expect("quiesce after fill");
    m.clear_deliveries();
    Sender {
        m,
        s,
        data_va,
        cmd_delta,
    }
}

/// Deliberate-update streaming of `bytes` (DMA bandwidth workload).
fn bandwidth_workload(bytes: u64) -> Sample {
    let mut cfg = MachineConfig::prototype(MeshShape::new(2, 1));
    // The trajectory samples always measure the sequential engine; the
    // scaling sweep below covers the parallel one.
    cfg.workers = 1;
    let pages = bytes.div_ceil(PAGE_SIZE);
    // Paper configs keep nodes at 1 MB to stay test-sized; this workload
    // streams more, so widen the physical memory (data + command pages).
    cfg.pages_per_node = 4 * pages.max(256);
    let mut w = sender_setup(cfg, pages, UpdatePolicy::Deliberate);
    let program = shrimp_core::msglib::deliberate_stream_program();
    w.m.load_program(NodeId(0), w.s, program);
    w.m.set_reg(NodeId(0), w.s, Reg::R5, w.data_va.raw() as u32);
    w.m.set_reg(NodeId(0), w.s, Reg::R7, w.cmd_delta);
    w.m.set_reg(NodeId(0), w.s, Reg::R3, pages as u32);
    w.m.set_reg(NodeId(0), w.s, Reg::R2, (PAGE_SIZE / 4) as u32);
    w.m.set_reg(NodeId(0), w.s, Reg::R4, (PAGE_SIZE / 4) as u32);

    let ev0 = w.m.events_processed();
    let a0 = alloc_stats::allocations();
    let wall = Instant::now();
    w.m.start(NodeId(0), w.s);
    w.m.run_until_idle().expect("stream must drain");
    let wall_seconds = wall.elapsed().as_secs_f64();
    let allocs = alloc_stats::allocations() - a0;
    let delivered: u64 = w.m.deliveries().iter().map(|d| d.len).sum();
    assert_eq!(delivered, pages * PAGE_SIZE, "every byte must arrive");
    Sample {
        name: "bandwidth",
        wall_seconds,
        events: w.m.events_processed() - ev0,
        sim_bytes: delivered,
        allocs,
    }
}

/// Blocked-write automatic-update streaming (snoop-path workload: every
/// word crosses the snoop, merge and packetization path).
fn blocked_write_workload(bytes: u64) -> Sample {
    let mut cfg = MachineConfig::prototype(MeshShape::new(2, 1));
    cfg.workers = 1;
    let pages = bytes.div_ceil(PAGE_SIZE);
    cfg.pages_per_node = 4 * pages.max(256);
    let mut w = sender_setup(cfg, pages, UpdatePolicy::AutomaticBlocked);
    let data: Vec<u8> = (0..bytes).map(|i| (i % 241) as u8).collect();

    let ev0 = w.m.events_processed();
    let a0 = alloc_stats::allocations();
    let wall = Instant::now();
    w.m.poke(NodeId(0), w.s, w.data_va, &data).expect("stores");
    w.m.run_until_idle().expect("stream must drain");
    let wall_seconds = wall.elapsed().as_secs_f64();
    let allocs = alloc_stats::allocations() - a0;
    let delivered: u64 = w.m.deliveries().iter().map(|d| d.len).sum();
    assert_eq!(delivered, bytes, "every byte must arrive");
    Sample {
        name: "blocked_write",
        wall_seconds,
        events: w.m.events_processed() - ev0,
        sim_bytes: delivered,
        allocs,
    }
}

/// Repeated single-word automatic updates across a 4×4 mesh (latency
/// workload: event-loop and per-packet overhead dominated).
fn latency_workload(rounds: u64) -> Sample {
    let mut cfg = MachineConfig::prototype(MeshShape::new(4, 4));
    cfg.workers = 1;
    let src_node = NodeId(0);
    let dst_node = NodeId(15);
    let mut m = Machine::new(cfg);
    let s = m.create_process(src_node);
    let r = m.create_process(dst_node);
    let src = m.alloc_pages(src_node, s, 1).expect("alloc");
    let rcv = m.alloc_pages(dst_node, r, 1).expect("alloc");
    let export = m
        .export_buffer(dst_node, r, rcv, 1, Some(src_node))
        .expect("export");
    m.map(MapRequest {
        src_node,
        src_pid: s,
        src_va: src,
        dst_node,
        export,
        dst_offset: 0,
        len: PAGE_SIZE,
        policy: UpdatePolicy::AutomaticSingle,
    })
    .expect("map");

    let ev0 = m.events_processed();
    let a0 = alloc_stats::allocations();
    let wall = Instant::now();
    for i in 0..rounds {
        let off = (i % (PAGE_SIZE / 4)) * 4;
        m.poke(src_node, s, src.add(off), &(i as u32).to_le_bytes())
            .expect("store");
        m.run_until_idle().expect("quiesce");
    }
    let wall_seconds = wall.elapsed().as_secs_f64();
    let allocs = alloc_stats::allocations() - a0;
    let delivered: u64 = m.deliveries().iter().map(|d| d.len).sum();
    assert_eq!(delivered, rounds * 4, "every word must arrive");
    Sample {
        name: "latency",
        wall_seconds,
        events: m.events_processed() - ev0,
        sim_bytes: delivered,
        allocs,
    }
}

/// One leg of the worker-scaling sweep: a fully symmetric ring stream
/// over **every node of a `dim`×`dim` mesh**. Each node runs the
/// deliberate-update stream program to its ring successor, all programs
/// started at the same instant, so eligible events land on shared
/// lookahead windows across distinct nodes — the shape the conservative
/// parallel engine batches. Returns the measurement, the number of
/// window batches the engine shipped, the delivery-log fingerprint for
/// cross-worker-count comparison, and the window telemetry (window
/// formation runs at every worker count, so the barrier-cause counters
/// must also be worker-invariant).
fn scaling_workload(dim: u16, workers: usize, pages: u64) -> (Sample, u64, u64, WindowStats) {
    let n = dim as usize * dim as usize;
    let mut cfg = MachineConfig::prototype(MeshShape::new(dim, dim));
    cfg.workers = workers;
    // Each node only touches `2 × pages` data pages plus kernel
    // metadata; on a 1024-node mesh the paper default of 1 MB/node
    // would cost a gigabyte of host RAM, so size memory to the workload.
    cfg.pages_per_node = (8 * pages).max(32);
    let mut m = Machine::new(cfg);

    let pids: Vec<_> = (0..n).map(|i| m.create_process(NodeId(i as u16))).collect();
    let mut exports = Vec::new();
    for (i, &pid) in pids.iter().enumerate() {
        let dst_va = m.alloc_pages(NodeId(i as u16), pid, pages).expect("alloc dst");
        let pred = NodeId(((i + n - 1) % n) as u16);
        let export = m
            .export_buffer(NodeId(i as u16), pid, dst_va, pages, Some(pred))
            .expect("export");
        exports.push(export);
    }
    let mut srcs = Vec::new();
    for (i, &pid) in pids.iter().enumerate() {
        let succ = (i + 1) % n;
        let src_va = m.alloc_pages(NodeId(i as u16), pid, pages).expect("alloc src");
        m.map(MapRequest {
            src_node: NodeId(i as u16),
            src_pid: pid,
            src_va,
            dst_node: NodeId(succ as u16),
            export: exports[succ],
            dst_offset: 0,
            len: pages * PAGE_SIZE,
            policy: UpdatePolicy::Deliberate,
        })
        .expect("map ring edge");
        let mut cmd_delta = 0u32;
        for p in 0..pages {
            let cmd = m
                .map_command_page(NodeId(i as u16), pid, src_va.add(p * PAGE_SIZE))
                .expect("command page");
            if p == 0 {
                cmd_delta = (cmd.raw() - src_va.raw()) as u32;
            }
        }
        let payload: Vec<u8> = (0..pages * PAGE_SIZE)
            .map(|b| ((b as usize * 7 + i) % 251) as u8)
            .collect();
        m.poke(NodeId(i as u16), pid, src_va, &payload).expect("fill");
        srcs.push((src_va, cmd_delta));
    }
    m.run_until_idle().expect("quiesce after setup");
    m.clear_deliveries();

    let program = shrimp_core::msglib::deliberate_stream_program();
    for (i, (&pid, &(src_va, cmd_delta))) in pids.iter().zip(&srcs).enumerate() {
        let node = NodeId(i as u16);
        m.load_program(node, pid, program.clone());
        m.set_reg(node, pid, Reg::R5, src_va.raw() as u32);
        m.set_reg(node, pid, Reg::R7, cmd_delta);
        m.set_reg(node, pid, Reg::R3, pages as u32);
        m.set_reg(node, pid, Reg::R2, (PAGE_SIZE / 4) as u32);
        m.set_reg(node, pid, Reg::R4, (PAGE_SIZE / 4) as u32);
    }

    let ev0 = m.events_processed();
    let a0 = alloc_stats::allocations();
    let wall = Instant::now();
    for (i, &pid) in pids.iter().enumerate() {
        m.start(NodeId(i as u16), pid);
    }
    m.run_until_idle().expect("ring must drain");
    let wall_seconds = wall.elapsed().as_secs_f64();
    let allocs = alloc_stats::allocations() - a0;
    let delivered: u64 = m.deliveries().iter().map(|d| d.len).sum();
    assert_eq!(delivered, n as u64 * pages * PAGE_SIZE, "every byte must arrive");
    let name = match workers {
        1 => "scaling1k_w1",
        2 => "scaling1k_w2",
        4 => "scaling1k_w4",
        8 => "scaling1k_w8",
        16 => "scaling1k_w16",
        _ => "scaling1k",
    };
    let hash = delivery_hash(m.deliveries());
    (
        Sample {
            name,
            wall_seconds,
            events: m.events_processed() - ev0,
            sim_bytes: delivered,
            allocs,
        },
        m.parallel_batches(),
        hash,
        m.window_stats().clone(),
    )
}

fn json_field(s: &Sample) -> String {
    format!(
        concat!(
            "  \"{}\": {{\n",
            "    \"wall_seconds\": {:.6},\n",
            "    \"events\": {},\n",
            "    \"events_per_sec\": {:.1},\n",
            "    \"sim_bytes\": {},\n",
            "    \"sim_bytes_per_sec\": {:.1},\n",
            "    \"allocs_per_event\": {}\n",
            "  }}"
        ),
        s.name,
        s.wall_seconds,
        s.events,
        s.events_per_sec(),
        s.sim_bytes,
        s.sim_bytes_per_sec(),
        s.allocs_per_event()
            .map_or_else(|| "null".to_string(), |a| format!("{a:.4}")),
    )
}

/// CI smoke: the 32×32 ring at workers 1 and 8 must produce the same
/// delivery fingerprint and event count, and single-worker throughput
/// must clear a floor lenient enough for noisy shared runners.
fn smoke() {
    banner("simspeed --smoke: 32x32 scaling determinism check");
    const FLOOR_EVENTS_PER_SEC: f64 = 25_000.0;
    let (s1, b1, h1, w1) = scaling_workload(32, 1, 2);
    let (s8, b8, h8, w8) = scaling_workload(32, 8, 2);
    for s in [&s1, &s8] {
        println!(
            "{:<14} {:>10.4}s {:>12} events {:>14.0} ev/s",
            s.name,
            s.wall_seconds,
            s.events,
            s.events_per_sec(),
        );
    }
    println!("windows shipped: workers=1 {b1}, workers=8 {b8}");
    assert_eq!(h1, h8, "delivery hash diverged between workers=1 and workers=8");
    assert_eq!(s1.events, s8.events, "event count diverged between worker counts");

    // The barrier-cause breakdown is deterministic window telemetry:
    // it must be worker-invariant, it must sum to the total windows
    // closed, and a mesh-saturating ring must show mesh-event clamps.
    println!("\nbarrier causes (worker-invariant):");
    let mut sum = 0;
    for cause in BarrierCause::ALL {
        assert_eq!(
            w1.closes(cause),
            w8.closes(cause),
            "engine.barrier.{} diverged between worker counts",
            cause.name(),
        );
        sum += w1.closes(cause);
        println!("  engine.barrier.{:<18} {}", cause.name(), w1.closes(cause));
    }
    assert_eq!(sum, w1.total_closed(), "per-cause counters must sum to windows closed");
    assert!(
        w1.closes(BarrierCause::MeshEventClamp) > 0,
        "a mesh-heavy ring must clamp windows on pending mesh events"
    );

    assert!(
        s1.events_per_sec() >= FLOOR_EVENTS_PER_SEC,
        "workers=1 throughput {:.0} ev/s fell below the {FLOOR_EVENTS_PER_SEC} floor",
        s1.events_per_sec(),
    );
    println!("\nsmoke OK: hashes match, {} events, floor cleared", s1.events);
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    banner("simspeed: simulator wall-clock throughput");
    if alloc_stats::ENABLED {
        println!("(alloc-stats on: allocs/event are real; wall clock is perturbed)\n");
    }

    // Warm up allocator and caches with a small run before measuring.
    let _ = bandwidth_workload(64 * PAGE_SIZE);

    let samples = [
        bandwidth_workload(4096 * PAGE_SIZE),
        blocked_write_workload(768 * PAGE_SIZE),
        latency_workload(20_000),
    ];

    println!(
        "{:<14} {:>10} {:>12} {:>14} {:>12} {:>16} {:>10}",
        "workload", "wall s", "events", "events/s", "sim bytes", "sim bytes/s", "allocs/ev"
    );
    for s in &samples {
        println!(
            "{:<14} {:>10.4} {:>12} {:>14.0} {:>12} {:>16.0} {:>10}",
            s.name,
            s.wall_seconds,
            s.events,
            s.events_per_sec(),
            s.sim_bytes,
            s.sim_bytes_per_sec(),
            table_allocs(s.allocs_per_event()),
        );
    }

    // Worker-count scaling sweep: every node of a 32×32 mesh (1024
    // nodes) streaming to its ring successor. The event counts and
    // delivery fingerprints must agree across worker counts — the
    // parallel engine is bit-deterministic — so only wall clock may
    // differ.
    println!("\nscaling sweep (32x32 mesh, 1024-node ring, all nodes streaming):");
    println!(
        "{:<10} {:>10} {:>12} {:>14} {:>10} {:>10}",
        "workers", "wall s", "events", "events/s", "batches", "allocs/ev"
    );
    let sweep: Vec<(usize, Sample, u64, u64, WindowStats)> = [1usize, 2, 4, 8, 16]
        .into_iter()
        .map(|w| {
            let (s, batches, hash, stats) = scaling_workload(32, w, 2);
            (w, s, batches, hash, stats)
        })
        .collect();
    for (w, s, batches, hash, _) in &sweep {
        println!(
            "{:<10} {:>10.4} {:>12} {:>14.0} {:>10} {:>10}",
            w,
            s.wall_seconds,
            s.events,
            s.events_per_sec(),
            batches,
            table_allocs(s.allocs_per_event()),
        );
        assert_eq!(
            s.events, sweep[0].1.events,
            "worker count changed the event count — determinism broken"
        );
        assert_eq!(
            *hash, sweep[0].3,
            "worker count changed the delivery log — determinism broken"
        );
    }

    // Historical trajectory file, kept format-stable so perf PRs stay
    // comparable across revisions.
    let body = samples
        .iter()
        .chain(sweep.iter().map(|(_, s, _, _, _)| s))
        .map(json_field)
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!("{{\n{body}\n}}\n");
    std::fs::write("BENCH_simspeed.json", &json).expect("write BENCH_simspeed.json");
    println!("\nwrote BENCH_simspeed.json");

    // The same numbers in the unified shrimp.metrics.v1 schema. Note the
    // workloads run with telemetry off (the default): this benchmark
    // tracks the simulator's raw speed.
    let mut reg = shrimp_sim::MetricsRegistry::new();
    for s in &samples {
        let p = format!("simspeed.{}", s.name);
        reg.set_gauge(format!("{p}.wall_seconds"), s.wall_seconds);
        reg.set_counter(format!("{p}.events"), s.events);
        reg.set_gauge(format!("{p}.events_per_sec"), s.events_per_sec());
        reg.set_counter(format!("{p}.sim_bytes"), s.sim_bytes);
        reg.set_gauge(format!("{p}.sim_bytes_per_sec"), s.sim_bytes_per_sec());
        if let Some(a) = s.allocs_per_event() {
            reg.set_gauge(format!("{p}.allocs_per_event"), a);
        }
    }
    for (w, s, batches, _, _) in &sweep {
        let p = format!("simspeed.scaling1k.workers{w}");
        reg.set_gauge(format!("{p}.wall_seconds"), s.wall_seconds);
        reg.set_counter(format!("{p}.events"), s.events);
        reg.set_gauge(format!("{p}.events_per_sec"), s.events_per_sec());
        reg.set_counter(format!("{p}.batches"), *batches);
        if let Some(a) = s.allocs_per_event() {
            reg.set_gauge(format!("{p}.allocs_per_event"), a);
        }
    }
    // The ring's barrier-cause breakdown — worker-invariant, so the
    // first sweep leg speaks for all of them (asserted in --smoke).
    sweep[0].4.register(&mut reg);
    write_metrics("simspeed", &reg.snapshot());
}
