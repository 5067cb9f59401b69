//! Simulator throughput benchmark: wall-clock events/sec and
//! simulated-bytes/sec on the paper's bandwidth and latency workloads
//! and on a 1024-node ring, plus the host store path alone (a 16 MiB
//! `poke` fill).
//!
//! Unlike the other bench binaries (which regenerate *paper* numbers),
//! this one measures the *simulator itself*, so perf PRs have a tracked
//! trajectory. Every sample runs [`RUNS`] times; the median, min and max
//! of its wall time and events/s are printed and written to
//! `BENCH_simspeed.json` in the current directory.
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
//! `--smoke` is meant for CI. It runs the 32×32-mesh ring once and
//! asserts the ring's pinned delivery hash and event count and that
//! throughput stays above a lenient floor. It then times five
//! 1024-page fills and fails when their median exceeds a per-page
//! ceiling that only the bulk host-store path (DESIGN.md §5k) meets, so
//! a silent fallback to the per-word path fails CI.

use std::time::Instant;

use shrimp_bench::{alloc_stats, banner, write_metrics};
use shrimp_core::{Machine, MachineConfig, MapRequest};
use shrimp_cpu::Reg;
use shrimp_mem::{VirtAddr, PAGE_SIZE};
use shrimp_mesh::{MeshShape, NodeId};
use shrimp_nic::UpdatePolicy;
use shrimp_os::Pid;
use shrimp_workload::delivery_hash;

/// Runs per sample (the smoke fill check uses the same count).
const RUNS: usize = 5;

/// One run of one workload.
struct Sample {
    name: &'static str,
    wall_seconds: f64,
    events: u64,
    /// Simulated bytes moved: delivered to the receiver, or stored by
    /// the host for `host_fill`.
    sim_bytes: u64,
    /// Heap allocations during the measured region (0 unless the
    /// `alloc-stats` feature installed the counting allocator).
    allocs: u64,
}

impl Sample {
    /// Events per wall-clock second, or `None` for a workload that runs
    /// no events (a rate over nothing is not a measured zero).
    fn events_per_sec(&self) -> Option<f64> {
        (self.events > 0).then(|| self.events as f64 / self.wall_seconds)
    }
    fn sim_bytes_per_sec(&self) -> f64 {
        self.sim_bytes as f64 / self.wall_seconds
    }
    /// Heap allocations per event, or `None` when this build did not
    /// count them (no `alloc-stats`) or there were no events: an
    /// unmeasured count is not zero.
    fn allocs_per_event(&self) -> Option<f64> {
        (alloc_stats::ENABLED && self.events > 0).then(|| self.allocs as f64 / self.events as f64)
    }
    /// Wall-clock microseconds per stored page (`host_fill`).
    fn us_per_page(&self) -> f64 {
        self.wall_seconds * 1e6 / (self.sim_bytes / PAGE_SIZE) as f64
    }
}

/// Median, min and max of the [`RUNS`] measurements of one figure.
#[derive(Clone, Copy)]
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(values: impl IntoIterator<Item = f64>) -> Spread {
        let mut v: Vec<f64> = values.into_iter().collect();
        v.sort_by(f64::total_cmp);
        // RUNS is odd, so the middle value is the median.
        Spread {
            median: v[v.len() / 2],
            min: v[0],
            max: v[v.len() - 1],
        }
    }

    fn json(self, decimals: usize) -> String {
        format!(
            "{{\"median\": {:.decimals$}, \"min\": {:.decimals$}, \"max\": {:.decimals$}}}",
            self.median, self.min, self.max
        )
    }
}

/// Every run of one workload. Simulated quantities must agree across
/// runs; only host time may differ.
struct Runs {
    runs: Vec<Sample>,
}

impl Runs {
    fn measure(workload: impl Fn() -> Sample) -> Runs {
        let runs: Vec<Sample> = (0..RUNS).map(|_| workload()).collect();
        let first = &runs[0];
        for r in &runs[1..] {
            assert_eq!(
                (r.events, r.sim_bytes),
                (first.events, first.sim_bytes),
                "{}: simulated work differs between runs",
                first.name
            );
        }
        Runs { runs }
    }
    fn name(&self) -> &'static str {
        self.runs[0].name
    }
    fn events(&self) -> u64 {
        self.runs[0].events
    }
    fn sim_bytes(&self) -> u64 {
        self.runs[0].sim_bytes
    }
    fn wall_seconds(&self) -> Spread {
        Spread::of(self.runs.iter().map(|r| r.wall_seconds))
    }
    fn events_per_sec(&self) -> Option<Spread> {
        let rates: Option<Vec<f64>> = self.runs.iter().map(Sample::events_per_sec).collect();
        rates.map(Spread::of)
    }
    fn sim_bytes_per_sec(&self) -> f64 {
        Spread::of(self.runs.iter().map(Sample::sim_bytes_per_sec)).median
    }
    fn allocs_per_event(&self) -> Option<f64> {
        let a: Option<Vec<f64>> = self.runs.iter().map(Sample::allocs_per_event).collect();
        a.map(|a| Spread::of(a).median)
    }
    fn us_per_page(&self) -> Spread {
        Spread::of(self.runs.iter().map(Sample::us_per_page))
    }
}

/// A table cell for an optional figure (`-` when unmeasured).
fn cell(a: Option<f64>, decimals: usize) -> String {
    a.map_or_else(|| "-".to_string(), |a| format!("{a:.decimals$}"))
}

struct Sender {
    m: Machine,
    s: Pid,
    data_va: VirtAddr,
    cmd_delta: u32,
}

/// Two-node machine with `pages` mapped from node 0 to node 1 under
/// `policy` (same shape as the §5.1 bandwidth experiment). Returns the
/// machine, the sending process and its mapped buffer.
fn mapped_pair(cfg: MachineConfig, pages: u64, policy: UpdatePolicy) -> (Machine, Pid, VirtAddr) {
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
    (m, s, data_va)
}

/// [`mapped_pair`] plus one command page per data page, with the
/// buffer filled and the machine idle.
fn sender_setup(cfg: MachineConfig, pages: u64, policy: UpdatePolicy) -> Sender {
    let snd = NodeId(0);
    let (mut m, s, data_va) = mapped_pair(cfg, pages, policy);
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
    let cfg = MachineConfig::prototype(MeshShape::new(4, 4));
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

/// The host store path alone: one `poke` filling `pages` pages mapped
/// for deliberate update on a 2×1 machine. The NIC ignores these
/// stores, so each page after its first word is one bulk step
/// (DESIGN.md §5k) and no event runs.
fn host_fill(pages: u64) -> Sample {
    let mut cfg = MachineConfig::prototype(MeshShape::new(2, 1));
    cfg.pages_per_node = 4 * pages.max(256);
    let (mut m, s, data_va) = mapped_pair(cfg, pages, UpdatePolicy::Deliberate);
    let payload: Vec<u8> = (0..pages * PAGE_SIZE).map(|i| (i % 239) as u8).collect();

    let ev0 = m.events_processed();
    let a0 = alloc_stats::allocations();
    let wall = Instant::now();
    m.poke(NodeId(0), s, data_va, &payload).expect("fill");
    let wall_seconds = wall.elapsed().as_secs_f64();
    let allocs = alloc_stats::allocations() - a0;
    let last = (pages - 1) * PAGE_SIZE;
    let stored = m
        .peek(NodeId(0), s, data_va.add(last), PAGE_SIZE)
        .expect("peek the last page");
    assert_eq!(stored, payload[last as usize..], "the fill must land");
    Sample {
        name: "host_fill",
        wall_seconds,
        events: m.events_processed() - ev0,
        sim_bytes: pages * PAGE_SIZE,
        allocs,
    }
}

/// Delivery fingerprint of [`ring_workload`]'s measured region.
const RING_HASH: u64 = 0x534f_61d0_12df_c565;

/// Events in [`ring_workload`]'s measured region.
const RING_EVENTS: u64 = 13_312;

/// A fully symmetric ring stream over **every node of a 32×32 mesh**:
/// each node runs the deliberate-update stream program to its ring
/// successor, all programs started at the same instant — the mesh and
/// the scheduler at scale. The run must reproduce its pinned delivery
/// hash and event count, so any change to simulated behaviour fails
/// here.
fn ring_workload() -> Sample {
    let (dim, pages) = (32u16, 2u64);
    let n = dim as usize * dim as usize;
    let mut cfg = MachineConfig::prototype(MeshShape::new(dim, dim));
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
    let hash = delivery_hash(m.deliveries());
    assert_eq!(
        hash, RING_HASH,
        "ring delivery hash drifted (got 0x{hash:016x})"
    );
    let events = m.events_processed() - ev0;
    assert_eq!(events, RING_EVENTS, "ring event count drifted");
    Sample {
        name: "ring1k",
        wall_seconds,
        events,
        sim_bytes: delivered,
        allocs,
    }
}

fn json_field(r: &Runs) -> String {
    let null = || "null".to_string();
    let mut fields = vec![
        format!("\"runs\": {}", r.runs.len()),
        format!("\"wall_seconds\": {}", r.wall_seconds().json(6)),
        format!("\"events\": {}", r.events()),
        format!(
            "\"events_per_sec\": {}",
            r.events_per_sec().map_or_else(null, |e| e.json(1))
        ),
        format!("\"sim_bytes\": {}", r.sim_bytes()),
        format!("\"sim_bytes_per_sec\": {:.1}", r.sim_bytes_per_sec()),
        format!(
            "\"allocs_per_event\": {}",
            r.allocs_per_event()
                .map_or_else(null, |a| format!("{a:.4}"))
        ),
    ];
    if r.name() == "host_fill" {
        fields.push(format!("\"us_per_page\": {}", r.us_per_page().json(3)));
    }
    format!(
        "  \"{}\": {{\n    {}\n  }}",
        r.name(),
        fields.join(",\n    ")
    )
}

/// CI smoke. The 32×32 ring must reproduce its pinned delivery hash and
/// event count, and its throughput must clear a floor lenient enough
/// for noisy shared runners. Then the median of five 1024-page fills
/// must stay under a per-page ceiling: the bulk path measures ~2.5–5
/// µs/page and the per-word path 65–110 µs/page on a 2-core Xeon, so
/// the ceiling catches a bulk path that stopped firing, which the
/// equivalence tests cannot see.
fn smoke() {
    banner("simspeed --smoke: 32x32 pinned ring and bulk host fill");
    const FLOOR_EVENTS_PER_SEC: f64 = 25_000.0;
    const FILL_CEILING_US_PER_PAGE: f64 = 25.0;
    let s = ring_workload();
    let rate = s.events_per_sec().expect("the ring runs events");
    println!(
        "{:<14} {:>10.4}s {:>12} events {:>14.0} ev/s",
        s.name, s.wall_seconds, s.events, rate,
    );
    assert!(
        rate >= FLOOR_EVENTS_PER_SEC,
        "ring throughput {rate:.0} ev/s fell below the {FLOOR_EVENTS_PER_SEC} floor",
    );
    let fills = Runs::measure(|| host_fill(1024));
    let us = fills.us_per_page();
    println!(
        "{:<14} {:>10.1} us/page median of {RUNS} 1024-page fills (min {:.1}, max {:.1})",
        "host_fill", us.median, us.min, us.max,
    );
    assert!(
        us.median <= FILL_CEILING_US_PER_PAGE,
        "1024-page fill took {:.1} us/page (median of {RUNS}), over the \
         {FILL_CEILING_US_PER_PAGE} us/page ceiling: is the bulk host-store path \
         (DESIGN.md §5k) still firing?",
        us.median,
    );
    println!(
        "\nsmoke OK: pinned hash and {} events reproduced, floor cleared, fill under its ceiling",
        s.events
    );
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
        Runs::measure(|| bandwidth_workload(4096 * PAGE_SIZE)),
        Runs::measure(|| blocked_write_workload(768 * PAGE_SIZE)),
        Runs::measure(|| latency_workload(20_000)),
        Runs::measure(ring_workload),
        Runs::measure(|| host_fill(4096)),
    ];

    println!("medians of {RUNS} runs (min-max of wall s in brackets)\n");
    println!(
        "{:<14} {:>24} {:>12} {:>14} {:>12} {:>16} {:>10}",
        "workload", "wall s", "events", "events/s", "sim bytes", "sim bytes/s", "allocs/ev"
    );
    for r in &samples {
        let wall = r.wall_seconds();
        println!(
            "{:<14} {:>24} {:>12} {:>14} {:>12} {:>16.0} {:>10}",
            r.name(),
            format!("{:.4} [{:.4}-{:.4}]", wall.median, wall.min, wall.max),
            r.events(),
            cell(r.events_per_sec().map(|e| e.median), 0),
            r.sim_bytes(),
            r.sim_bytes_per_sec(),
            cell(r.allocs_per_event(), 3),
        );
    }
    let fill = samples
        .iter()
        .find(|r| r.name() == "host_fill")
        .expect("host_fill is sampled")
        .us_per_page();
    println!(
        "\nhost_fill: {:.2} us per page (min {:.2}, max {:.2})",
        fill.median, fill.min, fill.max
    );

    // Historical trajectory file: one object per workload with the
    // median, min and max of each host-time figure.
    let body = samples
        .iter()
        .map(json_field)
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!("{{\n{body}\n}}\n");
    std::fs::write("BENCH_simspeed.json", &json).expect("write BENCH_simspeed.json");
    println!("\nwrote BENCH_simspeed.json");

    // The same medians in the unified shrimp.metrics.v1 schema. Note the
    // workloads run with telemetry off (the default): this benchmark
    // tracks the simulator's raw speed.
    let mut reg = shrimp_sim::MetricsRegistry::new();
    for r in &samples {
        let p = format!("simspeed.{}", r.name());
        reg.set_gauge(format!("{p}.wall_seconds"), r.wall_seconds().median);
        reg.set_counter(format!("{p}.events"), r.events());
        if let Some(e) = r.events_per_sec() {
            reg.set_gauge(format!("{p}.events_per_sec"), e.median);
        }
        reg.set_counter(format!("{p}.sim_bytes"), r.sim_bytes());
        reg.set_gauge(format!("{p}.sim_bytes_per_sec"), r.sim_bytes_per_sec());
        if let Some(a) = r.allocs_per_event() {
            reg.set_gauge(format!("{p}.allocs_per_event"), a);
        }
    }
    reg.set_gauge("simspeed.host_fill.us_per_page", fill.median);
    write_metrics("simspeed", &reg.snapshot());
}
