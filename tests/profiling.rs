//! Observability must be free: the engine profiler and the causal
//! flight recorder (DESIGN.md §5h) may observe the simulation but never
//! steer it. Runs with profiling and the flight recorder enabled are
//! byte-identical (deliveries, event counts, metrics snapshot) to runs
//! with them off, and the ring these tests drive reproduces its pinned
//! delivery hash and event count.

use shrimp::cpu::Reg;
use shrimp::mem::PAGE_SIZE;
use shrimp::mesh::{MeshShape, NodeId};
use shrimp::nic::UpdatePolicy;
use shrimp::sim::trace::TraceData;
use shrimp::sim::TelemetryConfig;
use shrimp::{Machine, MachineConfig, MapRequest};

/// FNV-1a over the delivery log — the fingerprint the determinism
/// suite uses.
fn delivery_hash(m: &Machine) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in m.deliveries() {
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

/// A fully symmetric ring stream on a `dim`×`dim` mesh: every node runs
/// the deliberate-update stream program to its ring successor, all
/// started at the same instant. CPU programs on every node keep CPU
/// steps interleaved with in-flight mesh traffic.
fn run_ring(dim: u16, pages: u64, tune: impl FnOnce(&mut MachineConfig)) -> Machine {
    let n = dim as usize * dim as usize;
    let mut cfg = MachineConfig::prototype(MeshShape::new(dim, dim));
    cfg.pages_per_node = (8 * pages).max(64);
    tune(&mut cfg);
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

    let program = shrimp::msglib::deliberate_stream_program();
    for (i, (&pid, &(src_va, cmd_delta))) in pids.iter().zip(&srcs).enumerate() {
        let node = NodeId(i as u16);
        m.load_program(node, pid, program.clone());
        m.set_reg(node, pid, Reg::R5, src_va.raw() as u32);
        m.set_reg(node, pid, Reg::R7, cmd_delta);
        m.set_reg(node, pid, Reg::R3, pages as u32);
        m.set_reg(node, pid, Reg::R2, (PAGE_SIZE / 4) as u32);
        m.set_reg(node, pid, Reg::R4, (PAGE_SIZE / 4) as u32);
    }
    for (i, &pid) in pids.iter().enumerate() {
        m.start(NodeId(i as u16), pid);
    }
    m.run_until_idle().expect("ring must drain");
    m
}

/// Profiling and flight recording fully on must not change a single
/// observable byte relative to both fully off — including the metrics
/// snapshot, which must never carry wall-clock data.
#[test]
fn profiling_and_recorder_are_perturbation_free() {
    let base = run_ring(4, 2, |cfg| {
        cfg.telemetry = TelemetryConfig::default();
        cfg.telemetry.flight_recorder = 0; // recorder fully off
        cfg.telemetry.profile = false;
    });
    let observed = run_ring(4, 2, |cfg| {
        cfg.telemetry.profile = true;
        cfg.telemetry.flight_recorder = 256;
    });
    assert_eq!(delivery_hash(&base), delivery_hash(&observed), "deliveries perturbed");
    assert_eq!(base.events_processed(), observed.events_processed(), "event count perturbed");
    assert_eq!(base.now(), observed.now(), "final time perturbed");
    assert_eq!(
        base.metrics_snapshot().to_json(),
        observed.metrics_snapshot().to_json(),
        "metrics snapshot perturbed — wall-clock data leaked in, or recording fed back"
    );
    // The observed run really did observe.
    assert!(observed.profile().is_some(), "profiler was enabled");
    assert!(observed.flight_recorder().recorded() > 0, "recorder saw traffic");
    assert!(base.profile().is_none(), "profiler off yields no report");
    assert_eq!(base.flight_recorder().recorded(), 0, "disabled recorder stays empty");
}

/// The network pump visits only nodes on its active worklist
/// (DESIGN.md §5j): on a 1024-node ring a pump visits a few dozen
/// nodes at most, not all of them — and skipping the idle ones changes
/// nothing observable. The visit counter is profiling-only.
#[test]
fn pump_visits_only_active_nodes() {
    let plain = run_ring(32, 1, |cfg| cfg.telemetry.profile = false);
    let profiled = run_ring(32, 1, |cfg| cfg.telemetry.profile = true);
    assert_eq!(delivery_hash(&plain), delivery_hash(&profiled), "deliveries perturbed");
    assert_eq!(
        plain.metrics_snapshot().to_json(),
        profiled.metrics_snapshot().to_json(),
        "metrics snapshot perturbed"
    );
    assert!(
        !plain.metrics_snapshot().to_json().contains("pump_node_visits"),
        "the visit counter is wall-clock-side profile data"
    );

    let report = profiled.profile().expect("profiling on");
    let pumps = report
        .phases
        .iter()
        .find(|(name, _, _)| *name == "mesh_pump")
        .map(|&(_, _, calls)| calls)
        .expect("mesh_pump phase");
    // Every delivery's DmaComplete pumps once, on top of the mesh pumps.
    assert!(pumps > profiled.deliveries().len() as u64, "DmaComplete pumps are counted");
    let per_pump = report.pump_node_visits as f64 / pumps as f64;
    assert!(
        per_pump < 64.0,
        "mean {per_pump:.1} node visits per pump on a 1024-node ring"
    );
}

/// The 4×4 two-page ring reproduces the delivery hash and event count
/// pinned on the last tree that could batch its CPU steps into parallel
/// lookahead windows; executing every event inline must match them.
#[test]
fn ring_4x4_matches_pinned_values() {
    let m = run_ring(4, 2, |_| {});
    assert_eq!(m.deliveries().len(), 32);
    assert_eq!(delivery_hash(&m), 0xcfd2_1ce8_39f0_ee4d, "ring delivery records drifted");
    assert_eq!(m.events_processed(), 208);
}

/// The flight recorder retains a causally ordered trail for a packet
/// lane: injection before ejection before delivery, `(time, seq)`
/// sorted.
#[test]
fn flight_recorder_keeps_a_causal_packet_trail() {
    let m = run_ring(2, 1, |cfg| {
        cfg.telemetry.flight_recorder = 1024; // retain everything on a tiny run
    });
    let trail = m.packet_trail(NodeId(0), NodeId(1));
    assert!(!trail.is_empty(), "lane 0→1 must have recorded events");
    let mut saw_inject = None;
    let mut saw_deliver = None;
    for (i, e) in trail.iter().enumerate() {
        match e.event.data {
            TraceData::PacketInjected { .. } => saw_inject.get_or_insert(i),
            TraceData::PacketDelivered { .. } => saw_deliver.insert(i),
            _ => continue,
        };
    }
    let inject = saw_inject.expect("trail contains an injection");
    let deliver = saw_deliver.expect("trail contains a delivery");
    assert!(inject < deliver, "injection must precede the delivery in the trail");
    for w in trail.windows(2) {
        assert!(
            (w[0].event.time, w[0].seq) <= (w[1].event.time, w[1].seq),
            "trail must be (time, seq) sorted"
        );
    }
    // Every trail entry really is on the requested lane.
    assert!(trail
        .iter()
        .all(|e| e.event.data.packet_lane() == Some((0, 1))));
}

/// The default configuration records flights (so a panic dump is
/// always available) yet still matches the zero-telemetry pinned
/// baselines — recording is invisible.
#[test]
fn default_config_records_flights_invisibly() {
    let m = run_ring(2, 1, |_| {});
    assert!(m.flight_recorder().is_enabled(), "recorder is on by default");
    assert!(m.flight_recorder().recorded() > 0, "default run retains recent events");
    let rendered = m.flight_dump();
    assert!(rendered.contains("retained of"), "dump renders its header");
}
