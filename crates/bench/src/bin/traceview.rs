//! Records fully-traced workloads and exports them in the Chrome
//! trace-event format: load `shrimp.trace.json` at <https://ui.perfetto.dev>
//! (or `chrome://tracing`) to see every packet's snoop → Out FIFO → mesh
//! → In FIFO → DMA lifecycle on a per-node timeline.
//!
//! The trace holds two runs on one timeline, both on a 2×2 mesh: a
//! fault-free cross-traffic workload, then `scenarios/unpinned_faulty.shrimp`,
//! whose loss, corruption and link churn add link down/up, reroute,
//! bounce and retransmit events. The bin asserts that the exported
//! stream holds each kind of event.
//!
//! ```text
//! cargo run -p shrimp-bench --bin traceview
//! ```

use shrimp_bench::{banner, write_metrics};
use shrimp_core::{Machine, MachineConfig, MapRequest};
use shrimp_mem::PAGE_SIZE;
use shrimp_mesh::{MeshShape, NodeId};
use shrimp_nic::UpdatePolicy;
use shrimp_sim::{
    to_chrome_json_with_counters, validate_chrome_json, SimTime, TelemetryConfig, TraceData,
    TraceEvent,
};
use shrimp_workload::dsl::Scenario;
use shrimp_workload::gen::run_scenario_tuned;

const TRACE_PATH: &str = "shrimp.trace.json";

/// The scaled-down `sessions_faulty` mix: unpinned NIC, 0.5% drop,
/// 0.1% corruption and link churn.
const FAULTY: &str = include_str!("../../../../scenarios/unpinned_faulty.shrimp");

/// Whether an event is of one kind.
type IsKind = fn(&TraceData) -> bool;

/// The event kinds the exported stream must hold.
const EXPECTED: [(&str, IsKind); 7] = [
    ("link down", |d| matches!(d, TraceData::LinkDown { .. })),
    ("link up", |d| matches!(d, TraceData::LinkUp { .. })),
    ("reroute", |d| matches!(d, TraceData::PacketRerouted { .. })),
    ("bounce", |d| matches!(d, TraceData::PacketBounced { .. })),
    ("retransmit", |d| matches!(d, TraceData::Retransmit { .. })),
    ("ejection", |d| matches!(d, TraceData::PacketEjected { .. })),
    ("delivery", |d| {
        matches!(d, TraceData::PacketDelivered { .. })
    }),
];

/// A small cross-traffic workload on a 2×2 mesh with full telemetry:
/// node 0 streams a page to node 3 (two hops) while node 1 sends
/// single words to node 2, so the trace shows concurrent lifecycles.
fn traced_workload() -> Machine {
    let mut cfg = MachineConfig::prototype(MeshShape::new(2, 2));
    cfg.telemetry = TelemetryConfig::full();
    let mut m = Machine::new(cfg);

    let channel = |m: &mut Machine, src: NodeId, dst: NodeId| {
        let s = m.create_process(src);
        let r = m.create_process(dst);
        let src_va = m.alloc_pages(src, s, 1).expect("alloc send");
        let rcv_va = m.alloc_pages(dst, r, 1).expect("alloc recv");
        let export = m
            .export_buffer(dst, r, rcv_va, 1, Some(src))
            .expect("export");
        m.map(MapRequest {
            src_node: src,
            src_pid: s,
            src_va,
            dst_node: dst,
            export,
            dst_offset: 0,
            len: PAGE_SIZE,
            policy: UpdatePolicy::AutomaticSingle,
        })
        .expect("map");
        (s, src_va)
    };

    let (p0, va0) = channel(&mut m, NodeId(0), NodeId(3));
    let (p1, va1) = channel(&mut m, NodeId(1), NodeId(2));

    for i in 0..24u64 {
        m.poke(NodeId(0), p0, va0.add((i * 4) % PAGE_SIZE), &(i as u32).to_le_bytes())
            .expect("store 0->3");
        if i % 3 == 0 {
            m.poke(NodeId(1), p1, va1.add((i * 4) % PAGE_SIZE), &(!i as u32).to_le_bytes())
                .expect("store 1->2");
        }
        m.run_until_idle().expect("quiesce");
    }
    m
}

/// `scenarios/unpinned_faulty.shrimp` with full telemetry.
fn faulty_workload() -> Machine {
    let sc = Scenario::parse(FAULTY).expect("scenario parses");
    let (_, m) = run_scenario_tuned(&sc, None, |cfg| cfg.telemetry = TelemetryConfig::full())
        .expect("faulty scenario completes");
    m
}

fn us(t: SimTime) -> f64 {
    t.as_picos() as f64 / 1e6
}

fn main() {
    banner("traceview: Chrome trace-event export of traced workloads");

    let m = traced_workload();
    let faulty = faulty_workload();
    // One timeline: the faulty run starts where the clean run ended.
    let offset = m.now().since(SimTime::ZERO);
    let mut events = m.trace().events().to_vec();
    events.extend(faulty.trace().events().iter().map(|e| TraceEvent {
        time: e.time + offset,
        ..*e
    }));
    let mut counters = Vec::new();
    for (run, end) in [(&m, m.now()), (&faulty, faulty.now() + offset)] {
        let report = run.profile().expect("full telemetry profiles");
        counters.extend(report.counter_samples(us(end)));
    }
    let json = to_chrome_json_with_counters(&events, &counters);
    let exported = validate_chrome_json(&json).expect("exported trace must validate");
    assert!(exported > 0, "a traced workload must produce events");

    std::fs::write(TRACE_PATH, &json).expect("write trace file");
    println!(
        "wrote {TRACE_PATH} ({exported} events, {} bytes)",
        json.len()
    );

    let mut held = Vec::new();
    for (name, is) in EXPECTED {
        let count = events.iter().filter(|e| is(&e.data)).count();
        assert!(count > 0, "the exported trace holds no {name} event");
        held.push(format!("{name} {count}"));
    }
    println!("stream holds: {}", held.join(", "));

    for run in [&m, &faulty] {
        let deliveries = run.deliveries().len();
        let records = run.telemetry().records.len();
        assert_eq!(
            records, deliveries,
            "every delivery must carry a latency record"
        );
        println!("traced {deliveries} deliveries with {records} packet-lifecycle records");
    }

    write_metrics("traceview", &m.metrics_snapshot());

    println!();
    println!("view it:");
    println!("  1. open https://ui.perfetto.dev (or chrome://tracing)");
    println!("  2. load {TRACE_PATH}");
    println!("  3. each simulated node is a process row; packet, DMA and FIFO");
    println!("     spans sit on its tracks with SimTime mapped to microseconds");
}
