//! One event stream (DESIGN.md §5c, §5h): the machine owns the only
//! trace sink, and every machine, mesh and NIC observation reaches it
//! once, in per-node causal order.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use shrimp::sim::trace::{FlightEntry, TraceData};
use shrimp::sim::TelemetryConfig;
use shrimp::workload::{run_scenario_tuned, Scenario};
use shrimp::{Machine, MachineConfig};

/// Runs `scenarios/unpinned_faulty.shrimp` with `tune` applied to its
/// machine config.
fn run(tune: impl FnOnce(&mut MachineConfig)) -> Machine {
    let path = format!(
        "{}/scenarios/unpinned_faulty.shrimp",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let sc = Scenario::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"));
    let (_, m) = run_scenario_tuned(&sc, None, tune).expect("unpinned_faulty completes");
    m
}

/// The scenario with the trace log on and rings large enough to keep
/// every event, run once and shared by the tests that read it.
fn faulty_run() -> &'static Machine {
    static RUN: OnceLock<Machine> = OnceLock::new();
    RUN.get_or_init(|| {
        run(|cfg| {
            cfg.telemetry = TelemetryConfig::full();
            cfg.telemetry.flight_recorder = 1 << 14;
        })
    })
}

fn kind(d: &TraceData) -> &'static str {
    match d {
        TraceData::PacketInjected { .. } => "injected",
        TraceData::PacketDelivered { .. } => "delivered",
        TraceData::FifoThreshold { .. } => "fifo threshold",
        TraceData::RetxTimeout { .. } => "retransmit timeout",
        TraceData::Retransmit { .. } => "retransmit",
        TraceData::DmaStart { .. } => "dma start",
        TraceData::DmaEnd { .. } => "dma end",
        TraceData::PageMapped { .. } => "page mapped",
        TraceData::PageUnmapped { .. } => "page unmapped",
        TraceData::LinkDown { .. } => "link down",
        TraceData::LinkUp { .. } => "link up",
        TraceData::PacketRerouted { .. } => "rerouted",
        TraceData::PacketBounced { .. } => "bounced",
        TraceData::PacketEjected { .. } => "ejected",
        TraceData::DataArrival { .. } => "data arrival",
        TraceData::BadDelivery { .. } => "bad delivery",
    }
}

/// The stream holds, per kind, everything the separate machine, mesh
/// and NIC tracers, the flight recorder and the interrupt log held
/// between them before they became one sink. The rings and the log
/// hold the same events.
#[test]
fn faulty_stream_holds_every_kind() {
    let m = faulty_run();
    let mut counts = BTreeMap::new();
    for e in m.trace().events() {
        *counts.entry(kind(&e.data)).or_insert(0u64) += 1;
    }
    let expected = BTreeMap::from([
        ("injected", 1_518),
        ("ejected", 1_510),
        ("delivered", 712),
        ("dma start", 712),
        ("dma end", 712),
        ("page mapped", 85),
        ("rerouted", 231),
        ("bounced", 62),
        ("retransmit", 77),
        ("retransmit timeout", 24),
        ("link down", 238),
        ("link up", 238),
    ]);
    assert_eq!(counts, expected);
    assert_eq!(m.deliveries().len(), 712);

    // Nothing was overwritten, so the rings hold the log, entry for
    // entry in admission order.
    let mut ringed: Vec<FlightEntry> = m.trace().dump();
    assert_eq!(
        m.trace().recorded(),
        ringed.len() as u64,
        "rings kept everything"
    );
    ringed.sort_by_key(|e| e.seq);
    assert!(ringed.iter().map(|e| &e.event).eq(m.trace().events()));
    assert!(ringed.iter().enumerate().all(|(i, e)| e.seq == i as u64));
}

/// Per-node causal order: a go-back-N replay is admitted before the
/// injection of the frame it replays, on the same node.
#[test]
fn retransmit_precedes_its_injection() {
    let m = faulty_run();
    let dump = m.trace().dump();
    let mut replays = 0;
    for (i, e) in dump.iter().enumerate() {
        let TraceData::Retransmit { peer, seq } = e.event.data else {
            continue;
        };
        replays += 1;
        let node = e.node as u16;
        let next = dump[i + 1..]
            .iter()
            .find(|later| later.node == e.node)
            .expect("the replayed frame is injected");
        let TraceData::PacketInjected {
            src,
            dst,
            seq: Some(framed),
            ..
        } = next.event.data
        else {
            panic!(
                "node {node} logged `{}` after retransmit {seq}",
                next.event.data
            );
        };
        assert_eq!(
            (src, dst, framed, next.event.time),
            (node, peer, seq, e.event.time),
            "the next event on node {node} injects the replayed frame"
        );
    }
    assert_eq!(replays, 77);
}

/// With no ring and no log, no component keeps or builds an event.
#[test]
fn off_records_nothing() {
    let m = run(|cfg| cfg.telemetry.flight_recorder = 0);
    assert!(!m.trace().is_on());
    assert_eq!(m.trace().recorded(), 0);
    for n in 0..4 {
        let outbox = m.nic(shrimp::mesh::NodeId(n)).trace_outbox();
        assert!(!outbox.is_on() && outbox.is_empty());
    }
}

/// The sink is plain owned data: no shared handle makes the machine
/// lose `Send + Sync`.
#[test]
fn machine_is_send_and_sync() {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<Machine>();
}
