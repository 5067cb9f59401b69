//! Golden scenario-replay suite: every checked-in DSL file under
//! `scenarios/` must reproduce its pinned delivery hash, event count and
//! delivery count, so any change to machine behavior or generator
//! behavior is a visible diff.
//!
//! Refresh the pins after an intentional change with
//! `cargo run --release -p shrimp-workload --example pins`.

use std::collections::BTreeMap;

use shrimp::sim::{MetricValue, MetricsSnapshot};
use shrimp::workload::{dsl::Scenario, run_scenario, run_scenario_observed};

fn load(name: &str) -> Scenario {
    let path = format!("{}/scenarios/{name}.shrimp", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    Scenario::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

/// Runs `name` and checks the pinned values.
fn check_golden(name: &str, hash: u64, events: u64, deliveries: u64) {
    let sc = load(name);
    let r = run_scenario(&sc).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(r.sessions_completed, sc.total_sessions(), "{name}: sessions completed");
    assert_eq!(r.delivery_hash, hash, "{name}: pinned delivery hash (got 0x{:016x})", r.delivery_hash);
    assert_eq!(r.events_processed, events, "{name}: pinned event count");
    assert_eq!(r.deliveries, deliveries, "{name}: pinned delivery count");
}

#[test]
fn golden_streaming() {
    check_golden("streaming", 0xc74d_67c8_92a1_07fa, 134, 36);
}

#[test]
fn golden_rpc_pingpong() {
    check_golden("rpc_pingpong", 0xadae_1c8b_55a3_6464, 323, 96);
}

#[test]
fn golden_fanout() {
    check_golden("fanout", 0xe943_6f84_c387_d065, 227, 72);
}

#[test]
fn golden_dsm() {
    check_golden("dsm", 0x6c08_1470_b198_8a2c, 1667, 496);
}

#[test]
fn golden_mixed() {
    check_golden("mixed", 0x5006_25d5_0f2e_70e3, 623, 240);
}

/// The mixed session mix on the NP-RDMA-style unpinned backend: IOTLB
/// misses and dynamic map-ins replay byte-identically, and the run takes
/// visibly longer simulated time than `golden_mixed` (same load, same
/// seed) because first-touch pages pay the kernel map-in round trip.
#[test]
fn golden_unpinned() {
    check_golden("unpinned", 0x3faa_3d7d_3b6f_b366, 672, 240);
}

#[test]
fn golden_faulted() {
    check_golden("faulted", 0x5847_1dfe_84a5_26ce, 201, 54);
}

/// Link churn: every directed link of the mesh dies and heals twice
/// mid-run while all four session kinds are in flight, and the run
/// still replays byte-identically.
#[test]
fn golden_churn() {
    check_golden("churn", 0x3c54_e4dc_1aa2_253a, 425, 172);
}

/// The benchmark's `sessions_faulty` mix in small: the mixed10k session
/// shares over 80 sessions on the unpinned NIC under loss and link
/// churn. The event count pins when each IOTLB map-in completes: a
/// map-in that completes early keeps the delivery hash but not the
/// count.
#[test]
fn golden_unpinned_faulty() {
    check_golden("unpinned_faulty", 0x86b2_9498_d792_a0ec, 2863, 712);
}

/// Renders every `nic{i}.*` entry of a snapshot as one row per metric
/// name (`nic{i}.` stripped) with one value column per node.
fn nic_metrics_table(m: &MetricsSnapshot) -> String {
    let mut rows: BTreeMap<&str, BTreeMap<u32, String>> = BTreeMap::new();
    for (name, value) in m.entries() {
        let Some((node, field)) = name.strip_prefix("nic").and_then(|r| r.split_once('.')) else {
            continue;
        };
        let Ok(node) = node.parse::<u32>() else {
            continue;
        };
        let value = match value {
            MetricValue::Counter(n) => n.to_string(),
            MetricValue::Gauge(g) => g.to_string(),
            MetricValue::Histogram(h) => format!("{h:?}"),
        };
        rows.entry(field).or_default().insert(node, value);
    }
    rows.iter()
        .map(|(field, cols)| {
            let cols: Vec<String> = cols.iter().map(|(i, v)| format!("{i}:{v}")).collect();
            format!("{field} {}\n", cols.join(" "))
        })
        .collect()
}

/// Pins every NIC metric of golden `name`, name and value. The
/// benchmark's per-layer `nic.*` figures sum these entries by name, so
/// a renamed, dropped, unmirrored or spurious counter must fail here.
fn check_nic_metrics(name: &str, expected: &str) {
    let r = run_scenario(&load(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
    let got = nic_metrics_table(&r.metrics);
    assert!(
        got == expected,
        "{name}: pinned NIC metrics moved; got:\n{got}"
    );
}

/// SHRIMP under link churn: go-back-N retransmit, ack/nack and bounce
/// counters, and no `iotlb.*` entries.
#[test]
fn golden_churn_nic_metrics() {
    check_nic_metrics(
        "churn",
        "\
blocked_write_packets 0:0 1:0 2:0 3:0
bytes_received 0:16000 1:16448 2:1792 3:25664
bytes_sent 0:14016 1:3200 2:28288 3:14400
crc_drops 0:0 1:0 2:0 3:0
dma_packets 0:9 1:12 2:16 3:7
fault_stalls 0:0 1:0 2:0 3:0
fifo.in.occupancy 0:0 1:0 2:0 3:0
fifo.in.peak_bytes 0:4119 1:4119 2:279 3:4119
fifo.in.pushes 0:45 1:33 2:70 3:24
fifo.in.rejections 0:0 1:0 2:0 3:0
fifo.out.occupancy 0:0 1:0 2:0 3:0
fifo.out.peak_bytes 0:4466 1:352 2:4466 3:4114
fifo.out.pushes 0:57 1:44 2:48 3:23
fifo.out.rejections 0:0 1:0 2:0 3:0
gbn.backoff_resets 0:0 1:0 2:0 3:0
gbn.bounces 0:0 1:0 2:0 3:0
gbn.nack_suppressions 0:0 1:0 2:0 3:0
gbn.retransmissions 0:0 1:0 2:0 3:0
merged_writes 0:0 1:0 2:0 3:0
misroutes 0:0 1:0 2:0 3:0
packets_received 0:45 1:33 2:70 3:24
packets_sent 0:57 1:44 2:48 3:23
retx.acks_received 0:57 1:44 2:48 3:23
retx.acks_sent 0:45 1:33 2:70 3:24
retx.dup_drops 0:0 1:0 2:0 3:0
retx.gap_drops 0:0 1:0 2:0 3:0
retx.nacks_received 0:0 1:0 2:0 3:0
retx.nacks_sent 0:0 1:0 2:0 3:0
retx.retransmissions 0:0 1:0 2:0 3:0
retx.timeouts 0:0 1:0 2:0 3:0
single_write_packets 0:48 1:32 2:32 3:16
unmapped_drops 0:0 1:0 2:0 3:0
",
    );
}

/// The unpinned backend under loss and churn: the SHRIMP set plus the
/// `iotlb.*` counters.
#[test]
fn golden_unpinned_faulty_nic_metrics() {
    check_nic_metrics(
        "unpinned_faulty",
        "\
blocked_write_packets 0:0 1:0 2:0 3:0
bytes_received 0:53280 1:52544 2:68448 3:56864
bytes_sent 0:60864 1:50048 2:50688 3:69536
crc_drops 0:0 1:0 2:2 3:0
dma_packets 0:77 1:82 2:59 3:54
fault_stalls 0:0 1:0 2:0 3:0
fifo.in.occupancy 0:0 1:0 2:0 3:0
fifo.in.peak_bytes 0:4119 1:4146 2:4146 3:4146
fifo.in.pushes 0:147 1:220 2:157 3:188
fifo.in.rejections 0:0 1:0 2:0 3:0
fifo.out.occupancy 0:0 1:0 2:0 3:0
fifo.out.peak_bytes 0:4290 1:4290 2:4290 3:4290
fifo.out.pushes 0:189 1:242 2:123 3:158
fifo.out.rejections 0:0 1:0 2:0 3:0
gbn.backoff_resets 0:4 1:7 2:8 3:3
gbn.bounces 0:11 1:36 2:3 3:12
gbn.nack_suppressions 0:4 1:3 2:3 3:0
gbn.retransmissions 0:17 1:45 2:12 3:3
iotlb.evictions 0:0 1:0 2:0 3:0
iotlb.hits 0:99 1:135 2:60 3:75
iotlb.map_ins 0:27 1:30 2:21 3:27
iotlb.misses 0:90 1:107 2:63 3:83
merged_writes 0:0 1:0 2:0 3:0
misroutes 0:0 1:0 2:0 3:0
packets_received 0:147 1:220 2:157 3:188
packets_sent 0:189 1:242 2:123 3:158
retx.acks_received 0:187 1:242 2:115 3:158
retx.acks_sent 0:148 1:224 2:158 3:194
retx.dup_drops 0:1 1:4 2:1 3:6
retx.gap_drops 0:6 1:4 2:5 3:0
retx.nacks_received 0:1 1:4 2:0 3:0
retx.nacks_sent 0:2 1:1 2:2 3:0
retx.retransmissions 0:17 1:45 2:12 3:3
retx.timeouts 0:4 1:8 2:9 3:3
single_write_packets 0:112 1:160 2:64 3:104
unmapped_drops 0:0 1:0 2:0 3:0
",
    );
}

/// The churn scenario must actually exercise the adaptive path: the
/// mesh reports reroutes (and the counters surface in the snapshot).
#[test]
fn churn_scenario_reroutes() {
    let sc = load("churn");
    let (report, m) = run_scenario_observed(&sc).unwrap();
    assert_eq!(report.sessions_completed, sc.total_sessions());
    let stats = m.mesh_stats();
    assert!(stats.reroutes > 0, "expected adaptive reroutes under churn");
    assert_eq!(report.metrics.counter("mesh.reroutes"), Some(stats.reroutes));
    assert_eq!(report.metrics.counter("mesh.bounced"), Some(stats.bounced));
    assert_eq!(
        stats.packets_injected, stats.packets_ejected,
        "every packet (including bounced ones) leaves the fabric"
    );
}

/// The acceptance workload: 10k sessions of all four kinds on a 4x4
/// mesh replay byte-identically. Release-only — debug builds take
/// minutes.
#[test]
#[cfg_attr(debug_assertions, ignore = "10k sessions: run with --release")]
fn golden_mixed10k() {
    let sc = load("mixed10k");
    let a = run_scenario(&sc).expect("mixed10k");
    assert_eq!(a.sessions_completed, 10_000);
    assert_eq!(a.delivery_hash, 0xace0_3fe5_af81_f71c, "pinned hash (got 0x{:016x})", a.delivery_hash);
    assert_eq!(a.events_processed, 277_661);
}

/// The benchmark's `sessions_faulty` workload at seed 777, in full:
/// every one of the 48 directed links of a 4x4 mesh fails and heals
/// until the last of 2,000 sessions closes, under loss and corruption,
/// so a schedule drawn wrong or applied at the wrong time moves the
/// pins. (Drawn picosecond times do not tie here; the mesh's unit
/// tests check the same-instant order.) Release-only, as
/// `golden_mixed10k`; CI also runs it in a debug build, where the pump
/// worklist and clock assertions check churn, loss and bounces at
/// scale.
#[test]
#[cfg_attr(debug_assertions, ignore = "2,000 sessions: run with --release")]
fn golden_sessions_faulty() {
    check_golden("sessions_faulty", 0x742e_65a6_1d26_c87d, 58_495, 16_208);
}

/// Acceptance soak: on a 4×4 mesh every directed link fails and
/// repairs exactly once (`times=1` schedules one down/up window per
/// link by construction) while all four session kinds run. The run
/// must complete every session, and the mesh must report adaptive
/// reroutes — proof the dynamic-topology path was actually exercised.
#[test]
#[ignore = "churn soak; run with --ignored in CI"]
fn churn_soak_every_link_fails_once() {
    let text = "\
scenario churn_soak
mesh 4x4
seed 4242
pages 768
users 8
link fail=20us..200us repair=5us..40us times=1
session rpc count=8 src=any dst=any requests=3 request=256 response=512 think=1us..20us server=1us..8us
session stream count=8 src=any dst=any pages=2 gap=1us..6us
session fanout count=4 src=any leaves=3 rounds=2 bytes=512 think=2us..10us
session dsm count=8 src=any dst=any pages=2 ops=4 write=32 think=1us..8us
";
    let sc = Scenario::parse(text).expect("soak scenario is valid");
    let (a, ma) = run_scenario_observed(&sc).expect("soak");
    assert_eq!(a.sessions_completed, sc.total_sessions());
    let stats = ma.mesh_stats();
    assert!(stats.reroutes > 0, "soak never took an adaptive route");
    assert_eq!(stats.packets_injected, stats.packets_ejected);
}

/// Per-delivery latency stages must telescope exactly to the
/// end-to-end figure — including for packets that sat in the overflow
/// queue with a future `born` stamp (the refill edge case: a transfer
/// can be queued in the same instant an overflow refill runs, and the
/// stamp must stay `born <= injected`). The streaming scenario's
/// back-to-back full-page transfers exercise that path.
#[test]
fn latency_stages_telescope() {
    for name in ["streaming", "mixed"] {
        let sc = load(name);
        let (report, m) = run_scenario_observed(&sc).unwrap();
        let records = &m.telemetry().records;
        assert_eq!(records.len() as u64, report.deliveries, "{name}: one record per delivery");
        for (i, r) in records.iter().enumerate() {
            assert!(r.injected.since(r.born) >= shrimp::sim::SimDuration::ZERO);
            assert_eq!(
                r.out_fifo() + r.mesh() + r.in_fifo() + r.dma(),
                r.end_to_end(),
                "{name}: record {i} stages do not telescope"
            );
        }
    }
}

/// The report's session metrics reconcile with the scenario: completed
/// counts per kind and goodput appear under `sessions.*`.
#[test]
fn report_session_metrics_reconcile() {
    let sc = load("mixed");
    let r = run_scenario(&sc).unwrap();
    let m = &r.metrics;
    assert_eq!(m.counter("sessions.completed"), Some(sc.total_sessions()));
    assert_eq!(m.counter("sessions.goodput_bytes"), Some(r.goodput_bytes));
    let per_kind: u64 = ["rpc", "stream", "fanout", "dsm"]
        .iter()
        .filter_map(|k| m.counter(&format!("sessions.{k}.completed")))
        .sum();
    assert_eq!(per_kind, sc.total_sessions());
    for k in ["rpc", "stream", "fanout", "dsm"] {
        let h = m.histogram(&format!("sessions.{k}.duration")).unwrap();
        assert!(h.count > 0, "{k} duration histogram populated");
    }
    assert!(m.histogram("sessions.rpc.op_latency").unwrap().count > 0);
    assert!(m.counter("machine.sessions_opened").unwrap() >= sc.total_sessions());
}
