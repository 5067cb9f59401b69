//! Golden scenario-replay suite: every checked-in DSL file under
//! `scenarios/` must reproduce its pinned delivery hash, event count and
//! delivery count, so any change to machine behavior or generator
//! behavior is a visible diff.
//!
//! Refresh the pins after an intentional change with
//! `cargo run --release -p shrimp-workload --example pins`.

use std::collections::BTreeMap;

use shrimp::nic::NicBackend;
use shrimp::sim::{MetricValue, MetricsSnapshot, SimDuration, SimRng};
use shrimp::workload::dsl::{ChurnSpec, DurRange, FaultSpec, NodeSel, Scenario, SessionKind, SessionSpec};
use shrimp::workload::{run_scenario, run_scenario_observed};

fn load(name: &str) -> Scenario {
    let path = format!("{}/scenarios/{name}.shrimp", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    Scenario::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

/// Runs `name`, checks the pinned values and the packet ledger, and
/// returns the run's metrics.
fn check_golden(name: &str, hash: u64, events: u64, deliveries: u64) -> MetricsSnapshot {
    let sc = load(name);
    let r = run_scenario(&sc).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(r.sessions_completed, sc.total_sessions(), "{name}: sessions completed");
    assert_eq!(r.delivery_hash, hash, "{name}: pinned delivery hash (got 0x{:016x})", r.delivery_hash);
    assert_eq!(r.events_processed, events, "{name}: pinned event count");
    assert_eq!(r.deliveries, deliveries, "{name}: pinned delivery count");
    check_ledger(name, &r.metrics);
    r.metrics
}

/// The `nic{i}.<field>` counter summed over every node.
fn nic_total(m: &MetricsSnapshot, field: &str) -> u64 {
    m.entries()
        .filter_map(|(metric, value)| {
            let (node, f) = metric.strip_prefix("nic")?.split_once('.')?;
            match value {
                MetricValue::Counter(n) if f == field && node.parse::<u32>().is_ok() => Some(*n),
                _ => None,
            }
        })
        .sum()
}

/// The packet ledger of a finished run, over its metrics snapshot with
/// the NIC counters summed over nodes: the mesh took in only what the
/// NICs sent, retransmitted or minted as link control; each packet it
/// handed out was received, dropped at the NIC or consumed by
/// go-back-N; it dropped the rest; the machine's drop and delivery
/// logs agree with the NICs; and a CRC check failed only on a packet
/// the mesh corrupted (a sender whose CRC covered other bytes than it
/// sent would fail more).
fn check_ledger(name: &str, m: &MetricsSnapshot) {
    let nic = |field: &str| nic_total(m, field);
    let count = |metric: &str| m.counter(metric).unwrap_or_else(|| panic!("{name}: no {metric}"));
    let (injected, ejected) = (count("mesh.packets_injected"), count("mesh.packets_ejected"));
    let (received, unmapped) = (nic("packets_received"), nic("unmapped_drops"));
    let nic_drops = nic("crc_drops") + nic("misroutes") + nic("fifo.in.rejections");
    let sent = nic("packets_sent")
        + nic("retx.retransmissions")
        + nic("retx.acks_sent")
        + nic("retx.nacks_sent");
    assert_eq!(injected, sent, "{name}: the mesh took in what the NICs sent");
    let taken = received
        + nic_drops
        + nic("retx.dup_drops")
        + nic("retx.gap_drops")
        + nic("retx.acks_received")
        + nic("retx.nacks_received")
        + nic("gbn.bounces");
    assert_eq!(ejected, taken, "{name}: the NICs took every ejected packet");
    let dropped = count("mesh.packets_dropped");
    assert_eq!(injected, ejected + dropped, "{name}: the mesh ejects or drops each packet");
    assert_eq!(count("machine.drops"), nic_drops + unmapped, "{name}: the drop log");
    assert_eq!(count("machine.deliveries"), received - unmapped, "{name}: the delivery log");
    assert!(
        nic("crc_drops") <= count("mesh.packets_corrupted"),
        "{name}: a CRC check failed on a packet the mesh did not corrupt"
    );
}

/// Checks that the mesh corrupted `corrupted` packets and the NICs'
/// CRC checks dropped every one of them: a checksum that missed a
/// flipped bit would deliver the packet instead.
fn check_every_corruption_caught(name: &str, m: &MetricsSnapshot, corrupted: u64) {
    assert_eq!(m.counter("mesh.packets_corrupted"), Some(corrupted), "{name}: pinned corrupted packets");
    assert_eq!(nic_total(m, "crc_drops"), corrupted, "{name}: a corrupted packet passed its CRC check");
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
    let m = check_golden("unpinned_faulty", 0x86b2_9498_d792_a0ec, 2863, 712);
    check_every_corruption_caught("unpinned_faulty", &m, 2);
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
    check_ledger("mixed10k", &a.metrics);
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
    let m = check_golden("sessions_faulty", 0x742e_65a6_1d26_c87d, 58_495, 16_208);
    check_every_corruption_caught("sessions_faulty", &m, 87);
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

/// A small scenario drawn from `seed`: a 2x2, 3x2, 2x3 or 3x3 mesh running
/// all four session kinds, on `nic`, and with 0.5% drop, 0.1%
/// corruption and link churn when `faulty`.
fn generated(seed: u64, nic: NicBackend, faulty: bool) -> Scenario {
    let mut rng = SimRng::seed_from(seed);
    let us = |rng: &mut SimRng, lo: u64, hi: u64| {
        let a = rng.gen_range(lo..=hi);
        let b = rng.gen_range(a..=hi + 4);
        DurRange { lo: SimDuration::from_us(a), hi: SimDuration::from_us(b) }
    };
    let mesh = *rng.choose(&[(2, 2), (3, 2), (2, 3), (3, 3)]);
    let words = |rng: &mut SimRng, hi: u32| 4 * rng.gen_range(1..=hi / 4);
    let any = |count: u32, kind: SessionKind| SessionSpec { count, src: NodeSel::Any, dst: NodeSel::Any, kind };
    let specs = vec![
        any(
            rng.gen_range(16..=32),
            SessionKind::Rpc {
                requests: rng.gen_range(1..=3),
                request_bytes: words(&mut rng, 512),
                response_bytes: words(&mut rng, 512),
                think: us(&mut rng, 1, 10),
                server: us(&mut rng, 1, 5),
            },
        ),
        any(rng.gen_range(8..=16), SessionKind::Stream { pages: rng.gen_range(1..=2), gap: us(&mut rng, 1, 4) }),
        any(
            rng.gen_range(4..=8),
            SessionKind::Fanout {
                leaves: rng.gen_range(1..=3),
                rounds: rng.gen_range(1..=2),
                bytes: words(&mut rng, 512),
                think: us(&mut rng, 1, 6),
            },
        ),
        any(
            rng.gen_range(16..=32),
            SessionKind::Dsm {
                pages: rng.gen_range(1..=2),
                ops: rng.gen_range(2..=4),
                write_bytes: words(&mut rng, 64),
                think: us(&mut rng, 1, 5),
            },
        ),
    ];
    let (fault, churn) = if faulty {
        let fault = FaultSpec { drop: 0.005, corrupt: 0.001, seed: rng.next_u64() };
        let churn = ChurnSpec { fail: us(&mut rng, 10, 40), repair: us(&mut rng, 2, 8), times: 150 };
        (Some(fault), Some(churn))
    } else {
        (None, None)
    };
    Scenario {
        name: format!("gen{seed}_{}{}", nic.as_str(), if faulty { "_faulty" } else { "" }),
        mesh,
        seed,
        pages: 96,
        users: rng.gen_range(4..=8),
        nic,
        fault,
        churn,
        specs,
    }
}

/// Model exactness over generated scenarios: 5 seeds × {SHRIMP,
/// unpinned} × {clean, drop + corruption + link churn}, each run pinned
/// by its delivery hash, event count, final time and delivery count,
/// folded into one FNV-1a digest. A change that moves any run's timing
/// or order changes the digest; the message lists every run's line, so
/// two trees can be diffed run by run.
#[test]
fn generated_scenarios_match_pinned_digest() {
    let mut lines = Vec::new();
    for seed in 1..=5 {
        for nic in [NicBackend::Shrimp, NicBackend::Unpinned] {
            for faulty in [false, true] {
                let sc = generated(seed, nic, faulty);
                let r = run_scenario(&sc).unwrap_or_else(|e| panic!("{}: {e}", sc.name));
                assert_eq!(r.sessions_completed, sc.total_sessions(), "{}: sessions completed", sc.name);
                check_ledger(&sc.name, &r.metrics);
                lines.push(format!(
                    "{} hash=0x{:016x} events={} final_ps={} deliveries={}",
                    sc.name, r.delivery_hash, r.events_processed, r.final_time_ps, r.deliveries
                ));
            }
        }
    }
    let text = lines.join("\n");
    let digest = text
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    assert_eq!(digest, 0x8f14_7b78_9bf0_061d, "pinned digest (got 0x{digest:016x}) over:\n{text}");
}
