//! Determinism regression: the event loop must produce byte-identical
//! results across runs. The zero-copy datapath and the batched CPU
//! quantum both reorder *work* relative to the original implementation;
//! neither may reorder *observable effects*, and repeated runs of the
//! same scenario must agree exactly — the event queue's
//! (timestamp, insertion-seq) total order is the only tie-breaker.
//!
//! The fault-injection subsystem adds two more obligations, tested here:
//!
//! * **Pay for what you use.** With every fault rate at zero and
//!   retransmission off, the machine must be bit-identical to a build
//!   that never heard of faults. The pinned-baseline test below froze
//!   its numbers on the pre-fault tree; any drift is a regression.
//! * **Chaos determinism.** Under packet loss and corruption the run
//!   must still complete with byte-identical destination memory to a
//!   fault-free run, and the same seed must reproduce the same retry
//!   counters exactly.

use shrimp::cpu::Reg;
use shrimp::mem::PAGE_SIZE;
use shrimp::mesh::{MeshShape, NodeId};
use shrimp::nic::nic::NicStats;
use shrimp::nic::{NicBackend, RetxConfig, UpdatePolicy};
use shrimp::sim::fault::{FaultConfig, LinkChurnConfig, LinkFaultConfig, NicFaultConfig};
use shrimp::sim::SimDuration;
use shrimp::workload::delivery_hash;
use shrimp::{DeliveryRecord, Machine, MachineConfig, MapRequest};

/// Everything externally observable about one finished run, including
/// the destination memory images the workload wrote into.
#[derive(Debug, PartialEq)]
struct Observation {
    deliveries: Vec<DeliveryRecord>,
    nic_stats: Vec<NicStats>,
    mesh_stats: shrimp::mesh::NetworkStats,
    events_processed: u64,
    final_time: shrimp::sim::SimTime,
    dest_mem: Vec<Vec<u8>>,
}

/// A mixed workload on a 2×2 mesh: a deliberate-update page stream from
/// node 0 to node 1 (drives the CPU program path, DMA engine and mesh
/// concurrently) overlapped with an automatic-update ping-pong between
/// nodes 2 and 3 (drives the snoop path and single-word packets).
/// When `blocked_chunks > 0`, a blocked-write mapping from node 2 to
/// node 1 joins in, exercising the merge window under fault load.
fn run_workload(cfg: MachineConfig, blocked_chunks: u32) -> Observation {
    let pages = 8u64;
    let mut cfg = cfg;
    cfg.pages_per_node = 4 * 256;
    let mut m = Machine::new(cfg);

    // Bandwidth half: node 0 streams `pages` pages to node 1.
    let s = m.create_process(NodeId(0));
    let r = m.create_process(NodeId(1));
    let data_va = m.alloc_pages(NodeId(0), s, pages).expect("alloc");
    let rcv_va = m.alloc_pages(NodeId(1), r, pages).expect("alloc");
    let export = m
        .export_buffer(NodeId(1), r, rcv_va, pages, Some(NodeId(0)))
        .expect("export");
    m.map(MapRequest {
        src_node: NodeId(0),
        src_pid: s,
        src_va: data_va,
        dst_node: NodeId(1),
        export,
        dst_offset: 0,
        len: pages * PAGE_SIZE,
        policy: UpdatePolicy::Deliberate,
    })
    .expect("map");
    let mut cmd_delta = 0u32;
    for p in 0..pages {
        let cmd = m
            .map_command_page(NodeId(0), s, data_va.add(p * PAGE_SIZE))
            .expect("command page");
        if p == 0 {
            cmd_delta = (cmd.raw() - data_va.raw()) as u32;
        }
    }
    let payload: Vec<u8> = (0..pages * PAGE_SIZE).map(|i| (i % 253) as u8).collect();
    m.poke(NodeId(0), s, data_va, &payload).expect("fill");
    m.run_until_idle().expect("quiesce after fill");

    // Ping-pong half: nodes 2 and 3 map one page at each other.
    let a = m.create_process(NodeId(2));
    let b = m.create_process(NodeId(3));
    let a_buf = m.alloc_pages(NodeId(2), a, 1).expect("alloc");
    let b_buf = m.alloc_pages(NodeId(3), b, 1).expect("alloc");
    let a_export = m
        .export_buffer(NodeId(2), a, a_buf, 1, Some(NodeId(3)))
        .expect("export");
    let b_export = m
        .export_buffer(NodeId(3), b, b_buf, 1, Some(NodeId(2)))
        .expect("export");
    m.map(MapRequest {
        src_node: NodeId(2),
        src_pid: a,
        src_va: a_buf,
        dst_node: NodeId(3),
        export: b_export,
        dst_offset: 0,
        len: PAGE_SIZE,
        policy: UpdatePolicy::AutomaticSingle,
    })
    .expect("map a->b");
    m.map(MapRequest {
        src_node: NodeId(3),
        src_pid: b,
        src_va: b_buf,
        dst_node: NodeId(2),
        export: a_export,
        dst_offset: 0,
        len: PAGE_SIZE,
        policy: UpdatePolicy::AutomaticSingle,
    })
    .expect("map b->a");

    // Blocked-write half (chaos runs only): node 2 streams merged
    // writes into a second page on node 1.
    let mut blk = None;
    if blocked_chunks > 0 {
        let blk_src = m.alloc_pages(NodeId(2), a, 1).expect("alloc");
        let blk_dst = m.alloc_pages(NodeId(1), r, 1).expect("alloc");
        let blk_export = m
            .export_buffer(NodeId(1), r, blk_dst, 1, Some(NodeId(2)))
            .expect("export");
        m.map(MapRequest {
            src_node: NodeId(2),
            src_pid: a,
            src_va: blk_src,
            dst_node: NodeId(1),
            export: blk_export,
            dst_offset: 0,
            len: PAGE_SIZE,
            policy: UpdatePolicy::AutomaticBlocked,
        })
        .expect("map blocked");
        blk = Some((blk_src, blk_dst));
    }

    m.clear_deliveries();

    // Start the deliberate stream...
    let program = shrimp::msglib::deliberate_stream_program();
    m.load_program(NodeId(0), s, program);
    m.set_reg(NodeId(0), s, Reg::R5, data_va.raw() as u32);
    m.set_reg(NodeId(0), s, Reg::R7, cmd_delta);
    m.set_reg(NodeId(0), s, Reg::R3, pages as u32);
    m.set_reg(NodeId(0), s, Reg::R2, (PAGE_SIZE / 4) as u32);
    m.set_reg(NodeId(0), s, Reg::R4, (PAGE_SIZE / 4) as u32);
    m.start(NodeId(0), s);

    // ...and ping-pong while it is in flight.
    for i in 0..16u32 {
        m.poke(NodeId(2), a, a_buf.add((i as u64 % 64) * 4), &i.to_le_bytes())
            .expect("ping");
        m.poke(NodeId(3), b, b_buf.add((i as u64 % 64) * 4), &(!i).to_le_bytes())
            .expect("pong");
        if let Some((blk_src, _)) = blk {
            if i < blocked_chunks {
                let chunk: Vec<u8> = (0..64u32).map(|j| (i * 64 + j) as u8).collect();
                m.poke(NodeId(2), a, blk_src.add(i as u64 * 64), &chunk)
                    .expect("blocked burst");
            }
        }
        m.run_until_idle().expect("round quiesces");
    }
    m.run_until_idle().expect("stream drains");

    let mut dest_mem = vec![
        m.peek(NodeId(1), r, rcv_va, pages * PAGE_SIZE).expect("peek stream dst"),
        m.peek(NodeId(3), b, b_buf, PAGE_SIZE).expect("peek pong dst"),
        m.peek(NodeId(2), a, a_buf, PAGE_SIZE).expect("peek ping dst"),
    ];
    if let Some((_, blk_dst)) = blk {
        dest_mem.push(m.peek(NodeId(1), r, blk_dst, PAGE_SIZE).expect("peek blocked dst"));
    }

    let nodes = 4u16;
    Observation {
        deliveries: m.deliveries().to_vec(),
        nic_stats: (0..nodes).map(|n| m.nic_stats(NodeId(n))).collect(),
        mesh_stats: m.mesh_stats().clone(),
        events_processed: m.events_processed(),
        final_time: m.now(),
        dest_mem,
    }
}

fn run_scenario() -> Observation {
    run_workload(MachineConfig::prototype(MeshShape::new(2, 2)), 0)
}

/// The fault configuration the chaos tests use: lossy, noisy, jittery
/// links plus occasional receive-FIFO stalls.
fn chaos_faults(seed: u64, drop_rate: f64, corrupt_rate: f64) -> FaultConfig {
    FaultConfig {
        seed,
        link: LinkFaultConfig {
            drop_rate,
            burst_extra: (1, 2),
            corrupt_rate,
            jitter_rate: 0.05,
            jitter: (SimDuration::from_ns(20), SimDuration::from_ns(400)),
            ..LinkFaultConfig::default()
        },
        nic: NicFaultConfig {
            stall_rate: 0.002,
            stall: (SimDuration::from_ns(200), SimDuration::from_us(2)),
        },
        churn: LinkChurnConfig::default(),
    }
}

fn chaos_config(fault: FaultConfig) -> MachineConfig {
    let mut cfg = MachineConfig::prototype(MeshShape::new(2, 2));
    cfg.nic.retx = RetxConfig::reliable();
    cfg.fault = fault;
    cfg
}

#[test]
fn identical_runs_produce_identical_observations() {
    let first = run_scenario();
    let second = run_scenario();
    assert!(
        !first.deliveries.is_empty(),
        "scenario must actually deliver packets"
    );
    // The stream moved 8 pages and the ping-pong 32 words; both halves
    // must show up in the delivery log.
    let bytes: u64 = first.deliveries.iter().map(|d| d.len).sum();
    assert!(bytes >= 8 * PAGE_SIZE + 32 * 4, "delivered {bytes} bytes");
    assert_eq!(first, second, "simulation must be deterministic");
}

/// With every fault rate at zero the machine must reproduce the exact
/// numbers the pre-fault tree produced for this scenario, down to the
/// final event count and a hash over every delivery record. The values
/// below were captured on `main` immediately before the fault subsystem
/// landed; if this test fails, the "disabled faults are free" contract
/// is broken.
#[test]
fn zero_fault_run_matches_pinned_baseline() {
    let obs = run_scenario();

    assert_eq!(obs.deliveries.len(), 40);
    let bytes: u64 = obs.deliveries.iter().map(|d| d.len).sum();
    assert_eq!(bytes, 32_896);
    // 145 (was 141 before the overflow-refill born fix): an overflowed
    // deliberate packet now re-enters the out FIFO at its DMA `done_at`
    // rather than the refill instant, so the drain loop polls four extra
    // times before the packet is ready. Delivery times, byte counts and
    // the delivery hash are unchanged.
    assert_eq!(obs.events_processed, 145);
    assert_eq!(obs.final_time.as_picos(), 1_712_973_308);

    assert_eq!(obs.mesh_stats.packets_injected, 40);
    assert_eq!(obs.mesh_stats.packets_ejected, 40);
    assert_eq!(obs.mesh_stats.link_bytes, 33_776);
    assert_eq!(obs.mesh_stats.packets_dropped, 0);
    assert_eq!(obs.mesh_stats.packets_corrupted, 0);
    assert_eq!(obs.mesh_stats.packets_jittered, 0);

    let n0 = &obs.nic_stats[0];
    assert_eq!((n0.packets_sent, n0.bytes_sent, n0.dma_packets), (8, 32_768, 8));
    let n1 = &obs.nic_stats[1];
    assert_eq!((n1.packets_received, n1.bytes_received), (8, 32_768));
    for n in [&obs.nic_stats[2], &obs.nic_stats[3]] {
        assert_eq!(n.packets_sent, 16);
        assert_eq!(n.bytes_sent, 64);
        assert_eq!(n.packets_received, 16);
        assert_eq!(n.bytes_received, 64);
        assert_eq!(n.single_write_packets, 16);
    }
    for n in &obs.nic_stats {
        assert_eq!(n.retransmissions, 0);
        assert_eq!(n.retx_timeouts, 0);
        assert_eq!(n.acks_sent + n.acks_received, 0);
        assert_eq!(n.nacks_sent + n.nacks_received, 0);
        assert_eq!(n.fault_stalls, 0);
    }

    // FNV-1a over every delivery record, pinned from the pre-fault tree.
    assert_eq!(
        delivery_hash(&obs.deliveries),
        0x3081_e8c4_022f_a6e8,
        "delivery records drifted"
    );
}

/// Shared body of the chaos soaks: run the mixed workload under the
/// given fault rates and check (a) the run completes, (b) destination
/// memory is byte-identical to a fault-free run, (c) the same seed
/// reproduces the identical observation — retry counters included —
/// and (d) the mesh carried less than 3× the ideal packet count.
fn chaos_soak(seed: u64, drop_rate: f64, corrupt_rate: f64) {
    let ideal = run_workload(chaos_config(FaultConfig::default()), 8);
    let noisy = run_workload(chaos_config(chaos_faults(seed, drop_rate, corrupt_rate)), 8);
    let again = run_workload(chaos_config(chaos_faults(seed, drop_rate, corrupt_rate)), 8);

    assert_eq!(
        noisy.dest_mem, ideal.dest_mem,
        "fault injection corrupted destination memory"
    );
    assert_eq!(noisy, again, "same seed must reproduce the same run");

    let retries: u64 = noisy.nic_stats.iter().map(|n| n.retransmissions).sum();
    let dropped = noisy.mesh_stats.packets_dropped + noisy.mesh_stats.packets_corrupted;
    if dropped > 0 {
        assert!(retries > 0, "losses observed but nothing was retransmitted");
    }
    assert!(
        noisy.mesh_stats.packets_injected < 3 * ideal.mesh_stats.packets_injected,
        "retransmission storm: {} injected vs {} ideal",
        noisy.mesh_stats.packets_injected,
        ideal.mesh_stats.packets_injected
    );
}

/// Fast chaos soak at the rates the issue names: 1% drop, 0.1% corrupt.
#[test]
fn chaos_soak_survives_one_percent_loss() {
    chaos_soak(0x5ee_d001, 0.01, 0.001);
}

/// Heavier soak for CI's `--ignored` job: the acceptance-criteria upper
/// bound (2% drop, 0.5% corruption) across several seeds.
#[test]
#[ignore = "long soak; run with --ignored in CI"]
fn chaos_soak_battery() {
    for seed in [1, 0xdead_beef, 0x5ee_d002, 42] {
        chaos_soak(seed, 0.02, 0.005);
    }
}

/// Telemetry must observe, never perturb: with tracing and latency
/// stamping fully enabled, the zero-fault pinned-baseline scenario must
/// produce an `Observation` identical to the telemetry-off run — same
/// delivery log, same stats, same event count, same final time.
#[test]
fn telemetry_on_matches_telemetry_off_baseline() {
    let off = run_scenario();
    let mut cfg = MachineConfig::prototype(MeshShape::new(2, 2));
    cfg.telemetry = shrimp::sim::TelemetryConfig::full();
    let on = run_workload(cfg, 0);
    assert_eq!(off, on, "telemetry must not perturb the simulation");
}

// ─────────────────────── pinned CPU-program runs ───────────────────────
//
// The runs below execute CPU programs on several nodes at once. Their
// delivery hashes and event counts were pinned on the last tree that
// could batch these CPU steps into parallel lookahead windows; executing
// every event inline, in `(time, seq)` order, must reproduce them.

/// A fully symmetric workload: every node on a 2×2 mesh streams `pages`
/// deliberate-update pages to its ring successor, with all four CPU
/// programs started at the same instant, so their `CpuStep` events land
/// on the same instants on distinct nodes.
fn run_ring(cfg: MachineConfig) -> Machine {
    let pages = 4u64;
    let n = 4usize;
    let mut cfg = cfg;
    cfg.pages_per_node = 4 * 256;
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
        m.start(node, pid);
    }
    m.run_until_idle().expect("ring drains");
    m
}

/// The 2×2 ring: every node both sends and receives, and the delivery
/// log reproduces its pinned hash and event count.
#[test]
fn ring_2x2_matches_pinned_values() {
    let m = run_ring(MachineConfig::prototype(MeshShape::new(2, 2)));
    assert!(
        (0..4).all(|n| m.deliveries().iter().any(|d| d.node == NodeId(n))),
        "every node must receive its predecessor's stream"
    );
    assert_eq!(m.deliveries().len(), 16);
    assert_eq!(
        delivery_hash(m.deliveries()),
        0x5f19_614f_a09d_a6a1,
        "ring delivery records drifted"
    );
    assert_eq!(m.events_processed(), 100);
}

/// The mixed workload under 1% packet loss with retransmission on
/// reproduces its pinned hash and event count — retries, drop sites and
/// all.
#[test]
fn faulted_run_matches_pinned_values() {
    let obs = run_workload(chaos_config(chaos_faults(0x5ee_d003, 0.01, 0.001)), 8);
    assert!(
        obs.mesh_stats.packets_dropped + obs.mesh_stats.packets_corrupted > 0,
        "fault rates must actually bite for this pin to mean anything"
    );
    assert_eq!(obs.deliveries.len(), 48);
    assert_eq!(
        delivery_hash(&obs.deliveries),
        0xf25b_6b75_36a5_06f6,
        "faulted delivery records drifted"
    );
    assert_eq!(obs.events_processed, 242);
}

// ───────────────────── link churn: dynamic topology ─────────────────────

/// A churn-only fault configuration: no loss or corruption, but every
/// directed link fails and repairs three times on a schedule drawn
/// from `seed`, spread across the run.
fn churn_faults(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        churn: LinkChurnConfig {
            times: 3,
            fail_after: (SimDuration::from_us(40), SimDuration::from_us(300)),
            repair_after: (SimDuration::from_us(10), SimDuration::from_us(60)),
        },
        ..FaultConfig::default()
    }
}

/// Like [`run_workload`] (stream + ping-pong halves) but pumped with
/// bounded `run_until` steps instead of per-round `run_until_idle`, so
/// the traffic is in flight *while* the churn schedule fires — a
/// quiesce would fast-forward through every link event before the
/// first packet launches.
fn run_churn_workload(cfg: MachineConfig) -> Observation {
    let pages = 8u64;
    let mut cfg = cfg;
    cfg.pages_per_node = 4 * 256;
    let mut m = Machine::new(cfg);

    let s = m.create_process(NodeId(0));
    let r = m.create_process(NodeId(1));
    let data_va = m.alloc_pages(NodeId(0), s, pages).expect("alloc");
    let rcv_va = m.alloc_pages(NodeId(1), r, pages).expect("alloc");
    let export = m
        .export_buffer(NodeId(1), r, rcv_va, pages, Some(NodeId(0)))
        .expect("export");
    m.map(MapRequest {
        src_node: NodeId(0),
        src_pid: s,
        src_va: data_va,
        dst_node: NodeId(1),
        export,
        dst_offset: 0,
        len: pages * PAGE_SIZE,
        policy: UpdatePolicy::Deliberate,
    })
    .expect("map");
    let mut cmd_delta = 0u32;
    for p in 0..pages {
        let cmd = m
            .map_command_page(NodeId(0), s, data_va.add(p * PAGE_SIZE))
            .expect("command page");
        if p == 0 {
            cmd_delta = (cmd.raw() - data_va.raw()) as u32;
        }
    }
    let payload: Vec<u8> = (0..pages * PAGE_SIZE).map(|i| (i % 253) as u8).collect();
    m.poke(NodeId(0), s, data_va, &payload).expect("fill");

    let a = m.create_process(NodeId(2));
    let b = m.create_process(NodeId(3));
    let a_buf = m.alloc_pages(NodeId(2), a, 1).expect("alloc");
    let b_buf = m.alloc_pages(NodeId(3), b, 1).expect("alloc");
    let a_export = m
        .export_buffer(NodeId(2), a, a_buf, 1, Some(NodeId(3)))
        .expect("export");
    let b_export = m
        .export_buffer(NodeId(3), b, b_buf, 1, Some(NodeId(2)))
        .expect("export");
    m.map(MapRequest {
        src_node: NodeId(2),
        src_pid: a,
        src_va: a_buf,
        dst_node: NodeId(3),
        export: b_export,
        dst_offset: 0,
        len: PAGE_SIZE,
        policy: UpdatePolicy::AutomaticSingle,
    })
    .expect("map a->b");
    m.map(MapRequest {
        src_node: NodeId(3),
        src_pid: b,
        src_va: b_buf,
        dst_node: NodeId(2),
        export: a_export,
        dst_offset: 0,
        len: PAGE_SIZE,
        policy: UpdatePolicy::AutomaticSingle,
    })
    .expect("map b->a");

    m.clear_deliveries();

    let program = shrimp::msglib::deliberate_stream_program();
    m.load_program(NodeId(0), s, program);
    m.set_reg(NodeId(0), s, Reg::R5, data_va.raw() as u32);
    m.set_reg(NodeId(0), s, Reg::R7, cmd_delta);
    m.set_reg(NodeId(0), s, Reg::R3, pages as u32);
    m.set_reg(NodeId(0), s, Reg::R2, (PAGE_SIZE / 4) as u32);
    m.set_reg(NodeId(0), s, Reg::R4, (PAGE_SIZE / 4) as u32);
    m.start(NodeId(0), s);

    // Ping-pong in 25 µs steps: the step boundary is wall-clock-bounded
    // (not idle-bounded), so links die and heal *between* pokes while
    // stream and ping-pong packets are still in the fabric.
    for i in 0..16u32 {
        m.poke(NodeId(2), a, a_buf.add((i as u64 % 64) * 4), &i.to_le_bytes())
            .expect("ping");
        m.poke(NodeId(3), b, b_buf.add((i as u64 % 64) * 4), &(!i).to_le_bytes())
            .expect("pong");
        m.run_until(m.now() + SimDuration::from_us(25));
    }
    m.run_until_idle().expect("churned workload drains");

    let dest_mem = vec![
        m.peek(NodeId(1), r, rcv_va, pages * PAGE_SIZE).expect("peek stream dst"),
        m.peek(NodeId(3), b, b_buf, PAGE_SIZE).expect("peek pong dst"),
        m.peek(NodeId(2), a, a_buf, PAGE_SIZE).expect("peek ping dst"),
    ];
    Observation {
        deliveries: m.deliveries().to_vec(),
        nic_stats: (0..4u16).map(|n| m.nic_stats(NodeId(n))).collect(),
        mesh_stats: m.mesh_stats().clone(),
        events_processed: m.events_processed(),
        final_time: m.now(),
        dest_mem,
    }
}

/// The tentpole regression: with every link dying and healing mid-run,
/// packets caught in flight are bounced back to their source NIC,
/// retransmitted by go-back-N, and delivered exactly once — the
/// destination memory and delivery count match a churn-free run, and
/// the same seed reproduces the identical observation.
#[test]
fn churn_bounces_retransmits_and_delivers_exactly_once() {
    let ideal = run_churn_workload(chaos_config(FaultConfig::default()));
    let churned = run_churn_workload(chaos_config(churn_faults(38)));
    let again = run_churn_workload(chaos_config(churn_faults(38)));

    assert_eq!(
        churned.dest_mem, ideal.dest_mem,
        "churn corrupted destination memory"
    );
    assert_eq!(
        churned.deliveries.len(),
        ideal.deliveries.len(),
        "churn duplicated or lost a delivery"
    );
    assert_eq!(churned, again, "same churn seed must reproduce the same run");

    assert!(churned.mesh_stats.reroutes > 0, "no adaptive reroutes observed");
    assert!(churned.mesh_stats.bounced > 0, "no packet was ever bounced");
    assert_eq!(
        churned.mesh_stats.packets_injected, churned.mesh_stats.packets_ejected,
        "every packet (including bounced ones) must leave the fabric"
    );
    assert_eq!(churned.mesh_stats.packets_dropped, 0, "a bounce is not a drop");
    let bounces: u64 = churned.nic_stats.iter().map(|n| n.gbn_bounces).sum();
    let retries: u64 = churned.nic_stats.iter().map(|n| n.retransmissions).sum();
    assert!(bounces > 0, "no NIC saw a bounced frame");
    assert!(retries > 0, "bounced data was never retransmitted");
}

/// The churned workload reproduces its pinned hash and event count while
/// the topology fails and heals under it.
#[test]
fn churned_run_matches_pinned_values() {
    let obs = run_churn_workload(chaos_config(churn_faults(38)));
    assert!(
        obs.mesh_stats.reroutes > 0 && obs.mesh_stats.bounced > 0,
        "churn must actually bite for this pin to mean anything"
    );
    assert_eq!(obs.deliveries.len(), 40);
    assert_eq!(
        delivery_hash(&obs.deliveries),
        0x77b7_d149_8905_e347,
        "churned delivery records drifted"
    );
    assert_eq!(obs.events_processed, 166);
}

/// Retransmission alone (no faults) must not change what the machine
/// delivers — only add ack traffic.
#[test]
fn retx_without_faults_delivers_identically() {
    let plain = run_scenario();
    let reliable = run_workload(chaos_config(FaultConfig::default()), 0);
    assert_eq!(plain.dest_mem, reliable.dest_mem);
    assert_eq!(
        plain.deliveries.len(),
        reliable.deliveries.len(),
        "retx must not duplicate or lose deliveries"
    );
}

// ─────────────────── automatic blocked-write stream ────────────────────

/// The benchmark's `auto_stream` shape at 64 pages: node 0 maps a
/// buffer onto node 1 for automatic blocked-write update, stores all of
/// it in one `poke` (every page merges into one packet on the snooped
/// bus) and drains.
fn run_auto_stream(backend: NicBackend) -> Machine {
    let pages = 64u64;
    let mut cfg = MachineConfig::prototype(MeshShape::new(2, 1));
    cfg.nic_backend = backend;
    let mut m = Machine::new(cfg);
    let (snd, rcv) = (NodeId(0), NodeId(1));
    let s = m.create_process(snd);
    let r = m.create_process(rcv);
    let dst = m.alloc_pages(rcv, r, pages).expect("alloc dst");
    let export = m
        .export_buffer(rcv, r, dst, pages, Some(snd))
        .expect("export");
    let src = m.alloc_pages(snd, s, pages).expect("alloc src");
    m.map(MapRequest {
        src_node: snd,
        src_pid: s,
        src_va: src,
        dst_node: rcv,
        export,
        dst_offset: 0,
        len: pages * PAGE_SIZE,
        policy: UpdatePolicy::AutomaticBlocked,
    })
    .expect("map");
    let payload: Vec<u8> = (0..pages * PAGE_SIZE)
        .map(|i| (i * 13 % 251) as u8)
        .collect();
    m.poke(snd, s, src, &payload).expect("store stream");
    m.run_until_idle().expect("stream drains");
    assert_eq!(
        m.peek(rcv, r, dst, pages * PAGE_SIZE).expect("peek dst"),
        payload,
        "the stream must land intact"
    );
    m
}

/// The automatic blocked-write stream reproduces its pinned hash, event
/// count, final time and sender counters on both NIC backends. Every
/// page leaves as one merged packet.
#[test]
fn auto_stream_matches_pinned_values() {
    let sender = NicStats {
        packets_sent: 64,
        bytes_sent: 64 * PAGE_SIZE,
        merged_writes: 64 * (PAGE_SIZE / 4 - 1),
        blocked_write_packets: 64,
        ..NicStats::default()
    };
    for (backend, hash, events, now_ps) in [
        (
            NicBackend::Shrimp,
            0xeb1c_e6d0_221a_98cc,
            13_312,
            8_087_720_661,
        ),
        (
            NicBackend::Unpinned,
            0xa643_814b_c944_081f,
            4_194_803,
            8_046_369_365,
        ),
    ] {
        let m = run_auto_stream(backend);
        assert_eq!(m.deliveries().len(), 64, "{backend:?}");
        assert_eq!(
            delivery_hash(m.deliveries()),
            hash,
            "{backend:?} deliveries drifted"
        );
        assert_eq!(m.events_processed(), events, "{backend:?}");
        assert_eq!(m.now().as_picos(), now_ps, "{backend:?}");
        assert_eq!(m.nic_stats(NodeId(0)), sender, "{backend:?}");
    }
}
