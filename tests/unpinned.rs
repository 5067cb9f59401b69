//! Integration tests for the NP-RDMA-style unpinned NIC backend: the
//! bounded outgoing IOTLB with deterministic dynamic map-in must be a
//! pure timing model — every byte lands exactly once, exactly where the
//! pinned SHRIMP backend puts it — and must replay its pinned results
//! exactly even under eviction pressure.

use shrimp::mem::PAGE_SIZE;
use shrimp::mesh::NodeId;
use shrimp::nic::{NicBackend, UpdatePolicy};
use shrimp::workload::{dsl::Scenario, run_scenario_tuned};
use shrimp::{Machine, MachineConfig, MapRequest};

/// Builds a two-node machine on `backend`, maps `pages` pages of
/// automatic-update memory from node 0 to node 1, pokes `data` through
/// the snooped path and runs to idle. Returns the machine plus the
/// bytes that arrived at the destination.
fn run_mapped_write(backend: NicBackend, pages: u64, data: &[u8]) -> (Machine, Vec<u8>) {
    let mut cfg = MachineConfig::two_nodes();
    cfg.nic_backend = backend;
    let mut m = Machine::new(cfg);
    let s = m.create_process(NodeId(0));
    let r = m.create_process(NodeId(1));
    let src_va = m.alloc_pages(NodeId(0), s, pages).unwrap();
    let rcv_va = m.alloc_pages(NodeId(1), r, pages).unwrap();
    let export = m
        .export_buffer(NodeId(1), r, rcv_va, pages, Some(NodeId(0)))
        .unwrap();
    m.map(MapRequest {
        src_node: NodeId(0),
        src_pid: s,
        src_va,
        dst_node: NodeId(1),
        export,
        dst_offset: 0,
        len: pages * PAGE_SIZE,
        policy: UpdatePolicy::AutomaticSingle,
    })
    .unwrap();
    m.poke(NodeId(0), s, src_va, data).unwrap();
    m.run_until_idle().unwrap();
    let got = m.peek(NodeId(1), r, rcv_va, pages * PAGE_SIZE).unwrap();
    (m, got)
}

/// A cold IOTLB misses on first touch, buffers the write, maps the page
/// in after the kernel round trip and replays — and the destination
/// memory is byte-identical to the pinned SHRIMP run. Packet counts
/// match too: the retry path delivers exactly once, never zero or twice.
#[test]
fn miss_map_in_retry_delivers_exactly_once() {
    let pages = 3;
    let data: Vec<u8> = (0..pages * PAGE_SIZE).map(|i| (i % 239) as u8).collect();
    let (pinned, pinned_dst) = run_mapped_write(NicBackend::Shrimp, pages, &data);
    let (unpinned, unpinned_dst) = run_mapped_write(NicBackend::Unpinned, pages, &data);

    assert_eq!(pinned_dst, data, "pinned baseline must deliver the payload");
    assert_eq!(unpinned_dst, pinned_dst, "unpinned dest memory must match pinned byte-for-byte");

    let p = pinned.nic(NodeId(0)).stats();
    let u = unpinned.nic(NodeId(0)).stats();
    assert_eq!(u.packets_sent, p.packets_sent, "replay must not duplicate or drop packets");
    assert_eq!(u.bytes_sent, p.bytes_sent);

    let tlb = unpinned
        .nic(NodeId(0))
        .iotlb_stats()
        .expect("backend selection must build the unpinned model");
    assert!(tlb.misses > 0, "cold IOTLB must miss on first touch");
    assert_eq!(tlb.map_ins, pages, "one dynamic map-in per touched page");
    assert!(pinned.nic(NodeId(0)).iotlb_stats().is_none());

    // The map-in round trip is visible in simulated time: the unpinned
    // run finishes strictly later than the pinned one.
    assert!(unpinned.now() > pinned.now(), "map-in latency must cost simulated time");
}

fn load_unpinned_scenario() -> Scenario {
    let path = format!("{}/scenarios/unpinned.shrimp", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap();
    Scenario::parse(&text).unwrap()
}

/// Sums a per-nic counter over every node in the snapshot.
fn sum_counter(m: &shrimp::sim::MetricsSnapshot, nodes: u64, key: &str) -> u64 {
    (0..nodes)
        .filter_map(|i| m.counter(&format!("nic{i}.iotlb.{key}")))
        .sum()
}

/// Eviction-under-pressure soak: a one-entry IOTLB under the mixed
/// session mix thrashes constantly — every kind of transfer completes,
/// the LRU shootdown path fires, and the books balance
/// (`map_ins = misses - joins`, `evictions <= map_ins`).
#[test]
fn tiny_iotlb_eviction_soak() {
    let sc = load_unpinned_scenario();
    let (r, _) = run_scenario_tuned(&sc, None, |cfg| cfg.nic.unpinned.iotlb_entries = 1).unwrap();
    assert_eq!(r.sessions_completed, sc.total_sessions(), "soak must run all sessions to completion");

    let nodes = 4; // 2x2 mesh
    let evictions = sum_counter(&r.metrics, nodes, "evictions");
    let misses = sum_counter(&r.metrics, nodes, "misses");
    let map_ins = sum_counter(&r.metrics, nodes, "map_ins");
    assert!(evictions > 0, "a one-entry IOTLB under mixed load must evict");
    assert!(map_ins <= misses, "misses that join an in-flight map-in must not double-count");
    assert!(evictions <= map_ins, "cannot evict more entries than were ever installed");
}

/// The eviction-pressure run is deterministic: map-in completions and LRU
/// victim choice are functions of simulated time and page number only,
/// never of host scheduling, so a two-entry IOTLB reproduces the pinned
/// delivery hash and event count.
#[test]
fn tiny_iotlb_sweep_is_deterministic() {
    let sc = load_unpinned_scenario();
    let (r, _) = run_scenario_tuned(&sc, None, |cfg| cfg.nic.unpinned.iotlb_entries = 2).unwrap();
    assert_eq!(r.sessions_completed, sc.total_sessions());
    assert_eq!(r.deliveries, 240);
    assert_eq!(r.delivery_hash, 0x1954_1e55_a958_4073, "pinned hash (got 0x{:016x})", r.delivery_hash);
    assert_eq!(r.events_processed, 609);
}
