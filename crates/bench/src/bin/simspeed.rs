//! Simulator speed gates for CI: a 1024-node ring that must reproduce
//! its pinned simulated result, and the host store path alone.
//!
//! Host timing of the simulator's workloads lives in the repository
//! benchmark (`crates/bench/src/bin/benchmark`, driven by
//! `BENCHMARK.json`), which reports medians with quartiles. This binary
//! keeps three gates and writes no file:
//!
//! - the 32×32 ring reproduces its pinned delivery hash and event
//!   count, so any change to simulated behaviour fails here;
//! - the ring's throughput clears a floor lenient enough for noisy
//!   shared runners;
//! - the median of five 1024-page fills stays under a per-page ceiling
//!   that only the bulk host-store path (DESIGN.md §5k) meets, so a
//!   silent fallback to the per-word path fails CI.
//!
//! ```text
//! cargo run --release -p shrimp-bench --bin simspeed
//! ```

#![forbid(unsafe_code)]

use std::time::Instant;

use shrimp_bench::banner;
use shrimp_core::{Machine, MachineConfig, MapRequest};
use shrimp_cpu::Reg;
use shrimp_mem::PAGE_SIZE;
use shrimp_mesh::{MeshShape, NodeId};
use shrimp_nic::UpdatePolicy;
use shrimp_workload::delivery_hash;

/// Delivery fingerprint of [`ring`]'s measured region.
const RING_HASH: u64 = 0x534f_61d0_12df_c565;

/// Events in [`ring`]'s measured region.
const RING_EVENTS: u64 = 13_312;

/// The ring's throughput floor.
const FLOOR_EVENTS_PER_SEC: f64 = 25_000.0;

/// Fills timed by the ceiling gate; it checks their median.
const FILLS: usize = 5;

/// The fill ceiling. The bulk path measures ~2.5–5 µs/page and the
/// per-word path 65–110 µs/page on a 2-core Xeon, so the ceiling
/// catches a bulk path that stopped firing, which the equivalence tests
/// cannot see.
const FILL_CEILING_US_PER_PAGE: f64 = 25.0;

/// A fully symmetric ring stream over **every node of a 32×32 mesh**:
/// each node runs the deliberate-update stream program to its ring
/// successor, all programs started at the same instant — the mesh and
/// the scheduler at scale. Asserts the pinned delivery hash and event
/// count, and returns the measured region's wall seconds.
fn ring() -> f64 {
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
    let wall = Instant::now();
    for (i, &pid) in pids.iter().enumerate() {
        m.start(NodeId(i as u16), pid);
    }
    m.run_until_idle().expect("ring must drain");
    let wall_seconds = wall.elapsed().as_secs_f64();
    let delivered: u64 = m.deliveries().iter().map(|d| d.len).sum();
    assert_eq!(delivered, n as u64 * pages * PAGE_SIZE, "every byte must arrive");
    let hash = delivery_hash(m.deliveries());
    assert_eq!(
        hash, RING_HASH,
        "ring delivery hash drifted (got 0x{hash:016x})"
    );
    let events = m.events_processed() - ev0;
    assert_eq!(events, RING_EVENTS, "ring event count drifted");
    wall_seconds
}

/// The host store path alone: one `poke` filling `pages` pages mapped
/// for deliberate update from node 0 to node 1 of a 2×1 machine. The
/// NIC ignores these stores, so each page after its first word is one
/// bulk step (DESIGN.md §5k) and no event runs. Returns wall-clock
/// microseconds per page.
fn host_fill(pages: u64) -> f64 {
    let (snd, rcv) = (NodeId(0), NodeId(1));
    let mut cfg = MachineConfig::prototype(MeshShape::new(2, 1));
    cfg.pages_per_node = 4 * pages.max(256);
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
        policy: UpdatePolicy::Deliberate,
    })
    .expect("map");
    let payload: Vec<u8> = (0..pages * PAGE_SIZE).map(|i| (i % 239) as u8).collect();

    let wall = Instant::now();
    m.poke(snd, s, data_va, &payload).expect("fill");
    let wall_seconds = wall.elapsed().as_secs_f64();
    let last = (pages - 1) * PAGE_SIZE;
    let stored = m
        .peek(snd, s, data_va.add(last), PAGE_SIZE)
        .expect("peek the last page");
    assert_eq!(stored, payload[last as usize..], "the fill must land");
    wall_seconds * 1e6 / pages as f64
}

fn main() {
    banner("simspeed: 32x32 pinned ring and bulk host fill");
    let wall = ring();
    let rate = RING_EVENTS as f64 / wall;
    println!(
        "{:<14} {:>10.4}s {:>12} events {:>14.0} ev/s",
        "ring1k", wall, RING_EVENTS, rate,
    );
    assert!(
        rate >= FLOOR_EVENTS_PER_SEC,
        "ring throughput {rate:.0} ev/s fell below the {FLOOR_EVENTS_PER_SEC} floor",
    );
    let mut us: Vec<f64> = (0..FILLS).map(|_| host_fill(1024)).collect();
    us.sort_by(f64::total_cmp);
    let median = us[FILLS / 2];
    println!(
        "{:<14} {:>10.1} us/page median of {FILLS} 1024-page fills (min {:.1}, max {:.1})",
        "host_fill",
        median,
        us[0],
        us[FILLS - 1],
    );
    assert!(
        median <= FILL_CEILING_US_PER_PAGE,
        "1024-page fill took {median:.1} us/page (median of {FILLS}), over the \
         {FILL_CEILING_US_PER_PAGE} us/page ceiling: is the bulk host-store path \
         (DESIGN.md §5k) still firing?",
    );
    println!(
        "\nOK: pinned hash and {RING_EVENTS} events reproduced, floor cleared, fill under its ceiling"
    );
}
