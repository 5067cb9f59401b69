//! Backplane characterization (extension, not a paper table): delivered
//! throughput and latency for classic traffic patterns on the 4×4
//! Paragon-style mesh, with a bounded injection queue per node.
//!
//! ```text
//! cargo run -p shrimp-bench --bin netchar
//! ```

#![forbid(unsafe_code)]

use std::collections::VecDeque;

use shrimp_bench::workloads::TrafficPattern;
use shrimp_bench::{banner, fmt_us, metric_key, write_metrics, Table};
use shrimp_mesh::{MeshConfig, MeshNetwork, MeshPacket, MeshShape};
use shrimp_sim::{SimDuration, SimRng, SimTime};

const PACKET_BYTES: usize = 128;
const ROUNDS: usize = 60;
const QUEUE_CAP: usize = 4;

struct Outcome {
    offered: u64,
    refused: u64,
    delivered: u64,
    mean_latency_us: f64,
    max_latency_us: f64,
}

/// Runs `ROUNDS` injection rounds of a pattern, draining continuously.
/// Each node owns a bounded software injection queue; offers beyond it
/// are refused (and counted), as a finite Outgoing FIFO would.
fn run(shape: MeshShape, pattern: TrafficPattern, interval: SimDuration, seed: u64) -> Outcome {
    let mut net = MeshNetwork::new(MeshConfig::paragon(shape));
    let mut rng = SimRng::seed_from(seed);
    let mut queues: Vec<VecDeque<MeshPacket>> =
        (0..shape.nodes()).map(|_| VecDeque::new()).collect();
    let mut now = SimTime::ZERO;
    let mut offered = 0u64;
    let mut refused = 0u64;

    let pump = |net: &mut MeshNetwork, queues: &mut Vec<VecDeque<MeshPacket>>, t: SimTime| {
        net.advance(t);
        let t = t.max(net.now());
        for node in shape.iter_nodes() {
            while net.eject(t, node).is_some() {}
            while let Some(p) = queues[node.0 as usize].pop_front() {
                if let Err(refused) = net.try_inject(t, p) {
                    queues[node.0 as usize].push_front(refused);
                    break;
                }
            }
        }
    };

    for _ in 0..ROUNDS {
        for src in shape.iter_nodes() {
            if let Some(dst) = pattern.destination(shape, src, &mut rng) {
                offered += 1;
                if queues[src.0 as usize].len() >= QUEUE_CAP {
                    refused += 1;
                } else {
                    queues[src.0 as usize].push_back(MeshPacket::new(
                        src,
                        dst,
                        vec![0u8; PACKET_BYTES],
                    ));
                }
            }
        }
        pump(&mut net, &mut queues, now);
        now += interval;
        if std::env::var_os("NETCHAR_DEBUG").is_some() {
            eprintln!("round done, now={now} in_flight={} idle={}", net.in_flight(), net.is_idle());
        }
    }
    // Drain the tail.
    let mut drain_iters = 0u64;
    while queues.iter().any(|q| !q.is_empty()) || !net.is_idle() {
        drain_iters += 1;
        if std::env::var_os("NETCHAR_DEBUG").is_some() && drain_iters.is_multiple_of(1000) {
            eprintln!("drain iter {drain_iters}: in_flight={} queued={} now={now}", net.in_flight(), queues.iter().map(|q| q.len()).sum::<usize>());
        }
        let t = net.next_event_time().unwrap_or(now).max(now);
        pump(&mut net, &mut queues, t);
        now = t;
        if net.next_event_time().is_none() {
            // Only ejection-blocked state remains; pump once more at now.
            pump(&mut net, &mut queues, now);
            if net.is_idle() && queues.iter().all(|q| q.is_empty()) {
                break;
            }
            now += interval;
        }
    }
    let stats = net.stats();
    Outcome {
        offered,
        refused,
        delivered: stats.packets_ejected,
        mean_latency_us: stats.transit_latency.mean().unwrap_or(0.0) / 1e6,
        max_latency_us: stats.transit_latency.max().unwrap_or(0) as f64 / 1e6,
    }
}

fn main() {
    banner("extension: mesh characterization under synthetic traffic");
    let shape = MeshShape::new(4, 4);

    let mut reg = shrimp_sim::MetricsRegistry::new();
    for interval_us in [4u64, 16] {
        println!(
            "offered load: one {PACKET_BYTES} B packet per node every {interval_us} us\n"
        );
        let mut t = Table::new(vec![
            "pattern",
            "offered",
            "refused",
            "delivered",
            "mean transit",
            "max transit",
        ]);
        let mut hotspot_mean = 0.0;
        let mut neighbor_mean = 0.0;
        for pattern in TrafficPattern::all(shape) {
            let o = run(shape, pattern, SimDuration::from_us(interval_us), 42);
            assert_eq!(
                o.delivered,
                o.offered - o.refused,
                "every accepted packet must be delivered ({})",
                pattern.name()
            );
            if matches!(pattern, TrafficPattern::HotSpot(_)) {
                hotspot_mean = o.mean_latency_us;
            }
            if pattern == TrafficPattern::NeighborEast {
                neighbor_mean = o.mean_latency_us;
            }
            t.row(vec![
                pattern.name(),
                o.offered.to_string(),
                o.refused.to_string(),
                o.delivered.to_string(),
                fmt_us(o.mean_latency_us),
                fmt_us(o.max_latency_us),
            ]);
            let p = format!("netchar.{interval_us}us.{}", metric_key(&pattern.name()));
            reg.set_counter(format!("{p}.offered"), o.offered);
            reg.set_counter(format!("{p}.refused"), o.refused);
            reg.set_counter(format!("{p}.delivered"), o.delivered);
            reg.set_gauge(format!("{p}.mean_transit_us"), o.mean_latency_us);
            reg.set_gauge(format!("{p}.max_transit_us"), o.max_latency_us);
        }
        t.print();
        println!();
        assert!(
            hotspot_mean > neighbor_mean,
            "hotspot contention must exceed neighbor traffic latency"
        );
    }
    write_metrics("netchar", &reg.snapshot());
    println!("hotspot traffic queues at the ejection port; neighbor traffic stays near the no-load");
    println!("latency — the backplane behaves like the dimension-order mesh the paper assumes");
}
