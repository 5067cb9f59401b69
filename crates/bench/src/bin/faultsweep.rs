//! Charts **goodput vs. link loss rate** for the deliberate-update
//! stream with link-level go-back-N retransmission enabled: the channel
//! drops (and occasionally corrupts) packets, the NICs recover, and the
//! application still sees every byte — at a goodput cost this sweep
//! quantifies. A second sweep charts **goodput vs. link churn rate**:
//! every directed link of a 2×2 mesh fails and repairs on a seeded
//! MTTF/MTTR schedule while a mixed closed-loop workload runs, and the
//! west-first adaptive router detours (or bounces) traffic around the
//! holes. Results are printed and written to
//! `BENCH_faultsweep.metrics.json` in the `shrimp.metrics.v1` schema.
//!
//! ```text
//! cargo run -p shrimp-bench --bin faultsweep
//! ```

#![forbid(unsafe_code)]

use shrimp_bench::{banner, fmt_rate, write_metrics, Table};
use shrimp_core::{Machine, MachineConfig, MapRequest};
use shrimp_cpu::Reg;
use shrimp_mem::PAGE_SIZE;
use shrimp_mesh::{MeshShape, NodeId};
use shrimp_nic::{RetxConfig, UpdatePolicy};
use shrimp_sim::fault::{FaultConfig, LinkFaultConfig};
use shrimp_workload::dsl::Scenario;
use shrimp_workload::run_scenario_observed;

const SND: NodeId = NodeId(0);
const RCV: NodeId = NodeId(1);

struct Sample {
    loss: f64,
    goodput: f64,
    injected: u64,
    dropped: u64,
    corrupted: u64,
    retransmissions: u64,
    timeouts: u64,
}

/// Streams `pages` pages under the given loss rate and returns the
/// achieved goodput plus the recovery counters.
fn run_point(loss: f64, pages: u64) -> Sample {
    let mut cfg = MachineConfig::prototype(MeshShape::new(2, 1));
    cfg.nic.retx = RetxConfig::reliable();
    cfg.fault = FaultConfig {
        seed: 0xfa57_5eed,
        link: LinkFaultConfig {
            drop_rate: loss,
            // A tenth of the drop rate as bit corruption: the CRC turns
            // those into drops too, exercising the same recovery path.
            corrupt_rate: loss / 10.0,
            ..LinkFaultConfig::default()
        },
        ..FaultConfig::default()
    };

    let bytes = pages * PAGE_SIZE;
    let mut m = Machine::new(cfg);
    let s = m.create_process(SND);
    let r = m.create_process(RCV);
    let data_va = m.alloc_pages(SND, s, pages).expect("alloc send");
    let rcv_va = m.alloc_pages(RCV, r, pages).expect("alloc recv");
    let export = m
        .export_buffer(RCV, r, rcv_va, pages, Some(SND))
        .expect("export");
    m.map(MapRequest {
        src_node: SND,
        src_pid: s,
        src_va: data_va,
        dst_node: RCV,
        export,
        dst_offset: 0,
        len: bytes,
        policy: UpdatePolicy::Deliberate,
    })
    .expect("map");
    let mut cmd_delta = 0u32;
    for p in 0..pages {
        let cmd = m
            .map_command_page(SND, s, data_va.add(p * PAGE_SIZE))
            .expect("command page");
        if p == 0 {
            cmd_delta = (cmd.raw() - data_va.raw()) as u32;
        }
    }
    let payload: Vec<u8> = (0..bytes).map(|i| (i % 253) as u8).collect();
    m.poke(SND, s, data_va, &payload).expect("fill");
    m.run_until_idle().expect("quiesce after fill");
    m.clear_deliveries();

    let program = shrimp_core::msglib::deliberate_stream_program();
    m.load_program(SND, s, program);
    m.set_reg(SND, s, Reg::R5, data_va.raw() as u32);
    m.set_reg(SND, s, Reg::R7, cmd_delta);
    m.set_reg(SND, s, Reg::R3, pages as u32);
    m.set_reg(SND, s, Reg::R2, (PAGE_SIZE / 4) as u32);
    m.set_reg(SND, s, Reg::R4, (PAGE_SIZE / 4) as u32);

    let t0 = m.now();
    m.start(SND, s);
    m.run_until_idle().expect("stream must drain despite losses");

    let delivered: u64 = m.deliveries().iter().map(|d| d.len).sum();
    assert_eq!(delivered, bytes, "retransmission must recover every byte");
    let arrived = m.peek(RCV, r, rcv_va, bytes).expect("peek");
    assert_eq!(arrived, payload, "destination memory must be uncorrupted");

    let last = m
        .deliveries()
        .iter()
        .map(|d| d.time)
        .max()
        .expect("deliveries recorded");
    let elapsed_s = last.since(t0).as_picos() as f64 / 1e12;
    let mesh = m.mesh_stats().clone();
    let nics: Vec<_> = [SND, RCV].iter().map(|&n| m.nic_stats(n)).collect();
    Sample {
        loss,
        goodput: delivered as f64 / elapsed_s,
        injected: mesh.packets_injected,
        dropped: mesh.packets_dropped,
        corrupted: mesh.packets_corrupted,
        retransmissions: nics.iter().map(|n| n.retransmissions).sum(),
        timeouts: nics.iter().map(|n| n.retx_timeouts).sum(),
    }
}

struct ChurnSample {
    /// Mean time to failure per link in µs; `None` = churn-free baseline.
    mttf_us: Option<u64>,
    goodput: f64,
    reroutes: u64,
    bounced: u64,
    retransmissions: u64,
    gbn_bounces: u64,
}

/// Runs the mixed closed-loop workload on a 2×2 mesh (enough path
/// diversity for west-first detours) with every link churning at the
/// given MTTF, fixed MTTR of 5–20 µs, three cycles per link.
fn run_churn_point(mttf_us: Option<u64>) -> ChurnSample {
    let link = match mttf_us {
        // fail ~ Uniform[mttf/2, 3·mttf/2], so the mean up-time is mttf.
        // Cycle count scales inversely with MTTF so every point keeps
        // churning for roughly the same ~1.5 ms of simulated time —
        // otherwise the harshest schedules would burn out before the
        // workload ramps up and measure nothing.
        Some(mttf) => format!(
            "link fail={}us..{}us repair=5us..20us times={}\n",
            mttf / 2,
            mttf + mttf / 2,
            (1500 / (mttf + 13)).max(3),
        ),
        None => String::new(),
    };
    let text = format!(
        "scenario churnsweep\n\
         mesh 2x2\n\
         seed 4242\n\
         pages 96\n\
         users 4\n\
         {link}\
         session rpc count=4 src=any dst=any requests=3 request=256 response=256 think=1us..8us server=1us..4us\n\
         session stream count=4 src=any dst=any pages=3 gap=1us..3us\n\
         session dsm count=4 src=any dst=any pages=2 ops=4 write=64 think=1us..5us\n"
    );
    let sc = Scenario::parse(&text).expect("generated scenario is valid");
    let (r, m) = run_scenario_observed(&sc).expect("churn point completes");
    assert_eq!(r.sessions_completed, sc.total_sessions(), "churn must not lose sessions");
    let mesh = m.mesh_stats();
    let nics: Vec<_> = (0..sc.nodes()).map(|n| m.nic_stats(NodeId(n))).collect();
    ChurnSample {
        mttf_us,
        goodput: r.goodput_bytes as f64 / (r.final_time_ps as f64 / 1e12),
        reroutes: mesh.reroutes,
        bounced: mesh.bounced,
        retransmissions: nics.iter().map(|n| n.retransmissions).sum(),
        gbn_bounces: nics.iter().map(|n| n.gbn_bounces).sum(),
    }
}

fn main() {
    banner("Fault sweep: goodput vs. link loss (go-back-N retransmission)");

    let pages = 64u64;
    let losses = [0.0, 0.005, 0.01, 0.02, 0.05];
    let mut t = Table::new(vec![
        "loss rate",
        "goodput",
        "injected",
        "dropped+corrupt",
        "retransmissions",
        "timeouts",
    ]);
    let mut samples = Vec::new();
    for &loss in &losses {
        let s = run_point(loss, pages);
        t.row(vec![
            format!("{:.1}%", loss * 100.0),
            fmt_rate(s.goodput),
            s.injected.to_string(),
            (s.dropped + s.corrupted).to_string(),
            s.retransmissions.to_string(),
            s.timeouts.to_string(),
        ]);
        samples.push(s);
    }
    t.print();

    let ideal = samples[0].goodput;
    let worst = samples.last().expect("nonempty sweep");
    println!(
        "\nloss-free goodput {}; at {:.0}% loss the stream still completes \
         losslessly at {} ({:.0}% of ideal)",
        fmt_rate(ideal),
        worst.loss * 100.0,
        fmt_rate(worst.goodput),
        100.0 * worst.goodput / ideal
    );

    banner("Churn sweep: goodput vs. link MTTF (west-first adaptive rerouting)");

    let mttfs: [Option<u64>; 5] = [None, Some(400), Some(150), Some(60), Some(25)];
    let mut ct = Table::new(vec![
        "link MTTF",
        "goodput",
        "reroutes",
        "bounced",
        "retransmissions",
        "nic bounces",
    ]);
    let mut churn_samples = Vec::new();
    for &mttf in &mttfs {
        let s = run_churn_point(mttf);
        ct.row(vec![
            match s.mttf_us {
                Some(us) => format!("{us}us"),
                None => "(no churn)".into(),
            },
            fmt_rate(s.goodput),
            s.reroutes.to_string(),
            s.bounced.to_string(),
            s.retransmissions.to_string(),
            s.gbn_bounces.to_string(),
        ]);
        churn_samples.push(s);
    }
    ct.print();

    let churn_ideal = churn_samples[0].goodput;
    let churn_worst = churn_samples.last().expect("nonempty churn sweep");
    println!(
        "\nchurn-free goodput {}; with every link dying on average every \
         {}us the workload still completes losslessly at {} ({:.0}% of ideal)",
        fmt_rate(churn_ideal),
        churn_worst.mttf_us.expect("last point churns"),
        fmt_rate(churn_worst.goodput),
        100.0 * churn_worst.goodput / churn_ideal
    );

    let mut reg = shrimp_sim::MetricsRegistry::new();
    for s in &samples {
        let p = format!("faultsweep.loss_{:.3}", s.loss);
        reg.set_gauge(format!("{p}.goodput_bytes_per_sec"), s.goodput);
        reg.set_counter(format!("{p}.packets_injected"), s.injected);
        reg.set_counter(format!("{p}.packets_dropped"), s.dropped);
        reg.set_counter(format!("{p}.packets_corrupted"), s.corrupted);
        reg.set_counter(format!("{p}.retx.retransmissions"), s.retransmissions);
        reg.set_counter(format!("{p}.retx.timeouts"), s.timeouts);
    }
    for s in &churn_samples {
        let p = match s.mttf_us {
            Some(us) => format!("faultsweep.churn.mttf_{us}us"),
            None => "faultsweep.churn.baseline".into(),
        };
        reg.set_gauge(format!("{p}.goodput_bytes_per_sec"), s.goodput);
        reg.set_counter(format!("{p}.mesh.reroutes"), s.reroutes);
        reg.set_counter(format!("{p}.mesh.bounced"), s.bounced);
        reg.set_counter(format!("{p}.retx.retransmissions"), s.retransmissions);
        reg.set_counter(format!("{p}.gbn.bounces"), s.gbn_bounces);
    }
    write_metrics("faultsweep", &reg.snapshot());
}
