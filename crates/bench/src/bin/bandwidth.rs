//! Regenerates the paper's §5.1 **peak bandwidth** result: deliberate-
//! update transfers are EISA-limited to 33 MB/s on the prototype and
//! reach ~70 MB/s on the next-generation datapath; blocked-write
//! automatic update is shown for contrast.
//!
//! The sender is a real mini-ISA program issuing the §4.3 `CMPXCHG`
//! start protocol page by page, overlapping the preparation of the next
//! command with the outgoing DMA of the current one — the paper's
//! recommended usage.
//!
//! ```text
//! cargo run -p shrimp-bench --bin bandwidth
//! ```

#![forbid(unsafe_code)]

use shrimp_bench::{banner, fmt_rate, write_metrics, Table};
use shrimp_core::{Machine, MachineConfig, MapRequest};
use shrimp_cpu::Reg;
use shrimp_mem::PAGE_SIZE;
use shrimp_mesh::{MeshShape, NodeId};
use shrimp_nic::UpdatePolicy;

const SND: NodeId = NodeId(0);
const RCV: NodeId = NodeId(1);

struct Setup {
    m: Machine,
    s: shrimp_os::Pid,
    data_va: shrimp_mem::VirtAddr,
    cmd_delta: u32,
}

fn setup(cfg: MachineConfig, pages: u64, policy: UpdatePolicy) -> Setup {
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
        len: pages * PAGE_SIZE,
        policy,
    })
    .expect("map");

    // One command page per data page; reserved consecutively, so a single
    // delta converts any data address into its command address.
    let mut cmd_delta = 0u32;
    for p in 0..pages {
        let cmd = m
            .map_command_page(SND, s, data_va.add(p * PAGE_SIZE))
            .expect("command page");
        if p == 0 {
            cmd_delta = (cmd.raw() - data_va.raw()) as u32;
        }
    }
    // Fill the source region so transfers are verifiable.
    let payload: Vec<u8> = (0..pages * PAGE_SIZE).map(|i| (i % 253) as u8).collect();
    m.poke(SND, s, data_va, &payload).expect("fill");
    m.run_until_idle().expect("quiesce after fill");
    m.clear_deliveries();
    Setup {
        m,
        s,
        data_va,
        cmd_delta,
    }
}

/// Streams `bytes` with back-to-back deliberate-update page transfers and
/// returns the achieved end-to-end rate in bytes/second, plus the
/// machine for metrics inspection.
fn deliberate_rate(cfg: MachineConfig, bytes: u64) -> (f64, Machine) {
    let pages = bytes.div_ceil(PAGE_SIZE);
    let tail_words = ((bytes - (pages - 1) * PAGE_SIZE) / 4) as u32;
    let mut w = setup(cfg, pages, UpdatePolicy::Deliberate);

    // The §4.3 run-time library routine, shared with msglib.
    let program = shrimp_core::msglib::deliberate_stream_program();

    w.m.load_program(SND, w.s, program);
    w.m.set_reg(SND, w.s, Reg::R5, w.data_va.raw() as u32);
    w.m.set_reg(SND, w.s, Reg::R7, w.cmd_delta);
    w.m.set_reg(SND, w.s, Reg::R3, pages as u32);
    w.m.set_reg(SND, w.s, Reg::R2, (PAGE_SIZE / 4) as u32);
    w.m.set_reg(SND, w.s, Reg::R4, if tail_words == 0 { (PAGE_SIZE / 4) as u32 } else { tail_words });

    let t0 = w.m.now();
    w.m.start(SND, w.s);
    w.m.run_until_idle().expect("stream must drain");
    let last = w
        .m
        .deliveries()
        .iter()
        .map(|d| d.time)
        .max()
        .expect("deliveries recorded");
    let delivered: u64 = w.m.deliveries().iter().map(|d| d.len).sum();
    assert_eq!(delivered, bytes, "every byte must arrive");
    let rate = delivered as f64 / (last.since(t0).as_picos() as f64 / 1e12);
    (rate, w.m)
}

/// Streams `bytes` of blocked-write automatic updates (host stores) and
/// returns the achieved end-to-end rate.
fn blocked_write_rate(cfg: MachineConfig, bytes: u64) -> f64 {
    let pages = bytes.div_ceil(PAGE_SIZE);
    let mut w = setup(cfg, pages, UpdatePolicy::AutomaticBlocked);
    let data: Vec<u8> = (0..bytes).map(|i| (i % 241) as u8).collect();
    let t0 = w.m.now();
    w.m.poke(SND, w.s, w.data_va, &data).expect("stores");
    w.m.run_until_idle().expect("stream must drain");
    let last = w
        .m
        .deliveries()
        .iter()
        .map(|d| d.time)
        .max()
        .expect("deliveries recorded");
    let delivered: u64 = w.m.deliveries().iter().map(|d| d.len).sum();
    assert_eq!(delivered, bytes, "every byte must arrive");
    delivered as f64 / (last.since(t0).as_picos() as f64 / 1e12)
}

fn main() {
    banner("Section 5.1: peak bandwidth (deliberate update)");
    let shape = MeshShape::new(2, 1);

    let mut t = Table::new(vec![
        "transfer size",
        "deliberate (EISA proto)",
        "deliberate (next gen)",
        "blocked-write (proto)",
    ]);
    let sizes: [u64; 7] = [256, 1024, 4096, 8192, 16384, 32768, 65536];
    let mut last_proto = 0.0;
    let mut last_next = 0.0;
    let mut last_machine = None;
    for &size in &sizes {
        let (proto, m) = deliberate_rate(MachineConfig::prototype(shape), size);
        let (next, _) = deliberate_rate(MachineConfig::next_generation(shape), size);
        let blocked = blocked_write_rate(MachineConfig::prototype(shape), size);
        t.row(vec![
            format!("{size} B"),
            fmt_rate(proto),
            fmt_rate(next),
            fmt_rate(blocked),
        ]);
        last_proto = proto;
        last_next = next;
        last_machine = Some(m);
    }
    t.print();

    println!();
    println!(
        "paper: 33 MB/s peak, EISA-limited    -> measured asymptote {}",
        fmt_rate(last_proto)
    );
    println!(
        "paper: ~70 MB/s next generation      -> measured asymptote {}",
        fmt_rate(last_next)
    );
    assert!(
        last_proto > 25e6 && last_proto <= 33e6,
        "prototype must saturate near the EISA limit, got {last_proto}"
    );
    assert!(
        last_next > 55e6 && last_next <= 70e6,
        "next generation must roughly double it, got {last_next}"
    );
    println!("\nboth envelopes hold: the receive-path bus is the bottleneck");

    // Component counters of the largest prototype stream, in the
    // unified schema (nic0.*, mesh.*, machine.*).
    let m = last_machine.expect("at least one size measured");
    write_metrics("bandwidth", &m.metrics_snapshot());
}
