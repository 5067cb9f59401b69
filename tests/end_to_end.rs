//! Cross-crate integration tests: the full datapath of the paper, end to
//! end on the assembled machine.

use shrimp::cpu::{Assembler, Reg};
use shrimp::mem::{PAGE_SIZE, VirtAddr};
use shrimp::mesh::{MeshShape, NodeId};
use shrimp::nic::{NicInterrupt, UpdatePolicy};
use shrimp::os::Pid;
use shrimp::{Machine, MachineConfig, MachineError, MapRequest};

struct Link {
    m: Machine,
    s: Pid,
    r: Pid,
    src_va: VirtAddr,
    rcv_va: VirtAddr,
    export: shrimp::os::ExportId,
}

fn link(pages: u64, policy: UpdatePolicy) -> Link {
    link_on(MachineConfig::two_nodes(), pages, policy)
}

fn link_on(cfg: MachineConfig, pages: u64, policy: UpdatePolicy) -> Link {
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
        policy,
    })
    .unwrap();
    Link {
        m,
        s,
        r,
        src_va,
        rcv_va,
        export,
    }
}

#[test]
fn automatic_update_propagates_multiple_pages() {
    let mut l = link(3, UpdatePolicy::AutomaticSingle);
    let data: Vec<u8> = (0..3 * PAGE_SIZE).map(|i| (i % 251) as u8).collect();
    l.m.poke(NodeId(0), l.s, l.src_va, &data).unwrap();
    l.m.run_until_idle().unwrap();
    assert_eq!(l.m.peek(NodeId(1), l.r, l.rcv_va, 3 * PAGE_SIZE).unwrap(), data);
}

#[test]
fn unaligned_mapping_uses_split_pages() {
    // Map 4 KB starting 1 KB into the source buffer onto 1 KB into the
    // receive buffer: every source page carries two NIPT segments.
    let mut m = Machine::new(MachineConfig::two_nodes());
    let s = m.create_process(NodeId(0));
    let r = m.create_process(NodeId(1));
    let src_va = m.alloc_pages(NodeId(0), s, 2).unwrap();
    let rcv_va = m.alloc_pages(NodeId(1), r, 2).unwrap();
    let export = m
        .export_buffer(NodeId(1), r, rcv_va, 2, Some(NodeId(0)))
        .unwrap();
    m.map(MapRequest {
        src_node: NodeId(0),
        src_pid: s,
        src_va: src_va.add(1024),
        dst_node: NodeId(1),
        export,
        dst_offset: 2048,
        len: PAGE_SIZE,
        policy: UpdatePolicy::AutomaticSingle,
    })
    .unwrap();

    let data: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 247) as u8).collect();
    m.poke(NodeId(0), s, src_va.add(1024), &data).unwrap();
    m.run_until_idle().unwrap();
    assert_eq!(
        m.peek(NodeId(1), r, rcv_va.add(2048), PAGE_SIZE).unwrap(),
        data,
        "data must land at the shifted destination offset"
    );
    // Outside the mapped window nothing changed.
    assert!(m
        .peek(NodeId(1), r, rcv_va, 2048)
        .unwrap()
        .iter()
        .all(|&b| b == 0));
}

#[test]
fn deliberate_update_via_cmpxchg_program() {
    let mut l = link(1, UpdatePolicy::Deliberate);
    let payload: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 199) as u8).collect();
    l.m.poke(NodeId(0), l.s, l.src_va, &payload).unwrap();
    l.m.run_until_idle().unwrap();
    // Nothing moved yet: deliberate pages transfer only on command.
    assert!(l
        .m
        .peek(NodeId(1), l.r, l.rcv_va, PAGE_SIZE)
        .unwrap()
        .iter()
        .all(|&b| b == 0));

    let cmd = l.m.map_command_page(NodeId(0), l.s, l.src_va).unwrap();
    let mut asm = Assembler::new();
    asm.label("retry")
        .li(Reg::R0, 0)
        .cmpxchg(Reg::R6, 0, Reg::R1)
        .jnz("retry")
        .halt();
    l.m.load_program(NodeId(0), l.s, asm.assemble().unwrap());
    l.m.set_reg(NodeId(0), l.s, Reg::R6, cmd.raw() as u32);
    l.m.set_reg(NodeId(0), l.s, Reg::R1, (PAGE_SIZE / 4) as u32);
    l.m.start(NodeId(0), l.s);
    l.m.run_until_idle().unwrap();
    assert_eq!(l.m.peek(NodeId(1), l.r, l.rcv_va, PAGE_SIZE).unwrap(), payload);
}

#[test]
fn blocked_write_merges_into_few_packets() {
    let mut l = link(1, UpdatePolicy::AutomaticBlocked);
    let data = vec![7u8; 1024];
    l.m.poke(NodeId(0), l.s, l.src_va, &data).unwrap();
    l.m.run_until_idle().unwrap();
    let stats = l.m.nic_stats(NodeId(0));
    assert!(
        stats.packets_sent < 20,
        "256 word stores must merge into few packets, got {}",
        stats.packets_sent
    );
    assert!(stats.merged_writes > 200);
    assert_eq!(l.m.peek(NodeId(1), l.r, l.rcv_va, 1024).unwrap(), data);
}

#[test]
fn single_write_sends_one_packet_per_store() {
    let mut l = link(1, UpdatePolicy::AutomaticSingle);
    for i in 0..10u32 {
        l.m.poke(NodeId(0), l.s, l.src_va.add(i as u64 * 4), &i.to_le_bytes())
            .unwrap();
    }
    l.m.run_until_idle().unwrap();
    assert_eq!(l.m.nic_stats(NodeId(0)).packets_sent, 10);
    assert_eq!(l.m.nic_stats(NodeId(1)).packets_received, 10);
}

#[test]
fn data_arrival_interrupt_fires_once_when_armed() {
    let mut l = link(1, UpdatePolicy::AutomaticSingle);
    // Arm the interrupt from user level through the command page.
    let cmd = l.m.map_command_page(NodeId(1), l.r, l.rcv_va).unwrap();
    l.m.poke(
        NodeId(1),
        l.r,
        cmd,
        &shrimp::nic::CommandOp::ArmInterrupt.encode().to_le_bytes(),
    )
    .unwrap();
    l.m.run_until_idle().unwrap();

    l.m.poke(NodeId(0), l.s, l.src_va, &1u32.to_le_bytes()).unwrap();
    l.m.poke(NodeId(0), l.s, l.src_va.add(4), &2u32.to_le_bytes())
        .unwrap();
    l.m.run_until_idle().unwrap();
    let arrivals: Vec<_> = l
        .m
        .interrupts()
        .iter()
        .filter(|(_, n, irq)| *n == NodeId(1) && matches!(irq, NicInterrupt::DataArrival { .. }))
        .collect();
    assert_eq!(arrivals.len(), 1, "one-shot arrival interrupt");
}

#[test]
fn in_order_delivery_across_the_machine() {
    let mut l = link(1, UpdatePolicy::AutomaticSingle);
    // The same word is rewritten many times; the final value must be the
    // last write (per-pair ordering end to end).
    for i in 1..=50u32 {
        l.m.poke(NodeId(0), l.s, l.src_va, &i.to_le_bytes()).unwrap();
    }
    l.m.run_until_idle().unwrap();
    let got = l.m.peek(NodeId(1), l.r, l.rcv_va, 4).unwrap();
    assert_eq!(u32::from_le_bytes(got.try_into().unwrap()), 50);
}

#[test]
fn export_permissions_are_enforced() {
    let mut m = Machine::new(MachineConfig::prototype(MeshShape::new(3, 1)));
    let s = m.create_process(NodeId(0));
    let intruder = m.create_process(NodeId(2));
    let r = m.create_process(NodeId(1));
    let rcv_va = m.alloc_pages(NodeId(1), r, 1).unwrap();
    // Export admits only node 0.
    let export = m
        .export_buffer(NodeId(1), r, rcv_va, 1, Some(NodeId(0)))
        .unwrap();
    let bad_va = m.alloc_pages(NodeId(2), intruder, 1).unwrap();
    let refused = m.map(MapRequest {
        src_node: NodeId(2),
        src_pid: intruder,
        src_va: bad_va,
        dst_node: NodeId(1),
        export,
        dst_offset: 0,
        len: PAGE_SIZE,
        policy: UpdatePolicy::AutomaticSingle,
    });
    assert!(matches!(refused, Err(MachineError::Os(_))));

    let ok_va = m.alloc_pages(NodeId(0), s, 1).unwrap();
    m.map(MapRequest {
        src_node: NodeId(0),
        src_pid: s,
        src_va: ok_va,
        dst_node: NodeId(1),
        export,
        dst_offset: 0,
        len: PAGE_SIZE,
        policy: UpdatePolicy::AutomaticSingle,
    })
    .expect("the admitted node maps fine");
}

#[test]
fn pageout_invalidation_and_reestablishment() {
    let mut l = link(1, UpdatePolicy::AutomaticSingle);
    // Sanity: mapping works.
    l.m.poke(NodeId(0), l.s, l.src_va, &1u32.to_le_bytes()).unwrap();
    l.m.run_until_idle().unwrap();

    // Receiver pages the frame out (the §4.4 protocol).
    let frame = l.m.kernel(NodeId(1)).frame_of(l.r, l.rcv_va.page()).unwrap();
    l.m.begin_pageout(NodeId(1), frame).unwrap();
    l.m.run_until_idle().unwrap();
    assert!(l.m.pageout_complete(NodeId(1), frame));
    l.m.complete_pageout(NodeId(1), frame).unwrap();

    // Host store now faults (invalidated source page is read-only).
    assert!(l.m.poke(NodeId(0), l.s, l.src_va, &2u32.to_le_bytes()).is_err());

    // A CPU store triggers transparent kernel re-establishment.
    let mut asm = Assembler::new();
    asm.li(Reg::R1, 42).store(Reg::R1, Reg::R5, 0).halt();
    l.m.load_program(NodeId(0), l.s, asm.assemble().unwrap());
    l.m.set_reg(NodeId(0), l.s, Reg::R5, l.src_va.raw() as u32);
    l.m.start(NodeId(0), l.s);
    l.m.run_until_idle().unwrap();
    assert!(l.m.cpu(NodeId(0), l.s).unwrap().is_halted());

    // The write flowed to the *new* frame backing the receiver page.
    let got = l.m.peek(NodeId(1), l.r, l.rcv_va, 4).unwrap();
    assert_eq!(u32::from_le_bytes(got.try_into().unwrap()), 42);
    let _ = l.export;
}

#[test]
fn sixteen_node_all_to_one_traffic() {
    let shape = MeshShape::new(4, 4);
    let mut m = Machine::new(MachineConfig::prototype(shape));
    let sink_pid = m.create_process(NodeId(5));
    let sink_va = m.alloc_pages(NodeId(5), sink_pid, 15).unwrap();
    let export = m
        .export_buffer(NodeId(5), sink_pid, sink_va, 15, None)
        .unwrap();
    let mut senders = Vec::new();
    let mut slot = 0u64;
    for n in shape.iter_nodes() {
        if n == NodeId(5) {
            continue;
        }
        let pid = m.create_process(n);
        let va = m.alloc_pages(n, pid, 1).unwrap();
        m.map(MapRequest {
            src_node: n,
            src_pid: pid,
            src_va: va,
            dst_node: NodeId(5),
            export,
            dst_offset: slot * PAGE_SIZE,
            len: PAGE_SIZE,
            policy: UpdatePolicy::AutomaticSingle,
        })
        .unwrap();
        senders.push((n, pid, va, slot));
        slot += 1;
    }
    for &(n, pid, va, _) in &senders {
        m.poke(n, pid, va, &(n.0 as u32 + 1).to_le_bytes()).unwrap();
    }
    m.run_until_idle().unwrap();
    for &(n, _, _, slot) in &senders {
        let got = m
            .peek(NodeId(5), sink_pid, sink_va.add(slot * PAGE_SIZE), 4)
            .unwrap();
        assert_eq!(u32::from_le_bytes(got.try_into().unwrap()), n.0 as u32 + 1);
    }
    assert_eq!(m.nic_stats(NodeId(5)).packets_received, 15);
    assert!(m.drops().is_empty());
}

#[test]
fn policy_switch_through_command_page() {
    let mut l = link(1, UpdatePolicy::AutomaticSingle);
    let cmd = l.m.map_command_page(NodeId(0), l.s, l.src_va).unwrap();
    // Switch the page to blocked-write mode from user level (§4.2).
    l.m.poke(
        NodeId(0),
        l.s,
        cmd,
        &shrimp::nic::CommandOp::SetPolicy(UpdatePolicy::AutomaticBlocked)
            .encode()
            .to_le_bytes(),
    )
    .unwrap();
    l.m.run_until_idle().unwrap();

    let before = l.m.nic_stats(NodeId(0)).packets_sent;
    let data = vec![3u8; 256];
    l.m.poke(NodeId(0), l.s, l.src_va, &data).unwrap();
    l.m.run_until_idle().unwrap();
    let sent = l.m.nic_stats(NodeId(0)).packets_sent - before;
    assert!(sent < 8, "blocked-write mode must merge, got {sent} packets");
    assert_eq!(l.m.peek(NodeId(1), l.r, l.rcv_va, 256).unwrap(), data);
}

#[test]
fn unmap_tears_down_cleanly() {
    let mut m = Machine::new(MachineConfig::two_nodes());
    let s = m.create_process(NodeId(0));
    let r = m.create_process(NodeId(1));
    let src_va = m.alloc_pages(NodeId(0), s, 1).unwrap();
    let rcv_va = m.alloc_pages(NodeId(1), r, 1).unwrap();
    let export = m.export_buffer(NodeId(1), r, rcv_va, 1, None).unwrap();
    let id = m
        .map(MapRequest {
            src_node: NodeId(0),
            src_pid: s,
            src_va,
            dst_node: NodeId(1),
            export,
            dst_offset: 0,
            len: PAGE_SIZE,
            policy: UpdatePolicy::AutomaticSingle,
        })
        .unwrap();

    m.poke(NodeId(0), s, src_va, &1u32.to_le_bytes()).unwrap();
    m.run_until_idle().unwrap();
    assert_eq!(m.nic_stats(NodeId(0)).packets_sent, 1);

    m.unmap(id).unwrap();
    // Stores no longer reach the network, and the receiver's page is no
    // longer mapped in.
    m.poke(NodeId(0), s, src_va, &2u32.to_le_bytes()).unwrap();
    m.run_until_idle().unwrap();
    assert_eq!(m.nic_stats(NodeId(0)).packets_sent, 1, "no new packets");
    let frame = m.kernel(NodeId(1)).frame_of(r, rcv_va.page()).unwrap();
    assert!(!m.nic(NodeId(1)).nipt().is_mapped_in(frame));
    // The receiver kept the first value only.
    let got = m.peek(NodeId(1), r, rcv_va, 4).unwrap();
    assert_eq!(u32::from_le_bytes(got.try_into().unwrap()), 1);
    // Double-unmap is reported.
    assert!(m.unmap(id).is_err());
}

#[test]
fn unmap_one_of_two_senders_keeps_the_other() {
    let mut m = Machine::new(MachineConfig::prototype(MeshShape::new(3, 1)));
    let a = m.create_process(NodeId(0));
    let b = m.create_process(NodeId(2));
    let r = m.create_process(NodeId(1));
    let rcv_va = m.alloc_pages(NodeId(1), r, 2).unwrap();
    let export = m.export_buffer(NodeId(1), r, rcv_va, 2, None).unwrap();
    let a_va = m.alloc_pages(NodeId(0), a, 1).unwrap();
    let b_va = m.alloc_pages(NodeId(2), b, 1).unwrap();
    let id_a = m
        .map(MapRequest {
            src_node: NodeId(0),
            src_pid: a,
            src_va: a_va,
            dst_node: NodeId(1),
            export,
            dst_offset: 0,
            len: PAGE_SIZE,
            policy: UpdatePolicy::AutomaticSingle,
        })
        .unwrap();
    m.map(MapRequest {
        src_node: NodeId(2),
        src_pid: b,
        src_va: b_va,
        dst_node: NodeId(1),
        export,
        dst_offset: PAGE_SIZE,
        len: PAGE_SIZE,
        policy: UpdatePolicy::AutomaticSingle,
    })
    .unwrap();

    m.unmap(id_a).unwrap();
    // B's mapping still works.
    m.poke(NodeId(2), b, b_va, &9u32.to_le_bytes()).unwrap();
    m.run_until_idle().unwrap();
    let got = m.peek(NodeId(1), r, rcv_va.add(PAGE_SIZE), 4).unwrap();
    assert_eq!(u32::from_le_bytes(got.try_into().unwrap()), 9);
}

#[test]
fn flow_control_survives_a_sustained_burst() {
    // Shrink the FIFOs so backpressure engages, then blast 8 pages of
    // blocked-write data: nothing may be lost, and the outgoing-threshold
    // interrupt must have fired at least once.
    let mut cfg = MachineConfig::two_nodes();
    cfg.nic.out_fifo_bytes = 5 * 1024;
    cfg.nic.out_fifo_threshold = 4 * 1024;
    cfg.nic.in_fifo_bytes = 5 * 1024;
    cfg.nic.in_fifo_threshold = 4 * 1024;
    let mut m = Machine::new(cfg);
    let s = m.create_process(NodeId(0));
    let r = m.create_process(NodeId(1));
    let src_va = m.alloc_pages(NodeId(0), s, 8).unwrap();
    let rcv_va = m.alloc_pages(NodeId(1), r, 8).unwrap();
    let export = m.export_buffer(NodeId(1), r, rcv_va, 8, None).unwrap();
    m.map(MapRequest {
        src_node: NodeId(0),
        src_pid: s,
        src_va,
        dst_node: NodeId(1),
        export,
        dst_offset: 0,
        len: 8 * PAGE_SIZE,
        policy: UpdatePolicy::AutomaticBlocked,
    })
    .unwrap();

    let data: Vec<u8> = (0..8 * PAGE_SIZE).map(|i| (i % 233) as u8).collect();
    m.poke(NodeId(0), s, src_va, &data).unwrap();
    m.run_until_idle().unwrap();
    assert_eq!(m.peek(NodeId(1), r, rcv_va, 8 * PAGE_SIZE).unwrap(), data);
    assert!(m.drops().is_empty(), "flow control must not drop");
    assert!(
        m.interrupts()
            .iter()
            .any(|(_, n, irq)| *n == NodeId(0) && matches!(irq, NicInterrupt::OutgoingThreshold)),
        "the burst must have tripped the outgoing threshold"
    );
}

#[test]
fn mapped_queue_between_distant_nodes() {
    use shrimp::core::mqueue::MappedQueue;
    let mut m = Machine::new(MachineConfig::prototype(MeshShape::new(4, 4)));
    let s = m.create_process(NodeId(0));
    let r = m.create_process(NodeId(15));
    let q = MappedQueue::establish(&mut m, (NodeId(0), s), (NodeId(15), r), 8, 128).unwrap();
    for i in 0..20u32 {
        loop {
            if q.send(&mut m, &i.to_le_bytes()).unwrap() {
                break;
            }
            m.run_until_idle().unwrap();
            // Drain one to free a credit.
            while q.recv(&mut m).unwrap().is_some() {}
            m.run_until_idle().unwrap();
        }
    }
    m.run_until_idle().unwrap();
    let mut got = Vec::new();
    loop {
        m.run_until_idle().unwrap();
        match q.recv(&mut m).unwrap() {
            Some(msg) => got.push(u32::from_le_bytes(msg.try_into().unwrap())),
            None => break,
        }
    }
    // Every message received exactly once, in order per the FIFO.
    let tail: Vec<u32> = ((20 - got.len() as u32)..20).collect();
    assert_eq!(got, tail, "whatever remained queued arrives in order");
}
