//! Same-instant order: when a mesh advance ejects a packet at the very
//! instant another node's outgoing packet becomes ready, the network
//! pump that follows the advance delivers the ejection, and the sender
//! injects from its own `DrainOutgoing` event at that instant, after
//! the pump, whatever the ids (DESIGN.md §5d, §5j). A NIC's timed work
//! runs at the node's own events; the pump visits only the nodes marked
//! since its last visit, those holding an ejection and those holding a
//! packet the mesh refused.
//!
//! Running the instant's queued events before the mesh advance would
//! move the injection ahead of the ejection.

use shrimp::core::LatencyRecord;
use shrimp::mem::VirtAddr;
use shrimp::mesh::{MeshShape, NodeId};
use shrimp::nic::UpdatePolicy;
use shrimp::os::Pid;
use shrimp::sim::trace::TraceData;
use shrimp::{Machine, MachineConfig, MapRequest};

/// The node whose ejection sets the instant, and its sender.
const RECEIVER: u16 = 1;
const SENDER: u16 = 3;

/// A 2×2 machine with automatic single-write mappings `3 → 1` and
/// `x → d`. Returns the machine and each sender's process and buffer.
fn machine(x: u16, d: u16) -> (Machine, (Pid, VirtAddr), (Pid, VirtAddr)) {
    let mut cfg = MachineConfig::prototype(MeshShape::new(2, 2));
    cfg.telemetry.latency = true;
    cfg.telemetry.flight_recorder = 1024;
    let mut m = Machine::new(cfg);
    let edge = |m: &mut Machine, src: u16, dst: u16| {
        let (src, dst) = (NodeId(src), NodeId(dst));
        let sender = m.create_process(src);
        let receiver = m.create_process(dst);
        let send_buf = m.alloc_pages(src, sender, 1).expect("alloc send");
        let recv_buf = m.alloc_pages(dst, receiver, 1).expect("alloc recv");
        let export = m
            .export_buffer(dst, receiver, recv_buf, 1, None)
            .expect("export");
        m.map(MapRequest {
            src_node: src,
            src_pid: sender,
            src_va: send_buf,
            dst_node: dst,
            export,
            dst_offset: 0,
            len: 4096,
            policy: UpdatePolicy::AutomaticSingle,
        })
        .expect("map");
        (sender, send_buf)
    };
    let first = edge(&mut m, SENDER, RECEIVER);
    let second = edge(&mut m, x, d);
    m.run_until_idle().expect("set-up quiesces");
    (m, first, second)
}

fn poke_word(m: &mut Machine, node: u16, (pid, va): (Pid, VirtAddr)) {
    m.poke(NodeId(node), pid, va, &7u32.to_le_bytes())
        .expect("poke");
}

/// The latency record of the single packet `src` sent.
fn record_from(m: &Machine, src: u16) -> LatencyRecord {
    let mut from = m
        .telemetry()
        .records
        .iter()
        .filter(|r| r.src == NodeId(src));
    let rec = *from.next().expect("a packet from the sender");
    assert!(from.next().is_none(), "one packet per sender");
    rec
}

/// Runs `3 → 1` and `x → d` so that x's packet becomes ready exactly
/// when node 1 accepts node 3's, and returns the injections and
/// ejections the flight recorder holds for that instant, in order.
fn order_at_the_ejection(x: u16, d: u16) -> Vec<String> {
    // Pass 1: the ejection instant `T`, and the delay `δ` from a poke
    // on x to its packet becoming ready.
    let (mut m, first, second) = machine(x, d);
    poke_word(&mut m, SENDER, first);
    m.run_until_idle().expect("first packet lands");
    let ejected = record_from(&m, SENDER).accepted;
    let poked = m.now();
    poke_word(&mut m, x, second);
    m.run_until_idle().expect("second packet lands");
    let delay = record_from(&m, x).born.since(poked);

    // Pass 2: poke x `δ` before `T`.
    let (mut m, first, second) = machine(x, d);
    poke_word(&mut m, SENDER, first);
    m.run_until(ejected - delay);
    poke_word(&mut m, x, second);
    m.run_until_idle().expect("both packets land");
    assert_eq!(
        record_from(&m, SENDER).accepted,
        ejected,
        "same ejection instant"
    );
    assert_eq!(
        record_from(&m, x).born,
        ejected,
        "x's packet is ready at the ejection"
    );

    m.trace()
        .dump()
        .iter()
        .filter(|e| e.event.time == ejected)
        .filter_map(|e| match e.event.data {
            TraceData::PacketInjected { src, .. } => Some(format!("inject {src}")),
            TraceData::PacketEjected { dst, .. } => Some(format!("eject {dst}")),
            _ => None,
        })
        .collect()
}

/// A lower-id sender injects after the ejection, at its own event.
#[test]
fn lower_id_injection_follows_the_ejection() {
    assert_eq!(order_at_the_ejection(0, 2), ["eject 1", "inject 0"]);
}

/// A higher-id sender injects after the ejection too.
#[test]
fn higher_id_injection_follows_the_ejection() {
    assert_eq!(order_at_the_ejection(2, 0), ["eject 1", "inject 2"]);
}
