//! Shared fixtures for the NIC unit tests, used by the per-module
//! `tests` blocks across the crate.

use shrimp_mem::{PageNum, PhysAddr};
use shrimp_mesh::{MeshPacket, MeshShape, NodeId};
use shrimp_sim::{SimDuration, SimTime, TraceData, Tracer};

use crate::config::{NicConfig, RetxConfig};
use crate::datapath::SnoopOutcome;
use crate::nic::NetworkInterface;
use crate::nipt::{OutSegment, UpdatePolicy};
use crate::packet::{ShrimpPacket, WireHeader};

pub(crate) fn shape() -> MeshShape {
    MeshShape::new(2, 2)
}

pub(crate) fn nic() -> NetworkInterface {
    NetworkInterface::new(NodeId(0), shape(), NicConfig::default(), 64)
}

/// Drains the NIC's trace outbox, returning the payloads in the order
/// they were raised.
pub(crate) fn drain_trace(n: &mut NetworkInterface) -> Vec<TraceData> {
    let mut log = Tracer::new(0, 0, true);
    n.trace_outbox_mut().drain_into(&mut log);
    log.events().iter().map(|e| e.data).collect()
}

pub(crate) fn t(ns: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_ns(ns)
}

pub(crate) fn map_out(
    n: &mut NetworkInterface,
    page: u64,
    dst: u16,
    dst_page: u64,
    policy: UpdatePolicy,
) {
    n.map_out_segment(
        PageNum::new(page),
        OutSegment::full_page(NodeId(dst), PageNum::new(dst_page), policy),
    )
    .unwrap();
}

pub(crate) fn wire_packet_for(
    n: &NetworkInterface,
    dst_addr: PhysAddr,
    data: Vec<u8>,
) -> MeshPacket<ShrimpPacket> {
    let p = ShrimpPacket::new(
        WireHeader {
            dst_coord: n.coord(),
            src: NodeId(3),
            dst_addr,
        },
        data,
    );
    MeshPacket::new(NodeId(3), n.node(), p)
}

pub(crate) fn rnic(node: u16) -> NetworkInterface {
    let cfg = NicConfig {
        retx: RetxConfig::reliable(),
        ..NicConfig::default()
    };
    NetworkInterface::new(NodeId(node), shape(), cfg, 64)
}

/// A sender NIC (node 0) with page 2 mapped single-word to node 1's
/// page 4, and the matching receiver NIC.
pub(crate) fn rpair() -> (NetworkInterface, NetworkInterface) {
    let mut s = rnic(0);
    map_out(&mut s, 2, 1, 4, UpdatePolicy::AutomaticSingle);
    let mut r = rnic(1);
    r.map_in(PageNum::new(4), true).unwrap();
    (s, r)
}

/// Snoops word `i` on the sender and pops the framed mesh packet.
pub(crate) fn send_word(
    s: &mut NetworkInterface,
    i: u32,
    at_ns: u64,
) -> MeshPacket<ShrimpPacket> {
    let addr = PageNum::new(2).at_offset(u64::from(i) * 4);
    assert_eq!(s.snoop_write(t(at_ns), addr, &i.to_le_bytes()), SnoopOutcome::Queued);
    s.pop_outgoing(t(at_ns + 1000)).expect("framed data packet")
}

/// Drains the receiver's control queue into the sender.
pub(crate) fn relay_ctl(r: &mut NetworkInterface, s: &mut NetworkInterface, at_ns: u64) -> usize {
    let mut n = 0;
    while let Some(mp) = r.pop_outgoing(t(at_ns)) {
        s.accept_packet(t(at_ns), mp).unwrap();
        n += 1;
    }
    n
}
