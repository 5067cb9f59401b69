//! Property-based tests of the core invariants the paper relies on.

use proptest::prelude::*;

use shrimp::mem::{PAGE_SIZE, PageNum, PhysAddr};
use shrimp::mesh::{MeshConfig, MeshNetwork, MeshPacket, MeshShape, NodeId};
use shrimp::nic::packet::crc32;
use shrimp::nic::{Nipt, OutSegment, ShrimpPacket, UpdatePolicy, WireHeader};
use shrimp::sim::{EventQueue, SimTime};

proptest! {
    /// Every injected packet is delivered, to the right node, with its
    /// payload intact — under arbitrary traffic patterns.
    #[test]
    fn mesh_delivers_everything(
        w in 1u16..5,
        h in 1u16..5,
        sends in prop::collection::vec((0u16..25, 0u16..25, 1usize..200), 1..40),
    ) {
        let shape = MeshShape::new(w, h);
        let n = shape.nodes();
        let mut net = MeshNetwork::new(MeshConfig::paragon(shape));
        let mut expected: Vec<(NodeId, u8)> = Vec::new();
        let mut now = SimTime::ZERO;
        for (i, &(src, dst, len)) in sends.iter().enumerate() {
            let src = NodeId(src % n);
            let dst = NodeId(dst % n);
            let tag = i as u8;
            let mut pkt: MeshPacket = MeshPacket::new(src, dst, vec![tag; len]);
            loop {
                net.advance(now);
                match net.try_inject(now, pkt) {
                    Ok(()) => break,
                    Err(refused) => pkt = refused,
                }
                match net.next_event_time() {
                    Some(t) => {
                        net.advance(t);
                        now = now.max(t);
                    }
                    None => {
                        // Fully backpressured: drain one delivery.
                        let mut drained = false;
                        for node in shape.iter_nodes() {
                            if let Some((p, _)) = net.eject(now, node) {
                                let pos = expected
                                    .iter()
                                    .position(|&(en, et)| en == node && et == p.payload()[0]);
                                prop_assert!(pos.is_some(), "unexpected delivery");
                                expected.remove(pos.unwrap());
                                drained = true;
                                break;
                            }
                        }
                        prop_assert!(drained, "no progress possible");
                    }
                }
            }
            expected.push((dst, tag));
        }
        // Drain everything.
        loop {
            while let Some(t) = net.next_event_time() {
                net.advance(t);
            }
            let mut any = false;
            for node in shape.iter_nodes() {
                while let Some((p, _)) = net.eject(net.now(), node) {
                    prop_assert_eq!(p.dst(), node);
                    let pos = expected
                        .iter()
                        .position(|&(en, et)| en == node && et == p.payload()[0]);
                    prop_assert!(pos.is_some(), "unexpected delivery");
                    expected.remove(pos.unwrap());
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        prop_assert!(expected.is_empty(), "undelivered: {:?}", expected);
        prop_assert!(net.is_idle());
    }

    /// Per-(src, dst) pair, delivery preserves injection order.
    #[test]
    fn mesh_preserves_pair_order(count in 2usize..30, len in 1usize..64) {
        let shape = MeshShape::new(3, 3);
        let mut net = MeshNetwork::new(MeshConfig::paragon(shape));
        let mut now = SimTime::ZERO;
        let mut got = Vec::new();
        for i in 0..count {
            let mut pkt: MeshPacket = MeshPacket::new(NodeId(0), NodeId(8), vec![i as u8; len]);
            loop {
                net.advance(now);
                match net.try_inject(now, pkt) {
                    Ok(()) => break,
                    Err(refused) => pkt = refused,
                }
                match net.next_event_time() {
                    Some(t) => { net.advance(t); now = now.max(t); }
                    None => {
                        let (p, _) = net.eject(now, NodeId(8)).expect("must drain");
                        got.push(p.payload()[0]);
                    }
                }
            }
        }
        loop {
            while let Some(t) = net.next_event_time() { net.advance(t); }
            match net.eject(net.now(), NodeId(8)) {
                Some((p, _)) => got.push(p.payload()[0]),
                None => break,
            }
        }
        let want: Vec<u8> = (0..count as u8).collect();
        prop_assert_eq!(got, want);
    }

    /// SHRIMP packets survive an encode/decode roundtrip for arbitrary
    /// contents.
    #[test]
    fn packet_roundtrip(
        x in 0u16..16,
        y in 0u16..16,
        src in 0u16..256,
        addr in 0u64..(1 << 40),
        payload in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        let p = ShrimpPacket::new(
            WireHeader {
                dst_coord: shrimp::mesh::MeshCoord { x, y },
                src: NodeId(src),
                dst_addr: PhysAddr::new(addr),
            },
            payload.clone(),
        );
        let d = ShrimpPacket::decode(&p.encode()).unwrap();
        prop_assert_eq!(d.header(), p.header());
        prop_assert_eq!(d.payload(), &payload[..]);
    }

    /// Any single-bit corruption of an encoded packet is detected, up to
    /// past a page of payload, so a flip can land in every stripe of
    /// the CRC's blocks and in the bytes after them.
    #[test]
    fn crc_catches_single_bit_flips(
        payload in prop::collection::vec(any::<u8>(), 0..=4200),
        flip_byte in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let p = ShrimpPacket::new(
            WireHeader {
                dst_coord: shrimp::mesh::MeshCoord { x: 1, y: 1 },
                src: NodeId(0),
                dst_addr: PhysAddr::new(0x1000),
            },
            payload,
        );
        let mut wire = p.encode();
        prop_assert!(ShrimpPacket::decode(&wire).is_ok());
        let i = flip_byte.index(wire.len());
        wire[i] ^= 1 << flip_bit;
        prop_assert!(ShrimpPacket::decode(&wire).is_err());
    }

    /// `crc32` equals the CRC-32 computed one bit at a time (no table)
    /// at random lengths up to past two pages, from random start
    /// offsets.
    #[test]
    fn crc_matches_bitwise_reference(
        data in prop::collection::vec(any::<u8>(), 0..=9000),
        start in 0usize..16,
    ) {
        let data = &data[start.min(data.len())..];
        let mut state = !0u32;
        for &byte in data {
            state ^= u32::from(byte);
            for _ in 0..8 {
                state = (state >> 1) ^ (0xedb8_8320 & (state & 1).wrapping_neg());
            }
        }
        prop_assert_eq!(crc32(data), !state);
    }

    /// The event queue pops in nondecreasing time order, FIFO within a
    /// tie, for arbitrary schedules.
    #[test]
    fn event_queue_total_order(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_picos(t), (t, i));
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some((at, (t, i))) = q.pop() {
            prop_assert_eq!(at.as_picos(), t);
            if let Some((lt, li)) = last {
                prop_assert!(t > lt || (t == lt && i > li), "order violated");
            }
            last = Some((t, i));
        }
    }

    /// NIPT split mappings translate every covered byte to the right
    /// destination and reject overlaps.
    #[test]
    fn nipt_split_translation(split in 4u64..(PAGE_SIZE - 4)) {
        let split = split & !3; // word-aligned split
        let mut nipt = Nipt::new(4);
        let page = PageNum::new(1);
        let low = OutSegment {
            src_start: 0,
            src_end: split,
            dst_node: NodeId(1),
            dst_base: PageNum::new(7).at_offset(PAGE_SIZE - split),
            policy: UpdatePolicy::AutomaticSingle,
        };
        let high = OutSegment {
            src_start: split,
            src_end: PAGE_SIZE,
            dst_node: NodeId(2),
            dst_base: PageNum::new(9).base(),
            policy: UpdatePolicy::Deliberate,
        };
        nipt.set_out_segment(page, low).unwrap();
        nipt.set_out_segment(page, high).unwrap();
        for off in (0..PAGE_SIZE).step_by(64) {
            let seg = nipt.lookup_out(page.at_offset(off)).expect("covered");
            if off < split {
                prop_assert_eq!(seg.dst_node, NodeId(1));
                prop_assert_eq!(
                    seg.translate(off),
                    PageNum::new(7).at_offset(PAGE_SIZE - split + off)
                );
            } else {
                prop_assert_eq!(seg.dst_node, NodeId(2));
                prop_assert_eq!(
                    seg.translate(off),
                    PageNum::new(9).at_offset(off - split)
                );
            }
        }
        // Any overlapping third segment is refused.
        let overlap = OutSegment {
            src_start: split / 2,
            src_end: split / 2 + 8,
            dst_node: NodeId(3),
            dst_base: PageNum::new(3).base(),
            policy: UpdatePolicy::AutomaticSingle,
        };
        prop_assert!(nipt.set_out_segment(page, overlap).is_err());
    }
}

/// Arbitrary (offset, length) mappings deliver bytes to exactly the right
/// place — the §3.2 claim that split pages "can accommodate all
/// mappings, including those which are not page-aligned".
#[test]
fn arbitrary_alignment_mappings_land_correctly() {
    use shrimp::{Machine, MachineConfig, MapRequest};
    // A few hand-picked awkward geometries (full proptest over machines
    // would be slow; these cover the boundary cases).
    let cases = [
        (0u64, 0u64, 4096u64),
        (1024, 0, 4096),
        (0, 1024, 4096),
        (512, 3584, 1024),
        (2048, 2048, 8192),
        (4, 4092, 8),
    ];
    for &(src_off, dst_off, len) in &cases {
        let mut m = Machine::new(MachineConfig::two_nodes());
        let s = m.create_process(NodeId(0));
        let r = m.create_process(NodeId(1));
        let src_va = m.alloc_pages(NodeId(0), s, 4).unwrap();
        let rcv_va = m.alloc_pages(NodeId(1), r, 4).unwrap();
        let export = m.export_buffer(NodeId(1), r, rcv_va, 4, None).unwrap();
        m.map(MapRequest {
            src_node: NodeId(0),
            src_pid: s,
            src_va: src_va.add(src_off),
            dst_node: NodeId(1),
            export,
            dst_offset: dst_off,
            len,
            policy: UpdatePolicy::AutomaticSingle,
        })
        .unwrap_or_else(|e| panic!("map({src_off},{dst_off},{len}) failed: {e}"));
        let data: Vec<u8> = (0..len).map(|i| (i % 239 + 1) as u8).collect();
        m.poke(NodeId(0), s, src_va.add(src_off), &data).unwrap();
        m.run_until_idle().unwrap();
        let got = m.peek(NodeId(1), r, rcv_va.add(dst_off), len).unwrap();
        assert_eq!(got, data, "case ({src_off},{dst_off},{len})");
    }
}
