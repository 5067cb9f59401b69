//! Property-based tests of the network interface invariants.

use proptest::prelude::*;

use shrimp_mem::{PageNum, PhysAddr, PAGE_SIZE};
use shrimp_mesh::{MeshCoord, MeshShape, NodeId};
use shrimp_nic::{
    crc32, pooled_payload, CommandOp, Crc32, FrameKind, LinkCtl, NetworkInterface, NicConfig,
    OutSegment, PacketFifo, Payload, ShrimpPacket, UpdatePolicy, WireHeader, INLINE_PAYLOAD_MAX,
};
use shrimp_sim::{SimDuration, SimTime};

fn nic() -> NetworkInterface {
    NetworkInterface::new(NodeId(0), MeshShape::new(2, 1), NicConfig::default(), 64)
}

proptest! {
    /// The Outgoing FIFO's byte accounting is exact under any push/pop
    /// interleaving, and capacity is never exceeded.
    #[test]
    fn fifo_byte_accounting(ops in prop::collection::vec((any::<bool>(), 0usize..600), 1..200)) {
        let mut fifo = PacketFifo::new(4096, 2048);
        let header = WireHeader {
            dst_coord: MeshCoord { x: 0, y: 0 },
            src: NodeId(0),
            dst_addr: PhysAddr::new(0),
        };
        let mut model: Vec<u64> = Vec::new();
        for (push, len) in ops {
            if push {
                let pkt = ShrimpPacket::new(header, vec![0u8; len]);
                let wire = pkt.wire_len();
                match fifo.try_push(SimTime::ZERO, pkt) {
                    Ok(()) => model.push(wire),
                    Err(_) => {
                        prop_assert!(model.iter().sum::<u64>() + wire > 4096, "refusal only when full");
                    }
                }
            } else if let Some((pkt, _)) = fifo.pop() {
                let expect = model.remove(0);
                prop_assert_eq!(pkt.wire_len(), expect, "FIFO order");
            } else {
                prop_assert!(model.is_empty());
            }
            prop_assert_eq!(fifo.bytes(), model.iter().sum::<u64>());
            prop_assert!(fifo.bytes() <= 4096);
            prop_assert_eq!(fifo.len(), model.len());
        }
    }

    /// Every decodable command round-trips; undecodable words are
    /// rejected, never misinterpreted.
    #[test]
    fn command_decode_total(value in any::<u32>()) {
        match CommandOp::decode(value) {
            Ok(op) => prop_assert_eq!(op.encode() >> 26, value >> 26, "opcode preserved"),
            Err(_) => {
                let op = value >> 26;
                prop_assert!(
                    op > 3 || (op == 0 && value & ((1 << 26) - 1) == 0)
                        || (op == 1 && (value & ((1 << 26) - 1)) > 2),
                    "only genuinely invalid encodings error: {value:#x}"
                );
            }
        }
    }

    /// Blocked-write merging never loses or reorders bytes: any store
    /// sequence to a mapped page produces packets that replay to exactly
    /// the stored data.
    #[test]
    fn blocked_write_merging_preserves_data(
        // Word-aligned stores at increasing offsets with random gaps and delays.
        stores in prop::collection::vec((0u64..16, 0u64..2000, any::<u32>()), 1..60),
    ) {
        let mut n = nic();
        n.nipt_mut()
            .set_out_segment(
                PageNum::new(3),
                OutSegment::full_page(NodeId(1), PageNum::new(9), UpdatePolicy::AutomaticBlocked),
            )
            .unwrap();
        // Model of the remote page.
        let mut expect = vec![0u8; PAGE_SIZE as usize];
        let mut offset = 0u64;
        let mut now = SimTime::ZERO;
        let mut wrote = Vec::new();
        for (gap_words, delay_ns, value) in stores {
            offset += gap_words * 4;
            if offset + 4 > PAGE_SIZE {
                break;
            }
            now += SimDuration::from_ns(delay_ns);
            n.snoop_write(now, PageNum::new(3).at_offset(offset), &value.to_le_bytes());
            expect[offset as usize..offset as usize + 4].copy_from_slice(&value.to_le_bytes());
            wrote.push(offset);
            offset += 4;
        }
        // Flush and replay all packets into a model page.
        n.poll(now + SimDuration::from_us(100));
        let mut replay = vec![0u8; PAGE_SIZE as usize];
        let far = SimTime::from_picos(u64::MAX / 2);
        while let Some(mp) = n.pop_outgoing(far) {
            let p = mp.into_payload();
            prop_assert!(p.verify_crc());
            let off = p.header().dst_addr.offset() as usize;
            replay[off..off + p.payload().len()].copy_from_slice(p.payload());
        }
        for &o in &wrote {
            let o = o as usize;
            prop_assert_eq!(&replay[o..o + 4], &expect[o..o + 4], "bytes at {}", o);
        }
    }

    /// The incoming threshold gate is sound: acceptance stops at or
    /// above the threshold and always resumes after draining.
    #[test]
    fn incoming_threshold_gate(sizes in prop::collection::vec(16usize..1500, 1..40)) {
        let mut n = nic();
        n.nipt_mut().set_mapped_in(PageNum::new(4), true).unwrap();
        let mut accepted = 0u64;
        for (i, len) in sizes.iter().enumerate() {
            if !n.can_accept_from_network() {
                break;
            }
            let p = ShrimpPacket::new(
                WireHeader {
                    dst_coord: n.coord(),
                    src: NodeId(1),
                    dst_addr: PageNum::new(4).base(),
                },
                vec![i as u8; *len],
            );
            let mp = shrimp_mesh::MeshPacket::new(NodeId(1), NodeId(0), p);
            n.accept_packet(SimTime::ZERO, mp).unwrap();
            accepted += 1;
            prop_assert!(n.in_fifo_bytes() <= n.config().in_fifo_bytes);
        }
        // Drain fully: acceptance must resume.
        let far = SimTime::from_picos(u64::MAX / 2);
        let mut drained = 0u64;
        while let Some(r) = n.pop_incoming(far) {
            r.unwrap();
            drained += 1;
        }
        prop_assert_eq!(drained, accepted);
        prop_assert!(n.can_accept_from_network());
    }
    /// Line-noise soundness: any combination of 1–4 distinct bit flips
    /// anywhere on the wire image — header, payload, link trailer or
    /// the CRC word itself — must fail the CRC check and be rejected by
    /// `accept_packet`. Payloads stay under 300 bytes so the whole
    /// frame is inside CRC-32's Hamming-distance-5 length bound and
    /// four flips are guaranteed detectable.
    #[test]
    fn bit_flips_are_always_detected(
        payload in prop::collection::vec(any::<u8>(), 0usize..300),
        raw_bits in prop::collection::vec(any::<u64>(), 1usize..5),
        seq in any::<u32>(),
        framed in any::<bool>(),
    ) {
        let mut n = nic();
        n.nipt_mut().set_mapped_in(PageNum::new(4), true).unwrap();
        let header = WireHeader {
            dst_coord: n.coord(),
            src: NodeId(1),
            dst_addr: PageNum::new(4).base(),
        };
        let mut pkt = if framed {
            ShrimpPacket::with_link(header, payload, LinkCtl { kind: FrameKind::Data, seq })
        } else {
            ShrimpPacket::new(header, payload)
        };
        prop_assert!(pkt.verify_crc());

        // Reduce to the distinct wire bits flipped an odd number of
        // times; an even count cancels itself out.
        let total_bits = pkt.wire_len() * 8;
        let mut counts = std::collections::BTreeMap::new();
        for b in raw_bits {
            *counts.entry(b % total_bits).or_insert(0u32) += 1;
        }
        let bits: Vec<u64> = counts
            .into_iter()
            .filter(|&(_, c)| c % 2 == 1)
            .map(|(b, _)| b)
            .collect();
        if bits.is_empty() {
            return Ok(());
        }
        for &b in &bits {
            pkt.corrupt_bit(b);
        }
        prop_assert!(!pkt.verify_crc(), "flips {bits:?} slipped past the CRC");

        let before = n.stats().crc_drops;
        let mp = shrimp_mesh::MeshPacket::new(NodeId(1), NodeId(0), pkt);
        prop_assert!(
            n.accept_packet(SimTime::ZERO, mp).is_err(),
            "accept_packet swallowed a corrupted frame (flips {bits:?})"
        );
        prop_assert_eq!(n.stats().crc_drops, before + 1);
    }

    /// The streaming checksum agrees with encode()-then-checksum for
    /// arbitrary packets, framed or not, no matter how the bytes are
    /// chunked on their way into the hasher.
    #[test]
    fn streamed_crc_matches_block_crc(
        payload in prop::collection::vec(any::<u8>(), 0usize..600),
        chunks in prop::collection::vec(1usize..97, 0usize..40),
        seq in any::<u32>(),
        framed in any::<bool>(),
    ) {
        let header = WireHeader {
            dst_coord: MeshCoord { x: 1, y: 0 },
            src: NodeId(0),
            dst_addr: PhysAddr::new(0x2468),
        };
        let pkt = if framed {
            ShrimpPacket::with_link(header, payload, LinkCtl { kind: FrameKind::Nack, seq })
        } else {
            ShrimpPacket::new(header, payload)
        };
        let encoded = pkt.encode();
        let body = &encoded[..encoded.len() - 4];

        // The packet's stored CRC (computed by streaming header, payload
        // and trailer separately) equals the block checksum of the
        // serialized body.
        prop_assert_eq!(pkt.crc(), crc32(body));
        prop_assert!(pkt.verify_crc());

        // Feeding the same bytes in arbitrary chunk sizes changes nothing.
        let mut streamed = Crc32::new();
        let mut off = 0;
        for c in chunks {
            if off >= body.len() {
                break;
            }
            let end = (off + c).min(body.len());
            streamed.update(&body[off..end]);
            off = end;
        }
        streamed.update(&body[off..]);
        prop_assert_eq!(streamed.finish(), pkt.crc());

        // And the wire image round-trips.
        let back = ShrimpPacket::decode(&encoded).expect("decode");
        prop_assert_eq!(back, pkt);
    }

    /// Framing by resuming the stored CRC over the trailer builds the
    /// very packet `with_link` builds by re-reading the whole body, for
    /// any header, payload representation and frame kind; the stamp
    /// rides along; and a flipped bit anywhere on the framed wire image
    /// still fails the check.
    #[test]
    fn framed_equals_with_link(
        x in 0u16..64,
        y in 0u16..64,
        src in any::<u16>(),
        dst_addr in any::<u64>(),
        repr in 0u8..4,
        len in 0usize..4200,
        fill in any::<u8>(),
        kind in 0u8..3,
        seq in any::<u32>(),
        payload_bits in prop::collection::vec(any::<u64>(), 1usize..8),
    ) {
        let header = WireHeader {
            dst_coord: MeshCoord { x, y },
            src: NodeId(src),
            dst_addr: PhysAddr::new(dst_addr),
        };
        let bytes = |n: usize| (0..n).map(|i| fill.wrapping_add(i as u8)).collect::<Vec<u8>>();
        let payload = match repr {
            0 => Payload::default(),
            1 => Payload::copy_from_slice(&bytes(len % (INLINE_PAYLOAD_MAX + 1))),
            2 => {
                let n = INLINE_PAYLOAD_MAX + 1 + len;
                pooled_payload(n, |b| b.copy_from_slice(&bytes(n)))
            }
            _ => Payload::from(bytes(len)),
        };
        let kind = [FrameKind::Data, FrameKind::Ack, FrameKind::Nack][kind as usize];
        let link = LinkCtl { kind, seq };

        let mut plain = ShrimpPacket::new(header, payload.clone());
        plain.stamp.born = SimTime::from_picos(seq as u64);
        let framed = plain.clone().framed(link);
        let reference = ShrimpPacket::with_link(header, payload, link);
        prop_assert_eq!(&framed, &reference);
        prop_assert_eq!(framed.crc(), reference.crc());
        prop_assert_eq!(framed.stamp, plain.stamp);
        prop_assert!(framed.verify_crc());
        prop_assert_eq!(ShrimpPacket::decode(&framed.encode()).expect("decode"), reference);

        // Every bit outside the payload, plus random payload bits.
        let wire_bits = framed.wire_len() * 8;
        let body_start = WireHeader::WIRE_BYTES * 8;
        let body_end = body_start + framed.payload().len() as u64 * 8;
        let bits = (0..body_start)
            .chain(body_end..wire_bits)
            .chain(payload_bits.iter().filter(|_| body_end > body_start).map(|b| {
                body_start + b % (body_end - body_start)
            }));
        for bit in bits {
            let mut bad = framed.clone();
            bad.corrupt_bit(bit);
            prop_assert!(!bad.verify_crc(), "bit {} of {} slipped past the CRC", bit, wire_bits);
        }
    }
}

#[test]
fn stats_never_lie_about_conservation() {
    // Deterministic end-to-end conservation check on the NIC alone:
    // packets out == packets queued, bytes preserved.
    let mut n = nic();
    n.nipt_mut()
        .set_out_segment(
            PageNum::new(2),
            OutSegment::full_page(NodeId(1), PageNum::new(7), UpdatePolicy::AutomaticSingle),
        )
        .unwrap();
    let mut bytes = 0;
    for i in 0..200u64 {
        let off = (i * 4) % PAGE_SIZE;
        n.snoop_write(
            SimTime::from_picos(i * 1000),
            PageNum::new(2).at_offset(off),
            &(i as u32).to_le_bytes(),
        );
        bytes += 4;
    }
    let far = SimTime::from_picos(u64::MAX / 2);
    let mut popped = 0;
    let mut popped_bytes = 0;
    while let Some(mp) = n.pop_outgoing(far) {
        let p = mp.into_payload();
        popped += 1;
        popped_bytes += p.payload().len() as u64;
    }
    let stats = n.stats();
    assert_eq!(stats.packets_sent, popped);
    assert_eq!(stats.bytes_sent, popped_bytes);
    assert_eq!(popped_bytes, bytes);
}
