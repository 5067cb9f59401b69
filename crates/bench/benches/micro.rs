//! Criterion micro-benchmarks of the hot data structures.
//!
//! These are not paper results; they keep the simulator's own fast paths
//! honest (the snoop-path NIPT lookup runs once per bus write, the event
//! queue once per simulated event).

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use shrimp_cpu::{Assembler, Cpu, FlatMemory, Reg};
use shrimp_mem::{CacheConfig, CacheModel, PageNum, PhysAddr, Tlb, VirtPageNum};
use shrimp_mesh::{MeshShape, NodeId};
use shrimp_nic::packet::crc32;
use shrimp_nic::{
    FrameKind, LinkCtl, Nipt, OutSegment, PacketFifo, ShrimpPacket, UpdatePolicy, WireHeader,
};
use shrimp_sim::{EventQueue, SimDuration, SimTime};

fn bench_crc32(c: &mut Criterion) {
    let page = vec![0xa5u8; 4096];
    c.bench_function("crc32/4096B", |b| b.iter(|| crc32(black_box(&page))));
    // The session workloads' rpc and fanout payload sizes.
    for len in [256, 512] {
        c.bench_function(&format!("crc32/{len}B"), |b| {
            b.iter(|| crc32(black_box(&page[..len])))
        });
    }
    let word = [0x5au8; 22];
    c.bench_function("crc32/22B_packet", |b| b.iter(|| crc32(black_box(&word))));
}

fn bench_packet(c: &mut Criterion) {
    // What go-back-N pays per reliable data packet: framing a page-sized
    // packet extends its CRC over the 5-byte trailer only.
    let header = WireHeader {
        dst_coord: shrimp_mesh::MeshCoord { x: 1, y: 0 },
        src: NodeId(0),
        dst_addr: PhysAddr::new(0x4000),
    };
    let packet = ShrimpPacket::new(header, vec![0xa5u8; 4096]);
    let link = LinkCtl {
        kind: FrameKind::Data,
        seq: 7,
    };
    c.bench_function("packet/frame_4096B", |b| {
        b.iter_batched(|| packet.clone(), |p| p.framed(link), BatchSize::SmallInput)
    });
    // What the receiving NIC pays per packet: the whole CRC again.
    c.bench_function("packet/verify_4096B", |b| {
        b.iter(|| black_box(&packet).verify_crc())
    });
}

fn bench_nipt(c: &mut Criterion) {
    let mut nipt = Nipt::new(1024);
    for p in 0..1024u64 {
        if p % 3 == 0 {
            nipt.set_out_segment(
                PageNum::new(p),
                OutSegment::full_page(NodeId(1), PageNum::new(p), UpdatePolicy::AutomaticSingle),
            )
            .expect("segment");
        }
    }
    c.bench_function("nipt/lookup_out", |b| {
        let mut addr = 0u64;
        b.iter(|| {
            addr = (addr + 4096 + 4) % (1024 * 4096);
            black_box(nipt.lookup_out(PhysAddr::new(addr)))
        })
    });
}

fn bench_fifo(c: &mut Criterion) {
    let header = WireHeader {
        dst_coord: shrimp_mesh::MeshCoord { x: 0, y: 0 },
        src: NodeId(0),
        dst_addr: PhysAddr::new(0),
    };
    c.bench_function("fifo/push_pop", |b| {
        b.iter_batched(
            || {
                (
                    PacketFifo::new(64 * 1024, 32 * 1024),
                    ShrimpPacket::new(header, vec![0u8; 64]),
                )
            },
            |(mut fifo, pkt)| {
                for _ in 0..32 {
                    fifo.try_push(SimTime::ZERO, pkt.clone()).expect("fits");
                }
                while fifo.pop().is_some() {}
                fifo
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_event_queue(c: &mut Criterion) {
    fn push_pop_1k(time: impl Fn(u64) -> u64) -> u64 {
        let mut q = EventQueue::with_capacity(1024);
        for i in 0..1024u64 {
            q.push(SimTime::from_picos(time(i)), i);
        }
        let mut sum = 0u64;
        while let Some((_, e)) = q.pop() {
            sum = sum.wrapping_add(e);
        }
        sum
    }
    // Scattered times: most pushes go to the heap.
    c.bench_function("event_queue/push_pop_1k", |b| {
        b.iter(|| push_pop_1k(|i| (i * 7919) % 4096))
    });
    // Nondecreasing times: every push joins a lane.
    c.bench_function("event_queue/in_order_1k", |b| {
        b.iter(|| push_pop_1k(|i| i * 4))
    });
    // `auto_stream`'s shape: 200k merge deadlines pending while pops and
    // in-order pushes alternate; one iteration is one pop and one push.
    const DEPTH: u64 = 200_000;
    let mut q = EventQueue::new();
    for i in 0..DEPTH {
        q.push(SimTime::from_picos(i * 60), i);
    }
    c.bench_function("event_queue/deep_in_order", |b| {
        b.iter(|| {
            let (t, e) = q.pop().expect("the queue stays DEPTH deep");
            q.push(t + SimDuration::from_picos(DEPTH * 60), e);
            e
        })
    });
}

fn bench_mesh_route(c: &mut Criterion) {
    let shape = MeshShape::new(8, 8);
    c.bench_function("mesh/route_64_nodes", |b| {
        b.iter(|| {
            let mut hops = 0u32;
            for a in 0..64u16 {
                for z in 0..64u16 {
                    hops += shape.hops(NodeId(a), NodeId(z)) as u32;
                }
            }
            hops
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache/load_stream", |b| {
        b.iter_batched(
            || CacheModel::new(CacheConfig::pentium_l2()),
            |mut cache| {
                for i in 0..4096u64 {
                    cache.load(PhysAddr::new((i * 32) % (512 * 1024)));
                }
                cache
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_tlb(c: &mut Criterion) {
    c.bench_function("tlb/lookup_hit", |b| {
        let mut tlb = Tlb::new(64);
        for i in 0..64u64 {
            tlb.insert(
                VirtPageNum::new(i),
                PageNum::new(i),
                shrimp_mem::PageFlags::default(),
            );
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 64;
            black_box(tlb.lookup(VirtPageNum::new(i)))
        })
    });
    // The store path's real pattern: after the first word of a page,
    // every lookup is for the page just used (the MRU entry).
    c.bench_function("tlb/lookup_same_page", |b| {
        let mut tlb = Tlb::new(64);
        for i in 0..64u64 {
            tlb.insert(
                VirtPageNum::new(i),
                PageNum::new(i),
                shrimp_mem::PageFlags::default(),
            );
        }
        let page = VirtPageNum::new(0);
        b.iter(|| {
            for _ in 0..1024 {
                black_box(tlb.lookup(black_box(page)));
            }
        })
    });
}

fn bench_cpu(c: &mut Criterion) {
    c.bench_function("cpu/tight_loop_1k", |b| {
        let mut asm = Assembler::new();
        asm.li(Reg::R1, 1000)
            .label("loop")
            .addi(Reg::R1, -1)
            .cmpi(Reg::R1, 0)
            .jnz("loop")
            .halt();
        let program = asm.assemble().expect("assembles");
        b.iter_batched(
            || (Cpu::new(program.clone()), FlatMemory::new(64)),
            |(mut cpu, mut mem)| {
                cpu.run_to_halt(SimTime::ZERO, &mut mem, 10_000).expect("halts");
                cpu
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_crc32,
    bench_packet,
    bench_nipt,
    bench_fifo,
    bench_event_queue,
    bench_mesh_route,
    bench_cache,
    bench_tlb,
    bench_cpu
);
criterion_main!(benches);
