//! Multi-node consistency-protocol tests (paper §4.4) at the kernel
//! level, with the test harness playing the message transport.

use shrimp_mem::{PageNum, Protection, VirtPageNum};
use shrimp_mesh::NodeId;
use shrimp_os::kernel::OutgoingRecord;
use shrimp_os::{Kernel, KernelMsg, Pid};

/// The sender half of a one-page `map` of `vpn` into `dst_frame` on
/// node 0: write-through caching plus the segment's record.
fn map_out(k: &mut Kernel, pid: Pid, vpn: VirtPageNum, dst_frame: PageNum) {
    let src = k.prepare_out_mapping(pid, vpn, 1).unwrap();
    k.add_outgoing_record(OutgoingRecord {
        dst_node: NodeId(0),
        dst_frame,
        pid,
        vpn,
        src_frame: src[0],
    });
}

/// Builds one receiver and `n` sender kernels all importing the same
/// receiver frame.
fn world(n: u16) -> (Kernel, Vec<(Kernel, Pid, VirtPageNum)>, PageNum) {
    let mut recv = Kernel::new(NodeId(0), 32);
    let rpid = recv.create_process();
    let rbuf = recv.alloc_pages(rpid, 1).unwrap();
    let export = recv.export_buffer(rpid, rbuf, 1, None).unwrap();
    let frame = recv.frame_of(rpid, rbuf).unwrap();

    let mut senders = Vec::new();
    for i in 1..=n {
        let mut k = Kernel::new(NodeId(i), 32);
        let pid = k.create_process();
        let buf = k.alloc_pages(pid, 1).unwrap();
        let token = recv.grant_in_mapping(export, NodeId(i), 0, 1).unwrap();
        map_out(&mut k, pid, buf, token.frames[0]);
        senders.push((k, pid, buf));
    }
    (recv, senders, frame)
}

#[test]
fn shootdown_with_three_importers() {
    let (mut recv, mut senders, frame) = world(3);
    assert_eq!(recv.importers_of(frame).len(), 3);

    let msgs = recv.begin_pageout(frame).unwrap();
    assert_eq!(msgs.len(), 3, "one invalidation per importer");
    assert_eq!(recv.pending_acks(frame).len(), 3);

    // Deliver invalidations out of order; collect acks.
    let mut acks = Vec::new();
    for &(dst, msg) in msgs.iter().rev() {
        let sender = senders
            .iter_mut()
            .find(|(k, _, _)| k.node() == dst)
            .expect("message addressed to a sender");
        let (replies, scrub) = sender.0.handle_msg(msg);
        assert_eq!(replies.len(), 1);
        assert_eq!(scrub.len(), 1);
        // The source page is now read-only.
        let (_, flags) = sender
            .0
            .process(sender.1)
            .unwrap()
            .page_table()
            .entry(sender.2)
            .unwrap();
        assert_eq!(flags.protection, Protection::ReadOnly);
        acks.extend(replies);
    }

    // Completion requires every ack.
    for (i, ack) in acks.iter().enumerate() {
        assert!(!recv.pageout_complete(frame), "incomplete after {i} acks");
        recv.handle_msg(*ack);
    }
    assert!(recv.pageout_complete(frame));
    recv.complete_pageout(frame).unwrap();
    assert!(recv.importers_of(frame).is_empty());

    // Each sender independently re-establishes on its next fault.
    for (k, pid, buf) in &mut senders {
        let rec = k.handle_write_fault(*pid, buf.base()).unwrap();
        assert_eq!(rec.dst_node, NodeId(0));
    }
}

#[test]
fn unrelated_mappings_survive_a_shootdown() {
    let (mut recv, mut senders, frame) = world(2);
    // Sender 1 also maps a second, unrelated page out.
    let (k, pid, _) = &mut senders[0];
    let other = k.alloc_pages(*pid, 1).unwrap();
    map_out(k, *pid, other, PageNum::new(9));

    let msgs = recv.begin_pageout(frame).unwrap();
    for &(dst, msg) in &msgs {
        if dst == senders[0].0.node() {
            let (_, scrub) = senders[0].0.handle_msg(msg);
            assert_eq!(scrub.len(), 1, "only the targeted mapping is scrubbed");
        }
    }
    // The unrelated page stays read-write.
    let (k, pid, _) = &senders[0];
    let (_, flags) = k.process(*pid).unwrap().page_table().entry(other).unwrap();
    assert_eq!(flags.protection, Protection::ReadWrite);
}

#[test]
fn release_import_counts_down_to_the_last_importer() {
    let mut recv = Kernel::new(NodeId(0), 16);
    let rpid = recv.create_process();
    let rbuf = recv.alloc_pages(rpid, 1).unwrap();
    let export = recv.export_buffer(rpid, rbuf, 1, None).unwrap();
    let t1 = recv.grant_in_mapping(export, NodeId(1), 0, 1).unwrap();
    let _t2 = recv.grant_in_mapping(export, NodeId(2), 0, 1).unwrap();
    let frame = t1.frames[0];

    assert!(!recv.release_import(frame, NodeId(1)), "node 2 still imports");
    assert!(recv.release_import(frame, NodeId(2)), "last importer gone");
}

#[test]
fn ensure_mapped_pages_back_in() {
    let mut k = Kernel::new(NodeId(0), 16);
    let pid = k.create_process();
    let buf = k.alloc_pages(pid, 1).unwrap();
    let frame = k.frame_of(pid, buf).unwrap();
    // Simulate a completed pageout by hand: grant, invalidate, complete.
    let export = k.export_buffer(pid, buf, 1, None).unwrap();
    k.grant_in_mapping(export, NodeId(1), 0, 1).unwrap();
    let msgs = k.begin_pageout(frame).unwrap();
    assert_eq!(msgs.len(), 1);
    k.handle_msg(KernelMsg::InvalidateAck {
        from: NodeId(1),
        frame,
    });
    k.complete_pageout(frame).unwrap();
    assert!(k.frame_of(pid, buf).is_err(), "page is out");

    let new_frame = k.ensure_mapped(pid, buf).unwrap();
    assert_eq!(k.frame_of(pid, buf).unwrap(), new_frame);
    // Idempotent.
    assert_eq!(k.ensure_mapped(pid, buf).unwrap(), new_frame);
}
