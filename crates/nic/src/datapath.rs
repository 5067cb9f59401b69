//! The update datapath: snooped automatic updates and command-initiated
//! deliberate updates (paper §4.2–§4.3).
//!
//! Snooped bus writes enter here ([`NetworkInterface::snoop_write`]),
//! merge into blocked-write packets or packetize immediately, and leave
//! through the Outgoing FIFO (see [`crate::outgoing`]). Command-space
//! cycles ([`NetworkInterface::command_write`] /
//! [`NetworkInterface::command_read`]) drive the deliberate-update DMA
//! engine.

use shrimp_mem::{PageNum, PhysAddr, WORD_SIZE};
use shrimp_sim::{SimDuration, SimTime};

use crate::command::CommandOp;
use crate::error::NicError;
use crate::nic::NetworkInterface;
use crate::nipt::{OutSegment, UpdatePolicy};
use crate::packet::Payload;

/// What the NIC did with one snooped bus write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnoopOutcome {
    /// The address is not mapped out (or is mapped for deliberate update):
    /// the write is an ordinary memory write.
    Ignored,
    /// A packet was queued in the Outgoing FIFO (single-write automatic
    /// update, or a blocked-write flush).
    Queued,
    /// The write joined (or opened) a pending blocked-write packet.
    Merged,
    /// The Outgoing FIFO could not take the packet: the CPU must stall
    /// until the FIFO drains (paper §4). The data is buffered and will be
    /// queued by [`NetworkInterface::poll`] once space frees.
    Stalled,
}

impl SnoopOutcome {
    /// True when the write produced or joined an outgoing packet.
    pub fn queued(self) -> bool {
        matches!(self, SnoopOutcome::Queued | SnoopOutcome::Merged)
    }
}

/// The effect of a command-page write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandEffect {
    /// A deliberate-update transfer was started; the packet will be ready
    /// at the reported time.
    DmaStarted {
        /// When the DMA engine finishes reading and packetizing.
        done_at: SimTime,
    },
    /// The engine was busy; the hardware ignored the write. Correct code
    /// never sees this because the `CMPXCHG` read phase returns busy.
    DmaBusy,
    /// A mapping segment's update policy was switched.
    PolicyChanged,
    /// The interrupt-on-arrival request was armed or disarmed.
    InterruptToggled,
}

/// An interrupt raised towards the node CPU/kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NicInterrupt {
    /// The Outgoing FIFO crossed its threshold; the CPU waits for it to
    /// drain.
    OutgoingThreshold,
    /// Data arrived for a page whose interrupt request was armed (§4.2).
    DataArrival {
        /// The page the data landed on.
        page: PageNum,
    },
    /// An arriving packet addressed a page that is not mapped in; the
    /// kernel is told so it can fault the offending connection.
    BadDelivery,
}

/// An open blocked-write packet accumulating consecutive snooped words.
#[derive(Debug, Clone)]
pub(crate) struct PendingBlocked {
    pub(crate) dst_node: shrimp_mesh::NodeId,
    pub(crate) dst_base: PhysAddr,
    pub(crate) src_page: PageNum,
    pub(crate) next_offset: u64,
    pub(crate) data: crate::arena::PoolBuf,
    pub(crate) last_write: SimTime,
}

impl NetworkInterface {
    // ───────────────────────── outgoing: snoop path ──────────────────────

    /// Reacts to a snooped write transaction on the memory bus.
    ///
    /// `addr` must be a data (not command) address; the machine routes
    /// command-space stores to [`NetworkInterface::command_write`]. On
    /// the unpinned NIC a captured write to a page that is not
    /// NIC-resident stalls behind a map-in (see [`crate::unpinned`]).
    pub fn snoop_write(&mut self, now: SimTime, addr: PhysAddr, data: &[u8]) -> SnoopOutcome {
        if let Some(outcome) = self.snoop_unpinned(now, addr, data) {
            return outcome;
        }
        self.snoop_resident(now, addr, data)
    }

    /// The snoop path of a NIC-resident page: merge, packetize, or
    /// ignore. Map-in replays enter here.
    pub(crate) fn snoop_resident(
        &mut self,
        now: SimTime,
        addr: PhysAddr,
        data: &[u8],
    ) -> SnoopOutcome {
        // A pending blocked-write packet must be terminated by any
        // non-mergeable intervening write.
        let mergeable = self.pending.as_ref().is_some_and(|p| {
            addr.page() == p.src_page
                && addr.offset() == p.next_offset
                && now.saturating_since(p.last_write) <= self.config.merge_window
                && p.data.len() + data.len() <= self.config.max_payload as usize
        });

        let Some(&seg) = self.nipt.capture(addr, 1) else {
            // Deliberate pages and unmapped pages: plain memory write;
            // but it still terminates a pending merge on another page?
            // No: only writes the NIC captures interact with the merge
            // buffer. Expire it on time alone. Not `poll`: map-ins
            // complete on their own housekeeping event, never early.
            self.poll_resident(now);
            return SnoopOutcome::Ignored;
        };

        match seg.policy {
            UpdatePolicy::AutomaticSingle => {
                self.flush_pending(now);
                let dst = seg.translate(addr.offset());
                self.stats.single_write_packets += 1;
                // A snooped store is at most a word: the payload inlines.
                self.queue_packet(
                    now + self.config.packetize_latency,
                    seg.dst_node,
                    dst,
                    Payload::copy_from_slice(data),
                )
            }
            UpdatePolicy::AutomaticBlocked => {
                if mergeable
                    && self
                        .pending
                        .as_ref()
                        .is_some_and(|p| p.dst_node == seg.dst_node)
                {
                    let p = self.pending.as_mut().expect("mergeable implies pending");
                    p.data.vec_mut().extend_from_slice(data);
                    p.next_offset += data.len() as u64;
                    p.last_write = now;
                    self.stats.merged_writes += 1;
                    SnoopOutcome::Merged
                } else {
                    self.flush_pending(now);
                    self.pending = Some(PendingBlocked {
                        dst_node: seg.dst_node,
                        dst_base: seg.translate(addr.offset()),
                        src_page: addr.page(),
                        next_offset: addr.offset() + data.len() as u64,
                        data: {
                            let mut buf = crate::arena::take(0);
                            buf.vec_mut().extend_from_slice(data);
                            buf
                        },
                        last_write: now,
                    });
                    SnoopOutcome::Merged
                }
            }
            UpdatePolicy::Deliberate => unreachable!("filtered above"),
        }
    }

    /// The snoops of a run of words at `addr`, in one step, when each
    /// would only join the open blocked-write packet: the first word is
    /// snooped at `first` and each later one `step` after the one before
    /// (DESIGN.md §5k). The run must lie in one automatic blocked-write
    /// segment, continue the open packet to the same destination and fit
    /// `max_payload`; every gap, the first one included, must be within
    /// the merge window; the merge must be the NIC's only deadline; and
    /// on the unpinned NIC the page must be resident. Then the data is
    /// appended as the per-word merges would append it and this returns
    /// true; otherwise nothing changes and it returns false.
    pub fn merge_run(
        &mut self,
        addr: PhysAddr,
        data: &[u8],
        first: SimTime,
        step: SimDuration,
    ) -> bool {
        let len = data.len() as u64;
        let (start, end) = (addr.offset(), addr.offset() + len);
        let window = self.config.merge_window;
        let joins = match (&self.pending, self.nipt.capture(addr, len)) {
            (Some(p), Some(seg)) => {
                len > 0
                    && seg.policy == UpdatePolicy::AutomaticBlocked
                    && seg.src_start <= start
                    && end <= seg.src_end
                    && p.dst_node == seg.dst_node
                    && p.src_page == addr.page()
                    && p.next_offset == start
                    && p.data.len() as u64 + len <= self.config.max_payload
                    && first.saturating_since(p.last_write) <= window
                    && step <= window
            }
            _ => false,
        };
        if !joins || self.other_deadline().is_some() || !self.is_resident(addr.page()) {
            return false;
        }
        let words = len / WORD_SIZE;
        self.count_resident_hits(addr.page(), words);
        let p = self.pending.as_mut().expect("checked above");
        p.data.vec_mut().extend_from_slice(data);
        p.next_offset = end;
        p.last_write = first + step * (words - 1);
        self.stats.merged_writes += words;
        true
    }

    /// Terminates the pending blocked-write packet, if any, queueing it.
    /// Returns true if a packet was flushed.
    pub fn flush_pending(&mut self, now: SimTime) -> bool {
        let Some(p) = self.pending.take() else {
            return false;
        };
        self.stats.blocked_write_packets += 1;
        self.queue_packet(
            now + self.config.packetize_latency,
            p.dst_node,
            p.dst_base,
            Payload::from(p.data),
        );
        true
    }

    // ───────────────────────── command space ─────────────────────────────

    /// True if `addr` is one of this NIC's command addresses.
    pub fn is_command_addr(&self, addr: PhysAddr) -> bool {
        self.cmd_space.contains(addr)
    }

    /// A read cycle on a command address: the DMA status word (§4.3).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a command address.
    pub fn command_read(&mut self, now: SimTime, addr: PhysAddr) -> u32 {
        let data_addr = self
            .cmd_space
            .data_addr_for(addr)
            .expect("command_read on a non-command address");
        self.dma.status(now, data_addr).0
    }

    /// A write cycle on a command address.
    ///
    /// For a deliberate-update start the NIC needs to read the source
    /// region from main memory; `mem_read` performs that read over the
    /// memory bus and returns the payload plus the bus completion time.
    /// Callers fill an [`arena`](crate::arena) buffer so the hot path
    /// recycles allocations instead of growing the heap per packet.
    ///
    /// # Errors
    ///
    /// Returns [`NicError::Malformed`] for an undecodable command,
    /// [`NicError::NotDeliberateMapped`] /
    /// [`NicError::CrossesPageBoundary`] for invalid transfers.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a command address.
    pub fn command_write(
        &mut self,
        now: SimTime,
        addr: PhysAddr,
        value: u32,
        mem_read: impl FnOnce(PhysAddr, u64) -> (Payload, SimTime),
    ) -> Result<CommandEffect, NicError> {
        let data_addr = self
            .cmd_space
            .data_addr_for(addr)
            .expect("command_write on a non-command address");
        match CommandOp::decode(value)? {
            CommandOp::StartTransfer { words } => {
                self.start_deliberate(now, data_addr, words, mem_read)
            }
            CommandOp::SetPolicy(policy) => {
                let page = data_addr.page();
                let seg = self
                    .nipt
                    .entry(page)
                    .and_then(|e| e.segment_at(data_addr.offset()))
                    .copied()
                    .ok_or(NicError::NotDeliberateMapped { addr: data_addr })?;
                self.nipt
                    .set_out_segment(page, OutSegment { policy, ..seg })?;
                Ok(CommandEffect::PolicyChanged)
            }
            CommandOp::ArmInterrupt => {
                self.nipt.set_interrupt_on_arrival(data_addr.page(), true)?;
                Ok(CommandEffect::InterruptToggled)
            }
            CommandOp::DisarmInterrupt => {
                self.nipt.set_interrupt_on_arrival(data_addr.page(), false)?;
                Ok(CommandEffect::InterruptToggled)
            }
        }
    }

    fn start_deliberate(
        &mut self,
        now: SimTime,
        src: PhysAddr,
        words: u32,
        mem_read: impl FnOnce(PhysAddr, u64) -> (Payload, SimTime),
    ) -> Result<CommandEffect, NicError> {
        let len = words as u64 * WORD_SIZE;
        if src.offset() + len > shrimp_mem::PAGE_SIZE {
            return Err(NicError::CrossesPageBoundary);
        }
        if len > self.config.max_payload {
            return Err(NicError::CrossesPageBoundary);
        }
        let seg = match self.nipt.lookup_out(src) {
            Some(seg) if seg.policy == UpdatePolicy::Deliberate => *seg,
            _ => return Err(NicError::NotDeliberateMapped { addr: src }),
        };
        if src.offset() + len > seg.src_end {
            return Err(NicError::BadMapping("transfer extends past the mapped segment"));
        }
        if !self.dma.is_idle(now) {
            return Ok(CommandEffect::DmaBusy);
        }
        // The DMA engine reads the region from memory; the snooping
        // datapath captures the data (paper §4.3).
        let (data, read_done) = mem_read(src, len);
        let read_done = read_done + self.map_in_dma_source(src.page());
        assert_eq!(data.len() as u64, len, "mem_read returned wrong length");
        let done_at = read_done + self.config.dma_setup;
        let started = self.dma.start(now, src, words, done_at);
        debug_assert!(started, "engine was idle");
        let dst = seg.translate(src.offset());
        self.stats.dma_packets += 1;
        // One buffer from here on: the pooled buffer read from memory is
        // the refcounted payload shared by FIFO, mesh and delivery DMA,
        // and returns to the arena when the last stage drops it.
        self.queue_packet(done_at, seg.dst_node, dst, data);
        Ok(CommandEffect::DmaStarted { done_at })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NicConfig;
    use crate::error::NicError;
    use crate::testutil::{map_out, nic, shape, t};
    use shrimp_mem::PAGE_SIZE;
    use shrimp_mesh::NodeId;
    use shrimp_sim::SimDuration;

    #[test]
    fn single_write_becomes_a_packet() {
        let mut n = nic();
        map_out(&mut n, 2, 1, 9, UpdatePolicy::AutomaticSingle);
        let addr = PageNum::new(2).at_offset(16);
        let out = n.snoop_write(t(0), addr, &7u32.to_le_bytes());
        assert_eq!(out, SnoopOutcome::Queued);
        // Not ready before packetize latency.
        assert!(n.pop_outgoing(t(0)).is_none());
        let mp = n.pop_outgoing(t(1000)).expect("ready after packetize");
        assert_eq!(mp.dst(), NodeId(1));
        let packet = mp.into_payload();
        assert!(packet.verify_crc());
        assert_eq!(packet.header().dst_addr, PageNum::new(9).at_offset(16));
        assert_eq!(packet.payload(), &7u32.to_le_bytes());
        assert!(
            matches!(packet.into_payload(), Payload::Inline { len: 4, .. }),
            "a snooped word must not allocate"
        );
        assert_eq!(n.stats().single_write_packets, 1);
    }

    #[test]
    fn unmapped_write_is_ignored() {
        let mut n = nic();
        assert_eq!(
            n.snoop_write(t(0), PhysAddr::new(0), &[1, 2, 3, 4]),
            SnoopOutcome::Ignored
        );
        assert_eq!(n.stats().packets_sent, 0);
    }

    #[test]
    fn deliberate_page_writes_are_ignored_by_snoop() {
        let mut n = nic();
        map_out(&mut n, 2, 1, 9, UpdatePolicy::Deliberate);
        assert_eq!(
            n.snoop_write(t(0), PageNum::new(2).base(), &[0; 4]),
            SnoopOutcome::Ignored
        );
    }

    #[test]
    fn blocked_writes_merge_when_consecutive() {
        let mut n = nic();
        map_out(&mut n, 3, 1, 9, UpdatePolicy::AutomaticBlocked);
        let base = PageNum::new(3).base();
        assert_eq!(n.snoop_write(t(0), base, &[1; 4]), SnoopOutcome::Merged);
        assert_eq!(n.snoop_write(t(100), base.add(4), &[2; 4]), SnoopOutcome::Merged);
        assert_eq!(n.snoop_write(t(200), base.add(8), &[3; 4]), SnoopOutcome::Merged);
        assert_eq!(n.stats().merged_writes, 2);
        // Nothing sent yet.
        assert!(n.pop_outgoing(t(10_000)).is_none());
        // Window expiry flushes one packet with all 12 bytes.
        n.poll(t(1000));
        let mp = n.pop_outgoing(t(10_000)).expect("flushed");
        assert_eq!(mp.payload().payload().len(), 12);
        assert_eq!(n.stats().blocked_write_packets, 1);
    }

    /// An open merge on page 3, which is resident: on the unpinned NIC
    /// the first write misses and replays when the map-in completes.
    fn open_merge(unpinned: bool) -> (NetworkInterface, SimTime) {
        let mut n = if unpinned {
            NetworkInterface::unpinned(NodeId(0), shape(), NicConfig::default(), 64)
        } else {
            nic()
        };
        map_out(&mut n, 3, 1, 9, UpdatePolicy::AutomaticBlocked);
        n.snoop_write(t(0), PageNum::new(3).base(), &[1; 4]);
        let opened = if unpinned {
            t(0) + n.config().unpinned.map_in_latency
        } else {
            t(0)
        };
        n.poll(opened);
        assert!(n.pending.is_some(), "a merge is open");
        (n, opened)
    }

    #[test]
    fn merge_run_matches_word_snoops() {
        for unpinned in [false, true] {
            let (mut one, opened) = open_merge(unpinned);
            let mut run = one.clone();
            let base = PageNum::new(3).base();
            let data: Vec<u8> = (0..64).collect();
            let (first, step) = (opened + SimDuration::from_ns(100), SimDuration::from_ns(60));
            for (i, w) in data.chunks_exact(4).enumerate() {
                let at = first + step * i as u64;
                let out = one.snoop_write(at, base.add(4 + 4 * i as u64), w);
                assert_eq!(out, SnoopOutcome::Merged);
            }
            assert!(run.merge_run(base.add(4), &data, first, step));
            assert_eq!(
                format!("{run:?}"),
                format!("{one:?}"),
                "unpinned {unpinned}"
            );
        }
    }

    #[test]
    fn merge_run_refuses_runs_that_would_not_only_merge() {
        let ns = SimDuration::from_ns;
        let refused = |why: &str, n: &mut NetworkInterface, at: u64, len: usize, first, step| {
            let before = format!("{n:?}");
            let addr = PageNum::new(3).at_offset(at);
            assert!(!n.merge_run(addr, &vec![0; len], first, step), "{why}");
            assert_eq!(format!("{n:?}"), before, "{why}: a refusal changes nothing");
        };
        let (mut n, _) = open_merge(false);
        let window = n.config().merge_window;
        refused("offset", &mut n, 8, 8, t(100), ns(60));
        refused("past the page", &mut n, 4, 4096, t(100), ns(60));
        refused("empty", &mut n, 4, 0, t(100), ns(60));
        refused("first gap", &mut n, 4, 8, t(0) + window + ns(1), ns(60));
        refused("step", &mut n, 4, 8, t(100), window + ns(1));
        n.stall_until = Some(t(10_000));
        refused("receive stall", &mut n, 4, 8, t(100), ns(60));

        let (mut n, _) = open_merge(false);
        map_out(&mut n, 3, 1, 9, UpdatePolicy::AutomaticSingle);
        refused("single-write page", &mut n, 4, 8, t(100), ns(60));
        let (mut n, _) = open_merge(false);
        map_out(&mut n, 3, 2, 9, UpdatePolicy::AutomaticBlocked);
        refused("another destination", &mut n, 4, 8, t(100), ns(60));

        let (mut n, opened) = open_merge(true);
        n.invalidate_translation(PageNum::new(3));
        refused("not resident", &mut n, 4, 8, opened + ns(100), ns(60));
        let (mut n, opened) = open_merge(true);
        map_out(&mut n, 5, 1, 11, UpdatePolicy::AutomaticBlocked);
        n.snoop_write(opened, PageNum::new(5).base(), &[2; 4]);
        refused("map-in in flight", &mut n, 4, 8, opened + ns(100), ns(60));
    }

    #[test]
    fn non_consecutive_blocked_write_starts_new_packet() {
        let mut n = nic();
        map_out(&mut n, 3, 1, 9, UpdatePolicy::AutomaticBlocked);
        let base = PageNum::new(3).base();
        n.snoop_write(t(0), base, &[1; 4]);
        // Skip a word: must terminate the first packet.
        n.snoop_write(t(50), base.add(12), &[2; 4]);
        n.poll(t(5000));
        let a = n.pop_outgoing(t(100_000)).unwrap();
        let b = n.pop_outgoing(t(100_000)).unwrap();
        assert_eq!(a.payload().payload().len(), 4);
        assert_eq!(b.payload().payload().len(), 4);
    }

    #[test]
    fn merge_window_expiry_splits_packets() {
        let mut n = nic();
        map_out(&mut n, 3, 1, 9, UpdatePolicy::AutomaticBlocked);
        let base = PageNum::new(3).base();
        n.snoop_write(t(0), base, &[1; 4]);
        // Longer than the 500ns window later:
        n.snoop_write(t(2000), base.add(4), &[2; 4]);
        n.poll(t(10_000));
        assert_eq!(n.stats().blocked_write_packets, 2);
    }

    #[test]
    fn single_write_flushes_pending_blocked_packet_first() {
        let mut n = nic();
        map_out(&mut n, 3, 1, 9, UpdatePolicy::AutomaticBlocked);
        map_out(&mut n, 4, 1, 10, UpdatePolicy::AutomaticSingle);
        n.snoop_write(t(0), PageNum::new(3).base(), &[1; 4]);
        n.snoop_write(t(10), PageNum::new(4).base(), &[2; 4]);
        // Both packets must be queued, blocked first.
        let first = n.pop_outgoing(t(100_000)).unwrap();
        let second = n.pop_outgoing(t(100_000)).unwrap();
        assert_eq!(first.payload().header().dst_addr.page(), PageNum::new(9));
        assert_eq!(second.payload().header().dst_addr.page(), PageNum::new(10));
    }

    #[test]
    fn split_page_translates_via_correct_segment() {
        let mut n = nic();
        n.nipt_mut()
            .set_out_segment(
                PageNum::new(5),
                OutSegment {
                    src_start: 0,
                    src_end: 2048,
                    dst_node: NodeId(1),
                    dst_base: PageNum::new(8).at_offset(2048),
                    policy: UpdatePolicy::AutomaticSingle,
                },
            )
            .unwrap();
        n.nipt_mut()
            .set_out_segment(
                PageNum::new(5),
                OutSegment {
                    src_start: 2048,
                    src_end: PAGE_SIZE,
                    dst_node: NodeId(2),
                    dst_base: PageNum::new(3).base(),
                    policy: UpdatePolicy::AutomaticSingle,
                },
            )
            .unwrap();
        n.snoop_write(t(0), PageNum::new(5).at_offset(0), &[0; 4]);
        n.snoop_write(t(1), PageNum::new(5).at_offset(2048), &[0; 4]);
        let a = n.pop_outgoing(t(100_000)).unwrap();
        let b = n.pop_outgoing(t(100_000)).unwrap();
        assert_eq!(a.dst(), NodeId(1));
        assert_eq!(
            a.payload().header().dst_addr,
            PageNum::new(8).at_offset(2048)
        );
        assert_eq!(b.dst(), NodeId(2));
        assert_eq!(b.payload().header().dst_addr, PageNum::new(3).base());
    }

    #[test]
    fn deliberate_update_full_protocol() {
        let mut n = nic();
        map_out(&mut n, 6, 1, 12, UpdatePolicy::Deliberate);
        let data_addr = PageNum::new(6).base();
        let cmd_addr = n.command_space().command_addr_for(data_addr);
        assert!(n.is_command_addr(cmd_addr));
        // Read phase: engine free → 0.
        assert_eq!(n.command_read(t(0), cmd_addr), 0);
        // Write phase: start 256 words.
        let effect = n
            .command_write(t(0), cmd_addr, 256, |src, len| {
                assert_eq!(src, data_addr);
                assert_eq!(len, 1024);
                (Payload::from(vec![0x5a; 1024]), t(500))
            })
            .unwrap();
        let CommandEffect::DmaStarted { done_at } = effect else {
            panic!("expected DmaStarted, got {effect:?}");
        };
        assert!(done_at > t(500));
        // While busy: status shows remaining words and base match.
        let status = crate::dma::DmaStatus(n.command_read(t(100), cmd_addr));
        assert!(!status.is_free());
        assert!(status.base_matches());
        // A second start while busy is ignored by hardware.
        let e2 = n
            .command_write(t(100), cmd_addr, 16, |_, _| unreachable!("busy engine must not read"))
            .unwrap();
        assert_eq!(e2, CommandEffect::DmaBusy);
        // Packet appears once DMA finishes.
        assert!(n.pop_outgoing(done_at - SimDuration::from_ns(1)).is_none());
        let mp = n.pop_outgoing(done_at).unwrap();
        let packet = mp.into_payload();
        assert_eq!(packet.payload().len(), 1024);
        assert_eq!(packet.header().dst_addr, PageNum::new(12).base());
        assert_eq!(n.stats().dma_packets, 1);
    }

    #[test]
    fn deliberate_rejects_bad_transfers() {
        let mut n = nic();
        map_out(&mut n, 6, 1, 12, UpdatePolicy::Deliberate);
        let cmd = n
            .command_space()
            .command_addr_for(PageNum::new(6).at_offset(4092));
        // Crossing the page boundary.
        assert!(matches!(
            n.command_write(t(0), cmd, 2, |_, _| unreachable!()),
            Err(NicError::CrossesPageBoundary)
        ));
        // Page without a deliberate mapping.
        let cmd2 = n.command_space().command_addr_for(PageNum::new(7).base());
        assert!(matches!(
            n.command_write(t(0), cmd2, 2, |_, _| unreachable!()),
            Err(NicError::NotDeliberateMapped { .. })
        ));
        // Automatic mapping is not deliberate.
        map_out(&mut n, 8, 1, 13, UpdatePolicy::AutomaticSingle);
        let cmd3 = n.command_space().command_addr_for(PageNum::new(8).base());
        assert!(matches!(
            n.command_write(t(0), cmd3, 2, |_, _| unreachable!()),
            Err(NicError::NotDeliberateMapped { .. })
        ));
    }

    #[test]
    fn command_switches_policy_and_arms_interrupts() {
        let mut n = nic();
        map_out(&mut n, 2, 1, 9, UpdatePolicy::AutomaticSingle);
        let cmd = n.command_space().command_addr_for(PageNum::new(2).base());
        let e = n
            .command_write(
                t(0),
                cmd,
                CommandOp::SetPolicy(UpdatePolicy::AutomaticBlocked).encode(),
                |_, _| unreachable!(),
            )
            .unwrap();
        assert_eq!(e, CommandEffect::PolicyChanged);
        assert_eq!(
            n.nipt().lookup_out(PageNum::new(2).base()).unwrap().policy,
            UpdatePolicy::AutomaticBlocked
        );
        let e = n
            .command_write(t(0), cmd, CommandOp::ArmInterrupt.encode(), |_, _| unreachable!())
            .unwrap();
        assert_eq!(e, CommandEffect::InterruptToggled);
        assert!(!n.nipt().entry(PageNum::new(2)).unwrap().is_mapped_in());
    }
}
