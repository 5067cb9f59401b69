//! The network interface state machine.
//!
//! [`NetworkInterface`] composes the NIPT, FIFOs, DMA engine and command
//! space into the datapath of Figure 4. It is a passive component: the
//! machine model in `shrimp-core` feeds it snooped bus writes, drains its
//! Outgoing FIFO into the mesh, offers it arriving mesh packets, and
//! performs the EISA DMA for deliveries it pops from the Incoming FIFO.
//!
//! The behaviour is split across sibling modules, all implementing
//! methods on [`NetworkInterface`]:
//!
//! - [`crate::datapath`] — snooped automatic updates and command-driven
//!   deliberate updates,
//! - [`crate::outgoing`] — Outgoing FIFO, overflow spill/refill, and the
//!   FIFO→mesh injection path,
//! - [`crate::incoming`] — mesh→Incoming FIFO acceptance and delivery,
//! - [`crate::retx`] — go-back-N retransmission and bounce/reroute
//!   recovery,
//! - [`crate::unpinned`] — the optional IOTLB and dynamic map-in of the
//!   unpinned backend,
//! - [`crate::stats`] — counters and registry wiring.
//!
//! This module keeps the struct itself, construction, the kernel's map
//! hooks, and the shared housekeeping (`poll` / `next_deadline`).

use shrimp_mem::PageNum;
use shrimp_mesh::{MeshCoord, MeshShape, NodeId};
use shrimp_sim::fault::NicFaultSite;
use shrimp_sim::{ComponentId, SimTime, TraceData, TraceOutbox};

use crate::command::CommandSpace;
use crate::config::NicConfig;
use crate::dma::DmaEngine;
use crate::error::NicError;
use crate::fifo::PacketFifo;
use crate::nipt::{Nipt, OutSegment};
use crate::packet::ShrimpPacket;
use crate::unpinned::Iotlb;

// Re-exports so the long-standing `shrimp_nic::nic::*` paths keep
// resolving after the module split.
pub use crate::datapath::{CommandEffect, SnoopOutcome};
pub use crate::incoming::IncomingDelivery;
pub use crate::stats::NicStats;

pub(crate) use crate::datapath::PendingBlocked;
pub(crate) use crate::retx::RetxState;

/// The SHRIMP network interface of one node, on either backend: the
/// paper's pinned NIC ([`NetworkInterface::new`]) or the unpinned one
/// ([`NetworkInterface::unpinned`]).
///
/// See the crate-level docs for an example.
#[derive(Debug, Clone)]
pub struct NetworkInterface {
    pub(crate) node: NodeId,
    pub(crate) coord: MeshCoord,
    pub(crate) shape: MeshShape,
    pub(crate) config: NicConfig,
    pub(crate) nipt: Nipt,
    pub(crate) cmd_space: CommandSpace,
    pub(crate) out_fifo: PacketFifo,
    pub(crate) in_fifo: PacketFifo,
    pub(crate) pending: Option<PendingBlocked>,
    pub(crate) overflow: std::collections::VecDeque<ShrimpPacket>,
    pub(crate) dma: DmaEngine,
    pub(crate) out_threshold_raised: bool,
    /// Go-back-N engine state; `None` when retransmission is disabled.
    pub(crate) retx: Option<RetxState>,
    /// Pending ack/nack frames `(ready_at, dst, frame)`. Control frames
    /// bypass the data FIFO: the hardware generates them on the receive
    /// side and data backpressure must not block them (deadlock).
    pub(crate) ctl_queue: std::collections::VecDeque<(SimTime, NodeId, ShrimpPacket)>,
    /// Fault injection: transient receive stalls.
    pub(crate) fault: Option<NicFaultSite>,
    /// While set, the NIC refuses packets from the network.
    pub(crate) stall_until: Option<SimTime>,
    /// Hot-path counters, read back via [`NetworkInterface::stats`] or a
    /// [`shrimp_sim::MetricsRegistry`].
    pub(crate) stats: NicStats,
    /// The unpinned backend's outgoing IOTLB and in-flight map-ins;
    /// `None` on the pinned SHRIMP NIC.
    pub(crate) iotlb: Option<Iotlb>,
    /// FIFO-threshold crossings, retransmit timeouts and retransmits,
    /// and the arrival and bad-delivery interrupts, for the machine's
    /// tracer to drain. Off by default, when it keeps nothing.
    pub(crate) outbox: TraceOutbox,
    /// Mirrors `in_fifo.over_threshold()` so threshold crossings emit
    /// exactly one raise/clear trace pair per backpressure episode.
    pub(crate) in_threshold_traced: bool,
}

impl NetworkInterface {
    /// Creates the pinned SHRIMP NIC of `node` on a `shape` backplane
    /// with `num_pages` of local physical memory behind it.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the node is off-mesh.
    pub fn new(node: NodeId, shape: MeshShape, config: NicConfig, num_pages: u64) -> Self {
        config.validate();
        let coord = shape.coord_of(node);
        NetworkInterface {
            node,
            coord,
            shape,
            config,
            nipt: Nipt::new(num_pages),
            cmd_space: CommandSpace::new(num_pages * shrimp_mem::PAGE_SIZE),
            out_fifo: PacketFifo::new(config.out_fifo_bytes, config.out_fifo_threshold),
            in_fifo: PacketFifo::new(config.in_fifo_bytes, config.in_fifo_threshold),
            pending: None,
            overflow: std::collections::VecDeque::new(),
            dma: DmaEngine::new(),
            out_threshold_raised: false,
            retx: config.retx.enabled.then(RetxState::default),
            ctl_queue: std::collections::VecDeque::new(),
            fault: None,
            stall_until: None,
            stats: NicStats::default(),
            iotlb: None,
            outbox: TraceOutbox::default(),
            in_threshold_traced: false,
        }
    }

    /// Creates the unpinned NIC of `node`: the datapath of
    /// [`NetworkInterface::new`] behind an empty outgoing IOTLB whose
    /// parameters come from `config.unpinned` (see [`crate::unpinned`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the node is off-mesh.
    pub fn unpinned(node: NodeId, shape: MeshShape, config: NicConfig, num_pages: u64) -> Self {
        NetworkInterface {
            iotlb: Some(Iotlb::default()),
            ..NetworkInterface::new(node, shape, config, num_pages)
        }
    }

    /// The trace events this NIC raised since the machine last drained
    /// them.
    pub fn trace_outbox(&self) -> &TraceOutbox {
        &self.outbox
    }

    /// The trace outbox, to enable or drain.
    pub fn trace_outbox_mut(&mut self) -> &mut TraceOutbox {
        &mut self.outbox
    }

    /// Keeps `data`, raised by this NIC at `time`, in the outbox.
    #[inline]
    pub(crate) fn trace(&mut self, time: SimTime, data: TraceData) {
        let node = self.node.0;
        self.outbox.push(node, time, ComponentId::nic(node), data);
    }

    /// Arms transient receive-stall fault injection on this NIC.
    pub fn set_fault_injection(&mut self, site: NicFaultSite) {
        self.fault = Some(site);
    }

    /// This NIC's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This NIC's mesh coordinates.
    pub fn coord(&self) -> MeshCoord {
        self.coord
    }

    /// The configuration in force.
    pub fn config(&self) -> &NicConfig {
        &self.config
    }

    /// The network interface page table.
    pub fn nipt(&self) -> &Nipt {
        &self.nipt
    }

    /// Mutable access to the NIPT — the `map` system call's target.
    pub fn nipt_mut(&mut self) -> &mut Nipt {
        &mut self.nipt
    }

    /// The command address region.
    pub fn command_space(&self) -> CommandSpace {
        self.cmd_space
    }

    /// The DMA engine (primarily for inspection in tests and benches).
    pub fn dma(&self) -> &DmaEngine {
        &self.dma
    }

    /// Kernel hook: a page became (un)importable — receive-side
    /// mapping. Unmapping shoots down the page's IOTLB entry.
    ///
    /// # Errors
    ///
    /// Propagates [`Nipt::set_mapped_in`] failures (off-table page).
    pub fn map_in(&mut self, page: PageNum, mapped: bool) -> Result<(), NicError> {
        self.nipt.set_mapped_in(page, mapped)?;
        if !mapped {
            self.invalidate_translation(page);
        }
        Ok(())
    }

    /// Kernel hook: an outgoing mapping segment was installed. Unlike
    /// [`Nipt::set_out_segment`], it never replaces a segment in place:
    /// one with the same start overlaps too.
    ///
    /// # Errors
    ///
    /// [`NicError::BadMapping`] on an overlap; other
    /// [`Nipt::set_out_segment`] failures (bad segment, both slots
    /// taken) propagate.
    pub fn map_out_segment(&mut self, page: PageNum, seg: OutSegment) -> Result<(), NicError> {
        if self.nipt.entry(page).is_some_and(|e| e.segment_at(seg.src_start).is_some()) {
            return Err(NicError::BadMapping("segments overlap"));
        }
        self.nipt.set_out_segment(page, seg)
    }

    /// Kernel hook: the outgoing segment of `page` at `offset` was torn
    /// down. The page's IOTLB entry is shot down with the removed
    /// segment's buffered writes; the page's other writes wait on.
    pub fn unmap_out(&mut self, page: PageNum, offset: u64) -> Option<OutSegment> {
        let seg = self.nipt.clear_out_segment(page, offset);
        self.invalidate_translation(page);
        seg
    }

    /// Housekeeping: completes ready IOTLB map-ins, expires the
    /// blocked-write merge window and retries overflowed packets. Call
    /// whenever simulated time advances.
    pub fn poll(&mut self, now: SimTime) {
        self.complete_map_ins(now);
        self.poll_resident(now);
    }

    /// [`NetworkInterface::poll`] without completing map-ins. A snooped
    /// write the NIC ignores runs this, not `poll`: completing map-ins
    /// there would replay buffered writes before their scheduled event.
    pub(crate) fn poll_resident(&mut self, now: SimTime) {
        if let Some(p) = &self.pending {
            // At or past the deadline the packet is terminated (>=, so a
            // wakeup scheduled exactly at the deadline makes progress).
            if now.saturating_since(p.last_write) >= self.config.merge_window {
                self.flush_pending(now);
            }
        }
        self.refill_from_overflow(now);
        self.clear_out_threshold(now);
        if self.stall_until.is_some_and(|s| now >= s) {
            self.stall_until = None;
        }
        self.poll_retx(now);
    }

    /// The next time-based deadline this NIC needs a `poll` at: merge
    /// window expiry, retransmit timer, the end of an injected stall, or
    /// an IOTLB map-in completing.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let merge = self
            .pending
            .as_ref()
            .map(|p| p.last_write + self.config.merge_window);
        merge.into_iter().chain(self.other_deadline()).min()
    }

    /// The earliest deadline besides the merge window's: an injected
    /// stall's end, a retransmit timer, or an IOTLB map-in completing.
    pub(crate) fn other_deadline(&self) -> Option<SimTime> {
        let mut deadline = None;
        let fold = |t: SimTime, d: Option<SimTime>| Some(d.map_or(t, |cur| cur.min(t)));
        if let Some(s) = self.stall_until {
            deadline = fold(s, deadline);
        }
        if let Some(st) = &self.retx {
            for peer in st.send.values() {
                if let Some(t) = peer.timeout_at {
                    deadline = fold(t, deadline);
                }
            }
        }
        if let Some(t) = self.iotlb.as_ref().and_then(Iotlb::next_ready) {
            deadline = fold(t, deadline);
        }
        deadline
    }
}
