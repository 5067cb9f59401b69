//! The whole-machine model.
//!
//! [`Machine`] composes, per node, a CPU, physical memory, a snooping
//! cache, the Xpress and EISA buses, the SHRIMP network interface and a
//! kernel — and connects the nodes through the mesh backplane. A single
//! deterministic event loop advances everything.
//!
//! The datapath follows Figure 4 of the paper exactly:
//!
//! 1. a user-level `store` to a write-through mapped page appears on the
//!    Xpress bus, where the NIC snoops it and (per the NIPT entry's
//!    update policy) packetizes it;
//! 2. the Outgoing FIFO drains into the mesh when the injection port is
//!    free;
//! 3. at the destination, the packet is verified (coordinates + CRC),
//!    queued on the Incoming FIFO, and DMA'd over the EISA bus straight
//!    into main memory — invalidating matching cache lines — with no CPU
//!    involvement;
//! 4. deliberate-update transfers start from user level with a locked
//!    `CMPXCHG` against a command page and stream a page through the same
//!    outgoing datapath.

use shrimp_cpu::{Cpu, Program, Reg};
use shrimp_mem::{CacheMode, MemError, PageNum, PhysAddr, VirtAddr, PAGE_SIZE, WORD_SIZE};
use shrimp_mesh::{MeshNetwork, NodeId};
use shrimp_nic::{AnyNic, NicError, NicInterrupt, NicModel, OutSegment, ShrimpPacket, UpdatePolicy};
use shrimp_os::kernel::OutgoingRecord;
use shrimp_os::{ExportId, Kernel, OsError, Pid};
use shrimp_sim::{
    step, to_chrome_json_with_counters, BarrierCause, Component, ComponentId, CounterSample,
    EnginePhase, EngineProfileReport, EngineProfiler, FlightEntry, FlightRecorder, Histogram,
    MetricsRegistry, MetricsSnapshot, Scheduler, SimDuration, SimHost, SimTime, StepBound,
    StepOutcome, TraceData, TraceEvent, TraceLevel, Tracer, WindowStats,
};

use crate::config::MachineConfig;
use crate::engine::{execute_window, NodeWindowOutcome, SliceClose, WindowEntry, WorkerPool};
use crate::error::MachineError;
use crate::node::{Action, Node, NodeEffects, NodeEvent};

/// Identifies one established mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MappingId(pub u32);

/// A request to establish a virtual memory mapping — the kernel half of
/// the paper's
/// `map(send-buf, destination, receive-buf)` call (§2). The receive
/// buffer is named by an export the receiving process published.
#[derive(Debug, Clone, Copy)]
pub struct MapRequest {
    /// Sending node.
    pub src_node: NodeId,
    /// Sending process.
    pub src_pid: Pid,
    /// First byte of the send buffer (any alignment).
    pub src_va: VirtAddr,
    /// Receiving node.
    pub dst_node: NodeId,
    /// The receiving process's export.
    pub export: ExportId,
    /// Byte offset into the exported buffer (any alignment).
    pub dst_offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// Transfer strategy.
    pub policy: UpdatePolicy,
}

/// One delivered packet's memory arrival, for latency experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// When the data was fully in destination DRAM.
    pub time: SimTime,
    /// Receiving node.
    pub node: NodeId,
    /// Destination physical address.
    pub dst_addr: PhysAddr,
    /// Payload length.
    pub len: u64,
    /// Sending node.
    pub src: NodeId,
}

/// One packet's full lifecycle timeline, recorded when
/// [`shrimp_sim::TelemetryConfig::latency`] is on. The five boundary
/// times are monotone, so the per-stage durations telescope: their sum
/// equals [`LatencyRecord::end_to_end`] exactly, for every packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyRecord {
    /// Receiving node.
    pub node: NodeId,
    /// Sending node.
    pub src: NodeId,
    /// Payload bytes.
    pub bytes: u64,
    /// Snooped off the Xpress bus and queued on the Outgoing FIFO.
    pub born: SimTime,
    /// Entered the mesh injection port.
    pub injected: SimTime,
    /// Accepted into the destination's Incoming FIFO.
    pub accepted: SimTime,
    /// EISA DMA burst began.
    pub dma_start: SimTime,
    /// Data fully in destination DRAM.
    pub dma_end: SimTime,
}

impl LatencyRecord {
    /// Time spent in the Outgoing FIFO waiting for the injection port.
    pub fn out_fifo(&self) -> SimDuration {
        self.injected.since(self.born)
    }

    /// Time in flight across the mesh backplane.
    pub fn mesh(&self) -> SimDuration {
        self.accepted.since(self.injected)
    }

    /// Time in the Incoming FIFO (receive latency + EISA arbitration).
    pub fn in_fifo(&self) -> SimDuration {
        self.dma_start.since(self.accepted)
    }

    /// The DMA burst itself.
    pub fn dma(&self) -> SimDuration {
        self.dma_end.since(self.dma_start)
    }

    /// Store snooped to data in remote memory.
    pub fn end_to_end(&self) -> SimDuration {
        self.dma_end.since(self.born)
    }
}

/// Packet-lifecycle latency telemetry: per-stage histograms plus the
/// raw per-packet records (all in picoseconds). Empty unless
/// [`shrimp_sim::TelemetryConfig::latency`] is enabled.
#[derive(Debug, Clone, Default)]
pub struct MachineTelemetry {
    /// Store snooped → data in remote DRAM.
    pub e2e: Histogram,
    /// Outgoing FIFO residency.
    pub out_fifo: Histogram,
    /// Mesh transit.
    pub mesh: Histogram,
    /// Incoming FIFO residency.
    pub in_fifo: Histogram,
    /// EISA DMA burst.
    pub dma: Histogram,
    /// Every delivered packet's timeline, in delivery order.
    pub records: Vec<LatencyRecord>,
}

impl MachineTelemetry {
    fn record(&mut self, rec: LatencyRecord) {
        self.e2e.record_duration(rec.end_to_end());
        self.out_fifo.record_duration(rec.out_fifo());
        self.mesh.record_duration(rec.mesh());
        self.in_fifo.record_duration(rec.in_fifo());
        self.dma.record_duration(rec.dma());
        self.records.push(rec);
    }
}

/// Bucket width of the per-node calendar queues: 1 ns clusters the
/// ns-scale CPU/NIC event populations a few per bucket; µs-scale kernel
/// timers overflow to the far heap, which is tiny per node.
const WINDOW_BUCKET_WIDTH_PS: u64 = 1_000;

/// A scheduled machine event: which node, and what it should do. The
/// per-node behaviour lives in [`NodeEvent`]; this type only exists as
/// the machine scheduler's event payload (it is public because it leaks
/// through the [`SimHost`] associated type, not as API).
#[derive(Debug, Clone)]
pub struct Event {
    pub(crate) node: u16,
    pub(crate) ev: NodeEvent,
}

/// The pump worklist: one bit per node that may have network work
/// (DESIGN.md §5j), iterated in ascending node id.
#[derive(Debug)]
struct ActiveNodes {
    words: Vec<u64>,
}

impl ActiveNodes {
    /// A set of `n` nodes, all active.
    fn all(n: usize) -> Self {
        let mut set = ActiveNodes { words: vec![0; n.div_ceil(64)] };
        set.mark_all(n);
        set
    }

    fn mark_all(&mut self, n: usize) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let live = n - w * 64;
            *word = if live >= 64 { !0 } else { (1 << live) - 1 };
        }
    }

    #[inline]
    fn mark(&mut self, node: u16) {
        self.words[node as usize / 64] |= 1 << (node % 64);
    }

    #[inline]
    fn clear(&mut self, node: u16) {
        self.words[node as usize / 64] &= !(1 << (node % 64));
    }

    #[cfg(debug_assertions)]
    fn contains(&self, node: u16) -> bool {
        self.words[node as usize / 64] & (1 << (node % 64)) != 0
    }
}

#[derive(Debug, Clone)]
struct Registration {
    #[allow(dead_code)] // returned to callers; kept for future unmap()
    id: MappingId,
    req: MapRequest,
}

/// The simulated SHRIMP multicomputer.
///
/// # Examples
///
/// ```
/// use shrimp_core::{Machine, MachineConfig, MapRequest};
/// use shrimp_nic::UpdatePolicy;
/// use shrimp_mesh::NodeId;
///
/// let mut m = Machine::new(MachineConfig::two_nodes());
/// let sender = m.create_process(NodeId(0));
/// let receiver = m.create_process(NodeId(1));
/// let send_buf = m.alloc_pages(NodeId(0), sender, 1)?;
/// let recv_buf = m.alloc_pages(NodeId(1), receiver, 1)?;
/// let export = m.export_buffer(NodeId(1), receiver, recv_buf, 1, None)?;
/// m.map(MapRequest {
///     src_node: NodeId(0),
///     src_pid: sender,
///     src_va: send_buf,
///     dst_node: NodeId(1),
///     export,
///     dst_offset: 0,
///     len: 4096,
///     policy: UpdatePolicy::AutomaticSingle,
/// })?;
/// // An ordinary store now propagates to node 1's memory:
/// m.poke(NodeId(0), sender, send_buf, &42u32.to_le_bytes())?;
/// m.run_until_idle()?;
/// let bytes = m.peek(NodeId(1), receiver, recv_buf, 4)?;
/// assert_eq!(u32::from_le_bytes(bytes.try_into().unwrap()), 42);
/// # Ok::<(), shrimp_core::MachineError>(())
/// ```
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    nodes: Vec<Node>,
    mesh: MeshNetwork<ShrimpPacket>,
    sched: Scheduler<Event>,
    registrations: Vec<Registration>,
    next_mapping: u32,
    interrupt_log: Vec<(SimTime, NodeId, NicInterrupt)>,
    syscall_log: Vec<(SimTime, NodeId, Pid, u32)>,
    delivery_log: Vec<DeliveryRecord>,
    drop_log: Vec<(SimTime, NodeId, NicError)>,
    node_events: Vec<u64>,
    tracer: Tracer,
    telemetry: MachineTelemetry,
    /// Worker threads for the parallel engine (`None` when
    /// `config.workers == 1`: the classic sequential loop).
    pool: Option<WorkerPool>,
    /// Per-node count of §4.4 invalidations armed and awaiting a write
    /// fault (mirrors `Kernel::armed_invalidations`); while any is
    /// non-zero the reestablish path may mutate a *remote* node with
    /// zero delay, so no lookahead window may open (DESIGN.md §5e).
    armed: Vec<usize>,
    /// Sum of `armed` — the window gate reads only this.
    armed_total: usize,
    /// Whether the current run wrapper permits lookahead windows
    /// (`run_until_pred` forbids them so the predicate keeps observing
    /// every inter-instant state).
    window_enabled: bool,
    /// The active run bound: windows never execute events past it.
    window_limit: Option<SimTime>,
    /// Reused effect buffers for the sequential hot path (zero
    /// steady-state allocation).
    scratch_fx: NodeEffects,
    scratch_wakeups: NodeEffects,
    /// Per-node window slot (-1 = not participating), reused across
    /// windows.
    slot_of: Vec<i32>,
    /// Lookahead windows executed (worker-invariant: windows form
    /// identically at every worker count; with one worker the slices
    /// just run inline).
    batches_run: u64,
    /// Deterministic window telemetry: per-cause close counters and
    /// window-shape histograms (worker-invariant; see DESIGN.md §5h).
    win_stats: WindowStats,
    /// Wall-clock phase attribution (never part of the deterministic
    /// snapshot; see [`Machine::profile`]).
    profiler: EngineProfiler,
    /// Per-node rings of recent packet-lifecycle events, dumped on
    /// panic or on demand. Pure observation of the serial path.
    recorder: FlightRecorder,
    /// Reused buffer for draining the mesh's flight log (avoids a
    /// mesh/recorder double borrow and steady-state allocation).
    scratch_flight: Vec<TraceEvent>,
    /// Nodes the next network pump must visit; every other node is
    /// fully idle, so visiting it would be a no-op (DESIGN.md §5j).
    active: ActiveNodes,
}

impl Machine {
    /// Builds an idle machine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: MachineConfig) -> Self {
        config.validate();
        let shape = config.shape;
        let nodes: Vec<Node> = shape.iter_nodes().map(|id| Node::new(id, &config)).collect();
        let mut mesh = MeshNetwork::new(config.mesh);
        mesh.set_fault_injection(&config.fault);
        let tracer = match config.telemetry.trace_level {
            Some(level) => Tracer::new(level),
            None => Tracer::disabled(),
        };
        if let Some(level) = config.telemetry.trace_level {
            mesh.set_tracer(Tracer::new(level));
        }
        mesh.set_flight_recording(config.telemetry.flight_recorder > 0);
        let pool = (config.workers > 1)
            .then(|| WorkerPool::new(config.workers, config, config.telemetry.profile));
        let recorder = FlightRecorder::new(nodes.len(), config.telemetry.flight_recorder);
        let slot_of = vec![-1; nodes.len()];
        let armed = vec![0; nodes.len()];
        let node_events = vec![0; nodes.len()];
        let active = ActiveNodes::all(nodes.len());
        Machine {
            config,
            nodes,
            mesh,
            // One calendar queue per node (machine-level pushes route to
            // the target node's shard); pop order is identical to the
            // old global binary heap.
            sched: Scheduler::sharded(shape.nodes().max(1) as usize, WINDOW_BUCKET_WIDTH_PS),
            registrations: Vec::new(),
            next_mapping: 1,
            interrupt_log: Vec::new(),
            syscall_log: Vec::new(),
            delivery_log: Vec::new(),
            drop_log: Vec::new(),
            node_events,
            tracer,
            telemetry: MachineTelemetry::default(),
            pool,
            armed,
            armed_total: 0,
            window_enabled: false,
            window_limit: None,
            scratch_fx: NodeEffects::default(),
            scratch_wakeups: NodeEffects::default(),
            slot_of,
            batches_run: 0,
            win_stats: WindowStats::default(),
            profiler: EngineProfiler::new(config.telemetry.profile),
            recorder,
            scratch_flight: Vec::new(),
            active,
        }
    }

    /// Number of discrete events handled since construction; a measure of
    /// simulator work, independent of wall-clock (used by `simspeed`).
    pub fn events_processed(&self) -> u64 {
        self.sched.processed()
    }

    /// Events dispatched per node since construction (index = node id) —
    /// a per-node breakdown of [`Machine::events_processed`].
    pub fn node_event_counts(&self) -> &[u64] {
        &self.node_events
    }

    /// Lookahead windows executed. Window formation runs at every
    /// worker count (with one worker the slices execute inline, with
    /// more they fan out to the pool), so this — like the per-cause
    /// close counters in [`Machine::window_stats`] — is worker-invariant
    /// and confirms the window engine actually engaged.
    pub fn parallel_batches(&self) -> u64 {
        self.batches_run
    }

    /// Deterministic window telemetry: per-[`BarrierCause`] close
    /// counters plus depth/participants/events-per-slice histograms.
    /// Worker-invariant, and also published as `engine.windows.*` /
    /// `engine.barrier.*` / `engine.window.*` in
    /// [`Machine::metrics_snapshot`] once any window has closed.
    pub fn window_stats(&self) -> &WindowStats {
        &self.win_stats
    }

    /// The wall-clock engine profile, when `telemetry.profile` is on.
    /// Wall times vary run to run and worker count to worker count, so
    /// they are deliberately NOT part of [`Machine::metrics_snapshot`]
    /// (which must stay worker-invariant) — this report is the only way
    /// out.
    pub fn profile(&self) -> Option<EngineProfileReport> {
        self.profiler.is_enabled().then(|| {
            EngineProfileReport::new(
                &self.profiler,
                self.config.workers,
                self.pool.as_ref().map_or(0, WorkerPool::busy_ns),
            )
        })
    }

    /// The causal flight recorder (recent packet-lifecycle events).
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Renders the flight recorder's retained events — the same text
    /// printed when a run panics.
    pub fn flight_dump(&self) -> String {
        self.recorder.render()
    }

    /// The retained causal trail of packets on the lane `src → dst`:
    /// inject → route/reroute/bounce → eject → deliver, `(time, seq)`
    /// sorted.
    pub fn packet_trail(&self, src: NodeId, dst: NodeId) -> Vec<FlightEntry> {
        self.recorder.trail(src.0, dst.0)
    }

    /// The configuration in force.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0 as usize]
    }

    // ────────────────────────── kernel services ──────────────────────────

    /// Creates a process on `node`.
    pub fn create_process(&mut self, node: NodeId) -> Pid {
        self.node_mut(node).kernel.create_process()
    }

    /// Allocates `pages` fresh pages in a process, returning the base
    /// virtual address.
    ///
    /// # Errors
    ///
    /// Propagates kernel allocation errors.
    pub fn alloc_pages(&mut self, node: NodeId, pid: Pid, pages: u64) -> Result<VirtAddr, MachineError> {
        let vpn = self.node_mut(node).kernel.alloc_pages(pid, pages)?;
        Ok(vpn.base())
    }

    /// Publishes `[va, va + pages)` of a process as mappable by remote
    /// senders (optionally restricted to one node).
    ///
    /// # Errors
    ///
    /// Propagates kernel export errors.
    pub fn export_buffer(
        &mut self,
        node: NodeId,
        pid: Pid,
        va: VirtAddr,
        pages: u64,
        allowed: Option<NodeId>,
    ) -> Result<ExportId, MachineError> {
        assert_eq!(va.offset(), 0, "exports are page-granular");
        Ok(self
            .node_mut(node)
            .kernel
            .export_buffer(pid, va.page(), pages, allowed)?)
    }

    /// Establishes a virtual memory mapping: the expensive, fully
    /// protection-checked `map` system call of paper §2. Costs
    /// [`MachineConfig::map_syscall_cost`] of simulated time.
    ///
    /// Arbitrary (non-page-aligned) ranges are supported through the
    /// §3.2 split-page mechanism; each source page may end up carrying
    /// two NIPT segments.
    ///
    /// # Errors
    ///
    /// Fails if the send buffer is not mapped, the export does not admit
    /// the sender, or the NIPT cannot hold the required segments.
    pub fn map(&mut self, req: MapRequest) -> Result<MappingId, MachineError> {
        if req.len == 0 {
            return Err(MachineError::EmptyMapping);
        }
        let first_dst_page_index = req.dst_offset / PAGE_SIZE;
        let last_dst_page_index = (req.dst_offset + req.len - 1) / PAGE_SIZE;
        let dst_pages = last_dst_page_index - first_dst_page_index + 1;

        // Receiver half: protection check, pin/record, collect frames.
        let token = self.node_mut(req.dst_node).kernel.grant_in_mapping(
            req.export,
            req.src_node,
            first_dst_page_index,
            dst_pages,
        )?;
        for &frame in &token.frames {
            self.node_mut(req.dst_node).nic.map_in(frame, true)?;
        }

        // Sender half: validate + write-through caching.
        let first_src_vpn = req.src_va.page();
        let last_src_vpn = req.src_va.add(req.len - 1).page();
        let src_pages = last_src_vpn.raw() - first_src_vpn.raw() + 1;
        self.node_mut(req.src_node)
            .kernel
            .prepare_out_mapping(req.src_pid, first_src_vpn, src_pages, req.dst_node, &{
                // Primary destination frame per source page, for the §4.4
                // bookkeeping; split segments add extra records below.
                (0..src_pages)
                    .map(|i| {
                        // First buffer byte living on source page i.
                        let byte = (i * PAGE_SIZE)
                            .saturating_sub(req.src_va.offset())
                            .min(req.len - 1);
                        let idx = (req.dst_offset + byte) / PAGE_SIZE;
                        token.frames[(idx - first_dst_page_index) as usize]
                    })
                    .collect::<Vec<_>>()
            })?;
        self.flush_tlb(req.src_node);

        // Build the NIPT segments by walking both sides simultaneously,
        // splitting at every page boundary of either side.
        let mut pos = 0u64;
        while pos < req.len {
            let src_byte = req.src_va.add(pos);
            let src_vpn = src_byte.page();
            let src_frame = self.node(req.src_node).kernel.frame_of(req.src_pid, src_vpn)?;
            let src_off = src_byte.offset();

            let dst_byte = req.dst_offset + pos;
            let dst_page_index = dst_byte / PAGE_SIZE;
            let dst_frame = token.frames[(dst_page_index - first_dst_page_index) as usize];
            let dst_off = dst_byte % PAGE_SIZE;

            let chunk = (PAGE_SIZE - src_off)
                .min(PAGE_SIZE - dst_off)
                .min(req.len - pos);

            let seg = OutSegment {
                src_start: src_off,
                src_end: src_off + chunk,
                dst_node: req.dst_node,
                dst_base: dst_frame.base().add(dst_off),
                policy: req.policy,
            };
            self.node_mut(req.src_node)
                .nic
                .map_out_segment(src_frame, seg)?;
            self.node_mut(req.src_node)
                .kernel
                .add_outgoing_record(OutgoingRecord {
                    dst_node: req.dst_node,
                    dst_frame,
                    pid: req.src_pid,
                    vpn: src_vpn,
                    src_frame,
                });
            pos += chunk;
        }

        let id = MappingId(self.next_mapping);
        self.next_mapping += 1;
        self.registrations.push(Registration { id, req });
        self.tracer.emit(
            self.now(),
            TraceLevel::Info,
            ComponentId::MACHINE,
            TraceData::PageMapped {
                node: req.dst_node.0,
                page: req.src_va.page().raw(),
            },
        );

        // The map call is the deliberately slow, rare operation.
        let done = self.now() + self.config.map_syscall_cost;
        self.run_until(done);
        Ok(id)
    }

    /// Tears down a mapping established by [`Machine::map`]: removes the
    /// sender's NIPT segments and kernel records, restores write-back
    /// caching on source pages with no remaining outgoing mappings, and
    /// releases the receiver's mapped-in state when no other sender
    /// imports those frames. Costs half a `map` call of kernel time.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::EmptyMapping`] if `id` is unknown (or
    /// already unmapped).
    pub fn unmap(&mut self, id: MappingId) -> Result<(), MachineError> {
        let pos = self
            .registrations
            .iter()
            .position(|r| r.id == id)
            .ok_or(MachineError::EmptyMapping)?;
        let req = self.registrations.remove(pos).req;

        // Walk the mapped range exactly as map() did, clearing segments.
        let mut dst_frames = Vec::new();
        let mut pos_b = 0u64;
        while pos_b < req.len {
            let src_byte = req.src_va.add(pos_b);
            let src_vpn = src_byte.page();
            let src_frame = self.node(req.src_node).kernel.frame_of(req.src_pid, src_vpn)?;
            let dst_byte = req.dst_offset + pos_b;
            let dst_off = dst_byte % PAGE_SIZE;
            let chunk = (PAGE_SIZE - src_byte.offset())
                .min(PAGE_SIZE - dst_off)
                .min(req.len - pos_b);
            if let Some(seg) = self.nodes[req.src_node.0 as usize]
                .nic
                .unmap_out(src_frame, src_byte.offset())
            {
                dst_frames.push(seg.dst_base.page());
            }
            let removed = self.nodes[req.src_node.0 as usize]
                .kernel
                .remove_outgoing(req.src_pid, src_vpn, req.dst_node);
            dst_frames.extend(removed.iter().map(|r| r.dst_frame));
            // Restore write-back caching if this page has no other
            // outgoing segments left.
            let frame_clear = self.nodes[req.src_node.0 as usize]
                .nic
                .nipt()
                .entry(src_frame)
                .is_none_or(|e| !e.is_mapped_out());
            if frame_clear {
                if let Some(proc) = self.nodes[req.src_node.0 as usize]
                    .kernel
                    .process_mut(req.src_pid)
                {
                    proc.page_table_mut().set_cache_mode(src_vpn, CacheMode::WriteBack);
                }
            }
            pos_b += chunk;
        }
        self.flush_tlb(req.src_node);
        // remove_outgoing may have dropped armed invalidations.
        self.refresh_armed(req.src_node);

        dst_frames.sort_unstable();
        dst_frames.dedup();
        for frame in dst_frames {
            let free = self.nodes[req.dst_node.0 as usize]
                .kernel
                .release_import(frame, req.src_node);
            if free {
                let _ = self.nodes[req.dst_node.0 as usize].nic.map_in(frame, false);
            }
        }

        self.tracer.emit(
            self.now(),
            TraceLevel::Info,
            ComponentId::MACHINE,
            TraceData::PageUnmapped {
                node: req.dst_node.0,
                page: req.src_va.page().raw(),
            },
        );
        let done = self.now() + self.config.map_syscall_cost / 2;
        self.run_until(done);
        Ok(())
    }

    /// Maps the command page controlling the page backing `data_va` into
    /// the process's address space, returning the command page's virtual
    /// base address (§4.2). Accesses at offset `o` of the command page
    /// talk to the NIC about offset `o` of the data page.
    ///
    /// # Errors
    ///
    /// Fails if `data_va` is not mapped.
    pub fn map_command_page(
        &mut self,
        node: NodeId,
        pid: Pid,
        data_va: VirtAddr,
    ) -> Result<VirtAddr, MachineError> {
        let pages_per_node = self.config.pages_per_node;
        let frame = self.node(node).kernel.frame_of(pid, data_va.page())?;
        let kernel = &mut self.node_mut(node).kernel;
        let proc = kernel
            .process_mut(pid)
            .ok_or(MachineError::Os(OsError::NoSuchProcess(pid)))?;
        let vpn = proc.reserve_vpns(1);
        // Command "frames" live just past installed memory, at the fixed
        // distance the hardware decodes.
        let cmd_frame = PageNum::new(pages_per_node + frame.raw());
        proc.page_table_mut().map(
            vpn,
            cmd_frame,
            shrimp_mem::PageFlags {
                protection: shrimp_mem::Protection::ReadWrite,
                cache_mode: CacheMode::WriteThrough, // uncached in effect; bypassed below
                pinned: true,
            },
        );
        Ok(vpn.base())
    }

    // ───────────────────────── program execution ─────────────────────────

    /// Binds a program to `(node, pid)` as its CPU context.
    pub fn load_program(&mut self, node: NodeId, pid: Pid, program: Program) {
        let cpu = Cpu::with_config(program, self.config.cpu);
        self.node_mut(node).cpus.insert(pid, cpu);
    }

    /// Sets a register of a process's CPU (experiment setup).
    ///
    /// # Panics
    ///
    /// Panics if the process has no loaded program.
    pub fn set_reg(&mut self, node: NodeId, pid: Pid, reg: Reg, value: u32) {
        self.node_mut(node)
            .cpus
            .get_mut(&pid)
            .expect("process has no loaded program")
            .set_reg(reg, value);
    }

    /// Read access to a process's CPU (instruction counters, registers).
    pub fn cpu(&self, node: NodeId, pid: Pid) -> Option<&Cpu> {
        self.node(node).cpus.get(&pid)
    }

    /// Points a process's CPU at a label (reusing one program for several
    /// routines).
    ///
    /// # Panics
    ///
    /// Panics if the process has no loaded program or the label is
    /// unknown.
    pub fn jump_to_label(&mut self, node: NodeId, pid: Pid, label: &str) {
        self.node_mut(node)
            .cpus
            .get_mut(&pid)
            .expect("process has no loaded program")
            .jump_to_label(label);
    }

    /// Makes a process runnable and kicks its node's CPU.
    pub fn start(&mut self, node: NodeId, pid: Pid) {
        let now = self.now();
        let n = self.node_mut(node);
        n.sched.add(pid);
        let at = now.max(n.cpu_busy_until);
        self.push_event(at, node.0, NodeEvent::CpuStep);
    }

    /// True when every loaded CPU has halted.
    pub fn all_halted(&self) -> bool {
        self.nodes
            .iter()
            .flat_map(|n| n.cpus.values())
            .all(|c| c.is_halted())
    }

    // ───────────────────────── host-level data ops ───────────────────────

    /// Writes bytes through the full store datapath (translation, cache,
    /// bus, NIC snooping) at the current time, word by word. Advances
    /// simulated time past the last bus transaction.
    ///
    /// # Errors
    ///
    /// Propagates translation and protection errors.
    ///
    /// # Panics
    ///
    /// Panics unless `va` and `data.len()` are word-aligned.
    pub fn poke(
        &mut self,
        node: NodeId,
        pid: Pid,
        va: VirtAddr,
        data: &[u8],
    ) -> Result<(), MachineError> {
        assert!(va.is_word_aligned(), "poke must be word-aligned");
        assert_eq!(data.len() % WORD_SIZE as usize, 0, "poke length must be whole words");
        let mut t = self.now();
        for (i, word) in data.chunks_exact(4).enumerate() {
            let value = u32::from_le_bytes(word.try_into().expect("4-byte chunk"));
            let addr = va.add(i as u64 * WORD_SIZE);
            t = self.store_through(node, pid, t, addr, value)?;
        }
        self.run_until(t);
        Ok(())
    }

    /// Reads process memory without advancing time (experiment
    /// observation, not part of the modelled workload).
    ///
    /// # Errors
    ///
    /// Propagates translation errors.
    pub fn peek(
        &self,
        node: NodeId,
        pid: Pid,
        va: VirtAddr,
        len: u64,
    ) -> Result<Vec<u8>, MachineError> {
        let n = self.node(node);
        let proc = n
            .kernel
            .process(pid)
            .ok_or(MachineError::Os(OsError::NoSuchProcess(pid)))?;
        let mut out = Vec::with_capacity(len as usize);
        let mut pos = 0;
        while pos < len {
            let a = va.add(pos);
            let t = proc.page_table().translate_read(a)?;
            let chunk = (PAGE_SIZE - a.offset()).min(len - pos);
            out.extend_from_slice(&n.mem.read_bytes(t.phys, chunk)?);
            pos += chunk;
        }
        Ok(out)
    }

    /// Reads physical memory directly (tests and benches).
    ///
    /// # Errors
    ///
    /// Propagates range errors.
    pub fn peek_phys(&self, node: NodeId, addr: PhysAddr, len: u64) -> Result<Vec<u8>, MachineError> {
        Ok(self.node(node).mem.read_bytes(addr, len)?)
    }

    /// Translates a virtual address through a process page table without
    /// touching the TLB or advancing time. Workload harnesses use this
    /// to attribute [`DeliveryRecord`]s (which carry physical
    /// destinations) back to the session whose receive buffer they
    /// landed in.
    ///
    /// # Errors
    ///
    /// Propagates translation errors; `Os(NoSuchProcess)` when `pid` is
    /// unknown on `node`.
    pub fn translate(
        &self,
        node: NodeId,
        pid: Pid,
        va: VirtAddr,
    ) -> Result<PhysAddr, MachineError> {
        let n = self.node(node);
        let proc = n
            .kernel
            .process(pid)
            .ok_or(MachineError::Os(OsError::NoSuchProcess(pid)))?;
        Ok(proc.page_table().translate_read(va)?.phys)
    }

    // ──────────────────────── session accounting ─────────────────────────

    /// Records a workload session opening with `node` as its source.
    /// Pure accounting — no events, no time: the counters surface in
    /// [`Machine::metrics_snapshot`] (only once nonzero, so runs without
    /// sessions keep their pinned snapshots byte-identical).
    pub fn note_session_opened(&mut self, node: NodeId) {
        self.node_mut(node).sessions_opened += 1;
    }

    /// Records a workload session closing (pairs with
    /// [`Machine::note_session_opened`]).
    ///
    /// # Panics
    ///
    /// Panics if the node has no open session.
    pub fn note_session_closed(&mut self, node: NodeId) {
        let n = self.node_mut(node);
        assert!(n.sessions_opened > n.sessions_closed, "no open session on {node:?}");
        n.sessions_closed += 1;
    }

    /// Sessions currently open on `node` (opened − closed).
    pub fn sessions_open(&self, node: NodeId) -> u64 {
        self.node(node).sessions_open()
    }

    /// Runs until the delivery log grows past `seen` records or the
    /// machine idles/reaches `limit`; true when a new delivery arrived.
    /// The closed-loop generator's blocking wait: like
    /// [`Machine::run_until_pred`] it runs windowless, so outcomes are
    /// identical for any worker count.
    pub fn run_until_new_delivery(&mut self, limit: SimTime, seen: usize) -> bool {
        self.run_until_pred(limit, |m| m.delivery_log.len() > seen)
    }

    // ───────────────────────────── paging ────────────────────────────────

    /// Starts the §4.4 pageout protocol for a frame of `node`.
    ///
    /// # Errors
    ///
    /// Propagates kernel protocol errors (pinned frame, no importers,
    /// already in progress).
    pub fn begin_pageout(&mut self, node: NodeId, frame: PageNum) -> Result<(), MachineError> {
        let msgs = self.node_mut(node).kernel.begin_pageout(frame)?;
        // No sticky serial fallback: the invalidations this protocol
        // arms are tracked per node (`armed`), and the window gate
        // refuses to open while any are outstanding, so the §4.4
        // reestablish path only ever runs between windows.
        let latency = self.config.kernel_msg_latency;
        let at = self.now() + latency;
        for (dst, msg) in msgs {
            self.push_event(at, dst.0, NodeEvent::KernelMsg { msg });
        }
        Ok(())
    }

    /// True once every importer acknowledged (run the machine first).
    pub fn pageout_complete(&self, node: NodeId, frame: PageNum) -> bool {
        self.node(node).kernel.pageout_complete(frame)
    }

    /// Finishes a complete pageout, freeing the frame.
    ///
    /// # Errors
    ///
    /// Propagates kernel protocol errors.
    pub fn complete_pageout(&mut self, node: NodeId, frame: PageNum) -> Result<(), MachineError> {
        let n = self.node_mut(node);
        n.kernel.complete_pageout(frame)?;
        n.nic.map_in(frame, false)?;
        self.flush_tlb(node);
        Ok(())
    }

    // ──────────────────────────── event loop ─────────────────────────────

    /// Runs until `limit`, processing machine and mesh events in time
    /// order. If anything panics mid-run (an assertion deep in a
    /// component, say), the flight recorder's recent events are dumped
    /// to stderr before the panic resumes.
    pub fn run_until(&mut self, limit: SimTime) {
        self.mark_all_active();
        self.window_enabled = true;
        self.window_limit = Some(limit);
        let bound = StepBound::until(limit);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            while step(self, bound) == StepOutcome::Ran {}
        }));
        if let Err(payload) = run {
            self.dump_flight_on_panic();
            std::panic::resume_unwind(payload);
        }
        self.window_enabled = false;
        self.window_limit = None;
        self.sched.advance_clock(limit);
    }

    /// Runs for a span of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.now() + d;
        self.run_until(t);
    }

    /// Runs until no machine or mesh events remain (all CPUs halted or
    /// spinning CPUs excepted — a spinning CPU never quiesces, so this
    /// errors if more than `MAX_IDLE_STEPS` instants fire without the
    /// queues emptying).
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NoQuiescence`] if the machine keeps
    /// generating events (e.g. a CPU is spin-waiting forever).
    pub fn run_until_idle(&mut self) -> Result<(), MachineError> {
        const MAX_IDLE_STEPS: u64 = 50_000_000;
        self.mark_all_active();
        self.window_enabled = true;
        self.window_limit = None;
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut steps = 0u64;
            loop {
                steps += 1;
                if steps > MAX_IDLE_STEPS {
                    return Err(MachineError::NoQuiescence);
                }
                match step(self, StepBound::unbounded()) {
                    StepOutcome::Idle => return Ok(()),
                    StepOutcome::Ran => {}
                    StepOutcome::PastLimit => unreachable!("unbounded step has no limit"),
                }
            }
        }));
        match run {
            Ok(result) => {
                self.window_enabled = false;
                result
            }
            Err(payload) => {
                self.dump_flight_on_panic();
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// Puts every node on the pump worklist. Called at the entry of each
    /// run wrapper: the host API may have mutated any node between runs,
    /// and cannot mutate one during a run.
    fn mark_all_active(&mut self) {
        self.active.mark_all(self.nodes.len());
    }

    /// Prints the flight recorder's retained events to stderr; called on
    /// the panic path of the run wrappers so a failing assertion ships
    /// its causal context.
    fn dump_flight_on_panic(&self) {
        if self.recorder.is_enabled() && self.recorder.recorded() > 0 {
            eprintln!("{}", self.recorder.render());
        }
    }

    /// Runs until `pred` holds, checking between instants, up to
    /// `limit`. Returns whether the predicate held. ([`step`] never
    /// splits an instant, so the predicate always observes a consistent
    /// inter-instant state.)
    pub fn run_until_pred(&mut self, limit: SimTime, mut pred: impl FnMut(&Machine) -> bool) -> bool {
        // Windows stay off: a window executes a whole `[t, t+L)` span
        // between predicate checks, which would let the run overshoot
        // the state the predicate is waiting for.
        self.window_enabled = false;
        self.mark_all_active();
        let bound = StepBound::until(limit);
        loop {
            if pred(self) {
                return true;
            }
            match step(self, bound) {
                StepOutcome::Idle => return pred(self),
                StepOutcome::PastLimit => return false,
                StepOutcome::Ran => {}
            }
        }
    }

    // ──────────────────────── event dispatching ──────────────────────────

    /// Schedules a machine event on its target node's queue shard.
    fn push_event(&mut self, at: SimTime, node: u16, ev: NodeEvent) {
        self.sched.push_shard(node as u32, at, Event { node, ev });
    }

    /// Re-reads one node's armed-invalidation count after anything that
    /// may have changed it (a §4.4 kernel message, a serviced write
    /// fault, an unmap).
    fn refresh_armed(&mut self, node: NodeId) {
        let now = self.nodes[node.0 as usize].kernel.armed_invalidations();
        let slot = &mut self.armed[node.0 as usize];
        self.armed_total = self.armed_total + now - *slot;
        *slot = now;
    }

    /// Routes one popped event: through a lookahead window when the
    /// window engine applies, inline otherwise. Windows form at every
    /// worker count — with one worker the slices execute inline on this
    /// thread — so the window/barrier telemetry is worker-invariant.
    fn dispatch_event(&mut self, t: SimTime, ev: Event) {
        // A window is sound only when no §4.4 invalidation is armed
        // anywhere (an armed node's write fault reaches across nodes
        // with zero delay) and the lead event is windowable: CpuStep and
        // KernelMsg touch only their own node, while DmaComplete pumps
        // the network and the wakeup events touch the mesh (DESIGN.md
        // §5e).
        if self.window_enabled
            && matches!(ev.ev, NodeEvent::CpuStep | NodeEvent::KernelMsg { .. })
        {
            if self.armed_total == 0 {
                match self.window_end(t) {
                    Ok((w_end, clamp)) => {
                        self.run_window(t, ev, w_end, clamp);
                        return;
                    }
                    // The window could not even open (a mesh event is
                    // due at or before `t`): a zero-length close, with
                    // the clamp as its cause.
                    Err(cause) => self.win_stats.note_close(cause),
                }
            } else {
                // Refused outright: an armed invalidation somewhere
                // keeps every window closed.
                self.win_stats.note_close(BarrierCause::ArmedInvalidation);
            }
        }
        self.node_events[ev.node as usize] += 1;
        self.active.mark(ev.node);
        self.execute_inline(t, ev.node, ev.ev);
    }

    /// The exclusive end of a lookahead window opening at `t`: the
    /// static bound `t + L`, clamped to the next mesh event (the mesh
    /// must advance before anything at or after it) and the run bound.
    /// `Ok` carries the end plus what bounded it (for barrier-cause
    /// attribution); `Err` carries the cause when the window would be
    /// empty. Strict `<` comparisons keep the computed end identical to
    /// a plain three-way `min`.
    fn window_end(&self, t: SimTime) -> Result<(SimTime, BarrierCause), BarrierCause> {
        let mut w = t + self.config.lookahead();
        let mut cause = BarrierCause::Horizon;
        if let Some(mt) = Component::next_event_time(&self.mesh) {
            if mt < w {
                w = mt;
                cause = BarrierCause::MeshEventClamp;
            }
        }
        if let Some(limit) = self.window_limit {
            // Events *at* the limit may still run.
            let l = limit + SimDuration::from_picos(1);
            if l < w {
                w = l;
                cause = BarrierCause::LimitClamp;
            }
        }
        if w > t {
            Ok((w, cause))
        } else {
            Err(cause)
        }
    }

    /// Runs one lookahead window `[t, w_end)`: drains every windowable
    /// event in the span, fans the participating nodes out across the
    /// worker pool, then replays all recorded consequences in exact
    /// global `(time, seq)` order so the machine state, queue and logs
    /// evolve byte-identically to sequential execution (DESIGN.md §5e).
    fn run_window(&mut self, t: SimTime, first: Event, w_end: SimTime, clamp: BarrierCause) {
        self.batches_run += 1;
        let first_seq = self.sched.last_popped_seq();

        // ── Formation: group drained events per node, drain order. ──
        let p_form = self.profiler.begin();
        let mut tasks: Vec<(u16, Vec<WindowEntry>)> = Vec::new();
        self.slot_of[first.node as usize] = 0;
        tasks.push((first.node, vec![(t, first_seq, first.ev)]));
        for (time, seq, _, e) in self
            .sched
            .drain_window(w_end, |e| {
                matches!(e.ev, NodeEvent::CpuStep | NodeEvent::KernelMsg { .. })
            })
        {
            let slot = self.slot_of[e.node as usize];
            if slot >= 0 {
                tasks[slot as usize].1.push((time, seq, e.ev));
            } else {
                self.slot_of[e.node as usize] = tasks.len() as i32;
                tasks.push((e.node, vec![(time, seq, e.ev)]));
            }
        }
        for &(node, _) in &tasks {
            self.slot_of[node as usize] = -1;
        }
        self.profiler.end(EnginePhase::Formation, p_form);

        // ── Execution: ship slots 1.. to workers, run slot 0 here
        // (with one worker there is no pool: every slice runs inline,
        // which is byte-identical — slices of one window are causally
        // independent by construction). ──
        let p_exec = self.profiler.begin();
        let n = tasks.len();
        let mut outcomes: Vec<Option<NodeWindowOutcome>> = (0..n).map(|_| None).collect();
        let mut owners: Vec<u16> = Vec::with_capacity(n);
        {
            let mut it = tasks.into_iter();
            let (first_node, first_entries) = it.next().expect("window has a lead");
            owners.push(first_node);
            if let Some(pool) = self.pool.as_mut() {
                let base = self.nodes.as_mut_ptr();
                for (slot, (node, entries)) in it.enumerate() {
                    owners.push(node);
                    // SAFETY: window nodes are pairwise distinct
                    // (`slot_of`), the Vec is not resized while jobs are
                    // in flight, and all results are received below
                    // before the nodes are touched.
                    unsafe { pool.submit(slot + 1, base.add(node as usize), entries, w_end) };
                }
                outcomes[0] = Some(execute_window(
                    &mut self.nodes[first_node as usize],
                    &self.config,
                    first_entries,
                    w_end,
                ));
                for _ in 1..n {
                    let (slot, oc) = pool.recv();
                    outcomes[slot] = Some(oc);
                }
            } else {
                outcomes[0] = Some(execute_window(
                    &mut self.nodes[first_node as usize],
                    &self.config,
                    first_entries,
                    w_end,
                ));
                for (slot, (node, entries)) in it.enumerate() {
                    owners.push(node);
                    outcomes[slot + 1] = Some(execute_window(
                        &mut self.nodes[node as usize],
                        &self.config,
                        entries,
                        w_end,
                    ));
                }
            }
        }
        let mut outcomes: Vec<NodeWindowOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("one outcome per slot"))
            .collect();
        self.profiler.end(EnginePhase::Execution, p_exec);

        // Window telemetry: what closed this window, and its shape.
        // The slice-close set is deterministic (each slice's cause
        // depends only on that node's events), so the attribution is
        // worker-invariant: any slice barrier outranks the clamp, with
        // a fixed Fault > KernelMsg > MeshWakeup priority across
        // slices.
        let (mut fault, mut kmsg, mut wake) = (false, false, false);
        for oc in &outcomes {
            match oc.close {
                Some(SliceClose::Fault) => fault = true,
                Some(SliceClose::KernelMsg) => kmsg = true,
                Some(SliceClose::MeshWakeup) => wake = true,
                None => {}
            }
        }
        let cause = if fault {
            BarrierCause::Fault
        } else if kmsg {
            BarrierCause::KernelMsg
        } else if wake {
            BarrierCause::MeshWakeup
        } else {
            clamp
        };
        self.win_stats.note_close(cause);
        self.win_stats.participants.record(n as u64);
        for oc in &outcomes {
            self.win_stats.slice_events.record(oc.records.len() as u64);
        }

        // ── Commit: replay in global (time, seq) order. ──
        let p_commit = self.profiler.begin();
        // Unexecuted drained entries go back under their original
        // sequence numbers first, so the queue is whole before any
        // effect lands on it.
        for (slot, oc) in outcomes.iter_mut().enumerate() {
            let node = owners[slot];
            for (time, seq, ev) in oc.leftovers.drain(..) {
                self.sched.push_with_seq(node as u32, time, seq, Event { node, ev });
            }
        }
        // Merge heap over (time, seq, slot, record): roots carry their
        // real queue seqs; children enter when their parent is replayed,
        // under fresh virtual seqs above every real one — exactly the
        // order the sequential queue would have popped them.
        let mut merge: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, u64, u32, u32)>> =
            std::collections::BinaryHeap::new();
        for (slot, oc) in outcomes.iter().enumerate() {
            for (i, rec) in oc.records.iter().enumerate() {
                if rec.root {
                    merge.push(std::cmp::Reverse((rec.time, rec.seq, slot as u32, i as u32)));
                }
            }
        }
        let mut vseq = self.sched.seq_watermark();
        let mut executed = 0u64;
        let mut max_t = t;
        while let Some(std::cmp::Reverse((time, _, slot, rec_idx))) = merge.pop() {
            executed += 1;
            max_t = max_t.max(time);
            let node = owners[slot as usize];
            self.node_events[node as usize] += 1;
            self.active.mark(node);
            let (start, len, kernel_msg) = {
                let rec = &outcomes[slot as usize].records[rec_idx as usize];
                (rec.act_start as usize, rec.act_len as usize, rec.kernel_msg)
            };
            for i in start..start + len {
                let (action, child) = {
                    let oc = &mut outcomes[slot as usize];
                    (oc.actions[i].take().expect("each action replays once"), oc.child_of[i])
                };
                match action {
                    Action::Push { at, node: dst, ev } => {
                        if child >= 0 {
                            // Pre-executed inside the window: enters the
                            // replay order instead of the real queue.
                            let ct = outcomes[slot as usize].records[child as usize].time;
                            merge.push(std::cmp::Reverse((ct, vseq, slot, child as u32)));
                            vseq += 1;
                        } else {
                            self.push_event(at, dst, ev);
                        }
                    }
                    Action::Syscall { pid, code } => {
                        self.syscall_log.push((time, NodeId(node), pid, code));
                    }
                    Action::Fault { pid, error } => {
                        self.handle_fault(time, NodeId(node), pid, error);
                    }
                    Action::PumpNetwork => unreachable!("window events never pump the network"),
                }
            }
            if kernel_msg {
                self.refresh_armed(NodeId(node));
            }
        }
        // The lead pop was already counted by the scheduler.
        self.sched.note_processed(executed - 1);
        self.sched.advance_clock(max_t);
        self.win_stats.depth.record(executed);
        self.profiler.end(EnginePhase::Commit, p_commit);
    }

    /// Executes one event on the machine thread (the sequential path,
    /// and every mesh-coupled event in parallel mode).
    fn execute_inline(&mut self, t: SimTime, node: u16, ev: NodeEvent) {
        match ev {
            NodeEvent::NicHousekeep => {
                let n = &mut self.nodes[node as usize];
                n.housekeep_wakeup = None;
                Component::advance(n, t);
                self.schedule_node_wakeups(t, NodeId(node));
                // A housekeep may end an injected FIFO stall or arm a
                // retransmit replay; resume acceptance and push replays.
                self.deliver_ejections(t, NodeId(node));
                self.drain_outgoing(t, NodeId(node));
            }
            NodeEvent::DrainOutgoing => {
                self.nodes[node as usize].drain_wakeup = None;
                self.drain_outgoing(t, NodeId(node));
            }
            NodeEvent::PopIncoming => {
                self.nodes[node as usize].pop_wakeup = None;
                self.pop_incoming(t, NodeId(node));
            }
            local => {
                let was_kernel_msg = matches!(local, NodeEvent::KernelMsg { .. });
                let mut fx = std::mem::take(&mut self.scratch_fx);
                self.nodes[node as usize].execute(t, local, &self.config, &mut fx);
                self.apply_effects(t, NodeId(node), &mut fx);
                self.scratch_fx = fx;
                if was_kernel_msg {
                    // A §4.4 message may have armed an invalidation.
                    self.refresh_armed(NodeId(node));
                }
            }
        }
    }

    /// Applies a node's recorded effects, in recording order.
    fn apply_effects(&mut self, t: SimTime, node: NodeId, fx: &mut NodeEffects) {
        for action in fx.actions.drain(..) {
            match action {
                Action::Push { at, node, ev } => self.push_event(at, node, ev),
                Action::Syscall { pid, code } => self.syscall_log.push((t, node, pid, code)),
                Action::Fault { pid, error } => self.handle_fault(t, node, pid, error),
                Action::PumpNetwork => {
                    let p = self.profiler.begin_sampled(EnginePhase::MeshPump);
                    self.pump_network(t);
                    self.profiler.end_sampled(EnginePhase::MeshPump, p);
                }
            }
        }
    }

    // ────────────────────────── network pumping ──────────────────────────

    /// Delivers due ejections, drains Outgoing FIFOs into the mesh and
    /// collects interrupts on every node of the active worklist, in
    /// ascending node id. Runs after every mesh advance and after every
    /// `DmaComplete`; the run loops interleave mesh events natively, so
    /// no wakeup needs to be scheduled here.
    ///
    /// Nodes off the worklist are fully idle — no outgoing packet, NIC
    /// deadline or incoming delivery, and an empty ejection buffer — so
    /// their visit would do nothing; skipping them keeps every visit
    /// that still happens in its old order (DESIGN.md §5j). A visit
    /// touches only its own node and the mesh's injection side, so no
    /// node joins the worklist mid-pump.
    fn pump_network(&mut self, t: SimTime) {
        #[cfg(debug_assertions)]
        self.assert_skipped_nodes_idle();
        let mut visits = 0u64;
        for w in 0..self.active.words.len() {
            let mut bits = self.active.words[w];
            while bits != 0 {
                let node = (w * 64) as u16 + bits.trailing_zeros() as u16;
                bits &= bits - 1;
                let id = NodeId(node);
                self.deliver_ejections(t, id);
                let nic_quiet = self.drain_outgoing(t, id);
                self.collect_interrupts(t, id);
                if nic_quiet && self.mesh.peek_ejection(id).is_none() {
                    self.active.clear(node);
                }
                visits += 1;
            }
        }
        self.profiler.note_pump_visits(visits);
    }

    /// The worklist invariant: every node a pump skips is fully idle.
    #[cfg(debug_assertions)]
    fn assert_skipped_nodes_idle(&self) {
        for (i, n) in self.nodes.iter().enumerate() {
            let id = NodeId(i as u16);
            if !self.active.contains(id.0) {
                assert!(
                    Component::next_event_time(n).is_none()
                        && self.mesh.peek_ejection(id).is_none(),
                    "{id:?} is off the pump worklist but has network work"
                );
            }
        }
    }

    fn deliver_ejections(&mut self, t: SimTime, node: NodeId) {
        loop {
            let n = &mut self.nodes[node.0 as usize];
            if !n.nic.can_accept_from_network_at(t) {
                break;
            }
            match self.mesh.peek_ejection(node) {
                Some(arrival) if arrival <= t => {
                    let (pkt, arrival) = self.mesh.eject(node).expect("peeked ejection");
                    if self.recorder.is_enabled() {
                        self.recorder.record(
                            node.0 as usize,
                            TraceEvent {
                                time: arrival.max(t),
                                level: TraceLevel::Info,
                                component: ComponentId::nic(node.0),
                                data: TraceData::PacketEjected {
                                    src: pkt.src().0,
                                    dst: pkt.dst().0,
                                    bytes: pkt.wire_len() as u32,
                                },
                            },
                        );
                    }
                    let n = &mut self.nodes[node.0 as usize];
                    if let Err(e) = n.nic.accept_packet(arrival.max(t), pkt) {
                        self.drop_log.push((t, node, e));
                    }
                }
                _ => break,
            }
        }
        if let Some(r) = self.nodes[node.0 as usize].nic.incoming_ready_at() {
            self.push_pop_wakeup(t, node, r.max(t));
        }
    }

    /// Schedules a deduplicated PopIncoming wakeup.
    fn push_pop_wakeup(&mut self, t: SimTime, node: NodeId, at: SimTime) {
        let mut fx = std::mem::take(&mut self.scratch_wakeups);
        self.nodes[node.0 as usize].due_pop_wakeup(t, at, &mut fx);
        self.apply_pushes(&mut fx);
        self.scratch_wakeups = fx;
    }

    /// Injects every ready Outgoing-FIFO packet the mesh accepts, then
    /// schedules the node's wakeups. Returns true when the NIC has no
    /// pending work at all (see [`Node::schedule_wakeups`]).
    fn drain_outgoing(&mut self, t: SimTime, node: NodeId) -> bool {
        loop {
            if !self.mesh.can_inject(node) {
                // Mesh backpressure: retried on the next mesh event.
                break;
            }
            match self.nodes[node.0 as usize].drain_outbound(t) {
                Some(pkt) => {
                    if self.tracer.wants(TraceLevel::Info) {
                        let inner = pkt.payload();
                        self.tracer.emit(
                            t,
                            TraceLevel::Info,
                            ComponentId::nic(node.0),
                            TraceData::PacketInjected {
                                src: pkt.src().0,
                                dst: pkt.dst().0,
                                bytes: inner.wire_len() as u32,
                                seq: inner.link().map(|l| l.seq),
                            },
                        );
                    }
                    if self.recorder.is_enabled() {
                        let inner = pkt.payload();
                        self.recorder.record(
                            node.0 as usize,
                            TraceEvent {
                                time: t,
                                level: TraceLevel::Info,
                                component: ComponentId::nic(node.0),
                                data: TraceData::PacketInjected {
                                    src: pkt.src().0,
                                    dst: pkt.dst().0,
                                    bytes: inner.wire_len() as u32,
                                    seq: inner.link().map(|l| l.seq),
                                },
                            },
                        );
                    }
                    if self.mesh.try_inject(t, pkt).is_err() {
                        debug_assert!(false, "can_inject checked above");
                        break;
                    }
                }
                None => break,
            }
        }
        self.schedule_node_wakeups(t, node)
    }

    fn pop_incoming(&mut self, t: SimTime, node: NodeId) {
        loop {
            let n = &mut self.nodes[node.0 as usize];
            match n.nic.pop_incoming(t) {
                Some(Ok(delivery)) => {
                    let start = delivery.ready_at.max(t);
                    let grant = n
                        .eisa
                        .dma_write(start, delivery.dst_addr, delivery.data.len() as u64)
                        .grant;
                    if self.tracer.wants(TraceLevel::Info) {
                        let bytes = delivery.data.len() as u32;
                        let c = ComponentId::nic(node.0);
                        self.tracer.emit(
                            grant.start,
                            TraceLevel::Info,
                            c,
                            TraceData::DmaStart { node: node.0, bytes },
                        );
                        self.tracer.emit(
                            grant.end,
                            TraceLevel::Info,
                            c,
                            TraceData::DmaEnd { node: node.0, bytes },
                        );
                        self.tracer.emit(
                            grant.end,
                            TraceLevel::Info,
                            c,
                            TraceData::PacketDelivered {
                                src: delivery.src.0,
                                dst: node.0,
                                bytes,
                            },
                        );
                    }
                    if self.config.telemetry.latency {
                        self.telemetry.record(LatencyRecord {
                            node,
                            src: delivery.src,
                            bytes: delivery.data.len() as u64,
                            born: delivery.stamp.born,
                            injected: delivery.stamp.injected,
                            accepted: delivery.stamp.accepted,
                            dma_start: grant.start,
                            dma_end: grant.end,
                        });
                    }
                    if self.recorder.is_enabled() {
                        self.recorder.record(
                            node.0 as usize,
                            TraceEvent {
                                time: grant.end,
                                level: TraceLevel::Info,
                                component: ComponentId::nic(node.0),
                                data: TraceData::PacketDelivered {
                                    src: delivery.src.0,
                                    dst: node.0,
                                    bytes: delivery.data.len() as u32,
                                },
                            },
                        );
                    }
                    self.delivery_log.push(DeliveryRecord {
                        time: grant.end,
                        node,
                        dst_addr: delivery.dst_addr,
                        len: delivery.data.len() as u64,
                        src: delivery.src,
                    });
                    self.push_event(
                        grant.end,
                        node.0,
                        NodeEvent::DmaComplete {
                            addr: delivery.dst_addr,
                            data: delivery.data,
                        },
                    );
                }
                Some(Err(e)) => self.drop_log.push((t, node, e)),
                None => break,
            }
        }
        // Space freed: blocked ejections may now proceed.
        self.deliver_ejections(t, node);
        // Acks/nacks minted while accepting those ejections must go out
        // now — the drain wakeup filter skips same-instant readiness.
        // With retransmission off this is never taken.
        if self.nodes[node.0 as usize].nic.has_pending_control() {
            self.drain_outgoing(t, node);
        }
        self.collect_interrupts(t, node);
    }

    fn collect_interrupts(&mut self, t: SimTime, node: NodeId) {
        for irq in self.nodes[node.0 as usize].nic.take_interrupts() {
            self.interrupt_log.push((t, node, irq));
        }
    }

    fn schedule_node_wakeups(&mut self, t: SimTime, node: NodeId) -> bool {
        let mut fx = std::mem::take(&mut self.scratch_wakeups);
        let nic_quiet = self.nodes[node.0 as usize].schedule_wakeups(t, &mut fx);
        self.apply_pushes(&mut fx);
        self.scratch_wakeups = fx;
        nic_quiet
    }

    /// Applies a wakeup-only effect list (nothing but event pushes).
    fn apply_pushes(&mut self, fx: &mut NodeEffects) {
        for action in fx.actions.drain(..) {
            match action {
                Action::Push { at, node, ev } => self.push_event(at, node, ev),
                other => unreachable!("wakeup scheduling only pushes events, got {other:?}"),
            }
        }
    }

    // ─────────────────────────── fault service ───────────────────────────

    fn handle_fault(&mut self, t: SimTime, node: NodeId, pid: Pid, error: MemError) {
        if let MemError::ProtectionViolation { addr, write: true } = error {
            if let Ok(rec) = self.nodes[node.0 as usize].kernel.handle_write_fault(pid, addr) {
                // Re-establish the invalidated mapping (§4.4): re-run
                // the receiver grant for the covered pages and rewrite
                // the NIPT segments, then resume the faulting store.
                // (This mutates the destination node with zero delay —
                // sound only because the armed-invalidation gate keeps
                // every lookahead window closed while a write fault can
                // take this path.)
                let ok = self.reestablish(node, pid, rec);
                let cost = self.config.fault_cost
                    + self.config.kernel_msg_latency * 2
                    + self.config.map_syscall_cost / 4;
                if ok {
                    let resume = t + cost;
                    let n = &mut self.nodes[node.0 as usize];
                    n.cpu_busy_until = resume;
                    self.push_event(resume, node.0, NodeEvent::CpuStep);
                    self.flush_tlb(node);
                    self.refresh_armed(node);
                    return;
                }
            }
        }
        // Unserviceable fault: the process is killed.
        let n = &mut self.nodes[node.0 as usize];
        n.sched.remove(pid);
        n.running = None;
        self.syscall_log.push((t, node, pid, u32::MAX));
        self.push_event(t, node.0, NodeEvent::CpuStep);
        self.refresh_armed(node);
    }

    fn reestablish(&mut self, node: NodeId, pid: Pid, rec: OutgoingRecord) -> bool {
        let Some(reg) = self
            .registrations
            .iter()
            .find(|r| {
                r.req.src_node == node
                    && r.req.src_pid == pid
                    && r.req.src_va.page().raw() <= rec.vpn.raw()
                    && rec.vpn.raw()
                        <= r.req.src_va.add(r.req.len - 1).page().raw()
            })
            .cloned()
        else {
            return false;
        };
        let req = reg.req;
        // The faulting node is on the pump worklist already (its own
        // event raised the fault); the receiver is touched from here.
        self.active.mark(req.dst_node.0);
        // Which destination pages does this source page touch?
        let page_rel = rec.vpn.raw() - req.src_va.page().raw();
        let first_byte = (page_rel * PAGE_SIZE).saturating_sub(req.src_va.offset());
        let last_byte = ((page_rel + 1) * PAGE_SIZE - 1 - req.src_va.offset()).min(req.len - 1);
        let first_dst_page = (req.dst_offset + first_byte) / PAGE_SIZE;
        let last_dst_page = (req.dst_offset + last_byte) / PAGE_SIZE;

        // Receiver side: page the buffer back in and re-grant.
        {
            let dst_kernel = &mut self.nodes[req.dst_node.0 as usize].kernel;
            let Some(export) = dst_kernel.export(req.export).copied() else {
                return false;
            };
            for p in first_dst_page..=last_dst_page {
                let vpn = shrimp_mem::VirtPageNum::new(export.vpn.raw() + p);
                if dst_kernel.ensure_mapped(export.pid, vpn).is_err() {
                    return false;
                }
            }
        }
        let token = match self.nodes[req.dst_node.0 as usize].kernel.grant_in_mapping(
            req.export,
            req.src_node,
            first_dst_page,
            last_dst_page - first_dst_page + 1,
        ) {
            Ok(tok) => tok,
            Err(_) => return false,
        };
        for &frame in &token.frames {
            if self.nodes[req.dst_node.0 as usize]
                .nic
                .map_in(frame, true)
                .is_err()
            {
                return false;
            }
        }
        // Rewrite the segments covering this source page.
        let mut pos = first_byte;
        while pos <= last_byte {
            let src_byte = req.src_va.add(pos);
            let src_off = src_byte.offset();
            let dst_byte = req.dst_offset + pos;
            let dst_page = dst_byte / PAGE_SIZE;
            let dst_off = dst_byte % PAGE_SIZE;
            let frame = token.frames[(dst_page - first_dst_page) as usize];
            let chunk = (PAGE_SIZE - src_off)
                .min(PAGE_SIZE - dst_off)
                .min(req.len - pos);
            let seg = OutSegment {
                src_start: src_off,
                src_end: src_off + chunk,
                dst_node: req.dst_node,
                dst_base: frame.base().add(dst_off),
                policy: req.policy,
            };
            if self.nodes[node.0 as usize]
                .nic
                .map_out_segment(rec.src_frame, seg)
                .is_err()
            {
                return false;
            }
            pos += chunk;
        }
        true
    }

    fn flush_tlb(&mut self, node: NodeId) {
        self.nodes[node.0 as usize].tlb.flush();
    }

    // ─────────────────── host store path (poke / msglib) ─────────────────

    fn store_through(
        &mut self,
        node: NodeId,
        pid: Pid,
        t: SimTime,
        va: VirtAddr,
        value: u32,
    ) -> Result<SimTime, MachineError> {
        let pages_per_node = self.config.pages_per_node;
        let done =
            self.nodes[node.0 as usize].store_word_through(t, pid, va, value, pages_per_node)?;
        self.schedule_node_wakeups(t, node);
        Ok(done)
    }

    // ───────────────────────── instrumentation ───────────────────────────

    /// NIC counters of one node.
    pub fn nic_stats(&self, node: NodeId) -> shrimp_nic::nic::NicStats {
        self.node(node).nic.stats()
    }

    /// The network interface of a node (read-only inspection of whatever
    /// backend the machine was configured with).
    pub fn nic(&self, node: NodeId) -> &AnyNic {
        &self.node(node).nic
    }

    /// Mesh statistics.
    pub fn mesh_stats(&self) -> &shrimp_mesh::NetworkStats {
        self.mesh.stats()
    }

    /// The kernel of a node (protocol state inspection).
    pub fn kernel(&self, node: NodeId) -> &Kernel {
        &self.node(node).kernel
    }

    /// All recorded memory arrivals (latency experiments).
    pub fn deliveries(&self) -> &[DeliveryRecord] {
        &self.delivery_log
    }

    /// All raised NIC interrupts.
    pub fn interrupts(&self) -> &[(SimTime, NodeId, NicInterrupt)] {
        &self.interrupt_log
    }

    /// All syscall traps (`u32::MAX` marks a killed process).
    pub fn syscalls(&self) -> &[(SimTime, NodeId, Pid, u32)] {
        &self.syscall_log
    }

    /// All dropped packets (CRC errors, misroutes, unmapped pages).
    pub fn drops(&self) -> &[(SimTime, NodeId, NicError)] {
        &self.drop_log
    }

    /// Bytes delivered to `node`'s memory and the EISA achieved rate over
    /// the run so far.
    pub fn eisa_stats(&self, node: NodeId) -> (u64, f64) {
        let n = self.node(node);
        (n.eisa.bytes_total(), n.eisa.achieved_rate(self.now()))
    }

    /// Clears the delivery log (between experiment phases).
    pub fn clear_deliveries(&mut self) {
        self.delivery_log.clear();
    }

    /// The machine-level tracer (mapping events, DMA spans, deliveries).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Packet-lifecycle latency telemetry (empty unless
    /// `config.telemetry.latency` is on).
    pub fn telemetry(&self) -> &MachineTelemetry {
        &self.telemetry
    }

    /// Gathers every component's counters, gauges and histograms into
    /// one hierarchical [`MetricsSnapshot`] (`nic0.packets_sent`,
    /// `mesh.link.0-1.util`, `latency.e2e`, ...). Built on demand — the
    /// registry never sits on the simulation hot path.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut reg = MetricsRegistry::new();
        for (i, n) in self.nodes.iter().enumerate() {
            n.nic.register_metrics(&mut reg, &format!("nic{i}"));
        }
        let ms = self.mesh.stats();
        reg.set_counter("mesh.packets_injected", ms.packets_injected);
        reg.set_counter("mesh.packets_ejected", ms.packets_ejected);
        reg.set_counter("mesh.link_bytes", ms.link_bytes);
        reg.set_counter("mesh.packets_dropped", ms.packets_dropped);
        reg.set_counter("mesh.packets_corrupted", ms.packets_corrupted);
        reg.set_counter("mesh.packets_jittered", ms.packets_jittered);
        if ms.reroutes > 0 || ms.bounced > 0 {
            // Adaptive routing only fires under link churn; gating on
            // nonzero keeps every pre-existing pinned snapshot
            // byte-identical.
            reg.set_counter("mesh.reroutes", ms.reroutes);
            reg.set_counter("mesh.bounced", ms.bounced);
        }
        let elapsed = self.now().as_picos();
        for (a, b, u) in self.mesh.link_usage() {
            reg.set_counter(format!("mesh.link.{}-{}.bytes", a.0, b.0), u.bytes);
            let util = if elapsed == 0 {
                0.0
            } else {
                u.busy.as_picos() as f64 / elapsed as f64
            };
            reg.set_gauge(format!("mesh.link.{}-{}.util", a.0, b.0), util);
        }
        reg.set_counter("machine.events_processed", self.sched.processed());
        reg.set_counter("machine.sim_time_ps", self.now().as_picos());
        reg.set_counter("machine.deliveries", self.delivery_log.len() as u64);
        reg.set_counter("machine.drops", self.drop_log.len() as u64);
        let opened: u64 = self.nodes.iter().map(|n| n.sessions_opened).sum();
        if opened > 0 {
            // Session accounting only exists when a workload generator
            // drove the run; gating on nonzero keeps every pre-existing
            // pinned snapshot byte-identical.
            reg.set_counter("machine.sessions_opened", opened);
            reg.set_counter(
                "machine.sessions_closed",
                self.nodes.iter().map(|n| n.sessions_closed).sum::<u64>(),
            );
            for (i, n) in self.nodes.iter().enumerate() {
                if n.sessions_opened > 0 {
                    reg.set_counter(format!("node{i}.sessions_opened"), n.sessions_opened);
                }
            }
        }
        if self.telemetry.e2e.count() > 0 {
            reg.set_histogram("latency.e2e", &self.telemetry.e2e);
            reg.set_histogram("latency.out_fifo", &self.telemetry.out_fifo);
            reg.set_histogram("latency.mesh", &self.telemetry.mesh);
            reg.set_histogram("latency.in_fifo", &self.telemetry.in_fifo);
            reg.set_histogram("latency.dma", &self.telemetry.dma);
        }
        if self.win_stats.total_closed() > 0 {
            // Window/barrier telemetry is worker-invariant (windows form
            // identically at every worker count), so it may live in the
            // deterministic snapshot; gating on nonzero keeps every
            // pre-existing pinned snapshot byte-identical. Wall-clock
            // engine.profile.* data is deliberately excluded — see
            // Machine::profile.
            self.win_stats.register(&mut reg);
        }
        reg.snapshot()
    }

    /// Exports every recorded trace event (machine-level plus all NICs)
    /// as a Chrome trace-event JSON document loadable in Perfetto. With
    /// profiling on, the engine's cumulative per-phase wall times ride
    /// along as `engine.profile` counter-track samples.
    pub fn export_chrome_trace(&self) -> String {
        let mut events: Vec<TraceEvent> = self.tracer.events().to_vec();
        events.extend_from_slice(self.mesh.tracer().events());
        for n in &self.nodes {
            events.extend_from_slice(n.nic.tracer().events());
        }
        let mut counters = Vec::new();
        if let Some(report) = self.profile() {
            let ts_us = self.now().as_picos() as f64 / 1e6;
            for &(name, ns, _) in &report.phases {
                counters.push(CounterSample {
                    name: format!("engine.profile.{name}_ms"),
                    ts_us,
                    value: ns as f64 / 1e6,
                });
            }
            counters.push(CounterSample {
                name: "engine.profile.worker_busy_ms".into(),
                ts_us,
                value: report.worker_busy_ns as f64 / 1e6,
            });
            counters.push(CounterSample {
                name: "engine.profile.worker_idle_ms".into(),
                ts_us,
                value: report.worker_idle_ns as f64 / 1e6,
            });
        }
        to_chrome_json_with_counters(&events, &counters)
    }
}

// ─────────────────────────── the host wiring ────────────────────────────

/// The machine as a [`SimHost`]: its scheduler drives the nodes, the
/// mesh backplane is the coupled external [`Component`], and dispatch
/// routes events through the sequential or parallel engine. The three
/// public run methods are thin wrappers over [`step`] with different
/// stop conditions.
impl SimHost for Machine {
    type Event = Event;

    fn scheduler(&mut self) -> &mut Scheduler<Event> {
        &mut self.sched
    }

    fn external_next(&self) -> Option<SimTime> {
        Component::next_event_time(&self.mesh)
    }

    fn advance_external(&mut self, t: SimTime) {
        // Sampled: this runs several times per simulated event, so
        // exact per-call timing would cost more than the pump itself.
        let p = self.profiler.begin_sampled(EnginePhase::MeshPump);
        Component::advance(&mut self.mesh, t);
        let active = &mut self.active;
        self.mesh.drain_ejection_notices(|node| active.mark(node.0));
        if self.recorder.is_enabled() {
            // Reroute/bounce decisions happen deep inside the mesh's
            // advance; pull them into the per-node rings (keyed by the
            // node where the decision was made).
            let mut buf = std::mem::take(&mut self.scratch_flight);
            self.mesh.drain_flight_into(&mut buf);
            for ev in buf.drain(..) {
                let at = match ev.data {
                    TraceData::PacketRerouted { at, .. } | TraceData::PacketBounced { at, .. } => {
                        at as usize
                    }
                    _ => 0,
                };
                self.recorder.record(at, ev);
            }
            self.scratch_flight = buf;
        }
        self.pump_network(t);
        self.profiler.end_sampled(EnginePhase::MeshPump, p);
    }

    fn dispatch(&mut self, t: SimTime, ev: Event) {
        self.dispatch_event(t, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_cpu::Assembler;
    use shrimp_mesh::MeshShape;

    fn two_node() -> (Machine, Pid, Pid) {
        let mut m = Machine::new(MachineConfig::two_nodes());
        let s = m.create_process(NodeId(0));
        let r = m.create_process(NodeId(1));
        (m, s, r)
    }

    fn simple_map(m: &mut Machine, s: Pid, r: Pid, policy: UpdatePolicy) -> (VirtAddr, VirtAddr) {
        let src = m.alloc_pages(NodeId(0), s, 1).unwrap();
        let dst = m.alloc_pages(NodeId(1), r, 1).unwrap();
        let export = m.export_buffer(NodeId(1), r, dst, 1, None).unwrap();
        m.map(MapRequest {
            src_node: NodeId(0),
            src_pid: s,
            src_va: src,
            dst_node: NodeId(1),
            export,
            dst_offset: 0,
            len: PAGE_SIZE,
            policy,
        })
        .unwrap();
        (src, dst)
    }

    #[test]
    fn map_charges_syscall_time() {
        let (mut m, s, r) = two_node();
        let before = m.now();
        simple_map(&mut m, s, r, UpdatePolicy::AutomaticSingle);
        assert!(m.now().since(before) >= m.config().map_syscall_cost);
    }

    #[test]
    fn empty_mapping_rejected() {
        let (mut m, s, r) = two_node();
        let src = m.alloc_pages(NodeId(0), s, 1).unwrap();
        let dst = m.alloc_pages(NodeId(1), r, 1).unwrap();
        let export = m.export_buffer(NodeId(1), r, dst, 1, None).unwrap();
        let err = m
            .map(MapRequest {
                src_node: NodeId(0),
                src_pid: s,
                src_va: src,
                dst_node: NodeId(1),
                export,
                dst_offset: 0,
                len: 0,
                policy: UpdatePolicy::AutomaticSingle,
            })
            .unwrap_err();
        assert_eq!(err, MachineError::EmptyMapping);
    }

    #[test]
    fn poke_to_unmapped_page_errors() {
        let (mut m, s, _) = two_node();
        let err = m
            .poke(NodeId(0), s, VirtAddr::new(0), &[0u8; 4])
            .unwrap_err();
        assert!(matches!(err, MachineError::Mem(MemError::NotMapped { .. })));
    }

    #[test]
    fn deliveries_record_source_and_size() {
        let (mut m, s, r) = two_node();
        let (src, _) = simple_map(&mut m, s, r, UpdatePolicy::AutomaticSingle);
        m.poke(NodeId(0), s, src, &[1u8; 8]).unwrap();
        m.run_until_idle().unwrap();
        let ds = m.deliveries();
        assert_eq!(ds.len(), 2, "two word stores, two packets");
        for d in ds {
            assert_eq!(d.node, NodeId(1));
            assert_eq!(d.src, NodeId(0));
            assert_eq!(d.len, 4);
        }
        m.clear_deliveries();
        assert!(m.deliveries().is_empty());
    }

    #[test]
    fn syscall_zero_exits_the_process() {
        let (mut m, s, _) = two_node();
        let mut asm = Assembler::new();
        asm.li(Reg::R1, 5).syscall(0).li(Reg::R1, 99).halt();
        m.load_program(NodeId(0), s, asm.assemble().unwrap());
        m.start(NodeId(0), s);
        m.run_until_idle().unwrap();
        // The process exited at the syscall: R1 never became 99.
        assert_eq!(m.cpu(NodeId(0), s).unwrap().reg(Reg::R1), 5);
        assert!(m
            .syscalls()
            .iter()
            .any(|&(_, n, p, c)| n == NodeId(0) && p == s && c == 0));
    }

    #[test]
    fn unknown_syscall_costs_a_trap_and_continues() {
        let (mut m, s, _) = two_node();
        let mut asm = Assembler::new();
        asm.syscall(9).li(Reg::R1, 7).halt();
        m.load_program(NodeId(0), s, asm.assemble().unwrap());
        m.start(NodeId(0), s);
        m.run_until_idle().unwrap();
        assert_eq!(m.cpu(NodeId(0), s).unwrap().reg(Reg::R1), 7);
    }

    #[test]
    fn two_processes_share_one_cpu_round_robin() {
        let mut m = Machine::new(MachineConfig::two_nodes());
        let a = m.create_process(NodeId(0));
        let b = m.create_process(NodeId(0));
        let prog = |v: u32| {
            let mut asm = Assembler::new();
            asm.li(Reg::R1, v).halt();
            asm.assemble().unwrap()
        };
        m.load_program(NodeId(0), a, prog(1));
        m.load_program(NodeId(0), b, prog(2));
        m.start(NodeId(0), a);
        m.start(NodeId(0), b);
        m.run_until_idle().unwrap();
        assert!(m.cpu(NodeId(0), a).unwrap().is_halted());
        assert!(m.cpu(NodeId(0), b).unwrap().is_halted());
        assert_eq!(m.cpu(NodeId(0), a).unwrap().reg(Reg::R1), 1);
        assert_eq!(m.cpu(NodeId(0), b).unwrap().reg(Reg::R1), 2);
    }

    #[test]
    fn genuine_protection_violation_kills_process() {
        let (mut m, s, r) = two_node();
        let (_, dst) = simple_map(&mut m, s, r, UpdatePolicy::AutomaticSingle);
        let _ = dst;
        // A store to an unmapped address faults; the kernel has no
        // invalidation record, so the process dies.
        let mut asm = Assembler::new();
        asm.li(Reg::R5, 0).store(Reg::R5, Reg::R5, 0).li(Reg::R1, 1).halt();
        m.load_program(NodeId(0), s, asm.assemble().unwrap());
        m.start(NodeId(0), s);
        m.run_until_idle().unwrap();
        assert_eq!(m.cpu(NodeId(0), s).unwrap().reg(Reg::R1), 0, "never resumed");
        assert!(m
            .syscalls()
            .iter()
            .any(|&(_, _, p, c)| p == s && c == u32::MAX), "kill recorded");
    }

    #[test]
    fn command_page_maps_at_fixed_distance() {
        let (mut m, s, r) = two_node();
        let (src, _) = simple_map(&mut m, s, r, UpdatePolicy::Deliberate);
        let cmd = m.map_command_page(NodeId(0), s, src).unwrap();
        assert_eq!(cmd.offset(), 0);
        assert_ne!(cmd.page(), src.page());
        // A second data page gets a distinct command page.
        let src2 = m.alloc_pages(NodeId(0), s, 1).unwrap();
        let cmd2 = m.map_command_page(NodeId(0), s, src2).unwrap();
        assert_ne!(cmd, cmd2);
    }

    #[test]
    fn eisa_stats_accumulate() {
        let (mut m, s, r) = two_node();
        let (src, _) = simple_map(&mut m, s, r, UpdatePolicy::AutomaticSingle);
        m.poke(NodeId(0), s, src, &[9u8; 64]).unwrap();
        m.run_until_idle().unwrap();
        let (bytes, rate) = m.eisa_stats(NodeId(1));
        assert_eq!(bytes, 64);
        assert!(rate > 0.0);
    }

    #[test]
    fn run_until_pred_times_out() {
        let (mut m, _, _) = two_node();
        let held = m.run_until_pred(m.now() + SimDuration::from_us(1), |_| false);
        assert!(!held);
    }

    #[test]
    fn latency_stages_telescope_to_end_to_end() {
        let mut cfg = MachineConfig::two_nodes();
        cfg.telemetry = shrimp_sim::TelemetryConfig::full();
        let mut m = Machine::new(cfg);
        let s = m.create_process(NodeId(0));
        let r = m.create_process(NodeId(1));
        let (src, _) = simple_map(&mut m, s, r, UpdatePolicy::AutomaticSingle);
        m.poke(NodeId(0), s, src, &[7u8; 64]).unwrap();
        m.run_until_idle().unwrap();

        let tel = m.telemetry();
        assert_eq!(tel.records.len(), m.deliveries().len());
        assert!(!tel.records.is_empty());
        for rec in &tel.records {
            assert!(rec.born <= rec.injected);
            assert!(rec.injected <= rec.accepted);
            assert!(rec.accepted <= rec.dma_start);
            assert!(rec.dma_start <= rec.dma_end);
            let sum = rec.out_fifo() + rec.mesh() + rec.in_fifo() + rec.dma();
            assert_eq!(sum, rec.end_to_end(), "stages must telescope exactly");
        }
        assert_eq!(tel.e2e.count(), tel.records.len() as u64);

        // The trace saw the same packets the logs did.
        assert!(m.tracer().contains("packet injected"));
        assert!(m.tracer().contains("dma start"));
        assert!(m.tracer().contains("page mapped"));

        // And the Chrome export of that trace validates.
        let trace = m.export_chrome_trace();
        shrimp_sim::validate_chrome_json(&trace).expect("exported trace must validate");
    }

    #[test]
    fn metrics_snapshot_covers_all_components() {
        let mut cfg = MachineConfig::two_nodes();
        cfg.telemetry = shrimp_sim::TelemetryConfig::full();
        let mut m = Machine::new(cfg);
        let s = m.create_process(NodeId(0));
        let r = m.create_process(NodeId(1));
        let (src, _) = simple_map(&mut m, s, r, UpdatePolicy::AutomaticSingle);
        m.poke(NodeId(0), s, src, &[3u8; 32]).unwrap();
        m.run_until_idle().unwrap();

        let snap = m.metrics_snapshot();
        let sent = snap.counter("nic0.packets_sent").unwrap();
        assert!(sent > 0);
        assert_eq!(snap.counter("nic1.packets_received"), Some(sent));
        assert!(snap.counter("mesh.packets_injected").unwrap() >= sent);
        assert!(snap.counter("mesh.link.0-1.bytes").unwrap() > 0);
        let util = snap.gauge("mesh.link.0-1.util").unwrap();
        assert!(util > 0.0 && util <= 1.0);
        assert!(snap.counter("machine.events_processed").unwrap() > 0);
        let e2e = snap.histogram("latency.e2e").unwrap();
        assert_eq!(e2e.count, m.telemetry().records.len() as u64);

        // Round-trips through the stable JSON schema.
        let parsed =
            shrimp_sim::MetricsSnapshot::parse_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn telemetry_off_records_nothing() {
        let (mut m, s, r) = two_node();
        let (src, _) = simple_map(&mut m, s, r, UpdatePolicy::AutomaticSingle);
        m.poke(NodeId(0), s, src, &[1u8; 16]).unwrap();
        m.run_until_idle().unwrap();
        assert!(m.telemetry().records.is_empty());
        assert!(m.tracer().events().is_empty());
        assert!(m.nic(NodeId(0)).tracer().events().is_empty());
        // The metrics snapshot still works — counters live on the NIC
        // regardless of the telemetry switches.
        assert!(m.metrics_snapshot().counter("nic0.packets_sent").unwrap() > 0);
    }

    #[test]
    fn larger_mesh_builds_and_runs() {
        let mut m = Machine::new(MachineConfig::prototype(MeshShape::new(8, 8)));
        let s = m.create_process(NodeId(0));
        let r = m.create_process(NodeId(63));
        let src = m.alloc_pages(NodeId(0), s, 1).unwrap();
        let dst = m.alloc_pages(NodeId(63), r, 1).unwrap();
        let export = m.export_buffer(NodeId(63), r, dst, 1, None).unwrap();
        m.map(MapRequest {
            src_node: NodeId(0),
            src_pid: s,
            src_va: src,
            dst_node: NodeId(63),
            export,
            dst_offset: 0,
            len: PAGE_SIZE,
            policy: UpdatePolicy::AutomaticSingle,
        })
        .unwrap();
        m.poke(NodeId(0), s, src, &0xabcd_1234u32.to_le_bytes()).unwrap();
        m.run_until_idle().unwrap();
        assert_eq!(
            m.peek(NodeId(63), r, dst, 4).unwrap(),
            0xabcd_1234u32.to_le_bytes()
        );
    }
}
