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
//!
//! This file keeps the host API, the run loop, event dispatch and
//! observation. The mapping control plane lives in `machine/mapping.rs`,
//! and the wake policy with the mesh coupling (the network pump, NIC
//! wakeups, ejection, drain and pop) in `machine/fabric.rs`.

use shrimp_cpu::{Cpu, Program, Reg};
use shrimp_mem::{PhysAddr, VirtAddr, PAGE_SIZE, WORD_SIZE};
use shrimp_mesh::{MeshConfig, MeshNetwork, NodeId};
use shrimp_nic::{NetworkInterface, NicError, ShrimpPacket};
use shrimp_os::{ExportId, Kernel, OsError, Pid};
use shrimp_sim::{
    ComponentId, EnginePhase, EngineProfileReport, EngineProfiler, EventQueue, Histogram,
    MetricsRegistry, MetricsSnapshot, SimDuration, SimTime, TraceData, TraceEvent, Tracer,
};

use crate::config::MachineConfig;
use crate::error::MachineError;
use crate::node::{CpuExit, Event, Node, NodeEvent};

mod fabric;
mod mapping;

use fabric::ActiveNodes;
pub(crate) use fabric::{NicWakeups, WakePlan};
use mapping::Registration;
pub use mapping::{MapRequest, MappingId};

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

/// Latency histograms of a set of packets, one per [`LatencyRecord`]
/// stage plus end to end, in picoseconds.
#[derive(Debug, Clone, Default)]
pub struct StageHistograms {
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
}

impl StageHistograms {
    /// Adds one packet's stages.
    pub fn record(&mut self, rec: &LatencyRecord) {
        self.e2e.record_duration(rec.end_to_end());
        self.out_fifo.record_duration(rec.out_fifo());
        self.mesh.record_duration(rec.mesh());
        self.in_fifo.record_duration(rec.in_fifo());
        self.dma.record_duration(rec.dma());
    }

    /// Publishes the histograms as `{prefix}.e2e`, `{prefix}.out_fifo`,
    /// `{prefix}.mesh`, `{prefix}.in_fifo` and `{prefix}.dma`; nothing
    /// while no packet was recorded.
    pub fn register(&self, reg: &mut MetricsRegistry, prefix: &str) {
        if self.e2e.count() == 0 {
            return;
        }
        for (stage, h) in [
            ("e2e", &self.e2e),
            ("out_fifo", &self.out_fifo),
            ("mesh", &self.mesh),
            ("in_fifo", &self.in_fifo),
            ("dma", &self.dma),
        ] {
            reg.set_histogram(format!("{prefix}.{stage}"), h);
        }
    }
}

/// Packet-lifecycle latency telemetry: per-stage histograms plus the
/// raw per-packet records (all in picoseconds). Empty unless
/// [`shrimp_sim::TelemetryConfig::latency`] is enabled.
#[derive(Debug, Clone, Default)]
pub struct MachineTelemetry {
    /// Every delivered packet's stages.
    pub stages: StageHistograms,
    /// Every delivered packet's timeline, in delivery order.
    pub records: Vec<LatencyRecord>,
}

impl MachineTelemetry {
    fn record(&mut self, rec: LatencyRecord) {
        self.stages.record(&rec);
        self.records.push(rec);
    }
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
    /// The machine's events; the mesh keeps its own queue.
    queue: EventQueue<Event>,
    /// Simulated time: the latest instant a step or a run reached.
    now: SimTime,
    /// Events popped, each of which is handled.
    processed: u64,
    registrations: Vec<Registration>,
    next_mapping: u32,
    syscall_log: Vec<(SimTime, NodeId, Pid, u32)>,
    delivery_log: Vec<DeliveryRecord>,
    drop_log: Vec<(SimTime, NodeId, NicError)>,
    /// The one trace sink: every machine, mesh and NIC event, admitted
    /// once. Pure observation of the serial path.
    trace: Tracer,
    telemetry: MachineTelemetry,
    /// Wall-clock phase attribution (never part of the deterministic
    /// snapshot; see [`Machine::profile`]).
    profiler: EngineProfiler,
    /// Nodes the next network pump must visit; a visit to any other
    /// node would be a no-op (DESIGN.md §5j).
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
        let mut nodes: Vec<Node> = shape.iter_nodes().map(|id| Node::new(id, &config)).collect();
        let mut mesh = MeshNetwork::new(MeshConfig::paragon(shape));
        mesh.set_fault_injection(&config.fault);
        let telemetry = config.telemetry;
        let trace = Tracer::new(nodes.len(), telemetry.flight_recorder, telemetry.trace);
        if trace.is_on() {
            mesh.trace_outbox_mut().enable();
            for n in &mut nodes {
                n.nic.trace_outbox_mut().enable();
            }
        }
        let active = ActiveNodes::new(nodes.len());
        Machine {
            config,
            nodes,
            mesh,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
            registrations: Vec::new(),
            next_mapping: 1,
            syscall_log: Vec::new(),
            delivery_log: Vec::new(),
            drop_log: Vec::new(),
            trace,
            telemetry: MachineTelemetry::default(),
            profiler: EngineProfiler::new(telemetry.profile),
            active,
        }
    }

    /// Number of discrete events handled since construction; a measure of
    /// simulator work, independent of wall-clock.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// The wall-clock engine profile, when `telemetry.profile` is on.
    /// Wall times vary run to run, so they are deliberately NOT part of
    /// [`Machine::metrics_snapshot`] (which must stay deterministic) —
    /// this report is the only way out.
    pub fn profile(&self) -> Option<EngineProfileReport> {
        self.profiler
            .is_enabled()
            .then(|| EngineProfileReport::new(&self.profiler))
    }

    /// The configuration in force.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// The node a host call changes, put on the pump worklist: its next
    /// visit may have work (DESIGN.md §5j).
    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.active.mark(id.0);
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
    /// [`MachineError::Unaligned`], exporting nothing, unless `va` is
    /// page-aligned; kernel export errors otherwise.
    pub fn export_buffer(
        &mut self,
        node: NodeId,
        pid: Pid,
        va: VirtAddr,
        pages: u64,
        allowed: Option<NodeId>,
    ) -> Result<ExportId, MachineError> {
        if va.offset() != 0 {
            return Err(MachineError::Unaligned {
                va,
                len: pages.saturating_mul(PAGE_SIZE),
            });
        }
        Ok(self
            .node_mut(node)
            .kernel
            .export_buffer(pid, va.page(), pages, allowed)?)
    }

    // ───────────────────────── program execution ─────────────────────────

    /// Binds a program to `(node, pid)` as its CPU context.
    pub fn load_program(&mut self, node: NodeId, pid: Pid, program: Program) {
        self.node_mut(node).cpus.insert(pid, Cpu::new(program));
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

    // ───────────────────────── host-level data ops ───────────────────────

    /// Writes bytes through the full store datapath (translation, cache,
    /// bus, NIC snooping) at the current time, word by word. Advances
    /// simulated time past the last bus transaction. After each page's
    /// first word, the rest of the page is committed in one step,
    /// bit-identical to the word loop, when the NIC is quiet and ignores
    /// it, or when every word joins the open automatic blocked-write
    /// packet; the merged run pushes the same housekeep events the words
    /// would (DESIGN.md §5k).
    ///
    /// # Errors
    ///
    /// [`MachineError::Unaligned`], before anything is stored, unless
    /// `va` is word-aligned and `data` is whole words; translation and
    /// protection errors otherwise.
    pub fn poke(
        &mut self,
        node: NodeId,
        pid: Pid,
        va: VirtAddr,
        data: &[u8],
    ) -> Result<(), MachineError> {
        if !va.is_word_aligned() || !data.len().is_multiple_of(WORD_SIZE as usize) {
            return Err(MachineError::Unaligned {
                va,
                len: data.len() as u64,
            });
        }
        let word = |bytes: &[u8]| u32::from_le_bytes(bytes.try_into().expect("4-byte chunk"));
        let mut t = self.now();
        let mut pos = 0;
        while pos < data.len() {
            // One page run: the words from `addr` to the end of its page.
            let addr = va.add(pos as u64);
            let run_len = ((PAGE_SIZE - addr.offset()) as usize).min(data.len() - pos);
            let run = &data[pos..pos + run_len];
            pos += run_len;
            let (done, quiet) = self.store_through(node, pid, t, addr, word(&run[..4]))?;
            t = done;
            let rest = &run[4..];
            let rest_va = addr.add(WORD_SIZE);
            if !rest.is_empty() {
                if let Some(done) = self.nodes[node.0 as usize].store_run_bulk(
                    t,
                    rest_va,
                    rest,
                    quiet,
                    &mut self.queue,
                ) {
                    t = done;
                    continue;
                }
            }
            for (i, bytes) in rest.chunks_exact(4).enumerate() {
                let at = rest_va.add(i as u64 * WORD_SIZE);
                t = self.store_through(node, pid, t, at, word(bytes))?.0;
            }
        }
        self.drain_nic_trace(node.0);
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
        // Grown as pages translate: reserving an unchecked `len` up
        // front can abort the process.
        let mut out = Vec::new();
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
    /// The closed-loop generator's blocking wait.
    pub fn run_until_new_delivery(&mut self, limit: SimTime, seen: usize) -> bool {
        self.run_until_pred(limit, |m| m.delivery_log.len() > seen)
    }

    // ──────────────────────────── event loop ─────────────────────────────

    /// Runs until `limit`, processing machine and mesh events in time
    /// order, and leaves the clock at `limit`. If anything panics mid-run
    /// (an assertion deep in a component, say), the trace rings' recent
    /// events are dumped to stderr before the panic resumes.
    pub fn run_until(&mut self, limit: SimTime) {
        // A bounded run has no step budget, so it cannot fail.
        let _ = self.run_loop(Some(limit), |_| false);
        self.now = self.now.max(limit);
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
        self.run_loop(None, |_| false).map(drop)
    }

    /// Runs until `pred` holds, checking before the first step and
    /// between steps, up to `limit`. Returns whether the predicate held.
    /// (A step dispatches every queued event of its instant, so the
    /// predicate never sees one half-run.)
    pub fn run_until_pred(&mut self, limit: SimTime, pred: impl FnMut(&Machine) -> bool) -> bool {
        self.run_loop(Some(limit), pred).unwrap_or(false)
    }

    /// The one run loop behind every run method. It steps until `stop`
    /// holds (checked before each step and once more when the machine
    /// idles), the next instant lies past `limit`, or nothing is left.
    /// Only an unbounded run has a step budget. A panic dumps the trace
    /// rings before it resumes (DESIGN.md §5h). Returns whether `stop`
    /// held.
    fn run_loop(
        &mut self,
        limit: Option<SimTime>,
        mut stop: impl FnMut(&Machine) -> bool,
    ) -> Result<bool, MachineError> {
        const MAX_IDLE_STEPS: u64 = 50_000_000;
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut steps = 0u64;
            loop {
                if stop(self) {
                    return Ok(true);
                }
                if limit.is_none() {
                    steps += 1;
                    if steps > MAX_IDLE_STEPS {
                        return Err(MachineError::NoQuiescence);
                    }
                }
                match self.step(limit) {
                    Step::Idle => return Ok(stop(self)),
                    Step::PastLimit => return Ok(false),
                    Step::Ran => {}
                }
            }
        }));
        run.unwrap_or_else(|payload| {
            self.dump_flight_on_panic();
            std::panic::resume_unwind(payload)
        })
    }

    /// One step: find the next instant across the queue and the mesh,
    /// advance the clock and the mesh to it, then dispatch every queued
    /// event at that instant, including those the dispatch pushes for
    /// it. Mesh work they queue for the same instant (an injection, say)
    /// runs in the next step, at the same time.
    fn step(&mut self, limit: Option<SimTime>) -> Step {
        let queued = self.queue.peek_time();
        let mesh = self.mesh.next_event_time();
        let next = match (queued, mesh) {
            (None, None) => return Step::Idle,
            (Some(t), None) | (None, Some(t)) => t,
            (Some(a), Some(b)) => a.min(b),
        };
        debug_assert!(
            next >= self.now,
            "next instant {next:?} precedes the clock {:?}",
            self.now
        );
        if limit.is_some_and(|limit| next > limit) {
            return Step::PastLimit;
        }
        self.now = self.now.max(next);
        if mesh == Some(next) {
            self.advance_mesh(next);
        }
        while self.queue.peek_time() == Some(next) {
            let (_, ev) = self.queue.pop().expect("peeked event");
            self.processed += 1;
            self.dispatch_event(next, ev);
        }
        debug_assert!(
            self.nodes.iter().all(|n| n.nic.trace_outbox().is_empty()),
            "a NIC trace event outlived the dispatch or pump visit that raised it"
        );
        Step::Ran
    }

    /// Prints the trace rings' retained events to stderr; called on the
    /// panic path of the run loop so a failing assertion ships its
    /// causal context.
    fn dump_flight_on_panic(&self) {
        if self.trace.capacity() > 0 && self.trace.recorded() > 0 {
            eprintln!("{}", self.trace.render());
        }
    }

    // ──────────────────────── event dispatching ──────────────────────────

    /// Schedules a machine event.
    fn push_event(&mut self, at: SimTime, node: u16, ev: NodeEvent) {
        self.queue.push(at, Event { node, ev });
    }

    /// Executes one popped event. The node-side halves live on [`Node`]
    /// and push their follow-up events straight onto the queue. The
    /// trace events the node's NIC raised reach the sink by its end.
    fn dispatch_event(&mut self, t: SimTime, Event { node, ev }: Event) {
        self.active.mark(node);
        let id = NodeId(node);
        match ev {
            NodeEvent::CpuStep => {
                match self.nodes[node as usize].cpu_step(t, &mut self.queue) {
                    // Nothing ran, so the NIC raised nothing to drain.
                    CpuExit::Idle => return,
                    CpuExit::Ran => {}
                    CpuExit::Syscall { pid, code } => self.syscall_log.push((t, id, pid, code)),
                    CpuExit::Fault { pid, error } => self.handle_fault(t, id, pid, error),
                }
                // After the trap's service, which never touches this
                // node's pending NIC work (DESIGN.md §5d).
                self.schedule_wakeups(t, id);
            }
            NodeEvent::NicHousekeep => self.housekeep_fired(t, id),
            NodeEvent::DrainOutgoing => self.drain_fired(t, id),
            NodeEvent::PopIncoming => self.pop_fired(t, id),
            NodeEvent::DmaComplete { addr, data } => {
                self.nodes[node as usize].commit_dma(addr, data);
                // A delivery's completion pumps the worklist. (The pop
                // freed its Incoming-FIFO space and logged it, where its
                // source is known.) The pump is load-bearing: without it
                // the `mixed10k` and `unpinned_faulty` goldens, the
                // generated-scenario digest and `tests/profiling.rs`'s
                // pump-visit pin all move.
                let p = self.profiler.begin_sampled(EnginePhase::MeshPump);
                self.pump_network(t);
                self.profiler.end_sampled(EnginePhase::MeshPump, p);
            }
            NodeEvent::KernelMsg { msg } => {
                self.nodes[node as usize].kernel_msg(t, msg, &mut self.queue);
            }
        }
        self.drain_nic_trace(node);
    }

    /// Admits `data`, seen by `component` at `time`, into `node`'s ring
    /// and the log, after every event `node`'s NIC raised before it, so
    /// each node's events keep their causal order. Callers check
    /// `self.trace.is_on()` first, so an off sink builds nothing.
    fn emit(&mut self, node: NodeId, time: SimTime, component: ComponentId, data: TraceData) {
        self.drain_nic_trace(node.0);
        let event = TraceEvent {
            time,
            component,
            data,
        };
        self.trace.emit(node.0 as usize, event);
    }

    /// Moves the trace events `node`'s NIC raised into the sink.
    #[inline]
    fn drain_nic_trace(&mut self, node: u16) {
        let outbox = self.nodes[node as usize].nic.trace_outbox_mut();
        if !outbox.is_empty() {
            outbox.drain_into(&mut self.trace);
        }
    }

    // ─────────────────── host store path (poke / msglib) ─────────────────

    /// One host store word, which puts its node on the pump worklist.
    /// Returns when its bus write ends and whether the node's NIC is
    /// quiet afterwards (no deadline, no outgoing or incoming work).
    fn store_through(
        &mut self,
        node: NodeId,
        pid: Pid,
        t: SimTime,
        va: VirtAddr,
        value: u32,
    ) -> Result<(SimTime, bool), MachineError> {
        let done = self.node_mut(node).store_word_through(t, pid, va, value)?;
        Ok((done, self.schedule_wakeups(t, node).quiet()))
    }

    // ───────────────────────── instrumentation ───────────────────────────

    /// NIC counters of one node.
    pub fn nic_stats(&self, node: NodeId) -> shrimp_nic::nic::NicStats {
        self.node(node).nic.stats()
    }

    /// The network interface of a node (read-only inspection of whatever
    /// backend the machine was configured with).
    pub fn nic(&self, node: NodeId) -> &NetworkInterface {
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

    /// The one trace sink: every machine, mesh and NIC event, in
    /// per-node rings of the newest and, with `telemetry.trace` on, in
    /// the log of all of them (DESIGN.md §5h).
    pub fn trace(&self) -> &Tracer {
        &self.trace
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
        reg.set_counter("machine.events_processed", self.processed);
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
        self.telemetry.stages.register(&mut reg, "latency");
        reg.snapshot()
    }

}

/// How one `Machine::step` ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Nothing pending anywhere: the machine is quiescent.
    Idle,
    /// One instant was fully processed.
    Ran,
    /// The next instant lies past the limit; nothing was done.
    PastLimit,
}

#[cfg(test)]
mod poke_equivalence;

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_cpu::Assembler;
    use shrimp_mem::MemError;
    use shrimp_mesh::MeshShape;
    use shrimp_nic::UpdatePolicy;
    use shrimp_os::ExportId;

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
        assert!(m.now().since(before) >= crate::config::MAP_SYSCALL_COST);
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
    fn misaligned_poke_errors_before_storing() {
        let (mut m, s, r) = two_node();
        let (src, dst) = simple_map(&mut m, s, r, UpdatePolicy::AutomaticSingle);
        m.run_until_idle().unwrap();
        let before = (m.now(), m.events_processed());
        for (va, len) in [(src.add(2), 4), (src, 6), (src.add(1), 0)] {
            let err = m.poke(NodeId(0), s, va, &vec![7u8; len]).unwrap_err();
            assert_eq!(
                err,
                MachineError::Unaligned {
                    va,
                    len: len as u64
                }
            );
        }
        assert_eq!((m.now(), m.events_processed()), before);
        m.run_until_idle().unwrap();
        assert!(m.deliveries().is_empty(), "no word reached the snoop logic");
        assert_eq!(m.peek(NodeId(0), s, src, 8).unwrap(), vec![0; 8]);
        assert_eq!(m.peek(NodeId(1), r, dst, 8).unwrap(), vec![0; 8]);
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

    /// `map` records each NIPT segment once for §4.4, whether a source
    /// page carries one segment or is split across two remote frames.
    #[test]
    fn map_records_each_outgoing_segment_once() {
        // (source offset, destination offset, length, segments)
        for (src_off, dst_off, len, segments) in [
            (0, 0, PAGE_SIZE, 1),
            (0, 0, 2 * PAGE_SIZE, 2),
            (0, 100, PAGE_SIZE, 2),
            (200, 100, 2 * PAGE_SIZE, 5),
        ] {
            let (mut m, s, r) = two_node();
            let src = m.alloc_pages(NodeId(0), s, 3).unwrap();
            let dst = m.alloc_pages(NodeId(1), r, 3).unwrap();
            let export = m.export_buffer(NodeId(1), r, dst, 3, None).unwrap();
            m.map(MapRequest {
                src_node: NodeId(0),
                src_pid: s,
                src_va: src.add(src_off),
                dst_node: NodeId(1),
                export,
                dst_offset: dst_off,
                len,
                policy: UpdatePolicy::AutomaticSingle,
            })
            .unwrap();
            let kernel = m.kernel(NodeId(0));
            let records: usize = (0..3)
                .map(|p| {
                    let frame = m.translate(NodeId(0), s, src.add(p * PAGE_SIZE)).unwrap().page();
                    kernel.outgoing_for_frame(frame).len()
                })
                .sum();
            assert_eq!(records, segments, "src +{src_off}, dst +{dst_off}, {len} B");
        }
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

    /// The command page of each page of a buffer decodes, at every
    /// in-page offset, to the NIC's command address for that page's
    /// frame (§4.2).
    #[test]
    fn command_pages_translate_to_the_nics_command_addresses() {
        let (mut m, s, _) = two_node();
        let buf = m.alloc_pages(NodeId(0), s, 3).unwrap();
        let space = *m.nic(NodeId(0)).command_space();
        for k in 0..3 {
            let data = buf.add(k * PAGE_SIZE + 0x234);
            let cmd = m.map_command_page(NodeId(0), s, data).unwrap();
            let phys = m.translate(NodeId(0), s, data).unwrap();
            let decoded = m.translate(NodeId(0), s, cmd.add(0x234)).unwrap();
            assert_eq!(decoded, space.command_addr_for(phys), "page {k}");
        }
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
    fn peek_past_a_mapped_buffer_returns_the_next_pages_error() {
        let (mut m, s, _) = two_node();
        let buf = m.alloc_pages(NodeId(0), s, 1).unwrap();
        let err = m.peek(NodeId(0), s, buf, u64::MAX).unwrap_err();
        assert_eq!(
            err,
            MachineError::Mem(MemError::NotMapped {
                addr: buf.add(PAGE_SIZE)
            })
        );
    }

    #[test]
    fn unaligned_export_errors_and_exports_nothing() {
        let (mut m, _, r) = two_node();
        let buf = m.alloc_pages(NodeId(1), r, 2).unwrap();
        let err = m
            .export_buffer(NodeId(1), r, buf.add(8), 1, None)
            .unwrap_err();
        assert_eq!(
            err,
            MachineError::Unaligned {
                va: buf.add(8),
                len: PAGE_SIZE
            }
        );
        assert!(m.kernel(NodeId(1)).export(ExportId(1)).is_none());
        assert_eq!(m.export_buffer(NodeId(1), r, buf, 1, None), Ok(ExportId(1)));
    }

    /// Every event of an instant runs in the one step that reaches it.
    #[test]
    fn step_drains_a_whole_instant() {
        let (mut m, _, _) = two_node();
        let t = m.now() + SimDuration::from_ns(10);
        for node in [0, 1, 0] {
            m.push_event(t, node, NodeEvent::NicHousekeep);
        }
        m.push_event(t + SimDuration::from_ns(1), 1, NodeEvent::NicHousekeep);
        assert_eq!(m.step(None), Step::Ran);
        assert_eq!((m.now(), m.events_processed()), (t, 3));
        assert_eq!(m.queue.peek_time(), Some(t + SimDuration::from_ns(1)));
    }

    /// A two-node machine with one automatic-update word in flight.
    fn word_in_flight() -> Machine {
        let (mut m, s, r) = two_node();
        let (src, _) = simple_map(&mut m, s, r, UpdatePolicy::AutomaticSingle);
        m.poke(NodeId(0), s, src, &[5u8; 4]).unwrap();
        m
    }

    /// One step of [`word_in_flight`]'s run.
    struct Stepped {
        at: SimTime,
        /// Events processed once it ran.
        events: u64,
        queued: bool,
        mesh: bool,
    }

    /// Steps [`word_in_flight`] to idle, checking that every step takes
    /// the earlier of the queue's and the mesh's next instants.
    fn steps_of_one_word() -> Vec<Stepped> {
        let mut m = word_in_flight();
        let mut steps = Vec::new();
        loop {
            let (queued, mesh) = (m.queue.peek_time(), m.mesh.next_event_time());
            if m.step(None) == Step::Idle {
                break;
            }
            let at = m.now();
            assert_eq!(Some(at), queued.into_iter().chain(mesh).min());
            let (queued, mesh) = (queued == Some(at), mesh == Some(at));
            let events = m.events_processed();
            steps.push(Stepped { at, events, queued, mesh });
        }
        assert_eq!(m.deliveries().len(), 1);
        steps
    }

    /// The mesh's instants and the queue's interleave in time order: a
    /// packet's delivery alternates between them. (A step can repeat the
    /// last time: an injection queues mesh work at the current instant.)
    #[test]
    fn mesh_instants_interleave_with_queue_instants() {
        let steps = steps_of_one_word();
        assert!(steps.windows(2).all(|w| w[0].at <= w[1].at));
        let k = steps
            .iter()
            .position(|i| i.mesh && !i.queued)
            .expect("an instant with only mesh work");
        assert!(steps[..k].iter().any(|i| i.queued), "queue work before it");
        assert!(steps[k..].iter().any(|i| i.queued), "queue work after it");
    }

    /// Nothing past the limit runs, queued or in the mesh, and the clock
    /// ends at the limit.
    #[test]
    fn run_until_runs_nothing_past_the_limit() {
        let steps = steps_of_one_word();
        let k = (1..steps.len())
            .find(|&k| {
                let i = &steps[k];
                i.mesh && !i.queued && i.at > steps[k - 1].at
            })
            .expect("a later instant with only mesh work");
        let (before, mesh_at) = (&steps[k - 1], steps[k].at);
        let limit = before.at + mesh_at.since(before.at) / 2;
        let mut m = word_in_flight();
        m.run_until(limit);
        assert_eq!(m.now(), limit);
        assert_eq!(m.events_processed(), before.events);
        assert_eq!(m.mesh.next_event_time(), Some(mesh_at), "mesh ran past the limit");
        assert!(m.queue.peek_time().is_none_or(|t| t > limit));
        assert_eq!(m.step(Some(limit)), Step::PastLimit);
        assert_eq!((m.now(), m.events_processed()), (limit, before.events));
    }

    /// The clock never runs backward: a run to an earlier limit leaves
    /// it where it is.
    #[test]
    fn run_until_an_earlier_limit_leaves_the_clock() {
        let (mut m, _, _) = two_node();
        let early = m.now() + SimDuration::from_us(1);
        let late = early + SimDuration::from_us(4);
        m.run_until(late);
        m.run_until(early);
        assert_eq!(m.now(), late);
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
        assert_eq!(tel.stages.e2e.count(), tel.records.len() as u64);

        // The trace saw the same packets the logs did.
        assert!(m.trace().contains("packet injected"));
        assert!(m.trace().contains("dma start"));
        assert!(m.trace().contains("page mapped"));

        // And the Chrome export of that trace validates.
        let trace = shrimp_sim::to_chrome_json_with_counters(m.trace().events(), &[]);
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
        assert!(m.trace().events().is_empty(), "no log without telemetry.trace");
        assert!(m.nic(NodeId(0)).trace_outbox().is_empty());
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

    /// The scheduler moves an `Event` on every push and pop, and an
    /// automatic blocked-write stream holds ~210k queued housekeeps at
    /// once: a payload variant that grows the event shows up in run time
    /// and peak RSS.
    #[test]
    fn event_heap_entries_stay_small() {
        let event = std::mem::size_of::<Event>();
        assert_eq!(std::mem::size_of::<shrimp_nic::Payload>(), 16);
        assert!(event <= 32, "Event is {event} bytes");
    }
}
