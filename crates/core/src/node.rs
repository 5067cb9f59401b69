//! One autonomous SHRIMP node: CPU, memory hierarchy, buses, NIC and
//! kernel, plus the node-local event behaviour that used to live inline
//! on `Machine`.
//!
//! The paper's nodes synchronize only through mesh packets (minimum one
//! link latency away) and kernel messages (a configured latency away), so
//! everything a node does in response to a *node-local* event — a CPU
//! step, an EISA DMA completion, a kernel message — touches only its own
//! state. [`Node::execute`] exploits that: it mutates the node in place
//! and records every externally-visible consequence (event pushes, log
//! entries, faults to service, network pumping) as an ordered
//! [`NodeEffects`] action list. The machine applies those actions in pop
//! order, which makes the parallel engine's results structurally
//! identical to the sequential engine's — the worker phase is pure
//! per-node, and the commit phase is sequential either way.
//!
//! Mesh-coupled events (FIFO drain, ejection delivery, NIC housekeeping)
//! stay on the machine, which owns the mesh.

use std::collections::BTreeMap;

use shrimp_cpu::{Cpu, MemoryBus, StepResult};
use shrimp_mem::{
    CacheMode, CacheModel, EisaBus, MemError, PageNum, PhysAddr, PhysicalMemory, Tlb, VirtAddr,
    XpressBus, WORD_SIZE,
};
use shrimp_mesh::{MeshPacket, NodeId};
use shrimp_nic::{AnyNic, NicModel, Payload, ShrimpPacket};
use shrimp_os::{Kernel, KernelMsg, OsError, Pid, RoundRobin, SchedDecision};
use shrimp_sim::{Component, SimDuration, SimTime, Tracer};

use crate::config::MachineConfig;
use crate::error::MachineError;

/// What one node does when its event fires. `CpuStep`, `DmaComplete` and
/// `KernelMsg` are node-local (handled by [`Node::execute`], eligible
/// for parallel batching); the rest couple to the mesh and are handled
/// by the machine.
#[derive(Debug, Clone)]
pub(crate) enum NodeEvent {
    /// Run (a batch of) CPU instructions.
    CpuStep,
    /// Poll NIC deadlines (retransmission timers, stall expiry).
    NicHousekeep,
    /// Move Outgoing-FIFO packets into the mesh injection port.
    DrainOutgoing,
    /// Start EISA DMA for packets ready on the Incoming FIFO.
    PopIncoming,
    /// An EISA DMA burst finished: commit the data to memory.
    DmaComplete {
        /// Destination of the burst.
        addr: PhysAddr,
        /// The delivered bytes.
        data: Payload,
    },
    /// A §4.4 kernel-to-kernel protocol message arrived.
    KernelMsg {
        /// The message.
        msg: KernelMsg,
    },
}

impl NodeEvent {
    /// True when handling this event touches only the owning node's
    /// state (the precondition for running it on a worker thread).
    pub(crate) fn is_node_local(&self) -> bool {
        matches!(
            self,
            NodeEvent::CpuStep | NodeEvent::DmaComplete { .. } | NodeEvent::KernelMsg { .. }
        )
    }
}

/// One externally-visible consequence of executing a node-local event.
/// Order matters: the machine replays actions exactly in the order the
/// sequential engine would have performed them.
#[derive(Debug)]
pub(crate) enum Action {
    /// Schedule an event (own node, or another node's kernel inbox).
    Push {
        /// When it fires.
        at: SimTime,
        /// Which node it targets.
        node: u16,
        /// What fires.
        ev: NodeEvent,
    },
    /// Append to the machine syscall log.
    Syscall {
        /// Trapping process.
        pid: Pid,
        /// Syscall code.
        code: u32,
    },
    /// A memory fault needs machine-level service (the §4.4 reestablish
    /// path may touch the destination node, so workers never handle it).
    Fault {
        /// Faulting process.
        pid: Pid,
        /// The fault.
        error: MemError,
    },
    /// Delivered data freed Incoming-FIFO space: pump the network.
    PumpNetwork,
}

/// The ordered action list produced by [`Node::execute`].
#[derive(Debug, Default)]
pub(crate) struct NodeEffects {
    /// Actions, in execution order.
    pub actions: Vec<Action>,
}

impl NodeEffects {
    /// Records an event push.
    pub(crate) fn push_event(&mut self, at: SimTime, node: u16, ev: NodeEvent) {
        self.actions.push(Action::Push { at, node, ev });
    }
}

/// One node of the simulated multicomputer and its whole private
/// datapath.
#[derive(Debug)]
pub(crate) struct Node {
    pub(crate) id: NodeId,
    pub(crate) kernel: Kernel,
    pub(crate) mem: PhysicalMemory,
    pub(crate) cache: CacheModel,
    pub(crate) xpress: XpressBus,
    pub(crate) eisa: EisaBus,
    pub(crate) nic: AnyNic,
    pub(crate) tlb: Tlb,
    pub(crate) sched: RoundRobin,
    pub(crate) cpus: BTreeMap<Pid, Cpu>,
    pub(crate) running: Option<Pid>,
    pub(crate) cpu_busy_until: SimTime,
    /// Pending-wakeup dedup: earliest scheduled PopIncoming /
    /// DrainOutgoing / NicHousekeep event, so the pump paths don't flood
    /// the queue with redundant wakeups.
    pub(crate) pop_wakeup: Option<SimTime>,
    pub(crate) drain_wakeup: Option<SimTime>,
    pub(crate) housekeep_wakeup: Option<SimTime>,
    /// Workload sessions ever opened with this node as their source
    /// (closed-loop generator accounting; see `shrimp-workload`).
    pub(crate) sessions_opened: u64,
    /// Workload sessions since closed.
    pub(crate) sessions_closed: u64,
}

impl Node {
    /// Builds an idle node from the machine configuration.
    pub(crate) fn new(id: NodeId, config: &MachineConfig) -> Self {
        let mut nic = AnyNic::new(
            config.nic_backend,
            id,
            config.shape,
            config.nic,
            config.pages_per_node,
        );
        if let Some(site) = config.fault.nic_site(id.0 as u64) {
            nic.set_fault_injection(site);
        }
        if let Some(level) = config.telemetry.trace_level {
            nic.set_tracer(Tracer::new(level));
        }
        Node {
            id,
            kernel: Kernel::with_policy(
                id,
                config.pages_per_node,
                shrimp_os::kernel::ConsistencyPolicy::Invalidate,
            ),
            mem: PhysicalMemory::new(config.pages_per_node),
            cache: CacheModel::new(config.cache),
            xpress: XpressBus::new(config.bus),
            eisa: EisaBus::new(config.bus),
            nic,
            tlb: Tlb::new(config.tlb_entries),
            sched: RoundRobin::new(config.quantum),
            cpus: BTreeMap::new(),
            running: None,
            cpu_busy_until: SimTime::ZERO,
            pop_wakeup: None,
            drain_wakeup: None,
            housekeep_wakeup: None,
            sessions_opened: 0,
            sessions_closed: 0,
        }
    }

    /// Workload sessions currently open on this node (opened − closed).
    pub(crate) fn sessions_open(&self) -> u64 {
        self.sessions_opened - self.sessions_closed
    }

    // ────────────────────── node-local event handling ─────────────────────

    /// Executes one node-local event, mutating only this node and
    /// recording every external consequence into `fx` in order.
    ///
    /// # Panics
    ///
    /// Panics if handed a mesh-coupled event (`NicHousekeep`,
    /// `DrainOutgoing`, `PopIncoming`) — those belong to the machine.
    pub(crate) fn execute(
        &mut self,
        t: SimTime,
        ev: NodeEvent,
        cfg: &MachineConfig,
        fx: &mut NodeEffects,
    ) {
        match ev {
            NodeEvent::CpuStep => self.cpu_step(t, cfg, fx),
            NodeEvent::DmaComplete { addr, data } => {
                let len = data.len() as u64;
                self.mem
                    .write_bytes(addr, &data)
                    .expect("NIPT-checked delivery must be in range");
                self.cache.snoop_invalidate(addr, len);
                // No src in this event; recorded at pop time instead.
                fx.actions.push(Action::PumpNetwork);
            }
            NodeEvent::KernelMsg { msg } => {
                let from = msg.from();
                let (replies, scrub) = self.kernel.handle_msg(msg);
                // Remove the NIPT out-segments that pointed at the
                // invalidated remote frame.
                if let KernelMsg::InvalidateNipt { from: requester, frame } = msg {
                    for src_frame in scrub {
                        self.scrub_segments(src_frame, requester, frame);
                    }
                }
                self.tlb.flush();
                let latency = cfg.kernel_msg_latency;
                for reply in replies {
                    fx.push_event(t + latency, from.0, NodeEvent::KernelMsg { msg: reply });
                }
            }
            NodeEvent::NicHousekeep | NodeEvent::DrainOutgoing | NodeEvent::PopIncoming => {
                unreachable!("mesh-coupled events are handled by the machine")
            }
        }
    }

    fn cpu_step(&mut self, t: SimTime, cfg: &MachineConfig, fx: &mut NodeEffects) {
        if t < self.cpu_busy_until {
            return; // stale event
        }
        let (pid, until) = match self.sched.tick(t) {
            SchedDecision::Run { pid, until } => (pid, until),
            SchedDecision::Idle => return,
        };
        if self.running != Some(pid) {
            // Dispatching onto an idle CPU is free (nothing to save);
            // switching between processes costs a full context switch
            // with a TLB flush.
            let from_other = self.running.is_some();
            self.tlb.flush();
            self.running = Some(pid);
            if from_other {
                let resume = t + cfg.context_switch_cost;
                self.cpu_busy_until = resume;
                // The incoming process's quantum starts once the
                // switch completes.
                self.sched.restart_quantum(resume);
                fx.push_event(resume, self.id.0, NodeEvent::CpuStep);
                return;
            }
        }

        let Some(mut cpu) = self.cpus.remove(&pid) else {
            // No program loaded: drop from the scheduler.
            self.sched.remove(pid);
            return;
        };
        let result = {
            let pages_per_node = cfg.pages_per_node;
            let walk_latency = SimDuration::from_ns(100);
            let Some(proc) = self.kernel.process(pid) else {
                self.sched.remove(pid);
                self.cpus.insert(pid, cpu);
                return;
            };
            let mut bus = NodeBusView {
                pt: proc.page_table(),
                tlb: &mut self.tlb,
                cache: &mut self.cache,
                xpress: &mut self.xpress,
                mem: &mut self.mem,
                nic: &mut self.nic,
                walk_latency,
                pages_per_node,
            };
            // Batch a quantum of instructions into this one event. Only
            // register-only instructions (no bus transaction, no trap,
            // no halt) may run after the first: the batch breaks BEFORE
            // any bus-visible instruction so it executes at its own
            // event, after any intermediate events (DMA completions,
            // deliveries) the unbatched loop would have processed first.
            // A non-`Ran` result can therefore only come from the first
            // instruction, at time `t`.
            const CPU_BATCH: u32 = 32;
            let mut now = t;
            let mut steps = 0u32;
            loop {
                let r = cpu.step(now, &mut bus);
                steps += 1;
                if let StepResult::Ran { completes_at } = r {
                    now = completes_at;
                    if steps < CPU_BATCH
                        && completes_at < until
                        && cpu
                            .program()
                            .fetch(cpu.pc())
                            .is_some_and(|i| i.is_register_only())
                    {
                        continue;
                    }
                }
                break r;
            }
        };
        let halted = cpu.is_halted();
        self.cpus.insert(pid, cpu);

        match result {
            StepResult::Ran { completes_at } => {
                self.cpu_busy_until = completes_at;
                fx.push_event(completes_at, self.id.0, NodeEvent::CpuStep);
            }
            StepResult::Halted => {
                self.sched.remove(pid);
                self.running = None;
                if halted {
                    // Another process may be runnable.
                    fx.push_event(t, self.id.0, NodeEvent::CpuStep);
                }
            }
            StepResult::Blocked => {
                // Outgoing FIFO over threshold: the CPU waits for drain.
                let retry = self
                    .nic
                    .outgoing_ready_at()
                    .map_or(t + SimDuration::from_ns(100), |r| {
                        r.max(t) + SimDuration::from_ns(10)
                    });
                fx.push_event(retry, self.id.0, NodeEvent::CpuStep);
            }
            StepResult::Syscall { code, completes_at } => {
                fx.actions.push(Action::Syscall { pid, code });
                if code == 0 {
                    // exit()
                    self.sched.remove(pid);
                    self.running = None;
                    if let Some(c) = self.cpus.get_mut(&pid) {
                        c.set_pc(usize::MAX - 1);
                    }
                    fx.push_event(t, self.id.0, NodeEvent::CpuStep);
                } else {
                    let resume = completes_at + cfg.fault_cost;
                    self.cpu_busy_until = resume;
                    fx.push_event(resume, self.id.0, NodeEvent::CpuStep);
                }
            }
            StepResult::Fault { error } => fx.actions.push(Action::Fault { pid, error }),
        }
        self.schedule_wakeups(t, fx);
    }

    /// Clears the NIPT out-segments on `src_frame` that point at
    /// `dst_node`'s invalidated `dst_frame`.
    pub(crate) fn scrub_segments(
        &mut self,
        src_frame: PageNum,
        dst_node: NodeId,
        dst_frame: PageNum,
    ) {
        let starts: Vec<u64> = self
            .nic
            .nipt()
            .entry(src_frame)
            .map(|e| {
                e.segments()
                    .filter(|s| s.dst_node == dst_node && s.dst_base.page() == dst_frame)
                    .map(|s| s.src_start)
                    .collect()
            })
            .unwrap_or_default();
        for start in starts {
            // Through the trait so backends with cached translations
            // (the unpinned IOTLB) observe the shootdown.
            self.nic.unmap_out(src_frame, start);
        }
    }

    // ────────────────────────── wakeup scheduling ─────────────────────────

    /// Records deduplicated NIC wakeup events (housekeep / drain / pop)
    /// for whatever the NIC currently has pending. Returns true when the
    /// NIC has nothing pending at all — no deadline, no outgoing packet
    /// (ready now or later), no incoming delivery — which is the NIC
    /// half of the pump worklist's idle test (DESIGN.md §5j).
    pub(crate) fn schedule_wakeups(&mut self, t: SimTime, fx: &mut NodeEffects) -> bool {
        let housekeep = self.nic.next_deadline().map(|d| d.max(t));
        let outgoing = self.nic.outgoing_ready_at();
        let pop = self.nic.incoming_ready_at().map(|r| r.max(t));
        let quiet = housekeep.is_none() && outgoing.is_none() && pop.is_none();
        let drain = outgoing.filter(|&r| r > t);
        if let Some(at) = housekeep {
            if self.housekeep_wakeup.is_none_or(|w| at < w || w < t) {
                self.housekeep_wakeup = Some(at);
                fx.push_event(at, self.id.0, NodeEvent::NicHousekeep);
            }
        }
        if let Some(at) = drain {
            if self.drain_wakeup.is_none_or(|w| at < w || w < t) {
                self.drain_wakeup = Some(at);
                fx.push_event(at, self.id.0, NodeEvent::DrainOutgoing);
            }
        }
        if let Some(at) = pop {
            self.due_pop_wakeup(t, at, fx);
        }
        quiet
    }

    /// Records a deduplicated PopIncoming wakeup at `at`.
    pub(crate) fn due_pop_wakeup(&mut self, t: SimTime, at: SimTime, fx: &mut NodeEffects) {
        if self.pop_wakeup.is_none_or(|w| at < w || w < t) {
            self.pop_wakeup = Some(at);
            fx.push_event(at, self.id.0, NodeEvent::PopIncoming);
        }
    }

    // ──────────────────────── host-facing datapath ────────────────────────

    /// Pulls the next mesh-ready packet off the Outgoing FIFO (the
    /// machine injects it; the node never touches the mesh itself).
    pub(crate) fn drain_outbound(&mut self, t: SimTime) -> Option<MeshPacket<ShrimpPacket>> {
        self.nic.pop_outgoing(t)
    }

    /// One word of the host store path (poke / msglib setup): full
    /// translation, cache, bus and NIC snooping, no CPU.
    pub(crate) fn store_word_through(
        &mut self,
        t: SimTime,
        pid: Pid,
        va: VirtAddr,
        value: u32,
        pages_per_node: u64,
    ) -> Result<SimTime, MachineError> {
        let proc = self
            .kernel
            .process(pid)
            .ok_or(MachineError::Os(OsError::NoSuchProcess(pid)))?;
        let mut bus = NodeBusView {
            pt: proc.page_table(),
            tlb: &mut self.tlb,
            cache: &mut self.cache,
            xpress: &mut self.xpress,
            mem: &mut self.mem,
            nic: &mut self.nic,
            walk_latency: SimDuration::from_ns(100),
            pages_per_node,
        };
        Ok(bus.store_word(t, va, value)?)
    }
}

/// The node's NIC datapath as a passive component: earliest pending NIC
/// work, and a way to bring the NIC forward in time.
impl Component for Node {
    fn next_event_time(&self) -> Option<SimTime> {
        [
            self.nic.next_deadline(),
            self.nic.outgoing_ready_at(),
            self.nic.incoming_ready_at(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    fn advance(&mut self, until: SimTime) {
        self.nic.poll(until);
    }
}

// ───────────────────────────── the bus view ─────────────────────────────

/// The CPU's window onto one node's memory system: page-table
/// translation with a TLB, the snooping cache, the Xpress bus (with NIC
/// snooping of write-through stores), and command-page decoding.
struct NodeBusView<'a> {
    pt: &'a shrimp_mem::PageTable,
    tlb: &'a mut Tlb,
    cache: &'a mut CacheModel,
    xpress: &'a mut XpressBus,
    mem: &'a mut PhysicalMemory,
    nic: &'a mut AnyNic,
    walk_latency: SimDuration,
    pages_per_node: u64,
}

/// The deliberate-update DMA source read: one NIC-initiated bus read
/// filling a recycled arena buffer (no per-packet allocation on the hot
/// path). Shared by the store and CMPXCHG command paths.
fn nic_dma_read(
    xpress: &mut XpressBus,
    mem: &mut PhysicalMemory,
    at: SimTime,
    src: PhysAddr,
    len: u64,
) -> (Payload, SimTime) {
    let txn = xpress.read(at, src, len, shrimp_mem::BusInitiator::NicDma);
    let payload = shrimp_nic::pooled_payload(len as usize, |buf| {
        let _ = mem.read_bytes_into(src, buf);
    });
    (payload, txn.grant.end)
}

impl NodeBusView<'_> {
    fn translate(
        &mut self,
        now: SimTime,
        va: VirtAddr,
        write: bool,
    ) -> Result<(PhysAddr, CacheMode, SimTime), MemError> {
        let vpn = va.page();
        if let Some((frame, flags)) = self.tlb.lookup(vpn) {
            if write && !flags.protection.allows_write() {
                return Err(MemError::ProtectionViolation { addr: va, write });
            }
            return Ok((frame.at_offset(va.offset()), flags.cache_mode, now));
        }
        let tr = if write {
            self.pt.translate_write(va)?
        } else {
            self.pt.translate_read(va)?
        };
        self.tlb.insert(vpn, tr.frame, tr.flags);
        Ok((tr.phys, tr.flags.cache_mode, now + self.walk_latency))
    }

    fn is_command(&self, phys: PhysAddr) -> bool {
        phys.page().raw() >= self.pages_per_node
    }
}

impl MemoryBus for NodeBusView<'_> {
    fn load_word(&mut self, now: SimTime, addr: VirtAddr) -> Result<(u32, SimTime), MemError> {
        let (phys, _mode, t) = self.translate(now, addr, false)?;
        if self.is_command(phys) {
            // Command reads are uncached I/O reads over the bus.
            let txn = self
                .xpress
                .read(t, phys, WORD_SIZE, shrimp_mem::BusInitiator::Cpu);
            let v = self.nic.command_read(txn.grant.end, phys);
            return Ok((v, txn.grant.end));
        }
        let outcome = self.cache.load(phys);
        if outcome.bus_access {
            if let Some(victim) = outcome.writeback {
                self.xpress.write(
                    t,
                    victim,
                    self.cache.config().line_size,
                    shrimp_mem::BusInitiator::Cpu,
                );
            }
            let txn = self.xpress.read(
                t,
                phys,
                self.cache.config().line_size,
                shrimp_mem::BusInitiator::Cpu,
            );
            let v = self.mem.read_word(phys)?;
            return Ok((v, txn.grant.end));
        }
        let v = self.mem.read_word(phys)?;
        Ok((v, t))
    }

    fn store_word(&mut self, now: SimTime, addr: VirtAddr, value: u32) -> Result<SimTime, MemError> {
        let (phys, mode, t) = self.translate(now, addr, true)?;
        if self.is_command(phys) {
            let txn = self
                .xpress
                .write(t, phys, WORD_SIZE, shrimp_mem::BusInitiator::Cpu);
            let end = txn.grant.end;
            // A plain store to a command page issues the encoded command.
            // mem_read services deliberate-update DMA reads.
            let mem = &mut *self.mem;
            let xpress = &mut *self.xpress;
            let _ = self
                .nic
                .command_write(end, phys, value, |src, len| {
                    nic_dma_read(xpress, mem, end, src, len)
                });
            return Ok(end);
        }
        let outcome = self.cache.store(phys, mode);
        let mut end = t;
        if let Some(victim) = outcome.writeback {
            self.xpress.write(
                t,
                victim,
                self.cache.config().line_size,
                shrimp_mem::BusInitiator::Cpu,
            );
        }
        if outcome.bus_access {
            let txn = self
                .xpress
                .write(t, phys, WORD_SIZE, shrimp_mem::BusInitiator::Cpu);
            end = txn.grant.end;
            if mode == CacheMode::WriteThrough {
                // The NIC snoops the write off the bus (paper §3.1).
                self.nic.snoop_write(end, phys, &value.to_le_bytes());
            }
        }
        self.mem.write_word(phys, value)?;
        Ok(end)
    }

    fn cmpxchg_word(
        &mut self,
        now: SimTime,
        addr: VirtAddr,
        expected: u32,
        new: u32,
    ) -> Result<(u32, SimTime), MemError> {
        let (phys, mode, t) = self.translate(now, addr, true)?;
        if self.is_command(phys) {
            // The §4.3 protocol: the read cycle returns the DMA status;
            // if it matches, the write cycle starts the transfer.
            let txn = self
                .xpress
                .read(t, phys, WORD_SIZE, shrimp_mem::BusInitiator::Cpu);
            let status = self.nic.command_read(txn.grant.end, phys);
            let mut end = txn.grant.end;
            if status == expected {
                let wtxn = self
                    .xpress
                    .write(end, phys, WORD_SIZE, shrimp_mem::BusInitiator::Cpu);
                end = wtxn.grant.end;
                let mem = &mut *self.mem;
                let xpress = &mut *self.xpress;
                let _ = self
                    .nic
                    .command_write(end, phys, new, |src, len| {
                        nic_dma_read(xpress, mem, end, src, len)
                    });
            }
            return Ok((status, end));
        }
        // A locked data-memory CMPXCHG: one atomic read-(maybe-)write
        // bus transaction.
        let txn = self
            .xpress
            .read(t, phys, WORD_SIZE, shrimp_mem::BusInitiator::Cpu);
        let old = self.mem.read_word(phys)?;
        let mut end = txn.grant.end;
        if old == expected {
            let wtxn = self
                .xpress
                .write(end, phys, WORD_SIZE, shrimp_mem::BusInitiator::Cpu);
            end = wtxn.grant.end;
            self.mem.write_word(phys, new)?;
            let _ = self.cache.store(phys, mode);
            if mode == CacheMode::WriteThrough {
                self.nic.snoop_write(end, phys, &new.to_le_bytes());
            }
        }
        Ok((old, end))
    }

    fn store_allowed(&self, _now: SimTime) -> bool {
        !self.nic.cpu_must_stall()
    }
}
