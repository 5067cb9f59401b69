//! One autonomous SHRIMP node: CPU, memory hierarchy, buses, NIC and
//! kernel, plus the node-side halves of its events.
//!
//! The machine dispatches every event in one `match`
//! (`Machine::dispatch_event`). The node-side handlers here mutate only
//! their own node and push follow-up events straight onto the machine's
//! scheduler: [`Node::cpu_step`] runs a CPU batch and reports the trap
//! the machine must service as a [`CpuExit`], [`Node::kernel_msg`]
//! sends a §4.4 message's replies, [`Node::commit_dma`] lands an EISA
//! burst, and [`Node::schedule_wakeups`] arms the deduplicated NIC
//! wakeups. Mesh-coupled work (FIFO drain, ejection delivery, the
//! network pump) stays on the machine, which owns the mesh.

use std::collections::BTreeMap;

use shrimp_cpu::{Cpu, MemoryBus, StepResult};
use shrimp_mem::{
    CacheMode, CacheModel, EisaBus, MemError, PageNum, PhysAddr, PhysicalMemory, Tlb, VirtAddr,
    XpressBus, WORD_SIZE,
};
use shrimp_mesh::{MeshPacket, NodeId};
use shrimp_nic::{NetworkInterface, NicBackend, Payload, ShrimpPacket};
use shrimp_os::{Kernel, KernelMsg, OsError, Pid, RoundRobin, SchedDecision};
use shrimp_sim::{Scheduler, SimDuration, SimTime, Tracer};

use crate::config::MachineConfig;
use crate::error::MachineError;

/// What one node does when its event fires.
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

/// A scheduled machine event: which node, and what it should do.
#[derive(Debug, Clone)]
pub(crate) struct Event {
    pub(crate) node: u16,
    pub(crate) ev: NodeEvent,
}

/// How a [`Node::cpu_step`] ended, for the machine to finish.
#[derive(Debug)]
pub(crate) enum CpuExit {
    /// Nothing ran: a stale event, an idle scheduler, a context switch,
    /// or no program or process. No NIC wakeups are due.
    Idle,
    /// Instructions ran, halted or blocked on the Outgoing FIFO.
    Ran,
    /// A process trapped into the kernel.
    Syscall {
        /// Trapping process.
        pid: Pid,
        /// Syscall code.
        code: u32,
    },
    /// A memory fault needs machine-level service (the §4.4 reestablish
    /// path may touch the destination node).
    Fault {
        /// Faulting process.
        pid: Pid,
        /// The fault.
        error: MemError,
    },
}

/// The NIC work [`Node::schedule_wakeups`] found pending.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NicWork {
    /// No deadline, no outgoing packet (ready now or later) and no
    /// incoming delivery.
    pub(crate) quiet: bool,
    /// When the head outgoing packet is ready for injection, if any
    /// ([`NetworkInterface::outgoing_ready_at`]).
    pub(crate) outgoing: Option<SimTime>,
}

/// Whether a pending wakeup at `w` covers work due at `at`, so a visit
/// at `t` need push no new one: it has not fired yet and is no later.
fn covered(w: Option<SimTime>, at: SimTime, t: SimTime) -> bool {
    w.is_some_and(|w| t <= w && w <= at)
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
    pub(crate) nic: NetworkInterface,
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
        let build = match config.nic_backend {
            NicBackend::Shrimp => NetworkInterface::new,
            NicBackend::Unpinned => NetworkInterface::unpinned,
        };
        let mut nic = build(id, config.shape, config.nic, config.pages_per_node);
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

    // ─────────────────────── node-side event halves ───────────────────────

    /// Schedules `ev` on this node at `at`.
    fn push(&self, queue: &mut Scheduler<Event>, at: SimTime, ev: NodeEvent) {
        queue.push(at, Event { node: self.id.0, ev });
    }

    /// Commits a finished EISA DMA burst to memory and invalidates the
    /// cache lines it covers.
    pub(crate) fn commit_dma(&mut self, addr: PhysAddr, data: Payload) {
        self.mem
            .write_bytes(addr, &data)
            .expect("NIPT-checked delivery must be in range");
        self.cache.snoop_invalidate(addr, data.len() as u64);
    }

    /// Handles a §4.4 kernel message and sends its replies `latency`
    /// later.
    pub(crate) fn kernel_msg(
        &mut self,
        t: SimTime,
        msg: KernelMsg,
        latency: SimDuration,
        queue: &mut Scheduler<Event>,
    ) {
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
        for reply in replies {
            let ev = NodeEvent::KernelMsg { msg: reply };
            queue.push(t + latency, Event { node: from.0, ev });
        }
    }

    /// Runs one CPU batch, pushing the CPU's own follow-up step. A trap
    /// is left to the machine, which services it and then schedules the
    /// NIC wakeups of every exit but [`CpuExit::Idle`].
    pub(crate) fn cpu_step(
        &mut self,
        t: SimTime,
        cfg: &MachineConfig,
        queue: &mut Scheduler<Event>,
    ) -> CpuExit {
        if t < self.cpu_busy_until {
            return CpuExit::Idle; // stale event
        }
        let (pid, until) = match self.sched.tick(t) {
            SchedDecision::Run { pid, until } => (pid, until),
            SchedDecision::Idle => return CpuExit::Idle,
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
                self.push(queue, resume, NodeEvent::CpuStep);
                return CpuExit::Idle;
            }
        }

        let Some(mut cpu) = self.cpus.remove(&pid) else {
            // No program loaded: drop from the scheduler.
            self.sched.remove(pid);
            return CpuExit::Idle;
        };
        let result = {
            let pages_per_node = cfg.pages_per_node;
            let walk_latency = SimDuration::from_ns(100);
            let Some(proc) = self.kernel.process(pid) else {
                self.sched.remove(pid);
                self.cpus.insert(pid, cpu);
                return CpuExit::Idle;
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
                self.push(queue, completes_at, NodeEvent::CpuStep);
            }
            StepResult::Halted => {
                self.sched.remove(pid);
                self.running = None;
                if halted {
                    // Another process may be runnable.
                    self.push(queue, t, NodeEvent::CpuStep);
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
                self.push(queue, retry, NodeEvent::CpuStep);
            }
            StepResult::Syscall { code, completes_at } => {
                if code == 0 {
                    // exit()
                    self.sched.remove(pid);
                    self.running = None;
                    if let Some(c) = self.cpus.get_mut(&pid) {
                        c.set_pc(usize::MAX - 1);
                    }
                    self.push(queue, t, NodeEvent::CpuStep);
                } else {
                    let resume = completes_at + cfg.fault_cost;
                    self.cpu_busy_until = resume;
                    self.push(queue, resume, NodeEvent::CpuStep);
                }
                return CpuExit::Syscall { pid, code };
            }
            StepResult::Fault { error } => return CpuExit::Fault { pid, error },
        }
        CpuExit::Ran
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

    /// Schedules deduplicated NIC wakeup events (housekeep / drain / pop)
    /// for whatever the NIC currently has pending, and reports what it
    /// read: whether the NIC is quiet, and when its head outgoing packet
    /// is ready (the pump worklist's leave test, DESIGN.md §5j).
    pub(crate) fn schedule_wakeups(&mut self, t: SimTime, queue: &mut Scheduler<Event>) -> NicWork {
        let housekeep = self.nic.next_deadline().map(|d| d.max(t));
        let outgoing = self.nic.outgoing_ready_at();
        let pop = self.nic.incoming_ready_at().map(|r| r.max(t));
        let quiet = housekeep.is_none() && outgoing.is_none() && pop.is_none();
        let drain = outgoing.filter(|&r| r > t);
        if let Some(at) = housekeep {
            if !covered(self.housekeep_wakeup, at, t) {
                self.housekeep_wakeup = Some(at);
                self.push(queue, at, NodeEvent::NicHousekeep);
            }
        }
        if let Some(at) = drain {
            if !covered(self.drain_wakeup, at, t) {
                self.drain_wakeup = Some(at);
                self.push(queue, at, NodeEvent::DrainOutgoing);
            }
        }
        if let Some(at) = pop {
            self.due_pop_wakeup(t, at, queue);
        }
        NicWork { quiet, outgoing }
    }

    /// Schedules a deduplicated PopIncoming wakeup at `at`.
    pub(crate) fn due_pop_wakeup(&mut self, t: SimTime, at: SimTime, queue: &mut Scheduler<Event>) {
        if !covered(self.pop_wakeup, at, t) {
            self.pop_wakeup = Some(at);
            self.push(queue, at, NodeEvent::PopIncoming);
        }
    }

    /// True when [`Node::schedule_wakeups`] at `t` would push nothing:
    /// the NIC's deadline, its later-ready outgoing packet and its
    /// incoming delivery are each covered by their pending wakeup.
    #[cfg(debug_assertions)]
    pub(crate) fn wakeups_covered(&self, t: SimTime) -> bool {
        let housekeep = self.nic.next_deadline().map(|d| d.max(t));
        let drain = self.nic.outgoing_ready_at().filter(|&r| r > t);
        let pop = self.nic.incoming_ready_at().map(|r| r.max(t));
        let due = |w, at: Option<SimTime>| at.is_none_or(|at| covered(w, at, t));
        due(self.housekeep_wakeup, housekeep)
            && due(self.drain_wakeup, drain)
            && due(self.pop_wakeup, pop)
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

    /// The rest of a host-store page run in one step (DESIGN.md §5k):
    /// `data` is every word of the page after the first, which
    /// [`Node::store_word_through`] has just stored at `va - 4`, ending
    /// at `t` and leaving the NIC `quiet` or not. Returns the end of the
    /// last bus write when every word would only repeat that first
    /// word's effects: the NIC captures none of them and is quiet, or
    /// each joins the open blocked-write packet
    /// ([`NetworkInterface::merge_run`]). Returns `None`, having changed
    /// nothing, when the run must go word by word.
    pub(crate) fn store_run_bulk(
        &mut self,
        t: SimTime,
        va: VirtAddr,
        data: &[u8],
        quiet: bool,
        pages_per_node: u64,
        queue: &mut Scheduler<Event>,
    ) -> Option<SimTime> {
        // Check everything first: the page is the TLB's MRU entry, so
        // every word's lookup would hit it, and it is a writable,
        // write-through data page.
        let (vpn, frame, flags) = self.tlb.mru()?;
        let phys = frame.at_offset(va.offset());
        let len = data.len() as u64;
        if vpn != va.page()
            || !flags.protection.allows_write()
            || flags.cache_mode != CacheMode::WriteThrough
            || frame.raw() >= pages_per_node
        {
            return None;
        }
        let merge = if self.nic.nipt().capture(phys, len).is_some() {
            // Every word joins the open packet, and its wakeups would
            // push no drain or pop event: no delivery is pending, and an
            // outgoing packet ready after `t` already has its drain
            // wakeup. `merge_run` checks the rest, then appends. Word
            // `k` ends its bus write at `start + (k + 1) * step`.
            let (start, step) = (t.max(self.xpress.free_at()), self.xpress.word_time());
            let outgoing = self.nic.outgoing_ready_at();
            if self.nic.incoming_ready_at().is_some()
                || outgoing.is_some_and(|r| r > t && self.drain_wakeup != Some(r))
                || !self.nic.merge_run(phys, data, start + step, step)
            {
                return None;
            }
            Some((start, step))
        } else if quiet {
            None
        } else {
            return None;
        };
        // Then commit; nothing below can fail.
        let words = len / WORD_SIZE;
        self.tlb.count_mru_hits(words);
        self.cache.write_through_run(phys, len);
        let end = self.xpress.write_run(t, words, WORD_SIZE).end;
        self.mem
            .write_bytes(phys, data)
            .expect("a data frame lies inside installed DRAM");
        match merge {
            Some((start, step)) => self.replay_merge_housekeeps(t, start, step, words, queue),
            None => debug_assert!(self.nic_quiet(), "a bulk store must leave the NIC quiet"),
        }
        Some(end)
    }

    /// Pushes the `NicHousekeep` events that [`Node::schedule_wakeups`]
    /// would push after each of `n` merged words (DESIGN.md §5k). Word
    /// `k` is scheduled at its request time, `t` for the first and the
    /// previous word's bus end after that, and finds the merge deadline
    /// at its own bus end, `start + (k + 1) * step`, plus the window.
    /// Each visited word applies the `covered` rule; the words skipped
    /// between them are requested no later than the pending wakeup,
    /// which is no later than their deadline, so they are covered.
    fn replay_merge_housekeeps(
        &mut self,
        t: SimTime,
        start: SimTime,
        step: SimDuration,
        n: u64,
        queue: &mut Scheduler<Event>,
    ) {
        let window = self.nic.config().merge_window;
        let request = |k: u64| if k == 0 { t } else { start + step * k };
        let mut k = 0;
        while k < n {
            let at = start + step * (k + 1) + window;
            if !covered(self.housekeep_wakeup, at, request(k)) {
                self.housekeep_wakeup = Some(at);
                self.push(queue, at, NodeEvent::NicHousekeep);
            }
            // The next word requested after the pending wakeup.
            let w = self.housekeep_wakeup.expect("set or covered above");
            k = (k + 1).max(w.saturating_since(start).as_picos() / step.as_picos() + 1);
        }
        #[cfg(debug_assertions)]
        assert!(
            self.wakeups_covered(request(n - 1)),
            "a merged run must leave the wakeups as the word loop does"
        );
    }

    /// True when the NIC has no pending work: no deadline, no outgoing
    /// packet and no incoming delivery.
    pub(crate) fn nic_quiet(&self) -> bool {
        self.nic.next_deadline().is_none()
            && self.nic.outgoing_ready_at().is_none()
            && self.nic.incoming_ready_at().is_none()
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
    nic: &'a mut NetworkInterface,
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
