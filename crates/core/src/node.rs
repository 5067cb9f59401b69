//! One autonomous SHRIMP node: CPU, memory hierarchy, buses, NIC and
//! kernel, plus the node-side halves of its events.
//!
//! The machine dispatches every event in one `match`
//! (`Machine::dispatch_event`). The node-side handlers here mutate only
//! their own node and push follow-up events straight onto the machine's
//! event queue: [`Node::cpu_step`] runs a CPU batch and reports the trap
//! the machine must service as a [`CpuExit`], [`Node::kernel_msg`]
//! sends a §4.4 message's replies, and [`Node::commit_dma`] lands an
//! EISA burst. The NIC wakeups and the mesh-coupled work (FIFO drain,
//! ejection delivery, the network pump) live in the machine's fabric
//! module, which owns the wake policy (DESIGN.md §5j).

use std::collections::BTreeMap;

use shrimp_cpu::{Cpu, MemoryBus, StepResult};
use shrimp_mem::{
    CacheConfig, CacheMode, CacheModel, EisaBus, MemError, PageNum, PhysAddr, PhysicalMemory, Tlb,
    VirtAddr, XpressBus, WORD_SIZE,
};
use shrimp_mesh::{MeshPacket, NodeId};
use shrimp_nic::{NetworkInterface, NicBackend, OutSegment, Payload, ShrimpPacket};
use shrimp_os::{Kernel, KernelMsg, OsError, Pid, RoundRobin, SchedDecision};
use shrimp_sim::{EventQueue, SimDuration, SimTime};

use crate::config::{
    MachineConfig, CONTEXT_SWITCH_COST, FAULT_COST, KERNEL_MSG_LATENCY, TLB_ENTRIES,
};
use crate::error::MachineError;
use crate::machine::{NicWakeups, WakePlan};

/// The page-table walk a TLB miss costs.
const PAGE_WALK: SimDuration = SimDuration::from_ns(100);

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
    /// The NIC wakeup events pending on this node.
    pub(crate) wakeups: NicWakeups,
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
        Node {
            id,
            kernel: Kernel::new(id, config.pages_per_node),
            mem: PhysicalMemory::new(config.pages_per_node),
            cache: CacheModel::new(CacheConfig::pentium_l2()),
            xpress: XpressBus::new(),
            eisa: EisaBus::new(config.bus),
            nic,
            tlb: Tlb::new(TLB_ENTRIES),
            sched: RoundRobin::new(config.quantum),
            cpus: BTreeMap::new(),
            running: None,
            cpu_busy_until: SimTime::ZERO,
            wakeups: NicWakeups::default(),
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
    fn push(&self, queue: &mut EventQueue<Event>, at: SimTime, ev: NodeEvent) {
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

    /// Handles a §4.4 kernel message and sends its replies one
    /// [`KERNEL_MSG_LATENCY`] later.
    pub(crate) fn kernel_msg(&mut self, t: SimTime, msg: KernelMsg, queue: &mut EventQueue<Event>) {
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
            queue.push(t + KERNEL_MSG_LATENCY, Event { node: from.0, ev });
        }
    }

    /// Runs one CPU batch, pushing the CPU's own follow-up step. A trap
    /// is left to the machine, which services it and then schedules the
    /// NIC wakeups of every exit but [`CpuExit::Idle`].
    pub(crate) fn cpu_step(&mut self, t: SimTime, queue: &mut EventQueue<Event>) -> CpuExit {
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
                let resume = t + CONTEXT_SWITCH_COST;
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
            let Some(mut bus) = self.bus_view(pid) else {
                self.sched.remove(pid);
                self.cpus.insert(pid, cpu);
                return CpuExit::Idle;
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
                    let resume = completes_at + FAULT_COST;
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
    fn scrub_segments(&mut self, src_frame: PageNum, dst_node: NodeId, dst_frame: PageNum) {
        let doomed = |s: &&OutSegment| s.dst_node == dst_node && s.dst_base.page() == dst_frame;
        let next = |nic: &NetworkInterface| {
            Some(nic.nipt().entry(src_frame)?.segments().find(doomed)?.src_start)
        };
        // Through the NIC hook, so the unpinned IOTLB sees the shootdown.
        while let Some(start) = next(&self.nic) {
            self.nic.unmap_out(src_frame, start);
        }
    }

    // ──────────────────────── host-facing datapath ────────────────────────

    /// Pulls the next mesh-ready packet off the Outgoing FIFO (the
    /// machine injects it; the node never touches the mesh itself).
    pub(crate) fn drain_outbound(&mut self, t: SimTime) -> Option<MeshPacket<ShrimpPacket>> {
        self.nic.pop_outgoing(t)
    }

    /// The memory system as `pid` sees it, or `None` when no such
    /// process exists.
    fn bus_view(&mut self, pid: Pid) -> Option<NodeBusView<'_>> {
        Some(NodeBusView {
            pt: self.kernel.process(pid)?.page_table(),
            tlb: &mut self.tlb,
            cache: &mut self.cache,
            xpress: &mut self.xpress,
            mem: &mut self.mem,
            nic: &mut self.nic,
        })
    }

    /// One word of the host store path (poke / msglib setup): full
    /// translation, cache, bus and NIC snooping, no CPU.
    pub(crate) fn store_word_through(
        &mut self,
        t: SimTime,
        pid: Pid,
        va: VirtAddr,
        value: u32,
    ) -> Result<SimTime, MachineError> {
        let mut bus = self
            .bus_view(pid)
            .ok_or(MachineError::Os(OsError::NoSuchProcess(pid)))?;
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
        queue: &mut EventQueue<Event>,
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
            || self.nic.command_space().contains(frame.base())
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
                || outgoing.is_some_and(|r| r > t && !self.wakeups.drains_at(r))
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
            Some((start, step)) => {
                self.wakeups.replay_merge_housekeeps(&self.nic, t, start, step, words, queue);
            }
            None => debug_assert!(
                WakePlan::of(&self.nic, end).quiet(),
                "a bulk store must leave the NIC quiet"
            ),
        }
        Some(end)
    }
}

// ───────────────────────────── the bus view ─────────────────────────────

/// The CPU's window onto one node's memory system: page-table
/// translation with a TLB, the snooping cache, the Xpress bus (with NIC
/// snooping of write-through stores), and command-page decoding. Built
/// by `Node::bus_view`.
struct NodeBusView<'a> {
    pt: &'a shrimp_mem::PageTable,
    tlb: &'a mut Tlb,
    cache: &'a mut CacheModel,
    xpress: &'a mut XpressBus,
    mem: &'a mut PhysicalMemory,
    nic: &'a mut NetworkInterface,
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
    let end = xpress.read(at, len).end;
    let payload = shrimp_nic::pooled_payload(len as usize, |buf| {
        let _ = mem.read_bytes_into(src, buf);
    });
    (payload, end)
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
        Ok((tr.phys, tr.flags.cache_mode, now + PAGE_WALK))
    }

    fn is_command(&self, phys: PhysAddr) -> bool {
        self.nic.command_space().contains(phys)
    }
}

impl MemoryBus for NodeBusView<'_> {
    fn load_word(&mut self, now: SimTime, addr: VirtAddr) -> Result<(u32, SimTime), MemError> {
        let (phys, _mode, t) = self.translate(now, addr, false)?;
        if self.is_command(phys) {
            // Command reads are uncached I/O reads over the bus.
            let end = self.xpress.read(t, WORD_SIZE).end;
            let v = self.nic.command_read(end, phys);
            return Ok((v, end));
        }
        let outcome = self.cache.load(phys);
        if outcome.bus_access {
            let line = self.cache.config().line_size;
            if outcome.writeback.is_some() {
                self.xpress.write(t, line);
            }
            let end = self.xpress.read(t, line).end;
            let v = self.mem.read_word(phys)?;
            return Ok((v, end));
        }
        let v = self.mem.read_word(phys)?;
        Ok((v, t))
    }

    fn store_word(&mut self, now: SimTime, addr: VirtAddr, value: u32) -> Result<SimTime, MemError> {
        let (phys, mode, t) = self.translate(now, addr, true)?;
        if self.is_command(phys) {
            let end = self.xpress.write(t, WORD_SIZE).end;
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
        if outcome.writeback.is_some() {
            self.xpress.write(t, self.cache.config().line_size);
        }
        if outcome.bus_access {
            end = self.xpress.write(t, WORD_SIZE).end;
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
            let mut end = self.xpress.read(t, WORD_SIZE).end;
            let status = self.nic.command_read(end, phys);
            if status == expected {
                end = self.xpress.write(end, WORD_SIZE).end;
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
        let mut end = self.xpress.read(t, WORD_SIZE).end;
        let old = self.mem.read_word(phys)?;
        if old == expected {
            end = self.xpress.write(end, WORD_SIZE).end;
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
