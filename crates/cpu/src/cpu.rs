//! The execution engine.

use std::error::Error;
use std::fmt;

use shrimp_mem::{MemError, VirtAddr};
use shrimp_sim::{SimDuration, SimTime};

use crate::asm::Program;
use crate::isa::{Instr, Reg};

/// How the CPU reaches memory. The machine model implements this with
/// page-table translation, cache and bus timing, NIC snooping of
/// write-through stores, and command-page decoding; tests use
/// [`FlatMemory`].
///
/// All methods return the completion time of the access so instruction
/// timing reflects memory-system latency.
pub trait MemoryBus {
    /// Reads a 32-bit word.
    ///
    /// # Errors
    ///
    /// Propagates translation/protection/range errors.
    fn load_word(&mut self, now: SimTime, addr: VirtAddr) -> Result<(u32, SimTime), MemError>;

    /// Writes a 32-bit word.
    ///
    /// # Errors
    ///
    /// Propagates translation/protection/range errors.
    fn store_word(&mut self, now: SimTime, addr: VirtAddr, value: u32) -> Result<SimTime, MemError>;

    /// One locked read-(maybe-)write transaction (i386 `LOCK CMPXCHG`):
    /// atomically loads the word; if it equals `expected`, stores `new`.
    /// Returns the loaded (old) value.
    ///
    /// # Errors
    ///
    /// Propagates translation/protection/range errors.
    fn cmpxchg_word(
        &mut self,
        now: SimTime,
        addr: VirtAddr,
        expected: u32,
        new: u32,
    ) -> Result<(u32, SimTime), MemError>;

    /// Flow-control hook: false while the node's Outgoing FIFO is over its
    /// threshold, in which case the CPU stalls before issuing a store
    /// (paper §4: "the CPU does not write to any mapped pages while it is
    /// waiting").
    fn store_allowed(&self, _now: SimTime) -> bool {
        true
    }
}

/// Base cost of one instruction (issue + execute, excluding memory
/// system time). 15 ns ≈ a 66 MHz i486/Pentium-class pipeline retiring
/// one instruction per cycle.
pub const CYCLE: SimDuration = SimDuration::from_ns(15);

/// The outcome of one [`Cpu::step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepResult {
    /// The instruction retired; the CPU may issue its next instruction at
    /// the reported time.
    Ran {
        /// Completion time (base cycle plus any memory-system latency).
        completes_at: SimTime,
    },
    /// The CPU hit `Halt` (idempotent: further steps return `Halted`).
    Halted,
    /// A store was blocked by flow control; nothing retired, the pc is
    /// unchanged. Retry when the Outgoing FIFO drains.
    Blocked,
    /// A `Syscall` retired; the machine performs the kernel work.
    Syscall {
        /// The trap code.
        code: u32,
        /// Completion time of the trap instruction itself.
        completes_at: SimTime,
    },
    /// A memory access faulted; nothing retired, the pc is unchanged so
    /// the kernel may fix the mapping and resume.
    Fault {
        /// The underlying memory error.
        error: MemError,
    },
}

/// Errors from [`Cpu::run_to_halt`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A memory access faulted.
    Fault(MemError),
    /// The step budget was exhausted before `Halt`.
    StepLimit,
    /// The program issued a syscall, which `run_to_halt` cannot service.
    UnhandledSyscall(u32),
    /// A store stayed blocked (flow control) — `run_to_halt` cannot wait.
    Blocked,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Fault(e) => write!(f, "memory fault: {e}"),
            RunError::StepLimit => write!(f, "step limit exhausted before halt"),
            RunError::UnhandledSyscall(c) => write!(f, "unhandled syscall {c}"),
            RunError::Blocked => write!(f, "store blocked by flow control"),
        }
    }
}

impl Error for RunError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

/// One simulated processor.
///
/// See the crate-level docs for an example.
#[derive(Debug, Clone)]
pub struct Cpu {
    regs: [u32; 8],
    pc: usize,
    zf: bool,
    lt: bool,
    halted: bool,
    retired: u64,
    loads: u64,
    stores: u64,
    program: Program,
}

impl Cpu {
    /// Creates a CPU at pc 0 with zeroed registers.
    pub fn new(program: Program) -> Self {
        Cpu {
            regs: [0; 8],
            pc: 0,
            zf: false,
            lt: false,
            halted: false,
            retired: 0,
            loads: 0,
            stores: 0,
            program,
        }
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a register (test/bench setup).
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        self.regs[r.index()] = value;
    }

    /// The current program counter.
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Jumps to an absolute pc and clears the halt latch (for reusing one
    /// CPU across several routines).
    pub fn set_pc(&mut self, pc: usize) {
        self.pc = pc;
        self.halted = false;
    }

    /// Jumps to a label.
    ///
    /// # Panics
    ///
    /// Panics if the label does not exist.
    pub fn jump_to_label(&mut self, name: &str) {
        let pc = self
            .program
            .label(name)
            .unwrap_or_else(|| panic!("unknown label `{name}`"));
        self.set_pc(pc);
    }

    /// True after `Halt` retired.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Total retired instructions — the paper's overhead metric.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Retired loads.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Retired stores (including successful `CMPXCHG` writes).
    pub fn stores(&self) -> u64 {
        self.stores
    }

    /// The program this CPU executes.
    pub fn program(&self) -> &Program {
        &self.program
    }

    fn addr(&self, base: Reg, offset: i32) -> VirtAddr {
        let a = (self.regs[base.index()] as i64 + offset as i64) as u64;
        VirtAddr::new(a)
    }

    /// Executes one instruction.
    pub fn step(&mut self, now: SimTime, bus: &mut impl MemoryBus) -> StepResult {
        if self.halted {
            return StepResult::Halted;
        }
        let Some(instr) = self.program.fetch(self.pc) else {
            self.halted = true;
            return StepResult::Halted;
        };
        let base_done = now + CYCLE;
        let mut completes_at = base_done;

        match instr {
            Instr::Li { rd, imm } => self.regs[rd.index()] = imm,
            Instr::Mov { rd, rs } => self.regs[rd.index()] = self.regs[rs.index()],
            Instr::Load { rd, base, offset } => {
                match bus.load_word(now, self.addr(base, offset)) {
                    Ok((v, done)) => {
                        self.regs[rd.index()] = v;
                        self.loads += 1;
                        completes_at = done.max(base_done);
                    }
                    Err(error) => return StepResult::Fault { error },
                }
            }
            Instr::Store { rs, base, offset } => {
                if !bus.store_allowed(now) {
                    return StepResult::Blocked;
                }
                match bus.store_word(now, self.addr(base, offset), self.regs[rs.index()]) {
                    Ok(done) => {
                        self.stores += 1;
                        completes_at = done.max(base_done);
                    }
                    Err(error) => return StepResult::Fault { error },
                }
            }
            Instr::Add { rd, rs } => {
                self.regs[rd.index()] = self.regs[rd.index()].wrapping_add(self.regs[rs.index()]);
            }
            Instr::Addi { rd, imm } => {
                self.regs[rd.index()] = self.regs[rd.index()].wrapping_add(imm as u32);
            }
            Instr::Sub { rd, rs } => {
                self.regs[rd.index()] = self.regs[rd.index()].wrapping_sub(self.regs[rs.index()]);
            }
            Instr::And { rd, rs } => self.regs[rd.index()] &= self.regs[rs.index()],
            Instr::Or { rd, rs } => self.regs[rd.index()] |= self.regs[rs.index()],
            Instr::Xor { rd, rs } => self.regs[rd.index()] ^= self.regs[rs.index()],
            Instr::Shl { rd, amount } => {
                self.regs[rd.index()] = self.regs[rd.index()].wrapping_shl(amount as u32);
            }
            Instr::Shr { rd, amount } => {
                self.regs[rd.index()] = self.regs[rd.index()].wrapping_shr(amount as u32);
            }
            Instr::Cmp { ra, rb } => {
                let (a, b) = (self.regs[ra.index()], self.regs[rb.index()]);
                self.zf = a == b;
                self.lt = (a as i32) < (b as i32);
            }
            Instr::Cmpi { ra, imm } => {
                let a = self.regs[ra.index()];
                self.zf = a as i32 == imm;
                self.lt = (a as i32) < imm;
            }
            Instr::CmpMem { base, offset, imm } => {
                match bus.load_word(now, self.addr(base, offset)) {
                    Ok((v, done)) => {
                        self.zf = v as i32 == imm;
                        self.lt = (v as i32) < imm;
                        self.loads += 1;
                        completes_at = done.max(base_done);
                    }
                    Err(error) => return StepResult::Fault { error },
                }
            }
            Instr::StImm { base, offset, imm } => {
                if !bus.store_allowed(now) {
                    return StepResult::Blocked;
                }
                match bus.store_word(now, self.addr(base, offset), imm) {
                    Ok(done) => {
                        self.stores += 1;
                        completes_at = done.max(base_done);
                    }
                    Err(error) => return StepResult::Fault { error },
                }
            }
            Instr::Jmp { target } => {
                self.pc = target;
                self.retired += 1;
                return StepResult::Ran { completes_at };
            }
            Instr::Jz { target } => {
                self.retired += 1;
                self.pc = if self.zf { target } else { self.pc + 1 };
                return StepResult::Ran { completes_at };
            }
            Instr::Jnz { target } => {
                self.retired += 1;
                self.pc = if !self.zf { target } else { self.pc + 1 };
                return StepResult::Ran { completes_at };
            }
            Instr::Jlt { target } => {
                self.retired += 1;
                self.pc = if self.lt { target } else { self.pc + 1 };
                return StepResult::Ran { completes_at };
            }
            Instr::Jge { target } => {
                self.retired += 1;
                self.pc = if !self.lt { target } else { self.pc + 1 };
                return StepResult::Ran { completes_at };
            }
            Instr::CmpXchg { base, offset, src } => {
                if !bus.store_allowed(now) {
                    return StepResult::Blocked;
                }
                let expected = self.regs[Reg::R0.index()];
                let new = self.regs[src.index()];
                match bus.cmpxchg_word(now, self.addr(base, offset), expected, new) {
                    Ok((old, done)) => {
                        if old == expected {
                            self.zf = true;
                            self.stores += 1;
                        } else {
                            self.zf = false;
                            self.regs[Reg::R0.index()] = old;
                        }
                        self.loads += 1;
                        completes_at = done.max(base_done);
                    }
                    Err(error) => return StepResult::Fault { error },
                }
            }
            Instr::Syscall { code } => {
                self.pc += 1;
                self.retired += 1;
                return StepResult::Syscall {
                    code,
                    completes_at,
                };
            }
            Instr::Halt => {
                self.halted = true;
                self.retired += 1;
                return StepResult::Halted;
            }
            Instr::Nop => {}
        }

        self.pc += 1;
        self.retired += 1;
        StepResult::Ran { completes_at }
    }

    /// Steps until `Halt`, threading completion times through, with a
    /// step budget. Returns the completion time of the last instruction.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] on faults, syscalls, flow-control blocks, or
    /// budget exhaustion — conditions a full machine model would service.
    pub fn run_to_halt(
        &mut self,
        start: SimTime,
        bus: &mut impl MemoryBus,
        max_steps: u64,
    ) -> Result<SimTime, RunError> {
        let mut now = start;
        for _ in 0..max_steps {
            match self.step(now, bus) {
                StepResult::Ran { completes_at } => now = completes_at,
                StepResult::Halted => return Ok(now),
                StepResult::Blocked => return Err(RunError::Blocked),
                StepResult::Syscall { code, .. } => return Err(RunError::UnhandledSyscall(code)),
                StepResult::Fault { error } => return Err(RunError::Fault(error)),
            }
        }
        Err(RunError::StepLimit)
    }
}

/// A flat, zero-latency memory for unit tests and instruction-count
/// harnesses that do not need bus timing.
#[derive(Debug, Clone)]
pub struct FlatMemory {
    data: Vec<u8>,
}

impl FlatMemory {
    /// Creates `size` bytes of zeroed memory.
    pub fn new(size: usize) -> Self {
        FlatMemory {
            data: vec![0; size],
        }
    }

    /// Reads a word directly (test setup/assertions).
    pub fn word(&self, addr: u64) -> u32 {
        let i = addr as usize;
        u32::from_le_bytes(self.data[i..i + 4].try_into().expect("in range"))
    }

    fn check(&self, addr: VirtAddr) -> Result<usize, MemError> {
        let i = addr.raw() as usize;
        if i + 4 > self.data.len() {
            return Err(MemError::NotMapped { addr });
        }
        Ok(i)
    }
}

impl MemoryBus for FlatMemory {
    fn load_word(&mut self, now: SimTime, addr: VirtAddr) -> Result<(u32, SimTime), MemError> {
        let i = self.check(addr)?;
        let v = u32::from_le_bytes(self.data[i..i + 4].try_into().expect("checked"));
        Ok((v, now))
    }

    fn store_word(&mut self, now: SimTime, addr: VirtAddr, value: u32) -> Result<SimTime, MemError> {
        let i = self.check(addr)?;
        self.data[i..i + 4].copy_from_slice(&value.to_le_bytes());
        Ok(now)
    }

    fn cmpxchg_word(
        &mut self,
        now: SimTime,
        addr: VirtAddr,
        expected: u32,
        new: u32,
    ) -> Result<(u32, SimTime), MemError> {
        let (old, _) = self.load_word(now, addr)?;
        if old == expected {
            self.store_word(now, addr, new)?;
        }
        Ok((old, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;

    fn run(asm: &mut Assembler) -> (Cpu, FlatMemory) {
        let p = asm.assemble().unwrap();
        let mut cpu = Cpu::new(p);
        let mut mem = FlatMemory::new(8192);
        cpu.run_to_halt(SimTime::ZERO, &mut mem, 10_000).unwrap();
        (cpu, mem)
    }

    #[test]
    fn arithmetic_and_logic() {
        let mut asm = Assembler::new();
        asm.li(Reg::R1, 10)
            .li(Reg::R2, 3)
            .sub(Reg::R1, Reg::R2) // 7
            .addi(Reg::R1, 5) // 12
            .shl(Reg::R1, 1) // 24
            .shr(Reg::R1, 2) // 6
            .li(Reg::R3, 0b1100)
            .and(Reg::R3, Reg::R1) // 0b0100
            .or(Reg::R3, Reg::R2) // 0b0111
            .halt();
        let (cpu, _) = run(&mut asm);
        assert_eq!(cpu.reg(Reg::R1), 6);
        assert_eq!(cpu.reg(Reg::R3), 0b0111);
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let mut asm = Assembler::new();
        asm.li(Reg::R1, 0x100)
            .li(Reg::R2, 0xabcd)
            .store(Reg::R2, Reg::R1, 4)
            .load(Reg::R3, Reg::R1, 4)
            .halt();
        let (cpu, mem) = run(&mut asm);
        assert_eq!(cpu.reg(Reg::R3), 0xabcd);
        assert_eq!(mem.word(0x104), 0xabcd);
        assert_eq!(cpu.loads(), 1);
        assert_eq!(cpu.stores(), 1);
    }

    #[test]
    fn negative_displacement() {
        let mut asm = Assembler::new();
        asm.li(Reg::R1, 0x100)
            .li(Reg::R2, 7)
            .store(Reg::R2, Reg::R1, -4)
            .halt();
        let (_, mem) = run(&mut asm);
        assert_eq!(mem.word(0xfc), 7);
    }

    #[test]
    fn branches_and_flags() {
        // Count down from 5; r2 accumulates iterations.
        let mut asm = Assembler::new();
        asm.li(Reg::R1, 5)
            .li(Reg::R2, 0)
            .label("loop")
            .cmpi(Reg::R1, 0)
            .jz("done")
            .addi(Reg::R2, 1)
            .addi(Reg::R1, -1)
            .jmp("loop")
            .label("done")
            .halt();
        let (cpu, _) = run(&mut asm);
        assert_eq!(cpu.reg(Reg::R2), 5);
    }

    #[test]
    fn signed_comparisons() {
        let mut asm = Assembler::new();
        asm.li(Reg::R1, (-3i32) as u32)
            .cmpi(Reg::R1, 2)
            .jlt("less")
            .li(Reg::R2, 0)
            .halt()
            .label("less")
            .li(Reg::R2, 1)
            .cmpi(Reg::R1, -10)
            .jge("ge")
            .halt()
            .label("ge")
            .addi(Reg::R2, 10)
            .halt();
        let (cpu, _) = run(&mut asm);
        assert_eq!(cpu.reg(Reg::R2), 11);
    }

    #[test]
    fn cmpxchg_success_and_failure() {
        let mut asm = Assembler::new();
        // mem[0x200] starts 0; accumulator 0 → exchange succeeds with 42.
        asm.li(Reg::R1, 0x200)
            .li(Reg::R0, 0)
            .li(Reg::R2, 42)
            .cmpxchg(Reg::R1, 0, Reg::R2)
            .jz("ok")
            .halt()
            .label("ok")
            // Second attempt: accumulator 0 but memory now 42 → fails,
            // r0 receives 42.
            .li(Reg::R0, 0)
            .cmpxchg(Reg::R1, 0, Reg::R2)
            .jnz("failed")
            .halt()
            .label("failed")
            .halt();
        let (cpu, mem) = run(&mut asm);
        assert_eq!(mem.word(0x200), 42);
        assert_eq!(cpu.reg(Reg::R0), 42, "failed CMPXCHG loads old value");
    }

    #[test]
    fn retired_count_excludes_blocked_and_faulted() {
        struct BlockOnce {
            inner: FlatMemory,
            blocked: bool,
        }
        impl MemoryBus for BlockOnce {
            fn load_word(&mut self, now: SimTime, a: VirtAddr) -> Result<(u32, SimTime), MemError> {
                self.inner.load_word(now, a)
            }
            fn store_word(&mut self, now: SimTime, a: VirtAddr, v: u32) -> Result<SimTime, MemError> {
                self.inner.store_word(now, a, v)
            }
            fn cmpxchg_word(
                &mut self,
                now: SimTime,
                a: VirtAddr,
                e: u32,
                n: u32,
            ) -> Result<(u32, SimTime), MemError> {
                self.inner.cmpxchg_word(now, a, e, n)
            }
            fn store_allowed(&self, _now: SimTime) -> bool {
                !self.blocked
            }
        }
        let mut asm = Assembler::new();
        asm.li(Reg::R1, 0x10).store(Reg::R1, Reg::R1, 0).halt();
        let mut cpu = Cpu::new(asm.assemble().unwrap());
        let mut bus = BlockOnce {
            inner: FlatMemory::new(4096),
            blocked: true,
        };
        assert!(matches!(
            cpu.step(SimTime::ZERO, &mut bus),
            StepResult::Ran { .. }
        ));
        assert_eq!(cpu.step(SimTime::ZERO, &mut bus), StepResult::Blocked);
        assert_eq!(cpu.retired(), 1, "blocked store does not retire");
        bus.blocked = false;
        assert!(matches!(
            cpu.step(SimTime::ZERO, &mut bus),
            StepResult::Ran { .. }
        ));
        assert_eq!(cpu.retired(), 2);
    }

    #[test]
    fn fault_leaves_pc_for_retry() {
        let mut asm = Assembler::new();
        asm.li(Reg::R1, 0xffff_0000).load(Reg::R2, Reg::R1, 0).halt();
        let mut cpu = Cpu::new(asm.assemble().unwrap());
        let mut mem = FlatMemory::new(4096);
        cpu.step(SimTime::ZERO, &mut mem);
        let pc_before = cpu.pc();
        assert!(matches!(
            cpu.step(SimTime::ZERO, &mut mem),
            StepResult::Fault { .. }
        ));
        assert_eq!(cpu.pc(), pc_before, "faulting instruction may be retried");
    }

    #[test]
    fn syscall_surfaces_code_and_continues() {
        let mut asm = Assembler::new();
        asm.syscall(77).li(Reg::R1, 1).halt();
        let mut cpu = Cpu::new(asm.assemble().unwrap());
        let mut mem = FlatMemory::new(64);
        let r = cpu.step(SimTime::ZERO, &mut mem);
        assert!(matches!(r, StepResult::Syscall { code: 77, .. }));
        // Continue after the kernel "returns".
        cpu.step(SimTime::ZERO, &mut mem);
        assert_eq!(cpu.reg(Reg::R1), 1);
        // run_to_halt cannot service syscalls.
        let mut fresh = Cpu::new(cpu.program().clone());
        assert_eq!(
            fresh.run_to_halt(SimTime::ZERO, &mut mem, 10).unwrap_err(),
            RunError::UnhandledSyscall(77)
        );
    }

    #[test]
    fn timing_advances_by_cycle_and_memory() {
        let mut asm = Assembler::new();
        asm.nop().nop().halt();
        let mut cpu = Cpu::new(asm.assemble().unwrap());
        let mut mem = FlatMemory::new(64);
        let end = cpu.run_to_halt(SimTime::ZERO, &mut mem, 10).unwrap();
        // Two nops at 15ns each (halt's completion isn't threaded).
        assert_eq!(end.as_nanos_f64(), 30.0);
    }

    #[test]
    fn halt_is_idempotent_and_counted_once() {
        let mut asm = Assembler::new();
        asm.halt();
        let mut cpu = Cpu::new(asm.assemble().unwrap());
        let mut mem = FlatMemory::new(64);
        assert_eq!(cpu.step(SimTime::ZERO, &mut mem), StepResult::Halted);
        assert_eq!(cpu.step(SimTime::ZERO, &mut mem), StepResult::Halted);
        assert_eq!(cpu.retired(), 1);
        assert!(cpu.is_halted());
    }

    #[test]
    fn running_off_the_end_halts() {
        let mut asm = Assembler::new();
        asm.nop();
        let mut cpu = Cpu::new(asm.assemble().unwrap());
        let mut mem = FlatMemory::new(64);
        cpu.step(SimTime::ZERO, &mut mem);
        assert_eq!(cpu.step(SimTime::ZERO, &mut mem), StepResult::Halted);
    }

    #[test]
    fn labels_allow_reusing_one_cpu() {
        let mut asm = Assembler::new();
        asm.label("a").li(Reg::R1, 1).halt().label("b").li(Reg::R1, 2).halt();
        let mut cpu = Cpu::new(asm.assemble().unwrap());
        let mut mem = FlatMemory::new(64);
        cpu.jump_to_label("b");
        cpu.run_to_halt(SimTime::ZERO, &mut mem, 10).unwrap();
        assert_eq!(cpu.reg(Reg::R1), 2);
        cpu.jump_to_label("a");
        cpu.run_to_halt(SimTime::ZERO, &mut mem, 10).unwrap();
        assert_eq!(cpu.reg(Reg::R1), 1);
    }
}
