//! A mini-ISA CPU model with instruction counting.
//!
//! The paper measures message-passing software overhead in **dynamic
//! user-level instruction counts** on i386-class CPUs (§5.2). To
//! reproduce Table 1 rather than hardcode it, the message-passing
//! primitives of `shrimp-core` are written in this small i386-flavoured
//! ISA and *executed*; the harness reads back the retired-instruction
//! counters.
//!
//! * [`isa`] — registers and instructions, including the locked
//!   [`Instr::CmpXchg`] the deliberate-update start protocol requires
//!   (§4.3).
//! * [`asm`] — a tiny assembler with labels.
//! * [`cpu`] — the execution engine. An instruction costs one
//!   [`cpu::CYCLE`] plus its memory-system time. Memory is reached
//!   through the [`MemoryBus`] trait, which the machine model implements
//!   with page-table translation, cache/bus timing and NIC snooping.
//!
//! # Examples
//!
//! ```
//! use shrimp_cpu::{Assembler, Cpu, FlatMemory, Reg, StepResult};
//! use shrimp_sim::SimTime;
//!
//! // r1 = 6; r2 = 7; r1 = r1 + r2; halt
//! let mut asm = Assembler::new();
//! asm.li(Reg::R1, 6).li(Reg::R2, 7).add(Reg::R1, Reg::R2).halt();
//! let program = asm.assemble()?;
//!
//! let mut cpu = Cpu::new(program);
//! let mut mem = FlatMemory::new(4096);
//! let end = cpu.run_to_halt(SimTime::ZERO, &mut mem, 100)?;
//! assert_eq!(cpu.reg(Reg::R1), 13);
//! assert_eq!(cpu.retired(), 4);
//! assert!(end > SimTime::ZERO);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod asm;
pub mod cpu;
pub mod isa;

pub use asm::{AsmError, Assembler, Program};
pub use cpu::{Cpu, FlatMemory, MemoryBus, RunError, StepResult};
pub use isa::{Instr, Reg};
