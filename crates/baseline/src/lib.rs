//! The comparison baseline: a traditional DMA-based network interface
//! with kernel-mediated message passing.
//!
//! The paper motivates SHRIMP against two existing systems:
//!
//! * **Intel DELTA** (§1) — sending and receiving a message costs 67 µs
//!   of software overhead, of which less than 1 µs is hardware latency.
//! * **Intel NX/2 on the iPSC/2** (§5.2) — `csend` takes 222 fast-path
//!   instructions plus a system call and a DMA send interrupt; `crecv`
//!   takes 261 plus a system call and a DMA receive interrupt.
//!
//! This crate models that architecture: every message traverses the
//! kernel on both ends (trap, header/protocol processing, a copy across
//! the user/kernel boundary, DMA setup, completion interrupts), with the
//! same mesh backplane underneath. The message-passing benches run both
//! machines and compare.

#![forbid(unsafe_code)]

pub mod machine;
pub mod model;

pub use machine::{BaselineMachine, MessageTimeline};
pub use model::{BaselineConfig, DELTA_SOFTWARE_OVERHEAD_US, NX2_CRECV_INSTRUCTIONS, NX2_CSEND_INSTRUCTIONS};
