//! The operating-system model of a SHRIMP node.
//!
//! SHRIMP moves *protection* out of the message-passing fast path and
//! into the kernel's `map` system call (paper §2). This crate models the
//! kernel state and policies that make that sound:
//!
//! * [`process`] — processes and their address spaces.
//! * [`kernel`] — the per-node [`Kernel`]: frame allocation, buffer
//!   *exports* (a process's standing permission for a remote process to
//!   map its memory), the two halves of the `map` call
//!   ([`Kernel::prepare_out_mapping`] configures write-through caching on
//!   the sender; [`Kernel::grant_in_mapping`] checks the export and pins
//!   frames on the receiver), and the §4.4 mapping-consistency protocol
//!   (invalidate → acknowledge → replace, with page-fault
//!   re-establishment).
//! * [`msg`] — kernel-to-kernel messages carried by the machine model.
//! * [`sched`] — the per-node round-robin scheduler; SHRIMP's protection
//!   story is *independent* of the scheduling policy, which is the point
//!   of §1's multiprogramming argument.
//! * [`error`] — [`OsError`].
//!
//! Cross-node coordination (the two halves of `map`, invalidations and
//! acks) is expressed as [`msg::KernelMsg`] values; the machine model in
//! `shrimp-core` transports them between kernels.
//!
//! # Examples
//!
//! ```
//! use shrimp_os::{Kernel, OsError};
//! use shrimp_mesh::NodeId;
//!
//! let mut kernel = Kernel::new(NodeId(0), 64);
//! let pid = kernel.create_process();
//! let buf = kernel.alloc_pages(pid, 4)?;
//! // The process offers the buffer to any node:
//! let export = kernel.export_buffer(pid, buf, 4, None)?;
//! assert_eq!(kernel.export(export).unwrap().pages, 4);
//! # Ok::<(), OsError>(())
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod kernel;
pub mod msg;
pub mod process;
pub mod sched;

pub use error::OsError;
pub use kernel::{ExportId, Kernel, MapToken};
pub use msg::KernelMsg;
pub use process::{Pid, Process};
pub use sched::{RoundRobin, SchedDecision};
