//! # shrimp — the SHRIMP multicomputer, reproduced in Rust
//!
//! A full userspace reproduction of *"Virtual Memory Mapped Network
//! Interface for the SHRIMP Multicomputer"* (Blumrich, Li, Alpert,
//! Dubnicki, Felten, Sandberg; Princeton University): commodity nodes, a
//! Paragon-style mesh backplane, and the paper's custom network
//! interface — automatic and deliberate update, the Network Interface
//! Page Table with split-page mappings, virtual-memory-mapped command
//! pages with the `CMPXCHG` start protocol, FIFO flow control, and the
//! kernel's mapping-consistency protocol.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`core`] ([`Machine`]) — the assembled machine and user API.
//! * [`msglib`] — the paper's §5.2 message-passing primitives (Table 1).
//! * [`pram`] — PRAM-consistency shared memory (§4.1).
//! * [`nic`] — the network interface itself (§3–§4).
//! * [`mesh`], [`mem`], [`cpu`], [`os`], [`sim`] — the substrates.
//! * [`baseline`] — the traditional kernel-mediated DMA NIC it is
//!   evaluated against (§1, §5.2).
//!
//! # Quick start
//!
//! ```
//! use shrimp::{Machine, MachineConfig, MapRequest};
//! use shrimp::nic::UpdatePolicy;
//! use shrimp::mesh::NodeId;
//!
//! // Two nodes; map one page from a sender to a receiver, then let an
//! // ordinary store instruction do the communication.
//! let mut m = Machine::new(MachineConfig::two_nodes());
//! let sender = m.create_process(NodeId(0));
//! let receiver = m.create_process(NodeId(1));
//! let send_buf = m.alloc_pages(NodeId(0), sender, 1)?;
//! let recv_buf = m.alloc_pages(NodeId(1), receiver, 1)?;
//! let export = m.export_buffer(NodeId(1), receiver, recv_buf, 1, None)?;
//! m.map(MapRequest {
//!     src_node: NodeId(0),
//!     src_pid: sender,
//!     src_va: send_buf,
//!     dst_node: NodeId(1),
//!     export,
//!     dst_offset: 0,
//!     len: 4096,
//!     policy: UpdatePolicy::AutomaticSingle,
//! })?;
//! m.poke(NodeId(0), sender, send_buf, &123u32.to_le_bytes())?;
//! m.run_until_idle()?;
//! assert_eq!(m.peek(NodeId(1), receiver, recv_buf, 4)?, 123u32.to_le_bytes());
//! # Ok::<(), shrimp::MachineError>(())
//! ```

#![forbid(unsafe_code)]

pub use shrimp_baseline as baseline;
pub use shrimp_core::{msglib, pram};
pub use shrimp_cpu as cpu;
pub use shrimp_mem as mem;
pub use shrimp_mesh as mesh;
pub use shrimp_nic as nic;
pub use shrimp_os as os;
pub use shrimp_sim as sim;
pub use shrimp_workload as workload;

/// The assembled machine and its configuration.
pub use shrimp_core as core;
pub use shrimp_core::{DeliveryRecord, Machine, MachineConfig, MachineError, MapRequest, MappingId};
