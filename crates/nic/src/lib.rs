//! The SHRIMP virtual memory-mapped network interface.
//!
//! This crate models the custom NIC board of Figure 4 of the paper:
//!
//! * [`nipt`] — the **Network Interface Page Table**: one entry per page
//!   of local physical memory, holding outgoing mapping segments (a page
//!   may be split between two mappings at a configurable offset, §3.2),
//!   the update policy (automatic single-write, automatic blocked-write,
//!   or deliberate), and incoming ("mapped in") state.
//! * [`packet`] — the wire format: destination mesh coordinates (checked
//!   on arrival), destination physical address, payload, and a CRC32.
//! * [`fifo`] — the Outgoing and Incoming FIFOs with programmable
//!   thresholds that drive the flow-control chain of §4.
//! * [`dma`] — the single deliberate-update DMA engine and its
//!   `CMPXCHG`-based user-level start protocol (§4.3).
//! * [`command`] — virtual-memory-mapped command pages (§4.2): a command
//!   address space the same size as physical memory, at a fixed distance
//!   from it, through which user processes talk to the NIC without any
//!   kernel involvement.
//! * [`nic`] — the [`NetworkInterface`] state machine composing all of the
//!   above; the machine crate (`shrimp-core`) wires it to the CPU's memory
//!   bus (snooping), the mesh, and the EISA DMA path.
//! * [`unpinned`] — the NP-RDMA-style backend. It is the same NIC type
//!   built with [`NetworkInterface::unpinned`]: an optional bounded
//!   IOTLB decides whether a mapped page is NIC-resident, and a miss
//!   waits for a dynamic map-in instead of relying on map-time pinning.
//!   [`NetworkInterface::new`] builds the paper's pinned NIC, with no
//!   IOTLB.
//!
//! # Examples
//!
//! ```
//! use shrimp_nic::{NetworkInterface, NicConfig, OutSegment, UpdatePolicy};
//! use shrimp_mem::{PhysAddr, PageNum};
//! use shrimp_mesh::{MeshShape, NodeId};
//! use shrimp_sim::SimTime;
//!
//! let shape = MeshShape::new(2, 1);
//! let mut nic = NetworkInterface::new(NodeId(0), shape, NicConfig::default(), 64);
//! // Map local page 3 out to node 1's page 7, automatic single-write.
//! nic.nipt_mut().set_out_segment(
//!     PageNum::new(3),
//!     OutSegment::full_page(NodeId(1), PageNum::new(7), UpdatePolicy::AutomaticSingle),
//! )?;
//! // A snooped store to page 3 becomes a network packet.
//! let outcome = nic.snoop_write(SimTime::ZERO, PhysAddr::new(3 * 4096 + 8), &42u32.to_le_bytes());
//! assert!(outcome.queued());
//! # Ok::<(), shrimp_nic::NicError>(())
//! ```

#![forbid(unsafe_code)]

pub mod arena;
pub mod command;
pub mod config;
pub mod datapath;
pub mod dma;
pub mod error;
pub mod fifo;
pub mod incoming;
pub mod nic;
pub mod nipt;
pub mod outgoing;
pub mod packet;
pub mod retx;
pub mod stats;
pub mod unpinned;

#[cfg(test)]
pub(crate) mod testutil;

pub use arena::PoolBuf;
pub use command::{CommandOp, CommandSpace};
pub use config::{NicBackend, NicConfig, RetxConfig, UnpinnedConfig};
pub use dma::{DmaEngine, DmaStatus};
pub use error::NicError;
pub use fifo::PacketFifo;
pub use nic::{IncomingDelivery, NetworkInterface, NicInterrupt, SnoopOutcome};
pub use nipt::{Nipt, NiptEntry, OutSegment, UpdatePolicy};
pub use packet::{
    crc32, Crc32, FrameKind, LinkCtl, PacketStamp, Payload, ShrimpPacket, WireHeader,
    INLINE_PAYLOAD_MAX,
};
pub use stats::NicStats;
pub use unpinned::IotlbStats;

/// Builds a [`Payload`] of `len` bytes backed by a pooled [`arena`]
/// buffer, filled in place by `fill`. This is the supported way for bus
/// glue (the deliberate-update DMA read in `shrimp-core`) to hand the
/// NIC a zero-extra-copy payload without reaching into the arena
/// directly.
pub fn pooled_payload(len: usize, fill: impl FnOnce(&mut [u8])) -> Payload {
    let mut buf = arena::take(len);
    fill(&mut buf);
    Payload::from(buf)
}
