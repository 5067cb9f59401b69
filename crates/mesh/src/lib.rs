//! Model of the Intel Paragon routing backplane used by SHRIMP.
//!
//! The paper relies on exactly three properties of the backplane (§3):
//!
//! 1. **Deadlock-free oblivious wormhole routing** — reproduced with
//!    dimension-order (X then Y) routing over a 2-D mesh of routers.
//! 2. **In-order delivery per (sender, receiver) pair** — reproduced
//!    because routes are deterministic and every buffer and link serves
//!    packets FIFO.
//! 3. **Backpressure** — when a destination stops accepting packets
//!    (its NIC's Incoming FIFO is over threshold), router buffers fill and
//!    stall upstream links all the way back to the senders' injection
//!    ports, exactly the flow-control chain described in §4.
//!
//! Packets move at *packet granularity with cut-through timing*: a router
//! forwards a packet after its head has been latched (`hop_latency`) and
//! the link has serialized it (`len / link_bandwidth`). For SHRIMP-sized
//! packets this reproduces the latency envelope of the flit-level
//! hardware; DESIGN.md discusses the approximation.
//!
//! # Examples
//!
//! ```
//! use shrimp_mesh::{MeshConfig, MeshNetwork, MeshPacket, MeshShape, NodeId};
//! use shrimp_sim::SimTime;
//!
//! let mut net: MeshNetwork = MeshNetwork::new(MeshConfig::paragon(MeshShape::new(4, 4)));
//! let pkt = MeshPacket::new(NodeId(0), NodeId(15), vec![1, 2, 3, 4]);
//! assert!(net.try_inject(SimTime::ZERO, pkt).is_ok());
//! net.advance(SimTime::from_picos(u64::MAX / 2));
//! let (delivered, _arrival) = net.eject(net.now(), NodeId(15)).expect("packet must arrive");
//! assert_eq!(&delivered.payload()[..], &[1, 2, 3, 4]);
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod network;
pub mod packet;
pub mod routing;
pub mod topology;

pub use config::MeshConfig;
pub use network::{LinkUse, MeshNetwork, NetworkStats};
pub use packet::{MeshPacket, MeshPayload};
pub use routing::{RouteColumns, RouteDecision, RouteTable};
pub use topology::{Direction, MeshCoord, MeshShape, NodeId};
