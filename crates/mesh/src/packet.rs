//! The unit of transfer on the backplane.

use crate::topology::NodeId;

/// Per-packet routing envelope overhead in bytes: routing bytes consumed by
/// the iMRC routers plus framing. The NIC-level header (destination
/// coordinates, destination address, CRC) lives *inside* the payload — the
/// mesh is oblivious to it.
pub const ROUTING_OVERHEAD_BYTES: u64 = 4;

/// A payload the mesh can carry.
///
/// The mesh never inspects payload bytes; all it needs is the payload's
/// size on the wire, which drives link serialization and buffer occupancy.
/// Carrying a structured payload (the NIC's `ShrimpPacket`) directly means
/// the sending NIC does not serialize and the receiving NIC does not
/// parse — the same refcounted buffer rides end to end.
pub trait MeshPayload {
    /// Bytes this payload occupies on a link, excluding the routing
    /// envelope.
    fn byte_len(&self) -> u64;

    /// Flips one bit of the payload's wire image, `bit` counted from the
    /// first transmitted bit (fault injection models line noise this
    /// way). Payloads that carry no integrity check may ignore it.
    fn corrupt_bit(&mut self, _bit: u64) {}
}

impl MeshPayload for Vec<u8> {
    fn byte_len(&self) -> u64 {
        self.len() as u64
    }
}

/// One packet in flight on the mesh, generic over the payload it carries
/// (raw bytes, a `Vec<u8>`, by default).
///
/// # Examples
///
/// ```
/// use shrimp_mesh::{MeshPacket, NodeId};
///
/// let p: MeshPacket = MeshPacket::new(NodeId(0), NodeId(3), vec![0xaa; 16]);
/// assert_eq!(p.wire_len(), 16 + shrimp_mesh::packet::ROUTING_OVERHEAD_BYTES);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshPacket<P = Vec<u8>> {
    src: NodeId,
    dst: NodeId,
    payload: P,
}

impl<P: MeshPayload> MeshPacket<P> {
    /// Creates a packet carrying `payload` from `src` to `dst`.
    pub fn new(src: NodeId, dst: NodeId, payload: impl Into<P>) -> Self {
        MeshPacket {
            src,
            dst,
            payload: payload.into(),
        }
    }

    /// Sending node.
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// Destination node.
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// The payload (opaque to the mesh).
    pub fn payload(&self) -> &P {
        &self.payload
    }

    /// Mutable payload access; fault injection uses it to flip bits
    /// "on the wire" without re-serializing the packet.
    pub fn payload_mut(&mut self) -> &mut P {
        &mut self.payload
    }

    /// Consumes the packet, returning the payload.
    pub fn into_payload(self) -> P {
        self.payload
    }

    /// Bytes this packet occupies on a link, envelope included.
    pub fn wire_len(&self) -> u64 {
        self.payload.byte_len() + ROUTING_OVERHEAD_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let p: MeshPacket = MeshPacket::new(NodeId(1), NodeId(2), vec![1, 2, 3]);
        assert_eq!(p.src(), NodeId(1));
        assert_eq!(p.dst(), NodeId(2));
        assert_eq!(&p.payload()[..], &[1, 2, 3]);
        assert_eq!(p.wire_len(), 3 + ROUTING_OVERHEAD_BYTES);
    }

    #[test]
    fn empty_payload_still_has_envelope() {
        let p: MeshPacket = MeshPacket::new(NodeId(0), NodeId(0), Vec::new());
        assert_eq!(p.wire_len(), ROUTING_OVERHEAD_BYTES);
        assert!(p.into_payload().is_empty());
    }
}
