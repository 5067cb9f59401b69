//! Network interface error type.

use std::error::Error;
use std::fmt;

use shrimp_mem::{PageNum, PhysAddr};
use shrimp_mesh::MeshCoord;

/// Errors raised by the network interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NicError {
    /// An arriving packet's destination coordinates do not match this
    /// node — it was misrouted (checked per paper §3.1).
    WrongDestination {
        /// Coordinates in the packet header.
        packet: MeshCoord,
        /// This NIC's coordinates.
        local: MeshCoord,
    },
    /// The packet failed its CRC check.
    BadCrc,
    /// The packet's bytes could not be parsed at all.
    Malformed(&'static str),
    /// An arriving packet addressed a page that is not mapped in.
    NotMappedIn {
        /// The offending page.
        page: PageNum,
    },
    /// An arriving packet addressed a page outside installed memory.
    PageOutOfRange {
        /// The offending page.
        page: PageNum,
    },
    /// The incoming FIFO cannot hold the packet.
    IncomingFifoFull,
    /// An outgoing mapping was rejected.
    BadMapping(&'static str),
    /// A deliberate-update command addressed a page without a deliberate
    /// mapping at that offset.
    NotDeliberateMapped {
        /// The address the command named.
        addr: PhysAddr,
    },
    /// A transfer would cross a page boundary (one page per command, §4.3).
    CrossesPageBoundary,
}

impl fmt::Display for NicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NicError::WrongDestination { packet, local } => {
                write!(f, "packet routed to {local} but addressed to {packet}")
            }
            NicError::BadCrc => write!(f, "packet failed CRC check"),
            NicError::Malformed(why) => write!(f, "malformed packet: {why}"),
            NicError::NotMappedIn { page } => write!(f, "page {page} is not mapped in"),
            NicError::PageOutOfRange { page } => {
                write!(f, "page {page} is outside installed memory")
            }
            NicError::IncomingFifoFull => write!(f, "incoming FIFO full"),
            NicError::BadMapping(why) => write!(f, "invalid mapping: {why}"),
            NicError::NotDeliberateMapped { addr } => {
                write!(f, "no deliberate-update mapping covers {addr}")
            }
            NicError::CrossesPageBoundary => {
                write!(f, "transfer crosses a page boundary")
            }
        }
    }
}

impl Error for NicError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = NicError::WrongDestination {
            packet: MeshCoord { x: 1, y: 2 },
            local: MeshCoord { x: 0, y: 0 },
        };
        assert!(e.to_string().contains("(1,2)"));
        assert!(NicError::BadCrc.to_string().contains("CRC"));
        assert!(NicError::NotMappedIn { page: PageNum::new(3) }
            .to_string()
            .contains("pfn:3"));
    }

    #[test]
    fn error_is_send_sync() {
        fn takes<E: Error + Send + Sync>(_: E) {}
        takes(NicError::BadCrc);
    }
}
