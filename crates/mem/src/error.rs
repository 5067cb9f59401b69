//! Memory subsystem error type.

use std::error::Error;
use std::fmt;

use crate::addr::{PhysAddr, VirtAddr};

/// Errors raised by the memory subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// A physical access fell outside installed DRAM.
    OutOfRange {
        /// The offending address.
        addr: PhysAddr,
        /// Total installed bytes.
        size: u64,
    },
    /// A physical access was not aligned to its width.
    Misaligned {
        /// The offending address.
        addr: PhysAddr,
        /// Required alignment in bytes.
        align: u64,
    },
    /// A virtual access touched an unmapped page.
    NotMapped {
        /// The offending virtual address.
        addr: VirtAddr,
    },
    /// A virtual access violated the page's protection.
    ProtectionViolation {
        /// The offending virtual address.
        addr: VirtAddr,
        /// True for a write access, false for a read.
        write: bool,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfRange { addr, size } => {
                write!(f, "physical address {addr} outside installed memory of {size} bytes")
            }
            MemError::Misaligned { addr, align } => {
                write!(f, "physical address {addr} not aligned to {align} bytes")
            }
            MemError::NotMapped { addr } => write!(f, "virtual address {addr} is not mapped"),
            MemError::ProtectionViolation { addr, write } => {
                let kind = if *write { "write" } else { "read" };
                write!(f, "{kind} protection violation at {addr}")
            }
        }
    }
}

impl Error for MemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = MemError::OutOfRange {
            addr: PhysAddr::new(0x5000),
            size: 0x4000,
        };
        assert!(e.to_string().contains("outside installed memory"));

        let e = MemError::ProtectionViolation {
            addr: VirtAddr::new(0x10),
            write: true,
        };
        assert!(e.to_string().contains("write protection violation"));

        let e = MemError::ProtectionViolation {
            addr: VirtAddr::new(0x10),
            write: false,
        };
        assert!(e.to_string().contains("read protection violation"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_err<E: std::error::Error + Send + Sync>(_: E) {}
        takes_err(MemError::NotMapped {
            addr: VirtAddr::new(0),
        });
    }
}
