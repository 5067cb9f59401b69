//! Machine-level error type.

use std::error::Error;
use std::fmt;

use shrimp_mem::{MemError, VirtAddr};
use shrimp_nic::NicError;
use shrimp_os::OsError;

/// Errors surfaced by the whole-machine API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// A kernel operation failed.
    Os(OsError),
    /// A network interface operation failed.
    Nic(NicError),
    /// A memory access failed.
    Mem(MemError),
    /// A zero-length mapping was requested.
    EmptyMapping,
    /// A host call got a range it cannot align: a store (`poke`) needs
    /// a word-aligned `va` and whole words, an export (`export_buffer`)
    /// a page-aligned `va`.
    Unaligned {
        /// The requested start address.
        va: VirtAddr,
        /// The requested length in bytes.
        len: u64,
    },
    /// `run_until_idle` gave up: the machine keeps generating events
    /// (typically a CPU spin-waiting for data that will never come).
    NoQuiescence,
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Os(e) => write!(f, "kernel: {e}"),
            MachineError::Nic(e) => write!(f, "network interface: {e}"),
            MachineError::Mem(e) => write!(f, "memory: {e}"),
            MachineError::EmptyMapping => write!(f, "mapping length must be positive"),
            MachineError::Unaligned { va, len } => {
                write!(
                    f,
                    "range of {len} bytes at {va} is misaligned \
                     (poke needs whole words, export_buffer a page start)"
                )
            }
            MachineError::NoQuiescence => write!(f, "machine did not quiesce"),
        }
    }
}

impl Error for MachineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MachineError::Os(e) => Some(e),
            MachineError::Nic(e) => Some(e),
            MachineError::Mem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OsError> for MachineError {
    fn from(e: OsError) -> Self {
        MachineError::Os(e)
    }
}

impl From<NicError> for MachineError {
    fn from(e: NicError) -> Self {
        MachineError::Nic(e)
    }
}

impl From<MemError> for MachineError {
    fn from(e: MemError) -> Self {
        MachineError::Mem(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: MachineError = OsError::OutOfMemory.into();
        assert!(e.to_string().contains("kernel"));
        assert!(Error::source(&e).is_some());
        let e: MachineError = NicError::BadCrc.into();
        assert!(e.to_string().contains("network interface"));
        let e: MachineError = MemError::OutOfRange {
            addr: shrimp_mem::PhysAddr::new(0),
            size: 0,
        }
        .into();
        assert!(e.to_string().contains("memory"));
        assert!(Error::source(&MachineError::NoQuiescence).is_none());
        let e = MachineError::Unaligned {
            va: VirtAddr::new(2),
            len: 4,
        };
        assert!(e.to_string().contains("misaligned"));
    }
}
