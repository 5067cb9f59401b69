//! Kernel error type.

use std::error::Error;
use std::fmt;

use shrimp_mem::{MemError, PageNum, VirtPageNum};
use shrimp_mesh::NodeId;

use crate::process::Pid;

/// Errors raised by the kernel model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OsError {
    /// The named process does not exist on this node.
    NoSuchProcess(Pid),
    /// The node is out of physical frames.
    OutOfMemory,
    /// A virtual range was not fully mapped in the process.
    RangeNotMapped {
        /// The owning process.
        pid: Pid,
        /// First unmapped page.
        vpn: VirtPageNum,
    },
    /// No export covers the requested receive buffer.
    NotExported,
    /// The export exists but does not admit the requesting node.
    ExportRefused {
        /// The node that asked.
        node: NodeId,
    },
    /// The export is too small for the requested mapping.
    ExportTooSmall,
    /// A pageout is already in progress for the frame.
    PageoutInProgress(PageNum),
    /// No pageout is in progress for the frame.
    NoPageout(PageNum),
    /// An underlying memory-system error.
    Mem(MemError),
}

impl fmt::Display for OsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsError::NoSuchProcess(pid) => write!(f, "no such process {pid}"),
            OsError::OutOfMemory => write!(f, "out of physical frames"),
            OsError::RangeNotMapped { pid, vpn } => {
                write!(f, "{vpn} is not mapped in process {pid}")
            }
            OsError::NotExported => write!(f, "receive buffer was not exported"),
            OsError::ExportRefused { node } => {
                write!(f, "export does not admit node {node}")
            }
            OsError::ExportTooSmall => write!(f, "export smaller than requested mapping"),
            OsError::PageoutInProgress(p) => write!(f, "pageout already in progress for {p}"),
            OsError::NoPageout(p) => write!(f, "no pageout in progress for {p}"),
            OsError::Mem(e) => write!(f, "memory error: {e}"),
        }
    }
}

impl Error for OsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OsError::Mem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MemError> for OsError {
    fn from(e: MemError) -> Self {
        OsError::Mem(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_mem::VirtAddr;

    #[test]
    fn displays_and_source() {
        assert!(OsError::OutOfMemory.to_string().contains("frames"));
        let e = OsError::from(MemError::NotMapped {
            addr: VirtAddr::new(0),
        });
        assert!(e.to_string().contains("memory error"));
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&OsError::NotExported).is_none());
    }
}
