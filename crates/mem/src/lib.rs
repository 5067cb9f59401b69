//! Memory subsystem of a simulated SHRIMP node.
//!
//! Models the parts of the Intel Xpress PC memory system that the SHRIMP
//! network interface interacts with:
//!
//! * [`addr`] — physical/virtual address and page-number newtypes
//!   ([`PhysAddr`], [`VirtAddr`], [`PageNum`], [`VirtPageNum`]).
//! * [`phys`] — per-node physical DRAM ([`PhysicalMemory`]).
//! * [`page_table`] — per-process virtual→physical page tables with
//!   protection bits and per-page cache mode (write-through pages are what
//!   the NIC snoops).
//! * [`tlb`] — a small translation lookaside buffer with statistics.
//! * [`cache`] — a snooping second-level cache model; DMA writes from the
//!   network interface invalidate matching lines, which is how the real
//!   Xpress PC keeps CPU caches consistent with incoming data.
//! * [`bus`] — serialized Xpress memory bus and EISA expansion bus timing
//!   models; the EISA bus's 33 MB/s burst rate is the paper's peak
//!   bandwidth bottleneck.
//!
//! # Examples
//!
//! ```
//! use shrimp_mem::{PhysicalMemory, PhysAddr};
//!
//! let mut dram = PhysicalMemory::new(16); // 16 pages
//! dram.write_word(PhysAddr::new(0x100), 0xdead_beef)?;
//! assert_eq!(dram.read_word(PhysAddr::new(0x100))?, 0xdead_beef);
//! # Ok::<(), shrimp_mem::MemError>(())
//! ```

#![forbid(unsafe_code)]

pub mod addr;
pub mod bus;
pub mod cache;
pub mod error;
pub mod page_table;
pub mod phys;
pub mod tlb;

pub use addr::{PageNum, PhysAddr, VirtAddr, VirtPageNum, PAGE_SIZE, WORD_SIZE};
pub use bus::{BusConfig, EisaBus, XpressBus};
pub use cache::{CacheConfig, CacheModel, CacheOutcome};
pub use error::MemError;
pub use page_table::{CacheMode, PageFlags, PageTable, Protection};
pub use phys::PhysicalMemory;
pub use tlb::Tlb;
