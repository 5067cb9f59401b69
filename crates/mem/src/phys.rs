//! Per-node physical memory (DRAM).

use crate::addr::{PhysAddr, PAGE_SIZE, WORD_SIZE};
use crate::error::MemError;

/// The DRAM of one node, addressed physically from zero.
///
/// All word accesses are little-endian 32-bit, matching the i386 family.
///
/// # Examples
///
/// ```
/// use shrimp_mem::{PhysicalMemory, PhysAddr};
///
/// let mut dram = PhysicalMemory::new(4);
/// dram.write_bytes(PhysAddr::new(8), &[1, 2, 3, 4])?;
/// assert_eq!(dram.read_word(PhysAddr::new(8))?, 0x0403_0201);
/// # Ok::<(), shrimp_mem::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PhysicalMemory {
    data: Vec<u8>,
}

impl PhysicalMemory {
    /// Creates zero-filled DRAM of `pages` pages.
    pub fn new(pages: u64) -> Self {
        PhysicalMemory {
            data: vec![0u8; (pages * PAGE_SIZE) as usize],
        }
    }

    /// Installed size in bytes.
    pub fn size(&self) -> u64 {
        self.data.len() as u64
    }

    /// Number of installed pages.
    pub fn num_pages(&self) -> u64 {
        self.size() / PAGE_SIZE
    }

    fn check(&self, addr: PhysAddr, len: u64) -> Result<usize, MemError> {
        let end = addr.raw().checked_add(len).ok_or(MemError::OutOfRange {
            addr,
            size: self.size(),
        })?;
        if end > self.size() {
            return Err(MemError::OutOfRange {
                addr,
                size: self.size(),
            });
        }
        Ok(addr.raw() as usize)
    }

    /// Reads one little-endian 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Misaligned`] for unaligned addresses and
    /// [`MemError::OutOfRange`] for addresses past installed memory.
    pub fn read_word(&self, addr: PhysAddr) -> Result<u32, MemError> {
        if !addr.is_word_aligned() {
            return Err(MemError::Misaligned {
                addr,
                align: WORD_SIZE,
            });
        }
        let i = self.check(addr, WORD_SIZE)?;
        Ok(u32::from_le_bytes(self.data[i..i + 4].try_into().unwrap()))
    }

    /// Writes one little-endian 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Misaligned`] for unaligned addresses and
    /// [`MemError::OutOfRange`] for addresses past installed memory.
    pub fn write_word(&mut self, addr: PhysAddr, value: u32) -> Result<(), MemError> {
        if !addr.is_word_aligned() {
            return Err(MemError::Misaligned {
                addr,
                align: WORD_SIZE,
            });
        }
        let i = self.check(addr, WORD_SIZE)?;
        self.data[i..i + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the range is not fully installed.
    pub fn read_bytes_into(&self, addr: PhysAddr, buf: &mut [u8]) -> Result<(), MemError> {
        let i = self.check(addr, buf.len() as u64)?;
        buf.copy_from_slice(&self.data[i..i + buf.len()]);
        Ok(())
    }

    /// Reads `len` bytes starting at `addr` into a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the range is not fully installed.
    pub fn read_bytes(&self, addr: PhysAddr, len: u64) -> Result<Vec<u8>, MemError> {
        let mut buf = vec![0u8; len as usize];
        self.read_bytes_into(addr, &mut buf)?;
        Ok(buf)
    }

    /// Writes a byte slice starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the range is not fully installed.
    pub fn write_bytes(&mut self, addr: PhysAddr, bytes: &[u8]) -> Result<(), MemError> {
        let i = self.check(addr, bytes.len() as u64)?;
        self.data[i..i + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_roundtrip_little_endian() {
        let mut m = PhysicalMemory::new(1);
        m.write_word(PhysAddr::new(0), 0x1234_5678).unwrap();
        assert_eq!(m.read_word(PhysAddr::new(0)).unwrap(), 0x1234_5678);
        assert_eq!(m.read_bytes(PhysAddr::new(0), 4).unwrap(), vec![0x78, 0x56, 0x34, 0x12]);
    }

    #[test]
    fn misaligned_word_rejected() {
        let mut m = PhysicalMemory::new(1);
        assert!(matches!(
            m.read_word(PhysAddr::new(2)),
            Err(MemError::Misaligned { .. })
        ));
        assert!(matches!(
            m.write_word(PhysAddr::new(1), 0),
            Err(MemError::Misaligned { .. })
        ));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut m = PhysicalMemory::new(1);
        let end = PhysAddr::new(PAGE_SIZE);
        assert!(matches!(m.read_word(end), Err(MemError::OutOfRange { .. })));
        assert!(matches!(
            m.write_bytes(PhysAddr::new(PAGE_SIZE - 2), &[0; 4]),
            Err(MemError::OutOfRange { .. })
        ));
        // Last aligned word is fine.
        m.write_word(PhysAddr::new(PAGE_SIZE - 4), 1).unwrap();
    }

    #[test]
    fn overflowing_range_rejected() {
        let m = PhysicalMemory::new(1);
        assert!(matches!(
            m.read_bytes(PhysAddr::new(u64::MAX - 1), 4),
            Err(MemError::OutOfRange { .. })
        ));
    }

    #[test]
    fn byte_ops_roundtrip() {
        let mut m = PhysicalMemory::new(2);
        let data: Vec<u8> = (0..=255).collect();
        m.write_bytes(PhysAddr::new(100), &data).unwrap();
        assert_eq!(m.read_bytes(PhysAddr::new(100), 256).unwrap(), data);
        let mut buf = [0u8; 16];
        m.read_bytes_into(PhysAddr::new(100), &mut buf).unwrap();
        assert_eq!(&buf, &data[..16]);
    }

    #[test]
    fn geometry_accessors() {
        let m = PhysicalMemory::new(8);
        assert_eq!(m.size(), 8 * PAGE_SIZE);
        assert_eq!(m.num_pages(), 8);
    }

    #[test]
    fn fresh_memory_is_zeroed() {
        let m = PhysicalMemory::new(1);
        assert!(m.read_bytes(PhysAddr::new(0), 64).unwrap().iter().all(|&b| b == 0));
    }
}
