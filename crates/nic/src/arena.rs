//! A global recycling pool for large packet payload buffers.
//!
//! The deliberate-update hot path reads a page from memory, wraps it as
//! a [`Payload`](crate::packet::Payload), and ships it through the
//! Outgoing FIFO, the mesh and the delivery DMA — one refcounted buffer
//! end to end. Without pooling, every packet costs one heap allocation
//! at the memory read and one free when the last pipeline stage drops
//! it; on an all-streaming workload that dominates the allocator
//! profile. [`take`] hands out a recycled [`PoolBuf`] instead, and each
//! buffer returns to the pool automatically when its payload is
//! dropped.
//!
//! Determinism: the pool affects *where* buffers live, never their
//! contents, lengths or any simulated time, so results are bit-identical
//! with pooling disabled. The pool is process-global (a `Mutex`), so
//! machines running on different threads of one process (a parallel
//! test harness, say) share it safely.

use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

/// Buffers kept at rest in the pool; beyond this, dropped buffers free
/// normally. Bounds worst-case idle memory at `MAX_POOLED ×
/// MAX_RETAINED_CAPACITY`.
const MAX_POOLED: usize = 4096;

/// Buffers with more capacity than this are never pooled (nothing on
/// the SHRIMP datapath legitimately exceeds a page plus headers).
const MAX_RETAINED_CAPACITY: usize = 16 * 1024;

static POOL: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());

/// A heap buffer that returns to the global pool when dropped.
#[derive(Debug, Default)]
pub struct PoolBuf {
    data: Vec<u8>,
}

impl PoolBuf {
    /// The underlying vector, for growing (merge buffers) or filling.
    pub fn vec_mut(&mut self) -> &mut Vec<u8> {
        &mut self.data
    }
}

impl Clone for PoolBuf {
    /// Deep copy into another pooled buffer (the clone recycles too).
    fn clone(&self) -> PoolBuf {
        let mut copy = take(self.data.len());
        copy.copy_from_slice(&self.data);
        copy
    }
}

impl Deref for PoolBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for PoolBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl Drop for PoolBuf {
    fn drop(&mut self) {
        if self.data.capacity() == 0 || self.data.capacity() > MAX_RETAINED_CAPACITY {
            return;
        }
        let mut pool = POOL.lock().expect("payload pool poisoned");
        if pool.len() < MAX_POOLED {
            pool.push(std::mem::take(&mut self.data));
        }
    }
}

/// Takes a zero-filled buffer of `len` bytes, recycling a pooled
/// allocation when one is available.
pub fn take(len: usize) -> PoolBuf {
    let mut data = POOL
        .lock()
        .expect("payload pool poisoned")
        .pop()
        .unwrap_or_default();
    data.clear();
    data.resize(len, 0);
    PoolBuf { data }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_round_trip_through_the_pool() {
        let mut b = take(64);
        assert_eq!(b.len(), 64);
        assert!(b.iter().all(|&x| x == 0));
        b[0] = 0xAB;
        let cap = b.vec_mut().capacity();
        drop(b);
        // The next take of any size may reuse the returned allocation —
        // and must come back zeroed at the requested length.
        let b2 = take(16);
        assert_eq!(b2.len(), 16);
        assert!(b2.iter().all(|&x| x == 0));
        assert!(cap >= 64);
    }

    fn pooled_buffers() -> usize {
        POOL.lock().expect("payload pool poisoned").len()
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        let before = pooled_buffers();
        let mut b = take(0);
        b.vec_mut().reserve(MAX_RETAINED_CAPACITY + 1);
        drop(b);
        assert!(pooled_buffers() <= before + 1);
    }
}
