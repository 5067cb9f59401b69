//! The deliberate-update DMA engine.
//!
//! The network interface has **one** DMA engine serving one request at a
//! time (paper §4.3). User processes start transfers with a locked
//! `CMPXCHG` to a command page:
//!
//! * the read cycle returns **0** when the engine is free — which makes
//!   the `CMPXCHG` succeed and emit the write cycle carrying the word
//!   count, starting the transfer;
//! * when busy, the read returns the number of words remaining plus a
//!   flag telling the reader whether the engine is working on *its* base
//!   address — a single read therefore doubles as a completion poll and
//!   as input to a backoff strategy.

use shrimp_mem::PhysAddr;
use shrimp_sim::SimTime;

/// Status word returned by a command-page read, in the paper's encoding:
/// zero means the engine is free; otherwise the low 31 bits hold the
/// remaining word count and bit 31 is the base-address match flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaStatus(pub u32);

impl DmaStatus {
    /// The free-engine status (reads as zero).
    pub const FREE: DmaStatus = DmaStatus(0);

    /// Builds a busy status.
    pub fn busy(words_remaining: u32, base_matches: bool) -> Self {
        debug_assert!(words_remaining > 0 && words_remaining < (1 << 31));
        DmaStatus(words_remaining | if base_matches { 1 << 31 } else { 0 })
    }

    /// True when the engine is free (`CMPXCHG` against 0 will succeed).
    pub fn is_free(self) -> bool {
        self.0 == 0
    }

    /// Words left in the current transfer (0 when free).
    pub fn words_remaining(self) -> u32 {
        self.0 & !(1 << 31)
    }

    /// True when the polled address matches the engine's current base.
    pub fn base_matches(self) -> bool {
        self.0 & (1 << 31) != 0
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    Busy {
        base: PhysAddr,
        words: u32,
        done_at: SimTime,
    },
}

/// The single deliberate-update DMA engine.
///
/// # Examples
///
/// ```
/// use shrimp_nic::{DmaEngine, DmaStatus};
/// use shrimp_mem::PhysAddr;
/// use shrimp_sim::{SimTime, SimDuration};
///
/// let mut dma = DmaEngine::new();
/// assert!(dma.status(SimTime::ZERO, PhysAddr::new(0)).is_free());
/// dma.start(SimTime::ZERO, PhysAddr::new(0), 16, SimTime::ZERO + SimDuration::from_us(1));
/// let s = dma.status(SimTime::ZERO, PhysAddr::new(0));
/// assert!(!s.is_free());
/// assert!(s.base_matches());
/// ```
#[derive(Debug, Clone)]
pub struct DmaEngine {
    state: State,
    /// Span of the in-progress transfer in picoseconds, for progress
    /// interpolation in [`DmaEngine::status`].
    started_span_ps: f64,
    transfers: u64,
    words_total: u64,
    busy_rejections: u64,
}

impl Default for DmaEngine {
    fn default() -> Self {
        DmaEngine::new()
    }
}

impl DmaEngine {
    /// Creates an idle engine.
    pub fn new() -> Self {
        DmaEngine {
            state: State::Idle,
            started_span_ps: 0.0,
            transfers: 0,
            words_total: 0,
            busy_rejections: 0,
        }
    }

    /// The status a read cycle at `addr` returns at time `now`. This is
    /// what the `CMPXCHG` read phase sees.
    pub fn status(&mut self, now: SimTime, addr: PhysAddr) -> DmaStatus {
        self.expire(now);
        match self.state {
            State::Idle => DmaStatus::FREE,
            State::Busy { base, words, done_at } => {
                // Remaining words decay linearly over the transfer window.
                let total = self.current_total_duration(words, done_at, now);
                DmaStatus::busy(total.max(1), addr == base)
            }
        }
    }

    fn current_total_duration(&self, words: u32, done_at: SimTime, now: SimTime) -> u32 {
        if now >= done_at {
            return 0;
        }
        // Linear interpolation of progress; the exact shape does not
        // matter to correctness, only that it is monotone non-increasing.
        let remaining_ps = done_at.since(now).as_picos() as f64;
        let started_span = self
            .started_span_ps
            .max(remaining_ps.max(1.0));
        let frac = (remaining_ps / started_span).clamp(0.0, 1.0);
        ((words as f64 * frac).ceil() as u32).clamp(1, words)
    }

    /// Attempts to start a transfer (the write cycle of a successful
    /// `CMPXCHG`). Returns `false` — and counts a rejection — if the
    /// engine is busy at `now`.
    pub fn start(&mut self, now: SimTime, base: PhysAddr, words: u32, done_at: SimTime) -> bool {
        self.expire(now);
        if !matches!(self.state, State::Idle) {
            self.busy_rejections += 1;
            return false;
        }
        assert!(words > 0, "zero-word DMA transfer");
        assert!(done_at >= now, "completion before start");
        self.state = State::Busy { base, words, done_at };
        self.started_span_ps = done_at.since(now).as_picos() as f64;
        self.transfers += 1;
        self.words_total += words as u64;
        true
    }

    /// True when the engine is idle at `now`.
    pub fn is_idle(&mut self, now: SimTime) -> bool {
        self.expire(now);
        matches!(self.state, State::Idle)
    }

    /// Transfers started so far.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Total words moved (including the in-progress transfer).
    pub fn words_total(&self) -> u64 {
        self.words_total
    }

    /// Start attempts refused because the engine was busy — each one is a
    /// user-level retry (paper §4.3).
    pub fn busy_rejections(&self) -> u64 {
        self.busy_rejections
    }

    fn expire(&mut self, now: SimTime) {
        if let State::Busy { done_at, .. } = self.state {
            if now >= done_at {
                self.state = State::Idle;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_sim::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_us(us)
    }

    #[test]
    fn free_engine_reads_zero_and_starts() {
        let mut dma = DmaEngine::new();
        assert_eq!(dma.status(t(0), PhysAddr::new(0)), DmaStatus::FREE);
        assert!(dma.start(t(0), PhysAddr::new(0x1000), 1024, t(10)));
        assert_eq!(dma.transfers(), 1);
    }

    #[test]
    fn busy_engine_rejects_and_counts() {
        let mut dma = DmaEngine::new();
        dma.start(t(0), PhysAddr::new(0), 16, t(10));
        assert!(!dma.start(t(5), PhysAddr::new(64), 16, t(20)));
        assert_eq!(dma.busy_rejections(), 1);
        // After completion it accepts again.
        assert!(dma.start(t(10), PhysAddr::new(64), 16, t(20)));
    }

    #[test]
    fn status_reports_base_match() {
        let mut dma = DmaEngine::new();
        let base = PhysAddr::new(0x2000);
        dma.start(t(0), base, 100, t(10));
        let s = dma.status(t(5), base);
        assert!(!s.is_free());
        assert!(s.base_matches());
        let other = dma.status(t(5), PhysAddr::new(0x3000));
        assert!(!other.base_matches());
        assert!(other.words_remaining() > 0);
    }

    #[test]
    fn remaining_words_monotonically_decrease() {
        let mut dma = DmaEngine::new();
        let base = PhysAddr::new(0);
        dma.start(t(0), base, 1000, t(100));
        let mut last = u32::MAX;
        for us in [10u64, 30, 50, 70, 90] {
            let s = dma.status(t(us), base);
            assert!(s.words_remaining() <= last);
            assert!(s.words_remaining() >= 1);
            last = s.words_remaining();
        }
        assert!(dma.status(t(100), base).is_free());
        assert!(dma.is_idle(t(101)));
    }

    #[test]
    fn completion_poll_is_the_two_instruction_check() {
        // Paper §5.2: checking whether a DMA finished costs a read (plus a
        // branch). Model-wise: one status() call flips to FREE at done_at.
        let mut dma = DmaEngine::new();
        dma.start(t(0), PhysAddr::new(0), 8, t(1));
        assert!(!dma.status(t(0), PhysAddr::new(0)).is_free());
        assert!(dma.status(t(1), PhysAddr::new(0)).is_free());
    }

    #[test]
    fn status_encoding_roundtrip() {
        let s = DmaStatus::busy(12345, true);
        assert_eq!(s.words_remaining(), 12345);
        assert!(s.base_matches());
        let s = DmaStatus::busy(1, false);
        assert_eq!(s.words_remaining(), 1);
        assert!(!s.base_matches());
    }

    #[test]
    #[should_panic(expected = "zero-word")]
    fn zero_word_transfer_rejected() {
        DmaEngine::new().start(t(0), PhysAddr::new(0), 0, t(1));
    }
}
