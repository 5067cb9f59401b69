//! The simulation scheduler: one event queue, one clock and one
//! processed-event counter.
//!
//! [`Scheduler`] is the machine model's single event queue. The run
//! loop that drains it (find the next instant across the queue and the
//! mesh, advance both, dispatch the instant's events) lives on its only
//! host, the whole-machine model in `shrimp-core`. The loop reads the
//! next instant several times per event; the [`EventQueue`] inside
//! caches it, so [`Scheduler::peek_time`] is a field read.

use crate::event::EventQueue;
use crate::time::SimTime;

/// Event queue + clock + processed-event counter.
///
/// Popping an event counts it as processed — in a discrete-event
/// simulation every popped event is handled, so the pop is the natural
/// (and single) counting point.
///
/// # Examples
///
/// ```
/// use shrimp_sim::{Scheduler, SimTime};
///
/// let mut s: Scheduler<&str> = Scheduler::new();
/// s.push(SimTime::from_picos(5), "a");
/// s.push(SimTime::from_picos(5), "b");
/// let (t, ev) = s.pop().unwrap();
/// s.advance_clock(t);
/// assert_eq!((ev, s.now()), ("a", SimTime::from_picos(5)));
/// assert_eq!(s.processed(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler at time zero.
    pub fn new() -> Self {
        Scheduler {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Moves the clock forward to `t` (never backward).
    pub fn advance_clock(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        self.queue.push(time, event);
    }

    /// Removes and returns the earliest event, counting it as processed.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = self.queue.pop();
        if e.is_some() {
            self.processed += 1;
        }
        e
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Events popped (= handled) since construction.
    pub fn processed(&self) -> u64 {
        self.processed
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ps: u64) -> SimTime {
        SimTime::from_picos(ps)
    }

    #[test]
    fn scheduler_counts_and_advances() {
        let mut s: Scheduler<u32> = Scheduler::new();
        assert_eq!(s.peek_time(), None);
        s.push(t(10), 1);
        s.push(t(5), 2);
        assert_eq!(s.peek_time(), Some(t(5)));
        assert_eq!(s.pop(), Some((t(5), 2)));
        assert_eq!(s.processed(), 1);
        s.advance_clock(t(5));
        s.advance_clock(t(3)); // never backward
        assert_eq!(s.now(), t(5));
    }
}
