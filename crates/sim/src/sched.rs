//! The unified simulation scheduler: one event queue, one clock, one
//! step loop.
//!
//! Historically every machine model carried its own copy of the
//! run loop ("find the earliest event, advance coupled components,
//! drain the instant"). [`Scheduler`] owns the queue + clock +
//! processed-event counter, and the free function [`step`] is the single
//! canonical loop body; hosts implement [`SimHost`] and wrap `step` with
//! their stop condition (a time limit, quiescence, a predicate).
//!
//! [`Component`] is the narrow interface a time-advancing hardware model
//! exposes to its host: when it next wants attention, and a way to bring
//! it forward. The mesh backplane and the per-node datapath both
//! implement it.

use crate::event::EventQueue;
use crate::time::SimTime;

/// A passive, time-advancing hardware model: it never calls anyone, it
/// just reports when it next has work and can be brought forward to a
/// point in time.
pub trait Component {
    /// The earliest instant at which this component has pending internal
    /// work, or `None` when it is idle.
    fn next_event_time(&self) -> Option<SimTime>;

    /// Advances internal state to `until`, processing everything due at
    /// or before it.
    fn advance(&mut self, until: SimTime);
}

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
        Scheduler::with_capacity(0)
    }

    /// Creates an empty scheduler with pre-allocated queue capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Scheduler {
            queue: EventQueue::with_capacity(cap),
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

    /// The earliest pending event without consuming it.
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        self.queue.peek()
    }

    /// Events popped (= handled) since construction.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler::new()
    }
}

/// Why one [`step`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Nothing pending anywhere: the simulation is quiescent.
    Idle,
    /// One instant was fully processed.
    Ran,
    /// The next instant lies beyond the bound's limit; nothing was done.
    PastLimit,
}

/// The stop condition [`step`] enforces.
#[derive(Debug, Clone, Copy)]
pub struct StepBound {
    /// Do not begin an instant after this time.
    pub limit: Option<SimTime>,
}

impl StepBound {
    /// No limit: run to quiescence.
    pub fn unbounded() -> Self {
        StepBound { limit: None }
    }

    /// Stop before any instant after `limit`.
    pub fn until(limit: SimTime) -> Self {
        StepBound { limit: Some(limit) }
    }
}

/// A simulation host: a scheduler plus coupled external components and
/// an event dispatcher. Implementing this is what lets a machine model
/// reuse [`step`] instead of hand-rolling the loop.
pub trait SimHost {
    /// The host's event type.
    type Event;

    /// The host's scheduler.
    fn scheduler(&mut self) -> &mut Scheduler<Self::Event>;

    /// Earliest pending instant of coupled external components (for the
    /// SHRIMP machine: the mesh backplane).
    fn external_next(&self) -> Option<SimTime>;

    /// Advances coupled external components to `t` and integrates their
    /// outputs (ejections, freed injection ports, ...).
    fn advance_external(&mut self, t: SimTime);

    /// Executes one event popped at instant `t`.
    fn dispatch(&mut self, t: SimTime, ev: Self::Event);
}

/// One iteration of the canonical run loop: find the next instant
/// across the scheduler and external components, advance the clock and
/// the externals, then drain every scheduler event at that instant.
///
/// Hosts wrap this with their stop condition:
///
/// * run-until-limit: `while step(m, StepBound::until(limit)) == Ran {}`
/// * run-until-idle: loop until `Idle` (with an iteration budget)
/// * run-until-pred: check the predicate between `Ran` outcomes —
///   `step` never splits an instant, so predicates observe consistent
///   inter-instant states.
pub fn step<S: SimHost>(sim: &mut S, bound: StepBound) -> StepOutcome {
    let tm = sim.scheduler().peek_time();
    let tn = sim.external_next();
    let next = match (tm, tn) {
        (None, None) => return StepOutcome::Idle,
        (Some(a), None) => a,
        (None, Some(b)) => b,
        (Some(a), Some(b)) => a.min(b),
    };
    if let Some(limit) = bound.limit {
        if next > limit {
            return StepOutcome::PastLimit;
        }
    }
    sim.scheduler().advance_clock(next);
    if tn.is_some_and(|t| t <= next) {
        sim.advance_external(next);
    }
    while sim.scheduler().peek_time() == Some(next) {
        let (_, ev) = sim.scheduler().pop().expect("peeked event");
        sim.dispatch(next, ev);
    }
    StepOutcome::Ran
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ps: u64) -> SimTime {
        SimTime::from_picos(ps)
    }

    #[test]
    fn scheduler_counts_and_advances() {
        let mut s: Scheduler<u32> = Scheduler::with_capacity(8);
        assert!(s.is_empty());
        s.push(t(10), 1);
        s.push(t(5), 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.peek_time(), Some(t(5)));
        assert_eq!(s.peek(), Some((t(5), &2)));
        assert_eq!(s.pop(), Some((t(5), 2)));
        assert_eq!(s.processed(), 1);
        s.advance_clock(t(5));
        s.advance_clock(t(3)); // never backward
        assert_eq!(s.now(), t(5));
    }

    /// A toy host: each event `k` schedules `k - 1` at `+10 ps` until
    /// zero, and an external component that ticks once at 15 ps.
    struct Toy {
        sched: Scheduler<u32>,
        ext_at: Option<SimTime>,
        ext_fired: u32,
        handled: Vec<(SimTime, u32)>,
    }

    impl SimHost for Toy {
        type Event = u32;
        fn scheduler(&mut self) -> &mut Scheduler<u32> {
            &mut self.sched
        }
        fn external_next(&self) -> Option<SimTime> {
            self.ext_at
        }
        fn advance_external(&mut self, t: SimTime) {
            if self.ext_at.is_some_and(|a| a <= t) {
                self.ext_at = None;
                self.ext_fired += 1;
            }
        }
        fn dispatch(&mut self, now: SimTime, ev: u32) {
            self.handled.push((now, ev));
            if ev > 0 {
                self.sched.push(now + crate::SimDuration::from_picos(10), ev - 1);
            }
        }
    }

    fn toy() -> Toy {
        let mut sched = Scheduler::new();
        sched.push(t(0), 3);
        Toy {
            sched,
            ext_at: Some(t(15)),
            ext_fired: 0,
            handled: Vec::new(),
        }
    }

    #[test]
    fn step_runs_to_idle() {
        let mut m = toy();
        let mut steps = 0;
        while step(&mut m, StepBound::unbounded()) == StepOutcome::Ran {
            steps += 1;
        }
        // Instants 0, 10, 15 (external only), 20, 30.
        assert_eq!(steps, 5);
        assert_eq!(m.handled, vec![(t(0), 3), (t(10), 2), (t(20), 1), (t(30), 0)]);
        assert_eq!(m.ext_fired, 1);
        assert_eq!(m.sched.processed(), 4);
        assert_eq!(m.sched.now(), t(30));
    }

    #[test]
    fn step_respects_limit() {
        let mut m = toy();
        while step(&mut m, StepBound::until(t(12))) == StepOutcome::Ran {}
        assert_eq!(m.handled, vec![(t(0), 3), (t(10), 2)]);
        assert_eq!(m.ext_fired, 0, "external at 15 ps lies past the limit");
        assert_eq!(
            step(&mut m, StepBound::until(t(12))),
            StepOutcome::PastLimit
        );
    }

    #[test]
    fn step_drains_whole_instants() {
        let mut m = toy();
        m.sched.push(t(0), 0);
        m.sched.push(t(0), 0);
        assert_eq!(step(&mut m, StepBound::unbounded()), StepOutcome::Ran);
        // All three time-zero events ran in this one step, FIFO order.
        assert_eq!(m.handled, vec![(t(0), 3), (t(0), 0), (t(0), 0)]);
    }
}
