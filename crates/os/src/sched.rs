//! The process scheduler.
//!
//! SHRIMP's protection does not depend on the scheduling policy —
//! "having hardware that supports general multiprogramming gives us the
//! ability to experiment with various scheduling policies" (paper §1).
//! Each node runs its own round-robin scheduler (general
//! multiprogramming); no machine-wide gang schedule is needed.

use std::collections::VecDeque;

use shrimp_sim::{SimDuration, SimTime};

use crate::process::Pid;

/// The scheduler's answer for "who runs now".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedDecision {
    /// Run this process until the reported slice end.
    Run {
        /// The chosen process.
        pid: Pid,
        /// End of its quantum.
        until: SimTime,
    },
    /// Nothing runnable.
    Idle,
}

/// A per-node round-robin scheduler with a fixed quantum.
///
/// # Examples
///
/// ```
/// use shrimp_os::{RoundRobin, SchedDecision, Pid};
/// use shrimp_sim::{SimTime, SimDuration};
///
/// let mut rr = RoundRobin::new(SimDuration::from_ms(10));
/// rr.add(Pid(1));
/// rr.add(Pid(2));
/// let SchedDecision::Run { pid, .. } = rr.tick(SimTime::ZERO) else { panic!() };
/// assert_eq!(pid, Pid(1));
/// ```
#[derive(Debug, Clone)]
pub struct RoundRobin {
    quantum: SimDuration,
    ready: VecDeque<Pid>,
    current: Option<(Pid, SimTime)>,
    context_switches: u64,
}

impl RoundRobin {
    /// Creates an empty scheduler.
    pub fn new(quantum: SimDuration) -> Self {
        RoundRobin {
            quantum,
            ready: VecDeque::new(),
            current: None,
            context_switches: 0,
        }
    }

    /// Adds a runnable process.
    pub fn add(&mut self, pid: Pid) {
        if !self.ready.contains(&pid) && self.current.map(|(p, _)| p) != Some(pid) {
            self.ready.push_back(pid);
        }
    }

    /// Removes a process (exit or block). Returns whether it was known.
    pub fn remove(&mut self, pid: Pid) -> bool {
        if self.current.map(|(p, _)| p) == Some(pid) {
            self.current = None;
            return true;
        }
        let before = self.ready.len();
        self.ready.retain(|&p| p != pid);
        before != self.ready.len()
    }

    /// Decides who runs at `now`, preempting at quantum boundaries.
    pub fn tick(&mut self, now: SimTime) -> SchedDecision {
        if let Some((pid, until)) = self.current {
            if now < until {
                return SchedDecision::Run { pid, until };
            }
            // Quantum expired: requeue.
            self.ready.push_back(pid);
            self.current = None;
        }
        match self.ready.pop_front() {
            Some(pid) => {
                let until = now + self.quantum;
                self.current = Some((pid, until));
                self.context_switches += 1;
                SchedDecision::Run { pid, until }
            }
            None => SchedDecision::Idle,
        }
    }

    /// The currently running process, if any.
    pub fn current(&self) -> Option<Pid> {
        self.current.map(|(p, _)| p)
    }

    /// Restarts the current process's quantum at `now` — called by the
    /// machine when a context switch completes, so time spent switching
    /// is not billed against the incoming process's slice (otherwise a
    /// quantum shorter than the switch cost would thrash forever).
    pub fn restart_quantum(&mut self, now: SimTime) {
        if let Some((pid, _)) = self.current {
            self.current = Some((pid, now + self.quantum));
        }
    }

    /// Context switches performed.
    pub fn context_switches(&self) -> u64 {
        self.context_switches
    }

    /// The configured quantum.
    pub fn quantum(&self) -> SimDuration {
        self.quantum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_ms(n)
    }

    fn t(ms_: u64) -> SimTime {
        SimTime::ZERO + ms(ms_)
    }

    #[test]
    fn round_robin_rotates_at_quantum() {
        let mut rr = RoundRobin::new(ms(10));
        rr.add(Pid(1));
        rr.add(Pid(2));
        let SchedDecision::Run { pid, until } = rr.tick(t(0)) else {
            panic!()
        };
        assert_eq!((pid, until), (Pid(1), t(10)));
        // Mid-quantum tick keeps the same process.
        assert_eq!(
            rr.tick(t(5)),
            SchedDecision::Run { pid: Pid(1), until: t(10) }
        );
        // Quantum boundary switches.
        let SchedDecision::Run { pid, .. } = rr.tick(t(10)) else {
            panic!()
        };
        assert_eq!(pid, Pid(2));
        let SchedDecision::Run { pid, .. } = rr.tick(t(20)) else {
            panic!()
        };
        assert_eq!(pid, Pid(1));
        assert_eq!(rr.context_switches(), 3);
    }

    #[test]
    fn empty_scheduler_idles() {
        let mut rr = RoundRobin::new(ms(10));
        assert_eq!(rr.tick(t(0)), SchedDecision::Idle);
        assert_eq!(rr.current(), None);
    }

    #[test]
    fn remove_current_and_queued() {
        let mut rr = RoundRobin::new(ms(10));
        rr.add(Pid(1));
        rr.add(Pid(2));
        rr.tick(t(0));
        assert!(rr.remove(Pid(1)), "current process removable");
        let SchedDecision::Run { pid, .. } = rr.tick(t(1)) else {
            panic!()
        };
        assert_eq!(pid, Pid(2));
        assert!(!rr.remove(Pid(9)));
    }

    #[test]
    fn restart_quantum_rebases_the_slice() {
        let mut rr = RoundRobin::new(ms(10));
        rr.add(Pid(1));
        rr.tick(t(0)); // slice [0, 10)
        // A context switch completed at t=7: the slice restarts there.
        rr.restart_quantum(t(7));
        assert_eq!(
            rr.tick(t(12)),
            SchedDecision::Run { pid: Pid(1), until: t(17) },
            "slice must now end at 7 + quantum"
        );
        // Restart with nothing running is a no-op.
        let mut idle = RoundRobin::new(ms(10));
        idle.restart_quantum(t(3));
        assert_eq!(idle.tick(t(3)), SchedDecision::Idle);
    }

    #[test]
    fn duplicate_add_is_ignored() {
        let mut rr = RoundRobin::new(ms(10));
        rr.add(Pid(1));
        rr.add(Pid(1));
        rr.tick(t(0));
        rr.add(Pid(1)); // already current
        assert_eq!(rr.tick(t(10)), SchedDecision::Run { pid: Pid(1), until: t(20) });
    }
}
