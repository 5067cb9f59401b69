//! Property-based tests of the simulation kernel.

use proptest::prelude::*;

use shrimp_sim::{BandwidthResource, EventQueue, Histogram, SimDuration, SimTime};

/// Runs `ops` (`Some(time)` pushes, `None` pops) on an [`EventQueue`] and
/// on a reference model (a list searched for the earliest time, then the
/// earliest push), comparing every pop and, after every operation,
/// `is_empty` and `peek_time`.
fn check_queue_against_model(
    ops: impl IntoIterator<Item = Option<u64>>,
) -> Result<(), TestCaseError> {
    let mut q = EventQueue::new();
    let mut model: Vec<(u64, usize)> = Vec::new(); // (time, push order)
    for (seq, op) in ops.into_iter().enumerate() {
        match op {
            Some(t) => {
                q.push(SimTime::from_picos(t), seq);
                model.push((t, seq));
            }
            None => {
                let earliest = (0..model.len()).min_by_key(|&i| model[i]);
                let expect = earliest.map(|i| model.remove(i));
                let got = q.pop().map(|(t, s)| (t.as_picos(), s));
                prop_assert_eq!(got, expect);
            }
        }
        prop_assert_eq!(q.is_empty(), model.is_empty());
        let earliest = model.iter().map(|&(t, _)| t).min();
        prop_assert_eq!(q.peek_time().map(SimTime::as_picos), earliest);
    }
    Ok(())
}

proptest! {
    /// A bandwidth resource never double-books: grants are disjoint,
    /// ordered, each as long as its transfer takes, and the resource
    /// frees when the last one ends.
    #[test]
    fn bandwidth_grants_are_disjoint(
        rate in 1u64..1_000_000_000,
        overhead in 0u64..100,
        reqs in prop::collection::vec((0u64..10_000, 1u64..500), 1..100),
    ) {
        let mut r = BandwidthResource::new(rate, SimDuration::from_picos(overhead));
        let mut grants = Vec::new();
        for (at, bytes) in reqs {
            let g = r.transfer(SimTime::from_picos(at), bytes);
            prop_assert!(g.start >= SimTime::from_picos(at));
            prop_assert_eq!(g.end.since(g.start), r.duration_of(bytes));
            prop_assert_eq!(r.free_at(), g.end);
            grants.push(g);
        }
        for w in grants.windows(2) {
            prop_assert!(w[1].start >= w[0].end, "grants must not overlap");
        }
    }

    /// Bandwidth durations are monotone in payload size and additive
    /// within rounding.
    #[test]
    fn bandwidth_duration_monotone(rate in 1u64..1_000_000_000, a in 1u64..100_000, b in 1u64..100_000) {
        let r = BandwidthResource::new(rate, SimDuration::ZERO);
        let (small, large) = (a.min(b), a.max(b));
        prop_assert!(r.duration_of(small) <= r.duration_of(large));
        // duration(a+b) <= duration(a) + duration(b) (ceil rounding).
        prop_assert!(r.duration_of(a + b) <= r.duration_of(a) + r.duration_of(b));
    }

    /// The event queue is a stable priority queue under any push/pop
    /// interleaving (checked against a reference model).
    #[test]
    fn event_queue_matches_reference(ops in prop::collection::vec(prop::option::of(0u64..100), 1..300)) {
        check_queue_against_model(ops)?;
    }

    /// The same check on times that follow a rising walk with occasional
    /// jumps back, so pushes fill every in-order lane and spill into the
    /// heap. The pop share varies by case: some cases keep the queue
    /// deep, others empty lanes often.
    #[test]
    fn event_queue_rising_walk_matches_reference(
        pop_share in 1u8..8,
        steps in prop::collection::vec((0u64..8, 0u8..16, 0u64..100), 1..500),
    ) {
        let mut now = 10_000u64;
        let ops = steps.into_iter().map(|(rise, roll, back)| {
            if roll < pop_share {
                None
            } else {
                if roll == 15 {
                    now -= back;
                } else {
                    now += rise;
                }
                Some(now)
            }
        });
        check_queue_against_model(ops)?;
    }

    /// Histogram statistics match a direct computation for any samples.
    #[test]
    fn histogram_matches_direct(samples in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.min(), samples.iter().min().copied());
        prop_assert_eq!(h.max(), samples.iter().max().copied());
        let mean = samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64;
        prop_assert!((h.mean().unwrap() - mean).abs() < 1e-6);
        // The quantile upper bound really bounds the true quantile.
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.1, 0.5, 0.9, 1.0] {
            let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
            let bound = h.quantile_upper_bound(q).unwrap();
            prop_assert!(bound >= sorted[idx], "q={q}: bound {bound} < {}", sorted[idx]);
        }
    }
}
