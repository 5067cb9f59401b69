//! Property-based tests of the simulation kernel.

use proptest::prelude::*;

use shrimp_sim::{BandwidthResource, EventQueue, Histogram, SerialResource, SimDuration, SimTime};

proptest! {
    /// A serialized resource never double-books: grants are disjoint,
    /// ordered, each as long as requested, and the resource frees when
    /// the last one ends.
    #[test]
    fn serial_resource_grants_are_disjoint(
        reqs in prop::collection::vec((0u64..10_000, 1u64..500), 1..100),
    ) {
        let mut r = SerialResource::new();
        let mut grants = Vec::new();
        for (at, dur) in reqs {
            let g = r.reserve(SimTime::from_picos(at), SimDuration::from_picos(dur));
            prop_assert!(g.start >= SimTime::from_picos(at));
            prop_assert_eq!(g.end.since(g.start).as_picos(), dur);
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
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, usize)> = Vec::new(); // (time, seq)
        let mut seq = 0usize;
        for op in ops {
            match op {
                Some(t) => {
                    q.push(SimTime::from_picos(t), seq);
                    model.push((t, seq));
                    seq += 1;
                }
                None => {
                    // Reference pop: earliest time, lowest seq.
                    model.sort_by_key(|&(t, s)| (t, s));
                    let expect = if model.is_empty() { None } else { Some(model.remove(0)) };
                    let got = q.pop().map(|(t, s)| (t.as_picos(), s));
                    prop_assert_eq!(got, expect);
                }
            }
            prop_assert_eq!(q.len(), model.len());
        }
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
