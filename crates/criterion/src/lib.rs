//! Vendored subset of the `criterion` crate.
//!
//! The build container cannot reach a crates.io mirror, so this crate
//! provides just enough of criterion's API for `benches/micro.rs` to
//! compile and produce useful numbers: `Criterion::bench_function`,
//! `Bencher::{iter, iter_batched}`, `BatchSize`, and the
//! `criterion_group!` / `criterion_main!` macros. There is no statistical
//! analysis — each benchmark is timed over a fixed-duration measurement
//! loop and the mean ns/iter is printed.
//!
//! Iterations run in timed batches that double until one takes 10 ms,
//! so the clock is read once per batch, not once per iteration: a clock
//! read costs tens of nanoseconds, as much as the shortest routines
//! measured.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Target wall-clock time spent measuring each benchmark.
const MEASURE_FOR: Duration = Duration::from_millis(200);

/// A batch stops doubling once it takes this long.
const BATCH_TIME: Duration = Duration::from_millis(10);

/// How many set-up inputs one timed batch of [`Bencher::iter_batched`]
/// holds at once (the routine's outputs are kept until the batch ends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Up to 1,024 inputs.
    SmallInput,
    /// Up to 16 inputs.
    LargeInput,
    /// One input, timed on its own.
    PerIteration,
}

impl BatchSize {
    fn max_inputs(self) -> u64 {
        match self {
            BatchSize::SmallInput => 1024,
            BatchSize::LargeInput => 16,
            BatchSize::PerIteration => 1,
        }
    }
}

/// Per-benchmark timing driver handed to the closure of
/// [`Criterion::bench_function`].
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine` repeatedly.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let mut batch = 1;
        while self.elapsed < MEASURE_FOR {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            batch = self.record(batch, start.elapsed(), u64::MAX);
        }
    }

    /// Times `routine` on fresh inputs produced by `setup`; only the
    /// routine is counted. A batch's inputs are all set up before its
    /// clock starts, and its outputs are dropped after the clock stops.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let (mut inputs, mut outputs) = (Vec::new(), Vec::new());
        let mut batch = 1;
        let begin = Instant::now();
        while begin.elapsed() < MEASURE_FOR {
            inputs.extend((0..batch).map(|_| setup()));
            outputs.reserve(inputs.len());
            let start = Instant::now();
            outputs.extend(inputs.drain(..).map(&mut routine));
            let took = start.elapsed();
            std::hint::black_box(&outputs);
            outputs.clear();
            batch = self.record(batch, took, size.max_inputs());
        }
    }

    /// Counts one timed batch and returns the size of the next: double
    /// this one while batches are short, but at most `cap`.
    fn record(&mut self, batch: u64, took: Duration, cap: u64) -> u64 {
        self.iters += batch;
        self.elapsed += took;
        if took < BATCH_TIME {
            (batch * 2).min(cap)
        } else {
            batch
        }
    }
}

/// Benchmark registry and runner.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Runs one named benchmark and prints its mean time per iteration.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            iters: 0,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        let per_iter = if b.iters == 0 {
            0.0
        } else {
            b.elapsed.as_nanos() as f64 / b.iters as f64
        };
        println!("{name:<32} {per_iter:>12.1} ns/iter ({} iters)", b.iters);
        self
    }
}

/// Declares a group of benchmark functions as a single runnable function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_closure() {
        let mut c = Criterion::default();
        let mut ran = false;
        c.bench_function("noop", |b| {
            ran = true;
            b.iter(|| 1 + 1)
        });
        assert!(ran);
    }
}
