//! Offline stand-in for `criterion`, exposing the subset of its API the
//! workspace benches use: `criterion_group!` / `criterion_main!`,
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_function`],
//! [`Bencher::iter`] / [`Bencher::iter_batched`], [`BenchmarkId`],
//! [`Throughput`], and [`BatchSize`].
//!
//! The measurement loop is intentionally simple: each benchmark runs a
//! short warm-up, then `sample_size` timed samples, and prints
//! min/mean/max per iteration (plus derived throughput when declared).
//! It is a smoke-grade harness, not a statistics engine — the point is
//! that `cargo bench` runs offline and the bench sources stay valid
//! against the real criterion API.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "an offline stand-in for an external crate: it times real runs on the wall clock"
)]

use std::fmt;
use std::time::{Duration, Instant};

/// Re-export position for `criterion::black_box`; benches here use
/// `std::hint::black_box` directly, but the symbol is part of the
/// criterion surface and cheap to provide.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// How batched-iteration inputs are grouped between timings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// One fresh input per timed iteration (the only mode used here).
    PerIteration,
    SmallInput,
    LargeInput,
}

/// Declared work-per-iteration, used to derive throughput lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

/// A two-part benchmark identifier (`function/parameter`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{function}/{parameter}"),
        }
    }

    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

/// Anything accepted as a benchmark name by `bench_function`.
pub trait IntoBenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId {
            id: self.to_string(),
        }
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId { id: self }
    }
}

/// Timing context handed to each benchmark closure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` back-to-back calls of `routine`.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` over inputs built (untimed) by `setup`.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }
}

struct Sample {
    per_iter: Duration,
}

fn run_samples(
    name: &str,
    sample_size: usize,
    throughput: Option<Throughput>,
    f: &mut dyn FnMut(&mut Bencher),
) {
    // Warm-up: one throwaway sample of one iteration.
    let mut warm = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut warm);
    // Pick an iteration count that keeps each sample around a few ms but
    // bounded, so slow simulated benches still finish promptly.
    let per = warm.elapsed.max(Duration::from_nanos(1));
    let iters = (Duration::from_millis(5).as_nanos() / per.as_nanos()).clamp(1, 1000) as u64;
    let mut samples = Vec::with_capacity(sample_size);
    for _ in 0..sample_size {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        samples.push(Sample {
            per_iter: b.elapsed / iters as u32,
        });
    }
    let min = samples.iter().map(|s| s.per_iter).min().unwrap();
    let max = samples.iter().map(|s| s.per_iter).max().unwrap();
    let mean = samples.iter().map(|s| s.per_iter).sum::<Duration>() / samples.len() as u32;
    let mut line = format!("{name:<40} [{:>10.3?} {:>10.3?} {:>10.3?}]", min, mean, max);
    if let Some(tp) = throughput {
        let secs = mean.as_secs_f64().max(1e-12);
        match tp {
            Throughput::Bytes(n) => {
                line.push_str(&format!(
                    "  {:>10.1} MiB/s",
                    n as f64 / secs / (1 << 20) as f64
                ));
            }
            Throughput::Elements(n) => {
                line.push_str(&format!("  {:>10.0} elem/s", n as f64 / secs));
            }
        }
    }
    println!("{line}");
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into_benchmark_id());
        run_samples(&full, self.sample_size, self.throughput, &mut f);
        self
    }

    pub fn finish(self) {}
}

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let sample_size = self.sample_size;
        BenchmarkGroup {
            name: name.into(),
            sample_size,
            throughput: None,
            _criterion: self,
        }
    }

    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let sample_size = self.sample_size;
        run_samples(
            &id.into_benchmark_id().to_string(),
            sample_size,
            None,
            &mut f,
        );
        self
    }
}

/// Bundles benchmark functions into a single runner, mirroring
/// criterion's macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($bench:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($bench(&mut criterion);)+
        }
    };
}

/// Generates `fn main` running each group, mirroring criterion's macro.
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
    fn group_runs_and_times() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(2).throughput(Throughput::Bytes(1024));
        let mut ran = 0u32;
        group.bench_function("f", |b| {
            b.iter(|| {
                ran += 1;
            })
        });
        group.finish();
        assert!(ran > 0);
    }

    #[test]
    fn iter_batched_consumes_fresh_inputs() {
        let mut c = Criterion::default();
        c.bench_function(BenchmarkId::new("batched", 1), |b| {
            b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::PerIteration)
        });
    }
}
