//! Shared hardware resource models: CPU pools and bandwidth ceilings.

use crate::{Clock, FairSemaphore};
use std::sync::Arc;
use std::time::Duration;

/// Aggregate usage statistics for a shared resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceStats {
    /// Completed charge operations.
    pub operations: u64,
    /// High-water mark of queued waiters observed.
    pub max_queue: usize,
}

/// A pool of modelled CPU cores.
///
/// The reproduction host has two real cores; the paper's testbed has 56
/// physical cores. Charging CPU-bound work through this pool (a FIFO
/// semaphore with one permit per modelled core, holding the permit for the
/// simulated duration of the work) makes 200 concurrent container startups
/// queue for cores exactly as they would on the modelled server, without
/// burning host CPU.
///
/// # Examples
///
/// ```
/// use fastiov_simtime::{Clock, CpuPool};
/// use std::time::Duration;
///
/// let clock = Clock::new_virtual(1.0);
/// let pool = CpuPool::new(clock.clone(), 4);
/// pool.run(Duration::from_millis(10)); // 10 simulated ms of CPU work
/// assert_eq!(clock.now().since_origin(), Duration::from_millis(10));
/// assert_eq!(pool.stats().operations, 1);
/// ```
pub struct CpuPool {
    clock: Clock,
    sem: FairSemaphore,
    cores: usize,
}

impl CpuPool {
    /// Creates a pool with `cores` modelled cores.
    pub fn new(clock: Clock, cores: usize) -> Arc<Self> {
        Arc::new(CpuPool {
            clock,
            sem: FairSemaphore::new(cores),
            cores,
        })
    }

    /// Number of modelled cores.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Executes `sim` worth of CPU-bound work on one modelled core,
    /// blocking the calling thread until a core is free and the work is
    /// done.
    pub fn run(&self, sim: Duration) {
        if sim.is_zero() {
            return;
        }
        let _g = self.sem.acquire();
        self.clock.sleep(sim);
    }

    /// Usage statistics.
    pub fn stats(&self) -> ResourceStats {
        let (operations, max_queue) = self.sem.stats();
        ResourceStats {
            operations,
            max_queue,
        }
    }
}

/// Slices of a [`FairShareBandwidth`] transfer long enough to be sliced.
const INSTALLMENTS: u32 = 4;

/// Solo duration from which a [`FairShareBandwidth`] transfer is sliced.
const SLICED_FROM: Duration = Duration::from_millis(5);

/// A processor-sharing bandwidth ceiling.
///
/// All active transfers progress simultaneously: each gets `min(per_stream_cap,
/// total / active)` of bandwidth. This is how memory bandwidth actually
/// degrades — 200 concurrent page-zeroing loops all slow down together
/// and finish together, which is what keeps the concurrent-startup
/// arrivals at the next serialization point (the VFIO devset lock)
/// compressed (§3.2).
///
/// A transfer whose solo duration reaches 5 simulated ms is timed in 4
/// equal slices; each slice re-samples the active count, so rates adapt
/// as transfers join and leave. Shorter transfers sleep once at the rate
/// they start with. Both rules are in simulated time, so a run slices the
/// same way whatever its clock's pacing scale.
pub struct FairShareBandwidth {
    clock: Clock,
    total: f64,
    per_stream_cap: f64,
    active: std::sync::atomic::AtomicUsize,
    operations: std::sync::atomic::AtomicU64,
    max_active: std::sync::atomic::AtomicUsize,
}

impl FairShareBandwidth {
    /// Creates a fair-share resource with aggregate bandwidth `total`
    /// (bytes per simulated second) and a per-transfer cap.
    ///
    /// # Panics
    ///
    /// Panics if either bandwidth is not finite and positive.
    pub fn new(clock: Clock, total: f64, per_stream_cap: f64) -> Arc<Self> {
        assert!(total.is_finite() && total > 0.0);
        assert!(per_stream_cap.is_finite() && per_stream_cap > 0.0);
        Arc::new(FairShareBandwidth {
            clock,
            total,
            per_stream_cap,
            active: std::sync::atomic::AtomicUsize::new(0),
            operations: std::sync::atomic::AtomicU64::new(0),
            max_active: std::sync::atomic::AtomicUsize::new(0),
        })
    }

    /// Current rate for one transfer with `n` active.
    fn rate(&self, n: usize) -> f64 {
        (self.total / n.max(1) as f64).min(self.per_stream_cap)
    }

    /// Moves `bytes` through the resource, sharing bandwidth fairly with
    /// every concurrent transfer.
    pub fn transfer(&self, bytes: u64) {
        use std::sync::atomic::Ordering;
        if bytes == 0 {
            return;
        }
        let n = self.active.fetch_add(1, Ordering::SeqCst) + 1;
        self.max_active.fetch_max(n, Ordering::SeqCst);
        let solo = Duration::from_secs_f64(bytes as f64 / self.per_stream_cap);
        let installments = if solo >= SLICED_FROM { INSTALLMENTS } else { 1 };
        let slice = bytes as f64 / f64::from(installments);
        for _ in 0..installments {
            let n = self.active.load(Ordering::SeqCst);
            let rate = self.rate(n);
            self.clock.sleep(Duration::from_secs_f64(slice / rate));
        }
        self.active.fetch_sub(1, Ordering::SeqCst);
        self.operations.fetch_add(1, Ordering::Relaxed);
    }

    /// Usage statistics.
    pub fn stats(&self) -> ResourceStats {
        use std::sync::atomic::Ordering;
        ResourceStats {
            operations: self.operations.load(Ordering::Relaxed),
            max_queue: self.max_active.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `job` on `n` simulation threads of `clock` and returns the
    /// simulated instant each one finished at, in spawn order.
    fn finish_times(
        clock: &Clock,
        n: usize,
        job: impl Fn(usize) + Send + Sync + 'static,
    ) -> Vec<Duration> {
        let job = Arc::new(job);
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let (clock2, job) = (clock.clone(), Arc::clone(&job));
                crate::spawn(clock, format!("job-{i}"), move || {
                    job(i);
                    clock2.now().since_origin()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn cpu_pool_serializes_beyond_core_count() {
        let clock = Clock::new_virtual(1.0);
        let pool = CpuPool::new(clock.clone(), 2);
        let p = Arc::clone(&pool);
        let ends = finish_times(&clock, 8, move |_| p.run(Duration::from_millis(100)));
        // 8 jobs of 100 ms on 2 cores: four rounds of two, done at 400 ms.
        let rounds: Vec<_> = (1..=8)
            .map(|k| Duration::from_millis(50 * (k + k % 2)))
            .collect();
        assert_eq!(ends, rounds);
        assert_eq!(clock.now().since_origin(), Duration::from_millis(400));
        assert_eq!(pool.stats().operations, 8);
        assert!(clock.is_virtual());
    }

    #[test]
    fn zero_work_is_free() {
        let clock = Clock::new_virtual(1.0);
        let pool = CpuPool::new(clock.clone(), 1);
        let bw = FairShareBandwidth::new(clock.clone(), 1e9, 1e9);
        pool.run(Duration::ZERO);
        bw.transfer(0);
        assert_eq!((pool.stats().operations, bw.stats().operations), (0, 0));
        assert_eq!(clock.now().since_origin(), Duration::ZERO);
    }

    #[test]
    fn fair_share_solo_runs_at_cap() {
        let clock = Clock::new_virtual(1.0);
        let bw = FairShareBandwidth::new(clock.clone(), 10e9, 1e9);
        bw.transfer(1_000_000_000); // 1 GB at the 1 GB/s cap
        assert_eq!(clock.now().since_origin(), Duration::from_secs(1));
        assert!(clock.is_virtual());
    }

    #[test]
    fn fair_share_contention_divides_bandwidth() {
        // Aggregate 4 GB/s, cap 4 GB/s, eight 1 GB transfers. The threads
        // join the active set one at a time, in spawn order, so thread k's
        // first 250 MB quarter runs at the 4/(k+1) GB/s share it saw on
        // arrival (62.5 ms × (k+1)); its other three quarters run with all
        // eight active, at 0.5 GB/s (1.5 s). The last ends at 2 s, the
        // time 8 GB takes at 4 GB/s.
        let clock = Clock::new_virtual(1.0);
        let bw = FairShareBandwidth::new(clock.clone(), 4e9, 4e9);
        let b = Arc::clone(&bw);
        let ends = finish_times(&clock, 8, move |_| b.transfer(1_000_000_000));
        let expect: Vec<Duration> = (1..=8u32)
            .map(|k| Duration::from_millis(1500) + Duration::from_micros(62_500) * k)
            .collect();
        assert_eq!(ends, expect);
        assert_eq!(bw.stats().operations, 8);
        assert_eq!(bw.stats().max_queue, 8);
        assert!(clock.is_virtual());
    }

    #[test]
    fn slicing_does_not_depend_on_the_clock_scale() {
        // A 50 MB transfer at 1 GB/s (50 ms solo, so sliced in four) is
        // joined 10 ms in by a second one: its first 12.5 ms quarter runs
        // alone, the other three at half rate beside the newcomer.
        for scale in [0.02, 0.4] {
            let clock = Clock::new_virtual(scale);
            let bw = FairShareBandwidth::new(clock.clone(), 1e9, 1e9);
            let c = clock.clone();
            let ends = finish_times(&clock, 2, move |i| {
                c.sleep(Duration::from_millis(10) * i as u32);
                bw.transfer(50_000_000);
            });
            assert_eq!(ends[0], Duration::from_micros(87_500), "scale {scale}");
            assert!(clock.is_virtual());
        }
    }
}
