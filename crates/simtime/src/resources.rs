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
/// let clock = Clock::with_scale(0.0001);
/// let pool = CpuPool::new(clock.clone(), 4);
/// pool.run(Duration::from_millis(10)); // 10 simulated ms of CPU work
/// assert_eq!(pool.stats().operations, 1);
/// ```
pub struct CpuPool {
    clock: Clock,
    sem: Arc<FairSemaphore>,
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

/// A processor-sharing bandwidth ceiling.
///
/// All active transfers progress simultaneously: each gets `min(per_stream_cap,
/// total / active)` of bandwidth. This is how memory bandwidth actually
/// degrades — 200 concurrent page-zeroing loops all slow down together
/// and finish together, which is what keeps the concurrent-startup
/// arrivals at the next serialization point (the VFIO devset lock)
/// compressed (§3.2).
///
/// Transfers are timed in `installments` slices; each slice re-samples
/// the active count, so rates adapt as transfers join and leave.
pub struct FairShareBandwidth {
    clock: Clock,
    total: f64,
    per_stream_cap: f64,
    installments: u32,
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
            installments: 4,
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
        // Small transfers sleep once; only transfers long enough for the
        // active set to change meaningfully are re-sampled. This keeps the
        // number of real sleeps (and hence host timer churn) low.
        let installments = if self
            .clock
            .to_real(Duration::from_secs_f64(bytes as f64 / self.per_stream_cap))
            >= Duration::from_millis(2)
        {
            self.installments
        } else {
            1
        };
        let slice = bytes as f64 / f64::from(installments);
        for _ in 0..installments {
            let n = self.active.load(Ordering::SeqCst);
            let rate = self.rate(n);
            self.clock.sleep(Duration::from_secs_f64(slice / rate));
        }
        self.active.fetch_sub(1, Ordering::SeqCst);
        self.operations.fetch_add(1, Ordering::Relaxed);
    }

    /// Like [`FairShareBandwidth::transfer`] but runs `f` first while the
    /// transfer is registered (e.g. to move modelled bytes).
    pub fn transfer_with<R>(&self, bytes: u64, f: impl FnOnce() -> R) -> R {
        let r = f();
        self.transfer(bytes);
        r
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
    use std::time::Instant;

    fn fast_clock() -> Clock {
        Clock::with_scale(0.0001)
    }

    #[test]
    fn cpu_pool_serializes_beyond_core_count() {
        let clock = fast_clock();
        let pool = CpuPool::new(clock.clone(), 2);
        let t0 = Instant::now();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || pool.run(Duration::from_millis(100)))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // 8 jobs of 100 sim-ms on 2 cores: >= 4 rounds = 400 sim-ms
        // = 40 real us at this scale. Allow generous slack below.
        let sim_elapsed = clock.to_sim(t0.elapsed());
        assert!(
            sim_elapsed >= Duration::from_millis(300),
            "expected serialization, elapsed {sim_elapsed:?}"
        );
        assert_eq!(pool.stats().operations, 8);
    }

    #[test]
    fn zero_duration_work_is_free() {
        let pool = CpuPool::new(fast_clock(), 1);
        pool.run(Duration::ZERO);
        assert_eq!(pool.stats().operations, 0);
    }

    #[test]
    fn fair_share_solo_runs_at_cap() {
        let clock = Clock::with_scale(0.001);
        let bw = FairShareBandwidth::new(clock.clone(), 10e9, 1e9);
        let t0 = Instant::now();
        bw.transfer(1_000_000_000); // 1 GB at 1 GB/s cap = 1 sim s
        let sim = clock.to_sim(t0.elapsed());
        assert!(sim >= Duration::from_millis(900), "{sim:?}");
        assert!(sim < Duration::from_millis(2500), "{sim:?}");
    }

    #[test]
    fn fair_share_contention_divides_bandwidth() {
        let clock = Clock::with_scale(0.001);
        // Aggregate 4 GB/s, cap 4 GB/s: 8 transfers of 1 GB share fairly
        // -> each effectively 0.5 GB/s -> ~2 sim s each, ~2 s total (not
        // 8 x 0.25 s serialized, not 0.25 s uncontended).
        let bw = FairShareBandwidth::new(clock.clone(), 4e9, 4e9);
        let t0 = Instant::now();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let bw = Arc::clone(&bw);
                std::thread::spawn(move || bw.transfer(1_000_000_000))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let sim = clock.to_sim(t0.elapsed());
        assert!(sim >= Duration::from_millis(1200), "too fast: {sim:?}");
        assert!(sim <= Duration::from_millis(3500), "too slow: {sim:?}");
        assert_eq!(bw.stats().operations, 8);
        assert!(bw.stats().max_queue >= 4);
    }

    #[test]
    fn fair_share_zero_bytes_free() {
        let bw = FairShareBandwidth::new(fast_clock(), 1e9, 1e9);
        bw.transfer(0);
        assert_eq!(bw.stats().operations, 0);
    }
}
