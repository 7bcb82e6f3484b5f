//! The scaled simulation clock.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A point in simulated time, measured since the owning [`Clock`]'s origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimInstant(Duration);

impl SimInstant {
    /// The clock origin (simulated time zero).
    pub const ZERO: SimInstant = SimInstant(Duration::ZERO);

    /// Creates an instant at `d` past the origin.
    pub fn from_origin(d: Duration) -> Self {
        SimInstant(d)
    }

    /// Simulated time elapsed since the origin.
    pub fn since_origin(self) -> Duration {
        self.0
    }

    /// Simulated duration since `earlier`, saturating to zero.
    pub fn duration_since(self, earlier: SimInstant) -> Duration {
        self.0.saturating_sub(earlier.0)
    }

    /// Returns this instant advanced by `d`.
    pub fn advanced_by(self, d: Duration) -> SimInstant {
        SimInstant(self.0 + d)
    }

    /// Simulated seconds since the origin as a float, for reporting.
    pub fn as_secs_f64(self) -> f64 {
        self.0.as_secs_f64()
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0.as_secs_f64())
    }
}

/// A wall-clock-backed simulation clock with a configurable time scale
/// and a simulated-time offset.
///
/// `scale` is the ratio of real time to simulated time: at the paper
/// scale of `0.02` (`HostParams::paper()`), one simulated second costs
/// twenty real milliseconds. Simulated time is
/// `now() = real_elapsed / scale + skipped`, where `skipped` is the
/// simulated time charged by sleeps inside a [`Clock::solo`] scope
/// without blocking. The clock is cheap to clone (it is an `Arc`
/// internally) and is shared by every component of a simulated host.
///
/// # Examples
///
/// ```
/// use fastiov_simtime::Clock;
/// use std::time::Duration;
///
/// let clock = Clock::with_scale(0.001);
/// let t0 = clock.now();
/// clock.sleep(Duration::from_millis(50)); // 50 simulated ms = 50 real us
/// assert!(clock.now().duration_since(t0) >= Duration::from_millis(40));
///
/// // A solo sleep is charged to the clock without blocking.
/// let t1 = clock.now();
/// clock.solo(|| clock.sleep(Duration::from_secs(3600)));
/// assert!(clock.now().duration_since(t1) >= Duration::from_secs(3600));
/// ```
#[derive(Clone)]
pub struct Clock {
    inner: Arc<ClockInner>,
}

struct ClockInner {
    origin: Instant,
    scale: f64,
    /// Simulated nanoseconds charged by solo sleeps without blocking.
    skipped_ns: AtomicU64,
    /// Threads currently blocked in a real sleep on this clock.
    sleepers: AtomicUsize,
}

thread_local! {
    /// Address of the `ClockInner` the current thread is solo on (0 for
    /// none).
    static SOLO: Cell<usize> = const { Cell::new(0) };
}

impl Clock {
    /// Creates a clock with an explicit real/simulated time ratio.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite and positive.
    pub fn with_scale(scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "time scale must be finite and positive, got {scale}"
        );
        minimize_timer_slack();
        Clock {
            inner: Arc::new(ClockInner {
                origin: Instant::now(),
                scale,
                skipped_ns: AtomicU64::new(0),
                sleepers: AtomicUsize::new(0),
            }),
        }
    }

    /// The real/simulated time ratio of this clock.
    pub fn scale(&self) -> f64 {
        self.inner.scale
    }

    /// Current simulated time.
    pub fn now(&self) -> SimInstant {
        let real = self.inner.origin.elapsed();
        let skipped = Duration::from_nanos(self.inner.skipped_ns.load(Ordering::Acquire));
        SimInstant(Duration::from_secs_f64(real.as_secs_f64() / self.inner.scale) + skipped)
    }

    /// Blocks the calling thread for `sim` of simulated time.
    ///
    /// This is the primitive every modelled hardware or kernel latency goes
    /// through. Sub-microsecond real sleeps are skipped: at practical scales
    /// they are below OS timer resolution and only add noise.
    ///
    /// Inside a [`Clock::solo`] scope on this clock the sleep does not
    /// block: its full simulated duration, sub-microsecond ones included,
    /// is added to the clock's offset. If another thread is sleeping on
    /// this clock at that moment, the sleep blocks for real instead, so
    /// the jump never shortens anyone else's sleep.
    pub fn sleep(&self, sim: Duration) {
        if self.is_solo() && self.inner.sleepers.load(Ordering::Acquire) == 0 {
            let ns = u64::try_from(sim.as_nanos()).unwrap_or(u64::MAX);
            self.inner.skipped_ns.fetch_add(ns, Ordering::AcqRel);
            return;
        }
        let real = Duration::from_secs_f64(sim.as_secs_f64() * self.inner.scale);
        if real >= Duration::from_micros(1) {
            self.inner.sleepers.fetch_add(1, Ordering::AcqRel);
            std::thread::sleep(real);
            self.inner.sleepers.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Runs `f` with the calling thread solo on this clock: its sleeps on
    /// this clock advance the clock's offset instead of blocking (see
    /// [`Clock::sleep`]). Sleeps on other clocks, and other threads'
    /// sleeps, are unaffected.
    ///
    /// The caller promises that no other thread makes progress on this
    /// clock meanwhile, i.e. the work is single-threaded by construction.
    /// Host boot (VF pre-creation and the VFIO prebind) is; the warm-pool
    /// prefill, whose provisions run in parallel, is not. Only
    /// `crates/microvm/src/host.rs` may call it (`fastiov-analyze` rule
    /// `solo-clock`).
    pub fn solo<R>(&self, f: impl FnOnce() -> R) -> R {
        /// Restores the previous solo clock, also when `f` unwinds.
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                SOLO.with(|s| s.set(self.0));
            }
        }
        let _restore = Restore(SOLO.with(|s| s.replace(self.key())));
        f()
    }

    fn key(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    fn is_solo(&self) -> bool {
        SOLO.with(|s| s.get() == self.key())
    }

    /// Converts a simulated duration into the real duration it would block.
    pub fn to_real(&self, sim: Duration) -> Duration {
        Duration::from_secs_f64(sim.as_secs_f64() * self.inner.scale)
    }

    /// Converts a measured real duration into simulated time.
    pub fn to_sim(&self, real: Duration) -> Duration {
        Duration::from_secs_f64(real.as_secs_f64() / self.inner.scale)
    }
}

/// Shrinks the kernel's nanosleep timer slack for this process (Linux
/// default: 50 µs). Scaled sleeps are the simulation's unit of cost, so
/// per-sleep overshoot would otherwise bias every measured stage upward.
/// Best effort: failures (non-Linux, sandboxes) are ignored.
fn minimize_timer_slack() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let _ = std::fs::write("/proc/self/timerslack_ns", "1");
    });
}

impl fmt::Debug for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Clock")
            .field("scale", &self.inner.scale)
            .field("now", &self.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_instant_arithmetic() {
        let a = SimInstant::from_origin(Duration::from_secs(2));
        let b = a.advanced_by(Duration::from_secs(3));
        assert_eq!(b.duration_since(a), Duration::from_secs(3));
        // Saturating in the other direction.
        assert_eq!(a.duration_since(b), Duration::ZERO);
        assert_eq!(b.as_secs_f64(), 5.0);
    }

    #[test]
    fn clock_advances_in_sim_units() {
        let clock = Clock::with_scale(0.0001);
        let t0 = clock.now();
        clock.sleep(Duration::from_secs(1)); // 0.1 ms real
        let dt = clock.now().duration_since(t0);
        assert!(dt >= Duration::from_millis(900), "sim dt {dt:?}");
    }

    fn skipped(clock: &Clock) -> Duration {
        Duration::from_nanos(clock.inner.skipped_ns.load(Ordering::Acquire))
    }

    #[test]
    fn solo_sleep_advances_by_exactly_the_slept_duration() {
        // At this scale a real sleep of one simulated hour would block for
        // 41 days, so returning at all proves the solo sleep did not block.
        let clock = Clock::with_scale(1e3);
        let t0 = clock.now();
        let sims = [
            Duration::from_secs(3600),
            Duration::from_nanos(1), // sub-µs sleeps count too
            Duration::from_millis(30),
        ];
        clock.solo(|| sims.iter().for_each(|&d| clock.sleep(d)));
        let total: Duration = sims.iter().sum();
        assert_eq!(skipped(&clock), total);
        let dt = clock.now().duration_since(t0);
        assert!(dt >= total, "sim dt {dt:?}");
        // Only real elapsed time (µs here, 1 sim ms per real s) adds on top.
        assert!(dt < total + Duration::from_secs(1), "sim dt {dt:?}");
    }

    #[test]
    fn sleeps_outside_the_scope_or_on_another_clock_still_block() {
        let clock = Clock::with_scale(1e-3);
        let other = Clock::with_scale(1e-3);
        let sim = Duration::from_secs(5); // 5 real ms
        let sw = crate::WallStopwatch::start();
        clock.sleep(sim);
        assert!(sw.elapsed() >= clock.to_real(sim));
        let sw = crate::WallStopwatch::start();
        clock.solo(|| other.sleep(sim));
        assert!(sw.elapsed() >= other.to_real(sim));
        assert_eq!(skipped(&clock), Duration::ZERO);
        assert_eq!(skipped(&other), Duration::ZERO);
        // The scope ends with the closure.
        clock.solo(|| {});
        let sw = crate::WallStopwatch::start();
        clock.sleep(sim);
        assert!(sw.elapsed() >= clock.to_real(sim));
        assert_eq!(skipped(&clock), Duration::ZERO);
    }

    #[test]
    fn solo_sleep_beside_a_sleeping_thread_blocks_for_real() {
        let clock = Clock::with_scale(1e-3);
        let sleeper = {
            let clock = clock.clone();
            std::thread::spawn(move || clock.sleep(Duration::from_secs(1000))) // 1 real s
        };
        while clock.inner.sleepers.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        let sim = Duration::from_secs(20); // 20 real ms
        let sw = crate::WallStopwatch::start();
        clock.solo(|| clock.sleep(sim));
        assert!(sw.elapsed() >= clock.to_real(sim));
        assert_eq!(skipped(&clock), Duration::ZERO);
        sleeper.join().expect("sleeper thread");
        assert_eq!(clock.inner.sleepers.load(Ordering::Acquire), 0);
    }

    #[test]
    fn conversions_round_trip() {
        let clock = Clock::with_scale(0.5);
        let sim = Duration::from_millis(100);
        let real = clock.to_real(sim);
        assert_eq!(real, Duration::from_millis(50));
        assert_eq!(clock.to_sim(real), sim);
    }

    #[test]
    #[should_panic(expected = "time scale must be finite")]
    fn rejects_zero_scale() {
        let _ = Clock::with_scale(0.0);
    }

    #[test]
    fn display_formats_seconds() {
        let t = SimInstant::from_origin(Duration::from_millis(1234));
        assert_eq!(t.to_string(), "1.234s");
    }
}
