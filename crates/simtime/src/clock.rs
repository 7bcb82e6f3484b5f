//! The simulation clock.

use crate::exec::{Exec, ExecStats};
use crate::Tracer;
use std::fmt;
use std::panic::Location;
use std::sync::Arc;
use std::time::Duration;

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

/// A simulation clock: simulated time since its origin, plus the
/// scheduler that decides when blocked simulation threads resume.
///
/// A *virtual* clock ([`Clock::new_virtual`], the clock of every host)
/// owns a discrete-event executor (see [`spawn`](crate::spawn)). Its
/// driver — the thread that created it — and the threads spawned on it
/// take turns holding one baton; a sleep hands the baton on and, once no
/// thread can run, time jumps straight to the earliest wake-up. A wave
/// therefore costs its CPU time, not its simulated time, and every
/// reading of [`Clock::now`] is exact.
///
/// A *wall* clock ([`Clock::with_scale`]) paces simulated time in real
/// time: `scale` is the ratio of real to simulated time, so at `0.02` one
/// simulated second blocks for twenty real milliseconds. A virtual clock
/// becomes a wall clock, keeping the time it has reached, when a thread
/// outside the simulation sleeps on it or spawns onto it. The clock is
/// cheap to clone (an `Arc` internally) and is shared by every component
/// of a simulated host.
///
/// # Examples
///
/// ```
/// use fastiov_simtime::Clock;
/// use std::time::Duration;
///
/// // A virtual clock jumps: an hour of sleep returns at once.
/// let clock = Clock::new_virtual(1.0);
/// clock.sleep(Duration::from_secs(3600));
/// assert_eq!(clock.now().since_origin(), Duration::from_secs(3600));
///
/// // A wall clock blocks for `sim × scale`.
/// let wall = Clock::with_scale(0.001);
/// wall.sleep(Duration::from_millis(50)); // 50 simulated ms = 50 real us
/// assert!(wall.now().since_origin() >= Duration::from_millis(40));
/// assert!(!wall.is_virtual());
/// ```
#[derive(Clone)]
pub struct Clock {
    exec: Arc<Exec>,
}

fn checked_scale(scale: f64) -> f64 {
    assert!(
        scale.is_finite() && scale > 0.0,
        "time scale must be finite and positive, got {scale}"
    );
    scale
}

impl Clock {
    /// Creates a wall clock with an explicit real/simulated time ratio,
    /// for stress tests whose plain threads race in real time. A test
    /// that asserts a modelled duration or order uses a virtual clock.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite and positive.
    pub fn with_scale(scale: f64) -> Self {
        Clock {
            exec: Exec::wall(checked_scale(scale)),
        }
    }

    /// Creates a virtual clock driven by the calling thread, which leaves
    /// the executor of any virtual clock it drove or ran on before.
    /// `scale` is the pacing the clock falls back to (see the type docs).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite and positive.
    pub fn new_virtual(scale: f64) -> Self {
        Clock {
            exec: Exec::new_virtual(checked_scale(scale)),
        }
    }

    /// The real/simulated time ratio of this clock: its pacing if it is
    /// a wall clock, and its fallback pacing if it is virtual. No
    /// [`Clock::now`] of a virtual clock depends on it.
    pub fn scale(&self) -> f64 {
        self.exec.scale()
    }

    /// True while simulated time is driven by the executor; false for a
    /// wall clock and for a virtual clock that has fallen back.
    pub fn is_virtual(&self) -> bool {
        self.exec.is_virtual()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimInstant {
        SimInstant(self.exec.now())
    }

    /// Blocks the calling thread for `sim` of simulated time.
    ///
    /// This is the primitive every modelled hardware or kernel latency goes
    /// through. On a virtual clock a simulation thread is charged exactly
    /// `sim`; any other thread switches the clock to wall pacing first.
    /// On a wall clock sub-microsecond real sleeps are skipped: they are
    /// below OS timer resolution and only add noise.
    #[track_caller]
    pub fn sleep(&self, sim: Duration) {
        if !sim.is_zero() {
            self.exec.sleep(sim, Location::caller());
        }
    }

    /// Baton traffic of this clock's executor since the clock was created:
    /// hand-offs, self-resumes and timer jumps. All zero for a wall clock.
    pub fn exec_stats(&self) -> ExecStats {
        self.exec.stats()
    }

    /// The span tracer of this clock: one per clock, disabled until
    /// [`Tracer::enable`], shared by every holder of the clock. A borrowed
    /// view of the clock, so asking for it costs nothing; clone it to keep
    /// it.
    pub fn tracer(&self) -> &Tracer {
        // SAFETY: `Tracer` is `repr(transparent)` over `Clock`.
        unsafe { &*(self as *const Clock).cast::<Tracer>() }
    }

    pub(crate) fn exec(&self) -> &Arc<Exec> {
        &self.exec
    }

    /// Converts a measured real duration into simulated time at this
    /// clock's scale.
    pub fn to_sim(&self, real: Duration) -> Duration {
        Duration::from_secs_f64(real.as_secs_f64() / self.scale())
    }
}

impl fmt::Debug for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Clock")
            .field("scale", &self.scale())
            .field("virtual", &self.is_virtual())
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
    fn wall_clock_advances_in_sim_units() {
        let clock = Clock::with_scale(0.0001);
        let t0 = clock.now();
        clock.sleep(Duration::from_secs(1)); // 0.1 ms real
        let dt = clock.now().duration_since(t0);
        assert!(dt >= Duration::from_millis(900), "sim dt {dt:?}");
    }

    #[test]
    fn an_hour_of_virtual_sleep_returns_at_once() {
        // At this scale a paced hour would block for 41 days, so returning
        // at all proves the sleep did not block.
        let clock = Clock::new_virtual(1e3);
        let sims = [
            Duration::from_secs(3600),
            Duration::from_nanos(1), // sub-µs sleeps count too
            Duration::from_millis(30),
        ];
        for d in sims {
            clock.sleep(d);
        }
        assert_eq!(clock.now().since_origin(), sims.iter().sum());
        assert!(clock.is_virtual());
    }

    #[test]
    fn sleepers_wake_in_deadline_order_at_exact_times() {
        let clock = Clock::new_virtual(1.0);
        let woke = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let handles: Vec<_> = [2u64, 1]
            .into_iter()
            .map(|secs| {
                let (clock2, woke) = (clock.clone(), Arc::clone(&woke));
                crate::spawn(&clock, format!("sleep-{secs}s"), move || {
                    clock2.sleep(Duration::from_secs(secs));
                    woke.lock().push((secs, clock2.now().since_origin()));
                })
            })
            .collect();
        for h in handles {
            h.join().expect("sleeper");
        }
        assert_eq!(
            *woke.lock(),
            [(1, Duration::from_secs(1)), (2, Duration::from_secs(2))]
        );
    }

    #[test]
    fn one_permit_serves_three_sleepers_back_to_back() {
        let clock = Clock::new_virtual(1.0);
        let sem = Arc::new(crate::FairSemaphore::new(1));
        let d = Duration::from_millis(7);
        let starts = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let (clock2, sem, starts) = (clock.clone(), Arc::clone(&sem), Arc::clone(&starts));
                crate::spawn(&clock, format!("holder-{i}"), move || {
                    let _permit = sem.acquire();
                    starts.lock().push(clock2.now().since_origin());
                    clock2.sleep(d);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("holder");
        }
        assert_eq!(*starts.lock(), [Duration::ZERO, d, 2 * d]);
        assert_eq!(clock.now().since_origin(), 3 * d);
    }

    #[test]
    fn an_outside_thread_sleeping_switches_the_clock_to_wall_pacing() {
        let clock = Clock::new_virtual(1e-3);
        clock.sleep(Duration::from_secs(10));
        let outside = {
            let clock = clock.clone();
            std::thread::spawn(move || {
                let sim = Duration::from_secs(20); // 20 real ms
                let sw = crate::WallStopwatch::start();
                clock.sleep(sim);
                (sw.elapsed(), sim.mul_f64(clock.scale()))
            })
        };
        let (took, paced) = outside.join().expect("outside thread");
        assert!(!clock.is_virtual());
        assert!(took >= paced, "{took:?} < {paced:?}");
        // The offset reached before the switch is kept.
        assert!(clock.now().since_origin() >= Duration::from_secs(30));
    }

    #[test]
    fn to_sim_divides_by_the_scale() {
        let clock = Clock::with_scale(0.5);
        assert_eq!(
            clock.to_sim(Duration::from_millis(50)),
            Duration::from_millis(100)
        );
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
