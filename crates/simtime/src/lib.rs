//! Simulation time, its scheduler, and shared-resource models.
//!
//! The FastIOV reproduction runs the paper's 200-way concurrent container
//! startups as 200 threads contending on locks, semaphores and bandwidth
//! ceilings. Hardware and kernel operation *costs* are simulated: every
//! modelled latency is a [`Clock::sleep`], and shared hardware resources
//! (CPU cores, memory bandwidth, PCIe config cycles) are fair semaphores
//! and processor-sharing ceilings, so queueing and saturation emerge from
//! the concurrency itself.
//!
//! Every host runs on a *virtual* clock ([`Clock::new_virtual`]) with its
//! own discrete-event executor. The driver — the thread that built the
//! host — and the threads started with [`spawn`] take turns holding one
//! baton: one runs at a time, and it hands the baton on at each blocking
//! point (a sleep, a tracked lock, condvar or semaphore wait, a channel
//! receive, a join). When no thread can run, time jumps to the earliest
//! pending sleep. Simulated time is therefore exact and independent of
//! the machine: a wave costs the simulator's CPU time, not its simulated
//! seconds. Should a thread outside the simulation sleep on or spawn
//! onto a virtual clock, the clock falls back to wall pacing (one
//! simulated second per `scale` real seconds) from the time it has
//! reached; [`Clock::with_scale`] builds such a wall clock from the start.
//!
//! Conventions used throughout the workspace:
//!
//! - All `Duration` values passed to this crate are **simulated** durations
//!   (what the modelled server would take).
//! - All timestamps reported out of this crate are simulated time since the
//!   clock's origin, expressed as a `Duration` wrapped in [`SimInstant`].

#![warn(missing_docs)]

mod channel;
mod clock;
mod exec;
pub mod lockdep;
mod rawlock;
mod resources;
mod semaphore;
mod timeline;
mod tracer;
mod wall;

pub use channel::{channel, Receiver, RecvError, SendError, Sender};
pub use clock::{Clock, SimInstant};
pub use exec::{spawn, spawn_daemon, ExecStats, JoinHandle};
pub use lockdep::{
    LockClass, LockSnapshot, LockdepReport, TrackedCondvar, TrackedMutex, TrackedMutexGuard,
    TrackedReadGuard, TrackedRwLock, TrackedWriteGuard,
};
pub use resources::{CpuPool, FairShareBandwidth, ResourceStats};
pub use semaphore::FairSemaphore;
pub use timeline::{StageLog, StageRecord};
pub use tracer::{Span, SpanGuard, Tracer, VmScope};
pub use wall::WallStopwatch;

use std::time::Duration;

/// Extension helpers for building simulated durations tersely.
pub trait DurationExt {
    /// A simulated duration of `self` milliseconds.
    fn sim_ms(self) -> Duration;
    /// A simulated duration of `self` microseconds.
    fn sim_us(self) -> Duration;
}

impl DurationExt for u64 {
    fn sim_ms(self) -> Duration {
        Duration::from_millis(self)
    }

    fn sim_us(self) -> Duration {
        Duration::from_micros(self)
    }
}

impl DurationExt for f64 {
    fn sim_ms(self) -> Duration {
        Duration::from_secs_f64(self / 1e3)
    }

    fn sim_us(self) -> Duration {
        Duration::from_secs_f64(self / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_ext_builds_expected_durations() {
        assert_eq!(5u64.sim_ms(), Duration::from_millis(5));
        assert_eq!(5u64.sim_us(), Duration::from_micros(5));
        assert_eq!(1.5f64.sim_ms(), Duration::from_micros(1500));
        assert_eq!(2.5f64.sim_us(), Duration::from_nanos(2500));
    }
}
