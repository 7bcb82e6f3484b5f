//! Scaled simulation time and shared-resource models.
//!
//! The FastIOV reproduction runs the paper's 200-way concurrent container
//! startups as 200 real OS threads contending on real locks. Hardware and
//! kernel operation *costs*, however, are virtual: a [`Clock`] maps
//! simulated durations onto scaled wall-clock sleeps, and shared hardware
//! resources (CPU cores, memory bandwidth, PCIe config cycles) are modelled
//! as fair semaphores so that queueing and saturation effects emerge from
//! genuine concurrency even on a single-core host.
//!
//! Conventions used throughout the workspace:
//!
//! - All `Duration` values passed to this crate are **simulated** durations
//!   (what the modelled server would take). The clock converts to real time.
//! - All timestamps reported out of this crate are simulated time since the
//!   clock's origin, expressed as a `Duration` wrapped in [`SimInstant`].

#![warn(missing_docs)]

mod clock;
pub mod lockdep;
mod resources;
mod semaphore;
mod timeline;
mod tracer;
mod wall;

pub use clock::{Clock, SimInstant};
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
