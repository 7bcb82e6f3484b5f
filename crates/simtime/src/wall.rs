//! The single sanctioned wall-clock measurement helper.
//!
//! Everything outside `crates/simtime` is forbidden (by clippy's
//! `disallowed-types`, configured in the workspace's `clippy.toml`)
//! from touching `std::time::Instant`/`SystemTime` directly: mixing raw
//! wall-clock reads with the simulation clock is how a test ends up
//! asserting on real time where it meant simulated time, and vice versa.
//! Code that legitimately needs real elapsed time — contended-lock wait
//! and serializer hold accounting, test deadlines, serialization
//! checks — uses a
//! [`WallStopwatch`], which makes the intent explicit and keeps every raw
//! `Instant` read inside this crate.

use std::time::{Duration, Instant};

/// A monotonic wall-clock stopwatch.
///
/// # Examples
///
/// ```
/// use fastiov_simtime::WallStopwatch;
/// use std::time::Duration;
///
/// let sw = WallStopwatch::start();
/// std::thread::sleep(Duration::from_millis(1));
/// assert!(sw.elapsed() >= Duration::from_millis(1));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WallStopwatch {
    start: Instant,
}

impl WallStopwatch {
    /// Starts a stopwatch at the current instant.
    pub fn start() -> Self {
        WallStopwatch {
            start: Instant::now(),
        }
    }

    /// Real time elapsed since [`WallStopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Real nanoseconds elapsed, saturating at `u64::MAX` (the unit the
    /// lock statistics accumulate in).
    pub(crate) fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotonic() {
        let sw = WallStopwatch::start();
        let a = sw.elapsed();
        let b = sw.elapsed();
        assert!(b >= a);
        assert!(sw.elapsed_ns() >= b.as_nanos() as u64);
    }
}
