//! Simulation time, its scheduler, and shared-resource models.
//!
//! The FastIOV reproduction runs the paper's 200-way concurrent container
//! startups as 200 threads contending on locks, CPU cores and bandwidth
//! ceilings. Hardware and kernel operation *costs* are simulated: every
//! modelled latency is a [`Clock::sleep`], the serializing kernel and
//! daemon locks are tracked locks of their own classes ([`lockdep`]), and
//! shared hardware resources are a FIFO pool of cores ([`CpuPool`]) and
//! processor-sharing ceilings ([`FairShareBandwidth`]), so queueing and
//! saturation emerge from the concurrency itself.
//!
//! Every host runs on a *virtual* clock ([`Clock::new_virtual`]) with its
//! own discrete-event executor. The driver — the thread that built the
//! host — and the tasks started with [`spawn`], each on a pooled OS
//! thread, take turns holding one baton: one runs at a time, and it
//! hands the baton on at each blocking point (a sleep, a tracked lock,
//! condvar or CPU-core wait, a channel receive, a join). When no thread can run, time jumps to the earliest
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
#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the one home of the raw locks, OS threads and wall-clock reads the rest of the workspace may not touch"
)]

mod channel;
mod clock;
mod exec;
pub mod lockdep;
mod rawlock;
mod resources;
pub mod rng;
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
use semaphore::FairSemaphore;
pub use timeline::{StageLog, StageRecord};
pub use tracer::{Span, SpanGuard, Tracer, VmScope};
pub use wall::WallStopwatch;
