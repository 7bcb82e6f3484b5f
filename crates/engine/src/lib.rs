//! The container engine: pod lifecycle, concurrent startup, recovery.
//!
//! Mirrors the Containerd/Kata split of Fig. 4: the engine creates the
//! cgroup and network namespace, invokes the CNI plugin (`t_config`), and
//! drives the runtime attach (`t_attach`) by launching the microVM. The
//! [`engine::Engine::launch_concurrent`] entry point reproduces the
//! paper's measurement methodology (§3.1): `crictl`-style simultaneous
//! creation of N secure containers, each on its own thread, with
//! per-stage timelines collected asynchronously.
//!
//! Failures are typed ([`LaunchError`]) and classified: transient faults
//! (injected by the fault plane) are retried with the deterministic
//! backoff of [`recovery`]; everything else fails the pod with a stable
//! error class and exit code.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod cgroup;
pub mod engine;
pub mod recovery;
pub mod stats;
pub mod sustain;

pub use cgroup::CgroupManager;
pub use engine::{
    vm_id, Engine, EngineParams, LaunchOutcome, LaunchSummary, PodHandle, PodNetworking,
    StartupReport, VmOptions,
};
pub use stats::Summary;
pub use sustain::{SustainedConfig, SustainedOutcome};

use fastiov_cni::CniError;
use fastiov_faults::FaultError;
use fastiov_microvm::VmmError;
use std::fmt;

/// Errors from the engine layer: everything that can fail one pod's
/// startup, with enough structure for the recovery layer to classify it.
#[derive(Debug)]
pub enum LaunchError {
    /// CNI setup failed.
    Cni(CniError),
    /// microVM launch failed.
    Vmm(VmmError),
    /// The runtime could not find the expected interface in the NNS.
    InterfaceMissing(String),
    /// A launch thread panicked.
    LaunchPanic,
    /// Every attempt the retry budget allowed failed; `last` is the final
    /// attempt's error.
    RetriesExhausted {
        /// Attempts made (first try included).
        attempts: u32,
        /// The error that ended the last attempt.
        last: Box<LaunchError>,
    },
}

impl LaunchError {
    /// Stable classification label, used for aggregate failure counts.
    pub fn class(&self) -> &'static str {
        match self {
            LaunchError::Cni(_) => "cni",
            LaunchError::Vmm(e) if e.injected().is_some() => "vmm-injected",
            LaunchError::Vmm(_) => "vmm",
            LaunchError::InterfaceMissing(_) => "interface-missing",
            LaunchError::LaunchPanic => "launch-panic",
            LaunchError::RetriesExhausted { .. } => "retries-exhausted",
        }
    }

    /// The injected fault behind this error, walking wrapped layers.
    pub fn injected(&self) -> Option<&FaultError> {
        match self {
            LaunchError::Vmm(e) => e.injected(),
            LaunchError::RetriesExhausted { last, .. } => last.injected(),
            _ => None,
        }
    }

    /// The injected fault a retry has a chance of getting past; every
    /// injected fault is transient. Guest crashes, CNI failures, missing
    /// interfaces, panics, and exhausted budgets are final (`None`).
    pub fn retryable(&self) -> Option<&FaultError> {
        match self {
            LaunchError::RetriesExhausted { .. } => None,
            e => e.injected(),
        }
    }

    /// Stable process exit code for CLI surfaces. `0` is reserved for
    /// success.
    pub fn exit_code(&self) -> i32 {
        match self {
            LaunchError::Cni(_) => 10,
            LaunchError::Vmm(_) => 11,
            LaunchError::InterfaceMissing(_) => 12,
            LaunchError::LaunchPanic => 13,
            LaunchError::RetriesExhausted { .. } => 15,
        }
    }
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::Cni(e) => write!(f, "cni: {e}"),
            LaunchError::Vmm(e) => write!(f, "vmm: {e}"),
            LaunchError::InterfaceMissing(n) => {
                write!(f, "interface {n} not found in container NNS")
            }
            LaunchError::LaunchPanic => write!(f, "launch thread panicked"),
            LaunchError::RetriesExhausted { attempts, last } => {
                write!(f, "all {attempts} attempts failed; last: {last}")
            }
        }
    }
}

impl std::error::Error for LaunchError {}

impl From<CniError> for LaunchError {
    fn from(e: CniError) -> Self {
        LaunchError::Cni(e)
    }
}

impl From<VmmError> for LaunchError {
    fn from(e: VmmError) -> Self {
        LaunchError::Vmm(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, LaunchError>;
