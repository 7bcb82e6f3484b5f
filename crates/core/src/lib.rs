//! # FastIOV — reproduction of "Fast Startup of Passthrough Network I/O
//! # Virtualization for Secure Containers" (EuroSys '25)
//!
//! This crate is the public façade of the reproduction: it wires the
//! substrate crates (PCI, IOMMU, VFIO, KVM, `fastiovd`, NIC, virtio,
//! hypervisor, CNI, engine, workloads) into the paper's experiment matrix
//! and exposes one-call runners for every baseline and figure.
//!
//! ## Quick start
//!
//! ```
//! use fastiov::{Baseline, ExperimentConfig};
//!
//! // A small, fast configuration (tests / doc builds).
//! let cfg = ExperimentConfig::smoke(Baseline::FastIov, 4);
//! let run = fastiov::run_startup_experiment(&cfg).unwrap();
//! assert_eq!(run.reports.len(), 4);
//! println!("avg startup: {:.2}s", run.total.mean_secs());
//! ```
//!
//! ## Baselines (§6.1)
//!
//! | Baseline | Lock | Zeroing | Image map | VF init |
//! |---|---|---|---|---|
//! | `NoNet` | — | — | — | — |
//! | `Vanilla` (fixed CNI) | coarse | eager | yes | sync |
//! | `FastIov` | hierarchical | decoupled | skipped | async |
//! | `FastIovMinusL` | coarse | decoupled | skipped | async |
//! | `FastIovMinusA` | hierarchical | decoupled | skipped | sync |
//! | `FastIovMinusS` | hierarchical | decoupled | yes | async |
//! | `FastIovMinusD` | hierarchical | eager | skipped | async |
//! | `Prezero(f)` | coarse | eager over pre-zeroed pool | yes | sync |
//! | `Ipvtap` | — (software CNI) | host-lazy | — | — |

#![warn(missing_docs)]

pub mod baseline;
pub mod experiment;
pub mod memperf;
pub mod report;
pub mod reproduce;

pub use baseline::Baseline;
pub use experiment::{
    run_app_experiment, run_startup_experiment, run_wave, AppRunResult, ExperimentConfig,
    StartupRunResult,
};
pub use memperf::{run_memperf, MemPerfResult};
pub use report::{format_table, Table};

// Re-export the building blocks for downstream users.
pub use fastiov_apps as apps;
pub use fastiov_cni as cni;
pub use fastiov_engine as engine;
pub use fastiov_faults as faults;
pub use fastiov_hostmem as hostmem;
pub use fastiov_iommu as iommu;
pub use fastiov_kvm as kvm;
pub use fastiov_microvm as microvm;
pub use fastiov_nic as nic;
pub use fastiov_pci as pci;
pub use fastiov_pool as pool;
pub use fastiov_simtime as simtime;
pub use fastiov_vfio as vfio;
pub use fastiov_virtio as virtio;
pub use fastiovd;

use std::fmt;

/// Errors from experiment runs.
#[derive(Debug)]
pub enum Error {
    /// Host construction failed.
    Host(fastiov_microvm::VmmError),
    /// A container startup failed.
    Startup(fastiov_engine::LaunchError),
    /// A serverless task failed.
    App(fastiov_apps::AppError),
    /// The run produced no samples.
    Empty,
}

impl Error {
    /// Stable process exit code for CLI surfaces (`0` means success).
    /// Startup failures carry the [`fastiov_engine::LaunchError`] code;
    /// the other classes get codes of their own.
    pub fn exit_code(&self) -> i32 {
        match self {
            Error::Startup(e) => e.exit_code(),
            Error::Host(_) => 21,
            Error::App(_) => 22,
            Error::Empty => 23,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Host(e) => write!(f, "host: {e}"),
            Error::Startup(e) => write!(f, "startup: {e}"),
            Error::App(e) => write!(f, "app: {e}"),
            Error::Empty => write!(f, "experiment produced no samples"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, Error>;
