//! Serverless application benchmarks (§6.6).
//!
//! Four representative tasks from the SeBS suite, each implemented as a
//! *real algorithm* on synthetic data plus a calibrated execution-time
//! model:
//!
//! - [`workloads::image`] — resize an input image to a 100×100 thumbnail
//!   (bilinear, real pixels);
//! - [`workloads::compress`] — zip an input file (a real LZ77-style
//!   compressor with a verifying decompressor);
//! - [`workloads::bfs`] — breadth-first search over a 100 000-node graph;
//! - [`workloads::inference`] — ResNet-style image classification
//!   (real conv-as-matmul layers over deterministic weights).
//!
//! Each task first downloads its input from the storage server through
//! the container's virtual NIC (the VF DMA data path, or virtio-net for
//! software CNIs) before computing — exactly the SeBS flow the paper
//! evaluates. [`runner::run_serverless_task`] measures the **task
//! completion time**: startup command → application completion;
//! [`runner::run_serverless_concurrent`] runs many tasks at once.

#![warn(missing_docs)]

pub mod runner;
pub mod storage;
pub mod workloads;

pub use runner::{run_serverless_concurrent, run_serverless_task, TaskResult};
pub use storage::StorageServer;
pub use workloads::{AppKind, Workload, WorkloadOutput};

use fastiov_engine::LaunchError;
use fastiov_microvm::VmmError;
use std::fmt;

/// Errors from the application layer.
#[derive(Debug)]
pub enum AppError {
    /// Engine-level failure.
    Engine(LaunchError),
    /// microVM failure.
    Vmm(VmmError),
    /// Storage object missing.
    NoSuchObject(String),
    /// Data-path failure during download.
    Download(String),
    /// The task's thread panicked.
    TaskPanic,
}

impl fmt::Display for AppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppError::Engine(e) => write!(f, "engine: {e}"),
            AppError::Vmm(e) => write!(f, "vmm: {e}"),
            AppError::NoSuchObject(n) => write!(f, "no such object: {n}"),
            AppError::Download(d) => write!(f, "download failed: {d}"),
            AppError::TaskPanic => f.write_str("task thread panicked"),
        }
    }
}

impl std::error::Error for AppError {}

impl From<LaunchError> for AppError {
    fn from(e: LaunchError) -> Self {
        AppError::Engine(e)
    }
}

impl From<VmmError> for AppError {
    fn from(e: VmmError) -> Self {
        AppError::Vmm(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, AppError>;
