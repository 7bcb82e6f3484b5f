//! Container Network Interface plugins.
//!
//! Four plugins are implemented, matching the paper's baselines:
//!
//! - [`SriovCniOriginal`] — the upstream SR-IOV CNI (reference \[23\]): binds the VF to
//!   the host network driver on every launch so a Linux netdev exists for
//!   the runtime to detect, forcing the runtime to unbind and rebind to
//!   VFIO afterwards. "Extremely inefficient" (§5) — several minutes at
//!   concurrency 200.
//! - [`SriovCniFixed`] — the paper's fairness fix (§5): VFs stay bound to
//!   VFIO from boot; a cheap dummy netdev carries the interface identity
//!   and IP configuration into the container NNS. This is the *vanilla*
//!   baseline of every measurement.
//! - [`FastIovCni`] — the fixed flow plus FastIOV metadata: it tells the
//!   hypervisor which memory region to skip (the image) and requests
//!   decoupled zeroing and asynchronous VF driver initialization. The
//!   kernel-side mechanisms live in `fastiovd`/KVM/VFIO; the plugin's job
//!   is plumbing the policy (Fig. 7, Fig. 10).
//! - [`IpvtapCni`] — the fastest basic software CNI (§6.4): no
//!   passthrough at all; a kernel virtual device whose creation contends
//!   on the rtnl lock (`addCNI`), with an emulated virtio-net data plane.

#![warn(missing_docs)]

pub mod nns;
pub mod plugin;

pub use nns::{Nns, NnsRegistry, RtnlLock};
pub use plugin::{
    CniParams, CniPlugin, CniResult, FastIovCni, IpvtapCni, PodNetSpec, SriovCniFixed,
    SriovCniOriginal, VfPool,
};

use fastiov_nic::NicError;
use fastiov_vfio::VfioError;
use std::fmt;

/// Errors from the CNI layer.
#[derive(Debug)]
pub enum CniError {
    /// No free VF to allocate.
    NoFreeVf,
    /// The namespace was not found.
    NoSuchNns(u64),
    /// Underlying NIC error.
    Nic(NicError),
    /// Underlying VFIO error.
    Vfio(VfioError),
}

impl fmt::Display for CniError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CniError::NoFreeVf => write!(f, "no free VF available"),
            CniError::NoSuchNns(id) => write!(f, "no network namespace {id}"),
            CniError::Nic(e) => write!(f, "nic: {e}"),
            CniError::Vfio(e) => write!(f, "vfio: {e}"),
        }
    }
}

impl std::error::Error for CniError {}

impl From<NicError> for CniError {
    fn from(e: NicError) -> Self {
        CniError::Nic(e)
    }
}

impl From<VfioError> for CniError {
    fn from(e: VfioError) -> Self {
        CniError::Vfio(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, CniError>;
