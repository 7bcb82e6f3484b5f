//! Container Network Interface flows: the `t_config` step of Fig. 4.
//!
//! Two flows are implemented, matching the paper's baselines:
//!
//! - [`sriov_setup`]: the SR-IOV flow with the paper's fairness fix (§5)
//!   to the upstream SR-IOV CNI (reference \[23\]). VFs stay bound to VFIO
//!   from boot, and a cheap dummy netdev carries the interface identity
//!   and IP configuration into the container NNS. The vanilla baseline and
//!   every FastIOV baseline share it: the FastIOV CNI adds only policy
//!   (skip region, decoupled zeroing, asynchronous VF init), which travels
//!   in the microVM configuration the runtime builds (Fig. 7, Fig. 10).
//!   The upstream flow, which rebinds each VF to the host network driver
//!   on every launch, is not modelled.
//! - [`ipvtap_setup`]: the fastest basic software CNI (§6.4). No
//!   passthrough at all: a kernel virtual device whose creation contends
//!   on the rtnl lock (`addCNI`), with an emulated virtio-net data plane.

#![warn(missing_docs)]

pub mod nns;
pub mod plugin;

pub use nns::{Nns, NnsRegistry, RtnlLock};
pub use plugin::{ipvtap_setup, sriov_setup, CniResult, PodNetSpec, VfPool};

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
