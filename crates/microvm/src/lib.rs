//! The hypervisor layer: a Kata-QEMU-like microVM with passthrough or
//! para-virtualized networking.
//!
//! [`host::Host`] assembles the whole modelled server — physical memory,
//! PCI bus, SR-IOV NIC, IOMMU, VFIO, KVM, `fastiovd` — from a
//! [`params::HostParams`] parameter set calibrated against the paper's
//! measurements. [`vm::Microvm`] then runs the end-to-end attach sequence
//! of Fig. 4 for one secure container: DMA-map guest RAM and (unless
//! skipped) the image region, open the VF through VFIO, load and boot the
//! guest kernel, and initialize the guest VF driver synchronously or
//! asynchronously.

#![warn(missing_docs)]

pub mod guest;
pub mod host;
pub mod irq;
pub mod params;
pub mod vm;

pub use guest::{GuestNetState, GuestVfDriver};
pub use host::Host;
pub use irq::{IrqRouter, IrqStats};
pub use params::HostParams;
pub use vm::{Microvm, MicrovmConfig, NetworkAttachment, ZeroingMode};

use fastiov_faults::FaultError;
use fastiov_hostmem::MemError;
use fastiov_kvm::KvmError;
use fastiov_nic::NicError;
use fastiov_vfio::VfioError;
use fastiov_virtio::VirtioError;
use std::fmt;

/// Errors from the hypervisor layer.
#[derive(Debug)]
pub enum VmmError {
    /// The guest kernel image was corrupted in memory — the §4.3.2 crash
    /// when lazy zeroing wipes hypervisor-written data.
    GuestCrash {
        /// Which check failed.
        detail: String,
    },
    /// Underlying VFIO error.
    Vfio(VfioError),
    /// Underlying KVM error.
    Kvm(KvmError),
    /// Underlying memory error.
    Mem(MemError),
    /// Underlying NIC error.
    Nic(NicError),
    /// Underlying virtio error.
    Virtio(VirtioError),
    /// MicroVM is not network-attached.
    NoNetwork,
    /// Fault injected by the fault plane directly at the VMM layer
    /// (e.g. the warm-pool recycle site).
    Injected(FaultError),
}

impl VmmError {
    /// The injected fault behind this error, walking through the wrapped
    /// layer errors, if any.
    pub fn injected(&self) -> Option<&FaultError> {
        match self {
            VmmError::Injected(f) => Some(f),
            VmmError::Vfio(e) => e.injected(),
            VmmError::Nic(e) => e.injected(),
            _ => None,
        }
    }
}

impl fmt::Display for VmmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmmError::GuestCrash { detail } => write!(f, "guest crashed: {detail}"),
            VmmError::Vfio(e) => write!(f, "vfio: {e}"),
            VmmError::Kvm(e) => write!(f, "kvm: {e}"),
            VmmError::Mem(e) => write!(f, "memory: {e}"),
            VmmError::Nic(e) => write!(f, "nic: {e}"),
            VmmError::Virtio(e) => write!(f, "virtio: {e}"),
            VmmError::NoNetwork => write!(f, "microVM has no network attachment"),
            VmmError::Injected(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for VmmError {}

impl From<VfioError> for VmmError {
    fn from(e: VfioError) -> Self {
        VmmError::Vfio(e)
    }
}

impl From<KvmError> for VmmError {
    fn from(e: KvmError) -> Self {
        VmmError::Kvm(e)
    }
}

impl From<MemError> for VmmError {
    fn from(e: MemError) -> Self {
        VmmError::Mem(e)
    }
}

impl From<NicError> for VmmError {
    fn from(e: NicError) -> Self {
        VmmError::Nic(e)
    }
}

impl From<VirtioError> for VmmError {
    fn from(e: VirtioError) -> Self {
        VmmError::Virtio(e)
    }
}

impl From<FaultError> for VmmError {
    fn from(e: FaultError) -> Self {
        VmmError::Injected(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, VmmError>;

/// Canonical stage names used in timelines, matching Fig. 5 of the paper.
pub mod stages {
    /// cgroup initialization.
    pub const CGROUP: &str = "0-cgroup";
    /// DMA mapping of microVM RAM.
    pub const DMA_RAM: &str = "1-dma-ram";
    /// Shared file system initialization.
    pub const VIRTIOFS: &str = "2-virtiofs";
    /// DMA mapping of the microVM image region.
    pub const DMA_IMAGE: &str = "3-dma-image";
    /// Opening the VF from its VFIO devset.
    pub const VFIO_DEV: &str = "4-vfio-dev";
    /// Guest VF driver initialization.
    pub const VF_DRIVER: &str = "5-vf-driver";
    /// Software-CNI device creation (Fig. 14).
    pub const ADD_CNI: &str = "addCNI";
    /// Warm-pool claim: reconfigure a pre-booted microVM for a new pod.
    pub const WARM_CLAIM: &str = "w-claim";
    /// Warm-pool recycle: reset a torn-down microVM for reuse (runs off
    /// the startup critical path, charged to the replenisher).
    pub const RECYCLE: &str = "w-recycle";
}
