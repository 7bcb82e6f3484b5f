//! PCI bus model: devices, reset capabilities, SR-IOV capability.
//!
//! The paper's bottleneck 1 (§3.2.2) lives here structurally: whether a
//! device supports **slot-level reset** decides how VFIO groups devices
//! into devsets. Modern NICs such as the Intel E810 and IPU E2100 support
//! only **bus-level reset**, so all their VFs land in one devset, and
//! opening any of them scans the whole PCI bus while holding the devset
//! lock. [`PciBus::scan_bus`] charges a per-device config-space latency,
//! which is exactly the work serialized by the coarse VFIO lock.

#![warn(missing_docs)]

pub mod bus;
pub mod device;

pub use bus::PciBus;
pub use device::{Bdf, DeviceClass, DriverBinding, PciDevice, ResetCapability, SriovCap};

use std::fmt;

/// Errors from the PCI model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PciError {
    /// No device at the given address.
    NoDevice(Bdf),
    /// A duplicate BDF was registered.
    DuplicateBdf(Bdf),
    /// Operation requires a driver binding the device does not have.
    WrongDriver {
        /// Device address.
        bdf: Bdf,
        /// Binding found.
        found: DriverBinding,
    },
    /// SR-IOV operation on a device without the capability.
    NoSriovCap(Bdf),
    /// Requested more VFs than the capability allows.
    TooManyVfs {
        /// VFs requested.
        requested: u16,
        /// Capability maximum.
        max: u16,
    },
}

impl fmt::Display for PciError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PciError::NoDevice(bdf) => write!(f, "no PCI device at {bdf}"),
            PciError::DuplicateBdf(bdf) => write!(f, "duplicate PCI device at {bdf}"),
            PciError::WrongDriver { bdf, found } => {
                write!(
                    f,
                    "device {bdf} bound to {found:?}, operation needs another driver"
                )
            }
            PciError::NoSriovCap(bdf) => write!(f, "device {bdf} has no SR-IOV capability"),
            PciError::TooManyVfs { requested, max } => {
                write!(f, "requested {requested} VFs, capability allows {max}")
            }
        }
    }
}

impl std::error::Error for PciError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, PciError>;
