//! PCI device identity, reset capability, driver binding.

use fastiov_simtime::{LockClass, TrackedMutex};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A bus/device/function address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bdf {
    /// Bus number.
    pub bus: u8,
    /// Device number (5 bits on real hardware; unchecked here).
    pub device: u8,
    /// Function number.
    pub function: u8,
}

impl Bdf {
    /// Creates an address.
    pub const fn new(bus: u8, device: u8, function: u8) -> Self {
        Bdf {
            bus,
            device,
            function,
        }
    }
}

impl fmt::Display for Bdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "0000:{:02x}:{:02x}.{:x}",
            self.bus, self.device, self.function
        )
    }
}

/// How the device can be function-level reset.
///
/// Slot-level reset lets a device reset alone; the paper notes (§3.2.2)
/// this is *uncommon* on modern NICs (not supported by the Intel E810 or
/// IPU E2100), so VFs require bus-level reset and share a devset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResetCapability {
    /// Device resets alone.
    SlotReset,
    /// Every device on the bus resets together.
    BusReset,
}

/// Broad device class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceClass {
    /// SR-IOV physical function of a NIC.
    NetworkPf,
    /// SR-IOV virtual function of a NIC.
    NetworkVf,
    /// Anything else sharing the bus.
    Other,
}

/// Which host driver currently claims the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverBinding {
    /// No driver bound.
    None,
    /// The VFIO passthrough driver.
    Vfio,
}

/// The SR-IOV capability structure of a PF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SriovCap {
    /// Maximum VFs the hardware supports.
    pub total_vfs: u16,
    /// VFs currently enabled.
    pub num_vfs: u16,
}

/// One PCI device.
pub struct PciDevice {
    bdf: Bdf,
    class: DeviceClass,
    reset: ResetCapability,
    state: TrackedMutex<DeviceState>,
    resets: AtomicU64,
}

/// A device's driver binding and SR-IOV capability.
struct DeviceState {
    driver: DriverBinding,
    sriov: Option<SriovCap>,
}

impl PciDevice {
    /// Creates a device. PFs that support SR-IOV pass `Some(total_vfs)`.
    pub fn new(
        bdf: Bdf,
        class: DeviceClass,
        reset: ResetCapability,
        sriov_total_vfs: Option<u16>,
    ) -> Arc<Self> {
        Arc::new(PciDevice {
            bdf,
            class,
            reset,
            state: TrackedMutex::new(
                LockClass::PciDevice,
                DeviceState {
                    driver: DriverBinding::None,
                    sriov: sriov_total_vfs.map(|total_vfs| SriovCap {
                        total_vfs,
                        num_vfs: 0,
                    }),
                },
            ),
            resets: AtomicU64::new(0),
        })
    }

    /// Address of this device.
    pub fn bdf(&self) -> Bdf {
        self.bdf
    }

    /// Device class.
    pub fn class(&self) -> DeviceClass {
        self.class
    }

    /// Reset capability.
    pub fn reset_capability(&self) -> ResetCapability {
        self.reset
    }

    /// Current driver binding.
    pub fn driver(&self) -> DriverBinding {
        self.state.lock().driver
    }

    /// Rebinds the device to `driver`, returning the previous binding.
    pub fn bind_driver(&self, driver: DriverBinding) -> DriverBinding {
        std::mem::replace(&mut self.state.lock().driver, driver)
    }

    /// SR-IOV capability, if present.
    pub fn sriov_cap(&self) -> Option<SriovCap> {
        self.state.lock().sriov
    }

    /// Sets the number of enabled VFs in the SR-IOV capability.
    pub fn set_num_vfs(&self, n: u16) -> crate::Result<()> {
        match self.state.lock().sriov.as_mut() {
            None => Err(crate::PciError::NoSriovCap(self.bdf)),
            Some(c) if n > c.total_vfs => Err(crate::PciError::TooManyVfs {
                requested: n,
                max: c.total_vfs,
            }),
            Some(c) => {
                c.num_vfs = n;
                Ok(())
            }
        }
    }

    /// Records a function-level reset (counted for tests/diagnostics).
    pub(crate) fn do_reset(&self) {
        self.resets.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of resets this device has seen.
    pub fn reset_count(&self) -> u64 {
        self.resets.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for PciDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PciDevice")
            .field("bdf", &self.bdf)
            .field("class", &self.class)
            .field("reset", &self.reset)
            .field("driver", &self.driver())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bdf_display_is_lspci_style() {
        assert_eq!(Bdf::new(3, 0x10, 2).to_string(), "0000:03:10.2");
    }

    #[test]
    fn driver_rebinding_returns_previous() {
        let d = PciDevice::new(
            Bdf::new(0, 1, 0),
            DeviceClass::NetworkVf,
            ResetCapability::BusReset,
            None,
        );
        assert_eq!(d.driver(), DriverBinding::None);
        assert_eq!(d.bind_driver(DriverBinding::Vfio), DriverBinding::None);
        assert_eq!(d.driver(), DriverBinding::Vfio);
        assert_eq!(d.bind_driver(DriverBinding::None), DriverBinding::Vfio);
    }

    #[test]
    fn sriov_cap_enforced() {
        let pf = PciDevice::new(
            Bdf::new(0, 0, 0),
            DeviceClass::NetworkPf,
            ResetCapability::BusReset,
            Some(256),
        );
        pf.set_num_vfs(200).unwrap();
        assert_eq!(pf.sriov_cap().unwrap().num_vfs, 200);
        assert!(matches!(
            pf.set_num_vfs(300),
            Err(crate::PciError::TooManyVfs { .. })
        ));
        let vf = PciDevice::new(
            Bdf::new(0, 1, 0),
            DeviceClass::NetworkVf,
            ResetCapability::BusReset,
            None,
        );
        assert!(matches!(
            vf.set_num_vfs(1),
            Err(crate::PciError::NoSriovCap(_))
        ));
    }

    #[test]
    fn reset_counter() {
        let d = PciDevice::new(
            Bdf::new(0, 1, 0),
            DeviceClass::NetworkVf,
            ResetCapability::BusReset,
            None,
        );
        d.do_reset();
        d.do_reset();
        assert_eq!(d.reset_count(), 2);
    }
}
