//! The PCI bus: device registry and the charged bus scan.

use crate::device::{Bdf, PciDevice};
use crate::{PciError, Result};
use fastiov_simtime::Clock;
use fastiov_simtime::{LockClass, TrackedMutex};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// The host's PCI topology.
///
/// [`PciBus::scan_bus`] is the operation the VFIO devset open path performs
/// *while holding the devset lock* (§3.2.2): it walks every device on the
/// bus and touches its config space, charging `cfg_access` per device. With
/// 200+ VFs on one bus this is tens of milliseconds per open — harmless
/// alone, disastrous when serialized behind one mutex.
pub struct PciBus {
    clock: Clock,
    /// Simulated latency of one config-space access during a scan.
    cfg_access: Duration,
    /// Simulated latency of a function-level reset.
    reset_latency: Duration,
    devices: TrackedMutex<BTreeMap<Bdf, Arc<PciDevice>>>,
}

impl PciBus {
    /// Creates an empty bus.
    ///
    /// `cfg_access` is charged per device on every [`PciBus::scan_bus`];
    /// `reset_latency` per [`PciBus::reset_device`].
    pub fn new(clock: Clock, cfg_access: Duration, reset_latency: Duration) -> Arc<Self> {
        Arc::new(PciBus {
            clock,
            cfg_access,
            reset_latency,
            devices: TrackedMutex::new(LockClass::PciBus, BTreeMap::new()),
        })
    }

    /// Registers a device.
    pub fn add_device(&self, dev: Arc<PciDevice>) -> Result<()> {
        let mut devs = self.devices.lock();
        if devs.contains_key(&dev.bdf()) {
            return Err(PciError::DuplicateBdf(dev.bdf()));
        }
        devs.insert(dev.bdf(), dev);
        Ok(())
    }

    /// Looks up a device by address.
    pub fn device(&self, bdf: Bdf) -> Result<Arc<PciDevice>> {
        self.devices
            .lock()
            .get(&bdf)
            .cloned()
            .ok_or(PciError::NoDevice(bdf))
    }

    /// All devices on bus `bus`, charging one config access per device
    /// examined (the whole registry is walked, as a real scan does).
    pub fn scan_bus(&self, bus: u8) -> Vec<Arc<PciDevice>> {
        let (total, found) = {
            let devs = self.devices.lock();
            let found: Vec<Arc<PciDevice>> = devs
                .values()
                .filter(|d| d.bdf().bus == bus)
                .cloned()
                .collect();
            (devs.len(), found)
        };
        self.clock.sleep(self.cfg_access * total as u32);
        found
    }

    /// Number of registered devices (no charge).
    pub fn device_count(&self) -> usize {
        self.devices.lock().len()
    }

    /// Function-level reset of one device, charging the reset latency.
    pub fn reset_device(&self, bdf: Bdf) -> Result<()> {
        let dev = self.device(bdf)?;
        self.clock.sleep(self.reset_latency);
        dev.do_reset();
        Ok(())
    }

    /// Bus-level reset: resets every device on `bus` together, charging a
    /// single reset latency (it is one electrical event).
    pub fn reset_bus(&self, bus: u8) -> usize {
        let victims: Vec<Arc<PciDevice>> = {
            let devs = self.devices.lock();
            devs.values()
                .filter(|d| d.bdf().bus == bus)
                .cloned()
                .collect()
        };
        self.clock.sleep(self.reset_latency);
        for d in &victims {
            d.do_reset();
        }
        victims.len()
    }

    /// The simulation clock (shared with callers that charge their own
    /// costs around bus operations).
    pub fn clock(&self) -> &Clock {
        &self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{DeviceClass, ResetCapability};

    fn bus() -> Arc<PciBus> {
        PciBus::new(
            Clock::new_virtual(1e-5),
            Duration::from_micros(100),
            Duration::from_millis(1),
        )
    }

    fn dev(bus_no: u8, slot: u8) -> Arc<PciDevice> {
        PciDevice::new(
            Bdf::new(bus_no, slot, 0),
            DeviceClass::NetworkVf,
            ResetCapability::BusReset,
            None,
        )
    }

    #[test]
    fn add_and_lookup() {
        let b = bus();
        let d = dev(1, 2);
        b.add_device(Arc::clone(&d)).unwrap();
        assert_eq!(b.device(Bdf::new(1, 2, 0)).unwrap().bdf(), d.bdf());
        assert!(matches!(
            b.device(Bdf::new(9, 9, 9)),
            Err(PciError::NoDevice(_))
        ));
    }

    #[test]
    fn duplicate_rejected() {
        let b = bus();
        b.add_device(dev(1, 2)).unwrap();
        assert!(matches!(
            b.add_device(dev(1, 2)),
            Err(PciError::DuplicateBdf(_))
        ));
    }

    #[test]
    fn scan_filters_by_bus() {
        let b = bus();
        for slot in 0..4 {
            b.add_device(dev(1, slot)).unwrap();
        }
        b.add_device(dev(2, 0)).unwrap();
        assert_eq!(b.scan_bus(1).len(), 4);
        assert_eq!(b.scan_bus(2).len(), 1);
        assert_eq!(b.scan_bus(3).len(), 0);
        assert_eq!(b.device_count(), 5);
    }

    #[test]
    fn bus_reset_hits_all_devices_on_bus() {
        let b = bus();
        let d1 = dev(1, 0);
        let d2 = dev(1, 1);
        let d3 = dev(2, 0);
        for d in [&d1, &d2, &d3] {
            b.add_device(Arc::clone(d)).unwrap();
        }
        assert_eq!(b.reset_bus(1), 2);
        assert_eq!(d1.reset_count(), 1);
        assert_eq!(d2.reset_count(), 1);
        assert_eq!(d3.reset_count(), 0);
    }
}
