//! VFIO devices, device sets, and the open/reset paths.
//!
//! Devset formation follows §3.2.2: a device that supports slot-level
//! reset forms a singleton devset; bus-level-reset devices share one
//! devset per PCI bus. Opening a device performs devset maintenance — a
//! full PCI bus scan (membership check) plus bookkeeping — *inside the
//! devset lock*, which is precisely the work the coarse design serializes
//! across all 200 concurrently started containers.

use crate::group::VfioGroup;
use crate::locking::{ChildLock, LockPolicy, ParentChildLock};
use crate::{Result, VfioError};
use fastiov_faults::{sites, FaultPlane};
use fastiov_pci::{Bdf, DriverBinding, PciBus, PciDevice, ResetCapability};
use fastiov_simtime::{LockClass, TrackedMutex};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Key identifying a devset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum DevsetKey {
    /// Singleton devset of a slot-resettable device.
    Slot(Bdf),
    /// Shared devset of all bus-reset devices on one bus.
    Bus(u8),
}

/// Local (per-device) state guarded by the child lock.
#[derive(Debug, Default)]
pub struct DeviceState {
    /// Times this device is currently held open.
    pub open_count: u32,
}

/// Global (per-devset) state guarded by parent-mode acquisition.
#[derive(Debug, Default)]
pub struct DevsetState {
    /// Bus-level resets performed.
    pub resets: u64,
}

/// A VFIO-managed device.
pub struct VfioDevice {
    pci: Arc<PciDevice>,
    devset: Weak<DevSet>,
    state: ChildLock<DeviceState>,
}

impl VfioDevice {
    /// The underlying PCI device.
    pub fn pci(&self) -> &Arc<PciDevice> {
        &self.pci
    }

    /// The device's address.
    pub fn bdf(&self) -> Bdf {
        self.pci.bdf()
    }

    /// The devset this device belongs to.
    pub fn devset(&self) -> Arc<DevSet> {
        self.devset
            .upgrade()
            .expect("invariant: the manager keeps devsets alive while devices exist")
    }

    /// Current open count (diagnostic; takes the child lock).
    pub fn open_count(&self) -> u32 {
        self.devset().lock.lock_child(&self.state).open_count
    }
}

/// A device set: the reset-correctness domain of §3.2.2.
pub struct DevSet {
    key: DevsetKey,
    lock: ParentChildLock<DevsetState>,
    /// Members keyed by address, so a membership check is a lookup.
    devices: TrackedMutex<BTreeMap<Bdf, Arc<VfioDevice>>>,
    bus: Arc<PciBus>,
    /// Devset bookkeeping charged inside the lock on every open, on top of
    /// the PCI bus scan.
    open_overhead: Duration,
}

impl DevSet {
    /// Number of member devices.
    pub fn len(&self) -> usize {
        self.devices.lock().len()
    }

    /// True if the devset has no members.
    pub fn is_empty(&self) -> bool {
        self.devices.lock().is_empty()
    }

    /// The lock policy in force.
    pub fn policy(&self) -> LockPolicy {
        self.lock.policy()
    }

    fn bus_no(&self) -> u8 {
        match self.key {
            DevsetKey::Slot(bdf) => bdf.bus,
            DevsetKey::Bus(b) => b,
        }
    }

    /// Opens `dev`: scans the PCI bus for devset membership, charges the
    /// bookkeeping overhead, and bumps the open count — all while holding
    /// the devset lock in child mode for `dev`.
    fn open(&self, dev: &Arc<VfioDevice>) -> Result<()> {
        let mut st = self.lock.lock_child(&dev.state);
        // Membership validation: every VFIO-bound bus-reset device on our
        // bus must be in this devset (§3.2.2); devices owned by other
        // drivers (e.g. the PF) are outside VFIO's reset domain. The scan
        // itself is the charged cost; members are skipped before their
        // driver binding is read.
        let on_bus = self.bus.scan_bus(self.bus_no());
        if matches!(self.key, DevsetKey::Bus(_)) {
            let members = self.devices.lock();
            for d in on_bus {
                if !members.contains_key(&d.bdf())
                    && d.reset_capability() == ResetCapability::BusReset
                    && d.driver() == DriverBinding::Vfio
                {
                    return Err(VfioError::Unregistered(d.bdf()));
                }
            }
        }
        self.bus.clock().sleep(self.open_overhead);
        st.open_count += 1;
        Ok(())
    }

    /// Closes one open handle of `dev`.
    fn close(&self, dev: &Arc<VfioDevice>) -> Result<()> {
        let mut st = self.lock.lock_child(&dev.state);
        if st.open_count == 0 {
            return Err(VfioError::NotOpen(dev.bdf()));
        }
        st.open_count -= 1;
        Ok(())
    }

    /// Resets `dev`. Slot-resettable devices reset alone (a child
    /// operation); bus-reset devices require the parent lock, a membership
    /// scan, and a zero total open count across *other* members.
    fn reset(&self, dev: &Arc<VfioDevice>) -> Result<()> {
        match dev.pci.reset_capability() {
            ResetCapability::SlotReset => {
                let _g = self.lock.lock_child(&dev.state);
                self.bus.reset_device(dev.bdf())?;
                Ok(())
            }
            ResetCapability::BusReset => {
                let mut parent = self.lock.lock_parent();
                let _scan = self.bus.scan_bus(self.bus_no());
                // A copy of the members, taken and released before any
                // child is peeked at: open takes the members lock under a
                // child, so peeking under it would invert that order.
                let members: Vec<Arc<VfioDevice>> = self.devices.lock().values().cloned().collect();
                let others_open: u32 = members
                    .iter()
                    .filter(|m| m.bdf() != dev.bdf())
                    // The parent-mode witness proves all child operations
                    // are excluded, so direct child-state access cannot
                    // race (see ChildLock::lock_direct).
                    .map(|m| m.state.lock_direct(parent.witness()).open_count)
                    .sum();
                if others_open > 0 {
                    return Err(VfioError::DevsetBusy {
                        bdf: dev.bdf(),
                        others_open,
                    });
                }
                self.bus.reset_bus(self.bus_no());
                parent.resets += 1;
                Ok(())
            }
        }
    }

    /// Bus-level resets performed on this devset.
    pub fn reset_count(&self) -> u64 {
        self.lock.lock_parent().resets
    }
}

/// An open handle to a VFIO device. Closing is RAII: dropping the fd
/// decrements the device's open count.
pub struct VfioDeviceFd {
    dev: Arc<VfioDevice>,
}

impl VfioDeviceFd {
    /// The device this fd refers to.
    pub fn device(&self) -> &Arc<VfioDevice> {
        &self.dev
    }

    /// The device address.
    pub fn bdf(&self) -> Bdf {
        self.dev.bdf()
    }
}

impl Drop for VfioDeviceFd {
    fn drop(&mut self) {
        // A failed close here means the handle was double-closed, which
        // the RAII design makes impossible; ignore defensively.
        let _ = self.dev.devset().close(&self.dev);
    }
}

/// Counters for the whole VFIO driver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VfioStats {
    /// Successful device opens.
    pub opens: u64,
    /// Successful resets.
    pub resets: u64,
    /// Resets refused because the devset was busy.
    pub busy_refusals: u64,
}

/// The VFIO driver core: registration and devset assignment.
pub struct DevsetManager {
    policy: LockPolicy,
    bus: Arc<PciBus>,
    open_overhead: Duration,
    registry: TrackedMutex<Registry>,
    next_group: AtomicU64,
    opens: AtomicU64,
    resets: AtomicU64,
    busy: AtomicU64,
    /// Fault plane consulted on the ioctl paths, and by every group.
    faults: Arc<FaultPlane>,
}

/// What a [`DevsetManager`] has registered.
#[derive(Default)]
struct Registry {
    devsets: HashMap<DevsetKey, Arc<DevSet>>,
    /// Each registered device with its IOMMU group.
    devices: HashMap<Bdf, (Arc<VfioDevice>, Arc<VfioGroup>)>,
}

impl DevsetManager {
    /// Creates the driver core.
    ///
    /// `open_overhead` is the devset bookkeeping charged inside the lock
    /// on every open (on top of the PCI bus scan the open performs);
    /// `faults` is consulted on the ioctl paths.
    pub fn new(
        bus: Arc<PciBus>,
        policy: LockPolicy,
        open_overhead: Duration,
        faults: Arc<FaultPlane>,
    ) -> Arc<Self> {
        Arc::new(DevsetManager {
            policy,
            bus,
            open_overhead,
            registry: TrackedMutex::new(LockClass::DevsetRegistry, Registry::default()),
            next_group: AtomicU64::new(0),
            opens: AtomicU64::new(0),
            resets: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            faults,
        })
    }

    /// The lock policy devices are created with.
    pub fn policy(&self) -> LockPolicy {
        self.policy
    }

    /// Registers a VFIO-bound PCI device, assigning it to its devset.
    pub fn register(&self, pci: Arc<PciDevice>) -> Result<Arc<VfioDevice>> {
        if pci.driver() != DriverBinding::Vfio {
            return Err(VfioError::NotVfioBound(pci.bdf()));
        }
        let key = match pci.reset_capability() {
            ResetCapability::SlotReset => DevsetKey::Slot(pci.bdf()),
            ResetCapability::BusReset => DevsetKey::Bus(pci.bdf().bus),
        };
        let devset = {
            let mut reg = self.registry.lock();
            Arc::clone(reg.devsets.entry(key).or_insert_with(|| {
                Arc::new(DevSet {
                    key,
                    lock: ParentChildLock::new(self.policy, DevsetState::default()),
                    devices: TrackedMutex::new(LockClass::DevsetMembers, BTreeMap::new()),
                    bus: Arc::clone(&self.bus),
                    open_overhead: self.open_overhead,
                })
            }))
        };
        let dev = Arc::new(VfioDevice {
            pci,
            devset: Arc::downgrade(&devset),
            state: ChildLock::new(DeviceState::default()),
        });
        devset.devices.lock().insert(dev.bdf(), Arc::clone(&dev));
        // Every function gets its own IOMMU group (ACS topology).
        let gid = self.next_group.fetch_add(1, Ordering::Relaxed) as u32;
        let group = VfioGroup::new(gid, dev.bdf(), Arc::clone(&self.faults));
        self.registry
            .lock()
            .devices
            .insert(dev.bdf(), (Arc::clone(&dev), group));
        Ok(dev)
    }

    /// Unregisters a device (must be closed).
    pub fn unregister(&self, bdf: Bdf) -> Result<()> {
        let dev = self.device(bdf)?;
        let open = dev.open_count();
        if open > 0 {
            return Err(VfioError::DevsetBusy {
                bdf,
                others_open: open,
            });
        }
        self.registry.lock().devices.remove(&bdf);
        dev.devset().devices.lock().remove(&bdf);
        Ok(())
    }

    /// The registered device at `bdf` and its IOMMU group.
    fn entry(&self, bdf: Bdf) -> Result<(Arc<VfioDevice>, Arc<VfioGroup>)> {
        self.registry
            .lock()
            .devices
            .get(&bdf)
            .cloned()
            .ok_or(VfioError::Unregistered(bdf))
    }

    /// The IOMMU group of a registered device.
    pub fn group(&self, bdf: Bdf) -> Result<Arc<VfioGroup>> {
        Ok(self.entry(bdf)?.1)
    }

    /// Looks up a registered device.
    pub fn device(&self, bdf: Bdf) -> Result<Arc<VfioDevice>> {
        Ok(self.entry(bdf)?.0)
    }

    /// Opens a device, returning an RAII fd. This is the hot path of
    /// bottleneck 1: under [`LockPolicy::Coarse`], concurrent opens of
    /// different VFs serialize on the devset mutex.
    pub fn open(&self, bdf: Bdf) -> Result<VfioDeviceFd> {
        let _span = self.bus.clock().tracer().span("vfio.open");
        // VFIO only hands out device descriptors through an attached
        // group (VFIO_GROUP_GET_DEVICE_FD).
        let (dev, group) = self.entry(bdf)?;
        let Some(owner) = group.owner() else {
            return Err(VfioError::GroupNotAttached(bdf));
        };
        self.faults.check(sites::VFIO_DEV_OPEN, owner)?;
        dev.devset().open(&dev)?;
        self.opens.fetch_add(1, Ordering::Relaxed);
        Ok(VfioDeviceFd { dev })
    }

    /// Resets a device through its devset.
    pub fn reset(&self, bdf: Bdf) -> Result<()> {
        let dev = self.device(bdf)?;
        match dev.devset().reset(&dev) {
            Ok(()) => {
                self.resets.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e @ VfioError::DevsetBusy { .. }) => {
                self.busy.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
            Err(e) => Err(e),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> VfioStats {
        VfioStats {
            opens: self.opens.load(Ordering::Relaxed),
            resets: self.resets.load(Ordering::Relaxed),
            busy_refusals: self.busy.load(Ordering::Relaxed),
        }
    }

    /// Wait/hold totals of the devset parent lock class, across every
    /// devset of the calling thread's clock.
    pub fn lock_stats(&self) -> fastiov_simtime::LockSnapshot {
        fastiov_simtime::LockClass::DevsetParent.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastiov_pci::DeviceClass;
    use fastiov_simtime::Clock;

    /// A fault-free manager on `bus`.
    fn manager(bus: &Arc<PciBus>, policy: LockPolicy, overhead: Duration) -> Arc<DevsetManager> {
        DevsetManager::new(Arc::clone(bus), policy, overhead, FaultPlane::disabled())
    }

    fn setup(policy: LockPolicy, n_vfs: u8) -> (Arc<PciBus>, Arc<DevsetManager>) {
        let clock = Clock::new_virtual(1e-4);
        let bus = PciBus::new(clock, Duration::from_micros(50), Duration::from_millis(1));
        let mgr = manager(&bus, policy, Duration::from_micros(100));
        for i in 0..n_vfs {
            let dev = PciDevice::new(
                Bdf::new(3, i, 0),
                DeviceClass::NetworkVf,
                ResetCapability::BusReset,
                None,
            );
            dev.bind_driver(DriverBinding::Vfio);
            bus.add_device(Arc::clone(&dev)).unwrap();
            mgr.register(dev).unwrap();
            // These tests exercise the devset paths; attach each group to
            // a test container so opens are permitted.
            mgr.group(Bdf::new(3, i, 0)).unwrap().attach(1).unwrap();
        }
        (bus, mgr)
    }

    #[test]
    fn bus_reset_devices_share_a_devset() {
        let (_, mgr) = setup(LockPolicy::Coarse, 4);
        let s0 = mgr.device(Bdf::new(3, 0, 0)).unwrap().devset();
        let s1 = mgr.device(Bdf::new(3, 1, 0)).unwrap().devset();
        assert!(Arc::ptr_eq(&s0, &s1));
        assert_eq!(s0.len(), 4);
    }

    #[test]
    fn slot_reset_devices_get_singleton_devsets() {
        let clock = Clock::new_virtual(1e-4);
        let bus = PciBus::new(clock, Duration::from_micros(10), Duration::from_millis(1));
        let mgr = manager(&bus, LockPolicy::Coarse, Duration::ZERO);
        for i in 0..2 {
            let dev = PciDevice::new(
                Bdf::new(1, i, 0),
                DeviceClass::NetworkVf,
                ResetCapability::SlotReset,
                None,
            );
            dev.bind_driver(DriverBinding::Vfio);
            bus.add_device(Arc::clone(&dev)).unwrap();
            mgr.register(dev).unwrap();
        }
        let s0 = mgr.device(Bdf::new(1, 0, 0)).unwrap().devset();
        let s1 = mgr.device(Bdf::new(1, 1, 0)).unwrap().devset();
        assert!(!Arc::ptr_eq(&s0, &s1));
        assert_eq!(s0.len(), 1);
    }

    #[test]
    fn unbound_device_rejected() {
        let clock = Clock::new_virtual(1e-4);
        let bus = PciBus::new(clock, Duration::from_micros(10), Duration::from_millis(1));
        let mgr = manager(&bus, LockPolicy::Coarse, Duration::ZERO);
        let dev = PciDevice::new(
            Bdf::new(1, 0, 0),
            DeviceClass::NetworkVf,
            ResetCapability::BusReset,
            None,
        );
        assert!(matches!(mgr.register(dev), Err(VfioError::NotVfioBound(_))));
    }

    #[test]
    fn open_close_tracks_counts() {
        let (_, mgr) = setup(LockPolicy::Hierarchical, 2);
        let bdf = Bdf::new(3, 0, 0);
        let fd = mgr.open(bdf).unwrap();
        assert_eq!(mgr.device(bdf).unwrap().open_count(), 1);
        let fd2 = mgr.open(bdf).unwrap();
        assert_eq!(mgr.device(bdf).unwrap().open_count(), 2);
        drop(fd);
        drop(fd2);
        assert_eq!(mgr.device(bdf).unwrap().open_count(), 0);
        assert_eq!(mgr.stats().opens, 2);
    }

    #[test]
    fn reset_refused_while_peer_open() {
        let (_, mgr) = setup(LockPolicy::Hierarchical, 2);
        let _fd = mgr.open(Bdf::new(3, 1, 0)).unwrap();
        let e = mgr.reset(Bdf::new(3, 0, 0)).unwrap_err();
        assert!(matches!(e, VfioError::DevsetBusy { others_open: 1, .. }));
        assert_eq!(mgr.stats().busy_refusals, 1);
    }

    #[test]
    fn reset_succeeds_when_devset_idle() {
        let (_, mgr) = setup(LockPolicy::Hierarchical, 2);
        {
            let _fd = mgr.open(Bdf::new(3, 1, 0)).unwrap();
        }
        mgr.reset(Bdf::new(3, 0, 0)).unwrap();
        assert_eq!(mgr.stats().resets, 1);
        let devset = mgr.device(Bdf::new(3, 0, 0)).unwrap().devset();
        assert_eq!(devset.reset_count(), 1);
    }

    /// Open takes the members lock under a child; a bus reset that took
    /// a child under the members lock would close a cycle with it.
    #[test]
    fn open_then_bus_reset_of_a_peer_reports_nothing() {
        for policy in [LockPolicy::Coarse, LockPolicy::Hierarchical] {
            let (_, mgr) = setup(policy, 2);
            drop(mgr.open(Bdf::new(3, 0, 0)).unwrap());
            mgr.reset(Bdf::new(3, 1, 0)).unwrap();
            let r = fastiov_simtime::lockdep::reports();
            assert!(r.is_empty(), "{policy:?}: {r:?}");
        }
    }

    #[test]
    fn self_open_does_not_block_own_reset() {
        // Only *other* devices' opens block a bus reset.
        let (_, mgr) = setup(LockPolicy::Coarse, 2);
        let _fd = mgr.open(Bdf::new(3, 0, 0)).unwrap();
        mgr.reset(Bdf::new(3, 0, 0)).unwrap();
    }

    #[test]
    fn unregister_busy_device_refused() {
        let (_, mgr) = setup(LockPolicy::Coarse, 2);
        let bdf = Bdf::new(3, 0, 0);
        let fd = mgr.open(bdf).unwrap();
        assert!(mgr.unregister(bdf).is_err());
        drop(fd);
        mgr.unregister(bdf).unwrap();
        assert!(mgr.device(bdf).is_err());
    }

    #[test]
    fn open_fails_while_a_vfio_bus_peer_is_unregistered() {
        let (bus, mgr) = setup(LockPolicy::Coarse, 4);
        // A bus peer bound to another driver is outside the reset domain.
        let pf = PciDevice::new(
            Bdf::new(3, 9, 0),
            DeviceClass::NetworkPf,
            ResetCapability::BusReset,
            None,
        );
        bus.add_device(Arc::clone(&pf)).unwrap();
        drop(mgr.open(Bdf::new(3, 0, 0)).unwrap());
        // Bound to VFIO but never registered: every open on the bus fails.
        pf.bind_driver(DriverBinding::Vfio);
        for i in 0..4 {
            assert!(matches!(
                mgr.open(Bdf::new(3, i, 0)),
                Err(VfioError::Unregistered(b)) if b == Bdf::new(3, 9, 0)
            ));
        }
        // Unregistering a member makes it the device that fails the check.
        mgr.register(pf).unwrap();
        mgr.unregister(Bdf::new(3, 2, 0)).unwrap();
        assert!(matches!(
            mgr.open(Bdf::new(3, 0, 0)),
            Err(VfioError::Unregistered(b)) if b == Bdf::new(3, 2, 0)
        ));
    }

    /// The headline behaviour: concurrent opens serialize under the coarse
    /// policy and parallelize under the hierarchical one.
    #[test]
    fn concurrent_opens_faster_under_hierarchical_lock() {
        fn run(policy: LockPolicy) -> Duration {
            let clock = Clock::new_virtual(1e-3);
            let bus = PciBus::new(
                clock.clone(),
                Duration::from_micros(100),
                Duration::from_millis(1),
            );
            let mgr = manager(&bus, policy, Duration::from_millis(2000));
            for i in 0..16 {
                let dev = PciDevice::new(
                    Bdf::new(3, i, 0),
                    DeviceClass::NetworkVf,
                    ResetCapability::BusReset,
                    None,
                );
                dev.bind_driver(DriverBinding::Vfio);
                bus.add_device(Arc::clone(&dev)).unwrap();
                mgr.register(dev).unwrap();
                mgr.group(Bdf::new(3, i, 0)).unwrap().attach(1).unwrap();
            }
            let t0 = clock.now();
            let handles: Vec<_> = (0..16u8)
                .map(|i| {
                    let mgr = Arc::clone(&mgr);
                    fastiov_simtime::spawn(&clock, format!("open-{i}"), move || {
                        let fd = mgr.open(Bdf::new(3, i, 0)).unwrap();
                        std::mem::forget(fd); // keep open; leak is test-local
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert!(clock.is_virtual());
            clock.now().duration_since(t0)
        }
        let coarse = run(LockPolicy::Coarse);
        let hier = run(LockPolicy::Hierarchical);
        // One open: 2 s overhead plus a config scan of 16 devices × 100 µs.
        let open = Duration::from_millis(2000) + Duration::from_micros(100) * 16;
        assert_eq!(coarse, open * 16);
        assert_eq!(hier, open);
    }
}
