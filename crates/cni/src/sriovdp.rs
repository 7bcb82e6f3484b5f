//! The SR-IOV network device plugin (`sriovdp`, reference \[22\]).
//!
//! In the deployed stack (Fig. 4), the kubelet learns about VFs from a
//! device plugin: it *discovers* the host's VFs, advertises them as an
//! extended resource (`intel.com/sriov_vf: 256`), streams health updates
//! (ListAndWatch), and serves Allocate calls that pin one concrete VF to
//! a pod. The CNI plugin then configures whichever VF the kubelet handed
//! the pod. This module models that control flow, including unhealthy-VF
//! handling, and plugs into the CNI layer through [`VfProvider`].

use crate::{CniError, Result};
use fastiov_nic::{PfDriver, VfId};
use fastiov_simtime::{LockClass, TrackedMutex};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Source of VFs for the SR-IOV CNI plugins: either the simple pool
/// ([`crate::VfAllocator`]) or the kubelet-mediated device plugin.
pub trait VfProvider: Send + Sync {
    /// Takes a free, healthy VF.
    fn allocate(&self) -> Result<VfId>;
    /// Returns a VF.
    fn release(&self, vf: VfId);
    /// Free VFs currently available.
    fn available(&self) -> usize;
}

impl VfProvider for crate::VfAllocator {
    fn allocate(&self) -> Result<VfId> {
        crate::VfAllocator::allocate(self)
    }

    fn release(&self, vf: VfId) {
        crate::VfAllocator::release(self, vf);
    }

    fn available(&self) -> usize {
        crate::VfAllocator::available(self)
    }
}

/// Health of an advertised device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Usable.
    Healthy,
    /// Taken out of rotation (link flap, reset failure).
    Unhealthy,
}

#[derive(Debug, Clone, Copy)]
struct Device {
    health: Health,
    /// Pod UID holding the device, if allocated.
    allocated_to: Option<u64>,
}

/// Counters exposed by [`DevicePlugin::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DevicePluginStats {
    /// Allocate calls served.
    pub allocations: u64,
    /// Allocate calls refused (exhausted / unhealthy).
    pub refusals: u64,
    /// ListAndWatch snapshots served.
    pub watches: u64,
}

/// The device plugin: VF discovery, advertisement, allocation.
pub struct DevicePlugin {
    resource_name: String,
    devices: TrackedMutex<BTreeMap<u16, Device>>,
    allocations: AtomicU64,
    refusals: AtomicU64,
    watches: AtomicU64,
}

impl DevicePlugin {
    /// Discovers every VF the PF driver pre-created and advertises them
    /// under `resource_name` (e.g. `"intel.com/sriov_vf"`).
    pub fn discover(resource_name: &str, pf: &PfDriver) -> Arc<Self> {
        let devices = (0..pf.vf_count() as u16)
            .map(|i| {
                (
                    i,
                    Device {
                        health: Health::Healthy,
                        allocated_to: None,
                    },
                )
            })
            .collect();
        Arc::new(DevicePlugin {
            resource_name: resource_name.to_string(),
            devices: TrackedMutex::new(LockClass::CniRegistry, devices),
            allocations: AtomicU64::new(0),
            refusals: AtomicU64::new(0),
            watches: AtomicU64::new(0),
        })
    }

    /// The advertised extended-resource name.
    pub fn resource_name(&self) -> &str {
        &self.resource_name
    }

    /// ListAndWatch: a snapshot of every device and its health, as the
    /// kubelet consumes it.
    pub fn list_and_watch(&self) -> Vec<(VfId, Health)> {
        self.watches.fetch_add(1, Ordering::Relaxed);
        self.devices
            .lock()
            .iter()
            .map(|(&id, d)| (VfId(id), d.health))
            .collect()
    }

    /// Advertised capacity (healthy devices, allocated or not).
    pub fn capacity(&self) -> usize {
        self.devices
            .lock()
            .values()
            .filter(|d| d.health == Health::Healthy)
            .count()
    }

    /// Allocate for a specific pod (the kubelet's Allocate RPC).
    pub fn allocate_for(&self, pod_uid: u64) -> Result<VfId> {
        let mut devices = self.devices.lock();
        match devices
            .iter_mut()
            .find(|(_, d)| d.health == Health::Healthy && d.allocated_to.is_none())
        {
            Some((&id, d)) => {
                d.allocated_to = Some(pod_uid);
                self.allocations.fetch_add(1, Ordering::Relaxed);
                Ok(VfId(id))
            }
            None => {
                self.refusals.fetch_add(1, Ordering::Relaxed);
                Err(CniError::NoFreeVf)
            }
        }
    }

    /// Marks a device unhealthy; an allocated device stays with its pod
    /// but will not be re-advertised after release.
    pub fn mark_unhealthy(&self, vf: VfId) {
        if let Some(d) = self.devices.lock().get_mut(&vf.0) {
            d.health = Health::Unhealthy;
        }
    }

    /// Returns a repaired device to rotation.
    pub fn mark_healthy(&self, vf: VfId) {
        if let Some(d) = self.devices.lock().get_mut(&vf.0) {
            d.health = Health::Healthy;
        }
    }

    /// The pod currently holding a device, if any.
    pub fn holder(&self, vf: VfId) -> Option<u64> {
        self.devices.lock().get(&vf.0).and_then(|d| d.allocated_to)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DevicePluginStats {
        DevicePluginStats {
            allocations: self.allocations.load(Ordering::Relaxed),
            refusals: self.refusals.load(Ordering::Relaxed),
            watches: self.watches.load(Ordering::Relaxed),
        }
    }
}

impl VfProvider for DevicePlugin {
    fn allocate(&self) -> Result<VfId> {
        // Pod identity is threaded by `allocate_for`; the provider
        // interface allocates anonymously (uid 0 = "engine-managed").
        self.allocate_for(0)
    }

    fn release(&self, vf: VfId) {
        if let Some(d) = self.devices.lock().get_mut(&vf.0) {
            d.allocated_to = None;
        }
    }

    fn available(&self) -> usize {
        self.devices
            .lock()
            .values()
            .filter(|d| d.health == Health::Healthy && d.allocated_to.is_none())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastiov_microvm::{Host, HostParams};
    use fastiov_vfio::LockPolicy;

    fn plugin(vfs: u16) -> Arc<DevicePlugin> {
        let mut params = HostParams::for_tests();
        params.total_vfs = vfs;
        let host = Host::new(params, LockPolicy::Hierarchical).unwrap();
        DevicePlugin::discover("intel.com/sriov_vf", &host.pf)
    }

    #[test]
    fn discovery_advertises_all_vfs() {
        let dp = plugin(8);
        assert_eq!(dp.resource_name(), "intel.com/sriov_vf");
        assert_eq!(dp.capacity(), 8);
        let snapshot = dp.list_and_watch();
        assert_eq!(snapshot.len(), 8);
        assert!(snapshot.iter().all(|(_, h)| *h == Health::Healthy));
        assert_eq!(dp.stats().watches, 1);
    }

    #[test]
    fn allocate_pins_device_to_pod() {
        let dp = plugin(2);
        let a = dp.allocate_for(101).unwrap();
        let b = dp.allocate_for(102).unwrap();
        assert_ne!(a, b);
        assert_eq!(dp.holder(a), Some(101));
        assert!(matches!(dp.allocate_for(103), Err(CniError::NoFreeVf)));
        assert_eq!(dp.stats().refusals, 1);
        VfProvider::release(&*dp, a);
        assert_eq!(dp.holder(a), None);
        assert_eq!(dp.allocate_for(104).unwrap(), a);
    }

    #[test]
    fn unhealthy_devices_are_skipped() {
        let dp = plugin(2);
        dp.mark_unhealthy(VfId(0));
        assert_eq!(dp.capacity(), 1);
        assert_eq!(dp.allocate_for(1).unwrap(), VfId(1));
        assert!(dp.allocate_for(2).is_err());
        dp.mark_healthy(VfId(0));
        assert_eq!(dp.allocate_for(3).unwrap(), VfId(0));
    }

    #[test]
    fn provider_interface_matches_pool_semantics() {
        let dp = plugin(3);
        let p: &dyn VfProvider = &*dp;
        assert_eq!(p.available(), 3);
        let vf = p.allocate().unwrap();
        assert_eq!(p.available(), 2);
        p.release(vf);
        assert_eq!(p.available(), 3);
    }
}
