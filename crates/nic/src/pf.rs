//! The PF driver: VF pre-creation, host-driver binding, and the admin
//! queue.

use crate::vf::{MacAddr, NetdevName, Vf, VfId};
use crate::{vf_bdf, NicError, Result};
use fastiov_faults::{sites, FaultPlane};
use fastiov_pci::{DeviceClass, DriverBinding, PciBus, PciDevice, ResetCapability};
use fastiov_simtime::{Clock, LockClass, TrackedMutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A command submitted to the PF admin queue on behalf of a VF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdminCmd {
    /// Assign a MAC address.
    SetMac(MacAddr),
    /// Assign a VLAN.
    SetVlan(u16),
    /// Enable TX/RX queues.
    EnableQueues,
    /// Disable TX/RX queues.
    DisableQueues,
    /// Query link status.
    QueryLink,
    /// Function-level VF reset via the PF.
    ResetVf,
}

/// Reply from the admin queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdminReply {
    /// Command applied.
    Ok,
    /// Link status report.
    Link {
        /// Whether the link is up.
        up: bool,
    },
}

/// The PF mailbox: a strictly serialized command channel.
///
/// Real SR-IOV NICs process VF mailbox messages through PF firmware one at
/// a time; this is the shared resource that makes guest VF driver
/// initialization (§3.2.4) scale badly with *simultaneous* arrivals. It is
/// a FIFO lock of class [`LockClass::NicMailbox`], held for each command's
/// service time.
pub struct AdminQueue {
    clock: Clock,
    mailbox: TrackedMutex<()>,
    /// Service time of lightweight configuration writes (MAC/VLAN).
    config_service: Duration,
    /// Service time of heavyweight bring-up commands (queue enablement,
    /// link negotiation, resets) that involve NIC firmware round trips.
    bringup_service: Duration,
    submitted: AtomicU64,
}

impl AdminQueue {
    /// Creates a queue with per-class service times.
    pub fn new(clock: Clock, config_service: Duration, bringup_service: Duration) -> Self {
        AdminQueue {
            clock,
            mailbox: TrackedMutex::new(LockClass::NicMailbox, ()),
            config_service,
            bringup_service,
            submitted: AtomicU64::new(0),
        }
    }

    /// Service time of one command.
    pub fn service_for(&self, cmd: AdminCmd) -> Duration {
        match cmd {
            AdminCmd::SetMac(_) | AdminCmd::SetVlan(_) => self.config_service,
            AdminCmd::EnableQueues
            | AdminCmd::DisableQueues
            | AdminCmd::QueryLink
            | AdminCmd::ResetVf => self.bringup_service,
        }
    }

    /// Submits a command for `vf`, blocking for queueing plus service.
    /// The span covers queueing *and* service: mailbox wait is exactly
    /// what makes simultaneous VF bring-up scale badly, so it belongs in
    /// the timeline.
    pub fn submit(&self, vf: &Vf, cmd: AdminCmd) -> AdminReply {
        let _span = self.clock.tracer().span("nic.admin");
        let _g = self.mailbox.lock();
        self.clock.sleep(self.service_for(cmd));
        self.submitted.fetch_add(1, Ordering::Relaxed);
        match cmd {
            AdminCmd::SetMac(mac) => {
                vf.with_state(|s| s.mac = Some(mac));
                AdminReply::Ok
            }
            AdminCmd::SetVlan(v) => {
                vf.with_state(|s| s.vlan = Some(v));
                AdminReply::Ok
            }
            AdminCmd::EnableQueues => {
                vf.with_state(|s| {
                    s.queues_enabled = true;
                    s.link_up = true;
                });
                AdminReply::Ok
            }
            AdminCmd::DisableQueues => {
                vf.with_state(|s| {
                    s.queues_enabled = false;
                    s.link_up = false;
                });
                AdminReply::Ok
            }
            AdminCmd::QueryLink => AdminReply::Link {
                up: vf.state().link_up,
            },
            AdminCmd::ResetVf => {
                vf.with_state(|s| {
                    s.queues_enabled = false;
                    s.link_up = false;
                    s.mac = None;
                    s.vlan = None;
                });
                AdminReply::Ok
            }
        }
    }

    /// Commands processed so far.
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }
}

/// Cost parameters of PF-side operations.
#[derive(Debug, Clone, Copy)]
pub struct PfCosts {
    /// Hardware configuration per VF during one-time pre-creation.
    pub vf_precreate: Duration,
    /// Binding to the VFIO driver.
    pub bind_vfio: Duration,
    /// Creating a dummy Linux netdev (FastIOV CNI's stand-in interface).
    pub dummy_netdev: Duration,
    /// Admin-queue service time for configuration writes (MAC/VLAN).
    pub admin_config_service: Duration,
    /// Admin-queue service time for bring-up commands.
    pub admin_service: Duration,
}

impl PfCosts {
    /// Cheap costs for functional tests.
    pub fn for_tests() -> Self {
        PfCosts {
            vf_precreate: Duration::from_micros(50),
            bind_vfio: Duration::from_micros(50),
            dummy_netdev: Duration::from_micros(10),
            admin_config_service: Duration::from_micros(5),
            admin_service: Duration::from_micros(20),
        }
    }
}

/// Counters exposed by [`PfDriver::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PfStats {
    /// VFs created.
    pub vfs_created: usize,
    /// Admin commands served.
    pub admin_cmds: u64,
}

/// The PF driver: owns the PF PCI function and the VF array.
pub struct PfDriver {
    clock: Clock,
    bus: Arc<PciBus>,
    bus_no: u8,
    pf: Arc<PciDevice>,
    costs: PfCosts,
    admin: AdminQueue,
    vfs: TrackedMutex<Vec<Arc<Vf>>>,
    /// Fault plane consulted during VF link bring-up.
    faults: Arc<FaultPlane>,
}

impl PfDriver {
    /// Probes the PF on `bus_no` of `bus`, registering the PF function;
    /// `faults` is consulted during VF link bring-up.
    pub fn new(
        clock: Clock,
        bus: Arc<PciBus>,
        bus_no: u8,
        total_vfs: u16,
        costs: PfCosts,
        faults: Arc<FaultPlane>,
    ) -> Result<Arc<Self>> {
        let pf = PciDevice::new(
            fastiov_pci::Bdf::new(bus_no, 0, 0),
            DeviceClass::NetworkPf,
            ResetCapability::BusReset,
            Some(total_vfs),
        );
        bus.add_device(Arc::clone(&pf))?;
        Ok(Arc::new(PfDriver {
            admin: AdminQueue::new(
                clock.clone(),
                costs.admin_config_service,
                costs.admin_service,
            ),
            clock,
            bus,
            bus_no,
            pf,
            costs,
            vfs: TrackedMutex::new(LockClass::NicPf, Vec::new()),
            faults,
        }))
    }

    /// Link bring-up gate for `vf`, consulted by the guest VF driver
    /// after queue enablement. `fault_key` is the stable identity of the
    /// launching VM (its pid), keeping the injection schedule independent
    /// of VF assignment order. Injected failures model the link-negotiation
    /// timeouts SR-IOV deployments see under bursty VF churn.
    pub fn link_up(&self, vf: VfId, fault_key: u64) -> Result<()> {
        self.faults.check(sites::VF_LINK, fault_key)?;
        if !self.vf(vf)?.state().link_up {
            return Err(NicError::BadVfState {
                vf: vf.0,
                reason: "link not negotiated",
            });
        }
        Ok(())
    }

    /// The NIC's bus number.
    pub fn bus_no(&self) -> u8 {
        self.bus_no
    }

    /// The admin queue.
    pub fn admin(&self) -> &AdminQueue {
        &self.admin
    }

    /// One-time VF pre-creation (host boot, §2.3): configures the NIC
    /// hardware and registers `n` VF PCI functions. Time-consuming but
    /// outside the measured startup window.
    pub fn create_vfs(&self, n: u16) -> Result<Vec<Arc<Vf>>> {
        if !self.vfs.lock().is_empty() {
            return Err(NicError::VfsAlreadyCreated);
        }
        self.pf.set_num_vfs(n)?;
        // Built first and published after, so no lock is held across the
        // per-VF configuration time. A concurrent second call fails on
        // the VFs' PCI addresses, which the first has registered.
        let mut vfs = Vec::with_capacity(usize::from(n));
        for i in 0..n {
            let pci = PciDevice::new(
                vf_bdf(self.bus_no, i),
                DeviceClass::NetworkVf,
                ResetCapability::BusReset,
                None,
            );
            self.bus.add_device(Arc::clone(&pci))?;
            self.clock.sleep(self.costs.vf_precreate);
            vfs.push(Vf::new(VfId(i), pci));
        }
        self.vfs.lock().clone_from(&vfs);
        Ok(vfs)
    }

    /// Looks up a VF by index.
    pub fn vf(&self, id: VfId) -> Result<Arc<Vf>> {
        self.vfs
            .lock()
            .get(id.0 as usize)
            .cloned()
            .ok_or(NicError::NoSuchVf(id.0))
    }

    /// Number of created VFs.
    pub fn vf_count(&self) -> usize {
        self.vfs.lock().len()
    }

    /// Binds a VF to the VFIO driver (passthrough).
    pub fn bind_vfio(&self, id: VfId) -> Result<()> {
        let vf = self.vf(id)?;
        if vf.pci().driver() != DriverBinding::None {
            return Err(NicError::BadVfState {
                vf: id.0,
                reason: "already bound to a driver",
            });
        }
        self.clock.sleep(self.costs.bind_vfio);
        vf.pci().bind_driver(DriverBinding::Vfio);
        Ok(())
    }

    /// Creates a dummy Linux netdev carrying a VF's identity without
    /// binding the VF to any host driver (FastIOV CNI, §5).
    pub fn create_dummy_netdev(&self, id: VfId) -> Result<NetdevName> {
        let vf = self.vf(id)?;
        self.clock.sleep(self.costs.dummy_netdev);
        let name = NetdevName(format!("dummy-vf{}", id.0));
        vf.with_state(|s| s.netdev = Some(name.clone()));
        Ok(name)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PfStats {
        PfStats {
            vfs_created: self.vf_count(),
            admin_cmds: self.admin.submitted(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(total: u16) -> Arc<PfDriver> {
        let clock = Clock::new_virtual(1e-5);
        let bus = PciBus::new(
            clock.clone(),
            Duration::from_micros(10),
            Duration::from_millis(1),
        );
        let pf = PfDriver::new(
            clock,
            bus,
            3,
            256,
            PfCosts::for_tests(),
            FaultPlane::disabled(),
        )
        .unwrap();
        pf.create_vfs(total).unwrap();
        pf
    }

    #[test]
    fn vf_precreation_registers_pci_functions() {
        let pf = setup(16);
        assert_eq!(pf.vf_count(), 16);
        let pf_fn = pf.bus.device(fastiov_pci::Bdf::new(3, 0, 0)).unwrap();
        assert_eq!(pf_fn.sriov_cap().unwrap().num_vfs, 16);
        assert!(matches!(pf.create_vfs(4), Err(NicError::VfsAlreadyCreated)));
        assert!(matches!(pf.vf(VfId(99)), Err(NicError::NoSuchVf(99))));
    }

    #[test]
    fn vfio_bind_is_refused_twice() {
        let pf = setup(2);
        pf.bind_vfio(VfId(0)).unwrap();
        assert_eq!(pf.vf(VfId(0)).unwrap().pci().driver(), DriverBinding::Vfio);
        assert!(pf.bind_vfio(VfId(0)).is_err());
    }

    #[test]
    fn admin_queue_applies_commands() {
        let pf = setup(2);
        let vf = pf.vf(VfId(1)).unwrap();
        assert_eq!(
            pf.admin().submit(&vf, AdminCmd::SetMac(MacAddr::for_vf(1))),
            AdminReply::Ok
        );
        assert_eq!(
            pf.admin().submit(&vf, AdminCmd::EnableQueues),
            AdminReply::Ok
        );
        assert_eq!(
            pf.admin().submit(&vf, AdminCmd::QueryLink),
            AdminReply::Link { up: true }
        );
        let s = vf.state();
        assert!(s.queues_enabled && s.link_up);
        assert_eq!(s.mac, Some(MacAddr::for_vf(1)));
        assert_eq!(pf.stats().admin_cmds, 3);
    }

    #[test]
    fn reset_vf_clears_state() {
        let pf = setup(1);
        let vf = pf.vf(VfId(0)).unwrap();
        pf.admin().submit(&vf, AdminCmd::SetMac(MacAddr::for_vf(0)));
        pf.admin().submit(&vf, AdminCmd::EnableQueues);
        pf.admin().submit(&vf, AdminCmd::ResetVf);
        let s = vf.state();
        assert!(!s.queues_enabled && !s.link_up && s.mac.is_none());
    }

    #[test]
    fn admin_queue_serializes_concurrent_submitters() {
        let clock = Clock::new_virtual(1e-3);
        let bus = PciBus::new(
            clock.clone(),
            Duration::from_micros(10),
            Duration::from_millis(1),
        );
        let pf = PfDriver::new(
            clock.clone(),
            bus,
            3,
            256,
            PfCosts {
                admin_service: Duration::from_millis(1000),
                admin_config_service: Duration::from_millis(1000),
                ..PfCosts::for_tests()
            },
            FaultPlane::disabled(),
        )
        .unwrap();
        pf.create_vfs(8).unwrap();
        let t0 = clock.now();
        let handles: Vec<_> = (0..8u16)
            .map(|i| {
                let pf = Arc::clone(&pf);
                fastiov_simtime::spawn(&clock, format!("submit-{i}"), move || {
                    let vf = pf.vf(VfId(i)).unwrap();
                    pf.admin().submit(&vf, AdminCmd::EnableQueues);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // 8 commands of 1 s each, one at a time.
        assert_eq!(clock.now().duration_since(t0), Duration::from_secs(8));
        assert!(clock.is_virtual());
        // The first submitter finds the mailbox free; the other seven queue.
        let stats = LockClass::NicMailbox.stats();
        assert_eq!((stats.acquisitions, stats.contended), (8, 7));
    }
}
