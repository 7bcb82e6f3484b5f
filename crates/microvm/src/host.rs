//! The modelled server: every hardware and kernel component, assembled.

use crate::params::HostParams;
use crate::Result;
use fastiov_faults::FaultPlane;
use fastiov_hostmem::{MemCosts, PhysMemory};
use fastiov_iommu::Iommu;
use fastiov_nic::{DmaEngine, PfDriver};
use fastiov_pci::PciBus;
use fastiov_simtime::{Clock, CpuPool, FairShareBandwidth, LockClass, Tracer, TrackedMutex};
use fastiov_vfio::{DevsetManager, LockPolicy};
use fastiovd::Fastiovd;
use std::sync::Arc;

/// One modelled server, shared by every microVM of an experiment run.
pub struct Host {
    /// The parameter set this host was built from.
    pub params: HostParams,
    /// Simulation clock.
    pub clock: Clock,
    /// Host CPU cores.
    pub cpu: Arc<CpuPool>,
    /// Physical memory.
    pub mem: Arc<PhysMemory>,
    /// Shared memory bandwidth (zeroing, copies), processor-sharing.
    pub membw: Arc<FairShareBandwidth>,
    /// PCI topology.
    pub bus: Arc<PciBus>,
    /// The IOMMU.
    pub iommu: Arc<Iommu>,
    /// The VFIO driver core (lock policy fixed per run).
    pub vfio: Arc<DevsetManager>,
    /// The SR-IOV NIC's PF driver.
    pub pf: Arc<PfDriver>,
    /// The NIC DMA engine.
    pub dma: Arc<DmaEngine>,
    /// The NIC's port: the directly connected link to the peer server
    /// (§6.1's two-server testbed).
    pub wire: Arc<fastiov_nic::Wire>,
    /// The hypervisor interrupt relay (§2.1).
    pub irq: Arc<crate::irq::IrqRouter>,
    /// The FastIOV kernel module (always loaded; only used when a microVM
    /// runs with decoupled zeroing).
    pub fastiovd: Arc<Fastiovd>,
    /// virtioFS data-path bandwidth.
    pub virtiofs_bw: Arc<FairShareBandwidth>,
    /// Software (virtio-net) data-path bandwidth, shared host-wide.
    pub sw_net_bw: Arc<FairShareBandwidth>,
    /// The fault-injection plane shared by every instrumented layer.
    /// Disabled (a no-op) unless built via [`Host::with_faults`].
    pub faults: Arc<FaultPlane>,
    /// The per-launch span tracer of the host's clock (`clock.tracer()`),
    /// which every instrumented layer reaches through its clock. Created
    /// disabled; `fastiovctl observe`, the benchmark's traced runs and
    /// tests call `tracer.enable()` before launching.
    pub tracer: Tracer,
    /// The host-global virtiofsd lock serializing device setup.
    virtiofsd_lock: TrackedMutex<()>,
}

impl Host {
    /// PCI bus number the SR-IOV NIC sits on.
    pub(crate) const NIC_BUS: u8 = 3;

    /// Builds the server with the given VFIO lock policy and pre-creates
    /// all VFs (the one-time boot-phase work of §2.3, excluded from
    /// startup measurements).
    ///
    /// The host runs on a virtual clock whose driver is the calling
    /// thread: boot, like every later wave, costs only the simulator's CPU
    /// time.
    pub fn new(params: HostParams, vfio_policy: LockPolicy) -> Result<Arc<Self>> {
        Self::with_faults(params, vfio_policy, FaultPlane::disabled())
    }

    /// Builds the server with a fault-injection plane threaded through
    /// every instrumented layer (VFIO ioctls, DMA pin/map, scrub
    /// registration, VF link bring-up). With a disabled plane this is
    /// exactly [`Host::new`].
    pub fn with_faults(
        params: HostParams,
        vfio_policy: LockPolicy,
        faults: Arc<FaultPlane>,
    ) -> Result<Arc<Self>> {
        let clock = Clock::new_virtual(params.time_scale);
        let cpu = CpuPool::new(clock.clone(), params.host_cores);
        let membw =
            FairShareBandwidth::new(clock.clone(), params.membw_total, params.membw_stream_cap);
        let mem = PhysMemory::new(
            MemCosts {
                clock: clock.clone(),
                cpu: Arc::clone(&cpu),
                membw: Arc::clone(&membw),
                retrieval_per_batch: params.retrieval_per_batch,
                pin_per_page: params.pin_per_page,
            },
            params.page_size,
            params.total_frames(),
        );
        let bus = PciBus::new(clock.clone(), params.pci_cfg_access, params.pci_reset);
        let iommu = Iommu::new(
            clock.clone(),
            params.iommu_map_per_page,
            params.iommu_walk,
            params.iotlb_capacity,
        );
        let vfio = DevsetManager::new(
            Arc::clone(&bus),
            vfio_policy,
            params.vfio_open_overhead,
            Arc::clone(&faults),
        );
        let pf = PfDriver::new(
            clock.clone(),
            Arc::clone(&bus),
            Self::NIC_BUS,
            params.total_vfs,
            fastiov_nic::pf::PfCosts {
                vf_precreate: params.vf_precreate,
                bind_vfio: params.bind_vfio,
                dummy_netdev: params.dummy_netdev,
                admin_config_service: params.admin_config_service,
                admin_service: params.admin_service,
            },
            Arc::clone(&faults),
        )?;
        pf.create_vfs(params.total_vfs)?;
        let line = FairShareBandwidth::new(
            clock.clone(),
            params.nic_line_total,
            params.nic_line_stream_cap,
        );
        let irq = crate::irq::IrqRouter::new(clock.clone(), params.irq_relay);
        let sink = Arc::clone(&irq) as Arc<dyn fastiov_nic::InterruptSink>;
        let dma = DmaEngine::new(Arc::clone(&mem), line, Some(sink));
        let wire = fastiov_nic::Wire::new();
        let fastiovd = Fastiovd::new(clock.clone(), Arc::clone(&mem), Arc::clone(&faults));
        let virtiofs_bw = FairShareBandwidth::new(
            clock.clone(),
            params.virtiofs_total,
            params.virtiofs_stream_cap,
        );
        let sw_net_bw =
            FairShareBandwidth::new(clock.clone(), params.sw_net_total, params.sw_net_stream_cap);
        Ok(Arc::new(Host {
            params,
            cpu,
            mem,
            membw,
            bus,
            iommu,
            vfio,
            pf,
            dma,
            wire,
            irq,
            fastiovd,
            virtiofs_bw,
            sw_net_bw,
            faults,
            tracer: clock.tracer().clone(),
            clock,
            virtiofsd_lock: TrackedMutex::new(LockClass::Virtiofsd, ()),
        }))
    }

    /// Charges the virtioFS setup sequence for one microVM: baseline
    /// handshake, CPU work, and the serialized virtiofsd section.
    pub(crate) fn virtiofs_setup(&self) {
        self.clock.sleep(self.params.virtiofs_setup_base);
        self.cpu.run(self.params.virtiofs_setup_cpu);
        let _g = self.virtiofsd_lock.lock();
        self.clock.sleep(self.params.virtiofs_lock_hold);
    }

    /// Binds every VF to the VFIO driver and registers it with the devset
    /// manager — the one-time post-boot step of the fixed SR-IOV CNI (§5),
    /// which removes the upstream plugin's per-launch bind/rebind churn.
    pub fn prebind_all_vfs(&self) -> Result<()> {
        for i in 0..self.pf.vf_count() as u16 {
            let vf = self
                .pf
                .vf(fastiov_nic::VfId(i))
                .map_err(crate::VmmError::Nic)?;
            self.pf
                .bind_vfio(fastiov_nic::VfId(i))
                .map_err(crate::VmmError::Nic)?;
            self.vfio
                .register(Arc::clone(vf.pci()))
                .map_err(crate::VmmError::Vfio)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_builds_and_precreates_vfs() {
        let host = Host::new(HostParams::for_tests(), LockPolicy::Hierarchical).unwrap();
        assert_eq!(host.pf.vf_count(), 16);
        // PF + 16 VFs on the bus.
        assert_eq!(host.bus.device_count(), 17);
        assert_eq!(host.vfio.policy(), LockPolicy::Hierarchical);
        assert!(host.mem.stats().free_frames > 0);
    }

    #[test]
    fn boot_is_charged_to_the_clock_exactly() {
        let params = HostParams::paper();
        let vfs = u32::from(params.total_vfs);
        let boot = (params.vf_precreate + params.bind_vfio) * vfs;
        let host = Host::new(params, LockPolicy::Hierarchical).unwrap();
        host.prebind_all_vfs().unwrap();
        assert_eq!(host.clock.now().since_origin(), boot);
        assert_eq!(host.pf.vf_count(), 256);
        for i in 0..256 {
            let vf = host.pf.vf(fastiov_nic::VfId(i)).unwrap();
            assert_eq!(vf.pci().driver(), fastiov_pci::DriverBinding::Vfio);
            assert!(
                host.vfio.device(vf.pci().bdf()).is_ok(),
                "VF {i} unregistered"
            );
        }
        assert!(host.clock.is_virtual());
    }

    #[test]
    fn virtiofs_setup_serializes() {
        let mut p = HostParams::for_tests();
        p.virtiofs_setup_base = std::time::Duration::ZERO;
        p.virtiofs_setup_cpu = std::time::Duration::ZERO;
        p.virtiofs_lock_hold = std::time::Duration::from_secs(2);
        let host = Host::new(p, LockPolicy::Coarse).unwrap();
        let t0 = host.clock.now();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let h = Arc::clone(&host);
                fastiov_simtime::spawn(&host.clock, "setup", move || h.virtiofs_setup())
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // 4 × 2 s in the serialized virtiofsd section.
        let took = host.clock.now().duration_since(t0);
        assert_eq!(took, std::time::Duration::from_secs(8));
        assert!(host.clock.is_virtual());
    }
}
