//! Guest-side components: the VF network driver and the in-guest agent.
//!
//! VF driver initialization (§3.2.4) is a two-step process: the NIC
//! driver inside the microVM enumerates the PCI device, registers it as a
//! Linux network interface, configures it through the PF admin queue, and
//! updates its link status; then the secure-container agent assigns MAC
//! and IP addresses. Only after all of that is the interface usable.
//! FastIOV executes this asynchronously with container launch (§4.2.2).

use crate::params::HostParams;
use crate::{Result, VmmError};
use fastiov_faults::{sites, FaultPlane};
use fastiov_hostmem::Gpa;
use fastiov_kvm::Vm;
use fastiov_nic::{AdminCmd, MacAddr, PfDriver, VfId};
use fastiov_simtime::Clock;
use fastiov_simtime::{LockClass, TrackedCondvar, TrackedMutex};
use std::sync::Arc;

/// Observable state of the guest network interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuestNetState {
    /// Initialization has not finished.
    Initializing,
    /// Interface up, MAC/IP assigned.
    Ready,
    /// Initialization failed.
    Failed(String),
}

/// Shared flag the agent (and waiting applications) poll.
pub struct NetReadiness {
    state: TrackedMutex<GuestNetState>,
    cv: TrackedCondvar,
}

impl NetReadiness {
    /// Creates the flag in the `Initializing` state.
    pub fn new() -> Arc<Self> {
        Arc::new(NetReadiness {
            state: TrackedMutex::new(LockClass::GuestNet, GuestNetState::Initializing),
            cv: TrackedCondvar::new(),
        })
    }

    /// Marks the interface ready.
    pub(crate) fn set_ready(&self) {
        *self.state.lock() = GuestNetState::Ready;
        self.cv.notify_all();
    }

    /// Marks initialization failed.
    pub(crate) fn set_failed(&self, why: String) {
        *self.state.lock() = GuestNetState::Failed(why);
        self.cv.notify_all();
    }

    /// Blocks until the interface is ready (or failed).
    pub fn wait(&self) -> Result<()> {
        let mut st = self.state.lock();
        loop {
            match &*st {
                GuestNetState::Ready => return Ok(()),
                GuestNetState::Failed(why) => {
                    return Err(VmmError::GuestCrash {
                        detail: format!("VF driver init failed: {why}"),
                    })
                }
                GuestNetState::Initializing => self.cv.wait(&mut st),
            }
        }
    }
}

/// The guest's VF network driver.
pub struct GuestVfDriver {
    clock: Clock,
    vm: Arc<Vm>,
    pf: Arc<PfDriver>,
    dma: Arc<fastiov_nic::DmaEngine>,
    vf: VfId,
    /// Guest-physical base of the driver's RX buffer area.
    rx_gpa: Gpa,
    /// Stable identity of the owning pod — the fault-injection key, so
    /// injected VF-link faults don't depend on VF allocation order.
    pid: u64,
    readiness: Arc<NetReadiness>,
}

impl GuestVfDriver {
    /// Creates the driver instance (not yet initialized).
    pub fn new(
        clock: Clock,
        vm: Arc<Vm>,
        pf: Arc<PfDriver>,
        dma: Arc<fastiov_nic::DmaEngine>,
        vf: VfId,
        rx_gpa: Gpa,
        pid: u64,
    ) -> Self {
        GuestVfDriver {
            clock,
            vm,
            pf,
            dma,
            vf,
            rx_gpa,
            pid,
            readiness: NetReadiness::new(),
        }
    }

    /// The readiness flag applications wait on.
    pub fn readiness(&self) -> Arc<NetReadiness> {
        Arc::clone(&self.readiness)
    }

    /// Runs the full two-step initialization (§3.2.4), leaving the
    /// interface ready. On error the readiness flag carries the failure.
    ///
    /// An injected transient VF-link fault is retried once in place — the
    /// driver re-runs the whole sequence, modelling the guest driver's
    /// reset-and-reprobe path — before the failure is declared.
    pub fn initialize(
        &self,
        host_cpu: &fastiov_simtime::CpuPool,
        params: &HostParams,
        faults: &FaultPlane,
    ) {
        match self.try_initialize(host_cpu, params) {
            Ok(()) => self.readiness.set_ready(),
            Err(first) if first.injected().is_some() => {
                faults.note_retry(sites::VF_LINK);
                match self.try_initialize(host_cpu, params) {
                    Ok(()) => self.readiness.set_ready(),
                    Err(e) => self.readiness.set_failed(e.to_string()),
                }
            }
            Err(e) => self.readiness.set_failed(e.to_string()),
        }
    }

    fn try_initialize(
        &self,
        host_cpu: &fastiov_simtime::CpuPool,
        params: &HostParams,
    ) -> Result<()> {
        // Step 1a: guest PCI enumeration identifies the VF.
        host_cpu.run(params.guest_pci_enum);
        // Step 1b: register as a Linux network interface.
        host_cpu.run(params.netif_register);
        // Step 1c: configure the device through the PF admin queue — the
        // serialized mailbox that dominates under compressed arrivals.
        let vf = self.pf.vf(self.vf)?;
        self.pf.admin().submit(&vf, AdminCmd::EnableQueues);
        // Step 1d: link status propagation.
        self.clock.sleep(params.link_update);
        self.pf.admin().submit(&vf, AdminCmd::QueryLink);
        self.pf.link_up(self.vf, self.pid).map_err(VmmError::Nic)?;
        // Step 1e: the driver zeroes its freshly allocated DMA ring
        // buffers through guest writes — this is what EPT-faults the ring
        // pages and keeps NIC DMA safe under decoupled zeroing even
        // without driver changes (§7).
        let zeros = vec![0u8; params.rx_buffer_bytes];
        for i in 0..params.rx_ring_buffers {
            let gpa = Gpa(self.rx_gpa.raw() + (i * params.rx_buffer_bytes) as u64);
            self.vm.write_gpa(gpa, &zeros)?;
            self.dma
                .post_rx_buffer(self.vf, gpa.as_identity_iova(), params.rx_buffer_bytes)?;
        }
        // Step 2: the agent assigns MAC and IP addresses.
        self.clock.sleep(params.agent_assign);
        let vf_ref = self.pf.vf(self.vf)?;
        self.pf
            .admin()
            .submit(&vf_ref, AdminCmd::SetMac(MacAddr::for_vf(self.vf.0)));
        Ok(())
    }

    /// The VF this driver manages.
    pub fn vf(&self) -> VfId {
        self.vf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readiness_transitions() {
        let clock = Clock::new_virtual(1.0);
        let r = NetReadiness::new();
        let (r2, c) = (Arc::clone(&r), clock.clone());
        let waiter = fastiov_simtime::spawn(&clock, "waiter", move || {
            r2.wait().map(|()| c.now().since_origin())
        });
        // The waiter runs while this thread sleeps, and blocks until the
        // interface is ready.
        let ready_at = std::time::Duration::from_millis(5);
        clock.sleep(ready_at);
        r.set_ready();
        assert_eq!(waiter.join().unwrap().unwrap(), ready_at);
        r.wait().unwrap();
    }

    #[test]
    fn failed_readiness_propagates_error() {
        let r = NetReadiness::new();
        r.set_failed("no link".into());
        let e = r.wait().unwrap_err();
        assert!(matches!(e, VmmError::GuestCrash { .. }));
    }
}
