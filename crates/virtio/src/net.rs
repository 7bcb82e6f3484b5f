//! virtio-net: the emulated NIC used by software CNIs.
//!
//! Software CNIs (IPvtap, Flannel-style) give the microVM a
//! para-virtualized NIC instead of a passthrough VF (§6.4): no VFIO, no
//! DMA mapping, but every packet crosses the host kernel. The data path
//! here reuses the shared-buffer discipline of [`crate::fs`], including
//! the proactive-fault requirement under decoupled zeroing.

use crate::vring::{Descriptor, Vring};
use crate::Result;
use fastiov_hostmem::{Gpa, Hva};
use fastiov_kvm::Vm;
use fastiov_simtime::FairShareBandwidth;
use fastiov_simtime::{LockClass, TrackedCondvar, TrackedMutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The emulated NIC of one microVM.
pub struct VirtioNet {
    vm: Arc<Vm>,
    ring: Vring,
    /// Host-side emulation bandwidth (lower than SR-IOV line rate: the
    /// software data plane tax).
    bw: Arc<FairShareBandwidth>,
    proactive_faults: bool,
    /// Buffers the guest driver has prepared, in posting order, with
    /// completions signalled through a condvar.
    completions: TrackedMutex<VecDeque<(Gpa, usize)>>,
    cv: TrackedCondvar,
    rx_packets: AtomicU64,
}

impl VirtioNet {
    /// Creates the device with its ring at `ring_gpa`/`ring_hva`.
    pub fn new(
        vm: Arc<Vm>,
        ring_gpa: Gpa,
        ring_hva: Hva,
        bw: Arc<FairShareBandwidth>,
        proactive_faults: bool,
    ) -> Self {
        VirtioNet {
            ring: Vring::new(Arc::clone(&vm), ring_gpa, ring_hva),
            vm,
            bw,
            proactive_faults,
            completions: TrackedMutex::new(LockClass::Virtio, VecDeque::new()),
            cv: TrackedCondvar::new(),
            rx_packets: AtomicU64::new(0),
        }
    }

    /// Guest driver: posts an RX buffer.
    pub fn guest_post_rx(&self, buf_gpa: Gpa, len: u32) -> Result<()> {
        if self.proactive_faults {
            self.vm.proactive_fault(buf_gpa, len as u64)?;
        }
        self.ring.guest_push(Descriptor { gpa: buf_gpa, len })
    }

    /// Host side: delivers a packet into the next posted buffer and
    /// signals the guest. Returns the bytes written.
    pub fn host_deliver(&self, data: &[u8]) -> Result<usize> {
        let desc = self.ring.host_peek()?;
        let n = data.len().min(desc.len as usize);
        let hva = self.vm.gpa_to_hva(desc.gpa)?;
        let aspace = self.vm.address_space();
        let written = aspace.write(hva, &data[..n]);
        self.bw.transfer(n as u64);
        written?;
        self.ring.host_complete()?;
        self.completions.lock().push_back((desc.gpa, n));
        self.cv.notify_all();
        self.rx_packets.fetch_add(1, Ordering::Relaxed);
        Ok(n)
    }

    /// Guest driver: waits for the next received packet and copies it out
    /// through the EPT.
    pub fn guest_recv(&self, out: &mut [u8]) -> Result<usize> {
        let (gpa, n) = {
            let mut c = self.completions.lock();
            loop {
                if let Some(x) = c.pop_front() {
                    break x;
                }
                self.cv.wait(&mut c);
            }
        };
        let n = n.min(out.len());
        self.vm.read_gpa(gpa, &mut out[..n])?;
        Ok(n)
    }

    /// Packets delivered so far.
    pub fn rx_packets(&self) -> u64 {
        self.rx_packets.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastiov_hostmem::{AddressSpace, MemCosts, PageSize, PhysMemory};
    use fastiov_kvm::Memslot;
    use fastiov_simtime::Clock;
    use std::time::Duration;

    const PAGE: u64 = 2 * 1024 * 1024;

    fn setup() -> (Arc<Vm>, VirtioNet) {
        let clock = Clock::new_virtual(1e-5);
        let mem = PhysMemory::new(MemCosts::for_tests(clock.clone()), PageSize::Size2M, 64);
        let aspace = AddressSpace::new(3, mem);
        let vm = Vm::new(
            clock.clone(),
            Arc::clone(&aspace),
            Duration::from_micros(10),
            None,
        );
        let hva = aspace.mmap(8 * PAGE).unwrap();
        vm.set_memslot(Memslot {
            gpa: Gpa(0),
            len: 8 * PAGE,
            hva,
        })
        .unwrap();
        let bw = FairShareBandwidth::new(clock, 4e9, 1e9);
        let net = VirtioNet::new(Arc::clone(&vm), Gpa(0), hva, bw, true);
        (vm, net)
    }

    #[test]
    fn packet_round_trip() {
        let (_, net) = setup();
        net.guest_post_rx(Gpa(4 * PAGE), 1500).unwrap();
        let pkt: Vec<u8> = (0..100u8).collect();
        assert_eq!(net.host_deliver(&pkt).unwrap(), 100);
        let mut out = vec![0u8; 100];
        assert_eq!(net.guest_recv(&mut out).unwrap(), 100);
        assert_eq!(out, pkt);
        assert_eq!(net.rx_packets(), 1);
    }

    #[test]
    fn deliver_without_buffer_fails() {
        let (_, net) = setup();
        assert!(net.host_deliver(&[1, 2, 3]).is_err());
    }

    #[test]
    fn multiple_packets_in_order() {
        let (_, net) = setup();
        for i in 0..4u8 {
            net.guest_post_rx(Gpa(4 * PAGE + i as u64 * 4096), 4096)
                .unwrap();
        }
        for i in 0..4u8 {
            net.host_deliver(&[i; 8]).unwrap();
        }
        for i in 0..4u8 {
            let mut out = [0u8; 8];
            net.guest_recv(&mut out).unwrap();
            assert_eq!(out, [i; 8]);
        }
    }
}
