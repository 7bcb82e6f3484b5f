//! virtioFS: the shared file system between host and microVM.
//!
//! File reads follow the paper's description (§4.3.2): the guest writes
//! the buffer address into the vring; the host backend fetches the
//! address, writes the file data into the shared buffer **through host
//! page tables**, and signals completion; the guest then reads the buffer
//! through the EPT. With FastIOV's decoupled zeroing, the guest frontend
//! must proactively EPT-fault the buffer pages *before* posting — the
//! `proactive_faults` flag selects between the correct FastIOV frontend
//! and the naive (corrupting) one, so tests can demonstrate both.

use crate::vring::{Descriptor, Vring};
use crate::{Result, VirtioError};
use fastiov_hostmem::{Gpa, Hva};
use fastiov_kvm::Vm;
use fastiov_simtime::FairShareBandwidth;
use fastiov_simtime::{LockClass, TrackedMutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters exposed by [`VirtioFs::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VirtioFsStats {
    /// File-read requests served.
    pub reads: u64,
    /// Bytes moved host→guest.
    pub bytes_read: u64,
}

/// The shared file system device of one microVM.
pub struct VirtioFs {
    vm: Arc<Vm>,
    ring: Vring,
    /// Host-side shared directory contents.
    files: TrackedMutex<HashMap<String, Arc<Vec<u8>>>>,
    /// Shared host↔guest copy bandwidth (the virtiofsd data path).
    bw: Arc<FairShareBandwidth>,
    /// FastIOV frontend behaviour: proactively EPT-fault buffer pages
    /// before posting them. Required for correctness under decoupled
    /// zeroing.
    proactive_faults: bool,
    reads: AtomicU64,
    bytes: AtomicU64,
}

impl VirtioFs {
    /// Creates the device with its ring at `ring_gpa`/`ring_hva`.
    pub fn new(
        vm: Arc<Vm>,
        ring_gpa: Gpa,
        ring_hva: Hva,
        bw: Arc<FairShareBandwidth>,
        proactive_faults: bool,
    ) -> Self {
        VirtioFs {
            ring: Vring::new(Arc::clone(&vm), ring_gpa, ring_hva),
            vm,
            files: TrackedMutex::new(LockClass::Virtio, HashMap::new()),
            bw,
            proactive_faults,
            reads: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Whether the frontend proactively faults buffers.
    pub fn proactive_faults(&self) -> bool {
        self.proactive_faults
    }

    /// Host side: exports a file into the shared directory.
    pub fn add_file(&self, name: &str, data: Vec<u8>) {
        self.files.lock().insert(name.to_string(), Arc::new(data));
    }

    /// Guest side: reads (a prefix of) `name` into guest memory at
    /// `buf_gpa`, returning the bytes transferred. This drives the full
    /// shared-buffer protocol, including the lazy-zeroing hazard.
    pub(crate) fn guest_read_file(&self, name: &str, buf_gpa: Gpa, buf_len: u32) -> Result<usize> {
        let data = self
            .files
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| VirtioError::NoSuchFile(name.to_string()))?;
        let n = data.len().min(buf_len as usize);

        // FastIOV frontend: fault the buffer pages *now*, so any lazy
        // zeroing happens before the host writes data into them.
        if self.proactive_faults {
            self.vm.proactive_fault(buf_gpa, n as u64)?;
        }

        // Guest posts the buffer address to the vring (guest-side write:
        // ring pages EPT-fault here, harmlessly).
        self.ring.guest_push(Descriptor {
            gpa: buf_gpa,
            len: buf_len,
        })?;

        // Host backend: fetch the descriptor, write the file bytes into
        // the shared buffer through host page tables (EPT bypassed).
        let desc = self.ring.host_peek()?;
        let hva = self.vm.gpa_to_hva(desc.gpa)?;
        let aspace = self.vm.address_space();
        let written = aspace.write(hva, &data[..n]);
        self.bw.transfer(n as u64);
        written?;
        self.ring.host_complete()?;

        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    /// Guest side: copies the buffer contents out through the EPT (what
    /// the application sees). Exposed separately so tests can observe
    /// corruption when `proactive_faults` is off.
    pub(crate) fn guest_read_buffer(&self, buf_gpa: Gpa, out: &mut [u8]) -> Result<()> {
        self.vm.read_gpa(buf_gpa, out)?;
        Ok(())
    }

    /// Convenience: full read + copy-out, returning the file bytes as the
    /// guest observes them.
    pub fn guest_read_to_vec(&self, name: &str, buf_gpa: Gpa, buf_len: u32) -> Result<Vec<u8>> {
        let n = self.guest_read_file(name, buf_gpa, buf_len)?;
        let mut out = vec![0u8; n];
        self.guest_read_buffer(buf_gpa, &mut out)?;
        Ok(out)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> VirtioFsStats {
        VirtioFsStats {
            reads: self.reads.load(Ordering::Relaxed),
            bytes_read: self.bytes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vring::VRING_BYTES;
    use fastiov_hostmem::{AddressSpace, MemCosts, PageSize, PhysMemory, Populate};
    use fastiov_kvm::Memslot;
    use fastiov_simtime::Clock;
    use fastiovd_testhook::lazy_zero_hook;
    use std::time::Duration;

    const PAGE: u64 = 2 * 1024 * 1024;

    /// Minimal stand-in for the fastiovd hook so this crate's tests can
    /// exercise the corruption scenario without depending on the real
    /// `fastiovd` crate (which sits above us in the dependency graph).
    mod fastiovd_testhook {
        use super::*;
        use fastiov_hostmem::{FrameRange, Hpa, PhysMemory};
        use fastiov_kvm::EptFaultHook;
        use parking_lot::Mutex;
        use std::collections::HashSet;

        pub struct MiniLazyZero {
            mem: Arc<PhysMemory>,
            tracked: Mutex<HashSet<u64>>,
        }

        impl EptFaultHook for MiniLazyZero {
            fn on_ept_fault(&self, _pid: u64, hpa: Hpa) -> bool {
                if self.tracked.lock().remove(&hpa.raw()) {
                    let frame = self.mem.frame_of(hpa).expect("tracked frame");
                    return self.mem.zero_frame(frame).unwrap_or(false);
                }
                false
            }
        }

        /// A hook that zeroes each page of `ranges` on its first fault.
        #[expect(clippy::disallowed_methods, reason = "test: a stand-in daemon's lock")]
        pub fn lazy_zero_hook(
            mem: &Arc<PhysMemory>,
            ranges: &[FrameRange],
        ) -> Arc<dyn EptFaultHook> {
            let tracked = ranges
                .iter()
                .flat_map(|r| r.iter())
                .map(|f| mem.hpa_of(f).raw())
                .collect();
            Arc::new(MiniLazyZero {
                mem: Arc::clone(mem),
                tracked: Mutex::new(tracked),
            })
        }
    }

    struct Setup {
        mem: Arc<PhysMemory>,
        vm: Arc<Vm>,
        ram_hva: Hva,
    }

    fn setup() -> Setup {
        setup_with(false)
    }

    /// With `lazy`, guest RAM is allocated up front without zeroing, as
    /// VFIO's DMA map does, and every page is left to the lazy-zero hook.
    fn setup_with(lazy: bool) -> Setup {
        let clock = Clock::new_virtual(1e-5);
        let mem = PhysMemory::new(MemCosts::for_tests(clock.clone()), PageSize::Size2M, 64);
        let aspace = AddressSpace::new(9, Arc::clone(&mem));
        let ram_hva = aspace.mmap(16 * PAGE).unwrap();
        let hook = lazy.then(|| {
            let ranges = aspace
                .populate_range(ram_hva, 16 * PAGE, Populate::AllocOnly)
                .unwrap();
            lazy_zero_hook(&mem, &ranges)
        });
        let vm = Vm::new(clock, Arc::clone(&aspace), Duration::from_micros(10), hook);
        vm.set_memslot(Memslot {
            gpa: Gpa(0),
            len: 16 * PAGE,
            hva: ram_hva,
        })
        .unwrap();
        Setup { mem, vm, ram_hva }
    }

    // Compile-time layout check: the ring must fit in one page.
    const _: () = assert!(VRING_BYTES <= PAGE);

    fn make_fs(s: &Setup, proactive: bool) -> VirtioFs {
        let bw = FairShareBandwidth::new(s.mem.costs().clock.clone(), 64e9, 8e9);
        VirtioFs::new(Arc::clone(&s.vm), Gpa(0), s.ram_hva, bw, proactive)
    }

    #[test]
    fn read_file_round_trips_with_eager_zeroing() {
        // Vanilla path: everything zeroed at map time, no hook installed.
        let s = setup();
        let fs = make_fs(&s, false);
        let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        fs.add_file("input.bin", payload.clone());
        let got = fs
            .guest_read_to_vec("input.bin", Gpa(4 * PAGE), 8192)
            .unwrap();
        assert_eq!(got, payload);
        assert_eq!(fs.stats().reads, 1);
        assert_eq!(fs.stats().bytes_read, 4096);
    }

    #[test]
    fn naive_lazy_zeroing_corrupts_shared_buffer_reads() {
        // Decoupled zeroing with a *naive* frontend: the EPT fault taken on
        // the guest's first read of the buffer zeroes the host-written
        // data. This is the §4.3.2 failure FastIOV must prevent.
        // VFIO-style eager allocation without zeroing, pages tracked.
        let s = setup_with(true);
        let fs = make_fs(&s, /* proactive = */ false);
        let payload = vec![0xabu8; 1024];
        fs.add_file("data", payload);
        let got = fs.guest_read_to_vec("data", Gpa(4 * PAGE), 1024).unwrap();
        assert_eq!(got, vec![0u8; 1024], "data wiped by fault-time zeroing");
    }

    #[test]
    fn proactive_faults_preserve_shared_buffer_reads() {
        // Same setup, FastIOV frontend: buffer pages are faulted (and
        // zeroed) *before* the host writes, so the data survives.
        let s = setup_with(true);
        let fs = make_fs(&s, /* proactive = */ true);
        let payload: Vec<u8> = (0..1024u32).map(|i| (i * 7 % 255) as u8 + 1).collect();
        fs.add_file("data", payload.clone());
        let got = fs.guest_read_to_vec("data", Gpa(4 * PAGE), 1024).unwrap();
        assert_eq!(got, payload);
    }

    #[test]
    fn missing_file_is_reported() {
        let s = setup();
        let fs = make_fs(&s, true);
        assert!(matches!(
            fs.guest_read_file("nope", Gpa(4 * PAGE), 64),
            Err(VirtioError::NoSuchFile(_))
        ));
    }

    #[test]
    fn read_truncates_to_buffer_len() {
        let s = setup();
        let fs = make_fs(&s, true);
        fs.add_file("big", vec![5u8; 10_000]);
        let got = fs.guest_read_to_vec("big", Gpa(4 * PAGE), 100).unwrap();
        assert_eq!(got.len(), 100);
        assert!(got.iter().all(|&b| b == 5));
    }
}
