//! KVM model: memory slots, the EPT, and the fault path FastIOV hooks.
//!
//! Guest physical memory accesses translate GPA→HPA through the EPT
//! (§2.2). EPT entries are built lazily: the first access to a guest page
//! takes an **EPT violation** into KVM, which resolves GPA→HVA through
//! the memslots, HVA→HPA through the host MMU (faulting the host page in
//! if necessary), and installs the entry (§4.3.2, Fig. 9, steps ③–⑥).
//!
//! FastIOV's decoupled zeroing lives exactly on this path: an
//! [`EptFaultHook`] is invoked with the resolved HPA *before* the entry
//! is installed, giving `fastiovd` the chance to zero a
//! deferred-registration page on the guest's first touch — and only then.
//! Subsequent accesses hit the installed entry and bypass the hook, which
//! is why the steady-state overhead is negligible (§6.5).

#![warn(missing_docs)]

use fastiov_hostmem::{AddressSpace, Gpa, Hpa, Hva, MemError, PageSize};
use fastiov_iommu::table::IoPageTable;
use fastiov_simtime::Clock;
use fastiov_simtime::{LockClass, TrackedMutex};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Errors from the KVM model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvmError {
    /// GPA outside every memslot.
    NoMemslot(Gpa),
    /// Overlapping memslot registration.
    SlotOverlap(Gpa),
    /// Underlying host memory error.
    Mem(MemError),
}

impl fmt::Display for KvmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvmError::NoMemslot(g) => write!(f, "no memslot covers {g}"),
            KvmError::SlotOverlap(g) => write!(f, "memslot at {g} overlaps an existing slot"),
            KvmError::Mem(e) => write!(f, "memory: {e}"),
        }
    }
}

impl std::error::Error for KvmError {}

impl From<MemError> for KvmError {
    fn from(e: MemError) -> Self {
        KvmError::Mem(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, KvmError>;

/// Observer of EPT faults, called with the resolved HPA page base before
/// the EPT entry is installed. Returns `true` if it zeroed the page.
pub trait EptFaultHook: Send + Sync {
    /// Invoked once per first-touch of a guest page.
    fn on_ept_fault(&self, pid: u64, hpa_page: Hpa) -> bool;
}

/// A GPA→HVA memory slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Memslot {
    /// Guest-physical base.
    pub gpa: Gpa,
    /// Length in bytes.
    pub len: u64,
    /// Host-virtual base in the hypervisor process.
    pub hva: Hva,
}

/// Counters exposed by [`Vm::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmStats {
    /// EPT violations taken (first touches).
    pub ept_faults: u64,
    /// Faults in which the hook zeroed the page.
    pub hook_zeroed: u64,
    /// EPT entries currently installed.
    pub ept_entries: usize,
}

/// The memslots and the EPT, behind one lock.
struct VmState {
    slots: Vec<Memslot>,
    ept: IoPageTable,
}

/// One guest's KVM state.
pub struct Vm {
    pid: u64,
    clock: Clock,
    aspace: Arc<AddressSpace>,
    page: PageSize,
    /// Charged per EPT violation (vm-exit + resolve + install).
    fault_latency: Duration,
    /// Never held across a blocking point or the fault hook.
    state: TrackedMutex<VmState>,
    hook: Option<Arc<dyn EptFaultHook>>,
    faults: AtomicU64,
    hook_zeroed: AtomicU64,
}

impl Vm {
    /// Creates a VM for the hypervisor process behind `aspace`. `hook`,
    /// if given, sees every EPT violation before its entry is installed
    /// (the `fastiovd` lazy-zeroing entry point).
    pub fn new(
        clock: Clock,
        aspace: Arc<AddressSpace>,
        fault_latency: Duration,
        hook: Option<Arc<dyn EptFaultHook>>,
    ) -> Arc<Self> {
        let page = aspace.memory().page_size();
        Arc::new(Vm {
            pid: aspace.pid(),
            clock,
            aspace,
            page,
            fault_latency,
            state: TrackedMutex::new(
                LockClass::KvmVm,
                VmState {
                    slots: Vec::new(),
                    ept: IoPageTable::new(),
                },
            ),
            hook,
            faults: AtomicU64::new(0),
            hook_zeroed: AtomicU64::new(0),
        })
    }

    /// Hypervisor process id (the guest's identity for `fastiovd`).
    pub fn pid(&self) -> u64 {
        self.pid
    }

    /// The hypervisor address space.
    pub fn address_space(&self) -> &Arc<AddressSpace> {
        &self.aspace
    }

    /// Registers a GPA→HVA slot.
    pub fn set_memslot(&self, slot: Memslot) -> Result<()> {
        let slots = &mut self.state.lock().slots;
        for s in slots.iter() {
            let disjoint =
                slot.gpa.raw() + slot.len <= s.gpa.raw() || s.gpa.raw() + s.len <= slot.gpa.raw();
            if !disjoint {
                return Err(KvmError::SlotOverlap(slot.gpa));
            }
        }
        slots.push(slot);
        Ok(())
    }

    /// Translates a GPA to the hypervisor HVA via the memslots.
    pub fn gpa_to_hva(&self, gpa: Gpa) -> Result<Hva> {
        for s in &self.state.lock().slots {
            if gpa.raw() >= s.gpa.raw() && gpa.raw() < s.gpa.raw() + s.len {
                return Ok(Hva(s.hva.raw() + (gpa.raw() - s.gpa.raw())));
            }
        }
        Err(KvmError::NoMemslot(gpa))
    }

    fn page_no(&self, gpa: Gpa) -> u64 {
        gpa.raw() / self.page.bytes()
    }

    /// Resolves the EPT entry for the page containing `gpa`, taking an EPT
    /// violation (Fig. 9 ③–⑥) on first touch. Returns the page-base HPA.
    pub fn ept_resolve(&self, gpa: Gpa) -> Result<Hpa> {
        let page = self.page_no(gpa);
        if let Some(hpa) = self.state.lock().ept.lookup(page) {
            return Ok(hpa);
        }
        // EPT violation: vm-exit into KVM.
        self.faults.fetch_add(1, Ordering::Relaxed);
        self.clock.sleep(self.fault_latency);
        let page_gpa = Gpa(page * self.page.bytes());
        let hva = self.gpa_to_hva(page_gpa)?;
        // Host-side fault if the page is not yet populated (the non-SR-IOV
        // path: allocate + zero on demand).
        let hpa = match self.aspace.translate(hva) {
            Ok(h) => h,
            Err(MemError::NotMapped(_)) => {
                self.aspace.touch(hva, 1)?;
                self.aspace.translate(hva)?
            }
            Err(e) => return Err(e.into()),
        };
        // FastIOV hook: lazy zeroing happens here, before the entry goes
        // live.
        if let Some(hook) = &self.hook {
            if hook.on_ept_fault(self.pid, hpa) {
                self.hook_zeroed.fetch_add(1, Ordering::Relaxed);
            }
        }
        // A racing fault may have installed it; that is fine.
        let _ = self.state.lock().ept.map(page, hpa);
        Ok(hpa)
    }

    /// Reads guest-physical memory through the EPT.
    pub fn read_gpa(&self, gpa: Gpa, buf: &mut [u8]) -> Result<()> {
        let page_bytes = self.page.bytes();
        let mut cursor = 0u64;
        while cursor < buf.len() as u64 {
            let a = Gpa(gpa.raw() + cursor);
            let base = self.ept_resolve(a)?;
            let off = a.page_offset(page_bytes);
            let chunk = (page_bytes - off).min(buf.len() as u64 - cursor);
            self.aspace.memory().read_phys(
                Hpa(base.raw() + off),
                &mut buf[cursor as usize..(cursor + chunk) as usize],
            )?;
            cursor += chunk;
        }
        Ok(())
    }

    /// Writes guest-physical memory through the EPT.
    pub fn write_gpa(&self, gpa: Gpa, data: &[u8]) -> Result<()> {
        let page_bytes = self.page.bytes();
        let mut cursor = 0u64;
        while cursor < data.len() as u64 {
            let a = Gpa(gpa.raw() + cursor);
            let base = self.ept_resolve(a)?;
            let off = a.page_offset(page_bytes);
            let chunk = (page_bytes - off).min(data.len() as u64 - cursor);
            self.aspace.memory().write_phys(
                Hpa(base.raw() + off),
                &data[cursor as usize..(cursor + chunk) as usize],
            )?;
            cursor += chunk;
        }
        Ok(())
    }

    /// Proactively touches every page of `[gpa, gpa+len)` so that EPT
    /// faults (and hence lazy zeroing) happen *now* — FastIOV's fix for
    /// para-virtualized shared buffers (§4.3.2): the guest frontend reads
    /// the first byte of each page before posting the buffer address to
    /// the vring.
    pub fn proactive_fault(&self, gpa: Gpa, len: u64) -> Result<()> {
        let page_bytes = self.page.bytes();
        let first = gpa.align_down(page_bytes);
        let mut p = first;
        while p.raw() < gpa.raw() + len.max(1) {
            self.ept_resolve(p)?;
            p = Gpa(p.raw() + page_bytes);
        }
        Ok(())
    }

    /// Drops every EPT entry covering `[gpa, gpa+len)` so the next guest
    /// access takes a fresh EPT violation — and therefore re-runs the
    /// fault hook. This is the recycle path's re-arming step: after the
    /// backing frames are re-registered with the lazy-zeroing daemon, the
    /// stale entries must go or the guest would bypass the hook and read
    /// whatever the previous tenant left. Returns the number of entries
    /// removed.
    pub fn clear_ept_range(&self, gpa: Gpa, len: u64) -> usize {
        let first = self.page_no(gpa);
        let last = self.page_no(Gpa(gpa.raw() + len.max(1) - 1));
        let ept = &mut self.state.lock().ept;
        let mut removed = 0;
        for page in first..=last {
            if ept.unmap(page).is_ok() {
                removed += 1;
            }
        }
        removed
    }

    /// True if the page containing `gpa` already has an EPT entry.
    pub fn ept_present(&self, gpa: Gpa) -> bool {
        self.state.lock().ept.lookup(self.page_no(gpa)).is_some()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> VmStats {
        VmStats {
            ept_faults: self.faults.load(Ordering::Relaxed),
            hook_zeroed: self.hook_zeroed.load(Ordering::Relaxed),
            ept_entries: self.state.lock().ept.entries(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastiov_hostmem::{MemCosts, PhysMemory, Populate};

    const PAGE: u64 = 2 * 1024 * 1024;

    fn setup() -> (Arc<PhysMemory>, Arc<AddressSpace>, Arc<Vm>) {
        setup_with(None)
    }

    fn setup_with(
        hook: Option<Arc<dyn EptFaultHook>>,
    ) -> (Arc<PhysMemory>, Arc<AddressSpace>, Arc<Vm>) {
        let clock = Clock::new_virtual(1e-5);
        let mem = PhysMemory::new(MemCosts::for_tests(clock.clone()), PageSize::Size2M, 128);
        let aspace = AddressSpace::new(11, Arc::clone(&mem));
        let vm = Vm::new(clock, Arc::clone(&aspace), Duration::from_micros(20), hook);
        (mem, aspace, vm)
    }

    #[test]
    fn memslot_translation() {
        let (_, aspace, vm) = setup();
        let hva = aspace.mmap(4 * PAGE).unwrap();
        vm.set_memslot(Memslot {
            gpa: Gpa(0),
            len: 4 * PAGE,
            hva,
        })
        .unwrap();
        assert_eq!(
            vm.gpa_to_hva(Gpa(PAGE + 5)).unwrap(),
            Hva(hva.raw() + PAGE + 5)
        );
        assert!(matches!(
            vm.gpa_to_hva(Gpa(100 * PAGE)),
            Err(KvmError::NoMemslot(_))
        ));
    }

    #[test]
    fn overlapping_memslots_rejected() {
        let (_, aspace, vm) = setup();
        let hva = aspace.mmap(4 * PAGE).unwrap();
        vm.set_memslot(Memslot {
            gpa: Gpa(0),
            len: 2 * PAGE,
            hva,
        })
        .unwrap();
        assert!(matches!(
            vm.set_memslot(Memslot {
                gpa: Gpa(PAGE),
                len: 2 * PAGE,
                hva,
            }),
            Err(KvmError::SlotOverlap(_))
        ));
    }

    #[test]
    fn first_touch_faults_then_hits() {
        let (_, aspace, vm) = setup();
        let hva = aspace.mmap(2 * PAGE).unwrap();
        vm.set_memslot(Memslot {
            gpa: Gpa(0),
            len: 2 * PAGE,
            hva,
        })
        .unwrap();
        let mut buf = [0u8; 8];
        vm.read_gpa(Gpa(5), &mut buf).unwrap();
        assert_eq!(vm.stats().ept_faults, 1);
        vm.read_gpa(Gpa(100), &mut buf).unwrap();
        assert_eq!(vm.stats().ept_faults, 1, "second access hits the EPT");
        assert!(vm.ept_present(Gpa(0)));
        assert!(!vm.ept_present(Gpa(PAGE)));
    }

    #[test]
    fn unpopulated_page_is_host_faulted_and_zeroed() {
        // The non-SR-IOV path: nothing populated up front, guest touch
        // allocates and zeroes.
        let (mem, aspace, vm) = setup();
        let hva = aspace.mmap(2 * PAGE).unwrap();
        vm.set_memslot(Memslot {
            gpa: Gpa(0),
            len: 2 * PAGE,
            hva,
        })
        .unwrap();
        let mut buf = [0xffu8; 16];
        vm.read_gpa(Gpa(PAGE), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(mem.stats().free_frames, 127);
    }

    #[test]
    fn guest_write_read_round_trip_across_pages() {
        let (_, aspace, vm) = setup();
        let hva = aspace.mmap(4 * PAGE).unwrap();
        vm.set_memslot(Memslot {
            gpa: Gpa(0),
            len: 4 * PAGE,
            hva,
        })
        .unwrap();
        let data: Vec<u8> = (0..32).collect();
        vm.write_gpa(Gpa(PAGE - 16), &data).unwrap();
        let mut buf = vec![0u8; 32];
        vm.read_gpa(Gpa(PAGE - 16), &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(vm.stats().ept_faults, 2);
    }

    struct CountingHook(AtomicU64);

    impl EptFaultHook for CountingHook {
        fn on_ept_fault(&self, _pid: u64, _hpa: Hpa) -> bool {
            self.0.fetch_add(1, Ordering::Relaxed);
            true
        }
    }

    #[test]
    fn hook_fires_once_per_page() {
        let hook = Arc::new(CountingHook(AtomicU64::new(0)));
        let (_, aspace, vm) = setup_with(Some(Arc::clone(&hook) as Arc<dyn EptFaultHook>));
        let hva = aspace.mmap(4 * PAGE).unwrap();
        // Pre-populate as the VFIO path would (no zeroing).
        aspace
            .populate_range(hva, 4 * PAGE, Populate::AllocOnly)
            .unwrap();
        vm.set_memslot(Memslot {
            gpa: Gpa(0),
            len: 4 * PAGE,
            hva,
        })
        .unwrap();
        let mut buf = [0u8; 1];
        for _ in 0..3 {
            vm.read_gpa(Gpa(0), &mut buf).unwrap();
        }
        vm.read_gpa(Gpa(PAGE), &mut buf).unwrap();
        assert_eq!(hook.0.load(Ordering::Relaxed), 2);
        assert_eq!(vm.stats().hook_zeroed, 2);
    }

    #[test]
    fn clear_ept_range_rearms_faults_and_hook() {
        let hook = Arc::new(CountingHook(AtomicU64::new(0)));
        let (_, aspace, vm) = setup_with(Some(Arc::clone(&hook) as Arc<dyn EptFaultHook>));
        let hva = aspace.mmap(4 * PAGE).unwrap();
        aspace
            .populate_range(hva, 4 * PAGE, Populate::AllocOnly)
            .unwrap();
        vm.set_memslot(Memslot {
            gpa: Gpa(0),
            len: 4 * PAGE,
            hva,
        })
        .unwrap();
        vm.proactive_fault(Gpa(0), 4 * PAGE).unwrap();
        assert_eq!(hook.0.load(Ordering::Relaxed), 4);
        // Clear the middle two pages: their next touch faults (and runs
        // the hook) again; the outer two stay resident.
        assert_eq!(vm.clear_ept_range(Gpa(PAGE), 2 * PAGE), 2);
        assert!(vm.ept_present(Gpa(0)));
        assert!(!vm.ept_present(Gpa(PAGE)));
        let mut buf = [0u8; 1];
        vm.read_gpa(Gpa(0), &mut buf).unwrap();
        vm.read_gpa(Gpa(PAGE), &mut buf).unwrap();
        assert_eq!(hook.0.load(Ordering::Relaxed), 5);
        // Clearing an already-clear range removes nothing.
        assert_eq!(vm.clear_ept_range(Gpa(10 * PAGE), PAGE), 0);
    }

    #[test]
    fn proactive_fault_populates_ept() {
        let (_, aspace, vm) = setup();
        let hva = aspace.mmap(4 * PAGE).unwrap();
        vm.set_memslot(Memslot {
            gpa: Gpa(0),
            len: 4 * PAGE,
            hva,
        })
        .unwrap();
        vm.proactive_fault(Gpa(PAGE), 2 * PAGE).unwrap();
        assert!(vm.ept_present(Gpa(PAGE)));
        assert!(vm.ept_present(Gpa(2 * PAGE)));
        assert!(!vm.ept_present(Gpa(0)));
        assert_eq!(vm.stats().ept_entries, 2);
    }
}
