//! The VFIO container: DMA memory mapping (Fig. 6).
//!
//! `dma_map` runs the four-step pipeline the paper profiles:
//!
//! 1. **Page retrieving** — every page of the span is allocated up front
//!    (the IOMMU cannot fault), batched by physical contiguity;
//! 2. **Page zeroing** — eager (vanilla: >93 % of mapping time) or
//!    deferred (FastIOV decoupled zeroing: the unzeroed frames are handed
//!    to a registrar, `fastiovd` in the full stack);
//! 3. **Page pinning** — refcounts keep the HPAs stable;
//! 4. **Page mapping** — IOVA→HPA entries installed in the I/O page table.

use crate::{Result, VfioError};
use fastiov_faults::{sites, FaultPlane};
use fastiov_hostmem::{AddressSpace, FrameRange, Hva, Iova, Populate};
use fastiov_iommu::IommuDomain;
use fastiov_simtime::{LockClass, TrackedMutex};
use std::sync::Arc;

/// Zeroing discipline for a DMA mapping.
pub enum DmaZeroMode<'a> {
    /// Zero every newly allocated page during the mapping (vanilla VFIO).
    Eager,
    /// Leave newly allocated pages dirty and pass them to the registrar
    /// (FastIOV decoupled zeroing; the registrar is `fastiovd`, which will
    /// zero each page inside the EPT fault on first guest access).
    ///
    /// The registrar returns `false` when it refuses the frames (scrub
    /// registration failure); the container then degrades gracefully by
    /// zeroing those frames eagerly, so the unzeroed-page invariant never
    /// depends on the scrubber being healthy.
    Deferred(&'a dyn Fn(u64, &[FrameRange]) -> bool),
}

/// One live DMA mapping.
#[derive(Debug, Clone)]
pub struct DmaMapping {
    /// Device-visible base address.
    pub iova: Iova,
    /// Host-virtual base of the mapped span.
    pub hva: Hva,
    /// Length in bytes.
    pub len: u64,
    /// All frames backing the span, in page order.
    pub ranges: Vec<FrameRange>,
    /// The subset that was freshly allocated by this mapping.
    pub newly_allocated: Vec<FrameRange>,
}

/// A VFIO container: one guest's DMA state (IOMMU domain + mappings).
pub struct VfioContainer {
    domain: Arc<IommuDomain>,
    aspace: Arc<AddressSpace>,
    mappings: TrackedMutex<Vec<DmaMapping>>,
    /// Fault plane consulted on the pin and map steps.
    faults: Arc<FaultPlane>,
}

impl VfioContainer {
    /// Creates a container for the hypervisor process `aspace` translating
    /// through `domain`, consulting `faults` on the pin/map pipeline.
    pub fn new(
        domain: Arc<IommuDomain>,
        aspace: Arc<AddressSpace>,
        faults: Arc<FaultPlane>,
    ) -> Arc<Self> {
        Arc::new(VfioContainer {
            domain,
            aspace,
            mappings: TrackedMutex::new(LockClass::VfioContainer, Vec::new()),
            faults,
        })
    }

    /// Consults the fault plane at `site`; latency spikes are charged to
    /// the clock of the mapped memory.
    fn check_fault(&self, site: &'static str) -> Result<()> {
        let clock = &self.aspace.memory().costs().clock;
        Ok(self.faults.check(site, self.aspace.pid(), clock)?)
    }

    /// The container's IOMMU domain.
    pub fn domain(&self) -> &Arc<IommuDomain> {
        &self.domain
    }

    /// The hypervisor address space this container maps from.
    pub fn address_space(&self) -> &Arc<AddressSpace> {
        &self.aspace
    }

    /// Maps `[hva, hva+len)` of the hypervisor address space to
    /// `[iova, iova+len)` for device DMA.
    ///
    /// Pages already populated (e.g. written by the hypervisor before the
    /// mapping) are pinned and mapped as-is; missing pages are allocated
    /// according to `mode`.
    pub fn dma_map(&self, hva: Hva, len: u64, iova: Iova, mode: DmaZeroMode<'_>) -> Result<()> {
        // Step 1: retrieve — allocate every missing page of the span.
        let newly = self.aspace.populate_range(
            hva,
            len,
            match mode {
                DmaZeroMode::Eager => Populate::AllocZero, // step 2 folded in
                DmaZeroMode::Deferred(_) => Populate::AllocOnly,
            },
        )?;
        // Step 2 (deferred flavour): hand dirty frames to the registrar.
        // A refused registration falls back to eager zeroing — the pages
        // must never reach the guest dirty, scrubber or not.
        if let DmaZeroMode::Deferred(register) = mode {
            if !register(self.aspace.pid(), &newly) {
                self.aspace.memory().zero_ranges(&newly)?;
            }
        }
        // Step 3: pin the whole span.
        let all = self.aspace.frames_in(hva, len)?;
        let mem = self.aspace.memory();
        self.check_fault(sites::DMA_PIN)?;
        mem.pin_ranges(&all)?;
        // Step 4: install IOVA→HPA translations.
        if let Err(f) = self.check_fault(sites::IOMMU_MAP) {
            let _ = mem.unpin_ranges(&all);
            return Err(f);
        }
        if let Err(e) = self.domain.map_range(iova, &all, mem) {
            // Roll back the pin so the container stays consistent.
            let _ = mem.unpin_ranges(&all);
            return Err(VfioError::Iommu(e));
        }
        self.mappings.lock().push(DmaMapping {
            iova,
            hva,
            len,
            ranges: all,
            newly_allocated: newly,
        });
        Ok(())
    }

    /// Unmaps the mapping that starts at `iova`, unpinning its frames.
    pub fn dma_unmap(&self, iova: Iova) -> Result<DmaMapping> {
        let mapping = {
            let mut maps = self.mappings.lock();
            let idx = maps
                .iter()
                .position(|m| m.iova == iova)
                .ok_or(VfioError::Iommu(fastiov_iommu::IommuError::NotMapped(iova)))?;
            maps.remove(idx)
        };
        let pages: usize = mapping.ranges.iter().map(|r| r.count).sum();
        self.domain.unmap_range(mapping.iova, pages)?;
        self.aspace.memory().unpin_ranges(&mapping.ranges)?;
        Ok(mapping)
    }

    /// Unmaps everything (guest teardown).
    pub fn dma_unmap_all(&self) -> Result<Vec<DmaMapping>> {
        let iovas: Vec<Iova> = self.mappings.lock().iter().map(|m| m.iova).collect();
        let mut out = Vec::with_capacity(iovas.len());
        for iova in iovas {
            out.push(self.dma_unmap(iova)?);
        }
        Ok(out)
    }

    /// Snapshot of live mappings.
    pub fn mappings(&self) -> Vec<DmaMapping> {
        self.mappings.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastiov_hostmem::{MemCosts, PageSize, PhysMemory};
    use fastiov_simtime::Clock;
    use parking_lot::Mutex as PlMutex;
    use std::time::Duration;

    const PAGE: u64 = 2 * 1024 * 1024;

    fn setup() -> (Arc<PhysMemory>, Arc<AddressSpace>, Arc<VfioContainer>) {
        let clock = Clock::new_virtual(1e-5);
        let mem = PhysMemory::new(MemCosts::for_tests(clock.clone()), PageSize::Size2M, 256);
        let aspace = AddressSpace::new(7, Arc::clone(&mem));
        let iommu = fastiov_iommu::Iommu::new(
            clock.clone(),
            Duration::from_nanos(100),
            Duration::from_nanos(300),
            64,
        );
        let domain = iommu.create_domain(PageSize::Size2M);
        let container = VfioContainer::new(domain, Arc::clone(&aspace), FaultPlane::disabled());
        (mem, aspace, container)
    }

    #[test]
    fn eager_map_zeroes_pins_and_maps() {
        let (mem, aspace, c) = setup();
        let hva = aspace.mmap("ram", 8 * PAGE).unwrap();
        c.dma_map(hva, 8 * PAGE, Iova(0), DmaZeroMode::Eager)
            .unwrap();
        let m = &c.mappings()[0];
        assert_eq!(m.ranges.iter().map(|r| r.count).sum::<usize>(), 8);
        for r in &m.ranges {
            for f in r.iter() {
                assert!(!mem.leaks_residue(f).unwrap());
                assert_eq!(mem.pin_count(f).unwrap(), 1);
            }
        }
        assert_eq!(c.domain().stats().mapped_pages, 8);
        assert_eq!(mem.stats().frames_zeroed_charged, 8);
    }

    #[test]
    fn deferred_map_registers_dirty_frames() {
        let (mem, aspace, c) = setup();
        let hva = aspace.mmap("ram", 4 * PAGE).unwrap();
        let registered: PlMutex<Vec<(u64, usize)>> = PlMutex::new(Vec::new());
        let reg = |pid: u64, ranges: &[FrameRange]| {
            registered
                .lock()
                .push((pid, ranges.iter().map(|r| r.count).sum()));
            true
        };
        c.dma_map(hva, 4 * PAGE, Iova(0), DmaZeroMode::Deferred(&reg))
            .unwrap();
        assert_eq!(registered.lock().as_slice(), &[(7, 4)]);
        // Frames are mapped and pinned but still dirty.
        let m = &c.mappings()[0];
        for r in &m.ranges {
            for f in r.iter() {
                assert!(mem.leaks_residue(f).unwrap());
                assert_eq!(mem.pin_count(f).unwrap(), 1);
            }
        }
        assert_eq!(mem.stats().frames_zeroed_charged, 0);
    }

    #[test]
    fn prepopulated_pages_are_not_reregistered() {
        // Hypervisor wrote 2 pages (BIOS/kernel) before the mapping: those
        // were host-faulted (zeroed) and must not reach the registrar.
        let (_, aspace, c) = setup();
        let hva = aspace.mmap("ram", 4 * PAGE).unwrap();
        aspace.write(hva, &[1u8; 64]).unwrap();
        aspace.write(hva + PAGE, &[2u8; 64]).unwrap();
        let count = PlMutex::new(0usize);
        let reg = |_pid: u64, ranges: &[FrameRange]| {
            *count.lock() += ranges.iter().map(|r| r.count).sum::<usize>();
            true
        };
        c.dma_map(hva, 4 * PAGE, Iova(0), DmaZeroMode::Deferred(&reg))
            .unwrap();
        assert_eq!(*count.lock(), 2, "only the two missing pages registered");
        // All four pages pinned and mapped.
        assert_eq!(c.domain().stats().mapped_pages, 4);
    }

    #[test]
    fn refused_registration_falls_back_to_eager_zero() {
        // Scrub registration failure must not leave dirty pages mapped:
        // the container zeroes them eagerly instead.
        let (mem, aspace, c) = setup();
        let hva = aspace.mmap("ram", 4 * PAGE).unwrap();
        let reg = |_pid: u64, _ranges: &[FrameRange]| false;
        c.dma_map(hva, 4 * PAGE, Iova(0), DmaZeroMode::Deferred(&reg))
            .unwrap();
        let m = &c.mappings()[0];
        for r in &m.ranges {
            for f in r.iter() {
                assert!(!mem.leaks_residue(f).unwrap());
            }
        }
        assert_eq!(mem.stats().frames_zeroed_charged, 4);
    }

    #[test]
    fn injected_pin_fault_fails_map_cleanly() {
        use fastiov_faults::{Effect, FaultPoint, Trigger};
        let clock = Clock::new_virtual(1e-5);
        let mem = PhysMemory::new(MemCosts::for_tests(clock.clone()), PageSize::Size2M, 256);
        let aspace = AddressSpace::new(7, Arc::clone(&mem));
        let iommu = fastiov_iommu::Iommu::new(
            clock.clone(),
            Duration::from_nanos(100),
            Duration::from_nanos(300),
            64,
        );
        let plane = FaultPlane::with_points(
            0,
            vec![FaultPoint {
                site: sites::DMA_PIN,
                trigger: Trigger::Once(1),
                effect: Effect::Error,
            }],
        );
        let c = VfioContainer::new(
            iommu.create_domain(PageSize::Size2M),
            Arc::clone(&aspace),
            plane,
        );
        let hva = aspace.mmap("ram", 2 * PAGE).unwrap();
        let e = c
            .dma_map(hva, 2 * PAGE, Iova(0), DmaZeroMode::Eager)
            .unwrap_err();
        assert!(matches!(e, VfioError::Injected(_)));
        assert!(c.mappings().is_empty());
        // Second attempt (call count 2) succeeds; nothing stayed pinned.
        c.dma_map(hva, 2 * PAGE, Iova(0), DmaZeroMode::Eager)
            .unwrap();
        for r in &c.mappings()[0].ranges {
            for f in r.iter() {
                assert_eq!(mem.pin_count(f).unwrap(), 1);
            }
        }
    }

    #[test]
    fn translation_follows_page_order() {
        let (mem, aspace, c) = setup();
        let hva = aspace.mmap("ram", 4 * PAGE).unwrap();
        c.dma_map(hva, 4 * PAGE, Iova(0), DmaZeroMode::Eager)
            .unwrap();
        // Writing via HVA page 2 must be visible via IOVA page 2.
        aspace.write(hva + (2 * PAGE + 5), &[0xcd; 4]).unwrap();
        let hpa = c.domain().translate(Iova(2 * PAGE + 5)).unwrap();
        let mut buf = [0u8; 4];
        mem.read_phys(hpa, &mut buf).unwrap();
        assert_eq!(buf, [0xcd; 4]);
    }

    #[test]
    fn unmap_unpins_and_removes_translations() {
        let (mem, aspace, c) = setup();
        let hva = aspace.mmap("ram", 2 * PAGE).unwrap();
        c.dma_map(hva, 2 * PAGE, Iova(0), DmaZeroMode::Eager)
            .unwrap();
        let m = c.dma_unmap(Iova(0)).unwrap();
        for r in &m.ranges {
            for f in r.iter() {
                assert_eq!(mem.pin_count(f).unwrap(), 0);
            }
        }
        assert!(c.domain().translate(Iova(0)).is_err());
        assert!(c.mappings().is_empty());
        assert!(c.dma_unmap(Iova(0)).is_err());
    }

    #[test]
    fn unmap_all_clears_every_mapping() {
        let (_, aspace, c) = setup();
        let a = aspace.mmap("ram", 2 * PAGE).unwrap();
        let b = aspace.mmap("image", 2 * PAGE).unwrap();
        c.dma_map(a, 2 * PAGE, Iova(0), DmaZeroMode::Eager).unwrap();
        c.dma_map(b, 2 * PAGE, Iova(0x4000_0000), DmaZeroMode::Eager)
            .unwrap();
        let un = c.dma_unmap_all().unwrap();
        assert_eq!(un.len(), 2);
        assert!(c.mappings().is_empty());
    }
}
