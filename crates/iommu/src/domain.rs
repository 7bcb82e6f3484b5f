//! IOMMU domains and the IOMMU unit.

use crate::iotlb::Iotlb;
use crate::table::{IoPageTable, TableError};
use crate::{IommuError, Result};
use fastiov_hostmem::{FrameRange, Hpa, Iova, PageSize, PhysMemory};
use fastiov_simtime::{Clock, LockClass, LockSnapshot, TrackedMutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Identifier of an IOMMU translation domain (one per guest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DomainId(pub u64);

/// Per-domain counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IommuStats {
    /// Pages currently mapped.
    pub mapped_pages: usize,
    /// Translations served.
    pub translations: u64,
    /// IOTLB hits.
    pub tlb_hits: u64,
    /// IOTLB misses (full walks).
    pub tlb_misses: u64,
    /// DMA faults taken.
    pub dma_faults: u64,
}

/// A domain's I/O page table and IOTLB, behind one lock.
struct Translation {
    table: IoPageTable,
    tlb: Iotlb,
}

/// One guest's translation domain: an I/O page table plus an IOTLB.
pub struct IommuDomain {
    id: DomainId,
    page: PageSize,
    clock: Clock,
    /// Charged per page-table entry installed.
    map_per_page: Duration,
    /// Charged per full table walk (IOTLB miss).
    walk_latency: Duration,
    /// Never held across a blocking point: the map charge and the walk
    /// latency are slept outside it.
    tr: TrackedMutex<Translation>,
    translations: AtomicU64,
    dma_faults: AtomicU64,
}

impl IommuDomain {
    fn page_no(&self, iova: Iova) -> u64 {
        iova.raw() / self.page.bytes()
    }

    /// Domain id.
    pub fn id(&self) -> DomainId {
        self.id
    }

    /// Page size of this domain.
    pub fn page_size(&self) -> PageSize {
        self.page
    }

    /// Maps `[iova, iova + ranges.bytes())` to the given physical ranges.
    ///
    /// Each contiguous [`FrameRange`] is installed as one bulk extent
    /// ([`IoPageTable::map_extent`]) under a single table-lock
    /// acquisition. The charged time is still `map_per_page × pages` in
    /// one sleep — identical to the per-entry install for the same input,
    /// so the cost model is unchanged; only the real lock-hold time
    /// shrinks. On a conflict, extents already installed by this call are
    /// rolled back.
    pub fn map_range(&self, iova: Iova, ranges: &[FrameRange], mem: &PhysMemory) -> Result<()> {
        if !iova.is_aligned(self.page.bytes()) {
            return Err(IommuError::Unaligned(iova));
        }
        // One span per call (not per extent): the extent split depends on
        // allocator interleaving, so a per-call span keeps the trace's
        // structural digest deterministic.
        let _span = self.clock.tracer().span("iommu.map");
        let pages: usize = ranges.iter().map(|r| r.count).sum();
        {
            let mut tr = self.tr.lock();
            let table = &mut tr.table;
            let mut cursor = self.page_no(iova);
            let mut installed: Vec<(u64, usize)> = Vec::with_capacity(ranges.len());
            for r in ranges {
                if let Err(e) =
                    table.map_extent(cursor, mem.hpa_of(r.start), self.page.bytes(), r.count)
                {
                    // Report the exact conflicting page, as the per-page
                    // install did — not just the start of the failing range.
                    let conflict = (cursor..cursor + r.count as u64)
                        .find(|p| table.lookup(*p).is_some())
                        .unwrap_or(cursor);
                    for (s, c) in installed {
                        let _ = table.unmap_extent(s, c);
                    }
                    return Err(match e {
                        TableError::Present => {
                            IommuError::AlreadyMapped(Iova(conflict * self.page.bytes()))
                        }
                        _ => IommuError::Unaligned(iova),
                    });
                }
                installed.push((cursor, r.count));
                cursor += r.count as u64;
            }
        }
        self.clock.sleep(self.map_per_page * pages as u32);
        Ok(())
    }

    /// Unmaps `count` pages starting at `iova`: one extent removal plus
    /// one batched IOTLB invalidation. All-or-nothing — a hole in the
    /// range fails the whole call without side effects.
    pub fn unmap_range(&self, iova: Iova, count: usize) -> Result<()> {
        if !iova.is_aligned(self.page.bytes()) {
            return Err(IommuError::Unaligned(iova));
        }
        let _span = self.clock.tracer().span("iommu.unmap");
        let start = self.page_no(iova);
        // One lock over both, so a translate never sees the table emptied
        // but the TLB still warm.
        let mut tr = self.tr.lock();
        tr.table
            .unmap_extent(start, count)
            .map_err(|_| IommuError::NotMapped(iova))?;
        tr.tlb.invalidate_range(start, count);
        Ok(())
    }

    /// Acquisition and wait totals of the translation (page table and
    /// IOTLB) lock class on the calling thread's clock; a bookkeeping
    /// class, so its `hold_ns` is 0.
    pub fn table_lock_stats(&self) -> LockSnapshot {
        LockClass::IommuTable.stats()
    }

    /// Translates a device-issued IOVA; a miss is a [`IommuError::DmaFault`].
    pub fn translate(&self, iova: Iova) -> Result<Hpa> {
        self.translations.fetch_add(1, Ordering::Relaxed);
        let page = self.page_no(iova);
        let offset = iova.page_offset(self.page.bytes());
        if let Some(base) = self.tr.lock().tlb.lookup(page) {
            return Ok(Hpa(base.raw() + offset));
        }
        // Full walk.
        self.clock.sleep(self.walk_latency);
        let mut tr = self.tr.lock();
        match tr.table.lookup(page) {
            Some(base) => {
                tr.tlb.insert(page, base);
                Ok(Hpa(base.raw() + offset))
            }
            None => {
                self.dma_faults.fetch_add(1, Ordering::Relaxed);
                Err(IommuError::DmaFault(iova))
            }
        }
    }

    /// Counters snapshot.
    pub fn stats(&self) -> IommuStats {
        let tr = self.tr.lock();
        let (tlb_hits, tlb_misses) = tr.tlb.stats();
        IommuStats {
            mapped_pages: tr.table.entries(),
            translations: self.translations.load(Ordering::Relaxed),
            tlb_hits,
            tlb_misses,
            dma_faults: self.dma_faults.load(Ordering::Relaxed),
        }
    }
}

/// The IOMMU unit: domain registry plus device→domain attachment.
pub struct Iommu {
    clock: Clock,
    map_per_page: Duration,
    walk_latency: Duration,
    tlb_capacity: usize,
    inner: TrackedMutex<IommuInner>,
}

struct IommuInner {
    domains: HashMap<u64, Arc<IommuDomain>>,
    next_id: u64,
}

impl Iommu {
    /// Creates an IOMMU.
    ///
    /// `map_per_page` is charged per installed page-table entry;
    /// `walk_latency` per IOTLB-missing translation.
    pub fn new(
        clock: Clock,
        map_per_page: Duration,
        walk_latency: Duration,
        tlb_capacity: usize,
    ) -> Arc<Self> {
        Arc::new(Iommu {
            clock,
            map_per_page,
            walk_latency,
            tlb_capacity,
            inner: TrackedMutex::new(
                LockClass::IommuRegistry,
                IommuInner {
                    domains: HashMap::new(),
                    next_id: 1,
                },
            ),
        })
    }

    /// Acquisition and wait totals of the translation lock class, across
    /// every domain of the calling thread's clock; a bookkeeping class,
    /// so its `hold_ns` is 0.
    pub fn table_lock_stats(&self) -> LockSnapshot {
        LockClass::IommuTable.stats()
    }

    /// Creates a translation domain with the given page size.
    pub fn create_domain(&self, page: PageSize) -> Arc<IommuDomain> {
        let mut inner = self.inner.lock();
        let id = DomainId(inner.next_id);
        inner.next_id += 1;
        let domain = Arc::new(IommuDomain {
            id,
            page,
            clock: self.clock.clone(),
            map_per_page: self.map_per_page,
            walk_latency: self.walk_latency,
            tr: TrackedMutex::new(
                LockClass::IommuTable,
                Translation {
                    table: IoPageTable::new(),
                    tlb: Iotlb::new(self.tlb_capacity),
                },
            ),
            translations: AtomicU64::new(0),
            dma_faults: AtomicU64::new(0),
        });
        inner.domains.insert(id.0, Arc::clone(&domain));
        domain
    }

    /// Looks up a domain by id.
    pub fn domain(&self, id: DomainId) -> Result<Arc<IommuDomain>> {
        self.inner
            .lock()
            .domains
            .get(&id.0)
            .cloned()
            .ok_or(IommuError::NoDomain(id.0))
    }

    /// Destroys a domain.
    pub fn destroy_domain(&self, id: DomainId) -> Result<()> {
        self.inner
            .lock()
            .domains
            .remove(&id.0)
            .map(|_| ())
            .ok_or(IommuError::NoDomain(id.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastiov_hostmem::MemCosts;

    fn setup() -> (Arc<PhysMemory>, Arc<IommuDomain>) {
        let clock = Clock::new_virtual(1e-5);
        let mem = PhysMemory::new(MemCosts::for_tests(clock.clone()), PageSize::Size2M, 64);
        let iommu = Iommu::new(
            clock,
            Duration::from_nanos(200),
            Duration::from_nanos(500),
            64,
        );
        (mem, iommu.create_domain(PageSize::Size2M))
    }

    const PAGE: u64 = 2 * 1024 * 1024;

    #[test]
    fn map_then_translate() {
        let (mem, dom) = setup();
        let ranges = mem.alloc_frames(4, 1).unwrap();
        dom.map_range(Iova(0), &ranges, &mem).unwrap();
        let hpa = dom.translate(Iova(PAGE + 123)).unwrap();
        // Second mapped page, offset 123.
        let expected = mem.hpa_of(ranges.iter().flat_map(|r| r.iter()).nth(1).unwrap());
        assert_eq!(hpa, Hpa(expected.raw() + 123));
        assert_eq!(dom.stats().mapped_pages, 4);
    }

    #[test]
    fn a_bare_domain_records_its_spans_on_the_clocks_tracer() {
        let (mem, dom) = setup();
        let tracer = dom.clock.tracer();
        // Enabled after the domain exists, with nothing installed on it.
        tracer.enable();
        let ranges = mem.alloc_frames(2, 1).unwrap();
        dom.map_range(Iova(0), &ranges, &mem).unwrap();
        dom.unmap_range(Iova(0), 2).unwrap();
        let names: Vec<String> = tracer.spans().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["iommu.map", "iommu.unmap"]);
    }

    #[test]
    fn unmapped_translation_is_dma_fault() {
        let (_, dom) = setup();
        let e = dom.translate(Iova(0)).unwrap_err();
        assert!(matches!(e, IommuError::DmaFault(_)));
        assert_eq!(dom.stats().dma_faults, 1);
    }

    #[test]
    fn double_map_rejected() {
        let (mem, dom) = setup();
        let r = mem.alloc_frames(1, 1).unwrap();
        dom.map_range(Iova(0), &r, &mem).unwrap();
        assert!(matches!(
            dom.map_range(Iova(0), &r, &mem),
            Err(IommuError::AlreadyMapped(_))
        ));
    }

    #[test]
    fn unmap_invalidates_tlb() {
        let (mem, dom) = setup();
        let r = mem.alloc_frames(1, 1).unwrap();
        dom.map_range(Iova(0), &r, &mem).unwrap();
        dom.translate(Iova(0)).unwrap(); // warm TLB
        dom.unmap_range(Iova(0), 1).unwrap();
        assert!(matches!(
            dom.translate(Iova(0)),
            Err(IommuError::DmaFault(_))
        ));
    }

    #[test]
    fn unaligned_rejected() {
        let (mem, dom) = setup();
        let r = mem.alloc_frames(1, 1).unwrap();
        assert!(matches!(
            dom.map_range(Iova(7), &r, &mem),
            Err(IommuError::Unaligned(_))
        ));
        assert!(matches!(
            dom.unmap_range(Iova(7), 1),
            Err(IommuError::Unaligned(_))
        ));
    }

    #[test]
    fn tlb_hits_counted() {
        let (mem, dom) = setup();
        let r = mem.alloc_frames(1, 1).unwrap();
        dom.map_range(Iova(0), &r, &mem).unwrap();
        dom.translate(Iova(0)).unwrap();
        dom.translate(Iova(10)).unwrap();
        let s = dom.stats();
        assert_eq!(s.tlb_hits, 1);
        assert_eq!(s.tlb_misses, 1);
        assert_eq!(s.translations, 2);
    }

    #[test]
    fn fragmented_ranges_map_like_contiguous_ones() {
        let (mem, dom) = setup();
        mem.inject_fragmentation(2);
        let ranges = mem.alloc_frames(6, 1).unwrap();
        assert!(ranges.len() > 1, "fragmentation produced multiple extents");
        dom.map_range(Iova(0), &ranges, &mem).unwrap();
        assert_eq!(dom.stats().mapped_pages, 6);
        // Every page translates to its own frame, in order.
        let frames: Vec<_> = ranges.iter().flat_map(|r| r.iter()).collect();
        for (i, f) in frames.iter().enumerate() {
            let hpa = dom.translate(Iova(i as u64 * PAGE)).unwrap();
            assert_eq!(hpa, mem.hpa_of(*f));
        }
        assert!(dom.table_lock_stats().acquisitions >= 1);
    }

    #[test]
    fn conflicting_map_rolls_back_prior_extents() {
        let (mem, dom) = setup();
        let occupied = mem.alloc_frames(1, 1).unwrap();
        // Occupy the third page of the window we are about to map.
        dom.map_range(Iova(2 * PAGE), &occupied, &mem).unwrap();
        mem.inject_fragmentation(2);
        let ranges = mem.alloc_frames(4, 2).unwrap();
        assert!(ranges.len() > 1);
        let e = dom.map_range(Iova(0), &ranges, &mem).unwrap_err();
        assert!(matches!(e, IommuError::AlreadyMapped(_)));
        // Only the pre-existing entry remains: partial extents undone.
        assert_eq!(dom.stats().mapped_pages, 1);
        assert!(dom.translate(Iova(0)).is_err());
        assert!(dom.translate(Iova(2 * PAGE)).is_ok());
    }

    #[test]
    fn conflict_reports_exact_page_not_range_start() {
        let (mem, dom) = setup();
        let occupied = mem.alloc_frames(1, 1).unwrap();
        // Occupy page 2, then map a single contiguous 4-page extent over
        // it: the error must name page 2, not the extent's start (page 0).
        dom.map_range(Iova(2 * PAGE), &occupied, &mem).unwrap();
        let r = mem.alloc_frames(4, 2).unwrap();
        assert_eq!(r.len(), 1, "unfragmented alloc is one extent");
        let e = dom.map_range(Iova(0), &r, &mem).unwrap_err();
        assert!(
            matches!(e, IommuError::AlreadyMapped(a) if a == Iova(2 * PAGE)),
            "wrong conflict address: {e}"
        );
    }

    #[test]
    fn batched_unmap_is_atomic() {
        let (mem, dom) = setup();
        let r = mem.alloc_frames(4, 1).unwrap();
        dom.map_range(Iova(0), &r, &mem).unwrap();
        dom.unmap_range(Iova(PAGE), 1).unwrap();
        // Hole at page 1: whole-range unmap fails and unmaps nothing.
        assert!(matches!(
            dom.unmap_range(Iova(0), 4),
            Err(IommuError::NotMapped(_))
        ));
        assert_eq!(dom.stats().mapped_pages, 3);
        dom.unmap_range(Iova(0), 1).unwrap();
        dom.unmap_range(Iova(2 * PAGE), 2).unwrap();
        assert_eq!(dom.stats().mapped_pages, 0);
    }

    #[test]
    fn iommu_domain_registry() {
        let iommu = Iommu::new(
            Clock::new_virtual(1e-5),
            Duration::from_nanos(200),
            Duration::from_nanos(500),
            16,
        );
        let d = iommu.create_domain(PageSize::Size2M);
        assert_eq!(iommu.domain(d.id()).unwrap().id(), d.id());
        iommu.destroy_domain(d.id()).unwrap();
        assert!(iommu.domain(d.id()).is_err());
    }
}
