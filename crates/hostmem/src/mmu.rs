//! Per-process host virtual address spaces (the host MMU).
//!
//! Each hypervisor process owns an [`AddressSpace`] mapping HVAs to
//! physical frames. Two population disciplines matter for the paper:
//!
//! - **Lazy** (the default for anonymous memory): a page is allocated *and
//!   zeroed* on the first host touch — this is the "lazy zeroing" that the
//!   paper observes works naturally when SR-IOV is disabled (§3.2.3).
//! - **Explicit bulk population** ([`AddressSpace::populate_range`]): the
//!   VFIO DMA-mapping path allocates every page up front because the IOMMU
//!   cannot take page faults. Whether those pages are zeroed at this point
//!   is exactly the policy knob FastIOV's decoupled zeroing changes.

use crate::addr::{Hpa, Hva};
use crate::alloc::{FrameId, FrameRange, PhysMemory};
use crate::{MemError, Result};
use fastiov_simtime::{LockClass, TrackedMutex};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Population discipline for a bulk populate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Populate {
    /// Allocate and zero (vanilla VFIO behaviour).
    AllocZero,
    /// Allocate only; contents remain previous-owner residue. Used by the
    /// decoupled-zeroing path, which registers the frames with `fastiovd`
    /// instead.
    AllocOnly,
}

struct Region {
    base: Hva,
    len: u64,
    /// One slot per page; `None` until populated.
    pages: Vec<Option<FrameId>>,
}

/// A host process's virtual address space.
pub struct AddressSpace {
    pid: u64,
    mem: Arc<PhysMemory>,
    inner: TrackedMutex<Inner>,
}

struct Inner {
    regions: BTreeMap<u64, Region>,
    next_hva: u64,
}

impl AddressSpace {
    /// Creates an empty address space for process `pid`.
    pub fn new(pid: u64, mem: Arc<PhysMemory>) -> Arc<Self> {
        Arc::new(AddressSpace {
            pid,
            mem,
            inner: TrackedMutex::new(
                LockClass::HostMmu,
                Inner {
                    regions: BTreeMap::new(),
                    // Arbitrary non-zero mmap base, page aligned.
                    next_hva: 0x7f00_0000_0000,
                },
            ),
        })
    }

    /// Owning process id.
    pub fn pid(&self) -> u64 {
        self.pid
    }

    /// The backing physical memory.
    pub fn memory(&self) -> &Arc<PhysMemory> {
        &self.mem
    }

    /// Reserves a `len`-byte anonymous region (no frames yet) and returns
    /// its base HVA.
    pub fn mmap(&self, len: u64) -> Result<Hva> {
        let page = self.mem.page_size().bytes();
        let len = len.div_ceil(page) * page;
        let mut inner = self.inner.lock();
        let base = Hva(inner.next_hva);
        inner.next_hva += len + page; // guard gap
        let npages = (len / page) as usize;
        inner.regions.insert(
            base.raw(),
            Region {
                base,
                len,
                pages: vec![None; npages],
            },
        );
        Ok(base)
    }

    /// Unmaps the region at `base`, freeing its populated frames.
    pub fn unmap(&self, base: Hva) -> Result<()> {
        let region = self
            .inner
            .lock()
            .regions
            .remove(&base.raw())
            .ok_or(MemError::NotMapped(base.raw()))?;
        let frames: Vec<usize> = region.pages.iter().flatten().map(|f| f.0).collect();
        let mut sorted = frames;
        sorted.sort_unstable();
        let ranges = super::alloc::coalesce(&sorted);
        self.mem.free_ranges(&ranges, self.pid)
    }

    /// Bulk-populates `[hva, hva+len)`: allocates every not-yet-present
    /// page in one batched allocation and, for [`Populate::AllocZero`],
    /// zeroes them. Returns the newly allocated ranges (already-present
    /// pages are not included).
    pub fn populate_range(&self, hva: Hva, len: u64, mode: Populate) -> Result<Vec<FrameRange>> {
        let page = self.mem.page_size().bytes();
        let missing: Vec<(u64, usize)> = {
            let inner = self.inner.lock();
            let region = find_region(&inner.regions, hva, len)?;
            let first = (hva.raw() - region.base.raw()) / page;
            let count = len.div_ceil(page);
            (first..first + count)
                .filter(|&i| region.pages[i as usize].is_none())
                .map(|i| (region.base.raw(), i as usize))
                .collect()
        };
        if missing.is_empty() {
            return Ok(Vec::new());
        }
        let ranges = self.mem.alloc_frames(missing.len(), self.pid)?;
        // Install page→frame assignments.
        {
            let mut inner = self.inner.lock();
            let mut frames = ranges.iter().flat_map(|r| r.iter());
            for (rbase, idx) in &missing {
                #[expect(clippy::expect_used, reason = "invariant: built from these regions")]
                let region = inner
                    .regions
                    .get_mut(rbase)
                    .expect("invariant: missing was built from inner.regions under this lock");
                #[expect(clippy::expect_used, reason = "invariant: one frame per missing page")]
                let frame = frames
                    .next()
                    .expect("invariant: alloc_frames returned missing.len() frames");
                region.pages[*idx] = Some(frame);
            }
        }
        if mode == Populate::AllocZero {
            self.mem.zero_ranges(&ranges)?;
        }
        Ok(ranges)
    }

    /// Translates an HVA to an HPA; fails if the page is not populated.
    pub fn translate(&self, hva: Hva) -> Result<Hpa> {
        let page = self.mem.page_size().bytes();
        let inner = self.inner.lock();
        let region = find_region(&inner.regions, hva, 1)?;
        let idx = ((hva.raw() - region.base.raw()) / page) as usize;
        match region.pages[idx] {
            Some(frame) => Ok(Hpa(self.mem.hpa_of(frame).raw() + hva.page_offset(page))),
            None => Err(MemError::NotMapped(hva.raw())),
        }
    }

    /// Host page-fault path: ensures every page of `[hva, hva+len)` is
    /// present, allocating and *zeroing* missing ones (anonymous-memory
    /// semantics). This is the host's natural lazy zeroing.
    pub fn touch(&self, hva: Hva, len: u64) -> Result<()> {
        let page = self.mem.page_size().bytes();
        let aligned = hva.align_down(page);
        let span = (hva.raw() - aligned.raw()) + len.max(1);
        self.populate_range(aligned, span, Populate::AllocZero)?;
        Ok(())
    }

    /// Writes through the host page tables (faulting pages in as needed).
    ///
    /// Note: already-present pages are written *in place without zeroing* —
    /// this is what makes hypervisor writes to VFIO-populated, not-yet-
    /// zeroed pages dangerous under naive lazy zeroing (§4.3.2).
    pub fn write(&self, hva: Hva, data: &[u8]) -> Result<()> {
        self.touch(hva, data.len() as u64)?;
        let page = self.mem.page_size().bytes();
        let mut cursor = 0u64;
        while cursor < data.len() as u64 {
            let a = Hva(hva.raw() + cursor);
            let hpa = self.translate(a)?;
            let chunk = (page - a.page_offset(page)).min(data.len() as u64 - cursor);
            self.mem
                .write_phys(hpa, &data[cursor as usize..(cursor + chunk) as usize])?;
            cursor += chunk;
        }
        Ok(())
    }

    /// Reads through the host page tables (faulting pages in as needed).
    pub fn read(&self, hva: Hva, buf: &mut [u8]) -> Result<()> {
        self.touch(hva, buf.len() as u64)?;
        let page = self.mem.page_size().bytes();
        let mut cursor = 0u64;
        while cursor < buf.len() as u64 {
            let a = Hva(hva.raw() + cursor);
            let hpa = self.translate(a)?;
            let chunk = (page - a.page_offset(page)).min(buf.len() as u64 - cursor);
            self.mem
                .read_phys(hpa, &mut buf[cursor as usize..(cursor + chunk) as usize])?;
            cursor += chunk;
        }
        Ok(())
    }

    /// Populated frames covering `[hva, hva+len)`, coalesced. Fails if any
    /// page in the span is not populated (the VFIO pin path requires every
    /// page present).
    pub fn frames_in(&self, hva: Hva, len: u64) -> Result<Vec<FrameRange>> {
        let page = self.mem.page_size().bytes();
        let inner = self.inner.lock();
        let region = find_region(&inner.regions, hva, len)?;
        let first = (hva.raw() - region.base.raw()) / page;
        let count = len.div_ceil(page);
        // Preserve *page order*: the caller maps the i-th page of the span
        // to the i-th frame returned, so runs are only coalesced when both
        // the page index and the frame id advance together.
        let mut out: Vec<FrameRange> = Vec::new();
        for i in first..first + count {
            let f = match region.pages[i as usize] {
                Some(f) => f,
                None => return Err(MemError::NotMapped(region.base.raw() + i * page)),
            };
            match out.last_mut() {
                Some(r) if r.start.0 + r.count == f.0 => r.count += 1,
                _ => out.push(FrameRange { start: f, count: 1 }),
            }
        }
        Ok(out)
    }
}

fn find_region(regions: &BTreeMap<u64, Region>, hva: Hva, len: u64) -> Result<&Region> {
    let (_, region) = regions
        .range(..=hva.raw())
        .next_back()
        .ok_or(MemError::NotMapped(hva.raw()))?;
    if hva.raw() + len.max(1) <= region.base.raw() + region.len {
        Ok(region)
    } else {
        Err(MemError::NotMapped(hva.raw()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PageSize;
    use crate::alloc::MemCosts;

    fn setup() -> (Arc<PhysMemory>, Arc<AddressSpace>) {
        let costs = MemCosts::for_tests(fastiov_simtime::Clock::new_virtual(1.0));
        let mem = PhysMemory::new(costs, PageSize::Size2M, 128);
        let aspace = AddressSpace::new(1, Arc::clone(&mem));
        (mem, aspace)
    }

    const PAGE: u64 = 2 * 1024 * 1024;

    #[test]
    fn mmap_reserves_without_allocating() {
        let (mem, aspace) = setup();
        let base = aspace.mmap(8 * PAGE).unwrap();
        assert_eq!(mem.stats().free_frames, 128);
        assert!(aspace.translate(base).is_err());
    }

    #[test]
    fn populate_zero_makes_pages_readable_zero() {
        let (_, aspace) = setup();
        let base = aspace.mmap(4 * PAGE).unwrap();
        let ranges = aspace
            .populate_range(base, 4 * PAGE, Populate::AllocZero)
            .unwrap();
        assert_eq!(ranges.iter().map(|r| r.count).sum::<usize>(), 4);
        let mut buf = [0xffu8; 16];
        aspace.read(base + PAGE, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn populate_alloc_only_leaves_residue() {
        let (mem, aspace) = setup();
        let base = aspace.mmap(2 * PAGE).unwrap();
        let ranges = aspace
            .populate_range(base, 2 * PAGE, Populate::AllocOnly)
            .unwrap();
        for r in &ranges {
            for f in r.iter() {
                assert!(mem.leaks_residue(f).unwrap());
            }
        }
    }

    #[test]
    fn repopulate_skips_present_pages() {
        let (_, aspace) = setup();
        let base = aspace.mmap(4 * PAGE).unwrap();
        aspace
            .populate_range(base, 2 * PAGE, Populate::AllocZero)
            .unwrap();
        let second = aspace
            .populate_range(base, 4 * PAGE, Populate::AllocZero)
            .unwrap();
        assert_eq!(second.iter().map(|r| r.count).sum::<usize>(), 2);
    }

    #[test]
    fn lazy_touch_zeroes_on_first_access() {
        let (mem, aspace) = setup();
        let base = aspace.mmap(2 * PAGE).unwrap();
        let mut buf = [0xaau8; 8];
        aspace.read(base + (PAGE + 7), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8]);
        // Only the touched page was populated.
        assert_eq!(mem.stats().free_frames, 127);
    }

    #[test]
    fn write_then_read_round_trips() {
        let (_, aspace) = setup();
        let base = aspace.mmap(2 * PAGE).unwrap();
        let data = [1u8, 2, 3, 4, 5];
        // Crossing a page boundary.
        let at = base + (PAGE - 2);
        aspace.write(at, &data).unwrap();
        let mut buf = [0u8; 5];
        aspace.read(at, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn host_write_to_residue_page_does_not_zero_rest() {
        // The dangerous interaction of §4.3.2: hypervisor writes into a
        // VFIO-populated, unzeroed page; the rest of the page keeps the
        // previous owner's residue.
        let (mem, aspace) = setup();
        let base = aspace.mmap(PAGE).unwrap();
        let ranges = aspace
            .populate_range(base, PAGE, Populate::AllocOnly)
            .unwrap();
        aspace.write(base, &[0xab; 32]).unwrap();
        let frame = ranges[0].start;
        assert!(mem.leaks_residue(frame).unwrap());
        let mut buf = [0u8; 32];
        aspace.read(base, &mut buf).unwrap();
        assert_eq!(buf, [0xab; 32]);
    }

    #[test]
    fn unmap_frees_frames() {
        let (mem, aspace) = setup();
        let base = aspace.mmap(4 * PAGE).unwrap();
        aspace
            .populate_range(base, 4 * PAGE, Populate::AllocZero)
            .unwrap();
        assert_eq!(mem.stats().free_frames, 124);
        aspace.unmap(base).unwrap();
        assert_eq!(mem.stats().free_frames, 128);
        assert!(aspace.translate(base).is_err());
    }

    #[test]
    fn out_of_region_access_fails() {
        let (_, aspace) = setup();
        let base = aspace.mmap(PAGE).unwrap();
        assert!(aspace
            .populate_range(base, 2 * PAGE, Populate::AllocZero)
            .is_err());
        assert!(aspace.translate(Hva(0x1000)).is_err());
    }

    #[test]
    fn frames_in_reports_populated_pages() {
        let (_, aspace) = setup();
        let base = aspace.mmap(4 * PAGE).unwrap();
        aspace
            .populate_range(base, 4 * PAGE, Populate::AllocZero)
            .unwrap();
        let frames = aspace.frames_in(base, 4 * PAGE).unwrap();
        assert_eq!(frames.iter().map(|r| r.count).sum::<usize>(), 4);
    }
}
