//! The physical frame allocator.
//!
//! Models the paper's DMA-mapping cost structure (§3.2.3, Fig. 6):
//! *retrieving* walks the free list in address order and groups contiguous
//! frames into batches (cost per batch — fragmentation hurts, hugepages
//! help); *zeroing* moves whole pages through the shared memory-bandwidth
//! resource (the dominant cost); *pinning* bumps per-frame reference
//! counts so HPAs stay valid for DMA.

use crate::addr::{Hpa, PageSize};
use crate::content::PageContent;
use crate::{MemError, Result};
use fastiov_simtime::{Clock, CpuPool, FairShareBandwidth, LockClass, LockSnapshot, TrackedMutex};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};
use std::time::Duration;

/// Index of a physical frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(pub usize);

/// A run of physically contiguous frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRange {
    /// First frame of the run.
    pub start: FrameId,
    /// Number of frames.
    pub count: usize,
}

impl FrameRange {
    /// Iterates the frame ids in the range.
    pub fn iter(&self) -> impl Iterator<Item = FrameId> + '_ {
        (self.start.0..self.start.0 + self.count).map(FrameId)
    }

    /// Total bytes covered given a page size.
    pub fn bytes(&self, page: PageSize) -> u64 {
        self.count as u64 * page.bytes()
    }
}

/// Cost model shared by memory operations.
#[derive(Clone)]
pub struct MemCosts {
    /// Simulation clock.
    pub clock: Clock,
    /// Host CPU pool (charged for retrieval and pinning work).
    pub cpu: Arc<CpuPool>,
    /// Shared zeroing/memcpy bandwidth (processor-sharing).
    pub membw: Arc<FairShareBandwidth>,
    /// CPU cost per contiguous batch retrieved from the free list.
    pub retrieval_per_batch: Duration,
    /// CPU cost per page pinned (refcount + accounting).
    pub pin_per_page: Duration,
}

impl MemCosts {
    /// A cost model suitable for functional tests: microscopic time scale,
    /// plentiful resources.
    pub fn for_tests() -> Self {
        let clock = Clock::with_scale(1e-5);
        MemCosts {
            cpu: CpuPool::new(clock.clone(), 64),
            membw: FairShareBandwidth::new(clock.clone(), 4096e9, 64e9),
            clock,
            retrieval_per_batch: Duration::from_micros(2),
            pin_per_page: Duration::from_nanos(500),
        }
    }
}

#[derive(Debug)]
struct Frame {
    owner: Option<u64>,
    pins: u32,
    /// True when the frame is known all-zero and untouched since (used for
    /// pre-zeroing: allocation can skip the zeroing charge).
    clean: bool,
    content: PageContent,
}

/// One metadata mutex per frame, indexed by frame number.
type FrameTable = Vec<TrackedMutex<Frame>>;

/// Frame `i` of a new memory: free, unpinned, full of residue.
fn fresh_frame(page: PageSize, i: usize) -> TrackedMutex<Frame> {
    TrackedMutex::new(
        LockClass::PhysFrame,
        Frame {
            owner: None,
            pins: 0,
            clean: false,
            content: PageContent::garbage(page.bytes(), i as u64),
        },
    )
}

/// The frame table of the last memory dropped, already reset to fresh
/// frames, for the next memory of the same page size and frame count.
///
/// A host's table is one ~10 MB allocation. Freed back to `malloc`, it
/// became a heap hole that later small allocations split, so after a
/// hundred-odd hosts in one process the next table no longer fit and the
/// heap grew by a whole table: resident memory stepped up by ~9 MB at a
/// host count that varied run to run. Reusing the table keeps one host
/// after another on the same pages.
static SPARE_FRAMES: LazyLock<TrackedMutex<Option<(PageSize, FrameTable)>>> =
    LazyLock::new(|| TrackedMutex::new(LockClass::PhysSpareFrames, None));

/// Takes the spare table if it has `page`-sized frames and `total` of them.
fn take_spare_frames(page: PageSize, total: usize) -> Option<FrameTable> {
    let mut spare = SPARE_FRAMES.lock();
    match spare.take() {
        Some((p, frames)) if p == page && frames.len() == total => Some(frames),
        other => {
            *spare = other;
            None
        }
    }
}

/// Counters exposed by [`PhysMemory::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Frames currently free.
    pub free_frames: usize,
    /// Total frames.
    pub total_frames: usize,
    /// Completed allocation calls.
    pub allocations: u64,
    /// Contiguous batches retrieved (higher = more fragmentation cost).
    pub batches_retrieved: u64,
    /// Frames zeroed through the charged (bandwidth-consuming) path.
    pub frames_zeroed_charged: u64,
    /// Frames zeroed for free by the idle-time pre-zero pass.
    pub frames_prezeroed: u64,
    /// Always 0: the allocator has one free list, so nothing is ever
    /// taken from another one. Kept because the frozen benchmark reads it
    /// (`benchmark/src/workload.rs`, `hostmem.frames_stolen`).
    pub frames_stolen: u64,
}

/// The host's physical memory: a fixed array of frames of one page size.
///
/// # Examples
///
/// ```
/// use fastiov_hostmem::{MemCosts, PageSize, PhysMemory};
///
/// let mem = PhysMemory::new(MemCosts::for_tests(), PageSize::Size2M, 64);
/// let ranges = mem.alloc_frames(8, 1).unwrap();
/// assert_eq!(ranges.iter().map(|r| r.count).sum::<usize>(), 8);
/// mem.zero_ranges(&ranges).unwrap();
/// mem.pin_ranges(&ranges).unwrap();
/// ```
pub struct PhysMemory {
    costs: MemCosts,
    page: PageSize,
    frames: FrameTable,
    /// Free frame indices, kept sorted (address order) for batched
    /// retrieval.
    free: TrackedMutex<BTreeSet<usize>>,
    nonce: AtomicU64,
    allocations: AtomicU64,
    batches: AtomicU64,
    zeroed_charged: AtomicU64,
    prezeroed: AtomicU64,
}

impl PhysMemory {
    /// Owner id used by [`PhysMemory::inject_fragmentation`].
    pub const OWNER_FRAG: u64 = u64::MAX;

    /// Creates a memory of `total_frames` frames of size `page`, all free.
    pub fn new(costs: MemCosts, page: PageSize, total_frames: usize) -> Arc<Self> {
        let frames = take_spare_frames(page, total_frames)
            .unwrap_or_else(|| (0..total_frames).map(|i| fresh_frame(page, i)).collect());
        Arc::new(PhysMemory {
            costs,
            page,
            frames,
            free: TrackedMutex::new(LockClass::PhysFreeList, (0..total_frames).collect()),
            nonce: AtomicU64::new(total_frames as u64),
            allocations: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            zeroed_charged: AtomicU64::new(0),
            prezeroed: AtomicU64::new(0),
        })
    }

    /// Wait/hold totals of the free-list lock class.
    pub fn free_lock_stats(&self) -> LockSnapshot {
        LockClass::PhysFreeList.stats()
    }

    /// The page size of every frame.
    pub fn page_size(&self) -> PageSize {
        self.page
    }

    /// The cost model in use.
    pub fn costs(&self) -> &MemCosts {
        &self.costs
    }

    /// Host physical address of a frame.
    pub fn hpa_of(&self, frame: FrameId) -> Hpa {
        Hpa(frame.0 as u64 * self.page.bytes())
    }

    /// Frame containing `hpa`, if in range.
    pub fn frame_of(&self, hpa: Hpa) -> Result<FrameId> {
        let idx = (hpa.raw() / self.page.bytes()) as usize;
        if idx < self.frames.len() {
            Ok(FrameId(idx))
        } else {
            Err(MemError::NotMapped(hpa.raw()))
        }
    }

    /// Allocates `count` frames for `owner`, returning contiguous ranges in
    /// address order (lowest free frames first) and charging the
    /// batched-retrieval cost.
    pub fn alloc_frames(&self, count: usize, owner: u64) -> Result<Vec<FrameRange>> {
        if count == 0 {
            return Ok(Vec::new());
        }
        let picked: Vec<usize> = {
            let mut free = self.free.lock();
            if free.len() < count {
                return Err(MemError::OutOfMemory {
                    requested: count,
                    available: free.len(),
                });
            }
            let picked: Vec<usize> = free.iter().take(count).copied().collect();
            for i in &picked {
                free.remove(i);
            }
            picked
        };
        let ranges = coalesce(&picked);
        for r in &ranges {
            for id in r.iter() {
                let mut f = self.frames[id.0].lock();
                debug_assert!(f.owner.is_none(), "allocating an owned frame");
                f.owner = Some(owner);
            }
        }
        // Charge retrieval per batch outside the free-list lock: the walk
        // itself is concurrent in the kernel; only the list pop is locked.
        self.batches
            .fetch_add(ranges.len() as u64, Ordering::Relaxed);
        self.allocations.fetch_add(1, Ordering::Relaxed);
        self.costs
            .cpu
            .run(self.costs.retrieval_per_batch * ranges.len() as u32);
        Ok(ranges)
    }

    /// Returns frame indices to the free list.
    fn reinsert_free(&self, indices: &[usize]) {
        self.free.lock().extend(indices);
    }

    /// Frees previously allocated ranges. Frames must belong to `owner` and
    /// be unpinned; their contents revert to garbage (next tenant residue).
    pub fn free_ranges(&self, ranges: &[FrameRange], owner: u64) -> Result<()> {
        for r in ranges {
            for id in r.iter() {
                let mut f = self
                    .frames
                    .get(id.0)
                    .ok_or(MemError::BadFrame(id.0))?
                    .lock();
                if f.owner != Some(owner) {
                    return Err(MemError::NotOwner {
                        frame: id.0,
                        owner: f.owner,
                    });
                }
                if f.pins > 0 {
                    return Err(MemError::PinUnderflow(id.0));
                }
                f.owner = None;
                f.clean = false;
                let nonce = self.nonce.fetch_add(1, Ordering::Relaxed);
                f.content.invalidate(nonce);
            }
        }
        let indices: Vec<usize> = ranges
            .iter()
            .flat_map(|r| r.iter().map(|id| id.0))
            .collect();
        self.reinsert_free(&indices);
        Ok(())
    }

    /// Zeroes every frame in `ranges`, charging memory bandwidth for the
    /// frames that are not already pre-zeroed clean.
    pub fn zero_ranges(&self, ranges: &[FrameRange]) -> Result<()> {
        let mut dirty_bytes = 0u64;
        let mut dirty = 0u64;
        for r in ranges {
            for id in r.iter() {
                let mut f = self
                    .frames
                    .get(id.0)
                    .ok_or(MemError::BadFrame(id.0))?
                    .lock();
                if !f.clean {
                    f.content.zero();
                    f.clean = true;
                    dirty_bytes += self.page.bytes();
                    dirty += 1;
                }
            }
        }
        self.zeroed_charged.fetch_add(dirty, Ordering::Relaxed);
        self.costs.membw.transfer(dirty_bytes);
        Ok(())
    }

    /// Zeroes a single frame, charging bandwidth (the lazy-zeroing path
    /// taken inside an EPT fault). Returns `true` if the frame actually
    /// needed zeroing.
    pub fn zero_frame(&self, id: FrameId) -> Result<bool> {
        let needed = {
            let mut f = self
                .frames
                .get(id.0)
                .ok_or(MemError::BadFrame(id.0))?
                .lock();
            if f.clean {
                false
            } else {
                f.content.zero();
                f.clean = true;
                true
            }
        };
        if needed {
            self.zeroed_charged.fetch_add(1, Ordering::Relaxed);
            self.costs.membw.transfer(self.page.bytes());
        }
        Ok(needed)
    }

    /// Pins every frame in `ranges` (refcount++), charging per-page CPU.
    pub fn pin_ranges(&self, ranges: &[FrameRange]) -> Result<()> {
        let mut pages = 0u32;
        for r in ranges {
            for id in r.iter() {
                let mut f = self
                    .frames
                    .get(id.0)
                    .ok_or(MemError::BadFrame(id.0))?
                    .lock();
                f.pins += 1;
                pages += 1;
            }
        }
        self.costs.cpu.run(self.costs.pin_per_page * pages);
        Ok(())
    }

    /// Unpins every frame in `ranges`.
    pub fn unpin_ranges(&self, ranges: &[FrameRange]) -> Result<()> {
        for r in ranges {
            for id in r.iter() {
                let mut f = self
                    .frames
                    .get(id.0)
                    .ok_or(MemError::BadFrame(id.0))?
                    .lock();
                if f.pins == 0 {
                    return Err(MemError::PinUnderflow(id.0));
                }
                f.pins -= 1;
            }
        }
        Ok(())
    }

    /// Pin count of a frame (test/diagnostic).
    pub fn pin_count(&self, id: FrameId) -> Result<u32> {
        Ok(self
            .frames
            .get(id.0)
            .ok_or(MemError::BadFrame(id.0))?
            .lock()
            .pins)
    }

    /// Owner of a frame (test/diagnostic).
    pub fn owner_of(&self, id: FrameId) -> Result<Option<u64>> {
        Ok(self
            .frames
            .get(id.0)
            .ok_or(MemError::BadFrame(id.0))?
            .lock()
            .owner)
    }

    /// True if the frame still exposes previous-owner residue.
    pub fn leaks_residue(&self, id: FrameId) -> Result<bool> {
        Ok(self
            .frames
            .get(id.0)
            .ok_or(MemError::BadFrame(id.0))?
            .lock()
            .content
            .leaks_residue())
    }

    /// Reads physical memory at `hpa`, possibly crossing frame boundaries.
    pub fn read_phys(&self, hpa: Hpa, buf: &mut [u8]) -> Result<()> {
        self.walk(hpa, buf.len() as u64, |frame, off, lo, hi, this| {
            let f = this.frames[frame].lock();
            f.content.read(off, &mut buf[lo..hi])
        })
    }

    /// Writes physical memory at `hpa`, possibly crossing frame boundaries.
    /// Marks touched frames dirty (not pre-zero clean).
    pub fn write_phys(&self, hpa: Hpa, data: &[u8]) -> Result<()> {
        self.walk(hpa, data.len() as u64, |frame, off, lo, hi, this| {
            let mut f = this.frames[frame].lock();
            f.clean = false;
            f.content.write(off, &data[lo..hi])
        })
    }

    fn walk(
        &self,
        hpa: Hpa,
        len: u64,
        mut f: impl FnMut(usize, u64, usize, usize, &Self) -> Result<()>,
    ) -> Result<()> {
        let page = self.page.bytes();
        let mut cursor = 0u64;
        while cursor < len {
            let addr = hpa.raw() + cursor;
            let frame = (addr / page) as usize;
            if frame >= self.frames.len() {
                return Err(MemError::NotMapped(addr));
            }
            let off = addr % page;
            let chunk = (page - off).min(len - cursor);
            f(frame, off, cursor as usize, (cursor + chunk) as usize, self)?;
            cursor += chunk;
        }
        Ok(())
    }

    /// Force-releases every frame owned by `owner`: pins are cleared,
    /// contents invalidated, frames returned to the free list. The error
    /// path of a failed microVM launch uses this to guarantee nothing is
    /// stranded. Returns the number of frames released.
    pub fn release_owner(&self, owner: u64) -> usize {
        let mut released = Vec::new();
        for (i, frame) in self.frames.iter().enumerate() {
            let mut f = frame.lock();
            if f.owner == Some(owner) {
                f.owner = None;
                f.pins = 0;
                f.clean = false;
                let nonce = self.nonce.fetch_add(1, Ordering::Relaxed);
                f.content.invalidate(nonce);
                released.push(i);
            }
        }
        self.reinsert_free(&released);
        released.len()
    }

    /// Idle-time pre-zeroing pass (HawkEye baseline): zeroes up to
    /// `fraction` of the currently free frames at no simulated cost (it
    /// happens during idle time, before the measured startup window).
    /// Returns the number of frames pre-zeroed.
    pub fn prezero_pass(&self, fraction: f64) -> usize {
        let targets: Vec<usize> = {
            let free = self.free.lock();
            let n = (free.len() as f64 * fraction.clamp(0.0, 1.0)).round() as usize;
            free.iter().take(n).copied().collect()
        };
        let mut done = 0;
        for i in &targets {
            let mut f = self.frames[*i].lock();
            // Only frames still free (owner none) are eligible; a racing
            // allocation may have grabbed one.
            if f.owner.is_none() && !f.clean {
                f.content.zero();
                f.clean = true;
                done += 1;
            }
        }
        self.prezeroed.fetch_add(done as u64, Ordering::Relaxed);
        done
    }

    /// Allocates scattered single frames to a synthetic owner so that the
    /// free list becomes fragmented (P2 sensitivity experiments). Every
    /// `stride`-th free frame is taken. Returns how many were taken.
    pub fn inject_fragmentation(&self, stride: usize) -> usize {
        assert!(stride >= 2, "stride < 2 would exhaust memory");
        let taken: Vec<usize> = {
            let mut free = self.free.lock();
            let taken: Vec<usize> = free.iter().step_by(stride).copied().collect();
            for i in &taken {
                free.remove(i);
            }
            taken
        };
        for &i in &taken {
            self.frames[i].lock().owner = Some(Self::OWNER_FRAG);
        }
        taken.len()
    }

    /// Current statistics.
    pub fn stats(&self) -> AllocStats {
        AllocStats {
            free_frames: self.free.lock().len(),
            total_frames: self.frames.len(),
            allocations: self.allocations.load(Ordering::Relaxed),
            batches_retrieved: self.batches.load(Ordering::Relaxed),
            frames_zeroed_charged: self.zeroed_charged.load(Ordering::Relaxed),
            frames_prezeroed: self.prezeroed.load(Ordering::Relaxed),
            frames_stolen: 0,
        }
    }
}

impl Drop for PhysMemory {
    /// Resets the frame table (dropping written contents, as freeing it
    /// would) and keeps it as the spare, replacing any older one.
    fn drop(&mut self) {
        let mut frames = std::mem::take(&mut self.frames);
        for (i, frame) in frames.iter_mut().enumerate() {
            *frame = fresh_frame(self.page, i);
        }
        let old = SPARE_FRAMES.lock().replace((self.page, frames));
        // Freed after the lock is released.
        drop(old);
    }
}

/// Groups sorted frame indices into contiguous [`FrameRange`]s.
///
/// Exposed for other crates (the MMU, VFIO) that need to coalesce frame
/// lists before batch operations.
pub fn coalesce_pub(sorted: &[usize]) -> Vec<FrameRange> {
    coalesce(sorted)
}

/// Groups sorted frame indices into contiguous ranges.
fn coalesce(sorted: &[usize]) -> Vec<FrameRange> {
    let mut out = Vec::new();
    let mut iter = sorted.iter().copied();
    let Some(first) = iter.next() else {
        return out;
    };
    let mut start = first;
    let mut len = 1usize;
    for i in iter {
        if i == start + len {
            len += 1;
        } else {
            out.push(FrameRange {
                start: FrameId(start),
                count: len,
            });
            start = i;
            len = 1;
        }
    }
    out.push(FrameRange {
        start: FrameId(start),
        count: len,
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(frames: usize) -> Arc<PhysMemory> {
        PhysMemory::new(MemCosts::for_tests(), PageSize::Size2M, frames)
    }

    #[test]
    fn coalesce_groups_runs() {
        let r = coalesce(&[0, 1, 2, 5, 6, 9]);
        assert_eq!(
            r,
            vec![
                FrameRange {
                    start: FrameId(0),
                    count: 3
                },
                FrameRange {
                    start: FrameId(5),
                    count: 2
                },
                FrameRange {
                    start: FrameId(9),
                    count: 1
                },
            ]
        );
        assert!(coalesce(&[]).is_empty());
    }

    #[test]
    fn alloc_contiguous_when_unfragmented() {
        let m = mem(32);
        let r = m.alloc_frames(8, 1).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].count, 8);
        assert_eq!(m.stats().free_frames, 24);
        assert_eq!(m.owner_of(FrameId(0)).unwrap(), Some(1));
    }

    #[test]
    fn fragmentation_multiplies_batches() {
        let m = mem(64);
        let taken = m.inject_fragmentation(2);
        assert_eq!(taken, 32);
        let r = m.alloc_frames(8, 1).unwrap();
        assert_eq!(r.len(), 8, "every frame is its own batch: {r:?}");
    }

    #[test]
    fn oom_is_reported() {
        let m = mem(4);
        let e = m.alloc_frames(5, 1).unwrap_err();
        assert!(matches!(
            e,
            MemError::OutOfMemory {
                requested: 5,
                available: 4
            }
        ));
    }

    #[test]
    fn fresh_frames_leak_residue_until_zeroed() {
        let m = mem(8);
        let r = m.alloc_frames(2, 1).unwrap();
        let first = r[0].start;
        assert!(m.leaks_residue(first).unwrap());
        m.zero_ranges(&r).unwrap();
        assert!(!m.leaks_residue(first).unwrap());
        assert_eq!(m.stats().frames_zeroed_charged, 2);
    }

    #[test]
    fn freed_frames_revert_to_residue() {
        let m = mem(8);
        let r = m.alloc_frames(1, 1).unwrap();
        m.zero_ranges(&r).unwrap();
        m.free_ranges(&r, 1).unwrap();
        // Next tenant sees garbage again.
        let r2 = m.alloc_frames(1, 2).unwrap();
        assert_eq!(r2[0].start, r[0].start, "allocator reuses lowest frame");
        assert!(m.leaks_residue(r2[0].start).unwrap());
    }

    #[test]
    fn pinned_frames_cannot_be_freed() {
        let m = mem(8);
        let r = m.alloc_frames(1, 1).unwrap();
        m.pin_ranges(&r).unwrap();
        assert!(m.free_ranges(&r, 1).is_err());
        m.unpin_ranges(&r).unwrap();
        m.free_ranges(&r, 1).unwrap();
    }

    #[test]
    fn unpin_underflow_detected() {
        let m = mem(8);
        let r = m.alloc_frames(1, 1).unwrap();
        assert!(matches!(m.unpin_ranges(&r), Err(MemError::PinUnderflow(_))));
    }

    #[test]
    fn wrong_owner_cannot_free() {
        let m = mem(8);
        let r = m.alloc_frames(1, 1).unwrap();
        assert!(matches!(
            m.free_ranges(&r, 2),
            Err(MemError::NotOwner { .. })
        ));
    }

    #[test]
    fn phys_rw_crosses_frames() {
        let m = mem(8);
        let r = m.alloc_frames(2, 1).unwrap();
        m.zero_ranges(&r).unwrap();
        let page = PageSize::Size2M.bytes();
        let base = m.hpa_of(r[0].start);
        let addr = Hpa(base.raw() + page - 4);
        m.write_phys(addr, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let mut buf = [0u8; 8];
        m.read_phys(addr, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn prezero_pass_marks_free_frames_clean() {
        let m = mem(16);
        let n = m.prezero_pass(0.5);
        assert_eq!(n, 8);
        assert_eq!(m.stats().frames_prezeroed, 8);
        // Allocating those frames must not charge zeroing again.
        let r = m.alloc_frames(8, 1).unwrap();
        m.zero_ranges(&r).unwrap();
        assert_eq!(m.stats().frames_zeroed_charged, 0);
    }

    #[test]
    fn write_dirties_clean_frame() {
        let m = mem(4);
        let r = m.alloc_frames(1, 1).unwrap();
        m.zero_ranges(&r).unwrap();
        m.write_phys(m.hpa_of(r[0].start), &[7]).unwrap();
        // Zeroing again must re-charge: the frame is dirty.
        m.zero_ranges(&r).unwrap();
        assert_eq!(m.stats().frames_zeroed_charged, 2);
    }

    #[test]
    fn zero_frame_single_is_idempotent() {
        let m = mem(4);
        let r = m.alloc_frames(1, 1).unwrap();
        assert!(m.zero_frame(r[0].start).unwrap());
        assert!(!m.zero_frame(r[0].start).unwrap());
    }

    #[test]
    fn release_owner_reclaims_even_pinned_frames() {
        let m = mem(16);
        let r1 = m.alloc_frames(4, 1).unwrap();
        let _r2 = m.alloc_frames(4, 2).unwrap();
        m.pin_ranges(&r1).unwrap();
        assert_eq!(m.release_owner(1), 4);
        assert_eq!(m.stats().free_frames, 12);
        // Owner 2's frames untouched.
        assert_eq!(m.release_owner(1), 0);
        // Released frames are residue for the next tenant.
        let r3 = m.alloc_frames(1, 3).unwrap();
        assert!(m.leaks_residue(r3[0].start).unwrap());
    }

    #[test]
    fn free_lock_stats_accumulate() {
        let m = mem(8);
        let r = m.alloc_frames(4, 1).unwrap();
        m.free_ranges(&r, 1).unwrap();
        let s = m.free_lock_stats();
        assert!(s.acquisitions >= 2);
    }

    #[test]
    fn a_recycled_frame_table_comes_back_fresh() {
        // 13 frames: a shape no other test builds, so the next memory
        // normally takes the table this drop leaves as the spare.
        let residue = |m: &PhysMemory| {
            let mut buf = [0u8; 16];
            m.read_phys(m.hpa_of(FrameId(5)), &mut buf).unwrap();
            buf
        };
        let m = mem(13);
        let expect = residue(&m);
        let r = m.alloc_frames(13, 1).unwrap();
        m.zero_ranges(&r).unwrap();
        m.pin_ranges(&r).unwrap();
        m.write_phys(m.hpa_of(FrameId(5)), &[9; 16]).unwrap();
        drop(m);

        let m = mem(13);
        assert_eq!(m.stats().free_frames, 13);
        assert!(m.leaks_residue(FrameId(5)).unwrap());
        assert_eq!(residue(&m), expect);
        // Unowned and unpinned: a new owner can take and free every frame.
        let r = m.alloc_frames(13, 2).unwrap();
        m.free_ranges(&r, 2).unwrap();
    }

    #[test]
    fn hpa_frame_round_trip() {
        let m = mem(4);
        let id = FrameId(3);
        assert_eq!(m.frame_of(m.hpa_of(id)).unwrap(), id);
        assert!(m.frame_of(Hpa(100 * PageSize::Size2M.bytes())).is_err());
    }
}
