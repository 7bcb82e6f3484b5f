//! The physical frame allocator.
//!
//! Models the paper's DMA-mapping cost structure (§3.2.3, Fig. 6):
//! *retrieving* walks the free list in address order and groups contiguous
//! frames into batches (cost per batch — fragmentation hurts, hugepages
//! help); *zeroing* moves whole pages through the shared memory-bandwidth
//! resource (the dominant cost); *pinning* bumps per-frame reference
//! counts so HPAs stay valid for DMA. Each of those is charged once per
//! call, and the bookkeeping behind it is done under one lock per call.

use crate::addr::{Hpa, PageSize};
use crate::content::PageContent;
use crate::{MemError, Result};
use fastiov_simtime::{Clock, CpuPool, FairShareBandwidth, LockClass, LockSnapshot, TrackedMutex};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;
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
    /// A cost model suitable for functional tests: plentiful resources
    /// on the test's own `clock`.
    pub fn for_tests(clock: Clock) -> Self {
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

/// A memory's frames, indexed by frame number.
type FrameTable = Vec<Frame>;

/// Frame `i` of a new memory: free, unpinned, full of residue.
fn fresh_frame(page: PageSize, i: usize) -> Frame {
    Frame {
        owner: None,
        pins: 0,
        clean: false,
        content: PageContent::garbage(page.bytes(), i as u64),
    }
}

std::thread_local! {
    /// The frame table of the last memory this thread dropped, already
    /// reset to fresh frames, for the next memory of the same page size
    /// and frame count.
    ///
    /// A host's table is one ~10 MB allocation. Freed back to `malloc`,
    /// it became a heap hole that later small allocations split, so after
    /// a hundred-odd hosts in one process the next table no longer fit
    /// and the heap grew by a whole table: resident memory stepped up by
    /// ~9 MB at a host count that varied run to run. Reusing the table
    /// keeps one host after another on the same pages. It is kept per
    /// thread, as the thread that builds hosts one after another also
    /// drops them, so hosts on different threads (and clocks) share no
    /// lock.
    static SPARE_FRAMES: RefCell<Option<(PageSize, FrameTable)>> = const { RefCell::new(None) };
}

/// Takes the spare table if it has `page`-sized frames and `total` of them.
fn take_spare_frames(page: PageSize, total: usize) -> Option<FrameTable> {
    SPARE_FRAMES.with_borrow_mut(|spare| match spare.take() {
        Some((p, frames)) if p == page && frames.len() == total => Some(frames),
        other => {
            *spare = other;
            None
        }
    })
}

/// The free frames as maximal runs of contiguous frames: start → length.
/// Runs never overlap and never touch, so the runs taken from the front
/// are exactly the batches an address-ordered walk would coalesce.
#[derive(Debug, Default)]
struct FreeRuns {
    runs: BTreeMap<usize, usize>,
    frames: usize,
}

impl FreeRuns {
    /// Every frame of `0..total` free.
    fn all(total: usize) -> Self {
        let mut free = FreeRuns::default();
        free.insert(0, total);
        free
    }

    /// Returns `start..start + count` (not free before) to the list,
    /// merging it with the runs it touches.
    fn insert(&mut self, mut start: usize, count: usize) {
        if count == 0 {
            return;
        }
        let end = start + count;
        if let Some((&s, &n)) = self.runs.range(..start).next_back() {
            debug_assert!(s + n <= start, "freeing a free frame");
            if s + n == start {
                self.runs.remove(&s);
                start = s;
            }
        }
        let end = end + self.runs.remove(&end).unwrap_or(0);
        debug_assert!(
            self.runs.range(start..end).next().is_none(),
            "freeing a free frame"
        );
        self.runs.insert(start, end - start);
        self.frames += count;
    }

    /// Takes the lowest `count` free frames (at most [`FreeRuns::frames`]),
    /// one range per run they come from, in address order.
    fn take_lowest(&mut self, count: usize) -> Vec<FrameRange> {
        let mut out = Vec::new();
        let mut need = count.min(self.frames);
        while need > 0 {
            let Some((start, len)) = self.runs.pop_first() else {
                break;
            };
            let take = len.min(need);
            if take < len {
                self.runs.insert(start + take, len - take);
            }
            out.push(FrameRange {
                start: FrameId(start),
                count: take,
            });
            need -= take;
        }
        self.frames -= out.iter().map(|r| r.count).sum::<usize>();
        out
    }

    /// Free frame indices in address order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs.iter().flat_map(|(&s, &n)| s..s + n)
    }
}

/// Everything behind the memory's one lock.
struct State {
    frames: FrameTable,
    free: FreeRuns,
    /// Nonce of the residue the next freed frame reads as.
    nonce: u64,
    /// The counters of [`AllocStats`]; its two sizes are filled on read.
    counts: AllocStats,
}

impl State {
    /// Fails with [`MemError::BadFrame`] (the first frame past the end)
    /// unless every range lies inside the table.
    fn check_bounds(&self, ranges: &[FrameRange]) -> Result<()> {
        let total = self.frames.len();
        match ranges
            .iter()
            .find(|r| r.count > 0 && r.start.0 + r.count > total)
        {
            Some(r) => Err(MemError::BadFrame(r.start.0.max(total))),
            None => Ok(()),
        }
    }

    /// Turns a freed or released frame back into fresh residue.
    fn invalidate(&mut self, i: usize) {
        let f = &mut self.frames[i];
        f.owner = None;
        f.pins = 0;
        f.clean = false;
        f.content.invalidate(self.nonce);
        self.nonce += 1;
    }
}

/// Frame indices of `ranges`, in order.
fn frame_indices(ranges: &[FrameRange]) -> impl Iterator<Item = usize> + '_ {
    ranges.iter().flat_map(|r| r.start.0..r.start.0 + r.count)
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
/// One lock guards the frame table and the free runs, and every call takes
/// it once. The modelled charges (CPU for retrieval and pinning, memory
/// bandwidth for zeroing) are paid after it is released, so no simulated
/// wait ever happens under it.
///
/// # Examples
///
/// ```
/// use fastiov_hostmem::{MemCosts, PageSize, PhysMemory};
/// use fastiov_simtime::Clock;
///
/// let mem = PhysMemory::new(MemCosts::for_tests(Clock::new_virtual(1.0)), PageSize::Size2M, 64);
/// let ranges = mem.alloc_frames(8, 1).unwrap();
/// assert_eq!(ranges.iter().map(|r| r.count).sum::<usize>(), 8);
/// mem.zero_ranges(&ranges).unwrap();
/// mem.pin_ranges(&ranges).unwrap();
/// ```
pub struct PhysMemory {
    costs: MemCosts,
    page: PageSize,
    total: usize,
    state: TrackedMutex<State>,
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
            total: total_frames,
            state: TrackedMutex::new(
                LockClass::PhysMemory,
                State {
                    frames,
                    free: FreeRuns::all(total_frames),
                    nonce: total_frames as u64,
                    counts: AllocStats::default(),
                },
            ),
        })
    }

    /// Acquisition and wait totals of the lock class the frame table and
    /// free list live under, on the calling thread's clock; a bookkeeping
    /// class, so its `hold_ns` is 0.
    pub fn free_lock_stats(&self) -> LockSnapshot {
        LockClass::PhysMemory.stats()
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
        if idx < self.total {
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
        let ranges = {
            let mut s = self.state.lock();
            if s.free.frames < count {
                return Err(MemError::OutOfMemory {
                    requested: count,
                    available: s.free.frames,
                });
            }
            let ranges = s.free.take_lowest(count);
            for i in frame_indices(&ranges) {
                let f = &mut s.frames[i];
                debug_assert!(f.owner.is_none(), "allocating an owned frame");
                f.owner = Some(owner);
            }
            s.counts.batches_retrieved += ranges.len() as u64;
            s.counts.allocations += 1;
            ranges
        };
        // Charge retrieval per batch outside the lock: the walk itself is
        // concurrent in the kernel; only the list pop is locked.
        self.costs
            .cpu
            .run(self.costs.retrieval_per_batch * ranges.len() as u32);
        Ok(ranges)
    }

    /// Frees previously allocated ranges. Frames must belong to `owner` and
    /// be unpinned; their contents revert to garbage (next tenant residue).
    /// Every frame is checked before any is freed, so a failed call changes
    /// nothing.
    pub fn free_ranges(&self, ranges: &[FrameRange], owner: u64) -> Result<()> {
        let mut s = self.state.lock();
        s.check_bounds(ranges)?;
        // Claim each frame by clearing its owner. A frame named twice then
        // reads as unowned, as a double free would; on any failure the
        // claims made so far are handed back.
        for (n, i) in frame_indices(ranges).enumerate() {
            let f = &mut s.frames[i];
            let err = if f.owner != Some(owner) {
                Some(MemError::NotOwner {
                    frame: i,
                    owner: f.owner,
                })
            } else if f.pins > 0 {
                Some(MemError::Pinned(i))
            } else {
                None
            };
            if let Some(e) = err {
                for j in frame_indices(ranges).take(n) {
                    s.frames[j].owner = Some(owner);
                }
                return Err(e);
            }
            f.owner = None;
        }
        for i in frame_indices(ranges) {
            s.invalidate(i);
        }
        for r in ranges {
            s.free.insert(r.start.0, r.count);
        }
        Ok(())
    }

    /// Zeroes every frame in `ranges`, charging memory bandwidth for the
    /// frames that are not already pre-zeroed clean.
    pub fn zero_ranges(&self, ranges: &[FrameRange]) -> Result<()> {
        let dirty = {
            let mut s = self.state.lock();
            s.check_bounds(ranges)?;
            let mut dirty = 0u64;
            for i in frame_indices(ranges) {
                let f = &mut s.frames[i];
                if !f.clean {
                    f.content.zero();
                    f.clean = true;
                    dirty += 1;
                }
            }
            s.counts.frames_zeroed_charged += dirty;
            dirty
        };
        self.costs.membw.transfer(dirty * self.page.bytes());
        Ok(())
    }

    /// Zeroes a single frame, charging bandwidth (the lazy-zeroing path
    /// taken inside an EPT fault). Returns `true` if the frame actually
    /// needed zeroing.
    pub fn zero_frame(&self, id: FrameId) -> Result<bool> {
        let needed = {
            let mut s = self.state.lock();
            let f = s.frames.get_mut(id.0).ok_or(MemError::BadFrame(id.0))?;
            let needed = !f.clean;
            if needed {
                f.content.zero();
                f.clean = true;
                s.counts.frames_zeroed_charged += 1;
            }
            needed
        };
        if needed {
            self.costs.membw.transfer(self.page.bytes());
        }
        Ok(needed)
    }

    /// Pins every frame in `ranges` (refcount++), charging per-page CPU.
    pub fn pin_ranges(&self, ranges: &[FrameRange]) -> Result<()> {
        let pages = {
            let mut s = self.state.lock();
            s.check_bounds(ranges)?;
            let mut pages = 0u32;
            for i in frame_indices(ranges) {
                s.frames[i].pins += 1;
                pages += 1;
            }
            pages
        };
        self.costs.cpu.run(self.costs.pin_per_page * pages);
        Ok(())
    }

    /// Unpins every frame in `ranges`. Every frame is checked before any
    /// count changes, so a failed call changes nothing.
    pub fn unpin_ranges(&self, ranges: &[FrameRange]) -> Result<()> {
        let mut s = self.state.lock();
        s.check_bounds(ranges)?;
        // Unpin in order; a frame named more often than it is pinned
        // underflows, and then the unpins made so far are undone.
        for (n, i) in frame_indices(ranges).enumerate() {
            if s.frames[i].pins == 0 {
                for j in frame_indices(ranges).take(n) {
                    s.frames[j].pins += 1;
                }
                return Err(MemError::PinUnderflow(i));
            }
            s.frames[i].pins -= 1;
        }
        Ok(())
    }

    /// Runs `f` on frame `id` under the lock (test/diagnostic accessors).
    fn with_frame<T>(&self, id: FrameId, f: impl FnOnce(&Frame) -> T) -> Result<T> {
        let s = self.state.lock();
        s.frames.get(id.0).map(f).ok_or(MemError::BadFrame(id.0))
    }

    /// Pin count of a frame (test/diagnostic).
    pub fn pin_count(&self, id: FrameId) -> Result<u32> {
        self.with_frame(id, |f| f.pins)
    }

    /// Owner of a frame (test/diagnostic).
    pub fn owner_of(&self, id: FrameId) -> Result<Option<u64>> {
        self.with_frame(id, |f| f.owner)
    }

    /// True if the frame still exposes previous-owner residue.
    pub fn leaks_residue(&self, id: FrameId) -> Result<bool> {
        self.with_frame(id, |f| f.content.leaks_residue())
    }

    /// Reads physical memory at `hpa`, possibly crossing frame boundaries.
    pub fn read_phys(&self, hpa: Hpa, buf: &mut [u8]) -> Result<()> {
        let s = self.state.lock();
        self.walk(hpa, buf.len() as u64, |frame, off, lo, hi| {
            s.frames[frame].content.read(off, &mut buf[lo..hi])
        })
    }

    /// Writes physical memory at `hpa`, possibly crossing frame boundaries.
    /// Marks touched frames dirty (not pre-zero clean).
    pub fn write_phys(&self, hpa: Hpa, data: &[u8]) -> Result<()> {
        let mut s = self.state.lock();
        self.walk(hpa, data.len() as u64, |frame, off, lo, hi| {
            let f = &mut s.frames[frame];
            f.clean = false;
            f.content.write(off, &data[lo..hi])
        })
    }

    /// Calls `f(frame, offset, lo, hi)` for each frame-sized piece of
    /// `[hpa, hpa + len)`, where `lo..hi` is the piece's span in the
    /// caller's buffer.
    fn walk(
        &self,
        hpa: Hpa,
        len: u64,
        mut f: impl FnMut(usize, u64, usize, usize) -> Result<()>,
    ) -> Result<()> {
        let page = self.page.bytes();
        let mut cursor = 0u64;
        while cursor < len {
            let addr = hpa.raw() + cursor;
            let frame = (addr / page) as usize;
            if frame >= self.total {
                return Err(MemError::NotMapped(addr));
            }
            let off = addr % page;
            let chunk = (page - off).min(len - cursor);
            f(frame, off, cursor as usize, (cursor + chunk) as usize)?;
            cursor += chunk;
        }
        Ok(())
    }

    /// Force-releases every frame owned by `owner`: pins are cleared,
    /// contents invalidated, frames returned to the free list. The error
    /// path of a failed microVM launch uses this to guarantee nothing is
    /// stranded. Returns the number of frames released.
    pub fn release_owner(&self, owner: u64) -> usize {
        let mut s = self.state.lock();
        let released: Vec<usize> = (0..s.frames.len())
            .filter(|&i| s.frames[i].owner == Some(owner))
            .collect();
        for &i in &released {
            s.invalidate(i);
        }
        for r in coalesce(&released) {
            s.free.insert(r.start.0, r.count);
        }
        released.len()
    }

    /// Idle-time pre-zeroing pass (HawkEye baseline): zeroes up to
    /// `fraction` of the currently free frames at no simulated cost (it
    /// happens during idle time, before the measured startup window).
    /// Returns the number of frames pre-zeroed.
    pub fn prezero_pass(&self, fraction: f64) -> usize {
        let mut s = self.state.lock();
        let s = &mut *s;
        let n = (s.free.frames as f64 * fraction.clamp(0.0, 1.0)).round() as usize;
        let mut done = 0;
        for i in s.free.iter().take(n) {
            let f = &mut s.frames[i];
            debug_assert!(f.owner.is_none(), "a free frame has an owner");
            if !f.clean {
                f.content.zero();
                f.clean = true;
                done += 1;
            }
        }
        s.counts.frames_prezeroed += done as u64;
        done
    }

    /// Allocates scattered single frames to a synthetic owner so that the
    /// free list becomes fragmented (P2 sensitivity experiments). Every
    /// `stride`-th free frame is taken. Returns how many were taken.
    pub fn inject_fragmentation(&self, stride: usize) -> usize {
        assert!(stride >= 2, "stride < 2 would exhaust memory");
        let mut s = self.state.lock();
        let mut taken = Vec::new();
        let mut kept = Vec::new();
        for (n, i) in s.free.iter().enumerate() {
            if n % stride == 0 {
                taken.push(i);
            } else {
                kept.push(i);
            }
        }
        s.free = FreeRuns::default();
        for r in coalesce(&kept) {
            s.free.insert(r.start.0, r.count);
        }
        for &i in &taken {
            s.frames[i].owner = Some(Self::OWNER_FRAG);
        }
        taken.len()
    }

    /// Current statistics.
    pub fn stats(&self) -> AllocStats {
        let s = self.state.lock();
        AllocStats {
            free_frames: s.free.frames,
            total_frames: s.frames.len(),
            ..s.counts
        }
    }
}

impl Drop for PhysMemory {
    /// Resets the frame table (dropping written contents, as freeing it
    /// would) and keeps it as the spare, replacing any older one. A pooled
    /// simulation worker frees it instead: it never exits, so a spare kept
    /// on it would never be freed.
    fn drop(&mut self) {
        if fastiov_simtime::on_worker_thread() {
            return;
        }
        let mut frames = std::mem::take(&mut self.state.lock().frames);
        for (i, frame) in frames.iter_mut().enumerate() {
            *frame = fresh_frame(self.page, i);
        }
        // A thread past its thread-locals frees the table instead.
        let _ = SPARE_FRAMES.try_with(|spare| spare.replace(Some((self.page, frames))));
    }
}

/// Groups sorted frame indices into contiguous [`FrameRange`]s.
pub(crate) fn coalesce(sorted: &[usize]) -> Vec<FrameRange> {
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
    use fastiov_simtime::rng::Rng;
    use std::collections::BTreeSet;

    fn mem(frames: usize) -> Arc<PhysMemory> {
        let costs = MemCosts::for_tests(Clock::new_virtual(1.0));
        PhysMemory::new(costs, PageSize::Size2M, frames)
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
        // The next 13-frame memory this thread builds takes the table
        // this drop leaves as its spare.
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
    fn a_pooled_worker_keeps_no_spare_frame_table() {
        let clock = Clock::new_virtual(1.0);
        let c = clock.clone();
        let worker = fastiov_simtime::spawn(&clock, "dropper", move || {
            drop(PhysMemory::new(
                MemCosts::for_tests(c),
                PageSize::Size2M,
                11,
            ));
            take_spare_frames(PageSize::Size2M, 11).is_none()
        });
        assert!(worker.join().expect("dropper"), "a worker kept the table");
        // The driver, which builds host after host, keeps it.
        drop(PhysMemory::new(
            MemCosts::for_tests(clock),
            PageSize::Size2M,
            11,
        ));
        assert!(take_spare_frames(PageSize::Size2M, 11).is_some());
    }

    #[test]
    fn hpa_frame_round_trip() {
        let m = mem(4);
        let id = FrameId(3);
        assert_eq!(m.frame_of(m.hpa_of(id)).unwrap(), id);
        assert!(m.frame_of(Hpa(100 * PageSize::Size2M.bytes())).is_err());
    }

    /// Every frame's owner and pin count, plus the free-frame count.
    fn snapshot(m: &PhysMemory) -> (Vec<(Option<u64>, u32)>, usize) {
        let frames = (0..m.stats().total_frames)
            .map(|i| {
                let id = FrameId(i);
                (m.owner_of(id).unwrap(), m.pin_count(id).unwrap())
            })
            .collect();
        (frames, m.stats().free_frames)
    }

    fn range(start: usize, count: usize) -> FrameRange {
        FrameRange {
            start: FrameId(start),
            count,
        }
    }

    #[test]
    fn freeing_a_pinned_frame_fails_and_changes_nothing() {
        let m = mem(16);
        let r = m.alloc_frames(4, 1).unwrap();
        m.pin_ranges(&[range(3, 1)]).unwrap();
        let before = snapshot(&m);
        assert_eq!(m.free_ranges(&r, 1), Err(MemError::Pinned(3)));
        assert_eq!(snapshot(&m), before);
        assert_eq!(m.stats().free_frames, 12);
        m.unpin_ranges(&[range(3, 1)]).unwrap();
        m.free_ranges(&r, 1).unwrap();
        assert_eq!(m.stats().free_frames, 16);
    }

    #[test]
    fn freeing_another_owners_frame_fails_and_changes_nothing() {
        let m = mem(16);
        m.alloc_frames(4, 1).unwrap();
        m.alloc_frames(4, 2).unwrap();
        let before = snapshot(&m);
        assert_eq!(
            m.free_ranges(&[range(0, 8)], 1),
            Err(MemError::NotOwner {
                frame: 4,
                owner: Some(2)
            })
        );
        assert_eq!(snapshot(&m), before);
    }

    #[test]
    fn freeing_a_frame_twice_in_one_call_fails_and_changes_nothing() {
        let m = mem(16);
        m.alloc_frames(4, 1).unwrap();
        let before = snapshot(&m);
        assert_eq!(
            m.free_ranges(&[range(0, 2), range(1, 2)], 1),
            Err(MemError::NotOwner {
                frame: 1,
                owner: None
            })
        );
        assert_eq!(snapshot(&m), before);
    }

    #[test]
    fn freeing_past_the_end_fails_and_changes_nothing() {
        let m = mem(16);
        m.alloc_frames(16, 1).unwrap();
        let before = snapshot(&m);
        assert_eq!(
            m.free_ranges(&[range(0, 4), range(14, 4)], 1),
            Err(MemError::BadFrame(16))
        );
        assert_eq!(snapshot(&m), before);
    }

    #[test]
    fn unpinning_an_unpinned_frame_fails_and_changes_nothing() {
        let m = mem(16);
        let r = m.alloc_frames(4, 1).unwrap();
        m.pin_ranges(&[range(0, 2)]).unwrap();
        let before = snapshot(&m);
        assert_eq!(m.unpin_ranges(&r), Err(MemError::PinUnderflow(2)));
        assert_eq!(snapshot(&m), before);
        // Named twice but pinned once: the second unpin underflows.
        assert_eq!(
            m.unpin_ranges(&[range(1, 1), range(1, 1)]),
            Err(MemError::PinUnderflow(1))
        );
        assert_eq!(snapshot(&m), before);
    }

    /// The address-ordered `BTreeSet` allocator the free runs replaced.
    struct Reference {
        free: BTreeSet<usize>,
        owner: Vec<Option<u64>>,
        clean: Vec<bool>,
        batches: u64,
    }

    impl Reference {
        fn new(total: usize) -> Self {
            Reference {
                free: (0..total).collect(),
                owner: vec![None; total],
                clean: vec![false; total],
                batches: 0,
            }
        }

        fn alloc(&mut self, count: usize, owner: u64) -> Result<Vec<FrameRange>> {
            if self.free.len() < count {
                return Err(MemError::OutOfMemory {
                    requested: count,
                    available: self.free.len(),
                });
            }
            let picked: Vec<usize> = self.free.iter().take(count).copied().collect();
            for &i in &picked {
                self.free.remove(&i);
                self.owner[i] = Some(owner);
            }
            let ranges = coalesce(&picked);
            self.batches += ranges.len() as u64;
            Ok(ranges)
        }

        fn release(&mut self, i: usize) {
            self.owner[i] = None;
            self.clean[i] = false;
            self.free.insert(i);
        }
    }

    /// A seeded mix of every call that moves frames on or off the free
    /// list, against the reference: same ranges, batches and free count
    /// after every step.
    #[test]
    fn free_runs_match_a_frame_set() {
        const TOTAL: usize = 256;
        for seed in 1..=6 {
            let mut rng = Rng::new(seed);
            let m = mem(TOTAL);
            let mut r = Reference::new(TOTAL);
            let mut live: Vec<(u64, Vec<FrameRange>)> = Vec::new();
            for step in 0..600 {
                match rng.below(16) {
                    0..=6 => {
                        let count = 1 + rng.below(24) as usize;
                        let owner = 1 + rng.below(4);
                        let got = m.alloc_frames(count, owner);
                        assert_eq!(got, r.alloc(count, owner), "seed {seed} step {step}");
                        if let Ok(ranges) = got {
                            live.push((owner, ranges));
                        }
                    }
                    7..=11 if !live.is_empty() => {
                        let (owner, ranges) =
                            live.swap_remove(rng.below(live.len() as u64) as usize);
                        m.free_ranges(&ranges, owner).unwrap();
                        frame_indices(&ranges).for_each(|i| r.release(i));
                    }
                    12 => {
                        let stride = 2 + rng.below(6) as usize;
                        let taken: Vec<usize> = r.free.iter().copied().step_by(stride).collect();
                        for &i in &taken {
                            r.free.remove(&i);
                            r.owner[i] = Some(PhysMemory::OWNER_FRAG);
                        }
                        assert_eq!(m.inject_fragmentation(stride), taken.len());
                    }
                    13 => {
                        let fraction = rng.below(5) as f64 / 4.0;
                        let n = (r.free.len() as f64 * fraction).round() as usize;
                        let dirty: Vec<usize> = r
                            .free
                            .iter()
                            .take(n)
                            .copied()
                            .filter(|&i| !r.clean[i])
                            .collect();
                        dirty.iter().for_each(|&i| r.clean[i] = true);
                        assert_eq!(m.prezero_pass(fraction), dirty.len());
                    }
                    _ => {
                        let owner = if rng.below(4) == 0 {
                            PhysMemory::OWNER_FRAG
                        } else {
                            1 + rng.below(4)
                        };
                        let owned: Vec<usize> =
                            (0..TOTAL).filter(|&i| r.owner[i] == Some(owner)).collect();
                        owned.iter().for_each(|&i| r.release(i));
                        live.retain(|(o, _)| *o != owner);
                        assert_eq!(m.release_owner(owner), owned.len());
                    }
                }
                let stats = m.stats();
                assert_eq!(stats.free_frames, r.free.len(), "seed {seed} step {step}");
                assert_eq!(
                    stats.batches_retrieved, r.batches,
                    "seed {seed} step {step}"
                );
                let owners: Vec<Option<u64>> = (0..TOTAL)
                    .map(|i| m.owner_of(FrameId(i)).unwrap())
                    .collect();
                assert_eq!(owners, r.owner, "seed {seed} step {step}");
            }
        }
    }
}
