//! `fastiovd` — the FastIOV kernel module (§5).
//!
//! Implements decoupled (lazy) zeroing for passthrough-enabled microVMs:
//!
//! - a **two-tier table**: PID → (HPA page → frame), populated by
//!   the VFIO DMA-map path when it allocates guest pages *without* zeroing
//!   them. The second tier is the paper's hash table; the first is
//!   ordered, so a scrub sweep visits VMs in a repeatable order;
//! - the **EPT-fault zeroing** entry point ([`Fastiovd::on_ept_fault`],
//!   installed into KVM as an [`EptFaultHook`]): on a guest's first touch
//!   of a tracked page, the page is zeroed, removed from the table, and
//!   only then mapped;
//! - the **instant zeroing list**: regions the hypervisor writes directly
//!   (BIOS, kernel image) are zeroed immediately and never tracked,
//!   avoiding the §4.3.2 crash where a later EPT fault would wipe
//!   hypervisor-written data;
//! - a **background scrubber** thread that drains remaining tracked pages
//!   during idle moments, overlapping zeroing with other startup stages.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use fastiov_faults::{sites, FaultPlane};
use fastiov_hostmem::{FrameId, FrameRange, Hpa, PhysMemory};
use fastiov_kvm::EptFaultHook;
use fastiov_simtime::{Clock, LockClass, LockSnapshot, TrackedMutex};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Second tier of the table: one per microVM.
#[derive(Debug, Default)]
struct VmTable {
    /// HPA page base → the tracked (to-be-lazily-zeroed) frame.
    pages: HashMap<u64, FrameId>,
    /// Registration-order queue of HPA keys. The scrubber pops FIFO
    /// victims from the front instead of sorting every tracked key per
    /// sweep; keys already untracked by an EPT fault or the instant list
    /// are stale and skipped on pop.
    order: VecDeque<u64>,
}

/// Counters exposed by [`Fastiovd::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastiovdStats {
    /// Pages zeroed inside EPT faults.
    pub lazily_zeroed: u64,
    /// Pages zeroed by the background scrubber.
    pub background_zeroed: u64,
    /// Pages zeroed through the instant-zeroing list.
    pub instantly_zeroed: u64,
    /// Pages currently tracked across all VMs.
    pub tracked: usize,
    /// Pages registered in total.
    pub registered: u64,
}

/// The module state.
///
/// Both tiers sit behind one lock: it is never held across a blocking
/// point (zeroing is charged after it is released), so no simulated
/// thread ever waits on it. The page count is an atomic
/// ([`FastiovdStats::tracked`]) so `stats()` never walks the tables.
pub struct Fastiovd {
    mem: Arc<PhysMemory>,
    clock: Clock,
    /// PID → VM table; ordered, so a scrub sweep visits VMs by pid.
    tables: TrackedMutex<BTreeMap<u64, VmTable>>,
    /// Pages currently tracked across all VMs.
    tracked: AtomicU64,
    lazily_zeroed: AtomicU64,
    background_zeroed: AtomicU64,
    instantly_zeroed: AtomicU64,
    registered: AtomicU64,
    scrub_running: AtomicBool,
    /// Fault plane consulted when the DMA-map path registers pages.
    faults: Arc<FaultPlane>,
}

impl Fastiovd {
    /// Loads the module, consulting `faults` when pages are registered.
    ///
    /// The registration and instant-zero paths open spans on the clock's
    /// tracer. The per-page EPT-fault path is deliberately *not* traced:
    /// its span count depends on guest touch order and it is far too hot.
    pub fn new(clock: Clock, mem: Arc<PhysMemory>, faults: Arc<FaultPlane>) -> Arc<Self> {
        Arc::new(Fastiovd {
            mem,
            clock,
            tables: TrackedMutex::new(LockClass::FastiovdTier1, BTreeMap::new()),
            tracked: AtomicU64::new(0),
            lazily_zeroed: AtomicU64::new(0),
            background_zeroed: AtomicU64::new(0),
            instantly_zeroed: AtomicU64::new(0),
            registered: AtomicU64::new(0),
            scrub_running: AtomicBool::new(false),
            faults,
        })
    }

    /// The simulation clock the module runs on.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Acquisition and wait totals of the table's lock class on the
    /// calling thread's clock; a bookkeeping class, so its `hold_ns` is 0.
    pub fn tier1_lock_stats(&self) -> LockSnapshot {
        LockClass::FastiovdTier1.stats()
    }

    /// Registers freshly allocated, *unzeroed* frames of microVM `pid` for
    /// lazy zeroing. The injection decision at [`sites::SCRUB_REGISTER`]
    /// is keyed on `fault_key`: the pid on the VFIO DMA-map path, and on
    /// a warm-pool recycle the tenant being torn down, so that a recycle
    /// fault follows the tenant set a run is given rather than which pool
    /// VM a claim happened to pick.
    ///
    /// Returns `false` if registration was refused (injected scrub
    /// failure); the caller must then fall back to eager zeroing — the
    /// fallback is counted against [`sites::SCRUB_REGISTER`].
    pub fn register_pages(&self, pid: u64, fault_key: u64, ranges: &[FrameRange]) -> bool {
        let _span = self.clock.tracer().span("fastiovd.register");
        if self.faults.check(sites::SCRUB_REGISTER, fault_key).is_err() {
            self.faults.note_fallback(sites::SCRUB_REGISTER);
            return false;
        }
        let mut tables = self.tables.lock();
        let t = tables.entry(pid).or_default();
        let mut n = 0u64;
        let mut fresh = 0u64;
        for r in ranges {
            for f in r.iter() {
                let key = self.mem.hpa_of(f).raw();
                if t.pages.insert(key, f).is_none() {
                    // Re-registered keys keep their original queue slot;
                    // scrubbing a page early is idempotent and safe.
                    t.order.push_back(key);
                    fresh += 1;
                }
                n += 1;
            }
        }
        // Publish the count before releasing the table lock: a scrubber can
        // only claim these pages after taking the same lock, so `tracked`
        // never transiently underflows between insert and fetch_add.
        self.tracked.fetch_add(fresh, Ordering::Relaxed);
        self.registered.fetch_add(n, Ordering::Relaxed);
        drop(tables);
        true
    }

    /// Instant-zeroing list entry point: the hypervisor declares that it
    /// is about to write `ranges` directly (BIOS/kernel load). The pages
    /// are zeroed now (charged) and removed from tracking so a later EPT
    /// fault will not wipe the hypervisor's data.
    pub fn instant_zero(&self, pid: u64, ranges: &[FrameRange]) -> fastiov_hostmem::Result<()> {
        let _span = self.clock.tracer().span("fastiovd.instant-zero");
        if let Some(t) = self.tables.lock().get_mut(&pid) {
            let mut removed = 0u64;
            for r in ranges {
                for f in r.iter() {
                    if t.pages.remove(&self.mem.hpa_of(f).raw()).is_some() {
                        removed += 1;
                    }
                }
            }
            self.tracked.fetch_sub(removed, Ordering::Relaxed);
        }
        let pages: u64 = ranges.iter().map(|r| r.count as u64).sum();
        self.mem.zero_ranges(ranges)?;
        self.instantly_zeroed.fetch_add(pages, Ordering::Relaxed);
        Ok(())
    }

    /// Drops a microVM's table (teardown). Remaining pages are *not*
    /// zeroed — the allocator re-garbles frames on free, and the next
    /// owner zeroes before use. Returns how many pages were still tracked.
    pub fn unregister_vm(&self, pid: u64) -> usize {
        let n = self.tables.lock().remove(&pid).map_or(0, |t| t.pages.len());
        self.tracked.fetch_sub(n as u64, Ordering::Relaxed);
        n
    }

    /// One scrubber sweep: zero up to `batch` tracked pages across all
    /// VMs in pid order, oldest registration first within each VM (FIFO
    /// pop from the registration-order queue — no per-sweep key sort).
    /// Returns pages zeroed.
    pub fn scrub_once(&self, batch: usize) -> usize {
        // Cheap idle check: the sweeping thread wakes often and usually
        // finds nothing; do not take the table lock in that case.
        if self.tracked.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        let mut done = 0;
        // The last pid visited: zeroing charges memory bandwidth, so the
        // lock is released between VMs.
        let mut after = Bound::Unbounded;
        while done < batch {
            // Claim one VM's victims under the lock, zero outside it.
            let victims: Vec<FrameId> = {
                let mut tables = self.tables.lock();
                let Some((&pid, t)) = tables.range_mut((after, Bound::Unbounded)).next() else {
                    break;
                };
                after = Bound::Excluded(pid);
                let mut v = Vec::new();
                while v.len() < batch - done {
                    let Some(key) = t.order.pop_front() else {
                        break;
                    };
                    // Stale keys (already zeroed by an EPT fault or the
                    // instant list) are skipped.
                    if let Some(frame) = t.pages.remove(&key) {
                        v.push(frame);
                    }
                }
                v
            };
            self.tracked
                .fetch_sub(victims.len() as u64, Ordering::Relaxed);
            for f in &victims {
                // A racing EPT fault may already have zeroed it; the
                // allocator makes zero_frame idempotent and unzeroed-only.
                let _ = self.mem.zero_frame(*f);
            }
            self.background_zeroed
                .fetch_add(victims.len() as u64, Ordering::Relaxed);
            done += victims.len();
        }
        done
    }

    /// Starts the background scrubber thread: every `interval` of
    /// simulated time it zeroes up to `batch` tracked pages. It is a
    /// daemon of the clock: it never keeps the simulation going alone.
    /// Returns a handle that stops the thread when dropped.
    pub fn start_scrubber(self: &Arc<Self>, interval: Duration, batch: usize) -> ScrubberHandle {
        self.scrub_running.store(true, Ordering::SeqCst);
        let me = Arc::clone(self);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = fastiov_simtime::spawn_daemon(&self.clock, "fastiovd-scrubber", move || {
            while !stop2.load(Ordering::SeqCst) {
                me.clock.sleep(interval);
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                me.scrub_once(batch);
            }
            me.scrub_running.store(false, Ordering::SeqCst);
        });
        ScrubberHandle {
            stop,
            thread: Some(handle),
        }
    }

    /// Counter snapshot. Reads only atomics — safe for hot-path callers
    /// (per-launch summaries, bench loops) at any concurrency.
    pub fn stats(&self) -> FastiovdStats {
        FastiovdStats {
            lazily_zeroed: self.lazily_zeroed.load(Ordering::Relaxed),
            background_zeroed: self.background_zeroed.load(Ordering::Relaxed),
            instantly_zeroed: self.instantly_zeroed.load(Ordering::Relaxed),
            tracked: self.tracked.load(Ordering::Relaxed) as usize,
            registered: self.registered.load(Ordering::Relaxed),
        }
    }

    /// True if the page at `hpa` of VM `pid` is currently tracked.
    pub fn is_tracked(&self, pid: u64, hpa: Hpa) -> bool {
        self.tables
            .lock()
            .get(&pid)
            .is_some_and(|t| t.pages.contains_key(&hpa.raw()))
    }
}

impl EptFaultHook for Fastiovd {
    /// KVM calls this with the resolved HPA page during an EPT violation.
    /// If the page is tracked for `pid`, it is zeroed (charged) and
    /// untracked; KVM installs the EPT entry only after this returns.
    fn on_ept_fault(&self, pid: u64, hpa_page: Hpa) -> bool {
        let frame = self
            .tables
            .lock()
            .get_mut(&pid)
            .and_then(|t| t.pages.remove(&hpa_page.raw()));
        match frame {
            Some(frame) => {
                self.tracked.fetch_sub(1, Ordering::Relaxed);
                let zeroed = self.mem.zero_frame(frame).unwrap_or(false);
                if zeroed {
                    self.lazily_zeroed.fetch_add(1, Ordering::Relaxed);
                }
                zeroed
            }
            None => false,
        }
    }
}

/// RAII handle for the scrubber thread.
pub struct ScrubberHandle {
    stop: Arc<AtomicBool>,
    thread: Option<fastiov_simtime::JoinHandle<()>>,
}

impl ScrubberHandle {
    /// Stops the scrubber and waits for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ScrubberHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastiov_hostmem::{MemCosts, PageSize};

    fn setup() -> (Arc<PhysMemory>, Arc<Fastiovd>) {
        setup_with(FaultPlane::disabled())
    }

    fn setup_with(faults: Arc<FaultPlane>) -> (Arc<PhysMemory>, Arc<Fastiovd>) {
        let clock = Clock::new_virtual(1e-5);
        let mem = PhysMemory::new(MemCosts::for_tests(clock.clone()), PageSize::Size2M, 64);
        let d = Fastiovd::new(clock, Arc::clone(&mem), faults);
        (mem, d)
    }

    #[test]
    fn fault_on_tracked_page_zeroes_once() {
        let (mem, d) = setup();
        let ranges = mem.alloc_frames(4, 1).unwrap();
        d.register_pages(1, 1, &ranges);
        assert_eq!(d.stats().tracked, 4);
        let f = ranges[0].start;
        let hpa = mem.hpa_of(f);
        assert!(d.is_tracked(1, hpa));
        assert!(d.on_ept_fault(1, hpa));
        assert!(!mem.leaks_residue(f).unwrap());
        assert!(!d.is_tracked(1, hpa));
        // Second fault on the same page: nothing to do.
        assert!(!d.on_ept_fault(1, hpa));
        let s = d.stats();
        assert_eq!(s.lazily_zeroed, 1);
        assert_eq!(s.tracked, 3);
    }

    #[test]
    fn injected_scrub_failure_refuses_registration() {
        use fastiov_faults::{FaultPoint, Trigger};
        let (mem, d) = setup_with(FaultPlane::with_points(
            0,
            vec![FaultPoint {
                site: sites::SCRUB_REGISTER,
                trigger: Trigger::Once(1),
            }],
        ));
        let ranges = mem.alloc_frames(2, 1).unwrap();
        assert!(
            !d.register_pages(1, 1, &ranges),
            "first registration refused"
        );
        assert_eq!(d.stats().tracked, 0);
        assert!(d.register_pages(1, 1, &ranges), "second attempt accepted");
        assert_eq!(d.stats().tracked, 2);
    }

    #[test]
    fn fault_on_untracked_pid_is_noop() {
        let (mem, d) = setup();
        let ranges = mem.alloc_frames(1, 1).unwrap();
        d.register_pages(1, 1, &ranges);
        assert!(!d.on_ept_fault(2, mem.hpa_of(ranges[0].start)));
        assert_eq!(d.stats().lazily_zeroed, 0);
    }

    #[test]
    fn pids_are_isolated() {
        let (mem, d) = setup();
        let r1 = mem.alloc_frames(2, 1).unwrap();
        let r2 = mem.alloc_frames(2, 2).unwrap();
        d.register_pages(1, 1, &r1);
        d.register_pages(2, 2, &r2);
        assert_eq!(d.stats().tracked, 4);
        assert_eq!(d.unregister_vm(1), 2);
        assert_eq!(d.stats().tracked, 2);
        assert!(d.is_tracked(2, mem.hpa_of(r2[0].start)));
    }

    #[test]
    fn instant_zero_removes_from_tracking() {
        let (mem, d) = setup();
        let ranges = mem.alloc_frames(4, 1).unwrap();
        d.register_pages(1, 1, &ranges);
        // Hypervisor is about to write the first two pages.
        let head = FrameRange {
            start: ranges[0].start,
            count: 2,
        };
        d.instant_zero(1, &[head]).unwrap();
        let s = d.stats();
        assert_eq!(s.instantly_zeroed, 2);
        assert_eq!(s.tracked, 2);
        // A fault on an instant-zeroed page does nothing (data preserved).
        assert!(!d.on_ept_fault(1, mem.hpa_of(ranges[0].start)));
    }

    #[test]
    fn scrub_once_drains_in_batches() {
        let (mem, d) = setup();
        let ranges = mem.alloc_frames(8, 1).unwrap();
        d.register_pages(1, 1, &ranges);
        assert_eq!(d.scrub_once(3), 3);
        assert_eq!(d.scrub_once(100), 5);
        assert_eq!(d.scrub_once(100), 0);
        let s = d.stats();
        assert_eq!(s.background_zeroed, 8);
        assert_eq!(s.tracked, 0);
        for r in &ranges {
            for f in r.iter() {
                assert!(!mem.leaks_residue(f).unwrap());
            }
        }
    }

    #[test]
    fn scrubber_thread_drains_table() {
        let (mem, d) = setup();
        let ranges = mem.alloc_frames(8, 1).unwrap();
        d.register_pages(1, 1, &ranges);
        let handle = d.start_scrubber(Duration::from_millis(1), 4);
        // Two 1 ms sweeps of 4 pages each, then zeroing costs: the table
        // is empty within 3 ms of simulated time.
        d.clock().sleep(Duration::from_millis(3));
        handle.stop();
        assert_eq!(d.stats().tracked, 0);
        assert_eq!(d.stats().background_zeroed, 8);
        assert!(d.clock().is_virtual());
    }

    #[test]
    fn scrub_zeroes_oldest_registration_first() {
        // Behavioral pin: within a VM the scrubber drains pages in
        // registration order (oldest first), as the sort-based
        // implementation did before the FIFO queue.
        let (mem, d) = setup();
        let old = mem.alloc_frames(2, 1).unwrap();
        d.register_pages(1, 1, &old);
        // Later registration wave for the same VM.
        d.clock().sleep(Duration::from_millis(1));
        let newer = mem.alloc_frames(2, 1).unwrap();
        d.register_pages(1, 1, &newer);
        assert_eq!(d.scrub_once(2), 2);
        for r in &old {
            for f in r.iter() {
                assert!(!d.is_tracked(1, mem.hpa_of(f)), "oldest scrubbed first");
            }
        }
        for r in &newer {
            for f in r.iter() {
                assert!(d.is_tracked(1, mem.hpa_of(f)), "newest still tracked");
            }
        }
    }

    #[test]
    fn scrub_skips_keys_faulted_away() {
        // An EPT fault between registration and the sweep leaves a stale
        // key in the order queue; the sweep must skip it, not double-count.
        let (mem, d) = setup();
        let ranges = mem.alloc_frames(4, 1).unwrap();
        d.register_pages(1, 1, &ranges);
        let frames: Vec<FrameId> = ranges.iter().flat_map(|r| r.iter()).collect();
        assert!(d.on_ept_fault(1, mem.hpa_of(frames[0])));
        assert_eq!(d.scrub_once(100), 3);
        let s = d.stats();
        assert_eq!(s.lazily_zeroed, 1);
        assert_eq!(s.background_zeroed, 3);
        assert_eq!(s.tracked, 0);
    }

    #[test]
    fn many_pids_register_scrub_and_unregister_independently() {
        let (mem, d) = setup();
        for pid in 1..=8u64 {
            let r = mem.alloc_frames(2, pid).unwrap();
            d.register_pages(pid, pid, &r);
        }
        assert_eq!(d.stats().tracked, 16);
        assert_eq!(d.unregister_vm(3), 2);
        assert_eq!(d.stats().tracked, 14);
        assert_eq!(d.scrub_once(1000), 14);
        assert_eq!(d.stats().tracked, 0);
        assert!(d.tier1_lock_stats().acquisitions > 0);
    }

    #[test]
    fn reregistration_does_not_inflate_tracked() {
        let (mem, d) = setup();
        let ranges = mem.alloc_frames(4, 1).unwrap();
        d.register_pages(1, 1, &ranges);
        d.register_pages(1, 1, &ranges);
        assert_eq!(d.stats().tracked, 4);
        assert_eq!(d.scrub_once(1000), 4);
        assert_eq!(d.stats().tracked, 0);
    }

    #[test]
    fn security_property_no_residue_after_any_zeroing_path() {
        // Whatever path zeroes (fault, scrub, instant), a tracked page
        // never reaches "readable by guest" state with residue.
        let (mem, d) = setup();
        let ranges = mem.alloc_frames(3, 1).unwrap();
        d.register_pages(1, 1, &ranges);
        let frames: Vec<FrameId> = ranges.iter().flat_map(|r| r.iter()).collect();
        // Page 0 via fault, page 1 via instant list, page 2 via scrubber.
        d.on_ept_fault(1, mem.hpa_of(frames[0]));
        d.instant_zero(
            1,
            &[FrameRange {
                start: frames[1],
                count: 1,
            }],
        )
        .unwrap();
        d.scrub_once(10);
        for f in &frames {
            assert!(!mem.leaks_residue(*f).unwrap());
        }
    }
}
