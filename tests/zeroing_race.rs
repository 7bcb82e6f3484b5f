//! Concurrency stress for the decoupled-zeroing hot path: registration,
//! EPT faults, background scrubbing and teardown racing across many
//! threads, with the zero-charge accounting and residue invariants
//! checked at the end.

use fastiov::faults::FaultPlane;
use fastiov_hostmem::{FrameId, MemCosts, PageSize, PhysMemory};
use fastiov_kvm::EptFaultHook;
use fastiov_simtime::Clock;
use fastiovd::Fastiovd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const WORKERS: u64 = 8;
const ROUNDS: usize = 4;
const PAGES_PER_ROUND: usize = 8;
const TOTAL_FRAMES: usize = (WORKERS as usize) * ROUNDS * PAGES_PER_ROUND;

/// Eight VM threads race register→EPT-fault→unregister against two
/// scrubber threads on one free list and one fastiovd tier-1 table.
/// Frames are freed only after the race so every page has
/// exactly one allocation generation, which makes the charge accounting
/// an equality rather than a bound. Checks:
///
/// - no page double-zero-charged: `frames_zeroed_charged` equals fault
///   zeroings plus scrub zeroings exactly — a double claim of the same
///   key would break it from above, a lost charge from below;
/// - every page a fault reported zeroed is actually residue-free at
///   that moment (checked inside the worker);
/// - nothing left tracked after unregister, and every frame returns to
///   the free list at the end.
#[test]
fn register_fault_scrub_unregister_race() {
    let clock = Clock::with_scale(1e-5);
    let costs = MemCosts::for_tests(clock.clone());
    let mem = PhysMemory::new(costs, PageSize::Size2M, TOTAL_FRAMES);
    let d = Fastiovd::new(clock, Arc::clone(&mem), FaultPlane::disabled());

    let stop = Arc::new(AtomicBool::new(false));
    let true_faults = Arc::new(AtomicU64::new(0));

    let scrubbers: Vec<_> = (0..2)
        .map(|_| {
            let d = Arc::clone(&d);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut zeroed = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    zeroed += d.scrub_once(4);
                    std::thread::yield_now();
                }
                zeroed
            })
        })
        .collect();

    let workers: Vec<_> = (0..WORKERS)
        .map(|pid| {
            let mem = Arc::clone(&mem);
            let d = Arc::clone(&d);
            let true_faults = Arc::clone(&true_faults);
            std::thread::spawn(move || {
                let mut held = Vec::new();
                for round in 0..ROUNDS {
                    let ranges = mem
                        .alloc_frames(PAGES_PER_ROUND, pid)
                        .unwrap_or_else(|e| panic!("pid {pid} round {round}: {e}"));
                    assert!(d.register_pages(pid, &ranges));
                    let frames: Vec<FrameId> = ranges.iter().flat_map(|r| r.iter()).collect();
                    // Fault every other page; the rest race the scrubber.
                    for f in frames.iter().step_by(2) {
                        if d.on_ept_fault(pid, mem.hpa_of(*f)) {
                            true_faults.fetch_add(1, Ordering::Relaxed);
                            // The page the guest is about to see must be
                            // clean the instant the fault returns.
                            assert!(
                                !mem.leaks_residue(*f).unwrap(),
                                "pid {pid} round {round}: residue after fault"
                            );
                        }
                    }
                    d.unregister_vm(pid);
                    held.extend(ranges);
                }
                held
            })
        })
        .collect();

    let held: Vec<_> = workers
        .into_iter()
        .map(|w| w.join().expect("worker"))
        .collect();
    stop.store(true, Ordering::Relaxed);
    let scrubbed: usize = scrubbers
        .into_iter()
        .map(|s| s.join().expect("scrubber"))
        .sum();

    let ds = d.stats();
    let ms = mem.stats();
    assert_eq!(ds.tracked, 0, "pages left tracked after unregister");
    assert_eq!(ds.registered, TOTAL_FRAMES as u64);
    assert_eq!(scrubbed as u64, ds.background_zeroed);
    assert_eq!(ds.lazily_zeroed, true_faults.load(Ordering::Relaxed));

    // Zero-charge accounting. Each page was allocated exactly once (no
    // frees during the race, so no re-garbling), and a tracked key can be
    // claimed by at most one of {EPT fault, scrubber} through the table
    // lock. Every claim therefore lands on a dirty frame and charges
    // exactly once: total charges must equal fault charges plus scrub
    // victims. More means a double charge; fewer means a claimed page
    // was found already clean — i.e. the same key was zeroed twice.
    assert_eq!(
        ms.frames_zeroed_charged,
        ds.lazily_zeroed + ds.background_zeroed,
        "zero-charge accounting broke under the race"
    );
    assert!(ms.frames_zeroed_charged <= TOTAL_FRAMES as u64);

    for (pid, ranges) in held.iter().enumerate() {
        mem.free_ranges(ranges, pid as u64).expect("free");
    }
    let ms = mem.stats();
    assert_eq!(ms.free_frames, ms.total_frames, "frames leaked");
}
