//! CPU assignment of virtual clocks (Linux only). The test has a binary
//! of its own, so no other thread creates a clock between the ones it
//! creates.

#![cfg(target_os = "linux")]
#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "a simtime test: drives the executor from plain OS threads, locks and sleeps"
)]

use fastiov_simtime::Clock;

/// The C library's `cpu_set_t`.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(tid: i32, size: usize, set: *mut CpuSet) -> i32;
}

/// The CPUs the calling thread may run on.
fn cpus() -> Vec<usize> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a writable `cpu_set_t` of the size passed; tid 0
    // names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    (0..1024)
        .filter(|&c| set.0[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

#[test]
fn clocks_created_in_a_row_by_two_threads_run_on_different_cpus() {
    let allowed = cpus();
    // Each thread creates two clocks one after the other: the second
    // keeps the first one's CPU.
    let drive = || {
        std::thread::spawn(|| {
            let _first = Clock::new_virtual(1.0);
            let first = cpus();
            let _second = Clock::new_virtual(1.0);
            (first, cpus())
        })
        .join()
        .expect("driver thread")
    };
    let (a, b) = (drive(), drive());
    if allowed.len() < 2 {
        for pin in [&a.0, &a.1, &b.0, &b.1] {
            assert_eq!(pin, &allowed);
        }
        return;
    }
    assert_eq!(a.0.len(), 1, "{a:?}");
    assert_eq!(a.0, a.1, "a thread keeps its CPU");
    assert_eq!(b.0, b.1, "a thread keeps its CPU");
    assert_ne!(a.0, b.0, "two threads' clocks share a CPU");
    assert!(allowed.contains(&a.0[0]) && allowed.contains(&b.0[0]));
}
