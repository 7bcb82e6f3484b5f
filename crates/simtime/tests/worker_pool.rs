//! Reuse of the OS threads behind `simtime::spawn`. The tests have a
//! binary of their own and take turns (`SERIAL`), so the stack of idle
//! workers is theirs alone and the worker each task runs on is exact.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "a simtime test: drives the executor from plain OS threads, locks and sleeps"
)]

use fastiov_simtime::{lockdep, spawn, Clock, LockClass, TrackedMutex};
use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn thread() -> ThreadId {
    std::thread::current().id()
}

#[test]
fn a_thousand_spawn_joins_in_sequence_run_on_one_os_thread() {
    let _serial = serial();
    let clock = Clock::new_virtual(1.0);
    let mut threads = HashSet::new();
    for _ in 0..1000 {
        let c = clock.clone();
        let task = spawn(&clock, "tick", move || {
            c.sleep(Duration::from_micros(1));
            thread()
        });
        threads.insert(task.join().expect("tick"));
    }
    // A finished task's worker is idle again before its exit hands the
    // baton back to the driver, so the next spawn always takes it.
    assert_eq!(threads.len(), 1, "{threads:?}");
    assert_eq!(clock.now().since_origin(), Duration::from_millis(1));
}

#[test]
fn a_task_on_a_reused_worker_starts_with_clean_thread_state() {
    let _serial = serial();
    let first = Clock::new_virtual(1.0);
    let tracer = first.tracer();
    tracer.enable();
    let t = tracer.clone();
    // Leaves behind all a task can on its thread: a held lock, a VM scope
    // and an open span.
    let leaky = spawn(&first, "leaky", move || {
        let lock = Box::leak(Box::new(TrackedMutex::new(LockClass::VfioContainer, ())));
        std::mem::forget(lock.lock());
        std::mem::forget(t.vm_scope(7));
        std::mem::forget(t.span("leaked"));
        drop(t.span("closed"));
        thread()
    });
    let worker = leaky.join().expect("leaky");
    let t = tracer.clone();
    let clean = spawn(&first, "clean", move || {
        drop(TrackedMutex::new(LockClass::HostMmu, ()).lock());
        drop(t.span("clean"));
        thread()
    });
    assert_eq!(clean.join().expect("clean"), worker, "the worker is reused");
    // A vfio-container entry left on the held stack would have ordered
    // the host-mmu acquisition after it.
    let graph = lockdep::graph_dot();
    assert!(!graph.contains("->"), "{graph}");
    assert_eq!(LockClass::VfioContainer.stats().acquisitions, 1);
    let spans = tracer.spans();
    let span = |name: &str| {
        spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no span {name}: {spans:?}"))
    };
    let (closed, clean) = (span("closed"), span("clean"));
    assert_eq!((closed.vm, closed.depth), (7, 1));
    assert_ne!(clean.track, closed.track, "a fresh track");
    assert_eq!((clean.vm, clean.depth, clean.parent), (0, 0, None));

    // On a second clock the worker records into that clock's witness only.
    let second = Clock::new_virtual(1.0);
    let probe = spawn(&second, "probe", || {
        (thread(), LockClass::VfioContainer.stats().acquisitions)
    });
    assert_eq!(probe.join().expect("probe"), (worker, 0));
}

#[test]
fn a_panicking_tasks_payload_comes_back_from_join_and_its_worker_runs_the_next_task() {
    let _serial = serial();
    let clock = Clock::new_virtual(1.0);
    let c = clock.clone();
    let (tx, rx) = std::sync::mpsc::channel();
    let bad = spawn(&clock, "bad", move || {
        c.sleep(Duration::from_millis(1));
        tx.send(thread()).expect("test thread alive");
        std::panic::panic_any(42u32)
    });
    let payload = bad.join().expect_err("the task panicked");
    assert_eq!(payload.downcast_ref::<u32>(), Some(&42));
    let c = clock.clone();
    let good = spawn(&clock, "good", move || {
        c.sleep(Duration::from_millis(1));
        thread()
    });
    assert_eq!(good.join().expect("good"), rx.recv().expect("bad ran"));
    assert_eq!(clock.now().since_origin(), Duration::from_millis(2));
}

/// Starts `tasks` tasks on `clock` at once, task `i` sleeping `i + 1`
/// microseconds, and returns the OS thread each ran on.
fn wave(clock: &Clock, tasks: u64) -> Vec<ThreadId> {
    let handles: Vec<_> = (0..tasks)
        .map(|i| {
            let c = clock.clone();
            spawn(clock, format!("task-{i}"), move || {
                c.sleep(Duration::from_micros(i + 1));
                thread()
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("task"))
        .collect()
}

#[test]
fn a_second_clocks_wave_runs_on_the_workers_the_first_clocks_wave_started() {
    let _serial = serial();
    let first: HashSet<_> = wave(&Clock::new_virtual(1.0), 48).into_iter().collect();
    assert_eq!(first.len(), 48, "48 tasks alive at once take 48 workers");
    let second = wave(&Clock::new_virtual(1.0), 48);
    let started: Vec<_> = second.iter().filter(|t| !first.contains(t)).collect();
    // All 48 went back on the idle stack, so the second wave starts none.
    assert!(started.is_empty(), "{} new OS threads", started.len());
}

#[cfg(target_os = "linux")]
mod pinning {
    use super::*;

    /// The C library's `cpu_set_t`.
    #[repr(C)]
    struct CpuSet([u64; 16]);

    extern "C" {
        fn sched_getaffinity(tid: i32, size: usize, set: *mut CpuSet) -> i32;
    }

    /// The CPUs the calling thread may run on.
    fn cpus() -> Vec<usize> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: `set` is a writable `cpu_set_t` of the size passed; tid
        // 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        assert_eq!(rc, 0, "sched_getaffinity failed");
        (0..1024)
            .filter(|&c| set.0[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// The worker a task on `clock` runs on, and its CPUs.
    fn probe(clock: &Clock) -> (ThreadId, Vec<usize>) {
        spawn(clock, "probe", || (thread(), cpus()))
            .join()
            .expect("probe")
    }

    #[test]
    fn a_reused_worker_takes_each_clocks_cpu_and_a_fallback_still_unpins_it() {
        let _serial = serial();
        let allowed = cpus();
        // Two driver threads' clocks take different CPUs; one worker serves
        // both, each time on its clock's CPU.
        let drive = || {
            std::thread::spawn(|| {
                let clock = Clock::new_virtual(1.0);
                (cpus(), probe(&clock))
            })
            .join()
            .expect("driver thread")
        };
        let (pin_a, (worker, on_a)) = drive();
        let (pin_b, (again, on_b)) = drive();
        assert_eq!(again, worker, "the worker is reused");
        assert_eq!(on_a, pin_a);
        assert_eq!(on_b, pin_b);
        if allowed.len() > 1 {
            assert_ne!(pin_a, pin_b);
        }

        // A member asleep on the clock, pinned, when an outside thread's
        // sleep switches the clock to wall pacing.
        let clock = Clock::new_virtual(1e-3);
        let pin = cpus();
        let c = clock.clone();
        let member = spawn(&clock, "member", move || {
            c.sleep(Duration::from_millis(1));
            (thread(), cpus())
        });
        clock.sleep(Duration::from_micros(1));
        let c = clock.clone();
        std::thread::spawn(move || c.sleep(Duration::from_millis(1)))
            .join()
            .expect("outside thread");
        assert!(!clock.is_virtual());
        assert_eq!(member.join().expect("member"), (worker, allowed));
        // The worker does not trust the pin it last set itself: on the next
        // clock on the same CPU it pins itself again.
        let clock = Clock::new_virtual(1.0);
        assert_eq!(cpus(), pin);
        assert_eq!(probe(&clock), (worker, pin));
    }
}
