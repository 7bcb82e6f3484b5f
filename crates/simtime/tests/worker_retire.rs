//! Retirement of the OS threads behind `simtime::spawn`. A wave larger
//! than the idle-worker bound shrinks the pool for the rest of the
//! process, so this test has a binary of its own.

#![cfg(target_os = "linux")]

use fastiov_simtime::{spawn, Clock, WallStopwatch};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// `IDLE_WORKERS_AFTER_OVERFLOW` in `src/exec.rs`.
const AFTER_OVERFLOW: usize = 8;

/// Set once the last worker to retire has run its thread-local
/// destructors, the end of its exit.
static EXITED: AtomicBool = AtomicBool::new(false);

struct SlowExit;

impl Drop for SlowExit {
    fn drop(&mut self) {
        std::thread::sleep(Duration::from_millis(100));
        EXITED.store(true, Ordering::SeqCst);
    }
}

thread_local! {
    static SLOW_EXIT: RefCell<Option<SlowExit>> = const { RefCell::new(None) };
}

/// Live OS threads named after a simulation worker.
fn workers() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter(|t| {
            let comm = t.as_ref().expect("task entry").path().join("comm");
            std::fs::read_to_string(comm).is_ok_and(|c| c.trim_end() == "simtime-worker")
        })
        .count()
}

#[test]
fn a_wave_past_the_bound_retires_workers_and_the_next_start_joins_them() {
    let clock = Clock::new_virtual(1.0);
    // 100 tasks at once, task `i` sleeping `i + 1` microseconds, so they
    // end in spawn order. The first 64 to end find room on the idle
    // stack; the 65th finds it full, retires and cuts the stack to 8, and
    // the rest retire too. The last to end sets a thread-local that
    // delays its exit.
    let wave: Vec<_> = (0..100u64)
        .map(|i| {
            let c = clock.clone();
            spawn(&clock, format!("task-{i}"), move || {
                c.sleep(Duration::from_micros(i + 1));
                if i == 99 {
                    SLOW_EXIT.set(Some(SlowExit));
                }
            })
        })
        .collect();
    for task in wave {
        task.join().expect("task");
    }
    // One task more than the idle stack holds: the last spawn starts a
    // worker, and joins every retired one first, the slow one too.
    let tasks: Vec<_> = (0..=AFTER_OVERFLOW)
        .map(|_| spawn(&clock, "task", || ()))
        .collect();
    assert!(
        EXITED.load(Ordering::SeqCst),
        "the start joined the retired workers"
    );
    // None of the tasks has run yet, so each holds its worker; the
    // workers cut from the idle stack exit on their own. The kernel
    // unlists a thread a moment after it exits, and a new thread takes
    // its name once it first runs.
    let sw = WallStopwatch::start();
    while workers() != AFTER_OVERFLOW + 1 && sw.elapsed() < Duration::from_millis(200) {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        workers(),
        AFTER_OVERFLOW + 1,
        "only the tasks' workers are left"
    );
    for task in tasks {
        task.join().expect("task");
    }
}
