//! Criterion bench: the executor's baton hand-off, which every blocking
//! point of a virtual clock pays. A 2-thread ping-pong and a 200-thread
//! round-robin of `Clock::sleep`: one iteration is one round, so the
//! throughput column reads in hand-offs per second (its inverse is the
//! time per hand-off). Two more rounds spawn 64 and 200 tasks that sleep
//! one tick and join them, so they also pay a task's start and end on a
//! pooled worker; their throughput column reads in tasks per second. 64
//! tasks fit the idle-worker stack, so after warm-up that round starts no
//! OS thread. 200 tasks outgrow it, which cuts it to 8 idle workers, so
//! that round starts 192 each time, as a 200-way burst wave does. The
//! clock's threads share one CPU, as in a wave.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fastiov::simtime::{spawn, spawn_daemon, Clock};
use std::time::Duration;

const TICK: Duration = Duration::from_micros(1);

/// `threads` threads (the driver and `threads - 1` daemons) sleeping one
/// tick in turn: every driver sleep passes the baton around once.
fn round(c: &mut Criterion, name: &str, threads: u64) {
    let clock = Clock::new_virtual(1.0);
    for i in 1..threads {
        let c = clock.clone();
        spawn_daemon(&clock, format!("sleeper-{i}"), move || loop {
            c.sleep(TICK);
        });
    }
    // Let every daemon reach its first sleep.
    clock.sleep(TICK);
    let before = clock.exec_stats().handoffs;
    let mut rounds = 0;
    let mut group = c.benchmark_group("handoff");
    group.throughput(Throughput::Elements(threads));
    group.bench_function(name, |b| {
        b.iter(|| {
            clock.sleep(TICK);
            rounds += 1;
        })
    });
    group.finish();
    let handoffs = clock.exec_stats().handoffs - before;
    assert_eq!(
        handoffs,
        rounds * threads,
        "one hand-off per thread per round"
    );
}

/// `tasks` tasks spawned at once, each sleeping one tick, then joined in
/// spawn order.
fn spawn_join(c: &mut Criterion, name: &str, tasks: u64) {
    let clock = Clock::new_virtual(1.0);
    let before = clock.exec_stats().handoffs;
    let mut rounds = 0;
    let mut group = c.benchmark_group("handoff");
    group.throughput(Throughput::Elements(tasks));
    group.bench_function(name, |b| {
        b.iter(|| {
            let handles: Vec<_> = (0..tasks)
                .map(|i| {
                    let c = clock.clone();
                    spawn(&clock, format!("sleeper-{i}"), move || c.sleep(TICK))
                })
                .collect();
            for h in handles {
                h.join().expect("sleeper");
            }
            rounds += 1;
        })
    });
    group.finish();
    let handoffs = clock.exec_stats().handoffs - before;
    // The first join runs every task to its sleep and the timer wakes the
    // first; then each task's exit hands the baton to the driver, and the
    // driver's next join takes the next task's timer.
    assert_eq!(
        handoffs,
        rounds * 3 * tasks,
        "three hand-offs per task per round"
    );
}

fn handoff(c: &mut Criterion) {
    round(c, "ping-pong-2", 2);
    round(c, "round-robin-200", 200);
    spawn_join(c, "spawn-join-64", 64);
    spawn_join(c, "spawn-join-200", 200);
}

criterion_group!(benches, handoff);
criterion_main!(benches);
