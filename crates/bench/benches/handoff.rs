//! Criterion bench: the executor's baton hand-off, which every blocking
//! point of a virtual clock pays. A 2-thread ping-pong and a 200-thread
//! round-robin of `Clock::sleep`: one iteration is one round, so the
//! throughput column reads in hand-offs per second (its inverse is the
//! time per hand-off). The clock's threads share one CPU, as in a wave.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fastiov::simtime::{spawn_daemon, Clock};
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

fn handoff(c: &mut Criterion) {
    round(c, "ping-pong-2", 2);
    round(c, "round-robin-200", 200);
}

criterion_group!(benches, handoff);
criterion_main!(benches);
