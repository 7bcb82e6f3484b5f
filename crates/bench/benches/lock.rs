//! Criterion bench: one uncontended `TrackedMutex` lock and unlock on a
//! virtual clock, which every tracked acquisition of a wave pays. Three
//! rounds: a bookkeeping class flat (nothing else held), the same class
//! nested under a held lock (so the witness records an edge), and a
//! serializer class flat (whose hold is also timed). One iteration is one
//! lock-and-unlock pair.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fastiov::simtime::{Clock, LockClass, TrackedMutex};

/// Locks and unlocks a mutex of `class` once per iteration, with a lock
/// of class `outer` held throughout if one is given.
fn round(c: &mut Criterion, name: &str, class: LockClass, outer: Option<LockClass>) {
    let _clock = Clock::new_virtual(1.0);
    let outer = outer.map(|o| TrackedMutex::new(o, ()));
    let _held = outer.as_ref().map(TrackedMutex::lock);
    let m = TrackedMutex::new(class, 0u64);
    let before = class.stats().acquisitions;
    let mut rounds = 0;
    let mut group = c.benchmark_group("lock");
    group.throughput(Throughput::Elements(1));
    group.bench_function(name, |b| {
        b.iter(|| {
            *m.lock() += 1;
            rounds += 1;
        })
    });
    group.finish();
    let acquisitions = class.stats().acquisitions - before;
    assert_eq!(acquisitions, rounds, "one acquisition per round");
    assert_eq!(*m.lock(), rounds);
}

fn lock(c: &mut Criterion) {
    round(c, "bookkeeping-flat", LockClass::KvmVm, None);
    round(
        c,
        "bookkeeping-nested",
        LockClass::KvmVm,
        Some(LockClass::PciBus),
    );
    round(c, "serializer-flat", LockClass::Rtnl, None);
}

criterion_group!(benches, lock);
criterion_main!(benches);
