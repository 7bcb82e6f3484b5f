//! Criterion bench: EPT fault path — warm hits vs cold faults, with and
//! without the fastiovd lazy-zeroing hook.

use criterion::{criterion_group, criterion_main, Criterion};
use fastiov::fastiovd::Fastiovd;
use fastiov::hostmem::{AddressSpace, Gpa, MemCosts, PageSize, PhysMemory, Populate};
use fastiov::kvm::{EptFaultHook, Memslot, Vm};
use fastiov::simtime::Clock;
use std::sync::Arc;
use std::time::Duration;

const PAGE: u64 = 2 * 1024 * 1024;
const PAGES: u64 = 64;

fn build(hook: bool) -> Arc<Vm> {
    let clock = Clock::new_virtual(1e-6);
    let costs = MemCosts::for_tests(clock.clone());
    let mem = PhysMemory::new(costs, PageSize::Size2M, PAGES as usize * 2);
    let aspace = AddressSpace::new(1, Arc::clone(&mem));
    let vm = Vm::new(
        clock.clone(),
        Arc::clone(&aspace),
        Duration::from_micros(25),
    );
    let hva = aspace.mmap("ram", PAGES * PAGE).unwrap();
    let ranges = aspace
        .populate_range(hva, PAGES * PAGE, Populate::AllocOnly)
        .unwrap();
    vm.set_memslot(Memslot {
        gpa: Gpa(0),
        len: PAGES * PAGE,
        hva,
    })
    .unwrap();
    if hook {
        let d = Fastiovd::new(clock, mem, fastiov::faults::FaultPlane::disabled());
        d.register_pages(1, &ranges);
        vm.set_fault_hook(d as Arc<dyn EptFaultHook>);
    }
    vm
}

fn ept_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("ept_fault");

    group.bench_function("cold_fault_no_hook", |b| {
        b.iter_batched(
            || build(false),
            |vm| {
                for p in 0..PAGES {
                    vm.ept_resolve(Gpa(p * PAGE)).unwrap();
                }
            },
            criterion::BatchSize::PerIteration,
        )
    });

    group.bench_function("cold_fault_with_lazy_zero", |b| {
        b.iter_batched(
            || build(true),
            |vm| {
                for p in 0..PAGES {
                    vm.ept_resolve(Gpa(p * PAGE)).unwrap();
                }
            },
            criterion::BatchSize::PerIteration,
        )
    });

    let warm = build(false);
    for p in 0..PAGES {
        warm.ept_resolve(Gpa(p * PAGE)).unwrap();
    }
    group.bench_function("warm_hit", |b| {
        b.iter(|| {
            for p in 0..PAGES {
                std::hint::black_box(warm.ept_resolve(Gpa(p * PAGE)).unwrap());
            }
        })
    });
    group.finish();
}

criterion_group!(benches, ept_paths);
criterion_main!(benches);
