//! Criterion bench: I/O page table map/translate and IOTLB behaviour.

use criterion::{criterion_group, criterion_main, Criterion};
use fastiov::hostmem::{Hpa, Iova, MemCosts, PageSize, PhysMemory};
use fastiov::iommu::{IoPageTable, Iommu};
use fastiov::simtime::Clock;
use std::time::Duration;

fn page_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("io_page_table");
    group.bench_function("map_4096_entries", |b| {
        b.iter(|| {
            let mut t = IoPageTable::new();
            for p in 0..4096u64 {
                t.map(p, Hpa(p << 21)).unwrap();
            }
            std::hint::black_box(t.entries())
        })
    });
    let mut table = IoPageTable::new();
    for p in 0..4096u64 {
        table.map(p, Hpa(p << 21)).unwrap();
    }
    group.bench_function("lookup_hit", |b| {
        let mut p = 0u64;
        b.iter(|| {
            p = (p + 1) % 4096;
            std::hint::black_box(table.lookup(p))
        })
    });
    group.finish();
}

fn domain_translate(c: &mut Criterion) {
    let clock = Clock::new_virtual(1e-6);
    let mem = PhysMemory::new(MemCosts::for_tests(clock.clone()), PageSize::Size2M, 512);
    let iommu = Iommu::new(
        clock,
        Duration::from_nanos(100),
        Duration::from_nanos(300),
        64,
    );
    let domain = iommu.create_domain(PageSize::Size2M);
    let ranges = mem.alloc_frames(256, 1).unwrap();
    domain.map_range(Iova(0), &ranges, &mem).unwrap();

    let mut group = c.benchmark_group("iommu_translate");
    group.bench_function("tlb_hit", |b| {
        // Touch one page repeatedly: always cached.
        b.iter(|| std::hint::black_box(domain.translate(Iova(123)).unwrap()))
    });
    group.bench_function("tlb_thrash", |b| {
        // Stride across 256 pages with a 64-entry TLB: constant misses.
        let mut p = 0u64;
        b.iter(|| {
            p = (p + 1) % 256;
            std::hint::black_box(domain.translate(Iova(p * 2 * 1024 * 1024)).unwrap())
        })
    });
    group.finish();
}

criterion_group!(benches, page_table, domain_translate);
criterion_main!(benches);
