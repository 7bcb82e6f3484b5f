//! Criterion bench: the DMA mapping pipeline (Fig. 6) — eager vs
//! deferred zeroing, and the fragmentation sensitivity of retrieval (P2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fastiov::hostmem::{AddressSpace, FrameRange, MemCosts, PageSize, PhysMemory};
use fastiov::iommu::Iommu;
use fastiov::simtime::Clock;
use fastiov::vfio::{DmaZeroMode, VfioContainer};
use std::sync::Arc;
use std::time::Duration;

const PAGE: u64 = 2 * 1024 * 1024;

fn setup(fragment: bool) -> (Arc<PhysMemory>, Arc<VfioContainer>) {
    let clock = Clock::new_virtual(1e-5);
    let mem = PhysMemory::new(MemCosts::for_tests(clock.clone()), PageSize::Size2M, 2048);
    if fragment {
        mem.inject_fragmentation(2);
    }
    let aspace = AddressSpace::new(1, Arc::clone(&mem));
    let iommu = Iommu::new(
        clock,
        Duration::from_nanos(100),
        Duration::from_nanos(300),
        64,
    );
    let container = VfioContainer::new(
        iommu.create_domain(PageSize::Size2M),
        aspace,
        fastiov::faults::FaultPlane::disabled(),
    );
    (mem, container)
}

fn dma_map(c: &mut Criterion) {
    let mut group = c.benchmark_group("dma_map_256mb");
    group.sample_size(20);
    let pages = 128u64; // 256 MB at 2 MB pages
    group.bench_function(BenchmarkId::new("eager", "contiguous"), |b| {
        b.iter_batched(
            || setup(false),
            |(_, container)| {
                let hva = container.address_space().mmap("ram", pages * PAGE).unwrap();
                container
                    .dma_map(
                        hva,
                        pages * PAGE,
                        fastiov::hostmem::Iova(0),
                        DmaZeroMode::Eager,
                    )
                    .unwrap();
            },
            criterion::BatchSize::PerIteration,
        )
    });
    group.bench_function(BenchmarkId::new("eager", "fragmented"), |b| {
        b.iter_batched(
            || setup(true),
            |(_, container)| {
                let hva = container.address_space().mmap("ram", pages * PAGE).unwrap();
                container
                    .dma_map(
                        hva,
                        pages * PAGE,
                        fastiov::hostmem::Iova(0),
                        DmaZeroMode::Eager,
                    )
                    .unwrap();
            },
            criterion::BatchSize::PerIteration,
        )
    });
    group.bench_function(BenchmarkId::new("deferred", "contiguous"), |b| {
        b.iter_batched(
            || setup(false),
            |(_, container)| {
                let register = |_pid: u64, _r: &[FrameRange]| true;
                let hva = container.address_space().mmap("ram", pages * PAGE).unwrap();
                container
                    .dma_map(
                        hva,
                        pages * PAGE,
                        fastiov::hostmem::Iova(0),
                        DmaZeroMode::Deferred(&register),
                    )
                    .unwrap();
            },
            criterion::BatchSize::PerIteration,
        )
    });
    group.finish();
}

criterion_group!(benches, dma_map);
criterion_main!(benches);
