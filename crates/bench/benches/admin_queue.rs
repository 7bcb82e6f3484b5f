//! Criterion bench: PF admin queue throughput under staggered vs
//! simultaneous submitters — the §3.2.4 / FastIOV-A interaction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fastiov::nic::{AdminCmd, PfDriver, VfId};
use fastiov::pci::PciBus;
use fastiov::simtime::Clock;
use std::sync::Arc;
use std::time::Duration;

fn build(n_vfs: u16) -> (Clock, Arc<PfDriver>) {
    let clock = Clock::new_virtual(1e-4);
    let bus = PciBus::new(
        clock.clone(),
        Duration::from_micros(10),
        Duration::from_millis(1),
    );
    let pf = PfDriver::new(
        clock.clone(),
        bus,
        3,
        256,
        fastiov::nic::pf::PfCosts {
            admin_service: Duration::from_millis(15),
            ..fastiov::nic::pf::PfCosts::for_tests()
        },
    )
    .unwrap();
    pf.create_vfs(n_vfs).unwrap();
    (clock, pf)
}

fn admin_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("admin_queue_bringup");
    group.sample_size(10);
    for workers in [1u16, 8, 32] {
        group.bench_function(BenchmarkId::new("simultaneous", workers), |b| {
            b.iter_batched(
                || build(workers),
                |(clock, pf)| {
                    let handles: Vec<_> = (0..workers)
                        .map(|i| {
                            let pf = Arc::clone(&pf);
                            fastiov::simtime::spawn(&clock, "submitter", move || {
                                let vf = pf.vf(VfId(i)).unwrap();
                                pf.admin().submit(&vf, AdminCmd::EnableQueues);
                                pf.admin().submit(&vf, AdminCmd::QueryLink);
                            })
                        })
                        .collect();
                    for h in handles {
                        h.join().unwrap();
                    }
                },
                criterion::BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, admin_queue);
criterion_main!(benches);
