//! Criterion bench: coarse vs hierarchical devset locking under
//! concurrent VF opens — the mechanism behind Fig. 11's `FastIOV-L` gap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fastiov::pci::{Bdf, DeviceClass, DriverBinding, PciBus, PciDevice, ResetCapability};
use fastiov::simtime::Clock;
use fastiov::vfio::{DevsetManager, LockPolicy};
use std::sync::Arc;
use std::time::Duration;

fn build(policy: LockPolicy, vfs: u8) -> (Clock, Arc<DevsetManager>) {
    let clock = Clock::new_virtual(1e-3);
    let bus = PciBus::new(
        clock.clone(),
        Duration::from_micros(20),
        Duration::from_millis(1),
    );
    let mgr = DevsetManager::new(Arc::clone(&bus), policy, Duration::from_millis(5));
    for i in 0..vfs {
        let dev = PciDevice::new(
            Bdf::new(3, i, 0),
            DeviceClass::NetworkVf,
            ResetCapability::BusReset,
            None,
        );
        dev.bind_driver(DriverBinding::Vfio);
        bus.add_device(Arc::clone(&dev)).unwrap();
        mgr.register(dev).unwrap();
        mgr.group(Bdf::new(3, i, 0)).unwrap().attach(1).unwrap();
    }
    (clock, mgr)
}

fn concurrent_opens(c: &mut Criterion) {
    let mut group = c.benchmark_group("devset_concurrent_opens");
    group.sample_size(10);
    for (name, policy) in [
        ("coarse", LockPolicy::Coarse),
        ("hierarchical", LockPolicy::Hierarchical),
    ] {
        group.bench_function(BenchmarkId::new(name, 16), |b| {
            b.iter_batched(
                || build(policy, 16),
                |(clock, mgr)| {
                    let handles: Vec<_> = (0..16u8)
                        .map(|i| {
                            let mgr = Arc::clone(&mgr);
                            fastiov::simtime::spawn(&clock, "opener", move || {
                                let _fd = mgr.open(Bdf::new(3, i, 0)).unwrap();
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

criterion_group!(benches, concurrent_opens);
criterion_main!(benches);
