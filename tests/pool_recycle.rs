//! Warm-pool recycling security and exhaustion behaviour, through the
//! full engine + pool stack.
//!
//! Recycling a microVM instead of destroying it is only sound if no byte
//! written by the previous pod is ever guest-readable by the next one.
//! The pool relies on the same mechanism FastIOV uses at launch: every
//! RAM frame is re-registered with `fastiovd`, so the first EPT fault
//! re-zeroes it before the new tenant's read completes (§4.3.2's
//! correctness argument, applied a second time).

use fastiov_repro::faults::{sites, FaultConfig, FaultPoint, Trigger};
use fastiov_repro::hostmem::FrameId;
use fastiov_repro::{Baseline, ExperimentConfig};

/// A recycled pod's frames are either zeroed already or re-registered
/// for lazy zeroing — and the previous tenant's bytes read back as zeros
/// through the next claim.
#[test]
fn recycled_pod_frames_never_expose_prior_tenant_bytes() {
    let cfg = ExperimentConfig::smoke(Baseline::WarmPool(2), 2);
    let (host, engine) = cfg.build().unwrap();
    let pool = engine.pool().expect("warm pool configured").clone();

    // First tenant: claim a warm VM and write a secret into its RAM.
    let pod = engine.run_pod(0).unwrap();
    let pool_pid = pod.pool_pid.expect("pod came from the pool");
    let gpa = pod.vm.layout().app_gpa;
    let secret = [0x5au8; 128];
    pod.vm.vm().write_gpa(gpa, &secret).unwrap();
    let hpa = pod.vm.vm().ept_resolve(gpa).unwrap();

    // Teardown returns the VM to the pool and recycles it.
    engine.teardown_pod(&pod).unwrap();
    pool.wait_idle();
    assert_eq!(pool.stats().recycled, 1);

    // The dirtied frame is back under fastiovd tracking, and every frame
    // still owned by the recycled VM is either tracked (lazily re-zeroed
    // on the next fault) or free of previous-owner residue. Nothing is
    // left both untracked and dirty.
    assert!(host.fastiovd.is_tracked(pool_pid, hpa));
    let total = host.mem.stats().total_frames;
    let mut owned = 0;
    for i in 0..total {
        let frame = FrameId(i);
        if host.mem.owner_of(frame).unwrap() != Some(pool_pid) {
            continue;
        }
        owned += 1;
        let tracked = host.fastiovd.is_tracked(pool_pid, host.mem.hpa_of(frame));
        let leaks = host.mem.leaks_residue(frame).unwrap();
        assert!(
            tracked || !leaks,
            "frame {i} of recycled vm {pool_pid} is untracked yet dirty"
        );
    }
    assert!(owned > 0, "recycled vm must keep its frames");

    // Second tenant: drain the pool until the same VM comes back, then
    // read the very address the secret lived at — zeros, never 0x5a.
    let mut claimed = Vec::new();
    let mut reused = None;
    for index in 1..=2 {
        let pod = engine.run_pod(index).unwrap();
        if pod.pool_pid == Some(pool_pid) {
            reused = Some(pod);
        } else {
            claimed.push(pod);
        }
    }
    let reused = reused.expect("recycled vm re-claimed");
    let mut buf = [0xffu8; 128];
    reused.vm.vm().read_gpa(gpa, &mut buf).unwrap();
    assert_eq!(buf, [0u8; 128], "previous tenant's bytes leaked");

    for pod in claimed.iter().chain([&reused]) {
        engine.teardown_pod(pod).unwrap();
    }
}

/// A microVM whose recycle fails (injected fault at the scrub step) must
/// be retired, never re-parked: a VM that cannot be proven clean never
/// serves another tenant. The next pod cold-boots instead and reads
/// zeros where the previous tenant's secret lived.
#[test]
fn injected_recycle_failure_evicts_vm_instead_of_reparking_it() {
    let mut cfg = ExperimentConfig::smoke(Baseline::WarmPool(1), 2);
    // First recycle attempt of every tenant fails; nothing else does.
    cfg.faults = FaultConfig::uniform(7, 0.0).with_point(FaultPoint {
        site: sites::POOL_RECYCLE,
        trigger: Trigger::Once(1),
    });
    cfg.pool_watermark = Some(0);
    let (host, engine) = cfg.build().unwrap();
    let pool = engine.pool().expect("warm pool configured").clone();

    // Tenant one claims the only warm VM and leaves a secret behind.
    let pod = engine.run_pod(0).unwrap();
    let pool_pid = pod.pool_pid.expect("pod came from the pool");
    let gpa = pod.vm.layout().app_gpa;
    pod.vm.vm().write_gpa(gpa, &[0x5au8; 128]).unwrap();

    // Teardown hands the VM back — and the injected fault kills the
    // recycle. The pool must count the failure and retire the VM.
    engine.teardown_pod(&pod).unwrap();
    pool.wait_idle();
    let stats = pool.stats();
    assert_eq!(stats.recycled, 0, "failed recycle must not count");
    assert_eq!(stats.recycle_failures, 1);
    assert_eq!(stats.size, 0, "unclean vm must not re-enter the pool");
    assert_eq!(host.faults.report_for(sites::POOL_RECYCLE).fallbacks, 1);

    // The retired VM's frames were all released.
    let total = host.mem.stats().total_frames;
    for i in 0..total {
        assert_ne!(
            host.mem.owner_of(FrameId(i)).unwrap(),
            Some(pool_pid),
            "retired vm {pool_pid} still owns frame {i}"
        );
    }

    // Tenant two cannot be served by the dead VM: the pool is empty, so
    // it cold-boots — and sees zeros at the secret's address.
    let pod2 = engine.run_pod(1).unwrap();
    assert_eq!(pod2.pool_pid, None, "evicted vm was re-claimed");
    let mut buf = [0xffu8; 128];
    pod2.vm.vm().read_gpa(gpa, &mut buf).unwrap();
    assert_eq!(buf, [0u8; 128], "previous tenant's bytes leaked");
    engine.teardown_pod(&pod2).unwrap();

    let stats = pool.stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
}

/// When every warm VM is claimed, further pods fall back to the cold
/// FastIOV path instead of failing: the whole wave succeeds, with the
/// overflow counted as pool misses.
#[test]
fn pool_exhaustion_falls_back_to_cold_boot() {
    let cfg = ExperimentConfig::smoke(Baseline::WarmPool(2), 6);
    let (_host, engine) = cfg.build().unwrap();
    let pool = engine.pool().expect("warm pool configured").clone();

    let outcome = engine.launch_concurrent(6);
    assert!(outcome.summary.is_clean(), "{}", outcome.summary);
    assert_eq!(outcome.summary.succeeded, 6);

    let pods: Vec<_> = outcome.pods.into_iter().map(|p| p.unwrap()).collect();
    let warm = pods.iter().filter(|p| p.pool_pid.is_some()).count();
    assert_eq!(warm, 2, "exactly the pool's capacity served warm");
    assert_eq!(pods.len() - warm, 4, "the rest booted cold");

    let stats = pool.stats();
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.misses, 4);

    for pod in &pods {
        engine.teardown_pod(pod).unwrap();
    }
    pool.wait_idle();
    assert_eq!(pool.stats().recycled, 2, "warm pods returned to the pool");
}
