//! Concurrency stress: waves of launches, VF reuse, mixed baselines on
//! one host, and teardown under load. Every assertion here is structural
//! (resource counts, VF uniqueness, launch success, executor counts).

use fastiov_repro::cni::{FastIovCni, SriovCniFixed, VfAllocator};
use fastiov_repro::engine::{Engine, EngineParams, PodNetworking, VmOptions};
use fastiov_repro::microvm::{Host, HostParams};
use fastiov_repro::vfio::LockPolicy;
use std::sync::Arc;

const MB: u64 = 1024 * 1024;

fn engine_on(host: &Arc<Host>, fast: bool) -> Arc<Engine> {
    let vfs = VfAllocator::new(host.pf.vf_count() as u16);
    let (plugin, opts): (Arc<dyn fastiov_repro::cni::CniPlugin>, VmOptions) = if fast {
        (
            Arc::new(FastIovCni::new(vfs)),
            VmOptions::fastiov(64 * MB, 32 * MB),
        )
    } else {
        (
            Arc::new(SriovCniFixed::new(vfs)),
            VmOptions::vanilla(64 * MB, 32 * MB),
        )
    };
    Engine::new(
        Arc::clone(host),
        EngineParams::paper(),
        PodNetworking::Sriov(plugin),
        opts,
    )
}

#[test]
fn sequential_waves_reuse_all_resources() {
    let host = Host::new(HostParams::for_tests(), LockPolicy::Hierarchical).unwrap();
    host.prebind_all_vfs().unwrap();
    let engine = engine_on(&host, true);
    let free0 = host.mem.stats().free_frames;
    for wave in 0..3 {
        let pods: Vec<_> = engine
            .launch_concurrent(8)
            .pods
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("wave {wave}: {e}")))
            .collect();
        for pod in &pods {
            pod.vm.wait_net_ready().unwrap();
            engine.teardown_pod(pod).unwrap();
        }
        assert_eq!(
            host.mem.stats().free_frames,
            free0,
            "frames leaked in wave {wave}"
        );
    }
    assert_eq!(host.fastiovd.stats().tracked, 0);
}

#[test]
fn concurrency_up_to_vf_count_succeeds() {
    let host = Host::new(HostParams::for_tests(), LockPolicy::Hierarchical).unwrap();
    host.prebind_all_vfs().unwrap();
    let engine = engine_on(&host, true);
    // for_tests() creates 16 VFs; use all of them at once.
    let pods: Vec<_> = engine
        .launch_concurrent(16)
        .pods
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap();
    let mut seen = std::collections::HashSet::new();
    for pod in &pods {
        let vf = pod.vm.vf().expect("passthrough pod");
        assert!(seen.insert(vf), "VF {vf:?} double-allocated");
        engine.teardown_pod(pod).unwrap();
    }
}

#[test]
fn vanilla_and_fastiov_engines_share_one_host_sequentially() {
    // Two engines (e.g. two runtime classes) on the same server: the
    // vanilla wave runs after the FastIOV wave released its VFs, and the
    // shared kernel state (devsets, fastiovd, allocator) must be clean in
    // between.
    let host = Host::new(HostParams::for_tests(), LockPolicy::Hierarchical).unwrap();
    host.prebind_all_vfs().unwrap();
    let fast = engine_on(&host, true);
    let van = engine_on(&host, false);
    let fast_pods: Vec<_> = fast
        .launch_concurrent(4)
        .pods
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap();
    for pod in &fast_pods {
        fast.teardown_pod(pod).unwrap();
    }
    assert_eq!(host.fastiovd.stats().tracked, 0);
    let van_pods: Vec<_> = van
        .launch_concurrent(4)
        .pods
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap();
    for pod in &van_pods {
        pod.vm.wait_net_ready().unwrap();
        van.teardown_pod(pod).unwrap();
    }
}

#[test]
fn teardown_while_async_init_in_flight_is_safe() {
    let host = Host::new(HostParams::for_tests(), LockPolicy::Hierarchical).unwrap();
    host.prebind_all_vfs().unwrap();
    let engine = engine_on(&host, true);
    // Tear down immediately, without waiting for network readiness: the
    // shutdown path must join the async initializer cleanly.
    for _ in 0..4 {
        let pod = engine.run_pod(0).unwrap();
        engine.teardown_pod(&pod).unwrap();
    }
}

#[test]
fn two_fresh_hosts_make_the_same_baton_traffic_for_the_same_wave() {
    // The executor's counts are the simulator-cost measure that does not
    // depend on the machine: same wave, same hand-offs.
    let wave = || {
        let host = Host::new(HostParams::for_tests(), LockPolicy::Coarse).unwrap();
        host.prebind_all_vfs().unwrap();
        let engine = engine_on(&host, false);
        for pod in engine.launch_concurrent(8).pods {
            engine.teardown_pod(&pod.unwrap()).unwrap();
        }
        host.clock.exec_stats()
    };
    let first = wave();
    assert!(first.handoffs > 0 && first.timer_jumps > 0, "{first:?}");
    assert_eq!(wave(), first);
}
