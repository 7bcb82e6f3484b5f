//! Failure injection: exhaustion, contention, and misuse must fail
//! cleanly and leave the host reusable.

use fastiov_repro::cni::VfPool;
use fastiov_repro::engine::{Engine, EngineParams, PodNetworking, VmOptions};
use fastiov_repro::hostmem::addr::units::mib;
use fastiov_repro::microvm::{Host, HostParams, Microvm, MicrovmConfig, NetworkAttachment};
use fastiov_repro::nic::VfId;
use fastiov_repro::simtime::StageLog;
use fastiov_repro::vfio::{LockPolicy, VfioError};
use std::sync::Arc;

fn host() -> Arc<Host> {
    let h = Host::new(HostParams::for_tests(), LockPolicy::Hierarchical).unwrap();
    h.prebind_all_vfs().unwrap();
    h
}

#[test]
fn vf_exhaustion_fails_cleanly_and_recovers() {
    let host = host();
    let vfs = VfPool::new(2);
    let engine = Engine::new(
        Arc::clone(&host),
        EngineParams::paper(),
        PodNetworking::Sriov(vfs),
        VmOptions::fastiov(mib(64), mib(32)),
    );
    let a = engine.run_pod(0).unwrap();
    let b = engine.run_pod(1).unwrap();
    // Third pod: no VF left.
    assert!(engine.run_pod(2).is_err());
    // Releasing one makes launches possible again.
    engine.teardown_pod(&a).unwrap();
    let c = engine.run_pod(3).unwrap();
    engine.teardown_pod(&b).unwrap();
    engine.teardown_pod(&c).unwrap();
}

#[test]
fn host_memory_exhaustion_fails_launch_not_host() {
    let mut params = HostParams::for_tests();
    // Tiny host: 512 MB of frames.
    params.total_memory = mib(512);
    let host = Host::new(params, LockPolicy::Hierarchical).unwrap();
    host.prebind_all_vfs().unwrap();
    let free0 = host.mem.stats().free_frames;

    // A pod whose guest cannot fit (384 MB RAM + 256 MB image on a 512 MB
    // host): the engine's unwind must release every partial allocation.
    let vfs = VfPool::new(4);
    let engine = Engine::new(
        Arc::clone(&host),
        EngineParams::paper(),
        PodNetworking::Sriov(vfs),
        VmOptions::vanilla(mib(384), mib(256)),
    );
    assert!(engine.run_pod(0).is_err());
    assert_eq!(host.mem.stats().free_frames, free0, "failed launch leaked");

    // A guest that fits still launches afterwards.
    let mut log = StageLog::begin(&host.tracer);
    let cfg = MicrovmConfig::vanilla(2, mib(64), mib(16));
    let vm = Microvm::launch(
        &host,
        cfg,
        NetworkAttachment::Passthrough(VfId(1)),
        &mut log,
    )
    .unwrap();
    vm.wait_net_ready().unwrap();
    vm.shutdown().unwrap();
    assert_eq!(host.mem.stats().free_frames, free0);
}

#[test]
fn group_contention_two_guests_same_vf() {
    let host = host();
    let mut log = StageLog::begin(&host.tracer);
    let a = Microvm::launch(
        &host,
        MicrovmConfig::fastiov(1, mib(64), mib(32)),
        NetworkAttachment::Passthrough(VfId(0)),
        &mut log,
    )
    .unwrap();
    // Second guest grabbing the same VF must be refused at the group.
    let mut log2 = StageLog::begin(&host.tracer);
    let err = match Microvm::launch(
        &host,
        MicrovmConfig::fastiov(2, mib(64), mib(32)),
        NetworkAttachment::Passthrough(VfId(0)),
        &mut log2,
    ) {
        Err(e) => e,
        Ok(_) => panic!("two containers attached one VF"),
    };
    assert!(
        err.to_string().contains("already attached"),
        "unexpected error: {err}"
    );
    a.shutdown().unwrap();
    // After shutdown the VF's group is free again.
    let mut log3 = StageLog::begin(&host.tracer);
    let c = Microvm::launch(
        &host,
        MicrovmConfig::fastiov(3, mib(64), mib(32)),
        NetworkAttachment::Passthrough(VfId(0)),
        &mut log3,
    )
    .unwrap();
    c.shutdown().unwrap();
}

#[test]
fn open_without_group_attach_is_refused() {
    let host = host();
    let bdf = host.pf.vf(VfId(0)).unwrap().pci().bdf();
    assert!(matches!(
        host.vfio.open(bdf),
        Err(VfioError::GroupNotAttached(_))
    ));
}

#[test]
fn devset_reset_refused_while_guests_running_then_allowed() {
    let host = host();
    let mut log = StageLog::begin(&host.tracer);
    let vm = Microvm::launch(
        &host,
        MicrovmConfig::fastiov(1, mib(64), mib(32)),
        NetworkAttachment::Passthrough(VfId(0)),
        &mut log,
    )
    .unwrap();
    // Bus-level reset of a *different* VF: refused while VF 0 is open.
    let other = host.pf.vf(VfId(1)).unwrap().pci().bdf();
    assert!(matches!(
        host.vfio.reset(other),
        Err(VfioError::DevsetBusy { .. })
    ));
    vm.shutdown().unwrap();
    host.vfio.reset(other).unwrap();
}
