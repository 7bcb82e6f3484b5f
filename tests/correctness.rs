//! Cross-crate correctness and security invariants.
//!
//! The paper's lazy-zeroing design is only acceptable if two properties
//! hold (§4.3.2): no residual data from a previous tenant is ever
//! observable by a guest, and no hypervisor- or device-written data is
//! ever destroyed by fault-time zeroing. These tests drive the full stack
//! into the relevant corners, including the deliberately broken
//! configurations.

use fastiov_repro::hostmem::Gpa;
use fastiov_repro::microvm::{
    Host, HostParams, Microvm, MicrovmConfig, NetworkAttachment, VmmError, ZeroingMode,
};
use fastiov_repro::nic::VfId;
use fastiov_repro::simtime::StageLog;
use fastiov_repro::vfio::LockPolicy;
use std::sync::Arc;

const MB: u64 = 1024 * 1024;

fn host() -> Arc<Host> {
    let h = Host::new(HostParams::for_tests(), LockPolicy::Hierarchical).expect("host");
    h.prebind_all_vfs().expect("prebind");
    h
}

fn launch(host: &Arc<Host>, cfg: MicrovmConfig, vf: VfId) -> Arc<Microvm> {
    let mut log = StageLog::begin(&host.tracer);
    Microvm::launch(host, cfg, NetworkAttachment::Passthrough(vf), &mut log).expect("launch")
}

#[test]
fn guest_never_observes_previous_tenant_data() {
    let host = host();
    // Tenant A writes a secret into its RAM.
    let a = launch(&host, MicrovmConfig::vanilla(1, 64 * MB, 32 * MB), VfId(0));
    let secret = [0x5eu8; 256];
    let gpa = a.layout().app_gpa;
    a.vm().write_gpa(gpa, &secret).unwrap();
    a.shutdown().unwrap();

    // Tenant B (decoupled zeroing) scans its whole RAM: every byte it can
    // see must be zero on first touch — never A's secret, never allocator
    // residue.
    let b = launch(&host, MicrovmConfig::fastiov(2, 64 * MB, 32 * MB), VfId(1));
    let layout = b.layout();
    let page = host.params.page_size.bytes();
    let kernel_pages = host.params.kernel_bytes.div_ceil(page);
    let mut buf = vec![0u8; 4096];
    for p in kernel_pages..(64 * MB / page) {
        // Skip pages the guest legitimately wrote (rings, rx buffers).
        let gpa = Gpa(p * page);
        if gpa == layout.virtiofs_ring_gpa || gpa == layout.net_ring_gpa || gpa == layout.rx_gpa {
            continue;
        }
        b.vm().read_gpa(gpa, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&x| x == 0),
            "page {p} leaked nonzero data to the new tenant"
        );
    }
    b.shutdown().unwrap();
}

#[test]
fn disabling_instant_zero_list_crashes_the_guest() {
    let host = host();
    let cfg = MicrovmConfig {
        zeroing: ZeroingMode::Decoupled {
            instant_zero_list: false,
            proactive_virtio_faults: true,
        },
        ..MicrovmConfig::fastiov(3, 64 * MB, 32 * MB)
    };
    let mut log = StageLog::begin(&host.tracer);
    match Microvm::launch(
        &host,
        cfg,
        NetworkAttachment::Passthrough(VfId(2)),
        &mut log,
    ) {
        Err(VmmError::GuestCrash { detail }) => {
            assert!(
                detail.contains("kernel"),
                "unexpected crash detail: {detail}"
            )
        }
        Err(other) => panic!("wrong failure: {other}"),
        Ok(_) => panic!("guest survived without the instant-zeroing list"),
    }
}

#[test]
fn disabling_proactive_faults_corrupts_virtiofs_reads() {
    let host = host();
    let cfg = MicrovmConfig {
        zeroing: ZeroingMode::Decoupled {
            instant_zero_list: true,
            proactive_virtio_faults: false,
        },
        ..MicrovmConfig::fastiov(4, 64 * MB, 32 * MB)
    };
    let vm = launch(&host, cfg, VfId(3));
    let payload = vec![0xabu8; 1024];
    vm.virtiofs().add_file("data.bin", payload);
    let got = vm
        .virtiofs()
        .guest_read_to_vec("data.bin", vm.layout().app_gpa, 1024)
        .unwrap();
    assert_eq!(
        got,
        vec![0u8; 1024],
        "without proactive faults, fault-time zeroing wipes the host's write"
    );
    vm.shutdown().unwrap();
}

#[test]
fn safe_fastiov_configuration_preserves_virtiofs_reads() {
    let host = host();
    let vm = launch(&host, MicrovmConfig::fastiov(5, 64 * MB, 32 * MB), VfId(4));
    let payload: Vec<u8> = (0..2048u32).map(|i| (i % 254) as u8 + 1).collect();
    vm.virtiofs().add_file("data.bin", payload.clone());
    let got = vm
        .virtiofs()
        .guest_read_to_vec("data.bin", vm.layout().app_gpa, 2048)
        .unwrap();
    assert_eq!(got, payload);
    vm.shutdown().unwrap();
}

#[test]
fn nic_dma_survives_decoupled_zeroing() {
    // The guest driver zeroes its RX buffers at bring-up, EPT-faulting
    // them; NIC DMA afterwards must never be wiped (§7).
    let host = host();
    let vm = launch(&host, MicrovmConfig::fastiov(6, 64 * MB, 32 * MB), VfId(5));
    vm.wait_net_ready().unwrap();
    let pkt: Vec<u8> = (1..=200u8).collect();
    host.dma.deliver(VfId(5), &pkt).unwrap();
    let c = host.dma.wait_rx(VfId(5)).unwrap();
    let mut got = vec![0u8; c.written];
    vm.vm()
        .read_gpa(Gpa(c.buffer.iova.raw()), &mut got)
        .unwrap();
    assert_eq!(got, pkt);
    vm.shutdown().unwrap();
}

#[test]
fn shutdown_releases_every_resource() {
    let host = host();
    let free0 = host.mem.stats().free_frames;
    let vm = launch(&host, MicrovmConfig::fastiov(7, 64 * MB, 32 * MB), VfId(6));
    vm.wait_net_ready().unwrap();
    assert!(host.mem.stats().free_frames < free0);
    vm.shutdown().unwrap();
    assert_eq!(host.mem.stats().free_frames, free0, "frames leaked");
    assert_eq!(host.fastiovd.stats().tracked, 0, "fastiovd entries leaked");
    // VF can be reused immediately by another tenant.
    let vm2 = launch(&host, MicrovmConfig::fastiov(8, 64 * MB, 32 * MB), VfId(6));
    vm2.wait_net_ready().unwrap();
    vm2.shutdown().unwrap();
}

#[test]
fn background_scrubber_drains_untouched_pages() {
    let host = host();
    let vm = launch(&host, MicrovmConfig::fastiov(9, 64 * MB, 32 * MB), VfId(7));
    let before = host.fastiovd.stats();
    assert!(before.tracked > 0, "decoupled launch must track pages");
    // Drain synchronously (the thread variant is covered in fastiovd's
    // own tests).
    while host.fastiovd.scrub_once(64) > 0 {}
    let after = host.fastiovd.stats();
    assert_eq!(after.tracked, 0);
    assert!(after.background_zeroed >= before.tracked as u64);
    vm.shutdown().unwrap();
}
