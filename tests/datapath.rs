//! Data-plane integration: DMA isolation between tenants, streaming
//! through virtioFS, vDPA and software-CNI paths.

use fastiov_repro::hostmem::{Gpa, Iova};
use fastiov_repro::microvm::{Host, HostParams, Microvm, MicrovmConfig, NetworkAttachment};
use fastiov_repro::nic::VfId;
use fastiov_repro::simtime::{self, StageLog};
use fastiov_repro::vfio::LockPolicy;
use std::sync::Arc;

const MB: u64 = 1024 * 1024;

fn host() -> Arc<Host> {
    let h = Host::new(HostParams::for_tests(), LockPolicy::Hierarchical).unwrap();
    h.prebind_all_vfs().unwrap();
    h
}

fn launch(host: &Arc<Host>, pid: u64, net: NetworkAttachment) -> Arc<Microvm> {
    let mut log = StageLog::begin(&host.tracer);
    let vm = Microvm::launch(
        host,
        MicrovmConfig::fastiov(pid, 64 * MB, 32 * MB),
        net,
        &mut log,
    )
    .unwrap();
    vm.wait_net_ready().unwrap();
    vm
}

#[test]
fn dma_is_isolated_between_tenants() {
    // Two microVMs with adjacent VFs: traffic delivered to tenant A's VF
    // must land in A's memory and leave B's untouched, even though both
    // use the same (identity) IOVA space.
    let host = host();
    let a = launch(&host, 1, NetworkAttachment::Passthrough(VfId(0)));
    let b = launch(&host, 2, NetworkAttachment::Passthrough(VfId(1)));

    let pkt_a: Vec<u8> = vec![0xaa; 128];
    let pkt_b: Vec<u8> = vec![0xbb; 128];
    let ca = host.dma.deliver(VfId(0), &pkt_a).unwrap();
    let cb = host.dma.deliver(VfId(1), &pkt_b).unwrap();
    // Both drivers posted their rings at the same guest-physical layout.
    assert_eq!(ca.buffer.iova, cb.buffer.iova);

    let mut got_a = vec![0u8; 128];
    a.vm()
        .read_gpa(Gpa(ca.buffer.iova.raw()), &mut got_a)
        .unwrap();
    let mut got_b = vec![0u8; 128];
    b.vm()
        .read_gpa(Gpa(cb.buffer.iova.raw()), &mut got_b)
        .unwrap();
    assert_eq!(got_a, pkt_a, "tenant A sees its own packet");
    assert_eq!(got_b, pkt_b, "tenant B sees its own packet");

    a.shutdown().unwrap();
    b.shutdown().unwrap();
}

#[test]
fn dma_to_detached_vf_fails_after_teardown() {
    let host = host();
    let vm = launch(&host, 3, NetworkAttachment::Passthrough(VfId(2)));
    host.dma.deliver(VfId(2), &[1, 2, 3]).unwrap();
    vm.shutdown().unwrap();
    // The attachment is gone: the device can no longer reach any memory.
    assert!(host.dma.deliver(VfId(2), &[4, 5, 6]).is_err());
}

#[test]
fn virtiofs_streams_large_file_through_bounded_buffer() {
    // Stream a 1 MB file in 64 KB windows through one fixed guest buffer,
    // verifying every byte (the pattern the task runner uses to keep the
    // content model bounded).
    let host = host();
    let vm = launch(&host, 4, NetworkAttachment::Passthrough(VfId(3)));
    let total = 1024 * 1024usize;
    let window = 64 * 1024usize;
    let data: Vec<u8> = (0..total).map(|i| (i % 249) as u8 + 1).collect();
    let buf_gpa = vm.layout().app_gpa;
    let mut restored = Vec::with_capacity(total);
    for (i, chunk) in data.chunks(window).enumerate() {
        let name = format!("part-{i}");
        vm.virtiofs().add_file(&name, chunk.to_vec());
        let got = vm
            .virtiofs()
            .guest_read_to_vec(&name, buf_gpa, window as u32)
            .unwrap();
        restored.extend_from_slice(&got);
    }
    assert_eq!(restored, data);
    assert_eq!(vm.virtiofs().stats().bytes_read, total as u64);
    vm.shutdown().unwrap();
}

#[test]
fn vdpa_guest_receives_through_standard_virtio() {
    let host = host();
    let vm = launch(&host, 5, NetworkAttachment::Vdpa(VfId(4)));
    let net = vm.virtio_net().expect("vDPA exposes virtio-net");
    net.guest_post_rx(vm.layout().app_gpa, 2048).unwrap();
    let pkt: Vec<u8> = (0..256u32).map(|i| (i % 255) as u8).collect();
    net.host_deliver(&pkt).unwrap();
    let mut got = vec![0u8; 256];
    net.guest_recv(&mut got).unwrap();
    assert_eq!(got, pkt);
    vm.shutdown().unwrap();
}

#[test]
fn iommu_blocks_dma_outside_guest_mappings() {
    let host = host();
    let vm = launch(&host, 6, NetworkAttachment::Passthrough(VfId(5)));
    // Drain the pre-posted ring, then post a buffer pointing far outside
    // the mapped guest space.
    while host.dma.deliver(VfId(5), &[0u8; 1]).is_ok() {}
    host.dma
        .post_rx_buffer(VfId(5), Iova(1 << 40), 1500)
        .unwrap();
    let err = host.dma.deliver(VfId(5), &[9u8; 64]).unwrap_err();
    assert!(err.to_string().contains("DMA fault"), "{err}");
    vm.shutdown().unwrap();
}

#[test]
fn concurrent_packet_streams_do_not_interleave_wrongly() {
    let host = host();
    let vms: Vec<Arc<Microvm>> = (0..4)
        .map(|i| {
            launch(
                &host,
                10 + i,
                NetworkAttachment::Passthrough(VfId(6 + i as u16)),
            )
        })
        .collect();
    let handles: Vec<_> = vms
        .iter()
        .enumerate()
        .map(|(i, vm)| {
            let (h, vm) = (Arc::clone(&host), Arc::clone(vm));
            simtime::spawn(&host.clock, format!("stream-{i}"), move || {
                let (host, vf) = (h, VfId(6 + i as u16));
                for round in 0..8u8 {
                    let marker = (i as u8) << 4 | round;
                    let pkt = vec![marker; 100];
                    host.dma.deliver(vf, &pkt).unwrap();
                    let c = host.dma.wait_rx(vf).unwrap();
                    let mut got = vec![0u8; c.written];
                    vm.vm()
                        .read_gpa(Gpa(c.buffer.iova.raw()), &mut got)
                        .unwrap();
                    assert_eq!(got, pkt, "stream {i} round {round}");
                    host.dma
                        .post_rx_buffer(vf, c.buffer.iova, c.buffer.len)
                        .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    for vm in &vms {
        vm.shutdown().unwrap();
    }
    assert!(host.clock.is_virtual());
}
