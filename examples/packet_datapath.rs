//! The passthrough data plane, end to end: attach a VF to a microVM,
//! deliver packets through the NIC DMA engine, and observe (a) the bytes
//! landing in guest memory via the IOMMU translation and (b) the IOMMU
//! blocking DMA to unmapped addresses.
//!
//! ```sh
//! cargo run --release --example packet_datapath
//! ```

use fastiov_repro::hostmem::{Gpa, Iova};
use fastiov_repro::microvm::{Host, HostParams, Microvm, MicrovmConfig, NetworkAttachment};
use fastiov_repro::nic::VfId;
use fastiov_repro::simtime::StageLog;
use fastiov_repro::vfio::LockPolicy;

fn main() {
    let host = Host::new(HostParams::for_tests(), LockPolicy::Hierarchical).expect("host");
    host.prebind_all_vfs().expect("prebind");

    // Boot a FastIOV-configured microVM with VF 0 passed through.
    let cfg = MicrovmConfig::fastiov(1, 64 * 1024 * 1024, 32 * 1024 * 1024);
    let mut log = StageLog::begin(&host.tracer);
    let vm = Microvm::launch(
        &host,
        cfg,
        NetworkAttachment::Passthrough(VfId(0)),
        &mut log,
    )
    .expect("launch");
    vm.wait_net_ready().expect("driver init");
    println!("microVM up; VF 0 attached, driver initialized");

    // Deliver three packets: they DMA into the guest driver's RX ring.
    for i in 0..3u8 {
        let payload: Vec<u8> = (0..64).map(|b| b ^ (i + 1)).collect();
        let completion = host.dma.deliver(VfId(0), &payload).expect("deliver");
        let rx = host.dma.wait_rx(VfId(0)).expect("rx");
        assert_eq!(rx.buffer.iova, completion.buffer.iova);
        // Read the packet back through guest memory (EPT path).
        let mut got = vec![0u8; rx.written];
        vm.vm()
            .read_gpa(Gpa(rx.buffer.iova.raw()), &mut got)
            .expect("guest read");
        assert_eq!(got, payload);
        println!(
            "packet {i}: {} bytes DMA'd to IOVA {:#x}, guest sees them intact",
            rx.written,
            rx.buffer.iova.raw()
        );
    }

    // The IOMMU protects the rest of the host: DMA to an address the
    // guest never mapped is rejected, not silently written. Drain the
    // driver's remaining ring buffers first so the rogue one is next.
    while host.dma.deliver(VfId(0), &[0u8; 1]).is_ok() {}
    host.dma
        .post_rx_buffer(VfId(0), Iova(0xdead_0000_0000), 1500)
        .expect("post rogue buffer");
    let err = host
        .dma
        .deliver(VfId(0), &[0u8; 16])
        .expect_err("must fault");
    println!("rogue DMA blocked by the IOMMU: {err}");

    let stats = vm.vm().stats();
    println!(
        "EPT faults taken: {}, lazily zeroed pages: {}",
        stats.ept_faults,
        host.fastiovd.stats().lazily_zeroed
    );
    vm.shutdown().expect("shutdown");
    println!("microVM torn down cleanly");
}
