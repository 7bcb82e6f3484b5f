//! Host parameter set, calibrated against the paper's measurements.
//!
//! Every constant is a *simulated* duration or size; the [`crate::Host`]
//! realizes them through its simulation clock. Calibration targets come from
//! the paper's testbed (§3.1: 2×28-core Xeon, 256 GB DDR4, 25 GbE Intel
//! E810 with 256 VFs) and measured proportions (Tab. 1 at concurrency
//! 200): each field's comment states what it was fitted to. Absolute
//! times are model-scale; the reproduction target is the *shape* of every
//! figure (orderings, ratios, crossovers), which the claim table of
//! `fastiov::reproduce` checks (`fastiovctl reproduce`).

use fastiov_hostmem::addr::units::{gib, mib};
use fastiov_hostmem::PageSize;
use std::time::Duration;

/// Complete parameter set for one modelled host.
#[derive(Debug, Clone)]
pub struct HostParams {
    /// Real seconds per simulated second if the host's virtual clock
    /// falls back to wall pacing (a thread outside the simulation blocking
    /// on it; see [`fastiov_simtime::Clock`]). No virtual run reads it.
    pub time_scale: f64,
    /// Modelled CPU cores (2×28 in the testbed).
    pub host_cores: usize,
    /// Total physical memory.
    pub total_memory: u64,
    /// Page size (2 MB hugepages in the production setting, §3.2.3).
    pub page_size: PageSize,

    // --- memory costs -----------------------------------------------------
    /// Aggregate zeroing/copy bandwidth (bytes per simulated second),
    /// shared fairly among all concurrent transfers; fitted so 200
    /// concurrent 512 MB zeroings average ≈ 2.1 s (13.0 % of the 16.2 s
    /// vanilla startup, Tab. 1).
    pub membw_total: f64,
    /// Per-transfer bandwidth cap (single-thread zeroing speed).
    pub membw_stream_cap: f64,
    /// CPU cost per contiguous batch retrieved from the free list (P2).
    pub retrieval_per_batch: Duration,
    /// CPU cost per page pinned.
    pub pin_per_page: Duration,

    // --- PCI / VFIO --------------------------------------------------------
    /// Per-device config access during a bus scan. With ~257 functions on
    /// the NIC's bus this puts the scan at ≈ 26 ms.
    pub pci_cfg_access: Duration,
    /// Function/bus reset latency.
    pub pci_reset: Duration,
    /// Devset bookkeeping charged inside the devset lock per open. Scan +
    /// overhead ≈ 78 ms, fitted so 200 serialized opens average ≈ 7.8 s
    /// (48.1 % of vanilla startup, Tab. 1) and the slowest ramps to ≈ 15 s
    /// (Fig. 5).
    pub vfio_open_overhead: Duration,
    /// Reading device info + emulating the PCIe device after the open.
    pub pcie_emulate: Duration,

    // --- IOMMU -------------------------------------------------------------
    /// Per page-table entry installed.
    pub iommu_map_per_page: Duration,
    /// Full I/O page-table walk on IOTLB miss.
    pub iommu_walk: Duration,
    /// IOTLB capacity (translations).
    pub iotlb_capacity: usize,

    // --- NIC ---------------------------------------------------------------
    /// VFs supported by the NIC (Intel E810: 256).
    pub total_vfs: u16,
    /// One-time hardware configuration per VF during pre-creation.
    pub vf_precreate: Duration,
    /// VFIO driver bind.
    pub bind_vfio: Duration,
    /// Dummy netdev creation (FastIOV CNI).
    pub dummy_netdev: Duration,
    /// PF admin queue service for lightweight configuration writes
    /// (MAC/VLAN, issued by the CNI).
    pub admin_config_service: Duration,
    /// PF admin queue service for bring-up commands (queue enablement,
    /// link query). Two per VF initialization; fitted so 200
    /// *simultaneous* initializations queue to ≈ 3–4 s (the FastIOV-A
    /// regression in Fig. 11) while the staggered vanilla case stays near
    /// the measured 0.55 s (3.4 %, Tab. 1).
    pub admin_service: Duration,
    /// NIC aggregate line rate (25 GbE ≈ 3.125 GB/s), fairly shared.
    pub nic_line_total: f64,
    /// Per-flow cap on the line.
    pub nic_line_stream_cap: f64,

    // --- KVM / guest -------------------------------------------------------
    /// EPT violation cost (vm-exit, resolve, install).
    pub ept_fault: Duration,
    /// Hypervisor interrupt-relay cost per MSI-X vector raised (§2.1).
    pub irq_relay: Duration,
    /// Guest kernel boot CPU work.
    pub guest_boot_cpu: Duration,
    /// Bytes of guest RAM occupied by BIOS + kernel (hypervisor-written;
    /// the instant-zeroing list covers them). ≈ 9.4 % of a 512 MB guest
    /// (§4.3.2).
    pub kernel_bytes: u64,
    /// Default microVM image region size (§3.2.3: 256 MB).
    pub image_bytes: u64,

    // --- virtioFS ----------------------------------------------------------
    /// Baseline virtioFS setup (daemon spawn, mount handshake).
    pub virtiofs_setup_base: Duration,
    /// CPU portion of virtioFS setup.
    pub virtiofs_setup_cpu: Duration,
    /// Hold time of the host-global virtiofsd lock (class `virtiofsd`)
    /// during setup. Its serialization makes `2-virtiofs` 13.3 % of vanilla
    /// startup at concurrency 200 in the paper (Tab. 1); the model's 7.5 %
    /// (DESIGN.md §8, D5) queues 150 of 200 setups on the lock.
    pub virtiofs_lock_hold: Duration,
    /// Aggregate virtioFS data-path bandwidth, fairly shared.
    pub virtiofs_total: f64,
    /// Per-mount cap on the virtioFS data path.
    pub virtiofs_stream_cap: f64,

    // --- guest VF driver init (§3.2.4) --------------------------------------
    /// Guest-side PCI enumeration.
    pub guest_pci_enum: Duration,
    /// Registering the device as a Linux network interface.
    pub netif_register: Duration,
    /// Link status propagation delay.
    pub link_update: Duration,
    /// Agent MAC/IP assignment.
    pub agent_assign: Duration,
    /// RX buffers the guest driver posts at bring-up.
    pub rx_ring_buffers: usize,
    /// Size of each RX buffer.
    pub rx_buffer_bytes: usize,

    /// virtio feature negotiation for a vDPA-mediated device (§7): the
    /// standard virtio driver replaces the vendor VF driver, so bring-up
    /// avoids the PF admin queue entirely.
    pub vdpa_virtio_probe: Duration,

    // --- software CNI data path (§6.4) --------------------------------------
    /// Aggregate emulated (virtio-net) data-path bandwidth — well below
    /// SR-IOV line rate: the software data-plane tax the paper cites
    /// [2, 48, 49].
    pub sw_net_total: f64,
    /// Per-device cap on the emulated data path.
    pub sw_net_stream_cap: f64,
}

impl HostParams {
    /// Paper-calibrated parameters (the `calibrate.*` and `tab1.*` claims
    /// of `fastiovctl reproduce` check the targets). A fallback paces one
    /// simulated second in 20 real ms.
    pub fn paper() -> Self {
        HostParams {
            time_scale: 0.02,
            host_cores: 56,
            total_memory: gib(256),
            page_size: PageSize::Size2M,

            membw_total: 24.0e9,
            membw_stream_cap: 0.6e9,
            retrieval_per_batch: Duration::from_micros(30),
            pin_per_page: Duration::from_micros(50),

            pci_cfg_access: Duration::from_micros(100),
            pci_reset: Duration::from_millis(10),
            vfio_open_overhead: Duration::from_millis(70),
            pcie_emulate: Duration::from_millis(8),

            iommu_map_per_page: Duration::from_micros(20),
            iommu_walk: Duration::from_micros(1),
            iotlb_capacity: 64,

            total_vfs: 256,
            vf_precreate: Duration::from_millis(20),
            bind_vfio: Duration::from_millis(30),
            dummy_netdev: Duration::from_millis(3),
            admin_config_service: Duration::from_micros(800),
            admin_service: Duration::from_millis(15),
            nic_line_total: 3.125e9,
            nic_line_stream_cap: 3.125e9,

            ept_fault: Duration::from_micros(25),
            irq_relay: Duration::from_micros(12),
            guest_boot_cpu: Duration::from_millis(250),
            kernel_bytes: mib(48),
            image_bytes: mib(256),

            virtiofs_setup_base: Duration::from_millis(700),
            virtiofs_setup_cpu: Duration::from_millis(100),
            virtiofs_lock_hold: Duration::from_millis(20),
            virtiofs_total: 64.0e9,
            virtiofs_stream_cap: 4.0e9,

            guest_pci_enum: Duration::from_millis(80),
            netif_register: Duration::from_millis(60),
            link_update: Duration::from_millis(150),
            agent_assign: Duration::from_millis(100),
            rx_ring_buffers: 16,
            rx_buffer_bytes: 2048,

            vdpa_virtio_probe: Duration::from_millis(40),

            sw_net_total: 6.4e9,
            sw_net_stream_cap: 0.8e9,
        }
    }

    /// A small host for functional tests: few VFs, little memory, and a
    /// fine fallback pacing, so a stray wall-paced test still ends soon.
    pub fn for_tests() -> Self {
        HostParams {
            time_scale: 2e-4,
            host_cores: 8,
            total_memory: gib(8),
            total_vfs: 16,
            ..Self::paper()
        }
    }

    /// Frames of physical memory at the configured page size.
    pub fn total_frames(&self) -> usize {
        (self.total_memory / self.page_size.bytes()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_params_are_self_consistent() {
        let p = HostParams::paper();
        assert_eq!(p.total_frames(), 131_072); // 256 GB / 2 MB
        assert_eq!(p.total_vfs, 256);
        // Devset hold = scan (257 devices) + overhead ≈ 96 ms, fitted so
        // 200 serialized opens average ≈ 7.8 s (48.1 % of vanilla).
        let scan = p.pci_cfg_access * 257;
        let hold = scan + p.vfio_open_overhead;
        assert!(hold >= Duration::from_millis(85) && hold <= Duration::from_millis(105));
        // Kernel region ≈ 9.4 % of a 512 MB guest.
        let frac = p.kernel_bytes as f64 / mib(512) as f64;
        assert!((frac - 0.094).abs() < 0.01, "kernel fraction {frac}");
    }

    #[test]
    fn test_params_are_small() {
        let p = HostParams::for_tests();
        assert!(p.total_frames() <= 4096);
        assert!(p.time_scale < 1e-3);
    }
}
