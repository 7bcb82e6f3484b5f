//! MicroVM lifecycle: the end-to-end attach sequence of Fig. 4.

use crate::guest::{GuestVfDriver, NetReadiness};
use crate::host::Host;
use crate::{stages, Result, VmmError};
use fastiov_hostmem::{AddressSpace, FrameRange, Gpa, Hva, Iova};
use fastiov_kvm::{EptFaultHook, Memslot, Vm};
use fastiov_nic::VfId;
use fastiov_simtime::StageLog;
use fastiov_simtime::{LockClass, TrackedMutex};
use fastiov_vfio::{DmaZeroMode, VfioContainer, VfioDeviceFd};
use fastiov_virtio::{VirtioFs, VirtioNet};
use std::sync::Arc;

/// How guest memory is zeroed for passthrough.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZeroingMode {
    /// Vanilla: zero every page during DMA mapping.
    Eager,
    /// FastIOV decoupled zeroing: allocate without zeroing, register with
    /// `fastiovd`, zero on first guest touch (EPT fault).
    Decoupled {
        /// Register hypervisor-written regions (BIOS/kernel) on the
        /// instant-zeroing list. Disabling this reproduces the §4.3.2
        /// guest crash.
        instant_zero_list: bool,
        /// Guest virtio frontends proactively EPT-fault shared buffers
        /// before posting them. Disabling this reproduces shared-buffer
        /// corruption.
        proactive_virtio_faults: bool,
    },
}

impl ZeroingMode {
    /// The safe FastIOV configuration.
    pub fn decoupled() -> Self {
        ZeroingMode::Decoupled {
            instant_zero_list: true,
            proactive_virtio_faults: true,
        }
    }

    /// True for any decoupled variant.
    pub fn is_decoupled(self) -> bool {
        matches!(self, ZeroingMode::Decoupled { .. })
    }
}

/// Network attachment requested for a microVM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkAttachment {
    /// No network (the `No network` baseline).
    None,
    /// SR-IOV VF passthrough.
    Passthrough(VfId),
    /// Emulated virtio-net device (software CNI path).
    SoftwareVirtio,
    /// vDPA (§7): the VF's data plane is passed through (DMA mapping and
    /// VFIO open still required), but the *control plane* is mediated, so
    /// the guest uses the standard virtio-net driver instead of the
    /// vendor VF driver — no PF admin-queue round trips at bring-up.
    Vdpa(VfId),
}

/// Per-microVM configuration.
#[derive(Debug, Clone)]
pub struct MicrovmConfig {
    /// Hypervisor process id (guest identity).
    pub pid: u64,
    /// Guest RAM size.
    pub ram_bytes: u64,
    /// Image region size.
    pub image_bytes: u64,
    /// Zeroing discipline.
    pub zeroing: ZeroingMode,
    /// Skip DMA-mapping the image region (FastIOV `S`).
    pub skip_image_mapping: bool,
    /// Initialize the guest VF driver asynchronously (FastIOV `A`).
    pub async_vf_init: bool,
}

impl MicrovmConfig {
    /// Vanilla configuration: eager zeroing, image mapped, synchronous VF
    /// driver init.
    pub fn vanilla(pid: u64, ram_bytes: u64, image_bytes: u64) -> Self {
        MicrovmConfig {
            pid,
            ram_bytes,
            image_bytes,
            zeroing: ZeroingMode::Eager,
            skip_image_mapping: false,
            async_vf_init: false,
        }
    }

    /// Full FastIOV configuration.
    pub fn fastiov(pid: u64, ram_bytes: u64, image_bytes: u64) -> Self {
        MicrovmConfig {
            pid,
            ram_bytes,
            image_bytes,
            zeroing: ZeroingMode::decoupled(),
            skip_image_mapping: true,
            async_vf_init: true,
        }
    }
}

/// Guest-physical layout of a microVM.
#[derive(Debug, Clone, Copy)]
pub struct GuestLayout {
    /// RAM size.
    pub ram_bytes: u64,
    /// Kernel+BIOS region at the bottom of RAM.
    pub kernel_bytes: u64,
    /// virtioFS vring page.
    pub virtiofs_ring_gpa: Gpa,
    /// virtio-net vring page (software CNI).
    pub net_ring_gpa: Gpa,
    /// VF driver RX buffer area.
    pub rx_gpa: Gpa,
    /// Application scratch buffer base.
    pub app_gpa: Gpa,
    /// Image region base GPA (outside RAM).
    pub image_gpa: Gpa,
}

impl GuestLayout {
    /// Computes the layout for a guest. The image region sits above RAM,
    /// at 4 GiB or the end of RAM, whichever is higher.
    pub fn new(ram_bytes: u64, kernel_bytes: u64, page: u64) -> Self {
        let kernel_end = kernel_bytes.div_ceil(page) * page;
        let ram_end = ram_bytes.div_ceil(page) * page;
        GuestLayout {
            ram_bytes,
            kernel_bytes,
            virtiofs_ring_gpa: Gpa(kernel_end),
            net_ring_gpa: Gpa(kernel_end + page),
            rx_gpa: Gpa(kernel_end + 2 * page),
            app_gpa: Gpa(kernel_end + 3 * page),
            image_gpa: Gpa(ram_end.max(0x1_0000_0000)),
        }
    }
}

/// Deterministic kernel-page signature the boot check verifies.
pub(crate) fn kernel_signature(page_index: u64) -> [u8; 16] {
    let mut sig = [0u8; 16];
    for (i, b) in sig.iter_mut().enumerate() {
        let v = (page_index.wrapping_mul(0x9e37_79b9) ^ (i as u64).wrapping_mul(0x85eb_ca6b))
            .wrapping_add(0x27d4_eb2f);
        *b = (v as u8) | 0x01; // never zero, so wipes are detectable
    }
    sig
}

/// Loads BIOS + kernel (hypervisor data writes, §4.3.2): one signature per
/// kernel page at the bottom of guest RAM, preceded by instant zeroing
/// when the decoupled mode is configured safely. The launch path's
/// `g-kernel-load` body, and step 3 of [`Microvm::recycle`].
fn load_kernel(
    host: &Host,
    aspace: &AddressSpace,
    ram_hva: Hva,
    pid: u64,
    zeroing: ZeroingMode,
) -> Result<()> {
    let page = host.params.page_size.bytes();
    let kernel_pages = host.params.kernel_bytes.div_ceil(page);
    match zeroing {
        ZeroingMode::Decoupled {
            instant_zero_list: true,
            ..
        } => {
            // Pages were allocated (dirty) by the DMA map; clear them in
            // one batch via the instant-zeroing list.
            let kernel_frames = aspace.frames_in(ram_hva, kernel_pages * page)?;
            host.fastiovd
                .instant_zero(pid, &kernel_frames)
                .map_err(VmmError::Mem)?;
        }
        _ => {
            // Ensure the kernel region is present in one batched populate
            // (no-op when a DMA map already populated it).
            aspace.populate_range(
                ram_hva,
                kernel_pages * page,
                fastiov_hostmem::Populate::AllocZero,
            )?;
        }
    }
    for p in 0..kernel_pages {
        aspace.write(Hva(ram_hva.raw() + p * page), &kernel_signature(p))?;
    }
    Ok(())
}

/// Boots the guest kernel ("other" time): CPU work plus executing kernel
/// pages through the EPT, which verifies their integrity. The launch
/// path's `g-boot` body, and the boot check of [`Microvm::recycle`].
fn boot_kernel(host: &Host, vm: &Vm) -> Result<()> {
    let page = host.params.page_size.bytes();
    host.cpu.run(host.params.guest_boot_cpu);
    for p in 0..host.params.kernel_bytes.div_ceil(page) {
        let mut sig = [0u8; 16];
        vm.read_gpa(Gpa(p * page), &mut sig)
            .map_err(VmmError::Kvm)?;
        if sig != kernel_signature(p) {
            return Err(VmmError::GuestCrash {
                detail: format!("kernel page {p} corrupted (lazy zeroing wiped hypervisor data)"),
            });
        }
    }
    Ok(())
}

/// A running microVM.
pub struct Microvm {
    host: Arc<Host>,
    cfg: MicrovmConfig,
    layout: GuestLayout,
    vm: Arc<Vm>,
    aspace: Arc<AddressSpace>,
    ram_hva: Hva,
    image_hva: Hva,
    container: Option<Arc<VfioContainer>>,
    /// Taken out before the join or the close that releases it.
    held: TrackedMutex<Held>,
    vf: Option<VfId>,
    virtiofs: Arc<VirtioFs>,
    virtio_net: Option<Arc<VirtioNet>>,
    net_readiness: Option<Arc<NetReadiness>>,
}

/// What teardown releases.
struct Held {
    vfio_fd: Option<VfioDeviceFd>,
    init_thread: Option<fastiov_simtime::JoinHandle<()>>,
}

impl Microvm {
    /// Launches a microVM: the full network startup procedure of Fig. 4
    /// from the hypervisor's perspective. Stage timings are recorded into
    /// `log` under the canonical names of [`crate::stages`].
    pub fn launch(
        host: &Arc<Host>,
        cfg: MicrovmConfig,
        net: NetworkAttachment,
        log: &mut StageLog,
    ) -> Result<Arc<Microvm>> {
        let pid = cfg.pid;
        let result = Self::launch_inner(host, cfg, net, log);
        if result.is_err() {
            // Unwind whatever passthrough state a partial launch left
            // behind, so the VF can be handed to another tenant: the
            // IOMMU-group attach (detach is a no-op unless this pid holds
            // it), the DMA-domain binding, the PF-side ownership mark,
            // and any pages registered with the scrubber.
            if let NetworkAttachment::Passthrough(vf) | NetworkAttachment::Vdpa(vf) = net {
                host.dma.detach_vf(vf);
                if let Ok(vf_ref) = host.pf.vf(vf) {
                    vf_ref.with_state(|s| {
                        if s.owner_vm == Some(pid) {
                            s.owner_vm = None;
                        }
                    });
                    if let Ok(group) = host.vfio.group(vf_ref.pci().bdf()) {
                        let _ = group.detach(pid);
                    }
                }
                host.fastiovd.unregister_vm(pid);
            }
        }
        result
    }

    fn launch_inner(
        host: &Arc<Host>,
        cfg: MicrovmConfig,
        net: NetworkAttachment,
        log: &mut StageLog,
    ) -> Result<Arc<Microvm>> {
        let params = &host.params;
        let page = params.page_size.bytes();
        let layout = GuestLayout::new(cfg.ram_bytes, params.kernel_bytes, page);

        // Hypervisor process: address space, KVM VM, memory regions.
        let aspace = AddressSpace::new(cfg.pid, Arc::clone(&host.mem));
        let hook = cfg
            .zeroing
            .is_decoupled()
            .then(|| Arc::clone(&host.fastiovd) as Arc<dyn EptFaultHook>);
        let vm = Vm::new(
            host.clock.clone(),
            Arc::clone(&aspace),
            params.ept_fault,
            hook,
        );
        let ram_hva = aspace.mmap(cfg.ram_bytes)?;
        let image_hva = aspace.mmap(cfg.image_bytes)?;
        vm.set_memslot(Memslot {
            gpa: Gpa(0),
            len: cfg.ram_bytes,
            hva: ram_hva,
        })
        .map_err(VmmError::Kvm)?;
        vm.set_memslot(Memslot {
            gpa: layout.image_gpa,
            len: cfg.image_bytes,
            hva: image_hva,
        })
        .map_err(VmmError::Kvm)?;

        // Passthrough setup (t_attach in Fig. 4).
        let mut container = None;
        let mut vfio_fd = None;
        let mut vf_id = None;
        if let NetworkAttachment::Passthrough(vf) | NetworkAttachment::Vdpa(vf) = net {
            let domain = host.iommu.create_domain(params.page_size);
            let c = VfioContainer::new(domain, Arc::clone(&aspace), Arc::clone(&host.faults));

            // Stage 1: DMA-map guest RAM.
            log.stage(stages::DMA_RAM, || -> Result<()> {
                match cfg.zeroing {
                    ZeroingMode::Eager => {
                        c.dma_map(ram_hva, cfg.ram_bytes, Iova(0), DmaZeroMode::Eager)?
                    }
                    ZeroingMode::Decoupled { .. } => {
                        let fd = Arc::clone(&host.fastiovd);
                        let register = move |pid: u64, ranges: &[FrameRange]| {
                            fd.register_pages(pid, pid, ranges)
                        };
                        c.dma_map(
                            ram_hva,
                            cfg.ram_bytes,
                            Iova(0),
                            DmaZeroMode::Deferred(&register),
                        )?
                    }
                }
                Ok(())
            })?;

            // Stage 2: virtioFS setup.
            log.stage(stages::VIRTIOFS, || host.virtiofs_setup());

            // Stage 3: DMA-map the image region — or skip it (FastIOV S).
            // Image pages are file-backed, so the mapping is always eager;
            // decoupled zeroing never applies here.
            if !cfg.skip_image_mapping {
                log.stage(stages::DMA_IMAGE, || {
                    c.dma_map(
                        image_hva,
                        cfg.image_bytes,
                        layout.image_gpa.as_identity_iova(),
                        DmaZeroMode::Eager,
                    )
                })?;
            }

            // Stage 4: attach the device's IOMMU group to this guest's
            // container, open the VF from its VFIO devset, and emulate
            // the PCIe device — the coarse-lock bottleneck.
            let fd = log.stage(stages::VFIO_DEV, || -> Result<VfioDeviceFd> {
                let bdf = host.pf.vf(vf)?.pci().bdf();
                host.vfio.group(bdf)?.attach(cfg.pid)?;
                let fd = host.vfio.open(bdf)?;
                host.clock.sleep(params.pcie_emulate);
                Ok(fd)
            })?;
            host.dma.attach_vf(vf, Arc::clone(c.domain()));
            host.pf.vf(vf)?.with_state(|s| s.owner_vm = Some(cfg.pid));
            container = Some(c);
            vfio_fd = Some(fd);
            vf_id = Some(vf);
        } else {
            // No passthrough: only the shared file system.
            log.stage(stages::VIRTIOFS, || host.virtiofs_setup());
        }

        // virtioFS device over its ring in guest RAM.
        let proactive = matches!(
            cfg.zeroing,
            ZeroingMode::Decoupled {
                proactive_virtio_faults: true,
                ..
            }
        );
        let virtiofs = Arc::new(VirtioFs::new(
            Arc::clone(&vm),
            layout.virtiofs_ring_gpa,
            Hva(ram_hva.raw() + layout.virtiofs_ring_gpa.raw()),
            Arc::clone(&host.virtiofs_bw),
            proactive,
        ));

        // Software CNI or vDPA: a virtio-net frontend instead of the
        // vendor VF driver. Under vDPA the backing bandwidth is the VF's
        // line rate (hardware data plane); under a software CNI it is the
        // emulated data path.
        let virtio_net = match net {
            NetworkAttachment::SoftwareVirtio => Some(Arc::new(VirtioNet::new(
                Arc::clone(&vm),
                layout.net_ring_gpa,
                Hva(ram_hva.raw() + layout.net_ring_gpa.raw()),
                Arc::clone(&host.sw_net_bw),
                proactive,
            ))),
            NetworkAttachment::Vdpa(_) => Some(Arc::new(VirtioNet::new(
                Arc::clone(&vm),
                layout.net_ring_gpa,
                Hva(ram_hva.raw() + layout.net_ring_gpa.raw()),
                Arc::clone(host.dma.line()),
                proactive,
            ))),
            _ => None,
        };

        log.stage("g-kernel-load", || {
            load_kernel(host, &aspace, ram_hva, cfg.pid, cfg.zeroing)
        })?;
        log.stage("g-boot", || boot_kernel(host, &vm))?;

        // Stage 5: guest VF driver initialization — synchronous (vanilla)
        // or overlapped with application launch (FastIOV A). Under vDPA
        // the guest probes the standard virtio driver instead: feature
        // negotiation against the mediated device, no PF admin commands.
        let mut net_readiness = None;
        let mut init_thread = None;
        if let NetworkAttachment::Vdpa(_) = net {
            log.stage(stages::VF_DRIVER, || {
                host.cpu.run(params.guest_pci_enum);
                host.clock.sleep(params.vdpa_virtio_probe);
            });
        } else if let Some(vf) = vf_id {
            let driver = GuestVfDriver::new(
                host.clock.clone(),
                Arc::clone(&vm),
                Arc::clone(&host.pf),
                Arc::clone(&host.dma),
                vf,
                layout.rx_gpa,
                cfg.pid,
            );
            let readiness = driver.readiness();
            if cfg.async_vf_init {
                let host2 = Arc::clone(host);
                let pid = cfg.pid;
                let name = format!("vf-init-{pid}");
                init_thread = Some(fastiov_simtime::spawn(&host.clock, name, move || {
                    // The init thread is off the launch thread's span
                    // stack: re-establish VM attribution and give the
                    // overlapped work its own root span on its own track.
                    let _vm_scope = host2.tracer.vm_scope(pid);
                    let _span = host2.tracer.span("vf-init-async");
                    driver.initialize(&host2.cpu, &host2.params, &host2.faults);
                }));
            } else {
                log.stage(stages::VF_DRIVER, || {
                    driver.initialize(&host.cpu, &host.params, &host.faults)
                });
                readiness.wait()?;
            }
            net_readiness = Some(readiness);
        }

        Ok(Arc::new(Microvm {
            host: Arc::clone(host),
            cfg,
            layout,
            vm,
            aspace,
            ram_hva,
            image_hva,
            container,
            held: TrackedMutex::new(
                LockClass::MicrovmState,
                Held {
                    vfio_fd,
                    init_thread,
                },
            ),
            vf: vf_id,
            virtiofs,
            virtio_net,
            net_readiness,
        }))
    }

    /// Joins the asynchronous VF initializer if it still runs: it writes
    /// guest memory.
    fn quiesce(&self) {
        let init = self.held.lock().init_thread.take();
        if let Some(t) = init {
            let _ = t.join();
        }
    }

    /// The host this microVM runs on.
    pub fn host(&self) -> &Arc<Host> {
        &self.host
    }

    /// The microVM configuration.
    pub fn config(&self) -> &MicrovmConfig {
        &self.cfg
    }

    /// Guest-physical layout.
    pub fn layout(&self) -> GuestLayout {
        self.layout
    }

    /// The KVM VM (guest memory access).
    pub fn vm(&self) -> &Arc<Vm> {
        &self.vm
    }

    /// The shared file system device.
    pub fn virtiofs(&self) -> &Arc<VirtioFs> {
        &self.virtiofs
    }

    /// The emulated NIC, when attached via a software CNI.
    pub fn virtio_net(&self) -> Option<&Arc<VirtioNet>> {
        self.virtio_net.as_ref()
    }

    /// The attached VF, if passthrough.
    pub fn vf(&self) -> Option<VfId> {
        self.vf
    }

    /// Blocks until the guest network interface is usable. With
    /// asynchronous initialization this is where an early network user
    /// would wait; with synchronous initialization it returns immediately.
    pub fn wait_net_ready(&self) -> Result<()> {
        match &self.net_readiness {
            Some(r) => r.wait(),
            None => {
                if self.virtio_net.is_some() {
                    Ok(())
                } else {
                    Err(VmmError::NoNetwork)
                }
            }
        }
    }

    /// Resets this microVM for reuse by a *new tenant* without tearing
    /// down its DMA mappings, VFIO state, or VF attachment — the warm-pool
    /// recycle path.
    ///
    /// The security obligation is the same one §4.3.2 settles for cold
    /// boots, applied to residue of the *previous pod* instead of a
    /// previous host process: no byte the old tenant wrote (or inherited)
    /// may ever be guest-readable afterwards. The mechanism mirrors the
    /// launch path exactly:
    ///
    /// 1. every EPT entry over guest RAM is dropped, so each page's next
    ///    access takes a fresh EPT violation and re-runs the `fastiovd`
    ///    hook;
    /// 2. every RAM frame is re-registered with `fastiovd` for lazy
    ///    zeroing (frames the old tenant dirtied are zeroed on the new
    ///    tenant's first touch; frames already clean are no-ops);
    /// 3. the kernel region is instant-zeroed, the kernel is reloaded, and
    ///    the boot-integrity check re-runs — hypervisor-written pages must
    ///    never be wiped by a later lazy zero (§4.3.2 exception 1);
    /// 4. the virtio rings and the VF RX buffer area are proactively
    ///    faulted (and thereby zeroed *now*), because the host side writes
    ///    them without going through the EPT (§4.3.2 exception 2) — this
    ///    also resets both rings to the empty state;
    /// 5. populated image-region frames are zeroed eagerly (they are
    ///    file-backed, so they are never on the lazy list).
    ///
    /// Runs off the startup critical path: the pool's replenisher thread
    /// pays these costs, not the claiming pod.
    ///
    /// Injected faults at `POOL_RECYCLE` and at the re-registration's
    /// `SCRUB_REGISTER` are keyed on `fault_key`: the pool passes the tenant pod being torn down, or the
    /// VM's own pid when it never hosted one, so a recycle fault follows
    /// the tenant set a run is given rather than which pool VM a claim
    /// happened to pick.
    pub fn recycle(&self, log: &mut StageLog, fault_key: u64) -> Result<()> {
        self.quiesce();
        let host = &self.host;
        host.faults
            .check(fastiov_faults::sites::POOL_RECYCLE, fault_key)
            .map_err(VmmError::Injected)?;
        let page = host.params.page_size.bytes();
        log.stage(stages::RECYCLE, || -> Result<()> {
            // (1) Drop stale EPT entries over RAM and the image window.
            self.vm.clear_ept_range(Gpa(0), self.cfg.ram_bytes);
            self.vm
                .clear_ept_range(self.layout.image_gpa, self.cfg.image_bytes);

            // (2) Hand every RAM frame (back) to the lazy-zeroing daemon —
            // or, if it refuses (injected scrub failure) or outside
            // decoupled mode, zero them all eagerly. Either way no stale
            // byte survives.
            let ram_frames = self.aspace.frames_in(self.ram_hva, self.cfg.ram_bytes)?;
            if !self.cfg.zeroing.is_decoupled()
                || !host
                    .fastiovd
                    .register_pages(self.cfg.pid, fault_key, &ram_frames)
            {
                host.mem.zero_ranges(&ram_frames).map_err(VmmError::Mem)?;
            }

            // (5) Image frames are populated only if the old tenant
            // touched them; zero those in place.
            let image_pages = self.cfg.image_bytes.div_ceil(page);
            for p in 0..image_pages {
                let hva = Hva(self.image_hva.raw() + p * page);
                if let Ok(hpa) = self.aspace.translate(hva) {
                    let frame = host.mem.frame_of(hpa).map_err(VmmError::Mem)?;
                    host.mem.zero_frame(frame).map_err(VmmError::Mem)?;
                }
            }

            // (3) Reload the kernel and re-verify boot integrity with the
            // launch path's own steps.
            load_kernel(
                host,
                &self.aspace,
                self.ram_hva,
                self.cfg.pid,
                self.cfg.zeroing,
            )?;
            boot_kernel(host, &self.vm)?;

            // (4) Proactively fault the host-written shared regions so
            // their zeroing happens here, not under host-side DMA.
            self.vm
                .proactive_fault(self.layout.virtiofs_ring_gpa, page)
                .map_err(VmmError::Kvm)?;
            if self.virtio_net.is_some() {
                self.vm
                    .proactive_fault(self.layout.net_ring_gpa, page)
                    .map_err(VmmError::Kvm)?;
            }
            if self.vf.is_some() {
                let rx_bytes = (host.params.rx_ring_buffers * host.params.rx_buffer_bytes) as u64;
                self.vm
                    .proactive_fault(self.layout.rx_gpa, rx_bytes.max(1))
                    .map_err(VmmError::Kvm)?;
            }
            Ok(())
        })
    }

    /// Reconfigures the VF identity for a new pod claiming this microVM
    /// out of the warm pool: MAC reassignment through the PF admin queue
    /// plus the agent's in-guest address configuration. The (much larger)
    /// driver bring-up cost was paid at provision time and is not repeated.
    pub fn reconfigure_identity(&self, index: u32) -> Result<()> {
        if let Some(vf) = self.vf {
            let vf_ref = self.host.pf.vf(vf)?;
            self.host.pf.admin().submit(
                &vf_ref,
                fastiov_nic::AdminCmd::SetMac(fastiov_nic::MacAddr::for_vf(vf.0)),
            );
            self.host.pf.admin().submit(
                &vf_ref,
                fastiov_nic::AdminCmd::SetVlan(100 + (index % 4000) as u16),
            );
        }
        self.host.clock.sleep(self.host.params.agent_assign);
        Ok(())
    }

    /// Tears the microVM down: joins the async initializer, detaches and
    /// resets the VF, releases DMA state, and frees guest memory.
    pub fn shutdown(&self) -> Result<()> {
        self.quiesce();
        if let Some(vf) = self.vf {
            self.host.dma.detach_vf(vf);
            let vf_ref = self.host.pf.vf(vf)?;
            self.host
                .pf
                .admin()
                .submit(&vf_ref, fastiov_nic::AdminCmd::ResetVf);
            vf_ref.with_state(|s| s.owner_vm = None);
        }
        if let Some(c) = &self.container {
            c.dma_unmap_all()?;
        }
        let fd = self.held.lock().vfio_fd.take();
        drop(fd); // RAII close
        if let Some(vf) = self.vf {
            let bdf = self.host.pf.vf(vf)?.pci().bdf();
            if let Ok(group) = self.host.vfio.group(bdf) {
                let _ = group.detach(self.cfg.pid);
            }
        }
        self.host.fastiovd.unregister_vm(self.cfg.pid);
        self.aspace.unmap(self.ram_hva)?;
        self.aspace.unmap(self.image_hva)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::HostParams;
    use fastiov_vfio::LockPolicy;

    fn host() -> Arc<Host> {
        let h = Host::new(HostParams::for_tests(), LockPolicy::Hierarchical).unwrap();
        h.prebind_all_vfs().unwrap();
        h
    }

    fn mb(n: u64) -> u64 {
        n * 1024 * 1024
    }

    fn launch(
        host: &Arc<Host>,
        cfg: MicrovmConfig,
        net: NetworkAttachment,
    ) -> Result<Arc<Microvm>> {
        let mut log = StageLog::begin(&host.tracer);
        Microvm::launch(host, cfg, net, &mut log)
    }

    #[test]
    fn vanilla_passthrough_launch_and_shutdown() {
        let host = host();
        let cfg = MicrovmConfig::vanilla(1, mb(64), mb(32));
        let vm = launch(&host, cfg, NetworkAttachment::Passthrough(VfId(0))).unwrap();
        vm.wait_net_ready().unwrap();
        assert_eq!(vm.vf(), Some(VfId(0)));
        assert_eq!(host.vfio.stats().opens, 1);
        let free_before = host.mem.stats().free_frames;
        vm.shutdown().unwrap();
        assert!(host.mem.stats().free_frames > free_before);
    }

    #[test]
    fn fastiov_launch_defers_zeroing() {
        let host = host();
        let cfg = MicrovmConfig::fastiov(2, mb(64), mb(32));
        let vm = launch(&host, cfg, NetworkAttachment::Passthrough(VfId(1))).unwrap();
        // Most RAM pages are tracked for lazy zeroing (kernel pages were
        // instant-zeroed; ring/rx pages were faulted during driver init).
        let stats = host.fastiovd.stats();
        assert!(stats.registered > 0);
        assert!(stats.instantly_zeroed > 0);
        vm.wait_net_ready().unwrap();
        vm.shutdown().unwrap();
    }

    #[test]
    fn fastiov_without_instant_list_crashes_guest() {
        // The §4.3.2 failure mode: hypervisor-written kernel pages get
        // wiped by fault-time zeroing.
        let host = host();
        let cfg = MicrovmConfig {
            zeroing: ZeroingMode::Decoupled {
                instant_zero_list: false,
                proactive_virtio_faults: true,
            },
            ..MicrovmConfig::fastiov(3, mb(64), mb(32))
        };
        match launch(&host, cfg, NetworkAttachment::Passthrough(VfId(2))) {
            Err(err) => assert!(matches!(err, VmmError::GuestCrash { .. }), "{err}"),
            Ok(_) => panic!("launch unexpectedly survived without the instant-zeroing list"),
        }
    }

    #[test]
    fn no_network_launch_has_no_vf_stages() {
        let host = host();
        let mut log = StageLog::begin(&host.tracer);
        let cfg = MicrovmConfig::vanilla(4, mb(64), mb(32));
        let vm = Microvm::launch(&host, cfg, NetworkAttachment::None, &mut log).unwrap();
        let vf_stages = [
            stages::DMA_RAM,
            stages::DMA_IMAGE,
            stages::VFIO_DEV,
            stages::VF_DRIVER,
        ];
        assert!(log
            .records()
            .iter()
            .all(|r| !vf_stages.contains(&r.name.as_str())));
        assert!(matches!(vm.wait_net_ready(), Err(VmmError::NoNetwork)));
        assert_eq!(host.vfio.stats().opens, 0);
        vm.shutdown().unwrap();
    }

    #[test]
    fn virtiofs_reads_work_under_both_zeroing_modes() {
        let host = host();
        for (pid, cfg) in [
            (5, MicrovmConfig::vanilla(5, mb(64), mb(32))),
            (6, MicrovmConfig::fastiov(6, mb(64), mb(32))),
        ] {
            let vf = VfId((pid % 16) as u16);
            let vm = launch(&host, cfg, NetworkAttachment::Passthrough(vf)).unwrap();
            let payload: Vec<u8> = (0..2048u32).map(|i| (i % 250) as u8 + 1).collect();
            vm.virtiofs().add_file("app.img", payload.clone());
            let got = vm
                .virtiofs()
                .guest_read_to_vec("app.img", vm.layout().app_gpa, 4096)
                .unwrap();
            assert_eq!(got, payload, "pid {pid}");
            vm.shutdown().unwrap();
        }
    }

    #[test]
    fn async_init_returns_before_net_ready_then_completes() {
        let host = host();
        let cfg = MicrovmConfig::fastiov(7, mb(64), mb(32));
        let mut log = StageLog::begin(&host.tracer);
        let vm = Microvm::launch(
            &host,
            cfg,
            NetworkAttachment::Passthrough(VfId(3)),
            &mut log,
        )
        .unwrap();
        // No synchronous 5-vf-driver stage was recorded.
        assert!(log.records().iter().all(|r| r.name != stages::VF_DRIVER));
        vm.wait_net_ready().unwrap();
        vm.shutdown().unwrap();
    }

    #[test]
    fn software_virtio_attachment_provides_packets() {
        let host = host();
        let cfg = MicrovmConfig::vanilla(8, mb(64), mb(32));
        let vm = launch(&host, cfg, NetworkAttachment::SoftwareVirtio).unwrap();
        let net = vm.virtio_net().unwrap();
        net.guest_post_rx(vm.layout().app_gpa, 2048).unwrap();
        net.host_deliver(&[9u8; 64]).unwrap();
        let mut out = [0u8; 64];
        net.guest_recv(&mut out).unwrap();
        assert_eq!(out, [9u8; 64]);
        vm.wait_net_ready().unwrap();
        vm.shutdown().unwrap();
    }

    #[test]
    fn recycle_wipes_previous_tenant_data_and_keeps_vm_bootable() {
        let host = host();
        let cfg = MicrovmConfig::fastiov(30, mb(64), mb(32));
        let vm = launch(&host, cfg, NetworkAttachment::Passthrough(VfId(5))).unwrap();
        vm.wait_net_ready().unwrap();
        // Old tenant writes a secret into its scratch area.
        let secret = [0xabu8; 64];
        vm.vm().write_gpa(vm.layout().app_gpa, &secret).unwrap();
        let mut log = StageLog::begin(&host.tracer);
        vm.recycle(&mut log, 30).unwrap();
        assert!(log.records().iter().any(|r| r.name == stages::RECYCLE));
        // New tenant reads the same GPA: zeros, never the secret.
        let mut buf = [0xffu8; 64];
        vm.vm().read_gpa(vm.layout().app_gpa, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);
        // Kernel survived the recycle (integrity re-verified inside, and
        // still intact when read again here).
        let mut sig = [0u8; 16];
        vm.vm().read_gpa(Gpa(0), &mut sig).unwrap();
        assert_eq!(sig, kernel_signature(0));
        // The virtioFS ring was reset to empty and still works.
        let payload: Vec<u8> = (0..512u32).map(|i| (i % 250) as u8 + 1).collect();
        vm.virtiofs().add_file("next.img", payload.clone());
        let got = vm
            .virtiofs()
            .guest_read_to_vec("next.img", vm.layout().app_gpa, 4096)
            .unwrap();
        assert_eq!(got, payload);
        vm.shutdown().unwrap();
    }

    #[test]
    fn recycle_reregisters_frames_for_lazy_zeroing() {
        let host = host();
        let cfg = MicrovmConfig::fastiov(31, mb(64), mb(32));
        let vm = launch(&host, cfg, NetworkAttachment::Passthrough(VfId(6))).unwrap();
        vm.wait_net_ready().unwrap();
        // Touch (and thus lazily zero) a page so it leaves the tracking
        // table, then recycle: it must be tracked again.
        let gpa = vm.layout().app_gpa;
        let mut b = [0u8; 1];
        vm.vm().read_gpa(gpa, &mut b).unwrap();
        let hpa = vm.vm().ept_resolve(gpa).unwrap();
        assert!(!host.fastiovd.is_tracked(31, hpa));
        let mut log = StageLog::begin(&host.tracer);
        vm.recycle(&mut log, 31).unwrap();
        assert!(host.fastiovd.is_tracked(31, hpa));
        assert!(
            !vm.vm().ept_present(gpa),
            "stale EPT entry survived recycle"
        );
        vm.shutdown().unwrap();
    }

    #[test]
    fn packets_flow_through_attached_vf() {
        let host = host();
        let cfg = MicrovmConfig::fastiov(9, mb(64), mb(32));
        let vm = launch(&host, cfg, NetworkAttachment::Passthrough(VfId(4))).unwrap();
        vm.wait_net_ready().unwrap();
        // The driver posted RX buffers during init; deliver into one.
        let pkt: Vec<u8> = (1..=64u8).collect();
        host.dma.deliver(VfId(4), &pkt).unwrap();
        let c = host.dma.wait_rx(VfId(4)).unwrap();
        assert_eq!(c.written, 64);
        // Read it back through guest memory.
        let mut got = vec![0u8; 64];
        vm.vm()
            .read_gpa(Gpa(c.buffer.iova.raw()), &mut got)
            .unwrap();
        assert_eq!(got, pkt);
        vm.shutdown().unwrap();
    }
}
