//! The warm pool proper: slots, watermarks, the replenisher thread.

use fastiov_cni::{CniError, VfProvider};
use fastiov_faults::sites;
use fastiov_microvm::{Host, Microvm, MicrovmConfig, NetworkAttachment, VmmError};
use fastiov_nic::{AdminCmd, MacAddr, NetdevName, NicError, VfId};
use fastiov_simtime::{
    JoinHandle, LockClass, Receiver, Sender, StageLog, TrackedCondvar, TrackedMutex,
};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Pool microVMs use hypervisor PIDs from this base up, well clear of the
/// engine's per-pod PIDs (1000 + index).
pub const POOL_PID_BASE: u64 = 1_000_000;

/// Errors from the pool layer.
#[derive(Debug)]
pub enum PoolError {
    /// No free VF to pre-attach.
    Cni(CniError),
    /// A warm launch or recycle failed in the hypervisor.
    Vmm(VmmError),
    /// NIC-side provisioning failed.
    Nic(NicError),
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::Cni(e) => write!(f, "cni: {e}"),
            PoolError::Vmm(e) => write!(f, "vmm: {e}"),
            PoolError::Nic(e) => write!(f, "nic: {e}"),
        }
    }
}

impl std::error::Error for PoolError {}

impl From<CniError> for PoolError {
    fn from(e: CniError) -> Self {
        PoolError::Cni(e)
    }
}

impl From<VmmError> for PoolError {
    fn from(e: VmmError) -> Self {
        PoolError::Vmm(e)
    }
}

impl From<NicError> for PoolError {
    fn from(e: NicError) -> Self {
        PoolError::Nic(e)
    }
}

/// Sizing and policy knobs of the pool.
#[derive(Debug, Clone, Copy)]
pub struct PoolParams {
    /// Target (and maximum) number of warm microVMs.
    pub capacity: usize,
    /// When a claim leaves fewer than this many slots, the replenisher is
    /// nudged to top the pool back up.
    pub low_watermark: usize,
    /// Guest RAM per warm microVM.
    pub ram_bytes: u64,
    /// Image region size per warm microVM.
    pub image_bytes: u64,
}

impl PoolParams {
    /// Capacity `n` with the low watermark at half, using the given VM
    /// geometry.
    pub fn new(capacity: usize, ram_bytes: u64, image_bytes: u64) -> Self {
        PoolParams {
            capacity,
            low_watermark: capacity.div_ceil(2),
            ram_bytes,
            image_bytes,
        }
    }
}

/// A pre-launched microVM, ready to be claimed for a pod.
pub struct WarmVm {
    /// The running (booted, VF-attached) microVM.
    pub vm: Arc<Microvm>,
    /// The VF passed through to it.
    pub vf: VfId,
    /// The dummy netdev carrying the VF's identity; the engine moves it
    /// into the pod's network namespace at claim time.
    pub netdev: NetdevName,
    /// The pool-range hypervisor PID the microVM runs under.
    pub pool_pid: u64,
    /// The pod most recently served by this microVM, set by the claimer.
    /// Keys fault injection on recycle: pod identity is stable across
    /// runs, pod-to-VM assignment order is not.
    pub tenant: Option<u64>,
}

/// Counter snapshot of the pool.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Warm microVMs currently parked.
    pub size: usize,
    /// Configured capacity.
    pub capacity: usize,
    /// Claims served from the pool.
    pub hits: u64,
    /// Claims that found the pool empty (callers fall back to cold boot).
    pub misses: u64,
    /// MicroVMs launched by the replenisher (including the prefill).
    pub provisioned: u64,
    /// MicroVMs returned, wiped, and re-parked.
    pub recycled: u64,
    /// Provision attempts that failed (e.g. VFs exhausted).
    pub provision_failures: u64,
    /// Recycles that failed; the microVM is shut down instead of reused.
    pub recycle_failures: u64,
    /// Claimed microVMs the engine judged unhealthy and handed back for
    /// immediate retirement (never re-parked).
    pub evicted: u64,
    /// Replenisher commands sent but not yet processed.
    pub backlog: usize,
}

impl PoolStats {
    /// Fraction of claims served warm; 1.0 when nothing was claimed yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

enum Cmd {
    /// Launch one microVM if below capacity.
    Replenish,
    /// Wipe a returned microVM and re-park it.
    Recycle(WarmVm),
}

struct Shared {
    host: Arc<Host>,
    vfs: Arc<dyn VfProvider>,
    params: PoolParams,
    slots: TrackedMutex<Vec<WarmVm>>,
    next_pid: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    provisioned: AtomicU64,
    recycled: AtomicU64,
    provision_failures: AtomicU64,
    recycle_failures: AtomicU64,
    evicted: AtomicU64,
    /// Commands sent to the replenisher and not yet finished.
    backlog: TrackedMutex<usize>,
    /// Signalled when `backlog` drops to zero.
    idle: TrackedCondvar,
    /// MicroVMs alive under pool management: parked plus claimed-out.
    /// Replenishing caps on this, not on the parked count, so the pool
    /// never exceeds `capacity` total VMs even while all are claimed.
    live: AtomicUsize,
}

impl Shared {
    /// Launches one warm microVM and parks it. All simulated time (VFIO
    /// open, DMA map, boot) is charged to the calling thread — the
    /// replenisher — not to any pod.
    fn provision_one(&self) -> Result<(), PoolError> {
        if self.live.fetch_add(1, Ordering::AcqRel) >= self.params.capacity {
            self.live.fetch_sub(1, Ordering::AcqRel);
            return Ok(());
        }
        let pid = POOL_PID_BASE + self.next_pid.fetch_add(1, Ordering::Relaxed);
        let launched = (|| -> Result<WarmVm, PoolError> {
            let vf = self.vfs.allocate()?;
            let warm = self.launch_warm(pid, vf);
            if warm.is_err() {
                self.vfs.release(vf);
            }
            warm
        })();
        match launched {
            Ok(warm) => {
                self.slots.lock().push(warm);
                self.provisioned.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                self.live.fetch_sub(1, Ordering::AcqRel);
                self.provision_failures.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    fn launch_warm(&self, pid: u64, vf: VfId) -> Result<WarmVm, PoolError> {
        {
            let vf_ref = self.host.pf.vf(vf)?;
            // Park with the VF's canonical MAC; the claimer reassigns
            // per-pod identity.
            self.host
                .pf
                .admin()
                .submit(&vf_ref, AdminCmd::SetMac(MacAddr::for_vf(vf.0)));
            let netdev = self.host.pf.create_dummy_netdev(vf)?;
            let cfg = MicrovmConfig::fastiov(pid, self.params.ram_bytes, self.params.image_bytes);
            // Traced without a VM scope: provisioning is background (vm 0)
            // work in the timeline, grouped under one root span.
            let _span = self.host.tracer.span("pool.provision");
            let mut log = StageLog::begin(&self.host.tracer);
            let vm = Microvm::launch(
                &self.host,
                cfg,
                NetworkAttachment::Passthrough(vf),
                &mut log,
            )?;
            // Only fully-initialized VMs enter the pool: wait out the
            // asynchronous VF driver init so a claimed VM is instantly
            // ready for traffic. A VM whose driver never came up must be
            // torn down before its VF is released, or the next tenant of
            // that VF inherits a group still attached to this dead pid.
            if let Err(e) = vm.wait_net_ready() {
                let _ = vm.shutdown();
                return Err(e.into());
            }
            Ok(WarmVm {
                vm,
                vf,
                netdev,
                pool_pid: pid,
                tenant: None,
            })
        }
    }

    fn backlog_done(&self) {
        let mut backlog = self.backlog.lock();
        *backlog -= 1;
        if *backlog == 0 {
            self.idle.notify_all();
        }
    }

    fn retire(&self, warm: WarmVm) {
        self.live.fetch_sub(1, Ordering::AcqRel);
        let _ = warm.vm.shutdown();
        self.vfs.release(warm.vf);
    }
}

fn replenisher(shared: Arc<Shared>, rx: Receiver<Cmd>) {
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Replenish => {
                let _ = shared.provision_one();
            }
            Cmd::Recycle(warm) => {
                let _span = shared.host.tracer.span("pool.recycle");
                let mut log = StageLog::begin(&shared.host.tracer);
                let key = warm.tenant.unwrap_or(warm.pool_pid);
                match warm.vm.recycle_keyed(&mut log, key) {
                    Ok(()) => {
                        shared.slots.lock().push(warm);
                        shared.recycled.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => {
                        // A VM that cannot be proven clean never re-enters
                        // the pool. Retiring it (and replenishing cold) is
                        // the degradation path for an injected wipe fault.
                        if e.injected().is_some() {
                            shared.host.faults.note_fallback(sites::POOL_RECYCLE);
                        }
                        shared.recycle_failures.fetch_add(1, Ordering::Relaxed);
                        shared.retire(warm);
                    }
                }
            }
        }
        shared.backlog_done();
    }
}

/// The warm microVM pool. See the crate docs for the model.
pub struct WarmPool {
    shared: Arc<Shared>,
    tx: TrackedMutex<Option<Sender<Cmd>>>,
    thread: TrackedMutex<Option<JoinHandle<()>>>,
}

impl WarmPool {
    /// Creates the pool (empty) and starts its replenisher thread. Call
    /// [`WarmPool::prefill`] to fill it synchronously, or let the
    /// replenisher fill it as claims miss.
    pub fn new(host: Arc<Host>, vfs: Arc<dyn VfProvider>, params: PoolParams) -> Arc<Self> {
        let shared = Arc::new(Shared {
            host,
            vfs,
            params,
            slots: TrackedMutex::new(LockClass::PoolSlots, Vec::new()),
            next_pid: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            provisioned: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            provision_failures: AtomicU64::new(0),
            recycle_failures: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            backlog: TrackedMutex::new(LockClass::PoolWorker, 0),
            idle: TrackedCondvar::new(),
            live: AtomicUsize::new(0),
        });
        let (tx, rx) = fastiov_simtime::channel();
        let thread = {
            let (clock, shared) = (shared.host.clock.clone(), Arc::clone(&shared));
            fastiov_simtime::spawn(&clock, "pool-replenisher", move || replenisher(shared, rx))
        };
        Arc::new(WarmPool {
            shared,
            tx: TrackedMutex::new(LockClass::PoolWorker, Some(tx)),
            thread: TrackedMutex::new(LockClass::PoolWorker, Some(thread)),
        })
    }

    /// Pool parameters.
    pub fn params(&self) -> PoolParams {
        self.shared.params
    }

    /// Synchronously fills the pool to capacity, provisioning in parallel
    /// (the boot-time warm-up a production deployment would run before
    /// admitting pods). Failed provisions are retried in further rounds —
    /// each with a fresh pool pid — until the pool is full or a whole
    /// round makes no progress (VFs exhausted, or every retry faulted
    /// again). Returns the number of parked microVMs.
    pub fn prefill(&self) -> usize {
        loop {
            let before = self.shared.slots.lock().len();
            let need = self.shared.params.capacity.saturating_sub(before);
            if need == 0 {
                break;
            }
            let provisions: Vec<_> = (0..need)
                .map(|i| {
                    let shared = Arc::clone(&self.shared);
                    let clock = &self.shared.host.clock;
                    fastiov_simtime::spawn(clock, format!("pool-prefill-{i}"), move || {
                        let _ = shared.provision_one();
                    })
                })
                .collect();
            for p in provisions {
                let _ = p.join();
            }
            if self.shared.slots.lock().len() == before {
                break;
            }
        }
        self.shared.slots.lock().len()
    }

    /// Admission control: takes a warm microVM if one is parked. On a
    /// miss the caller falls back to the cold launch path; either way the
    /// replenisher is nudged when the pool is at or below the low
    /// watermark.
    pub fn claim(&self) -> Option<WarmVm> {
        let (slot, remaining) = {
            let mut slots = self.shared.slots.lock();
            let slot = slots.pop();
            (slot, slots.len())
        };
        match slot {
            Some(warm) => {
                self.shared.hits.fetch_add(1, Ordering::Relaxed);
                if remaining < self.shared.params.low_watermark {
                    self.send(Cmd::Replenish);
                }
                Some(warm)
            }
            None => {
                self.shared.misses.fetch_add(1, Ordering::Relaxed);
                self.send(Cmd::Replenish);
                None
            }
        }
    }

    /// Hands a torn-down pod's microVM back for recycling. The wipe (EPT
    /// flush, frame re-registration, kernel re-verify, ring reset) runs
    /// on the replenisher thread, off the teardown critical path.
    pub fn recycle(&self, warm: WarmVm) {
        self.send(Cmd::Recycle(warm));
    }

    /// Retires a claimed microVM immediately, without attempting a
    /// recycle: the engine's degradation path when a warm claim turns out
    /// unhealthy. The VM is shut down, its VF released, and a replenish is
    /// nudged so the pool recovers its capacity with a fresh VM.
    pub fn evict(&self, warm: WarmVm) {
        self.shared.evicted.fetch_add(1, Ordering::Relaxed);
        self.shared.retire(warm);
        self.send(Cmd::Replenish);
    }

    fn send(&self, cmd: Cmd) {
        *self.shared.backlog.lock() += 1;
        let undelivered = match self.tx.lock().as_ref() {
            Some(tx) => tx.send(cmd).err().map(|e| e.0),
            None => Some(cmd),
        };
        if let Some(cmd) = undelivered {
            self.shared.backlog_done();
            if let Cmd::Recycle(warm) = cmd {
                // Pool shutting down: don't leak the VM's frames or VF.
                self.shared.retire(warm);
            }
        }
    }

    /// Blocks until the replenisher has drained its queue. Test and
    /// benchmark hook: recycling is asynchronous, so stats are only
    /// stable once the backlog hits zero.
    pub fn wait_idle(&self) {
        let mut backlog = self.shared.backlog.lock();
        while *backlog > 0 {
            self.shared.idle.wait(&mut backlog);
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        // Read before the slot list is locked below, whose guard lives to
        // the end of the expression: no pool lock nests inside another.
        let backlog = *self.shared.backlog.lock();
        PoolStats {
            size: self.shared.slots.lock().len(),
            capacity: self.shared.params.capacity,
            hits: self.shared.hits.load(Ordering::Relaxed),
            misses: self.shared.misses.load(Ordering::Relaxed),
            provisioned: self.shared.provisioned.load(Ordering::Relaxed),
            recycled: self.shared.recycled.load(Ordering::Relaxed),
            provision_failures: self.shared.provision_failures.load(Ordering::Relaxed),
            recycle_failures: self.shared.recycle_failures.load(Ordering::Relaxed),
            evicted: self.shared.evicted.load(Ordering::Relaxed),
            backlog,
        }
    }

    /// Stops the replenisher and shuts every parked microVM down,
    /// releasing frames and VFs. Called automatically on drop.
    pub fn shutdown(&self) {
        drop(self.tx.lock().take());
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
        let parked: Vec<WarmVm> = self.shared.slots.lock().drain(..).collect();
        for warm in parked {
            self.shared.retire(warm);
        }
    }
}

impl Drop for WarmPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastiov_cni::VfAllocator;
    use fastiov_hostmem::addr::units::mib;
    use fastiov_microvm::HostParams;
    use fastiov_vfio::LockPolicy;

    fn setup(capacity: usize) -> (Arc<Host>, Arc<VfAllocator>, Arc<WarmPool>) {
        let host = Host::new(HostParams::for_tests(), LockPolicy::Hierarchical).unwrap();
        host.prebind_all_vfs().unwrap();
        let vfs = VfAllocator::new(host.pf.vf_count() as u16);
        let pool = WarmPool::new(
            Arc::clone(&host),
            Arc::clone(&vfs) as Arc<dyn VfProvider>,
            PoolParams::new(capacity, mib(64), mib(32)),
        );
        (host, vfs, pool)
    }

    #[test]
    fn prefill_parks_capacity_vms_with_vfs_attached() {
        let (_host, vfs, pool) = setup(3);
        assert_eq!(pool.prefill(), 3);
        let s = pool.stats();
        assert_eq!(s.size, 3);
        assert_eq!(s.provisioned, 3);
        assert_eq!(vfs.available(), 16 - 3);
    }

    #[test]
    fn claim_hits_until_empty_then_misses() {
        let (_host, _vfs, pool) = setup(2);
        pool.prefill();
        let a = pool.claim().expect("first claim warm");
        assert!(a.pool_pid >= POOL_PID_BASE);
        a.vm.wait_net_ready().unwrap();
        let b = pool.claim().expect("second claim warm");
        // Pool empty now; the third claim is a miss (cold-path fallback).
        assert!(pool.claim().is_none());
        let s = pool.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert!(s.hit_rate() > 0.6 && s.hit_rate() < 0.7);
        // The miss nudged the replenisher, but both capacity VMs are
        // claimed out: the pool never over-provisions past capacity.
        pool.wait_idle();
        assert_eq!(pool.stats().size, 0);
        // Returning the claimed VMs refills it.
        pool.recycle(a);
        pool.recycle(b);
        pool.wait_idle();
        assert_eq!(pool.stats().size, 2);
        assert_eq!(pool.stats().provisioned, 2);
    }

    #[test]
    fn recycle_reparks_and_counts() {
        let (_host, _vfs, pool) = setup(1);
        pool.prefill();
        let warm = pool.claim().unwrap();
        let pid = warm.pool_pid;
        pool.recycle(warm);
        pool.wait_idle();
        let s = pool.stats();
        assert_eq!(s.recycled, 1);
        assert_eq!(s.size, 1);
        // The same VM (same pool pid) is claimable again.
        let again = pool.claim().unwrap();
        assert_eq!(again.pool_pid, pid);
        pool.recycle(again);
        pool.wait_idle();
    }

    #[test]
    fn shutdown_releases_vfs_and_frames() {
        let (host, vfs, pool) = setup(2);
        let free_before = host.mem.stats().free_frames;
        pool.prefill();
        assert_eq!(vfs.available(), 14);
        pool.shutdown();
        assert_eq!(vfs.available(), 16);
        // Every pool-owned frame was returned.
        assert_eq!(host.mem.stats().free_frames, free_before);
    }

    #[test]
    fn provision_failure_on_vf_exhaustion_is_counted() {
        let host = Host::new(HostParams::for_tests(), LockPolicy::Hierarchical).unwrap();
        host.prebind_all_vfs().unwrap();
        // Only one VF available to a two-slot pool.
        let vfs = VfAllocator::new(1);
        let pool = WarmPool::new(
            Arc::clone(&host),
            vfs as Arc<dyn VfProvider>,
            PoolParams::new(2, mib(64), mib(32)),
        );
        assert_eq!(pool.prefill(), 1);
        let s = pool.stats();
        assert_eq!(s.provisioned, 1);
        // Round 1 fails one of the two provisions; the no-progress retry
        // round confirms the exhaustion before prefill gives up.
        assert_eq!(s.provision_failures, 2);
    }
}
