//! A lockdep-style runtime lock-discipline witness, plus lock_stat.
//!
//! PR 3 left the workspace with ~170 `Mutex`/`RwLock` sites whose ordering
//! invariants lived only in comments; two real ordering races slipped
//! through review. This module makes the discipline machine-checked, the
//! way Linux lockdep does: every instrumented lock belongs to a
//! [`LockClass`], each thread keeps a stack of currently-held
//! acquisitions, and every *exclusive* acquisition made while other locks
//! are held records a class-level **acquired-while-held edge**. Two rules
//! are enforced online:
//!
//! 1. **Cycle detection** — a new blocking edge `A → B` is rejected when
//!    `B` can already reach `A` through blocking edges: a potential
//!    deadlock, reported with the witness acquisition sites of both the
//!    forward edge and the first edge of the return path (à la lockdep's
//!    two-stack report).
//! 2. **Hierarchy violations** — classes may declare a (domain, level);
//!    acquiring a lower level while a deeper one is held in the same
//!    domain is a child-before-parent inversion (e.g. taking the devset
//!    parent rwlock while a per-device child mutex is held).
//!
//! Shared (read) acquisitions are recorded in the graph for reporting but
//! do not participate in cycle detection: two readers never block each
//! other, and flagging read-side cycles would condemn the legitimate
//! `child → members(read)` / `members(read) → child` pattern in the
//! devset reset path. This matches pre-2020 kernel lockdep's treatment of
//! recursive reads and is a documented limitation (a reader parked behind
//! a queued writer can still deadlock; the static pass plus the hierarchy
//! rules cover the instances of that shape we actually have).
//!
//! The witness is **disabled by default** and costs exactly one relaxed
//! atomic load per acquisition in that state. It is enabled in tests and
//! by `fastiovctl observe`, either explicitly ([`enable`]) or via the
//! `FASTIOV_LOCKDEP=1` environment variable (checked once, on first use).
//!
//! **Lock statistics** sit on the same classes, the way Linux lock_stat
//! sits on lockdep's: every acquisition through the tracked wrappers is
//! counted per class, always on.
//! Wait time is measured only when the try-lock fast path fails; hold
//! time runs from acquisition to release, minus time parked in
//! [`TrackedCondvar::wait`]. Both are **real** nanoseconds — a ranking of
//! where threads queue, not a modelled cost; on a virtual clock they
//! measure baton hand-offs, not simulated waiting. The counters live in one
//! static, cache-line-padded array indexed by class, so a lock carries no
//! memory for them ([`LockClass::stats`]).

use parking_lot::Mutex;
use std::cell::{RefCell, UnsafeCell};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::panic::Location;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use crate::exec::{current_slot, Slot, Wait, WaitOn};
use crate::rawlock::RawLock;
use crate::WallStopwatch;

/// The class of an instrumented lock. One class per *role*, not per
/// instance: all per-device child mutexes share [`LockClass::DevsetChild`],
/// all per-VM fastiovd tables share [`LockClass::FastiovdVmTable`], and so
/// on. The acquired-while-held graph and the lock statistics are kept per
/// class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
#[allow(missing_docs)] // Names mirror the lock they label; see DESIGN.md §7.5.
pub enum LockClass {
    /// Devset parent rwlock (or the coarse mutex standing in for it).
    DevsetParent,
    /// Per-device child mutex inside a devset.
    DevsetChild,
    /// Devset global (parent-mode) state mutex.
    DevsetState,
    /// DevsetManager registries (devsets/devices/groups maps).
    DevsetRegistry,
    /// Devset membership list (`DevSet::devices`).
    DevsetMembers,
    /// VFIO container DMA-mapping list.
    VfioContainer,
    /// VFIO group attachment slot.
    VfioGroup,
    /// fastiovd tier-1 table (PID → VM table).
    FastiovdTier1,
    /// fastiovd tier-2 per-VM page table.
    FastiovdVmTable,
    /// IOMMU domain registry.
    IommuRegistry,
    /// IOMMU domain I/O page table.
    IommuTable,
    /// IOMMU domain IOTLB.
    IommuTlb,
    /// Physical memory: the frame table and its free runs.
    PhysMemory,
    /// The spare frame table a dropped physical memory leaves behind.
    PhysSpareFrames,
    /// Host MMU region table.
    HostMmu,
    /// Warm-pool slot list.
    PoolSlots,
    /// Warm-pool worker channel/handle slots and replenisher backlog.
    PoolWorker,
    /// NIC PF admin mailbox (strictly serialized command channel).
    NicMailbox,
    /// PF driver registries (VF list, fault-plane slot).
    NicPf,
    /// NIC DMA engine state (rings, attachments, irq sink).
    NicDma,
    /// NIC TX queue / wire sink.
    NicTx,
    /// Per-VF configuration state.
    NicVf,
    /// KVM VM state (memslots, EPT, fault hook).
    KvmVm,
    /// PCI bus device map.
    PciBus,
    /// Per-PCI-device state (driver binding, SR-IOV cap).
    PciDevice,
    /// PCI config space registers.
    PciConfig,
    /// CNI registries (namespaces, device plugin, VF pool).
    CniRegistry,
    /// Per-network-namespace state.
    CniNns,
    /// MicroVM per-instance state (vfio fd, init thread).
    MicrovmState,
    /// Guest network readiness flag.
    GuestNet,
    /// virtio-fs / virtio-net shared state.
    Virtio,
    /// Fault-plane counters and installed-plane slots.
    FaultPlane,
    /// Tracer installation slots (`RwLock<Option<Tracer>>`).
    TracerSlot,
    /// Cgroup registry.
    CgroupRegistry,
    /// Application object storage.
    AppStorage,
    /// Memoized outputs of the serverless tasks' real computations.
    AppComputeMemo,
    /// Example code (`examples/`).
    Example,
    /// Ad-hoc locks in test fixtures.
    Test,
}

/// Number of lock classes (adjacency matrices are `NCLASS × NCLASS`).
const NCLASS: usize = LockClass::Test as usize + 1;

/// Lock-ordering domains for the hierarchy rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Domain {
    Devset,
    Fastiovd,
    Iommu,
}

impl LockClass {
    /// Every class, in declaration (index) order.
    pub const ALL: [LockClass; NCLASS] = [
        LockClass::DevsetParent,
        LockClass::DevsetChild,
        LockClass::DevsetState,
        LockClass::DevsetRegistry,
        LockClass::DevsetMembers,
        LockClass::VfioContainer,
        LockClass::VfioGroup,
        LockClass::FastiovdTier1,
        LockClass::FastiovdVmTable,
        LockClass::IommuRegistry,
        LockClass::IommuTable,
        LockClass::IommuTlb,
        LockClass::PhysMemory,
        LockClass::PhysSpareFrames,
        LockClass::HostMmu,
        LockClass::PoolSlots,
        LockClass::PoolWorker,
        LockClass::NicMailbox,
        LockClass::NicPf,
        LockClass::NicDma,
        LockClass::NicTx,
        LockClass::NicVf,
        LockClass::KvmVm,
        LockClass::PciBus,
        LockClass::PciDevice,
        LockClass::PciConfig,
        LockClass::CniRegistry,
        LockClass::CniNns,
        LockClass::MicrovmState,
        LockClass::GuestNet,
        LockClass::Virtio,
        LockClass::FaultPlane,
        LockClass::TracerSlot,
        LockClass::CgroupRegistry,
        LockClass::AppStorage,
        LockClass::AppComputeMemo,
        LockClass::Example,
        LockClass::Test,
    ];

    fn index(self) -> usize {
        self as usize
    }

    /// Stable display name (also the DOT/JSON node label).
    pub fn name(self) -> &'static str {
        match self {
            LockClass::DevsetParent => "devset-parent",
            LockClass::DevsetChild => "devset-child",
            LockClass::DevsetState => "devset-state",
            LockClass::DevsetRegistry => "devset-registry",
            LockClass::DevsetMembers => "devset-members",
            LockClass::VfioContainer => "vfio-container",
            LockClass::VfioGroup => "vfio-group",
            LockClass::FastiovdTier1 => "fastiovd-tier1",
            LockClass::FastiovdVmTable => "fastiovd-vm-table",
            LockClass::IommuRegistry => "iommu-registry",
            LockClass::IommuTable => "iommu-table",
            LockClass::IommuTlb => "iommu-tlb",
            LockClass::PhysMemory => "phys-memory",
            LockClass::PhysSpareFrames => "phys-spare-frames",
            LockClass::HostMmu => "host-mmu",
            LockClass::PoolSlots => "pool-slots",
            LockClass::PoolWorker => "pool-worker",
            LockClass::NicMailbox => "nic-mailbox",
            LockClass::NicPf => "nic-pf",
            LockClass::NicDma => "nic-dma",
            LockClass::NicTx => "nic-tx",
            LockClass::NicVf => "nic-vf",
            LockClass::KvmVm => "kvm-vm",
            LockClass::PciBus => "pci-bus",
            LockClass::PciDevice => "pci-device",
            LockClass::PciConfig => "pci-config",
            LockClass::CniRegistry => "cni-registry",
            LockClass::CniNns => "cni-nns",
            LockClass::MicrovmState => "microvm-state",
            LockClass::GuestNet => "guest-net",
            LockClass::Virtio => "virtio",
            LockClass::FaultPlane => "fault-plane",
            LockClass::TracerSlot => "tracer-slot",
            LockClass::CgroupRegistry => "cgroup-registry",
            LockClass::AppStorage => "app-storage",
            LockClass::AppComputeMemo => "app-compute-memo",
            LockClass::Example => "example",
            LockClass::Test => "test",
        }
    }

    /// Hierarchy position: `(domain, level)`. Acquiring a *lower* level
    /// while a deeper level of the same domain is held is a
    /// child-before-parent inversion.
    fn hierarchy(self) -> Option<(Domain, u8)> {
        match self {
            LockClass::DevsetParent => Some((Domain::Devset, 0)),
            LockClass::DevsetChild => Some((Domain::Devset, 1)),
            LockClass::DevsetState => Some((Domain::Devset, 1)),
            LockClass::FastiovdTier1 => Some((Domain::Fastiovd, 0)),
            LockClass::FastiovdVmTable => Some((Domain::Fastiovd, 1)),
            LockClass::IommuTable => Some((Domain::Iommu, 0)),
            LockClass::IommuTlb => Some((Domain::Iommu, 1)),
            _ => None,
        }
    }
}

impl fmt::Display for LockClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Acquisition mode. Shared acquisitions never block one another, so
/// they contribute reporting edges but not cycle-detection edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Mutex lock or rwlock write.
    Exclusive,
    /// Rwlock read.
    Shared,
}

/// What a report is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReportKind {
    /// A blocking-edge cycle in the class graph.
    PotentialDeadlock,
    /// Child-before-parent acquisition within a hierarchy domain.
    HierarchyViolation,
}

impl fmt::Display for ReportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReportKind::PotentialDeadlock => "potential-deadlock",
            ReportKind::HierarchyViolation => "hierarchy-violation",
        })
    }
}

/// One witness report. `held_site`/`acquire_site` are the two
/// acquisition sites (file:line) that together exhibit the violation —
/// the lock already held and the offending new acquisition.
#[derive(Debug, Clone)]
pub struct LockdepReport {
    /// Violation kind.
    pub kind: ReportKind,
    /// Class of the already-held lock.
    pub held_class: LockClass,
    /// Class of the lock being acquired.
    pub acquired_class: LockClass,
    /// Where the held lock was acquired.
    pub held_site: String,
    /// Where the offending acquisition happened.
    pub acquire_site: String,
    /// Human-readable rule text (cycle path, hierarchy levels, …).
    pub detail: String,
}

impl fmt::Display for LockdepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] holding {} (acquired at {}) while acquiring {} at {}: {}",
            self.kind,
            self.held_class,
            self.held_site,
            self.acquired_class,
            self.acquire_site,
            self.detail
        )
    }
}

/// A recorded acquired-while-held edge (first witness kept).
#[derive(Debug, Clone)]
struct EdgeInfo {
    count: u64,
    blocking: bool,
    holder_site: &'static Location<'static>,
    acquire_site: &'static Location<'static>,
}

struct Graph {
    /// `(held_class, acquired_class)` → first witness + count.
    edges: HashMap<(usize, usize), EdgeInfo>,
    /// Blocking-edge adjacency for cycle detection.
    adj: [[bool; NCLASS]; NCLASS],
}

impl Graph {
    fn new() -> Self {
        Graph {
            edges: HashMap::new(),
            adj: [[false; NCLASS]; NCLASS],
        }
    }

    /// Is `to` reachable from `from` over blocking edges?
    fn reaches(&self, from: usize, to: usize) -> bool {
        let mut seen = [false; NCLASS];
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if seen[n] {
                continue;
            }
            seen[n] = true;
            for (m, &edge) in self.adj[n].iter().enumerate() {
                if edge && !seen[m] {
                    stack.push(m);
                }
            }
        }
        false
    }

    /// One blocking path `from → … → to` as class names, for report text.
    fn path(&self, from: usize, to: usize) -> Vec<usize> {
        let mut prev = [usize::MAX; NCLASS];
        let mut stack = vec![from];
        let mut seen = [false; NCLASS];
        seen[from] = true;
        while let Some(n) = stack.pop() {
            if n == to {
                break;
            }
            for (m, &edge) in self.adj[n].iter().enumerate() {
                if edge && !seen[m] {
                    seen[m] = true;
                    prev[m] = n;
                    stack.push(m);
                }
            }
        }
        let mut path = vec![to];
        let mut cur = to;
        while prev[cur] != usize::MAX && prev[cur] != from {
            cur = prev[cur];
            path.push(cur);
        }
        if cur != from {
            path.push(from);
        }
        path.reverse();
        path
    }
}

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);
static NEXT_ACQ_ID: AtomicU64 = AtomicU64::new(1);
static GRAPH: std::sync::LazyLock<Mutex<Graph>> =
    std::sync::LazyLock::new(|| Mutex::new(Graph::new()));
static REPORTS: Mutex<Vec<LockdepReport>> = Mutex::new(Vec::new());

std::thread_local! {
    static HELD: RefCell<Vec<HeldEntry>> = const { RefCell::new(Vec::new()) };
}

#[derive(Clone, Copy)]
struct HeldEntry {
    class: LockClass,
    #[allow(dead_code)] // Kept for future read/write cycle semantics.
    mode: Mode,
    site: &'static Location<'static>,
    acq_id: u64,
}

/// Enables the witness for the whole process.
pub fn enable() {
    STATE.store(STATE_ON, Ordering::SeqCst);
}

/// Disables the witness (acquisitions go back to one atomic load).
pub fn disable() {
    STATE.store(STATE_OFF, Ordering::SeqCst);
}

/// Whether the witness is recording. The first call resolves the
/// `FASTIOV_LOCKDEP` environment variable; after that this is a single
/// relaxed atomic load.
#[inline]
pub fn is_enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var("FASTIOV_LOCKDEP").is_ok_and(|v| v == "1" || v == "true");
    let state = if on { STATE_ON } else { STATE_OFF };
    // A racing enable()/disable() wins over env resolution.
    let _ = STATE.compare_exchange(STATE_UNINIT, state, Ordering::SeqCst, Ordering::SeqCst);
    STATE.load(Ordering::Relaxed) == STATE_ON
}

/// Clears the graph and the report list (tests; the held stacks are
/// per-thread and drain naturally as guards drop).
pub fn reset() {
    let mut g = GRAPH.lock();
    g.edges.clear();
    g.adj = [[false; NCLASS]; NCLASS];
    drop(g);
    REPORTS.lock().clear();
}

/// Snapshot of all reports so far.
pub fn reports() -> Vec<LockdepReport> {
    REPORTS.lock().clone()
}

fn push_report(report: LockdepReport) {
    let mut reports = REPORTS.lock();
    // Dedupe on (kind, class pair): one witness per rule violation keeps
    // a 200-way wave's report readable.
    if reports.iter().any(|r| {
        r.kind == report.kind
            && r.held_class == report.held_class
            && r.acquired_class == report.acquired_class
    }) {
        return;
    }
    reports.push(report);
}

fn site_str(loc: &'static Location<'static>) -> String {
    format!("{}:{}", loc.file(), loc.line())
}

/// Records an acquisition of `class` in `mode` at the caller's
/// source location. Returns a token that must live for the duration of
/// the hold; dropping it pops the per-thread held stack. Returns `None`
/// (and does nothing) while the witness is disabled.
#[track_caller]
#[inline]
pub fn acquire(class: LockClass, mode: Mode) -> Option<HeldToken> {
    if !is_enabled() {
        return None;
    }
    Some(acquire_slow(class, mode, Location::caller()))
}

fn acquire_slow(class: LockClass, mode: Mode, site: &'static Location<'static>) -> HeldToken {
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        check_hierarchy(&held, class, site);
        record_edges(&held, class, mode, site);
        let acq_id = NEXT_ACQ_ID.fetch_add(1, Ordering::Relaxed);
        held.push(HeldEntry {
            class,
            mode,
            site,
            acq_id,
        });
        HeldToken {
            acq_id,
            _not_send: std::marker::PhantomData,
        }
    })
}

/// Hierarchy check against the current held stack.
fn check_hierarchy(held: &[HeldEntry], class: LockClass, site: &'static Location) {
    for h in held {
        if let (Some((hd, hl)), Some((nd, nl))) = (h.class.hierarchy(), class.hierarchy()) {
            if hd == nd && nl < hl {
                push_report(LockdepReport {
                    kind: ReportKind::HierarchyViolation,
                    held_class: h.class,
                    acquired_class: class,
                    held_site: site_str(h.site),
                    acquire_site: site_str(site),
                    detail: format!(
                        "{} is level {} of its domain but level-{} {} is already held \
                         (child-before-parent inversion)",
                        class, nl, hl, h.class
                    ),
                });
            }
        }
    }
}

/// Adds acquired-while-held edges and runs cycle detection on new
/// blocking edges.
fn record_edges(held: &[HeldEntry], class: LockClass, mode: Mode, site: &'static Location) {
    if held.is_empty() {
        return;
    }
    let blocking = mode == Mode::Exclusive;
    let to = class.index();
    let mut graph = GRAPH.lock();
    for h in held {
        let from = h.class.index();
        if from == to {
            // Same-class nesting (e.g. parent state under the parent
            // rwlock wrapper, per-frame sequences) carries no class-level
            // ordering information.
            continue;
        }
        let entry = graph.edges.entry((from, to));
        match entry {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                e.get_mut().count += 1;
                if blocking && !e.get().blocking {
                    e.get_mut().blocking = true;
                } else {
                    continue;
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(EdgeInfo {
                    count: 1,
                    blocking,
                    holder_site: h.site,
                    acquire_site: site,
                });
            }
        }
        if !blocking {
            continue;
        }
        // New blocking edge from → to: a path to → … → from means a cycle.
        if graph.reaches(to, from) {
            let path = graph.path(to, from);
            let back_witness = path
                .windows(2)
                .next()
                .and_then(|w| graph.edges.get(&(w[0], w[1])))
                .map(|e| {
                    format!(
                        " (return edge held at {}, acquired at {})",
                        site_str(e.holder_site),
                        site_str(e.acquire_site)
                    )
                })
                .unwrap_or_default();
            let cycle: Vec<&str> = std::iter::once(h.class.name())
                .chain(path.iter().map(|&i| LockClass::ALL[i].name()))
                .collect();
            push_report(LockdepReport {
                kind: ReportKind::PotentialDeadlock,
                held_class: h.class,
                acquired_class: class,
                held_site: site_str(h.site),
                acquire_site: site_str(site),
                detail: format!("lock-order cycle {}{}", cycle.join(" -> "), back_witness),
            });
        }
        graph.adj[from][to] = true;
    }
}

/// RAII token marking one acquisition on the current thread's held stack.
/// Must be dropped on the acquiring thread (it is `!Send`); guards of the
/// instrumented wrappers carry it automatically.
pub struct HeldToken {
    acq_id: u64,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for HeldToken {
    fn drop(&mut self) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            // Guards may drop out of LIFO order; search from the top.
            if let Some(pos) = held.iter().rposition(|h| h.acq_id == self.acq_id) {
                held.remove(pos);
            }
        });
    }
}

/// DOT rendering of the acquired-while-held class graph. Blocking edges
/// are solid, shared-acquisition edges dashed; labels carry counts.
pub fn graph_dot() -> String {
    let graph = GRAPH.lock();
    let mut out = String::from("digraph lockdep {\n  rankdir=LR;\n  node [shape=box];\n");
    let mut edges: Vec<(&(usize, usize), &EdgeInfo)> = graph.edges.iter().collect();
    edges.sort_by_key(|(k, _)| **k);
    for (&(from, to), info) in edges {
        out.push_str(&format!(
            "  \"{}\" -> \"{}\" [label=\"{}\"{}];\n",
            LockClass::ALL[from].name(),
            LockClass::ALL[to].name(),
            info.count,
            if info.blocking { "" } else { ", style=dashed" }
        ));
    }
    out.push_str("}\n");
    out
}

/// JSON rendering of the graph plus all reports (the `lockgraph.json`
/// of `fastiovctl observe`).
pub fn graph_json() -> String {
    let graph = GRAPH.lock();
    let mut edges: Vec<(&(usize, usize), &EdgeInfo)> = graph.edges.iter().collect();
    edges.sort_by_key(|(k, _)| **k);
    let mut out = String::from("{\n  \"edges\": [\n");
    for (i, (&(from, to), info)) in edges.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"from\": \"{}\", \"to\": \"{}\", \"count\": {}, \"blocking\": {}, \
             \"holder_site\": \"{}\", \"acquire_site\": \"{}\"}}{}\n",
            LockClass::ALL[from].name(),
            LockClass::ALL[to].name(),
            info.count,
            info.blocking,
            site_str(info.holder_site),
            site_str(info.acquire_site),
            if i + 1 == edges.len() { "" } else { "," }
        ));
    }
    drop(graph);
    out.push_str("  ],\n  \"reports\": [\n");
    let reports = reports();
    for (i, r) in reports.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"kind\": \"{}\", \"held_class\": \"{}\", \"acquired_class\": \"{}\", \
             \"held_site\": \"{}\", \"acquire_site\": \"{}\"}}{}\n",
            r.kind,
            r.held_class,
            r.acquired_class,
            r.held_site,
            r.acquire_site,
            if i + 1 == reports.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Wait/hold totals of one lock class, in real nanoseconds (see the
/// module docs for what each figure covers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockSnapshot {
    /// Time spent blocked after the try-lock fast path failed.
    pub wait_ns: u64,
    /// Time between acquisition and release, minus condvar parking.
    pub hold_ns: u64,
    /// Acquisitions.
    pub acquisitions: u64,
    /// Acquisitions whose try-lock fast path failed.
    pub contended: u64,
}

/// One class's counters, alone on a cache line so that hot classes do
/// not false-share.
#[repr(align(64))]
struct ClassStat {
    acquisitions: AtomicU64,
    contended: AtomicU64,
    wait_ns: AtomicU64,
    hold_ns: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // Only a repeat-expression seed.
const CLASS_STAT_INIT: ClassStat = ClassStat {
    acquisitions: AtomicU64::new(0),
    contended: AtomicU64::new(0),
    wait_ns: AtomicU64::new(0),
    hold_ns: AtomicU64::new(0),
};

static CLASS_STATS: [ClassStat; NCLASS] = [CLASS_STAT_INIT; NCLASS];

impl LockClass {
    /// Process-wide totals of every acquisition of a lock of this class
    /// since start-up. Counters only grow; diff two reads to measure a
    /// phase.
    pub fn stats(self) -> LockSnapshot {
        let s = &CLASS_STATS[self.index()];
        LockSnapshot {
            wait_ns: s.wait_ns.load(Ordering::Relaxed),
            hold_ns: s.hold_ns.load(Ordering::Relaxed),
            acquisitions: s.acquisitions.load(Ordering::Relaxed),
            contended: s.contended.load(Ordering::Relaxed),
        }
    }
}

/// The running hold time of one acquisition; adds it to its class's
/// `hold_ns` when dropped. Declared before the lock hold it times, so
/// that it stops just before the lock is released.
struct HoldTimer {
    class: LockClass,
    since: WallStopwatch,
}

impl HoldTimer {
    fn record(&self) {
        CLASS_STATS[self.class.index()]
            .hold_ns
            .fetch_add(self.since.elapsed_ns(), Ordering::Relaxed);
    }
}

impl Drop for HoldTimer {
    fn drop(&mut self) {
        self.record();
    }
}

/// Releases one hold of a [`RawLock`] when dropped.
struct RawHold<'a> {
    lock: &'a RawLock,
    mode: Mode,
}

impl Drop for RawHold<'_> {
    fn drop(&mut self) {
        self.lock.unlock(self.mode);
    }
}

/// Takes `lock` in `mode` for a wrapper of `class`, counting the
/// acquisition. Only if the fast path fails does it wait, at `site` (the
/// wrapper's caller), with the wait timed.
fn take<'a>(
    lock: &'a RawLock,
    class: LockClass,
    mode: Mode,
    site: &'static Location<'static>,
) -> (RawHold<'a>, HoldTimer) {
    let stat = &CLASS_STATS[class.index()];
    stat.acquisitions.fetch_add(1, Ordering::Relaxed);
    if !lock.try_lock(mode) {
        let waited = WallStopwatch::start();
        lock.lock(mode, class, site);
        stat.contended.fetch_add(1, Ordering::Relaxed);
        stat.wait_ns
            .fetch_add(waited.elapsed_ns(), Ordering::Relaxed);
    }
    let hold = HoldTimer {
        class,
        since: WallStopwatch::start(),
    };
    (RawHold { lock, mode }, hold)
}

/// A FIFO mutex that declares a [`LockClass`] and reports every
/// acquisition to the witness. Waiting on it is a blocking point of a
/// virtual clock's executor.
pub struct TrackedMutex<T: ?Sized> {
    class: LockClass,
    raw: RawLock,
    data: UnsafeCell<T>,
}

// SAFETY: the raw lock grants `data` to one guard at a time, so shared
// access only ever yields one `&mut T`.
unsafe impl<T: ?Sized + Send> Sync for TrackedMutex<T> {}

/// Guard of [`TrackedMutex::lock`].
pub struct TrackedMutexGuard<'a, T: ?Sized> {
    // Declared before `raw` so the held-stack pop happens while the
    // lock is still held (drop order is declaration order) — a release
    // interleaving the other way could let a sibling acquisition observe
    // a stale "held" entry that the lock has already released. The hold
    // timer likewise stops before the release.
    _dep: Option<HeldToken>,
    hold: HoldTimer,
    raw: RawHold<'a>,
    data: &'a UnsafeCell<T>,
}

impl<T> TrackedMutex<T> {
    /// Wraps `value` in an instrumented mutex of the given class.
    pub fn new(class: LockClass, value: T) -> Self {
        TrackedMutex {
            class,
            raw: RawLock::default(),
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> TrackedMutex<T> {
    /// Acquires the lock, counting it in the class statistics and
    /// recording it when the witness is enabled.
    #[track_caller]
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        let site = Location::caller();
        let _dep = acquire(self.class, Mode::Exclusive);
        let (raw, hold) = take(&self.raw, self.class, Mode::Exclusive, site);
        TrackedMutexGuard {
            _dep,
            hold,
            raw,
            data: &self.data,
        }
    }

    /// The class this lock was declared with.
    pub fn class(&self) -> LockClass {
        self.class
    }
}

/// The Debug view of both wrappers: the data, if the lock is free.
fn fmt_wrapper<T: ?Sized + fmt::Debug>(
    f: &mut fmt::Formatter<'_>,
    name: &str,
    class: LockClass,
    raw: &RawLock,
    data: &UnsafeCell<T>,
) -> fmt::Result {
    let mut d = f.debug_struct(name);
    d.field("class", &class.name());
    if raw.try_lock(Mode::Shared) {
        let _hold = RawHold {
            lock: raw,
            mode: Mode::Shared,
        };
        // SAFETY: `_hold` keeps writers out while the data is read.
        d.field("data", &unsafe { &*data.get() });
    } else {
        d.field("data", &format_args!("<locked>"));
    }
    d.finish()
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_wrapper(f, "TrackedMutex", self.class, &self.raw, &self.data)
    }
}

impl<T: ?Sized> Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: this guard holds the lock exclusively.
        unsafe { &*self.data.get() }
    }
}

impl<T: ?Sized> DerefMut for TrackedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: this guard holds the lock exclusively.
        unsafe { &mut *self.data.get() }
    }
}

/// A FIFO rwlock that declares a [`LockClass`]; see [`TrackedMutex`].
pub struct TrackedRwLock<T: ?Sized> {
    class: LockClass,
    raw: RawLock,
    data: UnsafeCell<T>,
}

// SAFETY: the raw lock grants either one writer or shared readers, and
// readers share `&T`, so `T` must be `Sync` too.
unsafe impl<T: ?Sized + Send + Sync> Sync for TrackedRwLock<T> {}

/// Guard of [`TrackedRwLock::read`].
pub struct TrackedReadGuard<'a, T: ?Sized> {
    _dep: Option<HeldToken>,
    _hold: HoldTimer,
    _raw: RawHold<'a>,
    data: &'a UnsafeCell<T>,
}

/// Guard of [`TrackedRwLock::write`].
pub struct TrackedWriteGuard<'a, T: ?Sized> {
    _dep: Option<HeldToken>,
    _hold: HoldTimer,
    _raw: RawHold<'a>,
    data: &'a UnsafeCell<T>,
}

impl<T> TrackedRwLock<T> {
    /// Wraps `value` in an instrumented rwlock of the given class.
    pub fn new(class: LockClass, value: T) -> Self {
        TrackedRwLock {
            class,
            raw: RawLock::default(),
            data: UnsafeCell::new(value),
        }
    }
}

impl<T: ?Sized> TrackedRwLock<T> {
    /// Shared acquisition (recorded as a non-blocking edge).
    #[track_caller]
    pub fn read(&self) -> TrackedReadGuard<'_, T> {
        let site = Location::caller();
        let _dep = acquire(self.class, Mode::Shared);
        let (_raw, _hold) = take(&self.raw, self.class, Mode::Shared, site);
        TrackedReadGuard {
            _dep,
            _hold,
            _raw,
            data: &self.data,
        }
    }

    /// Exclusive acquisition.
    #[track_caller]
    pub fn write(&self) -> TrackedWriteGuard<'_, T> {
        let site = Location::caller();
        let _dep = acquire(self.class, Mode::Exclusive);
        let (_raw, _hold) = take(&self.raw, self.class, Mode::Exclusive, site);
        TrackedWriteGuard {
            _dep,
            _hold,
            _raw,
            data: &self.data,
        }
    }

    /// The class this lock was declared with.
    pub fn class(&self) -> LockClass {
        self.class
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for TrackedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_wrapper(f, "TrackedRwLock", self.class, &self.raw, &self.data)
    }
}

impl<T: ?Sized> Deref for TrackedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: this guard holds a shared lock; no writer exists.
        unsafe { &*self.data.get() }
    }
}

impl<T: ?Sized> Deref for TrackedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: this guard holds the lock exclusively.
        unsafe { &*self.data.get() }
    }
}

impl<T: ?Sized> DerefMut for TrackedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: this guard holds the lock exclusively.
        unsafe { &mut *self.data.get() }
    }
}

/// Condition variable paired with [`TrackedMutex`]. The held-stack entry
/// is deliberately kept across `wait` (the thread acquires nothing while
/// parked, so no false edges can form), matching how lockdep treats
/// condvar sleeps. The hold time, however, pauses while parked.
#[derive(Default)]
pub struct TrackedCondvar {
    waiters: Mutex<VecDeque<Arc<Slot>>>,
}

impl TrackedCondvar {
    /// Creates a condition variable.
    pub fn new() -> Self {
        TrackedCondvar::default()
    }

    /// Blocks until notified, releasing the mutex while parked.
    #[track_caller]
    pub fn wait<T: ?Sized>(&self, guard: &mut TrackedMutexGuard<'_, T>) {
        let site = Location::caller();
        let me = current_slot();
        // Queued before the mutex is released, so no notify is lost.
        self.waiters.lock().push_back(Arc::clone(&me));
        guard.hold.record();
        guard.raw.lock.unlock(Mode::Exclusive);
        let wait = Wait {
            on: WaitOn::Condvar,
            site,
        };
        me.block(wait, || {
            let mut waiters = self.waiters.lock();
            let before = waiters.len();
            waiters.retain(|s| !Arc::ptr_eq(s, &me));
            waiters.len() < before
        });
        guard.raw.lock.lock(Mode::Exclusive, guard.hold.class, site);
        guard.hold.since = WallStopwatch::start();
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        let next = self.waiters.lock().pop_front();
        if let Some(slot) = next {
            slot.wake();
        }
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        let all = std::mem::take(&mut *self.waiters.lock());
        for slot in all {
            slot.wake();
        }
    }
}

/// Global witness state is process-wide; serializes the tests that reset
/// it, inspect it, or record known-bad orders.
#[cfg(test)]
pub(crate) static TEST_GATE: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::MutexGuard;

    fn fresh() -> MutexGuard<'static, ()> {
        let g = TEST_GATE.lock();
        enable();
        reset();
        g
    }

    #[test]
    fn disabled_witness_records_nothing() {
        let _g = TEST_GATE.lock();
        disable();
        reset();
        let a = TrackedMutex::new(LockClass::Test, 0u32);
        let b = TrackedMutex::new(LockClass::PoolSlots, 0u32);
        let _ga = a.lock();
        let _gb = b.lock();
        drop((_ga, _gb));
        assert!(reports().is_empty());
        assert_eq!(
            graph_dot(),
            "digraph lockdep {\n  rankdir=LR;\n  node [shape=box];\n}\n"
        );
        enable();
    }

    #[test]
    fn cycle_between_two_classes_reported() {
        let _g = fresh();
        let a = TrackedMutex::new(LockClass::PoolSlots, ());
        let b = TrackedMutex::new(LockClass::CgroupRegistry, ());
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        assert!(reports().is_empty(), "one order alone is fine");
        {
            let _gb = b.lock();
            let _ga = a.lock();
        }
        let r = reports();
        assert_eq!(r.len(), 1, "{r:?}");
        assert_eq!(r[0].kind, ReportKind::PotentialDeadlock);
        assert!(r[0].held_site.contains("lockdep.rs"));
        assert!(r[0].acquire_site.contains("lockdep.rs"));
        assert!(r[0].detail.contains("cgroup-registry -> pool-slots"));
    }

    #[test]
    fn hierarchy_inversion_reported() {
        let _g = fresh();
        let parent = TrackedRwLock::new(LockClass::DevsetParent, ());
        let child = TrackedMutex::new(LockClass::DevsetChild, ());
        {
            // Correct order first: parent (read) then child.
            let _p = parent.read();
            let _c = child.lock();
        }
        assert!(reports().is_empty());
        {
            let _c = child.lock();
            let _p = parent.write();
        }
        let r = reports();
        assert!(
            r.iter().any(|r| r.kind == ReportKind::HierarchyViolation),
            "{r:?}"
        );
    }

    #[test]
    fn shared_read_cycle_is_not_a_deadlock() {
        let _g = fresh();
        // child(x) then members(read); members(read) then child(x) —
        // the devset open/reset pattern. Readers don't block readers, so
        // no report.
        let child = TrackedMutex::new(LockClass::DevsetChild, ());
        let members = TrackedRwLock::new(LockClass::DevsetMembers, ());
        {
            let _c = child.lock();
            let _m = members.read();
        }
        {
            let _m = members.read();
            let _c = child.lock();
        }
        let r = reports();
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn graph_exports_name_sites() {
        let _g = fresh();
        let a = TrackedMutex::new(LockClass::IommuTable, ());
        let b = TrackedMutex::new(LockClass::IommuTlb, ());
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        let dot = graph_dot();
        assert!(dot.contains("\"iommu-table\" -> \"iommu-tlb\""), "{dot}");
        let json = graph_json();
        assert!(json.contains("\"from\": \"iommu-table\""), "{json}");
        assert!(json.contains("lockdep.rs"), "{json}");
    }

    // The lock-statistics tests below each use a class that no other test
    // in this binary takes, so their exact counts hold under parallel
    // test threads.

    #[test]
    fn uncontended_acquisitions_count_without_wait() {
        let class = LockClass::KvmVm;
        let before = class.stats();
        let m = TrackedMutex::new(class, 0u32);
        for _ in 0..5 {
            *m.lock() += 1;
        }
        let after = class.stats();
        assert_eq!(after.acquisitions - before.acquisitions, 5);
        assert_eq!(after.contended, before.contended);
        assert_eq!(after.wait_ns, before.wait_ns);
    }

    #[test]
    fn contended_acquisition_records_wait() {
        let class = LockClass::CniNns;
        let before = class.stats();
        let m = std::sync::Arc::new(TrackedMutex::new(class, ()));
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
        let holder = {
            let m = std::sync::Arc::clone(&m);
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                let _g = m.lock();
                barrier.wait();
                std::thread::sleep(std::time::Duration::from_millis(20));
            })
        };
        // The holder owns the lock once the barrier opens, so the
        // try-lock fast path must fail.
        barrier.wait();
        drop(m.lock());
        holder.join().unwrap();
        let after = class.stats();
        assert_eq!(after.acquisitions - before.acquisitions, 2);
        assert_eq!(after.contended - before.contended, 1);
        assert!(after.wait_ns > before.wait_ns);
    }

    #[test]
    fn hold_is_recorded_for_lock_read_and_write() {
        let hold = std::time::Duration::from_millis(2);
        let ns = hold.as_nanos() as u64;

        let class = LockClass::NicTx;
        let before = class.stats();
        let m = TrackedMutex::new(class, ());
        {
            let _g = m.lock();
            std::thread::sleep(hold);
        }
        assert!(class.stats().hold_ns - before.hold_ns >= ns);

        let class = LockClass::NicDma;
        let before = class.stats();
        let rw = TrackedRwLock::new(class, ());
        {
            let _r = rw.read();
            std::thread::sleep(hold);
        }
        let after_read = class.stats();
        assert!(after_read.hold_ns - before.hold_ns >= ns);
        {
            let _w = rw.write();
            std::thread::sleep(hold);
        }
        let after_write = class.stats();
        assert!(after_write.hold_ns - after_read.hold_ns >= ns);
        assert_eq!(after_write.acquisitions - before.acquisitions, 2);
    }

    #[test]
    fn condvar_parking_is_not_hold() {
        let class = LockClass::GuestNet;
        let before = class.stats();
        let parked = std::time::Duration::from_millis(200);
        let shared = std::sync::Arc::new((TrackedMutex::new(class, false), TrackedCondvar::new()));
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
        let waiter = {
            let shared = std::sync::Arc::clone(&shared);
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let sw = WallStopwatch::start();
                let (m, cv) = &*shared;
                let mut ready = m.lock();
                while !*ready {
                    cv.wait(&mut ready);
                }
                sw.elapsed()
            })
        };
        barrier.wait();
        std::thread::sleep(parked);
        let (m, cv) = &*shared;
        *m.lock() = true;
        cv.notify_all();
        let waited = waiter.join().unwrap();
        let after = class.stats();
        assert!(waited >= parked / 2, "waiter never parked: {waited:?}");
        assert_eq!(after.acquisitions - before.acquisitions, 2);
        let hold = std::time::Duration::from_nanos(after.hold_ns - before.hold_ns);
        assert!(hold < parked / 2, "parked time counted as hold: {hold:?}");
    }

    #[test]
    fn out_of_order_guard_drop_keeps_stack_consistent() {
        let _g = fresh();
        let a = TrackedMutex::new(LockClass::Test, ());
        let b = TrackedMutex::new(LockClass::AppStorage, ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // non-LIFO
        drop(gb);
        HELD.with(|h| assert!(h.borrow().is_empty()));
    }
}
