//! A lockdep-style runtime lock-discipline witness, plus lock_stat.
//!
//! PR 3 left the workspace with ~170 `Mutex`/`RwLock` sites whose ordering
//! invariants lived only in comments; two real ordering races slipped
//! through review. This module makes the discipline machine-checked, the
//! way Linux lockdep does: every instrumented lock belongs to a
//! [`LockClass`], each thread keeps a stack of currently-held
//! acquisitions, and every acquisition made while other locks are held
//! records a class-level **acquired-while-held edge**. Three rules are
//! enforced online:
//!
//! 1. **Cycle detection** — a new edge `A → B` is rejected when `B` can
//!    already reach `A`: a potential deadlock, reported with the witness
//!    acquisition sites of both the forward edge and the first edge of
//!    the return path (à la lockdep's two-stack report).
//! 2. **Hierarchy violations** — the devset classes declare a level in
//!    the devset hierarchy; acquiring a lower level while a deeper one is
//!    held is a child-before-parent inversion (e.g. taking the devset
//!    parent rwlock while a per-device child mutex is held).
//! 3. **Only serializers wait** — a thread that blocks on a virtual clock
//!    may hold only locks of serializer classes
//!    ([`LockClass::is_serializer`]): under the executor's baton, a lock
//!    never held across a wait is never waited on. The lock being acquired
//!    and a condvar's own mutex, which the wait releases, are exempt. A
//!    wall-paced clock's threads run freely, so it is not checked there.
//!
//! A shared (read) acquisition records the same edge as an exclusive one.
//! Two readers never block each other, but grants are FIFO, so a reader
//! queues behind a waiting writer: a thread holding `devset-parent` for
//! read and waiting for `cgroup`, against one holding `cgroup` and asking
//! for `devset-parent` for read behind a queued writer, deadlocks. Every
//! edge is therefore a blocking edge.
//!
//! **One instrument per clock.** The witness is always on. Its graph and
//! reports and the lock statistics belong to the executor of a clock
//! (`Witness`): an acquisition records into the executor of the
//! acquiring thread, and the readers ([`reports`], [`graph_dot`],
//! [`graph_json`], [`LockClass::stats`]) read the calling thread's. A
//! thread in no executor records nothing. The held stack is per thread,
//! since a thread belongs to one executor at a time.
//!
//! **Lock statistics** sit on the same classes, the way Linux lock_stat
//! sits on lockdep's: every acquisition through the tracked wrappers is
//! counted per class.
//! Wait time is measured only when the try-lock fast path fails, for
//! every class. Hold time is measured only for the serializer classes:
//! it runs from acquisition to release, minus time parked in
//! [`TrackedCondvar::wait`]. A bookkeeping class is never held across a
//! wait (rule 3), so its hold would be the simulator's own time between
//! two statements; its acquisitions read no clock and its `hold_ns`
//! stays 0. Both figures are **real** nanoseconds — a ranking of where
//! threads queue, not a modelled cost; on a virtual clock they measure
//! baton hand-offs, not simulated waiting. A lock carries no memory for
//! them.

use parking_lot::Mutex;
use std::cell::{RefCell, UnsafeCell};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::panic::Location;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::exec::{current_slot, with_witness, Slot, Wait, WaitOn};
use crate::rawlock::RawLock;
use crate::WallStopwatch;

/// Declares [`LockClass`] from one list: each class's doc, variant and
/// display name, in index order.
macro_rules! lock_classes {
    ($($(#[$doc:meta])* $class:ident => $name:literal,)*) => {
        /// The class of an instrumented lock. One class per *role*, not per
        /// instance: all per-device child mutexes share [`LockClass::DevsetChild`],
        /// all IOMMU domains' translation locks share [`LockClass::IommuTable`],
        /// and so on. A component keeps one lock over all of its state unless a
        /// simulated thread can wait on part of it, so most classes name one
        /// component. The acquired-while-held graph and the lock statistics are
        /// kept per class.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum LockClass {
            $($(#[$doc])* $class,)*
        }

        impl LockClass {
            /// Every class, in declaration (index) order.
            pub const ALL: [LockClass; NCLASS] = [$(LockClass::$class),*];

            /// Stable display name (also the DOT/JSON node label).
            pub fn name(self) -> &'static str {
                match self {
                    $(LockClass::$class => $name,)*
                }
            }
        }
    };
}

lock_classes! {
    /// Devset parent rwlock (or the coarse mutex standing in for it).
    DevsetParent => "devset-parent",
    /// Per-device child mutex inside a devset.
    DevsetChild => "devset-child",
    /// DevsetManager registry (devsets, devices and their groups).
    DevsetRegistry => "devset-registry",
    /// Devset membership list (`DevSet::devices`), a mutex: bookkeeping,
    /// so no two of its holds overlap.
    DevsetMembers => "devset-members",
    /// VFIO container DMA-mapping list.
    VfioContainer => "vfio-container",
    /// VFIO group attachment slot.
    VfioGroup => "vfio-group",
    /// fastiovd's two-tier table (PID → per-VM page table), both tiers.
    FastiovdTier1 => "fastiovd-tier1",
    /// IOMMU domain I/O page table and IOTLB.
    IommuTable => "iommu-table",
    /// Physical memory: the frame table and its free runs.
    PhysMemory => "phys-memory",
    /// Host MMU region table.
    HostMmu => "host-mmu",
    /// Warm-pool slot list.
    PoolSlots => "pool-slots",
    /// Warm-pool replenisher (its channel and thread) and its backlog.
    PoolWorker => "pool-worker",
    /// NIC PF admin mailbox (strictly serialized command channel, §3.2.4).
    NicMailbox => "nic-mailbox",
    /// PF driver VF list.
    NicPf => "nic-pf",
    /// NIC DMA engine state (per-VF RX rings, VF attachments).
    NicDma => "nic-dma",
    /// Per-VF configuration state.
    NicVf => "nic-vf",
    /// KVM VM state (memslots and EPT).
    KvmVm => "kvm-vm",
    /// PCI bus device map, a mutex like every bookkeeping lock.
    PciBus => "pci-bus",
    /// Per-PCI-device state (driver binding, SR-IOV cap).
    PciDevice => "pci-device",
    /// CNI registries (namespaces, VF pool).
    CniRegistry => "cni-registry",
    /// Per-network-namespace state.
    CniNns => "cni-nns",
    /// MicroVM per-instance state (vfio fd and init thread, taken out at
    /// teardown).
    MicrovmState => "microvm-state",
    /// Guest network readiness flag.
    GuestNet => "guest-net",
    /// virtio-fs / virtio-net shared state.
    Virtio => "virtio",
    /// A fault plane's own per-(site, key) counters and per-site statistics.
    FaultPlane => "fault-plane",
    /// The kernel's global cgroup lock and the cgroups it guards (§6.4).
    Cgroup => "cgroup",
    /// The kernel's global rtnl lock (§6.4).
    Rtnl => "rtnl",
    /// The host-global virtiofsd device-setup lock.
    Virtiofsd => "virtiofsd",
    /// Application object storage.
    AppStorage => "app-storage",
    /// Memoized outputs of the serverless tasks' real computations.
    AppComputeMemo => "app-compute-memo",
    /// Ad-hoc locks in test fixtures.
    Test => "test",
}

/// Number of lock classes; the edge adjacency keeps one bit per class in
/// a `u64`.
const NCLASS: usize = LockClass::Test as usize + 1;
const _: () = assert!(NCLASS <= 64);

impl LockClass {
    fn index(self) -> usize {
        self as usize
    }

    /// Level in the devset hierarchy, the one lock hierarchy (§4.2.1).
    /// Acquiring a *lower* level while a deeper one is held is a
    /// child-before-parent inversion.
    fn devset_level(self) -> Option<u8> {
        match self {
            LockClass::DevsetParent => Some(0),
            LockClass::DevsetChild => Some(1),
            _ => None,
        }
    }

    /// Whether a lock of this class may be held across a wait (rule 3 of
    /// the module docs): true for the modelled serializers (the devset
    /// locks, §4.2.1; the NIC admin mailbox, §3.2.4; the rtnl, cgroup and
    /// virtiofsd global locks) and the test fixture class.
    pub fn is_serializer(self) -> bool {
        matches!(
            self,
            LockClass::DevsetParent
                | LockClass::DevsetChild
                | LockClass::NicMailbox
                | LockClass::Rtnl
                | LockClass::Cgroup
                | LockClass::Virtiofsd
                | LockClass::Test
        )
    }
}

impl fmt::Display for LockClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Acquisition mode. Shared acquisitions never block one another; the
/// witness records both modes alike.
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
    /// A cycle in the class graph.
    PotentialDeadlock,
    /// Child-before-parent acquisition within the devset hierarchy.
    HierarchyViolation,
    /// A lock of a class that is not a serializer held across a wait.
    HeldAcrossWait,
}

impl fmt::Display for ReportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReportKind::PotentialDeadlock => "potential-deadlock",
            ReportKind::HierarchyViolation => "hierarchy-violation",
            ReportKind::HeldAcrossWait => "held-across-wait",
        })
    }
}

/// One witness report. `held_site`/`acquire_site` are the two sites
/// (file:line) that together exhibit the violation — the lock already
/// held, and the offending new acquisition or wait.
#[derive(Debug, Clone)]
pub struct LockdepReport {
    /// Violation kind.
    pub kind: ReportKind,
    /// Class of the already-held lock.
    pub held_class: LockClass,
    /// Class of the lock being acquired; `None` for a hold across a wait,
    /// whose `detail` names the wait.
    pub acquired_class: Option<LockClass>,
    /// Where the held lock was acquired.
    pub held_site: String,
    /// Where the offending acquisition or wait happened.
    pub acquire_site: String,
    /// Human-readable rule text (cycle path, hierarchy levels, …).
    pub detail: String,
}

impl fmt::Display for LockdepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] holding {} (acquired at {}) ",
            self.kind, self.held_class, self.held_site
        )?;
        match self.acquired_class {
            Some(class) => write!(f, "while acquiring {class}")?,
            None => f.write_str("while waiting")?,
        }
        write!(f, " at {}: {}", self.acquire_site, self.detail)
    }
}

/// Where an acquired-while-held edge was first seen: the held lock's
/// acquisition and the new one's.
#[derive(Debug, Clone, Copy)]
struct EdgeInfo {
    holder_site: &'static Location<'static>,
    acquire_site: &'static Location<'static>,
}

struct Graph {
    /// `(held_class, acquired_class)` → first witness.
    edges: BTreeMap<(usize, usize), EdgeInfo>,
    reports: Vec<LockdepReport>,
}

std::thread_local! {
    static HELD: RefCell<Vec<HeldEntry>> = const { RefCell::new(Vec::new()) };
}

/// Empties the calling thread's held stack, for a worker between tasks
/// (a task that leaked a guard leaves its entry behind).
pub(crate) fn clear_held() {
    HELD.with_borrow_mut(Vec::clear);
}

/// One acquisition on a thread's held stack: its class, its mode and
/// where it was made.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeldEntry {
    pub(crate) class: LockClass,
    pub(crate) mode: Mode,
    pub(crate) site: &'static Location<'static>,
}

impl HeldEntry {
    /// Same lock class, mode and site. Entries that agree on all three
    /// are interchangeable, so a release may pop any one of them.
    fn same(&self, other: &HeldEntry) -> bool {
        self.class == other.class && self.mode == other.mode && std::ptr::eq(self.site, other.site)
    }
}

/// One clock's lock instrument: the acquired-while-held class graph,
/// its reports and the per-class counters. Every executor owns one, and
/// an acquisition records into the executor of the acquiring thread.
///
/// An acquisition along edges the graph already holds only bumps their
/// counts: the graph lock is taken for a new edge or a report.
pub(crate) struct Witness {
    graph: Mutex<Graph>,
    /// The edges in the graph, one bit per class pair: bit `b` of
    /// `edges[a]` is the edge `a → b`, the adjacency of cycle detection.
    /// Set under the graph lock, read without it.
    edges: [AtomicU64; NCLASS],
    /// Acquisitions along each edge: `counts[a][b]` for `a → b`.
    counts: [[AtomicU64; NCLASS]; NCLASS],
    stats: [ClassStat; NCLASS],
}

impl Default for Witness {
    fn default() -> Self {
        Witness {
            graph: Mutex::new(Graph {
                edges: BTreeMap::new(),
                reports: Vec::new(),
            }),
            edges: std::array::from_fn(|_| AtomicU64::new(0)),
            counts: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            stats: std::array::from_fn(|_| ClassStat::default()),
        }
    }
}

/// Snapshot of the reports of the calling thread's executor (none for a
/// thread in no executor).
pub fn reports() -> Vec<LockdepReport> {
    with_witness(|w| w.graph.lock().reports.clone()).unwrap_or_default()
}

fn site_str(loc: &'static Location<'static>) -> String {
    format!("{}:{}", loc.file(), loc.line())
}

impl Witness {
    /// Rule 3: the calling thread blocks on `wait` on a virtual clock, so
    /// every lock it holds must be a serializer, apart from the entry the
    /// wait is about (the lock being acquired, or a condvar's mutex).
    pub(crate) fn check_wait(&self, wait: &Wait) {
        let mut exempt = match &wait.on {
            WaitOn::Lock(entry) | WaitOn::Condvar(entry) => Some(*entry),
            _ => None,
        };
        HELD.with_borrow(|held| {
            for h in held.iter().rev() {
                if exempt.is_some_and(|e| e.same(h)) {
                    exempt = None;
                } else if !h.class.is_serializer() {
                    self.graph.lock().push(LockdepReport {
                        kind: ReportKind::HeldAcrossWait,
                        held_class: h.class,
                        acquired_class: None,
                        held_site: site_str(h.site),
                        acquire_site: site_str(wait.site),
                        detail: format!("blocked on {} while holding {}", wait.on, h.class),
                    });
                }
            }
        });
    }
}

/// Records `entry`, an acquisition about to be made, into the witness of
/// the calling thread's executor, and counts it in its class's
/// statistics. Returns a token that must live for the duration of the
/// hold; dropping it pops the per-thread held stack.
#[inline]
fn acquire(entry: HeldEntry) -> HeldToken {
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        with_witness(|w| {
            w.stats[entry.class.index()]
                .acquisitions
                .fetch_add(1, Ordering::Relaxed);
            // A first lock has nothing to be ordered against.
            if !held.is_empty() {
                w.record(&held, entry);
            }
        });
        held.push(entry);
    });
    HeldToken {
        entry,
        _not_send: std::marker::PhantomData,
    }
}

/// The devset levels `(held, new)` if taking `new` while `h` is held
/// takes a lower level than one already held: a child-before-parent
/// inversion.
fn inversion(h: &HeldEntry, new: &HeldEntry) -> Option<(u8, u8)> {
    let levels = (h.class.devset_level()?, new.class.devset_level()?);
    (levels.1 < levels.0).then_some(levels)
}

impl Witness {
    /// Checks a new acquisition against the held stack (the hierarchy
    /// rule, then acquired-while-held edges with cycle detection on new
    /// ones) and counts it along each edge.
    fn record(&self, held: &[HeldEntry], new: HeldEntry) {
        let to = new.class.index();
        let settled = held.iter().all(|h| {
            let from = h.class.index();
            inversion(h, &new).is_none()
                && (from == to || self.edges[from].load(Ordering::Acquire) >> to & 1 == 1)
        });
        if !settled {
            self.add(&mut self.graph.lock(), held, new);
        }
        for h in held {
            // Same-class nesting (e.g. parent state under the parent
            // rwlock wrapper, per-frame sequences) carries no class-level
            // ordering information.
            if h.class != new.class {
                self.counts[h.class.index()][to].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The slow path of [`Witness::record`], under the graph lock: reports
    /// inversions and adds new edges, checking each for a cycle.
    fn add(&self, g: &mut Graph, held: &[HeldEntry], new: HeldEntry) {
        for h in held {
            if let Some((hl, nl)) = inversion(h, &new) {
                let detail = format!(
                    "{} is level {} of the devset hierarchy but level-{} {} is already held \
                     (child-before-parent inversion)",
                    new.class, nl, hl, h.class
                );
                g.report(ReportKind::HierarchyViolation, h, new, detail);
            }
        }
        let to = new.class.index();
        let bit = 1u64 << to;
        for h in held {
            let from = h.class.index();
            if from == to || self.edges[from].load(Ordering::Relaxed) & bit != 0 {
                continue;
            }
            // New edge from → to: a path to → … → from means a cycle.
            if let Some(path) = self.path(to, from) {
                let back_witness = path
                    .windows(2)
                    .next()
                    .and_then(|w| g.edges.get(&(w[0], w[1])))
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
                let detail = format!("lock-order cycle {}{}", cycle.join(" -> "), back_witness);
                g.report(ReportKind::PotentialDeadlock, h, new, detail);
            }
            g.edges.insert(
                (from, to),
                EdgeInfo {
                    holder_site: h.site,
                    acquire_site: new.site,
                },
            );
            self.edges[from].fetch_or(bit, Ordering::Release);
        }
    }

    /// One path `from → … → to`, if `to` is reachable from `from`.
    fn path(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        // `prev[m]` is the node `m` was reached from.
        let mut prev = [from; NCLASS];
        let mut seen = 1u64 << from;
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                let mut path = vec![to];
                while path[path.len() - 1] != from {
                    path.push(prev[path[path.len() - 1]]);
                }
                path.reverse();
                return Some(path);
            }
            let mut next = self.edges[n].load(Ordering::Relaxed) & !seen;
            seen |= next;
            while next != 0 {
                let m = next.trailing_zeros() as usize;
                next &= next - 1;
                prev[m] = n;
                stack.push(m);
            }
        }
        None
    }
}

impl Graph {
    fn report(&mut self, kind: ReportKind, h: &HeldEntry, new: HeldEntry, detail: String) {
        self.push(LockdepReport {
            kind,
            held_class: h.class,
            acquired_class: Some(new.class),
            held_site: site_str(h.site),
            acquire_site: site_str(new.site),
            detail,
        });
    }

    /// Records `r` unless it repeats one already recorded: one report per
    /// (kind, class pair) for the ordering rules and per (class, hold
    /// site, wait site) for a hold across a wait, which keeps a 200-way
    /// wave's report readable.
    fn push(&mut self, r: LockdepReport) {
        let repeats = |o: &LockdepReport| {
            (o.kind, o.held_class, o.acquired_class) == (r.kind, r.held_class, r.acquired_class)
                && (r.kind != ReportKind::HeldAcrossWait
                    || (o.held_site == r.held_site && o.acquire_site == r.acquire_site))
        };
        if !self.reports.iter().any(repeats) {
            self.reports.push(r);
        }
    }
}

/// RAII token marking one acquisition on the current thread's held stack.
/// Must be dropped on the acquiring thread (it is `!Send`); guards of the
/// instrumented wrappers carry it automatically.
struct HeldToken {
    entry: HeldEntry,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for HeldToken {
    fn drop(&mut self) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            // Guards may drop out of LIFO order; search from the top.
            if let Some(pos) = held.iter().rposition(|h| h.same(&self.entry)) {
                held.remove(pos);
            }
        });
    }
}

/// One edge of the graph as the exports show it: its classes, its
/// acquisition count and its first witness.
type Edge = ((usize, usize), u64, EdgeInfo);

/// The graph edges, in class-pair order, and the reports of the calling
/// thread's executor.
fn snapshot() -> (Vec<Edge>, Vec<LockdepReport>) {
    with_witness(|w| {
        let g = w.graph.lock();
        let edges = g
            .edges
            .iter()
            .map(|(&(from, to), &info)| {
                let count = w.counts[from][to].load(Ordering::Relaxed);
                ((from, to), count, info)
            })
            .collect();
        (edges, g.reports.clone())
    })
    .unwrap_or_default()
}

/// DOT rendering of the acquired-while-held class graph of the calling
/// thread's executor; labels carry counts.
pub fn graph_dot() -> String {
    let mut out = String::from("digraph lockdep {\n  rankdir=LR;\n  node [shape=box];\n");
    for ((from, to), count, _) in snapshot().0 {
        out.push_str(&format!(
            "  \"{}\" -> \"{}\" [label=\"{}\"];\n",
            LockClass::ALL[from].name(),
            LockClass::ALL[to].name(),
            count,
        ));
    }
    out.push_str("}\n");
    out
}

/// JSON rendering of the graph plus all reports of the calling thread's
/// executor (the `lockgraph.json` of `fastiovctl observe`). An edge's
/// witness sites are named by file only, so a commit that moves a line
/// leaves the graph's bytes alone; a report keeps `file:line`.
pub fn graph_json() -> String {
    let (edges, reports) = snapshot();
    let mut out = String::from("{\n  \"edges\": [\n");
    for (i, &((from, to), count, info)) in edges.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"from\": \"{}\", \"to\": \"{}\", \"count\": {}, \
             \"holder_site\": \"{}\", \"acquire_site\": \"{}\"}}{}\n",
            LockClass::ALL[from].name(),
            LockClass::ALL[to].name(),
            count,
            info.holder_site.file(),
            info.acquire_site.file(),
            if i + 1 == edges.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"reports\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let acquired = r
            .acquired_class
            .map_or("null".to_string(), |c| format!("\"{c}\""));
        out.push_str(&format!(
            "    {{\"kind\": \"{}\", \"held_class\": \"{}\", \"acquired_class\": {}, \
             \"held_site\": \"{}\", \"acquire_site\": \"{}\"}}{}\n",
            r.kind,
            r.held_class,
            acquired,
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
    /// Time between acquisition and release, minus condvar parking, of
    /// a serializer class ([`LockClass::is_serializer`]); always 0 for
    /// any other class, whose holds are counted but not timed.
    pub hold_ns: u64,
    /// Acquisitions.
    pub acquisitions: u64,
    /// Acquisitions whose try-lock fast path failed.
    pub contended: u64,
}

/// One class's counters.
#[derive(Default)]
struct ClassStat {
    acquisitions: AtomicU64,
    contended: AtomicU64,
    wait_ns: AtomicU64,
    hold_ns: AtomicU64,
}

impl LockClass {
    /// Totals of every acquisition of a lock of this class on the
    /// calling thread's executor since its clock was created; zero on a
    /// thread in no executor. Counters only grow; diff two reads to
    /// measure a phase.
    pub fn stats(self) -> LockSnapshot {
        with_witness(|w| {
            let s = &w.stats[self.index()];
            LockSnapshot {
                wait_ns: s.wait_ns.load(Ordering::Relaxed),
                hold_ns: s.hold_ns.load(Ordering::Relaxed),
                acquisitions: s.acquisitions.load(Ordering::Relaxed),
                contended: s.contended.load(Ordering::Relaxed),
            }
        })
        .unwrap_or_default()
    }
}

/// Adds one contended acquisition of `class`, which waited `ns` real
/// nanoseconds, to the statistics of the calling thread's executor.
fn count_wait(class: LockClass, ns: u64) {
    with_witness(|w| {
        let stat = &w.stats[class.index()];
        stat.contended.fetch_add(1, Ordering::Relaxed);
        stat.wait_ns.fetch_add(ns, Ordering::Relaxed);
    });
}

/// The running hold time of one acquisition; adds it to its class's
/// `hold_ns` when dropped. Declared before the lock hold it times, so
/// that it stops just before the lock is released. Only a serializer's
/// hold is timed (see the module docs); any other reads no clock.
struct HoldTimer {
    class: LockClass,
    since: Option<WallStopwatch>,
}

impl HoldTimer {
    fn start(class: LockClass) -> Self {
        HoldTimer {
            class,
            since: class.is_serializer().then(WallStopwatch::start),
        }
    }

    /// Adds the running hold to the class's `hold_ns` and stops the
    /// timer until [`HoldTimer::restart`].
    fn record(&mut self) {
        if let Some(since) = self.since.take() {
            let ns = since.elapsed_ns();
            with_witness(|w| {
                w.stats[self.class.index()]
                    .hold_ns
                    .fetch_add(ns, Ordering::Relaxed)
            });
        }
    }

    fn restart(&mut self) {
        *self = HoldTimer::start(self.class);
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

/// Takes `lock` in `mode` for a wrapper of `class` called at `site`:
/// records and counts the acquisition in the witness, then takes the
/// lock. Only if the fast path fails does it wait, with the wait timed
/// and counted.
fn take<'a>(
    lock: &'a RawLock,
    class: LockClass,
    mode: Mode,
    site: &'static Location<'static>,
) -> (HeldToken, RawHold<'a>, HoldTimer) {
    let entry = HeldEntry { class, mode, site };
    let dep = acquire(entry);
    if !lock.try_lock(mode) {
        let waited = WallStopwatch::start();
        lock.lock(entry, site);
        count_wait(class, waited.elapsed_ns());
    }
    (dep, RawHold { lock, mode }, HoldTimer::start(class))
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
    dep: HeldToken,
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
}

impl<T: ?Sized> TrackedMutex<T> {
    /// Acquires the lock, recording it in the witness and the class
    /// statistics of the calling thread's executor.
    #[track_caller]
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        let (dep, raw, hold) = take(&self.raw, self.class, Mode::Exclusive, Location::caller());
        TrackedMutexGuard {
            dep,
            hold,
            raw,
            data: &self.data,
        }
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
    _dep: HeldToken,
    _hold: HoldTimer,
    _raw: RawHold<'a>,
    data: &'a UnsafeCell<T>,
}

/// Guard of [`TrackedRwLock::write`].
pub struct TrackedWriteGuard<'a, T: ?Sized> {
    _dep: HeldToken,
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
    /// Shared acquisition.
    #[track_caller]
    pub fn read(&self) -> TrackedReadGuard<'_, T> {
        let (_dep, _raw, _hold) = take(&self.raw, self.class, Mode::Shared, Location::caller());
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
        let (_dep, _raw, _hold) = take(&self.raw, self.class, Mode::Exclusive, Location::caller());
        TrackedWriteGuard {
            _dep,
            _hold,
            _raw,
            data: &self.data,
        }
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
/// condvar sleeps; the serializer rule exempts it, since the wait
/// releases the mutex. The hold time, however, pauses while parked.
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
            on: WaitOn::Condvar(guard.dep.entry),
            site,
        };
        me.block(wait, || {
            let mut waiters = self.waiters.lock();
            let before = waiters.len();
            waiters.retain(|s| !Arc::ptr_eq(s, &me));
            waiters.len() < before
        });
        guard.raw.lock.lock(guard.dep.entry, site);
        guard.hold.restart();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spawn, Clock};
    use std::time::Duration;

    // Each test starts its own clock, so the witness and counters it
    // reads are its own.

    #[test]
    fn cycle_between_two_classes_reported() {
        let _clock = Clock::new_virtual(1.0);
        let a = TrackedMutex::new(LockClass::PoolSlots, ());
        let b = TrackedMutex::new(LockClass::AppStorage, ());
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
        assert!(r[0].detail.contains("app-storage -> pool-slots"));
    }

    #[test]
    fn only_a_serializer_may_be_held_across_a_wait() {
        let clock = Clock::new_virtual(1.0);
        let us = Duration::from_micros(1);
        let bookkeeping = TrackedMutex::new(LockClass::FastiovdTier1, ());
        let line = line!() + 2;
        for _ in 0..3 {
            let _g = bookkeeping.lock();
            clock.sleep(us);
        }
        let r = reports();
        assert_eq!(r.len(), 1, "one per (class, hold site, wait site): {r:?}");
        let kind = (r[0].kind, r[0].held_class, r[0].acquired_class);
        assert_eq!(
            kind,
            (ReportKind::HeldAcrossWait, LockClass::FastiovdTier1, None)
        );
        let sites = [r[0].held_site.clone(), r[0].acquire_site.clone()];
        assert_eq!(sites, [line, line + 1].map(|l| format!("{}:{l}", file!())));
        let text = r[0].to_string();
        assert!(
            text.contains("blocked on a timer while holding fastiovd-tier1"),
            "{text}"
        );

        // A serializer may be held across the same wait.
        let serializer = TrackedMutex::new(LockClass::Rtnl, ());
        {
            let _g = serializer.lock();
            clock.sleep(us);
        }
        // So may a condvar's own mutex, which the wait releases.
        let shared = Arc::new((
            TrackedMutex::new(LockClass::GuestNet, false),
            TrackedCondvar::new(),
        ));
        let s = Arc::clone(&shared);
        let waiter = spawn(&clock, "waiter", move || {
            let (m, cv) = &*s;
            let mut ready = m.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
        });
        clock.sleep(us);
        let (m, cv) = &*shared;
        *m.lock() = true;
        cv.notify_all();
        waiter.join().expect("waiter");
        assert_eq!(reports().len(), 1, "{:?}", reports());
    }

    #[test]
    fn hierarchy_inversion_reported() {
        let _clock = Clock::new_virtual(1.0);
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
    fn a_thread_in_no_executor_records_nothing() {
        let seen = std::thread::spawn(|| {
            let parent = TrackedRwLock::new(LockClass::DevsetParent, ());
            let child = TrackedMutex::new(LockClass::DevsetChild, ());
            let _c = child.lock();
            let _p = parent.write();
            (reports().len(), graph_dot(), LockClass::DevsetChild.stats())
        })
        .join()
        .expect("plain thread");
        let empty = "digraph lockdep {\n  rankdir=LR;\n  node [shape=box];\n}\n";
        assert_eq!(seen, (0, empty.to_string(), LockSnapshot::default()));
    }

    #[test]
    fn a_read_edge_that_closes_a_cycle_is_reported() {
        let _clock = Clock::new_virtual(1.0);
        // Parent (read) then cgroup; cgroup then parent (read). Readers
        // do not block readers, but grants are FIFO: if A holds the parent
        // for read and waits for cgroup, B holds cgroup, and a writer C
        // queues on the parent before B asks for it, B's read waits
        // behind C, C behind A, and A behind B. A deadlock, so a cycle.
        let parent = TrackedRwLock::new(LockClass::DevsetParent, ());
        let cgroup = TrackedMutex::new(LockClass::Cgroup, ());
        {
            let _p = parent.read();
            let _c = cgroup.lock();
        }
        assert!(reports().is_empty(), "one order alone is fine");
        {
            let _c = cgroup.lock();
            let _p = parent.read();
        }
        let r = reports();
        assert_eq!(r.len(), 1, "{r:?}");
        assert_eq!(r[0].kind, ReportKind::PotentialDeadlock);
        assert!(
            r[0].detail.contains("cgroup -> devset-parent -> cgroup"),
            "{r:?}"
        );
    }

    #[test]
    fn graph_exports_name_sites() {
        let _clock = Clock::new_virtual(1.0);
        let a = TrackedMutex::new(LockClass::VfioContainer, ());
        let b = TrackedMutex::new(LockClass::IommuTable, ());
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        let dot = graph_dot();
        assert!(
            dot.contains("\"vfio-container\" -> \"iommu-table\""),
            "{dot}"
        );
        // Edge sites are files, not lines, so moving a line keeps the bytes.
        let json = graph_json();
        let sites = format!(
            "\"holder_site\": \"{f}\", \"acquire_site\": \"{f}\"",
            f = file!()
        );
        assert!(json.contains("\"from\": \"vfio-container\""), "{json}");
        assert!(json.contains(&sites), "{json}");
        assert!(!json.contains("lockdep.rs:"), "{json}");
    }

    #[test]
    fn uncontended_acquisitions_count_without_wait() {
        let _clock = Clock::new_virtual(1.0);
        let m = TrackedMutex::new(LockClass::Test, 0u32);
        for _ in 0..5 {
            *m.lock() += 1;
        }
        let s = LockClass::Test.stats();
        assert_eq!((s.acquisitions, s.contended, s.wait_ns), (5, 0, 0));
    }

    #[test]
    fn contended_acquisition_records_wait() {
        let clock = Clock::new_virtual(1.0);
        let m = Arc::new(TrackedMutex::new(LockClass::Test, ()));
        let (c, held) = (clock.clone(), Arc::clone(&m));
        let holder = spawn(&clock, "holder", move || {
            let _g = held.lock();
            c.sleep(Duration::from_millis(20));
        });
        // The holder takes the lock while the driver sleeps, so the
        // driver's try-lock fast path must fail.
        clock.sleep(Duration::from_millis(1));
        drop(m.lock());
        holder.join().expect("holder");
        let s = LockClass::Test.stats();
        assert_eq!((s.acquisitions, s.contended), (2, 1));
        assert!(s.wait_ns > 0);
    }

    #[test]
    fn hold_is_recorded_for_lock_read_and_write() {
        let _clock = Clock::new_virtual(1.0);
        let hold = Duration::from_millis(2);
        let ns = hold.as_nanos() as u64;

        let m = TrackedMutex::new(LockClass::Test, ());
        {
            let _g = m.lock();
            std::thread::sleep(hold);
        }
        assert!(LockClass::Test.stats().hold_ns >= ns);

        let class = LockClass::DevsetParent;
        let rw = TrackedRwLock::new(class, ());
        {
            let _r = rw.read();
            std::thread::sleep(hold);
        }
        let after_read = class.stats();
        assert!(after_read.hold_ns >= ns);
        {
            let _w = rw.write();
            std::thread::sleep(hold);
        }
        let after_write = class.stats();
        assert!(after_write.hold_ns - after_read.hold_ns >= ns);
        assert_eq!(after_write.acquisitions, 2);
    }

    #[test]
    fn bookkeeping_holds_are_counted_not_timed() {
        let _clock = Clock::new_virtual(1.0);
        let class = LockClass::KvmVm;
        assert!(!class.is_serializer());
        let m = TrackedMutex::new(class, ());
        let rw = TrackedRwLock::new(class, ());
        {
            let _g = m.lock();
            let _r = rw.read();
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(rw.write());
        let s = class.stats();
        assert_eq!((s.acquisitions, s.contended, s.hold_ns), (3, 0, 0));
    }

    #[test]
    fn a_hold_across_a_resource_names_the_callers_wait_site() {
        let clock = Clock::new_virtual(1.0);
        let cpu = crate::CpuPool::new(clock.clone(), 1);
        let membw = crate::FairShareBandwidth::new(clock.clone(), 1e9, 1e9);
        let bookkeeping = TrackedMutex::new(LockClass::HostMmu, ());
        let run_line = line!() + 3;
        {
            let _g = bookkeeping.lock();
            cpu.run(Duration::from_micros(1));
        }
        let r = reports();
        assert_eq!(r.len(), 1, "{r:?}");
        let sites = [r[0].held_site.clone(), r[0].acquire_site.clone()];
        assert_eq!(
            sites,
            [run_line - 1, run_line].map(|l| format!("{}:{l}", file!()))
        );

        // A sliced transfer sleeps four times at one site: one report.
        let transfer_line = line!() + 3;
        {
            let _g = bookkeeping.lock();
            membw.transfer(10_000_000);
        }
        let r = reports();
        assert_eq!(r.len(), 2, "{r:?}");
        assert_eq!(r[1].acquire_site, format!("{}:{transfer_line}", file!()));
    }

    #[test]
    fn condvar_parking_is_not_hold() {
        let clock = Clock::new_virtual(1.0);
        let parked = Duration::from_millis(100);
        let shared = Arc::new((
            TrackedMutex::new(LockClass::Test, false),
            TrackedCondvar::new(),
        ));
        let s = Arc::clone(&shared);
        let waiter = spawn(&clock, "waiter", move || {
            let sw = WallStopwatch::start();
            let (m, cv) = &*s;
            let mut ready = m.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
            sw.elapsed()
        });
        // The waiter parks on the condvar while the driver sleeps, then
        // stays parked for `parked` of real time.
        clock.sleep(Duration::from_millis(1));
        std::thread::sleep(parked);
        let (m, cv) = &*shared;
        *m.lock() = true;
        cv.notify_all();
        let waited = waiter.join().expect("waiter");
        let s = LockClass::Test.stats();
        assert!(waited >= parked / 2, "waiter never parked: {waited:?}");
        assert_eq!(s.acquisitions, 2);
        let hold = Duration::from_nanos(s.hold_ns);
        assert!(hold < parked / 2, "parked time counted as hold: {hold:?}");
    }

    #[test]
    fn out_of_order_guard_drop_keeps_stack_consistent() {
        let a = TrackedMutex::new(LockClass::Test, ());
        let b = TrackedMutex::new(LockClass::AppStorage, ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // non-LIFO
        drop(gb);
        HELD.with(|h| assert!(h.borrow().is_empty()));
    }
}
