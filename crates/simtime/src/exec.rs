//! The discrete-event executor behind every virtual [`Clock`].
//!
//! Each virtual clock owns one executor. The threads it schedules are the
//! clock's *driver* (the thread that created the clock, usually by
//! building a host) and every task started on it with [`spawn`] or
//! [`spawn_daemon`]. They take turns holding one baton: exactly one of
//! them runs at a time. A thread hands the baton on only at a blocking
//! point — [`Clock::sleep`], a wait on a tracked lock or condvar or for a
//! [`CpuPool`](crate::CpuPool) core, a
//! [`Receiver::recv`](crate::Receiver::recv) or a [`JoinHandle::join`] —
//! and it hands it through the executor's own queues, so no wake-up is
//! ever in flight in the OS scheduler while simulated time moves. When no
//! thread can run, time jumps to the earliest pending timer. Runnable
//! threads are served in FIFO order and equal timers in the order they
//! were set, so a run is a deterministic function of its inputs.
//!
//! A thread belongs to one executor at a time: creating a virtual clock
//! leaves the executor the thread drove or ran on before. Each executor
//! also owns its clock's instruments: the lock witness and lock
//! statistics ([`lockdep`](crate::lockdep)), into which a thread records
//! the acquisitions it makes while it belongs to the executor, and the
//! span log of [`Clock::tracer`], into which any thread records the spans
//! it opens on the clock. A task started on a clock that paces in real
//! time still belongs to it for the witness's purpose, though it is never
//! scheduled. A thread's span nesting state belongs to its membership.
//!
//! **Pooled workers.** A task runs on a *worker*: an OS thread that runs
//! tasks one after another, taken from a process-wide stack of idle
//! workers (the most recently idle first) or started when the stack is
//! empty. When a task ends, its worker goes back on the stack before the
//! baton moves on, so on a virtual clock the next spawn always finds it,
//! whatever the OS scheduler does. A worker finding the stack full
//! ([`MAX_IDLE_WORKERS`]) retires instead: it leaves its thread's handle
//! to the pool and exits, and the next spawn that has to start a thread
//! joins every retired worker first, so their stacks are back in the C
//! library's stack cache. The bound covers a warm-pool host's peak of
//! live tasks, so a host built after another starts no thread; once a
//! wave outgrows it, the pool keeps only [`IDLE_WORKERS_AFTER_OVERFLOW`].
//! What the idle workers' malloc caches would strand is paid for by
//! capping the process at [`MALLOC_ARENAS`] malloc arenas. Every task
//! starts with clean per-thread state: the membership of its own clock
//! only, with no span nesting state, so its first span opens a fresh
//! track, and an empty lockdep held-lock stack. The OS thread is named
//! after the worker, not the task; the task's name appears in deadlock
//! reports.
//!
//! **One core per clock.** Since only the baton holder runs, a virtual
//! clock's threads are pinned to one CPU (on Linux; elsewhere this is a
//! no-op), so a hand-off is a same-core switch rather than a wake-up sent
//! to another, idle core. CPUs come from the *allowed set*: the affinity
//! of the first thread in the process to create a virtual clock, read
//! before any pinning. A thread's first clock takes the next allowed CPU
//! round-robin, and the clocks it creates later keep that CPU: clocks
//! driven from different threads spread over the cores, and a driver
//! that builds host after host is never migrated. The driver is pinned
//! when it creates the clock and gets the allowed set back when its
//! membership ends. A worker takes its task's clock's pin when the task
//! starts (the allowed set for a clock that paces in real time), with a
//! syscall only when that differs from the affinity it last gave itself.
//! With a single allowed CPU nothing is pinned.
//!
//! **Fallback.** A thread the simulation did not start (a plain
//! `std::thread`) that sleeps on a virtual clock, or spawns onto it,
//! cannot take part in the baton protocol. The clock then switches to
//! wall pacing for good, keeping the simulated time it has reached: every
//! later sleep blocks for `sim × scale` real seconds, as on a clock made
//! with [`Clock::with_scale`], and every thread of the clock runs freely.
//! Every member gets the allowed set back at the switch, and so does each
//! outside thread that carries the clock's pin (a plain thread started by
//! a member inherits it) when it first sleeps on or spawns onto the
//! clock, so no wall-paced work stays confined to one core.
//!
//! **Deadlock report.** If every thread of a virtual clock is blocked, no
//! timer is pending and the clock has not fallen back, the last thread to
//! block waits [`DEADLOCK_GRACE`] of real time for a thread outside the
//! simulation to wake one of them, then panics with one line per blocked
//! thread: its name, what it waits on and the `file:line` of the wait.

use crate::clock::Clock;
use crate::lockdep::{HeldEntry, Mode, Witness};
use crate::tracer::{ThreadTrace, TraceLog};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::panic::Location;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// The slot id of a thread started on a clock that paces in real time: a
/// member for the lock witness, never a task of the scheduler.
const UNSCHEDULED: u64 = u64::MAX;

/// Real time the last thread to block on a stuck virtual clock waits for
/// an outside wake-up before it reports a deadlock.
pub(crate) const DEADLOCK_GRACE: Duration = Duration::from_secs(2);

/// CPU affinity of the threads of virtual clocks (see the module docs),
/// through the `sched_{get,set}affinity` of the C library std links.
#[cfg(target_os = "linux")]
mod affinity {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::OnceLock;

    /// A kernel thread id.
    pub(super) type Tid = i32;

    /// The C library's `cpu_set_t`: one bit per CPU, for 1024 CPUs.
    #[repr(C)]
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub(crate) struct CpuSet([u64; 16]);

    extern "C" {
        fn gettid() -> Tid;
        fn sched_getaffinity(tid: Tid, size: usize, set: *mut CpuSet) -> i32;
        fn sched_setaffinity(tid: Tid, size: usize, set: *const CpuSet) -> i32;
    }

    thread_local! {
        /// The affinity the calling thread last gave itself, if no other
        /// thread may have changed it since.
        static APPLIED: Cell<Option<CpuSet>> = const { Cell::new(None) };
    }

    impl CpuSet {
        /// The affinity of the calling thread.
        pub(crate) fn current() -> Option<CpuSet> {
            let mut set = CpuSet([0; 16]);
            // SAFETY: `set` is a writable `cpu_set_t` of the size passed;
            // tid 0 names the calling thread.
            let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
            (rc == 0).then_some(set)
        }

        /// Applies the set to thread `tid` (the calling thread if `None`);
        /// false if the kernel refused.
        fn apply(&self, tid: Option<Tid>) -> bool {
            // SAFETY: `self` is a `cpu_set_t` of the size passed, only read.
            let ok = unsafe {
                sched_setaffinity(tid.unwrap_or(0), std::mem::size_of::<CpuSet>(), self) == 0
            };
            if ok && tid.is_none() {
                APPLIED.set(Some(*self));
            }
            ok
        }

        /// The CPUs in the set, in ascending order.
        pub(crate) fn cpus(&self) -> impl Iterator<Item = usize> + '_ {
            (0..self.0.len() * 64).filter(|&c| self.0[c / 64] >> (c % 64) & 1 == 1)
        }
    }

    /// The allowed set: the affinity of the first thread to ask, which is
    /// the first to create a virtual clock, before any pinning.
    pub(crate) fn allowed() -> Option<&'static CpuSet> {
        static ALLOWED: OnceLock<Option<CpuSet>> = OnceLock::new();
        ALLOWED.get_or_init(CpuSet::current).as_ref()
    }

    /// Pins the calling thread to its CPU and returns the pin; `None` if
    /// there is only one CPU to run on or the kernel refused. A thread's
    /// first clock takes the next allowed CPU round-robin, and its later
    /// clocks keep that CPU, so a driver that builds host after host is
    /// never migrated.
    pub(super) fn pin_next() -> Option<CpuSet> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static CPU: Cell<Option<usize>> = const { Cell::new(None) };
        }
        let allowed = allowed()?;
        let n = allowed.cpus().count();
        if n < 2 {
            return None;
        }
        let cpu = match CPU.get() {
            Some(cpu) => cpu,
            None => allowed
                .cpus()
                .nth(NEXT.fetch_add(1, Ordering::Relaxed) % n)?,
        };
        CPU.set(Some(cpu));
        let mut pin = CpuSet([0; 16]);
        pin.0[cpu / 64] = 1 << (cpu % 64);
        pin.apply(None).then_some(pin)
    }

    /// The calling thread's kernel id.
    pub(super) fn tid() -> Tid {
        // SAFETY: gettid has no preconditions.
        unsafe { gettid() }
    }

    /// Gives thread `tid` (the calling thread if `None`) the allowed set.
    pub(super) fn unpin(tid: Option<Tid>) {
        if let Some(allowed) = allowed() {
            allowed.apply(tid);
        }
    }

    /// Gives the calling thread `pin` (the allowed set if `None`), with a
    /// syscall only if that is not the affinity it last gave itself.
    pub(super) fn take(pin: Option<&CpuSet>) {
        if let Some(set) = pin.or(allowed()) {
            if APPLIED.get().as_ref() != Some(set) {
                set.apply(None);
            }
        }
    }

    /// Forgets the calling thread's last affinity: another thread may have
    /// changed it.
    pub(super) fn forget() {
        APPLIED.set(None);
    }

    /// Gives the calling thread the allowed set if it runs on `pin` alone.
    /// Checked once per thread: a thread not started by a member never
    /// carries a pin, and a member's own pin is undone when it leaves.
    pub(super) fn release_inherited(pin: &CpuSet) {
        thread_local! {
            static CHECKED: Cell<bool> = const { Cell::new(false) };
        }
        if !CHECKED.replace(true) && CpuSet::current().as_ref() == Some(pin) {
            unpin(None);
        }
    }
}

/// Off Linux no thread is pinned: a clock's pin is always `None`.
#[cfg(not(target_os = "linux"))]
mod affinity {
    pub(super) type Tid = i32;

    #[derive(Clone, Copy, PartialEq, Eq)]
    pub(super) enum CpuSet {}

    pub(super) fn pin_next() -> Option<CpuSet> {
        None
    }

    pub(super) fn tid() -> Tid {
        0
    }

    pub(super) fn unpin(_: Option<Tid>) {}

    pub(super) fn take(_: Option<&CpuSet>) {}

    pub(super) fn forget() {}

    pub(super) fn release_inherited(_: &CpuSet) {}
}

/// What a blocked thread waits on, for the deadlock report and the lock
/// witness.
#[derive(Debug, Clone)]
pub(crate) enum WaitOn {
    Sleep,
    /// The acquisition being waited for.
    Lock(HeldEntry),
    Semaphore,
    /// The acquisition of the condvar's mutex, which the wait releases.
    Condvar(HeldEntry),
    Join(Arc<str>),
    Recv,
}

impl fmt::Display for WaitOn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitOn::Sleep => f.write_str("a timer"),
            WaitOn::Lock(e) if e.mode == Mode::Exclusive => write!(f, "lock {}", e.class),
            WaitOn::Lock(e) => write!(f, "lock {} (shared)", e.class),
            WaitOn::Semaphore => f.write_str("a semaphore"),
            WaitOn::Condvar(_) => f.write_str("a condvar"),
            WaitOn::Join(name) => write!(f, "join of `{name}`"),
            WaitOn::Recv => f.write_str("a channel receive"),
        }
    }
}

/// A blocking point: what is waited on, and where.
#[derive(Debug, Clone)]
pub(crate) struct Wait {
    pub(crate) on: WaitOn,
    pub(crate) site: &'static Location<'static>,
}

/// The parking place of one thread. A thread of a virtual clock has one
/// per membership (its `exec` is that clock's executor); any other thread
/// gets a standalone one on first use.
pub(crate) struct Slot {
    exec: Option<Arc<Exec>>,
    id: u64,
    ready: std::sync::Mutex<bool>,
    cv: Condvar,
}

impl Slot {
    fn new(exec: Option<Arc<Exec>>, id: u64) -> Arc<Slot> {
        Arc::new(Slot {
            exec,
            id,
            ready: std::sync::Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn unpark(&self) {
        *self.ready.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.cv.notify_one();
    }

    fn park(&self) {
        let mut ready = self.ready.lock().unwrap_or_else(PoisonError::into_inner);
        while !*ready {
            ready = self.cv.wait(ready).unwrap_or_else(PoisonError::into_inner);
        }
        *ready = false;
    }

    /// Parks for at most `timeout`; true if woken.
    fn park_timeout(&self, timeout: Duration) -> bool {
        let ready = self.ready.lock().unwrap_or_else(PoisonError::into_inner);
        let (mut ready, _) = self
            .cv
            .wait_timeout_while(ready, timeout, |r| !*r)
            .unwrap_or_else(PoisonError::into_inner);
        std::mem::take(&mut *ready)
    }

    fn belongs_to(&self, exec: &Arc<Exec>) -> bool {
        self.exec.as_ref().is_some_and(|e| Arc::ptr_eq(e, exec))
    }

    /// Blocks the calling thread, whose slot this is, until [`Slot::wake`].
    /// The caller has already queued the slot on the primitive it waits
    /// on. `cancel` takes it off that queue again and returns false if a
    /// waker took it first; it runs only before a deadlock panic.
    pub(crate) fn block(self: &Arc<Self>, wait: Wait, cancel: impl FnOnce() -> bool) {
        match &self.exec {
            Some(exec) => exec.block(self, wait, None, cancel),
            None => self.park(),
        }
    }

    /// Makes the thread parked in [`Slot::block`] runnable.
    pub(crate) fn wake(self: &Arc<Self>) {
        match &self.exec {
            Some(exec) => exec.wake(self),
            None => self.unpark(),
        }
    }
}

/// The calling thread's membership. Dropping it (thread exit, or the
/// thread creating another virtual clock) leaves the executor.
struct Member {
    slot: Arc<Slot>,
    /// A driver this membership pinned: it gets the allowed set back on
    /// leaving.
    pinned: bool,
    /// The thread's open spans, VM scopes and tracks: a new membership
    /// starts without any.
    trace: ThreadTrace,
}

impl Member {
    fn new(slot: Arc<Slot>, pinned: bool) -> Member {
        Member {
            slot,
            pinned,
            trace: ThreadTrace::default(),
        }
    }
}

impl Drop for Member {
    fn drop(&mut self) {
        if let Some(exec) = &self.slot.exec {
            exec.exit(&self.slot);
        }
        if self.pinned {
            affinity::unpin(None);
        }
    }
}

thread_local! {
    static MEMBER: RefCell<Option<Member>> = const { RefCell::new(None) };
}

/// Runs `f` on the lock witness of the calling thread's executor; `None`
/// for a thread in no executor.
pub(crate) fn with_witness<R>(f: impl FnOnce(&Witness) -> R) -> Option<R> {
    MEMBER
        .try_with(|m| Some(f(&m.borrow().as_ref()?.slot.exec.as_ref()?.witness)))
        .ok()
        .flatten()
}

/// Runs `f` on the calling thread's membership, created standalone (in
/// no executor) on first use; `None` once the thread's locals are gone.
fn with_member<R>(f: impl FnOnce(&mut Member) -> R) -> Option<R> {
    let standalone = || Member::new(Slot::new(None, 0), false);
    MEMBER
        .try_with(|m| f(m.borrow_mut().get_or_insert_with(standalone)))
        .ok()
}

/// The calling thread's slot, created standalone on first use.
pub(crate) fn current_slot() -> Arc<Slot> {
    with_member(|m| Arc::clone(&m.slot)).unwrap_or_else(|| Slot::new(None, 0))
}

/// Runs `f` on the calling thread's span nesting state.
pub(crate) fn with_thread_trace<R: Default>(f: impl FnOnce(&mut ThreadTrace) -> R) -> R {
    with_member(|m| f(&mut m.trace)).unwrap_or_default()
}

/// Makes `slot` the calling thread's membership, leaving the previous one.
fn enter(slot: Arc<Slot>, pinned: bool) {
    let old = MEMBER.with(|m| m.borrow_mut().replace(Member::new(slot, pinned)));
    drop(old);
}

/// Leaves the calling thread's membership, if any.
fn leave() {
    let old = MEMBER.try_with(|m| m.borrow_mut().take()).ok().flatten();
    drop(old);
}

struct Task {
    name: Arc<str>,
    daemon: bool,
    waiting: Option<Wait>,
    /// The OS thread, once known, on a pinned clock: a fallback gives it
    /// the allowed set back.
    tid: Option<affinity::Tid>,
}

/// Baton traffic of a virtual clock's executor since the clock was
/// created ([`Clock::exec_stats`]). Every count is a deterministic
/// function of the run, like its simulated times.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Dispatches that gave the baton to another thread than the one
    /// giving it up: each costs an OS wake-up and a context switch.
    pub handoffs: u64,
    /// Dispatches that gave the baton straight back to the thread that
    /// blocked (it was next to run), with no OS switch at all.
    pub self_resumes: u64,
    /// Dispatches that found no thread runnable and took the earliest
    /// timer, moving simulated time to its deadline.
    pub timer_jumps: u64,
}

#[derive(Default)]
struct State {
    /// The baton holder.
    running: Option<u64>,
    runnable: VecDeque<Arc<Slot>>,
    /// Sleepers by (deadline in simulated ns, order set).
    timers: BTreeMap<(u64, u64), Arc<Slot>>,
    next_seq: u64,
    next_id: u64,
    tasks: BTreeMap<u64, Task>,
    /// Registered threads that are not daemons.
    live: usize,
    stats: ExecStats,
}

/// One clock's time base and, while it is virtual, its scheduler.
pub(crate) struct Exec {
    scale: f64,
    /// Simulated nanoseconds reached; only the baton holder advances it.
    now_ns: AtomicU64,
    /// Set once the clock paces in real time: the instant it switched and
    /// the simulated nanoseconds it had reached then.
    wall: OnceLock<(Instant, u64)>,
    state: Mutex<State>,
    /// The one CPU the clock's threads run on while it is virtual; `None`
    /// if nothing was pinned.
    pin: Option<affinity::CpuSet>,
    /// The lock witness and lock statistics of the clock's threads.
    witness: Witness,
    /// The spans opened on the clock, by any thread.
    pub(crate) trace: TraceLog,
}

impl Exec {
    /// A wall-paced time base from simulated zero.
    pub(crate) fn wall(scale: f64) -> Arc<Exec> {
        let exec = Exec::new(scale, None);
        let _ = exec.wall.set((Instant::now(), 0));
        exec
    }

    /// A virtual time base whose driver is the calling thread, pinned to
    /// the clock's CPU.
    pub(crate) fn new_virtual(scale: f64) -> Arc<Exec> {
        leave();
        let exec = Exec::new(scale, affinity::pin_next());
        let slot = exec
            .register("driver".into(), false, true)
            .expect("invariant: a new executor is virtual");
        enter(slot, exec.pin.is_some());
        exec
    }

    fn new(scale: f64, pin: Option<affinity::CpuSet>) -> Arc<Exec> {
        static ARENAS: std::sync::Once = std::sync::Once::new();
        ARENAS.call_once(limit_malloc_arenas);
        Arc::new(Exec {
            scale,
            now_ns: AtomicU64::new(0),
            wall: OnceLock::new(),
            state: Mutex::new(State::default()),
            pin,
            witness: Witness::default(),
            trace: TraceLog::default(),
        })
    }

    pub(crate) fn stats(&self) -> ExecStats {
        self.state.lock().stats
    }

    pub(crate) fn scale(&self) -> f64 {
        self.scale
    }

    pub(crate) fn is_virtual(&self) -> bool {
        self.wall.get().is_none()
    }

    pub(crate) fn now(&self) -> Duration {
        match self.wall.get() {
            Some(&(since, base)) => {
                Duration::from_nanos(base)
                    + Duration::from_secs_f64(since.elapsed().as_secs_f64() / self.scale)
            }
            None => Duration::from_nanos(self.now_ns.load(Ordering::Acquire)),
        }
    }

    /// Sleeps the calling thread for `sim` of simulated time: on the
    /// executor if it is a thread of this virtual clock, else in real time
    /// (switching a virtual clock to wall pacing first).
    pub(crate) fn sleep(self: &Arc<Self>, sim: Duration, site: &'static Location<'static>) {
        if self.is_virtual() {
            let me = current_slot();
            if me.belongs_to(self) {
                let at = self
                    .now_ns
                    .load(Ordering::Acquire)
                    .saturating_add(u64::try_from(sim.as_nanos()).unwrap_or(u64::MAX));
                let wait = Wait {
                    on: WaitOn::Sleep,
                    site,
                };
                self.block(&me, wait, Some(at), || true);
                // Fell back mid-sleep: pace the rest in real time.
                let rest = Duration::from_nanos(at).saturating_sub(self.now());
                self.pace(rest);
                return;
            }
            self.fall_back();
        }
        self.release_outsider();
        self.pace(sim);
    }

    /// Blocks for `sim × scale` of real time. Sub-microsecond real sleeps
    /// are skipped: they are below OS timer resolution and only add noise.
    fn pace(&self, sim: Duration) {
        let real = Duration::from_secs_f64(sim.as_secs_f64() * self.scale);
        if real >= Duration::from_micros(1) {
            std::thread::sleep(real);
        }
    }

    /// Switches the clock to wall pacing from its current simulated time
    /// and lets every thread it holds back run freely, on every allowed
    /// CPU.
    pub(crate) fn fall_back(&self) {
        let mut st = self.state.lock();
        if self.wall.get().is_some() {
            return;
        }
        let _ = self
            .wall
            .set((Instant::now(), self.now_ns.load(Ordering::Acquire)));
        // Under the lock: a member leaves only through `exit`, so every
        // recorded thread is still alive.
        for tid in st.tasks.values().filter_map(|t| t.tid) {
            affinity::unpin(Some(tid));
        }
        st.running = None;
        let mut release: Vec<Arc<Slot>> = st.runnable.drain(..).collect();
        release.extend(std::mem::take(&mut st.timers).into_values());
        drop(st);
        for slot in release {
            slot.unpark();
        }
    }

    /// A thread outside this clock sleeps on it or spawns onto it after
    /// the fallback: if it carries the clock's pin, inherited from the
    /// member that started it, it gets the allowed set back. A member of
    /// another virtual clock keeps that clock's pin.
    fn release_outsider(&self) {
        if let Some(pin) = &self.pin {
            let member_elsewhere = current_slot().exec.as_ref().is_some_and(|e| e.is_virtual());
            if !member_elsewhere {
                affinity::release_inherited(pin);
            }
        }
    }

    /// Registers a thread; `None` once the clock paces in real time. The
    /// driver starts with the baton, a spawned thread in the run queue.
    fn register(self: &Arc<Self>, name: Arc<str>, daemon: bool, driver: bool) -> Option<Arc<Slot>> {
        let mut st = self.state.lock();
        if self.wall.get().is_some() {
            return None;
        }
        let id = st.next_id;
        st.next_id += 1;
        st.tasks.insert(
            id,
            Task {
                name,
                daemon,
                waiting: None,
                tid: (driver && self.pin.is_some()).then(affinity::tid),
            },
        );
        if !daemon {
            st.live += 1;
        }
        let slot = Slot::new(Some(Arc::clone(self)), id);
        if driver {
            st.running = Some(id);
        } else {
            self.make_runnable(st, &slot);
        }
        Some(slot)
    }

    /// Gives the calling worker, starting a task of this clock, the
    /// clock's pin (the allowed set once the clock paces in real time)
    /// and, on a pinned clock, records its OS thread so that a fallback
    /// can release it; if the clock has fallen back meanwhile, releases
    /// it now.
    fn attach(&self, me: &Slot) {
        affinity::take(self.pin.as_ref().filter(|_| self.is_virtual()));
        if self.pin.is_none() {
            return;
        }
        let mut st = self.state.lock();
        if self.wall.get().is_some() {
            drop(st);
            affinity::take(None);
        } else if let Some(task) = st.tasks.get_mut(&me.id) {
            task.tid = Some(affinity::tid());
        }
    }

    fn make_runnable(&self, mut st: parking_lot::MutexGuard<'_, State>, slot: &Arc<Slot>) {
        st.runnable.push_back(Arc::clone(slot));
        let next = if st.running.is_none() {
            self.dispatch(&mut st, None)
        } else {
            None
        };
        drop(st);
        if let Some(next) = next {
            next.unpark();
        }
    }

    /// Passes the baton, given up by thread `from` if any, to the next
    /// runnable thread, advancing time to the earliest timer if nothing
    /// else can run. Daemons alone do not keep the clock going.
    fn dispatch(&self, st: &mut State, from: Option<u64>) -> Option<Arc<Slot>> {
        let next = match st.runnable.pop_front() {
            Some(slot) => slot,
            None if st.live == 0 => return None,
            None => {
                let ((at, _), slot) = st.timers.pop_first()?;
                self.now_ns.fetch_max(at, Ordering::AcqRel);
                st.stats.timer_jumps += 1;
                slot
            }
        };
        if from == Some(next.id) {
            st.stats.self_resumes += 1;
        } else {
            st.stats.handoffs += 1;
        }
        st.running = Some(next.id);
        if let Some(task) = st.tasks.get_mut(&next.id) {
            task.waiting = None;
        }
        Some(next)
    }

    fn block(&self, me: &Arc<Slot>, wait: Wait, timer: Option<u64>, cancel: impl FnOnce() -> bool) {
        if self.is_virtual() {
            self.witness.check_wait(&wait);
        }
        let mut st = self.state.lock();
        if self.wall.get().is_some() {
            drop(st);
            // A sleeper paces itself; a queued waiter waits for its waker.
            if timer.is_none() {
                me.park();
            }
            return;
        }
        debug_assert_eq!(st.running, Some(me.id), "blocked without the baton");
        if let Some(at) = timer {
            let seq = st.next_seq;
            st.next_seq += 1;
            st.timers.insert((at, seq), Arc::clone(me));
        }
        if let Some(task) = st.tasks.get_mut(&me.id) {
            task.waiting = Some(wait);
        }
        st.running = None;
        let next = self.dispatch(&mut st, Some(me.id));
        drop(st);
        match next {
            Some(next) if Arc::ptr_eq(&next, me) => {}
            Some(next) => {
                next.unpark();
                me.park();
            }
            None => self.stuck(me, cancel),
        }
    }

    /// The calling thread blocked and nothing can run: wait for a wake-up
    /// from outside the simulation, then report the deadlock.
    fn stuck(&self, me: &Arc<Slot>, cancel: impl FnOnce() -> bool) {
        if me.park_timeout(DEADLOCK_GRACE) {
            return;
        }
        let mut st = self.state.lock();
        let deadlocked = self.wall.get().is_none()
            && st.running.is_none()
            && st.runnable.is_empty()
            && st.timers.is_empty()
            && st.tasks.get(&me.id).is_some_and(|t| !t.daemon);
        if deadlocked && cancel() {
            // Keep the baton while unwinding, so that the guards this
            // thread drops hand their locks on in order.
            st.running = Some(me.id);
            let report = self.deadlock_report(&st);
            if let Some(task) = st.tasks.get_mut(&me.id) {
                task.waiting = None;
            }
            drop(st);
            panic!("{report}");
        }
        drop(st);
        me.park();
    }

    fn deadlock_report(&self, st: &State) -> String {
        let mut out = format!(
            "simtime deadlock at {:.6}s: every simulation thread is blocked and no timer is pending",
            self.now().as_secs_f64()
        );
        for task in st.tasks.values() {
            if let Some(w) = &task.waiting {
                out.push_str(&format!(
                    "\n  {} waits on {} at {}:{}",
                    task.name,
                    w.on,
                    w.site.file(),
                    w.site.line()
                ));
            }
        }
        out
    }

    fn wake(&self, slot: &Arc<Slot>) {
        let st = self.state.lock();
        if self.wall.get().is_some() {
            drop(st);
            slot.unpark();
            return;
        }
        self.make_runnable(st, slot);
    }

    /// Unregisters a thread; if it held the baton, passes it on.
    fn exit(&self, me: &Slot) {
        let mut st = self.state.lock();
        let Some(task) = st.tasks.remove(&me.id) else {
            return;
        };
        if !task.daemon {
            st.live -= 1;
        }
        let next = if self.wall.get().is_none() && st.running == Some(me.id) {
            st.running = None;
            self.dispatch(&mut st, Some(me.id))
        } else {
            None
        };
        drop(st);
        if let Some(next) = next {
            next.unpark();
        }
    }
}

/// A task's result, once it has finished, and the threads waiting to join
/// it.
type Ending<T> = (Option<std::thread::Result<T>>, Vec<Arc<Slot>>);

/// Completion of a task, which joiners wait on.
struct Done<T> {
    state: Mutex<Ending<T>>,
}

impl<T> Done<T> {
    fn finish(&self, result: std::thread::Result<T>) {
        let joiners = {
            let mut st = self.state.lock();
            st.0 = Some(result);
            std::mem::take(&mut st.1)
        };
        for j in joiners {
            j.wake();
        }
    }

    fn join(&self, name: &Arc<str>, site: &'static Location<'static>) -> std::thread::Result<T> {
        let me = current_slot();
        {
            let mut st = self.state.lock();
            if let Some(result) = st.0.take() {
                return result;
            }
            st.1.push(Arc::clone(&me));
        }
        let wait = Wait {
            on: WaitOn::Join(Arc::clone(name)),
            site,
        };
        me.block(wait, || {
            let mut st = self.state.lock();
            let before = st.1.len();
            st.1.retain(|s| !Arc::ptr_eq(s, &me));
            st.1.len() < before
        });
        self.state
            .lock()
            .0
            .take()
            .expect("invariant: a joiner is woken once the task has finished")
    }
}

/// Handle of a task started with [`spawn`] or [`spawn_daemon`].
pub struct JoinHandle<T> {
    done: Arc<Done<T>>,
    name: Arc<str>,
}

impl<T> JoinHandle<T> {
    /// Waits for the task to finish (a blocking point of its clock) and
    /// returns its result, or the payload it panicked with.
    #[track_caller]
    pub fn join(self) -> std::thread::Result<T> {
        self.done.join(&self.name, Location::caller())
    }
}

impl<T> fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JoinHandle")
            .field("name", &self.name)
            .finish()
    }
}

/// Starts a simulation task on `clock`, on a pooled worker thread (see
/// the module docs). While the clock is virtual the task joins its
/// executor: it runs only while it holds the baton, and it keeps the
/// simulation alive until it finishes. `name` appears in deadlock
/// reports; the OS thread is named after the worker.
///
/// Spawning from a thread outside the simulation switches a virtual
/// clock to wall pacing (see the module docs).
///
/// # Examples
///
/// ```
/// use fastiov_simtime::Clock;
/// use std::time::Duration;
///
/// let clock = Clock::new_virtual(1.0);
/// let c = clock.clone();
/// let t = fastiov_simtime::spawn(&clock, "sleeper", move || c.sleep(Duration::from_secs(60)));
/// t.join().unwrap();
/// assert_eq!(clock.now().since_origin(), Duration::from_secs(60));
/// ```
pub fn spawn<F, T>(clock: &Clock, name: impl Into<String>, f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    spawn_task(clock, name.into(), false, f)
}

/// Like [`spawn`], for a background task that never finishes on its own
/// (a periodic scrubber): it runs while other threads of the clock are
/// alive but does not keep the simulation going by itself.
pub fn spawn_daemon<F, T>(clock: &Clock, name: impl Into<String>, f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    spawn_task(clock, name.into(), true, f)
}

fn spawn_task<F, T>(clock: &Clock, name: String, daemon: bool, f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let exec = Arc::clone(clock.exec());
    if !current_slot().belongs_to(&exec) {
        if exec.is_virtual() {
            exec.fall_back();
        }
        exec.release_outsider();
    }
    let name: Arc<str> = name.into();
    // A clock pacing in real time schedules no task, but its tasks still
    // record into its lock witness.
    let slot = exec
        .register(Arc::clone(&name), daemon, false)
        .unwrap_or_else(|| Slot::new(Some(Arc::clone(&exec)), UNSCHEDULED));
    let done = Arc::new(Done {
        state: Mutex::new((None, Vec::new())),
    });
    let finish = Arc::clone(&done);
    let run = Box::new(move || {
        finish.finish(std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)));
    });
    let job = Job { exec, slot, run };
    let idle = POOL.lock().idle.pop();
    match idle {
        Some(worker) => worker
            .send(Some(job))
            .expect("invariant: an idle worker waits for its next job"),
        None => start_worker(job),
    }
    JoinHandle { done, name }
}

/// Most idle workers kept for reuse while every wave fits them. The
/// bound covers a `churn-pool` host's peak of live tasks, so a host built
/// after another starts no OS thread in its set-up and waves. A worker
/// that finds this many idle retires, and the pool then keeps at most
/// [`IDLE_WORKERS_AFTER_OVERFLOW`] for good.
const MAX_IDLE_WORKERS: usize = 64;

/// Most idle workers kept once a wave has outgrown [`MAX_IDLE_WORKERS`]:
/// such waves (a 200-way burst) start threads whatever the bound, and an
/// idle worker is not free. It keeps its stack and its C library
/// per-thread malloc cache, ≈ 50 KB of small chunks that glibc never
/// flushes and that pin the heap around them; with 64 idle workers
/// kept through 30 s of burst hosts, `peak_rss_mb` crept +9 % with one
/// malloc arena and +27 % with two, and the first allocation of each
/// set-up, which bins every chunk the last host freed, grew with it
/// (`setup_s` +60 % with one arena).
const IDLE_WORKERS_AFTER_OVERFLOW: usize = 8;

/// Most malloc arenas the process uses once a clock exists: the main one
/// and one more, which new workers take in turn. Only the baton holder of
/// a clock runs, so glibc's default of up to eight arenas per CPU buys no
/// parallelism; the arenas only strand freed memory, a host's frame-table
/// chunks included, in arenas no other thread allocates from, and the
/// idle workers a warm-pool host keeps would strand the most
/// (`churn-pool` `peak_rss_mb` +25 % with 64 idle workers and default
/// arenas). One arena strands the least, but then the driver's arena
/// holds every chunk the workers allocate, and the first allocation of
/// the next host's set-up that misses glibc's caches bins every chunk the
/// last host freed: `burst-fastiov` `setup_s` read +22 % to +29 %.
const MALLOC_ARENAS: i32 = 2;

/// The workers between tasks.
struct Pool {
    /// Idle workers, the most recently idle on top: the sender of each
    /// one's next job, or of `None` to retire it.
    idle: Vec<mpsc::Sender<Option<Job>>>,
    /// The most idle workers kept: [`MAX_IDLE_WORKERS`] until a wave
    /// outgrows it.
    bound: usize,
    /// Workers retired since a worker last started, not yet joined.
    retired: Vec<std::thread::JoinHandle<()>>,
}

static POOL: Mutex<Pool> = Mutex::new(Pool {
    idle: Vec::new(),
    bound: MAX_IDLE_WORKERS,
    retired: Vec::new(),
});

/// One task for a worker: its clock, its slot and its body.
struct Job {
    exec: Arc<Exec>,
    slot: Arc<Slot>,
    run: Box<dyn FnOnce() + Send>,
}

/// Starts a worker thread for `job` and sends it its own handle, which it
/// hands to the pool when it retires. Retired workers are joined first,
/// so their stacks are back in the C library's stack cache for the new
/// thread; by then they have usually exited.
fn start_worker(job: Job) {
    let retired = std::mem::take(&mut POOL.lock().retired);
    for worker in retired {
        // A worker catches its tasks' panics, so its thread ends normally.
        let _ = worker.join();
    }
    let (handle_tx, handle_rx) = mpsc::sync_channel(1);
    let handle = std::thread::Builder::new()
        .name("simtime-worker".into())
        .spawn(move || work(job, handle_rx))
        .expect("the OS refused to start a simulation worker");
    handle_tx
        .send(handle)
        .expect("invariant: a worker waits for its handle");
}

/// Caps the C library's malloc arenas at [`MALLOC_ARENAS`] for every
/// thread that allocates from now on; called before the first clock, so
/// before the first worker starts.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn limit_malloc_arenas() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: mallopt only sets one of the allocator's tunables; a refusal
    // (return 0) leaves the default, which is still correct.
    unsafe {
        mallopt(M_ARENA_MAX, MALLOC_ARENAS);
    }
}

/// Off glibc the allocator keeps its own arena policy.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn limit_malloc_arenas() {}

/// A worker's thread: runs `job`, then each job it is given while idle,
/// until it finds the idle stack full or is told to retire.
fn work(mut job: Job, handle: mpsc::Receiver<std::thread::JoinHandle<()>>) {
    let mut me = handle.recv().ok();
    let (next, jobs) = mpsc::channel();
    loop {
        let Job { exec, slot, run } = job;
        enter(Arc::clone(&slot), false);
        exec.attach(&slot);
        if slot.id != UNSCHEDULED {
            slot.park();
        }
        run();
        // Idle or retired before `leave` passes the baton on, so the next
        // thread of the clock to spawn finds this worker, or joins it
        // before starting another.
        let (retiring, surplus) = {
            let mut pool = POOL.lock();
            let room = pool.idle.len() < pool.bound;
            let mut surplus = Vec::new();
            if room {
                pool.idle.push(next.clone());
            } else {
                pool.retired.extend(me.take());
                pool.bound = IDLE_WORKERS_AFTER_OVERFLOW;
                let over = pool.idle.len().saturating_sub(pool.bound);
                // The least recently idle go.
                surplus.extend(pool.idle.drain(..over));
            }
            (!room, surplus)
        };
        for worker in surplus {
            // An idle worker holds its receiver until it retires.
            let _ = worker.send(None);
        }
        leave();
        crate::lockdep::clear_held();
        if exec.pin.is_some() && !exec.is_virtual() {
            // The fallback may have unpinned this thread.
            affinity::forget();
        }
        // Waiting for its next job, a worker keeps no clock alive.
        drop((exec, slot));
        if retiring {
            return;
        }
        match jobs.recv() {
            Ok(Some(next)) => job = next,
            _ => {
                POOL.lock().retired.extend(me.take());
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{channel, LockClass, TrackedMutex, WallStopwatch};
    use std::sync::atomic::AtomicU64;

    #[test]
    fn lock_order_cycle_panics_naming_both_classes_instead_of_hanging() {
        let clock = Clock::new_virtual(1.0);
        // Two serializer classes, which may be held across the sleep.
        let a = Arc::new(TrackedMutex::new(LockClass::Rtnl, ()));
        let b = Arc::new(TrackedMutex::new(LockClass::Cgroup, ()));
        let cross = |first: &Arc<TrackedMutex<()>>, second: &Arc<TrackedMutex<()>>, name| {
            let (c, first, second) = (clock.clone(), Arc::clone(first), Arc::clone(second));
            spawn(&clock, name, move || {
                let _first = first.lock();
                c.sleep(Duration::from_millis(1));
                let _second = second.lock();
            })
        };
        let (ab, ba) = (cross(&a, &b, "ab"), cross(&b, &a, "ba"));
        let sw = WallStopwatch::start();
        let results = [ab.join(), ba.join()];
        let msg = results
            .iter()
            .find_map(|r| r.as_ref().err())
            .and_then(|p| p.downcast_ref::<String>())
            .unwrap_or_else(|| panic!("no deadlock report: {results:?}"));
        assert!(msg.contains("simtime deadlock"), "{msg}");
        assert!(msg.contains("lock rtnl at"), "{msg}");
        assert!(msg.contains("lock cgroup at"), "{msg}");
        assert!(msg.contains("src/exec.rs:"), "{msg}");
        // Named by task, not by the worker thread it runs on.
        assert!(msg.contains("\n  ab waits on lock cgroup"), "{msg}");
        assert!(msg.contains("\n  ba waits on lock rtnl"), "{msg}");
        assert!(results.iter().any(|r| r.is_ok()), "the survivor finishes");
        assert!(sw.elapsed() < 5 * DEADLOCK_GRACE);
    }

    #[test]
    fn a_daemon_does_not_keep_the_clock_going_alone() {
        let ticks = Arc::new(AtomicU64::new(0));
        let t = Arc::clone(&ticks);
        // The driver thread exits after its sleep, leaving the daemon.
        let clock = std::thread::spawn(move || {
            let clock = Clock::new_virtual(1.0);
            let c = clock.clone();
            spawn_daemon(&clock, "ticker", move || loop {
                c.sleep(Duration::from_millis(1));
                t.fetch_add(1, Ordering::Relaxed);
            });
            clock.sleep(Duration::from_millis(10));
            clock
        })
        .join()
        .expect("driver");
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(clock.now().since_origin(), Duration::from_millis(10));
        assert_eq!(ticks.load(Ordering::Relaxed), 9);
        assert!(clock.is_virtual());
    }

    #[test]
    fn a_thread_started_on_a_wall_paced_clock_records_into_its_witness() {
        let clock = Clock::with_scale(1e-3);
        let member = spawn(&clock, "member", || {
            drop(TrackedMutex::new(LockClass::Test, ()).lock());
            LockClass::Test.stats().acquisitions
        });
        assert_eq!(member.join().expect("member"), 1);
    }

    #[test]
    fn the_executor_counts_its_baton_traffic() {
        let clock = Clock::new_virtual(1.0);
        let c = clock.clone();
        let sleeper = spawn(&clock, "sleeper", move || c.sleep(Duration::from_millis(2)));
        // The joining driver hands the baton to the sleeper, whose timer
        // resumes it at once; its exit hands the baton back. The driver's
        // own timer then resumes the driver.
        sleeper.join().expect("sleeper");
        clock.sleep(Duration::from_millis(1));
        let stats = ExecStats {
            handoffs: 2,
            self_resumes: 2,
            timer_jumps: 2,
        };
        assert_eq!(clock.exec_stats(), stats);
        assert_eq!(Clock::with_scale(1.0).exec_stats(), ExecStats::default());
    }

    #[test]
    fn recv_waits_for_a_send_at_its_simulated_time() {
        let clock = Clock::new_virtual(1.0);
        let (tx, rx) = channel();
        let c = clock.clone();
        let sender = spawn(&clock, "sender", move || {
            c.sleep(Duration::from_millis(5));
            tx.send(7).expect("receiver alive");
        });
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(clock.now().since_origin(), Duration::from_millis(5));
        // The sender is dropped when its thread ends.
        assert!(rx.recv().is_err());
        sender.join().expect("sender");
    }

    #[cfg(target_os = "linux")]
    mod pinning {
        use super::*;

        fn cpus() -> Vec<usize> {
            let set = affinity::CpuSet::current().expect("sched_getaffinity");
            set.cpus().collect()
        }

        fn allowed() -> Vec<usize> {
            affinity::allowed().expect("allowed set").cpus().collect()
        }

        #[test]
        fn a_clocks_driver_and_its_spawned_threads_share_exactly_one_cpu() {
            let clock = Clock::new_virtual(1.0);
            let driver = cpus();
            let threads: Vec<_> = (0..3)
                .map(|i| {
                    let c = clock.clone();
                    let f = move || {
                        c.sleep(Duration::from_millis(i));
                        cpus()
                    };
                    match i {
                        0 => spawn_daemon(&clock, "daemon", f),
                        _ => spawn(&clock, format!("member-{i}"), f),
                    }
                })
                .collect();
            for t in threads {
                assert_eq!(t.join().expect("member"), driver);
            }
            let expected = if allowed().len() > 1 {
                1
            } else {
                allowed().len()
            };
            assert_eq!(driver.len(), expected, "{driver:?}");
        }

        #[test]
        fn the_driver_gets_the_allowed_set_back_when_its_membership_ends() {
            let _clock = Clock::new_virtual(1.0);
            if allowed().len() > 1 {
                assert_eq!(cpus().len(), 1);
            }
            leave();
            assert_eq!(cpus(), allowed());
        }

        #[test]
        fn a_fallback_gives_members_and_the_outside_thread_the_allowed_set_back() {
            let clock = Clock::new_virtual(1e-3);
            let pin = cpus();
            let c = clock.clone();
            // Queued behind the driver, so it runs only after the fallback.
            let member = spawn(&clock, "member", move || {
                c.sleep(Duration::from_millis(1));
                cpus()
            });
            let c = clock.clone();
            // A plain thread started by the driver inherits its pin.
            let outside = std::thread::spawn(move || {
                let inherited = cpus();
                c.sleep(Duration::from_millis(1));
                (inherited, cpus())
            });
            let (inherited, after) = outside.join().expect("outside thread");
            assert!(!clock.is_virtual());
            assert_eq!(inherited, pin);
            assert_eq!(after, allowed(), "the outside thread");
            assert_eq!(cpus(), allowed(), "the driver");
            assert_eq!(member.join().expect("member"), allowed(), "the member");
        }
    }
}
