//! The hierarchical parent–child lock framework (§4.2.1).
//!
//! A devset is a parent node whose global state relates to the local
//! states of its child devices. The paper distinguishes four operation
//! classes (Fig. 8a): inter-child (independent, parallelizable),
//! intra-child, intra-parent, and parent–child (all mutually exclusive
//! with one another). The framework realizes those semantics with two
//! off-the-shelf kernel locks (Fig. 8b):
//!
//! - the parent holds a **rwlock**;
//! - every child *i* holds a **mutex** `m_i`;
//! - a child operation takes the rwlock in *read* mode plus `m_i`;
//! - a parent operation takes the rwlock in *write* mode.
//!
//! Two child operations on different children then run in parallel (two
//! reads are compatible; distinct mutexes don't contend), while a parent
//! operation excludes everything.
//!
//! [`LockPolicy::Coarse`] degrades the same API to the vanilla design — a
//! single mutex for everything — so experiments can flip between designs
//! without touching call sites. The framework is deliberately generic
//! (the paper argues it "can be promoted to other scenarios"): see
//! `examples/lock_framework.rs` for a non-VFIO use.
//!
//! The framework is built from the tracked wrappers: acquisitions report
//! to the lockdep witness and the lock statistics under
//! [`LockClass::DevsetParent`] and [`LockClass::DevsetChild`], and every
//! wait is a blocking point of the simulation clock's executor. The
//! parent's global state lives inside the parent lock itself, so a parent
//! operation takes one lock.

use fastiov_simtime::{LockClass, TrackedMutex, TrackedMutexGuard, TrackedRwLock};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

/// Which lock design guards a parent–child structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockPolicy {
    /// Vanilla VFIO: one global mutex serializes every operation.
    Coarse,
    /// FastIOV: devset rwlock + per-device mutex; inter-child operations
    /// run in parallel.
    Hierarchical,
}

/// The per-child mutex protecting a child's local state `T`.
///
/// Constructed once per child and passed to
/// [`ParentChildLock::lock_child`]; the returned guard dereferences to the
/// child state.
#[derive(Debug)]
pub struct ChildLock<T> {
    mutex: TrackedMutex<T>,
}

impl<T> ChildLock<T> {
    /// Wraps `state` in a child lock.
    pub fn new(state: T) -> Self {
        ChildLock {
            mutex: TrackedMutex::new(LockClass::DevsetChild, state),
        }
    }

    /// Direct access to the child state *bypassing the framework*.
    ///
    /// Only sound while the caller holds the corresponding
    /// [`ParentChildLock`] in parent mode, which excludes all child
    /// operations; the devset reset path uses this to sum member open
    /// counts. The [`ParentWitness`] argument enforces that at compile
    /// time: it can only be derived from a live [`ParentGuard`] (via
    /// [`ParentGuard::witness`]) and cannot outlive it.
    #[track_caller]
    pub fn lock_direct<'a>(&'a self, _proof: ParentWitness<'a>) -> TrackedMutexGuard<'a, T> {
        self.mutex.lock()
    }
}

/// Proof that a parent-mode guard is live. A zero-sized token borrowed
/// from a [`ParentGuard`]; holding one guarantees every child operation
/// is excluded for its lifetime.
#[derive(Clone, Copy)]
pub struct ParentWitness<'a> {
    _guard: PhantomData<&'a ()>,
}

/// The parent-side lock implementing the framework: one lock per policy,
/// holding the parent's global state `P`, which parent-mode acquisition
/// reaches.
///
/// # Examples
///
/// ```
/// use fastiov_vfio::{ChildLock, LockPolicy, ParentChildLock};
///
/// // A devset with two devices.
/// let lock = ParentChildLock::new(LockPolicy::Hierarchical, 0u64);
/// let dev_a = ChildLock::new(0u32);
/// let dev_b = ChildLock::new(0u32);
///
/// // Inter-child operations may run in parallel...
/// *lock.lock_child(&dev_a) += 1;
/// *lock.lock_child(&dev_b) += 1;
/// // ...while parent operations exclude everything.
/// *lock.lock_parent() += 1;
/// assert_eq!(*lock.lock_parent(), 1);
/// ```
#[derive(Debug)]
pub struct ParentChildLock<P>(ParentLock<P>);

#[derive(Debug)]
enum ParentLock<P> {
    /// [`LockPolicy::Coarse`]: one mutex for every operation.
    Coarse(TrackedMutex<P>),
    /// [`LockPolicy::Hierarchical`]: child operations share the read side.
    Hierarchical(TrackedRwLock<P>),
}

/// Guard for a child operation; dereferences to the child state.
///
/// Field order is load-bearing: the child mutex is released before the
/// parent-side lock it was taken under.
pub struct ChildGuard<'a, T> {
    child: TrackedMutexGuard<'a, T>,
    /// The coarse mutex or the rwlock's read side, kept for its Drop.
    _outer: Box<dyn Held + 'a>,
}

/// Any guard, boxed for its Drop alone.
trait Held {}
impl<G> Held for G {}

/// Guard for a parent operation; dereferences to the parent state.
pub struct ParentGuard<'a, P>(Box<dyn DerefMut<Target = P> + 'a>);

impl<P> ParentGuard<'_, P> {
    /// A proof token for [`ChildLock::lock_direct`], borrowed from this
    /// guard so it cannot outlive the parent-mode exclusion.
    pub fn witness(&self) -> ParentWitness<'_> {
        ParentWitness {
            _guard: PhantomData,
        }
    }
}

impl<P> ParentChildLock<P> {
    /// Creates the lock with the given policy and parent state.
    pub fn new(policy: LockPolicy, parent_state: P) -> Self {
        let class = LockClass::DevsetParent;
        ParentChildLock(match policy {
            LockPolicy::Coarse => ParentLock::Coarse(TrackedMutex::new(class, parent_state)),
            LockPolicy::Hierarchical => {
                ParentLock::Hierarchical(TrackedRwLock::new(class, parent_state))
            }
        })
    }

    /// The active policy.
    pub fn policy(&self) -> LockPolicy {
        match self.0 {
            ParentLock::Coarse(_) => LockPolicy::Coarse,
            ParentLock::Hierarchical(_) => LockPolicy::Hierarchical,
        }
    }

    /// Acquires for an **intra/inter-child** operation on the child whose
    /// local state lives in `child`.
    ///
    /// Under [`LockPolicy::Hierarchical`], two calls with *different*
    /// children proceed in parallel; same-child calls and any parent
    /// operation are excluded. Under [`LockPolicy::Coarse`], everything is
    /// serialized.
    #[track_caller]
    pub fn lock_child<'a, T>(&'a self, child: &'a ChildLock<T>) -> ChildGuard<'a, T> {
        // Coarse mode's single mutex plays the parent-lock role but in
        // exclusive mode; hierarchical child ops share the read side.
        let _outer: Box<dyn Held + 'a> = match &self.0 {
            ParentLock::Coarse(m) => Box::new(m.lock()),
            ParentLock::Hierarchical(rw) => Box::new(rw.read()),
        };
        ChildGuard {
            child: child.mutex.lock(),
            _outer,
        }
    }

    /// Acquires for an **intra-parent** or **parent–child** operation.
    /// Excludes every other operation under either policy.
    #[track_caller]
    pub fn lock_parent(&self) -> ParentGuard<'_, P> {
        ParentGuard(match &self.0 {
            ParentLock::Coarse(m) => Box::new(m.lock()),
            ParentLock::Hierarchical(rw) => Box::new(rw.write()),
        })
    }
}

impl<T> Deref for ChildGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.child
    }
}

impl<T> DerefMut for ChildGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.child
    }
}

impl<P> Deref for ParentGuard<'_, P> {
    type Target = P;

    fn deref(&self) -> &P {
        &self.0
    }
}

impl<P> DerefMut for ParentGuard<'_, P> {
    fn deref_mut(&mut self) -> &mut P {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastiov_simtime::Clock;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// Simulated time `n` concurrent child ops take, each holding the
    /// lock for `hold`.
    fn run_children(policy: LockPolicy, n: usize, hold: Duration) -> Duration {
        let clock = Clock::new_virtual(1.0);
        let lock = Arc::new(ParentChildLock::new(policy, 0u32));
        let children: Arc<Vec<ChildLock<u32>>> =
            Arc::new((0..n).map(|_| ChildLock::new(0)).collect());
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let (lock, children, c) = (Arc::clone(&lock), Arc::clone(&children), clock.clone());
                fastiov_simtime::spawn(&clock, format!("child-{i}"), move || {
                    let mut g = lock.lock_child(&children[i]);
                    c.sleep(hold);
                    *g += 1;
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(clock.is_virtual());
        clock.now().since_origin()
    }

    #[test]
    fn coarse_serializes_hierarchical_parallelizes() {
        let hold = Duration::from_millis(5);
        assert_eq!(run_children(LockPolicy::Coarse, 8, hold), hold * 8);
        assert_eq!(run_children(LockPolicy::Hierarchical, 8, hold), hold);
    }

    #[test]
    fn parent_op_excludes_child_ops() {
        for policy in [LockPolicy::Coarse, LockPolicy::Hierarchical] {
            let clock = Clock::new_virtual(1.0);
            let lock = Arc::new(ParentChildLock::new(policy, 0u32));
            let child = Arc::new(ChildLock::new(0u32));
            let in_parent = Arc::new(AtomicUsize::new(0));

            let (l2, flag, c) = (Arc::clone(&lock), Arc::clone(&in_parent), clock.clone());
            let parent_thread = fastiov_simtime::spawn(&clock, "parent", move || {
                let mut g = l2.lock_parent();
                flag.store(1, Ordering::SeqCst);
                c.sleep(Duration::from_millis(20));
                *g += 1;
                flag.store(0, Ordering::SeqCst);
            });
            // The parent thread takes the lock while this one sleeps.
            clock.sleep(Duration::from_millis(5));
            let (l3, flag, c2, c) = (
                Arc::clone(&lock),
                Arc::clone(&in_parent),
                Arc::clone(&child),
                clock.clone(),
            );
            let child_thread = fastiov_simtime::spawn(&clock, "child", move || {
                let _g = l3.lock_child(&c2);
                // Exclusion: the child gets in when the parent leaves.
                assert_eq!(flag.load(Ordering::SeqCst), 0, "policy {policy:?}");
                assert_eq!(c.now().since_origin(), Duration::from_millis(20));
            });
            parent_thread.join().unwrap();
            child_thread.join().unwrap();
        }
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "test: OS threads race the lock")]
    fn same_child_ops_are_exclusive_under_hierarchical() {
        let lock = Arc::new(ParentChildLock::new(LockPolicy::Hierarchical, ()));
        let child = Arc::new(ChildLock::new(0u64));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let child = Arc::clone(&child);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        let mut g = lock.lock_child(&child);
                        // Non-atomic increment: only correct if exclusive.
                        let v = *g;
                        *g = v + 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*lock.lock_child(&child), 8000);
    }

    #[test]
    fn parent_state_is_reachable_through_guard() {
        let lock = ParentChildLock::new(LockPolicy::Hierarchical, vec![1, 2, 3]);
        {
            let mut g = lock.lock_parent();
            g.push(4);
        }
        assert_eq!(lock.lock_parent().len(), 4);
    }

    #[test]
    fn lock_direct_requires_parent_witness() {
        let lock = ParentChildLock::new(LockPolicy::Hierarchical, ());
        let child = ChildLock::new(7u32);
        let parent = lock.lock_parent();
        assert_eq!(*child.lock_direct(parent.witness()), 7);
        // The witness borrow keeps `parent` alive; dropping the guard
        // while a witness-derived guard is held does not compile.
    }
}
