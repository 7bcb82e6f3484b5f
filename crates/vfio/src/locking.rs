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
//! [`LockClass::DevsetParent`], [`LockClass::DevsetChild`] and
//! [`LockClass::DevsetState`], and every wait is a blocking point of the
//! simulation clock's executor.

use fastiov_simtime::{
    LockClass, TrackedMutex, TrackedMutexGuard, TrackedReadGuard, TrackedRwLock, TrackedWriteGuard,
};
use std::marker::PhantomData;

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

/// The parent-side lock pair implementing the framework.
///
/// `P` is the parent's global state, protected by parent-mode acquisition.
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
pub struct ParentChildLock<P> {
    policy: LockPolicy,
    /// Used only under [`LockPolicy::Coarse`].
    coarse: TrackedMutex<()>,
    /// Used only under [`LockPolicy::Hierarchical`].
    rw: TrackedRwLock<()>,
    /// The parent's global state. Access is legal only through guards, so
    /// it sits in its own mutex; under either policy that mutex is
    /// uncontended by construction (parent access is already exclusive).
    parent_state: TrackedMutex<P>,
}

/// Guard for a child operation; dereferences to the child state.
///
/// Field order is load-bearing: the child mutex is released before the
/// parent-side lock it was taken under.
pub struct ChildGuard<'a, T> {
    child: TrackedMutexGuard<'a, T>,
    _outer: OuterGuard<'a>,
}

/// Guard for a parent operation; dereferences to the parent state.
pub struct ParentGuard<'a, P> {
    parent: TrackedMutexGuard<'a, P>,
    _outer: OuterParentGuard<'a>,
}

impl<P> ParentGuard<'_, P> {
    /// A proof token for [`ChildLock::lock_direct`], borrowed from this
    /// guard so it cannot outlive the parent-mode exclusion.
    pub fn witness(&self) -> ParentWitness<'_> {
        ParentWitness {
            _guard: PhantomData,
        }
    }
}

// The guards are held purely for their Drop impls (RAII release).
#[allow(dead_code)]
enum OuterGuard<'a> {
    Coarse(TrackedMutexGuard<'a, ()>),
    Read(TrackedReadGuard<'a, ()>),
}

#[allow(dead_code)]
enum OuterParentGuard<'a> {
    Coarse(TrackedMutexGuard<'a, ()>),
    Write(TrackedWriteGuard<'a, ()>),
}

impl<P> ParentChildLock<P> {
    /// Creates the lock pair with the given policy and parent state.
    pub fn new(policy: LockPolicy, parent_state: P) -> Self {
        ParentChildLock {
            policy,
            coarse: TrackedMutex::new(LockClass::DevsetParent, ()),
            rw: TrackedRwLock::new(LockClass::DevsetParent, ()),
            parent_state: TrackedMutex::new(LockClass::DevsetState, parent_state),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> LockPolicy {
        self.policy
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
        let _outer = match self.policy {
            LockPolicy::Coarse => OuterGuard::Coarse(self.coarse.lock()),
            LockPolicy::Hierarchical => OuterGuard::Read(self.rw.read()),
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
        let _outer = match self.policy {
            LockPolicy::Coarse => OuterParentGuard::Coarse(self.coarse.lock()),
            LockPolicy::Hierarchical => OuterParentGuard::Write(self.rw.write()),
        };
        ParentGuard {
            parent: self.parent_state.lock(),
            _outer,
        }
    }
}

impl<T> std::ops::Deref for ChildGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.child
    }
}

impl<T> std::ops::DerefMut for ChildGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.child
    }
}

impl<P> std::ops::Deref for ParentGuard<'_, P> {
    type Target = P;

    fn deref(&self) -> &P {
        &self.parent
    }
}

impl<P> std::ops::DerefMut for ParentGuard<'_, P> {
    fn deref_mut(&mut self) -> &mut P {
        &mut self.parent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastiov_simtime::WallStopwatch;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// Measures wall time of `n` concurrent child ops each holding the
    /// lock for `hold`.
    fn run_children(policy: LockPolicy, n: usize, hold: Duration) -> Duration {
        let lock = Arc::new(ParentChildLock::new(policy, 0u32));
        let children: Arc<Vec<ChildLock<u32>>> =
            Arc::new((0..n).map(|_| ChildLock::new(0)).collect());
        let t0 = WallStopwatch::start();
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let lock = Arc::clone(&lock);
                let children = Arc::clone(&children);
                std::thread::spawn(move || {
                    let mut g = lock.lock_child(&children[i]);
                    std::thread::sleep(hold);
                    *g += 1;
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        t0.elapsed()
    }

    #[test]
    fn coarse_serializes_hierarchical_parallelizes() {
        let hold = Duration::from_millis(5);
        let n = 8;
        let coarse = run_children(LockPolicy::Coarse, n, hold);
        let hier = run_children(LockPolicy::Hierarchical, n, hold);
        // Coarse must take ~n*hold, hierarchical ~hold. Use a conservative
        // 2x separation to stay robust under scheduler noise.
        assert!(
            coarse > hier * 2,
            "coarse {coarse:?} should be much slower than hierarchical {hier:?}"
        );
        assert!(coarse >= hold * (n as u32 - 1));
    }

    #[test]
    fn parent_op_excludes_child_ops() {
        for policy in [LockPolicy::Coarse, LockPolicy::Hierarchical] {
            let lock = Arc::new(ParentChildLock::new(policy, 0u32));
            let child = Arc::new(ChildLock::new(0u32));
            let in_parent = Arc::new(AtomicUsize::new(0));

            let l2 = Arc::clone(&lock);
            let flag = Arc::clone(&in_parent);
            let parent_thread = std::thread::spawn(move || {
                let mut g = l2.lock_parent();
                flag.store(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(20));
                *g += 1;
                flag.store(0, Ordering::SeqCst);
            });
            // Give the parent thread time to take the lock.
            std::thread::sleep(Duration::from_millis(5));
            let flag = Arc::clone(&in_parent);
            let l3 = Arc::clone(&lock);
            let c2 = Arc::clone(&child);
            let child_thread = std::thread::spawn(move || {
                let _g = l3.lock_child(&c2);
                // If exclusion works, the parent has finished by now.
                assert_eq!(flag.load(Ordering::SeqCst), 0, "policy {policy:?}");
            });
            parent_thread.join().unwrap();
            child_thread.join().unwrap();
        }
    }

    #[test]
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
