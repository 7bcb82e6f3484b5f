//! A FIFO-fair counting semaphore with targeted handoff.
//!
//! `std` has no semaphore. Queueing fairness matters here: the paper's
//! serialization bottlenecks (the VFIO devset mutex, the PF admin queue,
//! the memory bandwidth ceiling) produce the characteristic *linear ramp*
//! of Fig. 5 precisely because waiters are served in arrival order.
//!
//! A release hands the permit directly to the queue head, so it wakes
//! exactly one thread, and waiting is a blocking point of a virtual
//! clock's executor.

use crate::exec::{current_slot, Slot, Wait, WaitOn};
use crate::lockdep::{self, LockClass};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::panic::Location;
use std::sync::Arc;

struct State {
    /// Permits currently available.
    available: usize,
    /// Waiting threads, in arrival order.
    queue: VecDeque<Arc<Slot>>,
    /// Total acquisitions served, for stats.
    served: u64,
    /// High-water mark of queue length, for stats.
    max_queue: usize,
}

/// A FIFO-fair counting semaphore.
///
/// # Examples
///
/// ```
/// use fastiov_simtime::FairSemaphore;
///
/// let sem = FairSemaphore::new(2);
/// let g1 = sem.acquire();
/// let g2 = sem.acquire();
/// assert_eq!(sem.try_acquire().is_none(), true);
/// drop(g1);
/// assert!(sem.try_acquire().is_some());
/// # drop(g2);
/// ```
pub struct FairSemaphore {
    state: Mutex<State>,
    permits: usize,
}

impl FairSemaphore {
    /// Creates a semaphore with `permits` initial permits.
    ///
    /// # Panics
    ///
    /// Panics if `permits` is zero.
    pub fn new(permits: usize) -> Arc<Self> {
        assert!(permits > 0, "semaphore needs at least one permit");
        Arc::new(FairSemaphore {
            state: Mutex::new(State {
                available: permits,
                queue: VecDeque::new(),
                served: 0,
                max_queue: 0,
            }),
            permits,
        })
    }

    /// Blocks until a permit is available and this caller is at the head of
    /// the FIFO queue, then returns a guard that releases on drop.
    #[track_caller]
    pub fn acquire(self: &Arc<Self>) -> SemaphoreGuard {
        self.take(Location::caller()).0
    }

    /// [`acquire`](Self::acquire) for a semaphore that serves as a lock of
    /// `class`: the acquisition is counted in the class's lock statistics,
    /// contended if it had to queue (its wait is not timed).
    #[track_caller]
    pub fn acquire_counted(self: &Arc<Self>, class: LockClass) -> SemaphoreGuard {
        let (guard, queued) = self.take(Location::caller());
        lockdep::count(class, queued.then_some(0));
        guard
    }

    /// Acquires a permit, waiting at `site` if it has to queue; true if it
    /// queued.
    fn take(self: &Arc<Self>, site: &'static Location<'static>) -> (SemaphoreGuard, bool) {
        let me = current_slot();
        {
            let mut st = self.state.lock();
            if st.available > 0 && st.queue.is_empty() {
                st.available -= 1;
                st.served += 1;
                let guard = SemaphoreGuard {
                    sem: Arc::clone(self),
                };
                return (guard, false);
            }
            st.queue.push_back(Arc::clone(&me));
            st.max_queue = st.max_queue.max(st.queue.len());
        }
        let wait = Wait {
            on: WaitOn::Semaphore,
            site,
        };
        // Woken only once a releaser has handed us its permit.
        me.block(wait, || {
            let mut st = self.state.lock();
            let before = st.queue.len();
            st.queue.retain(|s| !Arc::ptr_eq(s, &me));
            st.queue.len() < before
        });
        let guard = SemaphoreGuard {
            sem: Arc::clone(self),
        };
        (guard, true)
    }

    /// Acquires a permit only if one is free *and* no one is queued.
    pub fn try_acquire(self: &Arc<Self>) -> Option<SemaphoreGuard> {
        let mut st = self.state.lock();
        if st.available > 0 && st.queue.is_empty() {
            st.available -= 1;
            st.served += 1;
            Some(SemaphoreGuard {
                sem: Arc::clone(self),
            })
        } else {
            None
        }
    }

    /// Number of threads currently queued.
    pub fn queue_len(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// (served acquisitions, high-water queue length).
    pub fn stats(&self) -> (u64, usize) {
        let st = self.state.lock();
        (st.served, st.max_queue)
    }

    fn release(&self) {
        // Hand the permit straight to the queue head, if any.
        let next = {
            let mut st = self.state.lock();
            match st.queue.pop_front() {
                Some(w) => {
                    st.served += 1;
                    Some(w)
                }
                None => {
                    st.available += 1;
                    debug_assert!(st.available <= self.permits);
                    None
                }
            }
        };
        if let Some(w) = next {
            w.wake();
        }
    }
}

/// RAII guard returned by [`FairSemaphore::acquire`].
pub struct SemaphoreGuard {
    sem: Arc<FairSemaphore>,
}

impl Drop for SemaphoreGuard {
    fn drop(&mut self) {
        self.sem.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn permits_bound_concurrency() {
        let sem = FairSemaphore::new(3);
        let active = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..24)
            .map(|_| {
                let sem = Arc::clone(&sem);
                let active = Arc::clone(&active);
                let peak = Arc::clone(&peak);
                std::thread::spawn(move || {
                    let _g = sem.acquire();
                    let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_micros(200));
                    active.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 3);
        assert_eq!(sem.stats().0, 24);
    }

    #[test]
    fn fifo_order_is_respected() {
        // One permit, held while eight workers queue in spawn order (a
        // virtual clock runs them one at a time, in that order).
        let clock = crate::Clock::new_virtual(1.0);
        let sem = FairSemaphore::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let first = sem.acquire();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let (sem, order) = (Arc::clone(&sem), Arc::clone(&order));
                crate::spawn(&clock, format!("worker-{i}"), move || {
                    let _g = sem.acquire();
                    order.lock().push(i);
                })
            })
            .collect();
        clock.sleep(Duration::from_millis(1));
        assert_eq!(sem.queue_len(), 8);
        drop(first);
        for h in handles {
            h.join().unwrap();
        }
        let got = order.lock().clone();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn try_acquire_respects_queue() {
        let sem = FairSemaphore::new(1);
        let g = sem.acquire();
        assert!(sem.try_acquire().is_none());
        drop(g);
        let g2 = sem.try_acquire();
        assert!(g2.is_some());
    }

    #[test]
    fn handoff_preserves_permit_accounting() {
        // Hammer with more threads than permits and verify the final
        // available count equals the initial permits.
        let sem = FairSemaphore::new(4);
        let handles: Vec<_> = (0..32)
            .map(|_| {
                let sem = Arc::clone(&sem);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let _g = sem.acquire();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sem.queue_len(), 0);
        // All permits must be claimable again.
        let g1 = sem.try_acquire();
        let g2 = sem.try_acquire();
        let g3 = sem.try_acquire();
        let g4 = sem.try_acquire();
        assert!(g1.is_some() && g2.is_some() && g3.is_some() && g4.is_some());
        assert!(sem.try_acquire().is_none());
    }

    #[test]
    #[should_panic(expected = "at least one permit")]
    fn zero_permits_rejected() {
        let _ = FairSemaphore::new(0);
    }
}
