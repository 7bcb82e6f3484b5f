//! A FIFO-fair counting semaphore with targeted handoff: the modelled
//! cores of a [`CpuPool`](crate::CpuPool), served in arrival order like
//! the tracked locks. A serializer is a
//! [`TrackedMutex`](crate::TrackedMutex) of its own lock class instead,
//! so that the lock witness sees it.
//!
//! A release hands the permit directly to the queue head, so it wakes
//! exactly one thread, and waiting is a blocking point of a virtual
//! clock's executor.

use crate::exec::{current_slot, Slot, Wait, WaitOn};
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
pub(crate) struct FairSemaphore {
    state: Mutex<State>,
}

impl FairSemaphore {
    /// Creates a semaphore with `permits` initial permits.
    ///
    /// # Panics
    ///
    /// Panics if `permits` is zero.
    pub(crate) fn new(permits: usize) -> Self {
        assert!(permits > 0, "semaphore needs at least one permit");
        FairSemaphore {
            state: Mutex::new(State {
                available: permits,
                queue: VecDeque::new(),
                served: 0,
                max_queue: 0,
            }),
        }
    }

    /// Blocks until a permit is available and this caller is at the head of
    /// the FIFO queue, then returns a guard that releases on drop.
    #[track_caller]
    pub(crate) fn acquire(&self) -> SemaphoreGuard<'_> {
        let me = current_slot();
        {
            let mut st = self.state.lock();
            if st.available > 0 && st.queue.is_empty() {
                st.available -= 1;
                st.served += 1;
                return SemaphoreGuard { sem: self };
            }
            st.queue.push_back(Arc::clone(&me));
            st.max_queue = st.max_queue.max(st.queue.len());
        }
        let wait = Wait {
            on: WaitOn::Semaphore,
            site: Location::caller(),
        };
        // Woken only once a releaser has handed us its permit.
        me.block(wait, || {
            let mut st = self.state.lock();
            let before = st.queue.len();
            st.queue.retain(|s| !Arc::ptr_eq(s, &me));
            st.queue.len() < before
        });
        SemaphoreGuard { sem: self }
    }

    /// (served acquisitions, high-water queue length).
    pub(crate) fn stats(&self) -> (u64, usize) {
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
pub(crate) struct SemaphoreGuard<'a> {
    sem: &'a FairSemaphore,
}

impl Drop for SemaphoreGuard<'_> {
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
        let sem = Arc::new(FairSemaphore::new(3));
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
        let sem = Arc::new(FairSemaphore::new(1));
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
        assert_eq!(sem.state.lock().queue.len(), 8);
        drop(first);
        for h in handles {
            h.join().unwrap();
        }
        let got = order.lock().clone();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn handoff_preserves_permit_accounting() {
        // Hammer with more threads than permits and verify the final
        // available count equals the initial permits.
        let sem = Arc::new(FairSemaphore::new(4));
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
        let st = sem.state.lock();
        assert!(st.queue.is_empty());
        assert_eq!(st.available, 4, "every permit is free again");
        assert_eq!(st.served, 32 * 50);
    }

    #[test]
    #[should_panic(expected = "at least one permit")]
    fn zero_permits_rejected() {
        let _ = FairSemaphore::new(0);
    }
}
