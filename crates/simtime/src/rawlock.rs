//! The FIFO reader–writer lock under the tracked lock wrappers.
//!
//! A lock is one atomic word, as small as the `std` mutex it replaces:
//! a host at the paper's 256 VFs keeps over a thousand tracked locks
//! (five per VF across its PCI function, config space, NIC state and
//! VFIO device, plus one or two per IOMMU domain and fastiovd VM table).
//! Uncontended acquisitions and releases are a single compare-and-swap.
//! Waiters queue in a global table keyed by the lock's address (the
//! `parking_lot` design), and a release hands the lock straight to the
//! queue head — a writer, or every reader up to the next writer — so
//! waiters never retry and are served in arrival order. Waiting goes through [`Slot::block`], which on a
//! virtual clock passes the baton on instead of parking in the OS.

use crate::exec::{current_slot, Slot, Wait, WaitOn};
use crate::lockdep::{LockClass, Mode};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::panic::Location;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Held exclusively.
const WRITER: u32 = 1 << 31;
/// Someone waits in the table: every acquisition takes the slow path.
const QUEUED: u32 = 1 << 30;
/// Shared holders.
const READERS: u32 = QUEUED - 1;

type Queue = VecDeque<(Arc<Slot>, Mode)>;

const SHARDS: usize = 64;

/// Wait queues of every contended lock, sharded by address.
static TABLE: [Mutex<Option<HashMap<usize, Queue>>>; SHARDS] = [const { Mutex::new(None) }; SHARDS];

fn shard(addr: usize) -> &'static Mutex<Option<HashMap<usize, Queue>>> {
    &TABLE[(addr >> 4) % SHARDS]
}

fn admits(state: u32, mode: Mode) -> bool {
    match mode {
        Mode::Exclusive => state == 0,
        Mode::Shared => state & (WRITER | QUEUED) == 0,
    }
}

fn taken(state: u32, mode: Mode) -> u32 {
    match mode {
        Mode::Exclusive => state | WRITER,
        Mode::Shared => state + 1,
    }
}

fn released(state: u32, mode: Mode) -> u32 {
    match mode {
        Mode::Exclusive => state & !WRITER,
        Mode::Shared => state - 1,
    }
}

#[derive(Default)]
pub(crate) struct RawLock {
    state: AtomicU32,
}

impl RawLock {
    fn addr(&self) -> usize {
        self as *const RawLock as usize
    }

    /// Takes the lock if it is free for `mode` and nobody is queued.
    pub(crate) fn try_lock(&self, mode: Mode) -> bool {
        let mut s = self.state.load(Ordering::Relaxed);
        while admits(s, mode) {
            match self.state.compare_exchange_weak(
                s,
                taken(s, mode),
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => s = now,
            }
        }
        false
    }

    /// Takes the lock, waiting in FIFO order behind earlier waiters.
    /// `class` and `site` describe the wait for a deadlock report.
    pub(crate) fn lock(&self, mode: Mode, class: LockClass, site: &'static Location<'static>) {
        let me = current_slot();
        {
            let mut table = shard(self.addr()).lock();
            let mut s = self.state.load(Ordering::Relaxed);
            loop {
                let (next, acquire) = if admits(s, mode) {
                    (taken(s, mode), true)
                } else {
                    (s | QUEUED, false)
                };
                match self
                    .state
                    .compare_exchange(s, next, Ordering::Acquire, Ordering::Relaxed)
                {
                    Ok(_) if acquire => return,
                    Ok(_) => break,
                    Err(now) => s = now,
                }
            }
            table
                .get_or_insert_with(HashMap::new)
                .entry(self.addr())
                .or_default()
                .push_back((Arc::clone(&me), mode));
        }
        let wait = Wait {
            on: WaitOn::Lock(class, mode),
            site,
        };
        // Woken only once the lock has been handed over.
        me.block(wait, || self.cancel(&me));
    }

    /// Takes `me` off the wait queue; false if a release granted it first.
    fn cancel(&self, me: &Arc<Slot>) -> bool {
        let mut table = shard(self.addr()).lock();
        let Some(map) = table.as_mut() else {
            return false;
        };
        let Some(queue) = map.get_mut(&self.addr()) else {
            return false;
        };
        let before = queue.len();
        queue.retain(|(s, _)| !Arc::ptr_eq(s, me));
        let (removed, empty) = (queue.len() < before, queue.is_empty());
        if empty {
            map.remove(&self.addr());
            self.state.fetch_and(!QUEUED, Ordering::Relaxed);
        }
        removed
    }

    /// Releases one `mode` hold, handing the lock to the queue head once
    /// it is free.
    pub(crate) fn unlock(&self, mode: Mode) {
        let mut s = self.state.load(Ordering::Relaxed);
        loop {
            let next = released(s, mode);
            if s & QUEUED != 0 && next & (WRITER | READERS) == 0 {
                break;
            }
            match self
                .state
                .compare_exchange_weak(s, next, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(now) => s = now,
            }
        }
        // The last holder leaves a queued lock: hand it over. Nothing else
        // can change the word meanwhile — it has no other holder, and
        // QUEUED keeps every acquisition on the table's (locked) path.
        let granted = {
            let mut table = shard(self.addr()).lock();
            let map = table.get_or_insert_with(HashMap::new);
            let queue = map.entry(self.addr()).or_default();
            let mut state = 0;
            let mut granted = Vec::new();
            while let Some(&(_, next)) = queue.front() {
                if !admits(state, next) {
                    break;
                }
                state = taken(state, next);
                granted.extend(queue.pop_front().map(|(slot, _)| slot));
            }
            if queue.is_empty() {
                map.remove(&self.addr());
            } else {
                state |= QUEUED;
            }
            self.state.store(state, Ordering::Release);
            granted
        };
        for slot in granted {
            slot.wake();
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{spawn, Clock, LockClass, TrackedRwLock};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn a_queued_writer_holds_back_later_readers() {
        let clock = Clock::new_virtual(1.0);
        let lock = Arc::new(TrackedRwLock::new(LockClass::Test, Vec::new()));
        let ms = Duration::from_millis;
        // (arrival, writer?, hold): a reader holds 0–10 ms, a writer
        // arrives at 1 ms, a second reader at 2 ms.
        let handles: Vec<_> = [(0, false, 10), (1, true, 5), (2, false, 1)]
            .into_iter()
            .map(|(at, writer, hold)| {
                let (c, lock) = (clock.clone(), Arc::clone(&lock));
                spawn(&clock, format!("at-{at}"), move || {
                    c.sleep(ms(at));
                    if writer {
                        let mut w = lock.write();
                        w.push((at, c.now().since_origin()));
                        c.sleep(ms(hold));
                    } else {
                        let _r = lock.read();
                        c.sleep(ms(hold));
                    }
                    c.now().since_origin()
                })
            })
            .collect();
        let ends: Vec<Duration> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // The writer got the lock when the first reader left; the second
        // reader, although compatible with the first, waited behind it.
        assert_eq!(*lock.read(), [(1, ms(10))]);
        assert_eq!(ends, [ms(10), ms(15), ms(16)]);
    }
}
