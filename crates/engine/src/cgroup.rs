//! Host resource isolation: cgroup creation with global-lock contention.
//!
//! cgroup operations contend on kernel-global locks (reference \[42\], §6.4); the
//! `0-cgroup` stage is 2.9 % of vanilla startup at concurrency 200
//! (Tab. 1) and a visibly larger share of the (smaller) software-CNI
//! startup (Fig. 14).

use fastiov_simtime::{Clock, LockClass, TrackedMutex};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// Creates and destroys per-container cgroups.
pub struct CgroupManager {
    clock: Clock,
    /// The global cgroup lock (a FIFO lock of class [`LockClass::Cgroup`])
    /// and the live cgroups it guards.
    groups: TrackedMutex<HashSet<u64>>,
    /// Parallel setup work per cgroup.
    base: Duration,
    /// Work under the global cgroup lock per cgroup.
    hold: Duration,
}

impl CgroupManager {
    /// Creates the manager with the given costs.
    pub fn new(clock: Clock, base: Duration, hold: Duration) -> Arc<Self> {
        Arc::new(CgroupManager {
            clock,
            groups: TrackedMutex::new(LockClass::Cgroup, HashSet::new()),
            base,
            hold,
        })
    }

    /// Creates the cgroup for container `id`.
    pub fn create(&self, id: u64) {
        self.clock.sleep(self.base);
        let mut groups = self.groups.lock();
        self.clock.sleep(self.hold);
        groups.insert(id);
    }

    /// Removes the cgroup for container `id`. Returns whether it existed.
    pub fn remove(&self, id: u64) -> bool {
        let mut groups = self.groups.lock();
        self.clock.sleep(self.hold);
        groups.remove(&id)
    }

    /// Live cgroups.
    pub fn len(&self) -> usize {
        self.groups.lock().len()
    }

    /// True if no cgroups exist.
    pub fn is_empty(&self) -> bool {
        self.groups.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_remove() {
        let m = CgroupManager::new(
            Clock::new_virtual(1e-5),
            Duration::from_micros(10),
            Duration::from_micros(5),
        );
        m.create(1);
        m.create(2);
        assert_eq!(m.len(), 2);
        assert!(m.remove(1));
        assert!(!m.remove(1));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn creation_serializes_on_global_lock() {
        let clock = Clock::new_virtual(1e-3);
        let hold = Duration::from_millis(2000);
        let m = CgroupManager::new(clock.clone(), Duration::ZERO, hold);
        let t0 = clock.now();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let m = Arc::clone(&m);
                fastiov_simtime::spawn(&clock, format!("create-{i}"), move || m.create(i))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(clock.now().duration_since(t0), hold * 4);
        assert!(clock.is_virtual());
    }
}
