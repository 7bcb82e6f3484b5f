//! Network namespaces and the rtnl lock.
//!
//! Moving interfaces between namespaces, creating virtual devices, and
//! configuring addresses all serialize on the kernel's global rtnl lock —
//! the contention source behind the software CNI's `addCNI` cost
//! (§6.4, reference \[42\]).

use crate::{CniError, Result};
use fastiov_nic::NetdevName;
use fastiov_simtime::{Clock, LockClass, TrackedMutex};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// The kernel's global routing-netlink lock, a FIFO lock of class
/// [`LockClass::Rtnl`].
pub struct RtnlLock {
    clock: Clock,
    lock: TrackedMutex<()>,
}

impl RtnlLock {
    /// Creates the lock.
    pub fn new(clock: Clock) -> Arc<Self> {
        Arc::new(RtnlLock {
            clock,
            lock: TrackedMutex::new(LockClass::Rtnl, ()),
        })
    }

    /// Runs `f` while holding rtnl, charging `hold` of kernel work under
    /// the lock.
    pub fn with<R>(&self, hold: Duration, f: impl FnOnce() -> R) -> R {
        let _g = self.lock.lock();
        let r = f();
        self.clock.sleep(hold);
        r
    }
}

/// One container's network namespace.
#[derive(Debug, Default)]
pub struct NnsState {
    /// Interfaces currently inside the namespace.
    pub interfaces: Vec<NetdevName>,
    /// Configured IPv4 address, if any.
    pub ip: Option<[u8; 4]>,
}

/// Handle to a namespace.
pub struct Nns {
    id: u64,
    state: TrackedMutex<NnsState>,
}

impl Nns {
    /// Namespace id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Snapshot of interfaces in the namespace.
    pub fn interfaces(&self) -> Vec<NetdevName> {
        self.state.lock().interfaces.clone()
    }

    /// Configured IP, if any.
    pub fn ip(&self) -> Option<[u8; 4]> {
        self.state.lock().ip
    }

    /// True if the namespace contains `name` — the runtime's "check the
    /// existence of the VF in the NNS" step (Fig. 4).
    pub fn has_interface(&self, name: &NetdevName) -> bool {
        self.state.lock().interfaces.contains(name)
    }
}

/// Registry of all namespaces on the host.
pub struct NnsRegistry {
    clock: Clock,
    rtnl: Arc<RtnlLock>,
    /// Creation cost outside rtnl.
    create_cost: Duration,
    /// rtnl hold for an interface move.
    move_hold: Duration,
    /// rtnl hold for address configuration.
    ip_hold: Duration,
    namespaces: TrackedMutex<HashMap<u64, Arc<Nns>>>,
}

impl NnsRegistry {
    /// Creates the registry with the given costs.
    pub fn new(
        clock: Clock,
        rtnl: Arc<RtnlLock>,
        create_cost: Duration,
        move_hold: Duration,
        ip_hold: Duration,
    ) -> Arc<Self> {
        Arc::new(NnsRegistry {
            clock,
            rtnl,
            create_cost,
            move_hold,
            ip_hold,
            namespaces: TrackedMutex::new(LockClass::CniRegistry, HashMap::new()),
        })
    }

    /// The rtnl lock (shared with plugins that create devices).
    pub fn rtnl(&self) -> &Arc<RtnlLock> {
        &self.rtnl
    }

    /// Creates an isolated namespace for container `id`.
    pub fn create(&self, id: u64) -> Arc<Nns> {
        self.clock.sleep(self.create_cost);
        let nns = Arc::new(Nns {
            id,
            state: TrackedMutex::new(LockClass::CniNns, NnsState::default()),
        });
        self.namespaces.lock().insert(id, Arc::clone(&nns));
        nns
    }

    /// Looks up a namespace.
    pub fn get(&self, id: u64) -> Result<Arc<Nns>> {
        self.namespaces
            .lock()
            .get(&id)
            .cloned()
            .ok_or(CniError::NoSuchNns(id))
    }

    /// Moves an interface into a namespace (rtnl-serialized).
    pub fn move_into(&self, nns: &Nns, dev: NetdevName) {
        self.rtnl.with(self.move_hold, || {
            nns.state.lock().interfaces.push(dev);
        });
    }

    /// Configures an IPv4 address on the namespace (rtnl-serialized).
    pub fn configure_ip(&self, nns: &Nns, ip: [u8; 4]) {
        self.rtnl.with(self.ip_hold, || {
            nns.state.lock().ip = Some(ip);
        });
    }

    /// Destroys a namespace.
    pub fn destroy(&self, id: u64) -> Result<()> {
        self.namespaces
            .lock()
            .remove(&id)
            .map(|_| ())
            .ok_or(CniError::NoSuchNns(id))
    }

    /// Number of live namespaces.
    pub fn len(&self) -> usize {
        self.namespaces.lock().len()
    }

    /// True if no namespaces exist.
    pub fn is_empty(&self) -> bool {
        self.namespaces.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Arc<NnsRegistry> {
        let clock = Clock::new_virtual(1e-5);
        let rtnl = RtnlLock::new(clock.clone());
        NnsRegistry::new(
            clock,
            rtnl,
            Duration::from_micros(50),
            Duration::from_micros(30),
            Duration::from_micros(20),
        )
    }

    #[test]
    fn create_move_configure() {
        let reg = registry();
        let nns = reg.create(1);
        assert_eq!(reg.len(), 1);
        let dev = NetdevName("dummy-vf0".into());
        reg.move_into(&nns, dev.clone());
        assert!(nns.has_interface(&dev));
        reg.configure_ip(&nns, [10, 0, 0, 5]);
        assert_eq!(nns.ip(), Some([10, 0, 0, 5]));
        assert_eq!(reg.get(1).unwrap().id(), 1);
        reg.destroy(1).unwrap();
        assert!(reg.get(1).is_err());
    }

    #[test]
    fn rtnl_serializes_holders() {
        let clock = Clock::new_virtual(1e-3);
        let rtnl = RtnlLock::new(clock.clone());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let rtnl = Arc::clone(&rtnl);
                fastiov_simtime::spawn(&clock, format!("holder-{i}"), move || {
                    rtnl.with(Duration::from_millis(2000), || ())
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // 4 × 2 s, one holder at a time.
        assert_eq!(clock.now().since_origin(), Duration::from_secs(8));
        assert!(clock.is_virtual());
    }

    #[test]
    fn missing_nns_reported() {
        let reg = registry();
        assert!(matches!(reg.get(9), Err(CniError::NoSuchNns(9))));
        assert!(reg.destroy(9).is_err());
    }
}
