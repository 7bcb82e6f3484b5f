//! The hypervisor's interrupt relay.
//!
//! After passthrough initialization "the guest can directly interact
//! with the device in subsequent data transmission, and only interrupt
//! signals are relayed through the hypervisor" (§2.1). The router models
//! that relay: each raised MSI-X vector costs one hypervisor traversal.

use fastiov_nic::{InterruptSink, MsixVector, VfId};
use fastiov_simtime::Clock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Counters exposed by [`IrqRouter::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IrqStats {
    /// RX-completion interrupts relayed.
    pub rx: u64,
    /// TX-completion interrupts relayed.
    pub tx: u64,
    /// Other vectors relayed.
    pub misc: u64,
}

/// The per-host interrupt router.
pub struct IrqRouter {
    clock: Clock,
    relay_cost: Duration,
    rx: AtomicU64,
    tx: AtomicU64,
    misc: AtomicU64,
}

impl IrqRouter {
    /// Creates a router charging `relay_cost` per relayed interrupt.
    pub fn new(clock: Clock, relay_cost: Duration) -> Arc<Self> {
        Arc::new(IrqRouter {
            clock,
            relay_cost,
            rx: AtomicU64::new(0),
            tx: AtomicU64::new(0),
            misc: AtomicU64::new(0),
        })
    }

    /// Counter snapshot.
    pub fn stats(&self) -> IrqStats {
        IrqStats {
            rx: self.rx.load(Ordering::Relaxed),
            tx: self.tx.load(Ordering::Relaxed),
            misc: self.misc.load(Ordering::Relaxed),
        }
    }
}

impl InterruptSink for IrqRouter {
    fn raise(&self, _vf: VfId, vector: MsixVector) {
        self.clock.sleep(self.relay_cost);
        let counter = match vector {
            fastiov_nic::msix::RX_VECTOR => &self.rx,
            fastiov_nic::msix::TX_VECTOR => &self.tx,
            _ => &self.misc,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_counts_by_vector() {
        let r = IrqRouter::new(Clock::new_virtual(1e-5), Duration::from_micros(12));
        r.raise(VfId(0), fastiov_nic::msix::RX_VECTOR);
        r.raise(VfId(0), fastiov_nic::msix::RX_VECTOR);
        r.raise(VfId(1), fastiov_nic::msix::TX_VECTOR);
        r.raise(VfId(1), fastiov_nic::msix::MISC_VECTOR);
        let s = r.stats();
        assert_eq!((s.rx, s.tx, s.misc), (2, 1, 1));
    }
}
