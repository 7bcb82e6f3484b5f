//! MSI-X interrupts.
//!
//! On the passthrough data plane the guest accesses the device directly;
//! the one thing still relayed through the hypervisor is the interrupt
//! signal (§2.1). The DMA engine raises a vector on each completion; an
//! [`InterruptSink`] — the hypervisor's IRQ router in the full stack —
//! forwards it into the guest, charging the relay cost.

use crate::vf::VfId;

/// An MSI-X vector index within a VF's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MsixVector(pub u16);

/// Vector raised on RX completions.
pub const RX_VECTOR: MsixVector = MsixVector(0);

/// Vector raised on TX completions.
pub const TX_VECTOR: MsixVector = MsixVector(1);

/// Vector raised on link/admin events.
pub const MISC_VECTOR: MsixVector = MsixVector(2);

/// Receiver of device interrupts (the hypervisor relay).
pub trait InterruptSink: Send + Sync {
    /// A device raised `vector` for `vf`.
    fn raise(&self, vf: VfId, vector: MsixVector);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_known_vectors_are_distinct() {
        assert_ne!(RX_VECTOR, TX_VECTOR);
        assert_ne!(TX_VECTOR, MISC_VECTOR);
    }
}
