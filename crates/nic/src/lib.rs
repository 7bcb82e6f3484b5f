//! SR-IOV NIC model: PF driver, VF lifecycle, admin queue, DMA engine.
//!
//! The NIC's physical resources are owned by its Physical Function (§2.1);
//! VFs are carved out of them and configured *through the PF*. Two
//! behaviours matter for the paper:
//!
//! - **The PF admin queue** ([`pf::AdminQueue`]): every VF driver command
//!   (MAC set, queue enable, link query) is a mailbox transaction that the
//!   PF serializes. At low arrival concurrency this is invisible; when the
//!   other FastIOV optimizations compress 200 startups together, VF driver
//!   initialization piles onto this queue — which is why removing the
//!   asynchronous-init optimization (FastIOV-A) costs far more than the
//!   3.4 % that `5-vf-driver` contributes to the vanilla breakdown.
//! - **The DMA engine** ([`dma::DmaEngine`]): moves packet bytes between
//!   the wire and guest memory through the IOMMU translation of the
//!   owning guest, at the NIC's line rate.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod dma;
pub mod msix;
pub mod pf;
pub mod tx;
pub mod vf;

pub use dma::{DmaEngine, RxCompletion, RxRing};
pub use msix::{InterruptSink, MsixVector};
pub use pf::{AdminCmd, AdminQueue, AdminReply, PfDriver, PfStats};
pub use tx::{Frame, Wire, WireSink};
pub use vf::{MacAddr, NetdevName, Vf, VfId, VfState};

use fastiov_faults::FaultError;
use fastiov_pci::{Bdf, PciError};
use std::fmt;

/// Errors from the NIC model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NicError {
    /// VF index out of range.
    NoSuchVf(u16),
    /// VFs were already created (pre-creation is one-time).
    VfsAlreadyCreated,
    /// Operation requires the VF in a different state.
    BadVfState {
        /// The VF.
        vf: u16,
        /// What went wrong.
        reason: &'static str,
    },
    /// DMA attempted with no posted RX buffer.
    NoRxBuffer(u16),
    /// Underlying PCI error.
    Pci(PciError),
    /// DMA translation fault (surface of `IommuError::DmaFault`).
    DmaFault {
        /// The VF performing DMA.
        vf: u16,
        /// Human-readable detail.
        detail: String,
    },
    /// Fault injected by the fault plane (VF link bring-up).
    Injected(FaultError),
}

impl NicError {
    /// The injected fault behind this error, if any.
    pub fn injected(&self) -> Option<&FaultError> {
        match self {
            NicError::Injected(f) => Some(f),
            _ => None,
        }
    }
}

impl fmt::Display for NicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NicError::NoSuchVf(i) => write!(f, "no VF {i}"),
            NicError::VfsAlreadyCreated => write!(f, "VFs already created"),
            NicError::BadVfState { vf, reason } => write!(f, "VF {vf}: {reason}"),
            NicError::NoRxBuffer(i) => write!(f, "VF {i}: no RX buffer posted"),
            NicError::Pci(e) => write!(f, "pci: {e}"),
            NicError::DmaFault { vf, detail } => write!(f, "VF {vf} DMA fault: {detail}"),
            NicError::Injected(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for NicError {}

impl From<PciError> for NicError {
    fn from(e: PciError) -> Self {
        NicError::Pci(e)
    }
}

impl From<FaultError> for NicError {
    fn from(e: FaultError) -> Self {
        NicError::Injected(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, NicError>;

/// Returns the BDF a VF index maps to on the NIC's bus (ARI-style packing:
/// eight functions per device number).
pub(crate) fn vf_bdf(bus: u8, index: u16) -> Bdf {
    Bdf::new(bus, (1 + index / 8) as u8, (index % 8) as u8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vf_bdf_packing() {
        assert_eq!(vf_bdf(3, 0), Bdf::new(3, 1, 0));
        assert_eq!(vf_bdf(3, 7), Bdf::new(3, 1, 7));
        assert_eq!(vf_bdf(3, 8), Bdf::new(3, 2, 0));
        assert_eq!(vf_bdf(3, 255), Bdf::new(3, 32, 7));
    }
}
