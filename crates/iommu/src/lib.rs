//! IOMMU model: translation domains, I/O page tables, IOTLB.
//!
//! The IOMMU translates device-issued IOVAs to host physical addresses by
//! walking a per-domain I/O page table that lives in host memory (§2.2,
//! Fig. 3). Crucially, **the IOMMU cannot take page faults during DMA**
//! (§3.2.3) — a translation miss is a DMA fault, which is why passthrough
//! requires every guest page to be allocated, pinned, and mapped up front.
//! [`IommuError::DmaFault`] is that failure mode, and the skip-mapping
//! optimization's safety argument ("the image region is never a DMA
//! target") is tested against it.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod domain;
pub mod iotlb;
pub mod table;

pub use domain::{Iommu, IommuDomain, IommuStats};
pub use iotlb::Iotlb;
pub use table::IoPageTable;

use fastiov_hostmem::Iova;
use std::fmt;

/// Errors from the IOMMU model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IommuError {
    /// Device DMA'd to an IOVA with no translation: a DMA fault. The IOMMU
    /// cannot resolve this by paging; the transaction is aborted.
    DmaFault(Iova),
    /// Mapping over an already-mapped IOVA page.
    AlreadyMapped(Iova),
    /// Unmapping an IOVA page that was never mapped.
    NotMapped(Iova),
    /// Address not aligned to the domain's page size.
    Unaligned(Iova),
}

impl fmt::Display for IommuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IommuError::DmaFault(a) => write!(f, "DMA fault: no translation for {a}"),
            IommuError::AlreadyMapped(a) => write!(f, "IOVA {a} already mapped"),
            IommuError::NotMapped(a) => write!(f, "IOVA {a} not mapped"),
            IommuError::Unaligned(a) => write!(f, "IOVA {a} not page aligned"),
        }
    }
}

impl std::error::Error for IommuError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, IommuError>;
