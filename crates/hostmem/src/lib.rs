//! Host physical memory model for the FastIOV reproduction.
//!
//! This crate stands in for the Linux physical page allocator, page
//! contents, pinning, and the host MMU. It models what the paper's
//! bottleneck 2 (§3.2.3, "DMA memory mapping") depends on:
//!
//! - **Frames with contents.** Every physical frame tracks whether it
//!   holds residual data from a previous owner ([`content::PageContent`]
//!   base `Garbage`), zeros, or explicitly written bytes. The multi-tenant
//!   security property — *residual data must never be observable by a new
//!   guest* — is therefore directly testable.
//! - **Batched retrieval** (paper P2): allocation walks the free list in
//!   address order and groups physically contiguous frames into batches;
//!   retrieval cost is charged per batch, so fragmentation raises cost and
//!   hugepages lower it.
//! - **Zeroing** (paper P3): [`PhysMemory::zero_frame`] charges real
//!   simulated time against a shared memory-bandwidth resource, which is
//!   what makes concurrent startup zeroing saturate, exactly as measured
//!   in the paper (zeroing is >93 % of DMA-mapping time).
//! - **Pinning**: reference counts that keep HPAs stable during DMA.
//! - **Pre-zeroing** (HawkEye-style baseline, §6.1): an idle-time pass
//!   that zeroes a configurable fraction of free frames.
//! - **Host MMU** ([`mmu::AddressSpace`]): per-process HVA→HPA mappings
//!   with eager or lazy (fault-time, zero-on-touch) population.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod addr;
pub mod alloc;
pub mod content;
pub mod mmu;

pub use addr::{Gpa, Hpa, Hva, Iova, PageSize};
pub use alloc::{AllocStats, FrameId, FrameRange, MemCosts, PhysMemory};
pub use content::PageContent;
pub use mmu::{AddressSpace, Populate};

use std::fmt;

/// Errors from the memory model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// Not enough free frames to satisfy an allocation.
    OutOfMemory {
        /// Frames requested.
        requested: usize,
        /// Frames available.
        available: usize,
    },
    /// An address was outside every mapped region.
    NotMapped(u64),
    /// A frame index was out of range.
    BadFrame(usize),
    /// Unpin called on a frame with zero pin count.
    PinUnderflow(usize),
    /// Free called on a frame that is still pinned.
    Pinned(usize),
    /// Operation on a frame not owned by the caller.
    NotOwner {
        /// The frame in question.
        frame: usize,
        /// Its current owner, if any.
        owner: Option<u64>,
    },
    /// An access crossed the end of a region or frame.
    OutOfBounds {
        /// Offending offset.
        offset: u64,
        /// Length of the access.
        len: u64,
        /// Size of the object accessed.
        size: u64,
    },
    /// A virtual region overlapped an existing mapping.
    Overlap(u64),
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "out of memory: requested {requested} frames, {available} available"
            ),
            MemError::NotMapped(a) => write!(f, "address {a:#x} is not mapped"),
            MemError::BadFrame(i) => write!(f, "frame index {i} out of range"),
            MemError::PinUnderflow(i) => write!(f, "unpin of unpinned frame {i}"),
            MemError::Pinned(i) => write!(f, "free of pinned frame {i}"),
            MemError::NotOwner { frame, owner } => {
                write!(f, "frame {frame} not owned by caller (owner {owner:?})")
            }
            MemError::OutOfBounds { offset, len, size } => {
                write!(f, "access [{offset:#x}, +{len:#x}) exceeds size {size:#x}")
            }
            MemError::Overlap(a) => write!(f, "mapping at {a:#x} overlaps an existing region"),
        }
    }
}

impl std::error::Error for MemError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, MemError>;
