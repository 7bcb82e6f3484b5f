//! Address-space newtypes and page-size definitions.
//!
//! The passthrough I/O path of the paper (§2.2, Fig. 3) involves four
//! address spaces. Mixing them up is the classic bug in this domain, so
//! each gets its own newtype:
//!
//! - [`Hpa`]: host physical address — what the DMA engine ultimately
//!   writes to after IOMMU translation.
//! - [`Hva`]: host virtual address — the hypervisor process's view.
//! - [`Gpa`]: guest physical address — the microVM's view; translated to
//!   HPA by the EPT.
//! - [`Iova`]: I/O virtual address — what the device uses for DMA;
//!   translated to HPA by the IOMMU. Often chosen identical to the GPA.

use std::fmt;
use std::ops::{Add, Sub};

macro_rules! address_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u64);

        impl $name {
            /// The zero address.
            pub const ZERO: $name = $name(0);

            /// Raw address value.
            pub fn raw(self) -> u64 {
                self.0
            }

            /// Rounds down to a multiple of `align`.
            pub fn align_down(self, align: u64) -> $name {
                debug_assert!(align.is_power_of_two());
                $name(self.0 & !(align - 1))
            }

            /// Offset within an `align`-sized page.
            pub fn page_offset(self, align: u64) -> u64 {
                debug_assert!(align.is_power_of_two());
                self.0 & (align - 1)
            }

            /// True if the address is a multiple of `align`.
            pub fn is_aligned(self, align: u64) -> bool {
                self.page_offset(align) == 0
            }

            /// Checked addition of a byte offset.
            pub fn checked_add(self, rhs: u64) -> Option<$name> {
                self.0.checked_add(rhs).map($name)
            }
        }

        impl Add<u64> for $name {
            type Output = $name;

            fn add(self, rhs: u64) -> $name {
                $name(self.0 + rhs)
            }
        }

        impl Sub<$name> for $name {
            type Output = u64;

            fn sub(self, rhs: $name) -> u64 {
                self.0 - rhs.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({:#x})", stringify!($name), self.0)
            }
        }
    };
}

address_type! {
    /// A host physical address.
    Hpa
}
address_type! {
    /// A host virtual address (hypervisor process).
    Hva
}
address_type! {
    /// A guest physical address (microVM).
    Gpa
}
address_type! {
    /// An I/O virtual address (device-side DMA address).
    Iova
}

impl Gpa {
    /// The identity IOVA for this GPA.
    ///
    /// The paper notes (§2.2) that the IOVA is commonly chosen equal to the
    /// GPA to simplify the IOVA↔GPA relationship; the hypervisor model uses
    /// this convention.
    pub fn as_identity_iova(self) -> Iova {
        Iova(self.0)
    }
}

/// Supported page sizes.
///
/// The paper's production setting enables 2 MB hugepages, which mitigates
/// the fragmented-retrieval sub-bottleneck (P2 in Fig. 6); the 4 KB size is
/// kept for the fragmentation-sensitivity experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageSize {
    /// 4 KiB base pages.
    Size4K,
    /// 2 MiB hugepages.
    Size2M,
}

impl PageSize {
    /// Size in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            PageSize::Size4K => 4 * 1024,
            PageSize::Size2M => 2 * 1024 * 1024,
        }
    }

    /// Number of pages needed to cover `len` bytes.
    pub fn pages_for(self, len: u64) -> usize {
        (len.div_ceil(self.bytes())) as usize
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageSize::Size4K => write!(f, "4K"),
            PageSize::Size2M => write!(f, "2M"),
        }
    }
}

/// Memory size helpers used across the workspace.
pub mod units {
    /// `n` kibibytes in bytes.
    pub const fn kib(n: u64) -> u64 {
        n * 1024
    }

    /// `n` mebibytes in bytes.
    pub const fn mib(n: u64) -> u64 {
        n * 1024 * 1024
    }

    /// `n` gibibytes in bytes.
    pub const fn gib(n: u64) -> u64 {
        n * 1024 * 1024 * 1024
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_helpers() {
        let a = Hpa(0x2_1234);
        assert_eq!(a.align_down(0x1000), Hpa(0x2_1000));
        assert_eq!(a.page_offset(0x1000), 0x234);
        assert!(!a.is_aligned(0x1000));
        assert!(Hpa(0x4000).is_aligned(0x1000));
    }

    #[test]
    fn arithmetic() {
        let a = Gpa(0x1000);
        assert_eq!(a + 0x500, Gpa(0x1500));
        assert_eq!(Gpa(0x1500) - a, 0x500);
        assert_eq!(a.checked_add(u64::MAX), None);
    }

    #[test]
    fn identity_iova_matches_gpa() {
        assert_eq!(Gpa(0x0dea_d000).as_identity_iova(), Iova(0x0dea_d000));
    }

    #[test]
    fn page_size_math() {
        assert_eq!(PageSize::Size4K.bytes(), 4096);
        assert_eq!(PageSize::Size2M.bytes(), 2 * 1024 * 1024);
        assert_eq!(PageSize::Size2M.pages_for(units::mib(512)), 256);
        assert_eq!(PageSize::Size4K.pages_for(1), 1);
        assert_eq!(PageSize::Size4K.pages_for(4096), 1);
        assert_eq!(PageSize::Size4K.pages_for(4097), 2);
        assert_eq!(PageSize::Size4K.pages_for(0), 0);
    }

    #[test]
    fn units() {
        use units::*;
        assert_eq!(kib(4), 4096);
        assert_eq!(mib(1), 1024 * 1024);
        assert_eq!(gib(1), 1024 * mib(1));
    }
}
