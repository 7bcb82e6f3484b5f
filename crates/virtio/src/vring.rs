//! The vring: a descriptor ring in shared guest memory.
//!
//! Layout (all little-endian, at the ring's base GPA):
//!
//! ```text
//! offset 0:  avail_idx  u32   (written by guest)
//! offset 4:  used_idx   u32   (written by host)
//! offset 8:  desc[VRING_SLOTS], each 16 bytes:
//!            gpa u64 | len u32 | _reserved u32
//! ```
//!
//! The guest side writes through the EPT ([`fastiov_kvm::Vm::write_gpa`]),
//! so ring pages are EPT-faulted (and lazily zeroed) on the guest's first
//! write — matching the paper's observation that the ring itself is safe.
//! The host side reads and writes the same bytes through its own page
//! tables (the hypervisor [`AddressSpace`]), bypassing the EPT — exactly
//! the asymmetry that makes *buffer* pages hazardous.

use crate::{Result, VirtioError};
use fastiov_hostmem::{AddressSpace, Gpa, Hva};
use fastiov_kvm::Vm;
use std::sync::Arc;

/// Number of descriptor slots in a ring.
pub const VRING_SLOTS: u32 = 256;

const DESC_SIZE: u64 = 16;
const DESC_BASE: u64 = 8;

/// Total bytes a vring occupies in guest memory.
pub const VRING_BYTES: u64 = DESC_BASE + VRING_SLOTS as u64 * DESC_SIZE;

/// One descriptor: a guest buffer address and length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descriptor {
    /// Guest-physical address of the buffer.
    pub gpa: Gpa,
    /// Buffer length in bytes.
    pub len: u32,
}

/// A vring at a fixed GPA, with guest-side and host-side accessors.
pub struct Vring {
    vm: Arc<Vm>,
    aspace: Arc<AddressSpace>,
    base_gpa: Gpa,
    base_hva: Hva,
}

impl Vring {
    /// Wraps ring memory at `base_gpa`. The caller guarantees
    /// `VRING_BYTES` of guest memory there; `base_hva` is the host view of
    /// the same bytes.
    pub fn new(vm: Arc<Vm>, base_gpa: Gpa, base_hva: Hva) -> Self {
        let aspace = Arc::clone(vm.address_space());
        Vring {
            vm,
            aspace,
            base_gpa,
            base_hva,
        }
    }

    /// The ring's base GPA.
    pub fn base_gpa(&self) -> Gpa {
        self.base_gpa
    }

    fn guest_read_u32(&self, offset: u64) -> Result<u32> {
        let mut b = [0u8; 4];
        self.vm
            .read_gpa(Gpa(self.base_gpa.raw() + offset), &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn guest_write_u32(&self, offset: u64, v: u32) -> Result<()> {
        self.vm
            .write_gpa(Gpa(self.base_gpa.raw() + offset), &v.to_le_bytes())?;
        Ok(())
    }

    fn host_read_u32(&self, offset: u64) -> Result<u32> {
        let mut b = [0u8; 4];
        self.aspace
            .read(Hva(self.base_hva.raw() + offset), &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn host_write_u32(&self, offset: u64, v: u32) -> Result<()> {
        self.aspace
            .write(Hva(self.base_hva.raw() + offset), &v.to_le_bytes())?;
        Ok(())
    }

    /// Guest side: posts a buffer descriptor, advancing `avail_idx`.
    pub fn guest_push(&self, desc: Descriptor) -> Result<()> {
        let avail = self.guest_read_u32(0)?;
        let used = self.guest_read_u32(4)?;
        if avail.wrapping_sub(used) >= VRING_SLOTS {
            return Err(VirtioError::RingFull);
        }
        let slot = (avail % VRING_SLOTS) as u64;
        let off = DESC_BASE + slot * DESC_SIZE;
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&desc.gpa.raw().to_le_bytes());
        bytes[8..12].copy_from_slice(&desc.len.to_le_bytes());
        self.vm.write_gpa(Gpa(self.base_gpa.raw() + off), &bytes)?;
        self.guest_write_u32(0, avail.wrapping_add(1))?;
        Ok(())
    }

    /// Host side: pops the next available descriptor *without* marking it
    /// used (the backend fills the buffer first).
    pub fn host_peek(&self) -> Result<Descriptor> {
        let avail = self.host_read_u32(0)?;
        let used = self.host_read_u32(4)?;
        if avail == used {
            return Err(VirtioError::RingEmpty);
        }
        let slot = (used % VRING_SLOTS) as u64;
        let off = DESC_BASE + slot * DESC_SIZE;
        let mut bytes = [0u8; 16];
        self.aspace
            .read(Hva(self.base_hva.raw() + off), &mut bytes)?;
        let gpa = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        Ok(Descriptor { gpa: Gpa(gpa), len })
    }

    /// Host side: marks the current descriptor consumed, advancing
    /// `used_idx`.
    pub fn host_complete(&self) -> Result<()> {
        let used = self.host_read_u32(4)?;
        self.host_write_u32(4, used.wrapping_add(1))
    }

    /// Guest side: true if the host has completed more descriptors than
    /// the guest has consumed externally (simple progress check).
    pub fn guest_used_idx(&self) -> Result<u32> {
        self.guest_read_u32(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastiov_hostmem::{MemCosts, PageSize, PhysMemory};
    use fastiov_kvm::Memslot;
    use fastiov_simtime::Clock;
    use std::time::Duration;

    const PAGE: u64 = 2 * 1024 * 1024;

    fn setup() -> (Arc<Vm>, Vring) {
        let clock = Clock::new_virtual(1e-5);
        let mem = PhysMemory::new(MemCosts::for_tests(clock.clone()), PageSize::Size2M, 64);
        let aspace = AddressSpace::new(5, mem);
        let vm = Vm::new(clock, Arc::clone(&aspace), Duration::from_micros(10), None);
        let hva = aspace.mmap(8 * PAGE).unwrap();
        vm.set_memslot(Memslot {
            gpa: Gpa(0),
            len: 8 * PAGE,
            hva,
        })
        .unwrap();
        let ring = Vring::new(Arc::clone(&vm), Gpa(0), hva);
        (vm, ring)
    }

    #[test]
    fn push_peek_complete_round_trip() {
        let (_, ring) = setup();
        assert!(matches!(ring.host_peek(), Err(VirtioError::RingEmpty)));
        ring.guest_push(Descriptor {
            gpa: Gpa(4 * PAGE),
            len: 1024,
        })
        .unwrap();
        let d = ring.host_peek().unwrap();
        assert_eq!(d.gpa, Gpa(4 * PAGE));
        assert_eq!(d.len, 1024);
        ring.host_complete().unwrap();
        assert_eq!(ring.guest_used_idx().unwrap(), 1);
        assert!(matches!(ring.host_peek(), Err(VirtioError::RingEmpty)));
    }

    #[test]
    fn ring_full_detected() {
        let (_, ring) = setup();
        for i in 0..VRING_SLOTS {
            ring.guest_push(Descriptor {
                gpa: Gpa(4 * PAGE + i as u64 * 64),
                len: 64,
            })
            .unwrap();
        }
        assert!(matches!(
            ring.guest_push(Descriptor {
                gpa: Gpa(4 * PAGE),
                len: 64
            }),
            Err(VirtioError::RingFull)
        ));
    }

    #[test]
    fn guest_writes_are_host_visible_and_vice_versa() {
        // The ring is genuinely shared memory: indices written on one side
        // are read on the other.
        let (_, ring) = setup();
        ring.guest_push(Descriptor {
            gpa: Gpa(PAGE),
            len: 10,
        })
        .unwrap();
        // Host observes avail=1 used=0.
        assert_eq!(ring.host_read_u32(0).unwrap(), 1);
        ring.host_complete().unwrap();
        // Guest observes used=1 through the EPT.
        assert_eq!(ring.guest_used_idx().unwrap(), 1);
    }

    #[test]
    fn slots_wrap_around() {
        let (_, ring) = setup();
        for round in 0..(VRING_SLOTS * 2 + 3) {
            ring.guest_push(Descriptor {
                gpa: Gpa(4 * PAGE),
                len: round,
            })
            .unwrap();
            let d = ring.host_peek().unwrap();
            assert_eq!(d.len, round);
            ring.host_complete().unwrap();
        }
    }
}
