//! The transmit path and the wire.
//!
//! Transmission mirrors receive (§2.2) in the other direction: the guest
//! driver posts TX descriptors (IOVA + length), the DMA engine *reads*
//! the payload out of guest memory through the IOMMU, and the frame goes
//! onto the wire. The wire itself models the testbed's directly connected
//! server pair (§6.1): frames delivered to it are handed to a sink
//! (the storage server's NIC, in the application experiments).

use crate::dma::{dma_chunks, DmaEngine};
use crate::vf::VfId;
use crate::Result;
use fastiov_hostmem::Iova;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A transmitted frame as seen on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Transmitting VF.
    pub src: VfId,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// A frame consumer on the far end of the wire.
pub trait WireSink: Send + Sync {
    /// Receives one frame.
    fn on_frame(&self, frame: Frame);
}

/// The wire between the application server and its peer.
#[derive(Default)]
pub struct Wire {
    /// The far end, connected once.
    sink: OnceLock<Arc<dyn WireSink>>,
    tx_frames: AtomicU64,
    tx_bytes: AtomicU64,
}

impl Wire {
    /// Creates a wire with no sink (frames are counted and dropped).
    pub fn new() -> Arc<Self> {
        Arc::new(Wire::default())
    }

    /// Connects the far-end sink. A wire is connected once: if a sink is
    /// connected already, it stays and `sink` is dropped.
    pub fn connect(&self, sink: Arc<dyn WireSink>) {
        let _ = self.sink.set(sink);
    }

    /// Puts a frame on the wire.
    pub fn send(&self, frame: Frame) {
        self.tx_frames.fetch_add(1, Ordering::Relaxed);
        self.tx_bytes
            .fetch_add(frame.payload.len() as u64, Ordering::Relaxed);
        if let Some(sink) = self.sink.get() {
            sink.on_frame(frame);
        }
    }

    /// (frames, bytes) transmitted.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.tx_frames.load(Ordering::Relaxed),
            self.tx_bytes.load(Ordering::Relaxed),
        )
    }
}

impl DmaEngine {
    /// Guest driver transmits: the DMA engine reads `len` bytes at `iova`
    /// through the VF's IOMMU translation (charging line rate) and puts
    /// the frame on `wire`.
    pub fn transmit(&self, vf: VfId, iova: Iova, len: usize, wire: &Wire) -> Result<Frame> {
        let domain = self.domain_of(vf)?;
        let mut payload = vec![0u8; len];
        let read = dma_chunks(&domain, vf, iova, len, |hpa, bytes| {
            self.memory().read_phys(hpa, &mut payload[bytes])
        });
        self.line().transfer(len as u64);
        read?;
        let frame = Frame { src: vf, payload };
        wire.send(frame.clone());
        self.raise_tx_irq(vf);
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NicError;
    use fastiov_hostmem::{MemCosts, PageSize, PhysMemory};
    use fastiov_iommu::Iommu;
    use fastiov_simtime::{Clock, FairShareBandwidth, LockClass, TrackedMutex};
    use std::time::Duration;

    /// A sink that keeps every frame it receives.
    struct Frames(TrackedMutex<Vec<Frame>>);

    impl WireSink for Frames {
        fn on_frame(&self, frame: Frame) {
            self.0.lock().push(frame);
        }
    }

    const PAGE: u64 = 2 * 1024 * 1024;

    fn setup() -> (Arc<PhysMemory>, Arc<DmaEngine>, Arc<Wire>) {
        let clock = Clock::new_virtual(1e-5);
        let mem = PhysMemory::new(MemCosts::for_tests(clock.clone()), PageSize::Size2M, 64);
        let iommu = Iommu::new(
            clock.clone(),
            Duration::from_nanos(100),
            Duration::from_nanos(200),
            32,
        );
        let domain = iommu.create_domain(PageSize::Size2M);
        let ranges = mem.alloc_frames(4, 1).unwrap();
        mem.zero_ranges(&ranges).unwrap();
        domain.map_range(Iova(0), &ranges, &mem).unwrap();
        let line = FairShareBandwidth::new(clock, 3.125e9, 3.125e9);
        let engine = DmaEngine::new(Arc::clone(&mem), line, None);
        engine.attach_vf(VfId(0), domain);
        (mem, engine, Wire::new())
    }

    #[test]
    fn transmit_reads_guest_memory_through_iommu() {
        let (mem, engine, wire) = setup();
        let sink = Arc::new(Frames(TrackedMutex::new(LockClass::Test, Vec::new())));
        wire.connect(Arc::clone(&sink) as Arc<dyn WireSink>);
        // Guest "wrote" a frame at IOVA 0x100 (via its identity-mapped
        // physical page).
        let domain_hpa = fastiov_hostmem::Hpa(0x100);
        mem.write_phys(domain_hpa, &[7u8; 64]).unwrap();
        let frame = engine.transmit(VfId(0), Iova(0x100), 64, &wire).unwrap();
        assert_eq!(frame.payload, vec![7u8; 64]);
        assert_eq!(*sink.0.lock(), [frame]);
        assert_eq!(wire.stats(), (1, 64));
    }

    #[test]
    fn transmit_across_page_boundary() {
        let (mem, engine, wire) = setup();
        let at = PAGE - 16;
        let data: Vec<u8> = (0..32u8).collect();
        mem.write_phys(fastiov_hostmem::Hpa(at), &data).unwrap();
        let frame = engine.transmit(VfId(0), Iova(at), 32, &wire).unwrap();
        assert_eq!(frame.payload, data);
    }

    #[test]
    fn transmit_from_unmapped_iova_is_dma_fault() {
        let (_, engine, wire) = setup();
        let err = engine
            .transmit(VfId(0), Iova(100 * PAGE), 64, &wire)
            .unwrap_err();
        assert!(matches!(err, NicError::DmaFault { vf: 0, .. }));
        assert_eq!(wire.stats().0, 0, "faulted frames never reach the wire");
    }

    #[test]
    fn wire_without_sink_counts_frames() {
        let (mem, engine, wire) = setup();
        mem.write_phys(fastiov_hostmem::Hpa(0), &[1u8; 10]).unwrap();
        engine.transmit(VfId(0), Iova(0), 10, &wire).unwrap();
        assert_eq!(wire.stats(), (1, 10));
    }
}
