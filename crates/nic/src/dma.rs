//! The NIC DMA engine and per-VF RX rings.
//!
//! Packet receive (§2.2): the guest driver posts RX buffer addresses
//! (IOVAs) to the VF's RX ring; the DMA engine translates each IOVA
//! through the owning guest's IOMMU domain and writes packet bytes
//! straight into guest memory, then raises an interrupt that the
//! hypervisor relays.

use crate::msix::{InterruptSink, MsixVector, RX_VECTOR};
use crate::vf::VfId;
use crate::{NicError, Result};
use fastiov_hostmem::{Hpa, Iova, PhysMemory};
use fastiov_iommu::IommuDomain;
use fastiov_simtime::{FairShareBandwidth, LockClass, TrackedCondvar, TrackedMutex};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Walks `len` bytes at `iova` page by page through `domain`, handing
/// `access` each chunk's host address and buffer range; failures fault `vf`.
pub(crate) fn dma_chunks(
    domain: &IommuDomain,
    vf: VfId,
    iova: Iova,
    len: usize,
    mut access: impl FnMut(Hpa, Range<usize>) -> fastiov_hostmem::Result<()>,
) -> Result<()> {
    let fault = |detail: String| NicError::DmaFault { vf: vf.0, detail };
    let page = domain.page_size().bytes();
    let mut cursor = 0usize;
    while cursor < len {
        let at = Iova(iova.raw() + cursor as u64);
        let hpa = domain.translate(at).map_err(|e| fault(e.to_string()))?;
        let chunk = ((page - at.page_offset(page)) as usize).min(len - cursor);
        access(hpa, cursor..cursor + chunk).map_err(|e| fault(e.to_string()))?;
        cursor += chunk;
    }
    Ok(())
}

/// A buffer the guest driver posted for receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxBuffer {
    /// Device-visible address of the buffer.
    pub iova: Iova,
    /// Capacity in bytes.
    pub len: usize,
}

/// A completed receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxCompletion {
    /// The buffer that was filled.
    pub buffer: RxBuffer,
    /// Bytes actually written.
    pub written: usize,
}

/// The RX ring of one VF: posted buffers plus completions.
#[derive(Debug, Default)]
pub struct RxRing {
    posted: VecDeque<RxBuffer>,
    completed: VecDeque<RxCompletion>,
}

struct VfAttachment {
    domain: Arc<IommuDomain>,
    ring: TrackedMutex<RxRing>,
    ring_cv: TrackedCondvar,
}

/// The DMA engine: moves bytes between the wire and guest memory.
pub struct DmaEngine {
    mem: Arc<PhysMemory>,
    /// NIC line rate, shared across all VFs (processor-sharing).
    line: Arc<FairShareBandwidth>,
    attachments: TrackedMutex<HashMap<u16, Arc<VfAttachment>>>,
    irq: Option<Arc<dyn InterruptSink>>,
    rx_packets: AtomicU64,
    rx_bytes: AtomicU64,
    faults: AtomicU64,
}

impl DmaEngine {
    /// Creates the engine with the given shared line-rate resource. `irq`,
    /// if given, receives every MSI-X vector the engine raises (the
    /// hypervisor's IRQ relay).
    pub fn new(
        mem: Arc<PhysMemory>,
        line: Arc<FairShareBandwidth>,
        irq: Option<Arc<dyn InterruptSink>>,
    ) -> Arc<Self> {
        Arc::new(DmaEngine {
            mem,
            line,
            attachments: TrackedMutex::new(LockClass::NicDma, HashMap::new()),
            irq,
            rx_packets: AtomicU64::new(0),
            rx_bytes: AtomicU64::new(0),
            faults: AtomicU64::new(0),
        })
    }

    /// Raises an MSI-X vector through the sink, if any.
    fn raise_irq(&self, vf: VfId, vector: MsixVector) {
        if let Some(sink) = &self.irq {
            sink.raise(vf, vector);
        }
    }

    /// Raises the TX-completion vector (used by the transmit path).
    pub(crate) fn raise_tx_irq(&self, vf: VfId) {
        self.raise_irq(vf, crate::msix::TX_VECTOR);
    }

    /// Attaches a VF to a guest's IOMMU domain (passthrough assignment).
    pub fn attach_vf(&self, vf: VfId, domain: Arc<IommuDomain>) {
        self.attachments.lock().insert(
            vf.0,
            Arc::new(VfAttachment {
                domain,
                ring: TrackedMutex::new(LockClass::NicDma, RxRing::default()),
                ring_cv: TrackedCondvar::new(),
            }),
        );
    }

    /// Detaches a VF (guest teardown).
    pub fn detach_vf(&self, vf: VfId) {
        self.attachments.lock().remove(&vf.0);
    }

    /// The IOMMU domain a VF is attached to.
    pub fn domain_of(&self, vf: VfId) -> Result<Arc<IommuDomain>> {
        Ok(Arc::clone(&self.attachment(vf)?.domain))
    }

    /// The backing physical memory.
    pub fn memory(&self) -> &Arc<PhysMemory> {
        &self.mem
    }

    fn attachment(&self, vf: VfId) -> Result<Arc<VfAttachment>> {
        self.attachments
            .lock()
            .get(&vf.0)
            .cloned()
            .ok_or(NicError::NoSuchVf(vf.0))
    }

    /// Guest driver posts an RX buffer.
    pub fn post_rx_buffer(&self, vf: VfId, iova: Iova, len: usize) -> Result<()> {
        let att = self.attachment(vf)?;
        att.ring.lock().posted.push_back(RxBuffer { iova, len });
        Ok(())
    }

    /// Wire side: delivers `data` to the next posted RX buffer of `vf`,
    /// DMA-writing through the IOMMU and charging line-rate bandwidth.
    pub fn deliver(&self, vf: VfId, data: &[u8]) -> Result<RxCompletion> {
        let att = self.attachment(vf)?;
        let buffer = att
            .ring
            .lock()
            .posted
            .pop_front()
            .ok_or(NicError::NoRxBuffer(vf.0))?;
        if data.len() > buffer.len {
            // Oversized packets are truncated to the buffer.
        }
        let written = data.len().min(buffer.len);
        let payload = &data[..written];
        // Move the bytes, translating page by page, then charge line rate.
        let moved = dma_chunks(&att.domain, vf, buffer.iova, written, |hpa, bytes| {
            self.mem.write_phys(hpa, &payload[bytes])
        });
        self.line.transfer(written as u64);
        if moved.is_err() {
            self.faults.fetch_add(1, Ordering::Relaxed);
        }
        moved?;
        let completion = RxCompletion { buffer, written };
        {
            let mut ring = att.ring.lock();
            ring.completed.push_back(completion);
            att.ring_cv.notify_all();
        }
        // The completion interrupt is the one signal still relayed
        // through the hypervisor (§2.1).
        self.raise_irq(vf, RX_VECTOR);
        self.rx_packets.fetch_add(1, Ordering::Relaxed);
        self.rx_bytes.fetch_add(written as u64, Ordering::Relaxed);
        Ok(completion)
    }

    /// Guest driver: pops the next completion, blocking until one arrives
    /// (the interrupt + poll path collapsed into a condvar wait).
    pub fn wait_rx(&self, vf: VfId) -> Result<RxCompletion> {
        let att = self.attachment(vf)?;
        let mut ring = att.ring.lock();
        loop {
            if let Some(c) = ring.completed.pop_front() {
                return Ok(c);
            }
            att.ring_cv.wait(&mut ring);
        }
    }

    /// The shared line-rate resource (callers charging bulk transfers).
    pub fn line(&self) -> &Arc<FairShareBandwidth> {
        &self.line
    }

    /// (packets, bytes, faults) delivered so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.rx_packets.load(Ordering::Relaxed),
            self.rx_bytes.load(Ordering::Relaxed),
            self.faults.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastiov_hostmem::{MemCosts, PageSize};
    use fastiov_iommu::Iommu;
    use fastiov_simtime::Clock;
    use std::time::Duration;

    const PAGE: u64 = 2 * 1024 * 1024;

    fn setup() -> (Arc<PhysMemory>, Arc<IommuDomain>, Arc<DmaEngine>) {
        let clock = Clock::new_virtual(1e-5);
        let mem = PhysMemory::new(MemCosts::for_tests(clock.clone()), PageSize::Size2M, 64);
        let iommu = Iommu::new(
            clock.clone(),
            Duration::from_nanos(100),
            Duration::from_nanos(200),
            32,
        );
        let domain = iommu.create_domain(PageSize::Size2M);
        let line = FairShareBandwidth::new(clock, 3.125e9, 3.125e9); // 25 GbE
        let engine = DmaEngine::new(Arc::clone(&mem), line, None);
        engine.attach_vf(VfId(0), Arc::clone(&domain));
        (mem, domain, engine)
    }

    fn map_guest_ram(
        mem: &Arc<PhysMemory>,
        domain: &Arc<IommuDomain>,
        pages: usize,
    ) -> fastiov_hostmem::Hpa {
        let ranges = mem.alloc_frames(pages, 42).unwrap();
        mem.zero_ranges(&ranges).unwrap();
        domain.map_range(Iova(0), &ranges, mem).unwrap();
        mem.hpa_of(ranges[0].start)
    }

    #[test]
    fn deliver_writes_through_iommu() {
        let (mem, domain, engine) = setup();
        let base_hpa = map_guest_ram(&mem, &domain, 2);
        engine.post_rx_buffer(VfId(0), Iova(100), 1500).unwrap();
        let pkt: Vec<u8> = (0..64u8).collect();
        let c = engine.deliver(VfId(0), &pkt).unwrap();
        assert_eq!(c.written, 64);
        let mut buf = vec![0u8; 64];
        mem.read_phys(fastiov_hostmem::Hpa(base_hpa.raw() + 100), &mut buf)
            .unwrap();
        assert_eq!(buf, pkt);
        let (pkts, bytes, _) = engine.stats();
        assert_eq!((pkts, bytes), (1, 64));
    }

    #[test]
    fn deliver_without_buffer_fails() {
        let (_, _, engine) = setup();
        assert!(matches!(
            engine.deliver(VfId(0), &[0u8; 10]),
            Err(NicError::NoRxBuffer(0))
        ));
    }

    #[test]
    fn deliver_to_unmapped_iova_is_dma_fault() {
        let (_, _, engine) = setup();
        // Nothing mapped in the domain.
        engine.post_rx_buffer(VfId(0), Iova(0), 1500).unwrap();
        let e = engine.deliver(VfId(0), &[1, 2, 3]).unwrap_err();
        assert!(matches!(e, NicError::DmaFault { vf: 0, .. }));
        assert_eq!(engine.stats().2, 1);
    }

    #[test]
    fn oversized_packet_truncated_to_buffer() {
        let (mem, domain, engine) = setup();
        map_guest_ram(&mem, &domain, 1);
        engine.post_rx_buffer(VfId(0), Iova(0), 8).unwrap();
        let c = engine.deliver(VfId(0), &[7u8; 32]).unwrap();
        assert_eq!(c.written, 8);
    }

    #[test]
    fn rx_crossing_page_boundary() {
        let (mem, domain, engine) = setup();
        let base_hpa = map_guest_ram(&mem, &domain, 2);
        let start = PAGE - 8;
        engine.post_rx_buffer(VfId(0), Iova(start), 64).unwrap();
        let pkt: Vec<u8> = (0..16u8).map(|b| b + 1).collect();
        engine.deliver(VfId(0), &pkt).unwrap();
        let mut buf = vec![0u8; 16];
        mem.read_phys(fastiov_hostmem::Hpa(base_hpa.raw() + start), &mut buf)
            .unwrap();
        assert_eq!(buf, pkt);
    }

    #[test]
    fn wait_rx_blocks_until_delivery() {
        let (mem, domain, engine) = setup();
        map_guest_ram(&mem, &domain, 1);
        engine.post_rx_buffer(VfId(0), Iova(0), 1500).unwrap();
        let e2 = Arc::clone(&engine);
        let clock = mem.costs().clock.clone();
        let waiter = fastiov_simtime::spawn(&clock, "waiter", move || e2.wait_rx(VfId(0)).unwrap());
        // The waiter runs while this thread sleeps, and blocks.
        clock.sleep(Duration::from_millis(10));
        engine.deliver(VfId(0), &[9u8; 10]).unwrap();
        let c = waiter.join().unwrap();
        assert_eq!(c.written, 10);
    }

    #[test]
    fn detached_vf_rejects_operations() {
        let (_, _, engine) = setup();
        engine.detach_vf(VfId(0));
        assert!(engine.post_rx_buffer(VfId(0), Iova(0), 10).is_err());
    }
}
