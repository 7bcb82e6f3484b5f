//! Property-style tests over the core data structures and invariants.
//!
//! The build environment is offline, so instead of proptest these run
//! each property against many inputs drawn from a small deterministic
//! xorshift PRNG (`simtime::rng::Rng`) — same failure-finding spirit,
//! fully reproducible, and no external dependency.

use fastiov_repro::apps::workloads::compress::{compress, decompress};
use fastiov_repro::hostmem::content::PageContent;
use fastiov_repro::hostmem::Hpa;
use fastiov_repro::hostmem::{MemCosts, PageSize, PhysMemory};
use fastiov_repro::iommu::IoPageTable;
use fastiov_repro::simtime::rng::Rng;
use fastiov_repro::simtime::Clock;

/// `len` bytes from the stream.
fn bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next() as u8).collect()
}

/// A fair coin from the stream.
fn coin(rng: &mut Rng) -> bool {
    rng.next() & 1 == 1
}

/// The LZ77 compressor is lossless on arbitrary byte strings.
#[test]
fn lz_round_trips() {
    let mut rng = Rng::new(0xc0ffee);
    for case in 0..64 {
        let len = rng.below(8192) as usize;
        // Mix incompressible noise with repetitive runs so both the
        // literal and match paths are exercised.
        let data = if case % 2 == 0 {
            bytes(&mut rng, len)
        } else {
            let unit_len = 1 + rng.below(64) as usize;
            let unit = bytes(&mut rng, unit_len);
            unit.iter().copied().cycle().take(len).collect()
        };
        let compressed = compress(&data);
        let restored = decompress(&compressed).expect("own stream decodes");
        assert_eq!(restored, data, "case {case} len {len}");
    }
}

/// Page contents behave like a byte array: a random sequence of writes
/// and zeroes reads back exactly as a reference `Vec<u8>`.
#[test]
fn page_content_matches_reference_model() {
    let mut rng = Rng::new(0xdead_beef);
    for case in 0..64 {
        let size = 4096u64;
        let mut content = PageContent::garbage(size, 7);
        let mut reference: Vec<u8> = {
            let mut buf = vec![0u8; size as usize];
            content.read(0, &mut buf).unwrap();
            buf
        };
        let ops = 1 + rng.below(40);
        for _ in 0..ops {
            if coin(&mut rng) {
                content.zero();
                reference.fill(0);
            }
            let data_len = 1 + rng.below(63) as usize;
            let data = bytes(&mut rng, data_len);
            let off = rng.below(size).min(size - data.len() as u64);
            content.write(off, &data).unwrap();
            reference[off as usize..off as usize + data.len()].copy_from_slice(&data);
        }
        let mut got = vec![0u8; size as usize];
        content.read(0, &mut got).unwrap();
        assert_eq!(got, reference, "case {case}");
    }
}

/// The radix I/O page table agrees with a HashMap model under random
/// map/unmap/lookup sequences.
#[test]
fn page_table_matches_hashmap_model() {
    let mut rng = Rng::new(0x1234_5678);
    for _ in 0..64 {
        let mut table = IoPageTable::new();
        let mut model = std::collections::HashMap::new();
        let ops = 1 + rng.below(200);
        for _ in 0..ops {
            let page = rng.below(100_000);
            match rng.below(3) {
                0 => {
                    let r = table.map(page, Hpa(page << 21));
                    if let std::collections::hash_map::Entry::Vacant(e) = model.entry(page) {
                        assert!(r.is_ok());
                        e.insert(Hpa(page << 21));
                    } else {
                        assert!(r.is_err());
                    }
                }
                1 => {
                    let r = table.unmap(page);
                    assert_eq!(r.ok(), model.remove(&page));
                }
                _ => {
                    assert_eq!(table.lookup(page), model.get(&page).copied());
                }
            }
            assert_eq!(table.entries(), model.len());
        }
    }
}

/// Allocator invariants under random alloc/free interleavings: no double
/// allocation, frame counts conserved, freed frames always revert to
/// residue.
#[test]
fn allocator_conserves_frames() {
    let mut rng = Rng::new(0xaabb_ccdd);
    for _ in 0..20 {
        let total = 64;
        let costs = MemCosts::for_tests(Clock::new_virtual(1e-6));
        let mem = PhysMemory::new(costs, PageSize::Size2M, total);
        let mut live = Vec::new();
        let mut owner = 0u64;
        let requests = 1 + rng.below(20);
        for _ in 0..requests {
            owner += 1;
            let count = 1 + rng.below(7) as usize;
            match mem.alloc_frames(count, owner) {
                Ok(ranges) => {
                    let allocated: usize = ranges.iter().map(|r| r.count).sum();
                    assert_eq!(allocated, count);
                    live.push((owner, ranges));
                }
                Err(_) => {
                    // OOM: free everything and keep going.
                    for (o, ranges) in live.drain(..) {
                        mem.free_ranges(&ranges, o).unwrap();
                    }
                }
            }
            let in_use: usize = live
                .iter()
                .map(|(_, r)| r.iter().map(|x| x.count).sum::<usize>())
                .sum();
            assert_eq!(mem.stats().free_frames, total - in_use);
        }
        for (o, ranges) in live {
            for r in &ranges {
                for f in r.iter() {
                    assert_eq!(mem.owner_of(f).unwrap(), Some(o));
                }
            }
            mem.free_ranges(&ranges, o).unwrap();
            for r in &ranges {
                for f in r.iter() {
                    assert!(mem.leaks_residue(f).unwrap(), "freed frame must be residue");
                }
            }
        }
        assert_eq!(mem.stats().free_frames, total);
    }
}

/// Garbage bytes are deterministic in (nonce, offset) and biased nonzero,
/// so residue is always detectable.
#[test]
fn garbage_bytes_deterministic_nonzero() {
    use fastiov_repro::hostmem::content::garbage_byte;
    let mut rng = Rng::new(0x5555_aaaa);
    for _ in 0..256 {
        let nonce = rng.next();
        let offset = rng.next();
        assert_eq!(garbage_byte(nonce, offset), garbage_byte(nonce, offset));
        assert_ne!(garbage_byte(nonce, offset), 0);
    }
}

/// The IOTLB behaves as an LRU cache: never exceeds capacity, hits always
/// return the last inserted value, and a hit refreshes recency (checked
/// against a reference recency list).
#[test]
fn iotlb_matches_lru_model() {
    use fastiov_repro::iommu::Iotlb;
    let mut rng = Rng::new(0x9e37_79b9);
    for _ in 0..64 {
        let capacity = 1 + rng.below(7) as usize;
        let mut tlb = Iotlb::new(capacity);
        // Reference: vector ordered least→most recently used.
        let mut model: Vec<(u64, Hpa)> = Vec::new();
        let ops = 1 + rng.below(100);
        for _ in 0..ops {
            let page = rng.below(16);
            if coin(&mut rng) {
                let hpa = Hpa(page << 21);
                tlb.insert(page, hpa);
                model.retain(|&(p, _)| p != page);
                if model.len() == capacity {
                    model.remove(0);
                }
                model.push((page, hpa));
            } else {
                let got = tlb.lookup(page);
                let expect = model.iter().find(|&&(p, _)| p == page).map(|&(_, h)| h);
                assert_eq!(got, expect);
                if let Some(hpa) = expect {
                    model.retain(|&(p, _)| p != page);
                    model.push((page, hpa));
                }
            }
            assert!(tlb.len() <= capacity);
            assert_eq!(tlb.len(), model.len());
        }
    }
}

/// Percentile summaries are order statistics: every reported quantile is
/// an element of the sample, and they are monotone.
#[test]
fn summary_quantiles_are_order_statistics() {
    use fastiov_repro::engine::Summary;
    use std::time::Duration;
    let mut rng = Rng::new(0x0bad_cafe);
    for _ in 0..64 {
        let n = 1 + rng.below(200) as usize;
        let durs: Vec<Duration> = (0..n)
            .map(|_| Duration::from_micros(rng.below(100_000)))
            .collect();
        let s = Summary::from_durations(&durs).unwrap();
        for q in [s.min, s.p50, s.p90, s.p99, s.max] {
            assert!(durs.contains(&q), "{q:?} not in sample");
        }
        assert!(s.min <= s.p50 && s.p50 <= s.p90);
        assert!(s.p90 <= s.p99 && s.p99 <= s.max);
        assert!(s.min <= s.mean && s.mean <= s.max);
    }
}

/// The vring is a FIFO: descriptors come out host-side in the exact order
/// the guest pushed them, through real shared guest memory.
#[test]
fn vring_is_fifo() {
    use fastiov_repro::hostmem::{AddressSpace, Gpa, MemCosts, PageSize, PhysMemory};
    use fastiov_repro::kvm::{Memslot, Vm};
    use fastiov_repro::virtio::{Descriptor, Vring};
    use std::time::Duration;

    const PAGE: u64 = 2 * 1024 * 1024;
    let mut rng = Rng::new(0xfeed_f00d);
    for _ in 0..16 {
        let clock = Clock::new_virtual(1e-6);
        let mem = PhysMemory::new(MemCosts::for_tests(clock.clone()), PageSize::Size2M, 16);
        let aspace = AddressSpace::new(1, mem);
        let vm = Vm::new(
            clock,
            std::sync::Arc::clone(&aspace),
            Duration::from_micros(1),
            None,
        );
        let hva = aspace.mmap(8 * PAGE).unwrap();
        vm.set_memslot(Memslot {
            gpa: Gpa(0),
            len: 8 * PAGE,
            hva,
        })
        .unwrap();
        let ring = Vring::new(std::sync::Arc::clone(&vm), Gpa(0), hva);
        let descs: Vec<(u64, u32)> = (0..1 + rng.below(63))
            .map(|_| (rng.below(64), 1 + rng.below(4095) as u32))
            .collect();
        for (page, len) in &descs {
            ring.guest_push(Descriptor {
                gpa: Gpa(4 * PAGE + page * 1024),
                len: *len,
            })
            .unwrap();
        }
        for (page, len) in &descs {
            let d = ring.host_peek().unwrap();
            assert_eq!(d.gpa, Gpa(4 * PAGE + page * 1024));
            assert_eq!(d.len, *len);
            ring.host_complete().unwrap();
        }
        assert!(ring.host_peek().is_err());
    }
}
