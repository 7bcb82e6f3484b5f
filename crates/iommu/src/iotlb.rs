//! A small LRU IOTLB.

use fastiov_hostmem::Hpa;
use std::collections::HashMap;

/// A fixed-capacity LRU translation cache keyed by page number.
///
/// Real IOTLBs are the subject of a whole line of optimization work the
/// paper cites (references \[5\], \[44\]); here a simple LRU is enough to model the
/// hit/miss cost asymmetry of the data-plane translation path.
#[derive(Debug)]
pub struct Iotlb {
    capacity: usize,
    map: HashMap<u64, (Hpa, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Iotlb {
    /// Creates a cache holding up to `capacity` translations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "IOTLB needs capacity");
        Iotlb {
            capacity,
            map: HashMap::with_capacity(capacity),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up `page`, refreshing recency on hit.
    pub fn lookup(&mut self, page: u64) -> Option<Hpa> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(&page) {
            Some((hpa, last)) => {
                *last = tick;
                self.hits += 1;
                Some(*hpa)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a translation, evicting the least recently used if full.
    pub fn insert(&mut self, page: u64, hpa: Hpa) {
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&page) {
            if let Some((&victim, _)) = self.map.iter().min_by_key(|(_, (_, last))| *last) {
                self.map.remove(&victim);
            }
        }
        self.map.insert(page, (hpa, self.tick));
    }

    /// Drops the translation for `page` (on unmap).
    pub fn invalidate(&mut self, page: u64) {
        self.map.remove(&page);
    }

    /// Drops every cached translation in `[start, start + count)` — the
    /// batched invalidation issued by an extent unmap. One pass over the
    /// cache when the range is wider than the cache itself.
    pub(crate) fn invalidate_range(&mut self, start: u64, count: usize) {
        let end = start.saturating_add(count as u64);
        if count >= self.map.len() {
            self.map.retain(|&p, _| p < start || p >= end);
        } else {
            for p in start..end {
                self.map.remove(&p);
            }
        }
    }

    /// Drops everything (domain-wide invalidation).
    pub fn flush(&mut self) {
        self.map.clear();
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Current number of cached translations.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no translations are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_accounting() {
        let mut tlb = Iotlb::new(4);
        assert_eq!(tlb.lookup(1), None);
        tlb.insert(1, Hpa(0x1000));
        assert_eq!(tlb.lookup(1), Some(Hpa(0x1000)));
        assert_eq!(tlb.stats(), (1, 1));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut tlb = Iotlb::new(2);
        tlb.insert(1, Hpa(0x1000));
        tlb.insert(2, Hpa(0x2000));
        // Touch 1 so 2 becomes LRU.
        assert!(tlb.lookup(1).is_some());
        tlb.insert(3, Hpa(0x3000));
        assert_eq!(tlb.len(), 2);
        assert!(tlb.lookup(2).is_none());
        assert!(tlb.lookup(1).is_some());
        assert!(tlb.lookup(3).is_some());
    }

    #[test]
    fn invalidate_and_flush() {
        let mut tlb = Iotlb::new(4);
        tlb.insert(1, Hpa(0x1000));
        tlb.insert(2, Hpa(0x2000));
        tlb.invalidate(1);
        assert!(tlb.lookup(1).is_none());
        tlb.flush();
        assert!(tlb.is_empty());
    }

    #[test]
    fn invalidate_range_drops_exactly_the_window() {
        let mut tlb = Iotlb::new(8);
        for p in 0..8u64 {
            tlb.insert(p, Hpa(p * 0x1000));
        }
        tlb.invalidate_range(2, 4);
        assert_eq!(tlb.len(), 4);
        for p in [0u64, 1, 6, 7] {
            assert!(tlb.lookup(p).is_some(), "page {p} kept");
        }
        for p in 2..6u64 {
            assert!(tlb.lookup(p).is_none(), "page {p} dropped");
        }
        // Wide range takes the retain path.
        tlb.invalidate_range(0, 1 << 20);
        assert!(tlb.is_empty());
    }

    #[test]
    fn reinsert_updates_value() {
        let mut tlb = Iotlb::new(2);
        tlb.insert(1, Hpa(0x1000));
        tlb.insert(1, Hpa(0x9000));
        assert_eq!(tlb.lookup(1), Some(Hpa(0x9000)));
        assert_eq!(tlb.len(), 1);
    }
}
