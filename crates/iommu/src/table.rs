//! A 3-level radix page table over page numbers.
//!
//! Mirrors the structure of a real I/O page table (9-bit indices per
//! level, covering 2^27 pages); used both by the IOMMU domains here and by
//! the EPT in `fastiov-kvm`.

use fastiov_hostmem::Hpa;

const FANOUT: usize = 512;
const BITS: u32 = 9;

type Leaf = Box<[Option<Hpa>; FANOUT]>;
type Mid = Box<[Option<Leaf>; FANOUT]>;

/// A 3-level radix table mapping page numbers to host physical addresses.
///
/// # Examples
///
/// ```
/// use fastiov_iommu::IoPageTable;
/// use fastiov_hostmem::Hpa;
///
/// let mut t = IoPageTable::new();
/// t.map(42, Hpa(0x20_0000)).unwrap();
/// assert_eq!(t.lookup(42), Some(Hpa(0x20_0000)));
/// assert_eq!(t.lookup(43), None);
/// ```
pub struct IoPageTable {
    root: Box<[Option<Mid>; FANOUT]>,
    entries: usize,
}

/// Why a map/unmap failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableError {
    /// Entry already present.
    Present,
    /// Entry absent.
    Absent,
    /// Page number exceeds the 27-bit space.
    OutOfRange,
}

impl IoPageTable {
    /// Maximum mappable page number (exclusive).
    pub(crate) const MAX_PAGES: u64 = 1 << (3 * BITS);

    /// Creates an empty table.
    pub fn new() -> Self {
        IoPageTable {
            root: empty_array(),
            entries: 0,
        }
    }

    fn split(page: u64) -> (usize, usize, usize) {
        let l3 = (page & (FANOUT as u64 - 1)) as usize;
        let l2 = ((page >> BITS) & (FANOUT as u64 - 1)) as usize;
        let l1 = ((page >> (2 * BITS)) & (FANOUT as u64 - 1)) as usize;
        (l1, l2, l3)
    }

    /// Installs `page → hpa`.
    pub fn map(&mut self, page: u64, hpa: Hpa) -> std::result::Result<(), TableError> {
        if page >= Self::MAX_PAGES {
            return Err(TableError::OutOfRange);
        }
        let (i1, i2, i3) = Self::split(page);
        let mid = self.root[i1].get_or_insert_with(empty_array);
        let leaf = mid[i2].get_or_insert_with(empty_array);
        if leaf[i3].is_some() {
            return Err(TableError::Present);
        }
        leaf[i3] = Some(hpa);
        self.entries += 1;
        Ok(())
    }

    /// Removes the entry for `page`, returning the old HPA.
    pub fn unmap(&mut self, page: u64) -> std::result::Result<Hpa, TableError> {
        if page >= Self::MAX_PAGES {
            return Err(TableError::OutOfRange);
        }
        let (i1, i2, i3) = Self::split(page);
        let slot = self.root[i1]
            .as_mut()
            .and_then(|m| m[i2].as_mut())
            .map(|l| &mut l[i3]);
        match slot.and_then(Option::take) {
            Some(hpa) => {
                self.entries -= 1;
                Ok(hpa)
            }
            None => Err(TableError::Absent),
        }
    }

    /// Installs the extent `page → hpa_base + i * page_bytes` for `count`
    /// consecutive pages in one table operation.
    ///
    /// The walk descends to each leaf once per 512-entry window instead of
    /// once per page, which is what makes contiguous [`FrameRange`]s cheap
    /// to install. All-or-nothing: if any page in the extent is already
    /// present (or out of range) nothing is modified and the error is
    /// returned.
    ///
    /// [`FrameRange`]: fastiov_hostmem::FrameRange
    pub fn map_extent(
        &mut self,
        start_page: u64,
        hpa_base: Hpa,
        page_bytes: u64,
        count: usize,
    ) -> std::result::Result<(), TableError> {
        if count == 0 {
            return Ok(());
        }
        let end = start_page
            .checked_add(count as u64 - 1)
            .ok_or(TableError::OutOfRange)?;
        if end >= Self::MAX_PAGES {
            return Err(TableError::OutOfRange);
        }
        // Pass 1: conflict scan, touching each leaf window once.
        self.walk_extent(start_page, count, |leaf, i3, chunk, _| {
            if let Some(leaf) = leaf {
                if leaf[i3..i3 + chunk].iter().any(Option::is_some) {
                    return Err(TableError::Present);
                }
            }
            Ok(())
        })?;
        // Pass 2: install.
        let mut p = start_page;
        let mut idx = 0u64;
        let mut remaining = count;
        while remaining > 0 {
            let (i1, i2, i3) = Self::split(p);
            let chunk = (FANOUT - i3).min(remaining);
            let mid = self.root[i1].get_or_insert_with(empty_array);
            let leaf = mid[i2].get_or_insert_with(empty_array);
            for k in 0..chunk {
                leaf[i3 + k] = Some(Hpa(hpa_base.raw() + idx * page_bytes));
                idx += 1;
            }
            self.entries += chunk;
            p += chunk as u64;
            remaining -= chunk;
        }
        Ok(())
    }

    /// Removes `count` consecutive entries starting at `start_page` in one
    /// table operation. All-or-nothing: if any page is absent, nothing is
    /// modified.
    pub(crate) fn unmap_extent(
        &mut self,
        start_page: u64,
        count: usize,
    ) -> std::result::Result<(), TableError> {
        if count == 0 {
            return Ok(());
        }
        let end = start_page
            .checked_add(count as u64 - 1)
            .ok_or(TableError::OutOfRange)?;
        if end >= Self::MAX_PAGES {
            return Err(TableError::OutOfRange);
        }
        // Pass 1: every page present?
        self.walk_extent(start_page, count, |leaf, i3, chunk, _| match leaf {
            Some(leaf) if leaf[i3..i3 + chunk].iter().all(Option::is_some) => Ok(()),
            _ => Err(TableError::Absent),
        })?;
        // Pass 2: clear.
        let mut p = start_page;
        let mut remaining = count;
        while remaining > 0 {
            let (i1, i2, i3) = Self::split(p);
            let chunk = (FANOUT - i3).min(remaining);
            #[expect(clippy::expect_used, reason = "invariant: pass 1 saw every leaf")]
            let leaf = self.root[i1]
                .as_mut()
                .and_then(|m| m[i2].as_mut())
                .expect("invariant: presence verified by the pre-scan above");
            for k in 0..chunk {
                leaf[i3 + k] = None;
            }
            self.entries -= chunk;
            p += chunk as u64;
            remaining -= chunk;
        }
        Ok(())
    }

    /// Visits the extent one leaf window at a time (read-only).
    fn walk_extent(
        &self,
        start_page: u64,
        count: usize,
        mut visit: impl FnMut(Option<&Leaf>, usize, usize, u64) -> std::result::Result<(), TableError>,
    ) -> std::result::Result<(), TableError> {
        let mut p = start_page;
        let mut remaining = count;
        while remaining > 0 {
            let (i1, i2, i3) = Self::split(p);
            let chunk = (FANOUT - i3).min(remaining);
            let leaf = self.root[i1].as_ref().and_then(|m| m[i2].as_ref());
            visit(leaf, i3, chunk, p)?;
            p += chunk as u64;
            remaining -= chunk;
        }
        Ok(())
    }

    /// Looks up the translation for `page`.
    pub fn lookup(&self, page: u64) -> Option<Hpa> {
        if page >= Self::MAX_PAGES {
            return None;
        }
        let (i1, i2, i3) = Self::split(page);
        self.root[i1]
            .as_ref()
            .and_then(|m| m[i2].as_ref())
            .and_then(|l| l[i3])
    }

    /// Number of installed entries.
    pub fn entries(&self) -> usize {
        self.entries
    }
}

impl Default for IoPageTable {
    fn default() -> Self {
        Self::new()
    }
}

fn empty_array<T>() -> Box<[Option<T>; FANOUT]> {
    // A Vec avoids putting the 512-slot array on the stack during
    // construction.
    let v: Vec<Option<T>> = (0..FANOUT).map(|_| None).collect();
    v.into_boxed_slice()
        .try_into()
        .unwrap_or_else(|_| unreachable!("length is FANOUT"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_lookup_unmap() {
        let mut t = IoPageTable::new();
        t.map(0, Hpa(0x1000)).unwrap();
        t.map(511, Hpa(0x2000)).unwrap();
        t.map(512, Hpa(0x3000)).unwrap();
        t.map(IoPageTable::MAX_PAGES - 1, Hpa(0x4000)).unwrap();
        assert_eq!(t.entries(), 4);
        assert_eq!(t.lookup(512), Some(Hpa(0x3000)));
        assert_eq!(t.unmap(512).unwrap(), Hpa(0x3000));
        assert_eq!(t.lookup(512), None);
        assert_eq!(t.entries(), 3);
    }

    #[test]
    fn double_map_rejected() {
        let mut t = IoPageTable::new();
        t.map(7, Hpa(0x1000)).unwrap();
        assert_eq!(t.map(7, Hpa(0x2000)), Err(TableError::Present));
        // Original mapping intact.
        assert_eq!(t.lookup(7), Some(Hpa(0x1000)));
    }

    #[test]
    fn unmap_absent_rejected() {
        let mut t = IoPageTable::new();
        assert_eq!(t.unmap(7), Err(TableError::Absent));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut t = IoPageTable::new();
        assert_eq!(
            t.map(IoPageTable::MAX_PAGES, Hpa(0)),
            Err(TableError::OutOfRange)
        );
        assert_eq!(t.lookup(IoPageTable::MAX_PAGES), None);
    }

    #[test]
    fn map_extent_matches_per_page_maps() {
        // The bulk install must produce exactly the state a per-page loop
        // would (the cost-equivalence argument relies on this).
        let mut bulk = IoPageTable::new();
        let mut loopy = IoPageTable::new();
        // Crosses two leaf boundaries: pages 500..1600.
        bulk.map_extent(500, Hpa(0x10_0000), 0x1000, 1100).unwrap();
        for i in 0..1100u64 {
            loopy.map(500 + i, Hpa(0x10_0000 + i * 0x1000)).unwrap();
        }
        assert_eq!(bulk.entries(), loopy.entries());
        for p in 498..1602u64 {
            assert_eq!(bulk.lookup(p), loopy.lookup(p), "page {p}");
        }
    }

    #[test]
    fn map_extent_conflict_leaves_table_unchanged() {
        let mut t = IoPageTable::new();
        t.map(600, Hpa(0xdead)).unwrap();
        assert_eq!(
            t.map_extent(500, Hpa(0x1000), 0x1000, 200),
            Err(TableError::Present)
        );
        assert_eq!(t.entries(), 1, "nothing installed on conflict");
        assert_eq!(t.lookup(500), None);
        assert_eq!(t.lookup(600), Some(Hpa(0xdead)));
    }

    #[test]
    fn unmap_extent_round_trip_and_atomicity() {
        let mut t = IoPageTable::new();
        t.map_extent(0, Hpa(0), 0x1000, 1024).unwrap();
        assert_eq!(t.entries(), 1024);
        // A hole makes the whole unmap fail without side effects.
        t.unmap(512).unwrap();
        assert_eq!(t.unmap_extent(0, 1024), Err(TableError::Absent));
        assert_eq!(t.entries(), 1023);
        t.unmap_extent(0, 512).unwrap();
        t.unmap_extent(513, 511).unwrap();
        assert_eq!(t.entries(), 0);
    }

    #[test]
    fn extent_out_of_range_rejected() {
        let mut t = IoPageTable::new();
        assert_eq!(
            t.map_extent(IoPageTable::MAX_PAGES - 1, Hpa(0), 0x1000, 2),
            Err(TableError::OutOfRange)
        );
        assert_eq!(t.map_extent(5, Hpa(0), 0x1000, 0), Ok(()));
        assert_eq!(t.entries(), 0);
    }

    #[test]
    fn dense_range_round_trips() {
        let mut t = IoPageTable::new();
        for p in 0..2048u64 {
            t.map(p, Hpa(p * 0x1000)).unwrap();
        }
        for p in 0..2048u64 {
            assert_eq!(t.lookup(p), Some(Hpa(p * 0x1000)));
        }
        assert_eq!(t.entries(), 2048);
    }
}
