//! Byte-accurate page content tracking without byte-accurate storage.
//!
//! A 2 MB frame cannot afford a 2 MB backing buffer when the experiments
//! model 100 GB of guest memory, so contents are tracked as a *base state*
//! plus a sparse list of written extents:
//!
//! - base [`BaseState::Garbage`]: deterministic pseudo-random residue from
//!   a previous owner, keyed by a nonce — readable, nonzero, and therefore
//!   a detectable information leak if it ever reaches a guest;
//! - base [`BaseState::Zeroed`]: reads as zeros;
//! - written extents override the base byte-for-byte.
//!
//! This gives exact read/write/zero semantics for every test and data-path
//! transfer in the workspace while storing only what was actually written.

use crate::MemError;
use fastiov_simtime::rng::mix64;
use std::collections::BTreeMap;

/// The background state of bytes not covered by any written extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseState {
    /// Residual data from a previous owner, derived from a nonce.
    Garbage(u64),
    /// All-zero bytes.
    Zeroed,
}

/// Deterministic residue byte for `(nonce, offset)`.
///
/// A cheap 64-bit mix ([`mix64`]); the only requirements are determinism
/// and "almost never zero".
pub fn garbage_byte(nonce: u64, offset: u64) -> u8 {
    let z = mix64(nonce.wrapping_add(offset.wrapping_mul(0xbf58_476d_1ce4_e5b9)));
    // Bias away from zero so residue is visibly nonzero.
    (z as u8) | 0x01
}

/// The logical contents of one physical frame.
///
/// # Examples
///
/// ```
/// use fastiov_hostmem::PageContent;
///
/// let mut page = PageContent::garbage(4096, 42);
/// assert!(page.leaks_residue()); // previous tenant's bytes visible
/// page.zero();
/// page.write(100, b"hello").unwrap();
/// let mut buf = [0u8; 5];
/// page.read(100, &mut buf).unwrap();
/// assert_eq!(&buf, b"hello");
/// assert!(!page.leaks_residue());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageContent {
    size: u64,
    base: BaseState,
    /// Written extents: offset → bytes. Invariant: non-overlapping,
    /// non-adjacent (adjacent/overlapping writes are merged), all within
    /// `size`.
    writes: BTreeMap<u64, Vec<u8>>,
}

impl PageContent {
    /// A fresh frame full of previous-owner residue.
    pub fn garbage(size: u64, nonce: u64) -> Self {
        PageContent {
            size,
            base: BaseState::Garbage(nonce),
            writes: BTreeMap::new(),
        }
    }

    /// A zeroed frame.
    pub fn zeroed(size: u64) -> Self {
        PageContent {
            size,
            base: BaseState::Zeroed,
            writes: BTreeMap::new(),
        }
    }

    /// Frame size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Current base state.
    pub fn base(&self) -> BaseState {
        self.base
    }

    /// True if any readable byte still comes from previous-owner residue.
    pub fn leaks_residue(&self) -> bool {
        match self.base {
            BaseState::Zeroed => false,
            BaseState::Garbage(_) => {
                let covered: u64 = self.writes.values().map(|v| v.len() as u64).sum();
                covered < self.size
            }
        }
    }

    /// Zeroes the whole frame (drops all extents, base becomes `Zeroed`).
    pub fn zero(&mut self) {
        self.base = BaseState::Zeroed;
        self.writes.clear();
    }

    /// Resets the frame to fresh residue with a new nonce (frame freed and
    /// conceptually handed to the next tenant dirty).
    pub fn invalidate(&mut self, nonce: u64) {
        self.base = BaseState::Garbage(nonce);
        self.writes.clear();
    }

    /// Reads `buf.len()` bytes starting at `offset`.
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> crate::Result<()> {
        let len = buf.len() as u64;
        if offset + len > self.size {
            return Err(MemError::OutOfBounds {
                offset,
                len,
                size: self.size,
            });
        }
        // Fill from base first.
        match self.base {
            BaseState::Zeroed => buf.fill(0),
            BaseState::Garbage(nonce) => {
                for (i, b) in buf.iter_mut().enumerate() {
                    *b = garbage_byte(nonce, offset + i as u64);
                }
            }
        }
        // Overlay written extents intersecting [offset, offset+len).
        for (&wo, data) in self.writes.range(..offset + len) {
            let wend = wo + data.len() as u64;
            if wend <= offset {
                continue;
            }
            let from = wo.max(offset);
            let to = wend.min(offset + len);
            let src = &data[(from - wo) as usize..(to - wo) as usize];
            buf[(from - offset) as usize..(to - offset) as usize].copy_from_slice(src);
        }
        Ok(())
    }

    /// Writes `data` at `offset`, merging with existing extents.
    pub fn write(&mut self, offset: u64, data: &[u8]) -> crate::Result<()> {
        let len = data.len() as u64;
        if offset + len > self.size {
            return Err(MemError::OutOfBounds {
                offset,
                len,
                size: self.size,
            });
        }
        if data.is_empty() {
            return Ok(());
        }
        let end = offset + len;
        // The extent starting at or before `offset`, if the write starts
        // inside it or right at its end.
        let prev = self
            .writes
            .range(..=offset)
            .next_back()
            .map(|(&k, v)| (k, k + v.len() as u64))
            .filter(|&(_, vend)| vend >= offset);
        if let Some((k, vend)) = prev {
            // Inside one extent: overwrite in place. Past its end, with no
            // other extent starting up to the new end: extend in place.
            // Either way no extent is merged, so the invariant holds.
            let fits = end <= vend;
            if fits || self.writes.range(offset + 1..=end).next().is_none() {
                if let Some(v) = self.writes.get_mut(&k) {
                    let at = (offset - k) as usize;
                    if fits {
                        v[at..at + data.len()].copy_from_slice(data);
                    } else {
                        v.truncate(at);
                        v.extend_from_slice(data);
                    }
                    return Ok(());
                }
            }
        }
        let mut new_off = offset;
        let mut new_data = data.to_vec();
        // Merge every extent overlapping or adjacent to the new write: they
        // start no earlier than `prev` and no later than `end`.
        let from = prev.map_or(offset, |(k, _)| k);
        let keys: Vec<u64> = self.writes.range(from..=end).map(|(&k, _)| k).collect();
        for k in keys {
            let Some(v) = self.writes.remove(&k) else {
                continue;
            };
            let vend = k + v.len() as u64;
            // Overlapping or adjacent: merge.
            let merged_start = k.min(new_off);
            let merged_end = vend.max(new_off + new_data.len() as u64);
            let mut merged = vec![0u8; (merged_end - merged_start) as usize];
            merged[(k - merged_start) as usize..(vend - merged_start) as usize].copy_from_slice(&v);
            // New data wins on overlap, so copy it second.
            let ns = (new_off - merged_start) as usize;
            merged[ns..ns + new_data.len()].copy_from_slice(&new_data);
            new_off = merged_start;
            new_data = merged;
        }
        self.writes.insert(new_off, new_data);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastiov_simtime::rng::Rng;

    fn read_vec(c: &PageContent, off: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        c.read(off, &mut buf).unwrap();
        buf
    }

    #[test]
    fn garbage_reads_are_deterministic_and_nonzero() {
        let c = PageContent::garbage(4096, 42);
        let a = read_vec(&c, 100, 64);
        let b = read_vec(&c, 100, 64);
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x != 0));
        let other = PageContent::garbage(4096, 43);
        assert_ne!(read_vec(&other, 100, 64), a);
    }

    #[test]
    fn zeroed_reads_zero() {
        let c = PageContent::zeroed(4096);
        assert!(read_vec(&c, 0, 4096).iter().all(|&x| x == 0));
        assert!(!c.leaks_residue());
    }

    #[test]
    fn writes_overlay_base() {
        let mut c = PageContent::garbage(4096, 7);
        c.write(10, &[1, 2, 3]).unwrap();
        let r = read_vec(&c, 9, 5);
        assert_eq!(r[1..4], [1, 2, 3]);
        assert_ne!(r[0], 0); // still garbage
        assert!(c.leaks_residue());
    }

    #[test]
    fn zero_clears_everything() {
        let mut c = PageContent::garbage(4096, 7);
        c.write(0, &[9; 100]).unwrap();
        c.zero();
        assert_eq!(c, PageContent::zeroed(4096));
    }

    #[test]
    fn overlapping_writes_merge_with_new_data_winning() {
        let mut c = PageContent::zeroed(4096);
        c.write(0, &[1; 10]).unwrap();
        c.write(5, &[2; 10]).unwrap();
        let r = read_vec(&c, 0, 15);
        assert_eq!(&r[..5], &[1; 5]);
        assert_eq!(&r[5..15], &[2; 10]);
        assert_extents(&c);
    }

    #[test]
    fn adjacent_writes_merge() {
        let mut c = PageContent::zeroed(4096);
        c.write(0, &[1; 8]).unwrap();
        c.write(8, &[2; 8]).unwrap();
        assert_extents(&c);
        let r = read_vec(&c, 0, 16);
        assert_eq!(&r[..8], &[1; 8]);
        assert_eq!(&r[8..], &[2; 8]);
    }

    #[test]
    fn full_zero_write_over_garbage_reads_zero() {
        let mut c = PageContent::garbage(64, 3);
        c.write(0, &[0; 64]).unwrap();
        assert_eq!(read_vec(&c, 0, 64), [0; 64]);
        assert!(!c.leaks_residue());
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut c = PageContent::zeroed(64);
        assert!(matches!(
            c.write(60, &[0; 8]),
            Err(MemError::OutOfBounds { .. })
        ));
        let mut buf = [0u8; 8];
        assert!(c.read(60, &mut buf).is_err());
    }

    #[test]
    fn invalidate_returns_to_garbage() {
        let mut c = PageContent::zeroed(64);
        c.invalidate(99);
        assert!(c.leaks_residue());
        assert!(read_vec(&c, 0, 64).iter().all(|&x| x != 0));
    }

    /// Asserts the extent invariant: non-empty, in bounds, and neither
    /// overlapping nor touching.
    fn assert_extents(c: &PageContent) {
        let mut prev_end = None;
        for (&k, v) in &c.writes {
            assert!(!v.is_empty(), "empty extent at {k}");
            if let Some(e) = prev_end {
                assert!(e < k, "extent at {k} touches or overlaps one ending at {e}");
            }
            prev_end = Some(k + v.len() as u64);
        }
        assert!(prev_end.unwrap_or(0) <= c.size);
    }

    /// Random overlapping, adjacent and appending writes, checked byte for
    /// byte against a flat buffer after every write.
    #[test]
    fn writes_match_a_flat_buffer() {
        const SIZE: u64 = 512;
        for seed in 1..=8 {
            let mut rng = Rng::new(seed);
            let mut c = PageContent::garbage(SIZE, seed);
            let mut model = read_vec(&c, 0, SIZE as usize);
            let mut last_end = 0u64;
            for step in 0..400 {
                let extents: Vec<(u64, u64)> = c
                    .writes
                    .iter()
                    .map(|(&k, v)| (k, k + v.len() as u64))
                    .collect();
                let pick = |rng: &mut Rng| extents[rng.below(extents.len() as u64) as usize];
                let len = 1 + rng.below(48);
                let offset = match rng.below(6) {
                    // Append where the last write ended.
                    0 => last_end,
                    // Start right after an extent.
                    1 if !extents.is_empty() => pick(&mut rng).1,
                    // End right before an extent.
                    2 if !extents.is_empty() => pick(&mut rng).0.saturating_sub(len),
                    // Start inside an extent.
                    3 if !extents.is_empty() => {
                        let (s, e) = pick(&mut rng);
                        s + rng.below(e - s)
                    }
                    _ => rng.below(SIZE),
                };
                let len = len.min(SIZE - offset.min(SIZE));
                if len == 0 {
                    last_end = 0;
                    continue;
                }
                let data: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
                c.write(offset, &data).unwrap();
                model[offset as usize..(offset + len) as usize].copy_from_slice(&data);
                last_end = offset + len;
                assert_extents(&c);
                assert_eq!(
                    read_vec(&c, 0, SIZE as usize),
                    model,
                    "seed {seed} step {step}"
                );
            }
        }
    }
}
