//! The storage server: deterministic synthetic objects served over the
//! (simulated) network.

use fastiov_simtime::{LockClass, TrackedMutex};
use std::collections::HashMap;
use std::sync::Arc;

/// A named object: size plus a deterministic content generator, so
//  gigabyte-scale objects never need materializing.
#[derive(Debug, Clone, Copy)]
struct Object {
    len: u64,
    seed: u64,
}

/// Deterministic content byte of object `seed` at `offset`.
pub fn object_byte(seed: u64, offset: u64) -> u8 {
    // xorshift-style mix, biased to look like compressible text: long
    // runs of a small alphabet with occasional jumps.
    let block = offset / 97;
    let mut z = seed ^ block.wrapping_mul(0x2545_f491_4f6c_dd1d);
    z ^= z >> 33;
    z = z.wrapping_mul(0xff51_afd7_ed55_8ccd);
    z ^= z >> 29;
    b'a' + (z % 17) as u8
}

/// The storage server of the two-server testbed (§6.1).
pub struct StorageServer {
    objects: TrackedMutex<HashMap<String, Object>>,
}

impl StorageServer {
    /// Creates an empty server.
    pub fn new() -> Self {
        StorageServer {
            objects: TrackedMutex::new(LockClass::AppStorage, HashMap::new()),
        }
    }

    /// Publishes an object of `len` bytes generated from `seed`.
    pub fn put(&self, name: &str, len: u64, seed: u64) {
        self.objects
            .lock()
            .insert(name.to_string(), Object { len, seed });
    }

    /// Size of an object, if present.
    pub fn len(&self, name: &str) -> Option<u64> {
        self.objects.lock().get(name).map(|o| o.len)
    }

    /// Reads `[offset, offset+len)` of an object, clamped to its size.
    pub fn chunk(&self, name: &str, offset: u64, len: usize) -> Option<Vec<u8>> {
        let obj = *self.objects.lock().get(name)?;
        if offset >= obj.len {
            return Some(Vec::new());
        }
        let n = (obj.len - offset).min(len as u64) as usize;
        Some(
            (0..n as u64)
                .map(|i| object_byte(obj.seed, offset + i))
                .collect(),
        )
    }
}

impl Default for StorageServer {
    fn default() -> Self {
        Self::new()
    }
}

/// Wire protocol between the application server and the storage server.
///
/// A request frame is `[0x01][offset: u64 LE][len: u32 LE][name bytes]`;
/// the response is delivered straight into the requesting VF's RX ring.
///
/// # Examples
///
/// ```
/// use fastiov_apps::storage::protocol;
///
/// let req = protocol::encode_get("input-Image", 4096, 2048);
/// let (name, offset, len) = protocol::decode_get(&req).unwrap();
/// assert_eq!((name.as_str(), offset, len), ("input-Image", 4096, 2048));
/// ```
pub mod protocol {
    /// Request opcode.
    pub(crate) const OP_GET: u8 = 0x01;

    /// Encodes a GET request.
    pub fn encode_get(name: &str, offset: u64, len: u32) -> Vec<u8> {
        let mut out = Vec::with_capacity(13 + name.len());
        out.push(OP_GET);
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out
    }

    /// Decodes a GET request, returning `(name, offset, len)`.
    pub fn decode_get(frame: &[u8]) -> Option<(String, u64, u32)> {
        if frame.len() < 13 || frame[0] != OP_GET {
            return None;
        }
        let offset = u64::from_le_bytes(frame[1..9].try_into().ok()?);
        let len = u32::from_le_bytes(frame[9..13].try_into().ok()?);
        let name = String::from_utf8(frame[13..].to_vec()).ok()?;
        Some((name, offset, len))
    }
}

/// The storage server attached to the far end of the wire: it parses GET
/// requests off incoming frames and DMA-delivers the requested chunk back
/// into the requesting VF's RX ring — a complete round trip over the
/// passthrough data plane.
pub struct NetworkedStorage {
    storage: Arc<StorageServer>,
    dma: Arc<fastiov_nic::DmaEngine>,
    served: std::sync::atomic::AtomicU64,
}

impl NetworkedStorage {
    /// Creates the networked front end over `storage`, responding through
    /// `dma`.
    pub fn new(storage: Arc<StorageServer>, dma: Arc<fastiov_nic::DmaEngine>) -> Arc<Self> {
        Arc::new(NetworkedStorage {
            storage,
            dma,
            served: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// Requests served so far.
    pub fn served(&self) -> u64 {
        self.served.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The underlying object store.
    pub fn storage(&self) -> &Arc<StorageServer> {
        &self.storage
    }
}

impl fastiov_nic::WireSink for NetworkedStorage {
    fn on_frame(&self, frame: fastiov_nic::Frame) {
        let Some((name, offset, len)) = protocol::decode_get(&frame.payload) else {
            return; // not a GET; drop
        };
        let Some(chunk) = self.storage.chunk(&name, offset, len as usize) else {
            return; // unknown object; drop (a real server would NACK)
        };
        // Deliver the response into the requester's RX ring; a full ring
        // or detached VF drops the response, like real packet loss.
        if self.dma.deliver(frame.src, &chunk).is_ok() {
            self.served
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_are_deterministic_and_clamped() {
        let s = StorageServer::new();
        s.put("input", 100, 7);
        assert_eq!(s.len("input"), Some(100));
        let a = s.chunk("input", 10, 20).unwrap();
        let b = s.chunk("input", 10, 20).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
        assert_eq!(s.chunk("input", 95, 20).unwrap().len(), 5);
        assert!(s.chunk("input", 200, 10).unwrap().is_empty());
        assert!(s.chunk("missing", 0, 10).is_none());
    }

    #[test]
    fn content_is_textlike() {
        let s = StorageServer::new();
        s.put("t", 1000, 1);
        let c = s.chunk("t", 0, 1000).unwrap();
        assert!(c.iter().all(|&b| b.is_ascii_lowercase()));
        // Compressible: few distinct symbols.
        let distinct: std::collections::HashSet<u8> = c.iter().copied().collect();
        assert!(distinct.len() <= 17);
    }
}
