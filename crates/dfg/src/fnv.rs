//! FNV-1a, 64 bit: the stable content hash behind [`crate::Dfg::fingerprint`]
//! and, further up the stack, fabric signatures and sweep cache keys.
//! Unlike `DefaultHasher` it is the same on every platform and run, so its
//! hashes are safe to persist.

/// FNV-1a over a stream of words and bytes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// The empty-stream state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hashes the little-endian bytes of `w`.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// Hashes `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The hash of everything fed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a, 64 bit, over a byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.finish()
}
