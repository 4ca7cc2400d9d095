//! Stable 128-bit content hashing for canonical cache keys.
//!
//! [`ContentHasher`] is a streaming MurmurHash3-x64-128-style construction:
//! 16-byte blocks mixed into two 64-bit lanes with independent rotation and
//! multiplication constants, finalized with the classic `fmix64` avalanche.
//! It is **not** wire-compatible with any external implementation and does
//! not need to be: the only contract is that the same logical content hashes
//! to the same [`ContentHash`] on every platform and in every future version
//! of this workspace. That contract is pinned by golden test vectors below —
//! changing the algorithm breaks those tests, which is the point (on-disk
//! caches and model headers persist these hashes).
//!
//! Typed `write_*` helpers are length/tag-disciplined so that adjacent
//! fields cannot alias (`"ab" + "c"` vs `"a" + "bc"` hash differently), and
//! floats are hashed by their exact IEEE-754 bit pattern so keying is as
//! bit-precise as the computations being memoized.

const C1: u64 = 0x87c3_7b91_1142_53d5;
const C2: u64 = 0x4cf5_ab2d_d3be_e6e5;

#[inline]
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^= k >> 33;
    k
}

/// A 128-bit content hash: two 64-bit lanes, rendered as 32 lowercase hex
/// digits. Used as the canonical cache key for designs, requests, guidance
/// vectors, and persisted model bodies.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContentHash(pub [u64; 2]);

impl ContentHash {
    /// Hashes a byte slice in one shot (seed 0).
    #[must_use]
    pub fn of_bytes(bytes: &[u8]) -> Self {
        let mut h = ContentHasher::new();
        h.write(bytes);
        h.finish()
    }

    /// The 32-character lowercase hex rendering (lane 0 then lane 1).
    #[must_use]
    pub fn to_hex(&self) -> String {
        format!("{:016x}{:016x}", self.0[0], self.0[1])
    }

    /// Parses the [`to_hex`](Self::to_hex) rendering back into a hash.
    /// Returns `None` unless the input is exactly 32 hex digits.
    #[must_use]
    pub fn from_hex(hex: &str) -> Option<Self> {
        if hex.len() != 32 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let lane0 = u64::from_str_radix(&hex[..16], 16).ok()?;
        let lane1 = u64::from_str_radix(&hex[16..], 16).ok()?;
        Some(Self([lane0, lane1]))
    }

    /// Folds the two lanes into one `u64` (for shard selection or seeding).
    #[must_use]
    pub fn fold64(&self) -> u64 {
        self.0[0] ^ self.0[1].rotate_left(32)
    }
}

impl std::fmt::Display for ContentHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl std::fmt::Debug for ContentHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ContentHash({})", self.to_hex())
    }
}

/// Streaming 128-bit hasher. Feed content through the typed `write_*`
/// methods and call [`finish`](Self::finish). Splitting the same byte
/// stream across any number of `write` calls yields the same hash.
pub struct ContentHasher {
    h1: u64,
    h2: u64,
    buf: [u8; 16],
    buf_len: usize,
    total: u64,
}

impl Default for ContentHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentHasher {
    /// A hasher with seed 0 (the canonical keying seed).
    #[must_use]
    pub fn new() -> Self {
        Self::with_seed(0)
    }

    /// A hasher with an explicit seed (both lanes start from it). Distinct
    /// seeds give independent hash families.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        Self {
            h1: seed,
            h2: seed,
            buf: [0u8; 16],
            buf_len: 0,
            total: 0,
        }
    }

    #[inline]
    fn mix_block(&mut self, block: &[u8]) {
        debug_assert_eq!(block.len(), 16);
        let mut k1 = u64::from_le_bytes(block[..8].try_into().unwrap());
        let mut k2 = u64::from_le_bytes(block[8..].try_into().unwrap());
        k1 = k1.wrapping_mul(C1).rotate_left(31).wrapping_mul(C2);
        self.h1 ^= k1;
        self.h1 = self
            .h1
            .rotate_left(27)
            .wrapping_add(self.h2)
            .wrapping_mul(5)
            .wrapping_add(0x52dc_e729);
        k2 = k2.wrapping_mul(C2).rotate_left(33).wrapping_mul(C1);
        self.h2 ^= k2;
        self.h2 = self
            .h2
            .rotate_left(31)
            .wrapping_add(self.h1)
            .wrapping_mul(5)
            .wrapping_add(0x3849_5ab5);
    }

    /// Appends raw bytes to the stream.
    pub fn write(&mut self, mut bytes: &[u8]) {
        self.total = self.total.wrapping_add(bytes.len() as u64);
        if self.buf_len > 0 {
            let need = 16 - self.buf_len;
            let take = need.min(bytes.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&bytes[..take]);
            self.buf_len += take;
            bytes = &bytes[take..];
            if self.buf_len == 16 {
                let block = self.buf;
                self.mix_block(&block);
                self.buf_len = 0;
            }
        }
        while bytes.len() >= 16 {
            let (block, rest) = bytes.split_at(16);
            self.mix_block(block);
            bytes = rest;
        }
        if !bytes.is_empty() {
            self.buf[..bytes.len()].copy_from_slice(bytes);
            self.buf_len = bytes.len();
        }
    }

    /// Appends a single byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Appends a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Appends a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Appends an `i64` (little-endian two's complement).
    pub fn write_i64(&mut self, v: i64) {
        self.write(&v.to_le_bytes());
    }

    /// Appends a `usize` widened to `u64` so 32- and 64-bit hosts agree.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Appends an `f64` by exact IEEE-754 bit pattern. `-0.0` and `0.0`
    /// therefore hash differently, as do distinct NaN payloads — keying is
    /// exactly as strict as bit-identity.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Appends a length-prefixed `f64` slice (bitwise).
    pub fn write_f64_slice(&mut self, vs: &[f64]) {
        self.write_usize(vs.len());
        for &v in vs {
            self.write_f64(v);
        }
    }

    /// Appends a length-prefixed UTF-8 string. The prefix prevents adjacent
    /// strings from aliasing.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    /// Finalizes the stream: mixes the buffered tail and total length, then
    /// avalanches both lanes.
    #[must_use]
    pub fn finish(mut self) -> ContentHash {
        if self.buf_len > 0 {
            let mut k1 = 0u64;
            let mut k2 = 0u64;
            for i in (0..self.buf_len).rev() {
                if i >= 8 {
                    k2 = (k2 << 8) | u64::from(self.buf[i]);
                } else {
                    k1 = (k1 << 8) | u64::from(self.buf[i]);
                }
            }
            if self.buf_len > 8 {
                k2 = k2.wrapping_mul(C2).rotate_left(33).wrapping_mul(C1);
                self.h2 ^= k2;
            }
            k1 = k1.wrapping_mul(C1).rotate_left(31).wrapping_mul(C2);
            self.h1 ^= k1;
        }
        self.h1 ^= self.total;
        self.h2 ^= self.total;
        self.h1 = self.h1.wrapping_add(self.h2);
        self.h2 = self.h2.wrapping_add(self.h1);
        self.h1 = fmix64(self.h1);
        self.h2 = fmix64(self.h2);
        self.h1 = self.h1.wrapping_add(self.h2);
        self.h2 = self.h2.wrapping_add(self.h1);
        ContentHash([self.h1, self.h2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_is_invariant() {
        let data: Vec<u8> = (0u8..=255).collect();
        let whole = ContentHash::of_bytes(&data);
        for split in [1usize, 3, 7, 15, 16, 17, 100, 255] {
            let mut h = ContentHasher::new();
            for chunk in data.chunks(split) {
                h.write(chunk);
            }
            assert_eq!(h.finish(), whole, "split {split} diverged");
        }
    }

    #[test]
    fn hex_round_trips() {
        let h = ContentHash::of_bytes(b"analogfold");
        let hex = h.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(ContentHash::from_hex(&hex), Some(h));
        assert_eq!(ContentHash::from_hex("zz"), None);
        assert_eq!(ContentHash::from_hex(&hex[..31]), None);
    }

    #[test]
    fn typed_writes_do_not_alias() {
        let mut a = ContentHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = ContentHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());

        let mut x = ContentHasher::new();
        x.write_f64(0.0);
        let mut y = ContentHasher::new();
        y.write_f64(-0.0);
        assert_ne!(x.finish(), y.finish());
    }

    #[test]
    fn seeds_are_independent() {
        let mut a = ContentHasher::with_seed(1);
        a.write(b"same");
        let mut b = ContentHasher::with_seed(2);
        b.write(b"same");
        assert_ne!(a.finish(), b.finish());
    }

    /// Golden vectors: these pin the hash for on-disk artifacts (model
    /// headers) and the benchmark's output digests. If this test fails the
    /// algorithm changed, which silently invalidates every persisted hash —
    /// bump the relevant format versions instead of updating the constants
    /// casually.
    #[test]
    fn golden_vectors_are_stable() {
        let empty = ContentHash::of_bytes(b"");
        let hello = ContentHash::of_bytes(b"hello, analog world");
        let mut typed = ContentHasher::new();
        typed.write_str("netlist");
        typed.write_u64(42);
        typed.write_f64_slice(&[1.0, -2.5, 3.25]);
        let typed = typed.finish();
        // Computed once by this implementation; stable forever after.
        assert_eq!(empty.to_hex(), golden::EMPTY);
        assert_eq!(hello.to_hex(), golden::HELLO);
        assert_eq!(typed.to_hex(), golden::TYPED);
    }

    /// Golden constants live in a child module so a deliberate regeneration
    /// is a single, visible diff.
    mod golden {
        pub const EMPTY: &str = "00000000000000000000000000000000";
        pub const HELLO: &str = "1265d662f113e9977be4783ae5631261";
        pub const TYPED: &str = "69fbe3f1fbc7ed37908d8bd2dcdd3911";
    }
}
