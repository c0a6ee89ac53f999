//! A deterministic multiplicative hasher for small integer keys.

use core::hash::Hasher;

/// Golden-ratio fold hasher for keys made of a few integers.
///
/// Each integer written costs one multiply by the 64-bit golden ratio,
/// then the high half folded onto the low half. A hash table picks a
/// bucket from the low bits and a slot tag from the top bits, and the
/// fold makes both depend on every key bit, so keys at a power-of-two
/// stride still spread over all buckets. The hash is a fixed function
/// of the key: no SipHash rounds and no per-process random state.
#[derive(Debug, Clone, Copy, Default)]
pub struct FoldHasher(u64);

impl FoldHasher {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
}

impl Hasher for FoldHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        let h = (self.0 ^ n).wrapping_mul(Self::K);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}
