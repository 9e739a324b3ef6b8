//! Offline shim for the `rustc-hash` crate (2.x).
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the API surface it uses: [`FxHasher`], [`FxBuildHasher`],
//! [`FxHashMap`] and [`FxHashSet`]. The hash is rustc-hash 2's: integers
//! fold in with one add and one multiply, byte strings go through a
//! two-lane multiply-mix, and [`Hasher::finish`] rotates the state so
//! the well-mixed high bits of the product reach the low bits that pick
//! a bucket.
//!
//! Fx gives no protection against keys crafted to collide. Use it only
//! for keys the program mints itself (ids, interned names, pointers),
//! never for keys that arrive from outside.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// A [`HashMap`] using [`FxBuildHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A [`HashSet`] using [`FxBuildHasher`].
pub type FxHashSet<V> = HashSet<V, FxBuildHasher>;

/// The multiplier rustc-hash 2 folds every word in with.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// How far [`FxHasher::finish`] rotates: a product's low bits depend
/// only on the input's low bits, and a pointer's low bits are zero.
const ROTATE: u32 = 26;

/// The fast, non-cryptographic hasher of rustc.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.add_to_hash(hash_bytes(bytes));
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(ROTATE)
    }
}

/// Builds [`FxHasher`]s; the `S` of an Fx map.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// Seeds of the byte-string mix (digits of pi, as in rustc-hash 2).
const SEED1: u64 = 0x243f_6a88_85a3_08d3;
const SEED2: u64 = 0x1319_8a2e_0370_7344;
/// Keeps a run of zero words from collapsing the mix to zero.
const ZERO_GUARD: u64 = 0xa409_3822_299f_31d0;

/// Full 64×64→128 multiply, folded back to 64 bits.
#[inline]
fn multiply_mix(x: u64, y: u64) -> u64 {
    let full = u128::from(x) * u128::from(y);
    (full as u64) ^ ((full >> 64) as u64)
}

fn word(bytes: &[u8], at: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(buf)
}

fn half_word(bytes: &[u8], at: usize) -> u64 {
    let mut buf = [0u8; 4];
    buf.copy_from_slice(&bytes[at..at + 4]);
    u64::from(u32::from_le_bytes(buf))
}

/// Hash a byte string to one word: two lanes over 16-byte blocks, the
/// last block read from the end (it may overlap the one before).
#[inline]
fn hash_bytes(bytes: &[u8]) -> u64 {
    let len = bytes.len();
    let mut s0 = SEED1;
    let mut s1 = SEED2;
    if len <= 16 {
        if len >= 8 {
            s0 ^= word(bytes, 0);
            s1 ^= word(bytes, len - 8);
        } else if len >= 4 {
            s0 ^= half_word(bytes, 0);
            s1 ^= half_word(bytes, len - 4);
        } else if len > 0 {
            s0 ^= u64::from(bytes[0]);
            s1 ^= (u64::from(bytes[len - 1]) << 8) | u64::from(bytes[len / 2]);
        }
    } else {
        let mut off = 0;
        while off < len - 16 {
            let x = word(bytes, off);
            let y = word(bytes, off + 8);
            let t = multiply_mix(s0 ^ x, ZERO_GUARD ^ y);
            s0 = s1;
            s1 = t;
            off += 16;
        }
        s0 ^= word(bytes, len - 16);
        s1 ^= word(bytes, len - 8);
    }
    multiply_mix(s0, s1) ^ (len as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializer keys are addresses of 16-byte-aligned allocations, so
    /// their low four bits are zero; without the rotate in `finish` they
    /// would land in 4 of a 64-bucket table's buckets.
    #[test]
    fn aligned_addresses_reach_every_bucket() {
        let base = 0x7f3a_5c20_1000usize;
        let buckets: FxHashSet<u64> = (0..1024)
            .map(|i| FxBuildHasher.hash_one(base + 16 * i) & 63)
            .collect();
        assert_eq!(buckets.len(), 64);
    }

    #[test]
    fn byte_strings_of_every_length_class_differ() {
        let keys: Vec<String> = (0..40).map(|n| "x".repeat(n)).collect();
        let hashes: FxHashSet<u64> = keys.iter().map(|k| FxBuildHasher.hash_one(k)).collect();
        assert_eq!(hashes.len(), keys.len());
        assert_ne!(
            FxBuildHasher.hash_one("task-12/f0"),
            FxBuildHasher.hash_one("task-21/f0")
        );
    }
}
