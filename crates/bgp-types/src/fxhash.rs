//! Fast, non-cryptographic hashers for hot-path tables.
//!
//! [`FxHasher`] is the FxHash algorithm used throughout rustc (a
//! multiply-xor construction originally from Firefox). The default
//! `SipHash` in `std::collections::HashMap` is HashDoS-resistant but
//! costs ~3-4× more per lookup; simulator tables are keyed by trusted
//! in-process values ([`crate::RouterId`], attribute sets), so the
//! cheaper hash is appropriate. The crates.io `rustc-hash` crate is not
//! vendored in this offline build, hence the local implementation.
//!
//! [`PrefixHasher`] is for [`crate::Ipv4Prefix`] keys ([`PrefixMap`]).
//! Fx ends in a multiply, so its low bits — the ones a SwissTable takes
//! its bucket from — depend only on the key's low bits, and a prefix's
//! low bits are its length and the address's host zeros. On the
//! generated Tier-1 tables (one length, /24s) Fx puts 1 500 prefixes on
//! 32 bucket start positions and 409 340 on 2 048 of 524 288: a lookup
//! in random order at that size measured 118 ns against 13 ns with a
//! finalizer that mixes every input bit into every output bit.
//!
//! **Determinism note**: unlike `RandomState`, [`FxBuildHasher`] is
//! stateless, so iteration order of an [`FxHashMap`] is stable for a
//! given insertion history. Simulator outputs must nevertheless never
//! depend on raw hash-map iteration order — call sites sort before
//! iterating wherever order reaches an observable result (fingerprints,
//! counters, emitted messages).

use crate::prefix::Ipv4Prefix;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::mem::{align_of, size_of};

/// A prefix-keyed `HashMap` using [`PrefixHasher`]: the map inside
/// [`crate::PrefixTable`], which every prefix-keyed RIB table is.
/// Its iteration order is the hash's — sort before anything observes it.
pub type PrefixMap<V> = HashMap<Ipv4Prefix, V, BuildHasherDefault<PrefixHasher>>;
/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;
/// The stateless `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Bytes a `HashMap`'s allocation holds, as the standard library's
/// SwissTable lays it out: one `(key, value)` slot and one control
/// byte per bucket, the slots padded to the control group's alignment,
/// and one trailing control group mirroring the first. What keys and
/// values own on the heap is not counted.
///
/// The map reports its usable capacity, not its bucket count; the two
/// are tied — at most 7/8 of the buckets (all but one below 8) — and
/// the bucket count is the power of two that capacity belongs to. A
/// removal that leaves a tombstone lowers the capacity reported until
/// the next rehash, so the smallest power of two whose capacity covers
/// it is taken, which is exact unless tombstones fill nearly half the
/// table.
pub(crate) fn table_bytes<K, V, S>(map: &HashMap<K, V, S>) -> usize {
    /// SwissTable control group width: SSE2 on x86, a word elsewhere.
    const GROUP: usize = if cfg!(any(target_arch = "x86", target_arch = "x86_64")) {
        16
    } else {
        8
    };
    let cap = map.capacity();
    if cap == 0 {
        return 0;
    }
    let usable = |buckets: usize| {
        if buckets < 8 {
            buckets - 1
        } else {
            buckets / 8 * 7
        }
    };
    let mut buckets = 4;
    while usable(buckets) < cap {
        buckets *= 2;
    }
    let slot = size_of::<(K, V)>();
    let align = GROUP.max(align_of::<(K, V)>());
    (buckets * slot).next_multiple_of(align) + buckets + GROUP
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The rustc-hash ("Fx") hasher: for each word, rotate-left, xor, and
/// multiply by a large odd constant.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
            self.add_to_hash(rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The hasher for keys of at most 64 bits, [`crate::Ipv4Prefix`] above
/// all: the written integers are packed into one `u64` (a prefix's
/// `(addr, len)` is 40 bits, so distinct prefixes pack distinctly) and
/// finished with MurmurHash3's 64-bit finalizer, whose every output bit
/// depends on every input bit. Longer keys lose their leading bits.
#[derive(Default, Clone)]
pub struct PrefixHasher {
    packed: u64,
}

impl Hasher for PrefixHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.packed = self.packed << 8 | i as u64;
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.packed = self.packed << 32 | i as u64;
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.packed = i;
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut k = self.packed;
        k ^= k >> 33;
        k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
        k ^= k >> 33;
        k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        k ^ (k >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx_hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        let a = fx_hash_of(&(42u32, "prefix"));
        let b = fx_hash_of(&(42u32, "prefix"));
        assert_eq!(a, b);
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Not a distribution test, just a sanity check that the mixer
        // isn't degenerate for the small integer keys the RIBs use.
        let hashes: Vec<u64> = (0u32..64).map(|i| fx_hash_of(&i)).collect();
        let mut uniq = hashes.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), hashes.len());
    }

    #[test]
    fn map_basic_ops() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.get(&1), Some(&"a"));
        assert_eq!(m.remove(&2), Some("b"));
        assert!(!m.contains_key(&2));
    }

    #[test]
    fn partial_tail_bytes_differ_from_padded() {
        // [1] and [1,0] must hash differently (length is mixed in).
        let mut h1 = FxHasher::default();
        h1.write(&[1]);
        let mut h2 = FxHasher::default();
        h2.write(&[1, 0]);
        assert_ne!(h1.finish(), h2.finish());
    }
}
