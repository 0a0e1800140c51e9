//! Seeded hash families, and what each consumer needs from them.
//!
//! | consumer | needs | gets |
//! |---|---|---|
//! | Count-Min / row `i` (Section 6) | a map into `0..w` under which two distinct keys share a column with probability about `1/w`, drawn **independently per row**: the collision bound is all the `ε·m` analysis uses of a row, and the independence of the rows is what turns it into `δ = e^{−d}` | [`PairMultiplyShiftHash`], seeded per row — `Pr[h(x) = h(y)] ≤ (1/w)(1 + w·2⁻³²)²`; two 64-bit multiplies, no division |
//! | parallel `buildHist` (Theorem 2.3, `µ > SEQ_THRESHOLD`) | an `O(log µ)`-wise independent map into `0..O(µ)`: the family bounds the *largest* bucket, which only the parallel algorithm's **depth** needs — the `O(µ)` expected work holds for any evenly spreading map | [`PolynomialHash`] with `k = 8`, seeded per minibatch |
//! | the sequential histogram kernel (`build_hist_into`, one per shard worker) | no depth to bound, so no independence guarantee — a seeded even spread over its probe table that an adversary who cannot see the seed cannot defeat | the key mix ([`KeyMixBuildHasher`]'s folded multiply), keyed per `HistScratch` |
//! | in-memory tables keyed by item id (`MgSummary`) | no independence guarantee — only an even spread that an adversary who cannot see the seed cannot defeat | [`KeyMixBuildHasher`], seeded per table instance |
//!
//! Three constructions:
//!
//! * [`PairMultiplyShiftHash`] — Thorup's pair-multiply-shift scheme
//!   (*High Speed Hashing for Integers and Strings*, §3.5) on the key's two
//!   32-bit halves: `(((a₁ + x_hi)·(a₂ + x_lo) + b) mod 2^64) >> 32` with
//!   `a₁`, `a₂`, `b` 64-bit. Because `64 ≥ 32 + 32 − 1`, the 32-bit value is
//!   *strongly universal* (pairwise independent and uniform) at **one**
//!   64-bit multiply. It is reduced into a range `w ≤ 2^32` by `(h·w) >> 32`,
//!   which puts at most `⌈2^32/w⌉` of the `2^32` values in any bucket, so
//!   two distinct keys collide with probability at most
//!   `(1/w)(1 + w·2⁻³²)²` — a factor 1.0000025 over `1/w` at `w = 5437`.
//! * [`PolynomialHash`] — degree-(k−1) polynomial hashing over the Mersenne
//!   prime `2^61 − 1`, giving a k-wise independent family at `k` modular
//!   multiply-adds plus two `%` (key and range) per evaluation.
//! * [`KeyMixBuildHasher`] — a [`std::hash::BuildHasher`] for `u64`-keyed
//!   hash tables: one folded 64×64→128 multiply per key instead of SipHash's
//!   rounds. The histogram kernel calls the same mix directly.
//!
//! The two families are deterministic functions of their seed, so sketches
//! can be re-derived from a stored seed and experiments are reproducible.

use std::hash::{BuildHasher, Hasher};

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The Mersenne prime `2^61 − 1` used for polynomial hashing.
pub const MERSENNE_61: u64 = (1 << 61) - 1;

/// A seeded hash function from `u64` keys to a bounded range.
pub trait HashFamily: Send + Sync {
    /// Hashes `key` into `0..self.range()`.
    fn hash(&self, key: u64) -> u64;

    /// Exclusive upper bound of the hash output.
    fn range(&self) -> u64;
}

/// Pair-multiply-shift hashing of a 64-bit key into a range of at most
/// `2^32`: one 64-bit multiply for a strongly universal 32-bit value, one
/// more to reduce it (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairMultiplyShiftHash {
    a_hi: u64,
    a_lo: u64,
    b: u64,
    range: u64,
}

impl PairMultiplyShiftHash {
    /// The largest range the 32-bit hash value can be reduced into.
    pub const MAX_RANGE: u64 = 1 << 32;

    /// Creates a hash function into `0..range` with parameters drawn from
    /// `rng`.
    ///
    /// # Panics
    /// Panics unless `1 ≤ range ≤ 2^32`.
    pub fn new<R: RngCore>(range: u64, rng: &mut R) -> Self {
        assert!(
            (1..=Self::MAX_RANGE).contains(&range),
            "PairMultiplyShiftHash: range must be in 1..=2^32"
        );
        Self {
            a_hi: rng.next_u64(),
            a_lo: rng.next_u64(),
            b: rng.next_u64(),
            range,
        }
    }

    /// Creates a deterministic instance from an integer seed.
    pub fn from_seed(range: u64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::new(range, &mut rng)
    }

    /// The strongly universal 32-bit value before range reduction: the top
    /// half of `((a_hi + x_hi)·(a_lo + x_lo) + b) mod 2^64`.
    #[inline]
    fn mix(&self, key: u64) -> u64 {
        let (hi, lo) = (key >> 32, key & 0xFFFF_FFFF);
        self.a_hi
            .wrapping_add(hi)
            .wrapping_mul(self.a_lo.wrapping_add(lo))
            .wrapping_add(self.b)
            >> 32
    }
}

impl HashFamily for PairMultiplyShiftHash {
    #[inline]
    fn hash(&self, key: u64) -> u64 {
        // Multiply-high range reduction: ⌊mix · range / 2^32⌋ < range, and
        // the product of a 32-bit value with `range ≤ 2^32` fits 64 bits.
        (self.mix(key) * self.range) >> 32
    }

    fn range(&self) -> u64 {
        self.range
    }
}

/// [`BuildHasher`] for hash tables keyed by `u64` item identifiers: each
/// key costs one folded 64×64→128 multiply ([`KeyMixHasher`]).
///
/// Item identifiers arrive from outside the program, so the seed matters:
/// [`KeyMixBuildHasher::new`] draws it from the standard library's
/// per-process random keys, different for every instance, which keeps the
/// protection the default `RandomState` gives against keys crafted to
/// collide — an attacker has to know the seed to build them.
#[derive(Debug, Clone)]
pub struct KeyMixBuildHasher {
    key: u64,
    multiplier: u64,
}

impl KeyMixBuildHasher {
    /// A hasher seeded from the process's random keys; every call yields a
    /// different seed.
    pub fn new() -> Self {
        let random = std::collections::hash_map::RandomState::new();
        Self::with_seeds(random.hash_one(0u64), random.hash_one(1u64))
    }

    fn with_seeds(key: u64, multiplier: u64) -> Self {
        Self {
            key,
            // Odd, so multiplication is a bijection on the low word.
            multiplier: multiplier | 1,
        }
    }
}

/// The folded product `hi ^ lo` of the 64×64→128 multiply `a · b`: every
/// bit of the result depends on every bit of both factors.
#[inline]
pub(crate) fn fold_multiply(a: u64, b: u64) -> u64 {
    let product = a as u128 * b as u128;
    (product >> 64) as u64 ^ product as u64
}

impl Default for KeyMixBuildHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl BuildHasher for KeyMixBuildHasher {
    type Hasher = KeyMixHasher;

    #[inline]
    fn build_hasher(&self) -> KeyMixHasher {
        KeyMixHasher {
            state: self.key,
            multiplier: self.multiplier,
        }
    }
}

/// The [`Hasher`] built by [`KeyMixBuildHasher`]: xors each 64-bit word into
/// the state and replaces it by the folded product `hi ^ lo` of
/// `state · multiplier`, so both the high bits (the table's control bytes)
/// and the low bits (its bucket index) depend on every key bit.
#[derive(Debug, Clone)]
pub struct KeyMixHasher {
    state: u64,
    multiplier: u64,
}

impl Hasher for KeyMixHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.state = fold_multiply(self.state ^ word, self.multiplier);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// k-wise independent polynomial hashing over the Mersenne prime `2^61 − 1`,
/// reduced into an arbitrary range.
#[derive(Debug, Clone)]
pub struct PolynomialHash {
    /// Polynomial coefficients, constant term last; degree = k − 1.
    coeffs: Vec<u64>,
    range: u64,
}

impl PolynomialHash {
    /// Creates a `k`-wise independent hash function into `0..range`.
    ///
    /// # Panics
    /// Panics if `k == 0` or `range == 0`.
    pub fn new<R: RngCore>(k: usize, range: u64, rng: &mut R) -> Self {
        assert!(k >= 1, "PolynomialHash: k must be at least 1");
        assert!(range >= 1, "PolynomialHash: range must be at least 1");
        let coeffs = (0..k).map(|_| rng.gen_range(0..MERSENNE_61)).collect();
        Self { coeffs, range }
    }

    /// Creates a deterministic instance from an integer seed.
    pub fn from_seed(k: usize, range: u64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::new(k, range, &mut rng)
    }
}

/// Multiplication modulo the Mersenne prime `2^61 − 1` without overflow.
fn mul_mod_m61(a: u64, b: u64) -> u64 {
    let prod = (a as u128) * (b as u128);
    let lo = (prod & MERSENNE_61 as u128) as u64;
    let hi = (prod >> 61) as u64;
    let mut s = lo + hi;
    if s >= MERSENNE_61 {
        s -= MERSENNE_61;
    }
    s
}

impl HashFamily for PolynomialHash {
    fn hash(&self, key: u64) -> u64 {
        let x = key % MERSENNE_61;
        let mut acc = 0u64;
        // Horner evaluation of the degree-(k-1) polynomial.
        for &c in &self.coeffs {
            acc = mul_mod_m61(acc, x);
            acc += c;
            if acc >= MERSENNE_61 {
                acc -= MERSENNE_61;
            }
        }
        acc % self.range
    }

    fn range(&self) -> u64 {
        self.range
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `multiply_add_shift_*`: pair-multiply-shift is a multiply, an add and
    // a shift on the key's halves, held to the checks (and test names) of
    // the 128-bit multiply-add-shift family it replaced.

    #[test]
    fn multiply_add_shift_in_range_and_deterministic() {
        // Range 1 maps everything to 0; 5437 is a non-power-of-two range,
        // as Count-Min's `⌈e/ε⌉` widths are; 2^32 − 1 is the widest sketch
        // the codec can write.
        for range in [1u64, 5437, (1 << 32) - 1] {
            let h = PairMultiplyShiftHash::from_seed(range, 42);
            let same = PairMultiplyShiftHash::from_seed(range, 42);
            let other = PairMultiplyShiftHash::from_seed(range, 43);
            assert_eq!(h.range(), range);
            assert_eq!(h, same);
            for key in (0..1_000_000u64).step_by(97).chain([
                u64::MAX,
                u64::MAX - 1,
                1 << 32,
                u64::MAX << 32,
            ]) {
                assert!(h.hash(key) < range);
                assert_eq!(h.hash(key), same.hash(key));
            }
            assert!(range == 1 || (0..100).any(|k| h.hash(k) != other.hash(k)));
        }
        // The full 32-bit value is a legal range too.
        let full = PairMultiplyShiftHash::from_seed(PairMultiplyShiftHash::MAX_RANGE, 7);
        assert!((0..1000u64).any(|k| full.hash(k) >= 1 << 31));
    }

    #[test]
    fn multiply_add_shift_spreads_structured_keys_evenly() {
        // Sequential and strided keys — the inputs a plain multiply-shift
        // without the add handles worst, and strides that move only the low
        // half, only the high half, or both — land within a small factor of
        // the uniform load in every bucket.
        let range = 128u64;
        let h = PairMultiplyShiftHash::from_seed(range, 11);
        for stride in [1u64, 1 << 20, 1 << 32, 1 << 40, (1 << 32) + 1] {
            let mut buckets = vec![0u64; range as usize];
            let keys = 64_000u64;
            for i in 0..keys {
                buckets[h.hash(i.wrapping_mul(stride)) as usize] += 1;
            }
            let expected = keys / range;
            for (i, &c) in buckets.iter().enumerate() {
                assert!(
                    c > expected / 4 && c < expected * 4,
                    "stride {stride}: bucket {i} holds {c}, expected about {expected}"
                );
            }
        }
    }

    #[test]
    fn multiply_add_shift_pairs_collide_at_about_one_over_range() {
        // Pairwise independence, observed: over many independently seeded
        // functions a fixed pair of distinct keys collides with probability
        // 1/range (here 1/64: 20 000 draws, expectation 312.5, σ ≈ 17.5).
        // After three arbitrary pairs, the ones a hash of the key's halves
        // could be weak on: keys differing only in the high half, only in
        // the low half, and with the halves swapped.
        let range = 64u64;
        let draws = 20_000u64;
        for (x, y) in [
            (0u64, 1u64),
            (7, 7 + (1 << 32)),
            (u64::MAX, 12345),
            (5 << 32, u64::MAX << 32),
            (0xABCD_0000_1234, 0xABCD_0000_1235),
            (0x0000_0001_0000_0002, 0x0000_0002_0000_0001),
            (0xFFFF_FFFF_0000_0000, 0x0000_0000_FFFF_FFFF),
        ] {
            let collisions = (0..draws)
                .filter(|&seed| {
                    let h = PairMultiplyShiftHash::from_seed(range, seed);
                    h.hash(x) == h.hash(y)
                })
                .count() as u64;
            assert!(
                (200..=430).contains(&collisions),
                "pair ({x:#x}, {y:#x}) collided {collisions} times in {draws} draws"
            );
        }
    }

    #[test]
    #[should_panic(expected = "range")]
    fn multiply_add_shift_rejects_zero_range() {
        let _ = PairMultiplyShiftHash::from_seed(0, 1);
    }

    #[test]
    #[should_panic(expected = "range")]
    fn pair_multiply_shift_rejects_a_range_past_32_bits() {
        let _ = PairMultiplyShiftHash::from_seed((1 << 32) + 1, 1);
    }

    #[test]
    fn key_mix_hasher_spreads_sequential_keys_in_both_halves() {
        // hashbrown takes the bucket index from the low bits and its
        // control byte from the top seven: sequential keys must vary both.
        let build = KeyMixBuildHasher::with_seeds(0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7344);
        let mut low = std::collections::HashSet::new();
        let mut high = std::collections::HashSet::new();
        for key in 0..4096u64 {
            let h = build.hash_one(key);
            low.insert(h & 0xFFF);
            high.insert(h >> 57);
        }
        assert!(low.len() > 2000, "low 12 bits take {} values", low.len());
        assert_eq!(high.len(), 128, "top 7 bits must take every value");
    }

    #[test]
    fn key_mix_tables_behave_like_hash_maps_and_differ_in_seed() {
        let mut table: std::collections::HashMap<u64, u64, KeyMixBuildHasher> =
            std::collections::HashMap::default();
        for key in 0..10_000u64 {
            *table.entry(key % 777).or_insert(0) += 1;
        }
        assert_eq!(table.len(), 777);
        assert_eq!(table.values().sum::<u64>(), 10_000);
        assert_eq!(table.get(&776).copied(), Some(10_000 / 777));
        // Two tables never share a seed (with overwhelming probability).
        let (a, b) = (KeyMixBuildHasher::new(), KeyMixBuildHasher::new());
        assert!((0..16u64).any(|k| a.hash_one(k) != b.hash_one(k)));
        // Byte-slice input goes through the same mixing.
        assert_eq!(a.hash_one(0x0102_0304_0506_0708u64), {
            let mut h = a.build_hasher();
            h.write(&0x0102_0304_0506_0708u64.to_le_bytes());
            h.finish()
        });
    }

    #[test]
    fn polynomial_in_range_and_deterministic() {
        let h = PolynomialHash::from_seed(8, 977, 3);
        let h2 = PolynomialHash::from_seed(8, 977, 3);
        for key in (0..100_000u64).step_by(97) {
            let v = h.hash(key);
            assert!(v < 977);
            assert_eq!(v, h2.hash(key));
        }
    }

    #[test]
    fn polynomial_spreads_keys_roughly_uniformly() {
        let range = 128u64;
        let h = PolynomialHash::from_seed(8, range, 11);
        let mut buckets = vec![0u32; range as usize];
        let keys = 64_000u64;
        for key in 0..keys {
            buckets[h.hash(key) as usize] += 1;
        }
        let expected = keys / range;
        for (i, &c) in buckets.iter().enumerate() {
            assert!(
                (c as u64) > expected / 4 && (c as u64) < expected * 4,
                "bucket {i} wildly unbalanced: {c} vs expected {expected}"
            );
        }
    }

    #[test]
    fn mul_mod_m61_matches_u128_reference() {
        let cases = [
            (0u64, 0u64),
            (1, MERSENNE_61 - 1),
            (MERSENNE_61 - 1, MERSENNE_61 - 1),
            (123456789, 987654321),
            (1 << 60, (1 << 60) + 12345),
        ];
        for &(a, b) in &cases {
            let want = ((a as u128 * b as u128) % MERSENNE_61 as u128) as u64;
            assert_eq!(mul_mod_m61(a, b), want, "a={a} b={b}");
        }
    }

    #[test]
    #[should_panic(expected = "range")]
    fn polynomial_rejects_zero_range() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = PolynomialHash::new(4, 0, &mut rng);
    }
}
