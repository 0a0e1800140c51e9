//! Sequential Count-Min sketch (Cormode–Muthukrishnan), the baseline the
//! parallel minibatch version of Section 6 builds on.
//!
//! Row `i` places an item into `0..w` with its own, independently seeded
//! [`PairMultiplyShiftHash`], so an update or a query costs two 64-bit
//! multiplies per row and no division. The `ε·m` analysis asks two things
//! of the rows. Within a row, two distinct keys must share a column with
//! probability about `1/w`: this family gives
//! `Pr[h(x) = h(y)] ≤ (1/w)(1 + w·2⁻³²)²`, so a row's expected overestimate
//! is `m/w` times that factor — 1.0000025 at the benchmark's `w = 5437`,
//! never more than 4 at the widest sketch [`CountMinSketch::new`] accepts —
//! and `w = ⌈e/ε⌉` keeps it at `ε·m/e`. Across rows, the `d` functions must
//! be independent, which is what turns one row's Markov bound `1/e` into
//! `δ = e^{−d}`: every row draws its own three 64-bit parameters.

use psfa_primitives::codec::{put_header, ByteReader, ByteWriter, CodecError};
use psfa_primitives::{HashFamily, PairMultiplyShiftHash};

/// Type tag for encoded Count-Min sketches (see `psfa_primitives::codec`).
const TAG: u8 = 0x07;
/// Version 3: rows hash with [`PairMultiplyShiftHash`]. Version 1 derived a
/// degree-1 polynomial over `2^61 − 1` from the same seed and version 2 a
/// 128-bit multiply-add-shift, so their counters sit in different columns
/// and must not be read by this code: decoding either fails with
/// [`CodecError::UnsupportedVersion`]. The bytes after the version byte
/// have not changed since version 1.
const VERSION: u8 = 3;

/// A Count-Min sketch: `d = ⌈ln(1/δ)⌉` rows of `w = ⌈e/ε⌉` counters.
///
/// For a stream of `m` updates, a point query returns `a_e` with
/// `f_e ≤ a_e ≤ f_e + εm` with probability at least `1 − δ`.
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    epsilon: f64,
    delta: f64,
    /// Seed the row hash functions were derived from; stored so the sketch
    /// can be re-materialised exactly by `decode` (hashes are a
    /// deterministic function of `(depth, width, seed)`).
    seed: u64,
    width: usize,
    depth: usize,
    /// Row-major counter array, `depth` rows of `width` counters.
    rows: Vec<Vec<u64>>,
    hashes: Vec<PairMultiplyShiftHash>,
    /// Total mass added so far (`m`).
    total: u64,
}

/// The column `hash` assigns to `item`: the one function every Count-Min in
/// this crate — this sketch, [`crate::ParallelCountMin`] through it, and
/// [`crate::AtomicCountMin`]'s kernel — takes its columns from.
#[inline]
pub(crate) fn column(hash: &PairMultiplyShiftHash, item: u64) -> usize {
    hash.hash(item) as usize
}

impl PartialEq for CountMinSketch {
    fn eq(&self, other: &Self) -> bool {
        // Hash functions are a pure function of (epsilon, delta, seed), so
        // comparing the parameters and counters compares the whole sketch.
        self.epsilon.to_bits() == other.epsilon.to_bits()
            && self.delta.to_bits() == other.delta.to_bits()
            && self.seed == other.seed
            && self.rows == other.rows
            && self.total == other.total
    }
}

impl CountMinSketch {
    /// Creates a sketch for error `ε` and failure probability `δ`, seeded
    /// deterministically from `seed`.
    ///
    /// # Panics
    /// Panics unless `0 < ε < 1` and `0 < δ < 1`, and if `ε` is so small
    /// that the width `⌈e/ε⌉` exceeds [`u32::MAX`] (`ε` below about
    /// `e·2⁻³² ≈ 6.33e-10`): the codec writes the width as a `u32` and the
    /// row hash reduces a 32-bit value.
    pub fn new(epsilon: f64, delta: f64, seed: u64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0, 1)");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        // The float→int cast saturates, so a tiny epsilon cannot wrap past
        // the check.
        let width = (std::f64::consts::E / epsilon).ceil() as usize;
        assert!(
            width as u64 <= u64::from(u32::MAX),
            "epsilon too small: the width ⌈e/ε⌉ must be at most 2^32 − 1 (ε ≥ e·2⁻³² ≈ 6.33e-10)"
        );
        let depth = (1.0 / delta).ln().ceil().max(1.0) as usize;
        let hashes = (0..depth)
            .map(|i| PairMultiplyShiftHash::from_seed(width as u64, seed ^ (0x9E37 + i as u64)))
            .collect();
        Self {
            epsilon,
            delta,
            seed,
            width,
            depth,
            rows: vec![vec![0u64; width]; depth],
            hashes,
            total: 0,
        }
    }

    /// The seed the row hash functions were derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The error parameter ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The failure probability δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Number of counters per row, `w = ⌈e/ε⌉`.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows, `d = ⌈ln(1/δ)⌉`.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total mass inserted so far (`m = Σ counts`).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of counters, `w·d` — the space bound `O(ε⁻¹ log(1/δ))`.
    pub fn num_counters(&self) -> usize {
        self.width * self.depth
    }

    /// Column used by row `row` for `item` (exposed for the parallel updater).
    pub(crate) fn column(&self, row: usize, item: u64) -> usize {
        column(&self.hashes[row], item)
    }

    /// The row hash functions, in row order (exposed for the atomic
    /// concurrent sketch, which shares this sketch's exact hashing).
    pub(crate) fn row_hashes(&self) -> &[PairMultiplyShiftHash] {
        &self.hashes
    }

    /// Rebuilds a sketch from raw parts: the `(ε, δ, seed)` triple plus a
    /// counter matrix and total previously read out of a sketch with the
    /// same parameters (e.g. a relaxed-atomic snapshot of
    /// [`crate::AtomicCountMin`]). The row hashes are re-derived from the
    /// seed, so the result is hash-identical — and therefore mergeable —
    /// with every sketch built from the same triple.
    ///
    /// # Panics
    /// Panics if the parameters are out of range or `rows` does not match
    /// the `(ε, δ)`-derived dimensions.
    pub(crate) fn from_parts(
        epsilon: f64,
        delta: f64,
        seed: u64,
        total: u64,
        rows: Vec<Vec<u64>>,
    ) -> Self {
        let mut sketch = CountMinSketch::new(epsilon, delta, seed);
        assert!(
            rows.len() == sketch.depth && rows.iter().all(|r| r.len() == sketch.width),
            "from_parts: counter matrix does not match the (epsilon, delta) dimensions"
        );
        sketch.rows = rows;
        sketch.total = total;
        sketch
    }

    /// Adds `count` occurrences of `item` (the classic per-element update,
    /// applied once per distinct item when driven from a histogram).
    pub fn update(&mut self, item: u64, count: u64) {
        for row in 0..self.depth {
            let col = self.column(row, item);
            self.rows[row][col] += count;
        }
        self.total += count;
    }

    /// Point query: an overestimate of the frequency of `item`.
    pub fn query(&self, item: u64) -> u64 {
        (0..self.depth)
            .map(|row| self.rows[row][self.column(row, item)])
            .min()
            .unwrap_or(0)
    }

    /// Mutable access to a row (used by the parallel minibatch updater).
    pub(crate) fn rows_mut(&mut self) -> &mut Vec<Vec<u64>> {
        &mut self.rows
    }

    /// Adds to the running total (used by the parallel minibatch updater).
    pub(crate) fn add_total(&mut self, count: u64) {
        self.total += count;
    }

    /// Read-only access to the counter matrix (tests / experiments).
    pub fn counters(&self) -> &[Vec<u64>] {
        &self.rows
    }

    /// True if `other` uses identical dimensions *and* hash functions, i.e.
    /// the two sketches were created with the same `(ε, δ, seed)` and may be
    /// merged counter-wise.
    pub fn is_mergeable_with(&self, other: &CountMinSketch) -> bool {
        self.width == other.width && self.depth == other.depth && self.hashes == other.hashes
    }

    /// Merges another sketch into this one by adding counters point-wise.
    ///
    /// Both sketches must have been created with the same `(ε, δ, seed)` so
    /// their rows share hash functions; the merged sketch then answers point
    /// queries over the union of both input streams with the usual
    /// `f ≤ f̂ ≤ f + ε(m₁ + m₂)` guarantee — per-shard sketches merge into a
    /// global sketch of the full stream.
    ///
    /// # Panics
    /// Panics if the sketches' dimensions or hash functions differ.
    pub fn merge(&mut self, other: &CountMinSketch) {
        assert!(
            self.is_mergeable_with(other),
            "CountMinSketch::merge requires identical (epsilon, delta, seed)"
        );
        for (mine, theirs) in self.rows.iter_mut().zip(&other.rows) {
            for (m, &t) in mine.iter_mut().zip(theirs) {
                *m += t;
            }
        }
        self.total += other.total;
    }

    /// Canonical binary encoding, appended to `w`. Only the parameters and
    /// the counter matrix are written; the row hashes are re-derived from
    /// the seed on decode, so the encoding stays compact and the decoded
    /// sketch is hash-identical (and therefore mergeable) with the original.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        put_header(w, TAG, VERSION);
        w.put_f64(self.epsilon);
        w.put_f64(self.delta);
        w.put_u64(self.seed);
        w.put_u64(self.total);
        w.put_u32(self.width as u32);
        w.put_u32(self.depth as u32);
        for row in &self.rows {
            for &counter in row {
                w.put_u64(counter);
            }
        }
    }

    /// Canonical binary encoding as an owned buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Decodes a sketch previously written by
    /// [`CountMinSketch::encode_into`], re-deriving the row hashes from the
    /// seed and validating dimensions against `(ε, δ)` (never panics on
    /// corrupted input).
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        // `expect_header` admits every version up to `VERSION`; there is no
        // reading an older one (see `VERSION`), so only the current passes.
        let found = r.expect_header(TAG, VERSION)?;
        if found != VERSION {
            return Err(CodecError::UnsupportedVersion { found });
        }
        let epsilon = r.get_f64()?;
        let delta = r.get_f64()?;
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(CodecError::Invalid("count-min: epsilon not in (0, 1)"));
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(CodecError::Invalid("count-min: delta not in (0, 1)"));
        }
        let seed = r.get_u64()?;
        let total = r.get_u64()?;
        let width = r.get_u32()? as usize;
        let depth = r.get_u32()? as usize;
        // Validate the dimensions arithmetically *before* constructing the
        // sketch: `CountMinSketch::new` allocates `width × depth` counters,
        // and a corrupted epsilon (e.g. 1e-300, still inside (0, 1)) would
        // otherwise drive a huge allocation or a capacity-overflow panic.
        // Float→int casts saturate in Rust, so these derivations are safe
        // for any decoded epsilon/delta.
        let expected_width = (std::f64::consts::E / epsilon).ceil() as usize;
        let expected_depth = (1.0 / delta).ln().ceil().max(1.0) as usize;
        if width != expected_width || depth != expected_depth {
            return Err(CodecError::Invalid(
                "count-min: dimensions inconsistent with (epsilon, delta)",
            ));
        }
        let needed = width
            .checked_mul(depth)
            .and_then(|c| c.checked_mul(8))
            .ok_or(CodecError::Invalid("count-min: dimension overflow"))?;
        if needed > r.remaining() {
            return Err(CodecError::UnexpectedEof {
                needed,
                remaining: r.remaining(),
            });
        }
        let mut sketch = CountMinSketch::new(epsilon, delta, seed);
        debug_assert!(sketch.width == width && sketch.depth == depth);
        for row in sketch.rows.iter_mut() {
            for counter in row.iter_mut() {
                *counter = r.get_u64()?;
            }
        }
        sketch.total = total;
        Ok(sketch)
    }

    /// Decodes a sketch from a standalone buffer produced by
    /// [`CountMinSketch::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        let out = Self::decode_from(&mut r)?;
        r.expect_end()?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn dimensions_follow_epsilon_delta() {
        let cm = CountMinSketch::new(0.01, 0.01, 1);
        assert_eq!(cm.width(), (std::f64::consts::E / 0.01).ceil() as usize);
        assert_eq!(cm.depth(), 5); // ln(100) ≈ 4.6
        assert_eq!(cm.num_counters(), cm.width() * cm.depth());
    }

    #[test]
    fn never_underestimates() {
        let mut cm = CountMinSketch::new(0.01, 0.05, 7);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut state = 5u64;
        for _ in 0..20_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let item = (state >> 33) % 500;
            cm.update(item, 1);
            *truth.entry(item).or_insert(0) += 1;
        }
        for (&item, &f) in &truth {
            assert!(cm.query(item) >= f);
        }
    }

    #[test]
    fn overestimate_bounded_by_epsilon_m_for_most_items() {
        let epsilon = 0.005;
        let mut cm = CountMinSketch::new(epsilon, 0.01, 3);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut state = 9u64;
        let m = 50_000u64;
        for _ in 0..m {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let item = (state >> 33) % 2000;
            cm.update(item, 1);
            *truth.entry(item).or_insert(0) += 1;
        }
        assert_eq!(cm.total(), m);
        let bound = (epsilon * m as f64).ceil() as u64;
        let violations = truth
            .iter()
            .filter(|(&item, &f)| cm.query(item) > f + bound)
            .count();
        // With probability 1 − δ per item the bound holds; allow a small
        // number of unlucky items (δ = 1%, 2000 items ⇒ expected ≈ 20).
        assert!(
            violations <= truth.len() / 20,
            "{violations} of {} items exceeded the εm bound",
            truth.len()
        );
    }

    #[test]
    fn rows_collide_on_random_key_pairs_at_about_one_over_width() {
        // What the ε·m analysis needs of a row: two distinct keys share a
        // column with probability ≈ 1/w. Random pairs (sparse 64-bit keys
        // and dense small ones), every row checked on its own.
        let cm = CountMinSketch::new(0.05, 0.01, 2024);
        let w = cm.width() as f64;
        let pairs = 200_000u64;
        let mut state = 77u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for dense in [false, true] {
            let mut collisions = vec![0u64; cm.depth()];
            for _ in 0..pairs {
                let (mut x, mut y) = (next(), next());
                if dense {
                    (x, y) = (x >> 44, y >> 44);
                }
                if x == y {
                    continue;
                }
                for (row, hits) in collisions.iter_mut().enumerate() {
                    *hits += u64::from(cm.column(row, x) == cm.column(row, y));
                }
            }
            let expected = pairs as f64 / w;
            for (row, &hits) in collisions.iter().enumerate() {
                assert!(
                    (hits as f64) > 0.85 * expected && (hits as f64) < 1.15 * expected,
                    "row {row} (dense = {dense}): {hits} collisions, expected about {expected:.0}"
                );
            }
        }
    }

    #[test]
    fn unseen_item_query_is_small() {
        let mut cm = CountMinSketch::new(0.01, 0.01, 11);
        for item in 0..1000u64 {
            cm.update(item, 1);
        }
        // An unseen item's estimate is bounded by collisions only.
        assert!(cm.query(999_999) <= (0.01f64 * 1000.0).ceil() as u64 + 1);
    }

    #[test]
    fn weighted_updates_accumulate() {
        let mut cm = CountMinSketch::new(0.1, 0.1, 2);
        cm.update(5, 10);
        cm.update(5, 7);
        assert!(cm.query(5) >= 17);
        assert_eq!(cm.total(), 17);
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn invalid_delta_rejected() {
        let _ = CountMinSketch::new(0.1, 1.0, 0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut sketch = CountMinSketch::new(0.01, 0.05, 77);
        for item in 0..500u64 {
            sketch.update(item % 40, 1 + item % 3);
        }
        let decoded = CountMinSketch::decode(&sketch.encode()).unwrap();
        assert_eq!(decoded, sketch);
        for item in 0..40u64 {
            assert_eq!(decoded.query(item), sketch.query(item));
        }
        assert!(decoded.is_mergeable_with(&sketch));
    }

    #[test]
    fn decode_rejects_sketches_written_under_the_version_1_row_hash() {
        // Same layout, different columns: a sketch written under either
        // earlier row hash (versions 1 and 2) must fail typed instead of
        // being decoded into counters this hash misreads.
        let mut sketch = CountMinSketch::new(0.01, 0.05, 77);
        sketch.update(5, 9);
        let mut bytes = sketch.encode();
        assert_eq!(bytes[1], VERSION, "layout: tag(1) + version(1)");
        for old in 1..VERSION {
            bytes[1] = old;
            assert_eq!(
                CountMinSketch::decode(&bytes),
                Err(CodecError::UnsupportedVersion { found: old })
            );
        }
    }

    #[test]
    fn decode_rejects_absurd_epsilon_without_allocating() {
        // A corrupted epsilon deep in (0, 1) — e.g. 1e-300 — must be caught
        // by the dimension cross-check *before* any counter allocation, not
        // panic with a capacity overflow.
        let sketch = CountMinSketch::new(0.01, 0.05, 1);
        let mut bytes = sketch.encode();
        // Layout: tag(1) + version(1) + epsilon f64 bits at [2..10].
        bytes[2..10].copy_from_slice(&1e-300f64.to_bits().to_le_bytes());
        assert!(matches!(
            CountMinSketch::decode(&bytes),
            Err(CodecError::Invalid(_))
        ));
        // Same for a delta driving the depth out of range.
        let mut bytes = sketch.encode();
        bytes[10..18].copy_from_slice(&1e-300f64.to_bits().to_le_bytes());
        assert!(CountMinSketch::decode(&bytes).is_err());
        // An epsilon just under the limit `new` enforces implies a width no
        // `u32` field can hold, so the same cross-check rejects it — typed,
        // without reaching `new`'s panic.
        let mut bytes = sketch.encode();
        bytes[2..10].copy_from_slice(&6e-10f64.to_bits().to_le_bytes());
        bytes[34..38].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            CountMinSketch::decode(&bytes),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    #[should_panic(expected = "2^32")]
    fn epsilon_too_small_for_a_32_bit_width_is_rejected() {
        // ⌈e / 6e-10⌉ ≈ 4.53e9 > u32::MAX: `encode_into` would truncate the
        // width and the row hash cannot reach past 2^32 columns. The check
        // comes before the counter matrix is allocated.
        let _ = CountMinSketch::new(6e-10, 0.5, 0);
    }
}
