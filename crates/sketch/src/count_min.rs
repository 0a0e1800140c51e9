//! The Count-Min sketch of Section 6 (Cormode–Muthukrishnan): one counter
//! matrix with the paper's minibatch update, per-element updates as the
//! baseline, and point queries that run concurrently with the one writer.
//!
//! Row `i` places an item into `0..w` with its own, independently seeded
//! [`PairMultiplyShiftHash`], so an update or a query costs two 64-bit
//! multiplies per row and no division. The `ε·m` analysis asks two things
//! of the rows. Within a row, two distinct keys must share a column with
//! probability about `1/w`: this family gives
//! `Pr[h(x) = h(y)] ≤ (1/w)(1 + w·2⁻³²)²`, so a row's expected overestimate
//! is `m/w` times that factor — 1.0000025 at the benchmark's `w = 5437`,
//! never more than 4 at the widest sketch [`AtomicCountMin::new`] accepts —
//! and `w = ⌈e/ε⌉` keeps it at `ε·m/e`. Across rows, the `d` functions must
//! be independent, which is what turns one row's Markov bound `1/e` into
//! `δ = e^{−d}`: every row draws its own three 64-bit parameters.
//!
//! ## The minibatch update (Theorem 6.1)
//!
//! [`AtomicCountMin::process_minibatch`] collapses the minibatch into a
//! histogram with `buildHist` (Theorem 2.3) and adds each distinct item's
//! count once per row ([`AtomicCountMin::ingest_histogram`]): `O(µ + µ'·d)`
//! work for `µ` items of which `µ'` are distinct. Rows are independent, so
//! the row groups of the ingest kernel are where a fork-join pool would
//! split the work. The counters equal those of `µ` per-element
//! [`AtomicCountMin::update`]s exactly, whatever histogram order or seed.
//!
//! ## The single-writer contract
//!
//! The counter matrix is stored as [`AtomicU64`]s that **one** thread
//! writes and any number read, so a shard worker's batch update and
//! concurrent point queries never contend on a lock:
//!
//! * the writer adds a histogram count with a **relaxed load followed by a
//!   relaxed store** of the sum — two plain moves on every mainstream
//!   target, not a locked read-modify-write — from one ingest kernel
//!   compiled per depth (`add_histogram`), which hashes a histogram
//!   entry into all of its rows at once over the flat row-major
//!   `d × w` matrix;
//! * readers take **relaxed** loads and the row-wise minimum, with no
//!   synchronisation against the writer at all.
//!
//! At most one thread may be inside [`AtomicCountMin::ingest_histogram`]
//! at a time, and successive writers must be ordered by a happens-before
//! edge (a thread join, a channel hand-off). That is how every sketch in
//! this workspace is used: a shard's sketch is written by that shard's
//! worker only — a restarted worker is spawned by the supervisor after the
//! panicked one has unwound. Two overlapping writers would race on the
//! load/store pair and could drop an increment, which would break the
//! one-sided guarantee below; it is a contract violation, not a data race
//! in the language sense (every access is atomic), and debug builds detect
//! it: `ingest_histogram` flips a writer flag on entry and exit and panics
//! if it finds the flag already set. The `&mut self` writers (`update`,
//! `process_minibatch`, `merge`) hold the contract by construction.
//!
//! ## Why relaxed load + store preserves the Count-Min guarantee
//!
//! Count-Min's contract is one-sided: a point query must **never
//! underestimate** the true frequency of the stream prefix it answers for,
//! and overestimates by at most `ε·m` (w.h.p.).
//!
//! * **No increment is lost.** With one writer nothing can intervene
//!   between a counter's load and the store of `load + count`, so the
//!   pair has exactly the effect of a `fetch_add`. The value of every
//!   counter therefore only grows, in the counter's modification order.
//! * **A reader sees each counter at some point of that order, and never
//!   goes back.** Atomic loads — relaxed ones included — are coherent: a
//!   thread's successive loads of one location observe a non-decreasing
//!   position in its modification order. So every counter a reader
//!   inspects is monotone over time, and so is the row-wise minimum.
//! * **Never an underestimate of a visible prefix.** A concurrent query
//!   may see row `i` already updated by a batch and row `j` not yet; each
//!   counter it reads still holds only real mass (occurrences of the item
//!   plus collisions) from a prefix of the writer's adds, so the minimum
//!   is at least the item's frequency in the least-advanced prefix it saw.
//!   The engine's snapshot publication is a `Release`/`Acquire` edge, so a
//!   reader that loaded a snapshot sees every add of every batch at or
//!   before that snapshot's epoch: `cm_estimate ≥ snapshot.estimate`.
//! * **The upper bound is inherited.** Counters never exceed what they
//!   hold once the writer's adds are all visible, so `f̂ ≤ f + ε·m` holds
//!   with the same probability.
//!
//! The writer's own reads (a persistence clone on the worker thread) are
//! exact: it reads back its own stores.

#[cfg(debug_assertions)]
use std::sync::atomic::AtomicBool;
use std::sync::atomic::{AtomicU64, Ordering};

use psfa_primitives::codec::{put_header, ByteReader, ByteWriter, CodecError};
use psfa_primitives::{build_hist, HashFamily, HistogramEntry, PairMultiplyShiftHash};

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
/// `f_e ≤ a_e ≤ f_e + εm` with probability at least `1 − δ`. The counters
/// are relaxed atomics: **one** writer ingests minibatch histograms through
/// `&self` while any number of readers run point queries concurrently,
/// lock-free (see the module docs for the single-writer contract and the
/// memory-ordering argument).
#[derive(Debug)]
pub struct AtomicCountMin {
    epsilon: f64,
    delta: f64,
    /// Seed the row hash functions were derived from; stored so the sketch
    /// can be re-materialised exactly by `decode` (hashes are a
    /// deterministic function of `(depth, width, seed)`).
    seed: u64,
    width: usize,
    /// Row-major `depth × width` counter matrix.
    counters: Vec<AtomicU64>,
    hashes: Vec<PairMultiplyShiftHash>,
    /// Total mass added (`m`); incremented after the counter adds, so it
    /// trails them — a reader never sees a total ahead of the counters.
    total: AtomicU64,
    /// Set while a writer is inside `ingest_histogram` (debug builds only:
    /// the overlapping-writer check of the single-writer contract).
    #[cfg(debug_assertions)]
    writing: AtomicBool,
}

/// The column `hash` assigns to `item`: the one function every update and
/// query of the sketch takes its columns from.
#[inline]
fn column(hash: &PairMultiplyShiftHash, item: u64) -> usize {
    hash.hash(item) as usize
}

impl Clone for AtomicCountMin {
    /// A copy of the counters under relaxed loads: exact when taken by the
    /// writer (a persistence cut on the worker thread), and a valid sketch
    /// of a recent prefix when taken concurrently with it.
    fn clone(&self) -> Self {
        Self {
            epsilon: self.epsilon,
            delta: self.delta,
            seed: self.seed,
            width: self.width,
            counters: self
                .counters
                .iter()
                .map(|c| AtomicU64::new(c.load(Ordering::Relaxed)))
                .collect(),
            hashes: self.hashes.clone(),
            total: AtomicU64::new(self.total()),
            #[cfg(debug_assertions)]
            writing: AtomicBool::new(false),
        }
    }
}

impl PartialEq for AtomicCountMin {
    fn eq(&self, other: &Self) -> bool {
        // Hash functions are a pure function of (epsilon, delta, seed), so
        // comparing the parameters and counters compares the whole sketch.
        self.epsilon.to_bits() == other.epsilon.to_bits()
            && self.delta.to_bits() == other.delta.to_bits()
            && self.seed == other.seed
            && self.total() == other.total()
            && self.counters.len() == other.counters.len()
            && self
                .counters
                .iter()
                .zip(&other.counters)
                .all(|(a, b)| a.load(Ordering::Relaxed) == b.load(Ordering::Relaxed))
    }
}

impl AtomicCountMin {
    /// Creates an empty sketch for error `ε` and failure probability `δ`,
    /// seeded deterministically from `seed`: sketches built from the same
    /// `(ε, δ, seed)` share their hash functions and merge counter-wise.
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
            counters: (0..width * depth).map(|_| AtomicU64::new(0)).collect(),
            hashes,
            total: AtomicU64::new(0),
            #[cfg(debug_assertions)]
            writing: AtomicBool::new(false),
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
        self.hashes.len()
    }

    /// Number of counters, `w·d` — the space bound `O(ε⁻¹ log(1/δ))`.
    pub fn num_counters(&self) -> usize {
        self.counters.len()
    }

    /// Total mass the writer has recorded so far (`m = Σ counts`; trails
    /// the counters, see the field docs).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Each row's hash function with its `width` counters.
    fn rows(&self) -> impl Iterator<Item = (&PairMultiplyShiftHash, &[AtomicU64])> {
        self.hashes
            .iter()
            .zip(self.counters.chunks_exact(self.width))
    }

    /// Adds `count` occurrences of `item`: the classic per-element update,
    /// one hash and one add per row. Exclusive access, so the adds are
    /// plain writes through [`AtomicU64::get_mut`].
    pub fn update(&mut self, item: u64, count: u64) {
        let rows = self.counters.chunks_exact_mut(self.width);
        for (hash, row) in self.hashes.iter().zip(rows) {
            *row[column(hash, item)].get_mut() += count;
        }
        *self.total.get_mut() += count;
    }

    /// Incorporates a minibatch of item identifiers (Theorem 6.1):
    /// `buildHist`, then one [`AtomicCountMin::ingest_histogram`]. Any
    /// histogram seed yields the same counters, so none is kept.
    pub fn process_minibatch(&mut self, minibatch: &[u64]) {
        self.ingest_histogram(&build_hist(minibatch, self.seed));
    }

    /// Adds one minibatch's histogram: per `(row, distinct item)` one hash,
    /// one relaxed load and one relaxed store; no allocation. `&self` — the
    /// writer needs no exclusive access, but there must be only one (the
    /// single-writer contract in the module docs).
    ///
    /// # Panics
    /// In debug builds, panics if another call is in progress on this
    /// sketch.
    pub fn ingest_histogram(&self, hist: &[HistogramEntry]) {
        if hist.is_empty() {
            return;
        }
        #[cfg(debug_assertions)]
        assert!(
            !self.writing.swap(true, Ordering::Acquire),
            "AtomicCountMin: overlapping writers break the single-writer contract"
        );
        // One kernel, monomorphised on the number of rows it covers and
        // chosen once per call; a sketch deeper than the largest
        // specialisation runs the same kernel over successive row groups.
        let groups = self.hashes.chunks(MAX_GROUP);
        let group_counters = self.counters.chunks(MAX_GROUP * self.width);
        for (hashes, counters) in groups.zip(group_counters) {
            match hashes.len() {
                1 => add_histogram::<1>(hashes, counters, hist),
                2 => add_histogram::<2>(hashes, counters, hist),
                3 => add_histogram::<3>(hashes, counters, hist),
                4 => add_histogram::<4>(hashes, counters, hist),
                5 => add_histogram::<5>(hashes, counters, hist),
                6 => add_histogram::<6>(hashes, counters, hist),
                7 => add_histogram::<7>(hashes, counters, hist),
                MAX_GROUP => add_histogram::<MAX_GROUP>(hashes, counters, hist),
                _ => unreachable!("chunks(MAX_GROUP) yields 1..=MAX_GROUP rows"),
            }
        }
        add(&self.total, hist.iter().map(|entry| entry.count).sum());
        #[cfg(debug_assertions)]
        self.writing.store(false, Ordering::Release);
    }

    /// Lock-free point query: the row-wise minimum under relaxed loads —
    /// an overestimate of `item`'s frequency in every fully visible prefix
    /// and never more than `f + ε·m` (w.h.p.) over the whole stream.
    pub fn query(&self, item: u64) -> u64 {
        self.rows()
            .map(|(hash, row)| row[column(hash, item)].load(Ordering::Relaxed))
            .min()
            .unwrap_or(0)
    }

    /// True if `other` uses identical dimensions *and* hash functions, i.e.
    /// the two sketches were created with the same `(ε, δ, seed)` and may be
    /// merged counter-wise.
    pub fn is_mergeable_with(&self, other: &AtomicCountMin) -> bool {
        self.width == other.width && self.hashes == other.hashes
    }

    /// Merges another sketch into this one by adding counters point-wise.
    ///
    /// Both sketches must have been created with the same `(ε, δ, seed)` so
    /// their rows share hash functions; the merged sketch then answers point
    /// queries over the union of both input streams with the usual
    /// `f ≤ f̂ ≤ f + ε(m₁ + m₂)` guarantee — per-shard sketches merge into a
    /// global sketch of the full stream. `other` is read under relaxed
    /// loads, so it may be a live shard's sketch.
    ///
    /// # Panics
    /// Panics if the sketches' dimensions or hash functions differ.
    pub fn merge(&mut self, other: &AtomicCountMin) {
        assert!(
            self.is_mergeable_with(other),
            "AtomicCountMin::merge requires identical (epsilon, delta, seed)"
        );
        for (mine, theirs) in self.counters.iter_mut().zip(&other.counters) {
            *mine.get_mut() += theirs.load(Ordering::Relaxed);
        }
        *self.total.get_mut() += other.total();
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
        w.put_u64(self.total());
        w.put_u32(self.width as u32);
        w.put_u32(self.depth() as u32);
        for counter in &self.counters {
            w.put_u64(counter.load(Ordering::Relaxed));
        }
    }

    /// Canonical binary encoding as an owned buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Decodes a sketch previously written by
    /// [`AtomicCountMin::encode_into`], re-deriving the row hashes from the
    /// seed and validating dimensions against `(ε, δ)` (never panics on
    /// corrupted input).
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.expect_header(TAG, VERSION)?;
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
        // sketch: `AtomicCountMin::new` allocates `width × depth` counters,
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
        let mut sketch = AtomicCountMin::new(epsilon, delta, seed);
        debug_assert!(sketch.width == width && sketch.depth() == depth);
        for counter in sketch.counters.iter_mut() {
            *counter.get_mut() = r.get_u64()?;
        }
        *sketch.total.get_mut() = total;
        Ok(sketch)
    }

    /// Decodes a sketch from a standalone buffer produced by
    /// [`AtomicCountMin::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        let out = Self::decode_from(&mut r)?;
        r.expect_end()?;
        Ok(out)
    }
}

/// The largest number of rows one [`add_histogram`] instance covers.
const MAX_GROUP: usize = 8;

/// The ingest kernel: adds `hist` to the `D` rows `counters` holds (row
/// major, `D × width`), row `i` hashed by `hashes[i]`. With `D` a constant
/// the row loops unroll, the hash parameters stay in registers, and the
/// `D` columns of one entry are `D` independent multiply chains the CPU
/// overlaps. Entry-major order: a histogram entry's `D` adds are issued
/// together and each row's counters are visited in hash order.
fn add_histogram<const D: usize>(
    hashes: &[PairMultiplyShiftHash],
    counters: &[AtomicU64],
    hist: &[HistogramEntry],
) {
    let hashes: [PairMultiplyShiftHash; D] = std::array::from_fn(|row| hashes[row]);
    let width = counters.len() / D;
    let rows: [&[AtomicU64]; D] =
        std::array::from_fn(|row| &counters[row * width..(row + 1) * width]);
    for entry in hist {
        let columns: [usize; D] = std::array::from_fn(|row| column(&hashes[row], entry.item));
        for (row, &at) in rows.iter().zip(&columns) {
            add(&row[at], entry.count);
        }
    }
}

/// The single writer's add: nothing else stores to `counter`, so a relaxed
/// load and a relaxed store of the sum lose no increment (module docs).
#[inline]
fn add(counter: &AtomicU64, count: u64) {
    counter.store(counter.load(Ordering::Relaxed) + count, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    /// Row `row`'s column for `item`.
    fn column_of(cm: &AtomicCountMin, row: usize, item: u64) -> usize {
        column(&cm.hashes[row], item)
    }

    #[test]
    fn dimensions_follow_epsilon_delta() {
        let cm = AtomicCountMin::new(0.01, 0.01, 1);
        assert_eq!(cm.width(), (std::f64::consts::E / 0.01).ceil() as usize);
        assert_eq!(cm.depth(), 5); // ln(100) ≈ 4.6
        assert_eq!(cm.num_counters(), cm.width() * cm.depth());
    }

    #[test]
    fn never_underestimates() {
        let mut cm = AtomicCountMin::new(0.01, 0.05, 7);
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
        let mut cm = AtomicCountMin::new(epsilon, 0.01, 3);
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
        let cm = AtomicCountMin::new(0.05, 0.01, 2024);
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
                    *hits += u64::from(column_of(&cm, row, x) == column_of(&cm, row, y));
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
        let mut cm = AtomicCountMin::new(0.01, 0.01, 11);
        for item in 0..1000u64 {
            cm.update(item, 1);
        }
        // An unseen item's estimate is bounded by collisions only.
        assert!(cm.query(999_999) <= (0.01f64 * 1000.0).ceil() as u64 + 1);
    }

    #[test]
    fn weighted_updates_accumulate() {
        let mut cm = AtomicCountMin::new(0.1, 0.1, 2);
        cm.update(5, 10);
        cm.update(5, 7);
        assert!(cm.query(5) >= 17);
        assert_eq!(cm.total(), 17);
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn invalid_delta_rejected() {
        let _ = AtomicCountMin::new(0.1, 1.0, 0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut sketch = AtomicCountMin::new(0.01, 0.05, 77);
        for item in 0..500u64 {
            sketch.update(item % 40, 1 + item % 3);
        }
        let decoded = AtomicCountMin::decode(&sketch.encode()).unwrap();
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
        let mut sketch = AtomicCountMin::new(0.01, 0.05, 77);
        sketch.update(5, 9);
        let mut bytes = sketch.encode();
        assert_eq!(bytes[1], VERSION, "layout: tag(1) + version(1)");
        for old in 1..VERSION {
            bytes[1] = old;
            assert_eq!(
                AtomicCountMin::decode(&bytes),
                Err(CodecError::UnsupportedVersion { found: old })
            );
        }
    }

    #[test]
    fn decode_rejects_absurd_epsilon_without_allocating() {
        // A corrupted epsilon deep in (0, 1) — e.g. 1e-300 — must be caught
        // by the dimension cross-check *before* any counter allocation, not
        // panic with a capacity overflow.
        let sketch = AtomicCountMin::new(0.01, 0.05, 1);
        let mut bytes = sketch.encode();
        // Layout: tag(1) + version(1) + epsilon f64 bits at [2..10].
        bytes[2..10].copy_from_slice(&1e-300f64.to_bits().to_le_bytes());
        assert!(matches!(
            AtomicCountMin::decode(&bytes),
            Err(CodecError::Invalid(_))
        ));
        // Same for a delta driving the depth out of range.
        let mut bytes = sketch.encode();
        bytes[10..18].copy_from_slice(&1e-300f64.to_bits().to_le_bytes());
        assert!(AtomicCountMin::decode(&bytes).is_err());
        // An epsilon just under the limit `new` enforces implies a width no
        // `u32` field can hold, so the same cross-check rejects it — typed,
        // without reaching `new`'s panic.
        let mut bytes = sketch.encode();
        bytes[2..10].copy_from_slice(&6e-10f64.to_bits().to_le_bytes());
        bytes[34..38].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            AtomicCountMin::decode(&bytes),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    #[should_panic(expected = "2^32")]
    fn epsilon_too_small_for_a_32_bit_width_is_rejected() {
        // ⌈e / 6e-10⌉ ≈ 4.53e9 > u32::MAX: `encode_into` would truncate the
        // width and the row hash cannot reach past 2^32 columns. The check
        // comes before the counter matrix is allocated.
        let _ = AtomicCountMin::new(6e-10, 0.5, 0);
    }

    #[test]
    fn parallel_and_sequential_updates_agree_exactly() {
        // Driving the same sketch (same seeds) per-element or per-minibatch
        // must produce identical counter arrays.
        let mut seq = AtomicCountMin::new(0.01, 0.02, 42);
        let mut par = AtomicCountMin::new(0.01, 0.02, 42);
        let mut rng = Lcg(1);
        for _ in 0..20 {
            let batch: Vec<u64> = (0..500).map(|_| rng.next() % 300).collect();
            for &x in &batch {
                seq.update(x, 1);
            }
            par.process_minibatch(&batch);
        }
        assert_eq!(seq, par);
        assert_eq!(seq.total(), par.total());
        for item in 0..300u64 {
            assert_eq!(seq.query(item), par.query(item));
        }
    }

    #[test]
    fn theorem_6_1_accuracy() {
        let epsilon = 0.002;
        let delta = 0.01;
        let mut par = AtomicCountMin::new(epsilon, delta, 7);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut rng = Lcg(3);
        for _ in 0..40 {
            let batch: Vec<u64> = (0..1000)
                .map(|_| {
                    let r = rng.next();
                    if r.is_multiple_of(2) {
                        r % 10
                    } else {
                        10 + r % 5000
                    }
                })
                .collect();
            for &x in &batch {
                *truth.entry(x).or_insert(0) += 1;
            }
            par.process_minibatch(&batch);
        }
        let m = par.total();
        let bound = (epsilon * m as f64).ceil() as u64;
        let mut violations = 0usize;
        for (&item, &f) in &truth {
            let q = par.query(item);
            assert!(q >= f, "Count-Min must never underestimate");
            if q > f + bound {
                violations += 1;
            }
        }
        assert!(
            violations <= truth.len() / 20,
            "{violations}/{} items exceeded εm",
            truth.len()
        );
    }

    #[test]
    fn empty_minibatch_is_noop() {
        let mut par = AtomicCountMin::new(0.1, 0.1, 1);
        par.process_minibatch(&[]);
        assert_eq!(par.total(), 0);
    }

    #[test]
    fn merged_shards_answer_like_one_sketch() {
        // Partition a stream across 4 "shards" with independent sketches
        // (same seed), merge, and compare against one sketch that saw it all.
        let mut whole = AtomicCountMin::new(0.01, 0.01, 77);
        let mut shards: Vec<AtomicCountMin> = (0..4)
            .map(|_| AtomicCountMin::new(0.01, 0.01, 77))
            .collect();
        let mut rng = Lcg(5);
        for _ in 0..10 {
            let batch: Vec<u64> = (0..2000).map(|_| rng.next() % 500).collect();
            whole.process_minibatch(&batch);
            let mut parts: Vec<Vec<u64>> = vec![Vec::new(); 4];
            for &x in &batch {
                parts[(x % 4) as usize].push(x);
            }
            for (shard, part) in shards.iter_mut().zip(&parts) {
                shard.process_minibatch(part);
            }
        }
        let mut merged = shards.swap_remove(0);
        for shard in &shards {
            merged.merge(shard);
        }
        assert_eq!(merged.total(), whole.total());
        assert_eq!(merged, whole);
        for item in 0..500u64 {
            assert_eq!(merged.query(item), whole.query(item));
        }
    }

    #[test]
    #[should_panic(expected = "identical")]
    fn merge_rejects_mismatched_seeds() {
        let mut a = AtomicCountMin::new(0.01, 0.01, 1);
        let b = AtomicCountMin::new(0.01, 0.01, 2);
        a.merge(&b);
    }

    #[test]
    fn kernel_matches_per_entry_updates_at_every_depth() {
        // Depths 1..=8 each have their own instance of the kernel; depth 9
        // runs the 8-row one and then the 1-row one. Whatever the depth,
        // the matrix must equal per-entry `AtomicCountMin::update`s counter
        // for counter. Three widths: the benchmark's, one narrower than the
        // histogram (every column is hit several times per call), and the
        // narrowest there is.
        let mut state = 3u64;
        let mut random = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        let spread: Vec<HistogramEntry> = (0..700)
            .map(|_| HistogramEntry {
                item: random(),
                count: 1 + random() % 5,
            })
            .collect();
        // Edge histograms: entries that add nothing, and one key repeated
        // back to back (each add must see the one before it).
        let zeros: Vec<HistogramEntry> = (0..40u64)
            .map(|item| HistogramEntry {
                item,
                count: item % 2,
            })
            .collect();
        let repeated = vec![HistogramEntry { item: 77, count: 3 }; 50];
        for depth in 1..=9usize {
            let delta = (0.5 - depth as f64).exp();
            for epsilon in [0.0005, 0.02, 0.99] {
                let atomic = AtomicCountMin::new(epsilon, delta, 19);
                let mut plain = AtomicCountMin::new(epsilon, delta, 19);
                assert_eq!(plain.depth(), depth);
                for hist in [&spread, &zeros, &repeated, &spread] {
                    atomic.ingest_histogram(hist);
                    for entry in hist.iter() {
                        plain.update(entry.item, entry.count);
                    }
                }
                assert_eq!(atomic, plain, "depth {depth}, epsilon {epsilon}");
                assert_eq!(atomic.query(77), plain.query(77));
            }
        }
    }

    #[test]
    fn concurrent_readers_stay_monotone_and_end_exact() {
        // One load+store writer, several readers: every reader's estimate
        // of each key (and of the total) must be monotone, and the final
        // state exact. The barrier starts everyone together and the writer
        // keeps going until every reader has queried through at least 200
        // of its rounds, so reads really do overlap writes.
        const KEYS: [u64; 3] = [77, 78, 1 << 40];
        let sketch = Arc::new(AtomicCountMin::new(0.01, 0.01, 7));
        let stop = Arc::new(AtomicBool::new(false));
        let start = Arc::new(std::sync::Barrier::new(4));
        let progress: Arc<Vec<AtomicU64>> = Arc::new((0..3).map(|_| AtomicU64::new(0)).collect());
        let readers: Vec<_> = (0..3)
            .map(|id| {
                let (sketch, stop, start, progress) = (
                    sketch.clone(),
                    stop.clone(),
                    start.clone(),
                    progress.clone(),
                );
                std::thread::spawn(move || {
                    let mut last = [0u64; 4];
                    start.wait();
                    while !stop.load(Ordering::Acquire) {
                        let seen = [
                            sketch.query(KEYS[0]),
                            sketch.query(KEYS[1]),
                            sketch.query(KEYS[2]),
                            sketch.total(),
                        ];
                        for (now, before) in seen.iter().zip(&last) {
                            assert!(now >= before, "went backwards: {now} < {before}");
                        }
                        last = seen;
                        progress[id].fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        let hist: Vec<HistogramEntry> = KEYS
            .iter()
            .map(|&item| HistogramEntry { item, count: 3 })
            .collect();
        start.wait();
        let mut rounds = 0u64;
        while rounds < 2_000 || progress.iter().any(|p| p.load(Ordering::Relaxed) < 200) {
            // A reader that failed its assertion makes no more progress;
            // stop and let its join report the panic.
            if readers.iter().any(|r| r.is_finished()) {
                break;
            }
            sketch.ingest_histogram(&hist);
            rounds += 1;
            if rounds.is_multiple_of(64) {
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Release);
        for r in readers {
            r.join().unwrap();
        }
        for key in KEYS {
            assert_eq!(sketch.query(key), 3 * rounds);
        }
        assert_eq!(sketch.total(), 9 * rounds);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "single-writer contract")]
    fn overlapping_writers_are_caught_in_debug_builds() {
        // A second writer arriving while the flag is up is exactly what a
        // concurrent `ingest_histogram` would look like from the inside.
        let sketch = AtomicCountMin::new(0.1, 0.1, 1);
        sketch.writing.store(true, Ordering::Release);
        sketch.ingest_histogram(&[HistogramEntry { item: 1, count: 1 }]);
    }
}
