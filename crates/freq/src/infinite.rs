//! Infinite-window parallel frequency estimation (Theorem 5.2).
//!
//! The estimator keeps a single shared Misra–Gries summary with
//! `S = ⌈1/ε⌉` counters. A minibatch of `µ` items is incorporated by
//! building its frequency histogram with the linear-work `buildHist`
//! (Theorem 2.3) and merging the histogram into the summary with
//! `MGaugment` (Lemma 5.3), for `O(ε⁻¹ + µ)` work and polylogarithmic
//! depth — matching the best sequential algorithm's work and beating the
//! `Ω(1/ε)` depth of merge-based approaches.

use psfa_primitives::codec::{put_header, ByteReader, ByteWriter, CodecError};
use psfa_primitives::{build_hist, HistogramEntry, WorkMeter};

use crate::summary::MgSummary;

/// Type tag for encoded estimators (see `psfa_primitives::codec`).
const TAG: u8 = 0x04;
const VERSION: u8 = 1;

/// Infinite-window frequency estimator with guarantee
/// `f̂ₑ ∈ [fₑ − εm, fₑ]` after `m` stream elements (Theorem 5.2).
///
/// Equality compares the persistent state (ε, summary, stream length, seed);
/// an attached [`WorkMeter`] is instrumentation and is ignored.
#[derive(Debug, Clone)]
pub struct ParallelFrequencyEstimator {
    epsilon: f64,
    summary: MgSummary,
    /// Total number of stream elements processed so far (`m`).
    stream_len: u64,
    /// Seed for the histogram hash function; advanced per minibatch.
    seed: u64,
    /// Optional work meter charged with the dominant operations.
    meter: Option<WorkMeter>,
}

impl PartialEq for ParallelFrequencyEstimator {
    fn eq(&self, other: &Self) -> bool {
        self.epsilon.to_bits() == other.epsilon.to_bits()
            && self.summary == other.summary
            && self.stream_len == other.stream_len
            && self.seed == other.seed
    }
}

impl ParallelFrequencyEstimator {
    /// Creates an estimator with error parameter `ε ∈ (0, 1)`.
    ///
    /// # Panics
    /// Panics if `epsilon` is not in `(0, 1)`.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0, 1)");
        let capacity = (1.0 / epsilon).ceil() as usize;
        Self {
            epsilon,
            summary: MgSummary::new(capacity),
            stream_len: 0,
            seed: 0x5eed_c0de,
            meter: None,
        }
    }

    /// Rebuilds an estimator from previously published `(item, estimate)`
    /// pairs and the stream length they covered — the reseed path a
    /// supervisor uses after a worker panic, starting from the shard's
    /// last published snapshot. Snapshot estimates are one-sided
    /// (`f̂ₑ ∈ [fₑ − εm, fₑ]`), so the rebuilt estimator keeps the
    /// Theorem 5.2 guarantee for the `stream_len` elements it claims to
    /// cover. This deliberately bypasses [`Self::process_histogram`],
    /// whose contract (histogram counts sum to the declared item count)
    /// does not hold for summary entries.
    ///
    /// # Panics
    /// Panics if `epsilon` is not in `(0, 1)` or there are more non-zero
    /// entries than the summary capacity `⌈1/ε⌉`.
    pub fn from_entries(epsilon: f64, entries: &[(u64, u64)], stream_len: u64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0, 1)");
        let capacity = (1.0 / epsilon).ceil() as usize;
        Self {
            epsilon,
            summary: MgSummary::from_entries(capacity, entries),
            stream_len,
            seed: 0x5eed_c0de,
            meter: None,
        }
    }

    /// Attaches a [`WorkMeter`] that is charged `O(µ + S)` units per
    /// minibatch, used by the work-optimality experiment (E8).
    pub fn with_meter(mut self, meter: WorkMeter) -> Self {
        self.meter = Some(meter);
        self
    }

    /// The error parameter ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The summary capacity `S = ⌈1/ε⌉`.
    pub fn capacity(&self) -> usize {
        self.summary.capacity()
    }

    /// Number of counters currently stored (`≤ S`).
    pub fn num_counters(&self) -> usize {
        self.summary.len()
    }

    /// Total number of elements processed so far (`m`).
    pub fn stream_len(&self) -> u64 {
        self.stream_len
    }

    /// Incorporates one minibatch of item identifiers.
    pub fn process_minibatch(&mut self, minibatch: &[u64]) {
        if minibatch.is_empty() {
            return;
        }
        self.seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(1);
        let hist = build_hist(minibatch, self.seed);
        if let Some(meter) = &self.meter {
            // buildHist is Θ(µ); MGaugment is Θ(S + p) with p ≤ µ.
            meter.charge(
                minibatch.len() as u64 + self.summary.capacity() as u64 + hist.len() as u64,
            );
        }
        self.summary.augment(&hist);
        self.stream_len += minibatch.len() as u64;
    }

    /// Incorporates one minibatch given its precomputed frequency
    /// histogram (`items` = the minibatch length, i.e. the sum of the
    /// histogram counts). Skips the `buildHist` pass, so a caller feeding
    /// the *same* minibatch into several summaries — the engine's shard
    /// workers update the infinite-window tracker and the sliding-window
    /// pane from one histogram — pays for it once. The estimator state
    /// after this call is identical to [`Self::process_minibatch`] on the
    /// originating minibatch (the histogram's entry order is irrelevant to
    /// `MGaugment`), except that the internal histogram seed is not
    /// advanced — the caller owns histogram construction.
    ///
    /// Returns the `MGaugment` cut-off `ϕ` that was applied: `0` means no
    /// counter was decremented — in particular, no tracked item can have
    /// been evicted.
    pub fn process_histogram(&mut self, histogram: &[HistogramEntry], items: u64) -> u64 {
        debug_assert_eq!(
            histogram.iter().map(|e| e.count).sum::<u64>(),
            items,
            "histogram does not cover the declared item count"
        );
        if items == 0 {
            return 0;
        }
        if let Some(meter) = &self.meter {
            meter.charge(self.summary.capacity() as u64 + histogram.len() as u64);
        }
        let cutoff = self.summary.augment(histogram);
        self.stream_len += items;
        cutoff
    }

    /// Returns the estimate `f̂ₑ ∈ [fₑ − εm, fₑ]` for `item`.
    pub fn estimate(&self, item: u64) -> u64 {
        self.summary.estimate(item)
    }

    /// Merges another estimator over a *disjoint or concatenated* stream
    /// into this one (mergeable-summaries semantics; see
    /// [`crate::MgSummary::merge`]).
    ///
    /// After merging, `self` estimates frequencies of the combined stream of
    /// `m = m₁ + m₂` elements with the same one-sided guarantee
    /// `f̂ₑ ∈ [fₑ − εm, fₑ]`.
    ///
    /// # Panics
    /// Panics if the two estimators were built with different `ε` (their
    /// summaries would have incompatible capacities).
    pub fn merge(&mut self, other: &ParallelFrequencyEstimator) {
        assert!(
            self.summary.capacity() == other.summary.capacity(),
            "merge requires estimators with matching epsilon/capacity"
        );
        self.summary.merge(&other.summary);
        self.stream_len += other.stream_len;
    }

    /// All tracked `(item, estimate)` pairs in unspecified order.
    pub fn tracked_items(&self) -> Vec<(u64, u64)> {
        self.summary.entries()
    }

    /// All tracked `(item, estimate)` pairs, ascending by item — the layout
    /// snapshot publication wants: point queries binary-search it and
    /// cross-shard merges run as sorted merges ([`crate::merge_sum`]).
    pub fn tracked_items_sorted(&self) -> Vec<(u64, u64)> {
        self.summary.entries_sorted()
    }

    /// Canonical binary encoding, appended to `w`. The histogram seed is
    /// included, so a decoded estimator continues the stream exactly as the
    /// original would have (attached [`WorkMeter`]s are not persisted).
    pub fn encode_into(&self, w: &mut ByteWriter) {
        put_header(w, TAG, VERSION);
        w.put_f64(self.epsilon);
        w.put_u64(self.stream_len);
        w.put_u64(self.seed);
        self.summary.encode_into(w);
    }

    /// Canonical binary encoding as an owned buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Decodes an estimator previously written by
    /// [`ParallelFrequencyEstimator::encode_into`] (never panics on
    /// corrupted input).
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.expect_header(TAG, VERSION)?;
        let epsilon = r.get_f64()?;
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(CodecError::Invalid(
                "frequency estimator: epsilon not in (0, 1)",
            ));
        }
        let stream_len = r.get_u64()?;
        let seed = r.get_u64()?;
        let summary = MgSummary::decode_from(r)?;
        if summary.capacity() != (1.0 / epsilon).ceil() as usize {
            return Err(CodecError::Invalid(
                "frequency estimator: summary capacity inconsistent with epsilon",
            ));
        }
        Ok(Self {
            epsilon,
            summary,
            stream_len,
            seed,
            meter: None,
        })
    }

    /// Decodes an estimator from a standalone buffer produced by
    /// [`ParallelFrequencyEstimator::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        let out = Self::decode_from(&mut r)?;
        r.expect_end()?;
        Ok(out)
    }

    /// Reports every item whose estimate certifies it *may* be a φ-heavy
    /// hitter: all items with `f̂ₑ ≥ (φ − ε)·m` are returned. By the standard
    /// reduction (Section 5 intro) this output contains every item with
    /// `fₑ ≥ φm` and no item with `fₑ < (φ − ε)·m`.
    pub fn heavy_hitters(&self, phi: f64) -> Vec<(u64, u64)> {
        let threshold = ((phi - self.epsilon) * self.stream_len as f64).max(0.0);
        let mut out: Vec<(u64, u64)> = self
            .summary
            .entries()
            .into_iter()
            .filter(|&(_, est)| est as f64 >= threshold)
            .collect();
        out.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

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

    /// Drives the estimator over a stream and checks the Theorem 5.2 bound
    /// after every minibatch.
    fn drive(epsilon: f64, batches: usize, mu: usize, universe: u64, skew: bool, seed: u64) {
        let mut est = ParallelFrequencyEstimator::new(epsilon);
        let mut rng = Lcg(seed);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut m = 0u64;
        for _ in 0..batches {
            let batch: Vec<u64> = (0..mu)
                .map(|_| {
                    let r = rng.next();
                    if skew && !r.is_multiple_of(3) {
                        r % 8 // heavy items
                    } else {
                        r % universe
                    }
                })
                .collect();
            for &x in &batch {
                *truth.entry(x).or_insert(0) += 1;
            }
            m += batch.len() as u64;
            est.process_minibatch(&batch);
            let allowed = (epsilon * m as f64).ceil() as u64;
            for (&item, &f) in &truth {
                let fh = est.estimate(item);
                assert!(fh <= f, "estimate {fh} above true frequency {f}");
                assert!(
                    fh + allowed >= f,
                    "estimate {fh} under {f} by more than εm = {allowed}"
                );
            }
        }
        assert_eq!(est.stream_len(), m);
        assert!(est.num_counters() <= est.capacity());
    }

    #[test]
    fn theorem_5_2_uniform_stream() {
        drive(0.05, 20, 500, 1000, false, 1);
    }

    #[test]
    fn theorem_5_2_skewed_stream() {
        drive(0.02, 20, 800, 10_000, true, 2);
    }

    #[test]
    fn theorem_5_2_coarse_epsilon() {
        drive(0.25, 30, 200, 50, true, 3);
    }

    #[test]
    fn heavy_hitters_no_false_negatives_and_no_bad_items() {
        let epsilon = 0.01;
        let phi = 0.05;
        let mut est = ParallelFrequencyEstimator::new(epsilon);
        let mut rng = Lcg(7);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for _ in 0..40 {
            let batch: Vec<u64> = (0..1000)
                .map(|_| {
                    let r = rng.next();
                    if r.is_multiple_of(2) {
                        r % 5 // five genuinely heavy items
                    } else {
                        5 + r % 5000
                    }
                })
                .collect();
            for &x in &batch {
                *truth.entry(x).or_insert(0) += 1;
            }
            est.process_minibatch(&batch);
        }
        let m: u64 = truth.values().sum();
        let reported: Vec<u64> = est.heavy_hitters(phi).into_iter().map(|(i, _)| i).collect();
        // Every item with f >= φm must be reported.
        for (&item, &f) in &truth {
            if f as f64 >= phi * m as f64 {
                assert!(
                    reported.contains(&item),
                    "missed heavy hitter {item} (f = {f})"
                );
            }
        }
        // No reported item may have f < (φ - ε)m.
        for &item in &reported {
            let f = truth.get(&item).copied().unwrap_or(0) as f64;
            assert!(
                f >= (phi - epsilon) * m as f64,
                "reported item {item} with frequency {f} below (φ−ε)m"
            );
        }
    }

    #[test]
    fn empty_minibatch_is_noop() {
        let mut est = ParallelFrequencyEstimator::new(0.1);
        est.process_minibatch(&[]);
        assert_eq!(est.stream_len(), 0);
        assert_eq!(est.num_counters(), 0);
    }

    #[test]
    fn single_item_stream_is_tracked_exactly() {
        let mut est = ParallelFrequencyEstimator::new(0.1);
        for _ in 0..10 {
            est.process_minibatch(&vec![42u64; 100]);
        }
        assert_eq!(est.estimate(42), 1000);
    }

    #[test]
    fn meter_charges_linear_work() {
        let meter = WorkMeter::new();
        let mut est = ParallelFrequencyEstimator::new(0.1).with_meter(meter.clone());
        let batch: Vec<u64> = (0..1000u64).map(|i| i % 17).collect();
        for _ in 0..5 {
            est.process_minibatch(&batch);
        }
        let per_batch = meter.total() as f64 / 5.0;
        // Work per minibatch should be Θ(µ + S): between µ and a small
        // constant multiple of µ + S.
        let mu = 1000.0;
        let s = est.capacity() as f64;
        assert!(per_batch >= mu);
        assert!(per_batch <= 4.0 * (mu + s));
    }

    #[test]
    fn varying_minibatch_sizes() {
        let mut est = ParallelFrequencyEstimator::new(0.05);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut rng = Lcg(99);
        let mut m = 0u64;
        for size in [1usize, 3, 17, 256, 4097, 10] {
            let batch: Vec<u64> = (0..size).map(|_| rng.next() % 100).collect();
            for &x in &batch {
                *truth.entry(x).or_insert(0) += 1;
            }
            m += size as u64;
            est.process_minibatch(&batch);
        }
        let allowed = (0.05 * m as f64).ceil() as u64;
        for (&item, &f) in &truth {
            let fh = est.estimate(item);
            assert!(fh <= f && fh + allowed >= f);
        }
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn invalid_epsilon_rejected() {
        let _ = ParallelFrequencyEstimator::new(0.0);
    }

    #[test]
    fn merged_estimators_cover_the_combined_stream() {
        let epsilon = 0.05;
        let mut rng = Lcg(41);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut parts = Vec::new();
        for _ in 0..3 {
            let mut est = ParallelFrequencyEstimator::new(epsilon);
            for _ in 0..10 {
                let batch: Vec<u64> = (0..400).map(|_| rng.next() % 50).collect();
                for &x in &batch {
                    *truth.entry(x).or_insert(0) += 1;
                }
                est.process_minibatch(&batch);
            }
            parts.push(est);
        }
        let mut merged = parts.swap_remove(0);
        for part in &parts {
            merged.merge(part);
        }
        let m: u64 = truth.values().sum();
        assert_eq!(merged.stream_len(), m);
        let allowed = (epsilon * m as f64).ceil() as u64;
        for (&item, &f) in &truth {
            let fh = merged.estimate(item);
            assert!(fh <= f, "merged estimate {fh} above true frequency {f}");
            assert!(
                fh + allowed >= f,
                "merged estimate {fh} under {f} by more than εm"
            );
        }
    }

    #[test]
    #[should_panic(expected = "matching epsilon")]
    fn merge_rejects_mismatched_epsilon() {
        let mut a = ParallelFrequencyEstimator::new(0.1);
        let b = ParallelFrequencyEstimator::new(0.01);
        a.merge(&b);
    }
}
