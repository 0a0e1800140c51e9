//! φ-heavy-hitter tracking over the frequency estimators.
//!
//! The paper reduces heavy-hitter identification to frequency estimation
//! (Section 5, first paragraph): report every item whose estimate is at
//! least `(φ − ε)·N`. This module packages that reduction for both the
//! infinite-window estimator (Theorem 5.2) and any sliding-window estimator
//! implementing [`SlidingFrequencyEstimator`].

use psfa_primitives::codec::{put_header, ByteReader, ByteWriter, CodecError};

use crate::infinite::ParallelFrequencyEstimator;
use crate::SlidingFrequencyEstimator;

/// Type tag for encoded heavy-hitter trackers (see `psfa_primitives::codec`).
const TAG: u8 = 0x05;
const VERSION: u8 = 1;

/// One reported heavy hitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeavyHitter {
    /// The item identifier.
    pub item: u64,
    /// Its (under-)estimated frequency.
    pub estimate: u64,
}

/// The φ-heavy-hitter report of the Section 5 reduction over the
/// `(item, estimate)` pairs of a summary of `n` items: every pair whose
/// estimate reaches `(φ − ε)·n`, most frequent first, ties by item. With
/// one-sided estimates `f − ε·n ≤ f̂ ≤ f`, every item with `f ≥ φn` is
/// reported and no item with `f < (φ − ε)·n` is.
pub fn heavy_hitter_report(
    entries: impl IntoIterator<Item = (u64, u64)>,
    phi: f64,
    epsilon: f64,
    n: u64,
) -> Vec<HeavyHitter> {
    let threshold = ((phi - epsilon) * n as f64).max(0.0);
    let mut out: Vec<HeavyHitter> = entries
        .into_iter()
        .filter(|&(_, est)| est as f64 >= threshold)
        .map(|(item, estimate)| HeavyHitter { item, estimate })
        .collect();
    out.sort_unstable_by(|a, b| b.estimate.cmp(&a.estimate).then(a.item.cmp(&b.item)));
    out
}

/// [`heavy_hitter_report`] over the key-wise sums of several shards'
/// item-sorted `(item, estimate)` entries — `n` items in all — without
/// merging them: identical to `heavy_hitter_report` over the
/// [`crate::merge_sum`] of every shard.
///
/// A key whose sum reaches the threshold `(φ − ε)·n` holds at least
/// `1/shards` of it on some shard, so only keys with `estimate · shards`
/// at the threshold on some shard are candidates. Each candidate is summed
/// by one binary search per shard: `O(c · shards · log S)` for `c`
/// candidates, against a merge's `O(shards² · S)` rows copied.
pub fn heavy_hitter_report_across<E: AsRef<[(u64, u64)]>>(
    shards: &[E],
    phi: f64,
    epsilon: f64,
    n: u64,
) -> Vec<HeavyHitter> {
    let threshold = ((phi - epsilon) * n as f64).max(0.0);
    let fan_in = shards.len() as u64;
    // Integer product, then one rounding: `sum ≤ fan_in · max estimate`
    // holds exactly, and rounding to `f64` keeps the order.
    let mut candidates: Vec<u64> = shards
        .iter()
        .flat_map(|entries| entries.as_ref())
        .filter(|&&(_, est)| est.saturating_mul(fan_in) as f64 >= threshold)
        .map(|&(item, _)| item)
        .collect();
    candidates.sort_unstable();
    candidates.dedup();
    let summed = candidates.into_iter().map(|item| {
        let estimate = shards
            .iter()
            .map(|entries| {
                let entries = entries.as_ref();
                entries
                    .binary_search_by_key(&item, |&(i, _)| i)
                    .map_or(0, |at| entries[at].1)
            })
            .sum();
        (item, estimate)
    });
    heavy_hitter_report(summed, phi, epsilon, n)
}

/// Continuous φ-heavy-hitter tracking over an infinite window.
///
/// Guarantees (for `0 < ε < φ < 1`): every item with frequency `≥ φN` is
/// reported, and no item with frequency `≤ (φ − ε)N` is reported.
#[derive(Debug, Clone, PartialEq)]
pub struct InfiniteHeavyHitters {
    phi: f64,
    estimator: ParallelFrequencyEstimator,
}

impl InfiniteHeavyHitters {
    /// Creates a tracker for threshold `φ` and error `ε < φ`.
    ///
    /// # Panics
    /// Panics unless `0 < ε < φ < 1`.
    pub fn new(phi: f64, epsilon: f64) -> Self {
        assert!(phi > 0.0 && phi < 1.0, "phi must be in (0, 1)");
        assert!(
            epsilon > 0.0 && epsilon < phi,
            "epsilon must be in (0, phi)"
        );
        Self {
            phi,
            estimator: ParallelFrequencyEstimator::new(epsilon),
        }
    }

    /// Rebuilds a tracker from previously published `(item, estimate)`
    /// pairs and the stream length they covered (see
    /// [`ParallelFrequencyEstimator::from_entries`]) — the supervisor's
    /// reseed path after a worker panic. One-sided entries in, one-sided
    /// tracker out.
    ///
    /// # Panics
    /// Panics unless `0 < ε < φ < 1`, or if there are more non-zero
    /// entries than the summary capacity `⌈1/ε⌉`.
    pub fn from_entries(phi: f64, epsilon: f64, entries: &[(u64, u64)], stream_len: u64) -> Self {
        assert!(phi > 0.0 && phi < 1.0, "phi must be in (0, 1)");
        assert!(
            epsilon > 0.0 && epsilon < phi,
            "epsilon must be in (0, phi)"
        );
        Self {
            phi,
            estimator: ParallelFrequencyEstimator::from_entries(epsilon, entries, stream_len),
        }
    }

    /// The heavy-hitter threshold φ.
    pub fn phi(&self) -> f64 {
        self.phi
    }

    /// Access to the underlying frequency estimator.
    pub fn estimator(&self) -> &ParallelFrequencyEstimator {
        &self.estimator
    }

    /// Attaches a [`psfa_primitives::WorkMeter`] to the underlying
    /// estimator, which charges it with the dominant operations of every
    /// processed histogram (see
    /// [`ParallelFrequencyEstimator::with_meter`]). Meters are not
    /// persisted: a decoded tracker starts unmetered.
    pub fn with_meter(mut self, meter: psfa_primitives::WorkMeter) -> Self {
        self.estimator = self.estimator.with_meter(meter);
        self
    }

    /// Incorporates one minibatch.
    pub fn process_minibatch(&mut self, minibatch: &[u64]) {
        self.estimator.process_minibatch(minibatch);
    }

    /// Incorporates one minibatch given its precomputed histogram and
    /// returns the applied `MGaugment` cut-off (see
    /// [`ParallelFrequencyEstimator::process_histogram`]).
    pub fn process_histogram(
        &mut self,
        histogram: &[psfa_primitives::HistogramEntry],
        items: u64,
    ) -> u64 {
        self.estimator.process_histogram(histogram, items)
    }

    /// The current heavy hitters, most frequent first.
    pub fn query(&self) -> Vec<HeavyHitter> {
        self.estimator.heavy_hitters(self.phi)
    }

    /// Merges another tracker over a disjoint or concatenated stream into
    /// this one; the φ/ε guarantees then hold for the combined stream (see
    /// [`ParallelFrequencyEstimator::merge`]).
    ///
    /// # Panics
    /// Panics if the trackers' error parameters differ.
    pub fn merge(&mut self, other: &InfiniteHeavyHitters) {
        self.estimator.merge(&other.estimator);
    }

    /// Canonical binary encoding, appended to `w` (the per-shard record unit
    /// of `psfa-store`).
    pub fn encode_into(&self, w: &mut ByteWriter) {
        put_header(w, TAG, VERSION);
        w.put_f64(self.phi);
        self.estimator.encode_into(w);
    }

    /// Canonical binary encoding as an owned buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Decodes a tracker previously written by
    /// [`InfiniteHeavyHitters::encode_into`] (never panics on corrupted
    /// input).
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.expect_header(TAG, VERSION)?;
        let phi = r.get_f64()?;
        if !(phi > 0.0 && phi < 1.0) {
            return Err(CodecError::Invalid("heavy hitters: phi not in (0, 1)"));
        }
        let estimator = ParallelFrequencyEstimator::decode_from(r)?;
        if estimator.epsilon() >= phi {
            return Err(CodecError::Invalid(
                "heavy hitters: epsilon must be below phi",
            ));
        }
        Ok(Self { phi, estimator })
    }

    /// Decodes a tracker from a standalone buffer produced by
    /// [`InfiniteHeavyHitters::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        let out = Self::decode_from(&mut r)?;
        r.expect_end()?;
        Ok(out)
    }
}

/// Continuous φ-heavy-hitter tracking over a sliding window, generic over the
/// estimator variant (basic, space-efficient, or work-efficient).
#[derive(Debug, Clone)]
pub struct SlidingHeavyHitters<E> {
    phi: f64,
    estimator: E,
}

impl<E: SlidingFrequencyEstimator> SlidingHeavyHitters<E> {
    /// Wraps a sliding-window estimator with threshold `φ > ε`.
    ///
    /// # Panics
    /// Panics unless `estimator.epsilon() < φ < 1`.
    pub fn new(phi: f64, estimator: E) -> Self {
        assert!(
            phi > estimator.epsilon() && phi < 1.0,
            "phi must be in (epsilon, 1)"
        );
        Self { phi, estimator }
    }

    /// The heavy-hitter threshold φ.
    pub fn phi(&self) -> f64 {
        self.phi
    }

    /// Access to the wrapped estimator.
    pub fn estimator(&self) -> &E {
        &self.estimator
    }

    /// Incorporates one minibatch.
    pub fn process_minibatch(&mut self, minibatch: &[u64]) {
        self.estimator.process_minibatch(minibatch);
    }

    /// Reports every item whose estimate is at least `(φ − ε)·n`, most
    /// frequent first: all items with window frequency `≥ φn` are included
    /// and no item with window frequency `< (φ − ε)n` appears.
    pub fn query(&self) -> Vec<HeavyHitter> {
        heavy_hitter_report(
            self.estimator.tracked_items(),
            self.phi,
            self.estimator.epsilon(),
            self.estimator.window(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sliding_work::SlidingFreqWorkEfficient;
    use crate::test_support::SlidingDriver;
    use std::collections::HashMap;

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The merge-free cross-shard report equals the report over the
        /// merged entries: 1–8 shards of item-sorted entries over a small
        /// key space (so keys repeat across shards), empty shards, `n = 0`,
        /// and thresholds drawn from the entries' own sums so that some
        /// land exactly on one.
        #[test]
        fn report_across_shards_equals_the_merged_report(
            raw in proptest::prop::collection::vec(
                proptest::prop::collection::vec((0u64..40, 0u64..50), 0..30),
                1..9,
            ),
            phi_pick in 0usize..64,
            n_pick in 0u64..4,
        ) {
            let shards: Vec<Vec<(u64, u64)>> = raw
                .iter()
                .map(|entries| {
                    let mut sorted: Vec<(u64, u64)> = entries.clone();
                    sorted.sort_unstable_by_key(|&(item, _)| item);
                    sorted.dedup_by_key(|&mut (item, _)| item);
                    sorted
                })
                .collect();
            let merged = shards
                .iter()
                .fold(Vec::new(), |acc, entries| crate::merge_sum(&acc, entries));
            // n = 0 or a power of two, and ε = 0 with φ = sum / n for a
            // sum of the merged entries: the threshold is that sum exactly.
            let n = if n_pick == 0 { 0 } else { 1 << (6 + n_pick) };
            let sums: Vec<u64> = merged.iter().map(|&(_, est)| est).collect();
            let (phi, epsilon) = match sums.get(phi_pick % sums.len().max(1)) {
                Some(&sum) if n > 0 && phi_pick < 48 => (sum as f64 / n as f64, 0.0),
                _ => (0.1 + phi_pick as f64 / 100.0, 0.05),
            };
            let across = heavy_hitter_report_across(&shards, phi, epsilon, n);
            proptest::prop_assert_eq!(
                across,
                heavy_hitter_report(merged.iter().copied(), phi, epsilon, n)
            );
        }
    }

    #[test]
    fn infinite_window_heavy_hitters_are_correct() {
        let mut hh = InfiniteHeavyHitters::new(0.1, 0.02);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut driver = SlidingDriver::new(31);
        for _ in 0..30 {
            let batch = driver.skewed_batch(500, 4, 5000);
            for &x in &batch {
                *truth.entry(x).or_insert(0) += 1;
            }
            hh.process_minibatch(&batch);
        }
        let n: u64 = truth.values().sum();
        let reported: Vec<u64> = hh.query().into_iter().map(|h| h.item).collect();
        for (&item, &f) in &truth {
            if f as f64 >= 0.1 * n as f64 {
                assert!(reported.contains(&item), "missed heavy hitter {item}");
            }
            if (f as f64) < (0.1 - 0.02) * n as f64 {
                assert!(!reported.contains(&item), "false positive {item}");
            }
        }
    }

    #[test]
    fn sliding_window_heavy_hitters_are_correct() {
        let n = 4000u64;
        let phi = 0.1;
        let epsilon = 0.02;
        let mut hh = SlidingHeavyHitters::new(phi, SlidingFreqWorkEfficient::new(epsilon, n));
        let mut driver = SlidingDriver::new(32);
        for _ in 0..25 {
            let batch = driver.skewed_batch(400, 4, 5000);
            hh.process_minibatch(&batch);
        }
        let truth = driver.window_counts(n);
        let window_len: u64 = truth.values().sum::<u64>().min(n);
        let reported: Vec<u64> = hh.query().into_iter().map(|h| h.item).collect();
        for (&item, &f) in &truth {
            if f as f64 >= phi * window_len as f64 {
                assert!(
                    reported.contains(&item),
                    "missed sliding heavy hitter {item} (f={f})"
                );
            }
            if (f as f64) < (phi - epsilon) * window_len as f64 - epsilon * n as f64 {
                assert!(!reported.contains(&item), "false positive {item} (f={f})");
            }
        }
    }

    #[test]
    fn results_are_sorted_by_estimate() {
        let mut hh = InfiniteHeavyHitters::new(0.2, 0.05);
        hh.process_minibatch(&[1, 1, 1, 1, 2, 2, 2, 3, 3, 4]);
        let out = hh.query();
        for w in out.windows(2) {
            assert!(w[0].estimate >= w[1].estimate);
        }
    }

    #[test]
    #[should_panic(expected = "phi")]
    fn epsilon_must_be_below_phi() {
        let _ = InfiniteHeavyHitters::new(0.05, 0.1);
    }
}
