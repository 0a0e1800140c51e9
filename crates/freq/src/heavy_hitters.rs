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
    let threshold = report_threshold(phi, epsilon, n);
    let mut out: Vec<HeavyHitter> = entries
        .into_iter()
        .filter(|&(_, est)| est as f64 >= threshold)
        .map(|(item, estimate)| HeavyHitter { item, estimate })
        .collect();
    sort_report(&mut out);
    out
}

/// Most frequent first, ties by item.
fn sort_report(report: &mut [HeavyHitter]) {
    report.sort_unstable_by(|a, b| b.estimate.cmp(&a.estimate).then(a.item.cmp(&b.item)));
}

/// The report threshold `(φ − ε)·n`, floored at zero.
fn report_threshold(phi: f64, epsilon: f64, n: u64) -> f64 {
    ((phi - epsilon) * n as f64).max(0.0)
}

/// The pigeonhole test: whether an entry of `estimate` on one of `fan_in`
/// summaries may belong to a key whose sum over all of them reaches
/// `threshold`. Integer product, then one rounding: `sum ≤ fan_in · max
/// estimate` holds exactly, and rounding to `f64` keeps the order.
fn may_reach(estimate: u64, fan_in: u64, threshold: f64) -> bool {
    estimate.saturating_mul(fan_in) as f64 >= threshold
}

/// The entries of one of `fan_in` summaries, over `n_s` items, that may
/// still be φ-heavy hitters of their union: the item-ascending
/// subsequence of the item-sorted `entries` with
/// `estimate · fan_in ≥ (φ − ε)·n_s`.
///
/// **A superset of the query's candidates.** [`heavy_hitter_report_across`]
/// keeps an entry when `estimate · fan_in ≥ (φ − ε)·n` over the union's
/// `n = Σ n_s ≥ n_s` items. Converting `n_s ≤ n` to `f64` keeps the order,
/// and so does multiplying by a non-negative `φ − ε` and rounding (both
/// thresholds are `0` otherwise), so the local threshold is at most the
/// global one: every entry the query keeps
/// is on this list. A shard can therefore filter at publication time, once
/// per snapshot, and the query only scans what survived.
pub fn heavy_hitter_candidates(
    entries: &[(u64, u64)],
    phi: f64,
    epsilon: f64,
    fan_in: u64,
    n_s: u64,
) -> Vec<(u64, u64)> {
    let threshold = report_threshold(phi, epsilon, n_s);
    entries
        .iter()
        .copied()
        .filter(|&(_, est)| may_reach(est, fan_in, threshold))
        .collect()
}

/// [`heavy_hitter_report`] over the key-wise sums of several summaries —
/// `n` items in all — without merging them: identical to
/// `heavy_hitter_report` over the [`crate::merge_sum`] of every summary,
/// given one candidate list per summary, in summary order (its entries, or
/// any subsequence of them that holds what [`heavy_hitter_candidates`]
/// keeps for it), a `home` that places each key, and a `sum` that returns
/// the summed estimate of a key `home` does not place.
///
/// `home(item) == Some(s)` says every occurrence of `item` is on summary
/// `s`, so its entry there *is* its sum and no other summary holds one;
/// `None` says its occurrences may be spread. `home` must give a key the
/// same answer for the whole call.
///
/// A key whose sum reaches the threshold `(φ − ε)·n` holds at least
/// `1/fan_in` of it on some summary, `fan_in` = the number of lists, so
/// only candidates with `estimate · fan_in` at the threshold can be
/// reported. A homed one is reported from its home's entry with no lookup;
/// only spread ones are collected, deduplicated and summed once each.
/// Cost: `O(Σ c_s + r log r + c'·k)` for `Σ c_s` candidate entries, `r`
/// reported keys and `c'` spread survivors under a `k`-step `sum`. The
/// answer is allocated once, and a scratch list only when a spread
/// survivor exists.
pub fn heavy_hitter_report_across<'a>(
    candidates: impl IntoIterator<Item = &'a [(u64, u64)], IntoIter: ExactSizeIterator + Clone>,
    mut home: impl FnMut(u64) -> Option<usize>,
    mut sum: impl FnMut(u64) -> u64,
    phi: f64,
    epsilon: f64,
    n: u64,
) -> Vec<HeavyHitter> {
    let threshold = report_threshold(phi, epsilon, n);
    let lists = candidates.into_iter();
    let fan_in = lists.len() as u64;
    // Every reported key has a candidate entry, so this never grows.
    let mut out = Vec::with_capacity(lists.clone().map(<[_]>::len).sum());
    let mut spread = Vec::new();
    for (summary, entries) in lists.enumerate() {
        for &(item, estimate) in entries {
            if !may_reach(estimate, fan_in, threshold) {
                continue;
            }
            match home(item) {
                Some(at) if at == summary && estimate as f64 >= threshold => {
                    out.push(HeavyHitter { item, estimate });
                }
                Some(_) => {}
                None => spread.push(item),
            }
        }
    }
    spread.sort_unstable();
    spread.dedup();
    out.extend(
        spread
            .into_iter()
            .map(|item| HeavyHitter {
                item,
                estimate: sum(item),
            })
            .filter(|hit| hit.estimate as f64 >= threshold),
    );
    sort_report(&mut out);
    out
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
        /// merged entries when each shard's candidates are filtered at its
        /// own stream length: 1–8 shards of item-sorted entries over a
        /// small key space, where a homed key has entries on its home
        /// shard only and a spread key may repeat across shards, empty
        /// shards, `n = 0`, uneven `n_s` (some zero), and thresholds that
        /// land exactly on a merged sum — `(φ − ε)·n` — or on `fan_in`
        /// times one shard's entry — `(φ − ε)·n / fan_in`.
        #[test]
        fn report_across_shards_equals_the_merged_report(
            raw in proptest::prop::collection::vec(
                (proptest::prop::collection::vec((0u64..40, 0u64..50), 0..30), 0u64..4),
                1..9,
            ),
            homes in proptest::prop::collection::vec(0usize..16, 40..41),
            phi_pick in 0usize..96,
            n_pick in 0u64..4,
        ) {
            let fan_in = raw.len() as u64;
            // Key `k`'s home shard, or `None` (about half the keys) when
            // it is spread.
            let home = |item: u64| {
                Some(homes[item as usize]).filter(|&h| h < 8).map(|h| h % raw.len())
            };
            let shards: Vec<Vec<(u64, u64)>> = raw
                .iter()
                .enumerate()
                .map(|(shard, (entries, _))| {
                    let mut sorted: Vec<(u64, u64)> = entries
                        .iter()
                        .copied()
                        .filter(|&(item, _)| home(item).is_none_or(|h| h == shard))
                        .collect();
                    sorted.sort_unstable_by_key(|&(item, _)| item);
                    sorted.dedup_by_key(|&mut (item, _)| item);
                    sorted
                })
                .collect();
            let merged = shards
                .iter()
                .fold(Vec::new(), |acc, entries| crate::merge_sum(&acc, entries));
            // n = 0 or a power of two, split over the shards by weight
            // (the remainder, or all of it when every weight is 0, on
            // shard 0).
            let n = if n_pick == 0 { 0 } else { 1 << (6 + n_pick) };
            let weight: u64 = raw.iter().map(|&(_, w)| w).sum();
            let mut n_s: Vec<u64> = raw
                .iter()
                .map(|&(_, w)| (n * w).checked_div(weight).unwrap_or(0))
                .collect();
            n_s[0] += n - n_s.iter().sum::<u64>();
            // With ε = 0 and φ = t / n the threshold is `t` exactly: a
            // merged sum, or fan_in times one shard's entry.
            let sums: Vec<u64> = merged.iter().map(|&(_, est)| est).collect();
            let parts: Vec<u64> = shards.iter().flatten().map(|&(_, est)| est * fan_in).collect();
            let exact = match phi_pick {
                0..=39 => sums.get(phi_pick % sums.len().max(1)),
                40..=79 => parts.get(phi_pick % parts.len().max(1)),
                _ => None,
            };
            let (phi, epsilon) = match exact {
                Some(&t) if n > 0 => (t as f64 / n as f64, 0.0),
                _ => (0.1 + (phi_pick % 64) as f64 / 100.0, 0.05),
            };
            let candidates: Vec<Vec<(u64, u64)>> = shards
                .iter()
                .zip(&n_s)
                .map(|(entries, &n_s)| heavy_hitter_candidates(entries, phi, epsilon, fan_in, n_s))
                .collect();
            for (entries, list) in shards.iter().zip(&candidates) {
                proptest::prop_assert!(list.iter().all(|entry| entries.contains(entry)));
                proptest::prop_assert!(list.windows(2).all(|w| w[0].0 < w[1].0));
            }
            let sum = |item: u64| -> u64 {
                shards
                    .iter()
                    .map(|entries| {
                        entries
                            .binary_search_by_key(&item, |&(i, _)| i)
                            .map_or(0, |at| entries[at].1)
                    })
                    .sum()
            };
            // A homed key is never summed: its home's entry is its sum.
            let sum = |item: u64| -> u64 {
                assert!(home(item).is_none(), "homed key {item} summed");
                sum(item)
            };
            proptest::prop_assert_eq!(
                heavy_hitter_report_across(
                    candidates.iter().map(Vec::as_slice),
                    home,
                    sum,
                    phi,
                    epsilon,
                    n
                ),
                heavy_hitter_report(merged.iter().copied(), phi, epsilon, n)
            );
        }
    }

    /// The publication-time filter runs at a shard's `n_s ≤ n`, so it must
    /// keep every entry the query-time test keeps at `n` — including the
    /// smallest estimate that passes after rounding, at stream lengths
    /// where `f64` no longer holds every integer.
    #[test]
    fn candidates_at_a_shorter_stream_keep_every_entry_the_global_test_keeps() {
        let lengths = [1u64, 7, 1_000, (1 << 53) + 1, (1 << 60) + 12_345, u64::MAX];
        for (phi, epsilon) in [(0.1, 0.01), (0.3, 0.1), (0.02, 0.004), (1.0 / 3.0, 0.001)] {
            for n in lengths {
                for fan_in in 1..=8u64 {
                    let threshold = report_threshold(phi, epsilon, n);
                    // The smallest estimate the global test keeps.
                    let mut est = (threshold / fan_in as f64) as u64;
                    while est > 0 && may_reach(est - 1, fan_in, threshold) {
                        est -= 1;
                    }
                    while !may_reach(est, fan_in, threshold) {
                        est += 1;
                    }
                    for n_s in [0, 1, n / 3, n / 2, n - 1, n] {
                        assert_eq!(
                            heavy_hitter_candidates(&[(9, est)], phi, epsilon, fan_in, n_s),
                            vec![(9, est)],
                            "φ {phi} ε {epsilon} n {n} n_s {n_s} fan_in {fan_in}"
                        );
                    }
                    if est > 0 {
                        let below = [(9, est - 1)];
                        assert!(heavy_hitter_candidates(&below, phi, epsilon, fan_in, n).is_empty());
                    }
                }
            }
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
