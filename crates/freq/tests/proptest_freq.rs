//! Property-based tests for the frequency estimators: the Theorem 5.2 /
//! Theorem 5.4 accuracy invariants must hold on arbitrary streams, minibatch
//! boundaries and parameters.

use proptest::prelude::*;
use std::collections::HashMap;

use psfa_freq::{
    MgSummary, ParallelFrequencyEstimator, SlidingFreqSpaceEfficient, SlidingFreqWorkEfficient,
    SlidingFrequencyEstimator,
};
use psfa_primitives::{phi_cutoff, HistogramEntry};

fn window_counts(history: &[u64], n: u64) -> HashMap<u64, u64> {
    let start = history.len().saturating_sub(n as usize);
    let mut counts = HashMap::new();
    for &x in &history[start..] {
        *counts.entry(x).or_insert(0u64) += 1;
    }
    counts
}

/// `MGaugment` as Lemma 5.3 states it — materialise the combined counters,
/// select `ϕ`, subtract and retain — the reference [`MgSummary::augment`]
/// must equal exactly.
fn reference_augment(
    counters: &mut HashMap<u64, u64>,
    capacity: usize,
    histogram: &[HistogramEntry],
) -> u64 {
    for e in histogram {
        *counters.entry(e.item).or_insert(0) += e.count;
    }
    let values: Vec<u64> = counters.values().copied().collect();
    let phi = phi_cutoff(&values, capacity);
    counters.retain(|_, count| {
        *count = count.saturating_sub(phi);
        *count > 0
    });
    phi
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The probe-only `augment` returns the same `ϕ` and leaves the same
    /// entries as the reference after every batch: empty batches (`p = 0`),
    /// batches far wider than the summary (`p ≫ S`), ties at `ϕ` (counts
    /// from a range of 1..4) and keys already tracked (a small universe)
    /// all included. Up to all of a batch's counts are 1 (`singleton_quarters`
    /// of 4), so a batch wider than `S` reaches both the selection over the
    /// values above 1 and the `ϕ = 1` cut; up to two thirds are 0, so the
    /// width can overstate the positive entries and `ϕ = 0` hold regardless.
    #[test]
    fn augment_equals_materialise_select_retain(
        batches in prop::collection::vec(
            prop::collection::vec((0u64..300, 0u64..480), 0..250),
            1..12,
        ),
        capacity in 1usize..24,
        universe in 8u64..300,
        count_range in 1u64..40,
        singleton_quarters in 0u64..5,
        zero_thirds in 0u64..3,
    ) {
        let mut summary = MgSummary::new(capacity);
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for batch in &batches {
            // One entry per item, as `buildHist` guarantees.
            let mut seen = std::collections::HashSet::new();
            let histogram: Vec<HistogramEntry> = batch
                .iter()
                .map(|&(item, raw)| HistogramEntry {
                    item: item % universe,
                    count: if raw % 3 < zero_thirds {
                        0
                    } else if (raw / 3) % 4 < singleton_quarters {
                        1
                    } else {
                        1 + (raw / 12) % count_range
                    },
                })
                .filter(|e| seen.insert(e.item))
                .collect();
            let phi = summary.augment(&histogram);
            prop_assert_eq!(phi, reference_augment(&mut reference, capacity, &histogram));
            let mut expected: Vec<(u64, u64)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
            expected.sort_unstable();
            prop_assert_eq!(summary.entries_sorted(), expected);
            prop_assert!(summary.len() <= capacity);
        }
    }

    /// Theorem 5.2: the infinite-window estimate is within [f − εm, f] for
    /// every item, regardless of how the stream is cut into minibatches.
    #[test]
    fn infinite_window_invariant(
        stream in prop::collection::vec(0u64..64, 1..4000),
        eps_percent in 2u32..40,
        chunk in 1usize..700,
    ) {
        let epsilon = eps_percent as f64 / 100.0;
        let mut est = ParallelFrequencyEstimator::new(epsilon);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut m = 0u64;
        for piece in stream.chunks(chunk) {
            est.process_minibatch(piece);
            for &x in piece {
                *truth.entry(x).or_insert(0) += 1;
            }
            m += piece.len() as u64;
            let slack = (epsilon * m as f64).floor() as u64 + 1;
            for (&item, &f) in &truth {
                let fh = est.estimate(item);
                prop_assert!(fh <= f);
                prop_assert!(fh + slack >= f);
            }
        }
        prop_assert!(est.num_counters() <= est.capacity());
    }

    /// Theorems 5.5/5.8/5.4 share the guarantee f − εn ≤ f̂ ≤ f; check the
    /// space- and work-efficient variants (which also must agree with each
    /// other exactly) on arbitrary streams.
    #[test]
    fn sliding_window_invariant(
        stream in prop::collection::vec(0u64..32, 1..3000),
        window_log in 8u32..11,
        chunk in 1usize..500,
    ) {
        let epsilon = 0.1;
        let n = 1u64 << window_log;
        let mut space = SlidingFreqSpaceEfficient::new(epsilon, n);
        let mut work = SlidingFreqWorkEfficient::new(epsilon, n);
        let mut history: Vec<u64> = Vec::new();
        for piece in stream.chunks(chunk) {
            space.process_minibatch(piece);
            work.process_minibatch(piece);
            history.extend_from_slice(piece);
            let truth = window_counts(&history, n);
            let slack = (epsilon * n as f64).ceil() as u64;
            for (&item, &f) in &truth {
                for est in [space.estimate(item), work.estimate(item)] {
                    prop_assert!(est <= f, "estimate {est} > true {f}");
                    prop_assert!(est + slack >= f, "estimate {est} + {slack} < true {f}");
                }
            }
            prop_assert!(space.num_counters() <= space.capacity());
            prop_assert!(work.num_counters() <= work.capacity());
            let mut a = space.tracked_items();
            let mut b = work.tracked_items();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b, "Algorithm 2 and the work-efficient variant diverged");
        }
    }
}
