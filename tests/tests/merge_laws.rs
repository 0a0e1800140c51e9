//! Algebraic laws of the mergeable query surfaces: cross-shard queries (and
//! the skew-aware router's replicated keys) rely on summaries combining the
//! same way regardless of which shard is merged first.
//!
//! * `AtomicCountMin::merge` is counter-wise addition, so it must be
//!   **exactly** commutative and associative: any merge order of per-shard
//!   sketches yields identical counters.
//! * `MgSummary::merge` applies a cut-off after adding counters, so
//!   different merge *trees* may produce different counters — but merging
//!   the same two summaries in either direction is exact (the combined
//!   counter map is the same multiset), and **every** merge order must
//!   satisfy the combined one-sided bound `f − m/S ≤ f̂ ≤ f` over the
//!   concatenated stream (the Agarwal et al. mergeable-summaries guarantee
//!   behind `EngineReport::merged_estimator`).

use proptest::prelude::*;
use std::collections::HashMap;

use psfa::prelude::*;
use psfa::primitives::HistogramEntry;

/// Exact histogram of a stream, as `MgSummary::augment` input.
fn hist_of(stream: &[u64]) -> Vec<HistogramEntry> {
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for &x in stream {
        *counts.entry(x).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .map(|(item, count)| HistogramEntry { item, count })
        .collect()
}

fn mg_summary_of(stream: &[u64], capacity: usize) -> MgSummary {
    let mut summary = MgSummary::new(capacity);
    for chunk in stream.chunks(97) {
        summary.augment(&hist_of(chunk));
    }
    summary
}

fn cm_sketch_of(stream: &[u64], seed: u64) -> AtomicCountMin {
    let mut sketch = AtomicCountMin::new(0.02, 0.1, seed);
    for &x in stream {
        sketch.update(x, 1);
    }
    sketch
}

fn exact_counts(streams: &[&[u64]]) -> (HashMap<u64, u64>, u64) {
    let mut truth: HashMap<u64, u64> = HashMap::new();
    let mut m = 0u64;
    for stream in streams {
        for &x in *stream {
            *truth.entry(x).or_insert(0) += 1;
        }
        m += stream.len() as u64;
    }
    (truth, m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Merging two MG summaries is direction-independent: `a ∪ b` and
    /// `b ∪ a` combine the same counter multiset and apply the same cut-off,
    /// so every estimate agrees exactly.
    #[test]
    fn mg_merge_is_commutative(
        a_stream in prop::collection::vec(0u64..48, 0..1500),
        b_stream in prop::collection::vec(0u64..48, 0..1500),
        capacity in 2usize..24,
    ) {
        let a = mg_summary_of(&a_stream, capacity);
        let b = mg_summary_of(&b_stream, capacity);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        for item in 0..48u64 {
            prop_assert_eq!(
                ab.estimate(item),
                ba.estimate(item),
                "merge direction changed the estimate of {}",
                item
            );
        }
        prop_assert!(ab.len() <= capacity);
    }

    /// Any merge order of three per-shard MG summaries estimates the
    /// concatenated stream within the combined bound `m/S`, and the orders
    /// agree with each other within twice that bound (each is one-sided).
    #[test]
    fn mg_merge_orders_all_satisfy_the_combined_bound(
        a_stream in prop::collection::vec(0u64..32, 1..1200),
        b_stream in prop::collection::vec(0u64..32, 1..1200),
        c_stream in prop::collection::vec(0u64..32, 1..1200),
        capacity in 3usize..16,
    ) {
        let (truth, m) = exact_counts(&[&a_stream, &b_stream, &c_stream]);
        let slack = m / capacity as u64 + 1;
        let summaries = [
            mg_summary_of(&a_stream, capacity),
            mg_summary_of(&b_stream, capacity),
            mg_summary_of(&c_stream, capacity),
        ];
        let orders: [[usize; 3]; 3] = [[0, 1, 2], [2, 0, 1], [1, 2, 0]];
        let mut merged_orders = Vec::new();
        for order in orders {
            let mut merged = summaries[order[0]].clone();
            merged.merge(&summaries[order[1]]);
            merged.merge(&summaries[order[2]]);
            for (&item, &f) in &truth {
                let est = merged.estimate(item);
                prop_assert!(est <= f, "order {:?}: estimate {} above truth {}", order, est, f);
                prop_assert!(
                    est + slack >= f,
                    "order {:?}: estimate {} under truth {} by more than m/S = {}",
                    order, est, f, slack
                );
            }
            prop_assert!(merged.len() <= capacity);
            merged_orders.push(merged);
        }
        // Pairwise agreement: two one-sided estimates within `slack` of the
        // same truth differ by at most `slack`.
        for &item in truth.keys() {
            for pair in merged_orders.windows(2) {
                prop_assert!(
                    pair[0].estimate(item).abs_diff(pair[1].estimate(item)) <= slack,
                    "merge orders diverged beyond the combined bound for {}",
                    item
                );
            }
        }
    }

    /// Count-Min merging is counter-wise addition: every merge order of
    /// three sketches yields byte-identical counters and totals.
    #[test]
    fn cm_merge_is_commutative_and_associative(
        a_stream in prop::collection::vec(0u64..1000, 0..800),
        b_stream in prop::collection::vec(0u64..1000, 0..800),
        c_stream in prop::collection::vec(0u64..1000, 0..800),
        seed in 0u64..1000,
    ) {
        let a = cm_sketch_of(&a_stream, seed);
        let b = cm_sketch_of(&b_stream, seed);
        let c = cm_sketch_of(&c_stream, seed);

        // ((a + b) + c)
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // ((c + b) + a)
        let mut right = c.clone();
        right.merge(&b);
        right.merge(&a);

        prop_assert_eq!(left.total(), right.total());
        prop_assert_eq!(&left, &right);

        // And the merged sketch never underestimates the combined stream.
        let (truth, _) = exact_counts(&[&a_stream, &b_stream, &c_stream]);
        for (&item, &f) in &truth {
            prop_assert!(left.query(item) >= f);
        }
    }
}
