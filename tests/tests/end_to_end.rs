//! End-to-end integration tests: drive the public `psfa` API the way an
//! application would — generators feeding minibatches into several aggregates
//! at once — and check the paper's guarantees across crate boundaries.

use std::collections::HashMap;

use psfa::prelude::*;

/// Exact frequencies of the last `n` elements of `history`.
fn window_counts(history: &[u64], n: u64) -> HashMap<u64, u64> {
    let start = history.len().saturating_sub(n as usize);
    let mut counts = HashMap::new();
    for &x in &history[start..] {
        *counts.entry(x).or_insert(0u64) += 1;
    }
    counts
}

#[test]
fn infinite_window_pipeline_matches_exact_counts() {
    let epsilon = 0.005;
    let mut estimator = ParallelFrequencyEstimator::new(epsilon);
    let mut cm = ParallelCountMin::new(0.001, 0.01, 3);
    let mut generator = ZipfGenerator::new(50_000, 1.2, 77);
    let mut exact: HashMap<u64, u64> = HashMap::new();

    for _ in 0..40 {
        let minibatch = generator.next_minibatch(5000);
        estimator.process_minibatch(&minibatch);
        cm.process_minibatch(&minibatch);
        for &x in &minibatch {
            *exact.entry(x).or_insert(0) += 1;
        }
    }
    let m: u64 = exact.values().sum();

    // Misra–Gries guarantee: one-sided εm error.
    for (&item, &f) in &exact {
        let est = estimator.estimate(item);
        assert!(est <= f);
        assert!(est as f64 + epsilon * m as f64 >= f as f64);
    }
    // Count-Min guarantee: one-sided overestimate, within εm for almost all items.
    let bound = (0.001 * m as f64).ceil() as u64;
    let violations = exact
        .iter()
        .filter(|(&item, &f)| cm.query(item) > f + bound)
        .count();
    assert!(cm.query(0) >= exact.get(&0).copied().unwrap_or(0));
    assert!(violations <= exact.len() / 20);
}

#[test]
fn sliding_window_variants_agree_and_respect_bounds() {
    let epsilon = 0.02;
    let n = 20_000u64;
    let mut basic = SlidingFreqBasic::new(epsilon, n);
    let mut space = SlidingFreqSpaceEfficient::new(epsilon, n);
    let mut work = SlidingFreqWorkEfficient::new(epsilon, n);
    let mut exact = ExactSlidingWindow::new(n);
    let mut generator = AdversarialChurnGenerator::new(10, 15_000, 9);
    let mut history: Vec<u64> = Vec::new();

    for _ in 0..30 {
        let minibatch = generator.next_minibatch(2000);
        basic.process_minibatch(&minibatch);
        space.process_minibatch(&minibatch);
        work.process_minibatch(&minibatch);
        exact.process_minibatch(&minibatch);
        history.extend_from_slice(&minibatch);
    }

    let truth = window_counts(&history, n);
    let slack = (epsilon * n as f64).ceil() as u64;
    for (&item, &f) in &truth {
        assert_eq!(
            exact.count(item),
            f,
            "exact tracker must agree with brute force"
        );
        for est in [
            basic.estimate(item),
            space.estimate(item),
            work.estimate(item),
        ] {
            assert!(est <= f, "sliding estimate {est} above truth {f}");
            assert!(
                est + slack >= f,
                "sliding estimate {est} below truth {f} - εn"
            );
        }
    }
    // Space bounds: the efficient variants keep O(1/ε) counters, the basic
    // variant keeps one per distinct item in/behind the window.
    assert!(space.num_counters() <= space.capacity());
    assert!(work.num_counters() <= work.capacity());
    assert!(basic.num_counters() >= space.num_counters());
    // The space- and work-efficient variants are state-identical (Theorem 5.4
    // simulates Algorithm 2 exactly).
    let mut a = space.tracked_items();
    let mut b = work.tracked_items();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
}

#[test]
fn sliding_heavy_hitters_track_churning_elephants() {
    let n = 30_000u64;
    let phi = 0.05;
    let epsilon = 0.01;
    let mut hh = SlidingHeavyHitters::new(phi, SlidingFreqWorkEfficient::new(epsilon, n));
    let mut exact = ExactSlidingWindow::new(n);
    let mut generator = AdversarialChurnGenerator::new(5, 40_000, 21);

    for _ in 0..40 {
        let minibatch = generator.next_minibatch(4000);
        hh.process_minibatch(&minibatch);
        exact.process_minibatch(&minibatch);
        // The guarantees are stated for a full window of n elements; skip the
        // warm-up phase where fewer than n elements have been observed.
        if (exact.len() as u64) < n {
            continue;
        }
        let reported: Vec<u64> = hh.query().into_iter().map(|h| h.item).collect();
        // No false negatives among the true φ-heavy hitters of the window.
        for (item, _) in exact.heavy_hitters(phi) {
            assert!(reported.contains(&item), "missed heavy hitter {item}");
        }
        // Soundness: every reported item holds at least (φ − ε) of the window.
        for &item in &reported {
            let f = exact.count(item);
            assert!(
                f as f64 >= (phi - epsilon) * exact.len() as f64,
                "false positive {item} (f = {f})"
            );
        }
    }
}

#[test]
fn windowed_counting_and_sum_against_baseline() {
    let epsilon = 0.02;
    let n = 1u64 << 15;
    let mut counter = BasicCounter::new(epsilon, n);
    let mut dgim = DgimCounter::new(epsilon, n);
    let mut sum = WindowedSum::new(epsilon, n, 1023);
    let mut bits_gen = BinaryStreamGenerator::new(0.1, 31);
    let mut vals_gen = BinaryStreamGenerator::new(0.5, 32);
    let mut bits_hist: Vec<bool> = Vec::new();
    let mut vals_hist: Vec<u64> = Vec::new();

    for _ in 0..30 {
        let bits = bits_gen.next_bits(3000);
        let values = vals_gen.next_values(3000, 1023);
        counter.advance_bits(&bits);
        dgim.update_all(&bits);
        sum.advance(&values);
        bits_hist.extend_from_slice(&bits);
        vals_hist.extend_from_slice(&values);
    }

    let start = bits_hist.len().saturating_sub(n as usize);
    let true_ones = bits_hist[start..].iter().filter(|&&b| b).count() as u64;
    let est = counter.estimate();
    assert!(est >= true_ones && est as f64 <= true_ones as f64 * (1.0 + epsilon) + 1.0);
    // DGIM (two-sided error) should also be close — it is the sequential baseline.
    let dgim_est = dgim.estimate();
    assert!((dgim_est as f64 - true_ones as f64).abs() <= epsilon * true_ones as f64 + 1.0);

    let vstart = vals_hist.len().saturating_sub(n as usize);
    let true_sum: u64 = vals_hist[vstart..].iter().sum();
    let sum_est = sum.estimate();
    assert!(sum_est >= true_sum);
    assert!(sum_est as f64 <= true_sum as f64 * (1.0 + epsilon) + sum.num_bit_counters() as f64);
}

#[test]
fn independent_structures_use_more_memory_than_shared() {
    // Section 5.4: the shared-structure estimator keeps O(1/ε) counters while
    // the independent approach keeps Θ(p/ε) across its workers.
    let epsilon = 0.01;
    let p = 8;
    let mut shared = ParallelFrequencyEstimator::new(epsilon);
    let mut independent = IndependentMgSummaries::new(epsilon, p);
    let mut generator = ZipfGenerator::new(1_000_000, 1.05, 55);
    for _ in 0..20 {
        let minibatch = generator.next_minibatch(10_000);
        shared.process_minibatch(&minibatch);
        independent.process_minibatch(&minibatch);
    }
    assert!(shared.num_counters() <= shared.capacity());
    assert!(
        independent.total_counters() > 2 * shared.num_counters(),
        "independent: {}, shared: {}",
        independent.total_counters(),
        shared.num_counters()
    );
}
