//! Work-efficient sliding-window frequency estimation (Theorem 5.4).
//!
//! Algorithm 2 (the space-efficient variant) still spends `O(µ log µ)` work
//! sorting the whole minibatch to build a per-item segment for *every* item,
//! even though all but `O(1/ε)` of those counters are discarded at the end of
//! the minibatch. The work-efficient variant removes that waste in two steps:
//!
//! 1. **`predict`** — build the minibatch histogram (`buildHist`, linear
//!    work), read the post-slide values of the existing counters without
//!    mutating them ([`psfa_window::Sbbc::value_after_slide`]), combine the
//!    two, and compute the pruning cut-off `ϕ` and the survivor set `K`
//!    (at most `S` items). Because an SBBC's value after `advance` equals
//!    its post-slide value plus the number of new occurrences, this predicts
//!    the outcome of Algorithm 2 exactly.
//! 2. **`sift`** (Lemma 5.9) — build per-item segments *only for the
//!    survivors*, advance and decrement those counters, and delete the rest.
//!
//! Total work per minibatch: `O(ε⁻¹ + µ)`; accuracy and space bounds are
//! inherited from Algorithm 2 because the two algorithms maintain identical
//! counter sets.

use std::collections::HashMap;

use psfa_primitives::{build_hist, phi_cutoff, CompactedSegment, WorkMeter};
use psfa_window::Sbbc;
use rayon::prelude::*;

use crate::sift::sift;
use crate::SlidingFrequencyEstimator;

/// Work-efficient sliding-window frequency estimator (Theorem 5.4).
#[derive(Debug, Clone)]
pub struct SlidingFreqWorkEfficient {
    epsilon: f64,
    n: u64,
    /// Pruning capacity `S = ⌈8/ε⌉`.
    s: usize,
    /// Additive error of each counter, `λ = εn/4` (even, ≥ 2).
    lambda: u64,
    counters: HashMap<u64, Sbbc>,
    seed: u64,
    meter: Option<WorkMeter>,
}

impl SlidingFreqWorkEfficient {
    /// Creates an estimator for window size `n` and error `ε ∈ (0, 1)`.
    ///
    /// # Panics
    /// Panics if `epsilon` is not in `(0, 1)` or `εn < 16`.
    pub fn new(epsilon: f64, n: u64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0, 1)");
        assert!(
            epsilon * n as f64 >= 16.0,
            "εn must be at least 16 for the work-efficient variant"
        );
        let s = (8.0 / epsilon).ceil() as usize;
        let lambda = ((((epsilon * n as f64) / 4.0) as u64) & !1).max(2);
        Self {
            epsilon,
            n,
            s,
            lambda,
            counters: HashMap::new(),
            seed: 0xABCD,
            meter: None,
        }
    }

    /// Attaches a [`WorkMeter`] charged with `O(µ + 1/ε)` units per minibatch
    /// (experiment E8).
    pub fn with_meter(mut self, meter: WorkMeter) -> Self {
        self.meter = Some(meter);
        self
    }

    /// The pruning capacity `S = ⌈8/ε⌉`.
    pub fn capacity(&self) -> usize {
        self.s
    }

    /// The per-counter additive slack `λ = εn/4`.
    pub fn lambda(&self) -> u64 {
        self.lambda
    }

    /// `predict` (Section 5.3.3): returns the survivor set `K` and the
    /// cut-off `ϕ` that Algorithm 2 would apply to this minibatch.
    fn predict(&mut self, minibatch: &[u64]) -> (Vec<u64>, u64) {
        self.seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(1);
        let hist = build_hist(minibatch, self.seed);
        let mu = minibatch.len() as u64;

        // Post-advance value of every candidate counter: the slid value of an
        // existing counter plus the item's count in the minibatch.
        let mut combined: HashMap<u64, u64> =
            HashMap::with_capacity(self.counters.len() + hist.len());
        for (&item, counter) in &self.counters {
            let slid = counter
                .value_after_slide(mu)
                .expect("unbounded per-item counters never overflow");
            combined.insert(item, slid);
        }
        for e in &hist {
            *combined.entry(e.item).or_insert(0) += e.count;
        }

        let values: Vec<u64> = combined.values().copied().collect();
        let phi = phi_cutoff(&values, self.s);
        let survivors: Vec<u64> = combined
            .into_iter()
            .filter_map(|(item, value)| if value > phi { Some(item) } else { None })
            .collect();
        (survivors, phi)
    }
}

impl SlidingFrequencyEstimator for SlidingFreqWorkEfficient {
    fn process_minibatch(&mut self, minibatch: &[u64]) {
        if minibatch.is_empty() {
            return;
        }
        let minibatch = if minibatch.len() as u64 >= self.n {
            // WLOG assumption: a window-sized minibatch resets the state.
            self.counters.clear();
            &minibatch[minibatch.len() - self.n as usize..]
        } else {
            minibatch
        };
        let mu = minibatch.len() as u64;

        // Phase 1: predict the survivors and the cut-off.
        let (survivors, phi) = self.predict(minibatch);

        // Phase 2: per-item segments for the survivors only.
        let segments = sift(minibatch, &survivors);

        if let Some(meter) = &self.meter {
            // predict: O(µ) histogram + O(1/ε) counter reads; sift: O(µ + |K|);
            // advance/decrement: O(1/ε) amortised.
            meter.charge(2 * mu + (self.counters.len() + self.s + survivors.len()) as u64);
        }

        // Phase 3: keep exactly the survivors, advancing and decrementing them.
        let template = Sbbc::unbounded(self.lambda, self.n).assume_zero_history();
        let mut kept: HashMap<u64, Sbbc> = HashMap::with_capacity(survivors.len());
        for &item in &survivors {
            let counter = self
                .counters
                .remove(&item)
                .unwrap_or_else(|| template.clone());
            kept.insert(item, counter);
        }
        kept.par_iter_mut().for_each(|(item, counter)| {
            let segment = segments
                .get(item)
                .cloned()
                .unwrap_or_else(|| CompactedSegment::zeros(mu));
            counter.advance(&segment);
            if phi > 0 {
                counter.decrement(phi);
            }
        });
        kept.retain(|_, counter| counter.value().unwrap_or(0) > 0);
        self.counters = kept;
    }

    fn estimate(&self, item: u64) -> u64 {
        match self.counters.get(&item) {
            None => 0,
            Some(counter) => counter
                .value()
                .expect("unbounded per-item counters never overflow")
                .saturating_sub(self.lambda),
        }
    }

    fn window(&self) -> u64 {
        self.n
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn num_counters(&self) -> usize {
        self.counters.len()
    }

    fn tracked_items(&self) -> Vec<(u64, u64)> {
        self.counters
            .keys()
            .map(|&item| (item, self.estimate(item)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sliding_space::SlidingFreqSpaceEfficient;
    use crate::test_support::{check_sliding_bounds, SlidingDriver};

    #[test]
    fn theorem_5_4_accuracy_uniform() {
        let mut driver = SlidingDriver::new(21);
        let mut est = SlidingFreqWorkEfficient::new(0.1, 2000);
        for _ in 0..30 {
            let batch = driver.uniform_batch(250, 60);
            est.process_minibatch(&batch);
            check_sliding_bounds(&est, driver.window_counts(est.window()));
        }
    }

    #[test]
    fn theorem_5_4_accuracy_skewed() {
        let mut driver = SlidingDriver::new(22);
        let mut est = SlidingFreqWorkEfficient::new(0.05, 4000);
        for _ in 0..25 {
            let batch = driver.skewed_batch(400, 6, 3000);
            est.process_minibatch(&batch);
            check_sliding_bounds(&est, driver.window_counts(est.window()));
        }
    }

    #[test]
    fn space_stays_bounded() {
        let mut driver = SlidingDriver::new(23);
        let mut est = SlidingFreqWorkEfficient::new(0.1, 5000);
        for _ in 0..20 {
            let batch = driver.uniform_batch(600, 5000);
            est.process_minibatch(&batch);
            assert!(est.num_counters() <= est.capacity());
        }
    }

    #[test]
    fn matches_space_efficient_variant_exactly() {
        // The work-efficient algorithm simulates Algorithm 2; on the same
        // stream both must maintain identical counter sets and estimates.
        let mut driver = SlidingDriver::new(24);
        let mut work = SlidingFreqWorkEfficient::new(0.1, 3000);
        let mut space = SlidingFreqSpaceEfficient::new(0.1, 3000);
        for _ in 0..20 {
            let batch = driver.skewed_batch(350, 8, 1000);
            work.process_minibatch(&batch);
            space.process_minibatch(&batch);
            let mut a = work.tracked_items();
            let mut b = space.tracked_items();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "work-efficient and Algorithm 2 diverged");
        }
    }

    #[test]
    fn heavy_items_survive() {
        let mut driver = SlidingDriver::new(25);
        let mut est = SlidingFreqWorkEfficient::new(0.05, 4000);
        for _ in 0..20 {
            let batch = driver.skewed_batch(400, 3, 10_000);
            est.process_minibatch(&batch);
        }
        for item in 0..3u64 {
            assert!(est.estimate(item) > 0, "heavy item {item} lost");
        }
    }

    #[test]
    fn giant_minibatch_resets_state() {
        let n = 1000u64;
        let mut est = SlidingFreqWorkEfficient::new(0.1, n);
        est.process_minibatch(&vec![1u64; 800]);
        let mut batch = vec![2u64; 1200];
        batch.extend(vec![3u64; 800]);
        est.process_minibatch(&batch);
        assert_eq!(est.estimate(1), 0);
        assert!(est.estimate(2) <= 200 + est.lambda());
        assert!(est.estimate(3) <= 800);
    }

    #[test]
    fn meter_is_linear_in_batch_size() {
        let meter = WorkMeter::new();
        let mut est = SlidingFreqWorkEfficient::new(0.1, 20_000).with_meter(meter.clone());
        let mut driver = SlidingDriver::new(26);
        let mu = 2000usize;
        for _ in 0..5 {
            let batch = driver.uniform_batch(mu, 500);
            est.process_minibatch(&batch);
        }
        let per_batch = meter.total() as f64 / 5.0;
        let s = est.capacity() as f64;
        assert!(per_batch >= mu as f64);
        assert!(per_batch <= 6.0 * (mu as f64 + s));
    }
}
