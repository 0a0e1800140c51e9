//! Parallel rank selection.
//!
//! The Misra–Gries augmentation step (Lemma 5.3) and the pruning step of the
//! sliding-window algorithm (Algorithm 2, step 3a) both need to find a cut-off
//! value `ϕ` such that at most `S` counters have value `≥ ϕ`. That is a rank
//! selection problem. The paper suggests "a variant of quickselect"; we
//! implement a parallel quickselect whose partition step is a parallel pack,
//! giving expected `O(n)` work and `O(polylog n)` depth.

use rayon::prelude::*;

use crate::SEQ_THRESHOLD;

/// Returns the `k`-th smallest value of `values` (0-indexed: `k = 0` is the
/// minimum).
///
/// Expected `O(n)` work; the recursion depth is `O(log n)` with high
/// probability because the pivot is a median-of-three of evenly spaced
/// samples.
///
/// # Panics
/// Panics if `values` is empty or `k >= values.len()`.
pub fn kth_smallest(values: &[u64], k: usize) -> u64 {
    assert!(!values.is_empty(), "kth_smallest: empty input");
    assert!(
        k < values.len(),
        "kth_smallest: rank {k} out of bounds for length {}",
        values.len()
    );
    let mut current: Vec<u64> = values.to_vec();
    let mut rank = k;
    loop {
        let n = current.len();
        if n <= SEQ_THRESHOLD {
            current.sort_unstable();
            return current[rank];
        }
        let pivot = median_of_three(&current);
        // Three-way partition via parallel counting + packing.
        let less: Vec<u64> = current.par_iter().copied().filter(|&x| x < pivot).collect();
        let equal = current.par_iter().filter(|&&x| x == pivot).count();
        if rank < less.len() {
            current = less;
        } else if rank < less.len() + equal {
            return pivot;
        } else {
            rank -= less.len() + equal;
            current = current.par_iter().copied().filter(|&x| x > pivot).collect();
        }
    }
}

/// Computes the pruning cut-off `ϕ` of Lemma 5.3 / Algorithm 2: the smallest
/// value such that **at most `s`** entries of `values` are strictly greater
/// than `ϕ`, while (whenever `ϕ > 0`) **at least `s`** entries are `≥ ϕ`.
///
/// Concretely this is the `(s+1)`-th largest value, or `0` when there are at
/// most `s` values. Subtracting `ϕ` from every value and keeping the strictly
/// positive ones therefore leaves at most `s` survivors, and every one of the
/// `ϕ` conceptual decrement batches touches at least `s` distinct counters —
/// exactly the property the accuracy proofs of Lemma 5.3 and Claim 5.7 need.
pub fn phi_cutoff(values: &[u64], s: usize) -> u64 {
    if values.len() <= s {
        return 0;
    }
    // (s+1)-th largest == (len - s - 1)-th smallest (0-indexed).
    kth_smallest(values, values.len() - s - 1)
}

/// Allocation-free variant of [`phi_cutoff`] for callers that own a
/// reusable scratch buffer: selects in place (reordering `values`) via
/// introselect instead of copying into fresh partition vectors.
///
/// The parallel [`phi_cutoff`] pays `O(n)` transient allocations per call
/// for its packed partitions — fine for the query path, but the per-batch
/// Misra–Gries augment sits on the engine's ingest hot path, whose
/// steady-state zero-allocation contract `tests/tests/hotpath_alloc.rs`
/// audits with a counting allocator. Same result, same `O(n)` expected
/// work, sequential depth.
pub fn phi_cutoff_in_place(values: &mut [u64], s: usize) -> u64 {
    if values.len() <= s {
        return 0;
    }
    let k = values.len() - s - 1;
    *values.select_nth_unstable(k).1
}

/// Median of three evenly spaced elements — a cheap, deterministic pivot that
/// avoids quadratic behaviour on sorted inputs.
fn median_of_three(values: &[u64]) -> u64 {
    let n = values.len();
    let a = values[0];
    let b = values[n / 2];
    let c = values[n - 1];
    a.max(b).min(a.min(b).max(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kth_on_small_input() {
        let v = vec![5u64, 1, 4, 2, 3];
        for k in 0..5 {
            assert_eq!(kth_smallest(&v, k), (k as u64) + 1);
        }
    }

    #[test]
    #[should_panic(expected = "empty input")]
    fn kth_empty_panics() {
        let _ = kth_smallest(&[], 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn kth_rank_out_of_bounds_panics() {
        let _ = kth_smallest(&[1, 2, 3], 3);
    }

    #[test]
    fn kth_on_large_input_matches_sort() {
        let n = 50_000usize;
        let v: Vec<u64> = (0..n as u64).map(|i| (i * 48271) % 10_007).collect();
        let mut sorted = v.clone();
        sorted.sort_unstable();
        for &k in &[0usize, 1, n / 3, n / 2, n - 2, n - 1] {
            assert_eq!(kth_smallest(&v, k), sorted[k]);
        }
    }

    #[test]
    fn kth_with_many_duplicates() {
        let v: Vec<u64> = (0..30_000u64).map(|i| i % 3).collect();
        assert_eq!(kth_smallest(&v, 0), 0);
        assert_eq!(kth_smallest(&v, 15_000), 1);
        assert_eq!(kth_smallest(&v, 29_999), 2);
    }

    #[test]
    fn phi_zero_when_few_values() {
        assert_eq!(phi_cutoff(&[10, 20, 30], 3), 0);
        assert_eq!(phi_cutoff(&[10, 20, 30], 5), 0);
        assert_eq!(phi_cutoff(&[], 0), 0);
    }

    #[test]
    fn phi_basic_property() {
        // values 1..=10, s = 3 => phi is the 4th largest = 7.
        let v: Vec<u64> = (1..=10).collect();
        let phi = phi_cutoff(&v, 3);
        assert_eq!(phi, 7);
        let survivors = v.iter().filter(|&&x| x > phi).count();
        assert!(survivors <= 3);
        let at_least = v.iter().filter(|&&x| x >= phi).count();
        assert!(at_least >= 3);
    }

    #[test]
    fn phi_property_holds_on_random_inputs() {
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for trial in 0..20 {
            let n = 500 + (trial * 137) % 3000;
            let values: Vec<u64> = (0..n).map(|_| next() % 1000).collect();
            let s = 1 + (trial as usize * 7) % 50;
            let phi = phi_cutoff(&values, s);
            let survivors = values.iter().filter(|&&x| x > phi).count();
            assert!(
                survivors <= s,
                "trial {trial}: {survivors} survivors > s = {s} (phi = {phi})"
            );
            if phi > 0 {
                let at_least = values.iter().filter(|&&x| x >= phi).count();
                assert!(at_least >= s, "trial {trial}: batches touch < s counters");
            }
        }
    }
}
