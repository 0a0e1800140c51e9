//! Linear-work parallel histogram construction (`buildHist`, Theorem 2.3).
//!
//! Given a minibatch of item identifiers, `buildHist` returns the distinct
//! items together with their frequencies in `O(µ)` expected work and
//! polylogarithmic depth. Following the paper's proof, items are first
//! hashed into a range `R = O(µ)` with an `O(log µ)`-wise independent family,
//! grouped by hash value using the linear-work integer sort (Theorem 2.2),
//! and each bucket is then collapsed with the `collectBin` routine, whose
//! cost is proportional to (bucket size × distinct items in the bucket) —
//! `O(µ)` in expectation by the balls-and-bins argument.
//!
//! [`build_hist_hashmap`] is a fold/reduce hash-map alternative, the
//! ablation point against Theorem 2.3's construction (`benches/hist_ablation`).

use rayon::prelude::*;

use crate::hash::{HashFamily, PolynomialHash};
use crate::intsort::sort_indices_by_key;
use crate::SEQ_THRESHOLD;

/// One row of a histogram: a distinct item identifier and its frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramEntry {
    /// Item identifier.
    pub item: u64,
    /// Number of occurrences in the input segment.
    pub count: u64,
}

/// Builds the frequency histogram of `items` (Theorem 2.3).
///
/// The output lists each distinct item exactly once, in unspecified order.
/// `seed` drives the internal hash function; any value gives a correct
/// histogram, the seed only matters for reproducibility of the bucket layout.
pub fn build_hist(items: &[u64], seed: u64) -> Vec<HistogramEntry> {
    let mu = items.len();
    if mu == 0 {
        return Vec::new();
    }
    if mu <= SEQ_THRESHOLD {
        return sequential_hist(items);
    }

    // Hash into a range R = O(µ) (next power of two, at least 16).
    let range = (mu as u64).next_power_of_two().max(16);
    let hasher = PolynomialHash::from_seed(8, range, seed);
    let hashes: Vec<u64> = items.par_iter().map(|&x| hasher.hash(x)).collect();

    // Group identical hash values together with the linear-work integer sort.
    let perm = sort_indices_by_key(&hashes, range);

    // Find bucket boundaries in the sorted order.
    let starts: Vec<usize> = (0..perm.len())
        .into_par_iter()
        .filter(|&i| i == 0 || hashes[perm[i] as usize] != hashes[perm[i - 1] as usize])
        .collect();

    // Collapse every bucket in parallel (collectBin).
    let bucket_results: Vec<Vec<HistogramEntry>> = starts
        .par_iter()
        .enumerate()
        .map(|(b, &start)| {
            let end = starts.get(b + 1).copied().unwrap_or(perm.len());
            collect_bin(items, &perm[start..end])
        })
        .collect();

    let mut out = Vec::with_capacity(bucket_results.iter().map(Vec::len).sum());
    for mut v in bucket_results {
        out.append(&mut v);
    }
    out
}

/// `collectBin`: collapses one hash bucket into (item, frequency) pairs.
///
/// The bucket is expected to contain few distinct items (O(log µ) with high
/// probability), so a linear scan per distinct item matches the cost model in
/// the proof of Theorem 2.3.
fn collect_bin(items: &[u64], bucket: &[u32]) -> Vec<HistogramEntry> {
    let mut entries: Vec<HistogramEntry> = Vec::new();
    'outer: for &idx in bucket {
        let item = items[idx as usize];
        for e in entries.iter_mut() {
            if e.item == item {
                e.count += 1;
                continue 'outer;
            }
        }
        entries.push(HistogramEntry { item, count: 1 });
    }
    entries
}

/// Sequential histogram for small inputs.
///
/// The map is sized by a distinct-count guess, not the raw length: a large
/// heavily skewed batch hitting this path (e.g. driven directly by a caller
/// with `SEQ_THRESHOLD`-sized batches of one hot key) holds only a handful
/// of distinct items, and `with_capacity(items.len())` would allocate — and
/// immediately waste — a table for the worst case. The map grows on demand
/// for genuinely distinct-heavy inputs.
fn sequential_hist(items: &[u64]) -> Vec<HistogramEntry> {
    let mut map = std::collections::HashMap::with_capacity(items.len().min(1024));
    for &x in items {
        *map.entry(x).or_insert(0u64) += 1;
    }
    map.into_iter()
        .map(|(item, count)| HistogramEntry { item, count })
        .collect()
}

/// Reusable scratch buffers for [`build_hist_into`]: the hash values, the
/// counting-sort bucket table, the sorted permutation, and the small-batch
/// hash map. After a warm-up batch of each size class, repeated calls
/// perform **zero heap allocations** — the buffers only ever grow.
#[derive(Debug, Default)]
pub struct HistScratch {
    /// Per-item hash values (large-batch path).
    hashes: Vec<u64>,
    /// Counting-sort bucket counters / running offsets, one per hash value.
    buckets: Vec<u32>,
    /// Item indices grouped by hash value.
    perm: Vec<u32>,
    /// Small-batch accumulator (`µ ≤ SEQ_THRESHOLD`); `clear` keeps its
    /// table, so steady-state small batches allocate nothing either.
    map: std::collections::HashMap<u64, u64>,
    /// The histogram hash function, reseeded in place per batch
    /// ([`PolynomialHash::reseed`]) so its coefficient buffer is reused.
    hasher: Option<PolynomialHash>,
}

impl HistScratch {
    /// Creates empty scratch; buffers are sized lazily by the first batches.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Allocation-free variant of [`build_hist`]: writes the histogram of
/// `items` into `out` (cleared first), drawing every intermediate buffer
/// from `scratch`.
///
/// Produces the same multiset of [`HistogramEntry`] rows as [`build_hist`]
/// (entry *order* is unspecified for both). Unlike `build_hist` it is
/// deliberately sequential: it exists for per-shard ingest hot paths — the
/// sharded engine already runs one worker per core, so intra-batch
/// parallelism inside a shard would only fight the other shards for cores,
/// while the fresh `Vec`s of the parallel version (`hashes`, the sort, the
/// bucket outputs) dominate its constant factor. Work is `O(µ)` expected,
/// by the same hash-group-collect structure as Theorem 2.3: items are
/// hashed into a range `R = O(µ)`, grouped with a counting sort over the
/// reused bucket table, and each group collapsed with the `collectBin`
/// scan.
pub fn build_hist_into(
    items: &[u64],
    seed: u64,
    scratch: &mut HistScratch,
    out: &mut Vec<HistogramEntry>,
) {
    out.clear();
    let mu = items.len();
    if mu == 0 {
        return;
    }
    if mu <= SEQ_THRESHOLD {
        scratch.map.clear();
        for &x in items {
            *scratch.map.entry(x).or_insert(0u64) += 1;
        }
        out.extend(
            scratch
                .map
                .iter()
                .map(|(&item, &count)| HistogramEntry { item, count }),
        );
        return;
    }

    // Hash into a range R = O(µ), exactly as `build_hist`.
    let range = (mu as u64).next_power_of_two().max(16) as usize;
    let hasher = match &mut scratch.hasher {
        Some(hasher) => {
            hasher.reseed(8, range as u64, seed);
            &*hasher
        }
        slot @ None => slot.insert(PolynomialHash::from_seed(8, range as u64, seed)),
    };
    scratch.hashes.clear();
    scratch.hashes.extend(items.iter().map(|&x| hasher.hash(x)));

    // Group identical hash values with a counting sort over the reused
    // bucket table (grow-only; zeroing it is O(R) = O(µ) per batch).
    if scratch.buckets.len() < range {
        scratch.buckets.resize(range, 0);
    }
    let buckets = &mut scratch.buckets[..range];
    buckets.fill(0);
    for &h in &scratch.hashes {
        buckets[h as usize] += 1;
    }
    // Exclusive prefix sums turn counts into running write offsets.
    let mut running = 0u32;
    for b in buckets.iter_mut() {
        let count = *b;
        *b = running;
        running += count;
    }
    scratch.perm.clear();
    scratch.perm.resize(mu, 0);
    for (idx, &h) in scratch.hashes.iter().enumerate() {
        let slot = &mut buckets[h as usize];
        scratch.perm[*slot as usize] = idx as u32;
        *slot += 1;
    }

    // collectBin per hash group, appending directly into `out`: within one
    // group, duplicates are folded with a linear scan over the group's own
    // tail of `out` (few distinct items per bucket w.h.p., Theorem 2.3).
    let mut i = 0usize;
    while i < mu {
        let group_hash = scratch.hashes[scratch.perm[i] as usize];
        let group_start = out.len();
        while i < mu && scratch.hashes[scratch.perm[i] as usize] == group_hash {
            let item = items[scratch.perm[i] as usize];
            match out[group_start..].iter_mut().find(|e| e.item == item) {
                Some(e) => e.count += 1,
                None => out.push(HistogramEntry { item, count: 1 }),
            }
            i += 1;
        }
    }
}

/// Fold/reduce hash-map histogram (ablation baseline for `build_hist`).
///
/// Each rayon worker folds its share of the input into a private `HashMap`
/// and the per-worker maps are merged pairwise. The merge step is a
/// potential sequential bottleneck for very large numbers of distinct items —
/// exactly the effect the ablation experiment measures.
pub fn build_hist_hashmap(items: &[u64]) -> Vec<HistogramEntry> {
    use std::collections::HashMap;
    let map = items
        .par_iter()
        .fold(HashMap::new, |mut acc: HashMap<u64, u64>, &x| {
            *acc.entry(x).or_insert(0) += 1;
            acc
        })
        .reduce(HashMap::new, |a, b| {
            if a.len() < b.len() {
                return merge_into(b, a);
            }
            merge_into(a, b)
        });
    fn merge_into(
        mut big: std::collections::HashMap<u64, u64>,
        small: std::collections::HashMap<u64, u64>,
    ) -> std::collections::HashMap<u64, u64> {
        for (k, v) in small {
            *big.entry(k).or_insert(0) += v;
        }
        big
    }
    map.into_iter()
        .map(|(item, count)| HistogramEntry { item, count })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn reference(items: &[u64]) -> HashMap<u64, u64> {
        let mut m = HashMap::new();
        for &x in items {
            *m.entry(x).or_insert(0) += 1;
        }
        m
    }

    fn check_against_reference(items: &[u64], hist: &[HistogramEntry]) {
        let want = reference(items);
        assert_eq!(hist.len(), want.len(), "distinct-item count mismatch");
        for e in hist {
            assert_eq!(
                want.get(&e.item).copied(),
                Some(e.count),
                "wrong count for item {}",
                e.item
            );
        }
        let total: u64 = hist.iter().map(|e| e.count).sum();
        assert_eq!(total, items.len() as u64, "histogram total must equal µ");
    }

    #[test]
    fn empty_input() {
        assert!(build_hist(&[], 0).is_empty());
        assert!(build_hist_hashmap(&[]).is_empty());
    }

    #[test]
    fn small_input_sequential_path() {
        let items = vec![5, 5, 2, 9, 2, 5];
        check_against_reference(&items, &build_hist(&items, 1));
    }

    #[test]
    fn large_uniform_input() {
        let items: Vec<u64> = (0..60_000u64).map(|i| (i * 48271) % 500).collect();
        check_against_reference(&items, &build_hist(&items, 7));
    }

    #[test]
    fn large_skewed_input() {
        // 90% of the mass on item 0, the rest spread out.
        let items: Vec<u64> = (0..80_000u64)
            .map(|i| {
                if i % 10 != 0 {
                    0
                } else {
                    1 + (i * 7919) % 10_000
                }
            })
            .collect();
        check_against_reference(&items, &build_hist(&items, 13));
    }

    #[test]
    fn all_distinct_items() {
        let items: Vec<u64> = (0..30_000u64).map(|i| i * 1_000_003).collect();
        check_against_reference(&items, &build_hist(&items, 99));
    }

    #[test]
    fn single_repeated_item() {
        let items = vec![42u64; 50_000];
        let hist = build_hist(&items, 3);
        assert_eq!(hist.len(), 1);
        assert_eq!(
            hist[0],
            HistogramEntry {
                item: 42,
                count: 50_000
            }
        );
    }

    #[test]
    fn different_seeds_agree() {
        let items: Vec<u64> = (0..40_000u64).map(|i| (i * 31) % 1000).collect();
        for seed in 0..4 {
            check_against_reference(&items, &build_hist(&items, seed));
        }
    }

    #[test]
    fn hashmap_variant_matches_reference() {
        let items: Vec<u64> = (0..50_000u64).map(|i| (i * 2654435761) % 3000).collect();
        check_against_reference(&items, &build_hist_hashmap(&items));
    }

    #[test]
    fn scratch_variant_matches_reference_across_reuse() {
        // One scratch reused across wildly different batch shapes: small
        // (sequential path), large uniform, large skewed, all distinct.
        let mut scratch = HistScratch::new();
        let mut out = Vec::new();
        let workloads: Vec<Vec<u64>> = vec![
            vec![5, 5, 2, 9, 2, 5],
            (0..60_000u64).map(|i| (i * 48271) % 500).collect(),
            (0..80_000u64)
                .map(|i| {
                    if i % 10 != 0 {
                        0
                    } else {
                        1 + (i * 7919) % 10_000
                    }
                })
                .collect(),
            (0..30_000u64).map(|i| i * 1_000_003).collect(),
            Vec::new(),
            vec![42u64; 50_000],
        ];
        for (round, items) in workloads.iter().enumerate() {
            build_hist_into(items, round as u64 * 31 + 7, &mut scratch, &mut out);
            check_against_reference(items, &out);
        }
    }

    #[test]
    fn scratch_variant_agrees_with_parallel_variant() {
        let items: Vec<u64> = (0..40_000u64).map(|i| (i * 31) % 1000).collect();
        let mut scratch = HistScratch::new();
        let mut out = Vec::new();
        for seed in 0..4 {
            build_hist_into(&items, seed, &mut scratch, &mut out);
            let mut a = out.clone();
            let mut b = build_hist(&items, seed);
            a.sort_unstable_by_key(|e| e.item);
            b.sort_unstable_by_key(|e| e.item);
            assert_eq!(a, b, "seed {seed}");
        }
    }
}
