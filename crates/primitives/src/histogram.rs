//! Histogram construction: the paper's parallel `buildHist` (Theorem 2.3)
//! and the sequential probe-and-add kernel the shard workers run.
//!
//! Given a minibatch of item identifiers, both return the distinct items
//! together with their frequencies in `O(µ)` expected work.
//!
//! * [`build_hist`] above [`SEQ_THRESHOLD`] is Theorem 2.3's construction,
//!   which also has polylogarithmic **depth**: items are hashed into a range
//!   `R = O(µ)` with an `O(log µ)`-wise independent family, grouped by hash
//!   value using the linear-work integer sort (Theorem 2.2), and each
//!   bucket is collapsed with the `collectBin` routine, whose cost is
//!   proportional to (bucket size × distinct items in the bucket) — `O(µ)`
//!   in expectation by the balls-and-bins argument. The independence is
//!   there to bound the *largest* bucket, i.e. the depth.
//! * [`build_hist_into`] is the kernel for one thread — a shard worker, or
//!   `build_hist` at or below the threshold. With no depth to bound it pays
//!   for none of that machinery: one pass over the items, and per item one
//!   key mix, one linear probe into an index table and one `count += 1`.
//!   Rows come out in first-occurrence order.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use rayon::prelude::*;

use crate::hash::{fold_multiply, HashFamily, PolynomialHash};
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
/// The output lists each distinct item exactly once; the order is
/// unspecified above [`SEQ_THRESHOLD`] items and first-occurrence order at
/// or below it, where the call is one [`build_hist_into`]. `seed` drives
/// the internal hash function; any value gives a correct histogram, the
/// seed only matters for reproducibility of the bucket layout.
pub fn build_hist(items: &[u64], seed: u64) -> Vec<HistogramEntry> {
    let mu = items.len();
    if mu <= SEQ_THRESHOLD {
        let mut out = Vec::new();
        build_hist_into(items, seed, &mut HistScratch::new(), &mut out);
        return out;
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

/// Smallest probe table [`build_hist_into`] uses.
const MIN_TABLE: usize = 16;

/// The kernel's slot hash, before masking to the table: the key mix of
/// [`crate::hash::KeyMixBuildHasher`] — one folded 64×64→128 multiply of
/// `key ^ item` — with a fixed multiplier where that one draws its own. A
/// random multiplier is now and then one that piles an arithmetic
/// progression of keys into a few probe runs; this constant (wyhash's)
/// spreads every stride the structured-key test tries, and the secret an
/// adversary lacks is `key`.
#[inline]
fn slot_hash(key: u64, item: u64) -> usize {
    fold_multiply(key ^ item, 0x2D35_8DCC_AA6C_78A5) as usize
}

/// Reusable state of [`build_hist_into`]: the probe table and the key of
/// its hash. The table only ever grows, so after a warm-up batch of each
/// size class repeated calls perform **zero heap allocations**.
#[derive(Debug)]
pub struct HistScratch {
    /// Open-addressing index table, a power of two long: `0` is an empty
    /// slot, any other value is `1 +` the key's row in the output. Only the
    /// prefix a batch sized for itself is meaningful (and cleared) in it.
    table: Vec<u32>,
    /// Keys the slot hash. Drawn from the process's random keys, so item
    /// identifiers crafted by someone who sees only the per-batch `seed`
    /// (the engine's is a public constant) cannot be aimed at one probe run.
    key: u64,
    /// Distinct keys of the previous batch: the next batch's table size.
    distinct: usize,
}

// Slots probed and slots cleared by the kernel on this thread.
#[cfg(test)]
thread_local! {
    static PROBED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static CLEARED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl HistScratch {
    /// Creates empty scratch; the table is sized lazily by the first batches.
    pub fn new() -> Self {
        Self {
            table: Vec::new(),
            key: RandomState::new().hash_one(0u64),
            distinct: 0,
        }
    }

    /// Makes `table[..len]` the empty table of this batch and files the rows
    /// already in `out` into it. `len` is a power of two above `2·out.len()`.
    fn rebuild(&mut self, len: usize, key: u64, out: &[HistogramEntry]) {
        if self.table.len() < len {
            self.table.resize(len, 0);
        }
        let table = &mut self.table[..len];
        table.fill(0);
        #[cfg(test)]
        CLEARED.set(CLEARED.get() + len as u64);
        let mask = len - 1;
        for (row, entry) in out.iter().enumerate() {
            let mut slot = slot_hash(key, entry.item) & mask;
            while table[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            table[slot] = row as u32 + 1;
        }
    }
}

impl Default for HistScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Allocation-free sequential histogram: writes the histogram of `items`
/// into `out` (cleared first), one row per distinct item in
/// **first-occurrence order** — the same `out` whatever `seed` and whichever
/// `scratch` — using `scratch`'s probe table.
///
/// Produces the same multiset of [`HistogramEntry`] rows as [`build_hist`].
/// It is deliberately sequential: it exists for per-shard ingest hot paths —
/// the sharded engine already runs one worker per core, so intra-batch
/// parallelism inside a shard would only fight the other shards for cores.
///
/// One pass, `O(µ)` expected work: each item is mixed once (one folded
/// multiply, keyed by `scratch`'s random key xor `seed`), probed linearly
/// into a table of row indices, and either bumps its row's count or appends
/// a row. The table is kept at most half full — it starts sized for
/// `min(µ, distinct keys of the previous batch)` and doubles, re-filed from
/// `out`, whenever the distinct keys reach half of it — so clearing it
/// costs `O(µ)` of *this* batch however large an earlier one was.
///
/// # Panics
/// Panics if `items.len() >= u32::MAX as usize` (rows are `u32` indices).
pub fn build_hist_into(
    items: &[u64],
    seed: u64,
    scratch: &mut HistScratch,
    out: &mut Vec<HistogramEntry>,
) {
    assert!(
        items.len() < u32::MAX as usize,
        "build_hist_into: a batch must hold fewer than 2^32 - 1 items"
    );
    out.clear();
    let key = scratch.key ^ seed;
    let expected = items.len().min(scratch.distinct);
    let mut len = (2 * expected).next_power_of_two().max(MIN_TABLE);
    let mut done = 0;
    loop {
        scratch.rebuild(len, key, out);
        done += probe_and_add(&mut scratch.table[..len], key, &items[done..], out);
        if done == items.len() {
            break;
        }
        len *= 2;
    }
    scratch.distinct = out.len();
}

/// Counts `items` into `out` through `table` until one of them needs a new
/// row while the table is half full; returns how many items were counted.
fn probe_and_add(
    table: &mut [u32],
    key: u64,
    items: &[u64],
    out: &mut Vec<HistogramEntry>,
) -> usize {
    let mask = table.len() - 1;
    for (done, &item) in items.iter().enumerate() {
        let mut slot = slot_hash(key, item) & mask;
        loop {
            #[cfg(test)]
            PROBED.set(PROBED.get() + 1);
            match table[slot] {
                0 if 2 * out.len() > mask => return done,
                0 => {
                    out.push(HistogramEntry { item, count: 1 });
                    table[slot] = out.len() as u32;
                    break;
                }
                row => {
                    let entry = &mut out[row as usize - 1];
                    if entry.item == item {
                        entry.count += 1;
                        break;
                    }
                    slot = (slot + 1) & mask;
                }
            }
        }
    }
    items.len()
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

    /// The distinct items of `items` in first-occurrence order.
    fn first_occurrences(items: &[u64]) -> Vec<u64> {
        let mut seen = std::collections::HashSet::new();
        items.iter().copied().filter(|&x| seen.insert(x)).collect()
    }

    /// The exact rows `build_hist_into` must emit for `items`, whatever its
    /// seed and hash key: every distinct item with its count, in
    /// first-occurrence order.
    fn reference_rows(items: &[u64]) -> Vec<HistogramEntry> {
        let counts = reference(items);
        first_occurrences(items)
            .into_iter()
            .map(|item| HistogramEntry {
                item,
                count: counts[&item],
            })
            .collect()
    }

    #[test]
    fn empty_input() {
        assert!(build_hist(&[], 0).is_empty());
        let mut out = vec![HistogramEntry { item: 1, count: 1 }];
        build_hist_into(&[], 0, &mut HistScratch::new(), &mut out);
        assert!(out.is_empty());
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
    fn scratch_variant_matches_reference_across_reuse() {
        // One scratch reused across wildly different batch shapes, growing
        // and shrinking: tiny, large uniform, large skewed, all distinct
        // (the table doubles mid-batch), empty, one key — and the edge keys.
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
            vec![u64::MAX, 0, 1, u64::MAX, 0, u64::MAX - 1],
        ];
        // A second scratch has its own random key and sees other seeds: the
        // rows and their order may depend on neither.
        let mut other = HistScratch::new();
        let mut other_out = Vec::new();
        for (round, items) in workloads.iter().enumerate() {
            build_hist_into(items, round as u64 * 31 + 7, &mut scratch, &mut out);
            check_against_reference(items, &out);
            let order: Vec<u64> = out.iter().map(|e| e.item).collect();
            assert_eq!(order, first_occurrences(items), "round {round}");
            build_hist_into(items, !(round as u64), &mut other, &mut other_out);
            assert_eq!(out, other_out, "round {round}");
        }
    }

    #[test]
    fn structured_keys_probe_a_constant_number_of_slots() {
        // Key sets a weak slot hash piles into a few probe runs: every
        // power-of-two stride (sequential keys and multiples of the table
        // length among them), some odd ones, and keys that differ only in
        // the top byte. Uniformly random slots cost about 1.5 probes here.
        let n = 1u64 << 14;
        let strides = (0..50).map(|k| 1u64 << k);
        let strides = strides.chain([3, 10, 1000, 0xFFFF, (1 << 32) + 1]);
        let mut key_sets: Vec<(String, Vec<u64>)> = strides
            .map(|stride| {
                let keys = (0..n).map(|i| i * stride).collect();
                (format!("stride {stride}"), keys)
            })
            .collect();
        let top_byte = (0..n).map(|i| (i % 256) << 56 | 0x00C0_FFEE).collect();
        key_sets.push(("top byte".into(), top_byte));
        // The probe count depends on the scratch's hash key, which `new()`
        // draws at random; sixteen fixed splitmix64 outputs instead make
        // every run check the same keys.
        let mut state = 0u64;
        let hash_keys: Vec<u64> = (0..16)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
            .collect();
        let mut out = Vec::new();
        for (name, items) in &key_sets {
            let want = reference_rows(items);
            for &key in &hash_keys {
                let mut scratch = HistScratch {
                    key,
                    ..HistScratch::new()
                };
                // Twice: the first batch starts from an empty table that
                // doubles mid-batch; the second starts with the table at its
                // final size, the steady state of a shard worker.
                for seed in [3, 4] {
                    PROBED.set(0);
                    build_hist_into(items, seed, &mut scratch, &mut out);
                    assert!(
                        out == want,
                        "{name}, key {key:#018x}, seed {seed}: rows differ from the reference"
                    );
                }
                let probes = PROBED.get() as f64 / items.len() as f64;
                assert!(
                    probes < 3.0,
                    "{name}, key {key:#018x}: {probes:.2} probes per item"
                );
            }
        }
    }

    #[test]
    fn a_small_batch_after_a_huge_one_clears_only_its_own_table() {
        let mut scratch = HistScratch::new();
        let mut out = Vec::new();
        let huge: Vec<u64> = (0..1u64 << 20).collect();
        CLEARED.set(0);
        build_hist_into(&huge, 1, &mut scratch, &mut out);
        assert_eq!(out.len(), huge.len());
        assert!(CLEARED.get() >= 2 << 20, "the huge batch grew the table");
        let small: Vec<u64> = (0..100u64).map(|i| i * 7919).collect();
        CLEARED.set(0);
        build_hist_into(&small, 2, &mut scratch, &mut out);
        check_against_reference(&small, &out);
        let cleared = CLEARED.get();
        assert!(cleared <= 512, "a 100-item batch cleared {cleared} slots");
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
