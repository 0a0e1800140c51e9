//! Lock-free log-bucketed histograms for latency and size telemetry.
//!
//! [`AtomicLogHistogram`] follows the `AtomicCountMin` pattern from the
//! PR 5 hot path: a flat slab of `AtomicU64` counters updated with
//! **relaxed** read-modify-writes, so recording a sample from any thread is
//! exactly one `fetch_add(1, Relaxed)` — no locks, no CAS loops, no
//! stronger-than-relaxed ordering on the recording path. Telemetry needs no
//! happens-before edge of its own: readers take an instantaneous *snapshot*
//! whose counts are exact for every sample that happened-before the read
//! via some other synchronisation (a queue send, a snapshot publication)
//! and merely *recent* for in-flight ones.
//!
//! ## Bucketing and error bounds
//!
//! Buckets are log-linear in the HdrHistogram style with
//! [`SUB_BITS`]` = 5` (32 sub-buckets per octave):
//!
//! * values `v < 32` are recorded **exactly** (bucket `v` holds only `v`);
//! * larger values fall in a bucket of width `2^(o-1)` whose lower bound is
//!   at least `32 · 2^(o-1)`, so the **relative bucket width is at most
//!   `2^-SUB_BITS = 1/32 ≈ 3.2 %`**.
//!
//! Percentile extraction reports the **inclusive upper bound** of the
//! bucket containing the requested rank. The estimate is therefore
//! *one-sided*: it never understates the true percentile and overstates it
//! by less than the bucket width — a relative error below `1/32` (zero for
//! values under 32). This matches the one-sided `ε·m` style of every other
//! bound in the workspace: a reported p99 of `x` means the true p99 is in
//! `(x·32/33, x]`.
//!
//! The value range covers all of `u64` in [`NUM_BUCKETS`]` = 1920` buckets
//! (15 KiB of counters). Consecutive buckets are adjacent in memory, so a
//! workload whose samples cluster within a ±12 % band (8 adjacent buckets)
//! keeps its recording traffic on a single cache line.
//!
//! ## Merging
//!
//! Histograms are **mergeable summaries** in the sense the paper uses for
//! its frequency aggregates: [`HistogramSnapshot::merge`] is bucket-wise
//! saturating addition, which is exactly commutative and associative, so
//! per-shard histograms can be recorded independently and combined at query
//! time in any order — the same per-substream-then-merge pattern the engine
//! applies to Misra–Gries summaries, now applied to its own telemetry.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: `2^SUB_BITS` sub-buckets per octave.
///
/// Controls the bucket-error bound: relative bucket width (and therefore
/// the one-sided percentile overestimate) is at most `2^-SUB_BITS`.
pub const SUB_BITS: u32 = 5;

/// Sub-buckets per octave (`2^SUB_BITS`). Values below this are exact.
pub const SUB: u64 = 1 << SUB_BITS;

/// Total bucket count covering every `u64` value.
///
/// Octave 0/1 are the identity range `0..64`; octaves `2..=59` each add
/// [`SUB`] buckets: `64 + 58·32 = 1920`.
pub const NUM_BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

/// Maps a value to its bucket index (total order preserving).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let top = 63 - v.leading_zeros(); // >= SUB_BITS
    let octave = (top - SUB_BITS + 1) as usize;
    let sub = (v >> (top - SUB_BITS)) - SUB;
    (octave << SUB_BITS) + sub as usize
}

/// Inclusive lower bound of bucket `idx` (the smallest value mapping to it).
#[inline]
pub fn bucket_low(idx: usize) -> u64 {
    debug_assert!(idx < NUM_BUCKETS);
    if idx < (2 << SUB_BITS) {
        return idx as u64; // identity range
    }
    let octave = (idx >> SUB_BITS) as u32;
    let sub = (idx as u64) & (SUB - 1);
    (SUB + sub) << (octave - 1)
}

/// Inclusive upper bound of bucket `idx` (the largest value mapping to it).
///
/// This is the value percentile queries report, making them one-sided
/// overestimates (see the module docs for the error bound).
#[inline]
pub fn bucket_high(idx: usize) -> u64 {
    if idx + 1 < NUM_BUCKETS {
        bucket_low(idx + 1) - 1
    } else {
        u64::MAX
    }
}

/// The standard percentile set reported by the observability layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Percentiles {
    /// Samples recorded.
    pub count: u64,
    /// Median (one-sided bucket upper bound, like all fields below).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Largest recorded sample's bucket upper bound.
    pub max: u64,
}

/// Lock-free log-bucketed histogram; see the module docs.
///
/// Recording is wait-free: one relaxed `fetch_add` on the sample's bucket.
#[derive(Debug)]
pub struct AtomicLogHistogram {
    buckets: Box<[AtomicU64]>,
}

impl Default for AtomicLogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicLogHistogram {
    /// Creates an empty histogram (all buckets zero).
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Self {
            buckets: buckets.into_boxed_slice(),
        }
    }

    /// Records one sample. Exactly one relaxed RMW; safe from any thread.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` samples of the same value in one RMW (batch sizes,
    /// repeated waits).
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        if n > 0 {
            self.buckets[bucket_index(value)].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Folds another histogram's counts into this one (bucket-wise relaxed
    /// adds). Used to combine per-shard recorders at report time.
    pub fn merge_from(&self, other: &AtomicLogHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Takes an instantaneous snapshot of the counts.
    ///
    /// Concurrent recordings may or may not be included (each bucket is
    /// read once, relaxed); every sample recorded happens-before the call
    /// via external synchronisation is included exactly.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Resets every bucket to zero (relaxed stores; racing recordings may
    /// survive). Test/bench helper — production reports snapshot instead.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
    }

    /// Convenience: percentiles of the current contents.
    pub fn percentiles(&self) -> Percentiles {
        self.snapshot().percentiles()
    }
}

/// An immutable copy of a histogram's buckets: the mergeable, queryable
/// form (see the module docs for merge laws and error bounds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no samples.
    pub fn empty() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS],
        }
    }

    /// Total samples across all buckets (saturating).
    pub fn count(&self) -> u64 {
        self.counts.iter().fold(0u64, |a, &c| a.saturating_add(c))
    }

    /// Count in one bucket (tests / exact inspection).
    pub fn bucket_count(&self, idx: usize) -> u64 {
        self.counts[idx]
    }

    /// Bucket-wise saturating addition — **exactly commutative and
    /// associative**, so any merge order of per-shard snapshots yields
    /// identical counts (the mergeable-summaries law, applied to telemetry).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, &theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine = mine.saturating_add(theirs);
        }
    }

    /// One-sided percentile: the inclusive upper bound of the bucket
    /// holding the sample of rank `⌈q·count⌉`, for `q` in `(0, 1]`.
    ///
    /// Never understates the true quantile; overstates by `< 2^-SUB_BITS`
    /// relative (exactly correct for values under [`SUB`]). Returns 0 when
    /// the histogram is empty.
    pub fn percentile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return bucket_high(idx);
            }
        }
        bucket_high(NUM_BUCKETS - 1)
    }

    /// The standard report set (p50/p90/p99/p999/max).
    pub fn percentiles(&self) -> Percentiles {
        let count = self.count();
        if count == 0 {
            return Percentiles::default();
        }
        let max = self
            .counts
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, bucket_high);
        Percentiles {
            count,
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
            p999: self.percentile(0.999),
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_total() {
        let probes: Vec<u64> = (0..200)
            .chain((0..64).flat_map(|s| {
                let base = 1u64 << s;
                [base.saturating_sub(1), base, base + 1, base + base / 3]
            }))
            .chain([u64::MAX - 1, u64::MAX])
            .collect();
        let mut sorted = probes.clone();
        sorted.sort_unstable();
        for pair in sorted.windows(2) {
            assert!(bucket_index(pair[0]) <= bucket_index(pair[1]));
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_bracket_their_values() {
        for v in (0..100u64).chain([127, 128, 1000, 1 << 20, u64::MAX / 3, u64::MAX]) {
            let idx = bucket_index(v);
            assert!(bucket_low(idx) <= v, "low bound of {idx} above {v}");
            assert!(v <= bucket_high(idx), "high bound of {idx} below {v}");
            // Bounds themselves map back to the same bucket.
            assert_eq!(bucket_index(bucket_low(idx)), idx);
            assert_eq!(bucket_index(bucket_high(idx)), idx);
        }
    }

    #[test]
    fn small_values_are_exact_and_large_within_relative_bound() {
        for v in 0..SUB {
            let idx = bucket_index(v);
            assert_eq!(bucket_low(idx), v);
            assert_eq!(bucket_high(idx), v);
        }
        for v in [100u64, 12_345, 1 << 30, u64::MAX / 7] {
            let idx = bucket_index(v);
            let width = bucket_high(idx) - bucket_low(idx);
            // Relative bucket width ≤ 2^-SUB_BITS.
            assert!(width as f64 / bucket_low(idx) as f64 <= 1.0 / SUB as f64 + 1e-12);
        }
    }

    #[test]
    fn percentiles_are_one_sided() {
        let h = AtomicLogHistogram::new();
        // 1000 samples: 990 at 100ns, 10 at 10_000ns.
        h.record_n(100, 990);
        h.record_n(10_000, 10);
        let p = h.percentiles();
        assert_eq!(p.count, 1000);
        // p50/p90 land in 100's bucket; never below the true value.
        assert!(p.p50 >= 100 && p.p50 as f64 <= 100.0 * (1.0 + 1.0 / SUB as f64));
        assert!(p.p99 >= 100);
        // p999 must see the tail.
        assert!(p.p999 >= 10_000 && p.p999 as f64 <= 10_000.0 * (1.0 + 1.0 / SUB as f64));
        assert!(p.max >= 10_000);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        assert_eq!(
            AtomicLogHistogram::new().percentiles(),
            Percentiles::default()
        );
        assert_eq!(HistogramSnapshot::empty().percentile(0.99), 0);
    }

    #[test]
    fn merge_from_accumulates() {
        let a = AtomicLogHistogram::new();
        let b = AtomicLogHistogram::new();
        a.record(5);
        b.record(5);
        b.record(70);
        a.merge_from(&b);
        let snap = a.snapshot();
        assert_eq!(snap.count(), 3);
        assert_eq!(snap.bucket_count(bucket_index(5)), 2);
    }
}
