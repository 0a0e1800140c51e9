//! Lock-free concurrent Count-Min: a single-writer counter matrix.
//!
//! [`crate::ParallelCountMin`] is a plain-memory sketch: sharing it between
//! an ingesting shard worker and concurrent point queries requires a mutex,
//! which serialises the worker's batch update against every `O(d)` query.
//! [`AtomicCountMin`] removes the lock by storing the counter matrix as
//! [`AtomicU64`]s that **one** thread writes and any number read:
//!
//! * the writer adds a histogram count with a **relaxed load followed by a
//!   relaxed store** of the sum — two plain moves on every mainstream
//!   target, not a locked read-modify-write — from one ingest kernel
//!   compiled per depth (`add_histogram`), which hashes a histogram
//!   entry into all of its rows at once over the flat row-major
//!   `d × w` matrix;
//! * readers take **relaxed** loads and the row-wise minimum, with no
//!   synchronisation against the writer at all.
//!
//! ## The single-writer contract
//!
//! At most one thread may be inside [`AtomicCountMin::ingest_histogram`]
//! at a time, and successive writers must be ordered by a happens-before
//! edge (a thread join, a channel hand-off). That is how every sketch in
//! this workspace is used: a shard's sketch is written by that shard's
//! worker only — a restarted worker is spawned by the supervisor after the
//! panicked one has unwound. Two overlapping writers would race on the
//! load/store pair and could drop an increment, which would break the
//! one-sided guarantee below; it is a contract violation, not a data race
//! in the language sense (every access is atomic), and debug builds detect
//! it: `ingest_histogram` flips a writer flag on entry and exit and panics
//! if it finds the flag already set.
//!
//! ## Why relaxed load + store preserves the Count-Min guarantee
//!
//! Count-Min's contract is one-sided: a point query must **never
//! underestimate** the true frequency of the stream prefix it answers for,
//! and overestimates by at most `ε·m` (w.h.p.).
//!
//! * **No increment is lost.** With one writer nothing can intervene
//!   between a counter's load and the store of `load + count`, so the
//!   pair has exactly the effect of a `fetch_add`. The value of every
//!   counter therefore only grows, in the counter's modification order.
//! * **A reader sees each counter at some point of that order, and never
//!   goes back.** Atomic loads — relaxed ones included — are coherent: a
//!   thread's successive loads of one location observe a non-decreasing
//!   position in its modification order. So every counter a reader
//!   inspects is monotone over time, and so is the row-wise minimum.
//! * **Never an underestimate of a visible prefix.** A concurrent query
//!   may see row `i` already updated by a batch and row `j` not yet; each
//!   counter it reads still holds only real mass (occurrences of the item
//!   plus collisions) from a prefix of the writer's adds, so the minimum
//!   is at least the item's frequency in the least-advanced prefix it saw.
//!   The engine's snapshot publication is a `Release`/`Acquire` edge, so a
//!   reader that loaded a snapshot sees every add of every batch at or
//!   before that snapshot's epoch: `cm_estimate ≥ snapshot.estimate`.
//! * **The upper bound is inherited.** Counters never exceed what the
//!   plain-memory sketch would hold after the same updates, so
//!   `f̂ ≤ f + ε·m` holds with the same probability.
//!
//! The writer's own reads (a persistence clone on the worker thread) are
//! exact: it reads back its own stores.

#[cfg(debug_assertions)]
use std::sync::atomic::AtomicBool;
use std::sync::atomic::{AtomicU64, Ordering};

use psfa_primitives::{HistogramEntry, PairMultiplyShiftHash};

use crate::count_min::{column, CountMinSketch};
use crate::parallel::ParallelCountMin;

/// A Count-Min sketch whose counters are relaxed atomics: **one** writer
/// ingests minibatch histograms through `&self` while any number of
/// readers run point queries concurrently, lock-free (see the module docs
/// for the single-writer contract and the memory-ordering argument).
#[derive(Debug)]
pub struct AtomicCountMin {
    epsilon: f64,
    delta: f64,
    seed: u64,
    /// Histogram seed carried for codec continuity with
    /// [`ParallelCountMin`] (this type ingests pre-built histograms, so the
    /// seed is never advanced here).
    hist_seed: u64,
    width: usize,
    /// Row-major `depth × width` counter matrix.
    counters: Vec<AtomicU64>,
    hashes: Vec<PairMultiplyShiftHash>,
    /// Total mass added (`m`); incremented after the counter adds, so it
    /// trails them — a reader never sees a total ahead of the counters.
    total: AtomicU64,
    /// Set while a writer is inside `ingest_histogram` (debug builds only:
    /// the overlapping-writer check of the single-writer contract).
    #[cfg(debug_assertions)]
    writing: AtomicBool,
}

impl AtomicCountMin {
    /// Creates an empty sketch for error `ε` and failure probability `δ`,
    /// dimensioned and hashed exactly like
    /// [`CountMinSketch::new`] with the same arguments (so snapshots taken
    /// with [`AtomicCountMin::to_parallel`] stay mergeable with any sketch
    /// built from the same `(ε, δ, seed)`).
    ///
    /// # Panics
    /// Panics unless `0 < ε < 1` and `0 < δ < 1`.
    pub fn new(epsilon: f64, delta: f64, seed: u64) -> Self {
        Self::from_parallel(&ParallelCountMin::new(epsilon, delta, seed))
    }

    /// Builds an atomic sketch holding exactly the state of `sketch`
    /// (crash recovery: the persisted [`ParallelCountMin`] is rehydrated
    /// into the shared atomic matrix).
    pub fn from_parallel(sketch: &ParallelCountMin) -> Self {
        let inner = sketch.sketch();
        let counters = inner
            .counters()
            .iter()
            .flat_map(|row| row.iter().map(|&c| AtomicU64::new(c)))
            .collect();
        Self {
            epsilon: inner.epsilon(),
            delta: inner.delta(),
            seed: inner.seed(),
            hist_seed: sketch.histogram_seed(),
            width: inner.width(),
            counters,
            hashes: inner.row_hashes().to_vec(),
            total: AtomicU64::new(inner.total()),
            #[cfg(debug_assertions)]
            writing: AtomicBool::new(false),
        }
    }

    /// Snapshots the atomic matrix into a plain [`ParallelCountMin`]
    /// (persistence, cross-shard merging). Called by the single writer, the
    /// snapshot is exact; called concurrently with the writer, it holds
    /// some recent value of every counter — still a valid Count-Min of a
    /// recent prefix per the module docs.
    pub fn to_parallel(&self) -> ParallelCountMin {
        let rows: Vec<Vec<u64>> = self
            .rows()
            .map(|(_, row)| row.iter().map(|c| c.load(Ordering::Relaxed)).collect())
            .collect();
        let sketch = CountMinSketch::from_parts(
            self.epsilon,
            self.delta,
            self.seed,
            self.total.load(Ordering::Relaxed),
            rows,
        );
        ParallelCountMin::from_sketch_with_seed(sketch, self.hist_seed)
    }

    /// Each row's hash function with its `width` counters.
    fn rows(&self) -> impl Iterator<Item = (&PairMultiplyShiftHash, &[AtomicU64])> {
        self.hashes
            .iter()
            .zip(self.counters.chunks_exact(self.width))
    }

    /// Adds one minibatch's histogram: per `(row, distinct item)` one hash,
    /// one relaxed load and one relaxed store; no allocation. `&self` — the
    /// writer needs no exclusive access, but there must be only one (the
    /// single-writer contract in the module docs).
    ///
    /// # Panics
    /// In debug builds, panics if another call is in progress on this
    /// sketch.
    pub fn ingest_histogram(&self, hist: &[HistogramEntry]) {
        if hist.is_empty() {
            return;
        }
        #[cfg(debug_assertions)]
        assert!(
            !self.writing.swap(true, Ordering::Acquire),
            "AtomicCountMin: overlapping writers break the single-writer contract"
        );
        // One kernel, monomorphised on the number of rows it covers and
        // chosen once per call; a sketch deeper than the largest
        // specialisation runs the same kernel over successive row groups.
        let groups = self.hashes.chunks(MAX_GROUP);
        let group_counters = self.counters.chunks(MAX_GROUP * self.width);
        for (hashes, counters) in groups.zip(group_counters) {
            match hashes.len() {
                1 => add_histogram::<1>(hashes, counters, hist),
                2 => add_histogram::<2>(hashes, counters, hist),
                3 => add_histogram::<3>(hashes, counters, hist),
                4 => add_histogram::<4>(hashes, counters, hist),
                5 => add_histogram::<5>(hashes, counters, hist),
                6 => add_histogram::<6>(hashes, counters, hist),
                7 => add_histogram::<7>(hashes, counters, hist),
                MAX_GROUP => add_histogram::<MAX_GROUP>(hashes, counters, hist),
                _ => unreachable!("chunks(MAX_GROUP) yields 1..=MAX_GROUP rows"),
            }
        }
        add(&self.total, hist.iter().map(|entry| entry.count).sum());
        #[cfg(debug_assertions)]
        self.writing.store(false, Ordering::Release);
    }

    /// Lock-free point query: the row-wise minimum under relaxed loads —
    /// an overestimate of `item`'s frequency in every fully visible prefix
    /// and never more than `f + ε·m` (w.h.p.) over the whole stream.
    pub fn query(&self, item: u64) -> u64 {
        self.rows()
            .map(|(hash, row)| row[column(hash, item)].load(Ordering::Relaxed))
            .min()
            .unwrap_or(0)
    }

    /// Total mass the writer has recorded so far (trails the counters; see
    /// the field docs).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// The error parameter ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The failure probability δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The hash seed the rows were derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// The largest number of rows one [`add_histogram`] instance covers.
const MAX_GROUP: usize = 8;

/// The ingest kernel: adds `hist` to the `D` rows `counters` holds (row
/// major, `D × width`), row `i` hashed by `hashes[i]`. With `D` a constant
/// the row loops unroll, the hash parameters stay in registers, and the
/// `D` columns of one entry are `D` independent multiply chains the CPU
/// overlaps. Entry-major order: a histogram entry's `D` adds are issued
/// together and each row's counters are visited in hash order.
fn add_histogram<const D: usize>(
    hashes: &[PairMultiplyShiftHash],
    counters: &[AtomicU64],
    hist: &[HistogramEntry],
) {
    let hashes: [PairMultiplyShiftHash; D] = std::array::from_fn(|row| hashes[row]);
    let width = counters.len() / D;
    let rows: [&[AtomicU64]; D] =
        std::array::from_fn(|row| &counters[row * width..(row + 1) * width]);
    for entry in hist {
        let columns: [usize; D] = std::array::from_fn(|row| column(&hashes[row], entry.item));
        for (row, &at) in rows.iter().zip(&columns) {
            add(&row[at], entry.count);
        }
    }
}

/// The single writer's add: nothing else stores to `counter`, so a relaxed
/// load and a relaxed store of the sum lose no increment (module docs).
#[inline]
fn add(counter: &AtomicU64, count: u64) {
    counter.store(counter.load(Ordering::Relaxed) + count, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn hist_of(batch: &[u64]) -> Vec<HistogramEntry> {
        let mut counts = std::collections::HashMap::new();
        for &x in batch {
            *counts.entry(x).or_insert(0u64) += 1;
        }
        counts
            .into_iter()
            .map(|(item, count)| HistogramEntry { item, count })
            .collect()
    }

    #[test]
    fn matches_the_plain_sketch_exactly() {
        let atomic = AtomicCountMin::new(0.01, 0.02, 42);
        let mut plain = ParallelCountMin::new(0.01, 0.02, 42);
        let mut state = 1u64;
        for _ in 0..20 {
            let batch: Vec<u64> = (0..500)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 33) % 300
                })
                .collect();
            let hist = hist_of(&batch);
            atomic.ingest_histogram(&hist);
            plain.ingest_histogram(&hist);
        }
        assert_eq!(atomic.total(), plain.total());
        for item in 0..300u64 {
            assert_eq!(atomic.query(item), plain.query(item));
        }
        // The snapshot is byte-equal state: same counters, same params.
        assert_eq!(atomic.to_parallel(), plain);
    }

    #[test]
    fn kernel_matches_per_entry_updates_at_every_depth() {
        // Depths 1..=8 each have their own instance of the kernel; depth 9
        // runs the 8-row one and then the 1-row one. Whatever the depth,
        // the matrix must equal per-entry `CountMinSketch::update`s counter
        // for counter. Three widths: the benchmark's, one narrower than the
        // histogram (every column is hit several times per call), and the
        // narrowest there is.
        let mut state = 3u64;
        let mut random = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        let spread: Vec<HistogramEntry> = (0..700)
            .map(|_| HistogramEntry {
                item: random(),
                count: 1 + random() % 5,
            })
            .collect();
        // Edge histograms: entries that add nothing, and one key repeated
        // back to back (each add must see the one before it).
        let zeros: Vec<HistogramEntry> = (0..40u64)
            .map(|item| HistogramEntry {
                item,
                count: item % 2,
            })
            .collect();
        let repeated = vec![HistogramEntry { item: 77, count: 3 }; 50];
        for depth in 1..=9usize {
            let delta = (0.5 - depth as f64).exp();
            for epsilon in [0.0005, 0.02, 0.99] {
                let atomic = AtomicCountMin::new(epsilon, delta, 19);
                let mut plain = CountMinSketch::new(epsilon, delta, 19);
                assert_eq!(plain.depth(), depth);
                for hist in [&spread, &zeros, &repeated, &spread] {
                    atomic.ingest_histogram(hist);
                    for entry in hist.iter() {
                        plain.update(entry.item, entry.count);
                    }
                }
                assert_eq!(
                    atomic.to_parallel(),
                    ParallelCountMin::from_sketch_with_seed(plain, 19),
                    "depth {depth}, epsilon {epsilon}"
                );
                assert_eq!(atomic.query(77), atomic.to_parallel().query(77));
            }
        }
    }

    #[test]
    #[should_panic(expected = "2^32")]
    fn epsilon_too_small_for_a_32_bit_width_is_rejected() {
        let _ = AtomicCountMin::new(6e-10, 0.5, 0);
    }

    #[test]
    fn roundtrips_through_parallel_for_recovery() {
        let mut plain = ParallelCountMin::new(0.05, 0.05, 9);
        plain.process_minibatch(&[1, 1, 2, 3, 3, 3]);
        let atomic = AtomicCountMin::from_parallel(&plain);
        assert_eq!(atomic.to_parallel(), plain);
        assert_eq!(atomic.query(3), plain.query(3));
        // The rehydrated sketch keeps ingesting correctly.
        atomic.ingest_histogram(&[HistogramEntry { item: 3, count: 4 }]);
        assert_eq!(atomic.query(3), plain.query(3) + 4);
    }

    #[test]
    fn concurrent_readers_stay_monotone_and_end_exact() {
        // One load+store writer, several readers: every reader's estimate
        // of each key (and of the total) must be monotone, and the final
        // state exact. The barrier starts everyone together and the writer
        // keeps going until every reader has queried through at least 200
        // of its rounds, so reads really do overlap writes.
        const KEYS: [u64; 3] = [77, 78, 1 << 40];
        let sketch = Arc::new(AtomicCountMin::new(0.01, 0.01, 7));
        let stop = Arc::new(AtomicBool::new(false));
        let start = Arc::new(std::sync::Barrier::new(4));
        let progress: Arc<Vec<AtomicU64>> = Arc::new((0..3).map(|_| AtomicU64::new(0)).collect());
        let readers: Vec<_> = (0..3)
            .map(|id| {
                let (sketch, stop, start, progress) = (
                    sketch.clone(),
                    stop.clone(),
                    start.clone(),
                    progress.clone(),
                );
                std::thread::spawn(move || {
                    let mut last = [0u64; 4];
                    start.wait();
                    while !stop.load(Ordering::Acquire) {
                        let seen = [
                            sketch.query(KEYS[0]),
                            sketch.query(KEYS[1]),
                            sketch.query(KEYS[2]),
                            sketch.total(),
                        ];
                        for (now, before) in seen.iter().zip(&last) {
                            assert!(now >= before, "went backwards: {now} < {before}");
                        }
                        last = seen;
                        progress[id].fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        let hist: Vec<HistogramEntry> = KEYS
            .iter()
            .map(|&item| HistogramEntry { item, count: 3 })
            .collect();
        start.wait();
        let mut rounds = 0u64;
        while rounds < 2_000 || progress.iter().any(|p| p.load(Ordering::Relaxed) < 200) {
            // A reader that failed its assertion makes no more progress;
            // stop and let its join report the panic.
            if readers.iter().any(|r| r.is_finished()) {
                break;
            }
            sketch.ingest_histogram(&hist);
            rounds += 1;
            if rounds.is_multiple_of(64) {
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Release);
        for r in readers {
            r.join().unwrap();
        }
        for key in KEYS {
            assert_eq!(sketch.query(key), 3 * rounds);
        }
        assert_eq!(sketch.total(), 9 * rounds);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "single-writer contract")]
    fn overlapping_writers_are_caught_in_debug_builds() {
        // A second writer arriving while the flag is up is exactly what a
        // concurrent `ingest_histogram` would look like from the inside.
        let sketch = AtomicCountMin::new(0.1, 0.1, 1);
        sketch.writing.store(true, Ordering::Release);
        sketch.ingest_histogram(&[HistogramEntry { item: 1, count: 1 }]);
    }
}
