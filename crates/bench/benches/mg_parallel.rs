//! E4 bench: infinite-window frequency estimation — the parallel shared
//! Misra–Gries summary (Theorem 5.2) vs the sequential per-element baselines,
//! plus the `MGaugment` kernel the engine's shard workers run, the
//! engine's cross-shard heavy-hitter report, and the point lookup its
//! snapshots answer `estimate` with.

mod common;
/// The engine's snapshot index is crate-private; the bench compiles the
/// same source file so it times exactly the code the engine runs.
#[path = "../../engine/src/point_index.rs"]
mod point_index;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use psfa::freq::{heavy_hitter_candidates, heavy_hitter_report, heavy_hitter_report_across};
use psfa::prelude::*;
use psfa::primitives::{build_hist, HistogramEntry, KeyMixBuildHasher};
use psfa_bench::zipf_minibatches;
use std::hint::black_box;

use point_index::PointIndex;

fn bench_mg(c: &mut Criterion) {
    let mut group = c.benchmark_group("mg_infinite_window");
    let batch = &zipf_minibatches(200_000, 1.2, 1, 20_000, 3)[0];
    for &eps in &[0.01f64, 0.001] {
        group.bench_with_input(BenchmarkId::new("parallel_mg_20k", eps), &eps, |b, _| {
            let mut warmed = ParallelFrequencyEstimator::new(eps);
            for w in zipf_minibatches(200_000, 1.2, 5, 20_000, 4) {
                warmed.process_minibatch(&w);
            }
            b.iter_batched(
                || warmed.clone(),
                |mut est| est.process_minibatch(batch),
                BatchSize::SmallInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("sequential_mg_20k", eps), &eps, |b, _| {
            let mut warmed = SequentialMisraGries::new(eps);
            for w in zipf_minibatches(200_000, 1.2, 5, 20_000, 4) {
                warmed.update_all(&w);
            }
            b.iter_batched(
                || warmed.clone(),
                |mut est| est.update_all(batch),
                BatchSize::SmallInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("space_saving_20k", eps), &eps, |b, _| {
            let mut warmed = SpaceSaving::new(eps);
            for w in zipf_minibatches(200_000, 1.2, 5, 20_000, 4) {
                warmed.update_all(&w);
            }
            b.iter_batched(
                || warmed.clone(),
                |mut est| est.update_all(batch),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// What a shard worker's tracker and open pane each do per sub-batch:
/// `MGaugment` at the repo benchmark's `ε = 0.001` (`S = 1000`), one
/// 8,192-item histogram merged into a summary first warmed on Zipf traffic.
/// Iterations reuse that one summary, so each input is timed against the
/// state a stream of such batches settles into. The uniform input cuts at
/// `ϕ = 1` every time: the Zipf counters drain away except key 0's (the
/// heaviest Zipf key is also a uniform key, so it gains 1 and loses 1 per
/// batch), leaving a nearly empty table — like `ingest_flat_window`'s
/// tracker, which holds the few keys its last batch saw twice. (A table
/// drained to empty would time the hash map's empty-table shortcut
/// instead.) The Zipf input settles on that histogram's heavy keys.
fn bench_augment(c: &mut Criterion) {
    let mut group = c.benchmark_group("mg_augment");
    // All singletons: `ingest_flat_window`'s shape.
    let uniform: Vec<HistogramEntry> = (0..8192u64)
        .map(|i| HistogramEntry {
            item: i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            count: 1,
        })
        .collect();
    let zipf = build_hist(&zipf_minibatches(200_000, 1.2, 1, 8192, 5)[0], 0);
    for (name, hist) in [
        ("uniform_8192_distinct", &uniform),
        ("zipf1.2_8192_items", &zipf),
    ] {
        group.throughput(Throughput::Elements(hist.len() as u64));
        group.bench_function(name, |b| {
            let mut summary = MgSummary::new(1000);
            for batch in zipf_minibatches(200_000, 1.2, 5, 8192, 4) {
                summary.augment(&build_hist(&batch, 0));
            }
            b.iter(|| summary.augment(hist))
        });
    }
    group.finish();
}

/// The φ-heavy-hitter query across shards at the repo benchmark's
/// `φ = 0.01`, `ε = 0.001`: each shard's summary holds `S = 1000` entries
/// of a hash-partitioned Zipf(1.2) stream, at 2 and 8 shards.
/// `homed` is the engine's query — the global pigeonhole test over each
/// shard's published candidates, each survivor reported from its owner's
/// entry, since hash routing places every key on one shard; `candidates`
/// treats every key as spread, so each survivor is deduplicated and
/// summed, one lookup in its owner's point index (what a replicated key
/// costs); `merge_oracle` sums every shard's entries with
/// `merge_sum` and reports over the sum. `publish_filter` is the
/// publication-time cost the candidates move off the query: one
/// `heavy_hitter_candidates` pass per shard.
fn bench_heavy_hitters_across(c: &mut Criterion) {
    const PHI: f64 = 0.01;
    const EPSILON: f64 = 0.001;
    let mut group = c.benchmark_group("heavy_hitters_across");
    for shards in [2usize, 8] {
        let mut estimators = vec![ParallelFrequencyEstimator::new(EPSILON); shards];
        for batch in zipf_minibatches(1_000_000, 1.2, 40, 50_000, 6) {
            let mut parts = vec![Vec::new(); shards];
            for item in batch {
                parts[shard_of(item, shards)].push(item);
            }
            for (estimator, part) in estimators.iter_mut().zip(&parts) {
                estimator.process_minibatch(part);
            }
        }
        let entries: Vec<Vec<(u64, u64)>> = estimators
            .iter()
            .map(ParallelFrequencyEstimator::tracked_items_sorted)
            .collect();
        let lengths: Vec<u64> = estimators.iter().map(|e| e.stream_len()).collect();
        let m: u64 = lengths.iter().sum();
        let filter = || -> Vec<Vec<(u64, u64)>> {
            entries
                .iter()
                .zip(&lengths)
                .map(|(e, &n_s)| heavy_hitter_candidates(e, PHI, EPSILON, shards as u64, n_s))
                .collect()
        };
        let candidates = filter();
        let indexes: Vec<PointIndex> = entries
            .iter()
            .map(|e| PointIndex::build(e, KeyMixBuildHasher::new()))
            .collect();
        let sum = |item: u64| -> u64 {
            let owner = shard_of(item, shards);
            indexes[owner].value(&entries[owner], item)
        };
        let lists = || candidates.iter().map(Vec::as_slice);
        group.bench_function(BenchmarkId::new("candidates", shards), |b| {
            b.iter(|| heavy_hitter_report_across(lists(), |_| None, sum, PHI, EPSILON, m))
        });
        let home = |item: u64| Some(shard_of(item, shards));
        group.bench_function(BenchmarkId::new("homed", shards), |b| {
            b.iter(|| heavy_hitter_report_across(lists(), home, sum, PHI, EPSILON, m))
        });
        group.bench_function(BenchmarkId::new("merge_oracle", shards), |b| {
            b.iter(|| {
                let merged = entries
                    .iter()
                    .fold(Vec::new(), |acc, e| psfa::freq::merge_sum(&acc, e));
                heavy_hitter_report(merged, PHI, EPSILON, m)
            })
        });
        group.bench_function(BenchmarkId::new("publish_filter", shards), |b| {
            b.iter(filter)
        });
    }
    group.finish();
}

/// The engine's point query on one shard snapshot at the repo benchmark's
/// `ε = 0.001`: the hashed index every snapshot carries against a binary
/// search over the same item-sorted entries — `S ≈ 1,000` Misra–Gries
/// entries of a Zipf(1.2) stream, probed at each tracked item and at as
/// many untracked ones (Melem/s per lookup) — and `index_build`, the `O(S)`
/// pass each publication pays for the index (Melem/s per entry).
fn bench_point_query(c: &mut Criterion) {
    let mut estimator = ParallelFrequencyEstimator::new(0.001);
    for batch in zipf_minibatches(1_000_000, 1.2, 40, 50_000, 7) {
        estimator.process_minibatch(&batch);
    }
    let entries = estimator.tracked_items_sorted();
    let probes: Vec<u64> = entries
        .iter()
        .flat_map(|&(item, _)| [item, item | 1 << 63])
        .collect();
    let hasher = KeyMixBuildHasher::new();
    let index = PointIndex::build(&entries, hasher.clone());
    let mut group = c.benchmark_group("point_query");
    group.throughput(Throughput::Elements(probes.len() as u64));
    group.bench_function(BenchmarkId::new("index_lookup", entries.len()), |b| {
        b.iter(|| {
            probes
                .iter()
                .map(|&item| index.value(&entries, black_box(item)))
                .sum::<u64>()
        })
    });
    group.bench_function(BenchmarkId::new("binary_search", entries.len()), |b| {
        b.iter(|| {
            probes
                .iter()
                .map(|&item| {
                    entries
                        .binary_search_by_key(&black_box(item), |&(i, _)| i)
                        .map_or(0, |at| entries[at].1)
                })
                .sum::<u64>()
        })
    });
    group.throughput(Throughput::Elements(entries.len() as u64));
    group.bench_function(BenchmarkId::new("index_build", entries.len()), |b| {
        b.iter(|| PointIndex::build(black_box(&entries), hasher.clone()))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = common::config();
    targets = bench_mg, bench_augment, bench_heavy_hitters_across, bench_point_query
}
criterion_main!(benches);
