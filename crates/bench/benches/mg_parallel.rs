//! E4 bench: infinite-window frequency estimation — the parallel shared
//! Misra–Gries summary (Theorem 5.2) vs the sequential per-element baselines,
//! plus the `MGaugment` kernel the engine's shard workers run and the
//! engine's cross-shard heavy-hitter report.

mod common;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use psfa::freq::{heavy_hitter_candidates, heavy_hitter_report, heavy_hitter_report_across};
use psfa::prelude::*;
use psfa::primitives::{build_hist, HistogramEntry};
use psfa_bench::zipf_minibatches;

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
/// `candidates` is the engine's query — the global pigeonhole test over
/// each shard's published candidates, and each survivor summed where hash
/// routing places it, one binary search on its owner; `merge_oracle` sums every shard's entries with
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
        let sum = |item: u64| -> u64 {
            let owner = &entries[shard_of(item, shards)];
            owner
                .binary_search_by_key(&item, |&(i, _)| i)
                .map_or(0, |at| owner[at].1)
        };
        group.bench_function(BenchmarkId::new("candidates", shards), |b| {
            b.iter(|| heavy_hitter_report_across(&candidates, sum, PHI, EPSILON, m))
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

criterion_group! {
    name = benches;
    config = common::config();
    targets = bench_mg, bench_augment, bench_heavy_hitters_across
}
criterion_main!(benches);
