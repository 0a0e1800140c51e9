//! E4 bench: infinite-window frequency estimation — the parallel shared
//! Misra–Gries summary (Theorem 5.2) vs the sequential per-element baselines,
//! plus the `MGaugment` kernel the engine's shard workers run.

mod common;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
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

criterion_group! {
    name = benches;
    config = common::config();
    targets = bench_mg, bench_augment
}
criterion_main!(benches);
