//! What folding queued sub-batches buys a shard worker: buildHist +
//! MGaugment + Count-Min per item for a minibatch of 1, 4 and 16 Zipf(1.2)
//! 8,192-item sub-batches, at the repo benchmark's `ε = 0.001` and Count-Min
//! `(ε, δ)`. The per-minibatch `O(S)` cut is paid once per fold, and a
//! skewed minibatch has fewer distinct keys per item the longer it is.
//!
//! The sub-batches are concatenated up front and counted with
//! `build_hist_into`, so the bench also builds against a revision that
//! predates `build_hist_runs`. Melem/s is per item.

mod common;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use psfa::prelude::*;
use psfa::primitives::build_hist_into;
use psfa_bench::zipf_minibatches;

/// Folded minibatches cycled through per fold width, so the summaries see
/// a moving stream rather than one minibatch over and over.
const ROUNDS: usize = 8;

fn bench_fold(c: &mut Criterion) {
    let mut group = c.benchmark_group("minibatch_fold");
    for fold in [1usize, 4, 16] {
        let minibatches: Vec<Vec<u64>> = zipf_minibatches(200_000, 1.2, fold * ROUNDS, 8192, 7)
            .chunks(fold)
            .map(|subs| subs.concat())
            .collect();
        group.throughput(Throughput::Elements((fold * 8192) as u64));
        group.bench_function(format!("zipf1.2_{fold}x8192"), |b| {
            let mut heavy_hitters = InfiniteHeavyHitters::new(0.01, 0.001);
            let count_min = AtomicCountMin::new(0.0005, 0.01, 1);
            let mut scratch = HistScratch::new();
            let mut hist = Vec::new();
            let mut round = 0;
            b.iter(|| {
                let minibatch = &minibatches[round % ROUNDS];
                round += 1;
                build_hist_into(minibatch, round as u64, &mut scratch, &mut hist);
                heavy_hitters.process_histogram(&hist, minibatch.len() as u64);
                count_min.ingest_histogram(&hist);
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = common::config();
    targets = bench_fold
}
criterion_main!(benches);
