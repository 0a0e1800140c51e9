//! Ablation bench: the paper's `buildHist` (hash + integer
//! sort + collectBin, Theorem 2.3) vs a fold/reduce hash-map histogram, for
//! varying numbers of distinct items in the minibatch.

mod common;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use psfa::prelude::*;
use psfa::primitives::{build_hist, build_hist_hashmap};
use psfa_bench::zipf_minibatches;

fn bench_hist(c: &mut Criterion) {
    let mut group = c.benchmark_group("hist_ablation");
    for &universe in &[100u64, 10_000, 1_000_000] {
        let batch = &zipf_minibatches(universe, 0.8, 1, 50_000, 3)[0];
        group.bench_with_input(
            BenchmarkId::new("build_hist_50k", universe),
            &universe,
            |b, _| {
                b.iter_batched(
                    || batch.clone(),
                    |items| build_hist(&items, 7),
                    BatchSize::SmallInput,
                )
            },
        );
        group.bench_with_input(
            BenchmarkId::new("hashmap_fold_reduce_50k", universe),
            &universe,
            |b, _| {
                b.iter_batched(
                    || batch.clone(),
                    |items| build_hist_hashmap(&items),
                    BatchSize::SmallInput,
                )
            },
        );
    }
    // CSS construction, the other §2 primitive, for context.
    let mut generator = BinaryStreamGenerator::new(0.5, 1);
    let bits = generator.next_bits(50_000);
    group.bench_function("css_from_bits_50k", |b| {
        b.iter(|| CompactedSegment::from_bits(&bits))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = common::config();
    targets = bench_hist
}
criterion_main!(benches);
