//! E2 bench: basic counting minibatch ingestion — the parallel SBBC ladder
//! (Theorem 4.1) vs the sequential DGIM exponential histogram, and the
//! per-level parallel vs sequential ablation of that theorem's ladder.

mod common;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use psfa::prelude::*;
use psfa_bench::binary_minibatches;

fn bench_basic_counting(c: &mut Criterion) {
    let mut group = c.benchmark_group("basic_counting");
    let n = 1u64 << 18;
    let batch = &binary_minibatches(0.3, 1, 16_384, 7)[0];
    for &eps in &[0.1f64, 0.01] {
        let mut warmed = BasicCounter::new(eps, n);
        for bits in binary_minibatches(0.3, 10, 16_384, 8) {
            warmed.advance_bits(&bits);
        }
        group.bench_with_input(
            BenchmarkId::new("parallel_sbbc_ladder", eps),
            &eps,
            |b, _| {
                b.iter_batched(
                    || warmed.clone(),
                    |mut counter| counter.advance_bits(batch),
                    BatchSize::SmallInput,
                )
            },
        );
        let mut dgim = DgimCounter::new(eps, n);
        for bits in binary_minibatches(0.3, 10, 16_384, 8) {
            dgim.update_all(&bits);
        }
        group.bench_with_input(BenchmarkId::new("dgim_sequential", eps), &eps, |b, _| {
            b.iter_batched(
                || dgim.clone(),
                |mut counter| counter.update_all(batch),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = common::config();
    targets = bench_basic_counting
}
criterion_main!(benches);
