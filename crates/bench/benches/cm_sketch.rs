//! E6 bench: Count-Min sketch — parallel minibatch ingestion (Theorem 6.1)
//! vs classic per-element updates, plus query cost, plus the update the
//! engine's shard workers run (`AtomicCountMin::ingest_histogram`).

mod common;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use psfa::prelude::*;
use psfa::primitives::HistogramEntry;
use psfa_bench::zipf_minibatches;

fn bench_cm(c: &mut Criterion) {
    let mut group = c.benchmark_group("count_min");
    let batch = &zipf_minibatches(500_000, 1.05, 1, 20_000, 11)[0];
    for &(eps, delta) in &[(1e-3f64, 0.01f64), (1e-4, 0.004)] {
        group.bench_with_input(
            BenchmarkId::new("parallel_minibatch_20k", format!("eps{eps}")),
            &eps,
            |b, _| {
                let warmed = AtomicCountMin::new(eps, delta, 1);
                b.iter_batched(
                    || warmed.clone(),
                    |mut cm| cm.process_minibatch(batch),
                    BatchSize::SmallInput,
                )
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sequential_elements_20k", format!("eps{eps}")),
            &eps,
            |b, _| {
                let warmed = AtomicCountMin::new(eps, delta, 1);
                b.iter_batched(
                    || warmed.clone(),
                    |mut cm| {
                        for &x in batch {
                            cm.update(x, 1);
                        }
                    },
                    BatchSize::SmallInput,
                )
            },
        );
    }
    group.bench_function("point_query", |b| {
        let mut cm = AtomicCountMin::new(1e-4, 0.004, 1);
        cm.process_minibatch(batch);
        let mut item = 0u64;
        b.iter(|| {
            item = (item + 1) % 1000;
            cm.query(item)
        })
    });
    // What a shard worker does per sub-batch on `ingest_flat_window`: the
    // repo benchmark's `(ε, δ)` (5437 × 5 counters), one histogram of 8,192
    // distinct keys spread over the key space, added to a sketch that stays
    // warm between iterations.
    let hist: Vec<HistogramEntry> = (0..8192u64)
        .map(|i| HistogramEntry {
            item: i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            count: 1 + i % 3,
        })
        .collect();
    group.throughput(Throughput::Elements(hist.len() as u64));
    group.bench_function("atomic_ingest_histogram_8192_distinct", |b| {
        let cm = AtomicCountMin::new(0.0005, 0.01, 1);
        b.iter(|| cm.ingest_histogram(&hist))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = common::config();
    targets = bench_cm
}
criterion_main!(benches);
