//! Regenerates every experiment in DESIGN.md §4 (E1–E8, F2) plus the engine
//! serving experiment (E9), the skew-aware routing experiment (E10), the
//! persistence-overhead experiment (E11), the global-sliding-window
//! experiment (E12), the ingest-hot-path experiment (E13), the
//! observability-overhead experiment (E14), the serving-front-end
//! experiment (E15), and the fault-tolerance experiment (E17), and prints
//! the result tables recorded in EXPERIMENTS.md. (E16 is retired; its
//! records stay in `BENCH_8.json` / `BENCH_9.json`.)
//!
//! Usage:
//! ```text
//! cargo run --release -p psfa-bench --bin reproduce            # all experiments
//! cargo run --release -p psfa-bench --bin reproduce -- --exp e4
//! cargo run --release -p psfa-bench --bin reproduce -- --quick # small batch counts
//! cargo run --release -p psfa-bench --bin reproduce -- --bench-json BENCH.json
//! ```
//!
//! `--quick` divides every experiment's batch count by 8 (minimum 3) so a
//! full sweep finishes in seconds — for CI smoke runs and local iteration;
//! recorded numbers should come from a full run. `--bench-json <path>`
//! additionally writes the measurements as machine-readable records — one
//! `{experiment, config, items_per_sec}` object per throughput measurement,
//! one `{experiment, config, metric, p50_ns, …, p999_ns}` object per
//! latency distribution, one `{experiment, config, metric, requests,
//! busy, p50_ns, p99_ns, p999_ns}` object per open-loop request-latency
//! distribution, and one `{experiment, config, faults_*, queries_*,
//! unavail_*_ns}` object per fault-injection availability run (the
//! committed `BENCH_<pr>.json` trajectory).

use std::collections::HashMap;

use psfa::prelude::*;
use psfa_bench::hotpath::{drive_shards, pre_split, HotPathParams, HotShardLoop, LegacyShardLoop};
use psfa_bench::{
    alloc_counter, bench_json, binary_minibatches, exact_window_counts, header, row, threads,
    timed, zipf_minibatches,
};

/// Counting-allocator shim: E13's allocation audit asserts the recycled
/// ingest path performs zero steady-state allocations, which requires the
/// global allocator to count (two relaxed atomic adds per allocation —
/// noise-floor overhead for every other experiment).
#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

/// Number of batches to drive: the experiment's full count, or a small
/// count under `--quick`.
fn scaled(full: usize, quick: bool) -> usize {
    if quick {
        (full / 8).max(3)
    } else {
        full
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let selected = args
        .iter()
        .position(|a| a == "--exp")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.to_lowercase());
    let want = |name: &str| selected.as_deref().is_none_or(|s| s == name);
    let quick = args.iter().any(|a| a == "--quick");
    let bench_json_path = args
        .iter()
        .position(|a| a == "--bench-json")
        .and_then(|i| args.get(i + 1))
        .cloned();

    println!(
        "PSFA experiment reproduction (rayon threads = {}{})\n",
        threads(),
        if quick { ", --quick" } else { "" }
    );
    if want("e1") {
        e1_sbbc(quick);
    }
    if want("e2") {
        e2_basic_counting(quick);
    }
    if want("e3") {
        e3_sum(quick);
    }
    if want("e4") {
        e4_infinite_window(quick);
    }
    if want("e5") {
        e5_sliding_variants(quick);
    }
    if want("e6") {
        e6_count_min(quick);
    }
    if want("e7") {
        e7_independent_vs_shared(quick);
    }
    if want("e8") {
        e8_work_optimality(quick);
    }
    if want("e9") {
        e9_engine(quick);
    }
    if want("e10") {
        e10_skew_routing(quick);
    }
    if want("e11") {
        e11_persistence(quick);
    }
    if want("e12") {
        e12_global_window(quick);
    }
    if want("e13") {
        e13_hot_path(quick);
    }
    if want("e14") {
        e14_observability(quick);
    }
    if want("e15") {
        e15_serving(quick);
    }
    if want("e17") {
        e17_fault_tolerance(quick);
    }
    if want("f2") {
        f2_snapshot_example();
    }
    if let Some(path) = bench_json_path {
        let written = bench_json::write_to(&path)
            .unwrap_or_else(|e| panic!("failed to write bench json to {path}: {e}"));
        println!("wrote {written} bench records to {path}");
    }
}

/// E1 — SBBC value bounds and space (Theorem 3.4, Lemma 3.2).
fn e1_sbbc(quick: bool) {
    println!(
        "== E1: space-bounded block counter — additive error ≤ λ, space ≤ min{{2σ+2, 2m/λ+2}} =="
    );
    println!(
        "{}",
        header(&[
            "lambda",
            "density",
            "max add err",
            "bound λ",
            "blocks",
            "2m/λ+2"
        ])
    );
    let n = 50_000u64;
    for &lambda in &[8u64, 32, 128] {
        for &density in &[0.05f64, 0.5] {
            let batches = binary_minibatches(density, scaled(40, quick), 5_000, lambda ^ 7);
            let mut sbbc = Sbbc::unbounded(lambda, n);
            let mut history: Vec<bool> = Vec::new();
            let mut max_err = 0i64;
            for bits in &batches {
                sbbc.advance(&CompactedSegment::from_bits(bits));
                history.extend_from_slice(bits);
                let start = history.len().saturating_sub(n as usize);
                let m = history[start..].iter().filter(|&&b| b).count() as i64;
                let est = sbbc.value().expect("unbounded counter") as i64;
                max_err = max_err.max(est - m);
                assert!(est >= m, "SBBC must never undercount");
            }
            let start = history.len().saturating_sub(n as usize);
            let m = history[start..].iter().filter(|&&b| b).count() as u64;
            println!(
                "{}",
                row(&[
                    lambda.to_string(),
                    format!("{density:.2}"),
                    max_err.to_string(),
                    lambda.to_string(),
                    sbbc.space_blocks().to_string(),
                    (2 * m / lambda + 2).to_string(),
                ])
            );
        }
    }
    println!();
}

/// E2 — basic counting vs the DGIM sequential baseline (Theorem 4.1).
fn e2_basic_counting(quick: bool) {
    println!(
        "== E2: basic counting over a sliding window — ε relative error, O(ε⁻¹ log n) space =="
    );
    println!(
        "{}",
        header(&["eps", "n", "algo", "Mitems/s", "max rel err", "space"])
    );
    let n = 1u64 << 18;
    for &eps in &[0.1f64, 0.01] {
        let batches = binary_minibatches(0.3, scaled(60, quick), 8_192, 42);
        let total_items: usize = batches.iter().map(Vec::len).sum();

        let mut counter = BasicCounter::new(eps, n);
        let mut history: Vec<bool> = Vec::new();
        let mut max_rel = 0.0f64;
        let (_, secs) = timed(|| {
            for bits in &batches {
                counter.advance_bits(bits);
            }
        });
        for bits in &batches {
            history.extend_from_slice(bits);
        }
        let start = history.len().saturating_sub(n as usize);
        let m = history[start..].iter().filter(|&&b| b).count() as f64;
        max_rel = max_rel.max((counter.estimate() as f64 - m) / m.max(1.0));
        println!(
            "{}",
            row(&[
                format!("{eps}"),
                n.to_string(),
                "parallel-sbbc".into(),
                format!("{:.2}", total_items as f64 / secs / 1e6),
                format!("{max_rel:.4}"),
                format!("{} blocks", counter.space_blocks()),
            ])
        );

        let mut dgim = DgimCounter::new(eps, n);
        let (_, secs) = timed(|| {
            for bits in &batches {
                dgim.update_all(bits);
            }
        });
        let rel = (dgim.estimate() as f64 - m).abs() / m.max(1.0);
        println!(
            "{}",
            row(&[
                format!("{eps}"),
                n.to_string(),
                "dgim-seq".into(),
                format!("{:.2}", total_items as f64 / secs / 1e6),
                format!("{rel:.4}"),
                format!("{} buckets", dgim.num_buckets()),
            ])
        );
    }
    println!();
}

/// E3 — windowed sum of bounded integers (Theorem 4.2).
fn e3_sum(quick: bool) {
    println!("== E3: sliding-window sum of integers in [0, R] — ε relative error ==");
    println!(
        "{}",
        header(&["eps", "R", "Mitems/s", "rel err", "space (blocks)"])
    );
    let n = 1u64 << 16;
    for &(eps, max_value) in &[(0.05f64, 255u64), (0.05, 65_535), (0.01, 65_535)] {
        let mut generator = BinaryStreamGenerator::new(0.6, 9);
        let batches: Vec<Vec<u64>> = (0..scaled(40, quick))
            .map(|_| generator.next_values(4096, max_value))
            .collect();
        let total_items: usize = batches.iter().map(Vec::len).sum();
        let mut sum = WindowedSum::new(eps, n, max_value);
        let (_, secs) = timed(|| {
            for values in &batches {
                sum.advance(values);
            }
        });
        let history: Vec<u64> = batches.concat();
        let start = history.len().saturating_sub(n as usize);
        let truth: u64 = history[start..].iter().sum();
        let rel = (sum.estimate() as f64 - truth as f64) / truth.max(1) as f64;
        println!(
            "{}",
            row(&[
                format!("{eps}"),
                max_value.to_string(),
                format!("{:.2}", total_items as f64 / secs / 1e6),
                format!("{rel:.4}"),
                sum.space_blocks().to_string(),
            ])
        );
    }
    println!();
}

/// E4 — infinite-window frequency estimation / heavy hitters (Theorem 5.2).
fn e4_infinite_window(quick: bool) {
    println!(
        "== E4: infinite-window frequency estimation — parallel MG vs sequential baselines =="
    );
    println!(
        "{}",
        header(&[
            "eps",
            "workload",
            "algo",
            "Mitems/s",
            "max err/εm",
            "counters"
        ])
    );
    for &eps in &[0.01f64, 0.001] {
        for &(alpha, label) in &[(1.2f64, "zipf1.2"), (0.0, "uniform")] {
            let batches = zipf_minibatches(200_000, alpha, scaled(40, quick), 20_000, 7);
            let total_items: usize = batches.iter().map(Vec::len).sum();
            let mut truth: HashMap<u64, u64> = HashMap::new();
            for b in &batches {
                for &x in b {
                    *truth.entry(x).or_insert(0) += 1;
                }
            }
            let m = total_items as f64;

            // Parallel shared-summary estimator (this paper).
            let mut parallel = ParallelFrequencyEstimator::new(eps);
            let (_, par_secs) = timed(|| {
                for b in &batches {
                    parallel.process_minibatch(b);
                }
            });
            let max_err = truth
                .iter()
                .map(|(&item, &f)| f.saturating_sub(parallel.estimate(item)) as f64)
                .fold(0.0f64, f64::max);
            println!(
                "{}",
                row(&[
                    format!("{eps}"),
                    label.into(),
                    "parallel-mg".into(),
                    format!("{:.2}", m / par_secs / 1e6),
                    format!("{:.3}", max_err / (eps * m)),
                    parallel.num_counters().to_string(),
                ])
            );

            // Sequential Misra–Gries (the best sequential counterpart).
            let mut seq = SequentialMisraGries::new(eps);
            let (_, seq_secs) = timed(|| {
                for b in &batches {
                    seq.update_all(b);
                }
            });
            let max_err = truth
                .iter()
                .map(|(&item, &f)| f.saturating_sub(seq.estimate(item)) as f64)
                .fold(0.0f64, f64::max);
            println!(
                "{}",
                row(&[
                    format!("{eps}"),
                    label.into(),
                    "seq-mg".into(),
                    format!("{:.2}", m / seq_secs / 1e6),
                    format!("{:.3}", max_err / (eps * m)),
                    seq.num_counters().to_string(),
                ])
            );

            // Space-Saving, the other classic counter-based baseline.
            let mut ss = SpaceSaving::new(eps);
            let (_, ss_secs) = timed(|| {
                for b in &batches {
                    ss.update_all(b);
                }
            });
            println!(
                "{}",
                row(&[
                    format!("{eps}"),
                    label.into(),
                    "space-saving".into(),
                    format!("{:.2}", m / ss_secs / 1e6),
                    "n/a (overest)".into(),
                    ss.entries().len().to_string(),
                ])
            );
        }
    }
    println!();
}

/// E5 — the three sliding-window variants (Theorems 5.5, 5.8, 5.4).
fn e5_sliding_variants(quick: bool) {
    println!("== E5: sliding-window frequency estimation — basic vs space-efficient vs work-efficient ==");
    println!(
        "{}",
        header(&["eps", "n", "algo", "Mitems/s", "max err/εn", "counters"])
    );
    let eps = 0.01f64;
    let n = 1u64 << 18;
    let batches = zipf_minibatches(100_000, 1.1, scaled(40, quick), 10_000, 23);
    let history: Vec<u64> = batches.concat();
    let truth = exact_window_counts(&history, n);
    let total_items = history.len() as f64;

    fn run<E: SlidingFrequencyEstimator>(
        mut est: E,
        name: &str,
        batches: &[Vec<u64>],
        truth: &HashMap<u64, u64>,
        eps: f64,
        n: u64,
        total_items: f64,
    ) -> String {
        let (_, secs) = timed(|| {
            for b in batches {
                est.process_minibatch(b);
            }
        });
        let max_err = truth
            .iter()
            .map(|(&item, &f)| f.saturating_sub(est.estimate(item)) as f64)
            .fold(0.0f64, f64::max);
        row(&[
            format!("{eps}"),
            n.to_string(),
            name.into(),
            format!("{:.2}", total_items / secs / 1e6),
            format!("{:.3}", max_err / (eps * n as f64)),
            est.num_counters().to_string(),
        ])
    }

    println!(
        "{}",
        run(
            SlidingFreqBasic::new(eps, n),
            "basic (Thm 5.5)",
            &batches,
            &truth,
            eps,
            n,
            total_items
        )
    );
    println!(
        "{}",
        run(
            SlidingFreqSpaceEfficient::new(eps, n),
            "space-eff (Thm 5.8)",
            &batches,
            &truth,
            eps,
            n,
            total_items
        )
    );
    println!(
        "{}",
        run(
            SlidingFreqWorkEfficient::new(eps, n),
            "work-eff (Thm 5.4)",
            &batches,
            &truth,
            eps,
            n,
            total_items
        )
    );
    // Exact baseline for context.
    let mut exact = ExactSlidingWindow::new(n);
    let (_, secs) = timed(|| {
        for b in &batches {
            exact.process_minibatch(b);
        }
    });
    println!(
        "{}",
        row(&[
            format!("{eps}"),
            n.to_string(),
            "exact (Θ(n) mem)".into(),
            format!("{:.2}", total_items / secs / 1e6),
            "0.000".into(),
            exact.num_distinct().to_string(),
        ])
    );
    println!();
}

/// E6 — parallel Count-Min minibatch ingestion (Theorem 6.1).
fn e6_count_min(quick: bool) {
    println!("== E6: count-min sketch — parallel minibatch ingestion vs per-element updates ==");
    println!(
        "{}",
        header(&[
            "eps",
            "delta",
            "algo",
            "Mitems/s",
            "err>εm items",
            "counters"
        ])
    );
    for &(eps, delta) in &[(1e-3f64, 0.01f64), (1e-4, 0.004)] {
        let batches = zipf_minibatches(500_000, 1.05, scaled(30, quick), 20_000, 13);
        let total: usize = batches.iter().map(Vec::len).sum();
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for b in &batches {
            for &x in b {
                *truth.entry(x).or_insert(0) += 1;
            }
        }
        let m = total as f64;

        let mut par = ParallelCountMin::new(eps, delta, 3);
        let (_, par_secs) = timed(|| {
            for b in &batches {
                par.process_minibatch(b);
            }
        });
        let violations = truth
            .iter()
            .filter(|(&item, &f)| par.query(item) as f64 > f as f64 + eps * m)
            .count();
        println!(
            "{}",
            row(&[
                format!("{eps}"),
                format!("{delta}"),
                "parallel-cm".into(),
                format!("{:.2}", m / par_secs / 1e6),
                format!("{violations}/{}", truth.len()),
                par.sketch().num_counters().to_string(),
            ])
        );

        let mut seq = CountMinSketch::new(eps, delta, 3);
        let (_, seq_secs) = timed(|| {
            for b in &batches {
                for &x in b {
                    seq.update(x, 1);
                }
            }
        });
        let violations = truth
            .iter()
            .filter(|(&item, &f)| seq.query(item) as f64 > f as f64 + eps * m)
            .count();
        println!(
            "{}",
            row(&[
                format!("{eps}"),
                format!("{delta}"),
                "seq-cm".into(),
                format!("{:.2}", m / seq_secs / 1e6),
                format!("{violations}/{}", truth.len()),
                seq.num_counters().to_string(),
            ])
        );
    }
    println!();
}

/// E7 — shared structure vs independent per-worker structures (Section 5.4).
fn e7_independent_vs_shared(quick: bool) {
    println!("== E7: shared summary vs independent per-worker summaries (mergeable, §5.4) ==");
    println!(
        "{}",
        header(&[
            "eps",
            "p",
            "algo",
            "total counters",
            "query time µs",
            "max err/εm"
        ])
    );
    let eps = 0.001f64;
    let batches = zipf_minibatches(300_000, 1.1, scaled(30, quick), 20_000, 31);
    let mut truth: HashMap<u64, u64> = HashMap::new();
    for b in &batches {
        for &x in b {
            *truth.entry(x).or_insert(0) += 1;
        }
    }
    let m: u64 = truth.values().sum();

    let mut shared = ParallelFrequencyEstimator::new(eps);
    for b in &batches {
        shared.process_minibatch(b);
    }
    let (_, q_secs) = timed(|| {
        let _ = shared.heavy_hitters(0.01);
    });
    let max_err = truth
        .iter()
        .map(|(&item, &f)| f.saturating_sub(shared.estimate(item)) as f64)
        .fold(0.0f64, f64::max);
    println!(
        "{}",
        row(&[
            format!("{eps}"),
            "-".into(),
            "shared (this paper)".into(),
            shared.num_counters().to_string(),
            format!("{:.1}", q_secs * 1e6),
            format!("{:.3}", max_err / (eps * m as f64)),
        ])
    );

    for &p in &[2usize, 4, 8, 16] {
        let mut independent = IndependentMgSummaries::new(eps, p);
        for b in &batches {
            independent.process_minibatch(b);
        }
        let (merged, merge_secs) = timed(|| independent.merged());
        let max_err = truth
            .iter()
            .map(|(&item, &f)| f.saturating_sub(merged.get(&item).copied().unwrap_or(0)) as f64)
            .fold(0.0f64, f64::max);
        println!(
            "{}",
            row(&[
                format!("{eps}"),
                p.to_string(),
                "independent+merge".into(),
                independent.total_counters().to_string(),
                format!("{:.1}", merge_secs * 1e6),
                format!("{:.3}", max_err / (eps * m as f64)),
            ])
        );
    }
    println!();
}

/// E8 — work optimality (Corollary 5.11): per-item work flattens once µ ≳ 1/ε.
fn e8_work_optimality(quick: bool) {
    println!("== E8: work per item vs minibatch size (work meter, ε = 0.001 ⇒ 1/ε = 1000) ==");
    println!(
        "{}",
        header(&["minibatch µ", "µ·ε", "work/item", "ns/item"])
    );
    let eps = 0.001f64;
    let total_items = if quick { 100_000usize } else { 400_000usize };
    for &mu in &[100usize, 300, 1_000, 3_000, 10_000, 30_000, 100_000] {
        let batches = zipf_minibatches(100_000, 1.1, (total_items / mu).max(1), mu, 17);
        let meter = WorkMeter::new();
        let mut est = ParallelFrequencyEstimator::new(eps).with_meter(meter.clone());
        let (_, secs) = timed(|| {
            for b in &batches {
                est.process_minibatch(b);
            }
        });
        let items: usize = batches.iter().map(Vec::len).sum();
        println!(
            "{}",
            row(&[
                mu.to_string(),
                format!("{:.1}", mu as f64 * eps),
                format!("{:.2}", meter.total() as f64 / items as f64),
                format!("{:.1}", secs * 1e9 / items as f64),
            ])
        );
    }
    println!();
}

/// E9 — the sharded ingestion engine vs the single-threaded pipeline on one
/// Zipf workload: ingestion throughput and (identical) answer quality.
fn e9_engine(quick: bool) {
    println!("== E9: sharded engine vs single-threaded pipeline — same stream, same (φ, ε) ==");
    println!(
        "{}",
        header(&["config", "Mitems/s", "heavy hitters", "max err/εm"])
    );
    let phi = 0.01;
    let eps = 0.001;
    let batches = zipf_minibatches(200_000, 1.1, scaled(48, quick), 20_000, 29);
    let mut truth: HashMap<u64, u64> = HashMap::new();
    for b in &batches {
        for &x in b {
            *truth.entry(x).or_insert(0) += 1;
        }
    }
    let m: u64 = truth.values().sum();

    let report_row = |label: String, secs: f64, hh: usize, max_err: f64| {
        row(&[
            label,
            format!("{:.2}", m as f64 / secs / 1e6),
            hh.to_string(),
            format!("{:.3}", max_err / (eps * m as f64)),
        ])
    };

    // Single-threaded reference.
    let mut single = InfiniteHeavyHitters::new(phi, eps);
    let (_, secs) = timed(|| {
        for b in &batches {
            single.process_minibatch(b);
        }
    });
    let max_err = truth
        .iter()
        .map(|(&item, &f)| f.saturating_sub(single.estimator().estimate(item)) as f64)
        .fold(0.0f64, f64::max);
    bench_json::record("E9", "single-thread", m as f64 / secs);
    println!(
        "{}",
        report_row("single-thread".into(), secs, single.query().len(), max_err)
    );

    // The engine at increasing shard counts; ingestion from this thread,
    // workers on their own cores, drain() included in the timing.
    for &shards in &[2usize, 4, 8] {
        let engine = Engine::spawn(EngineConfig::with_shards(shards).heavy_hitters(phi, eps));
        let handle = engine.handle();
        let (_, secs) = timed(|| {
            for b in &batches {
                handle.ingest(b).expect("engine closed");
            }
            engine.drain().unwrap();
        });
        let max_err = truth
            .iter()
            .map(|(&item, &f)| f.saturating_sub(handle.estimate(item)) as f64)
            .fold(0.0f64, f64::max);
        let hh = handle.heavy_hitters().len();
        engine.shutdown().unwrap();
        bench_json::record("E9", &format!("engine x{shards}"), m as f64 / secs);
        println!(
            "{}",
            report_row(format!("engine x{shards}"), secs, hh, max_err)
        );
    }
    println!();
}

/// E10 — routing policies under skew: hash partitioning vs skew-aware
/// hot-key splitting on Zipf streams. Hash routing pins each hot key to one
/// shard, so the busiest shard — not the hardware — bounds throughput; the
/// skew-aware router spreads hot keys round-robin and queries sum their
/// per-shard counts. Asserts the one-sided `ε·m` accuracy bound under both
/// policies and, on the heavily skewed stream, that splitting levels the
/// load — so a routing regression fails this experiment, not just a bench.
fn e10_skew_routing(quick: bool) {
    println!("== E10: routing under skew — hash vs skew-aware hot-key splitting (8 shards) ==");
    println!(
        "{}",
        header(&[
            "alpha",
            "router",
            "Mitems/s",
            "imbalance",
            "hot keys",
            "max err/εm"
        ])
    );
    let shards = 8usize;
    let phi = 0.01;
    let eps = 0.001;
    for &alpha in &[1.1f64, 1.5] {
        let batches = zipf_minibatches(100_000, alpha, scaled(48, quick), 20_000, 37);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for b in &batches {
            for &x in b {
                *truth.entry(x).or_insert(0) += 1;
            }
        }
        let m: u64 = truth.values().sum();

        let mut imbalances = Vec::new();
        for policy in [RoutingPolicy::Hash, RoutingPolicy::skew_aware()] {
            let engine = Engine::spawn(
                EngineConfig::with_shards(shards)
                    .heavy_hitters(phi, eps)
                    .routing(policy.clone()),
            );
            let handle = engine.handle();
            let (_, secs) = timed(|| {
                for b in &batches {
                    handle.ingest(b).expect("engine closed");
                }
                engine.drain().unwrap();
            });
            let metrics = handle.metrics();
            let imbalance = metrics.load_imbalance().expect("items were processed");
            let max_err = truth
                .iter()
                .map(|(&item, &f)| {
                    let est = handle.estimate(item);
                    assert!(
                        est <= f,
                        "{}: estimate {est} above truth {f}",
                        policy.name()
                    );
                    f.saturating_sub(est) as f64
                })
                .fold(0.0f64, f64::max);
            assert!(
                max_err <= eps * m as f64 + 1.0,
                "{}: error {max_err} above εm = {}",
                policy.name(),
                eps * m as f64
            );
            engine.shutdown().unwrap();
            imbalances.push(imbalance);
            println!(
                "{}",
                row(&[
                    format!("{alpha}"),
                    policy.name().into(),
                    format!("{:.2}", m as f64 / secs / 1e6),
                    format!("{imbalance:.3}"),
                    metrics.hot_keys.len().to_string(),
                    format!("{:.3}", max_err / (eps * m as f64)),
                ])
            );
        }
        // On the heavily skewed stream the win must be visible, not just
        // plausible: Zipf(1.5)'s head key alone is ~38% of all traffic.
        if alpha >= 1.5 {
            assert!(
                imbalances[1] < imbalances[0],
                "skew-aware imbalance {:.3} must beat hash imbalance {:.3} at Zipf({alpha})",
                imbalances[1],
                imbalances[0]
            );
        }
    }
    println!();
}

/// E11 — persistence overhead: ingest throughput with the background
/// flusher cutting epoch snapshots at varying intervals, against the same
/// engine with persistence off. Snapshots are cut off the hot path (state
/// clones on the workers, encoding + fsync on the flusher thread), so the
/// overhead must stay small; the experiment *asserts* that the best
/// flushing configuration ingests within 10% of the no-persistence
/// baseline, so a persistence regression fails CI rather than just shifting
/// a table. Also verifies that every flushing run actually persisted
/// epochs and that a recovery from the written store answers queries.
fn e11_persistence(quick: bool) {
    println!(
        "== E11: persistence overhead — background snapshots (interval × shards) vs no persistence =="
    );
    println!(
        "{}",
        header(&[
            "shards",
            "interval",
            "Mitems/s",
            "overhead %",
            "epochs",
            "KiB on disk"
        ])
    );
    let phi = 0.01;
    let eps = 0.001;
    let tmpdir = |label: String| psfa::store::testutil::unique_temp_dir(&format!("e11-{label}"));
    for &shards in &[2usize, 4] {
        let batches = zipf_minibatches(100_000, 1.2, scaled(48, quick), 20_000, 43);
        let m: u64 = batches.iter().map(|b| b.len() as u64).sum();

        // One timed run: ingest + drain (the serving path), shutdown
        // untimed. Returns items/s and the post-shutdown store metrics.
        let run =
            |interval: Option<u64>| -> (f64, Option<StoreMetrics>, Option<std::path::PathBuf>) {
                let mut config = EngineConfig::with_shards(shards).heavy_hitters(phi, eps);
                let dir = interval.map(|i| {
                    let dir = tmpdir(format!("s{shards}-i{i}"));
                    config = config.clone().persistence(
                        PersistenceConfig::new(&dir)
                            .interval_batches(i)
                            .poll(std::time::Duration::from_millis(1)),
                    );
                    dir
                });
                let engine = Engine::spawn(config.clone());
                let handle = engine.handle();
                let (_, secs) = timed(|| {
                    for b in &batches {
                        handle.ingest(b).expect("engine closed");
                    }
                    engine.drain().unwrap();
                });
                engine.shutdown().unwrap(); // final snapshot (untimed)
                let store = handle.metrics().store;
                (m as f64 / secs, store, dir)
            };
        // Best of two runs per configuration damps scheduler noise.
        let best = |interval: Option<u64>| {
            let (a, store_a, dir_a) = run(interval);
            if let Some(dir) = dir_a {
                let _ = std::fs::remove_dir_all(dir);
            }
            let (b, store_b, dir_b) = run(interval);
            (a.max(b), store_b.or(store_a), dir_b)
        };

        let (baseline, _, _) = best(None);
        println!(
            "{}",
            row(&[
                shards.to_string(),
                "off".into(),
                format!("{:.2}", baseline / 1e6),
                "0.0".into(),
                "-".into(),
                "-".into(),
            ])
        );

        let mut best_persisted = 0.0f64;
        for &interval in &[4u64, 16] {
            let (tput, store, dir) = best(Some(interval));
            let store = store.expect("persistence was configured");
            assert!(
                store.epochs_persisted > 0,
                "E11: flushing run persisted no epochs (interval {interval})"
            );
            // The written store must actually recover.
            if let Some(dir) = &dir {
                let recovered = Engine::recover(
                    dir,
                    EngineConfig::with_shards(shards).heavy_hitters(phi, eps),
                )
                .expect("E11: recovery from the written store");
                let h = recovered.handle();
                assert_eq!(h.total_items(), m, "recovered engine covers the stream");
                assert!(!h.heavy_hitters().is_empty());
                recovered.kill();
                let _ = std::fs::remove_dir_all(dir);
            }
            best_persisted = best_persisted.max(tput);
            println!(
                "{}",
                row(&[
                    shards.to_string(),
                    interval.to_string(),
                    format!("{:.2}", tput / 1e6),
                    format!("{:.1}", (1.0 - tput / baseline) * 100.0),
                    store.epochs_persisted.to_string(),
                    (store.bytes_written / 1024).to_string(),
                ])
            );
        }
        assert!(
            best_persisted >= 0.90 * baseline,
            "E11: persistence overhead above 10% at {shards} shards \
             ({best_persisted:.0} vs baseline {baseline:.0} items/s)"
        );
    }
    println!();
}

/// E12 — the globally consistent sliding window: accuracy of the aligned
/// cross-shard window versus a single-thread exact baseline under
/// skew-aware routing (the hardest case: the Zipf(1.5) head key's
/// occurrences are dealt round-robin across every shard), and the ingest
/// overhead of running the window at all. Asserts both acceptance
/// criteria so a windowing regression fails CI: every checked aligned cut
/// is within the one-sided `ε·n_W` bound of the exact window, and the
/// windowed engine ingests within 20% of the unwindowed path (10% before
/// PR 5 made the unwindowed baseline ~1.5× faster; see the assert below).
fn e12_global_window(quick: bool) {
    println!(
        "== E12: global sliding window — aligned cross-shard cuts vs exact window (skew routing) =="
    );
    let shards = 4usize;
    let phi = 0.01;
    let eps = 0.001;
    let window = 200_000u64;
    let panes = 8usize;
    let slide = window as usize / panes; // 25_000
    let batch_size = slide / 2; // two batches per boundary, single producer
    let batches_n = scaled(64, quick).max(8);
    let batches = zipf_minibatches(100_000, 1.5, batches_n, batch_size, 53);

    // --- accuracy at aligned cuts --------------------------------------
    println!(
        "{}",
        header(&["boundary", "n_W", "max err/εn_W", "window HH", "hot keys"])
    );
    let engine = Engine::spawn(
        EngineConfig::with_shards(shards)
            .heavy_hitters(phi, eps)
            .sliding_window(window)
            .window_panes(panes)
            .skew_aware_routing(),
    );
    let handle = engine.handle();
    let mut exact = ExactSlidingWindow::new(window);
    let total_boundaries = batches_n / 2;
    let checkpoints: Vec<usize> = [1, total_boundaries / 2, total_boundaries]
        .into_iter()
        .filter(|&t| t >= 1)
        .collect();
    for (i, batch) in batches.iter().enumerate() {
        handle.ingest(batch).expect("engine closed");
        exact.process_minibatch(batch);
        let boundary = i.div_ceil(2);
        if (i + 1) % 2 != 0 || !checkpoints.contains(&boundary) {
            continue;
        }
        engine.drain().unwrap();
        let aligned = handle
            .global_window()
            .expect("aligned window at a boundary");
        assert_eq!(
            aligned.seq(),
            boundary as u64,
            "E12: wrong aligned boundary"
        );
        let n_w = aligned.items();
        assert_eq!(n_w, exact.len() as u64, "E12: window coverage mismatch");
        let mut max_err = 0.0f64;
        for (item, f) in exact.entries() {
            let est = aligned.estimate(item);
            assert!(est <= f, "E12: window estimate {est} above exact {f}");
            max_err = max_err.max((f - est) as f64);
        }
        assert!(
            max_err <= eps * n_w as f64 + 1.0,
            "E12: window error {max_err} above ε·n_W = {}",
            eps * n_w as f64
        );
        // Heavy-hitter bands over the window.
        let reported = handle.sliding_heavy_hitters();
        for (item, f) in exact.entries() {
            if f as f64 >= phi * n_w as f64 {
                assert!(
                    reported.iter().any(|h| h.item == item),
                    "E12: missed window heavy hitter {item}"
                );
            }
        }
        println!(
            "{}",
            row(&[
                boundary.to_string(),
                n_w.to_string(),
                format!("{:.3}", max_err / (eps * n_w as f64)),
                reported.len().to_string(),
                handle.metrics().hot_keys.len().to_string(),
            ])
        );
    }
    assert!(
        !handle.metrics().hot_keys.is_empty(),
        "E12: Zipf(1.5) must promote hot keys under skew routing"
    );
    engine.shutdown().unwrap();

    // --- ingest overhead of the window ---------------------------------
    println!(
        "{}",
        header(&["config", "Mitems/s", "overhead %", "boundaries"])
    );
    let m: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let run = |windowed: bool| -> (f64, u64) {
        let mut config = EngineConfig::with_shards(shards)
            .heavy_hitters(phi, eps)
            .skew_aware_routing();
        if windowed {
            config = config.sliding_window(window).window_panes(panes);
        }
        let engine = Engine::spawn(config);
        let handle = engine.handle();
        let (_, secs) = timed(|| {
            for b in &batches {
                handle.ingest(b).expect("engine closed");
            }
            engine.drain().unwrap();
        });
        let boundaries = handle.metrics().window.map_or(0, |w| w.boundaries);
        engine.shutdown().unwrap();
        (m as f64 / secs, boundaries)
    };
    // Best of three runs damps scheduler noise (the window's measured
    // steady-state overhead is a few percent; see benches/windowed_engine).
    let best = |windowed: bool| {
        let mut best_tput = 0.0f64;
        let mut best_bound = 0u64;
        for _ in 0..3 {
            let (tput, bound) = run(windowed);
            best_tput = best_tput.max(tput);
            best_bound = best_bound.max(bound);
        }
        (best_tput, best_bound)
    };
    let (baseline, _) = best(false);
    println!(
        "{}",
        row(&[
            "no window".into(),
            format!("{:.2}", baseline / 1e6),
            "0.0".into(),
            "-".into(),
        ])
    );
    let (windowed, boundaries) = best(true);
    assert!(boundaries > 0, "E12: the windowed run cut no boundaries");
    println!(
        "{}",
        row(&[
            format!("window {window} x{panes}"),
            format!("{:.2}", windowed / 1e6),
            format!("{:.1}", (1.0 - windowed / baseline) * 100.0),
            boundaries.to_string(),
        ])
    );
    // Budget recalibrated in PR 5: the hot-path rebuild made the
    // *unwindowed* baseline ~1.5× faster, so the window machinery's
    // unchanged absolute cost (pane sealing + boundary markers, paid per
    // `slide` items) is now a larger fraction of a much shorter batch time
    // — windowed throughput itself *rose* ~40% in the same change. 20%
    // still catches a real regression in the boundary path while not
    // penalising making everything else faster; absolute numbers are
    // tracked by E13's bench-json records.
    assert!(
        windowed >= 0.80 * baseline,
        "E12: global-window overhead above 20% \
         ({windowed:.0} vs baseline {baseline:.0} items/s)"
    );
    println!();
}

/// E13 — the ingest hot path after the PR 5 rebuild: (a) an allocation
/// audit of the recycled buffer + scratch-histogram + Misra–Gries augment
/// path (asserts **zero** steady-state allocations per batch — the MG map
/// pre-sizes to `S + max distinct per batch` and the cut-off selection
/// runs in place), (b) the seed per-batch worker loop
/// vs the rebuilt one at 1 and 4 shards on Zipf(1.5) (asserts the rebuilt
/// path ingests ≥ 1.25× the seed path at 4 shards), and (c) the real
/// engine ingesting under hammering concurrent queries, asserting every
/// accuracy parity the engine promises (one-sided MG `ε·m`,
/// overestimate-only Count-Min with the `ε_cm·m` band, windowed
/// `ε·n_W`) still holds with the lock-free publication.
fn e13_hot_path(quick: bool) {
    println!("== E13: ingest hot path — seed loop vs lock-free/allocation-free rebuild ==");
    let batches = zipf_minibatches(100_000, 1.5, scaled(48, quick).max(12), 20_000, 61);
    let m: u64 = batches.iter().map(|b| b.len() as u64).sum();

    // --- (a) allocation audit of the recycled path ----------------------
    assert!(
        alloc_counter::installed(),
        "E13: the counting-allocator shim is not installed in this binary"
    );
    let pool = BufferPool::new(1, 4);
    let router = HashRouter::new(1);
    let mut scratch = HistScratch::new();
    let mut hist = Vec::new();
    // The Misra–Gries augment rides in the audited cycle: its table is
    // sized once for `2S` counters and its two scratch vectors grow to the
    // widest batch seen (in-place cut-off selection), so after warm-up the
    // full route → histogram → MG path allocates nothing.
    let mut hh = InfiniteHeavyHitters::new(0.01, 0.001);
    let mut seed = 0x5eed_1357u64;
    let mut cycle = |batch: &[u64],
                     scratch: &mut HistScratch,
                     hist: &mut Vec<_>,
                     hh: &mut InfiniteHeavyHitters| {
        let mut parts = pool.checkout();
        router.partition_into(batch, &mut parts);
        let sub = std::mem::take(&mut parts[0]);
        pool.checkin(parts);
        seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        psfa::primitives::build_hist_into(&sub, seed, scratch, hist);
        hh.process_histogram(hist, sub.len() as u64);
        pool.give_back(0, sub);
    };
    for batch in &batches {
        cycle(batch, &mut scratch, &mut hist, &mut hh); // warm-up: buffers size themselves
    }
    let before = alloc_counter::allocations();
    for batch in &batches {
        cycle(batch, &mut scratch, &mut hist, &mut hh);
    }
    let recycled_allocs = alloc_counter::allocations() - before;
    println!(
        "  recycled route+histogram+MG path: {recycled_allocs} allocations over {} batches \
         (post-warm-up)",
        batches.len()
    );
    assert_eq!(
        recycled_allocs, 0,
        "E13: the recycled hot path must not allocate at steady state"
    );

    // --- (b) seed worker loop vs rebuilt worker loop --------------------
    println!(
        "{}",
        header(&["shards", "path", "Mitems/s", "allocs/batch", "speedup"])
    );
    let params = HotPathParams::default();
    let mut speedup_at_4 = 0.0f64;
    for &shards in &[1usize, 4] {
        let split = pre_split(&batches, shards);
        let sub_batches = (batches.len() * shards) as u64;
        // Best of 3 runs damps scheduler noise; allocation counts come from
        // the last run (they are deterministic given the workload).
        let mut best = [0.0f64; 2];
        let mut allocs = [0u64; 2];
        for _ in 0..3 {
            let a0 = alloc_counter::allocations();
            let legacy = drive_shards(
                &split,
                |s| LegacyShardLoop::new(s, params),
                |l, b| l.ingest(b),
                |l| l.finish(),
            );
            let a1 = alloc_counter::allocations();
            let hot = drive_shards(
                &split,
                |s| HotShardLoop::new(s, params),
                |l, b| l.ingest(b),
                |l| l.finish(),
            );
            let a2 = alloc_counter::allocations();
            best[0] = best[0].max(legacy);
            best[1] = best[1].max(hot);
            allocs = [a1 - a0, a2 - a1];
        }
        for (path, tput, alloc_count) in [
            ("seed", best[0], allocs[0]),
            ("rebuilt", best[1], allocs[1]),
        ] {
            bench_json::record("E13", &format!("{path} x{shards}"), tput);
            println!(
                "{}",
                row(&[
                    shards.to_string(),
                    path.into(),
                    format!("{:.2}", tput / 1e6),
                    format!("{:.1}", alloc_count as f64 / sub_batches as f64),
                    format!("{:.2}x", tput / best[0]),
                ])
            );
        }
        if shards == 4 {
            speedup_at_4 = best[1] / best[0];
        }
    }
    assert!(
        speedup_at_4 >= 1.25,
        "E13: rebuilt hot path must ingest at least 1.25x the seed path at 4 shards \
         (measured {speedup_at_4:.2}x)"
    );

    // --- (c) the real engine under hammering concurrent queries ---------
    println!("{}", header(&["config", "Mitems/s", "queries ok"]));
    let phi = 0.01;
    let eps = 0.001;
    let cm_eps = 0.0005;
    // Slide = batch size, so every boundary lands exactly on a batch end
    // and the exact reference below can reconstruct the covered prefix.
    let window = 160_000u64;
    let panes = 8usize;
    for &shards in &[1usize, 4] {
        let engine = Engine::spawn(EngineConfig::with_shards(shards).heavy_hitters(phi, eps));
        let handle = engine.handle();
        let (_, secs) = timed(|| {
            for b in &batches {
                handle.ingest(b).expect("engine closed");
            }
            engine.drain().unwrap();
        });
        engine.shutdown().unwrap();
        bench_json::record("E13", &format!("engine x{shards}"), m as f64 / secs);
        println!(
            "{}",
            row(&[
                format!("engine x{shards}"),
                format!("{:.2}", m as f64 / secs / 1e6),
                "-".into(),
            ])
        );
    }

    let mut truth: HashMap<u64, u64> = HashMap::new();
    for b in &batches {
        for &x in b {
            *truth.entry(x).or_insert(0) += 1;
        }
    }
    let engine = Engine::spawn(
        EngineConfig::with_shards(4)
            .heavy_hitters(phi, eps)
            .sliding_window(window)
            .window_panes(panes),
    );
    let handle = engine.handle();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let probes: Vec<u64> = (0..64u64).collect();
    let mut queriers = Vec::new();
    for _ in 0..2 {
        let handle = handle.clone();
        let stop = stop.clone();
        let probes = probes.clone();
        queriers.push(std::thread::spawn(move || {
            let mut rounds = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                for &k in &probes {
                    let est = handle.estimate(k);
                    let cm = handle.cm_estimate(k);
                    // The publication edge guarantees the sketch covers at
                    // least the snapshot's prefix (see shard.rs).
                    assert!(
                        cm >= est,
                        "count-min {cm} below snapshot estimate {est} for {k}"
                    );
                }
                let hh = handle.heavy_hitters();
                assert!(hh.windows(2).all(|w| w[0].estimate >= w[1].estimate));
                let _ = handle.sliding_estimate(probes[rounds as usize % probes.len()]);
                rounds += 1;
            }
            rounds
        }));
    }
    let (_, secs) = timed(|| {
        for b in &batches {
            handle.ingest(b).expect("engine closed");
        }
        engine.drain().unwrap();
    });
    stop.store(true, std::sync::atomic::Ordering::Release);
    let query_rounds: u64 = queriers.into_iter().map(|q| q.join().unwrap()).sum();
    assert!(query_rounds > 0, "E13: query threads never ran");

    // Accuracy parity with everything drained: the lock-free surfaces
    // answer exactly as the locked ones did.
    let slack = (eps * m as f64).ceil() as u64;
    let cm_bound = (cm_eps * m as f64).ceil() as u64;
    let mut cm_violations = 0usize;
    for (&item, &f) in &truth {
        let est = handle.estimate(item);
        assert!(est <= f, "E13: MG estimate {est} above truth {f}");
        assert!(est + slack >= f, "E13: MG estimate {est} under {f} − εm");
        let cm = handle.cm_estimate(item);
        assert!(cm >= f, "E13: count-min {cm} underestimates {f}");
        if cm > f + cm_bound {
            cm_violations += 1;
        }
    }
    assert!(
        cm_violations <= truth.len() / 20,
        "E13: {cm_violations}/{} items exceeded the ε_cm·m band",
        truth.len()
    );
    // The aligned global window against an exact reference at the same cut.
    let aligned = handle.global_window().expect("a boundary was crossed");
    let slide = window / panes as u64;
    let covered = (aligned.seq() * slide).min(m) as usize;
    let history: Vec<u64> = batches.iter().flatten().copied().collect();
    let window_truth = exact_window_counts(&history[..covered], window);
    assert_eq!(aligned.items(), window.min(covered as u64));
    let w_slack = (eps * aligned.items() as f64).ceil() as u64;
    for (&item, &f) in &window_truth {
        let est = aligned.estimate(item);
        assert!(est <= f, "E13: window estimate {est} above truth {f}");
        assert!(
            est + w_slack >= f,
            "E13: window estimate {est} under {f} by more than ε·n_W"
        );
    }
    engine.shutdown().unwrap();
    println!(
        "{}",
        row(&[
            format!("engine x4 + window, {query_rounds} query rounds"),
            format!("{:.2}", m as f64 / secs / 1e6),
            "all parity checks passed".into(),
        ])
    );
    println!();
}

/// E14 — observability overhead and latency percentiles.
///
/// Part (a) measures the cost of the full instrumentation suite with a
/// same-binary toggle: two engines with identical configuration except
/// [`EngineConfig::observe`], driven over the same minibatches. The
/// acceptance bar is <3% ingest overhead (the try-send fast path records a
/// zero without reading the clock, so the hot path pays one relaxed
/// fetch-add per minibatch part).
///
/// Part (b) hammers an instrumented engine with queries while ingesting and
/// harvests the resulting latency distributions — producer enqueue wait,
/// per-shard batch service, snapshot staleness, and per-kind query latency —
/// into the bench-json trajectory as percentile records.
fn e14_observability(quick: bool) {
    println!("== E14: observability — same-binary toggle overhead + latency percentiles ==");
    let batches = zipf_minibatches(100_000, 1.3, scaled(48, quick).max(12), 20_000, 67);
    let m: u64 = batches.iter().map(|b| b.len() as u64).sum();

    // --- (a) ingest overhead of the instrumentation ---------------------
    let run = |observe: bool| -> f64 {
        let mut config = EngineConfig::with_shards(4)
            .heavy_hitters(0.01, 0.001)
            .sliding_window(160_000);
        if observe {
            config = config.observe();
        }
        let engine = Engine::spawn(config);
        let handle = engine.handle();
        let (_, secs) = timed(|| {
            for b in &batches {
                handle.ingest(b).expect("engine closed");
            }
            engine.drain().unwrap();
        });
        engine.shutdown().unwrap();
        m as f64 / secs
    };
    // Best-of-N interleaved runs damp scheduler noise.
    let mut base = 0.0f64;
    let mut instrumented = 0.0f64;
    for _ in 0..3 {
        base = base.max(run(false));
        instrumented = instrumented.max(run(true));
    }
    println!("{}", header(&["config", "Mitems/s", "relative"]));
    for (config, tput) in [("engine x4", base), ("engine x4 + obs", instrumented)] {
        bench_json::record("E14", config, tput);
        println!(
            "{}",
            row(&[
                config.into(),
                format!("{:.2}", tput / 1e6),
                format!("{:.3}x", tput / base),
            ])
        );
    }
    // `--quick` runs a few small batches where per-run noise exceeds the
    // instrumentation cost; the 3% bar applies to full-length runs.
    let floor = if quick { 0.80 } else { 0.97 };
    assert!(
        instrumented >= floor * base,
        "E14: instrumented ingest must reach {floor}x the uninstrumented rate \
         (measured {:.3}x)",
        instrumented / base
    );

    // --- (b) latency percentiles under hammering queries ----------------
    let engine = Engine::spawn(
        EngineConfig::with_shards(4)
            .queue_capacity(4)
            .heavy_hitters(0.01, 0.001)
            .sliding_window(160_000)
            .observe(),
    );
    let handle = engine.handle();
    let probe = 7u64;
    for b in &batches {
        handle.ingest(b).expect("engine closed");
        let _ = handle.estimate(probe);
        let _ = handle.cm_estimate(probe);
        let _ = handle.heavy_hitters();
        let _ = handle.sliding_estimate(probe);
    }
    engine.drain().unwrap();
    let report = handle.metrics().obs.expect("observability is on");
    println!(
        "{}",
        header(&["metric", "samples", "p50 ns", "p90 ns", "p99 ns", "p99.9 ns"])
    );
    for metric in [
        "enqueue_wait",
        "batch_service",
        "publish_staleness",
        "query_estimate",
        "query_cm_estimate",
        "query_heavy_hitters",
        "query_sliding_estimate",
    ] {
        let p = report
            .percentiles(metric)
            .unwrap_or_else(|| panic!("E14: unknown obs section {metric}"));
        assert!(p.count > 0, "E14: no samples recorded for {metric}");
        bench_json::record_latency(
            "E14",
            "engine x4 + obs",
            metric,
            (p.p50, p.p90, p.p99, p.p999),
        );
        println!(
            "{}",
            row(&[
                metric.into(),
                p.count.to_string(),
                p.p50.to_string(),
                p.p90.to_string(),
                p.p99.to_string(),
                p.p999.to_string(),
            ])
        );
    }
    engine.shutdown().unwrap();
    println!();
}

/// E15 — the serving front end under open-loop load over loopback.
///
/// Part (a) runs three concurrent open-loop load generators — ingest,
/// point-estimate queries, and heavy-hitter queries — against one server
/// backed by a 4-shard engine. Latency is measured from each request's
/// *scheduled* send time (no coordinated omission; see
/// `psfa_bench::loadgen`), and the harvested p50/p99/p999 go into the
/// bench-json trajectory as request-latency records. Asserts the runs are
/// error-free, that query p99 stays bounded while ingest runs concurrently
/// (queries read published snapshots and never block on ingest), and that
/// every accepted ingest batch — and nothing else — reached the engine
/// (`Busy` rejections are clean).
///
/// Part (b) overdrives a deliberately slow engine (one shard,
/// `queue_capacity(1)`, a lifted operator that sleeps per batch) and
/// asserts the backpressure contract: the server answers `Busy` instead of
/// buffering, and its peak in-flight bytes stay within the documented
/// `max_connections × MAX_FRAME_LEN × 2` bound.
fn e15_serving(quick: bool) {
    use psfa_bench::loadgen::{run_open_loop, OpenLoopConfig};
    use std::sync::Arc;

    println!("== E15: serving front end — open-loop request latency over loopback ==");
    let phi = 0.01;
    let eps = 0.001;
    let batch_items = 512u64;
    // Pre-generated ingest payloads, reused round-robin by request slot.
    let payloads: Arc<Vec<Vec<u64>>> =
        Arc::new(zipf_minibatches(100_000, 1.2, 64, batch_items as usize, 71));

    // --- (a) request latency under concurrent ingest + queries ----------
    let engine = Engine::spawn(
        EngineConfig::with_shards(4)
            .heavy_hitters(phi, eps)
            .sliding_window(160_000),
    );
    let server = Server::spawn(engine.handle(), ServeConfig::default().max_connections(64))
        .expect("E15: server spawn");
    let addr = server.local_addr();

    let ingest_config = OpenLoopConfig {
        rate_per_sec: 2_000.0,
        total_requests: scaled(8_000, quick).max(300),
        initial_clients: 2,
        max_clients: 8,
        backlog_spawn_threshold: 32,
    };
    let query_config = OpenLoopConfig {
        rate_per_sec: 1_000.0,
        total_requests: scaled(4_000, quick).max(150),
        initial_clients: 2,
        max_clients: 8,
        backlog_spawn_threshold: 32,
    };
    let runs = vec![
        ("ingest", {
            let payloads = Arc::clone(&payloads);
            let config = ingest_config.clone();
            std::thread::spawn(move || {
                run_open_loop(addr, &config, move |i| {
                    Request::IngestBatch(payloads[i % payloads.len()].clone())
                })
            })
        }),
        ("estimate", {
            let config = query_config.clone();
            std::thread::spawn(move || {
                run_open_loop(addr, &config, |i| Request::Estimate(i as u64 % 64))
            })
        }),
        ("heavy_hitters", {
            let config = query_config.clone();
            std::thread::spawn(move || run_open_loop(addr, &config, |_| Request::HeavyHitters))
        }),
    ];
    println!(
        "{}",
        header(&["kind", "ok", "busy", "conns", "req/s", "p50 ns", "p99 ns", "p999 ns"])
    );
    // Generous: loopback queries are microseconds; the cap only has to
    // catch queries *blocking* behind ingest, which would push p99 into
    // whole scheduling quanta.
    let query_p99_cap_ns = 250_000_000u64;
    let mut ingest_completed = 0u64;
    for (kind, join) in runs {
        let report = join
            .join()
            .expect("E15: load generator thread panicked")
            .unwrap_or_else(|e| panic!("E15: {kind} load generator failed: {e}"));
        assert_eq!(
            report.errors, 0,
            "E15: {kind} load generator hit transport errors"
        );
        if kind == "ingest" {
            ingest_completed = report.completed;
        } else {
            assert_eq!(report.busy, 0, "E15: query path must never answer Busy");
            assert!(
                report.latency.p99 <= query_p99_cap_ns,
                "E15: {kind} p99 {} ns above the 250 ms bound under concurrent ingest",
                report.latency.p99
            );
        }
        bench_json::record_request_latency(
            "E15",
            "serve x4 loopback",
            kind,
            (report.completed, report.busy),
            (report.latency.p50, report.latency.p99, report.latency.p999),
        );
        println!(
            "{}",
            row(&[
                kind.into(),
                report.completed.to_string(),
                report.busy.to_string(),
                report.clients.to_string(),
                format!("{:.0}", report.requests_per_sec),
                report.latency.p50.to_string(),
                report.latency.p99.to_string(),
                report.latency.p999.to_string(),
            ])
        );
    }
    engine.drain().unwrap();
    // Busy rejections are clean: exactly the acknowledged batches arrived.
    let handle = engine.handle();
    assert_eq!(
        handle.total_items(),
        ingest_completed * batch_items,
        "E15: engine item count must match acknowledged ingest batches exactly"
    );
    let metrics = server.shutdown();
    assert_eq!(metrics.frame_errors, 0, "E15: no protocol errors expected");
    engine.shutdown().unwrap();

    // --- (b) explicit backpressure under an overdriven slow engine ------
    let sleepy = ("sleepy".to_string(), |_shard: usize| {
        ("sleepy".to_string(), |_minibatch: &[u64]| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        })
    });
    let engine = Engine::builder(
        EngineConfig::with_shards(1)
            .queue_capacity(1)
            .heavy_hitters(phi, eps),
    )
    .lift(sleepy)
    .spawn();
    let max_connections = 8usize;
    let server = Server::spawn(
        engine.handle(),
        ServeConfig::default().max_connections(max_connections),
    )
    .expect("E15: backpressure server spawn");
    let config = OpenLoopConfig {
        rate_per_sec: 2_000.0,
        total_requests: scaled(2_000, quick).max(300),
        initial_clients: 2,
        max_clients: 4,
        backlog_spawn_threshold: 16,
    };
    let addr = server.local_addr();
    let slow_payloads = Arc::clone(&payloads);
    let report = run_open_loop(addr, &config, move |i| {
        Request::IngestBatch(slow_payloads[i % slow_payloads.len()].clone())
    })
    .expect("E15: backpressure load generator");
    assert_eq!(
        report.errors, 0,
        "E15: Busy must be a response, not an error"
    );
    assert!(
        report.busy > 0,
        "E15: overdriving a queue_capacity(1) engine must surface Busy"
    );
    bench_json::record_request_latency(
        "E15",
        "serve x1 queue=1 overdriven",
        "ingest",
        (report.completed, report.busy),
        (report.latency.p50, report.latency.p99, report.latency.p999),
    );
    let metrics = server.shutdown();
    assert_eq!(
        metrics.busy_responses, report.busy,
        "E15: every Busy the client saw came from the engine's admission check"
    );
    let inflight_cap = (max_connections * MAX_FRAME_LEN * 2) as u64;
    assert!(
        metrics.peak_inflight_bytes > 0 && metrics.peak_inflight_bytes <= inflight_cap,
        "E15: peak in-flight bytes {} outside (0, {inflight_cap}]",
        metrics.peak_inflight_bytes
    );
    engine.drain().unwrap();
    let final_report = engine.shutdown().unwrap();
    assert_eq!(
        final_report.total_items(),
        report.completed * batch_items,
        "E15: rejected batches must leave no partial state behind"
    );
    println!(
        "  backpressure: {} accepted, {} busy ({}% shed), peak in-flight {} B \u{2264} cap {} B\n",
        report.completed,
        report.busy,
        report.busy * 100 / (report.completed + report.busy).max(1),
        metrics.peak_inflight_bytes,
        inflight_cap
    );
}

/// E17 — fault tolerance: two injected worker kills under concurrent
/// ingest + query load. The engine must keep answering (zero aborted
/// queries), recover both workers from their last published snapshots,
/// honour the documented one-sided bound against an exact reference of
/// the offered stream, and trace a measurable unavailability window per
/// fault (quarantine → restart), committed as an availability record.
fn e17_fault_tolerance(quick: bool) {
    use std::sync::atomic::{AtomicBool, Ordering};

    println!("== E17: fault tolerance — two injected worker kills under ingest+query load ==");
    let shards = 4;
    let phi = 0.01;
    let eps = 0.001;
    let batches = zipf_minibatches(100_000, 1.2, scaled(64, quick).max(16), 10_000, 91);
    let total_batches = batches.len() as u64;
    let m: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let mut exact: HashMap<u64, u64> = HashMap::new();
    for b in &batches {
        for &x in b {
            *exact.entry(x).or_insert(0) += 1;
        }
    }

    // Two kills at one-third and two-thirds of the stream (per-shard
    // batch ordinals; every minibatch lands parts on all four shards),
    // each followed by a 25 ms supervisor backoff so the quarantine
    // window is wide enough for the query thread to observe.
    let kills = [
        (1usize, (total_batches / 3).max(2)),
        (2usize, (2 * total_batches / 3).max(4)),
    ];
    let plan = FaultPlan::new()
        .with_worker_panic(kills[0].0, kills[0].1)
        .with_worker_panic(kills[1].0, kills[1].1)
        .with_restart_delay(std::time::Duration::from_millis(25));
    let engine = Engine::spawn(
        EngineConfig::with_shards(shards)
            .heavy_hitters(phi, eps)
            .observe()
            .fault_injection(plan),
    );
    let handle = engine.handle();

    // Concurrent query load: every answer must come back — degraded or
    // not — while the workers die and restart underneath it.
    let stop = AtomicBool::new(false);
    let (queries_total, queries_degraded, secs) = std::thread::scope(|scope| {
        let qh = engine.handle();
        let stop_ref = &stop;
        let query = scope.spawn(move || {
            let mut total = 0u64;
            let mut degraded = 0u64;
            while !stop_ref.load(Ordering::Acquire) {
                let heavy = qh.heavy_hitters_checked();
                let point = qh.estimate_checked(1);
                total += 2;
                degraded += u64::from(heavy.degraded.is_some());
                degraded += u64::from(point.degraded.is_some());
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            (total, degraded)
        });
        let (_, secs) = timed(|| {
            for b in &batches {
                handle
                    .ingest(b)
                    .expect("the engine must keep accepting while workers restart");
            }
            handle
                .drain()
                .expect("both kills must be recovered, not fatal");
        });
        stop.store(true, Ordering::Release);
        let (total, degraded) = query.join().expect("zero aborted queries");
        (total, degraded, secs)
    });

    // Unavailability windows: ShardQuarantined → WorkerRestart trace
    // pairs, one per fault, measured on the supervisor's own clock.
    let events = handle.trace_events();
    let mut windows_ns: Vec<u64> = Vec::new();
    for q in events
        .iter()
        .filter(|e| e.kind == TraceKind::ShardQuarantined)
    {
        if let Some(r) = events.iter().find(|e| {
            e.kind == TraceKind::WorkerRestart && e.shard == q.shard && e.at_ns >= q.at_ns
        }) {
            windows_ns.push(r.at_ns - q.at_ns);
        }
    }
    windows_ns.sort_unstable();
    let pct = |q: f64| -> u64 {
        if windows_ns.is_empty() {
            return 0;
        }
        let idx = ((windows_ns.len() as f64 * q).ceil() as usize).clamp(1, windows_ns.len());
        windows_ns[idx - 1]
    };

    let metrics = handle.metrics();
    let restarts = metrics.worker_restarts();
    let m_eff = handle.total_items();
    let lost = m - m_eff;

    // The documented post-recovery contract: estimates never exceed the
    // exact offered count (loss only shrinks counts, never invents them),
    // and any item heavier than φ·m_eff + lost must still be reported.
    let answer = handle.heavy_hitters_checked();
    for hh in &answer.value {
        let truth = exact.get(&hh.item).copied().unwrap_or(0);
        assert!(
            hh.estimate <= truth,
            "E17: one-sided bound violated for {} ({} > {truth})",
            hh.item,
            hh.estimate
        );
    }
    let coverage_floor = (phi * m_eff as f64).ceil() as u64 + lost + 1;
    for (&item, &truth) in &exact {
        if truth >= coverage_floor {
            assert!(
                answer.value.iter().any(|hh| hh.item == item),
                "E17: item {item} (count {truth} ≥ floor {coverage_floor}) missing after recovery"
            );
        }
    }

    println!("{}", header(&["metric", "value"]));
    for (k, v) in [
        ("faults injected", kills.len().to_string()),
        ("workers restarted", restarts.to_string()),
        ("items offered", m.to_string()),
        ("items lost to restarts", lost.to_string()),
        ("queries under fire", queries_total.to_string()),
        ("degraded answers", queries_degraded.to_string()),
        (
            "unavailability p50",
            format!("{:.2} ms", pct(0.50) as f64 / 1e6),
        ),
        (
            "unavailability max",
            format!("{:.2} ms", pct(1.0) as f64 / 1e6),
        ),
        (
            "ingest throughput",
            format!("{:.2} Mitems/s", m as f64 / secs / 1e6),
        ),
    ] {
        println!("{}", row(&[k.into(), v]));
    }

    assert_eq!(
        restarts,
        kills.len() as u64,
        "E17: every kill must be recovered"
    );
    assert!(
        metrics.quarantined_shards().is_empty(),
        "E17: no shard may stay quarantined after the run"
    );
    assert_eq!(
        windows_ns.len(),
        kills.len(),
        "E17: every fault must trace its unavailability window"
    );

    bench_json::record_availability(
        "E17",
        &format!("engine x{shards}, {} worker kills", kills.len()),
        (kills.len() as u64, restarts),
        (queries_total, queries_degraded),
        (pct(0.50), pct(0.99), pct(1.0)),
    );
    engine
        .shutdown()
        .expect("E17: recovered engine must shut down cleanly");
    println!();
}

/// F2 — the γ-snapshot worked example of Figure 2.
fn f2_snapshot_example() {
    println!("== F2: γ-snapshot worked example (Figure 2): 23-bit stream, γ = 3, window 12 ==");
    let bits: Vec<bool> = [
        0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0,
    ]
    .iter()
    .map(|&x| x == 1)
    .collect();
    let mut sbbc = Sbbc::unbounded(6, 12); // λ = 6 ⇒ γ = 3
    sbbc.advance(&CompactedSegment::from_bits(&bits));
    let snapshot = sbbc.snapshot();
    let m = bits[bits.len() - 12..].iter().filter(|&&b| b).count() as u64;
    println!(
        "  sampled blocks Q = {:?}",
        snapshot.blocks().collect::<Vec<_>>()
    );
    println!("  trailing ones  ℓ = {}", snapshot.ell());
    println!("  val = γ|Q| + ℓ  = {}", snapshot.val());
    println!(
        "  true window count m = {m}  (Lemma 3.2: m ≤ val ≤ m + 2γ = {})",
        m + 6
    );
    println!(
        "  (the figure lists Q = {{4, 7}}, ℓ = 1 under its deferred-tail-block convention; \
         Definition 3.1 as written also records block 8 — see DESIGN.md)"
    );
    println!();
}
