//! Regenerates the paper's experiments (PAPER.md): E1–E8 each check one
//! theorem's accuracy/space/work claim — the theorem is named on the
//! experiment's function below — and F2 replays the γ-snapshot example of
//! Figure 2. Two engine experiments ride along until `benchmark/` has a
//! workload for them: E14 (probe overhead) and E17 (fault unavailability).
//! Everything else about the engine is measured by `benchmark/`
//! (BENCHMARK.json); the retired E9–E13, E15 and E16 survive only as
//! records in the frozen `BENCH_5..9.json`.
//!
//! Usage:
//! ```text
//! cargo run --release -p psfa-bench --bin reproduce            # all experiments
//! cargo run --release -p psfa-bench --bin reproduce -- --exp e4
//! cargo run --release -p psfa-bench --bin reproduce -- --quick # small batch counts
//! ```
//!
//! `--exp <name>` with a name not in `EXPERIMENTS` exits non-zero and
//! lists the known names. `--quick` divides every experiment's batch count
//! by 8 (minimum 3) so a full sweep finishes in seconds — for CI smoke runs
//! and local iteration; recorded numbers should come from a full run.

use std::collections::HashMap;

use psfa::prelude::*;
use psfa_bench::{
    binary_minibatches, exact_window_counts, header, row, threads, timed, zipf_minibatches,
};

/// An experiment's `--exp` name and its body (taking `quick`).
type Experiment = (&'static str, fn(bool));

/// Every experiment this binary runs, in run order.
const EXPERIMENTS: &[Experiment] = &[
    ("e1", e1_sbbc),
    ("e2", e2_basic_counting),
    ("e3", e3_sum),
    ("e4", e4_infinite_window),
    ("e5", e5_sliding_variants),
    ("e6", e6_count_min),
    ("e7", e7_independent_vs_shared),
    ("e8", e8_work_optimality),
    ("e14", e14_observability),
    ("e17", e17_fault_tolerance),
    ("f2", f2_snapshot_example),
];

/// The experiments `--exp` selects: all of them without the flag, the
/// named one with it, none for a name not in the table.
fn select(name: Option<&str>) -> Vec<Experiment> {
    EXPERIMENTS
        .iter()
        .copied()
        .filter(|(known, _)| name.is_none_or(|n| n.eq_ignore_ascii_case(known)))
        .collect()
}

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
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let quick = args.iter().any(|a| a == "--quick");
    let exp = value_of("--exp").map(String::as_str);
    let selected = select(exp);
    if selected.is_empty() {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "unknown experiment {:?}; known experiments: {}",
            exp.unwrap_or_default(),
            known.join(", ")
        );
        std::process::exit(2);
    }

    println!(
        "PSFA experiment reproduction (rayon threads = {}{})\n",
        threads(),
        if quick { ", --quick" } else { "" }
    );
    for (_, run) in selected {
        run(quick);
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

        let mut par = AtomicCountMin::new(eps, delta, 3);
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
                par.num_counters().to_string(),
            ])
        );

        let mut seq = AtomicCountMin::new(eps, delta, 3);
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
/// and prints their percentiles.
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
                // Each answer, then the annotation that covers it.
                let _ = qh.heavy_hitters();
                degraded += u64::from(qh.degradation().is_some());
                let _ = qh.estimate(1);
                degraded += u64::from(qh.degradation().is_some());
                total += 2;
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
    let answer = handle.heavy_hitters();
    for hh in &answer {
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
                answer.iter().any(|hh| hh.item == item),
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

    engine
        .shutdown()
        .expect("E17: recovered engine must shut down cleanly");
    println!();
}

/// F2 — the γ-snapshot worked example of Figure 2.
fn f2_snapshot_example(_quick: bool) {
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
         Definition 3.1 as written also records block 8)"
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_lookup_finds_known_names_and_refuses_the_rest() {
        assert_eq!(select(None).len(), EXPERIMENTS.len());
        for (name, _) in EXPERIMENTS {
            let one = select(Some(name));
            assert_eq!(one.len(), 1);
            assert_eq!(one[0].0, *name);
        }
        assert_eq!(select(Some("E4"))[0].0, "e4");
        // Retired and misspelt names select nothing, which `main` refuses.
        for gone in ["e9", "e13", "e15", "e16", "nonsense", ""] {
            assert!(select(Some(gone)).is_empty(), "{gone:?} selected something");
        }
    }
}
