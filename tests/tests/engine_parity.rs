//! The sharded engine must be *equivalent* to the single-threaded
//! per-minibatch loop: same input stream, same (φ, ε), same guarantees. These
//! tests drive both paths on one Zipf workload and compare them to each other
//! and to exact counts, then exercise queries racing live ingestion.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use psfa::prelude::*;

const PHI: f64 = 0.02;
const EPSILON: f64 = 0.004;

fn zipf_batches(batches: usize, batch_size: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut generator = ZipfGenerator::new(100_000, 1.2, seed);
    (0..batches)
        .map(|_| generator.next_minibatch(batch_size))
        .collect()
}

fn exact_counts(batches: &[Vec<u64>]) -> HashMap<u64, u64> {
    let mut exact = HashMap::new();
    for batch in batches {
        for &x in batch {
            *exact.entry(x).or_insert(0u64) += 1;
        }
    }
    exact
}

#[test]
fn sharded_ingestion_matches_single_threaded_pipeline_within_epsilon() {
    let batches = zipf_batches(40, 5_000, 2024);
    let truth = exact_counts(&batches);
    let m: u64 = truth.values().sum();

    // Single-threaded reference: the paper's operators, one minibatch at
    // a time.
    let mut single_hh = InfiniteHeavyHitters::new(PHI, EPSILON);
    let mut single_cm = AtomicCountMin::new(0.001, 0.01, 7);
    for batch in &batches {
        single_hh.process_minibatch(batch);
        single_cm.process_minibatch(batch);
    }

    // Sharded engine on the same input.
    let engine = Engine::spawn(
        EngineConfig::with_shards(4)
            .heavy_hitters(PHI, EPSILON)
            .count_min(0.001, 0.01, 7),
    );
    let handle = engine.handle();
    for batch in &batches {
        handle.ingest(batch).unwrap();
    }
    engine.drain().unwrap();
    assert_eq!(handle.total_items(), m);

    // Point estimates: both paths are one-sided within εm of the truth, so
    // they are within εm of each other.
    let slack = (EPSILON * m as f64).ceil() as u64;
    for (&item, &f) in &truth {
        let sharded = handle.estimate(item);
        let single = single_hh.estimator().estimate(item);
        assert!(sharded <= f, "sharded estimate {sharded} above truth {f}");
        assert!(
            sharded + slack >= f,
            "sharded estimate {sharded} under truth {f} - εm"
        );
        assert!(
            sharded.abs_diff(single) <= slack,
            "sharded {sharded} and single-threaded {single} differ by more than εm = {slack}"
        );
    }

    // Heavy hitters: identical completeness/soundness bands around φ.
    let sharded_hh: Vec<u64> = handle.heavy_hitters().iter().map(|h| h.item).collect();
    let single_set: Vec<u64> = single_hh.query().iter().map(|h| h.item).collect();
    for (&item, &f) in &truth {
        if f as f64 >= PHI * m as f64 {
            assert!(
                sharded_hh.contains(&item),
                "engine missed heavy hitter {item}"
            );
            assert!(
                single_set.contains(&item),
                "single-threaded reference missed heavy hitter {item}"
            );
        }
        if (f as f64) < (PHI - EPSILON) * m as f64 {
            assert!(!sharded_hh.contains(&item), "engine false positive {item}");
        }
    }

    // Count-Min: merged shard sketches equal the single sketch exactly
    // (same seed, partitioned input).
    let merged = handle.merged_count_min();
    assert_eq!(merged.total(), single_cm.total());
    assert_eq!(merged, single_cm);

    // The post-shutdown merged estimator also covers the whole stream.
    let report = engine.shutdown().unwrap();
    let merged_est = report.merged_estimator();
    assert_eq!(merged_est.stream_len(), m);
    for (&item, &f) in &truth {
        let est = merged_est.estimate(item);
        assert!(est <= f);
        assert!(est + slack >= f);
    }
}

/// The acceptance test for skew-aware routing: on a Zipf(1.5) stream (whose
/// head key alone carries ~38% of all traffic) the skew-aware router must
/// measurably level per-shard load versus hash routing, while every answer
/// stays within the configured ε of the single-threaded reference.
#[test]
fn skew_aware_router_levels_load_and_matches_single_thread() {
    let mut generator = ZipfGenerator::new(100_000, 1.5, 4242);
    let batches: Vec<Vec<u64>> = (0..40).map(|_| generator.next_minibatch(5_000)).collect();
    let truth = exact_counts(&batches);
    let m: u64 = truth.values().sum();
    let slack = (EPSILON * m as f64).ceil() as u64;

    // Single-threaded reference on the same stream.
    let mut single = InfiniteHeavyHitters::new(PHI, EPSILON);
    for batch in &batches {
        single.process_minibatch(batch);
    }

    let run = |routing: RoutingPolicy| {
        let engine = Engine::spawn(
            EngineConfig::with_shards(4)
                .heavy_hitters(PHI, EPSILON)
                .routing(routing),
        );
        let handle = engine.handle();
        for batch in &batches {
            handle.ingest(batch).unwrap();
        }
        engine.drain().unwrap();
        let metrics = handle.metrics();
        let estimates: HashMap<u64, u64> = truth
            .keys()
            .map(|&item| (item, handle.estimate(item)))
            .collect();
        let hh: Vec<u64> = handle.heavy_hitters().iter().map(|h| h.item).collect();
        // The post-shutdown merged estimator must cover the whole stream
        // under either router: MgSummary::merge adds counters item-wise, so
        // a hot key's fragments recombine with the merged-ε bound.
        let report = engine.shutdown().unwrap();
        let merged = report.merged_estimator();
        assert_eq!(merged.stream_len(), m);
        for (&item, &f) in &truth {
            let est = merged.estimate(item);
            assert!(est <= f, "merged estimate {est} above truth {f}");
            assert!(
                est + slack >= f,
                "merged estimate {est} under truth {f} - εm"
            );
        }
        (metrics, estimates, hh)
    };

    let (hash_metrics, ..) = run(RoutingPolicy::Hash);
    let (skew_metrics, estimates, hh) = run(RoutingPolicy::skew_aware());

    // Answer parity: one-sided within εm of the truth and within εm of the
    // single-threaded reference, exactly as under hash routing.
    for (&item, &f) in &truth {
        let sharded = estimates[&item];
        assert!(
            sharded <= f,
            "skew-routed estimate {sharded} above truth {f}"
        );
        assert!(
            sharded + slack >= f,
            "skew-routed estimate {sharded} under truth {f} - εm"
        );
        let reference = single.estimator().estimate(item);
        assert!(
            sharded.abs_diff(reference) <= slack,
            "skew-routed {sharded} and single-threaded {reference} differ by more than εm"
        );
    }

    // Heavy hitters keep the (φ, ε) bands, with no per-fragment duplicates.
    for (&item, &f) in &truth {
        if f as f64 >= PHI * m as f64 {
            assert!(hh.contains(&item), "skew engine missed heavy hitter {item}");
        }
        if (f as f64) < (PHI - EPSILON) * m as f64 {
            assert!(!hh.contains(&item), "skew engine false positive {item}");
        }
    }
    let mut unique = hh.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), hh.len(), "replicated keys reported once");

    // The load win: the head keys were promoted and the busiest shard's
    // share dropped measurably below hash routing's.
    assert!(
        !skew_metrics.hot_keys.is_empty(),
        "Zipf(1.5) head keys must be promoted"
    );
    let hash_imbalance = hash_metrics.load_imbalance().unwrap();
    let skew_imbalance = skew_metrics.load_imbalance().unwrap();
    assert!(
        skew_imbalance < hash_imbalance,
        "skew-aware imbalance {skew_imbalance:.3} must beat hash imbalance {hash_imbalance:.3}"
    );
    assert!(
        skew_imbalance < 0.75 * hash_imbalance,
        "the win must be substantial, not noise: skew {skew_imbalance:.3} vs hash {hash_imbalance:.3}"
    );
}

#[test]
fn queries_answer_while_ingestion_is_in_flight() {
    let engine = Engine::spawn(
        EngineConfig::with_shards(4)
            .queue_capacity(4)
            .heavy_hitters(0.02, 0.005)
            .sliding_window(200_000),
    );
    let done = Arc::new(AtomicBool::new(false));

    // Two producers pushing 30 batches of 5k each through cloned handles.
    let mut producers = Vec::new();
    for p in 0..2u64 {
        let handle = engine.handle();
        producers.push(std::thread::spawn(move || {
            let mut generator = ZipfGenerator::new(50_000, 1.3, 100 + p);
            let mut sent = 0u64;
            for _ in 0..30 {
                let batch = generator.next_minibatch(5_000);
                sent += batch.len() as u64;
                handle
                    .ingest(&batch)
                    .expect("engine must accept while running");
            }
            sent
        }));
    }

    // Query loop racing the producers: totals, epochs, and the aligned
    // window boundary must be monotone, and every query style must answer
    // without blocking on ingestion.
    let queries = {
        let handle = engine.handle();
        let done = done.clone();
        std::thread::spawn(move || {
            let mut last_total = 0u64;
            let mut last_epochs = vec![0u64; handle.shards()];
            let mut last_window_seq = 0u64;
            let mut observed_mid_ingest = 0u64;
            while !done.load(Ordering::Acquire) {
                let total = handle.total_items();
                assert!(total >= last_total, "total items went backwards");
                let epochs = handle.epochs();
                for (now, before) in epochs.iter().zip(&last_epochs) {
                    assert!(now >= before, "shard epoch went backwards");
                }
                let hh = handle.heavy_hitters();
                for pair in hh.windows(2) {
                    assert!(
                        pair[0].estimate >= pair[1].estimate,
                        "heavy hitters unsorted"
                    );
                }
                // Zipf(1.3)'s head item is always heavy once data flows.
                if total > 20_000 {
                    assert!(!hh.is_empty(), "no heavy hitters at m = {total}");
                    assert!(handle.estimate(hh[0].item) > 0);
                    assert!(handle.cm_estimate(hh[0].item) >= handle.estimate(hh[0].item));
                }
                // The sliding surface answers concurrently; before the
                // first boundary it reports "no aligned window" rather
                // than a wrong number, and the aligned boundary only
                // moves forward.
                if let Some(window) = handle.global_window() {
                    assert!(
                        window.seq() >= last_window_seq,
                        "aligned window went backwards"
                    );
                    last_window_seq = window.seq();
                    assert!(window.items() > 0);
                    let _ = handle.sliding_estimate(hh.first().map_or(0, |h| h.item));
                    let _ = handle.sliding_heavy_hitters();
                }
                // Count only rounds that genuinely raced live ingestion:
                // some data had arrived but the full 300k had not.
                if total > 0 && total < 300_000 {
                    observed_mid_ingest += 1;
                }
                last_total = total;
                last_epochs = epochs;
                std::thread::yield_now();
            }
            observed_mid_ingest
        })
    };

    let sent: u64 = producers.into_iter().map(|p| p.join().unwrap()).sum();
    engine.drain().unwrap();
    done.store(true, Ordering::Release);
    let mid_ingest_queries = queries.join().unwrap();

    assert_eq!(sent, 300_000);
    let handle = engine.handle();
    assert_eq!(handle.total_items(), sent);
    assert_eq!(handle.metrics().items_processed(), sent);
    assert!(
        mid_ingest_queries > 0,
        "the query thread never observed the engine mid-ingest; \
         increase the workload if this machine got faster"
    );
    // After the drain every shard is aligned to the latest boundary:
    // 300k items at slide 25k ⇒ boundary 12, window = the last 8 panes.
    // With concurrent producers a boundary can overshoot its exact
    // multiple (batches recorded between the crossing and the cut land in
    // the earlier pane), so the 8-pane window covers *about* 200k items —
    // its exact count is reported, never guessed.
    let window = handle.global_window().expect("aligned window after drain");
    assert_eq!(window.seq(), 12);
    assert!(
        window.items() <= 200_000 && window.items() >= 150_000,
        "8 panes of ~25k items, got {}",
        window.items()
    );
    let hh = handle.heavy_hitters();
    assert!(handle.sliding_estimate(hh[0].item) > 0);
    let metrics = handle.metrics();
    let wm = metrics.window.expect("window metrics");
    assert_eq!((wm.boundaries, wm.max_shard_lag), (12, 0));
    let report = engine.shutdown().unwrap();
    assert_eq!(report.total_items(), sent);
}

#[test]
fn hash_routing_partitions_the_stream() {
    // Per-shard summaries see disjoint keys whose union is the full stream.
    let batches = zipf_batches(10, 2_000, 7);
    let truth = exact_counts(&batches);
    let engine = Engine::spawn(EngineConfig::with_shards(4).heavy_hitters(0.05, 0.01));
    let handle = engine.handle();
    for batch in &batches {
        handle.ingest(batch).unwrap();
    }
    let report = engine.shutdown().unwrap();
    assert_eq!(report.shards.len(), 4);

    // Each key's estimate lives on its owning shard and nowhere else, and
    // shard stream lengths partition the input.
    for (&item, &count) in &truth {
        let owner = shard_of(item, 4);
        assert!(
            report.shards[owner]
                .heavy_hitters
                .estimator()
                .estimate(item)
                <= count
        );
        for (shard, fin) in report.shards.iter().enumerate() {
            if shard != owner {
                assert_eq!(
                    fin.heavy_hitters.estimator().estimate(item),
                    0,
                    "item {item} leaked onto shard {shard}"
                );
            }
        }
    }
    let total: u64 = report.shards.iter().map(|s| s.items).sum();
    assert_eq!(total, truth.values().sum::<u64>());
}
