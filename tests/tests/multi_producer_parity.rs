//! Multi-producer ingest parity: whatever combination of producer count
//! (1/2/4/8) and routing policy (hash / skew-aware) feeds the engine
//! through per-thread [`Producer`]s, the answers must be indistinguishable
//! from a single-threaded run over the same stream:
//!
//! * **exact conservation** — every accepted item is counted exactly once
//!   (`total_items` equals the stream length, no loss, no double count);
//! * **one-sided `ε·m` accuracy** — estimates never exceed the true
//!   frequency and undershoot by at most `⌈ε·m⌉`, the Misra–Gries bound of
//!   Lemma 5.3 (the per-shard errors are `ε·mᵢ` and the `mᵢ` sum to `m`,
//!   so the merged bound survives any partitioning);
//! * **heavy-hitter coverage** — every item with true frequency
//!   `≥ φ·m` is reported, and nothing below `(φ−ε)·m` sneaks in;
//! * **overestimate-only Count-Min band** — `cm_estimate` never dips
//!   below the true frequency.
//!
//! This is the acceptance test for the multi-producer front end: if a
//! producer's routing scratch dropped or resent a sub-batch, or a window
//! ticket double-counted, conservation or the ε-band breaks.

use std::collections::HashMap;

use psfa::prelude::*;

const SHARDS: usize = 4;
const PHI: f64 = 0.02;
const EPSILON: f64 = 0.004;
const CM_EPSILON: f64 = 0.002;
const CM_DELTA: f64 = 0.01;
const BATCHES: usize = 48;
const BATCH_SIZE: usize = 4_000;

/// A Zipf(1.3) stream chopped into minibatches; skewed enough that both
/// the skew-aware router's hot-key splitting and the Misra–Gries pruning
/// actually fire.
fn minibatches(seed: u64) -> Vec<Vec<u64>> {
    let mut zipf = ZipfGenerator::new(50_000, 1.3, seed);
    (0..BATCHES)
        .map(|_| zipf.next_minibatch(BATCH_SIZE))
        .collect()
}

fn exact_truth(batches: &[Vec<u64>]) -> HashMap<u64, u64> {
    let mut truth = HashMap::new();
    for batch in batches {
        for &item in batch {
            *truth.entry(item).or_insert(0u64) += 1;
        }
    }
    truth
}

/// Runs `producers` concurrent [`Producer`]s over a fixed stream
/// (round-robin batch assignment) and checks every parity property
/// against the exact single-threaded truth.
fn run_parity(routing: RoutingPolicy, producers: usize) {
    let batches = minibatches(31 + producers as u64);
    let truth = exact_truth(&batches);
    let m: u64 = (BATCHES * BATCH_SIZE) as u64;

    let engine = Engine::spawn(
        EngineConfig::with_shards(SHARDS)
            .routing(routing)
            .heavy_hitters(PHI, EPSILON)
            .count_min(CM_EPSILON, CM_DELTA, 5),
    );
    let handle = engine.handle();

    std::thread::scope(|scope| {
        let handle = &handle;
        for k in 0..producers {
            let mut producer = handle.producer();
            let slice: Vec<&Vec<u64>> = batches.iter().skip(k).step_by(producers).collect();
            scope.spawn(move || {
                for batch in slice {
                    producer.ingest(batch).expect("engine closed mid-stream");
                }
                handle.drain().unwrap();
            });
        }
    });
    engine.drain().unwrap();

    let label = format!("{producers} producers");

    // Exact conservation: no item lost on the way to a shard, none
    // double-counted.
    assert_eq!(
        handle.total_items(),
        m,
        "{label}: accepted items must be counted exactly once"
    );

    // One-sided ε·m accuracy against the exact truth, plus the
    // overestimate-only Count-Min band.
    let slack = (EPSILON * m as f64).ceil() as u64;
    for (&item, &f) in &truth {
        let est = handle.estimate(item);
        assert!(
            est <= f,
            "{label}: item {item} overestimated ({est} > true {f})"
        );
        assert!(
            est + slack >= f,
            "{label}: item {item} undershoots the ε·m band ({est} + {slack} < {f})"
        );
        let cm = handle.cm_estimate(item);
        assert!(
            cm >= f,
            "{label}: Count-Min underestimated item {item} ({cm} < true {f})"
        );
    }

    // Heavy-hitter coverage: everything φ-heavy is reported; nothing below
    // the (φ−ε)·m admission floor survives.
    let reported = handle.heavy_hitters();
    let heavy_floor = PHI * m as f64;
    for (&item, &f) in &truth {
        if f as f64 >= heavy_floor {
            assert!(
                reported.iter().any(|h| h.item == item),
                "{label}: φ-heavy item {item} (f = {f}) missing from heavy_hitters()"
            );
        }
    }
    let admission_floor = (PHI - EPSILON) * m as f64;
    for h in &reported {
        let f = truth.get(&h.item).copied().unwrap_or(0);
        assert!(
            f as f64 >= admission_floor,
            "{label}: reported item {} has true frequency {f} below (φ−ε)·m = {admission_floor}",
            h.item
        );
    }

    engine.shutdown().unwrap();
}

#[test]
fn producers_hash_routing_matches_single_thread() {
    for producers in [1, 2, 4, 8] {
        run_parity(RoutingPolicy::Hash, producers);
    }
}

#[test]
fn producers_skew_aware_routing_matches_single_thread() {
    for producers in [1, 2, 4, 8] {
        run_parity(RoutingPolicy::skew_aware(), producers);
    }
}
