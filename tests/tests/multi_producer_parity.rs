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

/// The control plane's consistent cuts, tested as one object: four
/// producers ingest minibatches that each hold exactly one key owned by
/// every shard, while one thread loops barrier (`drain`) and persist
/// (`snapshot_now`) cuts and reads the aligned window. The window slide is
/// a multiple of the shard count, so no minibatch straddles a boundary.
/// A cut that split a minibatch, or a marker that landed at different
/// positions on different shards, would leave two shards with different
/// item counts at the same cut.
#[test]
fn cuts_land_between_whole_minibatches_on_every_shard() {
    const PANES: u64 = 4;
    const PER_PRODUCER: usize = 3_000;
    let shards = SHARDS as u64;
    let slide = 8 * shards;
    let dir = psfa::store::testutil::unique_temp_dir("cuts-are-consistent");
    let engine = Engine::spawn(
        EngineConfig::with_shards(SHARDS)
            .heavy_hitters(PHI, EPSILON)
            .sliding_window(slide * PANES)
            .window_panes(PANES as usize)
            .persistence(
                PersistenceConfig::new(&dir)
                    .interval_batches(u64::MAX / 2)
                    .retain_epochs(1_000),
            ),
    );
    let handle = engine.handle();
    // Eight keys per shard, each owned by that shard.
    let mut owned: Vec<Vec<u64>> = vec![Vec::new(); SHARDS];
    for key in 0u64.. {
        if let Placement::Owner(shard) = handle.placement(key) {
            if owned[shard].len() < 8 {
                owned[shard].push(key);
            }
        }
        if owned.iter().all(|keys| keys.len() == 8) {
            break;
        }
    }

    let done = std::sync::atomic::AtomicBool::new(false);
    let (accepted, windows_read) = std::thread::scope(|scope| {
        let cutter = scope.spawn(|| {
            let mut windows_read = 0u64;
            while !done.load(std::sync::atomic::Ordering::Acquire) {
                handle.drain().expect("no shard dies");
                handle.snapshot_now().expect("the store accepts the cut");
                // A boundary marker sits at one stream position on every
                // shard, so each shard's pane ring at an aligned boundary
                // holds the same whole minibatches: equal item counts.
                // (Not `min(seq, panes) × slide`: a minibatch accepted
                // between a crossing claim and its boundary cut lands in
                // the earlier pane — see ROADMAP item 6.)
                if let Some(window) = handle.global_window() {
                    let per_shard: Vec<u64> = handle
                        .snapshots()
                        .iter()
                        .filter_map(|s| s.window_at(window.seq()).map(|w| w.items))
                        .collect();
                    if per_shard.len() == SHARDS {
                        assert!(
                            per_shard.iter().all(|&n| n == per_shard[0]),
                            "boundary {} was cut at different positions: {per_shard:?}",
                            window.seq()
                        );
                        assert_eq!(per_shard.iter().sum::<u64>(), window.items());
                        windows_read += 1;
                    }
                }
            }
            windows_read
        });
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let (mut producer, owned) = (handle.producer(), &owned);
                scope.spawn(move || {
                    let mut accepted = 0u64;
                    for i in 0..PER_PRODUCER {
                        let batch: Vec<u64> = owned.iter().map(|keys| keys[(i + p) % 8]).collect();
                        producer.ingest(&batch).expect("the engine is running");
                        accepted += 1;
                    }
                    accepted
                })
            })
            .collect();
        let accepted: u64 = producers.into_iter().map(|p| p.join().unwrap()).sum();
        done.store(true, std::sync::atomic::Ordering::Release);
        (accepted, cutter.join().unwrap())
    });
    assert!(windows_read > 0, "the cutter never read an aligned window");

    handle.drain().expect("no shard dies");
    assert_eq!(handle.total_items(), accepted * shards);
    engine.shutdown().expect("no shard dies");

    let store = SnapshotStore::open(&dir, 1_000, 4).expect("the store reopens");
    let epochs = store.epochs();
    assert!(epochs.len() > 1, "the cutter persisted no epoch");
    for epoch in epochs {
        let record = store.load(epoch).expect("a retained epoch loads");
        let items: Vec<u64> = record.shards.iter().map(|s| s.items).collect();
        assert!(
            items.iter().all(|&n| n == items[0]),
            "epoch {epoch} cut a minibatch: per-shard items {items:?}"
        );
        let clock = record.window.expect("a windowed engine persists its clock");
        assert_eq!(
            clock.ticket,
            items.iter().sum::<u64>(),
            "epoch {epoch}: the window clock was not read at the cut"
        );
    }
}
