//! Concurrent stress test of the lock-free ingest hot path: query threads
//! hammer `estimate` / `cm_estimate` / `heavy_hitters` / the sliding
//! window *while* four producers ingest through their own
//! `EngineHandle::producer` endpoints, guarding the lock-free snapshot
//! publication and relaxed-atomic Count-Min against torn reads:
//!
//! * per-shard snapshot **epochs are monotone** across reads, and every
//!   snapshot is internally consistent (entries sorted, heavy-hitter
//!   candidates exactly the entries passing the local test at the
//!   snapshot's `stream_len`, `stream_len` matching the epoch's
//!   progression, the hashed point lookup answering what a binary search
//!   over the sorted entries answers);
//! * the Count-Min sketch **never reads below** what any observed snapshot
//!   reflects (the publication `Release`/`Acquire` edge), and after a drain
//!   it is overestimate-only against an exact reference;
//! * a `snapshot_now` cut **mid-stress** (one `Persist` command per shard
//!   FIFO) covers exactly the batches accepted before it and round-trips:
//!   recovery from it reproduces the persisted answers exactly.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use psfa::prelude::*;

const PHI: f64 = 0.02;
const EPSILON: f64 = 0.004;
const CM_EPSILON: f64 = 0.002;
const CM_DELTA: f64 = 0.01;
const SHARDS: usize = 4;
const WINDOW: u64 = 40_000;
const PANES: usize = 8;

fn config() -> EngineConfig {
    EngineConfig::with_shards(SHARDS)
        .queue_capacity(8)
        .heavy_hitters(PHI, EPSILON)
        .count_min(CM_EPSILON, CM_DELTA, 77)
        .sliding_window(WINDOW)
        .window_panes(PANES)
}

fn zipf_batches(batches: usize, batch_size: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut generator = ZipfGenerator::new(50_000, 1.4, seed);
    (0..batches)
        .map(|_| generator.next_minibatch(batch_size))
        .collect()
}

#[test]
fn concurrent_queries_during_ingest_never_tear() {
    let dir = psfa::store::testutil::unique_temp_dir("hotpath-stress");
    // Manual snapshots only: the mid-stress cut below is the one epoch.
    let config = config().persistence(PersistenceConfig::new(&dir).interval_batches(u64::MAX / 2));
    let engine = Engine::spawn(config.clone());
    let handle = engine.handle();

    let batches = zipf_batches(160, 4_000, 9);
    let truth: HashMap<u64, u64> = {
        let mut t = HashMap::new();
        for b in &batches {
            for &x in b {
                *t.entry(x).or_insert(0u64) += 1;
            }
        }
        t
    };
    let total: u64 = batches.iter().map(|b| b.len() as u64).sum();
    // Probe keys the summaries track — each querier a different 50 of the
    // stream's 150 most frequent keys — and a few keys it never holds.
    let mut by_count: Vec<(u64, u64)> = truth.iter().map(|(&k, &f)| (f, k)).collect();
    by_count.sort_unstable_by(|a, b| b.cmp(a));
    let absent = (1u64 << 40..).filter(|k| !truth.contains_key(k)).take(8);

    // --- query threads hammering the live surfaces ---------------------
    let stop = Arc::new(AtomicBool::new(false));
    let mut queriers = Vec::new();
    for q in 0..3usize {
        let handle = handle.clone();
        let stop = stop.clone();
        let top = by_count[q * 50..(q + 1) * 50].iter().map(|&(_, k)| k);
        let probes: Vec<u64> = top.chain(absent.clone()).collect();
        queriers.push(std::thread::spawn(move || {
            let mut last_epochs = [0u64; SHARDS];
            let mut last_window_seq = 0u64;
            let mut rounds = 0u64;
            while !stop.load(Ordering::Acquire) {
                // Snapshot invariants: monotone epochs, sorted entries,
                // stream length moving with the epoch.
                for (shard, snapshot) in handle.snapshots().into_iter().enumerate() {
                    assert!(
                        snapshot.epoch >= last_epochs[shard],
                        "shard {shard} epoch went backwards: {} < {}",
                        snapshot.epoch,
                        last_epochs[shard]
                    );
                    last_epochs[shard] = snapshot.epoch;
                    assert!(
                        snapshot.hh_entries.windows(2).all(|w| w[0].0 < w[1].0),
                        "shard {shard} snapshot entries not strictly item-sorted"
                    );
                    // Candidates: the entries passing the local pigeonhole
                    // test at this snapshot's stream length — a filter of
                    // the sorted entries, so an item-ascending subsequence.
                    let local = ((PHI - EPSILON) * snapshot.stream_len as f64).max(0.0);
                    let passing: Vec<(u64, u64)> = snapshot
                        .hh_entries
                        .iter()
                        .copied()
                        .filter(|&(_, est)| (est * SHARDS as u64) as f64 >= local)
                        .collect();
                    assert_eq!(
                        snapshot.hh_candidates, passing,
                        "shard {shard} candidates are not the passing entries"
                    );
                    // The hashed point index answers what a binary search
                    // over the sorted entries answers: at the probe keys
                    // below and at every tracked item.
                    let entries = &snapshot.hh_entries;
                    for &probe in &probes {
                        let searched = entries
                            .binary_search_by_key(&probe, |&(i, _)| i)
                            .map_or(0, |at| entries[at].1);
                        assert_eq!(
                            snapshot.estimate(probe),
                            searched,
                            "shard {shard}: indexed and searched lookups of {probe} differ"
                        );
                    }
                    assert!(
                        entries
                            .iter()
                            .all(|&(item, est)| snapshot.estimate(item) == est),
                        "shard {shard}: a tracked item's indexed lookup misses its entry"
                    );
                    assert!(
                        (snapshot.epoch == 0) == (snapshot.stream_len == 0),
                        "shard {shard}: epoch {} with stream_len {}",
                        snapshot.epoch,
                        snapshot.stream_len
                    );
                }
                // The relaxed-atomic Count-Min can never read below a
                // published Misra–Gries estimate: the sketch already holds
                // every batch at or before the snapshot's epoch.
                for &probe in &probes {
                    let est = handle.estimate(probe);
                    let cm = handle.cm_estimate(probe);
                    assert!(
                        cm >= est,
                        "count-min {cm} below snapshot estimate {est} for key {probe}"
                    );
                }
                // Merged heavy hitters stay sorted and deduplicated.
                let hh = handle.heavy_hitters();
                assert!(hh.windows(2).all(|w| w[0].estimate >= w[1].estimate));
                let mut items: Vec<u64> = hh.iter().map(|h| h.item).collect();
                items.sort_unstable();
                items.dedup();
                assert_eq!(items.len(), hh.len(), "duplicate heavy hitter reported");
                // The aligned window only moves forward. (Its item count
                // may overshoot `WINDOW` by up to a batch per pane:
                // boundaries are cut at batch granularity.)
                if let Some(window) = handle.global_window() {
                    assert!(
                        window.seq() >= last_window_seq,
                        "window boundary went backwards"
                    );
                    last_window_seq = window.seq();
                    assert!(window.items() <= WINDOW + (PANES * 4_000) as u64);
                }
                rounds += 1;
            }
            rounds
        }));
    }

    // --- four producers + one mid-stress snapshot -----------------------
    // All four feed the same per-shard FIFOs, so this also stresses the
    // FIFO cut: the snapshot below is one `Persist` command per shard, and
    // must find exactly the first half in front of it.
    let mid = batches.len() / 2;
    let (first_half, second_half) = batches.split_at(mid);
    let ingest_all = |chunk: &[Vec<u64>]| {
        std::thread::scope(|scope| {
            for k in 0..4usize {
                let mut producer = handle.producer();
                scope.spawn(move || {
                    for batch in chunk.iter().skip(k).step_by(4) {
                        producer.ingest(batch).expect("engine closed");
                    }
                    // No flush: accepted batches are already on the shard
                    // queues, so the cut below covers all of them.
                });
            }
        });
    };
    ingest_all(first_half);
    // Cut an epoch while the queriers are still hammering.
    let epoch = handle.snapshot_now().expect("mid-stress snapshot");
    let persisted_items = {
        // The cut is consistent: it covers exactly the first half (every
        // producer joined before the cut).
        let view = handle.view_at(epoch).expect("persisted epoch view");
        view.total_items()
    };
    assert_eq!(
        persisted_items,
        first_half.iter().map(|b| b.len() as u64).sum::<u64>()
    );
    ingest_all(second_half);
    engine.drain().unwrap();

    stop.store(true, Ordering::Release);
    let rounds: u64 = queriers.into_iter().map(|q| q.join().unwrap()).sum();
    assert!(rounds > 0, "query threads never observed the stream");

    // --- drained accuracy: the lock-free surfaces answer exactly --------
    assert_eq!(handle.total_items(), total);
    let slack = (EPSILON * total as f64).ceil() as u64;
    let cm_band = (CM_EPSILON * total as f64).ceil() as u64;
    let mut cm_violations = 0usize;
    for (&item, &f) in &truth {
        let est = handle.estimate(item);
        assert!(est <= f, "estimate {est} above truth {f}");
        assert!(est + slack >= f, "estimate {est} under {f} by more than εm");
        let cm = handle.cm_estimate(item);
        assert!(cm >= f, "count-min {cm} underestimates exact {f}");
        if cm > f + cm_band {
            cm_violations += 1;
        }
    }
    assert!(
        cm_violations <= truth.len() / 20,
        "{cm_violations}/{} items exceeded the ε_cm·m band",
        truth.len()
    );

    // --- the mid-stress snapshot round-trips through recovery -----------
    let persisted_hh = handle
        .view_at(epoch)
        .expect("historical query")
        .heavy_hitters();
    engine.kill();
    let recovered = Engine::recover(&dir, config).expect("recovery from the stress snapshot");
    let handle2 = recovered.handle();
    assert_eq!(handle2.total_items(), persisted_items);
    assert_eq!(handle2.heavy_hitters(), persisted_hh);
    // The recovered engine keeps serving and snapshotting.
    handle2.ingest(&zipf_batches(1, 2_000, 10)[0]).unwrap();
    recovered.drain().unwrap();
    assert_eq!(handle2.snapshot_now().unwrap(), epoch + 1);
    assert_eq!(
        handle2.view_at(epoch).unwrap().heavy_hitters(),
        persisted_hh
    );
    recovered.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lazy_publication_is_always_fresh_after_drain() {
    // Interleave ingest and drain repeatedly: after every drain the
    // published state must account for every accepted item — the lazy
    // publication may defer under load but a barrier always flushes it.
    let engine = Engine::spawn(
        EngineConfig::with_shards(2)
            .heavy_hitters(PHI, EPSILON)
            .count_min(CM_EPSILON, CM_DELTA, 3),
    );
    let handle = engine.handle();
    let mut total = 0u64;
    let mut hot_truth = 0u64;
    for round in 0..50u64 {
        // One hot key keeps MG membership stable, so the worker's
        // membership-change trigger stays silent and only the idle/barrier
        // publication path can keep this test passing. Cold keys live far
        // from the hot key so no round ever collides with it.
        let batch: Vec<u64> = (0..500)
            .map(|i| if i % 2 == 0 { 7 } else { 1_000_000 + round })
            .collect();
        hot_truth += 250;
        total += batch.len() as u64;
        handle.ingest(&batch).unwrap();
        engine.drain().unwrap();
        assert_eq!(handle.total_items(), total, "round {round}: stale snapshot");
        let est = handle.estimate(7);
        let slack = (EPSILON * total as f64).ceil() as u64;
        assert!(est <= hot_truth && est + slack >= hot_truth);
        assert!(handle.cm_estimate(7) >= hot_truth);
    }
    engine.shutdown().unwrap();
}
