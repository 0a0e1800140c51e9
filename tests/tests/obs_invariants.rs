//! Invariants of the observability layer (PR 6): the telemetry must obey
//! the same algebraic and concurrency laws as the data plane it watches.
//!
//! * [`AtomicLogHistogram`] snapshots merge **exactly** commutatively and
//!   associatively (bucket-wise addition), and the canonical codec
//!   round-trips every distribution — the mergeable-summaries contract
//!   applied to latency histograms.
//! * Percentiles are **one-sided**: never below the true quantile, above
//!   it by at most one log-bucket (`2^-5` relative, exact below 32).
//! * [`TraceRing`] never tears: under many concurrent writers every
//!   drained event is internally consistent and sequence numbers are
//!   strictly increasing, even while the ring overwrites its oldest slots.
//! * Engine metrics stay sane **while** producers ingest: counters are
//!   monotone across reads, the obs report's histogram counts only grow,
//!   and every traced event carries a valid shard tag.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use psfa::obs::NO_SHARD;
use psfa::prelude::*;

// ---- histogram laws ----------------------------------------------------

fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
    let h = AtomicLogHistogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #[test]
    fn histogram_merge_is_commutative_and_associative(
        xs in prop::collection::vec(0u64..u64::MAX, 0..200),
        ys in prop::collection::vec(0u64..u64::MAX, 0..200),
        zs in prop::collection::vec(0u64..u64::MAX, 0..200),
    ) {
        let (a, b, c) = (snapshot_of(&xs), snapshot_of(&ys), snapshot_of(&zs));

        // Commutative: a + b == b + a, byte-for-byte.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab.encode(), ba.encode());

        // Associative: (a + b) + c == a + (b + c).
        let mut ab_c = ab;
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c.encode(), a_bc.encode());

        // Merging equals recording the concatenation in one histogram.
        let mut all = Vec::new();
        all.extend_from_slice(&xs);
        all.extend_from_slice(&ys);
        all.extend_from_slice(&zs);
        prop_assert_eq!(a_bc.encode(), snapshot_of(&all).encode());
    }

    #[test]
    fn histogram_codec_round_trips(
        values in prop::collection::vec(0u64..u64::MAX, 0..300),
    ) {
        let snap = snapshot_of(&values);
        let decoded = HistogramSnapshot::decode(&snap.encode()).expect("decode");
        prop_assert_eq!(decoded.encode(), snap.encode());
        prop_assert_eq!(decoded.count(), values.len() as u64);
        let (p, q) = (snap.percentiles(), decoded.percentiles());
        prop_assert_eq!((p.p50, p.p90, p.p99, p.p999), (q.p50, q.p90, q.p99, q.p999));
    }

    #[test]
    fn histogram_percentiles_are_one_sided(
        values in prop::collection::vec(0u64..1_000_000_000u64, 1..300),
    ) {
        let snap = snapshot_of(&values);
        let mut values = values.clone();
        values.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let truth = values[rank - 1];
            let reported = snap.percentile(q);
            prop_assert!(
                reported >= truth,
                "p{q}: reported {reported} below true {truth}"
            );
            // One log-bucket of overshoot: exact below 32, ≤ 2^-5 relative
            // above (plus 1 for the bucket's inclusive upper bound).
            let bound = truth + truth / 32 + 1;
            prop_assert!(
                reported <= bound,
                "p{q}: reported {reported} above bound {bound} (true {truth})"
            );
        }
    }
}

// ---- trace ring under fire ---------------------------------------------

#[test]
fn trace_ring_never_tears_under_concurrent_writers() {
    const WRITERS: u64 = 8;
    const PER_WRITER: u64 = 5_000;
    // Small capacity on purpose: overwrite-oldest churns every slot.
    let ring = Arc::new(TraceRing::new(64));
    let mut threads = Vec::new();
    for w in 0..WRITERS {
        let ring = ring.clone();
        threads.push(std::thread::spawn(move || {
            for i in 0..PER_WRITER {
                // `b` is derived from `a`: a torn record (payload from two
                // different pushes) breaks the relation.
                let a = (w << 32) | i;
                ring.push(
                    a,
                    TraceKind::Boundary,
                    w as u32,
                    a,
                    a.wrapping_mul(0x9e37_79b9),
                );
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    let events = ring.drain();
    assert!(!events.is_empty());
    assert!(events.len() <= ring.capacity());
    let mut last_seq = None;
    for e in &events {
        assert_eq!(e.b, e.a.wrapping_mul(0x9e37_79b9), "torn payload: {e:?}");
        assert_eq!(e.at_ns, e.a, "timestamp from a different push: {e:?}");
        assert_eq!(e.shard as u64, e.a >> 32, "shard from a different push");
        if let Some(prev) = last_seq {
            assert!(e.seq > prev, "sequence numbers must strictly increase");
        }
        last_seq = Some(e.seq);
    }
    // Conservation: every push was either retained, drained earlier (none
    // here), or counted as dropped/overwritten.
    assert_eq!(ring.recorded(), WRITERS * PER_WRITER);
    assert!(ring.recorded() >= events.len() as u64 + ring.dropped());
}

// ---- engine metrics under concurrent ingest ----------------------------

#[test]
fn engine_metrics_invariants_hold_under_concurrent_ingest() {
    const SHARDS: usize = 4;
    let engine = Engine::spawn(
        EngineConfig::with_shards(SHARDS)
            .queue_capacity(4)
            .heavy_hitters(0.02, 0.004)
            .sliding_window(20_000)
            .observe(),
    );
    let handle = engine.handle();
    let stop = Arc::new(AtomicBool::new(false));

    let mut producers = Vec::new();
    for seed in 0..3u64 {
        let handle = handle.clone();
        let stop = stop.clone();
        producers.push(std::thread::spawn(move || {
            let mut generator = ZipfGenerator::new(20_000, 1.3, seed + 1);
            while !stop.load(Ordering::Acquire) {
                handle.ingest(&generator.next_minibatch(1_000)).unwrap();
            }
        }));
    }

    // The sampler races the producers: every observed counter must be
    // monotone, and the obs report internally consistent.
    let mut last_processed = 0u64;
    let mut last_enqueue_count = 0u64;
    let mut last_republished = 0u64;
    for _ in 0..200 {
        let metrics = handle.metrics();
        let processed = metrics.items_processed();
        assert!(
            processed >= last_processed,
            "processed items went backwards"
        );
        last_processed = processed;
        assert!(metrics.items_enqueued() >= processed);
        let report = metrics.obs.expect("observability is on");
        let waits = report.percentiles("enqueue_wait").unwrap();
        assert!(waits.count >= last_enqueue_count, "histogram lost samples");
        last_enqueue_count = waits.count;
        let republished: u64 = ["cadence", "boundary", "drain", "idle", "query_refresh"]
            .iter()
            .map(|r| report.counter(&format!("republish_{r}")).unwrap())
            .sum();
        assert!(
            republished >= last_republished,
            "republish count went backwards"
        );
        last_republished = republished;
        // The staleness contract, read off the running system: no shard's
        // snapshot trails its worker by more than the publication cadence
        // (`PUBLISH_EVERY` = 16 in `shard.rs`).
        for shard in &metrics.shards {
            assert!(shard.snapshot_lag <= 16, "snapshot lag: {shard:?}");
        }
        // Queries must stay answerable while under fire.
        let _ = handle.estimate(1);
        let _ = handle.heavy_hitters();
    }
    stop.store(true, Ordering::Release);
    for p in producers {
        p.join().unwrap();
    }
    engine.drain().unwrap();

    // Every traced event carries a valid shard tag and a known kind name.
    for event in handle.trace_events() {
        assert!(
            event.shard == NO_SHARD || (event.shard as usize) < SHARDS,
            "invalid shard tag: {event:?}"
        );
        assert!(!event.kind.name().is_empty());
    }

    // After the drain the aligned window exists and all kinds respond.
    assert!(handle.global_window().is_some());
    let metrics = handle.metrics();
    assert!(
        metrics.shards.iter().all(|s| s.snapshot_lag == 0),
        "a drained engine's snapshots are exactly current"
    );
    let report = metrics.obs.unwrap();
    assert!(report.percentiles("batch_service").unwrap().count > 0);
    assert!(report.percentiles("publish_staleness").unwrap().count > 0);
    engine.shutdown().unwrap();
}
