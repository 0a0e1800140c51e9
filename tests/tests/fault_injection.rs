//! Fault-injection suite: seeded [`FaultPlan`]s drive worker panics,
//! store write errors, and restart-budget exhaustion through the public
//! engine API, asserting the supervision contract:
//!
//! 1. **Never an abort** — every injected panic is either recovered (the
//!    supervisor reseeds the worker from its last published snapshot) or
//!    surfaced as a *typed* error ([`ShutdownError`], [`IngestError`]);
//!    no panic ever reaches the caller.
//! 2. **Degraded answers stay one-sided** — heavy-hitter and point
//!    estimates never exceed the exact count of the offered stream, even
//!    when restart loss drops in-flight minibatches (loss only shrinks
//!    counts, it never invents them).
//! 3. **Faults are observable** — quarantine/restart/flush-failure all
//!    land in metrics and the trace ring, a quarantine window is visible
//!    to queries and then clears, and a failed store flush never wedges
//!    the epoch fence.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use psfa::prelude::*;

fn tmpdir(label: &str) -> std::path::PathBuf {
    psfa::store::testutil::unique_temp_dir(&format!("fault-{label}"))
}

/// Polls `cond` every 5 ms until it holds or `timeout` elapses.
fn wait_for(cond: impl Fn() -> bool, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Proptest over seeded fault plans: inject up to three worker panics
    /// at random (shard, batch) points, stream a skewed workload through
    /// the engine, and check the supervision contract end to end. The
    /// exact reference counts the *offered* stream, so restart loss (the
    /// documented cost of a recovery) can only make engine estimates
    /// smaller — the one-sided bound must survive every schedule.
    #[test]
    fn injected_panics_recover_or_surface_typed(
        seed in any::<u64>(),
        panics in 0usize..4,
        shards in 1usize..5,
    ) {
        let batches = 12u64;
        let plan = FaultPlan::from_seed(seed, shards, batches, panics)
            .with_restart_delay(Duration::from_millis(1));
        let engine = Engine::spawn(
            EngineConfig::with_shards(shards)
                .heavy_hitters(0.05, 0.01)
                .fault_injection(plan),
        );
        let handle = engine.handle();
        let mut zipf = ZipfGenerator::new(10_000, 1.3, seed ^ 0xABCD);
        let mut offered: HashMap<u64, u64> = HashMap::new();
        for _ in 0..batches {
            let batch = zipf.next_minibatch(500);
            // Count before ingesting: a partially delivered batch must
            // still be covered by the reference, or a processed half
            // could exceed an uncounted exact value.
            for &x in &batch {
                *offered.entry(x).or_insert(0) += 1;
            }
            // A typed rejection (dead shard) ends the stream cleanly; a
            // panic here would fail the proptest case, which is the point.
            if handle.ingest(&batch).is_err() {
                break;
            }
        }
        // Settle whatever survived. Both outcomes are acceptable — Ok
        // (all panics recovered) or a typed dead-shard listing.
        let _ = handle.drain();

        for hh in &handle.heavy_hitters() {
            let exact = offered.get(&hh.item).copied().unwrap_or(0);
            prop_assert!(
                hh.estimate <= exact,
                "one-sided bound violated for {}: estimate {} > exact {}",
                hh.item, hh.estimate, exact
            );
        }
        for (&item, &exact) in offered.iter().take(16) {
            prop_assert!(handle.estimate(item) <= exact);
        }

        match engine.shutdown() {
            Ok(_) => {}
            Err(e) => prop_assert!(
                !e.dead_shards.is_empty(),
                "a ShutdownError must name the dead shards"
            ),
        }
    }
}

/// With a zero restart budget, one injected panic kills its shard — and
/// that death is typed everywhere it can be observed: shard health,
/// `drain`, degraded query annotations, and `shutdown`. Nothing panics.
#[test]
fn restart_budget_exhaustion_is_a_typed_death_not_an_abort() {
    let engine = Engine::spawn(
        EngineConfig::with_shards(2)
            .heavy_hitters(0.05, 0.01)
            .worker_restart_limit(0)
            .fault_injection(FaultPlan::new().with_worker_panic(0, 1)),
    );
    let handle = engine.handle();
    // Enough distinct keys that every batch lands parts on both shards.
    let batch: Vec<u64> = (0..64).collect();
    let died = wait_for(
        || {
            let _ = handle.ingest(&batch);
            handle.metrics().shards[0].health == ShardHealth::Dead
        },
        Duration::from_secs(10),
    );
    assert!(died, "an unrecoverable panic must mark its shard Dead");

    // The barrier reports exactly which shard is gone.
    let err = handle
        .drain()
        .expect_err("drain must surface the dead shard");
    assert_eq!(err.dead_shards, vec![0]);

    // Queries keep answering from the dead shard's last snapshot, and say
    // so: the answer carries a Degraded annotation naming the shard.
    let _answer = handle.heavy_hitters();
    let degraded = handle
        .degradation()
        .expect("answers over a dead shard must be marked degraded");
    assert_eq!(degraded.stale_shards, vec![0]);

    // Shutdown is the same story: a typed listing, not a panic.
    match engine.shutdown() {
        Ok(_) => panic!("shutdown must surface the dead shard"),
        Err(err) => assert_eq!(err.dead_shards, vec![0]),
    }
}

/// A worker that died for good (restart budget 0) drops its queue, so a
/// minibatch that routes to it is refused part-way: shard 0's part is sent
/// first and stays enqueued, shard 1's send finds the queue gone. Both
/// ingest paths — `EngineHandle::ingest` and a `Producer` — report exactly
/// that as a partial delivery, never as a clean rejection.
#[test]
fn a_dead_worker_makes_ingest_a_reported_partial_delivery() {
    let engine = Engine::spawn(
        EngineConfig::with_shards(2)
            .heavy_hitters(0.05, 0.01)
            .worker_restart_limit(0)
            .fault_injection(FaultPlan::new().with_worker_panic(1, 1)),
    );
    let handle = engine.handle();
    // Enough distinct keys that every batch lands parts on both shards.
    let batch: Vec<u64> = (0..64).collect();
    let died = wait_for(
        || {
            let _ = handle.ingest(&batch);
            handle.metrics().shards[1].health == ShardHealth::Dead
        },
        Duration::from_secs(10),
    );
    assert!(died, "an unrecoverable panic must mark its shard Dead");
    // The barrier returns only once the dead worker's queue is dropped.
    assert_eq!(handle.drain().unwrap_err().dead_shards, vec![1]);

    let partial = IngestError {
        parts_delivered: 1,
        parts_total: 2,
    };
    assert_eq!(handle.ingest(&batch), Err(partial));
    let mut producer = handle.producer();
    assert_eq!(producer.ingest(&batch), Err(partial));
    assert!(!partial.is_clean_rejection());
    match engine.shutdown() {
        Ok(_) => panic!("shutdown must surface the dead shard"),
        Err(err) => assert_eq!(err.dead_shards, vec![1]),
    }
}

/// A recoverable panic shows up as a quarantine window — visible through
/// `degradation()` while the supervisor backs off, gone after the reseed —
/// with the restart counted in metrics and both transitions traced.
#[test]
fn quarantine_is_visible_then_clears_after_restart() {
    let engine = Engine::spawn(
        EngineConfig::with_shards(2)
            .heavy_hitters(0.05, 0.01)
            .observe()
            .fault_injection(
                FaultPlan::new()
                    .with_worker_panic(1, 2)
                    .with_restart_delay(Duration::from_millis(300)),
            ),
    );
    let handle = engine.handle();
    let batch: Vec<u64> = (0..256).collect();
    handle.ingest(&batch).unwrap();
    handle.ingest(&batch).unwrap(); // shard 1's second minibatch panics

    // While the supervisor sleeps before reseeding, queries are annotated.
    assert!(
        wait_for(|| handle.degradation().is_some(), Duration::from_secs(10)),
        "the quarantine window must be visible to queries"
    );
    let _answer = handle.estimate(0);
    if let Some(degraded) = handle.degradation() {
        assert_eq!(degraded.stale_shards, vec![1]);
    }

    // After the reseed the annotation clears and ingest flows again.
    assert!(
        wait_for(|| handle.degradation().is_none(), Duration::from_secs(10)),
        "degradation must clear once the worker restarts"
    );
    handle.ingest(&batch).unwrap();
    handle.drain().expect("all shards recovered");

    let metrics = handle.metrics();
    assert_eq!(metrics.worker_restarts(), 1);
    assert!(metrics.quarantined_shards().is_empty());
    let events = handle.trace_events();
    assert!(
        events.iter().any(|e| e.kind == TraceKind::ShardQuarantined),
        "quarantine must be traced"
    );
    assert!(
        events.iter().any(|e| e.kind == TraceKind::WorkerRestart),
        "the restart must be traced"
    );
    engine
        .shutdown()
        .expect("recovered engine shuts down cleanly");
}

/// An injected store write error fails exactly one flush attempt: the
/// flusher counts it, emits a `FlushFailed` trace event, skips the
/// interval, and keeps cutting later epochs — the fence never wedges.
#[test]
fn injected_store_write_error_surfaces_and_does_not_wedge_the_fence() {
    let dir = tmpdir("flush");
    let engine = Engine::spawn(
        EngineConfig::with_shards(2)
            .heavy_hitters(0.05, 0.01)
            .observe()
            .persistence(PersistenceConfig::new(&dir).interval_batches(1))
            .fault_injection(FaultPlan::new().with_store_write_error(0)),
    );
    let handle = engine.handle();
    let batch: Vec<u64> = (0..512).collect();
    for _ in 0..4 {
        handle.ingest(&batch).unwrap();
    }
    handle.drain().unwrap();

    // The first cut hits the injected error and is counted, not retried
    // in a hot loop: the flusher skips the interval.
    let failed = wait_for(
        || {
            handle
                .metrics()
                .store
                .is_some_and(|s| s.flush_failures >= 1)
        },
        Duration::from_secs(10),
    );
    assert!(
        failed,
        "the injected write error must surface as a counted flush failure"
    );

    // More traffic re-crosses the interval; the next cut succeeds — the
    // epoch fence moved past the fault instead of wedging on it.
    for _ in 0..4 {
        handle.ingest(&batch).unwrap();
    }
    handle.drain().unwrap();
    let progressed = wait_for(
        || {
            handle
                .metrics()
                .store
                .is_some_and(|s| s.epochs_persisted >= 1)
        },
        Duration::from_secs(10),
    );
    assert!(
        progressed,
        "flusher wedged after injected write error: {:?}",
        handle.metrics().store
    );
    assert!(
        handle
            .trace_events()
            .iter()
            .any(|e| e.kind == TraceKind::FlushFailed),
        "the failed flush must be traced"
    );
    engine
        .shutdown()
        .expect("store fault must not kill workers");
    let _ = std::fs::remove_dir_all(&dir);
}
