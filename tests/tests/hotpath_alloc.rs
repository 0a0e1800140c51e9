//! Allocation audit of the recycled ingest hot path: after warm-up, a
//! stream of minibatches through `BufferPool::refill` of kept scratch →
//! `Router::partition_into` (hash routing) → a bounded queue, then drained
//! from it the way a shard worker does — the sub-batches already queued
//! folded into one minibatch, and for each the worker's own per-minibatch
//! body, `MinibatchKernel::apply` (`build_hist_runs` →
//! `InfiniteHeavyHitters::process_histogram` →
//! `PaneWindow::process_histogram` → `AtomicCountMin::ingest_histogram`) →
//! `BufferPool::give_back_all` — must perform **zero** heap allocations
//! (the histogram's probe table only grows and a shorter minibatch clears
//! a prefix of it, the MG tables are sized once for `2S` counters, the
//! cut-off selection runs in place, and every buffer is reused). The same
//! pass also routes every minibatch through a skew-aware router whose hot
//! set is already non-empty, and promotes one more key: the hot-set probe,
//! the skew tracker's sampling and a promotion allocate nothing either.
//!
//! The engine's ingest endpoints themselves — `EngineHandle::ingest`,
//! `EngineHandle::try_ingest` and `Producer::ingest`, each the one admit
//! routine over its own kept scratch — perform **zero** heap allocations
//! on the calling thread once warm.
//!
//! The same holds for the client side of the wire: after warm-up,
//! `Client::ingest` of an 8,192-item frame into a loopback `Server` — the
//! encode straight from the borrowed slice into the connection's reused
//! frame buffer, the one write, the response read and decode — performs
//! **zero** heap allocations on the calling thread.
//!
//! And for the engine's point reads: on a warm, drained engine,
//! `EngineHandle::estimate` (an owner-routed key and a replicated hot key
//! under skew-aware routing), `cm_estimate` and `total_items` — what a
//! dashboard or the benchmark's freshness probe polls in a loop — perform
//! **zero** heap allocations: each snapshot is read in place, never
//! collected. `heavy_hitters` on the same engine makes two allocations —
//! the list of loaded snapshots and the answer — and one more only when a
//! replicated key survives the global test, for the keys it sums.
//!
//! The counting `#[global_allocator]` below is process-wide, but it counts
//! only on a thread that raised its own `AUDITED`, into that thread's own
//! counter, so the tests (and the server's threads) cannot disturb each
//! other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use psfa::engine::MinibatchKernel;
use psfa::prelude::*;

thread_local! {
    static AUDITED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn count(&self) {
        if AUDITED.try_with(Cell::get).unwrap_or(false) {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    }
}

/// Heap allocations `f` makes on the calling thread.
fn allocations_in<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.get();
    AUDITED.set(true);
    let _ = std::hint::black_box(f());
    AUDITED.set(false);
    ALLOCATIONS.get() - before
}

// SAFETY: every operation is delegated to `System` unchanged; the counter
// is a side effect only (`AUDITED` and `ALLOCATIONS` are const-initialised
// and have no destructor, so touching them never allocates).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn recycled_hot_path_allocates_nothing_at_steady_state() {
    /// Sub-batches a minibatch folds at most: the engine's publication
    /// cadence (`PUBLISH_EVERY` = 16), so the deepest fold it can make is
    /// audited — twice per pass, then a shallower tail of 8.
    const FOLD: usize = 16;
    let mut generator = ZipfGenerator::new(100_000, 1.5, 61);
    let batches: Vec<Vec<u64>> = (0..2 * FOLD + 8)
        .map(|_| generator.next_minibatch(20_000))
        .collect();

    let pool = BufferPool::new(1, batches.len() + 2);
    let router = RoutingPolicy::Hash.build(1);
    let skew = RoutingPolicy::SkewAware.build(2);
    skew.promote(&[0]);
    let mut promoted = 0u64;
    // Sized for a whole batch per part, so no round-robin phase can grow them.
    let mut skew_parts: Vec<Vec<u64>> = (0..2).map(|_| Vec::with_capacity(20_000)).collect();
    let (queue, worker_side) = std::sync::mpsc::sync_channel::<Vec<u64>>(batches.len());
    let mut scratch = vec![Vec::new()];
    let mut group: Vec<Vec<u64>> = Vec::new();
    let mut kernel = MinibatchKernel::new(0);
    let mut hh = InfiniteHeavyHitters::new(0.01, 0.001);
    let mut window = PaneWindow::new(0.001, 8);
    let count_min = AtomicCountMin::new(0.0005, 0.01, 0x00C0_FFEE);
    // Allocations made by one pass of every batch through the cycle, batch
    // `short` cut to a third of its length: all of them routed and queued
    // first, then folded off the queue `FOLD` at a time.
    let mut pass = |short: Option<usize>| {
        allocations_in(|| {
            for (index, batch) in batches.iter().enumerate() {
                let batch = match short {
                    Some(short) if short == index => &batch[..batch.len() / 3],
                    _ => &batch[..],
                };
                skew.partition_into(batch, &mut skew_parts);
                pool.refill(&mut scratch);
                router.partition_into(batch, &mut scratch);
                queue.try_send(std::mem::take(&mut scratch[0])).unwrap();
            }
            promoted += 1;
            skew.promote(&[1_000_000 + promoted]);
            while let Ok(first) = worker_side.try_recv() {
                group.push(first);
                while group.len() < FOLD {
                    match worker_side.try_recv() {
                        Ok(next) => group.push(next),
                        Err(_) => break,
                    }
                }
                kernel.apply(&group, &mut hh, Some(&mut window), &count_min);
                pool.give_back_all(0, group.drain(..));
            }
        })
    };

    let warm_up = pass(None);
    assert!(
        warm_up > 0,
        "the counting allocator is not installed: sizing the buffers must allocate"
    );
    assert_eq!(
        pass(Some(5)),
        0,
        "the recycled, folded hot path must not allocate at steady state"
    );
    assert!(
        skew.hot_keys().contains(&1_000_002),
        "the audited pass promoted"
    );
}

#[test]
fn ingest_endpoints_allocate_nothing_at_steady_state() {
    /// Minibatches per audited endpoint; the queue holds all of them, so
    /// no send blocks.
    const BATCHES: usize = 8;
    // One shard whose worker holds every batch it dequeues for `HOLD`:
    // while an endpoint is audited, no give-back races its refills (a
    // contended lane leaves a slot empty, and the router then grows it).
    const HOLD: std::time::Duration = std::time::Duration::from_millis(50);
    let engine = Engine::spawn(
        EngineConfig::with_shards(1)
            .queue_capacity(4 * BATCHES)
            .heavy_hitters(0.01, 0.001)
            .fault_injection(FaultPlan::new().with_worker_delay(0, HOLD)),
    );
    let handle = engine.handle();
    let mut producer = handle.producer();
    let mut generator = ZipfGenerator::new(100_000, 1.2, 64);
    let batches: Vec<Vec<u64>> = (0..BATCHES)
        .map(|_| generator.next_minibatch(4_096))
        .collect();
    // Allocations one endpoint makes over every batch; the drain then has
    // the worker return the pass's buffers to the lane.
    let pass = |offer: &mut dyn FnMut(&[u64])| {
        let made = allocations_in(|| batches.iter().for_each(|batch| offer(batch)));
        engine.drain().expect("drain");
        made
    };
    let mut ingest = |batch: &[u64]| handle.ingest(batch).expect("ingest");
    let mut try_ingest = |batch: &[u64]| handle.try_ingest(batch).expect("try_ingest");
    let mut produce = |batch: &[u64]| producer.ingest(batch).expect("producer ingest");

    // Warm-up: every buffer one pass holds in flight, and each endpoint's
    // scratch.
    assert!(
        pass(&mut ingest) > 0,
        "the counting allocator is not installed: sizing the buffers must allocate"
    );
    pass(&mut try_ingest);
    pass(&mut produce);
    for (name, made) in [
        ("EngineHandle::ingest", pass(&mut ingest)),
        ("EngineHandle::try_ingest", pass(&mut try_ingest)),
        ("Producer::ingest", pass(&mut produce)),
    ] {
        assert_eq!(made, 0, "{name} must not allocate at steady state");
    }
    engine.shutdown().unwrap();
}

#[test]
fn client_ingest_allocates_nothing_at_steady_state() {
    let engine = Engine::spawn(EngineConfig::with_shards(2).heavy_hitters(0.01, 0.001));
    let server = Server::spawn(engine.handle(), ServeConfig::default()).expect("server");
    let mut client = Client::connect(server.local_addr()).expect("client");
    let mut generator = ZipfGenerator::new(100_000, 1.2, 62);
    let frames: Vec<Vec<u64>> = (0..16).map(|_| generator.next_minibatch(8_192)).collect();
    let mut ingest_all = || {
        for frame in &frames {
            // Busy is backpressure, not an error: either answer is a full
            // round trip over the connection's reused buffers.
            client.ingest(frame).expect("ingest over loopback");
        }
    };

    let warm_up = allocations_in(&mut ingest_all);
    assert!(
        warm_up > 0,
        "the counting allocator is not installed: sizing the frame buffer must allocate"
    );
    assert_eq!(
        allocations_in(&mut ingest_all),
        0,
        "Client::ingest must not allocate at steady state"
    );
    server.shutdown();
    engine.shutdown().unwrap();
}

/// A drained 2-shard engine over Zipf(1.2) traffic.
struct WarmEngine {
    engine: Engine,
    handle: EngineHandle,
    generator: ZipfGenerator,
}

impl WarmEngine {
    /// Eight drained 8,192-item batches in, routed under `routing`.
    fn new(routing: RoutingPolicy) -> Self {
        let engine = Engine::spawn(
            EngineConfig::with_shards(2)
                .heavy_hitters(0.01, 0.001)
                .routing(routing),
        );
        let handle = engine.handle();
        let mut warm = Self {
            engine,
            handle,
            generator: ZipfGenerator::new(100_000, 1.2, 63),
        };
        warm.ingest(8);
        warm
    }

    fn ingest(&mut self, batches: usize) {
        for _ in 0..batches {
            self.handle
                .ingest(&self.generator.next_minibatch(8_192))
                .expect("ingest");
        }
        self.engine.drain().expect("drain");
    }

    /// Promotes the heaviest key, then ingests it on both shards.
    fn promote_heaviest(&mut self) -> u64 {
        let hot = self.handle.heavy_hitters()[0].item;
        self.handle.router().promote(&[hot]);
        self.ingest(8);
        assert!(matches!(self.handle.placement(hot), Placement::Replicated));
        hot
    }
}

#[test]
fn point_queries_allocate_nothing_on_a_warm_engine() {
    let mut warm = WarmEngine::new(RoutingPolicy::SkewAware);
    let hot = warm.promote_heaviest();
    let handle = &warm.handle;
    let owned = (0..u64::MAX)
        .find(|&key| key != hot && handle.estimate(key) > 0)
        .expect("a tracked owner-routed key");
    assert!(matches!(handle.placement(owned), Placement::Owner(_)));
    assert!(handle.estimate(hot) > 0);

    let audits: [(&str, &dyn Fn() -> u64); 4] = [
        ("estimate of an owner-routed key", &|| {
            handle.estimate(owned)
        }),
        ("estimate of a replicated key", &|| handle.estimate(hot)),
        ("cm_estimate", &|| {
            handle.cm_estimate(hot) + handle.cm_estimate(owned)
        }),
        ("total_items", &|| handle.total_items()),
    ];
    for (name, query) in audits {
        // Warm first: any lazy first-call set-up is not the steady state.
        query();
        assert_eq!(
            allocations_in(|| (0..64).map(|_| query()).sum::<u64>()),
            0,
            "{name} must not allocate on a warm engine"
        );
    }
    warm.engine.shutdown().unwrap();
}

/// The most allocations any of 64 warm `heavy_hitters` calls makes.
fn heavy_hitters_allocations(handle: &EngineHandle) -> u64 {
    handle.heavy_hitters();
    (0..64)
        .map(|_| allocations_in(|| handle.heavy_hitters()))
        .max()
        .unwrap()
}

#[test]
fn heavy_hitters_allocate_the_snapshot_list_and_the_answer() {
    // Hash routing replicates no key, so every survivor is owner-placed.
    let hashed = WarmEngine::new(RoutingPolicy::Hash);
    assert!(hashed.handle.heavy_hitters().len() > 1);
    let owner_only = heavy_hitters_allocations(&hashed.handle);
    assert!(
        owner_only <= 2,
        "{owner_only} allocations per call with no replicated key"
    );
    hashed.engine.shutdown().unwrap();

    let mut skewed = WarmEngine::new(RoutingPolicy::SkewAware);
    let hot = skewed.promote_heaviest();
    assert!(skewed
        .handle
        .heavy_hitters()
        .iter()
        .any(|hit| hit.item == hot));
    let with_replicated = heavy_hitters_allocations(&skewed.handle);
    assert!(
        with_replicated <= 3,
        "{with_replicated} allocations per call with a replicated key"
    );
    skewed.engine.shutdown().unwrap();
}
