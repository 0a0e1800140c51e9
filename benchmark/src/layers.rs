//! Per-layer metrics, taken from outside: the engine's and store's own
//! counters, span durations from the traced run, and a single-threaded
//! *layer replay* that pushes the workload's own batches through each
//! module's public functions, one stage at a time.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use psfa::freq::{GlobalWindow, InfiniteHeavyHitters, PaneWindow};
use psfa::prelude::{EngineHandle, RoutingPolicy};
use psfa::primitives::{build_hist_into, ArcCell, HistScratch, HistogramEntry};
use psfa::serve::protocol::{read_frame, write_frame};
use psfa::serve::Request;
use psfa::sketch::AtomicCountMin;
use psfa::store::{EpochRecord, SnapshotStore};
use psfa::stream::{IngestFence, IngestLane, WindowFence};

use crate::check::{CM_DELTA, CM_EPSILON, EPSILON, PHI};
use crate::harness::{Layers, Raw};
use crate::input::Pool;
use crate::stats;
use crate::trace::Tracer;

/// Every workload runs two shards: the box has two cores.
pub const SHARDS: usize = 2;
/// Batches pushed through the replay; enough for stable per-item costs,
/// few enough that the replay is a small part of the traced run.
const REPLAY_BATCHES: usize = 128;
const STORE_REPEATS: usize = 9;

/// Engine-side layer metrics: spans around `ingest`/`drain`, and whatever
/// `EngineHandle::metrics()` counts (with `observe()` on, its `ObsReport`).
pub fn engine_layers(handle: &EngineHandle, raw: &Raw, tracer: &Tracer, layers: &mut Layers) {
    let us = |name: &str| stats::scaled(&tracer.durations_ns(name), 1e3);
    layers.insert(
        "engine.ingest_call_us_p50",
        stats::median(&us("engine.ingest")),
    );
    layers.insert(
        "engine.drain_ms",
        stats::median(&stats::scaled(&tracer.durations_ns("engine.drain"), 1e6)),
    );
    let freshness_us = stats::scaled(&stats::durations(&raw.freshness_ns), 1e3);
    layers.insert(
        "engine.query.freshness_p50_us",
        stats::median(&freshness_us),
    );
    layers.insert(
        "engine.query.freshness_p99_us",
        stats::tail(&freshness_us, 0.99),
    );

    let metrics = handle.metrics();
    let items = metrics.items_processed();
    layers.insert("engine.items_processed", items as f64);
    layers.insert(
        "engine.batches_processed",
        metrics
            .shards
            .iter()
            .map(|s| s.batches_processed)
            .sum::<u64>() as f64,
    );
    layers.insert(
        "engine.work_units_per_item",
        metrics.work_units.iter().sum::<u64>() as f64 / items.max(1) as f64,
    );
    layers.insert(
        "engine.worker_restarts",
        metrics.shards.iter().map(|s| s.restarts).sum::<u64>() as f64,
    );
    layers.insert("stream.router.hot_keys", metrics.hot_keys.len() as f64);
    layers.insert(
        "stream.router.promotions",
        handle.router().promotions() as f64,
    );
    let checkouts = metrics.pool.hits + metrics.pool.misses;
    layers.insert(
        "stream.pool.hit_ratio",
        metrics.pool.hits as f64 / checkouts.max(1) as f64,
    );
    if let Some(window) = metrics.window {
        layers.insert("stream.fence.boundaries", window.boundaries as f64);
        layers.insert("engine.window.max_shard_lag", window.max_shard_lag as f64);
    }
    if let Some(store) = metrics.store {
        layers.insert("store.epochs_persisted", store.epochs_persisted as f64);
        layers.insert("store.flush_failures", store.flush_failures as f64);
        layers.insert(
            "store.bytes_per_epoch",
            store.bytes_written as f64 / store.epochs_persisted.max(1) as f64,
        );
    }
    if let Some(obs) = metrics.obs {
        let p50_us = |name: &str| obs.percentiles(name).map_or(0.0, |p| p.p50 as f64 / 1e3);
        layers.insert("engine.enqueue_wait_us_p50", p50_us("enqueue_wait"));
        layers.insert("engine.batch_service_us_p50", p50_us("batch_service"));
        layers.insert(
            "engine.publish_staleness_us_p50",
            p50_us("publish_staleness"),
        );
        layers.insert(
            "engine.republish_count",
            obs.counters
                .iter()
                .filter(|c| c.name.starts_with("republish_") && c.name != "republish_suppressed")
                .map(|c| c.value)
                .sum::<u64>() as f64,
        );
    }
}

/// In the traced run, every n-th ingest call also samples queue depth.
pub const DEPTH_SAMPLE_EVERY: u64 = 16;

/// Mean per-shard queue depth right now (`EngineHandle::metrics()`): full
/// means the workers are the wall, empty means the producer is.
pub fn queue_depth(handle: &EngineHandle) -> f64 {
    let shards = handle.metrics().shards;
    shards.iter().map(|s| s.queue_depth).sum::<u64>() as f64 / shards.len() as f64
}

/// Accumulated wall time of one replay stage.
#[derive(Default, Clone, Copy)]
struct Stage(u64);

impl Stage {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.0 += start.elapsed().as_nanos() as u64;
        out
    }

    fn per(self, n: u64) -> f64 {
        self.0 as f64 / n.max(1) as f64
    }
}

/// Replays the first `REPLAY_BATCHES` pool batches through router → lane →
/// fence → `buildHist` → MG → CM → pane window, the way a two-shard engine
/// does, but on the caller thread with a timer between stages.
pub fn replay_ingest_path(
    pool: &Pool,
    routing: &RoutingPolicy,
    window: Option<(u64, usize)>,
    layers: &mut Layers,
) {
    let batches = &pool.batches[..pool.batches.len().min(REPLAY_BATCHES)];
    let router = routing.build(SHARDS);
    let mut parts: Vec<Vec<u64>> = vec![Vec::new(); SHARDS];
    // One untimed pass, so a skew-aware router has promoted its hot keys
    // as the live engine's has after warm-up.
    for batch in batches {
        router.partition_into(batch, &mut parts);
    }

    let lanes: Vec<IngestLane> = (0..SHARDS).map(|_| IngestLane::new(32)).collect();
    let fence = Arc::new(IngestFence::new());
    let slide = window.map_or(u64::MAX, |(n_w, panes)| n_w / panes as u64);
    let window_fence = WindowFence::new(fence.clone(), slide);
    let mut scratch: Vec<HistScratch> = (0..SHARDS).map(|_| HistScratch::new()).collect();
    let mut hist: Vec<HistogramEntry> = Vec::new();
    let mut trackers: Vec<InfiniteHeavyHitters> = (0..SHARDS)
        .map(|_| InfiniteHeavyHitters::new(PHI, EPSILON))
        .collect();
    let sketches: Vec<AtomicCountMin> = (0..SHARDS)
        .map(|_| AtomicCountMin::new(CM_EPSILON, CM_DELTA, 0x00C0_FFEE))
        .collect();
    let mut panes: Option<Vec<PaneWindow>> = window.map(|(_, panes)| {
        (0..SHARDS)
            .map(|_| PaneWindow::new(EPSILON, panes))
            .collect()
    });

    let (mut partition, mut lane, mut claim) =
        (Stage::default(), Stage::default(), Stage::default());
    let (mut build, mut augment, mut sketch, mut pane) = (
        Stage::default(),
        Stage::default(),
        Stage::default(),
        Stage::default(),
    );
    let (mut seal_us, mut merge_us) = (Vec::new(), Vec::new());
    let (mut items, mut distinct, mut sub_batches, mut cutoffs) = (0u64, 0u64, 0u64, 0u64);
    let mut imbalance = Vec::with_capacity(batches.len());
    let mut seed = 0x5EEDu64;

    for batch in batches {
        items += batch.len() as u64;
        partition.time(|| router.partition_into(batch, &mut parts));
        let largest = parts.iter().map(Vec::len).max().unwrap_or(0) as f64;
        imbalance.push(largest * SHARDS as f64 / batch.len() as f64);

        let due = claim.time(|| {
            let guard = fence.enter().expect("replay fence is never closed");
            let due = window_fence.claim(&guard, batch.len() as u64).due;
            drop(guard);
            due && window_fence.poll_cut(|_| {}) > 0
        });

        for shard in 0..SHARDS {
            let sent = std::mem::take(&mut parts[shard]);
            if sent.is_empty() {
                continue;
            }
            let part = lane.time(|| {
                lanes[shard].push(sent);
                lanes[shard].pop_batch().expect("just pushed")
            });
            sub_batches += 1;
            seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            build.time(|| build_hist_into(&part, seed, &mut scratch[shard], &mut hist));
            distinct += hist.len() as u64;
            let len = part.len() as u64;
            let cutoff = augment.time(|| trackers[shard].process_histogram(&hist, len));
            cutoffs += u64::from(cutoff > 0);
            sketch.time(|| sketches[shard].ingest_histogram(&hist));
            if let Some(panes) = &mut panes {
                pane.time(|| panes[shard].process_histogram(&hist, len));
            }
            parts[shard] = part;
        }

        if let (true, Some(panes)) = (due, &mut panes) {
            let start = Instant::now();
            let sealed: Vec<_> = panes.iter_mut().map(PaneWindow::seal).collect();
            seal_us.push(start.elapsed().as_nanos() as f64 / 1e3 / SHARDS as f64);
            let start = Instant::now();
            black_box(GlobalWindow::merge(sealed.iter()));
            merge_us.push(start.elapsed().as_nanos() as f64 / 1e3);
        }
    }

    // Count-Min point queries over keys that were ingested.
    let probes: Vec<u64> = batches[0].iter().take(1024).copied().collect();
    let mut query = Stage::default();
    query.time(|| {
        for &key in &probes {
            black_box(sketches[0].query(black_box(key)));
        }
    });

    layers.insert("stream.router.partition_ns_per_item", partition.per(items));
    layers.insert("stream.router.partition_imbalance", stats::mean(&imbalance));
    layers.insert("stream.lane.push_pop_ns_per_batch", lane.per(sub_batches));
    layers.insert(
        "stream.fence.claim_ns_per_batch",
        claim.per(batches.len() as u64),
    );
    layers.insert("primitives.histogram.build_ns_per_item", build.per(items));
    layers.insert(
        "primitives.histogram.distinct_per_batch",
        distinct as f64 / batches.len() as f64,
    );
    layers.insert("freq.mg.augment_ns_per_distinct", augment.per(distinct));
    layers.insert(
        "freq.mg.cutoff_batch_share",
        cutoffs as f64 / sub_batches.max(1) as f64,
    );
    layers.insert("sketch.cm.ingest_ns_per_distinct", sketch.per(distinct));
    layers.insert("sketch.cm.query_ns", query.per(probes.len() as u64));
    if panes.is_some() {
        layers.insert("freq.windowed.process_ns_per_distinct", pane.per(distinct));
        layers.insert("freq.windowed.seal_us", stats::median(&seal_us));
        layers.insert("freq.windowed.global_merge_us", stats::median(&merge_us));
    }
    layers.insert(
        "bench.stage_sum_ns_per_item",
        Stage(partition.0 + lane.0 + claim.0 + build.0 + augment.0 + sketch.0 + pane.0).per(items),
    );

    replay_arc_cell(&trackers[0], layers);
    layers.insert(
        "baseline.single_thread_items_per_s",
        single_thread_baseline(batches),
    );
}

/// `ArcCell::{set,get}` on a payload shaped like a published snapshot's
/// entry list.
fn replay_arc_cell(tracker: &InfiniteHeavyHitters, layers: &mut Layers) {
    const ROUNDS: usize = 4096;
    let entries = tracker.estimator().tracked_items_sorted();
    let fresh: Vec<Arc<Vec<(u64, u64)>>> = (0..ROUNDS).map(|_| Arc::new(entries.clone())).collect();
    let cell = ArcCell::new(Arc::new(entries));
    let mut set = Stage::default();
    set.time(|| {
        for value in fresh {
            black_box(cell.set(value));
        }
    });
    let mut get = Stage::default();
    get.time(|| {
        for _ in 0..ROUNDS {
            black_box(cell.get());
        }
    });
    layers.insert("primitives.arc_cell.set_ns", set.per(ROUNDS as u64));
    layers.insert("primitives.arc_cell.get_ns", get.per(ROUNDS as u64));
}

/// The single-threaded run of the same job: the same batches through one
/// `InfiniteHeavyHitters` and one `AtomicCountMin` on the caller thread,
/// with no engine around them.
fn single_thread_baseline(batches: &[Vec<u64>]) -> f64 {
    let mut scratch = HistScratch::new();
    let mut hist = Vec::new();
    let mut tracker = InfiniteHeavyHitters::new(PHI, EPSILON);
    let sketch = AtomicCountMin::new(CM_EPSILON, CM_DELTA, 0x00C0_FFEE);
    let start = Instant::now();
    let mut items = 0u64;
    for (seed, batch) in batches.iter().enumerate() {
        build_hist_into(batch, seed as u64, &mut scratch, &mut hist);
        tracker.process_histogram(&hist, batch.len() as u64);
        sketch.ingest_histogram(&hist);
        items += batch.len() as u64;
    }
    black_box(tracker.query().len());
    items as f64 / start.elapsed().as_secs_f64()
}

/// `psfa-serve`'s codec on the workload's own frames: encode + frame write
/// into a `Vec<u8>`, frame read + decode back out of it.
pub fn replay_protocol(pool: &Pool, layers: &mut Layers) {
    let frames = &pool.batches[..pool.batches.len().min(REPLAY_BATCHES)];
    let (mut encode, mut decode) = (Stage::default(), Stage::default());
    let (mut items, mut bytes) = (0u64, 0u64);
    let mut wire: Vec<u8> = Vec::new();
    let mut payload: Vec<u8> = Vec::new();
    for frame in frames {
        let request = Request::IngestBatch(frame.clone());
        wire.clear();
        encode.time(|| write_frame(&mut wire, &request.encode()).expect("write to a Vec"));
        let decoded = decode.time(|| {
            let len = read_frame(&mut wire.as_slice(), &mut payload)
                .expect("frame just written")
                .expect("one whole frame");
            Request::decode(&payload[..len]).expect("frame just encoded")
        });
        assert_eq!(decoded, request, "protocol round trip changed a frame");
        items += frame.len() as u64;
        bytes += wire.len() as u64;
    }
    layers.insert("serve.protocol.encode_ns_per_item", encode.per(items));
    layers.insert("serve.protocol.decode_ns_per_item", decode.per(items));
    layers.insert(
        "serve.protocol.frame_bytes_per_item",
        bytes as f64 / items.max(1) as f64,
    );
}

/// `psfa-store` on the run's own latest record: `load` from the run's log,
/// `EpochRecord::decode` of its bytes, and durable `append`s into a scratch
/// log beside it.
pub fn replay_store(dir: &Path, scratch_dir: &Path, layers: &mut Layers) {
    let store = SnapshotStore::open(dir, 8, 4).expect("the run's snapshot log opens");
    let Some(latest) = store.latest_epoch() else {
        return;
    };
    let mut load_ms = Vec::new();
    let mut record = None;
    for _ in 0..STORE_REPEATS {
        let start = Instant::now();
        record = Some(store.load(latest).expect("latest epoch loads"));
        load_ms.push(start.elapsed().as_nanos() as f64 / 1e6);
    }
    let mut record: EpochRecord = record.expect("loaded at least once");

    let bytes = record.encode();
    let mut decode_ms = Vec::new();
    for _ in 0..STORE_REPEATS {
        let start = Instant::now();
        black_box(EpochRecord::decode(&bytes).expect("own encoding decodes"));
        decode_ms.push(start.elapsed().as_nanos() as f64 / 1e6);
    }

    let _ = std::fs::remove_dir_all(scratch_dir);
    let mut scratch = SnapshotStore::open(scratch_dir, 8, 4).expect("scratch log opens");
    let mut append_ms = Vec::new();
    for _ in 0..STORE_REPEATS {
        record.epoch += 1;
        let start = Instant::now();
        scratch.append(&record).expect("append to the scratch log");
        append_ms.push(start.elapsed().as_nanos() as f64 / 1e6);
    }
    drop(scratch);
    let _ = std::fs::remove_dir_all(scratch_dir);

    layers.insert("store.load_ms_p50", stats::median(&load_ms));
    layers.insert("store.record_decode_ms_p50", stats::median(&decode_ms));
    layers.insert("store.append_ms_p50", stats::median(&append_ms));
}
