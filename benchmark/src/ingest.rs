//! The three in-process, write-only workloads — `ingest_skew`,
//! `ingest_flat_window` and `durable_recover` — which share one shape:
//! one producer thread offers fixed-size segments of pool batches, each
//! closed by `drain()`, for the length of the run.
//!
//! Between segments, on the drained engine and outside the segment's
//! clock, a short probe block takes the read-side end-to-end metrics every
//! workload reports: freshness of a single batch, and the fixed query
//! cycle. A write-path change that makes snapshots dearer to read or
//! later to appear shows there.

use std::path::PathBuf;
use std::time::Instant;

use psfa::prelude::{Engine, EngineConfig, EngineHandle, Producer};

use crate::check::{self, Gate, CM_DELTA, CM_EPSILON, EPSILON, PHI};
use crate::harness::{Args, Layers, Raw, Workload};
use crate::input::{Keys, Pool};
use crate::layers::{self, DEPTH_SAMPLE_EVERY, SHARDS};
use crate::probe::{self, QueryCycle};
use crate::stats;
use crate::sys;
use crate::trace::Tracer;

/// Probe block after every segment.
const FRESHNESS_PROBES: usize = 8;
const QUERY_CYCLES: usize = 64;
const HH_BURST: u64 = 256;
/// `durable_recover` recovers this often after the kill.
const RECOVERIES: usize = 15;

/// Which data plane the producer thread offers batches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// `handle.producer()`: per-producer SPSC lanes.
    Lanes,
    /// `EngineHandle::ingest`: the shared per-shard channels.
    Channel,
}

pub struct Segmented {
    pub name: &'static str,
    pub keys: Keys,
    pub batch_len: usize,
    pub pool_batches: usize,
    /// Batches per timed segment: fixed work, the same on every commit.
    pub segment_batches: u64,
    pub plane: Plane,
    pub skew_aware: bool,
    /// `(n_W, panes)` of the global sliding window.
    pub window: Option<(u64, usize)>,
    /// Persist to a directory under the output directory, and after the
    /// run kill the engine and recover from it.
    pub durable: bool,
}

pub fn ingest_skew() -> Segmented {
    Segmented {
        name: "ingest_skew",
        keys: Keys::Zipf {
            universe: 1 << 20,
            alpha: 1.2,
        },
        batch_len: 16384,
        pool_batches: 256,
        segment_batches: 256,
        plane: Plane::Lanes,
        skew_aware: false,
        window: None,
        durable: false,
    }
}

pub fn ingest_flat_window() -> Segmented {
    Segmented {
        name: "ingest_flat_window",
        keys: Keys::Uniform { universe: 1 << 22 },
        batch_len: 16384,
        pool_batches: 256,
        segment_batches: 128,
        plane: Plane::Channel,
        skew_aware: true,
        window: Some((1 << 21, 16)),
        durable: false,
    }
}

pub fn durable_recover() -> Segmented {
    Segmented {
        name: "durable_recover",
        keys: Keys::Zipf {
            universe: 1 << 20,
            alpha: 1.1,
        },
        batch_len: 16384,
        pool_batches: 256,
        segment_batches: 256,
        plane: Plane::Channel,
        skew_aware: false,
        window: Some((1 << 20, 8)),
        durable: true,
    }
}

/// The engine configuration all five workloads start from.
pub fn base_config(window: Option<(u64, usize)>, skew_aware: bool, observe: bool) -> EngineConfig {
    let mut config = EngineConfig::with_shards(SHARDS)
        .queue_capacity(32)
        .heavy_hitters(PHI, EPSILON)
        .count_min(CM_EPSILON, CM_DELTA, 0x00C0_FFEE);
    if let Some((n_w, panes)) = window {
        config = config.sliding_window(n_w).window_panes(panes);
    }
    if skew_aware {
        config = config.skew_aware_routing();
    }
    if observe {
        config = config.observe();
    }
    config
}

pub fn universe(keys: Keys) -> u64 {
    match keys {
        Keys::Zipf { universe, .. } | Keys::Uniform { universe } => universe,
    }
}

pub struct Live {
    pool: Pool,
    /// `None` once `durable_recover` has killed it.
    engine: Option<Engine>,
    handle: EngineHandle,
    producer: Option<Producer>,
    config: EngineConfig,
    /// Batches offered so far; batch `k` of the stream is `pool[k mod P]`.
    offered: u64,
    queries: QueryCycle,
    store_dir: Option<PathBuf>,
}

impl Live {
    fn offer(&mut self, tracer: &mut Tracer) {
        let batch = self.pool.batch(self.offered);
        let span = tracer.begin("engine.ingest", self.offered);
        let accepted = match &mut self.producer {
            Some(producer) => producer.ingest(batch).is_ok(),
            None => self.handle.ingest(batch).is_ok(),
        };
        tracer.end(span, batch.len() as u64);
        assert!(accepted, "the engine refused a batch while running");
        self.offered += 1;
    }

    fn offered_items(&self) -> u64 {
        self.offered * self.pool.batch_len as u64
    }
}

impl Workload for Segmented {
    type Live = Live;

    fn set_up(&self, args: &Args, observe: bool) -> Live {
        let pool = Pool::generate(
            args.seed,
            self.keys,
            args.pool_batches(self.pool_batches),
            self.batch_len,
        );
        let mut config = base_config(self.window, self.skew_aware, observe);
        let store_dir = self.durable.then(|| {
            let dir = args.out_dir.join(format!("store-{}", self.name));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        });
        if let Some(dir) = &store_dir {
            config = config.persist_to(dir);
        }
        let engine = Engine::spawn(config.clone());
        let handle = engine.handle();
        let producer = (self.plane == Plane::Lanes).then(|| handle.producer());
        let mut live = Live {
            // The probe cycle leaves the sliding-window queries to the
            // workloads that have them in their traffic: each allocates and
            // faults in a merged window of up to 2·k/ε entries, whose cost
            // on this VM swings by 2× from one second to the next.
            queries: QueryCycle::new(args.seed, universe(self.keys), false),
            pool,
            engine: Some(engine),
            handle,
            producer,
            config,
            offered: 0,
            store_dir,
        };
        // Warm-up: one pass over the pool touches every input page, fills
        // the summaries, the buffer pool and every pane of the window, and
        // lets a skew-aware router promote its hot keys.
        let mut off = Tracer::new(false, Instant::now());
        for _ in 0..live.pool.batches.len() {
            live.offer(&mut off);
        }
        live.handle.drain().expect("no shard dies in warm-up");
        live
    }

    fn measure(&self, live: &mut Live, seconds: f64, tracer: &mut Tracer) -> Raw {
        let mut raw = Raw::default();
        let batch_items = self.batch_len as u64;
        let mut depth_samples = Vec::new();
        let start = Instant::now();
        let mut segment = 0u64;
        while start.elapsed().as_secs_f64() < seconds {
            let span = tracer.begin("bench.segment", segment);
            let cpu_before = sys::process_cpu_ns();
            let began = Instant::now();
            for i in 0..self.segment_batches {
                live.offer(tracer);
                if tracer.is_on() && i % DEPTH_SAMPLE_EVERY == 0 {
                    depth_samples.push(layers::queue_depth(&live.handle));
                }
            }
            let drain = tracer.begin("engine.drain", segment);
            live.handle.drain().expect("no shard dies while measuring");
            tracer.end(drain, 0);
            let elapsed = began.elapsed().as_secs_f64();
            let items = self.segment_batches * batch_items;
            let cpu_ns = sys::process_cpu_ns() - cpu_before;
            raw.cpu_per_item.push(cpu_ns as f64 / items as f64);
            raw.cpu_ns += cpu_ns;
            raw.items += items;
            raw.items_per_s.push(items as f64 / elapsed);
            raw.attempted += self.segment_batches;
            tracer.end(span, items);

            self.probe_block(live, segment as u32, &mut raw, tracer);
            segment += 1;
        }
        if tracer.is_on() {
            raw.layers
                .insert("engine.queue_depth_mean", stats::mean(&depth_samples));
        }
        raw
    }

    fn layers(&self, live: &Live, raw: &Raw, tracer: &Tracer, layers: &mut Layers) {
        layers::engine_layers(&live.handle, raw, tracer, layers);
        QueryCycle::layers(tracer, layers);
        layers::replay_ingest_path(&live.pool, &live.config.routing, self.window, layers);
    }

    fn check(&self, live: &mut Live, gate: &mut Gate, layers: Option<&mut Layers>) {
        live.handle.drain().expect("no shard dies before the check");
        check::check_engine(gate, &live.handle, &live.pool, live.offered, true);
        if self.durable {
            self.kill_and_recover(live, gate, layers);
        }
    }

    fn tear_down(&self, mut live: Live) {
        drop(live.producer.take());
        if let Some(engine) = live.engine.take() {
            engine.shutdown().expect("no shard died");
        }
        if let Some(dir) = &live.store_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Segmented {
    /// Read-side probes on the drained engine, outside the segment clock.
    fn probe_block(&self, live: &mut Live, block: u32, raw: &mut Raw, tracer: &mut Tracer) {
        for _ in 0..FRESHNESS_PROBES {
            let offered_at = Instant::now();
            live.offer(tracer);
            raw.attempted += 2;
            match probe::freshness(&live.handle, live.offered_items(), offered_at) {
                Some(ns) => raw.freshness_ns.push((block, ns)),
                None => raw.failed += 1,
            }
        }
        let began = Instant::now();
        for _ in 0..QUERY_CYCLES {
            live.queries.run(&live.handle, tracer);
        }
        let calls = QUERY_CYCLES as u64 * live.queries.calls_per_cycle();
        raw.queries_per_s
            .push(calls as f64 / began.elapsed().as_secs_f64());
        // On a drained engine `heavy_hitters` can take well under a
        // microsecond (uniform keys leave nothing heavy), about what the
        // two clock reads around it cost, and its first call after a
        // segment finds the snapshots in another core's cache: time a
        // burst, file the mean.
        let began = Instant::now();
        for _ in 0..HH_BURST {
            std::hint::black_box(live.handle.heavy_hitters());
        }
        raw.hh_ns
            .push((block, began.elapsed().as_nanos() as u64 / HH_BURST));
        raw.attempted += calls + HH_BURST;
    }

    /// The crash: kill the engine with whatever the flusher had made
    /// durable, then recover repeatedly, each time checking that the
    /// recovered engine answers inside the bounds of the prefix it
    /// persisted.
    fn kill_and_recover(&self, live: &mut Live, gate: &mut Gate, layers: Option<&mut Layers>) {
        let dir = live.store_dir.clone().expect("durable workloads persist");
        drop(live.producer.take());
        live.engine.take().expect("engine is alive").kill();

        let batch_items = self.batch_len as u64;
        let mut recover_ms = Vec::with_capacity(RECOVERIES);
        for round in 0..RECOVERIES {
            let start = Instant::now();
            let recovered = Engine::recover(&dir, live.config.clone());
            let engine = match recovered {
                Ok(engine) => engine,
                Err(e) => {
                    gate.require(false, || format!("recovery {round} failed: {e}"));
                    continue;
                }
            };
            let handle = engine.handle();
            let reported = handle.heavy_hitters().len();
            recover_ms.push(start.elapsed().as_nanos() as f64 / 1e6);
            let items = handle.total_items();
            gate.require(
                reported > 0 && items % batch_items == 0 && items <= live.offered_items(),
                || {
                    format!(
                        "recovery {round}: {reported} heavy hitters over {items} items \
                         (offered {})",
                        live.offered_items()
                    )
                },
            );
            // The full band check is the same every round (recovery does
            // not write), so the first and the last round carry it.
            if round == 0 || round + 1 == RECOVERIES {
                check::check_engine(gate, &handle, &live.pool, items / batch_items, false);
            }
            engine.kill();
        }
        if let Some(layers) = layers {
            layers.insert("store.recover_ms_p50", stats::median(&recover_ms));
            layers.insert("store.recover_ms_p99", stats::tail(&recover_ms, 0.99));
            layers::replay_store(&dir, &dir.with_extension("replay"), layers);
        }
    }
}
