//! `serve_mixed`: the only workload that crosses `psfa-serve`. A `Server`
//! runs on loopback in this process (traffic crosses the loopback device,
//! not a link). Connection 1 ingests 8192-item frames in a closed loop —
//! an ingest pipeline waits for its ack before sending more. Connection 2
//! sends queries open-loop at a fixed rate — independent dashboard users —
//! and times each from the moment it was *due*, so a stall is charged to
//! every request it delays.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use psfa::prelude::{
    Client, Engine, EngineConfig, EngineHandle, IngestOutcome, ServeConfig, Server, TryIngestError,
};

use crate::check::{self, Gate};
use crate::harness::{Args, Layers, Raw, Timed, Workload};
use crate::ingest::base_config;
use crate::input::{key_of_rank, Keys, Pool};
use crate::layers::{self, DEPTH_SAMPLE_EVERY};
use crate::probe;
use crate::query_mix::{lateness_layers, sleep_until, slice_at, slice_rates};
use crate::stats;
use crate::sys;
use crate::trace::Tracer;

const KEYS: Keys = Keys::Zipf {
    universe: 1 << 20,
    alpha: 1.1,
};
const FRAME_LEN: usize = 8192;
const POOL_FRAMES: usize = 512;
const WINDOW: (u64, usize) = (1 << 20, 8);
/// Frames per timed segment on connection 1.
const SEGMENT_FRAMES: u64 = 256;
const FRESHNESS_PROBES: usize = 8;
/// Connection 2's open-loop rate.
const QUERY_PERIOD: Duration = Duration::from_millis(1);
/// A refused frame is re-sent after this pause.
const BUSY_BACKOFF: Duration = Duration::from_micros(100);

pub struct ServeMixed;

pub struct Live {
    pool: Pool,
    engine: Engine,
    handle: EngineHandle,
    config: EngineConfig,
    server: Server,
    ingest_conn: Client,
    /// `None` only while its thread holds it during a measurement.
    query_conn: Option<Client>,
    offered: u64,
    /// `Busy` replies connection 1 has received.
    busy: u64,
}

impl Live {
    /// Delivers the next frame on connection 1: one operation, which a
    /// `Busy` reply (the server's backpressure) delays by a back-off and a
    /// re-send but does not fail. Refusals are counted in `self.busy`.
    fn send_frame(&mut self, raw: &mut Raw, tracer: &mut Tracer) {
        let frame = self.pool.batch(self.offered);
        raw.attempted += 1;
        loop {
            let span = tracer.begin("serve.client.ingest", self.offered);
            let outcome = self
                .ingest_conn
                .ingest(frame)
                .expect("ingest connection stays up");
            tracer.end(span, frame.len() as u64);
            match outcome {
                IngestOutcome::Accepted(items) => {
                    assert_eq!(items, frame.len() as u64, "server acked a partial frame");
                    self.offered += 1;
                    return;
                }
                IngestOutcome::Busy => {
                    self.busy += 1;
                    std::thread::sleep(BUSY_BACKOFF);
                }
            }
        }
    }
}

/// What connection 2 brings back from its thread.
#[derive(Default)]
struct QuerySide {
    done_ns: Vec<u64>,
    hh_ns: Vec<Timed>,
    lateness_ns: Vec<u64>,
}

/// The open loop on connection 2: one request per `QUERY_PERIOD`, 70%
/// `estimate`, 20% `heavy_hitters`, 10% `sliding_heavy_hitters`, each timed
/// from its scheduled send.
fn query_loop(
    conn: &mut Client,
    stop: &AtomicBool,
    start: Instant,
    tracer: &mut Tracer,
) -> QuerySide {
    let mut side = QuerySide::default();
    let mut k = 0u32;
    while !stop.load(Ordering::Relaxed) {
        let due = start + QUERY_PERIOD * k;
        let late = sleep_until(due);
        side.lateness_ns.push(late.as_nanos() as u64);
        match k % 10 {
            0..=6 => {
                let span = tracer.begin("serve.client.estimate", u64::from(k));
                conn.estimate(key_of_rank(u64::from(k % 256)))
                    .expect("query connection stays up");
                tracer.end(span, 1);
            }
            7 | 8 => {
                let span = tracer.begin("serve.client.heavy_hitters", u64::from(k));
                let reported = conn
                    .heavy_hitters()
                    .expect("query connection stays up")
                    .len();
                tracer.end(span, reported as u64);
                side.hh_ns
                    .push((slice_at(start.elapsed()), due.elapsed().as_nanos() as u64));
            }
            _ => {
                let span = tracer.begin("serve.client.sliding_heavy_hitters", u64::from(k));
                let reported = conn
                    .sliding_heavy_hitters()
                    .expect("query connection stays up")
                    .len();
                tracer.end(span, reported as u64);
            }
        }
        side.done_ns.push(start.elapsed().as_nanos() as u64);
        k += 1;
    }
    side
}

impl Workload for ServeMixed {
    type Live = Live;

    fn set_up(&self, args: &Args, observe: bool) -> Live {
        let pool = Pool::generate(args.seed, KEYS, args.pool_batches(POOL_FRAMES), FRAME_LEN);
        let config = base_config(Some(WINDOW), false, observe);
        let engine = Engine::spawn(config.clone());
        let handle = engine.handle();
        let server =
            Server::spawn(handle.clone(), ServeConfig::default()).expect("bind a loopback port");
        let connect = || Client::connect(server.local_addr()).expect("connect over loopback");
        let (ingest_conn, query_conn) = (connect(), connect());
        let mut live = Live {
            pool,
            engine,
            handle,
            config,
            server,
            ingest_conn,
            query_conn: Some(query_conn),
            offered: 0,
            busy: 0,
        };
        let mut off = Tracer::new(false, Instant::now());
        let mut warm_up = Raw::default();
        for _ in 0..live.pool.batches.len() {
            live.send_frame(&mut warm_up, &mut off);
        }
        live.query_conn
            .as_mut()
            .expect("connection 2 is home")
            .ping()
            .expect("query connection answers");
        live.handle.drain().expect("no shard dies in warm-up");
        live
    }

    fn measure(&self, live: &mut Live, seconds: f64, tracer: &mut Tracer) -> Raw {
        let mut raw = Raw::default();
        let stop = AtomicBool::new(false);
        let mut query_tracer = tracer.sibling();
        let mut depth_samples = Vec::new();
        // Connection 2 moves to its thread for the phase and comes back.
        let mut query_conn = live.query_conn.take().expect("connection 2 is home");
        let start = Instant::now();

        let side = std::thread::scope(|scope| {
            let querier =
                scope.spawn(|| query_loop(&mut query_conn, &stop, start, &mut query_tracer));

            let mut segment = 0u64;
            while start.elapsed().as_secs_f64() < seconds {
                let span = tracer.begin("bench.segment", segment);
                let cpu_before = sys::process_cpu_ns();
                let began = Instant::now();
                for i in 0..SEGMENT_FRAMES {
                    live.send_frame(&mut raw, tracer);
                    if tracer.is_on() && i % DEPTH_SAMPLE_EVERY == 0 {
                        depth_samples.push(layers::queue_depth(&live.handle));
                    }
                }
                let drain = tracer.begin("engine.drain", segment);
                live.handle.drain().expect("no shard dies while measuring");
                tracer.end(drain, 0);
                let items = SEGMENT_FRAMES * FRAME_LEN as u64;
                let cpu_ns = sys::process_cpu_ns() - cpu_before;
                raw.cpu_per_item.push(cpu_ns as f64 / items as f64);
                raw.cpu_ns += cpu_ns;
                raw.items += items;
                raw.items_per_s
                    .push(items as f64 / began.elapsed().as_secs_f64());
                tracer.end(span, items);

                // Freshness: from handing the frame to the client to the
                // frame being visible through the engine's read path.
                for _ in 0..FRESHNESS_PROBES {
                    let offered_at = Instant::now();
                    live.send_frame(&mut raw, tracer);
                    raw.attempted += 1;
                    let expected = live.offered * FRAME_LEN as u64;
                    match probe::freshness(&live.handle, expected, offered_at) {
                        Some(ns) => raw.freshness_ns.push((segment as u32, ns)),
                        None => raw.failed += 1,
                    }
                }
                segment += 1;
            }
            stop.store(true, Ordering::Relaxed);
            querier.join().expect("query thread panicked")
        });
        live.query_conn = Some(query_conn);

        raw.queries_per_s = slice_rates(&side.done_ns, 1.0);
        raw.attempted += side.done_ns.len() as u64;
        raw.hh_ns = side.hh_ns;
        if tracer.is_on() {
            lateness_layers(&side.lateness_ns, &mut raw.layers);
            raw.layers
                .insert("engine.queue_depth_mean", stats::mean(&depth_samples));
        }
        tracer.absorb(query_tracer);
        raw
    }

    fn layers(&self, live: &Live, raw: &Raw, tracer: &Tracer, layers: &mut Layers) {
        layers::engine_layers(&live.handle, raw, tracer, layers);
        let us = |name: &str| stats::scaled(&tracer.durations_ns(name), 1e3);
        let ingest_us = us("serve.client.ingest");
        layers.insert("serve.client.ingest_call_us_p50", stats::median(&ingest_us));
        layers.insert(
            "serve.client.ingest_call_us_p99",
            stats::tail(&ingest_us, 0.99),
        );
        layers.insert(
            "serve.client.estimate_p50_us",
            stats::median(&us("serve.client.estimate")),
        );
        layers.insert(
            "serve.client.hh_p99_us",
            stats::tail(&us("serve.client.heavy_hitters"), 0.99),
        );
        let served = live.server.metrics();
        layers.insert("serve.server.requests", served.requests as f64);
        layers.insert("serve.server.busy", served.busy_responses as f64);
        layers.insert(
            "serve.server.peak_inflight_bytes",
            served.peak_inflight_bytes as f64,
        );
        layers.insert(
            "serve.wire_overhead_ns_per_item",
            stats::median(&ingest_us) * 1e3 / FRAME_LEN as f64
                - in_process_ns_per_item(&live.pool, &live.config),
        );
        layers::replay_protocol(&live.pool, layers);
        layers::replay_ingest_path(&live.pool, &live.config.routing, Some(WINDOW), layers);
    }

    fn check(&self, live: &mut Live, gate: &mut Gate, _layers: Option<&mut Layers>) {
        live.handle.drain().expect("no shard dies before the check");
        check::check_engine(gate, &live.handle, &live.pool, live.offered, true);
        // What the wire reports must be what the engine holds.
        let over_wire = live
            .query_conn
            .as_mut()
            .expect("connection 2 is home")
            .heavy_hitters()
            .expect("query connection answers");
        gate.require(over_wire == live.handle.heavy_hitters(), || {
            "heavy_hitters over the wire differs from the in-process answer".to_string()
        });
        let served = live.server.metrics();
        gate.require(
            served.ingested_items == live.offered * FRAME_LEN as u64 && served.frame_errors == 0,
            || {
                format!(
                    "server ingested {} items with {} frame errors, offered {}",
                    served.ingested_items,
                    served.frame_errors,
                    live.offered * FRAME_LEN as u64
                )
            },
        );
    }

    fn tear_down(&self, live: Live) {
        drop((live.ingest_conn, live.query_conn));
        live.server.shutdown();
        live.engine.shutdown().expect("no shard died");
    }
}

/// The same frames through `try_ingest` on a fresh engine with no socket
/// in between: the in-process side of `serve.wire_overhead_ns_per_item`.
fn in_process_ns_per_item(pool: &Pool, config: &EngineConfig) -> f64 {
    let mut config = config.clone();
    config.observability = None;
    let engine = Engine::spawn(config);
    let handle = engine.handle();
    let mut call_ns = Vec::with_capacity(pool.batches.len());
    for frame in &pool.batches {
        loop {
            let start = Instant::now();
            match handle.try_ingest(frame) {
                Ok(()) => {
                    call_ns.push(start.elapsed().as_nanos() as f64);
                    break;
                }
                Err(TryIngestError::Busy) => std::thread::sleep(BUSY_BACKOFF),
                Err(TryIngestError::Closed) => unreachable!("the engine is running"),
            }
        }
    }
    engine.shutdown().expect("no shard died");
    stats::median(&call_ns) / FRAME_LEN as f64
}
