//! `query_mix`: in-process and read-heavy. The ingest thread paces
//! minibatches open-loop at a fixed rate far below capacity; the query
//! thread runs the fixed query cycle in a closed loop (one caller that
//! waits for each answer). Ingest does little here and the query plane —
//! snapshot load, refresh-flag republish, cross-shard merge,
//! `GlobalWindow::merge` — does most of the work.
//!
//! Freshness is probed by the ingest thread, which is idle until its next
//! batch is due anyway: it hands `ingest()` the batch that brings the
//! cumulative count to M and then polls `total_items()`, the same public
//! read path the query thread uses, until it sees M. Probing from the query thread instead would
//! quantise the measurement by that thread's cycle length.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use psfa::prelude::{Engine, EngineConfig, EngineHandle};

use crate::check::{self, Gate};
use crate::harness::{Args, Layers, Raw, Workload};
use crate::ingest::{base_config, universe};
use crate::input::{Keys, Pool};
use crate::layers::{self, DEPTH_SAMPLE_EVERY};
use crate::probe::{self, QueryCycle};
use crate::stats;
use crate::sys;
use crate::trace::Tracer;

const KEYS: Keys = Keys::Zipf {
    universe: 1 << 20,
    alpha: 1.1,
};
const BATCH_LEN: usize = 4096;
const POOL_BATCHES: usize = 1024;
const WINDOW: (u64, usize) = (1 << 20, 8);
/// The open-loop ingest rate, in items per second.
const INGEST_RATE: f64 = 2_000_000.0;
/// Sends later than this after they were due are counted in
/// `loadgen.late_share`. They are the load generator's lateness (on this
/// shared box, usually the whole VM stalling), not operations the system
/// failed, and each is still timed from when it was due.
pub const LATE_TOLERANCE: Duration = Duration::from_millis(50);
/// Rates are sampled over slices of this length; the reported value is
/// the median slice, which one scheduler hiccup cannot move.
const SLICE: Duration = Duration::from_millis(250);

pub struct QueryMix;

pub struct Live {
    pool: Pool,
    engine: Engine,
    handle: EngineHandle,
    config: EngineConfig,
    offered: u64,
    seed: u64,
}

/// The slice a moment falls in, counted from the start of the phase.
pub fn slice_at(since_start: Duration) -> u32 {
    (since_start.as_nanos() / SLICE.as_nanos()) as u32
}

/// Sleeps until `due`, and returns how late the wake-up was.
pub fn sleep_until(due: Instant) -> Duration {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
    Instant::now().saturating_duration_since(due)
}

/// How late an open loop's sends ran.
pub fn lateness_layers(lateness_ns: &[u64], layers: &mut Layers) {
    layers.insert(
        "loadgen.lateness_p99_us",
        stats::tail(&stats::scaled(lateness_ns, 1e3), 0.99),
    );
    let late = lateness_ns
        .iter()
        .filter(|&&ns| ns > LATE_TOLERANCE.as_nanos() as u64)
        .count();
    layers.insert(
        "loadgen.late_share",
        late as f64 / lateness_ns.len().max(1) as f64,
    );
}

/// Per-slice rates from completion timestamps (ns since the phase began,
/// ascending), each completion carrying `weight` units of work. A slice
/// runs from the last completion of the slice before it to its own last
/// completion, so a rate is work done over the time it took, not over a
/// nominal slice length.
pub fn slice_rates(done_ns: &[u64], weight: f64) -> Vec<f64> {
    let slice_ns = SLICE.as_nanos() as u64;
    let mut rates = Vec::new();
    let (mut slice, mut count, mut opened_ns, mut last_ns) = (0, 0u64, 0u64, 0u64);
    for &t in done_ns {
        if t / slice_ns != slice {
            if count > 0 && last_ns > opened_ns {
                rates.push(count as f64 * weight * 1e9 / (last_ns - opened_ns) as f64);
            }
            (slice, count, opened_ns) = (t / slice_ns, 0, last_ns);
        }
        count += 1;
        last_ns = t;
    }
    // The last slice is cut short by the end of the phase: leave it out.
    rates
}

impl Workload for QueryMix {
    type Live = Live;

    fn set_up(&self, args: &Args, observe: bool) -> Live {
        let pool = Pool::generate(args.seed, KEYS, args.pool_batches(POOL_BATCHES), BATCH_LEN);
        let config = base_config(Some(WINDOW), true, observe);
        let engine = Engine::spawn(config.clone());
        let handle = engine.handle();
        let mut offered = 0;
        for _ in 0..pool.batches.len() {
            handle
                .ingest(pool.batch(offered))
                .expect("engine accepts warm-up");
            offered += 1;
        }
        handle.drain().expect("no shard dies in warm-up");
        Live {
            pool,
            engine,
            handle,
            config,
            offered,
            seed: args.seed,
        }
    }

    fn measure(&self, live: &mut Live, seconds: f64, tracer: &mut Tracer) -> Raw {
        let mut raw = Raw::default();
        let stop = AtomicBool::new(false);
        let phase = Duration::from_secs_f64(seconds);
        let period = Duration::from_secs_f64(BATCH_LEN as f64 / INGEST_RATE);
        let mut query_tracer = tracer.sibling();
        let mut cycle = QueryCycle::new(live.seed, universe(KEYS), true);
        let reader = live.handle.clone();
        let cpu_before = sys::process_cpu_ns();
        let start = Instant::now();

        let mut lateness_ns = Vec::new();
        let mut accepted_ns = Vec::new();
        let mut depth_samples = Vec::new();
        let (cycle_done_ns, hh_ns) = std::thread::scope(|scope| {
            // Thread B: the closed-loop query cycle.
            let querier = scope.spawn(|| {
                let (mut done_ns, mut hh_ns) = (Vec::new(), Vec::new());
                while !stop.load(Ordering::Relaxed) {
                    let hh = cycle.run(&reader, &mut query_tracer);
                    let done = start.elapsed();
                    hh_ns.push((slice_at(done), hh));
                    done_ns.push(done.as_nanos() as u64);
                }
                (done_ns, hh_ns)
            });

            // Thread A (this one): open-loop paced ingest plus the
            // freshness probe.
            let mut sent = 0u32;
            let (mut slice, mut slice_sent, mut slice_cpu) = (0, 0u32, cpu_before);
            loop {
                let due = start + period * sent;
                if due >= start + phase {
                    break;
                }
                let now_slice = slice_at(start.elapsed());
                if now_slice != slice {
                    let cpu = sys::process_cpu_ns();
                    let items = u64::from(sent - slice_sent) * BATCH_LEN as u64;
                    if items > 0 {
                        raw.cpu_per_item
                            .push((cpu - slice_cpu) as f64 / items as f64);
                    }
                    (slice, slice_sent, slice_cpu) = (now_slice, sent, cpu);
                }
                let late = sleep_until(due);
                lateness_ns.push(late.as_nanos() as u64);
                raw.attempted += 1;
                let batch = live.pool.batch(live.offered);
                let offered_at = Instant::now();
                let span = tracer.begin("engine.ingest", live.offered);
                live.handle.ingest(batch).expect("engine accepts the batch");
                tracer.end(span, batch.len() as u64);
                live.offered += 1;
                sent += 1;
                accepted_ns.push(start.elapsed().as_nanos() as u64);
                if tracer.is_on() && live.offered.is_multiple_of(DEPTH_SAMPLE_EVERY) {
                    depth_samples.push(layers::queue_depth(&live.handle));
                }
                // The schedule comes first: a probe still waiting when the
                // next batch falls due is cut off there and recorded at the
                // time it had waited — a lower bound, which leaves the
                // median exact as long as fewer than half are cut off.
                let expected = live.offered * BATCH_LEN as u64;
                let give_up = start + period * sent;
                let waited = probe::await_visible(&live.handle, expected, offered_at, give_up)
                    .unwrap_or_else(|| offered_at.elapsed().as_nanos() as u64);
                raw.freshness_ns.push((slice_at(start.elapsed()), waited));
            }
            let drain = tracer.begin("engine.drain", 0);
            live.handle.drain().expect("no shard dies while measuring");
            tracer.end(drain, 0);
            stop.store(true, Ordering::Relaxed);
            querier.join().expect("query thread panicked")
        });

        raw.cpu_ns = sys::process_cpu_ns() - cpu_before;
        raw.items = accepted_ns.len() as u64 * BATCH_LEN as u64;
        raw.items_per_s = slice_rates(&accepted_ns, BATCH_LEN as f64);
        raw.queries_per_s = slice_rates(&cycle_done_ns, cycle.calls_per_cycle() as f64);
        raw.attempted += cycle.cycles * cycle.calls_per_cycle();
        raw.hh_ns = hh_ns;
        if tracer.is_on() {
            lateness_layers(&lateness_ns, &mut raw.layers);
            raw.layers
                .insert("engine.queue_depth_mean", stats::mean(&depth_samples));
        }
        tracer.absorb(query_tracer);
        raw
    }

    fn layers(&self, live: &Live, raw: &Raw, tracer: &Tracer, layers: &mut Layers) {
        layers::engine_layers(&live.handle, raw, tracer, layers);
        QueryCycle::layers(tracer, layers);
        layers::replay_ingest_path(&live.pool, &live.config.routing, Some(WINDOW), layers);
    }

    fn check(&self, live: &mut Live, gate: &mut Gate, _layers: Option<&mut Layers>) {
        live.handle.drain().expect("no shard dies before the check");
        check::check_engine(gate, &live.handle, &live.pool, live.offered, true);
    }

    fn tear_down(&self, live: Live) {
        live.engine.shutdown().expect("no shard died");
    }
}
