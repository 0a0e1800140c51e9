//! The two read-side probes every in-process workload uses: the fixed
//! query cycle, and the freshness probe (how long after `ingest()` returns
//! the write is visible to a reader).

use std::hint::black_box;
use std::time::{Duration, Instant};

use psfa::prelude::EngineHandle;

use crate::harness::Layers;
use crate::input::{key_of_rank, Rng};
use crate::stats;
use crate::trace::Tracer;

/// Point queries per kind per cycle; one span covers all of a kind, since
/// a clock read costs about as much as one point query.
const POINT_QUERIES: usize = 64;
const SLIDING_POINT_QUERIES: usize = 8;
/// A write that is not visible after this long counts as a failed
/// operation (and would otherwise hang the benchmark).
const FRESHNESS_GIVE_UP: Duration = Duration::from_secs(2);

/// The fixed query cycle: 64×`estimate`, 64×`cm_estimate`, 1×
/// `heavy_hitters`, and on a windowed engine 8×`sliding_estimate` and 1×
/// `sliding_heavy_hitters`. Keys rotate through a fixed list that mixes
/// the hottest ranks (summary hits) with random ranks (summary misses).
pub struct QueryCycle {
    keys: Vec<u64>,
    cursor: usize,
    windowed: bool,
    pub cycles: u64,
}

impl QueryCycle {
    pub fn new(seed: u64, universe: u64, windowed: bool) -> Self {
        let mut rng = Rng::new(seed ^ 0x517C_C1B7_2722_0A95);
        let keys = (0..512u64)
            .map(|i| {
                if i % 2 == 0 {
                    key_of_rank(i / 2)
                } else {
                    key_of_rank(rng.next_u64() % universe)
                }
            })
            .collect();
        Self {
            keys,
            cursor: 0,
            windowed,
            cycles: 0,
        }
    }

    pub fn calls_per_cycle(&self) -> u64 {
        let windowed = if self.windowed {
            SLIDING_POINT_QUERIES + 1
        } else {
            0
        };
        (2 * POINT_QUERIES + 1 + windowed) as u64
    }

    fn next_key(&mut self) -> u64 {
        self.cursor = (self.cursor + 1) % self.keys.len();
        self.keys[self.cursor]
    }

    /// One cycle; returns its `heavy_hitters` call's latency in ns.
    pub fn run(&mut self, handle: &EngineHandle, tracer: &mut Tracer) -> u64 {
        let op = self.cycles;
        let cycle = tracer.begin("engine.query.cycle", op);

        let span = tracer.begin("engine.query.estimate_x64", op);
        for _ in 0..POINT_QUERIES {
            black_box(handle.estimate(black_box(self.next_key())));
        }
        tracer.end(span, POINT_QUERIES as u64);

        let span = tracer.begin("engine.query.cm_estimate_x64", op);
        for _ in 0..POINT_QUERIES {
            black_box(handle.cm_estimate(black_box(self.next_key())));
        }
        tracer.end(span, POINT_QUERIES as u64);

        if self.windowed {
            let span = tracer.begin("engine.query.sliding_estimate_x8", op);
            for _ in 0..SLIDING_POINT_QUERIES {
                black_box(handle.sliding_estimate(black_box(self.next_key())));
            }
            tracer.end(span, SLIDING_POINT_QUERIES as u64);
        }

        // heavy_hitters is an end-to-end metric, so it is timed directly in
        // both runs; the span around it only exists in the traced one.
        let span = tracer.begin("engine.query.heavy_hitters", op);
        let start = Instant::now();
        let reported = black_box(handle.heavy_hitters()).len();
        let hh_ns = start.elapsed().as_nanos() as u64;
        tracer.end(span, reported as u64);

        if self.windowed {
            let span = tracer.begin("engine.query.sliding_heavy_hitters", op);
            let reported = black_box(handle.sliding_heavy_hitters()).len();
            tracer.end(span, reported as u64);
        }

        tracer.end(cycle, self.calls_per_cycle());
        self.cycles += 1;
        hh_ns
    }

    /// Query-plane layer metrics from the spans this cycle recorded.
    pub fn layers(tracer: &Tracer, layers: &mut Layers) {
        let per_call = |name: &str, calls: usize, unit: f64| {
            let ns = tracer.durations_ns(name);
            stats::median(&stats::scaled(&ns, unit * calls as f64))
        };
        layers.insert(
            "engine.query.estimate_ns_p50",
            per_call("engine.query.estimate_x64", POINT_QUERIES, 1.0),
        );
        layers.insert(
            "engine.query.cm_estimate_ns_p50",
            per_call("engine.query.cm_estimate_x64", POINT_QUERIES, 1.0),
        );
        layers.insert(
            "engine.query.sliding_estimate_us_p50",
            per_call(
                "engine.query.sliding_estimate_x8",
                SLIDING_POINT_QUERIES,
                1e3,
            ),
        );
        let hh = stats::scaled(&tracer.durations_ns("engine.query.heavy_hitters"), 1e3);
        layers.insert("engine.query.hh_p99_us", stats::tail(&hh, 0.99));
        let sliding = stats::scaled(
            &tracer.durations_ns("engine.query.sliding_heavy_hitters"),
            1e3,
        );
        layers.insert("engine.query.sliding_hh_p50_us", stats::median(&sliding));
        layers.insert(
            "engine.query.sliding_hh_p99_us",
            stats::tail(&sliding, 0.99),
        );
    }
}

/// Polls `total_items()` until the engine's published snapshots cover
/// `expected` items, and returns the time since `offered_at` — the ingest
/// call, queue wait, batch service and publication, and no window length.
/// `None` when the write is still invisible at `give_up`.
///
/// The clock starts when the batch is handed to `ingest()`, not when the
/// call returns: with more busy threads than cores a woken shard worker
/// often preempts the caller inside `ingest()`, and timing from the return
/// would split the samples into "already visible" and "not yet" at the
/// scheduler's whim.
///
/// The poll yields between reads: on a two-core box a spinning reader
/// would take a core from the very shard workers it is waiting for.
pub fn await_visible(
    handle: &EngineHandle,
    expected: u64,
    offered_at: Instant,
    give_up: Instant,
) -> Option<u64> {
    loop {
        let visible = handle.total_items() >= expected;
        let now = Instant::now();
        if visible {
            return Some(now.duration_since(offered_at).as_nanos() as u64);
        }
        if now >= give_up {
            return None;
        }
        std::thread::yield_now();
    }
}

/// [`await_visible`] with the default give-up time.
pub fn freshness(handle: &EngineHandle, expected: u64, offered_at: Instant) -> Option<u64> {
    await_visible(handle, expected, offered_at, offered_at + FRESHNESS_GIVE_UP)
}
