//! Engine-side observability: *what* is measured, and where.
//!
//! `psfa-obs` provides the mechanisms — relaxed-atomic log histograms,
//! the seqlock trace ring, report rendering. This module owns the
//! measurement points and their assembly into an [`ObsReport`]:
//!
//! * **producer enqueue wait** — time an `ingest`/`enqueue` call blocks on
//!   a full shard queue (`0` recorded on the uncontended path, so the
//!   count doubles as a send count and the non-zero tail *is* the
//!   backpressure);
//! * **batch service time** — per-shard wall time of one minibatch through
//!   the worker's hot path, recorded into per-shard histograms that are
//!   bucket-wise **merged** at report time (the paper's
//!   per-substream-then-merge pattern applied to telemetry);
//! * **snapshot-publication staleness** — time and epoch gap between
//!   consecutive publications of a shard's snapshot, plus republish
//!   counters by [`PublishReason`] (the stall accounting for the lazy
//!   publication path introduced in PR 5);
//! * **query latency by kind** — one histogram per [`QueryKind`];
//! * **fence exclusive wait** — duration of exclusive
//!   [`psfa_stream::IngestFence`] acquisitions (window-boundary cuts and
//!   persistence cuts), the only moments producers are excluded;
//! * **persist append** — encode + fsync (append + compact) duration of
//!   one epoch snapshot on the flusher thread.
//!
//! ## Ordering contract
//!
//! All recording is **relaxed**: one relaxed RMW per sample, never a
//! fence, never a lock. Telemetry therefore observes a *recent* state of
//! the engine, not a serialised one — exactly like the shard stat
//! counters (see the contract in `shard.rs`). Data-plane visibility is
//! carried solely by the snapshot-publication `Release`/`Acquire` edge;
//! nothing here adds to or depends on it, which is what keeps the
//! instrumented hot path within noise of the uninstrumented one (E14
//! asserts `≥ 0.97×`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use psfa_obs::{
    AtomicLogHistogram, Clock, MonotonicClock, ObsCounter, ObsReport, ObsSection, Percentiles,
    TraceRing,
};
use psfa_stream::PoolCounters;

/// Observability configuration (see [`crate::EngineConfig::observability`]).
///
/// Disabled by default: an engine without an `ObsConfig` takes **zero**
/// clock reads and performs no histogram or trace writes anywhere on the
/// ingest, worker, or query paths.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Capacity of the control-plane trace ring (rounded up to a power of
    /// two, minimum 8). Old events are overwritten, never blocking.
    pub trace_capacity: usize,
    /// Clock used for every timestamp; defaults to the process-monotonic
    /// [`MonotonicClock`]. Swap in a [`psfa_obs::ManualClock`] to test
    /// timing-dependent behaviour deterministically.
    pub clock: Option<Arc<dyn Clock>>,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            trace_capacity: 1024,
            clock: None,
        }
    }
}

impl ObsConfig {
    /// Sets the trace-ring capacity.
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Overrides the clock (testing).
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }
}

/// Why a shard republished its query snapshot — the stall accounting of
/// the lazy publication path (each variant indexes a counter in the
/// report's `republish_*` family).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PublishReason {
    /// The publication cadence came due: `PUBLISH_EVERY` batches since
    /// the last publication with no reader asking (see `shard.rs`).
    Cadence = 0,
    /// A window boundary sealed a pane.
    Boundary = 1,
    /// A drain barrier (or worker exit) flushed pending state.
    Drain = 2,
    /// The queue ran dry; the worker published before blocking.
    Idle = 3,
    /// A query observed a stale snapshot and raised the refresh flag.
    QueryRefresh = 4,
}

pub(crate) const PUBLISH_REASONS: usize = 5;
const REASON_NAMES: [&str; PUBLISH_REASONS] =
    ["cadence", "boundary", "drain", "idle", "query_refresh"];

/// Query kinds timed individually (each indexes one latency histogram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueryKind {
    Estimate = 0,
    CmEstimate = 1,
    HeavyHitters = 2,
    SlidingEstimate = 3,
    SlidingHeavyHitters = 4,
}

pub(crate) const QUERY_KINDS: usize = 5;
const QUERY_NAMES: [&str; QUERY_KINDS] = [
    "query_estimate",
    "query_cm_estimate",
    "query_heavy_hitters",
    "query_sliding_estimate",
    "query_sliding_heavy_hitters",
];

/// The engine's recorder set: every histogram, counter, and the trace
/// ring, shared (via `Arc`) by producers, shard workers, the persister,
/// and query handles. All methods are lock-free; see the module docs for
/// the ordering contract.
pub(crate) struct EngineObs {
    clock: Arc<dyn Clock>,
    /// Producer wait for shard-queue space, per send (`0` ⇒ no wait).
    pub enqueue_wait: AtomicLogHistogram,
    /// Per-shard batch service time; merged bucket-wise at report time.
    batch_service: Vec<AtomicLogHistogram>,
    /// Time between consecutive snapshot publications of one shard.
    pub publish_staleness: AtomicLogHistogram,
    /// Epochs (batches) elapsed between consecutive publications.
    pub publish_epoch_gap: AtomicLogHistogram,
    /// Publications by [`PublishReason`].
    republish: [AtomicU64; PUBLISH_REASONS],
    /// Query latency by [`QueryKind`].
    queries: [AtomicLogHistogram; QUERY_KINDS],
    /// Exclusive ingest-fence acquisition + cut duration (boundary and
    /// persistence cuts — the only producer-excluding moments).
    pub fence_exclusive_wait: AtomicLogHistogram,
    /// Epoch append + compact (encode + fsync) duration on the flusher.
    pub persist_append: AtomicLogHistogram,
    /// Control-plane event ring (see [`psfa_obs::TraceKind`]).
    pub trace: TraceRing,
    /// Router promotion epoch already attributed to a `HotPromote` trace
    /// event (promotions are detected by polling the router's monotone
    /// counter from the ingest path).
    pub promotions_seen: AtomicU64,
}

impl EngineObs {
    pub(crate) fn new(config: &ObsConfig, shards: usize) -> Self {
        Self {
            clock: config
                .clock
                .clone()
                .unwrap_or_else(|| Arc::new(MonotonicClock::new())),
            enqueue_wait: AtomicLogHistogram::new(),
            batch_service: (0..shards).map(|_| AtomicLogHistogram::new()).collect(),
            publish_staleness: AtomicLogHistogram::new(),
            publish_epoch_gap: AtomicLogHistogram::new(),
            republish: std::array::from_fn(|_| AtomicU64::new(0)),
            queries: std::array::from_fn(|_| AtomicLogHistogram::new()),
            fence_exclusive_wait: AtomicLogHistogram::new(),
            persist_append: AtomicLogHistogram::new(),
            trace: TraceRing::new(config.trace_capacity),
            promotions_seen: AtomicU64::new(0),
        }
    }

    /// Current time on the configured clock.
    pub(crate) fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// The batch-service histogram of one shard.
    pub(crate) fn batch_service(&self, shard: usize) -> &AtomicLogHistogram {
        &self.batch_service[shard]
    }

    /// Counts one publication for `reason`.
    pub(crate) fn count_republish(&self, reason: PublishReason) {
        self.republish[reason as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one query's latency, measured from `start_ns`.
    pub(crate) fn record_query(&self, kind: QueryKind, start_ns: u64) {
        self.queries[kind as usize].record(self.now_ns().saturating_sub(start_ns));
    }

    /// Assembles the full report. `pool`, `fence_cuts`, and `work_units`
    /// come from the engine (the recorders for those live elsewhere);
    /// `recent_events` bounds the trace peek (`0` skips it).
    pub(crate) fn report(
        &self,
        pool: PoolCounters,
        fence_cuts: u64,
        work_units: u64,
        recent_events: usize,
    ) -> ObsReport {
        let mut sections = Vec::new();
        let mut section = |name: &str, unit: &'static str, help: &'static str, p: Percentiles| {
            sections.push(ObsSection {
                name: name.to_string(),
                unit,
                help,
                percentiles: p,
            });
        };
        section(
            "enqueue_wait",
            "ns",
            "producer wait for shard queue space (0 = no backpressure)",
            self.enqueue_wait.snapshot().percentiles(),
        );
        // Per-shard recorders, one merged distribution: the mergeable-
        // summaries pattern applied to the telemetry itself.
        let mut service = psfa_obs::HistogramSnapshot::empty();
        for h in &self.batch_service {
            service.merge(&h.snapshot());
        }
        section(
            "batch_service",
            "ns",
            "shard worker wall time per minibatch, merged across shards",
            service.percentiles(),
        );
        section(
            "publish_staleness",
            "ns",
            "time between consecutive snapshot publications of a shard",
            self.publish_staleness.snapshot().percentiles(),
        );
        section(
            "publish_epoch_gap",
            "epochs",
            "batches elapsed between consecutive snapshot publications",
            self.publish_epoch_gap.snapshot().percentiles(),
        );
        for (kind, hist) in QUERY_NAMES.iter().zip(&self.queries) {
            section(kind, "ns", "query latency", hist.snapshot().percentiles());
        }
        section(
            "fence_exclusive_wait",
            "ns",
            "exclusive ingest-fence acquisition + cut duration",
            self.fence_exclusive_wait.snapshot().percentiles(),
        );
        section(
            "persist_append",
            "ns",
            "epoch snapshot append + compact (encode + fsync) duration",
            self.persist_append.snapshot().percentiles(),
        );

        let mut counters = Vec::new();
        let mut counter = |name: &str, help: &'static str, value: u64| {
            counters.push(ObsCounter {
                name: name.to_string(),
                help,
                value,
            });
        };
        for (name, count) in REASON_NAMES.iter().zip(&self.republish) {
            counter(
                &format!("republish_{name}"),
                "snapshot publications by reason",
                count.load(Ordering::Relaxed),
            );
        }
        counter(
            "pool_hit",
            "buffer-pool checkouts served with recycled capacity",
            pool.hits,
        );
        counter(
            "pool_miss",
            "buffer-pool checkouts served by a fresh allocation",
            pool.misses,
        );
        counter(
            "pool_drop",
            "buffer give-backs dropped on a full or contended lane",
            pool.drops,
        );
        counter(
            "fence_exclusive",
            "exclusive ingest-fence acquisitions (cuts)",
            fence_cuts,
        );
        counter(
            "work_units",
            "summary update work charged by the shard WorkMeters",
            work_units,
        );
        counter(
            "trace_recorded",
            "control-plane events written to the trace ring",
            self.trace.recorded(),
        );
        counter(
            "trace_dropped",
            "trace events dropped on slot contention",
            self.trace.dropped(),
        );

        ObsReport {
            sections,
            counters,
            recent_events: self.trace.peek(recent_events),
        }
    }
}

impl std::fmt::Debug for EngineObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineObs")
            .field("shards", &self.batch_service.len())
            .field("trace_capacity", &self.trace.capacity())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_names_every_recorder() {
        let obs = EngineObs::new(&ObsConfig::default(), 2);
        obs.enqueue_wait.record(100);
        obs.batch_service(0).record(1_000);
        obs.batch_service(1).record(3_000);
        obs.count_republish(PublishReason::Cadence);
        obs.record_query(QueryKind::HeavyHitters, 0);
        let report = obs.report(
            PoolCounters {
                hits: 5,
                misses: 2,
                drops: 1,
            },
            3,
            42,
            8,
        );
        // Per-shard service histograms merged: both samples in one section.
        assert_eq!(report.percentiles("batch_service").unwrap().count, 2);
        assert_eq!(report.percentiles("enqueue_wait").unwrap().count, 1);
        assert_eq!(report.counter("republish_cadence"), Some(1));
        assert_eq!(report.counter("republish_idle"), Some(0));
        assert_eq!(report.counter("pool_miss"), Some(2));
        assert_eq!(report.counter("fence_exclusive"), Some(3));
        assert_eq!(report.counter("work_units"), Some(42));
        assert_eq!(report.percentiles("query_heavy_hitters").unwrap().count, 1);
        // Every section renders into both output formats.
        let text = report.prometheus_text();
        assert!(text.contains("psfa_batch_service_ns"));
        assert!(text.contains("psfa_republish_cadence_total"));
    }

    #[test]
    fn manual_clock_drives_query_timing() {
        let clock = Arc::new(psfa_obs::ManualClock::new());
        let obs = EngineObs::new(&ObsConfig::default().clock(clock.clone()), 1);
        let start = obs.now_ns();
        clock.advance(5_000);
        obs.record_query(QueryKind::Estimate, start);
        let p = obs
            .report(PoolCounters::default(), 0, 0, 0)
            .percentiles("query_estimate")
            .unwrap();
        assert_eq!(p.count, 1);
        // One-sided bucket error: the recorded 5000ns lands in a bucket
        // whose upper bound is within 2^-5 relative.
        assert!(p.p50 >= 5_000 && p.p50 <= 5_000 + (5_000 >> 5) + 1);
    }
}
