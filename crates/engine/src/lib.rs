//! # psfa-engine
//!
//! A multi-threaded, sharded ingestion engine over the PSFA aggregates:
//! the serving layer that turns the paper's single-summary minibatch
//! algorithms into a system that ingests concurrent traffic and answers
//! queries *while ingestion runs*.
//!
//! ```text
//!  producers (any thread: a cloned EngineHandle, or a per-thread Producer)
//!      │  ingest(&[u64])
//!      ▼
//!  router (psfa_stream::Router)
//!      │  hash: each key owned by one shard (default)
//!      │  skew-aware: hot keys split round-robin across all shards
//!      ▼
//!  control plane (ShardQueues) — the only sender of a shard command
//!      │  ONE bounded FIFO per shard carries every sub-batch (backpressure
//!      │  when full) and every cut; a cut takes the IngestFence
//!      │  exclusively and enqueues one marker per shard (same position on
//!      │  all): a window boundary each `slide` items of the WindowFence's
//!      │  clock, a drain barrier, a persist cut, the stop
//!      ▼
//!  shard workers 0..N   each owns: InfiniteHeavyHitters   (φ, ε)
//!      │  (supervised)             PaneWindow             (global window)
//!      │                           AtomicCountMin         (shared seed)
//!      ▼
//!  per-shard epoch snapshots  ──►  EngineHandle queries (the query plane)
//!      (Arc swap per batch)        estimate / heavy_hitters / cm_estimate
//!      (sealed window per boundary) sliding_estimate / sliding_heavy_hitters
//! ```
//!
//! ## Why sharding preserves the paper's guarantees
//!
//! The router places every *occurrence* on exactly one shard, so per-shard
//! substreams partition the input stream (`Σ_s m_s = m`) even when a hot
//! key's occurrences are spread across shards:
//!
//! * A **point query** on an owner-routed key is answered entirely by the
//!   owning shard: its Misra–Gries estimate satisfies `f − ε·m_s ≤ f̂ ≤ f`,
//!   which implies the global one-sided bound `f − ε·m ≤ f̂ ≤ f`. For a
//!   **replicated** (hot) key the per-shard estimates are *summed*: each
//!   underestimates its substream frequency by at most `ε·m_s`, so the sum
//!   underestimates `f = Σ_s f_s` by at most `Σ_s ε·m_s = ε·m` and never
//!   overestimates — the mergeable-summaries accounting of
//!   [`psfa_freq::MgSummary::merge`] applied at query time.
//! * A **heavy-hitter query** sums per-shard summary entries by key and
//!   thresholds the sums against `(φ − ε)·m`: every item with `f ≥ φm` is
//!   kept (its summed estimate is at least `f − ε·m ≥ (φ − ε)m`), and
//!   nothing with `f < (φ − ε)m` survives (summed estimates never
//!   overestimate). These are exactly the guarantees of the single-summary
//!   algorithm (Theorem 5.2 and the Section 5 reduction).
//! * The per-shard **Count-Min** sketches share one hash seed, so they are
//!   counter-wise mergeable ([`psfa_sketch::AtomicCountMin::merge`]) into a
//!   sketch of the full stream; point queries take the owning shard's upper
//!   bound (error `ε_cm · m_s`), or for replicated keys the sum of per-shard
//!   upper bounds (error `ε_cm · m`).
//!
//! This is the concurrent-ADT architecture of Gulisano et al. (producers
//! decoupled from aggregators by explicit in-flight state) combined with the
//! query/parallelism split of QPOPSS (queries run against published epochs,
//! never against half-updated operator state).
//!
//! ## The global sliding window
//!
//! With [`EngineConfig::sliding_window`] configured, `sliding_estimate`
//! and `sliding_heavy_hitters` answer over the **last `n_W` items of the
//! global stream** — not over per-shard substreams. The mechanism is
//! window-aligned barriers: accepted items draw logical positions from a
//! shared atomic ticket (`psfa_stream::WindowFence`), and every
//! `slide = n_W / panes` items one exclusive fence cut enqueues a boundary
//! marker at the *same stream position on every shard*. Each shard seals
//! its open pane at the marker into a ring of per-pane mergeable
//! summaries, and queries merge every shard's sealed window *at the same
//! boundary* — summing per-key estimates, which keeps the one-sided
//! `ε·n_W` bound over the global window under any routing policy (see
//! [`psfa_freq::windowed`] for the accounting). Alignment work happens at
//! boundaries on the worker threads, never on the query path and never
//! per item.
//!
//! ```
//! use psfa_engine::{Engine, EngineConfig};
//!
//! // A 4-pane window of the last 8000 items, global across 2 shards.
//! let engine = Engine::spawn(
//!     EngineConfig::with_shards(2)
//!         .heavy_hitters(0.05, 0.01)
//!         .sliding_window(8_000)
//!         .window_panes(4),
//! );
//! let handle = engine.handle();
//! for _ in 0..4 {
//!     handle.ingest(&vec![7u64; 1_000]).unwrap(); // 2 boundaries @ slide 2000
//! }
//! engine.drain().unwrap();
//! let window = handle.global_window().expect("aligned at boundary 2");
//! assert_eq!((window.seq(), window.items()), (2, 4_000));
//! assert_eq!(handle.sliding_estimate(7), 4_000);
//! let heavy = handle.sliding_heavy_hitters();
//! assert_eq!(heavy[0].item, 7);
//! engine.shutdown().unwrap();
//! ```
//!
//! ## Consistency
//!
//! Each shard publishes an immutable [`ShardSnapshot`] lazily, always at a
//! minibatch boundary: once 16 routed sub-batches have been applied since
//! the last publication, when a reader finds the snapshot behind the
//! worker, when the queue runs dry, and at every drain barrier and window
//! boundary (the rules and the staleness bound are in the `shard` module's
//! docs).
//! Queries read the latest snapshots without stalling ingestion.
//! Cross-shard queries therefore observe a *recent prefix per shard* — the
//! natural consistency of a discretized-stream system between minibatches —
//! with epochs exposed via [`EngineHandle::epochs`] for callers that need to
//! wait for progress ([`EngineHandle::drain`] gives a full barrier).
//! Windowed queries are stricter: they answer only at a boundary *every*
//! shard has sealed, so the reported window is a single consistent global
//! cut (never a mix of two different windows).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod config;
mod control;
mod engine;
mod metrics;
mod obs;
mod persist;
mod point_index;
mod producer;
mod query;
mod shard;

pub use config::EngineConfig;
pub use engine::{
    Degraded, Engine, EngineHandle, EngineReport, IngestError, ShutdownError, TryIngestError,
};
pub use metrics::{EngineMetrics, ShardHealth, ShardMetrics, StoreMetrics, WindowMetrics};
pub use producer::Producer;
pub use query::EpochView;
pub use shard::ShardSnapshot;

// Routing and window fencing live in `psfa_stream`; re-exported here
// because the engine's config and query semantics are expressed in terms
// of them. The windowed query types come from `psfa_freq::windowed`.
pub use psfa_freq::{GlobalWindow, SealedWindow};
// Fault injection lives in `psfa-primitives`; re-exported so
// `EngineConfig::fault_injection` can be used without a direct dependency.
pub use psfa_primitives::FaultPlan;
pub use psfa_stream::{IngestFence, Placement, Router, RoutingPolicy, WindowFence};

// Persistence lives in `psfa-store`; the engine-facing pieces are
// re-exported so `EngineConfig::persistence` and `Engine::recover` can be
// used without a direct `psfa-store` dependency.
pub use psfa_store::{PersistenceConfig, SnapshotStore, StoreError, WindowState};

// Observability mechanisms live in `psfa-obs`; the pieces surfaced by
// `EngineMetrics::obs` and `EngineHandle::trace_events` are re-exported so
// callers can consume reports without a direct `psfa-obs` dependency.
pub use psfa_obs::{
    HistogramSnapshot, ObsCounter, ObsReport, ObsSection, Percentiles, TraceEvent, TraceKind,
};
