//! # psfa — Parallel Streaming Frequency-Based Aggregates
//!
//! A reproduction of Tangwongsan, Tirthapura and Wu, *Parallel Streaming
//! Frequency-Based Aggregates*, SPAA 2014 (DOI 10.1145/2612669.2612695), as a
//! production-quality Rust library.
//!
//! The paper's algorithms process a high-velocity stream in **minibatches**:
//! each minibatch is ingested with linear work and polylogarithmic depth,
//! updating a single shared summary (no per-processor summaries, no merge
//! step). This umbrella crate re-exports the full public API.
//!
//! ## Quick example
//!
//! ```
//! use psfa::prelude::*;
//!
//! // Track 1%-heavy hitters with 0.2% error over an infinite window.
//! let mut hh = InfiniteHeavyHitters::new(0.01, 0.002);
//! let mut zipf = ZipfGenerator::new(100_000, 1.2, 42);
//! for _ in 0..100 {
//!     let minibatch = zipf.next_minibatch(10_000);
//!     hh.process_minibatch(&minibatch);
//! }
//! let heavy = hh.query();
//! assert!(!heavy.is_empty());
//! // Estimates never exceed the true frequency (one-sided error).
//! assert!(heavy[0].estimate <= hh.estimator().stream_len());
//! ```
//!
//! ## Crate map
//!
//! | Crate | Paper section | Contents |
//! |---|---|---|
//! | [`psfa_primitives`] | §2 | scans, packing, integer sort, selection, `buildHist`, CSS, hash families |
//! | [`psfa_window`] | §3–§4 | γ-snapshots, SBBC, basic counting, windowed sum, pane rings |
//! | [`psfa_freq`] | §5 | parallel Misra–Gries, sliding-window frequency estimation (basic / space- / work-efficient), heavy hitters, mergeable summaries, cross-shard pane windows |
//! | [`psfa_sketch`] | §6 | Count-Min sketch (one type: per-element and minibatch updates, lock-free queries, mergeable), Count-Sketch |
//! | [`psfa_baselines`] | §1, §5.4 | sequential comparators and the independent-data-structure approach |
//! | [`psfa_stream`] | §1 | minibatch model, workload generators, routing layer (hash + skew-aware hot-key splitting), epoch + window fencing |
//! | [`psfa_engine`] | beyond the paper | sharded multi-threaded ingestion engine with pluggable routing, live cross-shard queries, and globally consistent sliding windows (`Engine`, `EngineHandle`) |
//! | [`psfa_store`] | beyond the paper | epoch-snapshot persistence: checksummed append-only segment log, crash recovery (`Engine::recover`), time-travel queries (`heavy_hitters_at`) |
//! | [`psfa_obs`] | beyond the paper | lock-free observability: mergeable latency histograms, stall accounting, bounded event tracing, Prometheus text export |
//! | [`psfa_serve`] | beyond the paper | network serving front end: length-prefixed binary protocol over `std::net`, capped thread-per-connection server with explicit `Busy` backpressure, blocking client (`Server`, `Client`) |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use psfa_baselines as baselines;
pub use psfa_engine as engine;
pub use psfa_freq as freq;
pub use psfa_obs as obs;
pub use psfa_primitives as primitives;
pub use psfa_serve as serve;
pub use psfa_sketch as sketch;
pub use psfa_store as store;
pub use psfa_stream as stream;
pub use psfa_window as window;

/// One-stop import for applications.
pub mod prelude {
    pub use psfa_baselines::{
        DgimCounter, ExactSlidingWindow, IndependentMgSummaries, SequentialMisraGries, SpaceSaving,
    };
    pub use psfa_engine::{
        Degraded, Engine, EngineConfig, EngineHandle, EngineMetrics, EngineReport, FaultPlan,
        IngestError, ObsConfig, Producer, ShardHealth, ShutdownError, StoreMetrics, TryIngestError,
        WindowMetrics,
    };
    pub use psfa_freq::{
        GlobalWindow, HeavyHitter, InfiniteHeavyHitters, MgSummary, PaneWindow,
        ParallelFrequencyEstimator, SealedWindow, SlidingFreqBasic, SlidingFreqSpaceEfficient,
        SlidingFreqWorkEfficient, SlidingFrequencyEstimator, SlidingHeavyHitters,
    };
    pub use psfa_obs::{
        AtomicLogHistogram, Clock, HistogramSnapshot, ManualClock, MonotonicClock, ObsCounter,
        ObsReport, ObsSection, Percentiles, TraceEvent, TraceKind, TraceRing,
    };
    pub use psfa_primitives::{ArcCell, CompactedSegment, HistScratch, WorkMeter};
    pub use psfa_serve::{
        Client, ClientError, ErrorCode, FrameError, IngestOutcome, Request, Response, RetryPolicy,
        RetryingClient, ServeConfig, ServeMetrics, Server, MAX_FRAME_LEN,
    };
    pub use psfa_sketch::{AtomicCountMin, CountSketch};
    pub use psfa_store::{
        EpochRecord, EpochView, PersistenceConfig, ShardState, SnapshotStore, StoreError,
        WindowState,
    };
    pub use psfa_stream::{
        shard_of, AdversarialChurnGenerator, BinaryStreamGenerator, BufferPool, BurstyGenerator,
        HashRouter, IngestFence, PacketTraceGenerator, Placement, Router, RoutingPolicy,
        SkewAwareRouter, StreamGenerator, UniformGenerator, WindowFence, ZipfGenerator,
    };
    pub use psfa_window::{BasicCounter, Pane, PaneRing, QueryResult, Sbbc, WindowedSum};
}
