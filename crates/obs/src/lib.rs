//! # psfa-obs
//!
//! Lock-free observability for the PSFA reproduction: the engine measured
//! with the paper's own medicine. Telemetry here follows the same design
//! rules as the data path it watches —
//!
//! * **relaxed-atomic recording** ([`AtomicLogHistogram`]): one relaxed
//!   RMW per sample, the `AtomicCountMin` pattern applied to latency and
//!   size distributions, so instrumentation never adds a synchronisation
//!   point to the hot path;
//! * **mergeable summaries** ([`HistogramSnapshot::merge`]): per-shard
//!   recorders combine bucket-wise at query time, exactly commutative and
//!   associative, with documented one-sided bucket-error bounds
//!   (`≤ 2^-5` relative) — the per-substream-then-merge pattern of the
//!   paper's frequency aggregates;
//! * **bounded lock-free tracing** ([`TraceRing`]): a seq-stamped
//!   overwrite-oldest ring of control-plane events (boundary cuts, epoch
//!   publishes, flushes) whose per-slot seqlock drops torn records instead
//!   of ever blocking a writer;
//! * **plain-text surfacing** ([`ObsReport`]): percentile tables and a
//!   zero-dependency Prometheus text exporter.
//!
//! The crate depends on nothing. The engine crate owns *what* is measured;
//! this crate owns *how*.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod histogram;
pub mod report;
pub mod trace;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use histogram::{
    bucket_high, bucket_index, bucket_low, AtomicLogHistogram, HistogramSnapshot, Percentiles,
    NUM_BUCKETS, SUB, SUB_BITS,
};
pub use report::{ObsCounter, ObsReport, ObsSection};
pub use trace::{TraceEvent, TraceKind, TraceRing, NO_SHARD};
