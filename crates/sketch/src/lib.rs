//! # psfa-sketch
//!
//! Count-Min sketch with parallel minibatch ingestion — Section 6 of
//! Tangwongsan, Tirthapura and Wu, *Parallel Streaming Frequency-Based
//! Aggregates* (SPAA 2014) — plus a Count-Sketch implementation as the
//! natural extension (the paper cites it among the sketch-based approaches
//! in related work).
//!
//! * [`count_min`] — the classic sequential Count-Min sketch of Cormode and
//!   Muthukrishnan: `d = ⌈ln(1/δ)⌉` rows of `w = ⌈e/ε⌉` counters, each row
//!   with its own independently seeded pair-multiply-shift hash; point
//!   queries overestimate the true frequency by at most `εm` with
//!   probability `1 − δ`.
//! * [`parallel`] — the paper's minibatch update: build the minibatch
//!   histogram with `buildHist`, then for every row group the histogram
//!   entries by target column with the linear-work integer sort and apply
//!   each column's total increment once, in parallel across rows and
//!   columns (Theorem 6.1).
//! * [`count_sketch`] — Count-Sketch (Charikar–Chen–Farach-Colton) with the
//!   same minibatch interface, providing unbiased estimates.
//! * [`atomic`] — the single-writer/multi-reader concurrent variant: the
//!   same sketch over relaxed [`std::sync::atomic::AtomicU64`] counters, so
//!   an ingesting shard worker and concurrent point queries never contend
//!   on a lock (the one-sided overestimate bound survives relaxed ordering;
//!   see the module docs for the argument).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod atomic;
pub mod count_min;
pub mod count_sketch;
pub mod parallel;

pub use atomic::AtomicCountMin;
pub use count_min::CountMinSketch;
pub use count_sketch::CountSketch;
pub use parallel::ParallelCountMin;
