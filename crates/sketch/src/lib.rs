//! # psfa-sketch
//!
//! Count-Min sketch with parallel minibatch ingestion — Section 6 of
//! Tangwongsan, Tirthapura and Wu, *Parallel Streaming Frequency-Based
//! Aggregates* (SPAA 2014) — plus a Count-Sketch implementation as the
//! natural extension (the paper cites it among the sketch-based approaches
//! in related work).
//!
//! * [`count_min`] — the Count-Min sketch of Cormode and Muthukrishnan,
//!   [`AtomicCountMin`]: `d = ⌈ln(1/δ)⌉` rows of `w = ⌈e/ε⌉` counters, each
//!   row with its own independently seeded pair-multiply-shift hash; point
//!   queries overestimate the true frequency by at most `εm` with
//!   probability `1 − δ`. One type carries the per-element update, the
//!   paper's minibatch update (build the minibatch histogram with
//!   `buildHist`, then add each distinct item's count once per row —
//!   Theorem 6.1), counter-wise merging and an exact codec. Its counters
//!   are relaxed [`std::sync::atomic::AtomicU64`]s with a single writer,
//!   so an ingesting shard worker and concurrent point queries never
//!   contend on a lock (the one-sided overestimate bound survives relaxed
//!   ordering; see the module docs for the argument).
//! * [`count_sketch`] — Count-Sketch (Charikar–Chen–Farach-Colton) with the
//!   same minibatch interface, providing unbiased estimates.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod count_min;
pub mod count_sketch;

pub use count_min::AtomicCountMin;
pub use count_sketch::CountSketch;
