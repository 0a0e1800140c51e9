//! # psfa-freq
//!
//! Parallel frequency estimation and heavy-hitter tracking — Section 5 of
//! Tangwongsan, Tirthapura and Wu, *Parallel Streaming Frequency-Based
//! Aggregates* (SPAA 2014). This crate contains the paper's primary
//! contribution: minibatch algorithms that update a **single shared
//! summary** with linear work and polylogarithmic depth, instead of keeping
//! per-processor summaries that must be merged.
//!
//! * [`summary`] — the Misra–Gries summary representation and the parallel
//!   `MGaugment` merge of a summary with a minibatch histogram (Lemma 5.3).
//! * [`infinite`] — infinite-window frequency estimation and heavy hitters
//!   (Theorem 5.2): `buildHist` + `MGaugment` per minibatch, `O(ε⁻¹)` space,
//!   `O(ε⁻¹ + µ)` work.
//! * [`sliding_basic`] — the basic sliding-window algorithm (Theorem 5.5):
//!   one unbounded SBBC per observed item.
//! * [`sliding_space`] — the space-efficient variant (Algorithm 2,
//!   Theorem 5.8): prune to `O(ε⁻¹)` counters after every minibatch using
//!   the cut-off ϕ and SBBC `decrement`.
//! * [`sliding_work`] — the work-efficient variant (Theorem 5.4): predict the
//!   surviving counters first, then build per-item segments only for the
//!   survivors with `sift` (Lemma 5.9).
//! * [`mod@sift`] — the `sift` routine of Lemma 5.9.
//! * [`heavy_hitters`] — φ-heavy-hitter query layers over the estimators,
//!   including the reduction stated at the start of Section 5.
//! * [`windowed`] — boundary-aligned sliding windows across shards: per-pane
//!   mergeable summaries ([`PaneWindow`]), sealed at shard-consistent window
//!   boundaries and combined into a [`GlobalWindow`] with a one-sided
//!   `ε·n_W` bound over the *global* window.
//!
//! Items are identified by `u64` keys; map richer item types onto identifiers
//! at the ingestion boundary (see `psfa-stream`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod grouping;
pub mod heavy_hitters;
pub mod infinite;
pub mod sift;
pub mod sliding_basic;
pub mod sliding_space;
pub mod sliding_work;
pub mod summary;
#[cfg(test)]
pub(crate) mod test_support;
pub mod windowed;

pub use heavy_hitters::{
    heavy_hitter_report, heavy_hitter_report_across, HeavyHitter, InfiniteHeavyHitters,
    SlidingHeavyHitters,
};
pub use infinite::ParallelFrequencyEstimator;
pub use sift::sift;
pub use sliding_basic::SlidingFreqBasic;
pub use sliding_space::SlidingFreqSpaceEfficient;
pub use sliding_work::SlidingFreqWorkEfficient;
pub use summary::MgSummary;
pub use windowed::{merge_sum, GlobalWindow, PaneWindow, SealedWindow};

/// Common interface implemented by all sliding-window frequency estimators in
/// this crate, so experiments and examples can swap variants freely.
pub trait SlidingFrequencyEstimator {
    /// Incorporates one minibatch of item identifiers.
    fn process_minibatch(&mut self, minibatch: &[u64]);

    /// Returns the frequency estimate `f̂ₑ ∈ [fₑ − εn, fₑ]` for `item`.
    fn estimate(&self, item: u64) -> u64;

    /// The sliding-window size `n`.
    fn window(&self) -> u64;

    /// The error parameter ε.
    fn epsilon(&self) -> f64;

    /// Number of per-item counters currently stored (space proxy).
    fn num_counters(&self) -> usize;

    /// Items that currently have a counter, with their estimates.
    fn tracked_items(&self) -> Vec<(u64, u64)>;
}
