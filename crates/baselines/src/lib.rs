//! # psfa-baselines
//!
//! Sequential and merge-based comparators referenced by the paper. The
//! parallel algorithms of `psfa-freq`, `psfa-window` and `psfa-sketch` claim
//! to perform *no more work than their best sequential counterparts* and to
//! avoid the costs of the independent-data-structure approach; this crate
//! provides those counterparts so the claims can be measured (experiments
//! E2, E4, E5, E7).
//!
//! * [`misra_gries`] — the classic per-element Misra–Gries algorithm
//!   \[MG82, DLOM02, KSP03\] (Algorithm 1 in the paper).
//! * [`space_saving`] — Space-Saving \[MAE06\].
//! * [`dgim`] — the exponential-histogram basic-counting baseline of Datar,
//!   Gionis, Indyk and Motwani \[DGIM02\].
//! * [`exact_window`] — an exact (memory-hungry) sliding-window frequency
//!   tracker, the naive comparator and test oracle.
//! * [`mergeable`] — the independent-data-structure approach of Section 5.4
//!   (\[ACH+13\]): one Misra–Gries summary per worker, merged at query time.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dgim;
pub mod exact_window;
pub mod mergeable;
pub mod misra_gries;
pub mod space_saving;

pub use dgim::DgimCounter;
pub use exact_window::ExactSlidingWindow;
pub use mergeable::IndependentMgSummaries;
pub use misra_gries::SequentialMisraGries;
pub use space_saving::SpaceSaving;
