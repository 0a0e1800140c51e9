//! # psfa-primitives
//!
//! Work/depth parallel-primitives substrate used by the PSFA (Parallel
//! Streaming Frequency-based Aggregates) reproduction of Tangwongsan,
//! Tirthapura and Wu, *Parallel Streaming Frequency-Based Aggregates*,
//! SPAA 2014.
//!
//! The paper states its algorithms in the classic work/depth model on a
//! CRCW PRAM and relies on a handful of textbook parallel primitives
//! (JáJá-style). This crate provides shared-memory realisations of those
//! primitives on top of [`rayon`]'s fork–join scheduler:
//!
//! * [`scan`] — parallel prefix sums (exclusive and inclusive) over an
//!   arbitrary associative operator.
//! * [`mod@pack`] — parallel filtering/compaction of sequences and flag vectors.
//! * [`intsort`] — stable linear-work parallel counting sort for bounded
//!   integer keys (the `intSort` of Theorem 2.2, after Rajasekaran–Reif).
//! * [`select`] — expected linear-work parallel rank selection, used to
//!   compute the pruning cut-off `ϕ` of Lemma 5.3 / Algorithm 2.
//! * [`histogram`] — the linear-work histogram `buildHist` of Theorem 2.3,
//!   and the sequential probe-and-add kernel the shard workers run.
//! * [`css`] — compacted stream segments (CSS) of Lemma 2.1: an encoding of
//!   a binary stream segment that records only the positions of the 1 bits.
//! * [`hash`] — seeded pairwise- and k-wise-independent hash families used
//!   by `buildHist` and the Count-Min sketch, and the keyed hasher behind
//!   the Misra–Gries counter table.
//! * [`instrument`] — lightweight operation counters used by the
//!   work-efficiency experiments (E8) to measure *work* independently of
//!   wall-clock time.
//! * [`codec`] — the little-endian byte reader/writer and typed error used
//!   by the canonical `encode`/`decode` pair of every format something
//!   reads back: the persisted summaries and record of `psfa-store`, and
//!   the wire frames of `psfa-serve`.
//! * [`arc_cell`] — atomic-pointer publication of shared immutable values
//!   (`ArcCell`), the lock-free snapshot slot under the engine's query
//!   surface.
//! * [`fault`] — the deterministic fault-injection plane (`FaultPlan`):
//!   seedable typed fault points consulted by the engine, persister, and
//!   serving layer, compiled to a no-op when unset.
//!
//! All primitives perform `O(n)` work and have polylogarithmic span, so the
//! cost bounds proved in the paper carry over to the data structures built
//! on top of them in the companion crates.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arc_cell;
pub mod codec;
pub mod css;
pub mod fault;
pub mod hash;
pub mod histogram;
pub mod instrument;
pub mod intsort;
pub mod pack;
pub mod scan;
pub mod select;

pub use arc_cell::ArcCell;
pub use codec::{put_header, ByteReader, ByteWriter, CodecError};
pub use css::CompactedSegment;
pub use fault::FaultPlan;
pub use hash::{HashFamily, KeyMixBuildHasher, PairMultiplyShiftHash, PolynomialHash};
pub use histogram::{build_hist, build_hist_into, build_hist_runs, HistScratch, HistogramEntry};
pub use instrument::WorkMeter;
pub use intsort::{int_sort_by_key, int_sort_pairs};
pub use pack::{pack, pack_indices, pack_map};
pub use scan::{scan_exclusive, scan_exclusive_by, scan_inclusive, scan_inclusive_by};
pub use select::{kth_smallest, phi_cutoff, phi_cutoff_in_place};

/// Default granularity below which primitives fall back to sequential code.
///
/// Chosen so that per-task scheduling overhead is negligible compared to the
/// work done inside the task; the exact value only affects constants, not the
/// asymptotic work/depth bounds.
pub const SEQ_THRESHOLD: usize = 2048;

/// Returns the number of chunks to split an input of length `n` into for
/// blocked parallel primitives.
///
/// The count grows with the rayon thread pool size so that work stealing has
/// enough slack, but is capped so per-chunk bookkeeping stays `O(P log n)`.
pub fn num_chunks(n: usize) -> usize {
    if n <= SEQ_THRESHOLD {
        return 1;
    }
    let threads = rayon::current_num_threads().max(1);
    let target = threads * 8;
    target.min(n.div_ceil(SEQ_THRESHOLD)).max(1)
}

/// Returns the chunk length used when splitting an input of length `n` into
/// [`num_chunks`] pieces (the last chunk may be shorter).
pub fn chunk_len(n: usize) -> usize {
    n.div_ceil(num_chunks(n)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_covers_input() {
        for n in [1usize, 10, 2047, 2048, 2049, 100_000] {
            let c = chunk_len(n);
            assert!(c >= 1);
            assert!(c * num_chunks(n) >= n, "chunks must cover the input");
        }
    }

    #[test]
    fn single_chunk_for_small_inputs() {
        assert_eq!(num_chunks(10), 1);
        assert_eq!(num_chunks(SEQ_THRESHOLD), 1);
    }
}
