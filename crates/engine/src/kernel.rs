//! The per-minibatch kernel: the paper's one `buildHist` per minibatch,
//! read by `MGaugment` (Lemma 5.3, Thm 5.2), the open window pane and the
//! Count-Min update (§6) — the whole per-minibatch body of a shard worker,
//! with no channel, no publication and no telemetry. The allocation audit
//! and the fold bench run this code too, and a caller can drive a shard's
//! summaries through it inline, with no thread.

use psfa_freq::{InfiniteHeavyHitters, PaneWindow};
use psfa_primitives::{build_hist_runs, HistScratch, HistogramEntry};
use psfa_sketch::AtomicCountMin;

/// One shard's per-minibatch histogram pass and the reused buffers it
/// runs in: at steady state [`MinibatchKernel::apply`] allocates nothing.
/// Two kernels built for the same shard and fed the same grouping of the
/// same sub-batches leave the same summaries behind.
#[derive(Debug)]
pub struct MinibatchKernel {
    /// Histogram seed: `0x5eed_0000 ^ shard`, advanced by the golden-ratio
    /// step once per minibatch.
    seed: u64,
    /// The histogram's reused probe table.
    scratch: HistScratch,
    /// The histogram of the last minibatch (its capacity is reused).
    hist: Vec<HistogramEntry>,
}

impl MinibatchKernel {
    /// A kernel for shard `shard`, at the start of its seed sequence.
    pub fn new(shard: usize) -> Self {
        Self {
            seed: 0x5eed_0000 ^ shard as u64,
            scratch: HistScratch::new(),
            hist: Vec::new(),
        }
    }

    /// Applies the concatenation of `runs` as one minibatch: one
    /// probe-and-add histogram pass over every run
    /// ([`build_hist_runs`]), then that histogram into the heavy-hitter
    /// tracker, the open window pane (when given) and the Count-Min sketch
    /// — whose only writer the caller must be. Returns the items applied
    /// and the histogram's row count (its distinct keys).
    pub fn apply<R: AsRef<[u64]>>(
        &mut self,
        runs: &[R],
        heavy_hitters: &mut InfiniteHeavyHitters,
        window: Option<&mut PaneWindow>,
        count_min: &AtomicCountMin,
    ) -> (u64, usize) {
        self.seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(1);
        build_hist_runs(runs, self.seed, &mut self.scratch, &mut self.hist);
        #[cfg(test)]
        crate::shard::tests::panic_if_due_in_apply();
        let items: u64 = runs.iter().map(|run| run.as_ref().len() as u64).sum();
        heavy_hitters.process_histogram(&self.hist, items);
        if let Some(window) = window {
            window.process_histogram(&self.hist, items);
        }
        count_min.ingest_histogram(&self.hist);
        (items, self.hist.len())
    }
}
