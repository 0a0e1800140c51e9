//! Time-travel query surface: answering queries *as of* a persisted epoch.
//!
//! An [`EpochView`] wraps one decoded [`EpochRecord`] and answers exactly
//! the queries the live engine answers, with the same cross-shard
//! combination rules — so `heavy_hitters()` on a view of epoch `E`
//! reproduces the answer the live engine gave at the moment epoch `E` was
//! cut, and every estimate keeps the paper's one-sided `ε·m` bound over the
//! items reflected in the epoch.
//!
//! ## Why the bounds survive the disk
//!
//! A persisted epoch is a *consistent cut*: every minibatch accepted before
//! the cut is reflected on its shard, none accepted after is. The per-shard
//! summaries are mergeable (Agarwal et al.; `psfa_freq::MgSummary::merge`),
//! and serialisation is exact — `decode(encode(s)) == s` — so the query-time
//! accounting is identical to the live engine's: per-shard substreams
//! partition the observed prefix (`Σ_s m_s = m`), each Misra–Gries summary
//! underestimates its substream by at most `ε·m_s`, hence owner reads and
//! replicated-key sums underestimate by at most `ε·m` and never
//! overestimate. Count-Min overestimates by at most `ε_cm·m` by the mirror
//! argument.

use psfa_freq::{heavy_hitter_candidates, heavy_hitter_report_across, GlobalWindow, HeavyHitter};
use psfa_stream::{shard_of, Placement};

use crate::record::EpochRecord;

/// A read-only view of the engine's state as of one persisted epoch.
#[derive(Debug, Clone)]
pub struct EpochView {
    record: EpochRecord,
}

impl EpochView {
    /// Wraps a decoded epoch record.
    pub fn new(record: EpochRecord) -> Self {
        Self { record }
    }

    /// The underlying record.
    pub fn record(&self) -> &EpochRecord {
        &self.record
    }

    /// The store epoch this view answers for.
    pub fn epoch(&self) -> u64 {
        self.record.epoch
    }

    /// Number of shards in the cut.
    pub fn shards(&self) -> usize {
        self.record.shards.len()
    }

    /// The heavy-hitter threshold φ the engine ran with.
    pub fn phi(&self) -> f64 {
        self.record.phi
    }

    /// The estimation error ε the engine ran with.
    pub fn epsilon(&self) -> f64 {
        self.record.epsilon
    }

    /// Keys the router was splitting across shards at the cut.
    pub fn hot_keys(&self) -> &[u64] {
        &self.record.hot_keys
    }

    /// Total items reflected in the epoch (`m` of the persisted prefix).
    pub fn total_items(&self) -> u64 {
        self.record.total_items()
    }

    /// Where `key`'s count mass lived at the cut: split keys must be summed
    /// across shards, everything else is owned by its hash home.
    pub fn placement(&self, key: u64) -> Placement {
        if self.record.hot_keys.binary_search(&key).is_ok() {
            Placement::Replicated
        } else {
            Placement::Owner(shard_of(key, self.shards()))
        }
    }

    /// Point-frequency estimate for `key` as of this epoch: one-sided,
    /// `f − ε·m ≤ f̂ ≤ f` over the persisted prefix (see the module docs).
    pub fn estimate(&self, key: u64) -> u64 {
        let per_shard = |s: usize| {
            self.record.shards[s]
                .heavy_hitters
                .estimator()
                .estimate(key)
        };
        match self.placement(key) {
            Placement::Owner(shard) => per_shard(shard),
            Placement::Replicated => (0..self.shards()).map(per_shard).sum(),
        }
    }

    /// The globally consistent sliding window as of this epoch: every
    /// shard's persisted pane ring is sealed at the same boundary (the cut
    /// is consistent — validated at decode), so their merged
    /// [`GlobalWindow`] reproduces the aligned window the live engine
    /// served at the cut, with the same one-sided `ε·n_W` bound. `None`
    /// when the engine ran without a window or before the first boundary.
    pub fn global_window(&self) -> Option<GlobalWindow> {
        let sealed: Option<Vec<_>> = self
            .record
            .shards
            .iter()
            .map(|s| s.window.as_ref().and_then(|w| w.sealed_window()))
            .collect();
        GlobalWindow::merge(sealed.as_ref()?.iter())
    }

    /// One-sided estimate of `key`'s frequency in the aligned global
    /// window as of this epoch (`f − ε·n_W ≤ f̂ ≤ f` over the window's
    /// `n_W` items); `0` when the engine ran without a window or before
    /// the first window boundary.
    pub fn sliding_estimate(&self, key: u64) -> u64 {
        self.global_window().map_or(0, |w| w.estimate(key))
    }

    /// The φ-heavy hitters of the aligned global window as of this epoch,
    /// most frequent first (empty without a window / before the first
    /// boundary) — the historical mirror of the live engine's
    /// `sliding_heavy_hitters`.
    pub fn sliding_heavy_hitters(&self) -> Vec<HeavyHitter> {
        self.global_window().map_or_else(Vec::new, |w| {
            w.heavy_hitters(self.record.phi, self.record.epsilon)
        })
    }

    /// Count-Min overestimate for `key` as of this epoch
    /// (`f ≤ f̂ ≤ f + ε_cm·m`).
    pub fn cm_estimate(&self, key: u64) -> u64 {
        let per_shard = |s: usize| self.record.shards[s].count_min.query(key);
        match self.placement(key) {
            Placement::Owner(shard) => per_shard(shard),
            Placement::Replicated => (0..self.shards()).map(per_shard).sum(),
        }
    }

    /// The φ-heavy hitters as of this epoch, most frequent first — the same
    /// computation the live engine performs on its snapshots: each shard's
    /// candidates ([`psfa_freq::heavy_hitter_candidates`], here filtered
    /// from the decoded entries), the global pigeonhole test, and each
    /// survivor summed where its [`EpochView::placement`] at the cut says
    /// it can live, thresholded at `(φ − ε)·m`
    /// ([`psfa_freq::heavy_hitter_report_across`]) — so the answer matches
    /// what the live engine reported at the cut exactly.
    pub fn heavy_hitters(&self) -> Vec<HeavyHitter> {
        let (phi, epsilon) = (self.record.phi, self.record.epsilon);
        let fan_in = self.shards() as u64;
        let candidates: Vec<Vec<(u64, u64)>> = self
            .record
            .shards
            .iter()
            .map(|shard| {
                let entries = shard.heavy_hitters.estimator().tracked_items_sorted();
                heavy_hitter_candidates(&entries, phi, epsilon, fan_in, shard.items)
            })
            .collect();
        heavy_hitter_report_across(
            &candidates,
            |key| self.estimate(key),
            phi,
            epsilon,
            self.total_items(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::ShardState;
    use psfa_freq::InfiniteHeavyHitters;
    use psfa_sketch::AtomicCountMin;

    /// Builds a 2-shard view: hash-partitioned items, plus a hot key 1000
    /// whose occurrences were split across both shards.
    fn split_view() -> (EpochView, u64) {
        let hot = 1000u64;
        let mut shards = Vec::new();
        for shard in 0..2u32 {
            let mut hh = InfiniteHeavyHitters::new(0.1, 0.01);
            let mut cm = AtomicCountMin::new(0.01, 0.01, 7);
            // Each shard saw its own occurrences of the hot key plus some
            // owner-routed traffic.
            let mut batch = vec![hot; 300];
            batch.extend((0..200u64).filter(|k| shard_of(*k, 2) == shard as usize));
            hh.process_minibatch(&batch);
            cm.process_minibatch(&batch);
            shards.push(ShardState {
                shard,
                epoch: 1,
                items: batch.len() as u64,
                heavy_hitters: hh,
                window: None,
                count_min: cm,
            });
        }
        let record = EpochRecord {
            epoch: 1,
            phi: 0.1,
            epsilon: 0.01,
            window: None,
            hot_keys: vec![hot],
            shards,
        };
        (EpochView::new(record), hot)
    }

    #[test]
    fn split_keys_are_summed_and_reported_once() {
        let (view, hot) = split_view();
        assert_eq!(view.placement(hot), Placement::Replicated);
        // 600 occurrences total, one-sided.
        let est = view.estimate(hot);
        assert!(est <= 600);
        assert!(est as f64 >= 600.0 - view.epsilon() * view.total_items() as f64);
        assert!(view.cm_estimate(hot) >= 600);
        let hh = view.heavy_hitters();
        assert_eq!(hh.iter().filter(|h| h.item == hot).count(), 1);
        assert_eq!(hh[0].item, hot, "the split key dominates the stream");
    }

    #[test]
    fn owner_keys_read_their_home_shard() {
        let (view, _) = split_view();
        for key in 0..200u64 {
            assert_eq!(view.placement(key), Placement::Owner(shard_of(key, 2)));
            assert!(view.estimate(key) <= 1);
        }
    }
}
