//! The query plane: every cross-shard answer the engine gives, live or
//! historical, computed in one place.
//!
//! A [`QueryPlane`] is the shards' published state (one [`ShardShared`]
//! each) plus the router whose placements say where a key's count mass
//! lives. [`crate::EngineHandle`] answers through the plane its workers
//! publish into; an [`EpochView`] answers through a plane built from a
//! persisted epoch by the same constructor [`crate::Engine::recover`]
//! starts its engine with. So a historical answer is the live computation
//! run on other summaries, and `view_at(E)` answers what recovery at `E`
//! answers on its first query (but for one window case, see [`EpochView`])
//! — by construction, not by a second copy of the cross-shard rules.

use std::sync::Arc;

use psfa_freq::{heavy_hitter_report_across, GlobalWindow, HeavyHitter, SealedWindow};
use psfa_store::{EpochRecord, StoreError};
use psfa_stream::{Placement, Router, RoutingPolicy};

use crate::config::EngineConfig;
use crate::shard::{ShardShared, ShardSnapshot};

/// The shards' query surfaces, the router that placed their keys, and the
/// thresholds every cross-shard answer is computed with.
#[derive(Clone)]
pub(crate) struct QueryPlane {
    pub(crate) shared: Arc<Vec<Arc<ShardShared>>>,
    pub(crate) router: Arc<Router>,
    phi: f64,
    epsilon: f64,
    /// Whether a sliding window is configured (the windowed queries answer
    /// nothing otherwise).
    windowed: bool,
}

impl QueryPlane {
    /// The plane of an engine started from `config`: empty shards, or —
    /// given a persisted epoch — shards whose initial snapshots and
    /// Count-Min sketches are that epoch's, behind a router holding its
    /// hot set, so replicated-key placements (and therefore query-time
    /// summing) are those of the cut. `recovered` must have passed
    /// [`check_resumable`] against `config`.
    pub(crate) fn new(config: &EngineConfig, recovered: Option<&EpochRecord>) -> Self {
        let router = config.routing.build(config.shards);
        if let Some(record) = recovered {
            router.promote(&record.hot_keys);
        }
        let shared = (0..config.shards)
            .map(|shard| {
                let state = recovered.map(|r| &r.shards[shard]);
                Arc::new(ShardShared::new(shard, config, state))
            })
            .collect();
        Self {
            shared: Arc::new(shared),
            router,
            phi: config.phi,
            epsilon: config.epsilon,
            windowed: config.window.is_some(),
        }
    }

    pub(crate) fn snapshots(&self) -> Vec<Arc<ShardSnapshot>> {
        self.shared.iter().map(|s| s.load_snapshot()).collect()
    }

    #[inline]
    pub(crate) fn total_items(&self) -> u64 {
        self.shared
            .iter()
            .map(|s| s.with_snapshot(|snapshot| snapshot.stream_len))
            .sum()
    }

    /// `per_shard` summed where `item`'s count mass can live: its owning
    /// shard alone, or every shard for a replicated key.
    #[inline]
    fn owner_or_sum(&self, item: u64, per_shard: impl Fn(usize) -> u64) -> u64 {
        match self.router.placement(item) {
            Placement::Owner(shard) => per_shard(shard),
            Placement::Replicated => (0..self.shared.len()).map(per_shard).sum(),
        }
    }

    /// Each snapshot read in place, one at a time.
    #[inline]
    pub(crate) fn estimate(&self, item: u64) -> u64 {
        self.owner_or_sum(item, |shard| {
            self.shared[shard].with_snapshot(|s| s.estimate(item))
        })
    }

    #[inline]
    pub(crate) fn cm_estimate(&self, item: u64) -> u64 {
        self.owner_or_sum(item, |shard| self.shared[shard].count_min.query(item))
    }

    /// Each snapshot's `hh_candidates` and the global test: a survivor
    /// placed `Owner(s)` is reported from snapshot `s`'s entry as it
    /// stands, a `Replicated` one is summed over every snapshot. Two
    /// allocations — the snapshot list and the answer — plus one when a
    /// replicated key survives.
    pub(crate) fn heavy_hitters(&self) -> Vec<HeavyHitter> {
        let snapshots = self.snapshots();
        let m: u64 = snapshots.iter().map(|s| s.stream_len).sum();
        heavy_hitter_report_across(
            snapshots.iter().map(|s| &s.hh_candidates[..]),
            |item| match self.router.placement(item) {
                Placement::Owner(shard) => Some(shard),
                Placement::Replicated => None,
            },
            |item| snapshots.iter().map(|s| s.estimate(item)).sum(),
            self.phi,
            self.epsilon,
            m,
        )
    }

    /// Every shard's sealed window at the newest boundary all of them have
    /// sealed. `None` without a window, before the first boundary, or when
    /// some shard lags the others by more boundaries than the snapshots
    /// retain.
    fn aligned_windows(&self) -> Option<Vec<Arc<SealedWindow>>> {
        if !self.windowed {
            return None;
        }
        let snapshots = self.snapshots();
        // The newest boundary *every* shard has sealed; each shard's
        // snapshot keeps a few boundaries of history, so a slightly
        // lagging shard does not force the query to fail.
        let seq = snapshots.iter().map(|s| s.latest_window_seq()).min()?;
        if seq == 0 {
            return None;
        }
        snapshots
            .iter()
            .map(|s| s.window_at(seq).cloned())
            .collect()
    }

    pub(crate) fn global_window(&self) -> Option<GlobalWindow> {
        GlobalWindow::merge(self.aligned_windows()?.iter().map(Arc::as_ref))
    }

    /// [`GlobalWindow::estimate`]'s value, without merging.
    pub(crate) fn sliding_estimate(&self, item: u64) -> u64 {
        self.aligned_windows().map_or(0, |windows| {
            windows.iter().map(|window| window.estimate(item)).sum()
        })
    }

    pub(crate) fn sliding_heavy_hitters(&self) -> Vec<HeavyHitter> {
        self.global_window()
            .map_or_else(Vec::new, |w| w.heavy_hitters(self.phi, self.epsilon))
    }
}

/// Whether an engine configured by `config` can resume — or answer as of —
/// the persisted epoch `record`: the same shard count, φ/ε, window shape and
/// Count-Min parameters, and a router that honours every persisted hot key.
pub(crate) fn check_resumable(
    record: &EpochRecord,
    config: &EngineConfig,
) -> Result<(), StoreError> {
    if record.shards.len() != config.shards {
        return Err(StoreError::ShardCountMismatch {
            persisted: record.shards.len(),
            configured: config.shards,
        });
    }
    if record.phi != config.phi || record.epsilon != config.epsilon {
        return Err(StoreError::ConfigMismatch("phi/epsilon differ"));
    }
    match (&record.window, config.window) {
        (None, None) => {}
        (Some(ws), Some(n)) if ws.size == n && ws.panes as usize == config.window_panes => {}
        _ => {
            return Err(StoreError::ConfigMismatch(
                "sliding-window size or pane count differs",
            ));
        }
    }
    for state in &record.shards {
        if state.count_min.seed() != config.cm_seed {
            return Err(StoreError::ConfigMismatch("count-min seed differs"));
        }
        if state.count_min.epsilon().to_bits() != config.cm_epsilon.to_bits()
            || state.count_min.delta().to_bits() != config.cm_delta.to_bits()
        {
            return Err(StoreError::ConfigMismatch("count-min epsilon/delta differ"));
        }
    }
    // A snapshot with split (replicated) keys needs a router that will
    // honour *all* the promotions: under plain hash routing `placement`
    // would report `Owner` for keys whose mass is spread across shards, and
    // a skew router with fewer hot slots (`4 · shards`) than the persisted
    // hot set would silently truncate it — either way point queries on the
    // dropped keys would lose most of their count.
    if !record.hot_keys.is_empty() {
        if config.routing == RoutingPolicy::Hash {
            return Err(StoreError::ConfigMismatch(
                "snapshot has split hot keys but the config routes by hash",
            ));
        }
        if record.hot_keys.len() > config.routing.hot_capacity(config.shards) {
            return Err(StoreError::ConfigMismatch(
                "persisted hot keys exceed the router's hot capacity",
            ));
        }
    }
    Ok(())
}

/// A read-only view of the engine as of one persisted epoch, from
/// [`crate::EngineHandle::view_at`].
///
/// The view is the shard state [`crate::Engine::recover`] would start from
/// at that epoch — the same initial snapshots, Count-Min sketches and
/// promoted hot set — answered by the live engine's query code. So every
/// answer is the one a recovery at the epoch gives on its first query (a
/// recovery also seals any window boundary the cut left due before it
/// answers; the view answers the cut as persisted), and the one the live
/// engine gave when the epoch was cut, up to publication lag.
///
/// ## Why the bounds survive the disk
///
/// A persisted epoch is a *consistent cut*: every minibatch accepted before
/// the cut is reflected on its shard, none accepted after is. The per-shard
/// summaries are mergeable (Agarwal et al.; `psfa_freq::MgSummary::merge`),
/// and serialisation is exact — `decode(encode(s)) == s` — so the
/// query-time accounting is the live engine's: per-shard substreams
/// partition the persisted prefix (`Σ_s m_s = m`), each Misra–Gries summary
/// underestimates its substream by at most `ε·m_s`, hence owner reads and
/// replicated-key sums underestimate by at most `ε·m` and never
/// overestimate. Count-Min overestimates by at most `ε_cm·m` by the mirror
/// argument, and the persisted pane rings, sealed at one boundary on every
/// shard, give the aligned window's one-sided `ε·n_W` bound.
#[derive(Clone)]
pub struct EpochView {
    epoch: u64,
    plane: QueryPlane,
}

impl EpochView {
    /// The view of `record` for an engine configured by `config`; refused
    /// as [`check_resumable`] refuses a recovery.
    pub(crate) fn new(config: &EngineConfig, record: &EpochRecord) -> Result<Self, StoreError> {
        check_resumable(record, config)?;
        Ok(Self {
            epoch: record.epoch,
            plane: QueryPlane::new(config, Some(record)),
        })
    }

    /// The store epoch this view answers for.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Keys the router was splitting across shards at the cut.
    pub fn hot_keys(&self) -> Vec<u64> {
        self.plane.router.hot_keys()
    }

    /// [`crate::EngineHandle::total_items`] as of this epoch: `m` of the persisted
    /// prefix.
    pub fn total_items(&self) -> u64 {
        self.plane.total_items()
    }

    /// [`crate::EngineHandle::placement`] at the cut.
    pub fn placement(&self, key: u64) -> Placement {
        self.plane.router.placement(key)
    }

    /// [`crate::EngineHandle::estimate`] as of this epoch: `f − ε·m ≤ f̂ ≤ f` over
    /// the persisted prefix.
    pub fn estimate(&self, key: u64) -> u64 {
        self.plane.estimate(key)
    }

    /// [`crate::EngineHandle::cm_estimate`] as of this epoch: `f ≤ f̂ ≤ f + ε_cm·m`.
    pub fn cm_estimate(&self, key: u64) -> u64 {
        self.plane.cm_estimate(key)
    }

    /// [`crate::EngineHandle::heavy_hitters`] as of this epoch.
    pub fn heavy_hitters(&self) -> Vec<HeavyHitter> {
        self.plane.heavy_hitters()
    }

    /// [`crate::EngineHandle::global_window`] as of this epoch.
    pub fn global_window(&self) -> Option<GlobalWindow> {
        self.plane.global_window()
    }

    /// [`crate::EngineHandle::sliding_estimate`] as of this epoch.
    pub fn sliding_estimate(&self, key: u64) -> u64 {
        self.plane.sliding_estimate(key)
    }

    /// [`crate::EngineHandle::sliding_heavy_hitters`] as of this epoch.
    pub fn sliding_heavy_hitters(&self) -> Vec<HeavyHitter> {
        self.plane.sliding_heavy_hitters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use psfa_store::PersistenceConfig;
    use psfa_stream::shard_of;

    /// A 2-shard skew-aware engine persisting on demand only.
    fn spawn(label: &str, phi: f64, epsilon: f64) -> (Engine, std::path::PathBuf) {
        let dir = psfa_store::testutil::unique_temp_dir(label);
        let config = EngineConfig::with_shards(2)
            .heavy_hitters(phi, epsilon)
            .count_min(0.01, 0.01, 7)
            .skew_aware_routing()
            .persistence(PersistenceConfig::new(&dir).interval_batches(u64::MAX / 2));
        (Engine::spawn(config), dir)
    }

    /// Epoch 1 of a 2-shard engine whose hot key 1000 was split across both
    /// shards: 600 occurrences of it, plus one each of keys `0..200`.
    fn split_view() -> (EpochView, u64) {
        let hot = 1000u64;
        let (engine, dir) = spawn("split-view", 0.1, 0.01);
        let handle = engine.handle();
        handle.router().promote(&[hot]);
        let mut batch = vec![hot; 600];
        batch.extend(0..200u64);
        handle.ingest(&batch).unwrap();
        let epoch = handle.snapshot_now().unwrap();
        let view = handle.view_at(epoch).unwrap();
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        (view, hot)
    }

    #[test]
    fn split_keys_are_summed_and_reported_once() {
        let (view, hot) = split_view();
        assert_eq!(view.hot_keys(), vec![hot]);
        assert_eq!(view.placement(hot), Placement::Replicated);
        // 600 occurrences total, one-sided.
        let est = view.estimate(hot);
        assert!(est <= 600);
        assert!(est as f64 >= 600.0 - 0.01 * view.total_items() as f64);
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
            assert!(view.cm_estimate(key) >= 1);
        }
    }

    /// The heavy-hitter computation before owner-placed candidates were
    /// reported from their own entry: every snapshot's candidates that pass
    /// the global pigeonhole test, sorted and deduplicated, each summed
    /// where its placement says it can live, then reported.
    fn summed_report(plane: &QueryPlane) -> Vec<HeavyHitter> {
        let snapshots = plane.snapshots();
        let m: u64 = snapshots.iter().map(|s| s.stream_len).sum();
        let threshold = ((plane.phi - plane.epsilon) * m as f64).max(0.0);
        let fan_in = snapshots.len() as u64;
        let mut items: Vec<u64> = snapshots
            .iter()
            .flat_map(|s| &s.hh_candidates)
            .filter(|&&(_, est)| est.saturating_mul(fan_in) as f64 >= threshold)
            .map(|&(item, _)| item)
            .collect();
        items.sort_unstable();
        items.dedup();
        let sum = |item| plane.owner_or_sum(item, |shard| snapshots[shard].estimate(item));
        psfa_freq::heavy_hitter_report(
            items.into_iter().map(|item| (item, sum(item))),
            plane.phi,
            plane.epsilon,
            m,
        )
    }

    /// A key heavy on its owner shard, then promoted and spread over both,
    /// beside owner-routed heavy keys: the live and the historical report
    /// equal the summed reference before and after the promotion.
    #[test]
    fn heavy_hitters_equal_the_summed_report_across_a_promotion() {
        let hot = 1000u64;
        let (engine, dir) = spawn("promoted-mid-stream", 0.05, 0.01);
        let handle = engine.handle();
        // Per 1,000 items: the hot key 80 times, keys 1..=5 60 times each,
        // and 620 keys seen once — below the router's own promotion share.
        let mut fresh = 1_000_000u64;
        let mut batch = || -> Vec<u64> {
            let mut items = vec![hot; 80];
            for key in 1..=5u64 {
                items.extend(std::iter::repeat_n(key, 60));
            }
            items.extend(fresh..fresh + 620);
            fresh += 620;
            items
        };
        for _ in 0..20 {
            handle.ingest(&batch()).unwrap();
        }
        engine.drain().unwrap();
        assert!(matches!(handle.placement(hot), Placement::Owner(_)));
        assert_eq!(handle.heavy_hitters(), summed_report(&handle.plane));

        handle.router().promote(&[hot]);
        for _ in 0..20 {
            handle.ingest(&batch()).unwrap();
        }
        engine.drain().unwrap();
        assert_eq!(handle.placement(hot), Placement::Replicated);
        let snapshots = handle.plane.snapshots();
        assert!(
            snapshots.iter().all(|s| s.estimate(hot) > 0),
            "the promoted key has mass on both shards"
        );
        let live = handle.heavy_hitters();
        assert_eq!(live, summed_report(&handle.plane));
        assert_eq!(live[0].item, hot);
        let owned = live
            .iter()
            .filter(|h| matches!(handle.placement(h.item), Placement::Owner(_)))
            .count();
        assert!(owned >= 1, "owner-routed keys are reported too: {live:?}");

        let view = handle.view_at(handle.snapshot_now().unwrap()).unwrap();
        assert_eq!(view.heavy_hitters(), summed_report(&view.plane));
        assert_eq!(view.heavy_hitters(), live);
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn historical_queries_answer_from_the_right_epoch() {
        let (engine, dir) = spawn("history", 0.1, 0.01);
        let handle = engine.handle();
        let batch = |n: u64| -> Vec<u64> { (0..2 * n).map(|i| i % 4).collect() };
        handle.ingest(&batch(100)).unwrap();
        let first = handle.snapshot_now().unwrap();
        handle.ingest(&batch(400)).unwrap();
        let second = handle.snapshot_now().unwrap();
        let (v1, v2) = (
            handle.view_at(first).unwrap(),
            handle.view_at(second).unwrap(),
        );
        assert_eq!((v1.epoch(), v2.epoch()), (first, second));
        assert_eq!(v1.total_items(), 200);
        assert_eq!(v2.total_items(), 1000);
        assert!(v1.estimate(0) < v2.estimate(0));
        assert!(!v2.heavy_hitters().is_empty());
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
