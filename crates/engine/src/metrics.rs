//! Shard and queue metrics.
//!
//! Every shard updates a set of atomic counters on the hot path (enqueue and
//! batch completion); [`EngineMetrics`] is a point-in-time copy assembled by
//! [`crate::EngineHandle::metrics`]. Counters are monotone, so queue depths
//! derived from them are exact up to in-flight updates.
//!
//! Counter increments are **relaxed** — they are progress hints, and the
//! data a reader can act on is fenced by the snapshot publication instead
//! (see the ordering contract in `shard.rs`). Reads stay `Acquire` so a
//! metrics snapshot observes a consistent-enough recent view (notably:
//! `window_seq` is `Release`-stored after the sealed window is published,
//! so seeing a boundary here implies the window is queryable).

use std::sync::atomic::{AtomicU64, Ordering};

use psfa_obs::ObsReport;
use psfa_stream::PoolCounters;

/// Supervision state of one shard's worker, surfaced in
/// [`ShardMetrics::health`] and consulted by the degraded-query path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardHealth {
    /// The worker is running normally.
    #[default]
    Live,
    /// The worker panicked; the supervisor is restarting it. Queries
    /// answer from the shard's last published snapshot meanwhile.
    Quarantined,
    /// The worker exhausted its restart budget
    /// ([`crate::EngineConfig::worker_restart_limit`]); the shard answers
    /// from its last published snapshot permanently and is reported in
    /// the typed shutdown/drain errors.
    Dead,
}

impl ShardHealth {
    pub(crate) fn code(self) -> u64 {
        match self {
            ShardHealth::Live => 0,
            ShardHealth::Quarantined => 1,
            ShardHealth::Dead => 2,
        }
    }

    pub(crate) fn from_code(code: u64) -> Self {
        match code {
            1 => ShardHealth::Quarantined,
            2 => ShardHealth::Dead,
            _ => ShardHealth::Live,
        }
    }

    /// `true` unless the worker is live (queries over this shard answer
    /// from its last published snapshot).
    pub fn is_stale(self) -> bool {
        self != ShardHealth::Live
    }
}

/// Live atomic counters of one shard (shared between producers, the shard
/// worker, and query handles).
#[derive(Debug, Default)]
pub(crate) struct ShardStats {
    pub items_enqueued: AtomicU64,
    pub items_processed: AtomicU64,
    pub batches_enqueued: AtomicU64,
    /// Batches the worker has taken off the channel (processed, folded
    /// into the minibatch being applied, or lost to a panic).
    pub batches_dequeued: AtomicU64,
    pub batches_processed: AtomicU64,
    /// Minibatches the worker has applied: each is one or more queued
    /// batches folded together.
    pub minibatches_processed: AtomicU64,
    /// Newest window boundary this shard has sealed (`0` before the first
    /// or without a window).
    pub window_seq: AtomicU64,
    /// [`ShardHealth`] code, written by the supervisor (`Release`) and
    /// read by queries/metrics (`Acquire`), so observing `Quarantined`
    /// happens-after the panicked worker stopped touching shard state.
    pub health: AtomicU64,
    /// Worker restarts performed by the supervisor for this shard.
    pub restarts: AtomicU64,
}

impl ShardStats {
    /// Batches queued or in flight: enqueued and not yet processed. Reads
    /// processed before enqueued, so a racing worker can only make the
    /// depth over-report — it never goes negative.
    pub(crate) fn queue_depth(&self) -> u64 {
        let batches_processed = self.batches_processed.load(Ordering::Acquire);
        self.batches_enqueued
            .load(Ordering::Acquire)
            .saturating_sub(batches_processed)
    }

    /// Batches still on the channel: enqueued and not yet taken off it by
    /// the worker — what the channel's capacity bounds, and so what
    /// shedding admission compares with it. Reads dequeued before enqueued,
    /// so it never under-reports room taken.
    pub(crate) fn channel_depth(&self) -> u64 {
        let batches_dequeued = self.batches_dequeued.load(Ordering::Acquire);
        self.batches_enqueued
            .load(Ordering::Acquire)
            .saturating_sub(batches_dequeued)
    }

    /// `snapshot_lag` comes from the caller: the epochs it compares live
    /// beside these counters in `ShardShared`, not in them.
    pub(crate) fn snapshot(&self, shard: usize, snapshot_lag: u64) -> ShardMetrics {
        // Processed before enqueued throughout, so no derived depth ever
        // goes negative.
        let queue_depth = self.queue_depth();
        let batches_processed = self.batches_processed.load(Ordering::Acquire);
        let minibatches_processed = self.minibatches_processed.load(Ordering::Acquire);
        let items_processed = self.items_processed.load(Ordering::Acquire);
        let batches_enqueued = self.batches_enqueued.load(Ordering::Acquire);
        let items_enqueued = self.items_enqueued.load(Ordering::Acquire);
        let window_seq = self.window_seq.load(Ordering::Acquire);
        ShardMetrics {
            shard,
            items_enqueued,
            items_processed,
            batches_enqueued,
            batches_processed,
            minibatches_processed,
            queue_depth,
            window_seq,
            snapshot_lag,
            health: ShardHealth::from_code(self.health.load(Ordering::Acquire)),
            restarts: self.restarts.load(Ordering::Acquire),
        }
    }

    pub(crate) fn health(&self) -> ShardHealth {
        ShardHealth::from_code(self.health.load(Ordering::Acquire))
    }

    pub(crate) fn set_health(&self, health: ShardHealth) {
        self.health.store(health.code(), Ordering::Release);
    }
}

/// Point-in-time metrics of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Shard index.
    pub shard: usize,
    /// Items handed to this shard's queue so far.
    pub items_enqueued: u64,
    /// Items the worker has finished processing.
    pub items_processed: u64,
    /// Routed sub-batches handed to this shard's queue so far.
    pub batches_enqueued: u64,
    /// Sub-batches the worker has finished processing.
    pub batches_processed: u64,
    /// Minibatches the worker has applied. The worker folds the
    /// sub-batches already queued behind the one it takes into one
    /// minibatch, so `batches_processed / minibatches_processed` is the
    /// running fold factor.
    pub minibatches_processed: u64,
    /// Sub-batches enqueued and not yet processed: those still on the
    /// channel plus those the worker has taken off it and not finished
    /// (the minibatch it is applying). Shedding admission
    /// (`EngineHandle::try_ingest`) does not read this: it compares only
    /// the sub-batches still on the channel with the queue capacity.
    pub queue_depth: u64,
    /// Newest window boundary this shard has sealed (`0` before the first
    /// boundary or without a window).
    pub window_seq: u64,
    /// Sub-batches the worker has processed beyond its published query
    /// snapshot — how stale an answer from this shard can be right now, in
    /// batches. Never more than the publication cadence (16) while the
    /// worker runs, at most one minibatch once a query has observed the
    /// gap, `0` when the queue is dry or after `drain()`.
    pub snapshot_lag: u64,
    /// Supervision state of the shard's worker.
    pub health: ShardHealth,
    /// Times the supervisor has restarted this shard's worker.
    pub restarts: u64,
}

/// Point-in-time metrics of the global sliding window's fence (present
/// only when `EngineConfig::window` is configured).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowMetrics {
    /// Window slide in items (`n_W / panes`): one boundary is cut per
    /// `slide` accepted items.
    pub slide: u64,
    /// Number of panes the window is divided into.
    pub panes: u32,
    /// Window boundaries cut by the fence so far.
    pub boundaries: u64,
    /// How many boundaries the slowest shard's sealed window trails the
    /// fence (markers still queued behind batches). `0` when drained.
    pub max_shard_lag: u64,
}

/// Point-in-time metrics of the persistence subsystem (present only when
/// the engine was configured with `EngineConfig::persistence`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreMetrics {
    /// Epochs persisted by this process (flusher cuts + `snapshot_now`).
    pub epochs_persisted: u64,
    /// Bytes appended to the segment log by this process.
    pub bytes_written: u64,
    /// Newest epoch in the store (`0` when nothing is persisted yet); this
    /// includes epochs recovered from a previous process.
    pub last_epoch: u64,
    /// Segment files currently on disk.
    pub segments: u64,
    /// Background flushes that failed (I/O trouble); the flusher skips the
    /// interval and keeps going.
    pub flush_failures: u64,
}

/// Point-in-time metrics of the whole engine.
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardMetrics>,
    /// Name of the active routing policy.
    pub router: &'static str,
    /// Keys the router currently splits across shards (empty under static
    /// hash routing), sorted ascending.
    pub hot_keys: Vec<u64>,
    /// Window-fence metrics, when a global sliding window is configured.
    pub window: Option<WindowMetrics>,
    /// Persistence metrics, when a snapshot store is attached.
    pub store: Option<StoreMetrics>,
    /// Sub-batch [`psfa_stream::BufferPool`] counters: a rising `misses`
    /// rate means producers outrun the recycle lanes and fall back to heap
    /// allocation (see the pool docs for sizing).
    pub pool: PoolCounters,
    /// Abstract work units charged by each shard's estimator (the E8
    /// work-optimality meter; see `psfa_primitives::WorkMeter` for
    /// overflow/reset semantics), in shard order.
    pub work_units: Vec<u64>,
    /// Full latency/staleness report, when the engine was configured with
    /// [`crate::ObsConfig`].
    pub obs: Option<ObsReport>,
}

impl EngineMetrics {
    /// Total items processed across shards.
    pub fn items_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.items_processed).sum()
    }

    /// Total items enqueued across shards.
    pub fn items_enqueued(&self) -> u64 {
        self.shards.iter().map(|s| s.items_enqueued).sum()
    }

    /// Total minibatches currently queued or in flight.
    pub fn queue_depth(&self) -> u64 {
        self.shards.iter().map(|s| s.queue_depth).sum()
    }

    /// Shards whose workers are not live (quarantined or dead), in shard
    /// order. Queries over these shards answer from their last published
    /// snapshot (`EngineHandle::degradation` reports the `Degraded`
    /// annotation).
    pub fn quarantined_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .filter(|s| s.health.is_stale())
            .map(|s| s.shard)
            .collect()
    }

    /// Total worker restarts performed by the shard supervisors.
    pub fn worker_restarts(&self) -> u64 {
        self.shards.iter().map(|s| s.restarts).sum()
    }

    /// Total abstract work units charged across shards (wraps with the
    /// underlying meters; see `psfa_primitives::WorkMeter`).
    pub fn total_work_units(&self) -> u64 {
        self.work_units.iter().fold(0u64, |a, &b| a.wrapping_add(b))
    }

    /// Largest per-shard share of processed items (1/shards = perfectly
    /// balanced); `None` before any item is processed.
    pub fn max_shard_share(&self) -> Option<f64> {
        let total = self.items_processed();
        if total == 0 {
            return None;
        }
        self.shards
            .iter()
            .map(|s| s.items_processed as f64 / total as f64)
            .max_by(|a, b| a.total_cmp(b))
    }

    /// Load imbalance across shards: the busiest shard's processed items
    /// over the per-shard mean (`1.0` = perfectly balanced, `shards` = all
    /// load on one shard); `None` before any item is processed.
    ///
    /// This is the quantity skew-aware routing exists to shrink — the
    /// engine's throughput under backpressure is bounded by the busiest
    /// shard, i.e. by `imbalance × (m / shards)` items on one worker.
    pub fn load_imbalance(&self) -> Option<f64> {
        self.max_shard_share()
            .map(|share| share * self.shards.len() as f64)
    }

    /// Renders the metrics as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<6} {:>14} {:>14} {:>10} {:>10} {:>8} {:>9}\n",
            "shard", "items in", "items done", "batches", "done", "queued", "snap lag"
        ));
        for s in &self.shards {
            out.push_str(&format!(
                "{:<6} {:>14} {:>14} {:>10} {:>10} {:>8} {:>9}\n",
                s.shard,
                s.items_enqueued,
                s.items_processed,
                s.batches_enqueued,
                s.batches_processed,
                s.queue_depth,
                s.snapshot_lag
            ));
        }
        out.push_str(&format!(
            "router {} | hot keys {} | load imbalance (max/mean) {}\n",
            self.router,
            self.hot_keys.len(),
            self.load_imbalance()
                .map_or_else(|| "n/a".to_string(), |x| format!("{x:.3}")),
        ));
        let stale = self.quarantined_shards();
        if !stale.is_empty() || self.worker_restarts() > 0 {
            out.push_str(&format!(
                "supervision: {} worker restarts | stale shards {stale:?}\n",
                self.worker_restarts(),
            ));
        }
        if let Some(window) = &self.window {
            out.push_str(&format!(
                "window: slide {} x {} panes | {} boundaries cut | max shard lag {}\n",
                window.slide, window.panes, window.boundaries, window.max_shard_lag,
            ));
        }
        if let Some(store) = &self.store {
            out.push_str(&format!(
                "store: epoch {} | {} epochs persisted | {} KiB | {} segments | {} failures\n",
                store.last_epoch,
                store.epochs_persisted,
                store.bytes_written / 1024,
                store.segments,
                store.flush_failures,
            ));
        }
        out.push_str(&format!(
            "pool: {} hits | {} misses | {} drops | work units {}\n",
            self.pool.hits,
            self.pool.misses,
            self.pool.drops,
            self.total_work_units(),
        ));
        if let Some(obs) = &self.obs {
            out.push_str(&obs.to_table());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_computes_queue_depth() {
        let stats = ShardStats::default();
        stats.batches_enqueued.store(7, Ordering::Release);
        stats.batches_processed.store(4, Ordering::Release);
        stats.items_enqueued.store(700, Ordering::Release);
        stats.items_processed.store(400, Ordering::Release);
        stats.batches_dequeued.store(6, Ordering::Release);
        stats.minibatches_processed.store(2, Ordering::Release);
        let m = stats.snapshot(2, 5);
        assert_eq!(m.shard, 2);
        assert_eq!(m.queue_depth, 3);
        assert_eq!(stats.channel_depth(), 1);
        assert_eq!(m.minibatches_processed, 2);
        assert_eq!(m.snapshot_lag, 5);
    }

    #[test]
    fn engine_metrics_aggregate() {
        let shards = vec![
            ShardMetrics {
                shard: 0,
                items_enqueued: 100,
                items_processed: 90,
                batches_enqueued: 10,
                batches_processed: 9,
                minibatches_processed: 3,
                queue_depth: 1,
                window_seq: 4,
                snapshot_lag: 0,
                health: ShardHealth::Live,
                restarts: 0,
            },
            ShardMetrics {
                shard: 1,
                items_enqueued: 50,
                items_processed: 30,
                batches_enqueued: 5,
                batches_processed: 3,
                minibatches_processed: 3,
                queue_depth: 2,
                window_seq: 3,
                snapshot_lag: 7,
                health: ShardHealth::Quarantined,
                restarts: 1,
            },
        ];
        let m = EngineMetrics {
            shards,
            router: "hash",
            hot_keys: Vec::new(),
            window: Some(WindowMetrics {
                slide: 25,
                panes: 4,
                boundaries: 4,
                max_shard_lag: 1,
            }),
            store: None,
            pool: PoolCounters {
                hits: 12,
                misses: 3,
                drops: 1,
            },
            work_units: vec![200, 100],
            obs: None,
        };
        assert_eq!(m.items_processed(), 120);
        assert_eq!(m.total_work_units(), 300);
        assert_eq!(m.items_enqueued(), 150);
        assert_eq!(m.queue_depth(), 3);
        assert!((m.max_shard_share().unwrap() - 0.75).abs() < 1e-12);
        // max = 90, mean = 60 ⇒ imbalance 1.5.
        assert!((m.load_imbalance().unwrap() - 1.5).abs() < 1e-12);
        let table = m.to_table();
        assert!(table.contains("queued"));
        assert!(table.contains("snap lag"));
        assert!(table.contains("router hash"));
        // The fix for the omitted window-fence stats: boundary count and
        // shard lag must be visible in the rendered table.
        assert!(table.contains("4 boundaries cut"));
        assert!(table.contains("max shard lag 1"));
        assert!(table.contains("slide 25 x 4 panes"));
        assert!(table.contains("3 misses"));
        assert!(table.contains("work units 300"));
        assert_eq!(m.quarantined_shards(), vec![1]);
        assert_eq!(m.worker_restarts(), 1);
        assert!(table.contains("stale shards [1]"));
    }

    #[test]
    fn empty_engine_has_no_share() {
        let m = EngineMetrics {
            shards: Vec::new(),
            router: "hash",
            hot_keys: Vec::new(),
            window: None,
            store: None,
            pool: PoolCounters::default(),
            work_units: Vec::new(),
            obs: None,
        };
        assert_eq!(m.items_processed(), 0);
        assert!(m.max_shard_share().is_none());
        assert!(m.load_imbalance().is_none());
        assert!(!m.to_table().contains("boundaries cut"));
    }
}
