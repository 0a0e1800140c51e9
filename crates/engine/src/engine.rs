//! The engine: its lifecycle (start, recover, stop) and the handle's query
//! surface. Routed ingestion lives in the ingest plane (`ingest.rs`), shard
//! queues, cuts and workers in the control plane (`control.rs`),
//! cross-shard answers in the query plane (`query.rs`).

use std::fmt;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;

use psfa_freq::{GlobalWindow, HeavyHitter, ParallelFrequencyEstimator};
use psfa_obs::TraceEvent;
use psfa_sketch::AtomicCountMin;
use psfa_store::{EpochRecord, PersistenceConfig, ShardState, SnapshotStore, StoreError};
use psfa_stream::{BufferPool, Placement, Router};

use crate::config::EngineConfig;
use crate::control::ShardQueues;
use crate::metrics::{EngineMetrics, ShardMetrics, WindowMetrics};
use crate::obs::{EngineObs, QueryKind};
use crate::persist::{Flusher, Persister};
use crate::query::{check_resumable, EpochView, QueryPlane};
use crate::shard::ShardSnapshot;

/// How many trailing trace events an [`psfa_obs::ObsReport`] embeds (a
/// non-destructive peek; [`EngineHandle::trace_events`] drains the full
/// ring).
const RECENT_TRACE_EVENTS: usize = 32;

/// Error returned by [`Engine::shutdown`] and [`EngineHandle::drain`] when
/// one or more shard workers died permanently (exhausted their restart
/// budget after repeated panics) instead of completing the operation.
///
/// The engine never panics the *caller* for a worker death: supervised
/// workers are restarted from their last published snapshot (see
/// `shard.rs`), and only a shard that keeps dying past
/// [`EngineConfig::worker_restart_limit`] is marked dead. Queries keep
/// answering from dead shards' last snapshots (see
/// [`EngineHandle::degradation`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShutdownError {
    /// Shards whose workers died permanently, ascending.
    pub dead_shards: Vec<usize>,
}

impl fmt::Display for ShutdownError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard worker(s) {:?} died permanently (restart budget exhausted)",
            self.dead_shards
        )
    }
}

impl std::error::Error for ShutdownError {}

impl ShutdownError {
    /// `Err` naming `dead_shards` (ascending), unless there are none.
    pub(crate) fn check(dead_shards: impl Iterator<Item = usize>) -> Result<(), Self> {
        let dead_shards: Vec<usize> = dead_shards.collect();
        if dead_shards.is_empty() {
            Ok(())
        } else {
            Err(Self { dead_shards })
        }
    }
}

/// Staleness annotation for a query answer, read from
/// [`EngineHandle::degradation`] when some shards are quarantined or dead:
/// those shards contributed their last *published* snapshot instead of
/// live state.
///
/// The answer itself remains one-sided — snapshot estimates never exceed
/// true frequencies — but it may additionally miss the unpublished tail of
/// the stale shards' substreams (bounded by `epoch_lag` batches each).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degraded {
    /// Shards answering from their last published snapshot, ascending.
    pub stale_shards: Vec<usize>,
    /// Largest number of processed-but-unpublished batches any stale shard
    /// had at its last observed progress point — the answer's staleness in
    /// batches.
    pub epoch_lag: u64,
}

/// A multi-threaded sharded ingestion engine.
///
/// Construction spawns one worker thread per shard; [`Engine::handle`] hands
/// out cloneable [`EngineHandle`]s for concurrent producers and queriers;
/// [`Engine::shutdown`] drains gracefully and returns the final per-shard
/// operator state.
pub struct Engine {
    handle: EngineHandle,
    workers: Vec<JoinHandle<ShardState>>,
    flusher: Option<Flusher>,
}

impl Engine {
    /// Spawns the shard workers and returns the running engine.
    ///
    /// # Panics
    /// Panics if the configured persistence directory cannot be opened; use
    /// [`Engine::try_spawn`] to handle that gracefully.
    pub fn spawn(config: EngineConfig) -> Engine {
        Engine::try_spawn(config).expect("failed to open the snapshot store")
    }

    /// Spawns the shard workers, reporting persistence failures as a typed
    /// error instead of panicking.
    pub fn try_spawn(config: EngineConfig) -> Result<Engine, StoreError> {
        Engine::start(config, None)
    }

    /// Starts the workers, fresh or — from [`Engine::recover`] — resuming
    /// the persisted epoch `recovered.0`, appending to the already opened
    /// (and validated) store `recovered.1` it was loaded from.
    fn start(
        config: EngineConfig,
        recovered: Option<(EpochRecord, SnapshotStore)>,
    ) -> Result<Engine, StoreError> {
        config.validate();
        let config = Arc::new(config);
        let (recovered, preopened_store) = recovered.unzip();
        // Opened before any worker starts, so a store that fails to open
        // leaves no thread behind.
        let store = match (preopened_store, &config.persistence) {
            (None, Some(p)) => Some(SnapshotStore::open(
                &p.dir,
                p.retain_epochs,
                p.segment_max_records,
            )?),
            (store, _) => store,
        };
        // The persisted hot set is restored with the shards, so
        // replicated-key placements — and therefore query-time summing —
        // survive the restart.
        let plane = QueryPlane::new(&config, recovered.as_ref());
        // Sub-batch buffers circulate producers → workers → producers; a
        // lane never needs to park more buffers than can be in flight on
        // one queue (capacity) plus a refill in progress. The bound is
        // also what a lane retains — buffers the router allocated after a
        // contended refill fill it — so it is not raised for folding: a lane
        // that has taken back a folded group of `g` keeps `g − 1` more
        // (`BufferPool::give_back_all`), and a shard that never folds
        // holds what it did before folding existed.
        let pool = Arc::new(BufferPool::new(config.shards, config.queue_capacity + 2));
        // Observability is opt-in: `None` here compiles every instrumentation
        // point in the hot paths down to an untaken branch.
        let obs = config
            .observability
            .map(|()| Arc::new(EngineObs::new(config.shards)));
        let (queues, workers) =
            ShardQueues::start(&config, &plane.shared, &pool, &obs, recovered.as_ref());
        let queues = Arc::new(queues);
        let persister = store
            .map(|store| Arc::new(Persister::new(store, &config, &queues, &plane.router, &obs)));
        let flusher = persister.clone().zip(config.persistence.as_ref());
        let flusher = flusher.map(|(p, pcfg)| Flusher::spawn(p, pcfg));
        let handle = EngineHandle {
            queues,
            plane,
            pool,
            persister,
            obs,
            config,
        };
        Ok(Engine {
            handle,
            workers,
            flusher,
        })
    }

    /// Recovers an engine from the snapshot store at `dir`: loads the
    /// latest consistent persisted epoch, replays it into fresh shard
    /// workers (summaries, Count-Min sketches, sliding windows, stream
    /// lengths, and the router's hot-key set), and resumes — appending
    /// future epochs to the same log.
    ///
    /// The recovered engine answers `heavy_hitters`/`estimate` for the
    /// persisted prefix of `m` items with the same one-sided `ε·m` bound as
    /// the engine that wrote the snapshot: serialisation is exact and the
    /// persisted epoch is a consistent cut, so the mergeable-summaries
    /// accounting is unchanged (see [`EpochView`]). The window clock resumes
    /// from the persisted cut; a boundary that cut left due (clock on the
    /// boundary, marker not yet sent) is cut and sealed before this
    /// returns, so `global_window()` is at `⌊m / slide⌋` from the first
    /// query on.
    ///
    /// `config` must describe the same engine shape the snapshot was taken
    /// with (shard count, φ/ε, window, Count-Min parameters), and a
    /// snapshot with split hot keys requires a splitting (skew-aware)
    /// routing policy; mismatches are reported as
    /// [`StoreError::ShardCountMismatch`] /
    /// [`StoreError::ConfigMismatch`]. `config.persistence` may carry
    /// tuning knobs; its directory is overridden by `dir`.
    pub fn recover(dir: impl AsRef<Path>, mut config: EngineConfig) -> Result<Engine, StoreError> {
        let pcfg = match config.persistence.take() {
            Some(mut pcfg) => {
                pcfg.dir = dir.as_ref().to_path_buf();
                pcfg
            }
            None => PersistenceConfig::new(dir.as_ref()),
        };
        let store = SnapshotStore::open(&pcfg.dir, pcfg.retain_epochs, pcfg.segment_max_records)?;
        let latest = store.latest_epoch().ok_or(StoreError::NoSnapshot)?;
        let record = store.load(latest)?;
        check_resumable(&record, &config)?;
        config.persistence = Some(pcfg);
        let engine = Engine::start(config, Some((record, store)))?;
        // A persist cut can land between a boundary-crossing batch and its
        // `Boundary` marker: the record then holds a clock on (or past) a
        // boundary that no shard has sealed. The resumed fence would cut it
        // on the next ingest; cut it now and wait for the shards to seal,
        // so the first query already sees the window the prefix implies.
        if engine.handle.queues.seal_due_boundaries() > 0 {
            // A failed drain means a shard died at start-up; queries
            // report that themselves, and recovery has nothing to add.
            let _ = engine.drain();
        }
        Ok(engine)
    }

    /// A cloneable handle for ingestion and live queries.
    pub fn handle(&self) -> EngineHandle {
        self.handle.clone()
    }

    /// Blocks until every minibatch enqueued *before this call* has been
    /// processed by its shard. Returns a typed [`ShutdownError`] naming
    /// any permanently dead shards whose barriers could not be
    /// acknowledged (see [`EngineHandle::drain`]).
    pub fn drain(&self) -> Result<(), ShutdownError> {
        self.handle.drain()
    }

    /// Drains, stops every worker, and returns the final per-shard state.
    ///
    /// Outstanding [`EngineHandle`]s stay valid for queries against the last
    /// published snapshots, but further [`EngineHandle::ingest`] calls fail
    /// with a clean-rejection [`crate::IngestError`] — including calls racing this
    /// shutdown: every `ingest` that returned `Ok` is guaranteed to be
    /// processed.
    ///
    /// A shard whose worker died permanently (exhausted its restart budget
    /// after repeated panics) is reported in a typed [`ShutdownError`]
    /// instead of propagating the panic to the caller; its last published
    /// snapshot remains queryable through outstanding handles.
    pub fn shutdown(mut self) -> Result<EngineReport, ShutdownError> {
        let shards = self.stop(true)?;
        Ok(EngineReport {
            epsilon: self.handle.config.epsilon,
            shards,
        })
    }

    /// Stops the engine as if the process had been killed: worker threads
    /// are torn down cleanly, but — unlike [`Engine::shutdown`] — **no
    /// final snapshot is cut**, so the store keeps only what the flusher
    /// (or an explicit [`EngineHandle::snapshot_now`]) already made
    /// durable. Queued minibatches that were never persisted are lost,
    /// exactly as in a real crash; use [`Engine::recover`] to restart from
    /// the latest consistent epoch. Intended for crash-recovery tests and
    /// chaos drills.
    pub fn kill(mut self) {
        let _ = self.stop(false);
    }

    /// The one stop routine behind [`Engine::shutdown`], [`Engine::kill`]
    /// and `Drop`: closes the fence (every `ingest` that returned `Ok` is
    /// ahead of the stop on every queue), stops the flusher — after one
    /// final snapshot when `final_snapshot`, cut while the workers still
    /// drain, so it captures every accepted minibatch — then stops and
    /// joins the workers. A no-op once stopped.
    fn stop(&mut self, final_snapshot: bool) -> Result<Vec<ShardState>, ShutdownError> {
        if self.workers.is_empty() {
            return Ok(Vec::new());
        }
        let flusher = self.flusher.take();
        let workers = std::mem::take(&mut self.workers);
        self.handle.queues.stop(workers, || {
            if let Some(flusher) = flusher {
                flusher.stop(final_snapshot);
            }
        })
    }
}

impl Drop for Engine {
    /// Dropping an engine without [`Engine::shutdown`] or [`Engine::kill`]
    /// kills it: the workers stop and the flusher cuts no final snapshot.
    fn drop(&mut self) {
        let _ = self.stop(false);
    }
}

/// Cloneable handle for concurrent ingestion and live cross-shard queries.
///
/// ## Consistency model
///
/// Ingestion is split by the configured [`Router`]: under hash routing each
/// key is owned by exactly one shard; under skew-aware routing a hot key's
/// occurrences are spread across all shards and its per-shard counts are
/// *summed* at query time. Queries combine per-shard [`ShardSnapshot`]s
/// published under an epoch discipline: each snapshot is internally
/// consistent at its shard's epoch, and epochs only move forward. A
/// cross-shard query therefore sees, for every shard, *some* recently
/// completed prefix of that shard's substream — exactly the guarantee a
/// minibatch system gives between batches — and the paper's one-sided error
/// bounds hold for the observed prefix: every occurrence lands on exactly
/// one shard, so summed estimates never exceed true frequencies and
/// underestimate by at most `Σ_s ε · m_s = ε · m` (the mergeable-summaries
/// accounting of [`psfa_freq::MgSummary::merge`] applied at query time).
#[derive(Clone)]
pub struct EngineHandle {
    /// The shard queues and every cut across them (see [`ShardQueues`]):
    /// the only way a minibatch or a marker reaches a worker.
    pub(crate) queues: Arc<ShardQueues>,
    /// The shards' published state and the router: what every query reads
    /// (see [`QueryPlane`]) and what ingestion routes and accounts into.
    pub(crate) plane: QueryPlane,
    /// Recycles routed sub-batch buffers between producers and workers, so
    /// steady-state ingestion allocates nothing (see [`BufferPool`]).
    pub(crate) pool: Arc<BufferPool>,
    /// Snapshot machinery, when persistence is configured.
    persister: Option<Arc<Persister>>,
    /// Observability recorders, when [`EngineConfig::observe`] is set. All
    /// recording is relaxed telemetry: it never adds ordering the data
    /// plane relies on (see the ordering contract in `shard.rs`).
    pub(crate) obs: Option<Arc<EngineObs>>,
    /// The configuration the engine was started with: φ/ε, the window
    /// shape, and what a time-travel view is built from.
    config: Arc<EngineConfig>,
}

impl EngineHandle {
    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.config.shards
    }

    /// The engine's heavy-hitter threshold φ.
    pub fn phi(&self) -> f64 {
        self.config.phi
    }

    /// The engine's estimation error ε.
    pub fn epsilon(&self) -> f64 {
        self.config.epsilon
    }

    /// The global sliding-window size `n_W`, when configured.
    pub fn window(&self) -> Option<u64> {
        self.config.window
    }

    /// Number of panes the global window is divided into.
    pub fn window_panes(&self) -> usize {
        self.config.window_panes
    }

    /// The window slide in items (`n_W / panes`), when configured.
    pub fn window_slide(&self) -> Option<u64> {
        self.window().map(|n| n / self.window_panes() as u64)
    }

    /// Blocks until every minibatch accepted before this call is
    /// processed: a barrier cut, acknowledged by each worker when it
    /// dequeues its marker — by FIFO order, after everything accepted
    /// before the cut. Draining stays valid through (and after) shutdown.
    ///
    /// A shard whose worker died permanently (marked [`crate::ShardHealth::Dead`]
    /// after exhausting its restart budget) cannot acknowledge the
    /// barrier; such shards are reported in a typed [`ShutdownError`].
    /// Workers that exited through a *graceful* shutdown still count as
    /// drained — their queues were emptied before they left.
    pub fn drain(&self) -> Result<(), ShutdownError> {
        self.queues.drain()
    }

    /// Runs a query body under the observability clock, recording its
    /// latency into the per-kind histogram. A single branch when
    /// observability is off.
    #[inline]
    fn timed<R>(&self, kind: QueryKind, f: impl FnOnce() -> R) -> R {
        match &self.obs {
            None => f(),
            Some(obs) => {
                let start = obs.now_ns();
                let out = f();
                obs.record_query(kind, start);
                out
            }
        }
    }

    /// Current snapshots of every shard (each at its own epoch).
    pub fn snapshots(&self) -> Vec<Arc<ShardSnapshot>> {
        self.plane.snapshots()
    }

    /// Current staleness annotation: `Some` when any shard is quarantined
    /// or dead (its contribution to merged answers is its last published
    /// snapshot), `None` when every shard is live. Read it *after* the
    /// answer it annotates: a shard that went stale while the query ran is
    /// then reported, never missed. The answer stays one-sided either way
    /// — snapshot estimates never exceed true frequencies.
    pub fn degradation(&self) -> Option<Degraded> {
        use std::sync::atomic::Ordering;
        let mut stale_shards = Vec::new();
        let mut epoch_lag = 0u64;
        for (shard, shared) in self.plane.shared.iter().enumerate() {
            if shared.stats.health().is_stale() {
                stale_shards.push(shard);
                let published = shared.snapshot.get().epoch;
                let live = shared.live_epoch.load(Ordering::Relaxed);
                epoch_lag = epoch_lag.max(live.saturating_sub(published));
            }
        }
        if stale_shards.is_empty() {
            None
        } else {
            Some(Degraded {
                stale_shards,
                epoch_lag,
            })
        }
    }

    /// Where `item`'s count mass may live under the configured routing:
    /// a single owning shard, or replicated across all shards (hot keys
    /// under skew-aware routing).
    pub fn placement(&self, item: u64) -> Placement {
        self.plane.router.placement(item)
    }

    /// The active router (for inspection; e.g. its current hot-key set).
    pub fn router(&self) -> &Arc<Router> {
        &self.plane.router
    }

    /// Total items reflected in the current snapshots (`m` of the observed
    /// prefix). Reads each snapshot in place: no allocation.
    pub fn total_items(&self) -> u64 {
        self.plane.total_items()
    }

    /// Per-shard epochs (minibatches processed) of the current snapshots.
    pub fn epochs(&self) -> Vec<u64> {
        self.plane
            .shared
            .iter()
            .map(|s| s.with_snapshot(|snapshot| snapshot.epoch))
            .collect()
    }

    /// Live point-frequency estimate for `item`: one-sided,
    /// `f − ε·m ≤ f̂ ≤ f` over the observed prefix.
    ///
    /// Owner-routed keys are answered by the owning shard's snapshot alone;
    /// replicated (hot) keys are summed across every shard's snapshot — each
    /// shard underestimates its substream by at most `ε·m_s`, so the sum
    /// underestimates by at most `ε·m` and never overestimates.
    ///
    /// Each snapshot is read in place, one shard at a time, and probed
    /// through its hashed index ([`ShardSnapshot::estimate`]): `O(1)`
    /// expected per shard, no reference-count traffic, no allocation.
    pub fn estimate(&self, item: u64) -> u64 {
        self.timed(QueryKind::Estimate, || self.plane.estimate(item))
    }

    /// The globally consistent sliding window at the latest boundary every
    /// shard has sealed: per-shard sealed windows *for the same boundary*
    /// merged by summing per-key estimates (the mergeable-summaries
    /// accounting, so estimates are one-sided within `ε·n_W` of the true
    /// window frequencies — see [`psfa_freq::windowed`]).
    ///
    /// Returns `None` when the engine runs without a window, before the
    /// first boundary (`slide = n_W / panes` items must be accepted
    /// first), or in the rare case that some shard lags the others by more
    /// boundaries than the snapshots retain — [`EngineHandle::drain`]
    /// realigns. **Router-independent**: the window covers the same global
    /// items whether keys are hash-owned or split by the skew-aware
    /// router.
    pub fn global_window(&self) -> Option<GlobalWindow> {
        self.plane.global_window()
    }

    /// Live one-sided estimate of `item`'s frequency in the aligned global
    /// sliding window: `f − ε·n_W ≤ f̂ ≤ f` over the window's `n_W` items,
    /// under every routing policy (replicated hot keys are summed across
    /// shards like any other — each occurrence lands on exactly one
    /// shard). `0` when no aligned window is available yet (see
    /// [`EngineHandle::global_window`]).
    ///
    /// Nothing is merged for a point query: the key is looked up in each
    /// shard's sealed window (a binary search) and the estimates summed,
    /// which is the value [`GlobalWindow::estimate`] gives. To probe many
    /// keys at one boundary, call [`EngineHandle::global_window`] once and
    /// use the result — consecutive calls here may straddle a boundary.
    pub fn sliding_estimate(&self, item: u64) -> u64 {
        self.timed(QueryKind::SlidingEstimate, || {
            self.plane.sliding_estimate(item)
        })
    }

    /// Live φ-heavy hitters of the aligned global sliding window, most
    /// frequent first: every item with window frequency `≥ φ·n_W` is
    /// reported and no item with window frequency `< (φ − ε)·n_W` is —
    /// the paper's sliding-window query, answered across shards. Empty
    /// when no aligned window is available yet.
    pub fn sliding_heavy_hitters(&self) -> Vec<HeavyHitter> {
        self.timed(QueryKind::SlidingHeavyHitters, || {
            self.plane.sliding_heavy_hitters()
        })
    }

    /// Live Count-Min overestimate for `item` (`f ≤ f̂ ≤ f + ε_cm·m`).
    ///
    /// Owner-routed keys query the owning shard's sketch (error `ε_cm·m_s`);
    /// replicated keys sum the per-shard overestimates, which remains an
    /// overestimate with error at most `Σ_s ε_cm·m_s = ε_cm·m`.
    ///
    /// **Lock-free**: the sketches are relaxed-atomic
    /// ([`psfa_sketch::AtomicCountMin`]), so this never contends with the
    /// shard workers' batch updates. A query racing an update answers for a
    /// recent prefix of the shard's substream — never below what any
    /// published snapshot of that shard reflects (the publication
    /// `Release`/`Acquire` edge; see `shard.rs`).
    pub fn cm_estimate(&self, item: u64) -> u64 {
        self.timed(QueryKind::CmEstimate, || self.plane.cm_estimate(item))
    }

    /// Live φ-heavy hitters of the full stream, summed across shards from
    /// the current snapshots, most frequent first.
    ///
    /// Per-shard summary entries are **summed by key** before thresholding,
    /// so a hot key split across shards by the skew-aware router is judged
    /// by its global estimate, not its largest fragment. Nothing is merged
    /// and no shard's summary is scanned: a key whose sum reaches the
    /// threshold holds at least `1/shards` of it on some shard, so it is on
    /// that snapshot's `hh_candidates` — filtered once at publication
    /// against the shard's own, no higher, threshold — and only the
    /// candidates that pass the global test are read
    /// ([`psfa_freq::heavy_hitter_report_across`]). Each is read **where
    /// its placement says it can live**, as [`EngineHandle::estimate`]
    /// does: an `Owner(s)` key's entry on snapshot `s` is its sum and is
    /// reported as it stands, with no lookup (its entries on other
    /// snapshots, were there any, are ignored); a `Replicated` key is
    /// summed over every snapshot. That equals the all-shard sum because
    /// hash routing never promotes, skew-aware promotion is sticky, and the
    /// hot set is persisted and recovered with each epoch — a key that is
    /// an owner key now has only ever been routed to its owner; a key
    /// promoted after the snapshots were loaded is summed over all shards.
    /// Cost: `O(Σ c_s + r log r)` for `Σ c_s` candidate entries and `r`
    /// reported keys, plus `shards` hashed-index probes per replicated
    /// survivor; two allocations, and a third only when a replicated key
    /// survives — the answer is identical to the report over the merged
    /// summaries.
    ///
    /// Guarantees over the observed prefix of `m` items: every item with
    /// true frequency `≥ φm` is reported (its summed estimate is at least
    /// `f − ε·m ≥ (φ − ε)m`); no item with true frequency `< (φ − ε)m` is
    /// reported (summed estimates never overestimate).
    pub fn heavy_hitters(&self) -> Vec<HeavyHitter> {
        self.timed(QueryKind::HeavyHitters, || self.plane.heavy_hitters())
    }

    /// Merges every shard's Count-Min sketch into one global sketch of the
    /// full stream (all shards share hash seeds, so the merge is exact).
    /// Lock-free: each shard's sketch is read in place under relaxed loads.
    pub fn merged_count_min(&self) -> AtomicCountMin {
        let shared = &self.plane.shared;
        let mut merged = shared[0].count_min.clone();
        for shared in &shared[1..] {
            merged.merge(&shared.count_min);
        }
        merged
    }

    /// Point-in-time shard and queue metrics, including the active routing
    /// policy, its current hot-key set, the window fence's boundary
    /// counters (when a global window is configured), and — when
    /// persistence is configured — the snapshot store's counters.
    pub fn metrics(&self) -> EngineMetrics {
        let shards: Vec<_> = self
            .plane
            .shared
            .iter()
            .enumerate()
            .map(|(shard, s)| s.stats.snapshot(shard, s.snapshot_lag()))
            .collect();
        let window = self.queues.boundaries().map(|boundaries| {
            WindowMetrics {
                slide: self.window_slide().expect("a window clock has a window"),
                panes: self.window_panes() as u32,
                boundaries,
                // How far the slowest shard's sealed window trails the
                // fence: markers still sitting in its queue. Persistent
                // lag beyond the snapshot history makes aligned queries
                // fail, so it is worth watching.
                max_shard_lag: shards
                    .iter()
                    .map(|s| boundaries.saturating_sub(s.window_seq))
                    .max()
                    .unwrap_or(0),
            }
        });
        let pool = self.pool.counters();
        let work_units: Vec<u64> = self.plane.shared.iter().map(|s| s.work.total()).collect();
        let obs = self.obs.as_ref().map(|obs| {
            obs.report(
                pool,
                self.queues.cuts(),
                work_units.iter().sum(),
                RECENT_TRACE_EVENTS,
            )
        });
        EngineMetrics {
            shards,
            router: self.plane.router.name(),
            hot_keys: self.plane.router.hot_keys(),
            window,
            store: self.persister.as_ref().map(|p| p.metrics()),
            pool,
            work_units,
            obs,
        }
    }

    /// Drains the bounded trace ring: every retained event since the last
    /// drain, oldest first. Under sustained load the ring overwrites its
    /// oldest entries, so long-idle consumers see the most recent 1,024
    /// events (the drop count is reported in
    /// the [`psfa_obs::ObsReport`] counters). Empty when observability is
    /// off.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.obs
            .as_ref()
            .map_or_else(Vec::new, |obs| obs.trace.drain())
    }

    /// Renders the current observability report in the Prometheus text
    /// exposition format (see [`psfa_obs::ObsReport::prometheus_text`]).
    /// `None` when observability is off.
    pub fn prometheus_text(&self) -> Option<String> {
        let metrics = self.metrics();
        let mut text = metrics.obs?.prometheus_text();
        let mut per_shard =
            |name: &str, kind: &str, help: &str, value: fn(&ShardMetrics) -> u64| {
                text.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
                for s in &metrics.shards {
                    text.push_str(&format!("{name}{{shard=\"{}\"}} {}\n", s.shard, value(s)));
                }
            };
        // How far each published snapshot trails its worker right now (see
        // `ShardMetrics::snapshot_lag`).
        per_shard(
            "psfa_snapshot_lag_batches",
            "gauge",
            "routed sub-batches processed beyond the shard's published snapshot",
            |s| s.snapshot_lag,
        );
        // Batches against the minibatches they were folded into: the ratio
        // is each shard's running fold factor.
        per_shard(
            "psfa_batches_processed_total",
            "counter",
            "routed sub-batches the shard's worker has processed",
            |s| s.batches_processed,
        );
        per_shard(
            "psfa_minibatches_processed_total",
            "counter",
            "minibatches the shard's worker has applied, each one or more folded sub-batches",
            |s| s.minibatches_processed,
        );
        Some(text)
    }

    // ---- persistence & time travel ------------------------------------

    fn persister(&self) -> Result<&Arc<Persister>, StoreError> {
        self.persister.as_ref().ok_or(StoreError::Disabled)
    }

    /// Cuts one epoch snapshot *now*, synchronously: a consistent cut
    /// across all shards is taken, appended durably to the segment log, and
    /// compacted. Returns the persisted epoch number. Runs concurrently
    /// with ingestion (producers are excluded only for the microseconds of
    /// the cut itself) and with the background flusher.
    pub fn snapshot_now(&self) -> Result<u64, StoreError> {
        self.persister()?.snapshot_once()
    }

    /// Epochs currently retained by the store, ascending.
    pub fn persisted_epochs(&self) -> Result<Vec<u64>, StoreError> {
        Ok(self.persister()?.with_store(|s| s.epochs()))
    }

    /// A time-travel view of the engine's state as of persisted epoch `E`:
    /// the shard state [`Engine::recover`] would start from at `E`,
    /// answered by the live query code (see [`EpochView`] for the surface
    /// and its `ε·m` bounds). An epoch that does not fit this engine's
    /// config is refused with the error a recovery from it would give.
    pub fn view_at(&self, epoch: u64) -> Result<EpochView, StoreError> {
        let record = self.persister()?.with_store(|s| s.load(epoch))?;
        EpochView::new(&self.config, &record)
    }
}

/// Final state returned by [`Engine::shutdown`].
pub struct EngineReport {
    epsilon: f64,
    /// Per-shard final operator state, in shard order.
    pub shards: Vec<ShardState>,
}

impl EngineReport {
    /// Total items processed across shards.
    pub fn total_items(&self) -> u64 {
        self.shards.iter().map(|s| s.items).sum()
    }

    /// Merges the per-shard infinite-window estimators into one global
    /// estimator of the full stream (mergeable-summaries semantics; the
    /// global error stays `ε · m`).
    pub fn merged_estimator(&self) -> ParallelFrequencyEstimator {
        let mut merged = ParallelFrequencyEstimator::new(self.epsilon);
        for shard in &self.shards {
            merged.merge(shard.heavy_hitters.estimator());
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psfa_obs::TraceKind;
    use psfa_stream::{RoutingPolicy, StreamGenerator, ZipfGenerator};
    use std::collections::HashMap;

    fn config() -> EngineConfig {
        EngineConfig::with_shards(4)
            .queue_capacity(8)
            .heavy_hitters(0.05, 0.01)
    }

    #[test]
    fn ingest_drain_query_shutdown_roundtrip() {
        let engine = Engine::spawn(config());
        let handle = engine.handle();
        let mut generator = ZipfGenerator::new(10_000, 1.3, 11);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut total = 0u64;
        for _ in 0..20 {
            let batch = generator.next_minibatch(2_000);
            for &x in &batch {
                *truth.entry(x).or_insert(0) += 1;
            }
            total += batch.len() as u64;
            handle.ingest(&batch).unwrap();
        }
        engine.drain().unwrap();
        assert_eq!(handle.total_items(), total);
        assert_eq!(handle.metrics().items_processed(), total);
        assert_eq!(handle.metrics().queue_depth(), 0);

        // One-sided point estimates.
        let slack = (0.01 * total as f64).ceil() as u64;
        for (&item, &f) in &truth {
            let est = handle.estimate(item);
            assert!(est <= f, "estimate {est} above truth {f}");
            assert!(
                est + slack >= f,
                "estimate {est} under truth {f} by more than εm"
            );
            assert!(
                handle.cm_estimate(item) >= f,
                "count-min must never underestimate"
            );
        }

        // Heavy hitters: no false negatives, no far false positives.
        let reported: Vec<u64> = handle.heavy_hitters().iter().map(|h| h.item).collect();
        for (&item, &f) in &truth {
            if f as f64 >= 0.05 * total as f64 {
                assert!(reported.contains(&item), "missed heavy hitter {item}");
            }
            if (f as f64) < (0.05 - 0.01) * total as f64 {
                assert!(!reported.contains(&item), "false positive {item}");
            }
        }

        let report = engine.shutdown().unwrap();
        assert_eq!(report.total_items(), total);
        // After shutdown the handle still answers queries but refuses
        // ingestion — cleanly, with nothing enqueued.
        assert_eq!(handle.total_items(), total);
        let err = handle.ingest(&[1, 2, 3]).unwrap_err();
        assert!(err.is_clean_rejection());

        // The merged estimator covers the full stream.
        let merged = report.merged_estimator();
        assert_eq!(merged.stream_len(), total);
        for (&item, &f) in &truth {
            assert!(merged.estimate(item) <= f);
        }
    }

    #[test]
    fn epochs_advance_and_snapshots_are_monotone() {
        let engine = Engine::spawn(config());
        let handle = engine.handle();
        handle.ingest(&(0..1000u64).collect::<Vec<_>>()).unwrap();
        engine.drain().unwrap();
        let before = handle.epochs();
        handle.ingest(&(0..1000u64).collect::<Vec<_>>()).unwrap();
        engine.drain().unwrap();
        let after = handle.epochs();
        for (b, a) in before.iter().zip(&after) {
            assert!(a > b, "epochs must advance: {before:?} -> {after:?}");
        }
        engine.shutdown().unwrap();
    }

    #[test]
    fn keys_are_partitioned_not_duplicated() {
        let engine = Engine::spawn(config());
        let handle = engine.handle();
        let batch: Vec<u64> = (0..10_000u64).flat_map(|k| [k, k]).collect();
        handle.ingest(&batch).unwrap();
        engine.drain().unwrap();
        // Every key lives on exactly one shard; summing shard stream lengths
        // must equal the batch length exactly.
        assert_eq!(handle.total_items(), batch.len() as u64);
        let m = handle.metrics();
        assert!(
            m.shards.iter().all(|s| s.items_processed > 0),
            "all shards used"
        );
        engine.shutdown().unwrap();
    }

    #[test]
    fn merged_count_min_sees_the_whole_stream() {
        let engine = Engine::spawn(config().count_min(0.001, 0.01, 5));
        let handle = engine.handle();
        let batch: Vec<u64> = (0..5_000u64).map(|i| i % 100).collect();
        handle.ingest(&batch).unwrap();
        engine.drain().unwrap();
        let merged = handle.merged_count_min();
        assert_eq!(merged.total(), batch.len() as u64);
        for item in 0..100u64 {
            assert!(merged.query(item) >= 50);
        }
        engine.shutdown().unwrap();
    }

    #[test]
    fn sliding_window_surface_is_exposed_when_configured() {
        // Window 10_000 over 8 panes ⇒ one boundary per 1250 items.
        let engine = Engine::spawn(config().sliding_window(10_000));
        let handle = engine.handle();
        assert_eq!(handle.window(), Some(10_000));
        assert_eq!(handle.window_slide(), Some(1_250));
        // Before the first boundary there is no aligned window yet.
        handle.ingest(&vec![42u64; 1_000]).unwrap();
        engine.drain().unwrap();
        assert!(handle.global_window().is_none());
        assert_eq!(handle.sliding_estimate(42), 0);
        // Crossing the slide cuts a boundary on every shard; the aligned
        // window now covers the whole sealed pane.
        handle.ingest(&vec![42u64; 500]).unwrap();
        engine.drain().unwrap();
        let window = handle.global_window().expect("boundary 1 sealed");
        assert_eq!(window.seq(), 1);
        assert_eq!(window.items(), 1_500);
        assert_eq!(handle.sliding_estimate(42), 1_500);
        assert_eq!(handle.sliding_estimate(43), 0);
        let hh = handle.sliding_heavy_hitters();
        assert_eq!(hh.first().map(|h| (h.item, h.estimate)), Some((42, 1_500)));
        let metrics = handle.metrics();
        let wm = metrics.window.expect("window metrics present");
        assert_eq!((wm.boundaries, wm.max_shard_lag), (1, 0));
        engine.shutdown().unwrap();
    }

    #[test]
    fn sliding_estimate_answers_as_the_merged_window_does() {
        // The point query skips `GlobalWindow::merge`; its answer must be
        // the merged window's, also for a hot key the skew-aware router
        // split over every shard (no shard holds its whole estimate).
        let engine = Engine::spawn(
            config()
                .skew_aware_routing()
                .sliding_window(40_000)
                .window_panes(4),
        );
        let handle = engine.handle();
        let mut generator = ZipfGenerator::new(5_000, 1.4, 23);
        for _ in 0..12 {
            handle.ingest(&generator.next_minibatch(5_000)).unwrap();
        }
        engine.drain().unwrap();
        let hot = handle.metrics().hot_keys[0];
        let window = handle.global_window().expect("six boundaries sealed");
        let holders = handle
            .snapshots()
            .iter()
            .filter(|s| s.window_at(window.seq()).expect("aligned").estimate(hot) > 0)
            .count();
        assert!(holders > 1, "the hot key is split");
        for item in (0..5_000).chain([hot]) {
            assert_eq!(handle.sliding_estimate(item), window.estimate(item));
        }
        engine.shutdown().unwrap();
    }

    #[test]
    fn skew_aware_engine_levels_load_and_keeps_one_sided_estimates() {
        // Half of all traffic is one hot key: hash routing pins it to one
        // shard, the skew-aware router spreads it.
        let hot = 42u64;
        let batch: Vec<u64> = (0..2_000u64)
            .map(|i| if i % 2 == 0 { hot } else { i })
            .collect();
        let run = |config: EngineConfig| {
            let engine = Engine::spawn(config);
            let handle = engine.handle();
            for _ in 0..20 {
                handle.ingest(&batch).unwrap();
            }
            engine.drain().unwrap();
            let metrics = handle.metrics();
            let est = handle.estimate(hot);
            let hh = handle.heavy_hitters();
            engine.shutdown().unwrap();
            (metrics, est, hh)
        };

        let (hash_metrics, ..) = run(config());
        let (skew_metrics, est, hh) = run(config().skew_aware_routing());

        // Accuracy: the replicated key's summed estimate stays one-sided.
        let f = 20_000u64; // 20 batches × 1000 occurrences
        let m = 40_000u64;
        assert!(est <= f, "summed estimate {est} above truth {f}");
        assert!(
            est + (0.01 * m as f64).ceil() as u64 >= f,
            "summed estimate {est} under truth {f} by more than εm"
        );
        // The hot key is reported once, not once per shard fragment.
        assert_eq!(hh.iter().filter(|h| h.item == hot).count(), 1);
        // Routing is visible in the metrics.
        assert_eq!(skew_metrics.router, "skew-aware");
        assert!(skew_metrics.hot_keys.contains(&hot));
        assert_eq!(hash_metrics.router, "hash");
        assert!(hash_metrics.hot_keys.is_empty());
        // And it levels the load.
        let hash_imb = hash_metrics.load_imbalance().unwrap();
        let skew_imb = skew_metrics.load_imbalance().unwrap();
        assert!(
            skew_imb < hash_imb,
            "skew imbalance {skew_imb:.3} must beat hash imbalance {hash_imb:.3}"
        );
    }

    fn tmpdir(label: &str) -> std::path::PathBuf {
        psfa_store::testutil::unique_temp_dir(&format!("engine-{label}"))
    }

    /// Manual-snapshot persistence config (interval too large for the
    /// background flusher to fire on its own).
    fn manual_persistence(dir: &std::path::Path) -> psfa_store::PersistenceConfig {
        psfa_store::PersistenceConfig::new(dir).interval_batches(u64::MAX / 2)
    }

    #[test]
    fn try_spawn_reports_an_unopenable_store_as_a_typed_error() {
        // A persistence directory *under a regular file* can never be
        // created: the typed path returns the store's error instead of
        // panicking, before any worker is spawned.
        let dir = tmpdir("try-spawn");
        let file = dir.join("not-a-directory");
        std::fs::write(&file, b"x").unwrap();
        let result = Engine::try_spawn(config().persist_to(file.join("store")));
        assert!(matches!(result, Err(StoreError::Io(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_kill_recover_roundtrip() {
        let dir = tmpdir("recover");
        let config = config().persistence(manual_persistence(&dir));
        let engine = Engine::spawn(config.clone());
        let handle = engine.handle();
        let mut generator = ZipfGenerator::new(5_000, 1.3, 7);
        for _ in 0..12 {
            handle.ingest(&generator.next_minibatch(1_500)).unwrap();
        }
        engine.drain().unwrap();
        let m_snap = handle.total_items();
        let live_hh = handle.heavy_hitters();
        let live_est: Vec<u64> = (0..50).map(|k| handle.estimate(k)).collect();
        let epoch = handle.snapshot_now().unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(handle.persisted_epochs().unwrap(), vec![1]);

        // More traffic after the snapshot, then a crash: the post-snapshot
        // items must be lost, the persisted prefix intact.
        for _ in 0..5 {
            handle.ingest(&generator.next_minibatch(1_500)).unwrap();
        }
        engine.drain().unwrap();
        assert!(handle.total_items() > m_snap);
        engine.kill();

        let recovered = Engine::recover(&dir, config).unwrap();
        let handle2 = recovered.handle();
        assert_eq!(
            handle2.total_items(),
            m_snap,
            "recovered = persisted prefix"
        );
        assert_eq!(handle2.heavy_hitters(), live_hh);
        for (k, &est) in live_est.iter().enumerate() {
            assert_eq!(handle2.estimate(k as u64), est);
        }
        // Time travel reproduces the live answer at the cut exactly.
        assert_eq!(handle2.view_at(1).unwrap().heavy_hitters(), live_hh);
        // The recovered engine keeps going and persists epoch 2.
        handle2.ingest(&generator.next_minibatch(1_000)).unwrap();
        recovered.drain().unwrap();
        assert_eq!(handle2.snapshot_now().unwrap(), 2);
        assert_eq!(handle2.persisted_epochs().unwrap(), vec![1, 2]);
        // Epoch 1's answer is unchanged by later epochs.
        assert_eq!(handle2.view_at(1).unwrap().heavy_hitters(), live_hh);
        let metrics = handle2.metrics();
        let store = metrics.store.expect("store metrics present");
        assert_eq!(store.last_epoch, 2);
        assert!(store.bytes_written > 0);
        recovered.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn graceful_shutdown_cuts_a_final_snapshot() {
        let dir = tmpdir("final-cut");
        let config = config().persistence(manual_persistence(&dir));
        let engine = Engine::spawn(config.clone());
        let handle = engine.handle();
        handle.ingest(&(0..3_000u64).collect::<Vec<_>>()).unwrap();
        let report = engine.shutdown().unwrap();
        assert_eq!(report.total_items(), 3_000);
        // No explicit snapshot was taken, but shutdown flushed one.
        let recovered = Engine::recover(&dir, config).unwrap();
        assert_eq!(recovered.handle().total_items(), 3_000);
        recovered.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn background_flusher_persists_on_interval() {
        let dir = tmpdir("flusher");
        let config =
            config().persistence(psfa_store::PersistenceConfig::new(&dir).interval_batches(2));
        let engine = Engine::spawn(config);
        let handle = engine.handle();
        for _ in 0..10 {
            handle.ingest(&(0..500u64).collect::<Vec<_>>()).unwrap();
        }
        engine.drain().unwrap();
        // Give the flusher a few polls to notice the interval.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let persisted = handle
                .metrics()
                .store
                .expect("store metrics")
                .epochs_persisted;
            if persisted > 0 || std::time::Instant::now() > deadline {
                assert!(persisted > 0, "flusher never cut an epoch");
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_rejects_mismatched_configs() {
        let dir = tmpdir("mismatch");
        let config = config().persistence(manual_persistence(&dir));
        let engine = Engine::spawn(config.clone());
        engine.handle().ingest(&[1, 2, 3]).unwrap();
        engine.handle().snapshot_now().unwrap();
        engine.kill();
        assert!(matches!(
            Engine::recover(&dir, EngineConfig::with_shards(8).heavy_hitters(0.05, 0.01)),
            Err(StoreError::ShardCountMismatch {
                persisted: 4,
                configured: 8
            })
        ));
        assert!(matches!(
            Engine::recover(&dir, config.clone().heavy_hitters(0.2, 0.1)),
            Err(StoreError::ConfigMismatch(_))
        ));
        assert!(matches!(
            Engine::recover(tmpdir("empty"), config),
            Err(StoreError::NoSnapshot)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_rejects_hash_routing_when_the_snapshot_split_keys() {
        // A snapshot whose hot set is non-empty must not recover onto a
        // hash router: placements would report Owner for split keys and
        // point queries would drop most of their mass.
        let dir = tmpdir("hot-hash");
        let config = config()
            .skew_aware_routing()
            .persistence(manual_persistence(&dir));
        let engine = Engine::spawn(config.clone());
        let handle = engine.handle();
        // Half the traffic on one key: guaranteed promotion.
        let batch: Vec<u64> = (0..4_000u64)
            .map(|i| if i % 2 == 0 { 42 } else { i })
            .collect();
        for _ in 0..10 {
            handle.ingest(&batch).unwrap();
        }
        engine.drain().unwrap();
        assert!(!handle.metrics().hot_keys.is_empty());
        handle.snapshot_now().unwrap();
        engine.kill();

        let hash_config = config.clone().routing(RoutingPolicy::Hash);
        assert!(matches!(
            Engine::recover(&dir, hash_config),
            Err(StoreError::ConfigMismatch(_))
        ));
        // The matching (skew-aware) config still recovers.
        let recovered = Engine::recover(&dir, config).unwrap();
        assert_eq!(recovered.handle().placement(42), Placement::Replicated);
        recovered.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_now_without_persistence_is_disabled() {
        let engine = Engine::spawn(config());
        let handle = engine.handle();
        assert!(matches!(handle.snapshot_now(), Err(StoreError::Disabled)));
        assert!(matches!(handle.view_at(1), Err(StoreError::Disabled)));
        assert!(matches!(
            handle.persisted_epochs(),
            Err(StoreError::Disabled)
        ));
        engine.shutdown().unwrap();
    }

    #[test]
    fn snapshot_after_shutdown_reports_closed() {
        let dir = tmpdir("closed");
        let engine = Engine::spawn(config().persistence(manual_persistence(&dir)));
        let handle = engine.handle();
        handle.ingest(&[1, 2, 3]).unwrap();
        engine.shutdown().unwrap();
        assert!(matches!(handle.snapshot_now(), Err(StoreError::Closed)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn observability_reports_latencies_and_traces() {
        let dir = tmpdir("obs");
        let engine = Engine::spawn(
            config()
                .sliding_window(8_000)
                .persistence(manual_persistence(&dir))
                .observe(),
        );
        let handle = engine.handle();
        let mut generator = ZipfGenerator::new(5_000, 1.2, 3);
        for _ in 0..8 {
            handle.ingest(&generator.next_minibatch(1_500)).unwrap();
        }
        engine.drain().unwrap();
        let _ = handle.estimate(1);
        let _ = handle.cm_estimate(1);
        let _ = handle.heavy_hitters();
        let _ = handle.sliding_estimate(1);
        let _ = handle.sliding_heavy_hitters();
        handle.snapshot_now().unwrap();

        let report = handle.metrics().obs.expect("obs report present");
        // Every ingest recorded an enqueue wait (one sample per delivered
        // per-shard sub-batch) and every drained batch a service time.
        let waits = report.percentiles("enqueue_wait").unwrap();
        assert!(waits.count >= 8);
        assert!(report.percentiles("batch_service").unwrap().count >= 8);
        // Workers published at least once per shard, tagged with a reason.
        assert!(report.percentiles("publish_staleness").unwrap().count >= 4);
        let republished: u64 = ["cadence", "boundary", "drain", "idle", "query_refresh"]
            .iter()
            .map(|r| report.counter(&format!("republish_{r}")).unwrap())
            .sum();
        assert!(republished >= 4);
        // Each exercised query kind has exactly one latency sample.
        for kind in [
            "query_estimate",
            "query_cm_estimate",
            "query_heavy_hitters",
            "query_sliding_estimate",
            "query_sliding_heavy_hitters",
        ] {
            assert_eq!(report.percentiles(kind).unwrap().count, 1, "{kind}");
        }
        // The snapshot cut and append were timed.
        assert!(report.percentiles("fence_exclusive_wait").unwrap().count >= 1);
        assert_eq!(report.percentiles("persist_append").unwrap().count, 1);
        assert!(report.counter("pool_hit").unwrap() + report.counter("pool_miss").unwrap() > 0);
        assert!(report.counter("work_units").unwrap() > 0);

        // The trace ring saw the lifecycle: worker starts, publishes, the
        // window boundary at 2000 items (slide 8000/8 = 1000), the persist.
        let events = handle.trace_events();
        let kinds: Vec<TraceKind> = events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&TraceKind::WorkerStart));
        assert!(kinds.contains(&TraceKind::EpochPublish));
        assert!(kinds.contains(&TraceKind::Boundary));
        assert!(kinds.contains(&TraceKind::EpochPersist));
        // Draining consumed them; a second drain starts empty.
        assert!(handle.trace_events().is_empty());

        let text = handle.prometheus_text().expect("exporter present");
        assert!(text.contains("enqueue_wait"));
        assert!(text.contains("quantile=\"0.99\""));
        // Drained: every shard's published snapshot is exactly current.
        assert!(text.contains("psfa_snapshot_lag_batches{shard=\"0\"} 0\n"));
        // Each shard's fold factor: sub-batches and the minibatches they
        // were applied as.
        let m = handle.metrics();
        for s in &m.shards {
            assert!(s.minibatches_processed <= s.batches_processed);
            assert!(text.contains(&format!(
                "psfa_batches_processed_total{{shard=\"{}\"}} {}\n",
                s.shard, s.batches_processed
            )));
            assert!(text.contains(&format!(
                "psfa_minibatches_processed_total{{shard=\"{}\"}} {}\n",
                s.shard, s.minibatches_processed
            )));
        }

        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn observability_off_by_default() {
        let engine = Engine::spawn(config());
        let handle = engine.handle();
        handle.ingest(&[1, 2, 3]).unwrap();
        engine.drain().unwrap();
        assert!(handle.metrics().obs.is_none());
        assert!(handle.trace_events().is_empty());
        assert!(handle.prometheus_text().is_none());
        engine.shutdown().unwrap();
    }

    /// The name predates the cadence rule: a lone batch is published by going idle or by the drain.
    #[test]
    fn membership_change_is_published_immediately() {
        let engine = Engine::spawn(
            EngineConfig::with_shards(1)
                .heavy_hitters(0.1, 0.01)
                .observe(),
        );
        let handle = engine.handle();
        handle.ingest(&[7, 7, 7]).unwrap();
        engine.drain().unwrap();
        assert_eq!(handle.estimate(7), 3);
        assert_eq!(handle.epochs(), vec![1]);
        let report = handle.metrics().obs.expect("obs report present");
        assert_eq!(report.counter("republish_cadence"), Some(0));
        let settled =
            report.counter("republish_idle").unwrap() + report.counter("republish_drain").unwrap();
        assert!(settled >= 1);
        engine.shutdown().unwrap();
    }
}
