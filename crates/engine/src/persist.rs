//! The engine side of epoch-snapshot persistence: the persister that turns
//! a consistent cut into a durable epoch, and the background flusher
//! thread.
//!
//! A snapshot keeps disk work entirely off the ingest hot path:
//!
//! 1. **Cut** (microseconds, producers excluded): the control plane's
//!    persist cut ([`ShardQueues::persist_cut`]) places a marker at the
//!    same stream position on every shard's queue — after every sub-batch
//!    of each minibatch accepted before the cut, before every sub-batch of
//!    each later one — and at that instant the persister reads the
//!    router's hot set and the window clock.
//! 2. **Collect + write** (producers running): each worker replies with a
//!    clone of its operator state when it reaches the marker; the
//!    persister encodes the clones, appends one [`EpochRecord`] to the
//!    segment log, and compacts.
//!
//! The flusher thread polls the accepted-batch counter and cuts a new
//! epoch every `interval_batches` minibatches; a graceful shutdown performs
//! one final cut so no accepted data is lost, while [`crate::Engine::kill`]
//! skips it (simulating a crash: the disk keeps only what was flushed).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use psfa_obs::{TraceKind, NO_SHARD};
use psfa_store::{EpochRecord, PersistenceConfig, SnapshotStore, StoreError, WindowState};
use psfa_stream::Router;

use crate::config::EngineConfig;
use crate::control::ShardQueues;
use crate::metrics::StoreMetrics;
use crate::obs::EngineObs;

/// Shared snapshot machinery: cuts epochs, appends them to the store, and
/// keeps the store metrics. Shared by the flusher thread and every
/// [`crate::EngineHandle`] (for `snapshot_now` and historical queries).
pub(crate) struct Persister {
    /// Serialises whole snapshots (cut → collect → append) against each
    /// other, so cut order equals epoch order. Distinct from the store
    /// lock: historical queries only need `store`, and must not stall
    /// behind a cut that is still waiting for shard queues to drain.
    cut_lock: Mutex<()>,
    store: Mutex<SnapshotStore>,
    /// Where the persist cut is taken (see [`ShardQueues::persist_cut`]).
    queues: Arc<ShardQueues>,
    router: Arc<Router>,
    /// The engine's configuration: the φ/ε and window shape each record
    /// carries, and the fault plan (scheduled store write errors surface
    /// through [`Persister::snapshot_once`] as `StoreError::Io`).
    config: Arc<EngineConfig>,
    /// The store counters, updated once per epoch or failed flush.
    metrics: Mutex<StoreMetrics>,
    /// Observability recorders, when enabled: append (encode + fsync)
    /// durations, persist/flush trace events.
    obs: Option<Arc<EngineObs>>,
}

impl Persister {
    pub(crate) fn new(
        store: SnapshotStore,
        config: &Arc<EngineConfig>,
        queues: &Arc<ShardQueues>,
        router: &Arc<Router>,
        obs: &Option<Arc<EngineObs>>,
    ) -> Self {
        let metrics = StoreMetrics {
            last_epoch: store.latest_epoch().unwrap_or(0),
            segments: store.segments() as u64,
            ..StoreMetrics::default()
        };
        Self {
            cut_lock: Mutex::new(()),
            store: Mutex::new(store),
            queues: queues.clone(),
            router: router.clone(),
            config: config.clone(),
            metrics: Mutex::new(metrics),
            obs: obs.clone(),
        }
    }

    /// Cuts one consistent epoch across all shards, appends it durably, and
    /// compacts. Returns the persisted epoch number. Fails with
    /// [`StoreError::Closed`] once the shard workers have exited.
    pub(crate) fn snapshot_once(&self) -> Result<u64, StoreError> {
        // Held across cut + collect + append, so a later cut's (superset)
        // state is never appended under an earlier epoch number. Poison
        // recovery is safe: the lock guards no data, and a cut that
        // panicked left at most an unanswered reply channel behind.
        let _cut = self
            .cut_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);

        // The hot set and the window clock are read at the cut: a promotion
        // or a boundary racing the collection must not leak into the
        // record's "state at the cut".
        let (shards, (hot_keys, window)) = self
            .queues
            .persist_cut(|clock| {
                let window = clock.map(|clock| WindowState {
                    size: self.config.window.expect("a window clock has a window"),
                    panes: self.config.window_panes as u32,
                    ticket: clock.ticket,
                    boundaries: clock.boundaries,
                });
                (self.router.hot_keys(), window)
            })
            .map_err(|_| StoreError::Closed)?;

        // Poison recovery is safe: the log format is checksummed and
        // validated on every read, and a failed append leaves the store
        // at a record boundary — a panic under this lock cannot corrupt
        // what later cuts or historical queries observe.
        let mut store = self
            .store
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let record = EpochRecord {
            epoch: store.next_epoch(),
            phi: self.config.phi,
            epsilon: self.config.epsilon,
            window,
            hot_keys,
            shards,
        };
        let append_start = self.obs.as_ref().map(|obs| obs.now_ns());
        // Fault injection (tests only): a scheduled write error surfaces
        // exactly like a failing volume — typed, counted by the caller,
        // and never wedging the fence (it was released after the cut).
        if let Some(fault) = &self.config.fault {
            if let Some(err) = fault.store_write_error() {
                return Err(StoreError::Io(err));
            }
        }
        let bytes = store.append(&record)?;
        store.compact()?;
        let segments = store.segments() as u64;
        drop(store);
        if let Some(obs) = &self.obs {
            let now = obs.now_ns();
            obs.persist_append
                .record(now.saturating_sub(append_start.unwrap_or(0)));
            obs.trace
                .push(now, TraceKind::EpochPersist, NO_SHARD, record.epoch, bytes);
        }

        let mut metrics = self.lock_metrics();
        metrics.epochs_persisted += 1;
        metrics.bytes_written += bytes;
        (metrics.last_epoch, metrics.segments) = (record.epoch, segments);
        Ok(record.epoch)
    }

    /// Counts one failed flush and emits a [`TraceKind::FlushFailed`]
    /// event, so injected (or real) write errors are observable without
    /// ever wedging the fence — the flusher skips the interval and
    /// retries on the next one.
    pub(crate) fn note_flush_failure(&self) {
        let failures = {
            let mut metrics = self.lock_metrics();
            metrics.flush_failures += 1;
            metrics.flush_failures
        };
        if let Some(obs) = &self.obs {
            obs.trace
                .push(obs.now_ns(), TraceKind::FlushFailed, NO_SHARD, failures, 0);
        }
    }

    /// Runs `f` with the store locked (historical queries). Poison
    /// recovery is safe for the same reason as in `snapshot_once`: the
    /// log is validated on read, so a panicking holder cannot corrupt
    /// what `f` observes.
    pub(crate) fn with_store<R>(&self, f: impl FnOnce(&SnapshotStore) -> R) -> R {
        f(&self
            .store
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Point-in-time store metrics.
    pub(crate) fn metrics(&self) -> StoreMetrics {
        *self.lock_metrics()
    }

    /// Poison recovery is safe: the counters are plain numbers, each
    /// update one assignment.
    fn lock_metrics(&self) -> std::sync::MutexGuard<'_, StoreMetrics> {
        self.metrics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// How often the flusher wakes to check the accepted-batch counter.
/// Flushing is off the ingest hot path either way; this only bounds the
/// delay between crossing the interval and the snapshot being cut.
const FLUSHER_POLL: Duration = Duration::from_millis(2);

/// Handle to the background flusher thread.
pub(crate) struct Flusher {
    /// Carries the stop request: `true` asks for one final snapshot.
    stop: Sender<bool>,
    thread: JoinHandle<()>,
}

impl Flusher {
    /// Spawns the flusher: wakes every [`FLUSHER_POLL`], cuts an epoch once
    /// `config.interval_batches` minibatches have been accepted (the shared
    /// `accepted` counter, bumped once per accepted minibatch) since the
    /// last cut, and — when asked to on stop — cuts a final epoch on the
    /// way out.
    pub(crate) fn spawn(
        persister: Arc<Persister>,
        accepted: Arc<AtomicU64>,
        config: &PersistenceConfig,
    ) -> Self {
        let interval_batches = config.interval_batches;
        let (stop, stopped) = channel();
        let thread = std::thread::Builder::new()
            .name("psfa-flusher".to_string())
            .spawn(move || {
                // Two watermarks: `last_attempt` gates the interval (it
                // advances even on failure, so a broken volume is retried
                // once per interval, not once per poll), while
                // `last_success` tracks what is actually durable — the
                // final cut at shutdown keys off the latter, so a failed
                // interval flush can never trick shutdown into skipping it.
                let mut last_attempt = 0u64;
                let mut last_success = 0u64;
                loop {
                    match stopped.recv_timeout(FLUSHER_POLL) {
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => return,
                        Ok(final_snapshot) => {
                            // Graceful shutdown: one final cut captures
                            // every accepted minibatch (workers are still
                            // draining). A failure here must not pass
                            // silently — it means the tail of the stream is
                            // not durable; it is counted and visible in the
                            // store metrics.
                            if final_snapshot
                                && accepted.load(Ordering::Acquire) != last_success
                                && persister.snapshot_once().is_err()
                            {
                                persister.note_flush_failure();
                            }
                            return;
                        }
                    }
                    let batches = accepted.load(Ordering::Acquire);
                    if batches.saturating_sub(last_attempt) < interval_batches {
                        continue;
                    }
                    match persister.snapshot_once() {
                        Ok(_) => {
                            last_attempt = batches;
                            last_success = batches;
                        }
                        Err(StoreError::Closed) => return,
                        Err(_) => {
                            // Disk trouble: count it, skip this interval
                            // instead of hot-looping on a broken volume.
                            persister.note_flush_failure();
                            last_attempt = batches;
                        }
                    }
                }
            })
            .expect("failed to spawn flusher thread");
        Self { stop, thread }
    }

    /// Stops the flusher, after one final snapshot when `final_snapshot`
    /// (graceful shutdown); without it the disk keeps only what was
    /// already flushed (crash simulation, abandoned engine).
    pub(crate) fn stop(self, final_snapshot: bool) {
        let _ = self.stop.send(final_snapshot);
        let _ = self.thread.join();
    }
}
