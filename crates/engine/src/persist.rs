//! The engine side of epoch-snapshot persistence: consistent cuts and the
//! background flusher thread.
//!
//! A snapshot is cut in two phases, keeping disk work entirely off the
//! ingest hot path:
//!
//! 1. **Cut** (microseconds, under the [`IngestFence`]'s exclusive side):
//!    enqueue a [`ShardCommand::Persist`] marker onto every shard's FIFO
//!    queue. Because producers hold the fence's shared side across *all* of
//!    a minibatch's per-shard enqueues, the marker lands at the same stream
//!    position on every shard — after every sub-batch of each minibatch
//!    accepted before the cut, before every sub-batch of each later one.
//! 2. **Collect + write** (fence released, producers running): each worker
//!    replies with a clone of its operator state when it reaches the
//!    marker; the flusher thread encodes the clones, appends one
//!    [`EpochRecord`] to the segment log, and compacts.
//!
//! The flusher thread polls the accepted-batch counters and cuts a new
//! epoch every `interval_batches` minibatches; a graceful shutdown performs
//! one final cut so no accepted data is lost, while [`crate::Engine::kill`]
//! skips it (simulating a crash: the disk keeps only what was flushed).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use psfa_obs::{TraceKind, NO_SHARD};
use psfa_store::{EpochRecord, ShardState, SnapshotStore, StoreError, WindowState};
use psfa_stream::{IngestFence, Router, WindowFence};

use crate::config::EngineConfig;
use crate::metrics::StoreMetrics;
use crate::obs::EngineObs;
use crate::shard::ShardCommand;

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
    fence: Arc<IngestFence>,
    senders: Arc<Vec<SyncSender<ShardCommand>>>,
    router: Arc<Router>,
    /// The engine's configuration: the φ/ε and window shape each record
    /// carries, and the fault plan (scheduled store write errors surface
    /// through [`Persister::snapshot_once`] as `StoreError::Io`).
    config: Arc<EngineConfig>,
    /// The window fence (when a window is configured), whose clock is read
    /// from inside the snapshot's exclusive cut, so the persisted
    /// [`WindowState`] is exactly consistent with the per-shard pane rings
    /// collected at the same cut.
    window_fence: Option<Arc<WindowFence>>,
    epochs_persisted: AtomicU64,
    bytes_written: AtomicU64,
    last_epoch: AtomicU64,
    segments: AtomicU64,
    flush_failures: AtomicU64,
    /// Observability recorders, when enabled: cut (fence-exclusive) and
    /// append (encode + fsync) durations, persist/flush trace events.
    obs: Option<Arc<EngineObs>>,
}

impl Persister {
    pub(crate) fn new(
        store: SnapshotStore,
        config: Arc<EngineConfig>,
        fence: Arc<IngestFence>,
        senders: Arc<Vec<SyncSender<ShardCommand>>>,
        router: Arc<Router>,
        window_fence: Option<Arc<WindowFence>>,
        obs: Option<Arc<EngineObs>>,
    ) -> Self {
        let last_epoch = store.latest_epoch().unwrap_or(0);
        let segments = store.segments() as u64;
        Self {
            cut_lock: Mutex::new(()),
            store: Mutex::new(store),
            fence,
            senders,
            router,
            config,
            window_fence,
            epochs_persisted: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            last_epoch: AtomicU64::new(last_epoch),
            segments: AtomicU64::new(segments),
            flush_failures: AtomicU64::new(0),
            obs,
        }
    }

    /// Cuts one consistent epoch across all shards, appends it durably, and
    /// compacts. Returns the persisted epoch number. Fails with
    /// [`StoreError::Closed`] once the shard workers have exited.
    pub(crate) fn snapshot_once(&self) -> Result<u64, StoreError> {
        // The cut lock is held across cut + collect + append so concurrent
        // snapshots (flusher vs `snapshot_now`) serialise as a whole: cut
        // order equals epoch order, and a later cut's (superset) state can
        // never be appended under an earlier epoch number. The *store*
        // lock is taken only around the append below, so historical
        // queries never stall behind a cut waiting on shard queues.
        // Poison recovery is safe: the cut lock guards no data (`()`),
        // only mutual exclusion, and a cut that panicked mid-flight left
        // at most an unanswered Persist reply channel behind — the next
        // cut allocates fresh channels.
        let _cut = self
            .cut_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);

        // Phase 1 — the cut: enqueue a Persist marker on every shard while
        // holding the fence exclusively (see the module docs for why this
        // makes the cut consistent), and capture the hot-key set and the
        // window fence's clock at the same instant — a promotion or a
        // window boundary racing phase 2 must not leak into the record's
        // "state at the cut". Send errors mean the workers exited.
        let cut_start = self.obs.as_ref().map(|obs| obs.now_ns());
        let (receivers, hot_keys, window) = self
            .fence
            .cut_with(|_cut| {
                let receivers = self
                    .senders
                    .iter()
                    .map(|sender| {
                        let (tx, rx) = sync_channel(1);
                        sender
                            .send(ShardCommand::Persist { reply: tx })
                            .map(|_| rx)
                            .map_err(|_| ())
                    })
                    .collect::<Result<Vec<_>, ()>>()?;
                let hot_keys = self.router.hot_keys();
                // Boundary markers are themselves enqueued under exclusive
                // cuts, so from inside this cut every shard's FIFO holds
                // exactly `boundaries` markers before our Persist marker:
                // the collected pane rings will be sealed at precisely
                // this boundary.
                let window = self.window_fence.as_ref().map(|fence| {
                    let clock = fence.state();
                    WindowState {
                        size: self.config.window.expect("a window fence has a window"),
                        panes: self.config.window_panes as u32,
                        ticket: clock.ticket,
                        boundaries: clock.boundaries,
                    }
                });
                Ok::<_, ()>((receivers, hot_keys, window))
            })
            .map_err(|_: ()| StoreError::Closed)?;
        if let Some(obs) = &self.obs {
            // The exclusive-fence window is the only moment producers are
            // excluded; its duration is the persistence stall budget.
            obs.fence_exclusive_wait
                .record(obs.now_ns().saturating_sub(cut_start.unwrap_or(0)));
        }

        // Phase 2 — collect and write, with ingestion running again.
        let mut shards: Vec<ShardState> = Vec::with_capacity(receivers.len());
        for rx in receivers {
            shards.push(rx.recv().map_err(|_| StoreError::Closed)?);
        }

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
        // and never wedging the fence (it was released after phase 1).
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

        self.epochs_persisted.fetch_add(1, Ordering::AcqRel);
        self.bytes_written.fetch_add(bytes, Ordering::AcqRel);
        self.last_epoch.store(record.epoch, Ordering::Release);
        self.segments.store(segments, Ordering::Release);
        Ok(record.epoch)
    }

    /// Counts one failed flush and emits a [`TraceKind::FlushFailed`]
    /// event, so injected (or real) write errors are observable without
    /// ever wedging the fence — the flusher skips the interval and
    /// retries on the next one.
    pub(crate) fn note_flush_failure(&self) {
        let failures = self.flush_failures.fetch_add(1, Ordering::AcqRel) + 1;
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
        StoreMetrics {
            epochs_persisted: self.epochs_persisted.load(Ordering::Acquire),
            bytes_written: self.bytes_written.load(Ordering::Acquire),
            last_epoch: self.last_epoch.load(Ordering::Acquire),
            segments: self.segments.load(Ordering::Acquire),
            flush_failures: self.flush_failures.load(Ordering::Acquire),
        }
    }
}

/// Handle to the background flusher thread.
pub(crate) struct Flusher {
    stop: Arc<AtomicBool>,
    wants_final: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl Flusher {
    /// Spawns the flusher: wakes every `poll`, cuts an epoch once
    /// `interval_batches` minibatches have been accepted (the shared
    /// `accepted` counter, bumped once per accepted minibatch) since the
    /// last cut, and — unless aborted — cuts a final epoch on the way out.
    pub(crate) fn spawn(
        persister: Arc<Persister>,
        accepted: Arc<AtomicU64>,
        interval_batches: u64,
        poll: Duration,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let wants_final = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let final_flag = wants_final.clone();
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
                    if stop_flag.load(Ordering::Acquire) {
                        // Graceful shutdown: one final cut captures every
                        // accepted minibatch (workers are still draining).
                        // A failure here must not pass silently — it means
                        // the tail of the stream is not durable; it is
                        // counted and visible in the store metrics.
                        if final_flag.load(Ordering::Acquire)
                            && accepted.load(Ordering::Acquire) != last_success
                            && persister.snapshot_once().is_err()
                        {
                            persister.note_flush_failure();
                        }
                        return;
                    }
                    std::thread::sleep(poll);
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
        Self {
            stop,
            wants_final,
            thread,
        }
    }

    /// Stops the flusher after one final snapshot (graceful shutdown).
    pub(crate) fn finish(self) {
        self.wants_final.store(true, Ordering::Release);
        self.stop.store(true, Ordering::Release);
        let _ = self.thread.join();
    }

    /// Stops the flusher *without* a final snapshot (crash simulation /
    /// abandoned engine): the disk keeps only what was already flushed.
    pub(crate) fn abort(self) {
        self.stop.store(true, Ordering::Release);
        let _ = self.thread.join();
    }
}
