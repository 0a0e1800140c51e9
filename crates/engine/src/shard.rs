//! Shard workers: the ingestion side of the engine.
//!
//! Each shard owns its operator set outright — there is no locking on the
//! heavy-hitter or sliding-window update path, and since PR 5 none on the
//! rest of the per-batch path either. The hot path is **lock-free but for
//! one buffer give-back per minibatch and, at steady state,
//! allocation-free**:
//!
//! * **a minibatch is as deep as the queue**: the worker takes one routed
//!   sub-batch and folds behind it every sub-batch already waiting on its
//!   channel — never waiting for more — so the paper's `O(ε⁻¹ + µ)` per
//!   minibatch (Lemma 5.3) pays the `O(S)` cut once per group, and a
//!   skewed group has fewer distinct keys per item than its parts. Folding
//!   stops at an empty queue, at any other command (a cut always ends a
//!   minibatch, so panes stay exact), at the next cadence point, when a
//!   reader is waiting, and at a batch with a fault-plan panic due; it only
//!   happens while the input compresses — the last histogram had at most
//!   half as many rows as items — so all-distinct traffic runs one
//!   sub-batch per minibatch exactly as before;
//! * the per-minibatch histogram is one probe-and-add pass over the items
//!   of every folded sub-batch through a reused index table
//!   ([`psfa_primitives::build_hist_runs`]: one key mix, one probe, one
//!   add per item) and is shared by the heavy-hitter tracker, the open
//!   window pane, and the Count-Min sketch — zero allocations;
//! * the Count-Min sketch is a [`psfa_sketch::AtomicCountMin`]: the worker
//!   — its only writer — adds a histogram through one kernel compiled for
//!   the sketch's depth (per distinct key, `d` independent two-multiply
//!   row hashes, then `d` relaxed load + store pairs) and point queries
//!   read concurrently with no mutex (the one-sided overestimate survives
//!   relaxed ordering — see that module's docs for the single-writer
//!   contract);
//! * finished sub-batch buffers go back to the engine's
//!   [`psfa_stream::BufferPool`] return lane under one lock per minibatch,
//!   so producers reuse their capacity instead of allocating per batch;
//! * query snapshots are published through an
//!   [`psfa_primitives::ArcCell`] — a pointer swap, not an `RwLock` write —
//!   and **lazily**: see below.
//!
//! **Answers depend on the grouping.** Every summary sees exactly the
//! items it saw before folding; only where minibatch boundaries fall
//! changes, and that depends on queue timing. Lemma 5.3 and Theorem 5.2
//! hold for any partition of the stream into minibatches, so every answer
//! stays inside its `ε·m` (or `ε·n_W`) bound — but two runs over the same
//! stream are not bit-identical, and tests compare against the bounds.
//!
//! ## Lazy epoch-versioned snapshot publication
//!
//! A [`ShardSnapshot`] freezes the `O(1/ε)` query surface; publishing one
//! is `O(S log S)` for `S = O(1/ε)` entries (collect, sort, allocate), on
//! top of the paper's `O(S + p)` per minibatch. So publication stays **off
//! the batch path** and happens:
//!
//! * **on demand**: `live_epoch` (batches the worker has finished) runs
//!   ahead of the published snapshot's `epoch`; a reader that sees the gap
//!   sets `refresh`, which stops any fold, and the worker publishes at the
//!   end of its current minibatch;
//! * **on cadence**: once [`PUBLISH_EVERY`] batches have been applied
//!   since the last publication, whatever the stream looks like — a fold
//!   never runs past that point;
//! * **when the queue runs dry**, before the worker blocks on it;
//! * **at every cut**: a window boundary publishes the window it sealed, a
//!   drain barrier (or worker exit) publishes before acknowledging.
//!
//! The staleness contract counts routed sub-batches ("batches") of this
//! shard, whatever the grouping: a published snapshot trails its worker by
//! **at most `PUBLISH_EVERY` batches**, by **at most one minibatch** (the
//! one being applied when it asked) for a reader that has read since the
//! last publication, and by **nothing** when the queue is dry or after
//! `drain()` ([`crate::ShardMetrics::snapshot_lag`] reports the gap in
//! batches). Every snapshot is internally consistent at its epoch: a reader
//! sees the summaries as of an earlier minibatch boundary, as the minibatch
//! model already promises between batches.
//!
//! ## Memory-ordering contract
//!
//! One edge carries all cross-thread visibility: the snapshot publication.
//! [`psfa_primitives::ArcCell::set`] stores the new pointer with `Release`,
//! and readers swap it out with `Acquire` — so everything the worker wrote
//! before publishing (relaxed Count-Min stores, relaxed stat increments, the
//! snapshot contents) is visible to any reader that observed that
//! snapshot. In particular `cm_estimate(x) ≥ snapshot.estimate(x)` holds
//! for any reader: the sketch it queries already contains every batch at
//! or before the snapshot's epoch. Everything else is deliberately weak:
//!
//! * [`crate::metrics::ShardStats`] counters (`items_processed`,
//!   `batches_processed`, `batches_dequeued`, `minibatches_processed`,
//!   enqueue counters) are **relaxed** `fetch_add`s —
//!   they are monotone progress hints read with `Acquire` by metrics, and
//!   need no stronger ordering of their own (the previous `AcqRel` bought
//!   nothing: an RMW's ordering cannot make *other* data visible earlier,
//!   and the publication `Release` already fences everything a reader can
//!   act on);
//! * `refresh` is an `AcqRel` swap and advisory — a missed request is
//!   re-raised by the next stale read, a premature one costs one extra
//!   publication. `live_epoch` is a `Release` store that queries read
//!   relaxed (advisory too); [`ShardShared::snapshot_lag`] reads it with
//!   `Acquire` *before* the snapshot, so the lag it reports never
//!   overstates the contract above;
//! * `window_seq` keeps its `Release` store after the sealed window is
//!   published, so a reader that sees the new boundary number also finds
//!   the sealed window in the snapshot.
//!
//! ## One FIFO per shard
//!
//! Everything a worker does arrives as a [`ShardCommand`] on its bounded
//! channel, minibatches included — there is no other way in. The channel's
//! total order is therefore the shard's stream order, and a cut (window
//! boundary, drain barrier, persistence snapshot) needs no mechanism of
//! its own: the cutter enqueues one command per shard while holding the
//! ingest fence exclusively, and by the time a worker dequeues it, it has
//! processed exactly the minibatches accepted before the cut. A cut met
//! while folding waits in a one-slot lookahead that the supervisor owns
//! (so it survives a worker panic) and is served right after the folded
//! minibatch, before anything still on the channel.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError};
use std::sync::Arc;

use psfa_freq::{InfiniteHeavyHitters, PaneWindow, SealedWindow};
use psfa_obs::TraceKind;
use psfa_primitives::{
    build_hist_runs, ArcCell, FaultPlan, HistScratch, HistogramEntry, WorkMeter,
};
use psfa_sketch::AtomicCountMin;
use psfa_store::ShardState;
use psfa_stream::BufferPool;

use crate::config::EngineConfig;
use crate::metrics::ShardStats;
use crate::obs::{EngineObs, PublishReason};

/// Publication cadence: a worker publishes once `PUBLISH_EVERY` batches
/// have been applied since the last publication even when no reader asked
/// — the bound on snapshot lag and on restart loss, at `O(S log S) / 16`
/// per batch. A folded minibatch never takes the worker past the next
/// cadence point, so the bound counts routed sub-batches whatever the
/// grouping.
pub(crate) const PUBLISH_EVERY: u64 = 16;

/// Sealed windows kept per shard snapshot: enough boundary history for a
/// query to find one boundary that *every* shard has already sealed even
/// while shards lag each other by a few queued markers.
const WINDOW_HISTORY: usize = 8;

/// Commands accepted by a shard worker, in queue order (see "One FIFO per
/// shard" in the module docs).
pub(crate) enum ShardCommand {
    /// One routed minibatch to ingest. The worker returns the buffer to the
    /// engine's [`BufferPool`] when done, so its capacity recirculates to
    /// the producers.
    Batch(Vec<u64>),
    /// Drain checkpoint: acknowledge once every earlier command is done.
    Barrier {
        /// Acknowledged once the checkpoint is reached.
        ack: SyncSender<()>,
    },
    /// Window boundary `seq`: seal the open pane. The `WindowFence`
    /// enqueues this on every shard from inside an exclusive cut, so the
    /// marker sits at the same stream position on every shard's FIFO and
    /// the items between two markers (one pane) partition the global stream
    /// identically from every shard's point of view.
    Boundary {
        /// Boundary sequence number being sealed.
        seq: u64,
    },
    /// Snapshot cut: reply with a clone of the full operator state. The
    /// persister enqueues this on every shard while holding the ingest
    /// fence exclusively, so the FIFO position — and therefore the state
    /// handed back — reflects exactly the minibatches accepted before the
    /// cut, on every shard.
    Persist {
        /// Receives the operator state as of the cut.
        reply: SyncSender<ShardState>,
    },
    /// Finish queued work, then exit and hand back the operator state.
    Shutdown,
}

/// Immutable view of one shard's summaries at one epoch.
///
/// Snapshots freeze the *query surfaces* (Misra–Gries entries, stream
/// length, the sealed windows of recent boundaries) — `O(1/ε)` data — not
/// the raw operator state. `epoch` equals the number of routed sub-batches
/// ("batches") the shard had processed when the snapshot was published,
/// however they were folded into minibatches; it is strictly increasing,
/// so callers can detect progress between reads. Publication is lazy (see
/// the module docs), so the newest snapshot may trail the worker by a
/// bounded number of batches (at most 16; at most one minibatch once a
/// read has observed the gap and requested a refresh; none after a drain).
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// Owning shard index.
    pub shard: usize,
    /// Batches processed when this snapshot was taken.
    pub epoch: u64,
    /// Items processed by this shard (its `m_s`).
    pub stream_len: u64,
    /// Misra–Gries `(item, estimate)` entries of the infinite-window
    /// estimator, **ascending by item** (point lookups binary-search;
    /// cross-shard merges are sorted merges); estimates are one-sided:
    /// `f − ε·m_s ≤ f̂ ≤ f`.
    pub hh_entries: Vec<(u64, u64)>,
    /// This shard's sealed views of the global sliding window at the most
    /// recent boundaries it has processed, oldest first (empty when the
    /// engine runs without a window or before the first boundary). Shared
    /// `Arc`s: sealed windows are immutable and only change at boundaries,
    /// so re-publishing a snapshot per batch costs pointer bumps.
    pub windows: Vec<Arc<SealedWindow>>,
}

impl ShardSnapshot {
    pub(crate) fn empty(shard: usize) -> Self {
        Self {
            shard,
            epoch: 0,
            stream_len: 0,
            hh_entries: Vec::new(),
            windows: Vec::new(),
        }
    }

    /// The Misra–Gries estimate for `item` (`0` when untracked); a binary
    /// search over the item-sorted entries.
    pub fn estimate(&self, item: u64) -> u64 {
        self.hh_entries
            .binary_search_by_key(&item, |&(i, _)| i)
            .map_or(0, |at| self.hh_entries[at].1)
    }

    /// The newest window boundary this shard has sealed (`0` before the
    /// first).
    pub fn latest_window_seq(&self) -> u64 {
        self.windows.last().map_or(0, |w| w.seq)
    }

    /// This shard's sealed window at boundary `seq`, if still retained.
    pub fn window_at(&self, seq: u64) -> Option<&Arc<SealedWindow>> {
        self.windows.iter().find(|w| w.seq == seq)
    }
}

/// State of one shard shared between producers, the worker, and queries.
pub(crate) struct ShardShared {
    pub stats: ShardStats,
    /// Latest published snapshot (lock-free pointer swap; see module docs).
    pub snapshot: ArcCell<ShardSnapshot>,
    /// The shard's live Count-Min sketch: the worker adds, queries read —
    /// concurrently, without a lock.
    pub count_min: AtomicCountMin,
    /// Batches the worker has fully processed (may run ahead of the
    /// published snapshot's `epoch`; the gap is what triggers `refresh`).
    /// Starts at the recovered epoch after a crash recovery, unlike the
    /// per-process stats counters.
    pub(crate) live_epoch: AtomicU64,
    /// Set by a reader that observed a stale snapshot; cleared by the
    /// worker when it republishes on the next batch.
    pub(crate) refresh: AtomicBool,
    /// Abstract summary-update work charged by this shard's tracker (the
    /// work-optimality accounting of E8, live on a running engine). The
    /// worker holds a clone of the same counter.
    pub work: WorkMeter,
}

impl ShardShared {
    /// Shared state for one shard. When `recovered` is given (crash
    /// recovery), the Count-Min sketch is rehydrated from the persisted
    /// epoch and the *initial published snapshot* already reflects the
    /// recovered summaries — queries against a freshly recovered engine see
    /// the persisted state immediately, with no race against the worker's
    /// first batch.
    pub(crate) fn new(shard: usize, config: &EngineConfig, recovered: Option<&ShardState>) -> Self {
        let (snapshot, count_min) = match recovered {
            None => (
                ShardSnapshot::empty(shard),
                AtomicCountMin::new(config.cm_epsilon, config.cm_delta, config.cm_seed),
            ),
            Some(state) => (
                ShardSnapshot {
                    shard,
                    epoch: state.epoch,
                    stream_len: state.items,
                    hh_entries: state.heavy_hitters.estimator().tracked_items_sorted(),
                    windows: state
                        .window
                        .as_ref()
                        .and_then(|w| w.sealed_window())
                        .map(Arc::new)
                        .into_iter()
                        .collect(),
                },
                state.count_min.clone(),
            ),
        };
        let stats = ShardStats::default();
        stats
            .window_seq
            .store(snapshot.latest_window_seq(), Ordering::Release);
        let live_epoch = AtomicU64::new(snapshot.epoch);
        Self {
            stats,
            snapshot: ArcCell::new(Arc::new(snapshot)),
            count_min,
            live_epoch,
            refresh: AtomicBool::new(false),
            work: WorkMeter::new(),
        }
    }

    /// The latest published snapshot. If the worker has processed batches
    /// beyond it, raises the refresh flag so the worker republishes on its
    /// next batch — the *next* read then sees a current snapshot even under
    /// sustained load (an idle worker republishes on its own before
    /// blocking, so staleness can only be observed while batches are in
    /// flight).
    pub(crate) fn load_snapshot(&self) -> Arc<ShardSnapshot> {
        let snapshot = self.snapshot.get();
        if snapshot.epoch < self.live_epoch.load(Ordering::Relaxed) {
            self.refresh.store(true, Ordering::Release);
        }
        snapshot
    }

    /// Batches processed beyond the published snapshot. Raises no refresh:
    /// watching the lag must not change it.
    pub(crate) fn snapshot_lag(&self) -> u64 {
        // `Acquire` epoch first, snapshot second: see the module docs.
        let live = self.live_epoch.load(Ordering::Acquire);
        live.saturating_sub(self.snapshot.get().epoch)
    }
}

/// The worker loop: owned operators plus the shared query surface.
pub(crate) struct ShardWorker {
    shard: usize,
    epoch: u64,
    items: u64,
    heavy_hitters: InfiniteHeavyHitters,
    /// Pane state of the global sliding window, when configured.
    window: Option<PaneWindow>,
    /// Sealed views of the last few boundaries, oldest first (see
    /// [`WINDOW_HISTORY`]).
    window_history: VecDeque<Arc<SealedWindow>>,
    /// Seed for the per-minibatch histogram shared between the
    /// heavy-hitter tracker, the open window pane, and the Count-Min
    /// sketch.
    hist_seed: u64,
    /// Reusable histogram scratch + output: the per-minibatch histogram
    /// pass allocates nothing after warm-up.
    hist_scratch: HistScratch,
    hist: Vec<HistogramEntry>,
    /// The sub-batches folded into the minibatch being applied (empty
    /// between minibatches; the outer `Vec` keeps its capacity).
    group: Vec<Vec<u64>>,
    /// Whether the last histogram had at most half as many rows as items —
    /// the input compresses, so folding queued sub-batches pays. `false`
    /// until the worker has built one.
    compresses: bool,
    /// Buffer recycling back to the producers (see [`BufferPool`]).
    pool: Arc<BufferPool>,
    shared: Arc<ShardShared>,
    /// Observability recorders, when enabled (see the `obs` module).
    obs: Option<Arc<EngineObs>>,
    /// Fault-injection plan, when enabled (see `psfa_primitives::fault`).
    /// One `Option` branch per batch when unset.
    fault: Option<Arc<FaultPlan>>,
    /// Clock reading at the last snapshot publication (staleness base;
    /// `0` until the worker starts with observability enabled).
    last_publish_ns: u64,
    /// Epoch of the last snapshot publication (cadence and epoch-gap base).
    last_publish_epoch: u64,
}

impl ShardWorker {
    /// Builds a worker, either fresh from the config or resuming from a
    /// recovered [`ShardState`] (whose Count-Min sketch lives in
    /// [`ShardShared`], not here).
    pub(crate) fn new(
        shard: usize,
        config: &EngineConfig,
        shared: Arc<ShardShared>,
        pool: Arc<BufferPool>,
        recovered: Option<&ShardState>,
        obs: Option<Arc<EngineObs>>,
    ) -> Self {
        let (epoch, items, heavy_hitters, window) = match recovered {
            None => (
                0,
                0,
                InfiniteHeavyHitters::new(config.phi, config.epsilon),
                config
                    .window
                    .map(|_| PaneWindow::new(config.epsilon, config.window_panes)),
            ),
            Some(state) => (
                state.epoch,
                state.items,
                state.heavy_hitters.clone(),
                state.window.clone(),
            ),
        };
        // The tracker charges its summary-update work to the shard's shared
        // meter (decode drops meters, so recovered trackers re-attach here).
        let heavy_hitters = heavy_hitters.with_meter(shared.work.clone());
        let window_history = window
            .as_ref()
            .and_then(|w| w.sealed_window())
            .map(Arc::new)
            .into_iter()
            .collect();
        Self {
            shard,
            epoch,
            items,
            heavy_hitters,
            window,
            window_history,
            hist_seed: 0x5eed_0000 ^ shard as u64,
            hist_scratch: HistScratch::new(),
            hist: Vec::new(),
            group: Vec::new(),
            compresses: false,
            pool,
            shared,
            obs,
            fault: config.fault.clone(),
            last_publish_ns: 0,
            last_publish_epoch: epoch,
        }
    }

    /// Rebuilds a worker from the shard's last *published* snapshot — the
    /// supervisor's reseed path after a worker panic. What survives and
    /// what is lost is precise:
    ///
    /// * **Survives**: everything up to the snapshot's epoch — the MG
    ///   entries (rebuilt one-sided via
    ///   [`InfiniteHeavyHitters::from_entries`]), the sealed window
    ///   history, and the shard's Count-Min sketch (it lives in
    ///   [`ShardShared`] and was never torn down). Queued commands —
    ///   minibatches and cuts alike — also survive: the supervisor keeps
    ///   the receiver.
    /// * **Lost**: the panicking batch and those processed *after* the
    ///   last publication (at most [`PUBLISH_EVERY`]` − 1`, however they
    ///   were folded; none if the queue had run dry) and the open
    ///   (unsealed) window pane. A command the supervisor holds in the
    ///   lookahead slot survives like a queued one.
    ///
    /// The Count-Min sketch retains the post-snapshot adds, so its
    /// one-sided *over*estimate is unaffected; `live_epoch` rolls back to
    /// the snapshot's epoch so the lazy-publication protocol resumes
    /// consistently. The boundary fence numbering continues via
    /// [`PaneWindow::resume_after`].
    pub(crate) fn reseed(
        shard: usize,
        config: &EngineConfig,
        shared: Arc<ShardShared>,
        pool: Arc<BufferPool>,
        obs: Option<Arc<EngineObs>>,
    ) -> Self {
        let snapshot = shared.snapshot.get();
        let heavy_hitters = InfiniteHeavyHitters::from_entries(
            config.phi,
            config.epsilon,
            &snapshot.hh_entries,
            snapshot.stream_len,
        )
        .with_meter(shared.work.clone());
        let window = config.window.map(|_| {
            PaneWindow::resume_after(
                config.epsilon,
                config.window_panes,
                snapshot.latest_window_seq(),
            )
        });
        let window_history: VecDeque<Arc<SealedWindow>> =
            snapshot.windows.iter().cloned().collect();
        // Roll the progress counter back to the snapshot: post-snapshot
        // batches are the documented restart loss, and leaving the old
        // value would make queries wait for a refresh that counts epochs
        // the reborn worker never saw.
        shared.live_epoch.store(snapshot.epoch, Ordering::Relaxed);
        Self {
            shard,
            epoch: snapshot.epoch,
            items: snapshot.stream_len,
            heavy_hitters,
            window,
            window_history,
            hist_seed: 0x5eed_0000 ^ shard as u64,
            hist_scratch: HistScratch::new(),
            hist: Vec::new(),
            group: Vec::new(),
            compresses: false,
            pool,
            shared,
            obs,
            fault: config.fault.clone(),
            last_publish_ns: 0,
            last_publish_epoch: snapshot.epoch,
        }
    }

    /// [`ShardWorker::resume`] with a lookahead slot of its own.
    #[cfg(test)]
    pub(crate) fn run(self, queue: &Receiver<ShardCommand>) -> ShardState {
        self.resume(queue, &mut None)
    }

    /// Runs until [`ShardCommand::Shutdown`] (or every sender is dropped)
    /// and returns the final operator state. `held` is the one-slot
    /// lookahead of the queue: the command that ended the last folded
    /// minibatch, served before anything still on the queue. Both belong to
    /// the caller, so a supervisor keeps them across a panic and hands them
    /// to a reseeded worker.
    pub(crate) fn resume(
        mut self,
        queue: &Receiver<ShardCommand>,
        held: &mut Option<ShardCommand>,
    ) -> ShardState {
        if let Some(obs) = self.obs.clone() {
            let now = obs.now_ns();
            self.last_publish_ns = now;
            obs.trace
                .push(now, TraceKind::WorkerStart, self.shard as u32, 0, 0);
        }
        loop {
            // Drain-then-block: once the queue runs dry, publish anything
            // pending so idle shards always expose an exact snapshot, then
            // wait for the next command.
            let command = match held.take().map_or_else(|| queue.try_recv(), Ok) {
                Ok(command) => command,
                Err(TryRecvError::Empty) => {
                    self.publish_if_dirty(PublishReason::Idle);
                    match queue.recv() {
                        Ok(command) => command,
                        Err(_) => break,
                    }
                }
                Err(TryRecvError::Disconnected) => break,
            };
            match command {
                ShardCommand::Batch(first) => self.ingest(first, queue, held),
                ShardCommand::Barrier { ack } => {
                    // FIFO queue ⇒ everything enqueued before the barrier is
                    // already processed. Publish so a drained caller reads
                    // current state. A failed send means the drainer gave up
                    // waiting, which is not the worker's problem.
                    self.publish_if_dirty(PublishReason::Drain);
                    let _ = ack.send(());
                }
                ShardCommand::Boundary { seq } => self.seal_boundary(seq),
                ShardCommand::Persist { reply } => {
                    // Hand back the operator state as of this cut; encoding
                    // and disk I/O happen on the flusher thread, off the
                    // ingest hot path. A failed send means the persister
                    // gave up (e.g. the engine is being torn down) — not
                    // the worker's problem.
                    let _ = reply.send(self.state());
                }
                ShardCommand::Shutdown => break,
            }
        }
        // Outstanding handles keep answering queries after shutdown; leave
        // them the final state.
        self.publish_if_dirty(PublishReason::Drain);
        if let Some(obs) = &self.obs {
            obs.trace.push(
                obs.now_ns(),
                TraceKind::WorkerExit,
                self.shard as u32,
                self.items,
                0,
            );
        }
        self.state()
    }

    /// A copy of the full operator state: the reply to a persist cut and
    /// the value the worker exits with. The Count-Min copy is exact here —
    /// the worker is the sketch's only writer and reads its own adds.
    fn state(&self) -> ShardState {
        ShardState {
            shard: self.shard as u32,
            epoch: self.epoch,
            items: self.items,
            heavy_hitters: self.heavy_hitters.clone(),
            window: self.window.clone(),
            count_min: self.shared.count_min.clone(),
        }
    }

    /// Seals the open window pane at boundary `seq` and publishes the new
    /// sealed window. `O(k/ε)` work per boundary — amortised over the
    /// `slide` items of the pane, not paid per item.
    fn seal_boundary(&mut self, seq: u64) {
        let Some(window) = &mut self.window else {
            return;
        };
        let sealed = window.seal();
        debug_assert_eq!(
            sealed.seq, seq,
            "shard {} sealed boundary {} when the fence cut {seq}",
            self.shard, sealed.seq
        );
        self.window_history.push_back(Arc::new(sealed));
        while self.window_history.len() > WINDOW_HISTORY {
            self.window_history.pop_front();
        }
        self.publish_snapshot(PublishReason::Boundary);
        // The seq counter last: a reader that sees the new boundary also
        // finds the sealed window in the published snapshot.
        self.shared.stats.window_seq.store(seq, Ordering::Release);
    }

    /// The per-minibatch hot path. Takes `first` and folds behind it every
    /// sub-batch already queued (see [`ShardWorker::fold_queued`]), then
    /// applies the group as one minibatch: one histogram pass into reused
    /// scratch, shared by every summary; lock-free Count-Min adds; lazy
    /// publication; buffer recycling. Steady state (warm buffers, no stale
    /// reader, off the publication cadence): **zero** heap allocations and
    /// **zero** lock acquisitions but the one lane lock of the give-back.
    fn ingest(
        &mut self,
        first: Vec<u64>,
        queue: &Receiver<ShardCommand>,
        held: &mut Option<ShardCommand>,
    ) {
        if self.panic_due_on_dequeue(self.epoch + 1) {
            self.injected_panic(self.epoch + 1);
        }
        self.group.push(first);
        let panic_next = self.compresses && self.fold_queued(queue, held);
        self.apply_group();
        if panic_next {
            // The batch after the group, as numbered before it was folded.
            self.injected_panic(self.epoch + 1);
        }
    }

    /// Moves every sub-batch already waiting on `queue` into the group,
    /// never waiting for more. Stops at the first of: an empty queue; any
    /// other command (parked in `held` and served next, so a cut always
    /// ends a minibatch); the next cadence point (the group never takes
    /// `epoch` past `last_publish_epoch + PUBLISH_EVERY`); a reader waiting
    /// on `refresh`; a batch with a fault-plan panic due — returns `true`
    /// for that one, which the caller panics on once the group is applied.
    fn fold_queued(
        &mut self,
        queue: &Receiver<ShardCommand>,
        held: &mut Option<ShardCommand>,
    ) -> bool {
        while self.epoch + (self.group.len() as u64) < self.last_publish_epoch + PUBLISH_EVERY
            && !self.shared.refresh.load(Ordering::Relaxed)
        {
            match queue.try_recv() {
                Ok(ShardCommand::Batch(next)) => {
                    if self.panic_due_on_dequeue(self.epoch + self.group.len() as u64 + 1) {
                        return true;
                    }
                    self.group.push(next);
                }
                Ok(command) => {
                    *held = Some(command);
                    break;
                }
                Err(_) => break,
            }
        }
        false
    }

    /// Accounts for the worker taking batch number `batch` off its queue.
    /// Fault injection (tests only; one `Option` branch when unset) fires
    /// first: a scheduled delay holds the batch while it still counts as
    /// queued, and a scheduled panic is reported — consumed, so each batch
    /// is checked exactly once — for the caller to fire before the batch
    /// touches any state. The loss after recovery is then exactly the
    /// documented set: that batch plus the unpublished tail.
    fn panic_due_on_dequeue(&self, batch: u64) -> bool {
        let panic_due = self.fault.as_ref().is_some_and(|fault| {
            if let Some(delay) = fault.worker_delay(self.shard) {
                std::thread::sleep(delay);
            }
            fault.worker_panic_due(self.shard, batch)
        });
        self.shared
            .stats
            .batches_dequeued
            .fetch_add(1, Ordering::Relaxed);
        panic_due
    }

    fn injected_panic(&self, batch: u64) -> ! {
        panic!(
            "injected worker panic (fault plan): shard {} at batch {batch}",
            self.shard
        );
    }

    /// Applies the folded group as one minibatch and hands its buffers
    /// back to the producers.
    fn apply_group(&mut self) {
        // Telemetry stays relaxed and off the common path: with
        // observability disabled this reads no clock at all; enabled, it
        // costs two clock reads and one relaxed RMW per *minibatch*.
        let service_start = self.obs.as_ref().map(|obs| obs.now_ns());
        self.hist_seed = self
            .hist_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(1);
        build_hist_runs(
            &self.group,
            self.hist_seed,
            &mut self.hist_scratch,
            &mut self.hist,
        );
        #[cfg(test)]
        tests::panic_if_due_in_apply();
        let batches = self.group.len() as u64;
        let len: u64 = self.group.iter().map(|batch| batch.len() as u64).sum();
        self.compresses = 2 * self.hist.len() as u64 <= len;
        self.heavy_hitters.process_histogram(&self.hist, len);
        if let Some(window) = &mut self.window {
            window.process_histogram(&self.hist, len);
        }
        self.shared.count_min.ingest_histogram(&self.hist);
        self.epoch += batches;
        self.items += len;
        // Progress counters (see the module-level ordering contract),
        // then the publication decision.
        self.shared.live_epoch.store(self.epoch, Ordering::Release);
        let stats = &self.shared.stats;
        stats.items_processed.fetch_add(len, Ordering::Relaxed);
        stats
            .batches_processed
            .fetch_add(batches, Ordering::Relaxed);
        stats.minibatches_processed.fetch_add(1, Ordering::Relaxed);
        // Publish for a reader that saw the gap, or on the cadence; all
        // else waits for the idle, drain or boundary publication.
        if self.shared.refresh.swap(false, Ordering::AcqRel) {
            self.publish_snapshot(PublishReason::QueryRefresh);
        } else if self.epoch - self.last_publish_epoch >= PUBLISH_EVERY {
            self.publish_snapshot(PublishReason::Cadence);
        }
        // Hand the buffers' capacity back to the producers.
        self.pool.give_back_all(self.shard, self.group.drain(..));
        if let Some(obs) = &self.obs {
            let start = service_start.unwrap_or(0);
            obs.batch_service(self.shard)
                .record(obs.now_ns().saturating_sub(start));
        }
    }

    /// Publishes if the operator state has advanced past the snapshot.
    fn publish_if_dirty(&mut self, reason: PublishReason) {
        if self.epoch > self.last_publish_epoch {
            self.publish_snapshot(reason);
        }
    }

    fn publish_snapshot(&mut self, reason: PublishReason) {
        self.shared.snapshot.set(Arc::new(ShardSnapshot {
            shard: self.shard,
            epoch: self.epoch,
            stream_len: self.items,
            hh_entries: self.heavy_hitters.estimator().tracked_items_sorted(),
            windows: self.window_history.iter().cloned().collect(),
        }));
        let epoch_gap = self.epoch - self.last_publish_epoch;
        self.last_publish_epoch = self.epoch;
        // Stall accounting: how long (and how many epochs) the previous
        // snapshot stayed current, and why this publication happened. All
        // relaxed — the data-plane `Release` above is the visibility edge.
        if let Some(obs) = &self.obs {
            let now = obs.now_ns();
            obs.publish_staleness
                .record(now.saturating_sub(self.last_publish_ns));
            obs.publish_epoch_gap.record(epoch_gap);
            obs.count_republish(reason);
            obs.trace.push(
                now,
                TraceKind::EpochPublish,
                self.shard as u32,
                self.epoch,
                reason as u64,
            );
            self.last_publish_ns = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::mpsc::sync_channel;

    thread_local! {
        /// Minibatches this thread may still apply before the next one
        /// panics halfway through `apply_group`, after its histogram is
        /// built (`0`: none panics).
        static APPLY_PANIC_COUNTDOWN: Cell<u64> = const { Cell::new(0) };
    }

    /// The apply-time fault hook: fires once, on the minibatch the test
    /// counted down to.
    pub(super) fn panic_if_due_in_apply() {
        let due = APPLY_PANIC_COUNTDOWN.with(|left| {
            let n = left.get();
            left.set(n.saturating_sub(1));
            n == 1
        });
        if due {
            panic!("test panic while applying a minibatch");
        }
    }

    fn test_config() -> EngineConfig {
        EngineConfig::with_shards(1)
            .heavy_hitters(0.1, 0.01)
            .sliding_window(10_000)
    }

    fn test_pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(1, 4))
    }

    /// A fresh shard-0 worker.
    fn test_worker(
        config: &EngineConfig,
        shared: &Arc<ShardShared>,
        obs: Option<Arc<EngineObs>>,
    ) -> ShardWorker {
        let (shared, pool) = (shared.clone(), test_pool());
        ShardWorker::new(0, config, shared, pool, None, obs)
    }

    #[test]
    fn worker_processes_batches_and_publishes_snapshots() {
        let config = test_config();
        let shared = Arc::new(ShardShared::new(0, &config, None));
        let worker = test_worker(&config, &shared, None);
        let (tx, rx) = sync_channel(8);
        tx.send(ShardCommand::Batch(vec![7; 100])).unwrap();
        tx.send(ShardCommand::Batch(vec![7, 8, 9])).unwrap();
        tx.send(ShardCommand::Boundary { seq: 1 }).unwrap();
        tx.send(ShardCommand::Batch(vec![9; 10])).unwrap();
        tx.send(ShardCommand::Shutdown).unwrap();
        let fin = worker.run(&rx);
        assert_eq!(fin.items, 113);
        let snap = shared.load_snapshot();
        assert_eq!(snap.epoch, 3);
        assert_eq!(snap.stream_len, 113);
        assert!(snap.estimate(7) >= 100, "dominant item must be tracked");
        assert!(
            snap.hh_entries.windows(2).all(|w| w[0].0 < w[1].0),
            "published entries must be item-sorted"
        );
        // The boundary sealed a window over everything before it; the
        // post-boundary batch sits in the (unpublished) open pane.
        assert_eq!(snap.latest_window_seq(), 1);
        let sealed = snap.window_at(1).expect("boundary 1 sealed");
        assert_eq!(sealed.items, 103);
        assert_eq!(sealed.estimate(7), 101);
        assert_eq!(shared.count_min.query(7), 101);
        assert_eq!(fin.heavy_hitters.estimator().stream_len(), 113);
        let window = fin.window.expect("window configured");
        assert_eq!(window.sealed_seq(), 1);
        assert_eq!(window.open_items(), 10);
    }

    #[test]
    fn barrier_acknowledges_after_prior_batches() {
        let config = test_config();
        let shared = Arc::new(ShardShared::new(0, &config, None));
        let worker = test_worker(&config, &shared, None);
        let (tx, rx) = sync_channel(4);
        let (ack_tx, ack_rx) = sync_channel(1);
        tx.send(ShardCommand::Batch(vec![1; 50])).unwrap();
        tx.send(ShardCommand::Barrier { ack: ack_tx }).unwrap();
        let handle = std::thread::spawn(move || worker.run(&rx));
        ack_rx.recv().expect("barrier must be acknowledged");
        assert_eq!(shared.load_snapshot().stream_len, 50);
        drop(tx); // closing the queue ends the worker too
        handle.join().unwrap();
    }

    #[test]
    fn lazy_publication_republishes_on_a_stale_read() {
        let config = test_config();
        let shared = Arc::new(ShardShared::new(0, &config, None));
        let mut worker = test_worker(&config, &shared, None);
        let (_tx, empty) = sync_channel(1);
        // One batch, no reader, off the cadence: publication is deferred.
        worker.ingest(vec![7; 100], &empty, &mut None);
        assert_eq!(shared.snapshot.get().epoch, 0);
        assert_eq!(shared.snapshot_lag(), 1);
        // A query's load sees the gap and asks for a refresh …
        assert_eq!(shared.load_snapshot().epoch, 0);
        assert!(shared.refresh.load(Ordering::Acquire));
        // … which the very next batch serves, and clears.
        worker.ingest(vec![7; 100], &empty, &mut None);
        let snap = shared.snapshot.get();
        assert_eq!((snap.epoch, snap.estimate(7)), (2, 200));
        assert!(!shared.refresh.load(Ordering::Acquire));
        assert_eq!(shared.snapshot_lag(), 0);
    }

    /// A churning stream for one shard: `count` batches of 200 distinct
    /// keys each, none repeated, so every batch of a full `S = 100`
    /// summary applies a non-zero cut-off (what used to publish per batch).
    fn churning_batches(count: u64) -> Vec<Vec<u64>> {
        (0..count)
            .map(|b| (b * 200..(b + 1) * 200).collect())
            .collect()
    }

    #[test]
    fn cadence_publishes_every_publish_every_batches_without_a_reader() {
        let config = test_config();
        let obs = Arc::new(EngineObs::new(&crate::ObsConfig::default(), 1));
        let shared = Arc::new(ShardShared::new(0, &config, None));
        let worker = test_worker(&config, &shared, Some(obs.clone()));
        let batches = 3 * PUBLISH_EVERY + 5;
        // Queue pre-filled, worker run inline: it never finds the queue
        // dry, so only the cadence and the final drain can publish.
        let (tx, rx) = sync_channel(batches as usize + 1);
        for batch in churning_batches(batches) {
            tx.send(ShardCommand::Batch(batch)).unwrap();
        }
        tx.send(ShardCommand::Shutdown).unwrap();
        worker.run(&rx);

        let publications: Vec<(u64, u64)> = obs
            .trace
            .drain()
            .iter()
            .filter(|e| e.kind == TraceKind::EpochPublish)
            .map(|e| (e.a, e.b))
            .collect();
        let cadence = PublishReason::Cadence as u64;
        assert_eq!(
            publications,
            vec![
                (PUBLISH_EVERY, cadence),
                (2 * PUBLISH_EVERY, cadence),
                (3 * PUBLISH_EVERY, cadence),
                (batches, PublishReason::Drain as u64),
            ]
        );
        let report = obs.report(Default::default(), 0, 0, 0);
        assert_eq!(report.counter("republish_cadence"), Some(3));
        assert_eq!(report.counter("republish_drain"), Some(1));
        assert!(report.percentiles("publish_epoch_gap").unwrap().max <= PUBLISH_EVERY);
        assert_eq!(shared.snapshot.get().epoch, batches);
        assert_eq!(shared.snapshot_lag(), 0);
    }

    #[test]
    fn reseed_after_a_panic_loses_less_than_one_cadence() {
        let panic_at = 2 * PUBLISH_EVERY + 7;
        let config = test_config().fault_injection(FaultPlan::new().with_worker_panic(0, panic_at));
        let shared = Arc::new(ShardShared::new(0, &config, None));
        let worker = test_worker(&config, &shared, None);
        let offered = churning_batches(panic_at + 3);
        let (tx, rx) = sync_channel(offered.len() + 1);
        for batch in &offered {
            tx.send(ShardCommand::Batch(batch.clone())).unwrap();
        }
        tx.send(ShardCommand::Shutdown).unwrap();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker.run(&rx)));
        assert!(outcome.is_err(), "the planned panic must fire");

        // No reader ever raised `refresh`: the newest snapshot is the last
        // cadence publication, so the loss is the 6 batches processed
        // since plus the panicking one — inside the bound.
        let reborn = ShardWorker::reseed(0, &config, shared.clone(), test_pool(), None);
        assert_eq!(reborn.epoch, 2 * PUBLISH_EVERY);
        assert!(panic_at - reborn.epoch <= PUBLISH_EVERY);
        assert_eq!(shared.snapshot_lag(), 0, "live epoch rolls back with it");

        // The reborn worker finishes the surviving queue; every estimate
        // stays one-sided against the offered stream (each key once).
        let fin = reborn.run(&rx);
        assert_eq!(fin.items, (2 * PUBLISH_EVERY + 3) * 200);
        let snap = shared.snapshot.get();
        assert_eq!(snap.epoch, 2 * PUBLISH_EVERY + 3);
        let offered_keys = offered.len() as u64 * 200;
        assert!(snap
            .hh_entries
            .iter()
            .all(|&(key, estimate)| key < offered_keys && estimate <= 1));
    }

    #[test]
    fn ingested_buffers_return_to_the_pool_lane() {
        let config = test_config();
        let shared = Arc::new(ShardShared::new(0, &config, None));
        let pool = test_pool();
        let worker = ShardWorker::new(0, &config, shared, pool.clone(), None, None);
        let (tx, rx) = sync_channel(4);
        tx.send(ShardCommand::Batch(Vec::with_capacity(64)))
            .unwrap();
        tx.send(ShardCommand::Shutdown).unwrap();
        worker.run(&rx);
        assert_eq!(pool.lane_depth(0), 1, "worker must recycle the buffer");
        assert!(pool.checkout()[0].capacity() >= 64);
    }

    /// `count` skewed batches of 60 items over 6 keys: every histogram has
    /// a tenth as many rows as items, so a worker folds whatever is queued
    /// once it has built one. Six keys fit every summary of the test
    /// config exactly, whatever the grouping.
    fn skewed_batches(count: u64) -> Vec<Vec<u64>> {
        (0..count)
            .map(|b| (0..60).map(|i| (b + i * i) % 6).collect())
            .collect()
    }

    fn fold_counts(shared: &ShardShared) -> (u64, u64) {
        let stats = &shared.stats;
        (
            stats.batches_processed.load(Ordering::Acquire),
            stats.minibatches_processed.load(Ordering::Acquire),
        )
    }

    #[test]
    fn a_cut_queued_mid_run_ends_the_fold_and_is_served_next_in_order() {
        let config = test_config();
        let batches = skewed_batches(9);
        let (ack_tx, ack_rx) = sync_channel(1);
        let (state_tx, state_rx) = sync_channel(1);
        let mut commands: Vec<ShardCommand> = Vec::new();
        for (at, batch) in batches.iter().enumerate() {
            commands.push(ShardCommand::Batch(batch.clone()));
            match at {
                3 => commands.push(ShardCommand::Boundary { seq: 1 }),
                6 => commands.push(ShardCommand::Barrier {
                    ack: ack_tx.clone(),
                }),
                7 => commands.push(ShardCommand::Persist {
                    reply: state_tx.clone(),
                }),
                _ => {}
            }
        }

        // Folded: the whole stream pre-filled, the worker run inline.
        let shared = Arc::new(ShardShared::new(0, &config, None));
        let (tx, rx) = sync_channel(commands.len() + 1);
        for command in commands {
            tx.send(command).unwrap();
        }
        tx.send(ShardCommand::Shutdown).unwrap();
        let folded = test_worker(&config, &shared, None).run(&rx);
        // Batch 1 alone (no histogram yet), 2–4 up to the boundary, 5–7 up
        // to the barrier, 8 up to the persist cut, then 9.
        assert_eq!(fold_counts(&shared), (9, 5));
        ack_rx.try_recv().expect("the barrier was acknowledged");
        let cut = state_rx.try_recv().expect("the persist cut was answered");
        assert_eq!((cut.epoch, cut.items), (8, 8 * 60));

        // Unfolded: one batch at a time, each waited for.
        let unfolded_shared = Arc::new(ShardShared::new(0, &config, None));
        let (tx, rx) = sync_channel(2);
        let worker = test_worker(&config, &unfolded_shared, None);
        let runner = std::thread::spawn(move || worker.run(&rx));
        let (ack_tx, ack_rx) = sync_channel(1);
        for (at, batch) in batches.iter().enumerate() {
            tx.send(ShardCommand::Batch(batch.clone())).unwrap();
            if at == 3 {
                tx.send(ShardCommand::Boundary { seq: 1 }).unwrap();
            }
            tx.send(ShardCommand::Barrier {
                ack: ack_tx.clone(),
            })
            .unwrap();
            ack_rx.recv().unwrap();
        }
        tx.send(ShardCommand::Shutdown).unwrap();
        let unfolded = runner.join().unwrap();
        assert_eq!(fold_counts(&unfolded_shared), (9, 9));

        let sealed = |shared: &ShardShared| shared.snapshot.get().window_at(1).cloned();
        let pane = sealed(&shared).expect("boundary 1 sealed");
        assert_eq!(pane.items, 4 * 60);
        assert_eq!(Some(pane), sealed(&unfolded_shared));
        assert_eq!(folded.window, unfolded.window);
        assert_eq!(
            folded.heavy_hitters.estimator().tracked_items_sorted(),
            unfolded.heavy_hitters.estimator().tracked_items_sorted()
        );
    }

    #[test]
    fn folding_never_crosses_a_cadence_point() {
        let config = test_config();
        let obs = Arc::new(EngineObs::new(&crate::ObsConfig::default(), 1));
        let shared = Arc::new(ShardShared::new(0, &config, None));
        let worker = test_worker(&config, &shared, Some(obs.clone()));
        let batches = 3 * PUBLISH_EVERY + 5;
        let (tx, rx) = sync_channel(batches as usize + 1);
        for batch in skewed_batches(batches) {
            tx.send(ShardCommand::Batch(batch)).unwrap();
        }
        tx.send(ShardCommand::Shutdown).unwrap();
        worker.run(&rx);

        let publications: Vec<u64> = obs
            .trace
            .drain()
            .iter()
            .filter(|e| e.kind == TraceKind::EpochPublish)
            .map(|e| e.a)
            .collect();
        let cadence = [PUBLISH_EVERY, 2 * PUBLISH_EVERY, 3 * PUBLISH_EVERY, batches];
        assert_eq!(publications, cadence, "the same epochs as unfolded");
        // Batch 1 alone, then one fold up to each cadence point, then the
        // five left.
        assert_eq!(fold_counts(&shared), (batches, 5));
        let report = obs.report(Default::default(), 0, 0, 0);
        assert_eq!(report.percentiles("batch_service").unwrap().count, 5);
    }

    #[test]
    fn a_panic_due_inside_a_queued_run_fires_after_the_batches_before_it() {
        let panic_at = 2 * PUBLISH_EVERY + 7;
        let config = test_config().fault_injection(FaultPlan::new().with_worker_panic(0, panic_at));
        let shared = Arc::new(ShardShared::new(0, &config, None));
        let worker = test_worker(&config, &shared, None);
        let offered = skewed_batches(panic_at + 3);
        let (tx, rx) = sync_channel(offered.len() + 1);
        for batch in &offered {
            tx.send(ShardCommand::Batch(batch.clone())).unwrap();
        }
        tx.send(ShardCommand::Shutdown).unwrap();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker.run(&rx)));
        assert!(outcome.is_err(), "the planned panic must fire");
        // Every batch before `panic_at` was applied, folded as 1, 2–16,
        // 17–32, then 33 up to the panicking batch.
        assert_eq!(fold_counts(&shared), (panic_at - 1, 4));
        assert_eq!(shared.live_epoch.load(Ordering::Acquire), panic_at - 1);

        // The loss is the unpublished tail (33 up to the panic) plus the
        // panicking batch itself.
        let reborn = ShardWorker::reseed(0, &config, shared.clone(), test_pool(), None);
        assert_eq!(reborn.epoch, 2 * PUBLISH_EVERY);
        assert_eq!(
            panic_at - reborn.epoch,
            (panic_at - 1 - 2 * PUBLISH_EVERY) + 1
        );
        let fin = reborn.run(&rx);
        assert_eq!(fin.epoch, 2 * PUBLISH_EVERY + 3);
        assert_eq!(fin.items, (2 * PUBLISH_EVERY + 3) * 60);
    }

    #[test]
    fn input_that_does_not_compress_never_folds() {
        let config = test_config();
        let shared = Arc::new(ShardShared::new(0, &config, None));
        let worker = test_worker(&config, &shared, None);
        let batches = 2 * PUBLISH_EVERY;
        let (tx, rx) = sync_channel(batches as usize + 1);
        for batch in churning_batches(batches) {
            tx.send(ShardCommand::Batch(batch)).unwrap();
        }
        tx.send(ShardCommand::Shutdown).unwrap();
        worker.run(&rx);
        assert_eq!(fold_counts(&shared), (batches, batches));
    }

    #[test]
    fn a_barrier_queued_behind_a_panicking_batch_is_acknowledged_through_supervise() {
        let config = test_config().fault_injection(FaultPlan::new().with_worker_panic(0, 3));
        let shared = Arc::new(ShardShared::new(0, &config, None));
        let pool = test_pool();
        let worker = ShardWorker::new(0, &config, shared.clone(), pool.clone(), None, None);
        let (tx, rx) = sync_channel(8);
        let (ack_tx, ack_rx) = sync_channel(1);
        for batch in skewed_batches(3) {
            tx.send(ShardCommand::Batch(batch)).unwrap();
        }
        tx.send(ShardCommand::Barrier { ack: ack_tx }).unwrap();
        tx.send(ShardCommand::Batch(vec![5; 60])).unwrap();
        tx.send(ShardCommand::Shutdown).unwrap();
        let fin = crate::engine::supervise(0, config, shared.clone(), pool, None, worker, rx);
        ack_rx
            .try_recv()
            .expect("the reseeded worker acknowledged the barrier");
        assert_eq!(shared.stats.restarts.load(Ordering::Acquire), 1);
        // The queue never ran dry before the panic, so nothing was
        // published and the reseed starts from epoch 0: batches 1–2 and the
        // panicking batch 3 are the loss, the batch behind the barrier is
        // all that counts.
        assert_eq!((fin.epoch, fin.items), (1, 60));
    }

    #[test]
    fn a_cut_held_when_the_worker_panics_is_served_by_the_reseeded_worker() {
        let config = test_config();
        let shared = Arc::new(ShardShared::new(0, &config, None));
        let pool = test_pool();
        let worker = ShardWorker::new(0, &config, shared.clone(), pool.clone(), None, None);
        let (tx, rx) = sync_channel(8);
        let (state_tx, state_rx) = sync_channel(1);
        for batch in skewed_batches(3) {
            tx.send(ShardCommand::Batch(batch)).unwrap();
        }
        tx.send(ShardCommand::Persist { reply: state_tx }).unwrap();
        tx.send(ShardCommand::Batch(vec![5; 60])).unwrap();
        tx.send(ShardCommand::Shutdown).unwrap();
        // Batch 1 is applied alone (no histogram yet); batches 2–3 fold up
        // to the persist cut, which waits in the lookahead while their
        // minibatch panics halfway through being applied.
        APPLY_PANIC_COUNTDOWN.with(|left| left.set(2));
        let fin = crate::engine::supervise(0, config, shared.clone(), pool, None, worker, rx);
        assert_eq!(shared.stats.restarts.load(Ordering::Acquire), 1);
        // Nothing was published before the panic, so the reseeded worker
        // starts from epoch 0 — and answers the held cut there, before the
        // batch queued behind it. Had the cut been served before the panic
        // or left on the channel, it would read epoch 1 or 3.
        let cut = state_rx
            .try_recv()
            .expect("the reseeded worker answered the held persist cut");
        assert_eq!((cut.epoch, cut.items), (0, 0));
        assert_eq!((fin.epoch, fin.items), (1, 60));
    }
}
