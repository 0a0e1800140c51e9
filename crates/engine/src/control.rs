//! The control plane: the shard queues and every consistent cut across
//! them.
//!
//! A query may see only whole minibatches. [`ShardQueues`] keeps that
//! promise and is the only sender of a [`ShardCommand`]: one bounded FIFO
//! per shard carries every command a worker obeys (see "One FIFO per
//! shard" in the `shard` module docs), and an [`IngestFence`] orders whole
//! minibatches against cuts. A producer holds the fence's shared side
//! across all of one minibatch's sends; a cut holds the exclusive side
//! while it enqueues one marker per shard, so the marker lands at the same
//! stream position on every shard — the "multi-writer log with consistent
//! cuts" of Gulisano et al. The cuts are typed operations: window
//! boundaries (scheduled by the [`WindowFence`]'s item clock), the drain
//! barrier, the persist cut, and the stop. The workers run under
//! [`supervise`], which owns each queue's receiving end so a panicking
//! worker never disconnects its producers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

use psfa_obs::{TraceKind, NO_SHARD};
use psfa_store::{EpochRecord, ShardState};
use psfa_stream::{BufferPool, IngestFence, IngestGuard, WindowFence, WindowFenceState};

use crate::config::EngineConfig;
use crate::engine::ShutdownError;
use crate::metrics::ShardHealth;
use crate::obs::EngineObs;
use crate::shard::{ShardCommand, ShardShared, ShardWorker};

/// A shard's queue is gone: its worker has exited (died for good, or the
/// engine stopped).
pub(crate) struct QueueGone;

/// The per-shard command queues, the ingest fence that cuts them
/// consistently, and the window clock that schedules boundary cuts (see
/// the module docs). Built once by [`crate::Engine`] and shared by every
/// handle, producer and the persister.
pub(crate) struct ShardQueues {
    senders: Vec<SyncSender<ShardCommand>>,
    /// `queue_capacity`: the shedding threshold of [`ShardQueues::has_room`].
    capacity: usize,
    /// Minibatches accepted so far (the flusher's interval counts them).
    accepted: AtomicU64,
    fence: Arc<IngestFence>,
    /// The global window's logical item clock, when a window is
    /// configured: accepted items tick it under the ingest guard, and the
    /// producer that observes a `slide` crossing cuts the boundary.
    window: Option<WindowFence>,
    /// The shards' published state: enqueue counters and worker health.
    shared: Arc<Vec<Arc<ShardShared>>>,
    /// Observability recorders: enqueue waits, cut durations, boundary
    /// trace events. Recording only; it never changes what is sent.
    obs: Option<Arc<EngineObs>>,
}

impl ShardQueues {
    /// Spawns one supervised worker per shard behind a queue of
    /// `config.queue_capacity` commands, fresh or resuming the shards and
    /// the window clock of `recovered`. The window fence shares the ingest
    /// fence, so pane boundaries cut shard-consistently; a resumed clock
    /// keeps its boundaries at the same positions.
    pub(crate) fn start(
        config: &Arc<EngineConfig>,
        shared: &Arc<Vec<Arc<ShardShared>>>,
        pool: &Arc<BufferPool>,
        obs: &Option<Arc<EngineObs>>,
        recovered: Option<&EpochRecord>,
    ) -> (Self, Vec<JoinHandle<ShardState>>) {
        let mut senders = Vec::with_capacity(config.shards);
        let mut workers = Vec::with_capacity(config.shards);
        for (shard, shard_shared) in shared.iter().enumerate() {
            let (tx, rx) = sync_channel(config.queue_capacity);
            let worker = ShardWorker::new(
                shard,
                config,
                shard_shared.clone(),
                pool.clone(),
                recovered.map(|r| &r.shards[shard]),
                obs.clone(),
            );
            let config = config.clone();
            let join = std::thread::Builder::new()
                .name(format!("psfa-shard-{shard}"))
                .spawn(move || supervise(&config, worker, rx))
                .expect("failed to spawn shard worker thread");
            senders.push(tx);
            workers.push(join);
        }
        let fence = Arc::new(IngestFence::new());
        let window = config.window.map(|n| {
            let (ticket, boundaries) = recovered
                .and_then(|r| r.window.as_ref())
                .map_or((0, 0), |clock| (clock.ticket, clock.boundaries));
            let clock = WindowFenceState { ticket, boundaries };
            WindowFence::resume(fence.clone(), n / config.window_panes as u64, clock)
        });
        let queues = Self {
            senders,
            capacity: config.queue_capacity,
            accepted: AtomicU64::new(0),
            fence,
            window,
            shared: shared.clone(),
            obs: obs.clone(),
        };
        (queues, workers)
    }

    /// Enters the fence for one minibatch, or `None` once the queues are
    /// stopping. Hold the guard across every [`ShardQueues::send`] of the
    /// minibatch, then hand it to [`ShardQueues::release`].
    pub(crate) fn enter(&self) -> Option<IngestGuard<'_>> {
        self.fence.enter()
    }

    /// Whether `shard` can take a sub-batch now: its channel holds fewer
    /// than `queue_capacity` batches (the ones its worker is applying take
    /// no room); [`QueueGone`] once its worker is dead. Advisory: a racing
    /// producer can take the slot before the send lands.
    pub(crate) fn has_room(&self, shard: usize) -> Result<bool, QueueGone> {
        let stats = &self.shared[shard].stats;
        if stats.health() == ShardHealth::Dead {
            return Err(QueueGone);
        }
        Ok(stats.channel_depth() < self.capacity as u64)
    }

    /// Enqueues one routed sub-batch on `shard`'s queue (the only place a
    /// [`ShardCommand::Batch`] is built), blocking while it is full.
    pub(crate) fn send(
        &self,
        _guard: &IngestGuard<'_>,
        shard: usize,
        part: Vec<u64>,
    ) -> Result<(), QueueGone> {
        let len = part.len() as u64;
        // Reserve the counters *before* the send, so every concurrent
        // observer sees `items_enqueued >= items_processed`; a blocked
        // producer over-reports queue depth by its batch, which only makes
        // shedding more conservative. Relaxed: monotone progress hints
        // (see the ordering contract in `shard.rs`).
        let stats = &self.shared[shard].stats;
        stats.items_enqueued.fetch_add(len, Ordering::Relaxed);
        stats.batches_enqueued.fetch_add(1, Ordering::Relaxed);
        // `Some` once queued, holding the clock reading taken before a
        // blocking send: an uncontended enqueue records a zero wait with no
        // clock read; only the blocking path (the queue was full) pays.
        let sent = match self.senders[shard].try_send(ShardCommand::Batch(part)) {
            Ok(()) => Some(None),
            Err(TrySendError::Full(command)) => {
                let start = self.obs.as_ref().map(|obs| obs.now_ns());
                self.senders[shard].send(command).map(|()| start).ok()
            }
            Err(TrySendError::Disconnected(_)) => None,
        };
        let Some(blocked_since) = sent else {
            // The batch never reached the queue: undo the reservation so
            // no phantom depth survives.
            stats.items_enqueued.fetch_sub(len, Ordering::Relaxed);
            stats.batches_enqueued.fetch_sub(1, Ordering::Relaxed);
            return Err(QueueGone);
        };
        if let Some(obs) = &self.obs {
            let waited = blocked_since.map_or(0, |start| obs.now_ns().saturating_sub(start));
            obs.enqueue_wait.record(waited);
        }
        Ok(())
    }

    /// Ends one accepted minibatch: counts it and ticks the window clock by
    /// its `items` under `guard` (so a stop's final snapshot sees both),
    /// releases the guard, and only then — when the claim says a boundary
    /// may be due — takes the exclusive boundary cut (most minibatches skip
    /// it entirely).
    pub(crate) fn release(&self, guard: IngestGuard<'_>, items: u64) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        let due = self
            .window
            .as_ref()
            .is_some_and(|window| window.claim(&guard, items).due);
        drop(guard);
        if due {
            self.seal_due_boundaries();
        }
    }

    /// Cuts every window boundary the clock has crossed (two atomic loads
    /// when none is due): one `Boundary` marker per shard from inside the
    /// exclusive cut, so it lands at the same stream position on every
    /// FIFO. Must not be called while holding an ingest guard. Returns the
    /// number of boundaries cut.
    pub(crate) fn seal_due_boundaries(&self) -> u64 {
        let Some(window) = &self.window else {
            return 0;
        };
        let start = self.obs.as_ref().map(|obs| obs.now_ns());
        let cut = window.poll_cut(|seq| {
            for sender in &self.senders {
                // A send error means that worker already exited; the
                // surviving shards still seal so queries stay aligned.
                let _ = sender.send(ShardCommand::Boundary { seq });
            }
            if let Some(obs) = &self.obs {
                let position = seq * window.slide();
                obs.trace
                    .push(obs.now_ns(), TraceKind::Boundary, NO_SHARD, position, seq);
            }
        });
        if cut > 0 {
            self.record_cut(start);
        }
        cut
    }

    /// The barrier cut behind [`crate::EngineHandle::drain`]: a marker per
    /// shard, acknowledged once everything ahead of it is processed.
    pub(crate) fn drain(&self) -> Result<(), ShutdownError> {
        let acks = self.fence.cut_with(|_| {
            self.enqueue_everywhere(|| {
                let (ack, acked) = sync_channel(1);
                (ShardCommand::Barrier { ack }, acked)
            })
        });
        for ack in acks.into_iter().flatten() {
            // A receive error means the worker exited: a graceful stop
            // emptied its queue first; the health check tells a dead shard.
            let _ = ack.recv();
        }
        ShutdownError::check(
            (0..self.shared.len())
                .filter(|&shard| self.shared[shard].stats.health() == ShardHealth::Dead),
        )
    }

    /// The persist cut: one `Persist` marker per shard, enqueued under the
    /// exclusive fence, with `at_cut` run at the same instant on the window
    /// clock's state (`None` without a window). From inside the cut every
    /// shard's FIFO holds exactly the clock's `boundaries` markers ahead of
    /// this one, so the collected pane rings are sealed at precisely that
    /// boundary; anything else `at_cut` reads (the hot set) cannot race
    /// ahead of the cut either. Then waits, fence released, for every
    /// shard's state as of the cut. Fails once a worker has exited.
    pub(crate) fn persist_cut<R>(
        &self,
        at_cut: impl FnOnce(Option<WindowFenceState>) -> R,
    ) -> Result<(Vec<ShardState>, R), QueueGone> {
        let start = self.obs.as_ref().map(|obs| obs.now_ns());
        let (replies, read) = self.fence.cut_with(|_| {
            let replies = self.enqueue_everywhere(|| {
                let (reply, state) = sync_channel(1);
                (ShardCommand::Persist { reply }, state)
            });
            (
                replies,
                at_cut(self.window.as_ref().map(WindowFence::state)),
            )
        });
        // The exclusive fence is the only moment producers are excluded;
        // its duration is the persistence stall budget.
        self.record_cut(start);
        let states = replies
            .into_iter()
            .map(|state| state.and_then(|state| state.recv().ok()).ok_or(QueueGone))
            .collect::<Result<_, _>>()?;
        Ok((states, read))
    }

    /// Stops the shards: closes the fence (waiting for every in-flight
    /// minibatch; later ones are refused cleanly), runs `final_cut` while
    /// the workers still drain, then enqueues `Shutdown` behind everything
    /// accepted and joins `workers`. Returns each shard's final state, or
    /// the shards whose workers died for good.
    pub(crate) fn stop(
        &self,
        workers: Vec<JoinHandle<ShardState>>,
        final_cut: impl FnOnce(),
    ) -> Result<Vec<ShardState>, ShutdownError> {
        self.fence.close();
        final_cut();
        // A send error means that worker already exited; joining reports it.
        self.enqueue_everywhere(|| (ShardCommand::Shutdown, ()));
        // A worker that panicked out of its supervisor died for good: report
        // the shard, never re-panic here.
        let joined: Vec<_> = workers.into_iter().map(JoinHandle::join).collect();
        ShutdownError::check((0..joined.len()).filter(|&shard| joined[shard].is_err()))?;
        Ok(joined.into_iter().flatten().collect())
    }

    /// Minibatches accepted so far, whichever endpoint offered them.
    pub(crate) fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Acquire)
    }

    /// Exclusive cuts taken so far (boundaries, barriers, persists).
    pub(crate) fn cuts(&self) -> u64 {
        self.fence.cuts()
    }

    /// Window boundaries cut so far, when a window is configured.
    pub(crate) fn boundaries(&self) -> Option<u64> {
        self.window.as_ref().map(WindowFence::boundaries)
    }

    /// Enqueues one command per shard, in shard order, and returns each
    /// command's reply end — `None` where the queue is gone. Under the
    /// exclusive fence, the commands share one stream position.
    fn enqueue_everywhere<T>(
        &self,
        mut command: impl FnMut() -> (ShardCommand, T),
    ) -> Vec<Option<T>> {
        self.senders
            .iter()
            .map(|sender| {
                let (command, reply) = command();
                sender.send(command).ok().map(|()| reply)
            })
            .collect()
    }

    /// Records one exclusive cut's duration, from `start`: producer stall.
    fn record_cut(&self, start: Option<u64>) {
        if let (Some(obs), Some(start)) = (&self.obs, start) {
            obs.fence_exclusive_wait
                .record(obs.now_ns().saturating_sub(start));
        }
    }
}

/// The shard worker supervisor: runs the worker under `catch_unwind` and,
/// after a panic, reseeds the same worker in place from the shard's last
/// published snapshot ([`ShardWorker::reseed`]) and resumes it.
///
/// The supervisor — not the worker — owns the command `Receiver` and its
/// one-slot lookahead (the command that ended the worker's last folded
/// minibatch), so a panic never disconnects the channel: producers keep
/// their backpressure semantics (`Busy`, blocking sends) instead of seeing
/// `Closed`, queued and held commands — minibatches and cuts alike —
/// survive the restart, and the reseeded worker resumes the same queue.
/// The shard's health is published through [`crate::ShardHealth`] in the
/// shared stats: `Quarantined` while down
/// ([`crate::EngineHandle::degradation`] names the shard meanwhile), back
/// to `Live` after the reseed, and `Dead` once the restart budget
/// ([`EngineConfig::worker_restart_limit`]) is exhausted — at which point
/// the original panic is resumed so [`crate::Engine::shutdown`] reports the
/// shard in a typed [`ShutdownError`] instead of aborting.
pub(crate) fn supervise(
    config: &EngineConfig,
    mut worker: ShardWorker,
    queue: Receiver<ShardCommand>,
) -> ShardState {
    let mut held = None;
    loop {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            worker.resume(&queue, &mut held)
        }));
        let payload = match outcome {
            Ok(fin) => return fin,
            Err(payload) => payload,
        };
        let (shard, shared, obs) = (worker.shard, worker.shared.clone(), worker.obs.clone());
        shared.stats.set_health(ShardHealth::Quarantined);
        let restarts = shared.stats.restarts.load(Ordering::Relaxed);
        let published_epoch = shared.snapshot.get().epoch;
        let trace = |kind, restarts| {
            if let Some(obs) = &obs {
                let at = obs.now_ns();
                obs.trace
                    .push(at, kind, shard as u32, restarts, published_epoch);
            }
        };
        trace(TraceKind::ShardQuarantined, restarts);
        if restarts >= config.worker_restart_limit {
            shared.stats.set_health(ShardHealth::Dead);
            // Joining this thread now observes the original panic; the
            // engine surfaces it as a typed `ShutdownError`.
            std::panic::resume_unwind(payload);
        }
        // Test hook: hold the quarantine open so degraded queries are
        // reliably observable (no-op without a fault plan).
        if let Some(delay) = config.fault.as_ref().and_then(|f| f.restart_delay()) {
            std::thread::sleep(delay);
        }
        worker.reseed();
        shared.stats.restarts.fetch_add(1, Ordering::Relaxed);
        shared.stats.set_health(ShardHealth::Live);
        trace(TraceKind::WorkerRestart, restarts + 1);
    }
}
