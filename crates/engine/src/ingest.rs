//! The ingest plane: everything between a caller's `&[u64]` and the
//! control plane's `ShardQueues::send`.
//!
//! Every endpoint — [`EngineHandle::ingest`] / [`EngineHandle::try_ingest`]
//! and a per-thread [`Producer`] — ends in one admit routine over one
//! scratch shape, a `Vec<u64>` per shard kept across calls (a `Producer`
//! owns its own; handle calls share their thread's): refill the scratch
//! from the workers' return lanes ([`psfa_stream::BufferPool::refill`]),
//! route into it, trace a hot-set promotion, check admission, send the
//! non-empty sub-batches under one fence guard, and release the minibatch
//! to the control plane, which counts it and ticks the window clock. All
//! endpoints share one FIFO per shard, so consistent cuts cover all ingest
//! traffic with no extra mechanism (see "One FIFO per shard" in the
//! `shard` module docs).

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::Ordering;

use psfa_obs::{TraceKind, NO_SHARD};

use crate::engine::EngineHandle;

/// Error returned by [`EngineHandle::ingest`], reporting exactly how much of
/// the minibatch was delivered before the failure.
///
/// `ingest` splits a minibatch into per-shard sub-batches and enqueues them
/// one shard at a time, so a failure is **not** automatically all-or-nothing:
///
/// * A *graceful* shutdown ([`crate::Engine::shutdown`]) serialises behind
///   the whole `ingest` call, so it can only reject a batch up-front —
///   `parts_delivered == 0` and nothing was enqueued (clean rejection).
/// * If a shard *worker died* (panicked) mid-call, the sub-batches sent to
///   other shards before the failure are already enqueued and will be (or
///   were) processed; `parts_delivered` counts them so callers can account
///   for the partially applied batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestError {
    /// Non-empty per-shard sub-batches enqueued before the failure.
    pub parts_delivered: usize,
    /// Non-empty per-shard sub-batches the minibatch was split into
    /// (`0` when the batch was rejected before being split).
    pub parts_total: usize,
}

impl IngestError {
    /// True if nothing was enqueued: the batch was refused as a whole and
    /// the stream state is exactly as if `ingest` was never called.
    pub fn is_clean_rejection(&self) -> bool {
        self.parts_delivered == 0
    }
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `parts_total == 0` is the up-front rejection path (the batch was
        // never split); a worker death mid-call has `parts_total > 0` even
        // when it struck before the first part was delivered.
        if self.parts_total == 0 {
            write!(
                f,
                "engine is shut down; minibatch rejected (none of it was enqueued)"
            )
        } else {
            write!(
                f,
                "engine worker died mid-ingest: {}/{} per-shard sub-batches were already enqueued",
                self.parts_delivered, self.parts_total
            )
        }
    }
}

impl std::error::Error for IngestError {}

/// Error returned by [`EngineHandle::try_ingest`] and
/// [`Producer::try_ingest`]. Both variants are clean rejections — nothing
/// was enqueued and the stream state is exactly as if the call never
/// happened — with one race left: a target shard's worker dying for good
/// between the admission check and its send makes the call `Closed` after
/// the other shards' sub-batches were already enqueued (use
/// [`EngineHandle::ingest`] to learn how much was delivered).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryIngestError {
    /// At least one target shard's queue was at capacity. The caller
    /// should shed, retry later, or fall back to the blocking
    /// [`EngineHandle::ingest`].
    Busy,
    /// The engine is shut down, or a target shard's worker died for good
    /// (exhausted its restart budget).
    Closed,
}

impl fmt::Display for TryIngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let why = match self {
            TryIngestError::Busy => "shard queues are full",
            TryIngestError::Closed => "engine is shut down or a shard worker died",
        };
        write!(f, "{why}; minibatch rejected (nothing was enqueued)")
    }
}

impl std::error::Error for TryIngestError {}

/// What the admit routine does when a target shard's queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admission {
    /// Block until the queue has room (backpressure).
    Wait,
    /// Refuse the whole minibatch with [`Refused::Busy`], and with
    /// [`Refused::WorkerGone`] when a target shard's worker is dead.
    Shed,
}

/// Why the admit routine refused a minibatch; each public entry point
/// maps this onto its own error type.
#[derive(Debug, Clone, Copy)]
enum Refused {
    /// The ingest fence is closed (shutdown); nothing was enqueued.
    Closed,
    /// [`Admission::Shed`] only: a target queue was at capacity; nothing
    /// was enqueued.
    Busy,
    /// A target shard's worker died for good: found by the admission check
    /// before any send ([`Admission::Shed`]), or by a send, possibly after
    /// some of the minibatch's sub-batches were enqueued.
    WorkerGone(IngestError),
}

impl From<Refused> for IngestError {
    fn from(refused: Refused) -> Self {
        match refused {
            Refused::WorkerGone(partial) => partial,
            Refused::Closed | Refused::Busy => IngestError {
                parts_delivered: 0,
                parts_total: 0,
            },
        }
    }
}

impl From<Refused> for TryIngestError {
    fn from(refused: Refused) -> Self {
        match refused {
            Refused::Busy => TryIngestError::Busy,
            Refused::Closed | Refused::WorkerGone(_) => TryIngestError::Closed,
        }
    }
}

thread_local! {
    /// The routing scratch of [`EngineHandle`] ingest calls on this thread,
    /// kept across calls like a [`Producer`]'s.
    static SCRATCH: RefCell<Vec<Vec<u64>>> = const { RefCell::new(Vec::new()) };
}

impl EngineHandle {
    /// Routes one minibatch through the configured [`crate::Router`] and
    /// enqueues the per-shard sub-batches, blocking while any target queue
    /// is full (backpressure).
    ///
    /// Safe to call from many threads at once; item order per key is
    /// preserved per producer. Atomic with respect to
    /// [`crate::Engine::shutdown`]: `Ok` means the whole minibatch will be
    /// processed, and an error from a graceful shutdown is a *clean
    /// rejection* — none of it was enqueued. Only a shard worker dying
    /// mid-call (a panic, never a graceful stop) can leave the batch
    /// partially delivered; the returned [`IngestError`] reports how many
    /// per-shard sub-batches had already been enqueued so the caller can
    /// account for the partial application.
    pub fn ingest(&self, minibatch: &[u64]) -> Result<(), IngestError> {
        self.admit_on_this_thread(minibatch, Admission::Wait)
            .map_err(IngestError::from)
    }

    /// Non-blocking [`EngineHandle::ingest`]: routes the minibatch, then
    /// *admits* it only if every target shard's queue has room and its
    /// worker is alive, so a full engine surfaces as
    /// [`TryIngestError::Busy`] instead of a stalled caller — the
    /// backpressure primitive `psfa-serve` turns into `Busy` responses.
    ///
    /// The check runs before any send, so a refusal is a **clean
    /// rejection** (see [`TryIngestError`] for the one race). The check
    /// is advisory under racing producers: a queue slot observed free can
    /// be taken by a concurrent producer before the send lands, in which
    /// case the send blocks for that one batch — a write stall bounded by
    /// the race window, never unbounded buffering.
    pub fn try_ingest(&self, minibatch: &[u64]) -> Result<(), TryIngestError> {
        self.admit_on_this_thread(minibatch, Admission::Shed)
            .map_err(TryIngestError::from)
    }

    /// Hands out a [`Producer`]: a per-thread ingest endpoint that owns its
    /// routing scratch and otherwise ingests exactly like
    /// [`EngineHandle::ingest`] / [`EngineHandle::try_ingest`]. One
    /// producer per thread — the endpoints are single-owner (`&mut self`)
    /// values; clone the handle and call this once per producer thread.
    pub fn producer(&self) -> Producer {
        Producer {
            handle: self.clone(),
            scratch: vec![Vec::new(); self.shards()],
        }
    }

    /// [`EngineHandle::admit`] into the calling thread's scratch.
    fn admit_on_this_thread(&self, minibatch: &[u64], admission: Admission) -> Result<(), Refused> {
        SCRATCH.with_borrow_mut(|scratch| {
            scratch.resize_with(self.shards(), Vec::new);
            self.admit(minibatch, scratch, admission)
        })
    }

    /// The one way a minibatch reaches the shard workers. Refills
    /// `scratch` (one buffer per shard) from the return lanes, routes
    /// `minibatch` into it and enqueues the non-empty sub-batches under one
    /// fence guard, so a racing stop or cut falls entirely before or
    /// entirely after the minibatch — never between its per-shard parts.
    /// Sent buffers are left behind as empty `Vec`s for the next refill.
    fn admit(
        &self,
        minibatch: &[u64],
        scratch: &mut [Vec<u64>],
        admission: Admission,
    ) -> Result<(), Refused> {
        if minibatch.is_empty() {
            return Ok(());
        }
        self.pool.refill(scratch);
        let Some(guard) = self.queues.enter() else {
            return Err(Refused::Closed);
        };
        self.plane.router.partition_into(minibatch, scratch);
        self.trace_hot_promotions();
        let mut sent = IngestError {
            parts_delivered: 0,
            parts_total: scratch.iter().filter(|part| !part.is_empty()).count(),
        };
        // Shedding admits only if every target shard can take its part
        // *now*, before any send, so a refusal is clean.
        if admission == Admission::Shed {
            for (shard, part) in scratch.iter().enumerate() {
                let gone = |_| Refused::WorkerGone(sent);
                if !part.is_empty() && !self.queues.has_room(shard).map_err(gone)? {
                    return Err(Refused::Busy);
                }
            }
        }
        for (shard, slot) in scratch.iter_mut().enumerate() {
            if !slot.is_empty() {
                let part = std::mem::take(slot);
                let gone = |_| Refused::WorkerGone(sent);
                self.queues.send(&guard, shard, part).map_err(gone)?;
                sent.parts_delivered += 1;
            }
        }
        self.queues.release(guard, minibatch.len() as u64);
        Ok(())
    }

    /// Emits a [`TraceKind::HotPromote`] event when the router's hot set
    /// changed since the last emission. Racing producers deduplicate on the
    /// monotone promotion epoch: exactly one of them wins the `fetch_max`
    /// for any given epoch and emits the event.
    fn trace_hot_promotions(&self) {
        let Some(obs) = &self.obs else {
            return;
        };
        let router = &self.plane.router;
        let promotions = router.promotions();
        if promotions > obs.promotions_seen.load(Ordering::Relaxed)
            && obs.promotions_seen.fetch_max(promotions, Ordering::Relaxed) < promotions
        {
            obs.trace.push(
                obs.now_ns(),
                TraceKind::HotPromote,
                NO_SHARD,
                promotions,
                router.hot_keys().len() as u64,
            );
        }
    }
}

/// A per-thread ingest endpoint (see the module docs). Obtain one per
/// producer thread via [`EngineHandle::producer`]; the endpoint is
/// single-owner (`&mut self` ingestion) and `Send`, so move it into the
/// thread that uses it.
pub struct Producer {
    handle: EngineHandle,
    /// Private routing scratch (one buffer per shard), refilled from the
    /// engine's buffer pool on every call.
    scratch: Vec<Vec<u64>>,
}

impl Producer {
    /// Ingests one minibatch, blocking while a target shard's queue is
    /// full (backpressure). `Ok` means the whole minibatch is accepted and
    /// will be reflected in queries. An error from a graceful shutdown is
    /// a clean rejection (nothing was enqueued); as with
    /// [`EngineHandle::ingest`], only a shard worker dying mid-call can
    /// leave the minibatch partially delivered, and the [`IngestError`]
    /// says how much of it was.
    pub fn ingest(&mut self, minibatch: &[u64]) -> Result<(), IngestError> {
        self.handle
            .admit(minibatch, &mut self.scratch, Admission::Wait)
            .map_err(IngestError::from)
    }

    /// Non-blocking [`Producer::ingest`]: rejects with
    /// [`TryIngestError::Busy`] when any target shard's queue is full
    /// instead of waiting — a clean rejection, nothing was enqueued. Same
    /// admission rule and caveats as [`EngineHandle::try_ingest`].
    pub fn try_ingest(&mut self, minibatch: &[u64]) -> Result<(), TryIngestError> {
        self.handle
            .admit(minibatch, &mut self.scratch, Admission::Shed)
            .map_err(TryIngestError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineConfig, FaultPlan};

    #[test]
    fn every_accepted_ingest_is_processed_even_racing_shutdown() {
        // Producers hammer ingest while the main thread shuts down; every
        // batch for which ingest returned Ok must appear in the final
        // counts — none silently dropped in the shutdown race.
        for round in 0..10u64 {
            let engine = Engine::spawn(
                EngineConfig::with_shards(2)
                    .queue_capacity(2)
                    .heavy_hitters(0.05, 0.01),
            );
            let mut producers = Vec::new();
            for p in 0..3u64 {
                let handle = engine.handle();
                producers.push(std::thread::spawn(move || {
                    let mut accepted = 0u64;
                    let batch: Vec<u64> = (0..200u64).map(|i| i * 3 + p).collect();
                    loop {
                        match handle.ingest(&batch) {
                            Ok(()) => accepted += batch.len() as u64,
                            Err(err) => {
                                // A graceful shutdown must reject the whole
                                // batch, never deliver part of it.
                                assert!(err.is_clean_rejection(), "partial delivery: {err}");
                                return accepted;
                            }
                        }
                    }
                }));
            }
            // Let the race land at varying points.
            if round % 2 == 0 {
                std::thread::yield_now();
            }
            let report = engine.shutdown().unwrap();
            let accepted: u64 = producers.into_iter().map(|p| p.join().unwrap()).sum();
            assert_eq!(
                report.total_items(),
                accepted,
                "round {round}: accepted batches must never be dropped"
            );
        }
    }

    #[test]
    fn rejected_ingest_leaves_no_phantom_queue_depth() {
        let engine = Engine::spawn(
            EngineConfig::with_shards(4)
                .queue_capacity(8)
                .heavy_hitters(0.05, 0.01),
        );
        let handle = engine.handle();
        handle.ingest(&[1, 2, 3, 4]).unwrap();
        let report = engine.shutdown().unwrap();
        assert_eq!(report.total_items(), 4);
        // Post-shutdown attempts are refused and must not move counters.
        assert_eq!(
            handle.ingest(&[5, 6, 7]),
            Err(IngestError {
                parts_delivered: 0,
                parts_total: 0
            })
        );
        assert_eq!(handle.try_ingest(&[8]), Err(TryIngestError::Closed));
        let m = handle.metrics();
        assert_eq!(m.items_enqueued(), 4);
        assert_eq!(m.items_processed(), 4);
        assert_eq!(
            m.queue_depth(),
            0,
            "refused batches must not inflate queue depth"
        );
    }

    #[test]
    fn busy_is_a_clean_rejection_while_the_worker_is_stalled() {
        // One shard, capacity 1, and a worker that holds every batch for
        // `HOLD` before taking it off the channel: the channel's occupancy
        // (`enqueued − dequeued`) stays pinned at capacity from the first
        // accept until the hold ends, so every non-blocking offer in
        // between must be shed without touching the enqueue counters.
        const HOLD: std::time::Duration = std::time::Duration::from_millis(400);
        let engine = Engine::spawn(
            EngineConfig::with_shards(1)
                .queue_capacity(1)
                .heavy_hitters(0.05, 0.01)
                .fault_injection(FaultPlan::new().with_worker_delay(0, HOLD)),
        );
        let handle = engine.handle();
        let mut producer = handle.producer();

        handle.try_ingest(&[1, 2, 3]).unwrap();
        assert_eq!(handle.try_ingest(&[4; 10]), Err(TryIngestError::Busy));
        assert_eq!(producer.try_ingest(&[5; 10]), Err(TryIngestError::Busy));
        let m = handle.metrics();
        assert_eq!((m.items_enqueued(), m.shards[0].batches_enqueued), (3, 1));

        engine.drain().unwrap();
        assert_eq!(handle.total_items(), 3, "shed batches left no trace");
        // Room again: both endpoints are admitted through the same core.
        producer.try_ingest(&[5; 10]).unwrap();
        engine.drain().unwrap();
        assert_eq!(handle.total_items(), 13);
        engine.shutdown().unwrap();
        assert_eq!(producer.try_ingest(&[1]), Err(TryIngestError::Closed));
    }

    #[test]
    fn a_worker_holding_a_folded_group_leaves_its_channel_room() {
        // One shard, capacity 2, and a worker that holds every batch for
        // `HOLD` as it takes it off the channel — folded ones included.
        const HOLD: std::time::Duration = std::time::Duration::from_millis(500);
        let engine = Engine::spawn(
            EngineConfig::with_shards(1)
                .queue_capacity(2)
                .heavy_hitters(0.05, 0.01)
                .fault_injection(FaultPlan::new().with_worker_delay(0, HOLD)),
        );
        let handle = engine.handle();
        let skewed = [1, 1, 1, 1, 2, 2];
        // The first batch builds the histogram that shows the input
        // compresses; from then on the worker folds what is queued.
        handle.try_ingest(&skewed).unwrap();
        engine.drain().unwrap();
        handle.try_ingest(&skewed).unwrap();
        handle.try_ingest(&skewed).unwrap();
        let stats = &handle.plane.shared[0].stats;
        let dequeued = || {
            stats
                .batches_dequeued
                .load(std::sync::atomic::Ordering::Acquire)
        };
        while dequeued() < 2 {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        // The worker holds batch 2 in its group while it takes batch 3: two
        // batches are in flight, none is on the channel, and counting the
        // held ones as queued would shed this one.
        assert_eq!(handle.try_ingest(&skewed), Ok(()));
        engine.drain().unwrap();
        assert_eq!(handle.total_items(), 4 * skewed.len() as u64);
        engine.shutdown().unwrap();
    }

    #[test]
    fn try_ingest_rejects_cleanly_when_full_and_when_closed() {
        // One shard, capacity 1, and a worker that holds every batch for
        // `HOLD` before taking it off the channel: the first offer fills
        // the queue, so the next one is shed whatever the scheduling.
        const HOLD: std::time::Duration = std::time::Duration::from_millis(400);
        let engine = Engine::spawn(
            EngineConfig::with_shards(1)
                .queue_capacity(1)
                .heavy_hitters(0.05, 0.01)
                .fault_injection(FaultPlan::new().with_worker_delay(0, HOLD)),
        );
        let handle = engine.handle();
        let batch: Vec<u64> = vec![1; 50_000];
        let mut accepted = 0u64;
        let mut busy_seen = false;
        for _ in 0..200 {
            match handle.try_ingest(&batch) {
                Ok(()) => accepted += 1,
                Err(TryIngestError::Busy) => {
                    busy_seen = true;
                    break;
                }
                Err(TryIngestError::Closed) => panic!("engine closed unexpectedly"),
            }
        }
        assert!(busy_seen, "a capacity-1 queue must report Busy under load");
        engine.drain().unwrap();
        // Busy was a clean rejection: exactly the accepted batches landed.
        assert_eq!(handle.total_items(), accepted * batch.len() as u64);
        // Room again after the drain.
        handle.try_ingest(&[9, 9, 9]).unwrap();
        engine.shutdown().unwrap();
        assert_eq!(handle.try_ingest(&[1]), Err(TryIngestError::Closed));
        assert_eq!(handle.try_ingest(&[]), Ok(()), "empty batch is a no-op");
    }
}
