//! Deterministic fault injection: a seedable plan of typed fault points.
//!
//! Production fault tolerance is untestable without a way to *cause*
//! faults on demand. A [`FaultPlan`] is a declarative schedule of typed
//! fault points — worker panics and delays, store write errors, connection
//! drops — that the engine, persister, and serving layer consult at their
//! respective fault sites. The plan is threaded as
//! an `Option<Arc<FaultPlan>>` exactly like the observability config
//! introduced earlier: when unset the fault sites compile down to a single
//! `Option` branch on the hot path and nothing else, so production
//! binaries pay nothing for the machinery.
//!
//! ## Determinism
//!
//! Every fault point names its trigger explicitly (shard + batch ordinal,
//! append ordinal, frame count), so a given plan produces the same fault
//! sequence on every run — which is what makes the recovery tests
//! reproducible. Each scheduled point (panic, write error) fires **at most
//! once** (an atomic fired flag), so a worker restarted from a snapshot that
//! replays past the trigger ordinal does not re-trip the same fault forever.
//! [`FaultPlan::from_seed`] derives a whole schedule from one `u64` for
//! property tests.

use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// A worker panic scheduled for one shard's `batch`-th ingested minibatch.
#[derive(Debug)]
struct WorkerPanic {
    shard: usize,
    batch: u64,
    fired: AtomicBool,
}

/// A store write failure scheduled for the `ordinal`-th epoch append.
#[derive(Debug)]
struct StoreWriteError {
    ordinal: u64,
    fired: AtomicBool,
}

/// A deterministic schedule of typed fault points (see the module docs).
///
/// Build one with the `with_*` methods (or [`FaultPlan::from_seed`]) and
/// hand it to `EngineConfig::fault_injection(..)` / the serve config. The
/// plan is shared by every fault site through one `Arc`, so the per-point
/// fired flags are global: a fault fires exactly once per plan instance.
#[derive(Default)]
pub struct FaultPlan {
    worker_panics: Vec<WorkerPanic>,
    store_write_errors: Vec<StoreWriteError>,
    /// Server-side: drop each connection after this many served frames.
    drop_after_frames: Option<u64>,
    /// Supervisor-side: hold a quarantined shard this long before the
    /// restart (widens the observable degraded-query window for tests).
    restart_delay: Option<Duration>,
    /// Worker-side: one shard sleeps this long before every minibatch it
    /// ingests (a slow consumer, for backpressure tests).
    worker_delay: Option<(usize, Duration)>,
    /// Monotone count of store appends attempted (the ordinal clock for
    /// [`FaultPlan::store_write_error`]).
    appends: AtomicU64,
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("worker_panics", &self.worker_panics.len())
            .field("store_write_errors", &self.store_write_errors.len())
            .field("drop_after_frames", &self.drop_after_frames)
            .field("restart_delay", &self.restart_delay)
            .field("worker_delay", &self.worker_delay)
            .finish_non_exhaustive()
    }
}

impl FaultPlan {
    /// An empty plan: no fault ever fires.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a worker panic on `shard` when it ingests its `batch`-th
    /// minibatch (1-based: `batch = 1` panics on the first minibatch).
    pub fn with_worker_panic(mut self, shard: usize, batch: u64) -> Self {
        self.worker_panics.push(WorkerPanic {
            shard,
            batch,
            fired: AtomicBool::new(false),
        });
        self
    }

    /// Schedules an `io::Error` on the `ordinal`-th store append attempt
    /// (0-based), surfacing through the persister as a flush failure.
    pub fn with_store_write_error(mut self, ordinal: u64) -> Self {
        self.store_write_errors.push(StoreWriteError {
            ordinal,
            fired: AtomicBool::new(false),
        });
        self
    }

    /// Makes the server drop every connection after serving `frames`
    /// request frames on it (exercises client reconnect logic).
    pub fn with_connection_drop_after(mut self, frames: u64) -> Self {
        self.drop_after_frames = Some(frames);
        self
    }

    /// Holds a quarantined shard for `delay` before its restart, widening
    /// the window in which queries observe the degraded state.
    pub fn with_restart_delay(mut self, delay: Duration) -> Self {
        self.restart_delay = Some(delay);
        self
    }

    /// Makes `shard`'s worker sleep for `delay` before every minibatch it
    /// ingests: a deterministic slow consumer, so its queue fills and
    /// producers meet backpressure. Unlike the one-shot points it applies
    /// to every batch, restarts included.
    pub fn with_worker_delay(mut self, shard: usize, delay: Duration) -> Self {
        self.worker_delay = Some((shard, delay));
        self
    }

    /// Derives a deterministic schedule of `panics` worker panics (plus
    /// one store write error when the seed's low bit is set) spread over
    /// `shards` shards and a horizon of `batches` minibatches per shard.
    pub fn from_seed(seed: u64, shards: usize, batches: u64, panics: usize) -> Self {
        assert!(shards > 0, "fault plan needs at least one shard");
        let mut plan = FaultPlan::new();
        let mut state = seed | 1; // xorshift64* must not start at zero
        let mut next = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for _ in 0..panics {
            let shard = (next() % shards as u64) as usize;
            let batch = 1 + next() % batches.max(1);
            plan = plan.with_worker_panic(shard, batch);
        }
        if seed & 1 == 1 {
            plan = plan.with_store_write_error(next() % 4);
        }
        plan
    }

    /// Number of worker panics this plan schedules.
    pub fn planned_worker_panics(&self) -> usize {
        self.worker_panics.len()
    }

    /// Consumes (at most once) a worker panic scheduled for `shard`'s
    /// `batch`-th minibatch. The worker calls this at the top of its
    /// ingest path and panics when it returns `true`.
    pub fn worker_panic_due(&self, shard: usize, batch: u64) -> bool {
        self.worker_panics.iter().any(|p| {
            p.shard == shard
                && p.batch == batch
                && p.fired
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
        })
    }

    /// Advances the append ordinal clock and returns the injected error if
    /// this append is scheduled to fail. The persister calls this before
    /// every store append.
    pub fn store_write_error(&self) -> Option<io::Error> {
        let ordinal = self.appends.fetch_add(1, Ordering::AcqRel);
        self.store_write_errors
            .iter()
            .find(|e| {
                e.ordinal == ordinal
                    && e.fired
                        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
            })
            .map(|_| {
                io::Error::other(format!(
                    "injected store write failure (fault plan, append #{ordinal})"
                ))
            })
    }

    /// Server-side connection-drop threshold, if scheduled.
    pub fn connection_drop_after(&self) -> Option<u64> {
        self.drop_after_frames
    }

    /// Supervisor-side restart hold, if scheduled.
    pub fn restart_delay(&self) -> Option<Duration> {
        self.restart_delay
    }

    /// Per-minibatch hold for `shard`'s worker, if scheduled for it. The
    /// worker sleeps at the top of its ingest path, before any state
    /// mutates, so the batch counts as queued for the whole delay.
    pub fn worker_delay(&self, shard: usize) -> Option<Duration> {
        self.worker_delay
            .and_then(|(slow, delay)| (slow == shard).then_some(delay))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_panic_fires_exactly_once() {
        let plan = FaultPlan::new().with_worker_panic(2, 5);
        assert!(!plan.worker_panic_due(2, 4));
        assert!(!plan.worker_panic_due(1, 5));
        assert!(plan.worker_panic_due(2, 5));
        // A restarted worker replaying past the same ordinal must not
        // re-trip the fault.
        assert!(!plan.worker_panic_due(2, 5));
    }

    #[test]
    fn store_error_fires_on_its_ordinal_only() {
        let plan = FaultPlan::new().with_store_write_error(1);
        assert!(plan.store_write_error().is_none()); // append #0
        assert!(plan.store_write_error().is_some()); // append #1
        assert!(plan.store_write_error().is_none()); // append #2
    }

    #[test]
    fn worker_delay_is_shard_scoped() {
        let delay = Duration::from_millis(3);
        let plan = FaultPlan::new().with_worker_delay(1, delay);
        assert_eq!(plan.worker_delay(1), Some(delay));
        // Applies to every batch, not once.
        assert_eq!(plan.worker_delay(1), Some(delay));
        assert_eq!(plan.worker_delay(0), None);
        assert_eq!(FaultPlan::new().worker_delay(1), None);
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::from_seed(42, 4, 100, 3);
        let b = FaultPlan::from_seed(42, 4, 100, 3);
        assert_eq!(a.planned_worker_panics(), 3);
        for (x, y) in a.worker_panics.iter().zip(&b.worker_panics) {
            assert_eq!((x.shard, x.batch), (y.shard, y.batch));
            assert!(x.batch >= 1 && x.batch <= 100);
            assert!(x.shard < 4);
        }
    }
}
