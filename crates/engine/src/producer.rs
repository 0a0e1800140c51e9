//! Per-thread ingest endpoints.
//!
//! A [`Producer`] ingests exactly like [`crate::EngineHandle::ingest`] /
//! [`crate::EngineHandle::try_ingest`] — same fence guard, same router,
//! same per-shard FIFO, same window ticket — through the same private
//! admit core. The one thing it owns is its routing scratch: one buffer
//! per shard, kept across calls and refilled from the engine's
//! [`psfa_stream::BufferPool`] return lanes, so a thread that ingests in a
//! loop does not check a parts container in and out of the shared pool on
//! every minibatch.
//!
//! Minibatches from every producer and every handle share one FIFO per
//! shard, so consistent cuts (window boundaries, drain barriers,
//! persistence snapshots) cover producer traffic with no extra mechanism
//! (see "One FIFO per shard" in the `shard` module docs).

use crate::engine::{Admission, EngineHandle, IngestError, Refused, TryIngestError};

/// A per-thread ingest endpoint (see the module docs). Obtain one per
/// producer thread via [`crate::EngineHandle::producer`]; the endpoint is
/// single-owner (`&mut self` ingestion) and `Send`, so move it into the
/// thread that uses it.
pub struct Producer {
    handle: EngineHandle,
    /// Private routing scratch (one buffer per shard); sent slots are
    /// refilled from the engine's buffer pool, so steady-state routing
    /// allocates nothing.
    parts: Vec<Vec<u64>>,
}

impl Producer {
    pub(crate) fn new(handle: &EngineHandle) -> Self {
        let mut parts = Vec::new();
        parts.resize_with(handle.shards(), Vec::new);
        Self {
            handle: handle.clone(),
            parts,
        }
    }

    /// Ingests one minibatch, blocking while a target shard's queue is
    /// full (backpressure). `Ok` means the whole minibatch is accepted and
    /// will be reflected in queries. An error from a graceful shutdown is
    /// a clean rejection (nothing was enqueued); as with
    /// [`EngineHandle::ingest`], only a shard worker dying mid-call can
    /// leave the minibatch partially delivered, and the [`IngestError`]
    /// says how much of it was.
    pub fn ingest(&mut self, minibatch: &[u64]) -> Result<(), IngestError> {
        self.offer(minibatch, Admission::Wait)
            .map_err(IngestError::from)
    }

    /// Non-blocking [`Producer::ingest`]: rejects with
    /// [`TryIngestError::Busy`] when any target shard's queue is full
    /// instead of waiting — a clean rejection, nothing was enqueued. Same
    /// admission rule and caveats as [`EngineHandle::try_ingest`].
    pub fn try_ingest(&mut self, minibatch: &[u64]) -> Result<(), TryIngestError> {
        self.offer(minibatch, Admission::Shed)
            .map_err(TryIngestError::from)
    }

    fn offer(&mut self, minibatch: &[u64], admission: Admission) -> Result<(), Refused> {
        // Slots sent off by the previous call were left without capacity;
        // refill them from the workers' return lanes (what
        // `BufferPool::checkout` does for a pooled container).
        for (shard, part) in self.parts.iter_mut().enumerate() {
            if part.capacity() == 0 {
                if let Some(buffer) = self.handle.pool.take(shard) {
                    *part = buffer;
                }
            }
        }
        self.handle.admit(minibatch, &mut self.parts, admission)
    }
}
