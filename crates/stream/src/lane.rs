//! A bounded single-producer/single-consumer ring of sub-batch buffers.
//!
//! The engine no longer ingests through this type: every minibatch rides
//! the bounded per-shard channel, whose FIFO order is also what makes a cut
//! (window boundary, drain barrier, persistence snapshot) a plain command
//! in the queue. The ring's **one remaining caller is the benchmark's layer
//! replay** (`benchmark/src/layers.rs`, the
//! `stream.lane.push_pop_ns_per_batch` row), which pushes and pops
//! single-threaded; the ring goes when that row is retired.
//!
//! ## Ordering contract
//!
//! * **Producer side** (`push`/`try_push`): one thread at a time. The slot
//!   write happens before the `Release` bump of the push cursor, so a
//!   consumer that observes the cursor observes the batch.
//! * **Consumer side** (`pop_batch`): one thread. The slot take happens
//!   before the `Release` bump of the pop cursor, which is what lets the
//!   producer reuse the slot.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A bounded single-producer/single-consumer ring of minibatch
/// sub-batches (see the module docs).
#[derive(Debug)]
pub struct IngestLane {
    slots: Box<[Mutex<Option<Vec<u64>>>]>,
    /// Batches fully written: bumped with `Release` *after* the slot
    /// write, only by the producer.
    pushed: AtomicU64,
    /// Batches fully taken: bumped with `Release` *after* the slot take,
    /// only by the consumer.
    popped: AtomicU64,
}

impl IngestLane {
    /// Creates a lane holding at most `capacity` in-flight batches.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "lane capacity must be at least 1");
        Self {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            pushed: AtomicU64::new(0),
            popped: AtomicU64::new(0),
        }
    }

    /// Maximum number of in-flight batches.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Batches accepted so far (the push cursor). `Acquire`: a reader
    /// that sees count `n` sees the first `n` batches.
    pub fn pushed(&self) -> u64 {
        self.pushed.load(Ordering::Acquire)
    }

    /// Batches consumed so far (the pop cursor).
    pub fn popped(&self) -> u64 {
        self.popped.load(Ordering::Acquire)
    }

    /// Batches currently in flight.
    pub fn len(&self) -> u64 {
        self.pushed()
            .saturating_sub(self.popped.load(Ordering::Acquire))
    }

    /// True when no batch is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Producer side: enqueues one sub-batch, or returns it when the ring
    /// is full. Never blocks.
    pub fn try_push(&self, batch: Vec<u64>) -> Result<(), Vec<u64>> {
        let pushed = self.pushed.load(Ordering::Relaxed);
        if pushed - self.popped.load(Ordering::Acquire) >= self.slots.len() as u64 {
            return Err(batch);
        }
        let slot = &self.slots[(pushed % self.slots.len() as u64) as usize];
        *slot.lock().expect("lane slot poisoned") = Some(batch);
        self.pushed.store(pushed + 1, Ordering::Release);
        Ok(())
    }

    /// Producer side: enqueues one sub-batch into a ring known to have
    /// room (the replay pops every batch right after pushing it). There is
    /// no blocking push; a producer that can outrun its consumer uses
    /// [`IngestLane::try_push`] and decides how to wait.
    ///
    /// # Panics
    /// Panics if the ring is full.
    pub fn push(&self, batch: Vec<u64>) {
        assert!(self.try_push(batch).is_ok(), "push into a full lane");
    }

    /// Consumer side: takes the next batch, or `None` when the ring is
    /// empty.
    pub fn pop_batch(&self) -> Option<Vec<u64>> {
        let popped = self.popped.load(Ordering::Relaxed);
        if popped >= self.pushed.load(Ordering::Acquire) {
            return None;
        }
        let slot = &self.slots[(popped % self.slots.len() as u64) as usize];
        let batch = slot
            .lock()
            .expect("lane slot poisoned")
            .take()
            .expect("published lane slot was empty");
        self.popped.store(popped + 1, Ordering::Release);
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_capacity_backpressure() {
        let lane = IngestLane::new(2);
        assert!(lane.try_push(vec![1]).is_ok());
        assert!(lane.try_push(vec![2]).is_ok());
        let back = lane.try_push(vec![3]).unwrap_err();
        assert_eq!(back, vec![3]);
        assert_eq!(lane.pop_batch(), Some(vec![1]));
        assert!(lane.try_push(vec![3]).is_ok());
        assert_eq!(lane.pop_batch(), Some(vec![2]));
        assert_eq!(lane.pop_batch(), Some(vec![3]));
        assert_eq!(lane.pop_batch(), None);
        assert!(lane.is_empty());
    }

    #[test]
    fn spsc_transfer_preserves_every_batch_in_order() {
        const BATCHES: u64 = 10_000;
        let lane = Arc::new(IngestLane::new(4));
        let producer = {
            let lane = lane.clone();
            std::thread::spawn(move || {
                for i in 0..BATCHES {
                    let mut batch = vec![i];
                    while let Err(back) = lane.try_push(batch) {
                        batch = back;
                        std::thread::yield_now();
                    }
                }
            })
        };
        let mut expect = 0u64;
        while expect < BATCHES {
            match lane.pop_batch() {
                Some(batch) => {
                    assert_eq!(batch, vec![expect]);
                    expect += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        producer.join().unwrap();
        assert!(lane.is_empty());
    }

    #[test]
    #[should_panic(expected = "full lane")]
    fn push_into_a_full_ring_panics() {
        let lane = IngestLane::new(1);
        lane.push(vec![1]);
        lane.push(vec![2]);
    }
}
