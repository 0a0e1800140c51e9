//! Minibatch buffer recycling between producers and shard workers.
//!
//! Routed ingestion moves one `Vec<u64>` per non-empty per-shard sub-batch
//! from a producer into a shard worker's queue; without recycling, every
//! minibatch costs a fresh allocation per sub-batch on the producer and a
//! deallocation on the worker — per batch, forever. A [`BufferPool`] closes
//! the loop:
//!
//! * every ingest endpoint keeps its routing scratch — one buffer per
//!   shard — across calls; before routing it [`BufferPool::refill`]s each
//!   slot whose buffer it sent off last time, from that shard's return
//!   lane, routes into the scratch and sends the non-empty buffers to the
//!   workers;
//! * each worker, after ingesting a sub-batch, clears the buffer and
//!   [`BufferPool::give_back_all`]s it — with the other sub-batches of a
//!   folded minibatch, under one lock — to its shard's **return lane**, so
//!   buffer capacity circulates producer → worker → producer instead of
//!   allocator → heap.
//!
//! Every pool operation uses `try_lock` and **never blocks**: under
//! momentary contention a refill simply leaves the slot empty (the router
//! grows it) and a give-back drops the buffer — recycling is an
//! optimisation, never a synchronisation point, so the pool cannot
//! deadlock or stall the ingest path. Lanes are bounded, so a burst of
//! in-flight batches cannot pin unbounded memory in the pool.
//!
//! ```
//! use psfa_stream::BufferPool;
//!
//! let pool = BufferPool::new(2, 4);
//! let mut scratch = vec![Vec::new(), Vec::new()];
//! pool.refill(&mut scratch);
//! scratch[0].extend([1, 2, 3]);
//! let routed = std::mem::take(&mut scratch[0]); // sent to shard 0's worker
//! // ... the worker finishes the batch:
//! pool.give_back_all(0, [routed]); // capacity returns to shard 0's lane
//! pool.refill(&mut scratch);
//! assert!(scratch[0].capacity() >= 3 && scratch[0].is_empty());
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A relaxed snapshot of the pool's recycling effectiveness.
///
/// `misses` is the observability hook for the zero-alloc claim: after
/// warm-up (the first refill of every slot necessarily allocates), a
/// steady-state miss means a fresh `Vec` allocation escaped the recycling
/// loop — exactly the silent allocation the bench shim used to be the only
/// way to see.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Refilled slots that hold capacity (recycled or kept from the last
    /// call).
    pub hits: u64,
    /// Refilled slots left empty (the router grows them — a fresh
    /// allocation downstream). Includes unavoidable warm-up misses.
    pub misses: u64,
    /// Give-backs dropped because the lane was full or contended.
    pub drops: u64,
}

/// One shard's return lane.
#[derive(Debug, Default)]
struct Lane {
    /// Cleared buffers, popped by the next refill.
    buffers: Vec<Vec<u64>>,
    /// The most buffers one give-back has returned here — the width of the
    /// widest folded minibatch; the lane retains one less than that past
    /// the pool's bound.
    widest: usize,
}

/// Recycles routed sub-batch buffers between producers and shard workers
/// (see the module docs).
#[derive(Debug)]
pub struct BufferPool {
    /// Per-shard return lanes of cleared buffers, filled by workers.
    lanes: Vec<Mutex<Lane>>,
    /// Buffers retained per lane, past which give-backs are dropped (plus
    /// the lane's `widest − 1`; see [`BufferPool::give_back_all`]).
    lane_capacity: usize,
    /// Refilled slots that hold capacity (relaxed telemetry).
    hits: AtomicU64,
    /// Refilled slots left with no capacity (a fresh allocation will
    /// happen downstream when the router grows the buffer).
    misses: AtomicU64,
    /// Give-backs dropped on lane contention or a full lane.
    drops: AtomicU64,
}

impl BufferPool {
    /// Creates a pool for `shards` shards retaining at most `lane_capacity`
    /// buffers per shard lane, plus one less than the widest group given
    /// back to it (a sensible value is the engine's per-shard queue
    /// capacity plus a small slack — more buffers than that can never be in
    /// flight at once).
    ///
    /// # Panics
    /// Panics if `shards == 0` or `lane_capacity == 0`.
    pub fn new(shards: usize, lane_capacity: usize) -> Self {
        assert!(shards > 0, "BufferPool: shards must be non-zero");
        assert!(
            lane_capacity > 0,
            "BufferPool: lane capacity must be non-zero"
        );
        Self {
            lanes: (0..shards).map(|_| Mutex::default()).collect(),
            lane_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            drops: AtomicU64::new(0),
        }
    }

    /// Number of shards the pool recycles for.
    pub fn shards(&self) -> usize {
        self.lanes.len()
    }

    /// Refills an endpoint's routing scratch (one buffer per shard, kept
    /// across calls): each slot with no capacity — its buffer was sent to
    /// a worker — takes a buffer from that shard's return lane, and every
    /// slot counts one hit (it holds capacity) or one miss. Never blocks;
    /// on lane contention the slot simply stays empty and the router grows
    /// it.
    ///
    /// # Panics
    /// Panics if `scratch` has more slots than the pool has shards.
    pub fn refill(&self, scratch: &mut [Vec<u64>]) {
        let mut hits = 0;
        for (lane, slot) in self.lanes[..scratch.len()].iter().zip(scratch.iter_mut()) {
            if slot.capacity() == 0 {
                if let Some(buffer) = lane.try_lock().ok().and_then(|mut l| l.buffers.pop()) {
                    *slot = buffer;
                }
            }
            hits += u64::from(slot.capacity() > 0);
        }
        // Relaxed telemetry, two updates per call at most: a capacity-less
        // slot is a (future) fresh allocation the loop failed to prevent.
        let misses = scratch.len() as u64 - hits;
        if hits > 0 {
            self.hits.fetch_add(hits, Ordering::Relaxed);
        }
        if misses > 0 {
            self.misses.fetch_add(misses, Ordering::Relaxed);
        }
    }

    /// Returns finished sub-batch buffers — the buffers of a folded
    /// minibatch, or just one — to `shard`'s lane (worker side), under one
    /// lane lock. The buffers' contents are discarded; their capacity is
    /// what circulates. A lane retains at most the pool's bound plus one
    /// less than the most buffers a single give-back has returned to it:
    /// a shard that folds keeps room for its widest group, one that never
    /// folds no more than the bound. Never blocks — on contention every
    /// buffer is dropped, and past a full lane the rest.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn give_back_all<I>(&self, shard: usize, buffers: I)
    where
        I: IntoIterator<Item = Vec<u64>>,
        I::IntoIter: ExactSizeIterator,
    {
        let buffers = buffers.into_iter();
        let mut lane = self.lanes[shard].try_lock().ok();
        let bound = lane.as_mut().map_or(0, |lane| {
            lane.widest = lane.widest.max(buffers.len());
            self.lane_capacity + lane.widest.saturating_sub(1)
        });
        let mut dropped = 0;
        for mut buffer in buffers {
            buffer.clear();
            if buffer.capacity() == 0 {
                continue;
            }
            match &mut lane {
                Some(lane) if lane.buffers.len() < bound => lane.buffers.push(buffer),
                _ => dropped += 1,
            }
        }
        if dropped > 0 {
            self.drops.fetch_add(dropped, Ordering::Relaxed);
        }
    }

    /// Buffers currently parked in `shard`'s return lane (tests, metrics).
    pub fn lane_depth(&self, shard: usize) -> usize {
        self.lanes[shard]
            .try_lock()
            .map_or(0, |lane| lane.buffers.len())
    }

    /// Snapshot of the hit/miss/drop counters (relaxed reads; exact for
    /// operations that happened-before the call).
    pub fn counters(&self) -> PoolCounters {
        PoolCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            drops: self.drops.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_circulates_through_the_lanes() {
        let pool = BufferPool::new(2, 4);
        let mut scratch = vec![Vec::new(), Vec::new()];
        pool.refill(&mut scratch);
        scratch[1].extend(0..100u64);
        let sent = std::mem::take(&mut scratch[1]);
        pool.give_back_all(1, [sent]);
        assert_eq!(pool.lane_depth(1), 1);
        pool.refill(&mut scratch);
        assert!(scratch[1].capacity() >= 100, "lane buffer was reused");
        assert!(scratch[1].is_empty());
        assert_eq!(pool.lane_depth(1), 0);
        // A slot that kept its buffer (nothing was sent from it) is left
        // alone, leftover items included: routing clears it.
        pool.give_back_all(1, [Vec::with_capacity(8)]);
        scratch[1].push(7);
        let kept = scratch[1].as_ptr();
        pool.refill(&mut scratch);
        assert_eq!((scratch[1].as_ptr(), scratch[1].len()), (kept, 1));
        assert_eq!(pool.lane_depth(1), 1);
    }

    #[test]
    fn lanes_are_bounded() {
        let pool = BufferPool::new(1, 2);
        for _ in 0..5 {
            pool.give_back_all(0, [Vec::with_capacity(8)]);
        }
        assert_eq!(pool.lane_depth(0), 2);
        assert_eq!(pool.counters().drops, 3);
        // Capacity-less buffers are not worth parking (and not a "drop" —
        // there was no capacity to lose).
        let pool = BufferPool::new(1, 2);
        pool.give_back_all(0, [Vec::new()]);
        assert_eq!(pool.lane_depth(0), 0);
        assert_eq!(pool.counters().drops, 0);
    }

    #[test]
    fn a_lane_keeps_room_for_the_widest_group_given_back() {
        let pool = BufferPool::new(1, 2);
        for _ in 0..3 {
            pool.give_back_all(0, [Vec::with_capacity(8)]);
        }
        assert_eq!((pool.lane_depth(0), pool.counters().drops), (2, 1));
        // A group of four on a full lane widens it to 2 + 3, so its three
        // buffers with capacity are parked (the capacity-less one is no
        // drop) ...
        let group = vec![
            Vec::with_capacity(8),
            Vec::new(),
            vec![1, 2, 3],
            Vec::with_capacity(8),
        ];
        pool.give_back_all(0, group);
        assert_eq!((pool.lane_depth(0), pool.counters().drops), (5, 1));
        // ... and stays that wide: a narrower group finds it full, and
        // single give-backs refill it to 5 once refills have drained it.
        let group: Vec<Vec<u64>> = (0..3).map(|_| Vec::with_capacity(8)).collect();
        pool.give_back_all(0, group);
        assert_eq!((pool.lane_depth(0), pool.counters().drops), (5, 4));
        for _ in 0..3 {
            let mut scratch = [Vec::new()];
            pool.refill(&mut scratch);
            assert!(scratch[0].is_empty(), "parked buffers are cleared");
        }
        for _ in 0..4 {
            pool.give_back_all(0, [Vec::with_capacity(8)]);
        }
        assert_eq!((pool.lane_depth(0), pool.counters().drops), (5, 5));
    }

    #[test]
    fn counters_expose_the_recycling_loop() {
        let pool = BufferPool::new(2, 4);
        // Cold refill: every slot is a (warm-up) miss.
        let mut scratch = vec![Vec::new(), Vec::new()];
        pool.refill(&mut scratch);
        assert_eq!(
            pool.counters(),
            PoolCounters {
                hits: 0,
                misses: 2,
                drops: 0
            }
        );
        scratch[0].extend(0..64u64);
        let sent = std::mem::take(&mut scratch[0]);
        pool.give_back_all(0, [sent]);
        // Warm refill: shard 0 recycles, shard 1 still misses.
        pool.refill(&mut scratch);
        let counters = pool.counters();
        assert_eq!((counters.hits, counters.misses), (1, 3));
        // A slot that keeps its capacity counts a hit without touching
        // its lane; a refill of an empty lane is a miss.
        pool.refill(&mut scratch);
        let counters = pool.counters();
        assert_eq!((counters.hits, counters.misses), (2, 4));
    }

    #[test]
    fn concurrent_producers_and_workers_never_block() {
        let pool = std::sync::Arc::new(BufferPool::new(4, 8));
        let mut threads = Vec::new();
        for t in 0..4 {
            let pool = pool.clone();
            threads.push(std::thread::spawn(move || {
                let mut scratch = vec![Vec::new(); 4];
                for round in 0..500usize {
                    pool.refill(&mut scratch);
                    let shard = (t + round) % 4;
                    scratch[shard].extend(0..32u64);
                    let sent = std::mem::take(&mut scratch[shard]);
                    pool.give_back_all(shard, [sent]);
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        let counters = pool.counters();
        assert_eq!(counters.hits + counters.misses, 4 * 500 * 4);
    }
}
