//! Minibatch buffer recycling between producers and shard workers.
//!
//! Routed ingestion moves one `Vec<u64>` per non-empty per-shard sub-batch
//! from a producer into a shard worker's queue; without recycling, every
//! minibatch costs a fresh allocation per sub-batch on the producer and a
//! deallocation on the worker — per batch, forever. A [`BufferPool`] closes
//! the loop:
//!
//! * producers [`BufferPool::checkout`] a *parts container* (`shards`
//!   buffers, one per shard), route into it, send the non-empty buffers to
//!   the workers, and [`BufferPool::checkin`] the container;
//! * each worker, after ingesting a sub-batch, clears the buffer and
//!   [`BufferPool::give_back_all`]s it — with the other sub-batches of a
//!   folded minibatch, under one lock — to its shard's **return lane**;
//!   the next `checkout` refills container slots from the lanes, so buffer
//!   capacity circulates producer → worker → producer instead of
//!   allocator → heap.
//!
//! Every pool operation uses `try_lock` and **never blocks**: under
//! momentary contention a checkout simply hands out a fresh (empty) buffer
//! and a give-back drops the buffer — recycling is an optimisation, never a
//! synchronisation point, so the pool cannot deadlock or stall the ingest
//! path. Lanes are bounded, so a burst of in-flight batches cannot pin
//! unbounded memory in the pool.
//!
//! ```
//! use psfa_stream::BufferPool;
//!
//! let pool = BufferPool::new(2, 4);
//! let mut parts = pool.checkout();
//! parts[0].extend([1, 2, 3]);
//! let routed = std::mem::take(&mut parts[0]); // sent to shard 0's worker
//! pool.checkin(parts);
//! // ... the worker finishes the batch:
//! let mut done = routed;
//! done.clear();
//! pool.give_back_all(0, [done]); // capacity returns to shard 0's lane
//! assert!(pool.checkout()[0].capacity() >= 3);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A relaxed snapshot of the pool's recycling effectiveness.
///
/// `misses` is the observability hook for the zero-alloc claim: after
/// warm-up (the first `shards × lane_capacity` checkouts necessarily
/// allocate), a steady-state miss means a fresh `Vec` allocation escaped
/// the recycling loop — exactly the silent allocation the bench shim used
/// to be the only way to see.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Checkout slots refilled from a return lane (recycled capacity).
    pub hits: u64,
    /// Checkout slots left empty (the router grows them — a fresh
    /// allocation downstream). Includes unavoidable warm-up misses.
    pub misses: u64,
    /// Give-backs dropped because the lane was full or contended.
    pub drops: u64,
}

/// One shard's return lane.
#[derive(Debug, Default)]
struct Lane {
    /// Cleared buffers, popped by the next checkout.
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
    /// Recycled parts containers (the outer `Vec` of per-shard buffers).
    containers: Mutex<Vec<Vec<Vec<u64>>>>,
    /// Buffers retained per lane, past which give-backs are dropped (plus
    /// the lane's `widest − 1`; see [`BufferPool::give_back_all`]).
    lane_capacity: usize,
    /// Checkout slots refilled with recycled capacity (relaxed telemetry).
    hits: AtomicU64,
    /// Checkout slots handed out with no capacity (a fresh allocation will
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
            containers: Mutex::new(Vec::new()),
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

    /// Hands out a parts container of `shards` empty buffers, refilling
    /// capacity-less slots from the shard return lanes. Never blocks; on
    /// lane contention the slot simply stays empty and the router grows it.
    pub fn checkout(&self) -> Vec<Vec<u64>> {
        let mut parts = match self.containers.try_lock() {
            Ok(mut containers) => containers.pop().unwrap_or_default(),
            Err(_) => Vec::new(),
        };
        parts.resize_with(self.lanes.len(), Vec::new);
        for (shard, part) in parts.iter_mut().enumerate() {
            debug_assert!(part.is_empty(), "checked-in container held items");
            if part.capacity() == 0 {
                if let Ok(mut lane) = self.lanes[shard].try_lock() {
                    if let Some(buf) = lane.buffers.pop() {
                        *part = buf;
                    }
                }
            }
            // Relaxed telemetry: a capacity-less slot is a (future) fresh
            // allocation the recycling loop failed to prevent.
            if part.capacity() == 0 {
                self.misses.fetch_add(1, Ordering::Relaxed);
            } else {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
        }
        parts
    }

    /// Returns a parts container after its non-empty buffers were sent off
    /// (their slots left behind as empty `Vec`s by `std::mem::take`).
    /// Leftover capacity in unsent slots stays with the container for the
    /// next checkout.
    pub fn checkin(&self, mut parts: Vec<Vec<u64>>) {
        for part in &mut parts {
            part.clear();
        }
        if let Ok(mut containers) = self.containers.try_lock() {
            if containers.len() < self.lane_capacity {
                containers.push(parts);
            }
        }
    }

    /// Takes one recycled buffer from `shard`'s return lane, or `None`
    /// when the lane is empty or momentarily contended. This is the
    /// per-producer scratch refill path: a producer that owns its parts
    /// container outright (instead of checking containers in and out)
    /// replaces each slot it sent to a worker with a buffer the worker
    /// previously gave back — the same capacity loop as
    /// [`BufferPool::checkout`], without sharing the container stack
    /// across producers. Counts a hit or miss like a checkout slot.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn take(&self, shard: usize) -> Option<Vec<u64>> {
        let recycled = self.lanes[shard]
            .try_lock()
            .ok()
            .and_then(|mut lane| lane.buffers.pop());
        match recycled {
            Some(buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(buf)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
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
        let mut parts = pool.checkout();
        assert_eq!(parts.len(), 2);
        parts[1].extend(0..100u64);
        let sent = std::mem::take(&mut parts[1]);
        pool.checkin(parts);
        pool.give_back_all(1, [sent]);
        assert_eq!(pool.lane_depth(1), 1);
        let refreshed = pool.checkout();
        assert!(refreshed[1].capacity() >= 100, "lane buffer was reused");
        assert!(refreshed[1].is_empty());
        assert_eq!(pool.lane_depth(1), 0);
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
        // single give-backs refill it to 5 once checkouts have drained it.
        let group: Vec<Vec<u64>> = (0..3).map(|_| Vec::with_capacity(8)).collect();
        pool.give_back_all(0, group);
        assert_eq!((pool.lane_depth(0), pool.counters().drops), (5, 4));
        for _ in 0..3 {
            assert!(pool.checkout()[0].is_empty(), "parked buffers are cleared");
        }
        for _ in 0..4 {
            pool.give_back_all(0, [Vec::with_capacity(8)]);
        }
        assert_eq!((pool.lane_depth(0), pool.counters().drops), (5, 5));
    }

    #[test]
    fn counters_expose_the_recycling_loop() {
        let pool = BufferPool::new(2, 4);
        // Cold checkout: every slot is a (warm-up) miss.
        let mut parts = pool.checkout();
        assert_eq!(
            pool.counters(),
            PoolCounters {
                hits: 0,
                misses: 2,
                drops: 0
            }
        );
        parts[0].extend(0..64u64);
        let sent = std::mem::take(&mut parts[0]);
        pool.checkin(parts);
        pool.give_back_all(0, [sent]);
        // Warm checkout: shard 0 recycles, shard 1 still misses.
        let parts = pool.checkout();
        let counters = pool.counters();
        assert_eq!((counters.hits, counters.misses), (1, 3));
        drop(parts);
    }

    #[test]
    fn take_refills_producer_owned_scratch() {
        let pool = BufferPool::new(2, 4);
        assert_eq!(pool.take(0), None); // cold lane: a miss
        pool.give_back_all(0, [Vec::with_capacity(64)]);
        let buf = pool.take(0).expect("lane buffer was reused");
        assert!(buf.capacity() >= 64);
        assert_eq!(pool.lane_depth(0), 0);
        let counters = pool.counters();
        assert_eq!((counters.hits, counters.misses), (1, 1));
    }

    #[test]
    fn checkin_scrubs_leftover_items() {
        let pool = BufferPool::new(2, 4);
        let mut parts = pool.checkout();
        parts[0].extend([9, 9, 9]);
        // Slot 0 was never sent (e.g. the routed sub-batch stayed empty
        // elsewhere); checkin must clear it before the container recycles.
        pool.checkin(parts);
        let parts = pool.checkout();
        assert!(parts.iter().all(Vec::is_empty));
    }

    #[test]
    fn concurrent_producers_and_workers_never_block() {
        let pool = std::sync::Arc::new(BufferPool::new(4, 8));
        let mut threads = Vec::new();
        for t in 0..4 {
            let pool = pool.clone();
            threads.push(std::thread::spawn(move || {
                for round in 0..500usize {
                    let mut parts = pool.checkout();
                    let shard = (t + round) % 4;
                    parts[shard].extend(0..32u64);
                    let sent = std::mem::take(&mut parts[shard]);
                    pool.checkin(parts);
                    pool.give_back_all(shard, [sent]);
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
    }
}
