//! Allocation audit of the recycled ingest hot path: after warm-up, a
//! stream of minibatches through `BufferPool::checkout` →
//! `HashRouter::partition_into` → a bounded queue, then drained from it the
//! way a shard worker does — the sub-batches already queued folded into one
//! minibatch, and for each the whole of the worker's per-minibatch body
//! (`build_hist_runs` → `InfiniteHeavyHitters::process_histogram` →
//! `PaneWindow::process_histogram` → `AtomicCountMin::ingest_histogram`) →
//! `BufferPool::give_back_all` — must perform **zero** heap allocations
//! (the histogram's probe table only grows and a shorter minibatch clears
//! a prefix of it, the MG tables are sized once for `2S` counters, the
//! cut-off selection runs in place, and every buffer is reused).
//!
//! The same holds for the client side of the wire: after warm-up,
//! `Client::ingest` of an 8,192-item frame into a loopback `Server` — the
//! encode straight from the borrowed slice into the connection's reused
//! frame buffer, the one write, the response read and decode — performs
//! **zero** heap allocations on the calling thread.
//!
//! The counting `#[global_allocator]` below is process-wide, but it counts
//! only on a thread that raised its own `AUDITED`, into that thread's own
//! counter, so the tests (and the server's threads) cannot disturb each
//! other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use psfa::prelude::*;
use psfa::primitives::build_hist_runs;

thread_local! {
    static AUDITED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn count(&self) {
        if AUDITED.try_with(Cell::get).unwrap_or(false) {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    }
}

/// Heap allocations `f` makes on the calling thread.
fn allocations_in<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.get();
    AUDITED.set(true);
    let _ = std::hint::black_box(f());
    AUDITED.set(false);
    ALLOCATIONS.get() - before
}

// SAFETY: every operation is delegated to `System` unchanged; the counter
// is a side effect only (`AUDITED` and `ALLOCATIONS` are const-initialised
// and have no destructor, so touching them never allocates).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn recycled_hot_path_allocates_nothing_at_steady_state() {
    /// Sub-batches a minibatch folds at most: the engine's publication
    /// cadence (`PUBLISH_EVERY` = 16), so the deepest fold it can make is
    /// audited — twice per pass, then a shallower tail of 8.
    const FOLD: usize = 16;
    let mut generator = ZipfGenerator::new(100_000, 1.5, 61);
    let batches: Vec<Vec<u64>> = (0..2 * FOLD + 8)
        .map(|_| generator.next_minibatch(20_000))
        .collect();

    let pool = BufferPool::new(1, batches.len() + 2);
    let router = HashRouter::new(1);
    let (queue, worker_side) = std::sync::mpsc::sync_channel::<Vec<u64>>(batches.len());
    let mut group: Vec<Vec<u64>> = Vec::new();
    let mut scratch = HistScratch::new();
    let mut hist = Vec::new();
    let mut hh = InfiniteHeavyHitters::new(0.01, 0.001);
    let mut window = PaneWindow::new(0.001, 8);
    let count_min = AtomicCountMin::new(0.0005, 0.01, 0x00C0_FFEE);
    let mut seed = 0x5eed_1357u64;
    // Allocations made by one pass of every batch through the cycle, batch
    // `short` cut to a third of its length: all of them routed and queued
    // first, then folded off the queue `FOLD` at a time.
    let mut pass = |short: Option<usize>| {
        allocations_in(|| {
            for (index, batch) in batches.iter().enumerate() {
                let batch = match short {
                    Some(short) if short == index => &batch[..batch.len() / 3],
                    _ => &batch[..],
                };
                let mut parts = pool.checkout();
                router.partition_into(batch, &mut parts);
                queue.try_send(std::mem::take(&mut parts[0])).unwrap();
                pool.checkin(parts);
            }
            while let Ok(first) = worker_side.try_recv() {
                group.push(first);
                while group.len() < FOLD {
                    match worker_side.try_recv() {
                        Ok(next) => group.push(next),
                        Err(_) => break,
                    }
                }
                seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
                build_hist_runs(&group, seed, &mut scratch, &mut hist);
                let items: u64 = group.iter().map(|sub| sub.len() as u64).sum();
                hh.process_histogram(&hist, items);
                window.process_histogram(&hist, items);
                count_min.ingest_histogram(&hist);
                pool.give_back_all(0, group.drain(..));
            }
        })
    };

    let warm_up = pass(None);
    assert!(
        warm_up > 0,
        "the counting allocator is not installed: sizing the buffers must allocate"
    );
    assert_eq!(
        pass(Some(5)),
        0,
        "the recycled, folded hot path must not allocate at steady state"
    );
}

#[test]
fn client_ingest_allocates_nothing_at_steady_state() {
    let engine = Engine::spawn(EngineConfig::with_shards(2).heavy_hitters(0.01, 0.001));
    let server = Server::spawn(engine.handle(), ServeConfig::default()).expect("server");
    let mut client = Client::connect(server.local_addr()).expect("client");
    let mut generator = ZipfGenerator::new(100_000, 1.2, 62);
    let frames: Vec<Vec<u64>> = (0..16).map(|_| generator.next_minibatch(8_192)).collect();
    let mut ingest_all = || {
        for frame in &frames {
            // Busy is backpressure, not an error: either answer is a full
            // round trip over the connection's reused buffers.
            client.ingest(frame).expect("ingest over loopback");
        }
    };

    let warm_up = allocations_in(&mut ingest_all);
    assert!(
        warm_up > 0,
        "the counting allocator is not installed: sizing the frame buffer must allocate"
    );
    assert_eq!(
        allocations_in(&mut ingest_all),
        0,
        "Client::ingest must not allocate at steady state"
    );
    server.shutdown();
    engine.shutdown().unwrap();
}
