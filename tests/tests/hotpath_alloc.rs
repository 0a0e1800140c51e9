//! Allocation audit of the recycled ingest hot path: after warm-up, one
//! minibatch through `BufferPool::checkout` → `HashRouter::partition_into`
//! → the whole of `ShardWorker::ingest`'s body (`build_hist_into` →
//! `InfiniteHeavyHitters::process_histogram` →
//! `PaneWindow::process_histogram` → `AtomicCountMin::ingest_histogram`) →
//! `BufferPool::give_back` must perform **zero** heap allocations (the
//! histogram's probe table only grows and a shorter batch clears a prefix
//! of it, the MG tables are sized once for `2S` counters, the cut-off
//! selection runs in place, and every buffer is reused).
//!
//! One `#[test]` in its own binary: the counting `#[global_allocator]`
//! below is process-wide, and it counts only on the thread that raised
//! `AUDITED`, so the test harness's own threads cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use psfa::prelude::*;
use psfa::primitives::build_hist_into;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static AUDITED: Cell<bool> = const { Cell::new(false) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn count(&self) {
        if AUDITED.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every operation is delegated to `System` unchanged; the counter
// is a side effect only (`AUDITED` is const-initialised and has no
// destructor, so reading it never allocates).
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
    let mut generator = ZipfGenerator::new(100_000, 1.5, 61);
    let batches: Vec<Vec<u64>> = (0..12).map(|_| generator.next_minibatch(20_000)).collect();

    let pool = BufferPool::new(1, 4);
    let router = HashRouter::new(1);
    let mut scratch = HistScratch::new();
    let mut hist = Vec::new();
    let mut hh = InfiniteHeavyHitters::new(0.01, 0.001);
    let mut window = PaneWindow::new(0.001, 8);
    let count_min = AtomicCountMin::new(0.0005, 0.01, 0x00C0_FFEE);
    let mut seed = 0x5eed_1357u64;
    // Allocations made by one pass of every batch through the cycle, batch
    // `short` cut to a third of its length.
    let mut pass = |short: Option<usize>| {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        AUDITED.set(true);
        for (index, batch) in batches.iter().enumerate() {
            let batch = match short {
                Some(short) if short == index => &batch[..batch.len() / 3],
                _ => &batch[..],
            };
            let mut parts = pool.checkout();
            router.partition_into(batch, &mut parts);
            let sub = std::mem::take(&mut parts[0]);
            pool.checkin(parts);
            seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            build_hist_into(&sub, seed, &mut scratch, &mut hist);
            hh.process_histogram(&hist, sub.len() as u64);
            window.process_histogram(&hist, sub.len() as u64);
            count_min.ingest_histogram(&hist);
            pool.give_back(0, sub);
        }
        AUDITED.set(false);
        ALLOCATIONS.load(Ordering::Relaxed) - before
    };

    let warm_up = pass(None);
    assert!(
        warm_up > 0,
        "the counting allocator is not installed: sizing the buffers must allocate"
    );
    assert_eq!(
        pass(Some(5)),
        0,
        "the recycled hot path must not allocate at steady state"
    );
}
