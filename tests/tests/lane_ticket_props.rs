//! Property tests for the multi-producer ingest building blocks: the
//! batched window-fence tickets ([`WindowFence::claim`]) and the bounded
//! SPSC ring ([`IngestLane`]) the benchmark's layer replay still times.
//!
//! Two ordering properties, checked on arbitrary inputs:
//!
//! 1. **Tickets tile the stream.** Any interleaving of per-producer
//!    position claims partitions `0..n` exactly — no gap, no overlap —
//!    and window boundaries are sealed exactly once each, with 1-based
//!    consecutive sequence numbers, at multiples of the slide. The `due`
//!    hint is sound: when a claim reports `due = false`, skipping the
//!    poll strands nothing.
//! 2. **The ring is a bounded FIFO.** It never reorders or loses
//!    batches and refuses a push exactly at capacity — matching a plain
//!    queue reference model on any operation sequence.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use psfa::stream::{BatchClaim, IngestFence, IngestLane, WindowFence};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Concurrent producers claim arbitrary batch sizes; the claims must
    /// tile `0..n` exactly and every crossed boundary must be sealed
    /// exactly once, in order, no matter how the threads interleave.
    #[test]
    fn concurrent_claims_tile_the_stream(
        per_producer in prop::collection::vec(
            prop::collection::vec(1u64..64, 1..32),
            1..5,
        ),
        slide in 1u64..97,
    ) {
        let fence = Arc::new(IngestFence::new());
        let window = Arc::new(WindowFence::new(fence.clone(), slide));
        let sealed = Arc::new(Mutex::new(Vec::<u64>::new()));
        let n: u64 = per_producer.iter().flatten().sum();

        let mut per_thread: Vec<Vec<BatchClaim>> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for sizes in &per_producer {
                let fence = &fence;
                let window = &window;
                let sealed = &sealed;
                handles.push(scope.spawn(move || {
                    let mut claims = Vec::with_capacity(sizes.len());
                    for &items in sizes {
                        let guard = fence.enter().expect("fence closed");
                        let claim = window.claim(&guard, items);
                        drop(guard);
                        if claim.due {
                            window.poll_cut(|seq| {
                                sealed.lock().expect("seal log poisoned").push(seq);
                            });
                        }
                        claims.push(claim);
                    }
                    claims
                }));
            }
            per_thread = handles
                .into_iter()
                .map(|h| h.join().expect("producer panicked"))
                .collect();
        });

        // Each producer's claims come back in program order, so their
        // positions are strictly increasing.
        for claims in &per_thread {
            for w in claims.windows(2) {
                prop_assert!(w[0].end() <= w[1].first, "per-producer claims overlap");
            }
        }

        // All claims together tile 0..n with no gap or overlap.
        let mut all: Vec<BatchClaim> = per_thread.into_iter().flatten().collect();
        all.sort_by_key(|c| c.first);
        let mut expect = 0u64;
        for claim in &all {
            prop_assert_eq!(claim.first, expect, "gap or overlap in the tiling");
            expect = claim.end();
        }
        prop_assert_eq!(expect, n, "claims do not cover the stream");
        prop_assert_eq!(window.ticket(), n);

        // Every crossed boundary was sealed exactly once, in order: the
        // sequence numbers are consecutive from 1, and the count matches
        // the number of slide multiples the clock crossed.
        let sealed = sealed.lock().expect("seal log poisoned");
        let want: Vec<u64> = (1..=n / slide).collect();
        prop_assert_eq!(&*sealed, &want, "boundaries sealed out of order or twice");
        prop_assert_eq!(window.boundaries(), n / slide);
    }

    /// The `due` hint is sound and complete on a single producer: when it
    /// says `false`, the poll finds nothing; either way, the boundary
    /// count always equals the slide multiples crossed so far.
    #[test]
    fn due_hint_never_strands_a_boundary(
        sizes in prop::collection::vec(1u64..200, 0..200),
        slide in 1u64..64,
    ) {
        let fence = Arc::new(IngestFence::new());
        let window = WindowFence::new(fence.clone(), slide);
        let mut sealed = Vec::new();
        let mut accepted = 0u64;
        for &items in &sizes {
            let guard = fence.enter().expect("fence closed");
            let claim = window.claim(&guard, items);
            drop(guard);
            prop_assert_eq!(claim.first, accepted);
            accepted += items;
            prop_assert_eq!(claim.end(), accepted);
            let cut = window.poll_cut(|seq| sealed.push(seq));
            if !claim.due {
                prop_assert_eq!(cut, 0, "due = false but a boundary was pending");
            }
            prop_assert_eq!(window.boundaries(), accepted / slide);
        }
        let want: Vec<u64> = (1..=accepted / slide).collect();
        prop_assert_eq!(sealed, want);
        prop_assert_eq!(window.ticket(), accepted);
    }

    /// An [`IngestLane`] matches a plain queue reference model on any
    /// sequence of push / pop operations: FIFO order, exact backpressure
    /// at capacity, nothing lost.
    #[test]
    fn lane_matches_reference_model(
        capacity in 1usize..8,
        ops in prop::collection::vec(0u8..2, 1..300),
    ) {
        let lane = IngestLane::new(capacity);
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut next_batch = 0u64;
        for &op in &ops {
            if op == 0 {
                let result = lane.try_push(vec![next_batch]);
                if model.len() < capacity {
                    prop_assert!(result.is_ok(), "push refused below capacity");
                    model.push_back(next_batch);
                    next_batch += 1;
                } else {
                    prop_assert_eq!(
                        result.expect_err("push accepted at capacity"),
                        vec![next_batch],
                    );
                }
            } else {
                prop_assert_eq!(lane.pop_batch(), model.pop_front().map(|b| vec![b]));
            }
            prop_assert_eq!(lane.len(), model.len() as u64);
            prop_assert_eq!(lane.pushed(), next_batch);
            prop_assert_eq!(lane.popped(), next_batch - model.len() as u64);
        }
        // Drain what is left: everything comes out, in order.
        while let Some(want) = model.pop_front() {
            prop_assert_eq!(lane.pop_batch(), Some(vec![want]));
        }
        prop_assert_eq!(lane.pop_batch(), None);
        prop_assert!(lane.is_empty());
    }
}
