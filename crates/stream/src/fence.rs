//! Epoch fencing: consistent cuts of a concurrently ingested stream.
//!
//! A sharded engine accepts minibatches from many producer threads at once,
//! and each accepted minibatch is split into per-shard sub-batches that are
//! enqueued one shard at a time. For persistence — and for window
//! alignment — a marker must be **cut consistently across shards**: the set
//! of minibatches ordered before the marker must be exactly the set
//! accepted before some single point in time — never "shard 0 saw batch B
//! but shard 1 did not".
//!
//! [`IngestFence`] provides that point. Every producer holds a shared
//! [`IngestGuard`] across *all* of a minibatch's per-shard enqueues; a cut
//! ([`IngestFence::cut_with`]) takes the exclusive side of the same lock, so
//! it serialises strictly between whole minibatches. Work performed inside
//! the cut closure (such as enqueueing snapshot markers onto every shard's
//! FIFO queue) therefore lands at the *same stream position on every shard*:
//! after every sub-batch of each previously accepted minibatch and before
//! every sub-batch of each later one.
//!
//! The fence also carries the engine's closed flag, giving graceful
//! shutdown the same all-or-nothing guarantee with respect to in-flight
//! ingests (a batch is either fully accepted before the close or cleanly
//! rejected after it).
//!
//! ## Window alignment
//!
//! [`WindowFence`] layers a **logical item clock** on the same ordering
//! primitive, turning the cut mechanism into *window-aligned barriers*: the
//! foundation of cross-shard sliding windows. Every accepted item draws a
//! position from a shared atomic ticket ([`WindowFence::claim`], called
//! while the [`IngestGuard`] is held, so positions and queue order agree);
//! whenever the ticket crosses a multiple of the configured `slide`,
//! [`WindowFence::poll_cut`] takes one exclusive cut and invokes the caller
//! per crossed boundary. Because the boundary work runs inside
//! [`IngestFence::cut_with`], a boundary marker enqueued there lands at the
//! same stream position on every shard — so the items between two
//! consecutive boundaries (one *pane*) partition the global stream
//! identically from every shard's point of view, which is exactly what a
//! globally consistent sliding window needs.
//!
//! ```
//! use std::sync::Arc;
//! use psfa_stream::{IngestFence, WindowFence};
//!
//! let fence = Arc::new(IngestFence::new());
//! // One pane boundary every 1000 logical items.
//! let windows = WindowFence::new(fence.clone(), 1000);
//!
//! let mut boundaries = Vec::new();
//! for _ in 0..5 {
//!     let guard = fence.enter().expect("open");
//!     // ... enqueue the minibatch's per-shard sub-batches here ...
//!     windows.claim(&guard, 600); // 600 items accepted under this guard
//!     drop(guard);
//!     windows.poll_cut(|seq| boundaries.push(seq));
//! }
//! // 3000 items ⇒ boundaries 1, 2 and 3 were cut, in order.
//! assert_eq!(boundaries, vec![1, 2, 3]);
//! assert_eq!(windows.boundaries(), 3);
//! assert_eq!(windows.ticket(), 3000);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};

#[derive(Debug, Default)]
struct FenceState {
    /// Number of cuts performed so far.
    cuts: u64,
    /// True once the stream is closed; `enter` then refuses new work.
    closed: bool,
}

/// A reader–writer fence ordering whole minibatches against snapshot cuts
/// and shutdown (see the module docs).
#[derive(Debug, Default)]
pub struct IngestFence {
    state: RwLock<FenceState>,
}

/// Proof that the holder may enqueue one minibatch: cuts and close wait for
/// every outstanding guard, and no new guard is issued during a cut.
#[derive(Debug)]
pub struct IngestGuard<'a> {
    _guard: RwLockReadGuard<'a, FenceState>,
}

impl IngestFence {
    /// Creates an open fence with no cuts performed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enters the fenced region for one minibatch, or returns `None` if the
    /// stream is closed. Hold the guard across every per-shard enqueue of
    /// the minibatch.
    pub fn enter(&self) -> Option<IngestGuard<'_>> {
        let guard = self.state.read().expect("ingest fence poisoned");
        if guard.closed {
            return None;
        }
        Some(IngestGuard { _guard: guard })
    }

    /// Performs one consistent cut: waits for every in-flight minibatch,
    /// excludes new ones, then runs `f` with the (1-based) cut number.
    /// Whatever `f` enqueues is ordered after all previously accepted
    /// minibatches and before all later ones, on every shard.
    ///
    /// The cut itself does not care whether the stream is closed — a final
    /// snapshot after [`IngestFence::close`] is legitimate (the engine's
    /// workers are still draining their queues at that point).
    pub fn cut_with<R>(&self, f: impl FnOnce(u64) -> R) -> R {
        let mut state = self.state.write().expect("ingest fence poisoned");
        state.cuts += 1;
        f(state.cuts)
    }

    /// Number of cuts performed so far.
    pub fn cuts(&self) -> u64 {
        self.state.read().expect("ingest fence poisoned").cuts
    }

    /// Closes the stream: waits for every in-flight minibatch, then makes
    /// every later [`IngestFence::enter`] return `None`.
    pub fn close(&self) {
        self.state.write().expect("ingest fence poisoned").closed = true;
    }
}

/// The state of a [`WindowFence`] at one instant: the logical clock and the
/// boundary bookkeeping needed to resume it exactly (crash recovery).
///
/// A consistent reading requires the fence's exclusive side — take it via
/// [`IngestFence::cut_with`] (see [`WindowFence::state`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowFenceState {
    /// Logical items accepted so far (the ticket).
    pub ticket: u64,
    /// Window boundaries cut so far (the sequence number of the latest).
    /// Boundaries land at consecutive multiples of the slide, so the next
    /// boundary's position is always `(boundaries + 1) · slide` — no
    /// separate field to keep consistent.
    pub boundaries: u64,
}

/// One producer's batched claim of logical stream positions
/// (see [`WindowFence::claim`]): the half-open range
/// `[first, first + items)` plus the boundary-crossing hint.
///
/// Claims made under the fence partition the stream exactly: over any set
/// of claims totalling `n` items, the ranges tile `0..n` with no gap or
/// overlap, regardless of interleaving (the fetch-add hands out each
/// position exactly once).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchClaim {
    /// First logical position claimed (0-based).
    pub first: u64,
    /// Number of positions claimed.
    pub items: u64,
    /// True when the claimant must call [`WindowFence::poll_cut`] after
    /// releasing its guard: a boundary at or below `first + items` may not
    /// have been sealed yet. False guarantees no boundary is stranded.
    pub due: bool,
}

impl BatchClaim {
    /// One past the last position claimed (`first + items`).
    pub fn end(&self) -> u64 {
        self.first + self.items
    }
}

/// A logical item clock that cuts shard-consistent *window boundaries*
/// every `slide` items, built on an [`IngestFence`] (see the module docs).
///
/// Producers call [`WindowFence::claim`] with the number of items they
/// accepted **while holding their [`IngestGuard`]**, then
/// [`WindowFence::poll_cut`] after releasing it (when the claim is due). The fast path of
/// `poll_cut` is two atomic loads; only the producer that observes the
/// clock crossing a boundary pays for the exclusive cut.
#[derive(Debug)]
pub struct WindowFence {
    fence: Arc<IngestFence>,
    slide: u64,
    /// Logical positions handed out: the number of items accepted so far.
    ticket: AtomicU64,
    /// Ticket position of the next boundary. Only mutated under the
    /// fence's exclusive side.
    next_boundary: AtomicU64,
    /// Boundaries cut so far. Only mutated under the exclusive side.
    boundaries: AtomicU64,
}

impl WindowFence {
    /// Creates a window fence cutting a boundary every `slide` items,
    /// sharing `fence` with the ingest path it orders against.
    ///
    /// # Panics
    /// Panics if `slide == 0`.
    pub fn new(fence: Arc<IngestFence>, slide: u64) -> Self {
        assert!(slide >= 1, "window slide must be at least 1");
        Self {
            fence,
            slide,
            ticket: AtomicU64::new(0),
            next_boundary: AtomicU64::new(slide),
            boundaries: AtomicU64::new(0),
        }
    }

    /// Rebuilds a window fence from a persisted [`WindowFenceState`]
    /// (crash recovery): the clock resumes exactly where the snapshot cut
    /// it, so pane boundaries keep landing at the same logical positions.
    ///
    /// # Panics
    /// Panics if `slide == 0` or the next boundary position
    /// (`(boundaries + 1) · slide`) overflows. The ticket may legitimately
    /// sit past the next boundary: a crossing that was recorded but not
    /// yet polled when the state was captured is simply cut on the first
    /// poll after resuming.
    pub fn resume(fence: Arc<IngestFence>, slide: u64, state: WindowFenceState) -> Self {
        assert!(slide >= 1, "window slide must be at least 1");
        let next_boundary = state
            .boundaries
            .checked_add(1)
            .and_then(|b| b.checked_mul(slide))
            .expect("window fence state: next boundary position overflows");
        Self {
            fence,
            slide,
            ticket: AtomicU64::new(state.ticket),
            next_boundary: AtomicU64::new(next_boundary),
            boundaries: AtomicU64::new(state.boundaries),
        }
    }

    /// The boundary spacing in logical items (the window *slide*).
    pub fn slide(&self) -> u64 {
        self.slide
    }

    /// Logical items accepted so far. Racy by nature; for a consistent
    /// reading use [`WindowFence::state`] under an exclusive cut.
    pub fn ticket(&self) -> u64 {
        self.ticket.load(Ordering::Acquire)
    }

    /// Window boundaries cut so far (the latest boundary's sequence
    /// number; `0` before the first boundary).
    pub fn boundaries(&self) -> u64 {
        self.boundaries.load(Ordering::Acquire)
    }

    /// Advances the logical clock by `items` positions, claimed in **one**
    /// fetch-add. The caller must hold the [`IngestGuard`] it used for the
    /// enqueues being counted — passing it in is the proof — so that a
    /// concurrent cut orders either strictly before both the enqueues and
    /// the clock advance, or strictly after both. Returns the claimed range
    /// and whether the claimant *may* have crossed a pane boundary and must
    /// call [`WindowFence::poll_cut`] after dropping its guard.
    ///
    /// Compared with an unconditional poll after every claim, a
    /// non-crossing producer touches the shared ticket cache line exactly
    /// once (the fetch-add it must pay anyway) plus one load of the
    /// read-mostly `next_boundary` line — it never re-reads the contended
    /// ticket line the way `poll_cut`'s fast path does. With many producers
    /// claiming concurrently that re-read is the serialising traffic.
    ///
    /// Correctness of the `due` hint: `due` is computed as
    /// `first + items ≥ next_boundary`, with `next_boundary` loaded *after*
    /// the fetch-add. If it returns `false`, then at load time every
    /// boundary at or below `first + items` had already been sealed
    /// (`next_boundary` only advances past a boundary after sealing it
    /// under the exclusive cut), so skipping the poll never strands a
    /// boundary. If it returns `true` the poll may still find nothing to
    /// cut — a racing claimant got there first — which `poll_cut` resolves
    /// under the exclusive side, cutting each boundary exactly once. The
    /// comparison uses the claim's *end* position, so a boundary left
    /// pending by [`WindowFence::resume`] (ticket already past
    /// `next_boundary`) is also reported due.
    pub fn claim(&self, _proof: &IngestGuard<'_>, items: u64) -> BatchClaim {
        let first = self.ticket.fetch_add(items, Ordering::AcqRel);
        let due = first + items >= self.next_boundary.load(Ordering::Acquire);
        BatchClaim { first, items, due }
    }

    /// Cuts every boundary the clock has crossed, invoking `seal` with each
    /// boundary's (1-based) sequence number from inside the exclusive cut —
    /// whatever `seal` enqueues lands at the same stream position on every
    /// shard. Returns the number of boundaries cut (usually 0: the fast
    /// path is two atomic loads and no locking).
    ///
    /// Call *after* releasing the guard passed to [`WindowFence::claim`];
    /// polling while holding it would deadlock (the cut waits for every
    /// outstanding guard). Racing producers may both observe the crossing —
    /// the re-check under the exclusive side cuts each boundary exactly
    /// once, whichever producer gets there first. `seal` runs under the
    /// exclusive side, so if it waits (e.g. for space on a bounded marker
    /// queue), producers wait with it; consumers that drain those queues
    /// without taking the fence keep such waits bounded by their own
    /// progress — never a deadlock.
    pub fn poll_cut(&self, mut seal: impl FnMut(u64)) -> u64 {
        if self.ticket.load(Ordering::Acquire) < self.next_boundary.load(Ordering::Acquire) {
            return 0;
        }
        self.fence.cut_with(|_| {
            // Exclusive: every in-flight minibatch (and its ticket
            // increment) has completed, and no new one can start.
            let ticket = self.ticket.load(Ordering::Acquire);
            let mut next = self.next_boundary.load(Ordering::Acquire);
            let mut seq = self.boundaries.load(Ordering::Acquire);
            let mut cut = 0u64;
            while ticket >= next {
                seq += 1;
                cut += 1;
                seal(seq);
                next += self.slide;
            }
            self.boundaries.store(seq, Ordering::Release);
            self.next_boundary.store(next, Ordering::Release);
            cut
        })
    }

    /// Reads the full clock state. Consistent only from inside the
    /// exclusive side of the underlying [`IngestFence`] (e.g. within the
    /// same [`IngestFence::cut_with`] closure that snapshots the shards);
    /// from anywhere else the two fields may be mutually torn.
    pub fn state(&self) -> WindowFenceState {
        WindowFenceState {
            ticket: self.ticket.load(Ordering::Acquire),
            boundaries: self.boundaries.load(Ordering::Acquire),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enter_refused_after_close() {
        let fence = IngestFence::new();
        assert!(fence.enter().is_some());
        fence.close();
        assert!(fence.enter().is_none());
        assert!(fence.enter().is_none(), "closing is for good");
    }

    #[test]
    fn cuts_are_numbered_and_counted() {
        let fence = IngestFence::new();
        assert_eq!(fence.cut_with(|n| n), 1);
        assert_eq!(fence.cut_with(|n| n), 2);
        assert_eq!(fence.cuts(), 2);
        // Cutting a closed fence still works (final snapshot at shutdown).
        fence.close();
        assert_eq!(fence.cut_with(|n| n), 3);
    }

    #[test]
    fn cut_excludes_concurrent_enters() {
        // Producers spin entering the fence and bumping a counter twice per
        // guard; a cut must never observe an odd counter (i.e. a half-done
        // "minibatch").
        let fence = Arc::new(IngestFence::new());
        let counter = Arc::new(AtomicU64::new(0));
        let mut producers = Vec::new();
        for _ in 0..4 {
            let fence = fence.clone();
            let counter = counter.clone();
            producers.push(std::thread::spawn(move || {
                while let Some(_guard) = fence.enter() {
                    counter.fetch_add(1, Ordering::SeqCst);
                    std::thread::yield_now();
                    counter.fetch_add(1, Ordering::SeqCst);
                }
            }));
        }
        for _ in 0..50 {
            let seen = fence.cut_with(|_| counter.load(Ordering::SeqCst));
            assert_eq!(seen % 2, 0, "cut observed a half-ingested minibatch");
        }
        fence.close();
        for p in producers {
            p.join().unwrap();
        }
    }

    #[test]
    fn window_fence_cuts_every_crossed_boundary_in_order() {
        let fence = Arc::new(IngestFence::new());
        let windows = WindowFence::new(fence.clone(), 100);
        let mut seqs = Vec::new();
        // 70 items: no boundary yet.
        let guard = fence.enter().unwrap();
        windows.claim(&guard, 70);
        drop(guard);
        assert_eq!(windows.poll_cut(|s| seqs.push(s)), 0);
        // A giant batch crosses three boundaries at once.
        let guard = fence.enter().unwrap();
        windows.claim(&guard, 290);
        drop(guard);
        assert_eq!(windows.poll_cut(|s| seqs.push(s)), 3);
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(windows.boundaries(), 3);
        assert_eq!(windows.ticket(), 360);
        // Polling again without new items is free and cuts nothing.
        assert_eq!(windows.poll_cut(|_| panic!("no boundary due")), 0);
    }

    #[test]
    fn window_fence_boundaries_are_cut_exactly_once_under_contention() {
        let fence = Arc::new(IngestFence::new());
        let windows = Arc::new(WindowFence::new(fence.clone(), 64));
        let cuts = Arc::new(AtomicU64::new(0));
        let mut producers = Vec::new();
        for _ in 0..4 {
            let fence = fence.clone();
            let windows = windows.clone();
            let cuts = cuts.clone();
            producers.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let guard = fence.enter().expect("open");
                    windows.claim(&guard, 16);
                    drop(guard);
                    windows.poll_cut(|_| {
                        cuts.fetch_add(1, Ordering::SeqCst);
                    });
                }
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        // 4 × 500 × 16 = 32000 items at slide 64 ⇒ exactly 500 boundaries,
        // no matter how the producers raced.
        assert_eq!(cuts.load(Ordering::SeqCst), 500);
        assert_eq!(windows.boundaries(), 500);
    }

    #[test]
    fn batched_claims_partition_the_stream_and_flag_crossings() {
        let fence = Arc::new(IngestFence::new());
        let windows = WindowFence::new(fence.clone(), 100);
        let guard = fence.enter().unwrap();
        let a = windows.claim(&guard, 60);
        assert_eq!((a.first, a.end(), a.due), (0, 60, false));
        let b = windows.claim(&guard, 60);
        // Crosses position 100: the claimant must poll.
        assert_eq!((b.first, b.end(), b.due), (60, 120, true));
        drop(guard);
        assert_eq!(windows.poll_cut(|_| {}), 1);
        // After the seal, a non-crossing claim is not due.
        let guard = fence.enter().unwrap();
        let c = windows.claim(&guard, 10);
        assert_eq!((c.first, c.due), (120, false));
        // A claim that lands exactly on a boundary is due.
        let d = windows.claim(&guard, 70);
        assert_eq!((d.end(), d.due), (200, true));
        drop(guard);
        assert_eq!(windows.poll_cut(|_| {}), 1);
    }

    #[test]
    fn skipping_not_due_claims_never_strands_a_boundary() {
        // Producers poll ONLY when their claim says due; every boundary
        // must still be sealed exactly once.
        let fence = Arc::new(IngestFence::new());
        let windows = Arc::new(WindowFence::new(fence.clone(), 64));
        let cuts = Arc::new(AtomicU64::new(0));
        let mut producers = Vec::new();
        for p in 0..4u64 {
            let fence = fence.clone();
            let windows = windows.clone();
            let cuts = cuts.clone();
            producers.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let items = 1 + (p * 500 + i) % 31; // uneven batches
                    let guard = fence.enter().expect("open");
                    let claim = windows.claim(&guard, items);
                    drop(guard);
                    if claim.due {
                        windows.poll_cut(|_| {
                            cuts.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                }
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        let total = windows.ticket();
        assert_eq!(windows.boundaries(), total / 64);
        assert_eq!(cuts.load(Ordering::SeqCst), total / 64);
    }

    #[test]
    fn resumed_fence_reports_pending_boundary_due() {
        // A crossing recorded but not polled before the snapshot: after
        // resume, the very next claim (even of 1 item) must say due.
        let state = WindowFenceState {
            ticket: 130,
            boundaries: 1, // boundary 2 at position 100 is pending
        };
        let fence = Arc::new(IngestFence::new());
        let resumed = WindowFence::resume(fence.clone(), 50, state);
        let guard = fence.enter().unwrap();
        let claim = resumed.claim(&guard, 1);
        assert!(claim.due, "pending pre-resume boundary must be reported");
        drop(guard);
        let mut seqs = Vec::new();
        resumed.poll_cut(|s| seqs.push(s));
        assert_eq!(seqs, vec![2]);
    }

    #[test]
    fn window_fence_resumes_from_persisted_state() {
        let fence = Arc::new(IngestFence::new());
        let windows = WindowFence::new(fence.clone(), 50);
        let guard = fence.enter().unwrap();
        windows.claim(&guard, 120);
        drop(guard);
        windows.poll_cut(|_| {});
        let state = windows.state();
        assert_eq!(
            state,
            WindowFenceState {
                ticket: 120,
                boundaries: 2,
            }
        );
        // Resume on a fresh fence: the next boundary lands where the
        // original clock would have put it.
        let fence2 = Arc::new(IngestFence::new());
        let resumed = WindowFence::resume(fence2.clone(), 50, state);
        let guard = fence2.enter().unwrap();
        resumed.claim(&guard, 30);
        drop(guard);
        let mut seqs = Vec::new();
        resumed.poll_cut(|s| seqs.push(s));
        assert_eq!(seqs, vec![3]);
        assert_eq!(resumed.ticket(), 150);
    }
}
