//! Boundary-aligned pane rings: the sliding-window-of-summaries substrate.
//!
//! A *pane* is the slice of a stream between two consecutive window
//! boundaries (cut by `psfa_stream::WindowFence` in the engine). A
//! [`PaneRing`] keeps the most recent `k` **sealed** panes — each carrying
//! its item count and an arbitrary per-pane summary — so that "the last `k`
//! panes" is a boundary-aligned sliding window over whatever the summaries
//! aggregate. Sealing pane `k + 1` evicts the oldest pane, which is all the
//! window maintenance there is: no per-item expiry, no timestamps inside
//! the summaries.
//!
//! The ring is deliberately generic over the summary type: `psfa-freq`
//! instantiates it with mergeable Misra–Gries summaries for sliding-window
//! frequency estimation, but any mergeable aggregate (sums, sketches,
//! distinct counters) slots in the same way.
//!
//! ```
//! use psfa_window::panes::PaneRing;
//!
//! // A 3-pane window of per-pane item sums.
//! let mut ring: PaneRing<u64> = PaneRing::new(3);
//! for pane in 1..=5u64 {
//!     ring.seal(10, pane * 100); // 10 items, summary = pane * 100
//! }
//! assert_eq!(ring.sealed_seq(), 5);
//! assert_eq!(ring.len(), 3); // panes 3, 4, 5 — 1 and 2 were evicted
//! assert_eq!(ring.window_items(), 30);
//! assert_eq!(ring.oldest_seq(), Some(3));
//! let sums: Vec<u64> = ring.panes().map(|p| p.summary).collect();
//! assert_eq!(sums, vec![300, 400, 500]);
//! ```

use std::collections::VecDeque;

/// One sealed pane: the summary of the items between two consecutive
/// window boundaries, tagged with the boundary sequence that sealed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pane<T> {
    /// Sequence number of the boundary that sealed this pane (1-based;
    /// pane `t` covers the items between boundaries `t − 1` and `t`).
    pub seq: u64,
    /// Number of items the summary covers.
    pub items: u64,
    /// The per-pane summary.
    pub summary: T,
}

/// A bounded ring of the most recent sealed panes (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaneRing<T> {
    capacity: usize,
    /// Sealed panes, oldest first; sequence numbers are consecutive and
    /// end at `sealed`.
    panes: VecDeque<Pane<T>>,
    /// Sequence number of the newest sealed pane (`0` before the first).
    sealed: u64,
}

impl<T> PaneRing<T> {
    /// Creates an empty ring keeping at most `capacity` sealed panes.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "a pane ring needs at least one pane");
        Self {
            capacity,
            panes: VecDeque::with_capacity(capacity),
            sealed: 0,
        }
    }

    /// Rebuilds a ring from previously sealed panes (oldest first), e.g.
    /// decoded from a persisted snapshot. Returns `None` if the panes are
    /// not consecutively numbered, exceed `capacity`, or contain `seq 0`.
    pub fn restore(capacity: usize, panes: Vec<Pane<T>>) -> Option<Self> {
        if capacity == 0 || panes.len() > capacity {
            return None;
        }
        for pair in panes.windows(2) {
            if pair[1].seq != pair[0].seq + 1 {
                return None;
            }
        }
        if panes.first().is_some_and(|p| p.seq == 0) {
            return None;
        }
        let sealed = panes.last().map_or(0, |p| p.seq);
        Some(Self {
            capacity,
            panes: panes.into(),
            sealed,
        })
    }

    /// Maximum number of sealed panes retained (`k`).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of sealed panes currently held (`≤ capacity`).
    pub fn len(&self) -> usize {
        self.panes.len()
    }

    /// True before the first pane is sealed.
    pub fn is_empty(&self) -> bool {
        self.panes.is_empty()
    }

    /// Sequence number of the newest sealed pane (`0` before the first).
    pub fn sealed_seq(&self) -> u64 {
        self.sealed
    }

    /// Sequence number of the oldest retained pane.
    pub fn oldest_seq(&self) -> Option<u64> {
        self.panes.front().map(|p| p.seq)
    }

    /// Total items covered by the retained panes — the item count of the
    /// boundary-aligned window.
    pub fn window_items(&self) -> u64 {
        self.panes.iter().map(|p| p.items).sum()
    }

    /// Seals one pane, evicting the oldest if the ring is full, and
    /// returns the new pane's sequence number.
    pub fn seal(&mut self, items: u64, summary: T) -> u64 {
        self.sealed += 1;
        if self.panes.len() == self.capacity {
            self.panes.pop_front();
        }
        self.panes.push_back(Pane {
            seq: self.sealed,
            items,
            summary,
        });
        self.sealed
    }

    /// Iterates the retained panes, oldest first.
    pub fn panes(&self) -> impl Iterator<Item = &Pane<T>> {
        self.panes.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sealing_evicts_beyond_capacity() {
        let mut ring: PaneRing<&str> = PaneRing::new(2);
        assert!(ring.is_empty());
        assert_eq!(ring.seal(5, "a"), 1);
        assert_eq!(ring.seal(7, "b"), 2);
        assert_eq!(ring.seal(9, "c"), 3);
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.window_items(), 16);
        assert_eq!(ring.oldest_seq(), Some(2));
        assert_eq!(ring.sealed_seq(), 3);
        let kept: Vec<&str> = ring.panes().map(|p| p.summary).collect();
        assert_eq!(kept, vec!["b", "c"]);
    }

    #[test]
    fn restore_validates_consecutive_sequences() {
        let pane = |seq| Pane {
            seq,
            items: 1,
            summary: (),
        };
        let ring = PaneRing::restore(3, vec![pane(4), pane(5)]).expect("valid");
        assert_eq!(ring.sealed_seq(), 5);
        assert_eq!(ring.len(), 2);
        assert!(PaneRing::restore(3, vec![pane(4), pane(6)]).is_none());
        assert!(PaneRing::restore(1, vec![pane(1), pane(2)]).is_none());
        assert!(PaneRing::restore(2, vec![pane(0)]).is_none());
        assert!(PaneRing::restore(0, Vec::<Pane<()>>::new()).is_none());
        let empty = PaneRing::<()>::restore(2, Vec::new()).expect("empty ok");
        assert_eq!(empty.sealed_seq(), 0);
    }

    #[test]
    fn restored_ring_continues_the_sequence() {
        let ring = PaneRing::restore(
            2,
            vec![Pane {
                seq: 9,
                items: 3,
                summary: 'x',
            }],
        )
        .unwrap();
        let mut ring = ring;
        assert_eq!(ring.seal(4, 'y'), 10);
        assert_eq!(ring.oldest_seq(), Some(9));
    }
}
