//! Boundary-aligned sliding-window frequency estimation across shards.
//!
//! The estimators in [`crate::sliding_work`] & friends answer over the last
//! `n` items *of the substream they observe*. Under a sharded engine that
//! is not the paper's query: shard substreams advance at different rates
//! (wildly so under skew routing), so "the last `n` items of each shard"
//! is not a consistent global window. This module provides the
//! window-aligned alternative the engine uses:
//!
//! * the global stream is divided into **panes** — the items between two
//!   consecutive window boundaries, cut shard-consistently by
//!   `psfa_stream::WindowFence` (every pane covers the same set of
//!   accepted minibatches on every shard);
//! * each shard keeps a [`PaneWindow`]: one `ε`-accurate Misra–Gries
//!   summary (stored as shared, immutable sorted `(item, estimate)`
//!   entries) per sealed pane in a bounded [`psfa_window::PaneRing`], plus
//!   one more
//!   [`MgSummary`] for the open pane's traffic so far. Sealing at a
//!   boundary sums the last `k` pane summaries per key into a
//!   [`SealedWindow`] — the shard's view of the boundary-aligned window;
//! * a cross-shard query combines every shard's [`SealedWindow`] *at the
//!   same boundary* into a [`GlobalWindow`] by summing per-key estimates.
//!
//! ## The `ε·n_W` accounting
//!
//! Let the aligned window `W` cover panes `t−k+1 … t` and `n_W` items in
//! total, with shard `s` holding `m_{s,j}` items of pane `j` (the panes
//! partition `W`: `Σ_{s,j} m_{s,j} = n_W`). Each sealed pane summary is an
//! `ε`-accurate Misra–Gries summary of its `m_{s,j}` items — the open
//! pane is an [`MgSummary`] of `S` counters that every minibatch of the
//! pane is merged into with `MGaugment`, exactly as the infinite-window
//! tracker does, so every subtract-`ϕ` event removes at least `ϕ·(S+1)`
//! counted mass and the total deduction stays below
//! `m_{s,j}/(S+1) ≤ ε·m_{s,j}` (Lemma 5.1's accounting); sealing just
//! freezes it. Pane estimates are therefore *one-sided*:
//! `f_j − ε·m_{s,j} ≤ f̂_j ≤ f_j`. Summing one-sided estimates per key —
//! across the window's panes and then across shards (every occurrence
//! lands on exactly one shard's panes) — keeps them one-sided, and the
//! deductions add up to at most `Σ_{s,j} ε·m_{s,j} = ε·n_W`:
//!
//! ```text
//! f − ε·n_W  ≤  f̂  ≤  f        over the aligned window W
//! ```
//!
//! which is the paper's sliding-window guarantee with the *global* window
//! length in the error term — independent of how traffic was routed. This
//! is the same query-time summing that cross-shard point queries use (the
//! mergeable-summaries argument); no re-pruning is needed, so a sealed
//! window holds at most `k·S` entries and sealing is pure sorted-vector
//! merging — no hashing, no selection.
//!
//! The open pane costs what the tracker costs: per minibatch `p` table
//! probes (`p` = distinct items), `O(S)` table writes, and at most one
//! selection over the live counters and the misses that can survive — in
//! a batch wider than `S` an untracked key seen once is only counted, and
//! when no more than `S` values exceed 1 the cut is `ϕ = 1` with no
//! selection at all (see [`MgSummary::augment`]) — and never more than `S`
//! counters of state. A
//! boundary costs an `O(S log S)` sort of the open summary plus an
//! `O(k·S·log k)` merge of sorted pane entries — paid per `slide` items, not
//! per minibatch.
//!
//! ```
//! use psfa_freq::windowed::{GlobalWindow, PaneWindow};
//!
//! // Two shards, a 2-pane window.
//! let mut a = PaneWindow::new(0.1, 2);
//! let mut b = PaneWindow::new(0.1, 2);
//! // Pane 1: key 7 split unevenly across the shards.
//! a.process_minibatch(&[7; 30]);
//! b.process_minibatch(&[7; 10]);
//! let (a1, b1) = (a.seal(), b.seal());
//! let w = GlobalWindow::merge([&a1, &b1]).expect("aligned");
//! assert_eq!((w.seq(), w.items(), w.estimate(7)), (1, 40, 40));
//! // Two panes later, pane 1 has slid out of the window entirely.
//! a.process_minibatch(&[8; 5]);
//! let (a2, b2) = (a.seal(), b.seal());
//! let (a3, b3) = (a.seal(), b.seal());
//! let w = GlobalWindow::merge([&a3, &b3]).expect("aligned");
//! assert_eq!((w.items(), w.estimate(7), w.estimate(8)), (5, 0, 5));
//! // Windows from different boundaries refuse to merge.
//! assert!(GlobalWindow::merge([&a2, &b3]).is_none());
//! ```

use std::sync::Arc;

use psfa_primitives::codec::{put_header, ByteReader, ByteWriter, CodecError};
use psfa_primitives::{build_hist, HistogramEntry};
use psfa_window::{Pane, PaneRing};

use crate::heavy_hitters::{heavy_hitter_report, HeavyHitter};
use crate::summary::MgSummary;

/// Type tag for encoded pane windows (see `psfa_primitives::codec`).
const TAG: u8 = 0x09;
const VERSION: u8 = 1;

/// One sealed pane's summary: at most `S` `(item, estimate)` entries,
/// ascending by item. One-sided for the pane's items. A sealed pane never
/// changes, so copies of the ring share its entries.
type PaneEntries = Arc<[(u64, u64)]>;

/// Sums two `(item, value)` runs sorted ascending by item into one sorted
/// run, adding the values of keys present in both (a linear sorted merge).
///
/// This is the mergeable-summaries primitive in its cheapest form: pane
/// sealing uses it to combine per-pane summaries, [`GlobalWindow::merge`]
/// to combine per-shard windows, and the engine's cross-shard
/// `heavy_hitters` to sum per-shard snapshot entries by key without hashing.
pub fn merge_sum(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((a[i].0, a[i].1 + b[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// One shard's boundary-aligned sliding-window state: a Misra–Gries
/// summary of the open pane's traffic plus a ring of the last `k` sealed
/// per-pane summaries (see the module docs).
#[derive(Debug, Clone)]
pub struct PaneWindow {
    epsilon: f64,
    /// Sealed panes, each an `ε`-summary of its pane's items.
    ring: PaneRing<PaneEntries>,
    /// Items in the open pane (exact, cut-offs do not change it).
    open_items: u64,
    /// The open pane: `S = ⌈1/ε⌉` counters, one-sided for `open_items`.
    open: MgSummary,
}

impl PartialEq for PaneWindow {
    fn eq(&self, other: &Self) -> bool {
        self.epsilon.to_bits() == other.epsilon.to_bits()
            && self.ring == other.ring
            && self.open_items == other.open_items
            && self.open == other.open
    }
}

impl PaneWindow {
    /// Creates a window of `panes` panes with per-summary error `ε`.
    ///
    /// # Panics
    /// Panics if `epsilon` is not in `(0, 1)` or `panes == 0`.
    pub fn new(epsilon: f64, panes: usize) -> Self {
        Self::resume(epsilon, PaneRing::new(panes))
    }

    /// Creates a window over the sealed panes of `ring` with an empty open
    /// pane: the next seal produces boundary `ring.sealed_seq() + 1`. A
    /// supervisor restarting a shard worker passes the ring its last
    /// published snapshot carries ([`PaneWindow::sealed_panes`]), so the
    /// rebuilt window keeps both the sealed panes and the engine-wide
    /// boundary numbering.
    ///
    /// # Panics
    /// Panics if `epsilon` is not in `(0, 1)`.
    pub fn resume(epsilon: f64, ring: PaneRing<Arc<[(u64, u64)]>>) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0, 1)");
        Self {
            epsilon,
            ring,
            open_items: 0,
            open: MgSummary::new((1.0 / epsilon).ceil() as usize),
        }
    }

    /// The sealed panes, oldest first. Cloning the ring allocates one
    /// `VecDeque` and bumps one pointer per pane: sealed entries are
    /// shared, never copied.
    pub fn sealed_panes(&self) -> &PaneRing<Arc<[(u64, u64)]>> {
        &self.ring
    }

    /// The per-summary error parameter ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The window width in panes (`k`).
    pub fn panes(&self) -> usize {
        self.ring.capacity()
    }

    /// Sequence number of the last boundary sealed into this window
    /// (`0` before the first).
    pub fn sealed_seq(&self) -> u64 {
        self.ring.sealed_seq()
    }

    /// Items in the open (not yet sealed) pane.
    pub fn open_items(&self) -> u64 {
        self.open_items
    }

    /// Items covered by the sealed window (this shard's `m_{s,W}`).
    pub fn window_items(&self) -> u64 {
        self.ring.window_items()
    }

    /// Adds one minibatch to the open pane: `buildHist`, then
    /// [`PaneWindow::process_histogram`].
    pub fn process_minibatch(&mut self, minibatch: &[u64]) {
        if minibatch.is_empty() {
            return;
        }
        // A fresh histogram hash per batch, derived from the stream
        // position so the window carries no extra state for it.
        let seed = (self.ring.sealed_seq() << 40) ^ self.open_items;
        let histogram = build_hist(minibatch, seed);
        self.process_histogram(&histogram, minibatch.len() as u64);
    }

    /// Adds one minibatch to the open pane given its precomputed frequency
    /// histogram (`items` = the minibatch length): the engine shares one
    /// `buildHist` pass between this and the infinite-window tracker, and
    /// the open pane then costs one `MGaugment` ([`MgSummary::augment`]).
    pub fn process_histogram(&mut self, histogram: &[HistogramEntry], items: u64) {
        debug_assert_eq!(
            histogram.iter().map(|e| e.count).sum::<u64>(),
            items,
            "histogram does not cover the declared item count"
        );
        self.open.augment(histogram);
        self.open_items += items;
    }

    /// Seals the open pane at a window boundary: its summary (already at
    /// most `S` counters) enters the ring as sorted entries (evicting the
    /// pane that slid out of the window), a fresh open pane starts, and
    /// the shard's new [`SealedWindow`] is returned.
    /// `O(S log S + k·S·log k)` work — off the per-item hot path, paid once
    /// per boundary.
    pub fn seal(&mut self) -> SealedWindow {
        let entries: PaneEntries = self.open.entries_sorted().into();
        self.open.clear();
        self.ring.seal(self.open_items, entries);
        self.open_items = 0;
        self.sealed_window()
            .expect("ring is non-empty immediately after sealing")
    }

    /// The shard's view of the boundary-aligned window: the last `≤ k`
    /// sealed pane summaries summed per key (each pane is one-sided for
    /// its own items, so the sum underestimates the covered `m_{s,W}`
    /// items by at most `ε·m_{s,W}` and never overestimates — the
    /// mergeable-summaries accounting, applied across panes). `None`
    /// before the first boundary. Pure sorted-vector merging, as a
    /// balanced merge tree over the pane runs: `O(k·S·log k)`.
    pub fn sealed_window(&self) -> Option<SealedWindow> {
        let panes: Vec<&[(u64, u64)]> = self.ring.panes().map(|p| &p.summary[..]).collect();
        if panes.is_empty() {
            return None;
        }
        // Merge pairs level by level so every entry is copied O(log k)
        // times, not once per remaining pane.
        let mut runs = merge_level(&panes);
        while runs.len() > 1 {
            runs = merge_level(&runs);
        }
        Some(SealedWindow {
            seq: self.ring.sealed_seq(),
            items: self.ring.window_items(),
            entries: runs.pop().expect("one merged run remains"),
        })
    }

    /// Canonical binary encoding, appended to `w` (deterministic bytes;
    /// panes are written oldest first, open-pane counters ascending).
    pub fn encode_into(&self, w: &mut ByteWriter) {
        put_header(w, TAG, VERSION);
        w.put_f64(self.epsilon);
        w.put_u32(self.ring.capacity() as u32);
        w.put_u64(self.open_items);
        let open = self.open.entries_sorted();
        w.put_u32(open.len() as u32);
        for (item, count) in open {
            w.put_u64(item);
            w.put_u64(count);
        }
        w.put_u32(self.ring.len() as u32);
        for pane in self.ring.panes() {
            w.put_u64(pane.seq);
            w.put_u64(pane.items);
            w.put_u32(pane.summary.len() as u32);
            for &(item, estimate) in pane.summary.iter() {
                w.put_u64(item);
                w.put_u64(estimate);
            }
        }
    }

    /// Canonical binary encoding as an owned buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Decodes a window previously written by [`PaneWindow::encode_into`],
    /// validating every structural invariant (never panics on corrupted
    /// input): like every sealed pane, the open pane holds at most
    /// `S = ⌈1/ε⌉` counters.
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.expect_header(TAG, VERSION)?;
        let epsilon = r.get_f64()?;
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(CodecError::Invalid("pane window: epsilon not in (0, 1)"));
        }
        let capacity = (1.0 / epsilon).ceil() as usize;
        let panes = r.get_u32()? as usize;
        if panes == 0 {
            return Err(CodecError::Invalid("pane window: zero panes"));
        }
        let open_items = r.get_u64()?;
        let open_len = r.get_len(16)?;
        if open_len > capacity {
            return Err(CodecError::Invalid(
                "pane window: open pane holds more counters than the summary capacity",
            ));
        }
        let mut open_counts = Vec::with_capacity(open_len);
        let mut open_total = 0u64;
        let mut prev: Option<u64> = None;
        for _ in 0..open_len {
            let item = r.get_u64()?;
            let count = r.get_u64()?;
            if count == 0 {
                return Err(CodecError::Invalid("pane window: zero open counter"));
            }
            if prev.is_some_and(|p| p >= item) {
                return Err(CodecError::Invalid(
                    "pane window: open counters must be strictly ascending",
                ));
            }
            prev = Some(item);
            open_total = open_total
                .checked_add(count)
                .ok_or(CodecError::Invalid("pane window: open counters overflow"))?;
            open_counts.push(HistogramEntry { item, count });
        }
        if open_total > open_items {
            return Err(CodecError::Invalid(
                "pane window: open counters exceed the open item count",
            ));
        }
        let len = r.get_len(24)?;
        if len > panes {
            return Err(CodecError::Invalid(
                "pane window: more sealed panes than the capacity",
            ));
        }
        let mut sealed = Vec::with_capacity(len);
        for _ in 0..len {
            let seq = r.get_u64()?;
            let items = r.get_u64()?;
            let entry_count = r.get_len(16)?;
            if entry_count > capacity {
                return Err(CodecError::Invalid(
                    "pane window: pane holds more entries than the summary capacity",
                ));
            }
            let mut summary = Vec::with_capacity(entry_count);
            let mut prev_item: Option<u64> = None;
            for _ in 0..entry_count {
                let item = r.get_u64()?;
                let estimate = r.get_u64()?;
                if estimate == 0 {
                    return Err(CodecError::Invalid("pane window: zero pane estimate"));
                }
                if prev_item.is_some_and(|p| p >= item) {
                    return Err(CodecError::Invalid(
                        "pane window: pane entries must be strictly ascending",
                    ));
                }
                prev_item = Some(item);
                summary.push((item, estimate));
            }
            sealed.push(Pane {
                seq,
                items,
                summary: summary.into(),
            });
        }
        let ring = PaneRing::restore(panes, sealed).ok_or(CodecError::Invalid(
            "pane window: pane sequence inconsistent",
        ))?;
        Ok(Self {
            epsilon,
            ring,
            open_items,
            open: MgSummary::from_decoded(capacity, &open_counts),
        })
    }

    /// Decodes a window from a standalone buffer produced by
    /// [`PaneWindow::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        let out = Self::decode_from(&mut r)?;
        r.expect_end()?;
        Ok(out)
    }
}

/// One level of a balanced merge tree: `runs` summed pairwise, an odd run
/// out copied as it is.
fn merge_level(runs: &[impl AsRef<[(u64, u64)]>]) -> Vec<Vec<(u64, u64)>> {
    runs.chunks(2)
        .map(|pair| match pair {
            [a, b] => merge_sum(a.as_ref(), b.as_ref()),
            [a] => a.as_ref().to_vec(),
            _ => unreachable!("chunks of two"),
        })
        .collect()
}

/// One shard's merged summary of the boundary-aligned window, frozen at a
/// boundary: the unit cross-shard window queries combine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedWindow {
    /// The boundary this window is aligned to.
    pub seq: u64,
    /// Items the window covers on this shard (`m_{s,W}`).
    pub items: u64,
    /// `(item, estimate)` pairs, ascending by item; estimates are
    /// one-sided: `f − ε·m_{s,W} ≤ f̂ ≤ f` over the shard's window items.
    pub entries: Vec<(u64, u64)>,
}

/// The estimate `entries` (ascending by item) holds for `item`; `0` when
/// it is not tracked.
fn lookup(entries: &[(u64, u64)], item: u64) -> u64 {
    entries
        .binary_search_by_key(&item, |&(i, _)| i)
        .map_or(0, |at| entries[at].1)
}

impl SealedWindow {
    /// This shard's window estimate for `item` (`0` when untracked).
    pub fn estimate(&self, item: u64) -> u64 {
        lookup(&self.entries, item)
    }
}

/// The globally consistent sliding window at one aligned boundary: every
/// shard's [`SealedWindow`] for the same boundary, merged by summing
/// per-key estimates (see the module docs for the `ε·n_W` bound).
#[derive(Debug, Clone)]
pub struct GlobalWindow {
    seq: u64,
    items: u64,
    /// `(item, estimate)` pairs, ascending by item, like the per-shard
    /// windows they were summed from.
    entries: Vec<(u64, u64)>,
}

impl GlobalWindow {
    /// Merges per-shard sealed windows taken at the same boundary.
    /// Returns `None` if the iterator is empty or the windows are not
    /// aligned to one boundary (their `seq`s differ) — merging misaligned
    /// windows would double- or under-count sliding panes.
    ///
    /// A sorted merge per shard ([`merge_sum`]): linear in the entries, no
    /// hashing and no table to size, so what a merge costs follows the
    /// number of entries and nothing else.
    pub fn merge<'a>(shards: impl IntoIterator<Item = &'a SealedWindow>) -> Option<Self> {
        let mut shards = shards.into_iter();
        let first = shards.next()?;
        let mut merged = Self {
            seq: first.seq,
            items: first.items,
            entries: first.entries.clone(),
        };
        for shard in shards {
            if shard.seq != merged.seq {
                return None;
            }
            merged.items += shard.items;
            merged.entries = merge_sum(&merged.entries, &shard.entries);
        }
        Some(merged)
    }

    /// The boundary this window is aligned to.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Total items the window covers across shards (`n_W`).
    pub fn items(&self) -> u64 {
        self.items
    }

    /// One-sided window-frequency estimate for `item`:
    /// `f − ε·n_W ≤ f̂ ≤ f` over the aligned window.
    pub fn estimate(&self, item: u64) -> u64 {
        lookup(&self.entries, item)
    }

    /// The φ-heavy hitters of the aligned window, most frequent first:
    /// every item with window frequency `≥ φ·n_W` is reported, and no item
    /// with window frequency `< (φ − ε)·n_W` is.
    pub fn heavy_hitters(&self, phi: f64, epsilon: f64) -> Vec<HeavyHitter> {
        heavy_hitter_report(self.entries.iter().copied(), phi, epsilon, self.items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, VecDeque};

    /// Deterministic pseudo-random stream with a skewed head.
    fn stream(seed: u64, len: usize) -> Vec<u64> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = state >> 33;
                if r.is_multiple_of(2) {
                    r % 6
                } else {
                    r % 5_000
                }
            })
            .collect()
    }

    #[test]
    fn aligned_window_keeps_the_one_sided_epsilon_nw_bound() {
        // Two shards, round-robin routed (maximal interleaving), 4 panes of
        // 1000 items each; check the bound at every boundary. With
        // ε = 0.02 ⇒ S = 50, the per-shard panes (~500 items, hundreds of
        // distinct keys) overflow the open summary many times over.
        let epsilon = 0.02;
        let panes = 4usize;
        let pane_items = 1000usize;
        let mut shards = [
            PaneWindow::new(epsilon, panes),
            PaneWindow::new(epsilon, panes),
        ];
        let mut history: VecDeque<u64> = VecDeque::new();
        let data = stream(99, pane_items * 10);
        for (boundary, pane) in data.chunks(pane_items).enumerate() {
            for (i, &x) in pane.iter().enumerate() {
                shards[i % 2].process_minibatch(&[x]);
                history.push_back(x);
            }
            while history.len() > pane_items * panes {
                history.pop_front();
            }
            let sealed: Vec<SealedWindow> = shards.iter_mut().map(|s| s.seal()).collect();
            let window = GlobalWindow::merge(sealed.iter()).expect("aligned");
            assert_eq!(window.seq(), boundary as u64 + 1);
            assert_eq!(window.items() as usize, history.len());
            let mut truth: HashMap<u64, u64> = HashMap::new();
            for &x in &history {
                *truth.entry(x).or_insert(0) += 1;
            }
            let slack = (epsilon * window.items() as f64).ceil() as u64;
            for (&item, &f) in &truth {
                let est = window.estimate(item);
                assert!(est <= f, "estimate {est} above window truth {f}");
                assert!(
                    est + slack >= f,
                    "estimate {est} under window truth {f} by more than ε·n_W = {slack}"
                );
            }
        }
    }

    #[test]
    fn batch_and_histogram_paths_agree() {
        // The engine feeds precomputed histograms; library users feed raw
        // minibatches. Both must produce identical state.
        let mut by_batch = PaneWindow::new(0.05, 3);
        let mut by_hist = PaneWindow::new(0.05, 3);
        for chunk in stream(5, 3_000).chunks(500) {
            by_batch.process_minibatch(chunk);
            let mut counts: HashMap<u64, u64> = HashMap::new();
            for &x in chunk {
                *counts.entry(x).or_insert(0) += 1;
            }
            let hist: Vec<HistogramEntry> = counts
                .into_iter()
                .map(|(item, count)| HistogramEntry { item, count })
                .collect();
            by_hist.process_histogram(&hist, chunk.len() as u64);
            // `MGaugment` does not depend on the histogram's entry order.
            assert_eq!(by_batch, by_hist);
        }
        assert_eq!(by_batch.seal(), by_hist.seal());
    }

    #[test]
    fn distinct_heavy_panes_seal_within_epsilon_m_pane_and_never_overestimate() {
        // Every batch brings p > 4S distinct keys (S = 20, ~380 distinct of
        // 400 items): the regime in which the open pane is cut on every
        // batch. Three recurring keys carry the signal.
        let epsilon = 0.05;
        let capacity = 20usize;
        let mut shard = PaneWindow::new(epsilon, 2);
        let mut fresh = 1_000_000u64;
        for pane in 0..4u64 {
            let mut truth: HashMap<u64, u64> = HashMap::new();
            let mut m_pane = 0u64;
            for batch in 0..6u64 {
                let mut items: Vec<u64> = (0..380)
                    .map(|_| {
                        fresh += 1;
                        fresh
                    })
                    .collect();
                for (key, copies) in [(1u64, 10 + pane), (2, 6), (3, 4 + batch % 2)] {
                    items.extend(std::iter::repeat_n(key, copies as usize));
                }
                let mut counts: HashMap<u64, u64> = HashMap::new();
                for &x in &items {
                    *counts.entry(x).or_insert(0) += 1;
                    *truth.entry(x).or_insert(0) += 1;
                }
                assert!(counts.len() > 4 * capacity);
                let hist: Vec<HistogramEntry> = counts
                    .into_iter()
                    .map(|(item, count)| HistogramEntry { item, count })
                    .collect();
                shard.process_histogram(&hist, items.len() as u64);
                m_pane += items.len() as u64;
            }
            shard.seal();
            let sealed = shard.ring.panes().last().expect("just sealed");
            assert_eq!(sealed.items, m_pane);
            assert!(sealed.summary.len() <= capacity);
            let slack = (epsilon * m_pane as f64).floor() as u64;
            let estimate = |item: u64| {
                sealed
                    .summary
                    .binary_search_by_key(&item, |&(i, _)| i)
                    .map_or(0, |at| sealed.summary[at].1)
            };
            for (&item, &f) in &truth {
                let est = estimate(item);
                assert!(est <= f, "pane {pane}: estimate {est} above truth {f}");
                assert!(
                    est + slack >= f,
                    "pane {pane}: estimate {est} under truth {f} by more than ε·m_pane = {slack}"
                );
            }
            assert!(estimate(1) > 0, "the recurring key must survive every cut");
        }
    }

    #[test]
    fn decode_accepts_an_open_pane_of_s_counters_and_refuses_s_plus_1() {
        // ε = 0.1 ⇒ S = 10 open counters at most.
        let encode = |open_len: u64| {
            let mut w = ByteWriter::new();
            put_header(&mut w, TAG, VERSION);
            w.put_f64(0.1);
            w.put_u32(2);
            w.put_u64(open_len);
            w.put_u32(open_len as u32);
            for item in 0..open_len {
                w.put_u64(item);
                w.put_u64(1);
            }
            w.put_u32(0); // no sealed panes
            w.into_bytes()
        };
        let decoded = PaneWindow::decode(&encode(10)).expect("S counters");
        assert_eq!(decoded.open.len(), 10);
        assert_eq!(decoded.encode(), encode(10));
        assert!(matches!(
            PaneWindow::decode(&encode(11)),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn window_heavy_hitters_respect_the_phi_bands() {
        let epsilon = 0.01;
        let phi = 0.2;
        let mut shard = PaneWindow::new(epsilon, 3);
        // Three panes; the heavy key dominates only the last two.
        shard.process_minibatch(&stream(7, 2_000));
        shard.seal();
        for _ in 0..2 {
            let mut pane: Vec<u64> = stream(8, 1_000);
            pane.extend(std::iter::repeat_n(77_777u64, 1_000));
            shard.process_minibatch(&pane);
            shard.seal();
        }
        let sealed = shard.sealed_window().unwrap();
        let window = GlobalWindow::merge([&sealed]).unwrap();
        assert_eq!(window.items(), 6_000);
        let hh = window.heavy_hitters(phi, epsilon);
        // 2000/6000 = 33% ≥ φ: must be reported, and first.
        assert_eq!(hh.first().map(|h| h.item), Some(77_777));
        for h in &hh {
            assert!(
                window.estimate(h.item) as f64 >= (phi - epsilon) * window.items() as f64,
                "reported item below the (φ−ε)·n_W line"
            );
        }
    }

    #[test]
    fn panes_slide_out_after_k_boundaries() {
        let mut shard = PaneWindow::new(0.1, 2);
        shard.process_minibatch(&[1; 50]);
        let w1 = shard.seal();
        assert_eq!((w1.seq, w1.items, w1.estimate(1)), (1, 50, 50));
        shard.process_minibatch(&[2; 30]);
        let w2 = shard.seal();
        assert_eq!((w2.seq, w2.items), (2, 80));
        // Boundary 3 evicts pane 1: key 1 is gone from the window.
        let w3 = shard.seal();
        assert_eq!(
            (w3.seq, w3.items, w3.estimate(1), w3.estimate(2)),
            (3, 30, 0, 30)
        );
        // An empty pane is legal (quiet slide interval).
        assert_eq!(shard.open_items(), 0);
        assert_eq!(shard.window_items(), 30);
    }

    #[test]
    fn codec_roundtrip_is_exact_and_continues_identically() {
        let mut original = PaneWindow::new(0.05, 3);
        for chunk in stream(21, 4_000).chunks(700) {
            original.process_minibatch(chunk);
            if original.open_items() > 1_000 {
                original.seal();
            }
        }
        let bytes = original.encode();
        let decoded = PaneWindow::decode(&bytes).expect("roundtrip");
        assert_eq!(decoded, original);
        assert_eq!(decoded.encode(), bytes, "deterministic bytes");
        assert_eq!(decoded.sealed_window(), original.sealed_window());
        // Continuation: both process the future identically.
        let mut a = original.clone();
        let mut b = decoded;
        for chunk in stream(22, 2_000).chunks(500) {
            a.process_minibatch(chunk);
            b.process_minibatch(chunk);
            a.seal();
            b.seal();
        }
        assert_eq!(a, b);
        // Truncations are typed errors, never panics.
        for cut in (0..bytes.len()).step_by(11) {
            assert!(PaneWindow::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn misaligned_or_empty_merges_are_refused() {
        assert!(GlobalWindow::merge(std::iter::empty()).is_none());
        let mut a = PaneWindow::new(0.1, 2);
        let mut b = PaneWindow::new(0.1, 2);
        a.process_minibatch(&[1; 10]);
        let a1 = a.seal();
        b.process_minibatch(&[2; 10]);
        let b1 = b.seal();
        let b2 = b.seal();
        assert!(GlobalWindow::merge([&a1, &b1]).is_some());
        assert!(GlobalWindow::merge([&a1, &b2]).is_none(), "seq mismatch");
    }
}
