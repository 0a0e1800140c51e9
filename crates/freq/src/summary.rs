//! The Misra–Gries summary and the parallel `MGaugment` merge (Lemma 5.3).
//!
//! An MG summary of capacity `S = ⌈1/ε⌉` stores at most `S` items with
//! counters. The classic sequential algorithm processes one element at a
//! time; the paper's parallel algorithm instead merges the summary with the
//! *histogram of a whole minibatch* in one shot:
//!
//! 1. add corresponding counters of the summary and the histogram;
//! 2. find the cut-off `ϕ` such that at most `S` combined counters exceed it
//!    (a rank-selection problem, [`psfa_primitives::phi_cutoff`]);
//! 3. subtract `ϕ` from every counter and keep the strictly positive ones.
//!
//! Subtracting `ϕ` is equivalent to `ϕ` rounds of the sequential decrement
//! step, each of which decrements at least `S` distinct counters — so the
//! estimate error after processing `m` elements stays below `m / S ≤ εm`
//! (Lemma 5.1 / Lemma 5.3).
//!
//! [`MgSummary::augment`] computes exactly that result without ever
//! materialising the combined set in the table: histogram entries that are
//! already tracked are added in place, the rest are *parked* in a side
//! vector, and only parked entries that survive the cut are inserted. A
//! batch of `p` distinct items therefore costs `p` table probes and `O(S)`
//! table writes, not `p` inserts followed by `p` removals.
//!
//! A batch wider than `S` does not even park its count-1 misses; it only
//! counts them (`ones`). Every combined counter is at least 1 — live
//! counters are never 0 and neither is a parked count — so with more than
//! `S` positive histogram entries there are more than `S` combined
//! counters and `ϕ ≥ 1`: a miss of count 1 cannot survive, and in the rank
//! order it is one more value of 1, the smallest there is. Hence, with
//! `kept` = live counters + parked counts:
//!
//! * `kept + ones ≤ S` ⇒ `ϕ = 0` (everything fits);
//! * otherwise `kept > S` ⇒ `ϕ` is the (S+1)-th largest of the `kept`
//!   values alone — appending values no larger than any of them leaves
//!   the top `S + 1` unchanged;
//! * otherwise the (S+1)-th largest is one of the ones ⇒ `ϕ = 1`.
//!
//! That is the `ϕ` and the survivor set of selecting over all combined
//! counters, bit for bit. Zero-count entries can make a batch wider than
//! `S` with no more than `S` positive values; then the first case holds and
//! a cold second pass inserts the counted misses. Parked and selected work
//! is therefore in proportion to the misses that can survive, not to `p`:
//! on a batch of `p ≫ S` mostly-singleton keys the selection disappears.
//!
//! It is the one implementation behind the infinite-window tracker, the
//! open pane of [`crate::PaneWindow`] and [`MgSummary::merge`].

use std::collections::HashMap;

use psfa_primitives::codec::{put_header, ByteReader, ByteWriter, CodecError};
use psfa_primitives::{phi_cutoff_in_place, HistogramEntry, KeyMixBuildHasher};

/// Type tag for encoded MG summaries (see `psfa_primitives::codec`).
const TAG: u8 = 0x03;
const VERSION: u8 = 1;

/// The counter table: item → counter, hashed with one keyed multiply per
/// probe ([`KeyMixBuildHasher`], seeded per summary).
type Counters = HashMap<u64, u64, KeyMixBuildHasher>;

/// A Misra–Gries summary: at most `capacity` items with approximate counters.
#[derive(Debug)]
pub struct MgSummary {
    capacity: usize,
    entries: Counters,
    /// Reusable counter-value buffer for the cut-off selection in
    /// [`MgSummary::augment`]; pure scratch, excluded from equality and
    /// cloning.
    scratch: Vec<u64>,
    /// Reusable side vector for the histogram entries of one
    /// [`MgSummary::augment`] call that are not tracked; pure scratch.
    parked: Vec<HistogramEntry>,
}

impl Clone for MgSummary {
    /// Clones the persistent state only — the clone starts with empty
    /// scratch (copying up to `S + p` dead values would charge every state
    /// clone, e.g. a persistence cut, for nothing).
    fn clone(&self) -> Self {
        Self::with_counters(self.capacity, self.entries.clone())
    }
}

impl PartialEq for MgSummary {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity && self.entries == other.entries
    }
}

impl Eq for MgSummary {}

impl MgSummary {
    /// Creates an empty summary with room for `capacity` counters.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        Self::from_entries(capacity, &[])
    }

    /// Rebuilds a summary from previously published `(item, counter)`
    /// pairs — e.g. the heavy-hitter entries of a shard snapshot. The
    /// entries of an MG summary are one-sided underestimates of the true
    /// frequencies, and this constructor copies them verbatim, so the
    /// rebuilt summary inherits the one-sided guarantee of the summary it
    /// was published from. Zero-count pairs are dropped (an MG summary
    /// never stores a zero counter).
    ///
    /// # Panics
    /// Panics if `capacity == 0` or there are more non-zero entries than
    /// `capacity`.
    pub fn from_entries(capacity: usize, entries: &[(u64, u64)]) -> Self {
        assert!(capacity >= 1, "summary capacity must be at least 1");
        // Twice the capacity: the table never holds more than `S` live
        // counters, so when the tombstones that evictions leave behind use
        // up its free slots it is at most half full and cleans up by
        // rehashing inside its allocation — it never has to grow.
        let mut map = Counters::with_capacity_and_hasher(
            capacity.saturating_mul(2),
            KeyMixBuildHasher::new(),
        );
        for &(item, count) in entries {
            if count > 0 {
                map.insert(item, count);
            }
        }
        assert!(
            map.len() <= capacity,
            "more entries than the summary capacity"
        );
        Self::with_counters(capacity, map)
    }

    /// Builds a summary from decoded input: `histogram` (distinct items)
    /// cut to `capacity` counters. The table is sized by the entries the
    /// input actually holds, never by the untrusted `capacity`; it grows to
    /// its steady-state size on demand.
    pub(crate) fn from_decoded(capacity: usize, histogram: &[HistogramEntry]) -> Self {
        let table = Counters::with_capacity_and_hasher(
            histogram.len().min(capacity),
            KeyMixBuildHasher::new(),
        );
        let mut summary = Self::with_counters(capacity, table);
        summary.augment(histogram);
        summary
    }

    fn with_counters(capacity: usize, entries: Counters) -> Self {
        Self {
            capacity,
            entries,
            scratch: Vec::new(),
            parked: Vec::new(),
        }
    }

    /// The maximum number of counters retained (`S` in the paper).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of counters currently stored (always `≤ capacity`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no counters are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The counter value for `item` (`0` when the item is not tracked).
    pub fn estimate(&self, item: u64) -> u64 {
        self.entries.get(&item).copied().unwrap_or(0)
    }

    /// All tracked `(item, counter)` pairs in unspecified order.
    pub fn entries(&self) -> Vec<(u64, u64)> {
        self.entries.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// All tracked `(item, counter)` pairs, ascending by item — the layout
    /// of published snapshots, sealed panes and the canonical encoding.
    pub fn entries_sorted(&self) -> Vec<(u64, u64)> {
        let mut entries = self.entries();
        entries.sort_unstable();
        entries
    }

    /// Empties the summary, keeping its table for the next stream.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// Sequential Misra–Gries update for a single element (Algorithm 1).
    ///
    /// Provided for completeness and for differential testing against the
    /// batch path; the parallel pipeline uses [`MgSummary::augment`].
    pub fn update_sequential(&mut self, item: u64) {
        if let Some(c) = self.entries.get_mut(&item) {
            *c += 1;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.insert(item, 1);
            return;
        }
        // Decrement every counter; drop the ones that reach zero.
        self.entries.retain(|_, c| {
            *c -= 1;
            *c > 0
        });
    }

    /// `MGaugment` (Lemma 5.3): merges a minibatch histogram into the summary.
    ///
    /// `histogram` must hold each item at most once — what `buildHist`
    /// produces, and what another summary's entries are. Runs in `O(S + p)`
    /// work where `p` is the number of histogram entries, `p` table probes
    /// and `O(S)` table writes among it. `ϕ` is selected over the live
    /// counters plus the parked counts; when the batch is wider than `S`,
    /// untracked entries of count 1 are counted instead of parked, and `ϕ`
    /// is `0`, `1` or that selection by the rule and proof in the module
    /// docs — the same `ϕ` and survivors as selecting over every combined
    /// counter. Returns the cut-off `ϕ` that was applied (`0` means no
    /// counter was decremented, so no tracked item was evicted).
    ///
    /// The table is sized once for `2S` counters and the two scratch
    /// vectors grow to the widest batch seen, so after warm-up an augment
    /// performs **zero** heap allocations. This is the per-minibatch core
    /// of the engine's ingest hot path (asserted by the counting-allocator
    /// audit in `tests/tests/hotpath_alloc.rs`).
    pub fn augment(&mut self, histogram: &[HistogramEntry]) -> u64 {
        // Step 1: add the entries that are tracked; park the rest — except
        // that a batch wider than S only counts its count-1 misses, which
        // cannot survive the ϕ ≥ 1 such a batch brings (module docs).
        let count_ones = histogram.len() > self.capacity;
        let mut ones = 0usize;
        self.parked.clear();
        for e in histogram {
            match self.entries.get_mut(&e.item) {
                Some(count) => *count += e.count,
                None if count_ones && e.count == 1 => ones += 1,
                None if e.count > 0 => self.parked.push(*e),
                None => {}
            }
        }

        // Step 2: the cut-off ϕ, the (S+1)-th largest of the live counters,
        // the parked counts and `ones` values of 1 (0 while all fit).
        let kept = self.entries.len() + self.parked.len();
        let phi = if kept + ones <= self.capacity {
            if ones > 0 {
                // Only zero-count entries make a batch wider than S without
                // more than S positive values: the counted misses all fit.
                for e in histogram.iter().filter(|e| e.count == 1) {
                    self.entries.entry(e.item).or_insert(1);
                }
            }
            0
        } else if kept <= self.capacity {
            1
        } else {
            self.scratch.clear();
            self.scratch.extend(self.entries.values().copied());
            self.scratch.extend(self.parked.iter().map(|e| e.count));
            phi_cutoff_in_place(&mut self.scratch, self.capacity)
        };

        // Step 3: subtract ϕ and keep the strictly positive counters; of
        // the parked entries only the survivors ever enter the table.
        if phi > 0 {
            self.entries.retain(|_, count| {
                *count = count.saturating_sub(phi);
                *count > 0
            });
        }
        for e in &self.parked {
            if e.count > phi {
                self.entries.insert(e.item, e.count - phi);
            }
        }
        debug_assert!(self.entries.len() <= self.capacity);
        phi
    }

    /// Merges another summary into this one (mergeable-summaries semantics,
    /// Agarwal et al.): counters are added item-wise, then the combined set
    /// is cut back to `capacity` with the same cut-off rule as
    /// [`MgSummary::augment`]. Returns the applied cut-off `ϕ`.
    ///
    /// If `self` summarises a stream of `m₁` elements with error `m₁/S` and
    /// `other` summarises `m₂` elements with error `m₂/S`, the merged
    /// summary underestimates true frequencies of the concatenated stream by
    /// at most `(m₁ + m₂)/S` — per-shard ε summaries merge into a global ε
    /// summary. This is the query-side primitive behind cross-shard queries
    /// in `psfa-engine`.
    pub fn merge(&mut self, other: &MgSummary) -> u64 {
        let histogram: Vec<HistogramEntry> = other
            .entries
            .iter()
            .map(|(&item, &count)| HistogramEntry { item, count })
            .collect();
        self.augment(&histogram)
    }

    /// Canonical binary encoding, appended to `w`. Entries are written in
    /// ascending item order, so encoding the same logical summary always
    /// produces identical bytes.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        put_header(w, TAG, VERSION);
        w.put_u64(self.capacity as u64);
        let entries = self.entries_sorted();
        w.put_u32(entries.len() as u32);
        for (item, count) in entries {
            w.put_u64(item);
            w.put_u64(count);
        }
    }

    /// Canonical binary encoding as an owned buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Decodes a summary previously written by [`MgSummary::encode_into`],
    /// validating every structural invariant (never panics on corrupted
    /// input, never over-allocates from a corrupted length).
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.expect_header(TAG, VERSION)?;
        let capacity = r.get_u64()?;
        if capacity == 0 || capacity > usize::MAX as u64 {
            return Err(CodecError::Invalid("mg-summary: invalid capacity"));
        }
        let len = r.get_len(16)?;
        if len as u64 > capacity {
            return Err(CodecError::Invalid(
                "mg-summary: more entries than capacity",
            ));
        }
        let mut entries = Vec::with_capacity(len);
        let mut prev: Option<u64> = None;
        for _ in 0..len {
            let item = r.get_u64()?;
            let count = r.get_u64()?;
            if count == 0 {
                return Err(CodecError::Invalid("mg-summary: zero counter stored"));
            }
            if prev.is_some_and(|p| p >= item) {
                return Err(CodecError::Invalid(
                    "mg-summary: entries must be strictly ascending",
                ));
            }
            prev = Some(item);
            entries.push(HistogramEntry { item, count });
        }
        Ok(Self::from_decoded(capacity as usize, &entries))
    }

    /// Decodes a summary from a standalone buffer produced by
    /// [`MgSummary::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        let out = Self::decode_from(&mut r)?;
        r.expect_end()?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(pairs: &[(u64, u64)]) -> Vec<HistogramEntry> {
        pairs
            .iter()
            .map(|&(item, count)| HistogramEntry { item, count })
            .collect()
    }

    #[test]
    fn augment_without_overflow_keeps_exact_counts() {
        let mut s = MgSummary::new(10);
        s.augment(&hist(&[(1, 5), (2, 3)]));
        s.augment(&hist(&[(1, 2), (3, 1)]));
        assert_eq!(s.estimate(1), 7);
        assert_eq!(s.estimate(2), 3);
        assert_eq!(s.estimate(3), 1);
        assert_eq!(s.estimate(99), 0);
    }

    #[test]
    fn augment_respects_capacity() {
        let mut s = MgSummary::new(3);
        let entries: Vec<(u64, u64)> = (0..20).map(|i| (i, 1 + i % 4)).collect();
        s.augment(&hist(&entries));
        assert!(s.len() <= 3);
    }

    #[test]
    fn augment_decrement_preserves_mg_invariant() {
        // After processing m elements, every counter underestimates the true
        // frequency by at most m / S.
        let capacity = 5usize;
        let mut s = MgSummary::new(capacity);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut m = 0u64;
        let mut state = 17u64;
        for batch in 0..50 {
            let mut counts: HashMap<u64, u64> = HashMap::new();
            for _ in 0..100 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(batch);
                let item = (state >> 33) % 12;
                *counts.entry(item).or_insert(0) += 1;
                *truth.entry(item).or_insert(0) += 1;
                m += 1;
            }
            let h: Vec<HistogramEntry> = counts
                .into_iter()
                .map(|(item, count)| HistogramEntry { item, count })
                .collect();
            s.augment(&h);
            for (&item, &f) in &truth {
                let c = s.estimate(item);
                assert!(c <= f, "counter {c} above true frequency {f}");
                assert!(
                    c + m / capacity as u64 >= f,
                    "counter {c} under-estimates {f} by more than m/S = {}",
                    m / capacity as u64
                );
            }
        }
    }

    #[test]
    fn sequential_update_matches_classic_behaviour() {
        let mut s = MgSummary::new(2);
        for item in [1, 1, 2, 3] {
            s.update_sequential(item);
        }
        // Classic MG with S = 2 on [1,1,2,3]: the arrival of 3 decrements all.
        assert_eq!(s.estimate(1), 1);
        assert_eq!(s.estimate(2), 0);
        assert_eq!(s.estimate(3), 0);
        assert!(s.len() <= 2);
    }

    #[test]
    fn batch_and_sequential_satisfy_same_error_bound() {
        // Both paths must satisfy f - m/S <= C <= f even if their exact
        // counters differ (the guarantee, not the representation, is shared).
        let capacity = 4usize;
        let stream: Vec<u64> = (0..2000u64).map(|i| (i * 2654435761) % 9).collect();
        let mut seq = MgSummary::new(capacity);
        for &x in &stream {
            seq.update_sequential(x);
        }
        let mut batched = MgSummary::new(capacity);
        for chunk in stream.chunks(173) {
            let mut counts: HashMap<u64, u64> = HashMap::new();
            for &x in chunk {
                *counts.entry(x).or_insert(0) += 1;
            }
            let h: Vec<HistogramEntry> = counts
                .into_iter()
                .map(|(item, count)| HistogramEntry { item, count })
                .collect();
            batched.augment(&h);
        }
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &x in &stream {
            *truth.entry(x).or_insert(0) += 1;
        }
        let m = stream.len() as u64;
        for (&item, &f) in &truth {
            for s in [&seq, &batched] {
                let c = s.estimate(item);
                assert!(c <= f);
                assert!(c + m / capacity as u64 >= f);
            }
        }
    }

    #[test]
    fn empty_histogram_is_a_noop() {
        let mut s = MgSummary::new(3);
        s.augment(&hist(&[(7, 2)]));
        let before = s.entries();
        let phi = s.augment(&[]);
        assert_eq!(phi, 0);
        let mut after = s.entries();
        let mut before = before;
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
    }

    #[test]
    fn augment_never_grows_the_table_and_warms_its_scratch_once() {
        // The allocation-free steady state `tests/tests/hotpath_alloc.rs`
        // audits with a counting allocator. The table is sized once, for 2S
        // counters: whatever `p` is, it only ever holds survivors, and the
        // tombstones their eviction leaves are reclaimed in place.
        // (`HashMap::capacity()`
        // is items + free slots: it dips as tombstones accumulate and
        // would at least double if the table were ever reallocated.)
        let mut s = MgSummary::new(8);
        let table = s.entries.capacity();
        assert!(table >= 16, "table not sized for 2S");
        // Two warm-up batches: the second is the first to select over a
        // full summary plus a full batch.
        for offset in [0u64, 500] {
            let batch: Vec<(u64, u64)> = (0..50u64).map(|i| (offset + i, 1 + i)).collect();
            s.augment(&hist(&batch));
        }
        // The one count-1 miss per batch is counted, not parked.
        let (scratch_cap, parked_cap) = (s.scratch.capacity(), s.parked.capacity());
        assert!(scratch_cap >= 8 + 49 && parked_cap >= 49);
        for round in 1..500u64 {
            // Fresh distinct items every round (maximal eviction churn),
            // same batch width.
            let b: Vec<(u64, u64)> = (0..50u64)
                .map(|i| (i * 31 + round * 1000, 1 + (i + round) % 50))
                .collect();
            s.augment(&hist(&b));
            assert_eq!(s.len(), 8, "distinct counts: exactly S survive");
            assert!(s.entries.capacity() <= table, "table regrew");
            assert_eq!(s.scratch.capacity(), scratch_cap, "scratch regrew");
            assert_eq!(s.parked.capacity(), parked_cap, "parked regrew");
        }
    }

    #[test]
    fn only_survivors_of_the_cut_enter_the_table() {
        // S = 2 holding {1: 10, 2: 4}; the batch brings 3: 7, 4: 1, 5: 4.
        // Combined counters 10, 7, 4, 4, 1 ⇒ ϕ = 4 (third largest), so 1
        // and 3 survive with 6 and 3 — and the ties at ϕ (2 and 5) do not.
        let mut s = MgSummary::new(2);
        s.augment(&hist(&[(1, 10), (2, 4)]));
        let phi = s.augment(&hist(&[(3, 7), (4, 1), (5, 4)]));
        assert_eq!(phi, 4);
        let mut entries = s.entries();
        entries.sort_unstable();
        assert_eq!(entries, vec![(1, 6), (3, 3)]);
        // A hit and a miss in one batch: 1 is added in place first.
        let phi = s.augment(&hist(&[(1, 1), (9, 2)]));
        assert_eq!(phi, 2, "counters 7, 3, 2 with S = 2");
        let mut entries = s.entries();
        entries.sort_unstable();
        assert_eq!(entries, vec![(1, 5), (3, 1)]);
        // Zero-count entries never create a counter.
        assert_eq!(MgSummary::new(4).augment(&hist(&[(7, 0)])), 0);
    }

    #[test]
    fn a_wide_batch_selects_over_the_larger_values_alone() {
        // S = 2 holding {1: 10, 2: 4}; a batch of four (> S) brings 3: 7,
        // 5: 4 and two singletons. Combined 10, 7, 4, 4, 1, 1 ⇒ ϕ = 4; the
        // four values above the ones already rank it.
        let mut s = MgSummary::new(2);
        s.augment(&hist(&[(1, 10), (2, 4)]));
        let phi = s.augment(&hist(&[(3, 7), (4, 1), (5, 4), (6, 1)]));
        assert_eq!(phi, 4);
        assert_eq!(s.parked.len(), 2, "the singletons were counted, not parked");
        assert_eq!(s.entries_sorted(), vec![(1, 6), (3, 3)]);
    }

    #[test]
    fn a_wide_batch_of_mostly_singletons_cuts_at_one() {
        // S = 3 holding {1: 5}; a batch of five brings a hit on 1, 2: 3 and
        // three singletons. Combined 6, 3, 1, 1, 1: only two values exceed
        // 1, so the (S+1)-th largest is a singleton ⇒ ϕ = 1, no selection.
        let mut s = MgSummary::new(3);
        s.augment(&hist(&[(1, 5)]));
        let phi = s.augment(&hist(&[(1, 1), (2, 3), (7, 1), (8, 1), (9, 1)]));
        assert_eq!(phi, 1);
        assert_eq!(s.parked.len(), 1);
        assert_eq!(s.entries_sorted(), vec![(1, 5), (2, 2)]);
        // All singletons, all misses: ϕ = 1 drains every counter by one.
        let phi = s.augment(&hist(&[(20, 1), (21, 1), (22, 1), (23, 1)]));
        assert_eq!(phi, 1);
        assert!(s.parked.is_empty());
        assert_eq!(s.entries_sorted(), vec![(1, 4), (2, 1)]);
    }

    #[test]
    fn zero_counts_in_a_wide_batch_keep_every_counted_singleton() {
        // S = 3 holding {5: 2}; the batch is five entries wide but two are
        // zero counts, so the combined counters are 5: 3, 6: 2, 7: 1 — they
        // fit, ϕ = 0, and the counted singleton 7 must still be inserted
        // (while 5, tracked and hit by a 1, keeps its added count).
        let mut s = MgSummary::new(3);
        s.augment(&hist(&[(5, 2)]));
        let phi = s.augment(&hist(&[(5, 1), (6, 2), (7, 1), (8, 0), (9, 0)]));
        assert_eq!(phi, 0);
        assert_eq!(s.entries_sorted(), vec![(5, 3), (6, 2), (7, 1)]);
        // Singletons and zeros only, on an empty summary.
        let mut s = MgSummary::new(3);
        assert_eq!(s.augment(&hist(&[(1, 1), (2, 0), (3, 0), (4, 1)])), 0);
        assert_eq!(s.entries_sorted(), vec![(1, 1), (4, 1)]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = MgSummary::new(0);
    }

    #[test]
    fn merge_without_overflow_adds_counters() {
        let mut a = MgSummary::new(10);
        a.augment(&hist(&[(1, 5), (2, 3)]));
        let mut b = MgSummary::new(10);
        b.augment(&hist(&[(1, 2), (3, 4)]));
        a.merge(&b);
        assert_eq!(a.estimate(1), 7);
        assert_eq!(a.estimate(2), 3);
        assert_eq!(a.estimate(3), 4);
    }

    #[test]
    fn merge_preserves_combined_error_bound() {
        // Summarise two halves of a stream independently, merge, and check
        // the merged summary against the (m₁ + m₂)/S bound.
        let capacity = 6usize;
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut halves = Vec::new();
        let mut state = 99u64;
        for _ in 0..2 {
            let mut s = MgSummary::new(capacity);
            for batch in 0..20 {
                let mut counts: HashMap<u64, u64> = HashMap::new();
                for _ in 0..150 {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(batch);
                    let item = (state >> 33) % 15;
                    *counts.entry(item).or_insert(0) += 1;
                    *truth.entry(item).or_insert(0) += 1;
                }
                let h: Vec<HistogramEntry> = counts
                    .into_iter()
                    .map(|(item, count)| HistogramEntry { item, count })
                    .collect();
                s.augment(&h);
            }
            halves.push(s);
        }
        let mut merged = halves.swap_remove(0);
        merged.merge(&halves[0]);
        let m: u64 = truth.values().sum();
        assert!(merged.len() <= capacity);
        for (&item, &f) in &truth {
            let c = merged.estimate(item);
            assert!(c <= f, "merged counter {c} above true frequency {f}");
            assert!(
                c + m / capacity as u64 >= f,
                "merged counter {c} under-estimates {f} by more than m/S"
            );
        }
    }
}
