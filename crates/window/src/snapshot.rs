//! γ-snapshots (Definition 3.1, Lemmas 3.2 and 3.3).
//!
//! A γ-snapshot deterministically samples every γ-th 1 bit of the stream
//! (by *rank*, i.e. the γ-th, 2γ-th, … one) and records the id of the
//! length-γ block that contains each sampled bit, together with `ℓ`, the
//! number of 1s seen after the most recent sampled 1. The value
//! `γ·|Q| + ℓ` then approximates the number of 1s in the sliding window
//! with additive error at most `2γ` (Lemma 3.2).
//!
//! The snapshot here is the *internal* representation used by the
//! space-bounded block counter ([`crate::sbbc::Sbbc`]); it is exposed
//! publicly both for testing Lemma 3.2 in isolation and because `query`
//! (Theorem 3.4) returns it.

use std::collections::VecDeque;

use psfa_primitives::CompactedSegment;

/// A γ-snapshot: sampled block ids plus the trailing-ones counter `ℓ`.
///
/// Block ids are 1-indexed (block `k` covers stream positions
/// `(k−1)·γ + 1 ..= k·γ`), strictly increasing from oldest to newest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GammaSnapshot {
    gamma: u64,
    /// Sampled block ids, oldest at the front.
    blocks: VecDeque<u64>,
    /// Number of 1s observed after the most recent sampled 1.
    ell: u64,
}

impl GammaSnapshot {
    /// Creates an empty snapshot with block size `γ ≥ 1`.
    ///
    /// # Panics
    /// Panics if `gamma == 0`.
    pub fn new(gamma: u64) -> Self {
        assert!(gamma >= 1, "gamma must be at least 1");
        Self {
            gamma,
            blocks: VecDeque::new(),
            ell: 0,
        }
    }

    /// The block size γ.
    pub fn gamma(&self) -> u64 {
        self.gamma
    }

    /// The trailing-ones counter ℓ (always `< γ`).
    pub fn ell(&self) -> u64 {
        self.ell
    }

    /// Number of sampled blocks currently stored (`|Q|`).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The sampled block ids, oldest first.
    pub fn blocks(&self) -> impl Iterator<Item = u64> + '_ {
        self.blocks.iter().copied()
    }

    /// The snapshot value `val = γ·|Q| + ℓ` (Lemma 3.2). Constant work.
    pub fn val(&self) -> u64 {
        self.gamma * self.blocks.len() as u64 + self.ell
    }

    /// Ingests a stream segment encoded as a CSS. `stream_len_before` is the
    /// absolute length of the stream *before* this segment (so the segment
    /// occupies 1-indexed positions `stream_len_before + 1 ..`).
    ///
    /// Work is `O(‖T‖₀ / γ + 1)` beyond reading the CSS header: only every
    /// γ-th 1 of the segment is examined, exactly as in the proof of
    /// Theorem 3.4.
    pub fn ingest(&mut self, segment: &CompactedSegment, stream_len_before: u64) {
        let ones = segment.positions();
        let k = ones.len() as u64;
        if k == 0 {
            return;
        }
        // The next sampled 1 is the (γ − ℓ)-th 1 of the segment, then every
        // γ-th after that.
        let first = self.gamma - self.ell; // 1-indexed rank within the segment
        if first <= k {
            let mut idx = first - 1; // 0-indexed into `ones`
            while idx < k {
                let global_pos = stream_len_before + ones[idx as usize] + 1; // 1-indexed
                let block = global_pos.div_ceil(self.gamma);
                debug_assert!(self.blocks.back().is_none_or(|&b| b < block));
                self.blocks.push_back(block);
                idx += self.gamma;
            }
        }
        self.ell = (self.ell + k) % self.gamma.max(1);
        if self.gamma == 1 {
            self.ell = 0;
        }
    }

    /// Drops sampled blocks that lie entirely before stream position
    /// `window_start` (1-indexed): block `q` is kept iff `q·γ ≥ window_start`.
    ///
    /// This realises `shrink` (Lemma 3.3) and window expiry during `advance`.
    pub fn expire_before(&mut self, window_start: u64) {
        while let Some(&front) = self.blocks.front() {
            if front * self.gamma >= window_start {
                break;
            }
            self.blocks.pop_front();
        }
    }

    /// Value the snapshot would report if blocks before `window_start` were
    /// expired, without mutating the snapshot. Used by `predict`
    /// (Section 5.3.3) to cheaply pre-compute post-slide counter values.
    pub fn val_if_expired_before(&self, window_start: u64) -> u64 {
        let kept = self
            .blocks
            .iter()
            .take_while(|&&q| q * self.gamma < window_start)
            .count();
        self.gamma * (self.blocks.len() - kept) as u64 + self.ell
    }

    /// Decrements the snapshot value by `r`, i.e. turns the latest `r` 1s into
    /// 0s (Theorem 3.4's `decrement`). Saturates at value 0.
    pub fn decrement(&mut self, r: u64) {
        if r == 0 {
            return;
        }
        if r <= self.ell {
            self.ell -= r;
            return;
        }
        let deficit = r - self.ell;
        let k = deficit.div_ceil(self.gamma);
        let available = self.blocks.len() as u64;
        if k > available {
            // Saturate: remove everything.
            self.blocks.clear();
            self.ell = 0;
            return;
        }
        for _ in 0..k {
            self.blocks.pop_back();
        }
        self.ell = k * self.gamma - deficit;
    }

    /// Keeps only the newest `max_blocks` sampled blocks, returning the id of
    /// the newest *dropped* block (if any). Used by the SBBC to enforce its
    /// space cap σ.
    pub fn truncate_to(&mut self, max_blocks: usize) -> Option<u64> {
        let mut dropped = None;
        while self.blocks.len() > max_blocks {
            dropped = self.blocks.pop_front();
        }
        dropped
    }

    /// Reference (sequential, non-streaming) construction of the γ-snapshot of
    /// the last `window` bits of `bits`, following Definition 3.1 literally.
    /// Only used by tests and the experiment harness as ground truth.
    pub fn reference(bits: &[bool], gamma: u64, window: u64) -> Self {
        assert!(gamma >= 1);
        let t = bits.len() as u64;
        let window_start = t.saturating_sub(window) + 1; // 1-indexed
        let mut blocks = VecDeque::new();
        let mut ones_seen = 0u64;
        let mut last_sampled_pos = 0u64;
        for (i, &b) in bits.iter().enumerate() {
            if !b {
                continue;
            }
            ones_seen += 1;
            if ones_seen.is_multiple_of(gamma) {
                let pos = i as u64 + 1;
                last_sampled_pos = pos;
                let block = pos.div_ceil(gamma);
                if block * gamma >= window_start {
                    blocks.push_back(block);
                }
            }
        }
        // ℓ: ones after the last sampled one (there are < γ of them).
        let ell = bits
            .iter()
            .enumerate()
            .skip(last_sampled_pos as usize)
            .filter(|(_, &b)| b)
            .count() as u64;
        Self {
            gamma,
            blocks,
            ell: if gamma == 1 { 0 } else { ell },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_ones_in_window(bits: &[bool], window: u64) -> u64 {
        let start = bits.len().saturating_sub(window as usize);
        bits[start..].iter().filter(|&&b| b).count() as u64
    }

    fn ingest_all(bits: &[bool], gamma: u64, chunk: usize) -> GammaSnapshot {
        let mut snap = GammaSnapshot::new(gamma);
        let mut consumed = 0u64;
        for piece in bits.chunks(chunk.max(1)) {
            let css = CompactedSegment::from_bits(piece);
            snap.ingest(&css, consumed);
            consumed += piece.len() as u64;
        }
        snap
    }

    /// The worked example of Figure 2 in the paper: a 23-bit stream, γ = 3,
    /// window size 12.
    ///
    /// The figure reports (Q = {4, 7}, ℓ = 1) under a convention where the
    /// still-incomplete tail block is not yet eligible for Q. Definition 3.1
    /// as written (which the paper's own `advance` pseudocode relies on,
    /// since it keeps ℓ < γ) also records the sampled 1 at position 22 whose
    /// block 8 overlaps the window, yielding Q = {4, 7, 8} and ℓ = 0. Both
    /// encodings describe the same sample set and both satisfy Lemma 3.2;
    /// we implement the definition as written and check that here.
    #[test]
    fn figure2_example() {
        let bits: Vec<bool> = [
            0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0,
        ]
        .iter()
        .map(|&x| x == 1)
        .collect();
        let t = bits.len() as u64;
        let window = 12;
        let gamma = 3;
        let mut snap = ingest_all(&bits, gamma, 5);
        snap.expire_before(t - window + 1);
        let q: Vec<u64> = snap.blocks().collect();
        // The figure's sampled blocks {4, 7} are present…
        assert!(
            q.contains(&4) && q.contains(&7),
            "Q must contain the figure's blocks, got {q:?}"
        );
        // …and the full Definition-3.1 sample set is {4, 7, 8} with ℓ = 0.
        assert_eq!(q, vec![4, 7, 8]);
        assert_eq!(snap.ell(), 0);
        // Lemma 3.2 bounds hold for the figure's window: m = 6 ones.
        let m = count_ones_in_window(&bits, window);
        assert_eq!(m, 6);
        assert!(snap.val() >= m && snap.val() <= m + 2 * gamma);
        // The reference (offline) construction agrees with the incremental one.
        let reference = GammaSnapshot::reference(&bits, gamma, window);
        assert_eq!(reference.blocks().collect::<Vec<_>>(), q);
        assert_eq!(reference.ell(), snap.ell());
    }

    #[test]
    fn incremental_matches_reference_construction() {
        let mut state = 99u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 40
        };
        for &gamma in &[1u64, 2, 3, 5, 8] {
            for &density_mod in &[2u64, 3, 7] {
                let bits: Vec<bool> = (0..4000).map(|_| next() % density_mod == 0).collect();
                let window = 1000u64;
                for &chunk in &[1usize, 7, 64, 513] {
                    let mut snap = ingest_all(&bits, gamma, chunk);
                    snap.expire_before(bits.len() as u64 - window + 1);
                    let reference = GammaSnapshot::reference(&bits, gamma, window);
                    assert_eq!(
                        snap.blocks().collect::<Vec<_>>(),
                        reference.blocks().collect::<Vec<_>>(),
                        "gamma={gamma} chunk={chunk} density=1/{density_mod}"
                    );
                    assert_eq!(snap.ell(), reference.ell());
                }
            }
        }
    }

    #[test]
    fn lemma_3_2_value_bounds() {
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            state >> 40
        };
        for &gamma in &[1u64, 2, 4, 10] {
            for trial in 0..10 {
                let len = 2000 + trial * 137;
                let bits: Vec<bool> = (0..len).map(|_| next() % 3 != 0).collect();
                let window = 700u64;
                let mut snap = ingest_all(&bits, gamma, 53);
                snap.expire_before(bits.len() as u64 - window + 1);
                let m = count_ones_in_window(&bits, window);
                let val = snap.val();
                assert!(
                    val >= m,
                    "lower bound violated: val={val} m={m} gamma={gamma}"
                );
                assert!(
                    val <= m + 2 * gamma,
                    "upper bound violated: val={val} m={m} gamma={gamma}"
                );
                assert!(snap.ell() < gamma.max(2), "ell must stay below gamma");
            }
        }
    }

    #[test]
    fn gamma_one_is_exact() {
        let bits: Vec<bool> = (0..3000).map(|i| i % 5 == 0 || i % 7 == 3).collect();
        let window = 800u64;
        let mut snap = ingest_all(&bits, 1, 97);
        snap.expire_before(bits.len() as u64 - window + 1);
        assert_eq!(snap.val(), count_ones_in_window(&bits, window));
    }

    #[test]
    fn decrement_reduces_value_exactly() {
        let bits: Vec<bool> = (0..2000).map(|i| i % 2 == 0).collect();
        let snap0 = ingest_all(&bits, 4, 100);
        for r in [0u64, 1, 3, 4, 5, 17, 100, 999] {
            let mut snap = snap0.clone();
            let before = snap.val();
            snap.decrement(r);
            assert_eq!(snap.val(), before.saturating_sub(r), "r={r}");
            assert!(snap.ell() < 4);
        }
    }

    #[test]
    fn decrement_saturates_at_zero() {
        let bits = vec![true; 50];
        let mut snap = ingest_all(&bits, 4, 10);
        snap.decrement(10_000);
        assert_eq!(snap.val(), 0);
        assert_eq!(snap.num_blocks(), 0);
    }

    #[test]
    fn expire_before_is_monotone() {
        let bits: Vec<bool> = (0..1000).map(|i| i % 3 == 0).collect();
        let mut snap = ingest_all(&bits, 5, 100);
        let v0 = snap.val();
        snap.expire_before(500);
        let v1 = snap.val();
        snap.expire_before(900);
        let v2 = snap.val();
        assert!(v0 >= v1 && v1 >= v2);
    }

    #[test]
    fn val_if_expired_matches_mutating_expire() {
        let bits: Vec<bool> = (0..3000).map(|i| (i * 31) % 4 == 0).collect();
        let snap = ingest_all(&bits, 3, 71);
        for start in [1u64, 100, 1500, 2500, 3500] {
            let mut clone = snap.clone();
            clone.expire_before(start);
            assert_eq!(
                snap.val_if_expired_before(start),
                clone.val(),
                "start={start}"
            );
        }
    }

    #[test]
    fn truncate_keeps_newest_blocks() {
        let bits = vec![true; 300];
        let mut snap = ingest_all(&bits, 3, 50);
        let total_blocks = snap.num_blocks();
        assert!(total_blocks > 10);
        let newest: Vec<u64> = snap.blocks().skip(total_blocks - 10).collect();
        let dropped = snap.truncate_to(10);
        assert_eq!(snap.num_blocks(), 10);
        assert_eq!(snap.blocks().collect::<Vec<_>>(), newest);
        assert!(dropped.is_some());
        assert!(dropped.unwrap() < newest[0]);
    }

    #[test]
    fn zero_length_and_zero_ones_segments_are_noops() {
        let mut snap = GammaSnapshot::new(3);
        snap.ingest(&CompactedSegment::zeros(100), 0);
        assert_eq!(snap.val(), 0);
        snap.ingest(&CompactedSegment::from_bits(&[]), 100);
        assert_eq!(snap.val(), 0);
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn zero_gamma_rejected() {
        let _ = GammaSnapshot::new(0);
    }
}
