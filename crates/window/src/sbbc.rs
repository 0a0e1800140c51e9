//! The (σ, λ) space-bounded block counter (SBBC) of Theorem 3.4.
//!
//! An SBBC maintains a λ/2-snapshot of the stream together with the coverage
//! bookkeeping `(t, r)`: `t` is the total stream length ingested so far and
//! `r` is the size of the suffix window the snapshot currently covers.
//! The counter targets a window of size `n` but is allowed to *truncate* its
//! coverage to some `r < n` when the snapshot would otherwise exceed the
//! space cap σ; a query in that state reports [`QueryResult::Overflowed`],
//! which certifies that the window contains at least `σ·λ` ones.
//!
//! Operations (matching the paper's interface):
//!
//! * [`Sbbc::new`] — create a counter.
//! * [`Sbbc::advance`] — ingest a minibatch encoded as a
//!   [`CompactedSegment`]; work `O(min{σ, m/λ} + ‖T‖/λ)`.
//! * [`Sbbc::query`] — return the snapshot (or `Overflowed`); `O(1)` work
//!   for the value itself.
//! * [`Sbbc::decrement`] — logically turn the latest `r` ones into zeros,
//!   used by the sliding-window frequency-estimation algorithms to mimic
//!   Misra–Gries decrements.

use psfa_primitives::codec::{put_header, ByteReader, ByteWriter, CodecError};
use psfa_primitives::CompactedSegment;

use crate::snapshot::GammaSnapshot;

/// Type tag for encoded SBBCs (see `psfa_primitives::codec`).
const TAG: u8 = 0x02;
const VERSION: u8 = 1;

/// Result of querying an [`Sbbc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryResult {
    /// The counter had to truncate its coverage below the target window; the
    /// true count of ones in the window is at least `σ·λ`.
    Overflowed,
    /// The snapshot value `m̂`, satisfying `m ≤ m̂ ≤ m + λ` (Corollary 3.5).
    Estimate(u64),
}

impl QueryResult {
    /// The estimate, or `None` if the counter overflowed.
    pub fn estimate(self) -> Option<u64> {
        match self {
            QueryResult::Overflowed => None,
            QueryResult::Estimate(v) => Some(v),
        }
    }
}

/// A (σ, λ) space-bounded block counter over a sliding window of size `n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sbbc {
    /// Space cap: maximum number of sampled blocks retained is `2σ + 2`.
    sigma: u64,
    /// Additive error budget; the internal snapshot uses γ = λ/2.
    lambda: u64,
    /// Target window size.
    n: u64,
    /// Total stream length ingested.
    t: u64,
    /// Size of the suffix window currently covered by the snapshot.
    r: u64,
    snapshot: GammaSnapshot,
}

impl Sbbc {
    /// Creates a new `(σ, λ)`-SBBC for a window of size `n`.
    ///
    /// `λ` must be an even integer `≥ 2` (the snapshot granularity is
    /// `γ = λ/2`); σ ≥ 1.
    ///
    /// # Panics
    /// Panics if `lambda` is odd or `< 2`, if `sigma == 0`, or if `n == 0`.
    pub fn new(sigma: u64, lambda: u64, n: u64) -> Self {
        assert!(
            lambda >= 2 && lambda.is_multiple_of(2),
            "lambda must be an even integer >= 2"
        );
        assert!(sigma >= 1, "sigma must be at least 1");
        assert!(n >= 1, "window size must be at least 1");
        Self {
            sigma,
            lambda,
            n,
            t: 0,
            r: 0,
            snapshot: GammaSnapshot::new(lambda / 2),
        }
    }

    /// Creates an SBBC with an effectively unlimited space cap (σ = ∞), as
    /// used by the basic sliding-window frequency-estimation algorithm
    /// (Theorem 5.5).
    pub fn unbounded(lambda: u64, n: u64) -> Self {
        Self::new(u64::MAX / (2 * lambda.max(2)), lambda, n)
    }

    /// Marks the (so far unobserved) history of this counter as known-zero,
    /// so that the counter is considered to cover the full window from the
    /// start. This is the right initialisation for per-item counters created
    /// the first time an item appears: positions before the counter's
    /// creation genuinely contain no occurrences of the item.
    pub fn assume_zero_history(mut self) -> Self {
        self.r = self.n;
        self
    }

    /// The additive error budget λ.
    pub fn lambda(&self) -> u64 {
        self.lambda
    }

    /// The space cap σ.
    pub fn sigma(&self) -> u64 {
        self.sigma
    }

    /// The target window size n.
    pub fn window(&self) -> u64 {
        self.n
    }

    /// Total stream length ingested so far.
    pub fn stream_len(&self) -> u64 {
        self.t
    }

    /// Number of sampled blocks currently stored — the dominant part of the
    /// counter's memory footprint, used by the space experiments.
    pub fn space_blocks(&self) -> usize {
        self.snapshot.num_blocks()
    }

    /// Maximum number of sampled blocks the counter may retain.
    ///
    /// The paper trims once the block sequence reaches `2σ + 1` entries; we
    /// retain up to `2σ + 2` so that an overflowed query certifies
    /// `m ≥ σ·λ` exactly (Theorem 3.4's overflow case): the kept blocks
    /// alone witness `γ(2σ + 2) − 2γ = σλ` ones inside the covered suffix.
    fn capacity(&self) -> u64 {
        2 * self.sigma + 2
    }

    /// Ingests a minibatch encoded as a CSS (Theorem 3.4's `advance`).
    pub fn advance(&mut self, segment: &CompactedSegment) {
        self.snapshot.ingest(segment, self.t);
        self.t += segment.len();
        self.r = (self.r + segment.len()).min(self.n);
        // Expire blocks that fell out of the covered window.
        let window_start = self.t.saturating_sub(self.r) + 1;
        self.snapshot.expire_before(window_start);
        // Enforce the space cap by truncating coverage.
        if self.snapshot.num_blocks() as u64 > self.capacity() {
            let dropped = self.snapshot.truncate_to(self.capacity() as usize);
            if let Some(q) = dropped {
                // Coverage now starts right after the newest dropped block.
                let gamma = self.lambda / 2;
                self.r = self.t.saturating_sub(q * gamma);
            }
        }
    }

    /// Queries the counter (Theorem 3.4's `query`).
    pub fn query(&self) -> QueryResult {
        if self.r < self.n.min(self.t) {
            QueryResult::Overflowed
        } else {
            QueryResult::Estimate(self.snapshot.val())
        }
    }

    /// The counter value, or `None` when overflowed (Corollary 3.5's `m̂`).
    pub fn value(&self) -> Option<u64> {
        self.query().estimate()
    }

    /// A read-only view of the maintained λ/2-snapshot.
    pub fn snapshot(&self) -> &GammaSnapshot {
        &self.snapshot
    }

    /// The value this counter would report after the window slides forward by
    /// `advance_len` positions *without* ingesting any new ones. Used by the
    /// survivor-prediction step of the work-efficient sliding-window
    /// algorithm (Section 5.3.3) to evaluate `val(shrink(Γ.query()))` cheaply
    /// and without mutation.
    pub fn value_after_slide(&self, advance_len: u64) -> Option<u64> {
        if self.r < self.n.min(self.t) {
            return None;
        }
        let new_t = self.t + advance_len;
        let window_start = new_t.saturating_sub(self.n) + 1;
        Some(self.snapshot.val_if_expired_before(window_start))
    }

    /// Logically converts the latest `count` ones into zeros (Theorem 3.4's
    /// `decrement`). Saturates at zero.
    pub fn decrement(&mut self, count: u64) {
        self.snapshot.decrement(count);
    }

    /// Canonical binary encoding, appended to `w` (consumed by the
    /// sliding-window estimators' `encode` and ultimately by `psfa-store`).
    pub fn encode_into(&self, w: &mut ByteWriter) {
        put_header(w, TAG, VERSION);
        w.put_u64(self.sigma);
        w.put_u64(self.lambda);
        w.put_u64(self.n);
        w.put_u64(self.t);
        w.put_u64(self.r);
        self.snapshot.encode_into(w);
    }

    /// Canonical binary encoding as an owned buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Decodes a counter previously written by [`Sbbc::encode_into`],
    /// validating every constructor invariant (never panics on corrupted
    /// input).
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.expect_header(TAG, VERSION)?;
        let sigma = r.get_u64()?;
        let lambda = r.get_u64()?;
        let n = r.get_u64()?;
        let t = r.get_u64()?;
        let rr = r.get_u64()?;
        if sigma == 0 {
            return Err(CodecError::Invalid("sbbc: sigma must be >= 1"));
        }
        if lambda < 2 || !lambda.is_multiple_of(2) {
            return Err(CodecError::Invalid("sbbc: lambda must be even and >= 2"));
        }
        if n == 0 {
            return Err(CodecError::Invalid("sbbc: window must be >= 1"));
        }
        if rr > n {
            return Err(CodecError::Invalid("sbbc: coverage r must not exceed n"));
        }
        let snapshot = GammaSnapshot::decode_from(r)?;
        if snapshot.gamma() != lambda / 2 {
            return Err(CodecError::Invalid(
                "sbbc: snapshot gamma must equal lambda/2",
            ));
        }
        Ok(Self {
            sigma,
            lambda,
            n,
            t,
            r: rr,
            snapshot,
        })
    }

    /// Decodes a counter from a standalone buffer produced by
    /// [`Sbbc::encode`].
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

    /// Simple deterministic pseudo-random bit generator for tests.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
        fn bit(&mut self, one_in: u64) -> bool {
            self.next().is_multiple_of(one_in)
        }
    }

    fn window_count(bits: &[bool], n: u64) -> u64 {
        let start = bits.len().saturating_sub(n as usize);
        bits[start..].iter().filter(|&&b| b).count() as u64
    }

    #[test]
    fn corollary_3_5_estimate_bounds() {
        // For several (σ, λ) settings and densities, the estimate must satisfy
        // m <= m̂ <= m + λ whenever the counter has not overflowed.
        for &(sigma, lambda) in &[(1000u64, 2u64), (1000, 8), (1000, 32), (1000, 128)] {
            for &one_in in &[1u64, 2, 5, 20] {
                let n = 2_000u64;
                let mut sbbc = Sbbc::new(sigma, lambda, n);
                let mut rng = Lcg(sigma * 31 + lambda * 7 + one_in);
                let mut bits: Vec<bool> = Vec::new();
                for batch in 0..40 {
                    let mu = 100 + (batch * 37) % 400;
                    let piece: Vec<bool> = (0..mu).map(|_| rng.bit(one_in)).collect();
                    sbbc.advance(&CompactedSegment::from_bits(&piece));
                    bits.extend_from_slice(&piece);
                    let m = window_count(&bits, n);
                    match sbbc.query() {
                        QueryResult::Estimate(est) => {
                            assert!(est >= m, "est {est} < m {m} (λ={lambda}, 1/{one_in})");
                            assert!(
                                est <= m + lambda,
                                "est {est} > m + λ = {} (λ={lambda}, 1/{one_in})",
                                m + lambda
                            );
                        }
                        QueryResult::Overflowed => {
                            panic!("σ=1000 should never overflow in this test");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn overflow_certifies_many_ones() {
        // Small σ on a dense stream: once the counter reports Overflowed, the
        // true window count must be at least σ·λ (Theorem 3.4).
        let sigma = 4u64;
        let lambda = 8u64;
        let n = 10_000u64;
        let mut sbbc = Sbbc::new(sigma, lambda, n);
        let mut bits: Vec<bool> = Vec::new();
        let mut rng = Lcg(5);
        let mut saw_overflow = false;
        for _ in 0..60 {
            let piece: Vec<bool> = (0..200).map(|_| rng.bit(2)).collect();
            sbbc.advance(&CompactedSegment::from_bits(&piece));
            bits.extend_from_slice(&piece);
            if let QueryResult::Overflowed = sbbc.query() {
                saw_overflow = true;
                let m = window_count(&bits, n);
                assert!(
                    m >= sigma * lambda,
                    "overflowed but m = {m} < σλ = {}",
                    sigma * lambda
                );
            }
        }
        assert!(saw_overflow, "test should exercise the overflow path");
    }

    #[test]
    fn space_respects_sigma_cap() {
        let sigma = 10u64;
        let lambda = 4u64;
        let mut sbbc = Sbbc::new(sigma, lambda, 100_000);
        let mut rng = Lcg(77);
        for _ in 0..50 {
            let piece: Vec<bool> = (0..1000).map(|_| rng.bit(2)).collect();
            sbbc.advance(&CompactedSegment::from_bits(&piece));
            assert!(
                sbbc.space_blocks() as u64 <= 2 * sigma + 2,
                "space cap violated: {} blocks",
                sbbc.space_blocks()
            );
        }
    }

    #[test]
    fn space_is_proportional_to_ones_over_lambda() {
        // With a huge σ, the number of stored blocks must be O(m / λ).
        let lambda = 64u64;
        let n = 50_000u64;
        let mut sbbc = Sbbc::unbounded(lambda, n);
        let mut bits = Vec::new();
        let mut rng = Lcg(3);
        for _ in 0..50 {
            let piece: Vec<bool> = (0..500).map(|_| rng.bit(4)).collect();
            sbbc.advance(&CompactedSegment::from_bits(&piece));
            bits.extend_from_slice(&piece);
        }
        let m = window_count(&bits, n);
        let blocks = sbbc.space_blocks() as u64;
        assert!(
            blocks <= 2 * m / lambda + 2,
            "blocks {blocks} vs 2m/λ = {}",
            2 * m / lambda
        );
    }

    #[test]
    fn no_overflow_before_window_fills_with_zero_history() {
        let mut sbbc = Sbbc::new(4, 4, 1000).assume_zero_history();
        sbbc.advance(&CompactedSegment::from_bits(&[true, false, true]));
        let est = sbbc
            .value()
            .expect("zero-history counter must not overflow");
        assert!((2..=2 + 4).contains(&est));
    }

    #[test]
    fn partial_stream_window_semantics() {
        // Before the stream reaches n elements, the "window" is the whole
        // stream so far and the counter must not spuriously overflow.
        let mut sbbc = Sbbc::new(1000, 4, 1_000_000);
        let piece: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        sbbc.advance(&CompactedSegment::from_bits(&piece));
        let m = piece.iter().filter(|&&b| b).count() as u64;
        let est = sbbc.value().expect("must not overflow");
        assert!(est >= m && est <= m + 4);
    }

    #[test]
    fn decrement_then_query_reduces_estimate() {
        let mut sbbc = Sbbc::unbounded(4, 10_000);
        let bits: Vec<bool> = (0..2000).map(|i| i % 2 == 0).collect();
        sbbc.advance(&CompactedSegment::from_bits(&bits));
        let before = sbbc.value().unwrap();
        sbbc.decrement(100);
        let after = sbbc.value().unwrap();
        assert_eq!(after, before - 100);
        // Decrementing far past the value saturates at zero.
        sbbc.decrement(u64::MAX / 4);
        assert_eq!(sbbc.value().unwrap(), 0);
    }

    #[test]
    fn value_after_slide_matches_actual_slide() {
        let lambda = 8u64;
        let n = 1500u64;
        let mut rng = Lcg(123);
        let mut sbbc = Sbbc::unbounded(lambda, n);
        let mut bits = Vec::new();
        for _ in 0..20 {
            let piece: Vec<bool> = (0..300).map(|_| rng.bit(3)).collect();
            sbbc.advance(&CompactedSegment::from_bits(&piece));
            bits.extend_from_slice(&piece);
        }
        for &slide in &[0u64, 10, 100, 500, 1499] {
            let predicted = sbbc.value_after_slide(slide).unwrap();
            let mut clone = sbbc.clone();
            clone.advance(&CompactedSegment::zeros(slide));
            let actual = clone.value().unwrap();
            assert_eq!(predicted, actual, "slide={slide}");
        }
    }

    #[test]
    fn advance_with_empty_segment_is_noop_on_value() {
        let mut sbbc = Sbbc::new(10, 4, 100);
        sbbc.advance(&CompactedSegment::from_bits(&[true, true, false]));
        let v = sbbc.value().unwrap();
        sbbc.advance(&CompactedSegment::zeros(0));
        assert_eq!(sbbc.value().unwrap(), v);
    }

    #[test]
    fn encode_decode_roundtrip_preserves_state_and_behaviour() {
        let mut rng = Lcg(11);
        let mut sbbc = Sbbc::new(6, 8, 3_000).assume_zero_history();
        for _ in 0..25 {
            let piece: Vec<bool> = (0..400).map(|_| rng.bit(3)).collect();
            sbbc.advance(&CompactedSegment::from_bits(&piece));
        }
        sbbc.decrement(17);
        let decoded = Sbbc::decode(&sbbc.encode()).expect("roundtrip");
        assert_eq!(decoded, sbbc);
        // Behavioural equality: both continue identically.
        let mut a = sbbc.clone();
        let mut b = decoded;
        let piece: Vec<bool> = (0..500).map(|_| rng.bit(2)).collect();
        a.advance(&CompactedSegment::from_bits(&piece));
        b.advance(&CompactedSegment::from_bits(&piece));
        assert_eq!(a, b);
        assert_eq!(a.query(), b.query());
    }

    #[test]
    fn decode_rejects_truncation_and_corruption_without_panic() {
        let mut sbbc = Sbbc::unbounded(4, 1_000);
        sbbc.advance(&CompactedSegment::from_bits(&[true; 64]));
        let bytes = sbbc.encode();
        // Every truncation point must be a typed error, not a panic.
        for cut in 0..bytes.len() {
            assert!(Sbbc::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Flipping any single byte must never panic (it may still decode to
        // some other valid counter, e.g. a different t).
        for i in 0..bytes.len() {
            let mut copy = bytes.clone();
            copy[i] ^= 0xFF;
            let _ = Sbbc::decode(&copy);
        }
        // A zeroed lambda is structurally invalid.
        let mut copy = bytes.clone();
        copy[10..18].fill(0); // lambda field (tag, version, sigma, then lambda)
        assert!(Sbbc::decode(&copy).is_err());
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_lambda_rejected() {
        let _ = Sbbc::new(10, 3, 100);
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn zero_sigma_rejected() {
        let _ = Sbbc::new(0, 4, 100);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        let _ = Sbbc::new(1, 4, 0);
    }
}
