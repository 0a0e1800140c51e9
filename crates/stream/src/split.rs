//! Key-space splitting of minibatch streams across shards.
//!
//! [`shard_of`] is the *hash* assignment: each key owned by exactly one
//! shard, a pure function of the key. It is the default policy; the
//! [`Router`](crate::router::Router) in [`crate::router`] applies it, and
//! under skew-aware routing splits hot keys across all shards instead.
//!
//! The routing hash is deliberately *independent* of the seeded hash
//! families in `psfa-primitives`: operators inside a shard must not see a
//! key distribution correlated with their own hash functions.

/// Multiplier of the SplitMix64/Fibonacci mixing step used for routing.
const ROUTE_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// The shard in `0..shards` that owns `key`.
///
/// Stable across processes and handle clones: routing is a pure function of
/// `(key, shards)`.
///
/// # Panics
/// Panics if `shards == 0`.
#[inline]
pub fn shard_of(key: u64, shards: usize) -> usize {
    assert!(shards > 0, "shard_of: shards must be non-zero");
    // Finalizer of SplitMix64: full-avalanche mixing, then a multiply-shift
    // reduction onto the shard range (unbiased enough for load balancing).
    let mut z = key.wrapping_add(ROUTE_MULTIPLIER);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (((z as u128) * (shards as u128)) >> 64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{StreamGenerator, ZipfGenerator};
    use crate::router::RoutingPolicy;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for shards in [1usize, 2, 3, 8, 13] {
            for key in 0..10_000u64 {
                let s = shard_of(key, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(key, shards), "routing must be stable");
            }
        }
    }

    #[test]
    fn partition_preserves_all_items_and_ownership() {
        let mut generator = ZipfGenerator::new(50_000, 1.1, 7);
        let batch = generator.next_minibatch(20_000);
        let parts = RoutingPolicy::Hash.build(8).partition(&batch);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), batch.len());
        for (shard, part) in parts.iter().enumerate() {
            for &item in part {
                assert_eq!(shard_of(item, 8), shard);
            }
        }
    }

    #[test]
    fn partition_is_reasonably_balanced_on_uniform_keys() {
        // Distinct keys (not occurrences) should spread evenly.
        let keys: Vec<u64> = (0..64_000u64).collect();
        let parts = RoutingPolicy::Hash.build(8).partition(&keys);
        for part in &parts {
            let share = part.len() as f64 / keys.len() as f64;
            assert!((0.10..0.15).contains(&share), "unbalanced shard: {share}");
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_shards_rejected() {
        let _ = shard_of(1, 0);
    }
}
