//! Workload inputs: a pool of minibatches generated from the seed before
//! anything is timed, cycled round-robin while measuring, and the exact
//! reference counts of any prefix of that cycle.
//!
//! The generators live here, not in `psfa-stream`, so the inputs of a given
//! seed are identical on every commit of the library.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// splitmix64: small, seedable, and good enough to drive a CDF lookup.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The splitmix64 finaliser: a bijection on `u64`.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The key of popularity rank `rank`. It does not depend on the seed:
/// which shard owns the hottest keys is then the same for every seed, and
/// the seed varies only the order and the counts in which keys arrive.
pub fn key_of_rank(rank: u64) -> u64 {
    mix(rank.wrapping_add(0x5EED_0FC0_FFEE))
}

/// How keys are distributed over popularity ranks `0..universe`.
#[derive(Debug, Clone, Copy)]
pub enum Keys {
    /// Rank `i` has probability proportional to `1/(i+1)^alpha`.
    Zipf {
        universe: u64,
        alpha: f64,
    },
    Uniform {
        universe: u64,
    },
}

/// The pre-generated minibatches of one workload.
pub struct Pool {
    pub batches: Vec<Vec<u64>>,
    pub batch_len: usize,
}

/// Hashes the benchmark's own already-mixed keys with one multiply; used
/// only for the reference counts, never for anything measured.
#[derive(Default)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }
}

pub type Counts = HashMap<u64, u64, BuildHasherDefault<KeyHasher>>;

impl Pool {
    pub fn generate(seed: u64, keys: Keys, batches: usize, batch_len: usize) -> Pool {
        let mut rng = Rng::new(seed);
        let cdf = match keys {
            Keys::Zipf { universe, alpha } => {
                let mut cdf = Vec::with_capacity(universe as usize);
                let mut acc = 0.0f64;
                for i in 0..universe {
                    acc += ((i + 1) as f64).powf(-alpha);
                    cdf.push(acc);
                }
                for v in &mut cdf {
                    *v /= acc;
                }
                cdf
            }
            Keys::Uniform { .. } => Vec::new(),
        };
        let draw = |rng: &mut Rng| match keys {
            Keys::Zipf { universe, .. } => {
                let u = rng.next_f64();
                let rank = cdf.partition_point(|&p| p < u) as u64;
                key_of_rank(rank.min(universe - 1))
            }
            Keys::Uniform { universe } => key_of_rank(rng.next_u64() % universe),
        };
        let batches = (0..batches)
            .map(|_| (0..batch_len).map(|_| draw(&mut rng)).collect())
            .collect();
        Pool { batches, batch_len }
    }

    /// Batch number `k` of the offered stream: the pool cycled round-robin.
    pub fn batch(&self, k: u64) -> &[u64] {
        &self.batches[(k % self.batches.len() as u64) as usize]
    }

    /// Exact counts of the stream's batches `from..to`.
    pub fn counts(&self, from: u64, to: u64) -> Counts {
        let p = self.batches.len() as u64;
        // How many times batch `i` of the pool occurs among `0..n`.
        let uses = |n: u64, i: u64| n / p + u64::from(i < n % p);
        let mut counts = Counts::default();
        for (i, batch) in self.batches.iter().enumerate() {
            let weight = uses(to, i as u64) - uses(from, i as u64);
            if weight > 0 {
                for &key in batch {
                    *counts.entry(key).or_insert(0) += weight;
                }
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_pool_and_zipf_is_skewed() {
        let keys = Keys::Zipf {
            universe: 1 << 12,
            alpha: 1.2,
        };
        let a = Pool::generate(7, keys, 4, 1000);
        let b = Pool::generate(7, keys, 4, 1000);
        let c = Pool::generate(8, keys, 4, 1000);
        assert_eq!(a.batches, b.batches);
        assert_ne!(a.batches, c.batches);
        let counts = a.counts(0, 4);
        assert_eq!(counts.values().sum::<u64>(), 4000);
        assert!(
            counts[&key_of_rank(0)] > 400,
            "rank 0 carries ~19% of Zipf(1.2)"
        );
    }

    #[test]
    fn counts_follow_the_round_robin_cycle() {
        let pool = Pool {
            batches: vec![vec![1, 1], vec![2, 3], vec![3, 3]],
            batch_len: 2,
        };
        // Batches 0..7 = pool cycled twice, then batch 0 again.
        let counts = pool.counts(0, 7);
        assert_eq!((counts[&1], counts[&2], counts[&3]), (6, 2, 6));
        // Batches 4..7 = pool[1], pool[2], pool[0].
        let window = pool.counts(4, 7);
        assert_eq!((window[&1], window[&2], window[&3]), (2, 1, 3));
        assert_eq!(pool.batch(5), &[3, 3]);
    }
}
