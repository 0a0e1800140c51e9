//! Synthetic workload generators.
//!
//! The paper evaluates nothing empirically and cites network-monitoring
//! workloads only as motivation; these generators provide the corresponding
//! synthetic inputs (a substitution: the paper, PAPER.md, names no dataset).
//! All generators are deterministic functions of their seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::zipf::ZipfSampler;

/// A source of minibatches of item identifiers.
pub trait StreamGenerator {
    /// Produces the next minibatch of `size` items.
    fn next_minibatch(&mut self, size: usize) -> Vec<u64>;

    /// A short human-readable name used in experiment output.
    fn name(&self) -> &'static str;
}

/// Uniformly random items from `0..universe`.
#[derive(Debug, Clone)]
pub struct UniformGenerator {
    universe: u64,
    rng: StdRng,
}

impl UniformGenerator {
    /// Creates a uniform generator over `0..universe`.
    pub fn new(universe: u64, seed: u64) -> Self {
        assert!(universe >= 1, "universe must be non-empty");
        Self {
            universe,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl StreamGenerator for UniformGenerator {
    fn next_minibatch(&mut self, size: usize) -> Vec<u64> {
        (0..size)
            .map(|_| self.rng.gen_range(0..self.universe))
            .collect()
    }

    fn name(&self) -> &'static str {
        "uniform"
    }
}

/// Zipf(α)-distributed items — the canonical heavy-hitter workload.
#[derive(Debug, Clone)]
pub struct ZipfGenerator {
    sampler: ZipfSampler,
}

impl ZipfGenerator {
    /// Creates a Zipf generator over `0..universe` with skew `alpha`.
    pub fn new(universe: u64, alpha: f64, seed: u64) -> Self {
        Self {
            sampler: ZipfSampler::new(universe, alpha, seed),
        }
    }
}

impl StreamGenerator for ZipfGenerator {
    fn next_minibatch(&mut self, size: usize) -> Vec<u64> {
        self.sampler.sample_batch(size)
    }

    fn name(&self) -> &'static str {
        "zipf"
    }
}

/// Bursty traffic: alternates between a "quiet" regime (uniform over the full
/// universe) and "burst" regimes in which a single random item dominates —
/// modelling flash crowds / DDoS-like spikes in network monitoring.
#[derive(Debug, Clone)]
pub struct BurstyGenerator {
    universe: u64,
    burst_len: usize,
    position: usize,
    current_burst_item: Option<u64>,
    rng: StdRng,
}

impl BurstyGenerator {
    /// Creates a bursty generator; every other period of `burst_len` items is
    /// dominated (90%) by one random item.
    pub fn new(universe: u64, burst_len: usize, seed: u64) -> Self {
        assert!(universe >= 1 && burst_len >= 1);
        Self {
            universe,
            burst_len,
            position: 0,
            current_burst_item: None,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl StreamGenerator for BurstyGenerator {
    fn next_minibatch(&mut self, size: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(size);
        for _ in 0..size {
            let phase = (self.position / self.burst_len) % 2;
            if phase == 1 {
                let item = *self
                    .current_burst_item
                    .get_or_insert_with(|| self.rng.gen_range(0..self.universe));
                if self.rng.gen_bool(0.9) {
                    out.push(item);
                } else {
                    out.push(self.rng.gen_range(0..self.universe));
                }
            } else {
                self.current_burst_item = None;
                out.push(self.rng.gen_range(0..self.universe));
            }
            self.position += 1;
        }
        out
    }

    fn name(&self) -> &'static str {
        "bursty"
    }
}

/// Adversarial churn for sliding windows: the heavy-hitter set rotates every
/// `rotation` items, so items that were heavy in the previous window must be
/// evicted/decayed by the algorithms — the hard case for sliding-window
/// summaries.
#[derive(Debug, Clone)]
pub struct AdversarialChurnGenerator {
    heavy_set_size: u64,
    rotation: usize,
    position: usize,
    rng: StdRng,
}

impl AdversarialChurnGenerator {
    /// Creates a churn generator with `heavy_set_size` concurrently heavy
    /// items, rotating to a disjoint heavy set every `rotation` items.
    pub fn new(heavy_set_size: u64, rotation: usize, seed: u64) -> Self {
        assert!(heavy_set_size >= 1 && rotation >= 1);
        Self {
            heavy_set_size,
            rotation,
            position: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl StreamGenerator for AdversarialChurnGenerator {
    fn next_minibatch(&mut self, size: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(size);
        for _ in 0..size {
            let epoch = (self.position / self.rotation) as u64;
            let base = epoch * self.heavy_set_size;
            if self.rng.gen_bool(0.8) {
                out.push(base + self.rng.gen_range(0..self.heavy_set_size));
            } else {
                // Background noise from a large disjoint id range.
                out.push(1_000_000_000 + self.rng.gen_range(0..1_000_000));
            }
            self.position += 1;
        }
        out
    }

    fn name(&self) -> &'static str {
        "adversarial-churn"
    }
}

/// A synthetic packet-flow trace: flow identifiers whose sizes follow a
/// heavy-tailed (Pareto-like) distribution, emitted in interleaved runs —
/// the stand-in for the network traces of \[EV03, CH10\] that motivate the
/// paper (its §1).
#[derive(Debug, Clone)]
pub struct PacketTraceGenerator {
    active_flows: Vec<(u64, u64)>, // (flow id, remaining packets)
    next_flow_id: u64,
    max_active: usize,
    rng: StdRng,
}

impl PacketTraceGenerator {
    /// Creates a trace generator keeping up to `max_active` concurrently
    /// active flows.
    pub fn new(max_active: usize, seed: u64) -> Self {
        assert!(max_active >= 1);
        Self {
            active_flows: Vec::new(),
            next_flow_id: 0,
            max_active,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws a heavy-tailed flow size: Pareto(α = 1.2) truncated to
    /// `[1, 100_000]`.
    fn flow_size(&mut self) -> u64 {
        let u: f64 = self.rng.gen_range(0.0f64..1.0).max(1e-9);
        let size = (1.0 / u.powf(1.0 / 1.2)) as u64;
        size.clamp(1, 100_000)
    }
}

impl StreamGenerator for PacketTraceGenerator {
    fn next_minibatch(&mut self, size: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(size);
        for _ in 0..size {
            // Spawn flows until the active set is full.
            while self.active_flows.len() < self.max_active {
                let id = self.next_flow_id;
                self.next_flow_id += 1;
                let packets = self.flow_size();
                self.active_flows.push((id, packets));
            }
            // Emit one packet from a random active flow.
            let idx = self.rng.gen_range(0..self.active_flows.len());
            let (id, remaining) = &mut self.active_flows[idx];
            out.push(*id);
            *remaining -= 1;
            if *remaining == 0 {
                self.active_flows.swap_remove(idx);
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "packet-trace"
    }
}

/// Binary streams of configurable 1-density for the basic-counting and sum
/// experiments (E1–E3).
#[derive(Debug, Clone)]
pub struct BinaryStreamGenerator {
    density: f64,
    rng: StdRng,
}

impl BinaryStreamGenerator {
    /// Creates a generator emitting 1 bits with probability `density`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ density ≤ 1`.
    pub fn new(density: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&density), "density must be in [0, 1]");
        Self {
            density,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Produces the next minibatch of bits.
    pub fn next_bits(&mut self, size: usize) -> Vec<bool> {
        (0..size).map(|_| self.rng.gen_bool(self.density)).collect()
    }

    /// Produces the next minibatch of bounded integers (for the sum
    /// experiment): zero with probability `1 − density`, otherwise uniform in
    /// `1..=max_value`.
    pub fn next_values(&mut self, size: usize, max_value: u64) -> Vec<u64> {
        (0..size)
            .map(|_| {
                if self.rng.gen_bool(self.density) {
                    self.rng.gen_range(1..=max_value)
                } else {
                    0
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn frequencies(items: &[u64]) -> HashMap<u64, u64> {
        let mut m = HashMap::new();
        for &x in items {
            *m.entry(x).or_insert(0u64) += 1;
        }
        m
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let mut a = ZipfGenerator::new(1000, 1.1, 5);
        let mut b = ZipfGenerator::new(1000, 1.1, 5);
        assert_eq!(a.next_minibatch(500), b.next_minibatch(500));
        let mut c = UniformGenerator::new(1000, 5);
        let mut d = UniformGenerator::new(1000, 5);
        assert_eq!(c.next_minibatch(500), d.next_minibatch(500));
    }

    #[test]
    fn zipf_generator_is_skewed() {
        let mut g = ZipfGenerator::new(10_000, 1.3, 1);
        let batch = g.next_minibatch(50_000);
        let freq = frequencies(&batch);
        let top: u64 = (0..10).map(|i| freq.get(&i).copied().unwrap_or(0)).sum();
        assert!(
            top as f64 > 0.5 * batch.len() as f64,
            "top-10 mass too small: {top}"
        );
    }

    #[test]
    fn bursty_generator_produces_dominant_items_in_bursts() {
        let mut g = BurstyGenerator::new(100_000, 1000, 3);
        let _quiet = g.next_minibatch(1000);
        let burst = g.next_minibatch(1000);
        let freq = frequencies(&burst);
        let max = freq.values().copied().max().unwrap_or(0);
        assert!(
            max > 700,
            "burst phase should be dominated by one item, max = {max}"
        );
    }

    #[test]
    fn churn_generator_rotates_heavy_sets() {
        let mut g = AdversarialChurnGenerator::new(4, 2000, 7);
        let epoch0 = g.next_minibatch(2000);
        let epoch1 = g.next_minibatch(2000);
        let f0 = frequencies(&epoch0);
        let f1 = frequencies(&epoch1);
        // Items 0..4 are heavy in epoch 0 and absent (as heavy) in epoch 1.
        let heavy0: u64 = (0..4).map(|i| f0.get(&i).copied().unwrap_or(0)).sum();
        let heavy0_later: u64 = (0..4).map(|i| f1.get(&i).copied().unwrap_or(0)).sum();
        assert!(heavy0 > 1000);
        assert!(heavy0_later < 100);
    }

    #[test]
    fn packet_trace_has_heavy_and_light_flows() {
        let mut g = PacketTraceGenerator::new(64, 9);
        let batch = g.next_minibatch(100_000);
        let freq = frequencies(&batch);
        let max = freq.values().copied().max().unwrap();
        let singletons = freq.values().filter(|&&c| c <= 2).count();
        assert!(
            max > 1000,
            "expected at least one elephant flow, max = {max}"
        );
        assert!(
            singletons > 100,
            "expected many mice flows, got {singletons}"
        );
    }

    #[test]
    fn binary_generator_density() {
        let mut g = BinaryStreamGenerator::new(0.25, 11);
        let bits = g.next_bits(40_000);
        let ones = bits.iter().filter(|&&b| b).count();
        assert!((8_000..12_000).contains(&ones), "ones = {ones}");
        let values = g.next_values(10_000, 100);
        assert!(values.iter().all(|&v| v <= 100));
        assert!(values.iter().any(|&v| v > 0));
    }
}
