//! Minibatch routing: how item occurrences are assigned to shards.
//!
//! Hash routing ([`crate::split::shard_of`]) partitions the *key space*
//! evenly but not the *traffic*: under Zipf-skewed streams every occurrence
//! of a hot key lands on one shard, and worst-case shard load — not the
//! hardware — bounds throughput. One [`Router`] serves both policies a
//! [`RoutingPolicy`] names:
//!
//! * **skew-aware** — hot keys are detected online by a small array-based
//!   Space-Saving tracker kept off the data path (as in QPOPSS and Parallel
//!   Space Saving), and each hot key's occurrences are spread round-robin
//!   across *all* shards; queries must then sum the key's per-shard counts
//!   ([`Placement::Replicated`]);
//! * **hash** — the same router with no hot slots: it never samples, never
//!   promotes, and every key is owned by its [`shard_of`] shard.
//!
//! The skew-aware rule is fixed, a function of the shard count alone: a key
//! is promoted once its estimated share of the sampled traffic reaches a
//! quarter of a shard's fair share, `0.25 / shards`; at most `4 · shards`
//! keys are ever promoted; and promotion is sticky.
//!
//! ## Why splitting preserves the paper's one-sided bounds
//!
//! Each occurrence still lands on exactly one shard, so per-shard substreams
//! partition the input stream: `Σ_s m_s = m`. A shard's Misra–Gries summary
//! underestimates its substream frequency `f_s` by at most `ε·m_s`, hence the
//! *sum* of a replicated key's per-shard estimates underestimates
//! `f = Σ_s f_s` by at most `Σ_s ε·m_s = ε·m` and never overestimates —
//! exactly the single-summary guarantee. Count-Min sketches overestimate
//! per shard by at most `ε_cm·m_s`, so the summed overestimate stays within
//! `ε_cm·m`. This is the mergeable-summaries argument of
//! `psfa_freq::MgSummary::merge` applied at query time.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::split::shard_of;

/// No key is promoted before the tracker has seen this many *samples*, so a
/// share is never judged on a handful of them.
const MIN_SAMPLES: u64 = 512;

/// Every `SAMPLE_STRIDE`-th item is fed to the tracker: a key with traffic
/// share `p` has share `p` in the stride sample too, so detection is
/// unaffected while the per-batch tracking cost (including Space-Saving's
/// `O(capacity)` scans) shrinks by the stride.
const SAMPLE_STRIDE: usize = 8;

/// The skew detector: a Space-Saving summary (Metwally et al.) in two flat
/// arrays. The capacity is a few dozen slots — `16 · shards`, 32 for two
/// shards — so finding a key is one linear pass over a couple of cache
/// lines, with no hashing and no allocation after construction. The
/// eviction victim is the *first* slot holding the minimum count, so the
/// same sample sequence always yields the same summary (and the same
/// promotions); it is cached and moved on only when its own count grows,
/// which makes a sample `O(1)` beyond the key pass.
///
/// Guarantee, as for any Space-Saving summary of `S` slots over `m`
/// samples: `f ≤ count ≤ f + m/S` for every tracked key, and every key
/// with `f > m/S` is tracked.
#[derive(Debug)]
struct HotKeyDetector {
    capacity: usize,
    keys: Vec<u64>,
    counts: Vec<u64>,
    /// Once all `capacity` slots are in use: the first slot holding the
    /// minimum count. Unused (and stale) while the summary is filling.
    victim: usize,
    samples: u64,
}

impl HotKeyDetector {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            keys: Vec::with_capacity(capacity),
            counts: Vec::with_capacity(capacity),
            victim: 0,
            samples: 0,
        }
    }

    fn update(&mut self, key: u64) {
        self.samples += 1;
        // Tracked keys are distinct, so at most one slot matches and the
        // pass needs no early exit: without one it is a run of compares
        // and conditional moves, not a mispredicted branch per sample.
        let mut hit = usize::MAX;
        for (slot, &tracked) in self.keys.iter().enumerate() {
            if tracked == key {
                hit = slot;
            }
        }
        if hit != usize::MAX {
            self.increment(hit);
        } else if self.keys.len() < self.capacity {
            self.keys.push(key);
            self.counts.push(1);
            if self.keys.len() == self.capacity {
                // `min_by_key` keeps the first of equal minima.
                self.victim = (0..self.capacity)
                    .min_by_key(|&slot| self.counts[slot])
                    .expect("capacity is non-zero");
            }
        } else {
            self.keys[self.victim] = key;
            self.increment(self.victim);
        }
    }

    /// Adds one to `slot`'s count and, if that slot was the victim, moves
    /// the victim on. Every slot before the old victim holds a larger count
    /// than the old minimum, so the first slot at the minimum is now the
    /// first *later* slot still at the old one, or — when none is left —
    /// the first slot at the new minimum, one higher.
    fn increment(&mut self, slot: usize) {
        let old = self.counts[slot];
        self.counts[slot] = old + 1;
        if slot == self.victim && self.keys.len() == self.capacity {
            self.victim = match self.counts[slot + 1..].iter().position(|&c| c == old) {
                Some(later) => slot + 1 + later,
                None => self
                    .counts
                    .iter()
                    .position(|&c| c == old + 1)
                    .expect("the slot just incremented holds it"),
            };
        }
    }

    /// Tracked `(key, count)` pairs in slot order.
    fn entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.keys.iter().copied().zip(self.counts.iter().copied())
    }
}

/// Where a key's count mass may reside under a router's policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// All of the key's occurrences were routed to this single shard; a
    /// point query is answered by the owner alone.
    Owner(usize),
    /// The key's occurrences may be spread across every shard; a point
    /// query must sum the per-shard estimates (one-sided error `ε·m`, see
    /// the module docs).
    Replicated,
}

/// Splits minibatches across shards and reports where each key's counts
/// live, under hash or skew-aware routing (module docs).
///
/// Shared between concurrent producers and queriers behind an
/// `Arc<Router>`, so all methods take `&self`.
///
/// Under skew-aware routing a stride sample of every partitioned minibatch
/// feeds the tracker, and a key whose estimated share reaches
/// `0.25 / shards` is *promoted*: its later occurrences are dealt
/// round-robin to all shards, levelling the load that hash routing
/// concentrates on the key's home shard. Promotion is **sticky** — a
/// promoted key is never demoted, so [`Router::placement`] can always answer
/// from the current hot set without per-key routing history (dynamic
/// demotion needs exactly that history and is left as a follow-on; see
/// ROADMAP.md).
///
/// Promotion is a load-balancing decision, not a correctness one: whichever
/// keys are (or are not) promoted, every occurrence lands on exactly one
/// shard, and replicated keys are summed at query time (module docs). A
/// query racing a promotion may briefly read `Placement::Owner` for a key
/// whose newest occurrences were already spread — the summed/owner estimate
/// remains one-sided (it never overestimates) and catches up on the next
/// read.
pub struct Router {
    shards: usize,
    /// The sticky hot set: `hot[..hot_len]` are the promoted keys in
    /// promotion order — `4 · shards` slots under skew-aware routing, none
    /// under hash routing. Slots are stored only while the tracker lock is
    /// held, and a slot below `hot_len` is never stored again.
    hot: Box<[AtomicU64]>,
    /// Stored with `Release` after the slots it newly covers, so a reader
    /// that loads it with `Acquire` sees every slot below it.
    hot_len: AtomicUsize,
    /// The skew detector; holding its lock is what makes a thread the one
    /// hot-set writer.
    tracker: Mutex<HotKeyDetector>,
    /// Bumped once per hot-set change, after the new length is published.
    promotions: AtomicU64,
    /// Round-robin cursor shared by all producers for hot-key occurrences.
    cursor: AtomicUsize,
    /// Rotates the sampling offset so periodic streams cannot hide from the
    /// stride.
    batches: AtomicUsize,
}

/// Whether `key` is among the published hot slots `hot`.
fn is_hot(hot: &[AtomicU64], key: u64) -> bool {
    hot.iter().any(|slot| slot.load(Ordering::Relaxed) == key)
}

impl Router {
    /// A router over `shards` shards with `hot_capacity` hot slots (none
    /// for hash routing).
    fn new(shards: usize, hot_capacity: usize) -> Self {
        assert!(shards > 0, "routing requires at least one shard");
        Self {
            shards,
            hot: (0..hot_capacity).map(|_| AtomicU64::new(0)).collect(),
            hot_len: AtomicUsize::new(0),
            // `16 · shards` slots (none under hash routing): a Space-Saving
            // overestimate of at most a quarter of the `0.25 / shards`
            // promotion share, so no key is promoted on a true share far
            // below it.
            tracker: Mutex::new(HotKeyDetector::new(4 * hot_capacity)),
            promotions: AtomicU64::new(0),
            cursor: AtomicUsize::new(0),
            batches: AtomicUsize::new(0),
        }
    }

    /// Short policy name for metrics and experiment tables.
    pub fn name(&self) -> &'static str {
        if self.hot.is_empty() {
            RoutingPolicy::Hash.name()
        } else {
            RoutingPolicy::SkewAware.name()
        }
    }

    /// The number of shards this router routes across.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The published hot slots.
    fn hot(&self) -> &[AtomicU64] {
        &self.hot[..self.hot_len.load(Ordering::Acquire)]
    }

    /// Splits one minibatch into caller-provided buffers, one per shard
    /// (cleared first). Every item occurrence lands in exactly one
    /// sub-batch, and item order within a sub-batch preserves stream order.
    /// The engine's ingest endpoints route into scratch they keep across
    /// calls and [`crate::BufferPool::refill`], so steady-state routing
    /// performs no heap allocation at all.
    ///
    /// # Panics
    /// Panics if `parts.len() != self.shards()`.
    pub fn partition_into(&self, minibatch: &[u64], parts: &mut [Vec<u64>]) {
        // A local copy: the router holds atomics, so `self.shards` could
        // not stay in a register across the pushes.
        let shards = self.shards;
        assert_eq!(parts.len(), shards, "partition_into: wrong part count");
        for part in parts.iter_mut() {
            part.clear();
        }
        let hot = self.hot();
        if hot.is_empty() {
            // Hash routing always, and skew-aware routing until its first
            // promotion: nothing to probe per item.
            for &item in minibatch {
                parts[shard_of(item, shards)].push(item);
            }
        } else {
            // One shared-cursor RMW per *batch*, not per hot occurrence:
            // under heavy skew a per-item fetch_add would ping-pong one
            // cache line between all producers. Reserving `len` slots up
            // front over-counts (cold items burn no slot), which only
            // shifts the next batch's round-robin phase — the deal within
            // a batch stays exact.
            let mut cursor = self.cursor.fetch_add(minibatch.len(), Ordering::Relaxed);
            for &item in minibatch {
                let shard = if is_hot(hot, item) {
                    cursor += 1;
                    cursor % shards
                } else {
                    shard_of(item, shards)
                };
                parts[shard].push(item);
            }
        }
        self.observe(minibatch);
    }

    /// Allocating convenience over [`Router::partition_into`]: splits one
    /// minibatch into `shards()` fresh per-shard sub-batches.
    pub fn partition(&self, minibatch: &[u64]) -> Vec<Vec<u64>> {
        let mut parts: Vec<Vec<u64>> = (0..self.shards)
            .map(|_| Vec::with_capacity(minibatch.len() / self.shards + 1))
            .collect();
        self.partition_into(minibatch, &mut parts);
        parts
    }

    /// Feeds a stride sample of one minibatch to the tracker and promotes
    /// every key whose estimated traffic share reached `0.25 / shards`.
    fn observe(&self, minibatch: &[u64]) {
        // Promotion is sticky, so once the hot set is full — from the start
        // under hash routing — no observation can ever matter again: skip
        // the tracker lock and the sampling for good.
        if self.hot_len.load(Ordering::Relaxed) >= self.hot.len() {
            return;
        }
        let offset = self.batches.fetch_add(1, Ordering::Relaxed) % SAMPLE_STRIDE;
        let mut tracker = self.tracker.lock().expect("skew tracker lock poisoned");
        for &item in minibatch.iter().skip(offset).step_by(SAMPLE_STRIDE) {
            tracker.update(item);
        }
        let m = tracker.samples;
        if m < MIN_SAMPLES {
            return;
        }
        let threshold = 0.25 / self.shards as f64 * m as f64;
        let hot = tracker
            .entries()
            .filter(|&(_, est)| est as f64 >= threshold)
            .map(|(key, _)| key);
        self.append_hot(&tracker, hot);
    }

    /// Appends each of `keys` not hot yet while slots remain, then publishes
    /// them with one `Release` store of the length. `_writer` is the locked
    /// tracker: holding it makes this call the only hot-set writer.
    fn append_hot(
        &self,
        _writer: &MutexGuard<'_, HotKeyDetector>,
        keys: impl IntoIterator<Item = u64>,
    ) {
        let published = self.hot_len.load(Ordering::Relaxed);
        let mut len = published;
        for key in keys {
            if len == self.hot.len() {
                break;
            }
            if !is_hot(&self.hot[..len], key) {
                self.hot[len].store(key, Ordering::Relaxed);
                len += 1;
            }
        }
        if len > published {
            self.hot_len.store(len, Ordering::Release);
            self.promotions.fetch_add(1, Ordering::Release);
        }
    }

    /// The shards on which `key`'s count mass may reside. Queries use this
    /// to decide between an owner-only read and a cross-shard sum.
    pub fn placement(&self, key: u64) -> Placement {
        if is_hot(self.hot(), key) {
            Placement::Replicated
        } else {
            Placement::Owner(shard_of(key, self.shards))
        }
    }

    /// Keys currently split across shards, sorted (empty under hash
    /// routing).
    pub fn hot_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .hot()
            .iter()
            .map(|slot| slot.load(Ordering::Relaxed))
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Monotone count of hot-set changes (promotion events) so far; `0`
    /// forever under hash routing. Observability layers poll this cheaply
    /// (one atomic load) to detect promotions without hooking the routing
    /// path.
    pub fn promotions(&self) -> u64 {
        self.promotions.load(Ordering::Acquire)
    }

    /// Promotes `keys` to the split (replicated) set while hot slots remain;
    /// a no-op under hash routing. Used by crash recovery to restore a
    /// persisted hot set, so replicated-key placements — and therefore
    /// query-time summing — survive a restart.
    pub fn promote(&self, keys: &[u64]) {
        let tracker = self.tracker.lock().expect("skew tracker lock poisoned");
        self.append_hot(&tracker, keys.iter().copied());
    }
}

/// Plain-data routing configuration: which [`Router`] an engine builds at
/// spawn time. Keeps `EngineConfig` `Clone` + `Debug` while the running
/// engine shares a single `Arc<Router>` across handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// Hash partitioning: each key owned by exactly one shard (default).
    #[default]
    Hash,
    /// Online hot-key detection with round-robin splitting of hot keys.
    SkewAware,
}

impl RoutingPolicy {
    /// Skew-aware routing.
    pub fn skew_aware() -> Self {
        RoutingPolicy::SkewAware
    }

    /// Short policy name for display.
    pub fn name(&self) -> &'static str {
        match self {
            RoutingPolicy::Hash => "hash",
            RoutingPolicy::SkewAware => "skew-aware",
        }
    }

    /// The most keys this policy's router over `shards` shards ever
    /// promotes: none under hash routing, `4 · shards` under skew-aware
    /// routing — as many as can each hold the `0.25 / shards` promotion
    /// share at once.
    pub fn hot_capacity(&self, shards: usize) -> usize {
        match self {
            RoutingPolicy::Hash => 0,
            RoutingPolicy::SkewAware => 4 * shards,
        }
    }

    /// Builds the router this policy describes.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn build(&self, shards: usize) -> Arc<Router> {
        Arc::new(Router::new(shards, self.hot_capacity(shards)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{StreamGenerator, ZipfGenerator};
    use std::collections::HashMap;
    use std::sync::atomic::AtomicBool;

    fn shard_loads(parts: &[Vec<u64>]) -> Vec<usize> {
        parts.iter().map(Vec::len).collect()
    }

    fn imbalance(loads: &[usize]) -> f64 {
        let total: usize = loads.iter().sum();
        let mean = total as f64 / loads.len() as f64;
        loads.iter().copied().max().unwrap_or(0) as f64 / mean
    }

    #[test]
    fn hash_router_matches_partition_by_key() {
        let router = RoutingPolicy::Hash.build(8);
        let mut generator = ZipfGenerator::new(10_000, 1.2, 5);
        let batch = generator.next_minibatch(10_000);
        // Each part is exactly its shard's keys, in stream order.
        for (shard, part) in router.partition(&batch).iter().enumerate() {
            let owned = batch.iter().copied().filter(|&k| shard_of(k, 8) == shard);
            assert_eq!(*part, owned.collect::<Vec<u64>>());
        }
        // Scratch an endpoint kept from an earlier call (an unsent slot
        // still holds its items) is cleared before routing.
        let mut scratch: Vec<Vec<u64>> = (0..8).map(|s| vec![s; 3]).collect();
        router.partition_into(&batch, &mut scratch);
        assert_eq!(scratch, router.partition(&batch));
        assert_eq!(router.shards(), 8);
        assert_eq!(router.name(), "hash");
        assert!(router.hot_keys().is_empty());
        for key in 0..100u64 {
            assert_eq!(router.placement(key), Placement::Owner(shard_of(key, 8)));
        }
    }

    #[test]
    fn skew_router_promotes_hot_keys_and_levels_load() {
        let shards = 8;
        let router = RoutingPolicy::SkewAware.build(shards);
        let hash = RoutingPolicy::Hash.build(shards);
        let mut generator = ZipfGenerator::new(100_000, 1.5, 13);
        let mut skew_loads = vec![0usize; shards];
        let mut hash_loads = vec![0usize; shards];
        for _ in 0..20 {
            let batch = generator.next_minibatch(5_000);
            for (s, part) in router.partition(&batch).iter().enumerate() {
                skew_loads[s] += part.len();
            }
            for (s, part) in hash.partition(&batch).iter().enumerate() {
                hash_loads[s] += part.len();
            }
        }
        // Zipf(1.5)'s head key carries ~38% of traffic; hash routing pins it
        // to one shard while the skew router spreads it.
        let hot = router.hot_keys();
        assert!(!hot.is_empty(), "head keys must be promoted");
        assert!(hot.contains(&0), "rank-0 key is the hottest");
        assert_eq!(router.placement(0), Placement::Replicated);
        assert!(
            imbalance(&skew_loads) < imbalance(&hash_loads),
            "skew-aware imbalance {:.3} must beat hash imbalance {:.3}",
            imbalance(&skew_loads),
            imbalance(&hash_loads)
        );
    }

    #[test]
    fn skew_router_partition_loses_no_items() {
        // Four shards: promotion at a 1/16 share, which several Zipf(1.4)
        // head keys hold, so hot and cold keys are both in play.
        let router = RoutingPolicy::SkewAware.build(4);
        let mut generator = ZipfGenerator::new(1_000, 1.4, 3);
        let mut sent: HashMap<u64, u64> = HashMap::new();
        let mut received: HashMap<u64, u64> = HashMap::new();
        for _ in 0..10 {
            let batch = generator.next_minibatch(2_000);
            for &x in &batch {
                *sent.entry(x).or_insert(0) += 1;
            }
            let parts = router.partition(&batch);
            assert_eq!(shard_loads(&parts).iter().sum::<usize>(), batch.len());
            for part in parts {
                for x in part {
                    *received.entry(x).or_insert(0) += 1;
                }
            }
        }
        assert!(!router.hot_keys().is_empty(), "head keys must be promoted");
        assert_eq!(
            sent, received,
            "every occurrence lands on exactly one shard"
        );
    }

    #[test]
    fn cold_keys_stay_on_their_home_shard() {
        let router = RoutingPolicy::SkewAware.build(4);
        // Feed a hot-key-dominated stream so promotion happens.
        let batch: Vec<u64> = (0..4_000u64)
            .map(|i| if i % 2 == 0 { 7 } else { i })
            .collect();
        router.partition(&batch);
        router.partition(&batch);
        // Cold keys still map to their hash home.
        for key in [1u64, 3, 5, 9, 1001] {
            assert_eq!(router.placement(key), Placement::Owner(shard_of(key, 4)));
        }
        assert_eq!(router.placement(7), Placement::Replicated);
    }

    #[test]
    fn hot_capacity_bounds_the_hot_set() {
        // Four shards: promotion at a 1/16 share, 16 hot slots. Twenty keys
        // each arrive alone in a batch of at least an eighth of all traffic
        // so far — a share above 1/16 when observed — but only the first
        // sixteen may be promoted.
        let router = RoutingPolicy::SkewAware.build(4);
        let mut items = 0usize;
        for key in 0..20u64 {
            let len = (items / 8).max(4_096).next_multiple_of(SAMPLE_STRIDE);
            router.partition(&vec![key; len]);
            items += len;
        }
        assert_eq!(router.hot_keys(), (0..16u64).collect::<Vec<_>>());
        assert_eq!(router.placement(19), Placement::Owner(shard_of(19, 4)));
    }

    #[test]
    fn detector_keeps_the_space_saving_bounds() {
        // 16 slots over a skewed stream of ~300 distinct keys: every
        // tracked count is within [f, f + m/S], every key with f > m/S is
        // tracked, and the counts add up to the samples seen.
        let mut detector = HotKeyDetector::new(16);
        let mut generator = ZipfGenerator::new(300, 1.1, 29);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for key in generator.next_minibatch(20_000) {
            detector.update(key);
            *truth.entry(key).or_insert(0) += 1;
        }
        let m = detector.samples;
        assert_eq!(m, 20_000);
        assert_eq!(detector.entries().map(|(_, c)| c).sum::<u64>(), m);
        let tracked: HashMap<u64, u64> = detector.entries().collect();
        assert_eq!(tracked.len(), 16, "no key tracked twice");
        for (&key, &count) in &tracked {
            let f = truth[&key];
            assert!(
                f <= count && count <= f + m / 16,
                "key {key}: {count} vs {f}"
            );
        }
        for (&key, &f) in &truth {
            assert!(
                f <= m / 16 || tracked.contains_key(&key),
                "missed key {key}"
            );
        }
    }

    /// The detector as it was before the victim was cached — one early-exit
    /// scan that finds the key or else the first slot at the minimum count
    /// — kept as the reference the O(1) `update` is held to.
    fn reference_update(detector: &mut HotKeyDetector, key: u64) {
        detector.samples += 1;
        let (mut victim, mut min) = (0, u64::MAX);
        for (slot, (&tracked, count)) in detector.keys.iter().zip(&mut detector.counts).enumerate()
        {
            if tracked == key {
                *count += 1;
                return;
            }
            if *count < min {
                (victim, min) = (slot, *count);
            }
        }
        if detector.keys.len() < detector.capacity {
            detector.keys.push(key);
            detector.counts.push(1);
        } else {
            detector.keys[victim] = key;
            detector.counts[victim] += 1;
        }
    }

    #[test]
    fn detector_matches_the_single_scan_reference_after_every_sample() {
        // Same slots, same counts, same victim — so the same promotions —
        // on streams that miss every time (all distinct), hit every time
        // (all equal), bounce one slot's count (two keys alternating) and
        // mix the three (random over a few and over many keys).
        let mut state = 0x5EED_u64;
        let mut random = |modulus: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % modulus
        };
        let streams: Vec<(&str, Vec<u64>)> = vec![
            ("all distinct", (0..3_000u64).map(|i| i * 7 + 1).collect()),
            ("all equal", vec![42; 3_000]),
            (
                "two keys alternating",
                (0..3_000u64).map(|i| i % 2).collect(),
            ),
            ("random, few keys", (0..3_000).map(|_| random(40)).collect()),
            (
                "random, many keys",
                (0..3_000).map(|_| random(5_000)).collect(),
            ),
        ];
        for capacity in [1usize, 2, 32] {
            for (name, stream) in &streams {
                let mut detector = HotKeyDetector::new(capacity);
                let mut reference = HotKeyDetector::new(capacity);
                for (at, &key) in stream.iter().enumerate() {
                    detector.update(key);
                    reference_update(&mut reference, key);
                    assert!(
                        detector.keys == reference.keys && detector.counts == reference.counts,
                        "capacity {capacity}, {name}: diverged at sample {at}"
                    );
                }
                assert_eq!(detector.samples, reference.samples);
            }
        }
    }

    #[test]
    fn identical_input_yields_identical_promotions_after_every_batch() {
        // Four shards: promotion at a 1/16 share, 16 hot slots. Each round
        // brings five fresh keys at 3/16 of its traffic each, over a 1/16
        // tail of one-off keys that keeps the 64-slot detector evicting
        // among tied minimum counts; rounds double in length, so every
        // round's keys cross the promotion share. Three rounds fill 15 hot
        // slots, and which of the fourth round's five keys wins the last
        // one is decided by tie-breaks alone — by slot index, so two
        // routers always agree.
        let routers = [
            RoutingPolicy::SkewAware.build(4),
            RoutingPolicy::SkewAware.build(4),
        ];
        let mut tail = 1_000_000u64;
        for round in 0..6u64 {
            let batch: Vec<u64> = (0..4_096u64 << round)
                .map(|i| {
                    let slot = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60;
                    if slot < 15 {
                        100 * round + slot / 3
                    } else {
                        tail += 1;
                        tail
                    }
                })
                .collect();
            let parts = routers.each_ref().map(|r| r.partition(&batch));
            assert_eq!(parts[0], parts[1], "round {round}");
            assert_eq!(
                routers[0].hot_keys(),
                routers[1].hot_keys(),
                "round {round}"
            );
            assert_eq!(
                routers[0].promotions(),
                routers[1].promotions(),
                "round {round}"
            );
        }
        assert_eq!(
            routers[0].hot_keys().len(),
            16,
            "the hot set must have filled"
        );
        assert!(routers[0].promotions() >= 1);
    }

    #[test]
    fn promote_warm_starts_the_hot_set() {
        let router = RoutingPolicy::SkewAware.build(4);
        assert!(router.hot_keys().is_empty());
        router.promote(&[42, 7, 7, 99]);
        assert_eq!(router.hot_keys(), vec![7, 42, 99]);
        assert_eq!(router.promotions(), 1, "one call, one hot-set change");
        assert_eq!(router.placement(42), Placement::Replicated);
        assert_eq!(router.placement(7), Placement::Replicated);
        // Hash routers ignore promotion.
        let hash = RoutingPolicy::Hash.build(4);
        hash.promote(&[42]);
        assert!(hash.hot_keys().is_empty());
        assert_eq!(hash.promotions(), 0);
    }

    #[test]
    fn promote_respects_hot_capacity() {
        // Two shards: 8 hot slots, filled first come, first served.
        let router = RoutingPolicy::SkewAware.build(2);
        router.promote(&(0..20u64).collect::<Vec<_>>());
        assert_eq!(router.hot_keys(), (0..8u64).collect::<Vec<_>>());
    }

    #[test]
    fn promotion_on_another_thread_is_visible_to_the_next_placement() {
        let router = RoutingPolicy::SkewAware.build(4);
        assert_eq!(router.placement(1234), Placement::Owner(shard_of(1234, 4)));
        let other = router.clone();
        std::thread::spawn(move || other.promote(&[1234]))
            .join()
            .unwrap();
        assert_eq!(router.placement(1234), Placement::Replicated);
    }

    #[test]
    fn hot_set_publication_under_concurrency() {
        // Four readers query and route through one skew-aware router while
        // a writer promotes keys one `promote` call at a time, one key past
        // the 16 hot slots. The readers' batches cannot promote anything
        // themselves: a candidate key is at most one of a batch's 32
        // samples and every other item is fresh, so no estimate nears the
        // 1/16 share.
        let shards = 4;
        let router = RoutingPolicy::SkewAware.build(shards);
        let keys: Vec<u64> = (0..=4 * shards as u64).map(|k| k * 7_919 + 3).collect();
        let issued = AtomicUsize::new(0);
        let done = AtomicBool::new(false);
        let hot_sets = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..4u64)
                .map(|reader| {
                    let (router, keys, issued, done) = (&router, &keys, &issued, &done);
                    scope.spawn(move || {
                        let mut seen = vec![false; keys.len()];
                        let mut parts = vec![Vec::new(); shards];
                        let mut fresh = (reader + 1) << 40;
                        loop {
                            let last = done.load(Ordering::Acquire);
                            for (k, &key) in keys.iter().enumerate() {
                                match router.placement(key) {
                                    Placement::Replicated => {
                                        assert!(
                                            k < issued.load(Ordering::Acquire),
                                            "key {key} replicated before it was promoted"
                                        );
                                        seen[k] = true;
                                    }
                                    Placement::Owner(shard) => {
                                        assert!(!seen[k], "key {key} went back to its owner");
                                        assert_eq!(shard, shard_of(key, shards));
                                    }
                                }
                            }
                            let mut batch = keys.clone();
                            batch.extend((0..240).map(|_| {
                                fresh += 1;
                                fresh
                            }));
                            router.partition_into(&batch, &mut parts);
                            let mut routed = parts.concat();
                            routed.sort_unstable();
                            batch.sort_unstable();
                            assert_eq!(routed, batch, "a partition lost or duplicated items");
                            if last {
                                return router.hot_keys();
                            }
                        }
                    })
                })
                .collect();
            for (k, &key) in keys.iter().enumerate() {
                issued.store(k + 1, Ordering::Release);
                router.promote(&[key]);
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
            readers
                .into_iter()
                .map(|reader| reader.join().unwrap())
                .collect::<Vec<_>>()
        });
        let mut expected = keys[..4 * shards].to_vec();
        expected.sort_unstable();
        assert_eq!(router.hot_keys(), expected);
        for hot in hot_sets {
            assert_eq!(hot, expected);
        }
        assert_eq!(router.promotions(), 4 * shards as u64);
    }

    #[test]
    fn routing_policy_builds_the_right_router() {
        assert_eq!(RoutingPolicy::default(), RoutingPolicy::Hash);
        let hash = RoutingPolicy::Hash.build(4);
        assert_eq!(hash.name(), "hash");
        assert_eq!(RoutingPolicy::Hash.hot_capacity(4), 0);
        let skew = RoutingPolicy::skew_aware().build(4);
        assert_eq!(skew.name(), "skew-aware");
        assert_eq!(skew.shards(), 4);
        assert_eq!(RoutingPolicy::skew_aware().hot_capacity(4), 16);
    }
}
