//! Pluggable minibatch routing: how item occurrences are assigned to shards.
//!
//! PR 1's engine hard-coded hash routing ([`crate::split::shard_of`]), which
//! partitions the *key space* evenly but not the *traffic*: under Zipf-skewed
//! streams every occurrence of a hot key lands on one shard, and worst-case
//! shard load — not the hardware — bounds throughput. This module makes
//! routing a first-class abstraction:
//!
//! * [`Router`] — the trait: split a minibatch into per-shard sub-batches and
//!   answer, for any key, *where its count mass may live* ([`Placement`]).
//! * [`HashRouter`] — stateless hash partitioning; every key is owned by
//!   exactly one shard (PR 1's behaviour, still the default).
//! * [`SkewAwareRouter`] — detects hot keys online with a small array-based
//!   Space-Saving tracker kept off the data path (as in QPOPSS and Parallel
//!   Space Saving) and spreads each hot key's occurrences round-robin
//!   across *all* shards; queries must then sum the key's per-shard counts
//!   ([`Placement::Replicated`]).
//! * [`RoutingPolicy`] — plain-data configuration that builds a router, so
//!   engine configs stay `Clone`/`Debug` while handles share one
//!   `Arc<dyn Router>`.
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

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::split::shard_of;

/// Process-unique ids for [`SkewAwareRouter`] instances, keying the
/// per-thread hot-set cache below.
static NEXT_ROUTER_ID: AtomicU64 = AtomicU64::new(0);

/// Per-thread cache slots are capped so a thread that churns through many
/// routers (tests, benches) cannot grow its cache without bound.
const HOT_CACHE_SLOTS: usize = 32;

struct HotCacheSlot {
    router: u64,
    epoch: u64,
    hot: Arc<Vec<u64>>,
}

thread_local! {
    /// Per-producer cache of each router's hot set, validated against the
    /// router's promotion epoch: the per-batch routing path reads the hot
    /// set with **zero shared-memory writes** (no `RwLock` read, no `Arc`
    /// refcount bump) until a promotion actually happens.
    static HOT_CACHE: RefCell<Vec<HotCacheSlot>> = const { RefCell::new(Vec::new()) };
}

/// The skew detector: a Space-Saving summary (Metwally et al.) in two flat
/// arrays. The capacity is a few dozen slots — `4 / hot_fraction`, 32 for
/// two shards — so finding a key is one linear pass over a couple of cache
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

/// A routing policy: splits minibatches across shards and reports where each
/// key's counts live.
///
/// Implementations are shared between concurrent producers and queriers
/// behind an `Arc<dyn Router>`, so all methods take `&self`; stateful
/// routers (hot-key detection) use interior mutability.
pub trait Router: Send + Sync {
    /// Short policy name for metrics and experiment tables.
    fn name(&self) -> &'static str;

    /// The number of shards this router routes across.
    fn shards(&self) -> usize;

    /// Splits one minibatch into caller-provided buffers, one per shard
    /// (cleared first). Every item occurrence lands in exactly one
    /// sub-batch, and item order within a sub-batch preserves stream order.
    /// May update internal skew state. The ingest hot path draws `parts`
    /// from a [`crate::BufferPool`], so steady-state routing performs no
    /// heap allocation at all.
    ///
    /// # Panics
    /// Implementations may panic if `parts.len() != self.shards()`.
    fn partition_into(&self, minibatch: &[u64], parts: &mut [Vec<u64>]);

    /// Allocating convenience over [`Router::partition_into`]: splits one
    /// minibatch into `shards()` fresh per-shard sub-batches.
    fn partition(&self, minibatch: &[u64]) -> Vec<Vec<u64>> {
        let shards = self.shards();
        let mut parts: Vec<Vec<u64>> = (0..shards)
            .map(|_| Vec::with_capacity(minibatch.len() / shards + 1))
            .collect();
        self.partition_into(minibatch, &mut parts);
        parts
    }

    /// The shards on which `key`'s count mass may reside. Queries use this
    /// to decide between an owner-only read and a cross-shard sum.
    fn placement(&self, key: u64) -> Placement;

    /// Keys currently split across shards (empty for static routing).
    fn hot_keys(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Monotone count of hot-set changes (promotion events) so far; `0`
    /// forever for static routers. Observability layers poll this cheaply
    /// (one atomic load) to detect promotions without hooking the routing
    /// path.
    fn promotions(&self) -> u64 {
        0
    }

    /// Pre-promotes `keys` to the split (replicated) set, if the policy
    /// supports splitting. Used by crash recovery to restore a persisted hot
    /// set, so replicated-key placements — and therefore query-time summing —
    /// survive a restart. A no-op for static routers.
    fn promote(&self, _keys: &[u64]) {}
}

/// Stateless hash routing: each key is owned by exactly one shard, the pure
/// function [`shard_of`] of the key. PR 1's behaviour and the default.
#[derive(Debug, Clone)]
pub struct HashRouter {
    shards: usize,
}

impl HashRouter {
    /// Creates a hash router over `shards` shards.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "HashRouter: shards must be non-zero");
        Self { shards }
    }
}

impl Router for HashRouter {
    fn name(&self) -> &'static str {
        "hash"
    }

    fn shards(&self) -> usize {
        self.shards
    }

    fn partition_into(&self, minibatch: &[u64], parts: &mut [Vec<u64>]) {
        assert_eq!(parts.len(), self.shards, "partition_into: wrong part count");
        for part in parts.iter_mut() {
            part.clear();
        }
        for &item in minibatch {
            parts[shard_of(item, self.shards)].push(item);
        }
    }

    fn placement(&self, key: u64) -> Placement {
        Placement::Owner(shard_of(key, self.shards))
    }
}

/// Skew-aware routing: hot keys are detected online and split round-robin
/// across all shards; everything else routes by hash.
///
/// An array-based Space-Saving tracker observes a stride sample of every
/// partitioned minibatch. Once a key's estimated traffic share reaches
/// `hot_fraction` (of all items sampled so far), it is *promoted*:
/// subsequent occurrences are dealt round-robin to
/// all shards, levelling the per-shard load that hash routing concentrates
/// on the key's home shard. Promotion is **sticky** — a promoted key is
/// never demoted, so [`Router::placement`] can always answer from the
/// current hot set without per-key routing history (dynamic demotion needs
/// exactly that history and is left as a follow-on; see ROADMAP.md).
///
/// Promotion is a load-balancing decision, not a correctness one: whichever
/// keys are (or are not) promoted, every occurrence lands on exactly one
/// shard, and replicated keys are summed at query time (module docs). A
/// query racing a promotion may briefly read `Placement::Owner` for a key
/// whose newest occurrences were already spread — the summed/owner estimate
/// remains one-sided (it never overestimates) and catches up on the next
/// read.
pub struct SkewAwareRouter {
    /// Process-unique id keying the per-thread hot-set cache.
    id: u64,
    shards: usize,
    hot_capacity: usize,
    hot_fraction: f64,
    /// No key is promoted before the tracker has seen this many *samples*
    /// (one item in `sample_stride`), so a share is never judged on a
    /// handful of them.
    min_samples: u64,
    /// Every `sample_stride`-th item is fed to the tracker: a key with
    /// traffic share `p` has share `p` in the stride sample too, so
    /// detection is unaffected while the per-batch tracking cost (including
    /// Space-Saving's `O(capacity)` scans) shrinks by the stride.
    sample_stride: usize,
    tracker: Mutex<HotKeyDetector>,
    /// Sticky, monotonically growing hot set, kept sorted: with at most
    /// `hot_capacity` (tens of) entries, a binary search beats hashing on
    /// the per-item routing path. Readers clone the `Arc` so the routing
    /// loop never holds the lock.
    hot: RwLock<Arc<Vec<u64>>>,
    /// Bumped after every hot-set change; per-producer caches revalidate
    /// against it with one atomic load per batch (see [`HOT_CACHE`]).
    promotion_epoch: AtomicU64,
    /// Per-producer thread-local caching of the hot set (on by default);
    /// off, the uncached `RwLock` + `Arc`-clone path the cache is tested
    /// against.
    cache_hot_set: bool,
    /// Round-robin cursor shared by all producers for hot-key occurrences.
    cursor: AtomicUsize,
    /// Rotates the sampling offset so periodic streams cannot hide from the
    /// stride.
    batches: AtomicUsize,
}

impl SkewAwareRouter {
    /// Fraction of observed traffic at which a key is promoted, when not set
    /// explicitly: a quarter of a shard's fair share `1/shards`, so keys are
    /// split well before they can dominate one shard.
    pub fn default_hot_fraction(shards: usize) -> f64 {
        0.25 / shards as f64
    }

    /// Hot-key budget when not set explicitly: `4·shards`, comfortably more
    /// keys than can each hold [`Self::default_hot_fraction`] of the traffic.
    pub fn default_hot_capacity(shards: usize) -> usize {
        4 * shards
    }

    /// Creates a skew-aware router with default parameters:
    /// [`Self::default_hot_capacity`] hot keys at most, promotion at
    /// [`Self::default_hot_fraction`].
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn new(shards: usize) -> Self {
        Self::with_params(
            shards,
            Self::default_hot_capacity(shards),
            Self::default_hot_fraction(shards),
        )
    }

    /// Creates a skew-aware router with an explicit hot-key budget and
    /// promotion threshold.
    ///
    /// # Panics
    /// Panics unless `shards > 0`, `hot_capacity > 0` and
    /// `0 < hot_fraction < 1`.
    pub fn with_params(shards: usize, hot_capacity: usize, hot_fraction: f64) -> Self {
        assert!(shards > 0, "SkewAwareRouter: shards must be non-zero");
        assert!(
            hot_capacity > 0,
            "SkewAwareRouter: hot capacity must be non-zero"
        );
        assert!(
            hot_fraction > 0.0 && hot_fraction < 1.0,
            "SkewAwareRouter: hot fraction must be in (0, 1)"
        );
        // Tracker error one quarter of the promotion threshold, so the
        // overestimate of a Space-Saving entry cannot promote a key whose
        // true share is far below `hot_fraction`.
        let tracker_epsilon = (hot_fraction / 4.0).max(1e-6);
        Self {
            id: NEXT_ROUTER_ID.fetch_add(1, Ordering::Relaxed),
            shards,
            hot_capacity,
            hot_fraction,
            min_samples: 512,
            sample_stride: 8,
            tracker: Mutex::new(HotKeyDetector::new((1.0 / tracker_epsilon).ceil() as usize)),
            hot: RwLock::new(Arc::new(Vec::new())),
            promotion_epoch: AtomicU64::new(0),
            cache_hot_set: true,
            cursor: AtomicUsize::new(0),
            batches: AtomicUsize::new(0),
        }
    }

    /// Enables or disables the per-producer thread-local hot-set cache
    /// (enabled by default). Disabled, every partitioned batch takes one
    /// `RwLock` read plus one `Arc` clone of the shared set instead: the
    /// plain path that `cached_and_uncached_routing_agree` holds the cache
    /// to, partition for partition.
    pub fn hot_set_caching(mut self, enabled: bool) -> Self {
        self.cache_hot_set = enabled;
        self
    }

    /// Runs `f` with the current hot set, served from the per-thread cache
    /// when it is still at this router's promotion epoch. On the hit path
    /// (every batch between promotions — i.e. almost all of them, since the
    /// hot set is sticky and bounded) this performs a single relaxed-ish
    /// atomic *load* and no shared-memory writes; only a promotion, or the
    /// thread's first batch through this router, touches the `RwLock`.
    fn with_hot<R>(&self, f: impl FnOnce(&[u64]) -> R) -> R {
        if !self.cache_hot_set {
            let hot = self.hot_set();
            return f(&hot);
        }
        let epoch = self.promotion_epoch.load(Ordering::Acquire);
        HOT_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some(at) = cache.iter().position(|s| s.router == self.id) {
                if cache[at].epoch != epoch {
                    // A promotion happened: refresh from the shared set.
                    // (Reading the epoch *before* the lock means a racing
                    // promotion can only make the cached copy newer than its
                    // recorded epoch — the next batch refreshes again, which
                    // is safe; the hot set only ever grows.)
                    cache[at].hot = self.hot_set();
                    cache[at].epoch = epoch;
                }
                f(&cache[at].hot)
            } else {
                if cache.len() >= HOT_CACHE_SLOTS {
                    // Evict the oldest slot; its router will simply re-cache.
                    cache.remove(0);
                }
                cache.push(HotCacheSlot {
                    router: self.id,
                    epoch,
                    hot: self.hot_set(),
                });
                let slot = cache.last().expect("just pushed");
                f(&slot.hot)
            }
        })
    }

    /// Feeds a stride sample of one minibatch to the tracker and promotes
    /// any key whose estimated traffic share reached `hot_fraction`.
    fn observe(&self, minibatch: &[u64], hot: &[u64]) {
        // Promotion is sticky, so once the hot set is full no observation
        // can ever matter again — stop paying the tracker lock and the
        // sampling work for the rest of the process lifetime.
        if hot.len() >= self.hot_capacity {
            return;
        }
        let offset = self.batches.fetch_add(1, Ordering::Relaxed) % self.sample_stride;
        let mut tracker = self.tracker.lock().expect("skew tracker lock poisoned");
        for &item in minibatch.iter().skip(offset).step_by(self.sample_stride) {
            tracker.update(item);
        }
        let m = tracker.samples;
        if m < self.min_samples {
            return;
        }
        let threshold = self.hot_fraction * m as f64;
        let promoted: Vec<u64> = tracker
            .entries()
            .filter(|&(key, est)| est as f64 >= threshold && hot.binary_search(&key).is_err())
            .map(|(key, _)| key)
            .collect();
        drop(tracker);
        if promoted.is_empty() {
            return;
        }
        self.insert_hot(&promoted);
    }

    /// Inserts `keys` into the sorted hot set (up to `hot_capacity`) and
    /// bumps the promotion epoch so per-producer caches refresh.
    fn insert_hot(&self, keys: &[u64]) {
        let mut guard = self.hot.write().expect("hot set lock poisoned");
        let mut next: Vec<u64> = (**guard).clone();
        let mut changed = false;
        for &key in keys {
            if next.len() >= self.hot_capacity {
                break;
            }
            if let Err(at) = next.binary_search(&key) {
                next.insert(at, key);
                changed = true;
            }
        }
        if changed {
            *guard = Arc::new(next);
            // Release-publish after the set is visible behind the lock; a
            // cache that loads the new epoch will read the new set (or a
            // newer one — the set only grows).
            self.promotion_epoch.fetch_add(1, Ordering::Release);
        }
    }

    fn hot_set(&self) -> Arc<Vec<u64>> {
        self.hot.read().expect("hot set lock poisoned").clone()
    }
}

impl Router for SkewAwareRouter {
    fn name(&self) -> &'static str {
        "skew-aware"
    }

    fn shards(&self) -> usize {
        self.shards
    }

    fn partition_into(&self, minibatch: &[u64], parts: &mut [Vec<u64>]) {
        assert_eq!(parts.len(), self.shards, "partition_into: wrong part count");
        self.with_hot(|hot| {
            for part in parts.iter_mut() {
                part.clear();
            }
            // One shared-cursor RMW per *batch*, not per hot occurrence: under
            // heavy skew a per-item fetch_add would ping-pong one cache line
            // between all producers. Reserving `len` slots up front over-counts
            // (cold items burn no slot), which only shifts the next batch's
            // round-robin phase — the deal within a batch stays exact.
            let mut cursor = self.cursor.fetch_add(minibatch.len(), Ordering::Relaxed);
            if hot.is_empty() {
                // Every engine until its first promotion, and for ever on
                // traffic without a hot key: nothing to probe per item.
                for &item in minibatch {
                    parts[shard_of(item, self.shards)].push(item);
                }
            } else {
                for &item in minibatch {
                    let shard = if hot.binary_search(&item).is_ok() {
                        cursor += 1;
                        cursor % self.shards
                    } else {
                        shard_of(item, self.shards)
                    };
                    parts[shard].push(item);
                }
            }
            self.observe(minibatch, hot);
        })
    }

    fn placement(&self, key: u64) -> Placement {
        let replicated = self.with_hot(|hot| hot.binary_search(&key).is_ok());
        if replicated {
            Placement::Replicated
        } else {
            Placement::Owner(shard_of(key, self.shards))
        }
    }

    fn hot_keys(&self) -> Vec<u64> {
        (*self.hot_set()).clone()
    }

    fn promotions(&self) -> u64 {
        // The promotion epoch is bumped exactly once per hot-set change.
        self.promotion_epoch.load(Ordering::Acquire)
    }

    fn promote(&self, keys: &[u64]) {
        if keys.is_empty() {
            return;
        }
        self.insert_hot(keys);
    }
}

/// Plain-data routing configuration: which [`Router`] an engine builds at
/// spawn time. Keeps `EngineConfig` `Clone` + `Debug` while the running
/// engine shares a single `Arc<dyn Router>` across handles.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum RoutingPolicy {
    /// Hash partitioning: each key owned by exactly one shard (default).
    #[default]
    Hash,
    /// Online hot-key detection with round-robin splitting of hot keys.
    SkewAware {
        /// Maximum number of keys ever promoted to hot; `None` picks
        /// [`SkewAwareRouter::default_hot_capacity`] for the shard count.
        hot_capacity: Option<usize>,
        /// Traffic share at which a key is promoted; `None` picks
        /// [`SkewAwareRouter::default_hot_fraction`] for the shard count.
        hot_fraction: Option<f64>,
    },
}

impl RoutingPolicy {
    /// Skew-aware routing with default parameters.
    pub fn skew_aware() -> Self {
        RoutingPolicy::SkewAware {
            hot_capacity: None,
            hot_fraction: None,
        }
    }

    /// Short policy name for display.
    pub fn name(&self) -> &'static str {
        match self {
            RoutingPolicy::Hash => "hash",
            RoutingPolicy::SkewAware { .. } => "skew-aware",
        }
    }

    /// Checks parameter ranges for the given shard count.
    ///
    /// # Panics
    /// Panics on invalid parameters (a `hot_fraction` outside `(0, 1)`).
    pub fn validate(&self, shards: usize) {
        assert!(shards > 0, "routing requires at least one shard");
        if let RoutingPolicy::SkewAware {
            hot_capacity,
            hot_fraction,
        } = self
        {
            if let Some(capacity) = hot_capacity {
                assert!(
                    *capacity > 0,
                    "skew-aware routing requires a non-zero hot_capacity"
                );
            }
            if let Some(f) = hot_fraction {
                assert!(
                    *f > 0.0 && *f < 1.0,
                    "skew-aware routing requires 0 < hot_fraction < 1"
                );
            }
        }
    }

    /// Builds the router this policy describes.
    ///
    /// # Panics
    /// Panics on invalid parameters (see [`RoutingPolicy::validate`]).
    pub fn build(&self, shards: usize) -> Arc<dyn Router> {
        self.validate(shards);
        match *self {
            RoutingPolicy::Hash => Arc::new(HashRouter::new(shards)),
            RoutingPolicy::SkewAware {
                hot_capacity,
                hot_fraction,
            } => Arc::new(SkewAwareRouter::with_params(
                shards,
                hot_capacity.unwrap_or_else(|| SkewAwareRouter::default_hot_capacity(shards)),
                hot_fraction.unwrap_or_else(|| SkewAwareRouter::default_hot_fraction(shards)),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{StreamGenerator, ZipfGenerator};
    use std::collections::HashMap;

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
        let router = HashRouter::new(8);
        let mut generator = ZipfGenerator::new(10_000, 1.2, 5);
        let batch = generator.next_minibatch(10_000);
        // Each part is exactly its shard's keys, in stream order.
        for (shard, part) in router.partition(&batch).iter().enumerate() {
            let owned = batch.iter().copied().filter(|&k| shard_of(k, 8) == shard);
            assert_eq!(*part, owned.collect::<Vec<u64>>());
        }
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
        let router = SkewAwareRouter::new(shards);
        let hash = HashRouter::new(shards);
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
        let router = SkewAwareRouter::with_params(4, 8, 0.05);
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
        assert_eq!(
            sent, received,
            "every occurrence lands on exactly one shard"
        );
    }

    #[test]
    fn cold_keys_stay_on_their_home_shard() {
        let router = SkewAwareRouter::new(4);
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
        let router = SkewAwareRouter::with_params(2, 3, 0.01);
        // Ten equally hot keys; only three may be promoted.
        let batch: Vec<u64> = (0..10_000u64).map(|i| i % 10).collect();
        for _ in 0..5 {
            router.partition(&batch);
        }
        assert!(router.hot_keys().len() <= 3);
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
        // Twelve equally hot keys (1/16 of the traffic each, above the 5%
        // threshold) compete for a hot set of four, over a tail of one-off
        // keys that keeps the 80-slot detector evicting among tied
        // minimum counts. Which four win is decided by tie-breaks alone —
        // by slot index, so two routers always agree.
        let routers = [
            SkewAwareRouter::with_params(4, 4, 0.05),
            SkewAwareRouter::with_params(4, 4, 0.05),
        ];
        let mut tail = 1_000_000u64;
        for round in 0..30u64 {
            let batch: Vec<u64> = (0..2_000u64)
                .map(|i| {
                    let slot = (i + round) % 16;
                    if slot < 12 {
                        slot
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
            4,
            "the hot set must have filled"
        );
        assert!(routers[0].promotions() >= 1);
    }

    #[test]
    fn promote_warm_starts_the_hot_set() {
        let router = SkewAwareRouter::new(4);
        assert!(router.hot_keys().is_empty());
        router.promote(&[42, 7, 7, 99]);
        assert_eq!(router.hot_keys(), vec![7, 42, 99]);
        assert_eq!(router.placement(42), Placement::Replicated);
        assert_eq!(router.placement(7), Placement::Replicated);
        // Hash routers ignore promotion.
        let hash = HashRouter::new(4);
        hash.promote(&[42]);
        assert!(hash.hot_keys().is_empty());
    }

    #[test]
    fn promote_respects_hot_capacity() {
        let router = SkewAwareRouter::with_params(2, 3, 0.1);
        router.promote(&(0..10u64).collect::<Vec<_>>());
        assert_eq!(router.hot_keys().len(), 3);
    }

    #[test]
    fn cached_and_uncached_routing_agree() {
        // Same stream through a cached and an uncached router: identical
        // partitions (both start from the same cursor phase), identical hot
        // sets, identical placements.
        let cached = SkewAwareRouter::new(4);
        let uncached = SkewAwareRouter::new(4).hot_set_caching(false);
        let mut generator = ZipfGenerator::new(50_000, 1.5, 17);
        for _ in 0..15 {
            let batch = generator.next_minibatch(3_000);
            assert_eq!(cached.partition(&batch), uncached.partition(&batch));
        }
        assert_eq!(cached.hot_keys(), uncached.hot_keys());
        assert!(
            !cached.hot_keys().is_empty(),
            "promotion must have happened"
        );
        for key in cached.hot_keys() {
            assert_eq!(cached.placement(key), Placement::Replicated);
            assert_eq!(uncached.placement(key), Placement::Replicated);
        }
    }

    #[test]
    fn cache_sees_promotions_made_by_other_threads() {
        // Warm this thread's cache with the empty hot set, promote from
        // another thread, and check this thread's next placement reflects it.
        let router = Arc::new(SkewAwareRouter::new(4));
        assert_eq!(router.placement(1234), Placement::Owner(shard_of(1234, 4)));
        let other = router.clone();
        std::thread::spawn(move || other.promote(&[1234]))
            .join()
            .unwrap();
        assert_eq!(router.placement(1234), Placement::Replicated);
    }

    #[test]
    fn routing_policy_builds_the_right_router() {
        assert_eq!(RoutingPolicy::default(), RoutingPolicy::Hash);
        assert_eq!(RoutingPolicy::Hash.build(4).name(), "hash");
        let skew = RoutingPolicy::skew_aware().build(4);
        assert_eq!(skew.name(), "skew-aware");
        assert_eq!(skew.shards(), 4);
        let explicit = RoutingPolicy::SkewAware {
            hot_capacity: Some(2),
            hot_fraction: Some(0.2),
        }
        .build(2);
        assert_eq!(explicit.shards(), 2);
    }

    #[test]
    #[should_panic(expected = "hot_fraction")]
    fn invalid_hot_fraction_rejected() {
        RoutingPolicy::SkewAware {
            hot_capacity: Some(4),
            hot_fraction: Some(1.5),
        }
        .validate(2);
    }

    #[test]
    #[should_panic(expected = "hot_capacity")]
    fn zero_hot_capacity_rejected() {
        RoutingPolicy::SkewAware {
            hot_capacity: Some(0),
            hot_fraction: None,
        }
        .validate(2);
    }
}
