//! Engine configuration.

use std::path::Path;
use std::sync::Arc;

use psfa_primitives::FaultPlan;
use psfa_store::PersistenceConfig;
use psfa_stream::RoutingPolicy;

/// Configuration of a sharded ingestion engine.
///
/// The accuracy parameters mirror the single-threaded operators: each shard
/// owns an infinite-window heavy-hitter tracker (`φ`, `ε`), a Count-Min
/// sketch (`cm_epsilon`, `cm_delta`, `cm_seed` — the *same* seed on every
/// shard so per-shard sketches stay mergeable), and optionally the per-shard
/// pane state of a **global** sliding window that advances at
/// shard-consistent boundaries (`window`, `window_panes`).
///
/// `routing` selects how minibatches are split across shards: hash
/// partitioning (each key owned by one shard, the default) or skew-aware
/// hot-key splitting (see [`psfa_stream::Router`]).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of shard workers (and worker threads).
    pub shards: usize,
    /// Bounded per-shard queue capacity, in routed sub-batches (one per
    /// ingested minibatch that touches the shard). When a queue is full,
    /// [`crate::EngineHandle::ingest`] blocks — backpressure — and
    /// [`crate::EngineHandle::try_ingest`] answers `Busy`. The worker folds
    /// the sub-batches already queued into one minibatch, so a deeper queue
    /// also allows deeper minibatches (at most 16 sub-batches each).
    pub queue_capacity: usize,
    /// How minibatches are routed across shards.
    pub routing: RoutingPolicy,
    /// Heavy-hitter threshold φ.
    pub phi: f64,
    /// Frequency-estimation error ε (must satisfy `0 < ε < φ < 1`).
    pub epsilon: f64,
    /// Count-Min error parameter.
    pub cm_epsilon: f64,
    /// Count-Min failure probability.
    pub cm_delta: f64,
    /// Count-Min hash seed, shared by all shards so sketches merge.
    pub cm_seed: u64,
    /// Global sliding-window size `n_W` in items across all shards;
    /// `None` disables windowed queries. The window is divided into
    /// [`EngineConfig::window_panes`] panes and advances at shard-consistent
    /// boundaries every `n_W / window_panes` accepted items (see
    /// `psfa_stream::WindowFence`), so `sliding_estimate` and
    /// `sliding_heavy_hitters` answer over the same global window no matter
    /// how traffic was routed.
    pub window: Option<u64>,
    /// Number of panes the global window is divided into (the window
    /// advances one pane per boundary; larger = smoother sliding, more
    /// summaries per shard). Must divide `window`. Ignored without a
    /// window.
    pub window_panes: usize,
    /// Epoch-snapshot persistence; `None` (the default) keeps all state in
    /// memory. When set, a background flusher thread periodically cuts a
    /// consistent epoch across shards and appends it to the segment log at
    /// `persistence.dir` — see `psfa-store` and [`crate::Engine::recover`].
    pub persistence: Option<PersistenceConfig>,
    /// Observability: latency histograms, stall accounting, and a
    /// 1,024-event control-plane trace ring (see the `obs` module docs).
    /// `None` (the default) compiles the instrumentation out of the hot
    /// path entirely — no clock reads, no histogram writes; `Some(())`,
    /// set by [`EngineConfig::observe`], turns it on.
    pub observability: Option<()>,
    /// Deterministic fault injection (see [`psfa_primitives::fault`]).
    /// `None` (the default) compiles every fault site down to a single
    /// `Option` branch — the same zero-cost-when-off pattern as
    /// [`EngineConfig::observability`]. Set it (tests, chaos experiments)
    /// to schedule worker panics and store write errors.
    pub fault: Option<Arc<FaultPlan>>,
    /// How many times the supervisor restarts one shard's panicked worker
    /// before declaring the shard **dead** (permanently quarantined: its
    /// queries answer from the last published snapshot forever and
    /// [`crate::Engine::shutdown`] reports it in the typed error). Counted
    /// per shard over the engine's lifetime.
    pub worker_restart_limit: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            shards: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .max(2),
            queue_capacity: 32,
            routing: RoutingPolicy::Hash,
            phi: 0.01,
            epsilon: 0.001,
            cm_epsilon: 0.0005,
            cm_delta: 0.01,
            cm_seed: 0x00C0_FFEE,
            window: None,
            window_panes: 8,
            persistence: None,
            observability: None,
            fault: None,
            worker_restart_limit: 8,
        }
    }
}

impl EngineConfig {
    /// Starts from defaults with an explicit shard count.
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards,
            ..Self::default()
        }
    }

    /// Sets the per-shard queue capacity (in routed sub-batches).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the routing policy.
    pub fn routing(mut self, routing: RoutingPolicy) -> Self {
        self.routing = routing;
        self
    }

    /// Enables skew-aware routing: hot keys are detected online and split
    /// round-robin across all shards.
    pub fn skew_aware_routing(self) -> Self {
        self.routing(RoutingPolicy::skew_aware())
    }

    /// Sets the heavy-hitter threshold φ and estimation error ε.
    pub fn heavy_hitters(mut self, phi: f64, epsilon: f64) -> Self {
        self.phi = phi;
        self.epsilon = epsilon;
        self
    }

    /// Sets the Count-Min parameters.
    pub fn count_min(mut self, epsilon: f64, delta: f64, seed: u64) -> Self {
        self.cm_epsilon = epsilon;
        self.cm_delta = delta;
        self.cm_seed = seed;
        self
    }

    /// Enables the global sliding window of `n` items (divided into
    /// [`EngineConfig::window_panes`] panes; `n` must be a multiple of the
    /// pane count).
    pub fn sliding_window(mut self, n: u64) -> Self {
        self.window = Some(n);
        self
    }

    /// Sets how many panes the global sliding window is divided into.
    pub fn window_panes(mut self, panes: usize) -> Self {
        self.window_panes = panes;
        self
    }

    /// Enables epoch-snapshot persistence with the given configuration.
    pub fn persistence(mut self, persistence: PersistenceConfig) -> Self {
        self.persistence = Some(persistence);
        self
    }

    /// Enables epoch-snapshot persistence into `dir` with default knobs
    /// (see [`PersistenceConfig::new`]).
    pub fn persist_to(self, dir: impl AsRef<Path>) -> Self {
        self.persistence(PersistenceConfig::new(dir))
    }

    /// Enables observability (see [`EngineConfig::observability`]).
    pub fn observe(mut self) -> Self {
        self.observability = Some(());
        self
    }

    /// Arms deterministic fault injection with the given plan (see
    /// [`EngineConfig::fault`]).
    pub fn fault_injection(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(Arc::new(plan));
        self
    }

    /// Caps per-shard worker restarts (see
    /// [`EngineConfig::worker_restart_limit`]).
    pub fn worker_restart_limit(mut self, restarts: u64) -> Self {
        self.worker_restart_limit = restarts;
        self
    }

    /// Checks parameter ranges.
    ///
    /// # Panics
    /// Panics on invalid parameters; called by [`crate::Engine`] at spawn.
    pub fn validate(&self) {
        assert!(self.shards >= 1, "engine needs at least one shard");
        assert!(
            self.queue_capacity >= 1,
            "queue capacity must be at least 1"
        );
        assert!(
            self.epsilon > 0.0 && self.epsilon < self.phi && self.phi < 1.0,
            "heavy hitters require 0 < epsilon < phi < 1"
        );
        assert!(
            self.cm_epsilon > 0.0 && self.cm_epsilon < 1.0,
            "count-min epsilon must be in (0, 1)"
        );
        assert!(
            self.cm_delta > 0.0 && self.cm_delta < 1.0,
            "count-min delta must be in (0, 1)"
        );
        if let Some(persistence) = &self.persistence {
            persistence.validate();
        }
        if let Some(n) = self.window {
            assert!(
                self.window_panes >= 1,
                "the sliding window needs at least one pane"
            );
            assert!(
                n >= self.window_panes as u64 && n % self.window_panes as u64 == 0,
                "sliding window size must be a positive multiple of window_panes \
                 (the window advances one pane of n / panes items per boundary)"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        EngineConfig::default().validate();
        assert!(EngineConfig::default().shards >= 2);
    }

    #[test]
    fn builder_methods_compose() {
        let config = EngineConfig::with_shards(4)
            .queue_capacity(8)
            .heavy_hitters(0.05, 0.01)
            .count_min(0.001, 0.02, 7)
            .sliding_window(1 << 16)
            .skew_aware_routing();
        config.validate();
        assert_eq!(config.shards, 4);
        assert_eq!(config.queue_capacity, 8);
        assert_eq!(config.window, Some(1 << 16));
        assert_eq!(config.routing.name(), "skew-aware");
        assert_eq!(EngineConfig::default().routing, RoutingPolicy::Hash);
    }

    #[test]
    #[should_panic(expected = "epsilon < phi")]
    fn epsilon_above_phi_rejected() {
        EngineConfig::with_shards(2)
            .heavy_hitters(0.01, 0.1)
            .validate();
    }

    #[test]
    #[should_panic(expected = "multiple of window_panes")]
    fn indivisible_window_rejected() {
        EngineConfig::with_shards(2)
            .sliding_window(10_001)
            .window_panes(8)
            .validate();
    }
}
