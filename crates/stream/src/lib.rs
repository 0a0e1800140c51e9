//! # psfa-stream
//!
//! Discretized-stream substrate and workload generation for the PSFA
//! reproduction.
//!
//! The paper adopts the minibatch ("discretized stream") processing model of
//! systems like Spark Streaming: the input is chopped into minibatches, each
//! minibatch is processed — possibly in parallel — as a unit, and queries
//! reflect all minibatches processed so far. This crate provides:
//!
//! * [`generators`] — synthetic workload generators (uniform, Zipf, bursty,
//!   adversarial churn, synthetic packet-flow traces, and binary streams of
//!   configurable density). The paper has no published dataset; these
//!   generators stand in for the network-monitoring workloads its
//!   introduction (§1) motivates.
//! * [`zipf`] — a seeded Zipf(α) sampler used by the generators.
//! * [`split`] — the key → shard hash ([`shard_of`]) under the sharded
//!   ingestion engine (`psfa-engine`).
//! * [`pool`] — recycling of routed sub-batch buffers between producers and
//!   shard workers ([`BufferPool`]): an ingest endpoint refills its
//!   per-shard scratch from the workers' return lanes, so the steady-state
//!   ingest path allocates nothing.
//! * [`router`] — the one [`Router`] over the split layer, under either
//!   routing policy: hash partitioning or skew-aware hot-key splitting.
//! * [`fence`] — epoch fencing: consistent cuts of a concurrently ingested
//!   stream, the ordering primitive under snapshot persistence, plus the
//!   [`WindowFence`] logical item clock that turns cuts into window-aligned
//!   barriers for cross-shard sliding windows.
//! * [`lane`] — a bounded SPSC ring of sub-batch buffers; no longer on the
//!   engine's ingest path, kept for the benchmark's layer replay.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fence;
pub mod generators;
pub mod lane;
pub mod pool;
pub mod router;
pub mod split;
pub mod zipf;

pub use fence::{BatchClaim, IngestFence, IngestGuard, WindowFence, WindowFenceState};
pub use generators::{
    AdversarialChurnGenerator, BinaryStreamGenerator, BurstyGenerator, PacketTraceGenerator,
    StreamGenerator, UniformGenerator, ZipfGenerator,
};
pub use lane::IngestLane;
pub use pool::{BufferPool, PoolCounters};
pub use router::{Placement, Router, RoutingPolicy};
pub use split::shard_of;
pub use zipf::ZipfSampler;
