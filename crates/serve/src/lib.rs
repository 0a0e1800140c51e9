//! # psfa-serve
//!
//! The network serving front end of the PSFA engine: a std-only TCP
//! server speaking a simple length-prefixed binary protocol, plus the
//! matching blocking client.
//!
//! ```text
//!  protocol clients (Client, one TCP connection each)
//!      │  frame = u32 LE length · tag · version · kind · body
//!      ▼
//!  Server (accept thread + capped thread-per-connection pool)
//!      │  IngestBatch ──► EngineHandle::try_ingest ──► Busy on full queues
//!      │  queries     ──► epoch-snapshot readers (never block on ingest)
//!      ▼
//!  psfa_engine::EngineHandle (cloneable; one clone per connection)
//! ```
//!
//! Three design rules, inherited from the rest of the workspace:
//!
//! 1. **Never panic on peer bytes** — every decode is length-validated
//!    and returns a typed error ([`protocol::FrameError`]); a corrupt
//!    length field cannot drive an allocation ([`protocol::MAX_FRAME_LEN`]
//!    is checked first).
//! 2. **Explicit backpressure** — a full engine answers
//!    [`Response::Busy`]; the server buffers at most one request and one
//!    response frame per connection, so its memory is bounded by the
//!    connection cap (asserted on [`ServeMetrics::peak_inflight_bytes`]
//!    by `serve_smoke::tiny_queue_engine_sheds_load_with_busy`).
//! 3. **Queries never block on ingest** — they read published epoch
//!    snapshots, exactly like in-process [`psfa_engine::EngineHandle`]
//!    queries.
//! 4. **A retried ingest is never counted twice** — there is no request
//!    deadline (a blocking engine call cannot be cancelled, so a late
//!    ingest is already applied and must not be answered as retryable),
//!    and an injected connection drop lands before dispatch.
//!
//! ```no_run
//! use psfa_engine::{Engine, EngineConfig};
//! use psfa_serve::{Client, ServeConfig, Server};
//!
//! let engine = Engine::spawn(EngineConfig::with_shards(2).heavy_hitters(0.05, 0.01));
//! let server = Server::spawn(engine.handle(), ServeConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.ingest(&[7, 7, 7, 3]).unwrap();
//! engine.drain().unwrap();
//! assert_eq!(client.estimate(7).unwrap(), 3);
//! server.shutdown();
//! engine.shutdown().unwrap();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod protocol;

mod client;
mod server;

pub use client::{Client, ClientError, IngestOutcome, RetryPolicy};
pub use protocol::{ErrorCode, FrameError, Request, Response, MAX_FRAME_LEN};
pub use server::{ServeConfig, ServeMetrics, Server};
