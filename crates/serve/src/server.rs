//! The serving loop: a capped thread-per-connection TCP server.
//!
//! ## Threading model (and the trade-off)
//!
//! Two std-only designs were on the table: a nonblocking-socket poll
//! reactor, or a **capped thread-per-connection pool** — this module
//! implements the latter. Rationale: `std` has no portable readiness API
//! (no epoll/kqueue without a crate, and the registry is unreachable), so
//! a reactor would have to spin on `WouldBlock` across all sockets,
//! burning a core to simulate readiness. Blocking threads get the kernel's
//! scheduler for free, keep the per-connection state machine trivially
//! sequential (read frame → engine call → write frame), and the
//! *connection cap* bounds both thread count and memory exactly where a
//! reactor would need its own accounting. The cost is ~8 KiB of stack per
//! connection and no ability to serve tens of thousands of sockets — the
//! right trade for a handful-of-clients aggregation service; a reactor
//! only wins past the point where threads outnumber cores by hundreds.
//!
//! ## Backpressure contract
//!
//! * **Ingest**: [`Request::IngestBatch`] is admitted with
//!   [`EngineHandle::try_ingest`]. Full shard queues ⇒ [`Response::Busy`]
//!   and *nothing retained* — the server never buffers refused batches, so
//!   its memory is bounded by `max_connections × MAX_FRAME_LEN` in-flight
//!   request bytes (tracked in [`ServeMetrics::peak_inflight_bytes`]).
//! * **Queries** answer from published epoch snapshots
//!   ([`EngineHandle::estimate`] and friends) and never block on ingest.
//! * **Connections** beyond the cap receive one
//!   [`ErrorCode::ConnectionLimit`] error frame and are closed.
//!
//! ## Shutdown
//!
//! Handlers block in [`crate::protocol::read_frame`] on a plain socket —
//! the same reader the protocol tests and the benchmark check. The accept
//! loop keeps a clone of each connection beside its thread; graceful
//! [`Server::shutdown`] stops accepting, closes every clone's read half
//! and joins. A handler serves the frames already received, then reads a
//! clean end of stream; a request already read is still answered and its
//! response flushed (the write half stays open); a frame caught
//! half-received fails at once as a frame error. Batches already acked sit in the engine's queues and
//! survive an `EngineHandle::drain`.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use psfa_engine::{EngineHandle, FaultPlan, TryIngestError};

use crate::protocol::{read_frame, write_frame, ErrorCode, Request, Response};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind; port `0` picks an ephemeral port (read it back
    /// with [`Server::local_addr`]).
    pub addr: SocketAddr,
    /// Connection cap: concurrent connections beyond this are refused
    /// with an [`ErrorCode::ConnectionLimit`] error frame. Also bounds
    /// server memory (`max_connections × MAX_FRAME_LEN` frame bytes).
    pub max_connections: usize,
    /// Fault-injection plan for availability testing: lets a seeded
    /// [`FaultPlan`] drop connections after a fixed number of served
    /// frames ([`FaultPlan::with_connection_drop_after`]). `None` (the
    /// default) compiles the checks out of the hot path.
    pub fault: Option<Arc<FaultPlan>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            max_connections: 64,
            fault: None,
        }
    }
}

impl ServeConfig {
    /// Sets the bind address.
    pub fn addr(mut self, addr: SocketAddr) -> Self {
        self.addr = addr;
        self
    }

    /// Sets the connection cap.
    pub fn max_connections(mut self, cap: usize) -> Self {
        assert!(cap >= 1, "the server needs at least one connection slot");
        self.max_connections = cap;
        self
    }

    /// Installs a fault-injection plan (see [`ServeConfig::fault`]).
    pub fn fault_injection(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(Arc::new(plan));
        self
    }
}

/// Point-in-time counters of a running [`Server`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Connections accepted into a handler thread.
    pub connections_accepted: u64,
    /// Connections refused at the cap.
    pub connections_refused: u64,
    /// Connections currently open.
    pub active_connections: u64,
    /// Request frames decoded and dispatched.
    pub requests: u64,
    /// [`Response::Busy`] replies sent (engine backpressure surfaced to
    /// clients).
    pub busy_responses: u64,
    /// Frames that failed to read or decode (each closes its connection).
    pub frame_errors: u64,
    /// Items accepted into the engine via [`Request::IngestBatch`].
    pub ingested_items: u64,
    /// Request+response payload bytes currently held by handler threads.
    pub inflight_bytes: u64,
    /// High-water mark of `inflight_bytes` — the bound the backpressure
    /// contract promises: at most `max_connections × MAX_FRAME_LEN × 2`
    /// (one request and one response frame per connection).
    pub peak_inflight_bytes: u64,
    /// Connections abruptly closed by the fault-injection plan
    /// ([`ServeConfig::fault`]); zero outside availability tests.
    pub injected_drops: u64,
}

/// Counters shared by the accept loop and every handler thread.
#[derive(Default)]
struct ServerShared {
    stop: AtomicBool,
    connections_accepted: AtomicU64,
    connections_refused: AtomicU64,
    active_connections: AtomicUsize,
    requests: AtomicU64,
    busy_responses: AtomicU64,
    frame_errors: AtomicU64,
    ingested_items: AtomicU64,
    inflight_bytes: AtomicU64,
    peak_inflight_bytes: AtomicU64,
    injected_drops: AtomicU64,
}

impl ServerShared {
    fn add_inflight(&self, bytes: u64) {
        let now = self.inflight_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_inflight_bytes.fetch_max(now, Ordering::Relaxed);
    }

    fn sub_inflight(&self, bytes: u64) {
        self.inflight_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }
}

/// A running ingest+query server; dropping (or [`Server::shutdown`]) stops
/// it gracefully.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and spawns the accept loop serving `handle`.
    /// The engine outlives the server: shutting the server down does not
    /// touch the engine.
    pub fn spawn(handle: EngineHandle, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(config.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared::default());
        let accept_shared = shared.clone();
        let accept = std::thread::Builder::new()
            .name("psfa-serve-accept".to_string())
            .spawn(move || accept_loop(listener, handle, config, accept_shared))?;
        Ok(Server {
            local_addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot of the server's counters.
    pub fn metrics(&self) -> ServeMetrics {
        let s = &self.shared;
        ServeMetrics {
            connections_accepted: s.connections_accepted.load(Ordering::Relaxed),
            connections_refused: s.connections_refused.load(Ordering::Relaxed),
            active_connections: s.active_connections.load(Ordering::Relaxed) as u64,
            requests: s.requests.load(Ordering::Relaxed),
            busy_responses: s.busy_responses.load(Ordering::Relaxed),
            frame_errors: s.frame_errors.load(Ordering::Relaxed),
            ingested_items: s.ingested_items.load(Ordering::Relaxed),
            inflight_bytes: s.inflight_bytes.load(Ordering::Relaxed),
            peak_inflight_bytes: s.peak_inflight_bytes.load(Ordering::Relaxed),
            injected_drops: s.injected_drops.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, finishes in-flight requests, joins every thread,
    /// and returns the final counters. Idempotent with [`Drop`].
    pub fn shutdown(mut self) -> ServeMetrics {
        self.stop();
        self.metrics()
    }

    fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // The accept loop sits in a blocking accept(); poke it awake with
        // a throwaway connection (refused instantly once `stop` is seen).
        let _ = TcpStream::connect(self.local_addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: TcpListener,
    handle: EngineHandle,
    config: ServeConfig,
    shared: Arc<ServerShared>,
) {
    // Each handler beside a clone of its connection: shutdown closes the
    // clone's read half to wake a handler blocked in `read_frame`.
    let mut handlers: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    let mut next_id = 0u64;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        handlers.retain(|(_, h)| !h.is_finished());
        if shared.active_connections.load(Ordering::Acquire) >= config.max_connections {
            shared.connections_refused.fetch_add(1, Ordering::Relaxed);
            refuse(stream, config.max_connections);
            continue;
        }
        // A connection shutdown could not wake is closed, never served.
        let Ok(waker) = stream.try_clone() else {
            continue;
        };
        shared.active_connections.fetch_add(1, Ordering::AcqRel);
        shared.connections_accepted.fetch_add(1, Ordering::Relaxed);
        let conn_shared = shared.clone();
        let conn_handle = handle.clone();
        let conn_config = config.clone();
        next_id += 1;
        let spawned = std::thread::Builder::new()
            .name(format!("psfa-serve-conn-{next_id}"))
            .spawn(move || {
                serve_connection(&stream, conn_handle, &conn_config, &conn_shared);
                // The accept loop's clone keeps the socket open until it
                // is reaped, so close both halves here: a dropped or
                // failed connection reaches the client as a close now.
                let _ = stream.shutdown(Shutdown::Both);
                conn_shared
                    .active_connections
                    .fetch_sub(1, Ordering::AcqRel);
            });
        match spawned {
            Ok(h) => handlers.push((waker, h)),
            Err(_) => {
                shared.active_connections.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }
    for (waker, _) in &handlers {
        let _ = waker.shutdown(Shutdown::Read);
    }
    for (_, h) in handlers {
        let _ = h.join();
    }
}

/// Turns a connection away at the cap: one error frame, then close.
fn refuse(mut stream: TcpStream, cap: usize) {
    let response = Response::Error {
        code: ErrorCode::ConnectionLimit,
        message: format!("server is at its {cap}-connection cap"),
    };
    let _ = write_frame(&mut stream, &response.encode());
}

/// One connection's request→response loop, until the peer closes, a frame
/// fails, or shutdown closes the read half. Honours an injected
/// connection-drop fault.
fn serve_connection(
    mut stream: &TcpStream,
    handle: EngineHandle,
    config: &ServeConfig,
    shared: &ServerShared,
) {
    let drop_after = config
        .fault
        .as_ref()
        .and_then(|fault| fault.connection_drop_after());
    let _ = stream.set_nodelay(true);
    let mut buf = Vec::new();
    let mut frames_served = 0u64;
    loop {
        let len = match read_frame(&mut stream, &mut buf) {
            Ok(Some(len)) => len,
            Ok(None) => return,
            Err(_) => {
                shared.frame_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        // Injected fault: drop the connection abruptly after K served
        // frames — the request is swallowed without a response, exactly
        // like a mid-flight network partition. Clients must reconnect.
        if let Some(k) = drop_after {
            if frames_served >= k {
                shared.injected_drops.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        shared.add_inflight(len as u64);
        let (response, close_after) = match Request::decode(&buf[..len]) {
            Ok(request) => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                (dispatch(request, &handle, shared), false)
            }
            Err(e) => {
                shared.frame_errors.fetch_add(1, Ordering::Relaxed);
                (
                    Response::Error {
                        code: ErrorCode::BadRequest,
                        message: e.to_string(),
                    },
                    true,
                )
            }
        };
        frames_served += 1;
        let payload = response.encode();
        shared.add_inflight(payload.len() as u64);
        let written = write_frame(&mut stream, &payload);
        shared.sub_inflight((len + payload.len()) as u64);
        if written.is_err() || close_after {
            return;
        }
    }
}

/// Executes one request against the engine. Queries go straight to the
/// snapshot readers; ingest takes the non-blocking admission path so a
/// full engine surfaces as [`Response::Busy`] instead of a stalled server
/// thread.
fn dispatch(request: Request, handle: &EngineHandle, shared: &ServerShared) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::IngestBatch(items) => match handle.try_ingest(&items) {
            Ok(()) => {
                shared
                    .ingested_items
                    .fetch_add(items.len() as u64, Ordering::Relaxed);
                Response::IngestAck {
                    items: items.len() as u64,
                }
            }
            Err(TryIngestError::Busy) => {
                shared.busy_responses.fetch_add(1, Ordering::Relaxed);
                Response::Busy
            }
            Err(TryIngestError::Closed) => Response::Error {
                code: ErrorCode::Shutdown,
                message: "engine is shut down".to_string(),
            },
        },
        Request::Estimate(item) => Response::Count(handle.estimate(item)),
        Request::CmEstimate(item) => Response::Count(handle.cm_estimate(item)),
        Request::HeavyHitters => Response::HeavyHitters(handle.heavy_hitters()),
        Request::SlidingEstimate(item) => Response::Count(handle.sliding_estimate(item)),
        Request::SlidingHeavyHitters => Response::HeavyHitters(handle.sliding_heavy_hitters()),
        Request::Metrics => Response::MetricsText(handle.prometheus_text().unwrap_or_default()),
    }
}
