//! A blocking protocol client: one TCP connection, one request in flight.
//!
//! The client is deliberately synchronous — the open-loop load generator
//! in `psfa-bench` gets its concurrency from *connections*, not from
//! multiplexing, matching the server's thread-per-connection model.

use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use psfa_freq::HeavyHitter;

use crate::protocol::{
    check_ingest_len, read_frame, write_ingest_frame, write_request_frame, ErrorCode, FrameError,
    Request, Response,
};

/// Client-side failure of one request.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failed; the connection is no longer usable —
    /// except after an outgoing [`FrameError::Oversize`], which is refused
    /// before a byte is written.
    Frame(FrameError),
    /// The server answered with a typed [`Response::Error`].
    Server {
        /// The server's error code.
        code: ErrorCode,
        /// The server's message.
        message: String,
    },
    /// The server answered with a response kind the request cannot
    /// produce (a protocol bug, not a transport fault).
    Unexpected(&'static str),
    /// A [`RetryingClient`] exhausted its retry budget with every attempt
    /// refused as [`Response::Busy`] — sustained engine backpressure, not
    /// a fault.
    RetriesExhausted {
        /// Attempts made before giving up.
        attempts: u32,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "{e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected response kind: {what}"),
            ClientError::RetriesExhausted { attempts } => {
                write!(f, "all {attempts} attempts were refused as Busy")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Frame(FrameError::Io(e))
    }
}

/// Outcome of one ingest request: the explicit backpressure surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The batch was accepted; `items` were enqueued.
    Accepted(u64),
    /// The engine's queues were full; nothing was enqueued. Retry later
    /// or spread load across more connections.
    Busy,
}

/// A blocking connection to a [`crate::Server`].
pub struct Client {
    stream: TcpStream,
    /// Outgoing frame, length prefix included; reused across requests.
    frame: Vec<u8>,
    /// Incoming response payload; reused across requests.
    buf: Vec<u8>,
}

impl Client {
    /// Connects (with Nagle disabled — requests are small and
    /// latency-sensitive).
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        Client::over(TcpStream::connect(addr)?)
    }

    /// Like [`Client::connect`] with a connect timeout.
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<Client> {
        Client::over(TcpStream::connect_timeout(&addr, timeout)?)
    }

    fn over(stream: TcpStream) -> io::Result<Client> {
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            frame: Vec::new(),
            buf: Vec::new(),
        })
    }

    /// Sends one request and reads its response. Generic entry point —
    /// the typed wrappers below are usually more convenient. A request
    /// too large for one frame is refused with [`FrameError::Oversize`]
    /// before a byte is written; the connection stays usable.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_request_frame(&mut self.stream, &mut self.frame, request)?;
        self.response()
    }

    /// Reads the response to the request just written.
    fn response(&mut self) -> Result<Response, ClientError> {
        let len = read_frame(&mut self.stream, &mut self.buf)?.ok_or_else(|| {
            ClientError::Frame(FrameError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            )))
        })?;
        Ok(Response::decode(&self.buf[..len]).map_err(FrameError::Codec)?)
    }

    /// Calls and unwraps a typed server error into [`ClientError::Server`].
    fn call_ok(&mut self, request: &Request) -> Result<Response, ClientError> {
        server_error(self.call(request)?)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call_ok(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(ClientError::Unexpected("expected Pong")),
        }
    }

    /// Ingests one minibatch, encoded straight from `items`;
    /// [`IngestOutcome::Busy`] is the engine's backpressure, not an error.
    /// A batch of more than `(MAX_FRAME_LEN − 7) / 8` items does not fit
    /// in one frame and is refused with [`FrameError::Oversize`] before a
    /// byte is written; the connection stays usable.
    ///
    /// [`MAX_FRAME_LEN`]: crate::MAX_FRAME_LEN
    pub fn ingest(&mut self, items: &[u64]) -> Result<IngestOutcome, ClientError> {
        write_ingest_frame(&mut self.stream, &mut self.frame, items)?;
        match server_error(self.response()?)? {
            Response::IngestAck { items } => Ok(IngestOutcome::Accepted(items)),
            Response::Busy => Ok(IngestOutcome::Busy),
            _ => Err(ClientError::Unexpected("expected IngestAck or Busy")),
        }
    }

    /// One-sided point-frequency estimate (`f − ε·m ≤ f̂ ≤ f`).
    pub fn estimate(&mut self, item: u64) -> Result<u64, ClientError> {
        self.count(&Request::Estimate(item))
    }

    /// Count-Min overestimate (`f ≤ f̂ ≤ f + ε_cm·m`).
    pub fn cm_estimate(&mut self, item: u64) -> Result<u64, ClientError> {
        self.count(&Request::CmEstimate(item))
    }

    /// Point-frequency estimate over the global sliding window.
    pub fn sliding_estimate(&mut self, item: u64) -> Result<u64, ClientError> {
        self.count(&Request::SlidingEstimate(item))
    }

    fn count(&mut self, request: &Request) -> Result<u64, ClientError> {
        match self.call_ok(request)? {
            Response::Count(value) => Ok(value),
            _ => Err(ClientError::Unexpected("expected Count")),
        }
    }

    /// φ-heavy hitters of the whole stream, most frequent first.
    pub fn heavy_hitters(&mut self) -> Result<Vec<HeavyHitter>, ClientError> {
        self.hitters(&Request::HeavyHitters)
    }

    /// φ-heavy hitters of the global sliding window.
    pub fn sliding_heavy_hitters(&mut self) -> Result<Vec<HeavyHitter>, ClientError> {
        self.hitters(&Request::SlidingHeavyHitters)
    }

    fn hitters(&mut self, request: &Request) -> Result<Vec<HeavyHitter>, ClientError> {
        match self.call_ok(request)? {
            Response::HeavyHitters(entries) => Ok(entries),
            _ => Err(ClientError::Unexpected("expected HeavyHitters")),
        }
    }

    /// Engine metrics in Prometheus text format (empty without
    /// observability configured on the engine).
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        match self.call_ok(&Request::Metrics)? {
            Response::MetricsText(text) => Ok(text),
            _ => Err(ClientError::Unexpected("expected MetricsText")),
        }
    }
}

/// Unwraps a typed server error into [`ClientError::Server`].
fn server_error(response: Response) -> Result<Response, ClientError> {
    match response {
        Response::Error { code, message } => Err(ClientError::Server { code, message }),
        response => Ok(response),
    }
}

/// Retry policy for [`RetryingClient`]: capped exponential backoff with
/// deterministic (seeded) equal-jitter.
///
/// Attempt `k` sleeps `d/2 + U(0, d/2)` where `d = min(base·2ᵏ, max)` and
/// `U` is drawn from a seeded xorshift64* generator — deterministic for a
/// given seed (reproducible benchmarks) while still decorrelating clients
/// that use different seeds.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries before giving up (total attempts = `max_retries + 1`).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Ceiling on the exponential backoff.
    pub max_delay: Duration,
    /// Jitter seed; zero is re-mapped internally (xorshift has no zero
    /// state).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 8,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(250),
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl RetryPolicy {
    /// Sets the retry cap.
    pub fn max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Sets the base (first-retry) delay.
    pub fn base_delay(mut self, delay: Duration) -> Self {
        self.base_delay = delay;
        self
    }

    /// Sets the backoff ceiling.
    pub fn max_delay(mut self, delay: Duration) -> Self {
        self.max_delay = delay;
        self
    }

    /// Sets the jitter seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The jittered sleep before retry `attempt` (0-based).
    fn backoff(&self, attempt: u32, rng: &mut u64) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_delay);
        let half = exp / 2;
        // xorshift64* step (Vigna); the multiplier scrambles the low bits.
        let mut x = *rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        *rng = x;
        let draw = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let jitter_nanos = match half.as_nanos() as u64 {
            0 => 0,
            span => draw % (span + 1),
        };
        half + Duration::from_nanos(jitter_nanos)
    }
}

/// Whether one attempt's failure is worth another connection/attempt.
fn retryable(error: &ClientError) -> bool {
    match error {
        // A frame too large to send (or announced too large by the peer)
        // is just as large on the next attempt.
        ClientError::Frame(FrameError::Oversize { .. }) => false,
        // Transport failures (connection drop, reset, EOF mid-frame)
        // are exactly what reconnect-and-retry is for.
        ClientError::Frame(_) => true,
        // A deadline miss means the server computed but discarded the
        // answer; the request is designed to be retried.
        ClientError::Server {
            code: ErrorCode::DeadlineExceeded,
            ..
        } => true,
        // Shutdown / connection-limit / bad-request / protocol bugs do
        // not get better by retrying.
        _ => false,
    }
}

/// A [`Client`] wrapper that retries transient failures: engine
/// backpressure ([`Response::Busy`]), broken streams (reconnect), and
/// server deadline misses — each under the capped, jittered backoff of a
/// [`RetryPolicy`].
///
/// Replaces hand-rolled `loop { match ingest { Busy => sleep } }` blocks:
///
/// ```no_run
/// use psfa_serve::{RetryPolicy, RetryingClient};
/// # let addr = "127.0.0.1:0".parse().unwrap();
/// let mut client = RetryingClient::connect(addr, RetryPolicy::default()).unwrap();
/// client.ingest(&[7, 7, 3]).unwrap(); // retries Busy + reconnects on drops
/// let heavy = client.heavy_hitters().unwrap();
/// ```
pub struct RetryingClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    rng: u64,
    client: Option<Client>,
    reconnects: u64,
    busy_retries: u64,
}

impl RetryingClient {
    /// Connects eagerly; later broken streams reconnect lazily under the
    /// policy's backoff.
    pub fn connect(addr: SocketAddr, policy: RetryPolicy) -> io::Result<RetryingClient> {
        let client = Client::connect(addr)?;
        Ok(RetryingClient {
            addr,
            policy,
            // Zero would lock xorshift at zero forever; any nonzero
            // constant restores a full-period stream.
            rng: if policy.seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                policy.seed
            },
            client: Some(client),
            reconnects: 0,
            busy_retries: 0,
        })
    }

    /// Reconnections performed so far (broken-stream recoveries).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Attempts that backed off on [`Response::Busy`].
    pub fn busy_retries(&self) -> u64 {
        self.busy_retries
    }

    /// Runs one attempt, reconnecting first if the previous attempt broke
    /// the stream.
    fn attempt<T>(
        &mut self,
        op: &mut impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let client = match self.client.as_mut() {
            Some(client) => client,
            None => {
                let fresh = Client::connect(self.addr)?;
                self.reconnects += 1;
                self.client.insert(fresh)
            }
        };
        let result = op(client);
        if matches!(result, Err(ClientError::Frame(_))) {
            // The stream is poisoned (partial frame state unknown);
            // force a reconnect on the next attempt.
            self.client = None;
        }
        result
    }

    /// Runs `op` under the retry policy. `op` returns `Ok(None)` to signal
    /// a Busy response (retryable without being an error).
    fn retrying<T>(
        &mut self,
        mut op: impl FnMut(&mut Client) -> Result<Option<T>, ClientError>,
    ) -> Result<T, ClientError> {
        let mut last: Option<ClientError> = None;
        for attempt in 0..=self.policy.max_retries {
            match self.attempt(&mut op) {
                Ok(Some(value)) => return Ok(value),
                Ok(None) => {
                    self.busy_retries += 1;
                    last = None;
                }
                Err(e) if retryable(&e) => last = Some(e),
                Err(e) => return Err(e),
            }
            if attempt < self.policy.max_retries {
                std::thread::sleep(self.policy.backoff(attempt, &mut self.rng));
            }
        }
        Err(last.unwrap_or(ClientError::RetriesExhausted {
            attempts: self.policy.max_retries + 1,
        }))
    }

    /// Ingests one minibatch, retrying [`Response::Busy`] backpressure and
    /// broken streams. Returns the accepted item count. A batch too large
    /// for one frame is refused as [`Client::ingest`] refuses it, with no
    /// attempt, retry or reconnect.
    pub fn ingest(&mut self, items: &[u64]) -> Result<u64, ClientError> {
        check_ingest_len(items.len())?;
        self.retrying(|client| {
            Ok(match client.ingest(items)? {
                IngestOutcome::Accepted(n) => Some(n),
                IngestOutcome::Busy => None,
            })
        })
    }

    /// Liveness probe with retries.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.retrying(|client| client.ping().map(Some))
    }

    /// One-sided point-frequency estimate with retries.
    pub fn estimate(&mut self, item: u64) -> Result<u64, ClientError> {
        self.retrying(|client| client.estimate(item).map(Some))
    }

    /// Count-Min overestimate with retries.
    pub fn cm_estimate(&mut self, item: u64) -> Result<u64, ClientError> {
        self.retrying(|client| client.cm_estimate(item).map(Some))
    }

    /// Sliding-window point estimate with retries.
    pub fn sliding_estimate(&mut self, item: u64) -> Result<u64, ClientError> {
        self.retrying(|client| client.sliding_estimate(item).map(Some))
    }

    /// φ-heavy hitters of the whole stream with retries.
    pub fn heavy_hitters(&mut self) -> Result<Vec<HeavyHitter>, ClientError> {
        self.retrying(|client| client.heavy_hitters().map(Some))
    }

    /// φ-heavy hitters of the global sliding window with retries.
    pub fn sliding_heavy_hitters(&mut self) -> Result<Vec<HeavyHitter>, ClientError> {
        self.retrying(|client| client.sliding_heavy_hitters().map(Some))
    }

    /// Prometheus metrics text with retries.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        self.retrying(|client| client.metrics_text().map(Some))
    }
}
