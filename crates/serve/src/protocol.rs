//! The wire protocol: length-prefixed, versioned binary frames.
//!
//! ## Frame layout
//!
//! ```text
//! ┌────────────────┬───────────────────────────────────────────────┐
//! │ len: u32 LE    │ payload (len bytes)                           │
//! └────────────────┴───────────────────────────────────────────────┘
//!                    payload = tag u8 · version u8 · kind u8 · body
//! ```
//!
//! `len` counts the payload only and must not exceed [`MAX_FRAME_LEN`];
//! the limit is checked *before* any allocation, so a corrupted or hostile
//! length field cannot drive an out-of-memory abort (the same discipline as
//! [`ByteReader::get_len`]). The payload is encoded in the
//! [`psfa_primitives::codec`] style: a type tag ([`REQUEST_TAG`] /
//! [`RESPONSE_TAG`]), a version byte, a kind byte selecting the variant,
//! then the variant's body. Decodes return typed [`CodecError`]s on
//! truncated, trailing, or otherwise corrupt bytes — never a panic.
//!
//! Item batches ride as `u32` count + that many `u64`s, validated against
//! the bytes actually present ([`ByteReader::get_len`]); text rides as
//! `u32`-length-prefixed UTF-8.
//!
//! ## The ingest frame path
//!
//! An ingest batch's items are copied in bulk, once per hop: encoding is
//! one `resize` and a pass of 8-byte stores ([`ByteWriter::put_u64s`])
//! into a writer sized exactly for the frame, decoding one bounds check
//! and a pass of 8-byte loads ([`ByteReader::get_u64s`]). [`crate::Client`]
//! encodes straight from the caller's borrowed slice into one frame
//! buffer it reuses per connection, length prefix included. Every frame —
//! prefix and payload — leaves in one `write_all`, so under `TCP_NODELAY`
//! no 4-byte segment runs ahead of its payload.

use std::fmt;
use std::io::{self, Read, Write};

use psfa_freq::HeavyHitter;
use psfa_primitives::codec::{put_header, ByteReader, ByteWriter, CodecError};

/// Hard ceiling on a frame's payload size (4 MiB — room for an ingest
/// batch of `(MAX_FRAME_LEN − 7) / 8` = 524,287 items). Both sides refuse
/// larger frames: the reader before allocating, the client before writing.
pub const MAX_FRAME_LEN: usize = 4 << 20;

/// Payload type tag of a request frame.
pub const REQUEST_TAG: u8 = 0xA0;
/// Payload type tag of a response frame.
pub const RESPONSE_TAG: u8 = 0xA1;
/// The protocol version this build speaks (both directions); a payload of
/// any other version fails to decode with `UnsupportedVersion`.
pub const PROTOCOL_VERSION: u8 = 1;

/// Framing/transport failure while reading or writing one frame.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying socket failed.
    Io(io::Error),
    /// The peer announced a payload larger than [`MAX_FRAME_LEN`].
    Oversize {
        /// The announced payload length.
        len: usize,
    },
    /// The payload arrived intact but did not decode.
    Codec(CodecError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::Oversize { len } => write!(
                f,
                "frame payload of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit"
            ),
            FrameError::Codec(e) => write!(f, "frame payload did not decode: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<CodecError> for FrameError {
    fn from(e: CodecError) -> Self {
        FrameError::Codec(e)
    }
}

/// One client→server request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness check; answered with [`Response::Pong`].
    Ping,
    /// Ingest one minibatch of items. Answered with
    /// [`Response::IngestAck`], or [`Response::Busy`] when the engine's
    /// shard queues are full (explicit backpressure — the server never
    /// buffers refused batches).
    IngestBatch(Vec<u64>),
    /// One-sided point-frequency estimate (`f − ε·m ≤ f̂ ≤ f`).
    Estimate(u64),
    /// Count-Min overestimate (`f ≤ f̂ ≤ f + ε_cm·m`).
    CmEstimate(u64),
    /// φ-heavy hitters of the whole stream.
    HeavyHitters,
    /// Point-frequency estimate over the global sliding window.
    SlidingEstimate(u64),
    /// φ-heavy hitters of the global sliding window.
    SlidingHeavyHitters,
    /// Engine metrics in Prometheus text exposition format.
    Metrics,
}

const REQ_PING: u8 = 0;
const REQ_INGEST: u8 = 1;
const REQ_ESTIMATE: u8 = 2;
const REQ_CM_ESTIMATE: u8 = 3;
const REQ_HEAVY_HITTERS: u8 = 4;
const REQ_SLIDING_ESTIMATE: u8 = 5;
const REQ_SLIDING_HEAVY_HITTERS: u8 = 6;
const REQ_METRICS: u8 = 7;

/// Bytes of a frame's length prefix.
const PREFIX_LEN: usize = 4;
/// Bytes ahead of every payload's body: tag, version, kind.
const KIND_LEN: usize = 3;

/// Payload length of an ingest request for `items` items: the kind
/// header, the `u32` count, then the items.
fn ingest_len(items: usize) -> usize {
    KIND_LEN + 4 + 8 * items
}

/// Encodes an ingest request body for `items` — the one layout behind both
/// [`Request::encode`] and [`crate::Client::ingest`].
fn put_ingest_body(w: &mut ByteWriter, items: &[u64]) {
    w.put_u8(REQ_INGEST);
    w.put_u32(items.len() as u32);
    w.put_u64s(items);
}

impl Request {
    /// Encodes the request as one frame payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::from(Vec::with_capacity(self.encoded_len()));
        put_header(&mut w, REQUEST_TAG, PROTOCOL_VERSION);
        self.put_body(&mut w);
        w.into_bytes()
    }

    /// Exactly the length of [`Request::encode`]'s output.
    fn encoded_len(&self) -> usize {
        match self {
            Request::IngestBatch(items) => ingest_len(items.len()),
            Request::Estimate(_) | Request::CmEstimate(_) | Request::SlidingEstimate(_) => {
                KIND_LEN + 8
            }
            _ => KIND_LEN,
        }
    }

    /// The payload after the tag and version: the kind byte, then the body.
    fn put_body(&self, w: &mut ByteWriter) {
        match self {
            Request::Ping => w.put_u8(REQ_PING),
            Request::IngestBatch(items) => put_ingest_body(w, items),
            Request::Estimate(item) => {
                w.put_u8(REQ_ESTIMATE);
                w.put_u64(*item);
            }
            Request::CmEstimate(item) => {
                w.put_u8(REQ_CM_ESTIMATE);
                w.put_u64(*item);
            }
            Request::HeavyHitters => w.put_u8(REQ_HEAVY_HITTERS),
            Request::SlidingEstimate(item) => {
                w.put_u8(REQ_SLIDING_ESTIMATE);
                w.put_u64(*item);
            }
            Request::SlidingHeavyHitters => w.put_u8(REQ_SLIDING_HEAVY_HITTERS),
            Request::Metrics => w.put_u8(REQ_METRICS),
        }
    }

    /// Decodes one frame payload. Truncation, a wrong tag, an unknown
    /// kind, or trailing bytes all yield a typed error.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        r.expect_header(REQUEST_TAG, PROTOCOL_VERSION)?;
        let request = match r.get_u8()? {
            REQ_PING => Request::Ping,
            REQ_INGEST => {
                let len = r.get_len(8)?;
                Request::IngestBatch(r.get_u64s(len)?)
            }
            REQ_ESTIMATE => Request::Estimate(r.get_u64()?),
            REQ_CM_ESTIMATE => Request::CmEstimate(r.get_u64()?),
            REQ_HEAVY_HITTERS => Request::HeavyHitters,
            REQ_SLIDING_ESTIMATE => Request::SlidingEstimate(r.get_u64()?),
            REQ_SLIDING_HEAVY_HITTERS => Request::SlidingHeavyHitters,
            REQ_METRICS => Request::Metrics,
            _ => return Err(CodecError::Invalid("unknown request kind")),
        };
        r.expect_end()?;
        Ok(request)
    }
}

/// Typed failure reported inside a [`Response::Error`] frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The engine behind the server has shut down.
    Shutdown = 0,
    /// The server is at its connection cap; this connection is closed
    /// after the error frame.
    ConnectionLimit = 1,
    /// The request frame did not decode (the connection is closed after
    /// the error frame — framing state is unrecoverable).
    BadRequest = 2,
    /// The request took longer than the server's configured per-request
    /// deadline ([`crate::ServeConfig::request_deadline`]). The answer was
    /// computed but discarded; the connection stays open and the request
    /// is safe to retry (ingest requests may have been admitted — retrying
    /// one can double-count, which the one-sided bounds tolerate as an
    /// additive `+batch` error, so latency-sensitive clients should size
    /// deadlines well above the ingest path's p99).
    DeadlineExceeded = 3,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Result<Self, CodecError> {
        match v {
            0 => Ok(ErrorCode::Shutdown),
            1 => Ok(ErrorCode::ConnectionLimit),
            2 => Ok(ErrorCode::BadRequest),
            3 => Ok(ErrorCode::DeadlineExceeded),
            _ => Err(CodecError::Invalid("unknown error code")),
        }
    }
}

/// One server→client response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// The ingest batch was accepted in full.
    IngestAck {
        /// Items accepted (the batch length).
        items: u64,
    },
    /// The engine's shard queues are full; nothing was enqueued. The
    /// client should back off or spread load over more connections.
    Busy,
    /// Answer to the point-estimate requests.
    Count(u64),
    /// Answer to the heavy-hitter requests, most frequent first.
    HeavyHitters(Vec<HeavyHitter>),
    /// Answer to [`Request::Metrics`] (Prometheus text; empty when the
    /// engine runs without observability).
    MetricsText(String),
    /// Typed failure.
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

const RESP_PONG: u8 = 0;
const RESP_INGEST_ACK: u8 = 1;
const RESP_BUSY: u8 = 2;
const RESP_COUNT: u8 = 3;
const RESP_HEAVY_HITTERS: u8 = 4;
const RESP_METRICS_TEXT: u8 = 5;
const RESP_ERROR: u8 = 6;

impl Response {
    /// Encodes the response as one frame payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        put_header(&mut w, RESPONSE_TAG, PROTOCOL_VERSION);
        match self {
            Response::Pong => w.put_u8(RESP_PONG),
            Response::IngestAck { items } => {
                w.put_u8(RESP_INGEST_ACK);
                w.put_u64(*items);
            }
            Response::Busy => w.put_u8(RESP_BUSY),
            Response::Count(value) => {
                w.put_u8(RESP_COUNT);
                w.put_u64(*value);
            }
            Response::HeavyHitters(entries) => {
                w.put_u8(RESP_HEAVY_HITTERS);
                w.put_u32(entries.len() as u32);
                for hh in entries {
                    w.put_u64(hh.item);
                    w.put_u64(hh.estimate);
                }
            }
            Response::MetricsText(text) => {
                w.put_u8(RESP_METRICS_TEXT);
                w.put_bytes(text.as_bytes());
            }
            Response::Error { code, message } => {
                w.put_u8(RESP_ERROR);
                w.put_u8(*code as u8);
                w.put_bytes(message.as_bytes());
            }
        }
        w.into_bytes()
    }

    /// Decodes one frame payload; typed errors on any corruption.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        r.expect_header(RESPONSE_TAG, PROTOCOL_VERSION)?;
        let response = match r.get_u8()? {
            RESP_PONG => Response::Pong,
            RESP_INGEST_ACK => Response::IngestAck {
                items: r.get_u64()?,
            },
            RESP_BUSY => Response::Busy,
            RESP_COUNT => Response::Count(r.get_u64()?),
            RESP_HEAVY_HITTERS => {
                let len = r.get_len(16)?;
                let mut entries = Vec::with_capacity(len);
                for _ in 0..len {
                    let item = r.get_u64()?;
                    let estimate = r.get_u64()?;
                    entries.push(HeavyHitter { item, estimate });
                }
                Response::HeavyHitters(entries)
            }
            RESP_METRICS_TEXT => Response::MetricsText(utf8(&mut r)?),
            RESP_ERROR => Response::Error {
                code: ErrorCode::from_u8(r.get_u8()?)?,
                message: utf8(&mut r)?,
            },
            _ => return Err(CodecError::Invalid("unknown response kind")),
        };
        r.expect_end()?;
        Ok(response)
    }
}

fn utf8(r: &mut ByteReader<'_>) -> Result<String, CodecError> {
    std::str::from_utf8(r.get_bytes()?)
        .map(str::to_owned)
        .map_err(|_| CodecError::Invalid("text field is not UTF-8"))
}

/// Writes one frame (length prefix + payload) in one write.
///
/// # Panics
/// Panics if `payload` exceeds [`MAX_FRAME_LEN`] — a frame that large can
/// only be produced by a caller-side bug, never by decoding peer bytes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    assert!(
        payload.len() <= MAX_FRAME_LEN,
        "outgoing frame exceeds MAX_FRAME_LEN"
    );
    let mut frame = Vec::new();
    start_frame(&mut frame, payload.len());
    frame.extend_from_slice(payload);
    send(w, &frame)
}

/// Writes one request frame in one write, built in `frame` (a buffer the
/// caller reuses across frames). An oversize request is refused with
/// [`FrameError::Oversize`] before a byte is encoded or written.
pub(crate) fn write_request_frame(
    w: &mut impl Write,
    frame: &mut Vec<u8>,
    request: &Request,
) -> Result<(), FrameError> {
    write_request(w, frame, request.encoded_len(), |out| request.put_body(out))
}

/// [`write_request_frame`] for an ingest of the borrowed `items`, encoded
/// straight from the slice.
pub(crate) fn write_ingest_frame(
    w: &mut impl Write,
    frame: &mut Vec<u8>,
    items: &[u64],
) -> Result<(), FrameError> {
    write_request(w, frame, ingest_len(items.len()), |out| {
        put_ingest_body(out, items)
    })
}

/// Refuses an ingest of `items` items that cannot fit in one frame.
pub(crate) fn check_ingest_len(items: usize) -> Result<(), FrameError> {
    check_len(ingest_len(items))
}

fn check_len(len: usize) -> Result<(), FrameError> {
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversize { len });
    }
    Ok(())
}

/// Builds a request frame with a `len`-byte payload in `frame` — prefix,
/// tag and version, then what `body` writes — and sends it.
fn write_request(
    w: &mut impl Write,
    frame: &mut Vec<u8>,
    len: usize,
    body: impl FnOnce(&mut ByteWriter),
) -> Result<(), FrameError> {
    check_len(len)?;
    start_frame(frame, len);
    let mut out = ByteWriter::from(std::mem::take(frame));
    put_header(&mut out, REQUEST_TAG, PROTOCOL_VERSION);
    body(&mut out);
    *frame = out.into_bytes();
    debug_assert_eq!(frame.len(), PREFIX_LEN + len, "payload length mismatch");
    Ok(send(w, frame)?)
}

/// Clears `frame` and writes the length prefix of a `len`-byte payload,
/// with room reserved for the payload.
fn start_frame(frame: &mut Vec<u8>, len: usize) {
    frame.clear();
    frame.reserve(PREFIX_LEN + len);
    frame.extend_from_slice(&(len as u32).to_le_bytes());
}

/// The one frame writer: the whole frame in one `write_all`.
fn send(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

/// Reads one frame into `buf` (reused across calls; it is resized to the
/// payload length, which is also returned). `Ok(None)` means the peer
/// closed the connection cleanly *before* a new frame started; EOF inside
/// a frame is an [`io::ErrorKind::UnexpectedEof`] error. The length field
/// is validated against [`MAX_FRAME_LEN`] before `buf` grows.
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<Option<usize>, FrameError> {
    let mut header = [0u8; 4];
    let mut filled = 0usize;
    while filled < header.len() {
        match r.read(&mut header[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a frame header",
                )))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversize { len });
    }
    buf.resize(len, 0);
    r.read_exact(buf)?;
    Ok(Some(len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::IngestBatch(vec![]),
            Request::IngestBatch(vec![1, 2, 3, u64::MAX]),
            Request::Estimate(42),
            Request::CmEstimate(7),
            Request::HeavyHitters,
            Request::SlidingEstimate(0),
            Request::SlidingHeavyHitters,
            Request::Metrics,
        ]
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::Pong,
            Response::IngestAck { items: 1000 },
            Response::Busy,
            Response::Count(u64::MAX),
            Response::HeavyHitters(vec![]),
            Response::HeavyHitters(vec![
                HeavyHitter {
                    item: 3,
                    estimate: 999,
                },
                HeavyHitter {
                    item: 9,
                    estimate: 1,
                },
            ]),
            Response::MetricsText("psfa_up 1\n".to_string()),
            Response::Error {
                code: ErrorCode::ConnectionLimit,
                message: "at capacity".to_string(),
            },
            Response::Error {
                code: ErrorCode::DeadlineExceeded,
                message: "request exceeded the 5ms deadline".to_string(),
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for req in all_requests() {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
        for resp in all_responses() {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn encoded_len_is_exact() {
        for req in all_requests() {
            assert_eq!(req.encoded_len(), req.encode().len(), "{req:?}");
        }
    }

    /// A `Write` that records the length of every `write` call.
    #[derive(Default)]
    struct Recorder {
        bytes: Vec<u8>,
        writes: Vec<usize>,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_frame_is_one_write() {
        let payloads = all_requests()
            .iter()
            .map(Request::encode)
            .chain(all_responses().iter().map(Response::encode))
            .collect::<Vec<_>>();
        for payload in payloads {
            let mut wire = Recorder::default();
            write_frame(&mut wire, &payload).unwrap();
            assert_eq!(wire.writes, [4 + payload.len()]);
        }
        // The client's frames, built in one reused buffer: one write each,
        // byte-identical to `write_frame` of the encoded request.
        let mut frame = Vec::new();
        let items: Vec<u64> = (0..8192).map(|i| i * 0x9E37_79B9).collect();
        for req in all_requests()
            .into_iter()
            .chain([Request::IngestBatch(items.clone())])
        {
            let mut expected = Vec::new();
            write_frame(&mut expected, &req.encode()).unwrap();
            let mut wire = Recorder::default();
            write_request_frame(&mut wire, &mut frame, &req).unwrap();
            assert_eq!(wire.writes, [expected.len()]);
            assert_eq!(wire.bytes, expected);
            if let Request::IngestBatch(items) = &req {
                let mut wire = Recorder::default();
                write_ingest_frame(&mut wire, &mut frame, items).unwrap();
                assert_eq!(wire.writes, [expected.len()]);
                assert_eq!(wire.bytes, expected);
            }
        }
    }

    #[test]
    fn oversize_request_is_refused_before_a_byte_is_written() {
        let most = (MAX_FRAME_LEN - 7) / 8;
        let mut frame = Vec::new();
        let mut wire = Recorder::default();
        write_ingest_frame(&mut wire, &mut frame, &vec![1; most]).unwrap();
        assert_eq!(wire.bytes.len(), 4 + 7 + 8 * most);

        let mut wire = Recorder::default();
        let batch = Request::IngestBatch(vec![1; most + 1]);
        for result in [
            write_ingest_frame(&mut wire, &mut frame, &vec![1; most + 1]),
            write_request_frame(&mut wire, &mut frame, &batch),
        ] {
            assert!(matches!(
                result,
                Err(FrameError::Oversize { len }) if len == 7 + 8 * (most + 1)
            ));
        }
        assert!(check_ingest_len(most).is_ok());
        assert!(check_ingest_len(most + 1).is_err());
        assert!(wire.writes.is_empty());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Request::Ping.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err());
    }

    #[test]
    fn corrupt_ingest_length_cannot_over_allocate() {
        // Claim 2^32-ish items with an 11-byte body: get_len must reject
        // before Vec::with_capacity sees the bogus count.
        let mut w = ByteWriter::new();
        put_header(&mut w, REQUEST_TAG, PROTOCOL_VERSION);
        w.put_u8(REQ_INGEST);
        w.put_u32(u32::MAX);
        w.put_u64(7);
        assert!(matches!(
            Request::decode(&w.into_bytes()),
            Err(CodecError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn frames_round_trip_over_a_byte_pipe() {
        let mut wire = Vec::new();
        let payload = Request::IngestBatch(vec![5; 100]).encode();
        write_frame(&mut wire, &payload).unwrap();
        write_frame(&mut wire, &Request::Ping.encode()).unwrap();
        let mut cursor = io::Cursor::new(wire);
        let mut buf = Vec::new();
        let n = read_frame(&mut cursor, &mut buf).unwrap().unwrap();
        assert_eq!(
            Request::decode(&buf[..n]).unwrap(),
            Request::IngestBatch(vec![5; 100])
        );
        let n = read_frame(&mut cursor, &mut buf).unwrap().unwrap();
        assert_eq!(Request::decode(&buf[..n]).unwrap(), Request::Ping);
        assert!(read_frame(&mut cursor, &mut buf).unwrap().is_none());
    }

    #[test]
    fn oversize_frame_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = io::Cursor::new(wire);
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut cursor, &mut buf),
            Err(FrameError::Oversize { .. })
        ));
        assert!(buf.capacity() < 1024, "oversize length must not allocate");
    }

    #[test]
    fn eof_inside_a_frame_is_an_error_not_a_clean_close() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Estimate(1).encode()).unwrap();
        wire.truncate(wire.len() - 3);
        let mut cursor = io::Cursor::new(wire);
        let mut buf = Vec::new();
        assert!(read_frame(&mut cursor, &mut buf).is_err());
    }
}
