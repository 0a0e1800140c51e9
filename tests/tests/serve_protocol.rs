//! Wire-protocol laws for the serving front end.
//!
//! The server and client each decode bytes produced by an untrusted peer,
//! so the protocol layer gets the same treatment as the persistence codecs
//! (see `store_roundtrip.rs`):
//!
//! 1. every request and response round-trips exactly through
//!    `decode(encode(x)) == x`;
//! 2. truncating an encoding at any point yields a typed [`CodecError`],
//!    never a panic;
//! 3. flipping any byte either fails typed or decodes to some other
//!    structurally valid message — it never panics and never drives an
//!    allocation from a corrupt length field;
//! 4. the frame layer rejects oversized length prefixes *before*
//!    allocating a receive buffer;
//! 5. the ingest request's bytes are pinned — exact bytes for a short
//!    batch, length and FNV-1a hash for a full 8,192-item frame, and a
//!    hand-built layout for every length below 600 — so a faster encoder
//!    cannot move the wire format (`PROTOCOL_VERSION` 1);
//! 6. hostile ingest bodies (a count the bytes cannot hold, trailing
//!    bytes, a body that is not whole items) fail typed.

use proptest::prelude::*;

use psfa::primitives::CodecError;
use psfa::serve::protocol::{read_frame, write_frame};
use psfa::serve::{ErrorCode, FrameError, Request, Response, MAX_FRAME_LEN};

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Ping),
        prop::collection::vec(any::<u64>(), 0..600).prop_map(Request::IngestBatch),
        any::<u64>().prop_map(Request::Estimate),
        any::<u64>().prop_map(Request::CmEstimate),
        Just(Request::HeavyHitters),
        any::<u64>().prop_map(Request::SlidingEstimate),
        Just(Request::SlidingHeavyHitters),
        Just(Request::Metrics),
    ]
}

/// Printable-ASCII strings up to `max` bytes (the vendored proptest has no
/// regex string strategies).
fn text_strategy(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0x20u8..0x7f, 0..max)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ASCII"))
}

fn error_code_strategy() -> impl Strategy<Value = ErrorCode> {
    prop_oneof![
        Just(ErrorCode::Shutdown),
        Just(ErrorCode::ConnectionLimit),
        Just(ErrorCode::BadRequest),
    ]
}

fn response_strategy() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Pong),
        any::<u64>().prop_map(|items| Response::IngestAck { items }),
        Just(Response::Busy),
        any::<u64>().prop_map(Response::Count),
        prop::collection::vec((any::<u64>(), any::<u64>()), 0..80).prop_map(|pairs| {
            Response::HeavyHitters(
                pairs
                    .into_iter()
                    .map(|(item, estimate)| psfa::prelude::HeavyHitter { item, estimate })
                    .collect(),
            )
        }),
        text_strategy(200).prop_map(Response::MetricsText),
        (error_code_strategy(), text_strategy(80))
            .prop_map(|(code, message)| Response::Error { code, message }),
    ]
}

/// The ingest payload laid out by hand: tag, version, kind, `u32` LE
/// count, then each item as a `u64` LE.
fn ingest_layout(items: &[u64]) -> Vec<u8> {
    let mut bytes = vec![0xA0, 1, 1];
    bytes.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for item in items {
        bytes.extend_from_slice(&item.to_le_bytes());
    }
    bytes
}

#[test]
fn ingest_bytes_are_pinned() {
    let bytes = Request::IngestBatch(vec![1, 2, 3, u64::MAX]).encode();
    #[rustfmt::skip]
    let expected: [u8; 39] = [
        0xA0, 1, 1, 4, 0, 0, 0,
        1, 0, 0, 0, 0, 0, 0, 0,
        2, 0, 0, 0, 0, 0, 0, 0,
        3, 0, 0, 0, 0, 0, 0, 0,
        0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
    ];
    assert_eq!(bytes, expected);
}

#[test]
fn full_ingest_frame_is_pinned() {
    // 8,192 splitmix64 draws from a fixed seed: the benchmark's frame size.
    let mut state = 0x2901u64;
    let items: Vec<u64> = (0..8192)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect();
    let bytes = Request::IngestBatch(items).encode();
    let fnv1a = bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    });
    assert_eq!(bytes.len(), 65_543);
    assert_eq!(fnv1a, 0xB74C_BBEA_92DB_AB69);
}

#[test]
fn hostile_ingest_bodies_fail_typed() {
    let body = |count: u32, body_bytes: usize| {
        let mut bytes = vec![0xA0, 1, 1];
        bytes.extend_from_slice(&count.to_le_bytes());
        bytes.extend((0..body_bytes).map(|i| i as u8));
        Request::decode(&bytes)
    };
    // More items claimed than the body holds.
    assert!(matches!(body(4, 24), Err(CodecError::UnexpectedEof { .. })));
    assert!(matches!(
        body(u32::MAX, 24),
        Err(CodecError::UnexpectedEof { .. })
    ));
    // Fewer items claimed than the body holds: trailing bytes.
    assert!(matches!(body(2, 24), Err(CodecError::Invalid(_))));
    // A body that is not whole items, under- and over-claimed.
    assert!(matches!(body(2, 20), Err(CodecError::Invalid(_))));
    assert!(matches!(body(3, 20), Err(CodecError::UnexpectedEof { .. })));
    assert!(matches!(body(0, 3), Err(CodecError::Invalid(_))));
    // The well-formed neighbour decodes.
    assert!(matches!(body(3, 24), Ok(Request::IngestBatch(items)) if items.len() == 3));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ingest_encoding_matches_the_hand_built_layout(
        items in prop::collection::vec(any::<u64>(), 0..600),
    ) {
        let encoded = Request::IngestBatch(items.clone()).encode();
        prop_assert_eq!(encoded, ingest_layout(&items));
    }

    #[test]
    fn requests_round_trip(request in request_strategy()) {
        let bytes = request.encode();
        prop_assert!(bytes.len() <= MAX_FRAME_LEN);
        prop_assert_eq!(Request::decode(&bytes).unwrap(), request);
    }

    #[test]
    fn responses_round_trip(response in response_strategy()) {
        let bytes = response.encode();
        prop_assert!(bytes.len() <= MAX_FRAME_LEN);
        prop_assert_eq!(Response::decode(&bytes).unwrap(), response);
    }

    #[test]
    fn truncated_requests_fail_typed(request in request_strategy(), cut in 0usize..4096) {
        let bytes = request.encode();
        let cut = cut % bytes.len().max(1);
        // Strictly shorter than a valid encoding: must be a typed error.
        prop_assert!(Request::decode(&bytes[..cut]).is_err());
    }

    #[test]
    fn truncated_responses_fail_typed(response in response_strategy(), cut in 0usize..8192) {
        let bytes = response.encode();
        let cut = cut % bytes.len().max(1);
        prop_assert!(Response::decode(&bytes[..cut]).is_err());
    }

    #[test]
    fn byte_flips_never_panic_requests(
        request in request_strategy(),
        pos in 0usize..4096,
        flip in 1u32..256,
    ) {
        let mut bytes = request.encode();
        let pos = pos % bytes.len();
        bytes[pos] ^= flip as u8;
        // Either a typed CodecError or some other valid message; never a
        // panic (proptest treats a panic here as a failure) and never an
        // allocation driven by a corrupt count (decode validates lengths
        // against the remaining bytes before allocating).
        match Request::decode(&bytes) {
            Ok(decoded) => prop_assert_eq!(decoded.encode().len(), bytes.len()),
            Err(e) => {
                let _: CodecError = e;
            }
        }
    }

    #[test]
    fn byte_flips_never_panic_responses(
        response in response_strategy(),
        pos in 0usize..8192,
        flip in 1u32..256,
    ) {
        let mut bytes = response.encode();
        let pos = pos % bytes.len();
        bytes[pos] ^= flip as u8;
        match Response::decode(&bytes) {
            // A flipped byte may still decode (e.g. inside a text body);
            // whatever comes out must itself round-trip.
            Ok(decoded) => prop_assert_eq!(
                Response::decode(&decoded.encode()).unwrap(),
                decoded
            ),
            Err(e) => {
                let _: CodecError = e;
            }
        }
    }

    #[test]
    fn frame_length_corruption_cannot_over_allocate(
        request in request_strategy(),
        huge in (MAX_FRAME_LEN as u32 + 1)..u32::MAX,
    ) {
        let payload = request.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        // Corrupt the length prefix to claim a giant payload.
        wire[..4].copy_from_slice(&huge.to_le_bytes());
        let mut buf = Vec::new();
        match read_frame(&mut wire.as_slice(), &mut buf) {
            Err(FrameError::Oversize { len }) => prop_assert_eq!(len, huge as usize),
            other => prop_assert!(false, "expected Oversize, got {:?}", other),
        }
        // The claimed length never reached an allocation.
        prop_assert!(buf.capacity() <= payload.len().max(16));
    }

    #[test]
    fn frames_round_trip_through_the_frame_layer(request in request_strategy()) {
        let payload = request.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut buf = Vec::new();
        let n = read_frame(&mut wire.as_slice(), &mut buf).unwrap().unwrap();
        prop_assert_eq!(&buf[..n], &payload[..]);
        prop_assert_eq!(Request::decode(&buf[..n]).unwrap(), request);
    }
}
