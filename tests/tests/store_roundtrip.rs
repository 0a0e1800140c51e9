//! Serialization laws for exactly the formats the store persists: an
//! `EpochRecord` (tag `0x10`) of `ShardState`s (`0x11`), each holding an
//! `InfiniteHeavyHitters` (`0x05`) around a `ParallelFrequencyEstimator`
//! (`0x04`) around an `MgSummary` (`0x03`), an optional `PaneWindow`
//! (`0x09`) and an `AtomicCountMin` (`0x07`). The wire's `Request` (`0xA0`)
//! and `Response` (`0xA1`) join them in the cross-format check.
//!
//! The persistence story rests on `decode(encode(s)) == s` being *exact* —
//! not "equivalent up to error bounds": a recovered engine must continue
//! the stream precisely as the original would have, and a historical query
//! must reproduce the live answer at the cut. These proptests drive each
//! summary with arbitrary update sequences and check:
//!
//! 1. the decoded value equals the original (`PartialEq`, which compares
//!    the full persistent state);
//! 2. the decoded value *behaves* identically when the stream continues;
//! 3. truncating the encoding at any point yields a typed error;
//! 4. corrupting bytes never panics — decoding either fails typed or, at
//!    the summary layer (which is checksum-free by design; the segment log
//!    adds CRC32), yields some other structurally valid value.
//!
//! Two fixed cases close the set: every top-level decoder refuses every
//! other format's bytes with `BadTag`, and the bytes of one fixed record are
//! pinned by length and hash.

use proptest::prelude::*;

use psfa::prelude::*;

/// Drives an estimator/sketch with a deterministic stream derived from
/// `seed`, in `chunks`-sized minibatches.
fn stream_of(seed: u64, len: usize, universe: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Mild skew: a third of traffic on a handful of keys.
            let r = state >> 33;
            if r.is_multiple_of(3) {
                r % 8
            } else {
                r % universe
            }
        })
        .collect()
}

/// A pane window fed `batches` minibatches of 350 items from `seed`,
/// sealed after every `seal_every`-th: sealed panes, an open pane, or both.
fn pane_window(
    seed: u64,
    batches: usize,
    seal_every: usize,
    panes: usize,
    epsilon: f64,
) -> PaneWindow {
    let mut window = PaneWindow::new(epsilon, panes);
    for (i, chunk) in stream_of(seed, batches * 350, 1_000)
        .chunks(350)
        .enumerate()
    {
        window.process_minibatch(chunk);
        if (i + 1) % seal_every == 0 {
            window.seal();
        }
    }
    window
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mg_summary_roundtrip(
        seed in 1u64..u64::MAX,
        len in 0usize..4_000,
        capacity in 1usize..64,
    ) {
        let mut summary = MgSummary::new(capacity);
        for chunk in stream_of(seed, len, 500).chunks(97) {
            let mut counts = std::collections::HashMap::new();
            for &x in chunk {
                *counts.entry(x).or_insert(0u64) += 1;
            }
            let hist: Vec<psfa::primitives::HistogramEntry> = counts
                .into_iter()
                .map(|(item, count)| psfa::primitives::HistogramEntry { item, count })
                .collect();
            summary.augment(&hist);
        }
        let decoded = MgSummary::decode(&summary.encode()).expect("roundtrip");
        prop_assert_eq!(&decoded, &summary);
        // Deterministic bytes: encoding twice is identical.
        prop_assert_eq!(summary.encode(), decoded.encode());
    }

    #[test]
    fn heavy_hitter_tracker_roundtrip_and_continuation(
        seed in 1u64..u64::MAX,
        batches in 1usize..20,
    ) {
        let mut original = InfiniteHeavyHitters::new(0.05, 0.01);
        let stream = stream_of(seed, batches * 400, 2_000);
        for chunk in stream.chunks(400) {
            original.process_minibatch(chunk);
        }
        let decoded = InfiniteHeavyHitters::decode(&original.encode()).expect("roundtrip");
        prop_assert_eq!(&decoded, &original);
        prop_assert_eq!(decoded.query(), original.query());

        // Continuation law: the decoded tracker processes the future
        // exactly as the original (same histogram seed, same summary).
        let mut a = original.clone();
        let mut b = decoded;
        let future = stream_of(seed ^ 0xF00D, 1_200, 2_000);
        for chunk in future.chunks(300) {
            a.process_minibatch(chunk);
            b.process_minibatch(chunk);
        }
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.query(), b.query());
    }

    #[test]
    fn count_min_roundtrip_and_continuation(
        seed in 1u64..u64::MAX,
        cm_seed in 0u64..1_000,
        batches in 1usize..12,
    ) {
        let mut original = AtomicCountMin::new(0.01, 0.05, cm_seed);
        let stream = stream_of(seed, batches * 500, 3_000);
        for chunk in stream.chunks(500) {
            original.process_minibatch(chunk);
        }
        let decoded = AtomicCountMin::decode(&original.encode()).expect("roundtrip");
        prop_assert_eq!(&decoded, &original);
        for item in 0..64u64 {
            prop_assert_eq!(decoded.query(item), original.query(item));
        }
        // The decoded sketch remains mergeable with the original's lineage
        // (identical hash functions) and continues identically.
        let mut a = original.clone();
        let mut b = decoded;
        let future = stream_of(seed ^ 0xBEEF, 800, 3_000);
        a.process_minibatch(&future);
        b.process_minibatch(&future);
        prop_assert_eq!(&a, &b);
        let mut merged = a.clone();
        merged.merge(&b); // must not panic: same (ε, δ, seed)
        prop_assert_eq!(merged.total(), a.total() + b.total());
    }

    #[test]
    fn sliding_window_roundtrip_and_continuation(
        seed in 1u64..u64::MAX,
        batches in 1usize..20,
        seal_every in 1usize..5,
        panes in 1usize..6,
        epsilon in 0.01f64..0.5,
    ) {
        let original = pane_window(seed, batches, seal_every, panes, epsilon);
        let bytes = original.encode();
        let decoded = PaneWindow::decode(&bytes).expect("roundtrip");
        prop_assert_eq!(&decoded, &original);
        prop_assert_eq!(decoded.encode(), bytes);
        prop_assert_eq!(decoded.sealed_window(), original.sealed_window());

        // Continuation law: the same future, seals included, leaves both in
        // the same state.
        let mut a = original.clone();
        let mut b = decoded;
        for (i, chunk) in stream_of(seed ^ 0xCAFE, 1_400, 1_000).chunks(350).enumerate() {
            a.process_minibatch(chunk);
            b.process_minibatch(chunk);
            if i % seal_every == 0 {
                prop_assert_eq!(a.seal(), b.seal());
            }
        }
        prop_assert_eq!(&a, &b);
    }

    #[test]
    fn truncated_encodings_are_typed_errors_never_panics(
        seed in 1u64..u64::MAX,
        frac in 0.0f64..1.0,
    ) {
        let mut hh = InfiniteHeavyHitters::new(0.05, 0.01);
        let mut cm = AtomicCountMin::new(0.02, 0.05, 9);
        let stream = stream_of(seed, 2_000, 800);
        for chunk in stream.chunks(400) {
            hh.process_minibatch(chunk);
            cm.process_minibatch(chunk);
        }
        let window = pane_window(seed, 5, 2, 3, 0.05);
        // A strict prefix is never a valid encoding — every decode must
        // fail with a typed error (and of course never panic).
        let bytes = hh.encode();
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assert!(InfiniteHeavyHitters::decode(&bytes[..cut]).is_err());
        let bytes = window.encode();
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assert!(PaneWindow::decode(&bytes[..cut]).is_err());
        let bytes = cm.encode();
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assert!(AtomicCountMin::decode(&bytes[..cut]).is_err());
    }

    #[test]
    fn corrupted_encodings_never_panic(
        seed in 1u64..u64::MAX,
        victim in 0usize..100_000,
        flip in 1u64..256,
    ) {
        let mut hh = InfiniteHeavyHitters::new(0.05, 0.01);
        let mut cm = AtomicCountMin::new(0.02, 0.05, 9);
        let stream = stream_of(seed, 1_500, 600);
        hh.process_minibatch(&stream);
        cm.process_minibatch(&stream);
        let window = pane_window(seed, 4, 2, 3, 0.05);
        for bytes in [hh.encode(), cm.encode(), window.encode()] {
            let mut copy = bytes.clone();
            let at = victim % copy.len();
            copy[at] ^= flip as u8;
            // Either a typed error or a different-but-valid value; the
            // segment log's CRC32 is what detects silent flips on disk.
            let _ = InfiniteHeavyHitters::decode(&copy);
            let _ = AtomicCountMin::decode(&copy);
            let _ = PaneWindow::decode(&copy);
        }
    }
}

/// Store-level corruption: unlike the raw summary codec, the segment log is
/// checksummed, so *every* byte flip in a stored record is detected and
/// reported as a typed [`StoreError`] — never a panic, never silent.
#[test]
fn store_detects_every_single_byte_flip_in_a_record() {
    let dir = psfa::store::testutil::unique_temp_dir("roundtrip-crc");
    // Write one epoch through a real engine so the record is realistic (a
    // coarse Count-Min keeps the record small — this test rewrites the
    // segment once per sampled byte).
    let config = EngineConfig::with_shards(2)
        .heavy_hitters(0.05, 0.01)
        .count_min(0.01, 0.05, 5)
        .persistence(PersistenceConfig::new(&dir).interval_batches(u64::MAX / 2));
    let engine = Engine::spawn(config);
    let handle = engine.handle();
    handle
        .ingest(&(0..4_000u64).map(|i| i % 97).collect::<Vec<_>>())
        .unwrap();
    engine.drain().unwrap();
    handle.snapshot_now().unwrap();
    engine.kill();

    let segment = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "psfalog"))
        .expect("segment file exists");
    let pristine = std::fs::read(&segment).unwrap();

    // Flip a sample of bytes across the whole record (every 37th byte keeps
    // the test fast while covering header, frame, and payload regions).
    let mut detected = 0usize;
    let mut tried = 0usize;
    for at in (0..pristine.len()).step_by(17) {
        let mut copy = pristine.clone();
        copy[at] ^= 0x40;
        std::fs::write(&segment, &copy).unwrap();
        tried += 1;
        // Opening tolerates a torn *tail* but must never serve a flipped
        // record: either open reports corruption, or the damaged epoch is
        // simply no longer retained/loadable.
        match SnapshotStore::open(&dir, 8, 4) {
            Err(StoreError::Corrupt { .. }) | Err(StoreError::Codec(_)) => detected += 1,
            Err(other) => panic!("unexpected error class: {other}"),
            Ok(store) => match store.load(1) {
                Err(StoreError::Corrupt { .. })
                | Err(StoreError::Codec(_))
                | Err(StoreError::NoSuchEpoch(_)) => detected += 1,
                Err(other) => panic!("unexpected error class: {other}"),
                Ok(_) => panic!("byte flip at {at} served silently"),
            },
        }
    }
    assert_eq!(detected, tried, "every flip must be detected");
    std::fs::write(&segment, &pristine).unwrap();
    assert!(SnapshotStore::open(&dir, 8, 4).unwrap().load(1).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A fixed epoch record from fixed inputs: two shards, each with a
/// heavy-hitter tracker, a pane window of two sealed panes and an open one,
/// and a coarse Count-Min; the window state at that cut; two hot keys.
fn golden_record() -> EpochRecord {
    let (phi, epsilon) = (0.2, 0.1);
    let shards = (0..2u32)
        .map(|shard| {
            let items: Vec<u64> = (0..110u64)
                .map(|i| (i * i + u64::from(shard)) % 17)
                .collect();
            let mut heavy_hitters = InfiniteHeavyHitters::new(phi, epsilon);
            let mut window = PaneWindow::new(epsilon, 4);
            let mut count_min = AtomicCountMin::new(0.2, 0.2, 11);
            // Panes of 40 items per shard (a slide of 80), then 30 open.
            for (pane, chunk) in items.chunks(40).enumerate() {
                heavy_hitters.process_minibatch(chunk);
                window.process_minibatch(chunk);
                count_min.process_minibatch(chunk);
                if pane < 2 {
                    window.seal();
                }
            }
            ShardState {
                shard,
                epoch: 3,
                items: items.len() as u64,
                heavy_hitters,
                window: Some(window),
                count_min,
            }
        })
        .collect();
    EpochRecord {
        epoch: 5,
        phi,
        epsilon,
        window: Some(WindowState {
            size: 320,
            panes: 4,
            ticket: 220,
            boundaries: 2,
        }),
        hot_keys: vec![3, 9],
        shards,
    }
}

/// Where the shard states start in [`golden_record`]'s encoding: tag,
/// version, epoch, φ, ε, window flag, window state, two hot keys, shard
/// count.
const GOLDEN_SHARDS_AT: usize = 2 + 8 + 8 + 8 + 1 + 28 + (4 + 2 * 8) + 4;

/// Every top-level decoder refuses every other format's valid bytes with
/// `BadTag`: pointed at the wrong blob, a reader says so before it reads a
/// single counter.
#[test]
fn every_decoder_refuses_every_other_format_with_bad_tag() {
    use psfa::primitives::CodecError;

    let golden = golden_record();
    let record = golden.encode();
    let shard = &golden.shards[0];
    let formats: [(u8, Vec<u8>); 9] = [
        (0x03, MgSummary::new(4).encode()),
        (0x04, shard.heavy_hitters.estimator().encode()),
        (0x05, shard.heavy_hitters.encode()),
        (0x07, shard.count_min.encode()),
        (0x09, shard.window.as_ref().expect("golden window").encode()),
        (0x10, record.clone()),
        // The record's shard states, which only the record decodes.
        (0x11, record[GOLDEN_SHARDS_AT..].to_vec()),
        (0xA0, Request::Estimate(7).encode()),
        (0xA1, Response::Count(7).encode()),
    ];
    type Decode = fn(&[u8]) -> Result<(), CodecError>;
    let decoders: [(u8, Decode); 8] = [
        (0x03, |b| MgSummary::decode(b).map(|_| ())),
        (0x04, |b| ParallelFrequencyEstimator::decode(b).map(|_| ())),
        (0x05, |b| InfiniteHeavyHitters::decode(b).map(|_| ())),
        (0x07, |b| AtomicCountMin::decode(b).map(|_| ())),
        (0x09, |b| PaneWindow::decode(b).map(|_| ())),
        (0x10, |b| EpochRecord::decode(b).map(|_| ())),
        (0xA0, |b| Request::decode(b).map(|_| ())),
        (0xA1, |b| Response::decode(b).map(|_| ())),
    ];
    for (found, bytes) in &formats {
        assert_eq!(bytes[0], *found, "format {found:#04x} leads with its tag");
        for &(expected, decode) in &decoders {
            if expected == *found {
                assert_eq!(decode(bytes), Ok(()), "format {found:#04x} decodes");
            } else {
                assert_eq!(
                    decode(bytes),
                    Err(CodecError::BadTag {
                        expected,
                        found: *found
                    }),
                    "decoder {expected:#04x} on format {found:#04x}"
                );
            }
        }
    }
}

/// FNV-1a (64-bit) over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The bytes the store writes, pinned: a change anywhere under
/// `EpochRecord::encode` that moves one byte of a fixed record fails here.
/// A deliberate format change bumps the version of the format it changes
/// and updates both constants in the same commit.
#[test]
fn persisted_record_bytes_are_pinned() {
    const GOLDEN_LEN: usize = 2_049;
    const GOLDEN_FNV1A: u64 = 0x19f9_7051_7483_4205;
    let bytes = golden_record().encode();
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (GOLDEN_LEN, GOLDEN_FNV1A),
        "record bytes moved: {} bytes, fnv1a {:#018x}",
        bytes.len(),
        fnv1a(&bytes)
    );
    assert_eq!(EpochRecord::decode(&bytes), Ok(golden_record()));
}
