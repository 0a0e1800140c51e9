//! Serialization round-trip laws for every persisted summary type.
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
        batches in 1usize..15,
        n in 2_000u64..20_000,
    ) {
        let mut original = SlidingFreqWorkEfficient::new(0.01, n);
        let stream = stream_of(seed, batches * 350, 1_000);
        for chunk in stream.chunks(350) {
            original.process_minibatch(chunk);
        }
        let decoded = SlidingFreqWorkEfficient::decode(&original.encode()).expect("roundtrip");
        prop_assert_eq!(&decoded, &original);
        let mut ta = original.tracked_items();
        let mut tb = decoded.tracked_items();
        ta.sort_unstable();
        tb.sort_unstable();
        prop_assert_eq!(ta, tb);

        let mut a = original.clone();
        let mut b = decoded;
        let future = stream_of(seed ^ 0xCAFE, 700, 1_000);
        for chunk in future.chunks(233) {
            a.process_minibatch(chunk);
            b.process_minibatch(chunk);
        }
        prop_assert_eq!(&a, &b);
    }

    #[test]
    fn truncated_encodings_are_typed_errors_never_panics(
        seed in 1u64..u64::MAX,
        frac in 0.0f64..1.0,
    ) {
        let mut hh = InfiniteHeavyHitters::new(0.05, 0.01);
        let mut sliding = SlidingFreqWorkEfficient::new(0.01, 4_000);
        let mut cm = AtomicCountMin::new(0.02, 0.05, 9);
        let stream = stream_of(seed, 2_000, 800);
        for chunk in stream.chunks(400) {
            hh.process_minibatch(chunk);
            sliding.process_minibatch(chunk);
            cm.process_minibatch(chunk);
        }
        // A strict prefix is never a valid encoding — every decode must
        // fail with a typed error (and of course never panic).
        let bytes = hh.encode();
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assert!(InfiniteHeavyHitters::decode(&bytes[..cut]).is_err());
        let bytes = sliding.encode();
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assert!(SlidingFreqWorkEfficient::decode(&bytes[..cut]).is_err());
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
        for bytes in [hh.encode(), cm.encode()] {
            let mut copy = bytes.clone();
            let at = victim % copy.len();
            copy[at] ^= flip as u8;
            // Either a typed error or a different-but-valid value; the
            // segment log's CRC32 is what detects silent flips on disk.
            let _ = InfiniteHeavyHitters::decode(&copy);
            let _ = AtomicCountMin::decode(&copy);
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
