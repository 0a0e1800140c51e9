//! Kill-and-recover, end to end: ingest under skew-aware routing with
//! persistence on, snapshot, crash the engine mid-stream, recover, and
//! check that
//!
//! * every recovered estimate is within `ε·m_snapshotted` of the
//!   single-threaded reference over the persisted prefix (one-sided, as
//!   always);
//! * replicated-key placements survive recovery (the persisted hot set is
//!   re-promoted), so split keys keep being summed at query time;
//! * time travel is exact: `heavy_hitters_at(E)` and `estimate_at(·, E)`
//!   reproduce the answers the live engine gave at the moment epoch `E`
//!   was cut, even after the recovered engine has moved on;
//! * the *global* sliding window comes back as the same aligned window
//!   (boundary and item count) the live engine had at the cut;
//! * compaction bounds the on-disk history while the engine runs;
//! * the recovered engine keeps ingesting and persisting.
//!
//! Every store lives in a throwaway directory under `TMPDIR`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use psfa::prelude::*;

fn tmpdir(label: &str) -> PathBuf {
    psfa::store::testutil::unique_temp_dir(&format!("crash-{label}"))
}

#[test]
fn kill_and_recover_preserves_bounds_placements_and_history() {
    let dir = tmpdir("recover");
    let shards = 4;
    let phi = 0.05;
    let epsilon = 0.01;
    let window = 20_000u64;
    let config = EngineConfig::with_shards(shards)
        .heavy_hitters(phi, epsilon)
        .sliding_window(window)
        .skew_aware_routing()
        .persistence(
            // Manual snapshots only: the test controls exactly what is on
            // disk when the "crash" happens.
            PersistenceConfig::new(&dir).interval_batches(u64::MAX / 2),
        );

    let engine = Engine::spawn(config.clone());
    let handle = engine.handle();

    // Zipf(1.5): the head key carries ~38% of traffic, so the skew-aware
    // router promotes it and splits it across all shards.
    let mut generator = ZipfGenerator::new(100_000, 1.5, 41);
    let mut truth: HashMap<u64, u64> = HashMap::new();
    for _ in 0..30 {
        let batch = generator.next_minibatch(2_000);
        for &x in &batch {
            *truth.entry(x).or_insert(0) += 1;
        }
        handle.ingest(&batch).unwrap();
    }
    engine.drain().unwrap();

    let m_snap = handle.total_items();
    assert_eq!(m_snap, 60_000);
    let hot_before: Vec<u64> = handle.metrics().hot_keys;
    assert!(
        !hot_before.is_empty(),
        "skew router must have promoted keys"
    );

    // Record the live answers, then cut epoch 1.
    let live_hh = handle.heavy_hitters();
    let live_window = handle.global_window().expect("24 boundaries at m = 60k");
    let live_sliding_hh = handle.sliding_heavy_hitters();
    let probe_keys: Vec<u64> = truth
        .keys()
        .copied()
        .take(500)
        .chain(hot_before.clone())
        .collect();
    let live_estimates: HashMap<u64, u64> = probe_keys
        .iter()
        .map(|&k| (k, handle.estimate(k)))
        .collect();
    let epoch = handle.snapshot_now().expect("snapshot");
    assert_eq!(epoch, 1);

    // More traffic lands after the snapshot, then the process "dies": no
    // final flush, so everything after epoch 1 is lost — as in a real
    // crash.
    for _ in 0..10 {
        handle.ingest(&generator.next_minibatch(2_000)).unwrap();
    }
    engine.drain().unwrap();
    assert!(handle.total_items() > m_snap);
    engine.kill();

    // --- recovery ------------------------------------------------------
    let recovered = Engine::recover(&dir, config).expect("recover");
    let handle = recovered.handle();
    assert_eq!(
        handle.total_items(),
        m_snap,
        "recovered engine = persisted prefix, post-snapshot items lost"
    );

    // Accuracy: every recovered estimate within ε·m_snapshotted of the
    // single-threaded reference (exact counts), one-sided.
    let slack = (epsilon * m_snap as f64).ceil() as u64;
    for (&item, &f) in &truth {
        let est = handle.estimate(item);
        assert!(
            est <= f,
            "item {item}: recovered estimate {est} above truth {f}"
        );
        assert!(
            est + slack >= f,
            "item {item}: recovered estimate {est} under truth {f} by more than εm = {slack}"
        );
    }

    // Replicated-key placements survived: the persisted hot set was
    // re-promoted into the fresh router, so split keys keep being summed.
    assert_eq!(handle.metrics().hot_keys, hot_before);
    for &key in &hot_before {
        assert_eq!(handle.placement(key), Placement::Replicated);
    }
    // And the hottest key's recovered (summed) estimate matches the live
    // engine's pre-crash answer exactly.
    for &key in &hot_before {
        assert_eq!(handle.estimate(key), live_estimates[&key]);
    }

    // The *global* sliding window was recovered exactly: same aligned
    // boundary, same coverage, same answers — the persisted epoch records
    // the window cut, so the recovered engine's aligned window is the one
    // the live engine served at the snapshot.
    let recovered_window = handle.global_window().expect("window recovered");
    assert_eq!(recovered_window.seq(), live_window.seq());
    assert_eq!(recovered_window.items(), live_window.items());
    assert_eq!(handle.sliding_heavy_hitters(), live_sliding_hh);
    assert!(handle.sliding_estimate(hot_before[0]) > 0);
    for &key in &hot_before {
        assert_eq!(
            recovered_window.estimate(key),
            live_window.estimate(key),
            "recovered window estimate differs for hot key {key}"
        );
    }

    // Time travel is exact — including the windowed surface.
    assert_eq!(handle.heavy_hitters_at(epoch).unwrap(), live_hh);
    for (&k, &est) in &live_estimates {
        assert_eq!(handle.estimate_at(k, epoch).unwrap(), est);
    }
    let view = handle.view_at(epoch).unwrap();
    assert_eq!(view.sliding_heavy_hitters(), live_sliding_hh);
    assert_eq!(
        view.global_window().map(|w| (w.seq(), w.items())),
        Some((live_window.seq(), live_window.items()))
    );

    // The recovered engine is fully live: ingest, snapshot epoch 2, and
    // epoch 1's historical answers stay frozen.
    for _ in 0..5 {
        handle.ingest(&generator.next_minibatch(2_000)).unwrap();
    }
    recovered.drain().unwrap();
    assert_eq!(handle.total_items(), m_snap + 10_000);
    let epoch2 = handle.snapshot_now().unwrap();
    assert_eq!(epoch2, 2);
    assert_eq!(handle.persisted_epochs().unwrap(), vec![1, 2]);
    assert_eq!(handle.heavy_hitters_at(epoch).unwrap(), live_hh);
    let view2 = handle.view_at(epoch2).unwrap();
    assert_eq!(view2.total_items(), m_snap + 10_000);
    assert!(view2.total_items() > handle.view_at(epoch).unwrap().total_items());

    recovered.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compaction_bounds_history_while_the_engine_runs() {
    let dir = tmpdir("compaction");
    let retain = 3usize;
    let config = EngineConfig::with_shards(2)
        .heavy_hitters(0.05, 0.01)
        .persistence(
            PersistenceConfig::new(&dir)
                .interval_batches(u64::MAX / 2)
                .retain_epochs(retain)
                .segment_max_records(2),
        );
    let engine = Engine::spawn(config);
    let handle = engine.handle();
    let mut generator = ZipfGenerator::new(10_000, 1.2, 5);
    for round in 1..=8u64 {
        handle.ingest(&generator.next_minibatch(1_000)).unwrap();
        engine.drain().unwrap();
        assert_eq!(handle.snapshot_now().unwrap(), round);
        let epochs = handle.persisted_epochs().unwrap();
        assert!(epochs.len() <= retain, "retention exceeded: {epochs:?}");
        assert_eq!(*epochs.last().unwrap(), round);
    }
    // Old epochs are gone — typed error, not a panic or a wrong answer.
    assert!(matches!(
        handle.heavy_hitters_at(1),
        Err(StoreError::NoSuchEpoch(1))
    ));
    // Disk holds only the retained segments.
    let segments = std::fs::read_dir(&dir).unwrap().count();
    assert!(
        segments <= retain / 2 + 2,
        "dead segments not truncated: {segments} files for {retain} epochs"
    );
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The on-disk state a persist cut leaves when it lands between a
/// boundary-crossing batch and that boundary's marker: the logical clock
/// sits exactly on `k·slide` while every shard has sealed only `k − 1`
/// panes and still holds pane `k` open. The flusher produces this by racing
/// a producer; here the record is written through the store's public API so
/// the case is exact and repeatable.
#[test]
fn recovery_cuts_a_boundary_the_persisted_cut_left_due() {
    let dir = tmpdir("due-boundary");
    let (shards, phi, epsilon) = (2usize, 0.05, 0.01);
    let (window, panes, batch_len) = (8_000u64, 4usize, 1_000usize);
    let slide = window / panes as u64;
    let (cm_epsilon, cm_delta, cm_seed) = (0.01, 0.05, 5u64);
    let config = EngineConfig::with_shards(shards)
        .heavy_hitters(phi, epsilon)
        .count_min(cm_epsilon, cm_delta, cm_seed)
        .sliding_window(window)
        .window_panes(panes);

    // Three panes' worth of traffic, hash-routed as the engine would.
    let k = 3u64;
    let router = HashRouter::new(shards);
    let mut generator = ZipfGenerator::new(5_000, 1.2, 77);
    let mut states: Vec<(InfiniteHeavyHitters, PaneWindow, AtomicCountMin, u64, u64)> = (0..shards)
        .map(|_| {
            (
                InfiniteHeavyHitters::new(phi, epsilon),
                PaneWindow::new(epsilon, panes),
                AtomicCountMin::new(cm_epsilon, cm_delta, cm_seed),
                0,
                0,
            )
        })
        .collect();
    let mut truth: HashMap<u64, u64> = HashMap::new();
    let mut ticket = 0u64;
    while ticket < k * slide {
        let batch = generator.next_minibatch(batch_len);
        for &x in &batch {
            *truth.entry(x).or_insert(0) += 1;
        }
        for ((hh, pane, cm, epoch, items), part) in states.iter_mut().zip(router.partition(&batch))
        {
            hh.process_minibatch(&part);
            pane.process_minibatch(&part);
            cm.process_minibatch(&part);
            *epoch += 1;
            *items += part.len() as u64;
        }
        ticket += batch.len() as u64;
        // Boundaries 1 … k−1 were cut and sealed; the k-th marker is the
        // one the persist cut got ahead of.
        if ticket.is_multiple_of(slide) && ticket < k * slide {
            for (_, pane, ..) in states.iter_mut() {
                pane.seal();
            }
        }
    }
    let record = EpochRecord {
        epoch: 1,
        phi,
        epsilon,
        window: Some(WindowState {
            size: window,
            panes: panes as u32,
            ticket,
            boundaries: k - 1,
        }),
        hot_keys: Vec::new(),
        shards: states
            .into_iter()
            .enumerate()
            .map(
                |(shard, (heavy_hitters, pane, count_min, epoch, items))| ShardState {
                    shard: shard as u32,
                    epoch,
                    items,
                    heavy_hitters,
                    window: Some(pane),
                    count_min,
                },
            )
            .collect(),
    };
    let mut store = SnapshotStore::open(&dir, 8, 4).unwrap();
    store.append(&record).unwrap();
    drop(store);

    // Straight after recovery — no ingest, no drain — the window is the
    // one the prefix implies: boundary k, covering the last three panes.
    let recovered = Engine::recover(&dir, config).expect("recover");
    let handle = recovered.handle();
    assert_eq!(handle.total_items(), k * slide);
    let live = handle.global_window().expect("three boundaries are due");
    assert_eq!(live.seq(), k, "the due boundary must be cut by recovery");
    assert_eq!(live.items(), k * slide);
    let slack = (epsilon * live.items() as f64).ceil() as u64;
    for (&item, &f) in &truth {
        let est = live.estimate(item);
        assert!(
            est <= f && est + slack >= f,
            "item {item}: window estimate {est} vs {f}"
        );
    }
    // The clock carries on from there: the next slide seals boundary k+1.
    for _ in 0..slide as usize / batch_len {
        handle.ingest(&generator.next_minibatch(batch_len)).unwrap();
    }
    recovered.drain().unwrap();
    assert_eq!(handle.global_window().unwrap().seq(), k + 1);
    recovered.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The store's segment files with their bytes, oldest first.
fn segments(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "psfalog"))
        .map(|p| {
            let bytes = std::fs::read(&p).unwrap();
            (p, bytes)
        })
        .collect();
    files.sort();
    files
}

/// Rewrites the one record of `segment` as an older writer would have
/// stamped it: every occurrence of `marker` (a tag, a version byte, then
/// context) gets version `old`, and the frame is re-checksummed so the log
/// stays intact. Returns the number of occurrences rewritten.
fn restamp(segment: &Path, marker: &[u8], old: u8) -> usize {
    let mut bytes = std::fs::read(segment).unwrap();
    let (frame, payload) = (12usize, 20usize); // segment header, then [len][crc]
    let mut patched = 0;
    for at in payload..bytes.len() - marker.len() {
        if bytes[at..at + marker.len()] == marker[..] {
            bytes[at + 1] = old;
            patched += 1;
        }
    }
    let crc = psfa::store::crc32(&bytes[payload..]);
    bytes[frame + 4..frame + 8].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(segment, &bytes).unwrap();
    patched
}

/// A store written before Count-Min rows last switched hash (sketch codec
/// versions 1 and 2) holds counters in columns this code would misread, and
/// one written before the sketch lost its `0x08` wrapper (shard record
/// version 2) holds bytes this code would misparse. Such a record must
/// surface as a typed `UnsupportedVersion` naming the old version from
/// `load` and from `recover` — never as a sketch that silently answers
/// wrong, nor as a tag mismatch that looks like corruption — and the failed
/// recovery must leave the log as it found it: a record of another version
/// is not a torn tail to be truncated away.
#[test]
fn recover_rejects_a_record_holding_a_version_1_count_min() {
    let (cm_epsilon, cm_delta, cm_seed) = (0.01, 0.05, 5u64);
    // Each marker starts with a tag and a version byte: the sketch's first
    // 18 bytes (tag, version, ε, δ) occur once per shard; the shard record
    // header (tag 0x11, version 3) followed by shard index 0 occurs once.
    let sketch = AtomicCountMin::new(cm_epsilon, cm_delta, cm_seed).encode()[..18].to_vec();
    let shard_record = vec![0x11, 3, 0, 0, 0, 0];
    let inputs = (1..sketch[1])
        .map(|old| (&sketch, 2, old))
        .chain([(&shard_record, 1, 2)]);
    for (marker, occurrences, old) in inputs {
        let dir = tmpdir(&format!("old-version-{:#04x}-{old}", marker[0]));
        let config = EngineConfig::with_shards(2)
            .heavy_hitters(0.05, 0.01)
            .count_min(cm_epsilon, cm_delta, cm_seed)
            .persistence(PersistenceConfig::new(&dir).interval_batches(u64::MAX / 2));
        let engine = Engine::spawn(config.clone());
        let handle = engine.handle();
        handle
            .ingest(&(0..4_000u64).map(|i| i % 97).collect::<Vec<_>>())
            .unwrap();
        engine.drain().unwrap();
        handle.snapshot_now().unwrap();
        engine.kill();

        let (segment, _) = segments(&dir).pop().expect("segment file exists");
        assert_eq!(
            restamp(&segment, marker, old),
            occurrences,
            "marker {marker:02x?}"
        );
        let before = segments(&dir);

        let old_version = |e: &StoreError| {
            matches!(
                e,
                StoreError::Codec(psfa::primitives::CodecError::UnsupportedVersion { found })
                    if *found == old
            )
        };
        let store = SnapshotStore::open(&dir, 8, 4).expect("the log itself is intact");
        assert!(store.load(1).is_err_and(|e| old_version(&e)));
        drop(store);
        assert!(Engine::recover(&dir, config).is_err_and(|e| old_version(&e)));
        assert_eq!(
            segments(&dir),
            before,
            "a failed recover must not rewrite the log"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A store whose segments hold records of two shard-record versions: an
/// older segment's record stamped `SHARD_VERSION` 2 (checksum-valid) and a
/// newer segment's current one. The log opens whole, the old epoch fails
/// typed without its segment being touched, the newest epoch loads and
/// recovers, and retention of one epoch reclaims the old segment.
#[test]
fn a_store_mixing_shard_record_versions_recovers_from_the_newest_epoch() {
    let dir = tmpdir("mixed-versions");
    let config = EngineConfig::with_shards(2)
        .heavy_hitters(0.05, 0.01)
        .count_min(0.01, 0.05, 5)
        .persistence(
            PersistenceConfig::new(&dir)
                .interval_batches(u64::MAX / 2)
                .segment_max_records(1),
        );
    let engine = Engine::spawn(config.clone());
    let handle = engine.handle();
    let stream: Vec<u64> = (0..8_000u64).map(|i| i % 97).collect();
    for half in stream.chunks(4_000) {
        handle.ingest(half).unwrap();
        engine.drain().unwrap();
        handle.snapshot_now().unwrap();
    }
    let live_hh = handle.heavy_hitters();
    let live_cm: Vec<u64> = (0..97).map(|k| handle.cm_estimate(k)).collect();
    engine.kill();

    let files = segments(&dir);
    assert_eq!(files.len(), 2, "one record per segment");
    let old_segment = &files[0].0;
    assert_eq!(restamp(old_segment, &[0x11, 3, 0, 0, 0, 0], 2), 1);
    let old_bytes = std::fs::read(old_segment).unwrap();

    let store = SnapshotStore::open(&dir, 8, 1).expect("both segments are intact");
    assert_eq!(store.epochs(), vec![1, 2]);
    assert!(matches!(
        store.load(1),
        Err(StoreError::Codec(
            psfa::primitives::CodecError::UnsupportedVersion { found: 2 }
        ))
    ));
    assert_eq!(store.load(2).expect("current record").total_items(), 8_000);
    drop(store);
    assert_eq!(std::fs::read(old_segment).unwrap(), old_bytes);

    let recovered = Engine::recover(&dir, config).expect("recover from the newest epoch");
    let handle = recovered.handle();
    assert_eq!(handle.total_items(), 8_000);
    assert_eq!(handle.heavy_hitters(), live_hh);
    let cm: Vec<u64> = (0..97).map(|k| handle.cm_estimate(k)).collect();
    assert_eq!(cm, live_cm);
    recovered.kill();
    assert_eq!(
        std::fs::read(old_segment).unwrap(),
        old_bytes,
        "recovery leaves the old segment alone"
    );

    let mut store = SnapshotStore::open(&dir, 1, 1).unwrap();
    assert_eq!(store.epochs(), vec![2]);
    assert_eq!(store.compact().unwrap(), 1, "the old segment is reclaimed");
    assert!(!old_segment.exists());
    assert!(store.load(2).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}
