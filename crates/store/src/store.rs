//! The append-only segment log of persisted epochs.
//!
//! ## Layout
//!
//! A store is a directory of segment files `seg-NNNNNNNNNN.psfalog`. Each
//! segment starts with a 12-byte header (`PSFALOG\0` magic + `u32` format
//! version) followed by frames:
//!
//! ```text
//! [u32 payload_len][u32 crc32(payload)][payload = EpochRecord::encode()]
//! ```
//!
//! Appends go to the newest segment until it holds `segment_max_records`
//! records, then a new segment is started. Each append is flushed and
//! fsynced before it is indexed, so an epoch the store reports as retained
//! is durable.
//!
//! ## Crash consistency
//!
//! A crash can tear at most the *tail* of the newest segment (frames are
//! written append-only and fsynced in order). On open, the newest segment
//! tolerates a trailing damaged frame — the scan stops at the last valid
//! frame and the next append truncates the torn tail — while damage in any
//! older segment, or before the tail of the newest, is reported as a typed
//! [`StoreError::Corrupt`]. Recovery therefore always lands on the latest
//! *consistent* epoch: every frame before the tear was checksum-verified.
//!
//! Only a short frame header, a length past the end of the segment or a
//! checksum mismatch can be a tear. A frame whose checksum verifies was
//! written whole, so if its payload does not start as an epoch record this
//! build reads (another `EPOCH_VERSION`, say), `open` fails with the typed
//! [`StoreError::Codec`] wherever the frame sits and leaves the file alone:
//! a version bump is never truncated away. The per-shard record version is
//! checked only when an epoch is decoded, by
//! [`SnapshotStore::load`], where that failure is already typed.
//!
//! ## Compaction
//!
//! The store retains at most `retain_epochs` epochs (the `K` of the
//! engine's `PersistenceConfig`); [`SnapshotStore::compact`] drops older
//! epochs from the index and deletes segment files whose records are all
//! dead. Records are never rewritten in place — a segment is reclaimed as a
//! whole once every epoch in it has expired, which rotation guarantees
//! happens after at most `⌈K / segment_max_records⌉ + 1` live segments.

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use psfa_freq::HeavyHitter;

use crate::crc::crc32;
use crate::error::StoreError;
use crate::record::EpochRecord;
use crate::view::EpochView;

const MAGIC: &[u8; 8] = b"PSFALOG\0";
const FORMAT_VERSION: u32 = 1;
const HEADER_LEN: u64 = 12;
const FRAME_HEADER_LEN: u64 = 8;
/// Hard upper bound on one frame payload (1 GiB) — guards the scanner
/// against a corrupted length field demanding an absurd read.
const MAX_PAYLOAD: u64 = 1 << 30;

#[derive(Debug, Clone, Copy)]
struct RecordLocation {
    segment: u64,
    offset: u64,
}

#[derive(Debug)]
struct SegmentMeta {
    /// Records indexed (still live) in this segment.
    live: usize,
    /// Records ever appended to this segment (live + compacted away).
    records: usize,
    /// Bytes of verified content; appends truncate the file to this length
    /// first, discarding any torn tail.
    valid_len: u64,
}

/// An on-disk store of epoch snapshots with historical (time-travel)
/// queries. See the module docs for the format and guarantees.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    retain_epochs: usize,
    segment_max_records: usize,
    index: BTreeMap<u64, RecordLocation>,
    segments: BTreeMap<u64, SegmentMeta>,
}

impl SnapshotStore {
    /// Opens (or creates) the store at `dir`, scanning and checksum-
    /// verifying every retained segment. A torn tail on the newest segment
    /// is tolerated (see the module docs); any other damage is a typed
    /// error.
    pub fn open(
        dir: impl AsRef<Path>,
        retain_epochs: usize,
        segment_max_records: usize,
    ) -> Result<Self, StoreError> {
        assert!(retain_epochs >= 1, "must retain at least one epoch");
        assert!(segment_max_records >= 1, "segments must hold records");
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut ids: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(id) = name
                .strip_prefix("seg-")
                .and_then(|rest| rest.strip_suffix(".psfalog"))
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        let mut store = Self {
            dir,
            retain_epochs,
            segment_max_records,
            index: BTreeMap::new(),
            segments: BTreeMap::new(),
        };
        for (i, &id) in ids.iter().enumerate() {
            let newest = i + 1 == ids.len();
            store.scan_segment(id, newest)?;
        }
        // Re-apply retention to the *index*: the scan sees every valid
        // frame still on disk, which may include epochs a previous process
        // had compacted out of its index while their segment stayed live —
        // without this, dropped epochs would resurrect on reopen. Files are
        // deliberately NOT deleted here: merely opening a store (e.g.
        // recovery with default knobs smaller than the writer's retention)
        // must never destroy history; reclamation happens only in
        // [`SnapshotStore::compact`] once the owner appends new epochs
        // under its own policy.
        while store.index.len() > retain_epochs {
            let (_, location) = store.index.pop_first().expect("index non-empty");
            if let Some(meta) = store.segments.get_mut(&location.segment) {
                meta.live = meta.live.saturating_sub(1);
            }
        }
        Ok(store)
    }

    fn segment_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("seg-{id:010}.psfalog"))
    }

    /// Scans one segment, indexing every checksum-valid frame. `tolerant`
    /// (newest segment only) stops at the first damaged frame instead of
    /// erroring, treating it as a torn tail; a checksum-valid frame that is
    /// not an epoch record is an error either way.
    fn scan_segment(&mut self, id: u64, tolerant: bool) -> Result<(), StoreError> {
        let path = self.segment_path(id);
        let data = fs::read(&path)?;
        let corrupt = |offset: u64, detail: &str| StoreError::Corrupt {
            path: path.clone(),
            offset,
            detail: detail.to_string(),
        };
        if data.len() < HEADER_LEN as usize {
            if tolerant {
                // Crash between segment creation and the header landing:
                // nothing of value; the next append rewrites the file.
                self.segments.insert(
                    id,
                    SegmentMeta {
                        live: 0,
                        records: 0,
                        valid_len: 0,
                    },
                );
                return Ok(());
            }
            return Err(corrupt(0, "segment shorter than its header"));
        }
        if &data[..8] != MAGIC {
            return Err(corrupt(0, "bad magic"));
        }
        let version = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(corrupt(8, "unsupported segment format version"));
        }
        let mut offset = HEADER_LEN;
        let mut meta = SegmentMeta {
            live: 0,
            records: 0,
            valid_len: HEADER_LEN,
        };
        let mut pending: Vec<(u64, u64)> = Vec::new(); // (epoch, offset)
        let total = data.len() as u64;
        'scan: loop {
            if offset == total {
                break;
            }
            let damage: &str = 'frame: {
                if total - offset < FRAME_HEADER_LEN {
                    break 'frame "truncated frame header";
                }
                let at = offset as usize;
                let len = u32::from_le_bytes(data[at..at + 4].try_into().expect("4 bytes")) as u64;
                let crc = u32::from_le_bytes(data[at + 4..at + 8].try_into().expect("4 bytes"));
                if len > MAX_PAYLOAD || len > total - offset - FRAME_HEADER_LEN {
                    break 'frame "frame length exceeds segment";
                }
                let payload = &data[at + 8..at + 8 + len as usize];
                if crc32(payload) != crc {
                    break 'frame "checksum mismatch";
                }
                // A verified frame was written whole: if it does not read
                // as an epoch record (another `EPOCH_VERSION`, say), that
                // is an error, never a torn tail to truncate.
                pending.push((EpochRecord::peek_epoch(payload)?, offset));
                meta.records += 1;
                offset += FRAME_HEADER_LEN + len;
                meta.valid_len = offset;
                continue 'scan;
            };
            if tolerant {
                // Torn tail: keep everything verified so far; the next
                // append truncates the garbage.
                break;
            }
            return Err(corrupt(offset, damage));
        }
        for (epoch, at) in pending {
            if self.index.contains_key(&epoch) {
                return Err(corrupt(at, "duplicate epoch across segments"));
            }
            self.index.insert(
                epoch,
                RecordLocation {
                    segment: id,
                    offset: at,
                },
            );
            meta.live += 1;
        }
        self.segments.insert(id, meta);
        Ok(())
    }

    /// Epochs currently retained, ascending.
    pub fn epochs(&self) -> Vec<u64> {
        self.index.keys().copied().collect()
    }

    /// The newest retained epoch, if any.
    pub fn latest_epoch(&self) -> Option<u64> {
        self.index.keys().next_back().copied()
    }

    /// The epoch number the next append must carry.
    pub fn next_epoch(&self) -> u64 {
        self.latest_epoch().map_or(1, |e| e + 1)
    }

    /// Number of segment files currently on disk.
    pub fn segments(&self) -> usize {
        self.segments.len()
    }

    /// Appends one epoch record, durably (flushed and fsynced before
    /// returning). Returns the number of bytes written. The record's epoch
    /// must advance past [`SnapshotStore::latest_epoch`].
    pub fn append(&mut self, record: &EpochRecord) -> Result<u64, StoreError> {
        if let Some(latest) = self.latest_epoch() {
            if record.epoch <= latest {
                return Err(StoreError::EpochOrder {
                    appended: record.epoch,
                    latest,
                });
            }
        }
        let payload = record.encode();
        // A frame the scanner would refuse must never be written "durably":
        // it would read back as a torn tail (newest segment) or corruption
        // (older segment) on every reopen.
        if payload.len() as u64 > MAX_PAYLOAD {
            return Err(StoreError::Codec(psfa_primitives::CodecError::Invalid(
                "epoch record exceeds the maximum frame size",
            )));
        }
        let mut frame = Vec::with_capacity(payload.len() + FRAME_HEADER_LEN as usize);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);

        // Pick (or start) the active segment.
        let active = match self.segments.iter().next_back() {
            Some((&id, meta)) if meta.records < self.segment_max_records => id,
            newest => {
                let id = newest.map_or(0, |(&id, _)| id + 1);
                self.segments.insert(
                    id,
                    SegmentMeta {
                        live: 0,
                        records: 0,
                        valid_len: 0,
                    },
                );
                id
            }
        };
        let path = self.segment_path(active);
        let meta = self.segments.get_mut(&active).expect("just ensured");
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(&path)?;
        if meta.valid_len < HEADER_LEN {
            // Fresh segment (or one whose header was torn): write the header.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(MAGIC)?;
            file.write_all(&FORMAT_VERSION.to_le_bytes())?;
            meta.valid_len = HEADER_LEN;
        } else {
            // Discard any torn tail beyond the verified content.
            file.set_len(meta.valid_len)?;
            file.seek(SeekFrom::Start(meta.valid_len))?;
        }
        let offset = meta.valid_len;
        file.write_all(&frame)?;
        file.flush()?;
        file.sync_data()?;
        meta.valid_len += frame.len() as u64;
        meta.records += 1;
        meta.live += 1;
        self.index.insert(
            record.epoch,
            RecordLocation {
                segment: active,
                offset,
            },
        );
        Ok(frame.len() as u64)
    }

    /// Drops epochs beyond the retention bound `K` (oldest first) and
    /// deletes segment files whose records are all dead. Returns the number
    /// of segment files deleted.
    pub fn compact(&mut self) -> Result<usize, StoreError> {
        while self.index.len() > self.retain_epochs {
            let (_, location) = self.index.pop_first().expect("index non-empty");
            if let Some(meta) = self.segments.get_mut(&location.segment) {
                meta.live = meta.live.saturating_sub(1);
            }
        }
        let newest = self.segments.keys().next_back().copied();
        let dead: Vec<u64> = self
            .segments
            .iter()
            .filter(|(&id, meta)| Some(id) != newest && meta.live == 0)
            .map(|(&id, _)| id)
            .collect();
        for id in &dead {
            fs::remove_file(self.segment_path(*id))?;
            self.segments.remove(id);
        }
        Ok(dead.len())
    }

    /// Loads and fully decodes one retained epoch, re-verifying its
    /// checksum against the bytes on disk. Reads only the record's own
    /// frame (seek + exact read), not the whole segment.
    pub fn load(&self, epoch: u64) -> Result<EpochRecord, StoreError> {
        use std::io::Read;
        let location = self
            .index
            .get(&epoch)
            .copied()
            .ok_or(StoreError::NoSuchEpoch(epoch))?;
        let path = self.segment_path(location.segment);
        let corrupt = |detail: &str| StoreError::Corrupt {
            path: path.clone(),
            offset: location.offset,
            detail: detail.to_string(),
        };
        let mut file = fs::File::open(&path)?;
        file.seek(SeekFrom::Start(location.offset))?;
        let mut header = [0u8; FRAME_HEADER_LEN as usize];
        if file.read_exact(&mut header).is_err() {
            return Err(corrupt("record offset beyond segment"));
        }
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as u64;
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD {
            return Err(corrupt("frame length exceeds the maximum payload"));
        }
        let mut payload = vec![0u8; len as usize];
        if file.read_exact(&mut payload).is_err() {
            return Err(corrupt("record truncated"));
        }
        if crc32(&payload) != crc {
            return Err(corrupt("checksum mismatch"));
        }
        let record = EpochRecord::decode(&payload)?;
        if record.epoch != epoch {
            return Err(corrupt("record epoch does not match index"));
        }
        Ok(record)
    }

    /// A time-travel view as of `epoch`.
    pub fn view_at(&self, epoch: u64) -> Result<EpochView, StoreError> {
        Ok(EpochView::new(self.load(epoch)?))
    }

    /// A view of the newest retained epoch.
    pub fn latest_view(&self) -> Result<EpochView, StoreError> {
        self.view_at(self.latest_epoch().ok_or(StoreError::NoSnapshot)?)
    }

    /// The φ-heavy hitters as the live engine reported them at `epoch`.
    pub fn heavy_hitters_at(&self, epoch: u64) -> Result<Vec<HeavyHitter>, StoreError> {
        Ok(self.view_at(epoch)?.heavy_hitters())
    }

    /// One-sided point-frequency estimate for `key` as of `epoch`.
    pub fn estimate_at(&self, key: u64, epoch: u64) -> Result<u64, StoreError> {
        Ok(self.view_at(epoch)?.estimate(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::ShardState;
    use psfa_freq::InfiniteHeavyHitters;
    use psfa_primitives::CodecError;
    use psfa_sketch::AtomicCountMin;

    fn tmpdir(label: &str) -> PathBuf {
        crate::testutil::unique_temp_dir(&format!("store-{label}"))
    }

    fn record(epoch: u64, items_per_shard: u64) -> EpochRecord {
        let shards = (0..2u32)
            .map(|shard| {
                let mut hh = InfiniteHeavyHitters::new(0.1, 0.01);
                // Item 0 takes half the traffic, the rest spreads thin.
                let batch: Vec<u64> = (0..items_per_shard)
                    .map(|i| if i % 2 == 0 { 0 } else { 1 + i % 13 })
                    .collect();
                hh.process_minibatch(&batch);
                let mut cm = AtomicCountMin::new(0.05, 0.05, 3);
                cm.process_minibatch(&batch);
                ShardState {
                    shard,
                    epoch,
                    items: items_per_shard,
                    heavy_hitters: hh,
                    window: None,
                    count_min: cm,
                }
            })
            .collect();
        EpochRecord {
            epoch,
            phi: 0.1,
            epsilon: 0.01,
            window: None,
            hot_keys: Vec::new(),
            shards,
        }
    }

    #[test]
    fn append_reopen_load_roundtrip() {
        let dir = tmpdir("roundtrip");
        let mut store = SnapshotStore::open(&dir, 8, 2).unwrap();
        assert_eq!(store.next_epoch(), 1);
        for epoch in 1..=5u64 {
            store.append(&record(epoch, 100 * epoch)).unwrap();
        }
        assert_eq!(store.epochs(), vec![1, 2, 3, 4, 5]);
        // 2 records per segment ⇒ 3 segments.
        assert_eq!(store.segments(), 3);
        drop(store);

        let store = SnapshotStore::open(&dir, 8, 2).unwrap();
        assert_eq!(store.latest_epoch(), Some(5));
        let loaded = store.load(3).unwrap();
        assert_eq!(loaded, record(3, 300));
        assert!(matches!(store.load(99), Err(StoreError::NoSuchEpoch(99))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn epoch_order_is_enforced() {
        let dir = tmpdir("order");
        let mut store = SnapshotStore::open(&dir, 8, 4).unwrap();
        store.append(&record(2, 10)).unwrap();
        assert!(matches!(
            store.append(&record(2, 10)),
            Err(StoreError::EpochOrder {
                appended: 2,
                latest: 2
            })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_retains_k_epochs_and_deletes_dead_segments() {
        let dir = tmpdir("compact");
        let mut store = SnapshotStore::open(&dir, 3, 2).unwrap();
        for epoch in 1..=9u64 {
            store.append(&record(epoch, 50)).unwrap();
            store.compact().unwrap();
            assert!(store.epochs().len() <= 3);
        }
        assert_eq!(store.epochs(), vec![7, 8, 9]);
        // Segments 0–2 (epochs 1–6) must be gone from disk.
        let files = fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, store.segments());
        assert!(store.segments() <= 3);
        // Reopening sees exactly the retained epochs.
        drop(store);
        let store = SnapshotStore::open(&dir, 3, 2).unwrap();
        assert_eq!(store.epochs(), vec![7, 8, 9]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_reapplies_retention_instead_of_resurrecting_epochs() {
        let dir = tmpdir("resurrect");
        let mut store = SnapshotStore::open(&dir, 3, 4).unwrap();
        // Four epochs land in one segment; compaction drops epoch 1 from
        // the index but the segment stays (it still holds 2–4).
        for epoch in 1..=4u64 {
            store.append(&record(epoch, 40)).unwrap();
        }
        store.compact().unwrap();
        assert_eq!(store.epochs(), vec![2, 3, 4]);
        drop(store);
        // A reopen scans the whole segment — epoch 1 must not come back.
        let store = SnapshotStore::open(&dir, 3, 4).unwrap();
        assert_eq!(store.epochs(), vec![2, 3, 4]);
        assert!(matches!(store.load(1), Err(StoreError::NoSuchEpoch(1))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_tolerated_and_truncated() {
        let dir = tmpdir("torn");
        let mut store = SnapshotStore::open(&dir, 8, 10).unwrap();
        store.append(&record(1, 60)).unwrap();
        store.append(&record(2, 60)).unwrap();
        let path = store.segment_path(0);
        drop(store);
        // Simulate a crash mid-append: garbage frame header at the tail.
        let mut data = fs::read(&path).unwrap();
        let intact = data.len();
        data.extend_from_slice(&[0xAB; 13]);
        fs::write(&path, &data).unwrap();

        let mut store = SnapshotStore::open(&dir, 8, 10).unwrap();
        assert_eq!(store.epochs(), vec![1, 2], "verified prefix survives");
        store.append(&record(3, 60)).unwrap();
        // The torn bytes were truncated before the new frame landed.
        drop(store);
        let reopened = SnapshotStore::open(&dir, 8, 10).unwrap();
        assert_eq!(reopened.epochs(), vec![1, 2, 3]);
        assert!(fs::read(&path).unwrap().len() > intact);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checksum_valid_frame_of_another_version_is_not_a_torn_tail() {
        // A record of an `EPOCH_VERSION` this build does not read, whole and
        // checksum-valid at the tail of the newest segment: `open` must say
        // so, not truncate it as a tear and resume from the epoch before.
        let dir = tmpdir("version-tail");
        let mut store = SnapshotStore::open(&dir, 8, 10).unwrap();
        store.append(&record(1, 60)).unwrap();
        store.append(&record(2, 60)).unwrap();
        let (path, frame) = (store.segment_path(0), store.index[&2].offset as usize);
        drop(store);
        let mut data = fs::read(&path).unwrap();
        let payload = frame + FRAME_HEADER_LEN as usize;
        // Record layout: tag(1) + version(1); the frame runs to the end.
        let newer = data[payload + 1] + 1;
        data[payload + 1] = newer;
        let crc = crc32(&data[payload..]);
        data[frame + 4..frame + 8].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &data).unwrap();

        match SnapshotStore::open(&dir, 8, 10) {
            Err(StoreError::Codec(CodecError::UnsupportedVersion { found })) => {
                assert_eq!(found, newer)
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        assert_eq!(fs::read(&path).unwrap(), data, "the segment is untouched");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interior_corruption_is_a_typed_error_never_a_panic() {
        let dir = tmpdir("corrupt");
        let mut store = SnapshotStore::open(&dir, 8, 1).unwrap();
        store.append(&record(1, 80)).unwrap();
        store.append(&record(2, 80)).unwrap();
        let victim = store.segment_path(0); // non-newest segment
        drop(store);
        let mut data = fs::read(&victim).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        fs::write(&victim, &data).unwrap();
        match SnapshotStore::open(&dir, 8, 1) {
            Err(StoreError::Corrupt { path, .. }) => assert_eq!(path, victim),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_reverifies_bytes_on_disk() {
        let dir = tmpdir("reverify");
        let mut store = SnapshotStore::open(&dir, 8, 4).unwrap();
        store.append(&record(1, 80)).unwrap();
        let path = store.segment_path(0);
        let mut data = fs::read(&path).unwrap();
        let mid = data.len() - 20;
        data[mid] ^= 0x55;
        fs::write(&path, &data).unwrap();
        assert!(matches!(store.load(1), Err(StoreError::Corrupt { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn historical_queries_answer_from_the_right_epoch() {
        let dir = tmpdir("history");
        let mut store = SnapshotStore::open(&dir, 8, 4).unwrap();
        store.append(&record(1, 100)).unwrap();
        store.append(&record(2, 500)).unwrap();
        let v1 = store.view_at(1).unwrap();
        let v2 = store.latest_view().unwrap();
        assert_eq!(v1.total_items(), 200);
        assert_eq!(v2.total_items(), 1000);
        assert!(store.estimate_at(0, 1).unwrap() < store.estimate_at(0, 2).unwrap());
        assert!(!store.heavy_hitters_at(2).unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
