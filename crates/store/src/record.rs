//! The on-disk record types: one persisted epoch and its per-shard states.

use psfa_freq::{InfiniteHeavyHitters, PaneWindow};
use psfa_primitives::codec::{put_header, ByteReader, ByteWriter, CodecError};
use psfa_sketch::AtomicCountMin;

const EPOCH_TAG: u8 = 0x10;
const EPOCH_VERSION: u8 = 2;
const SHARD_TAG: u8 = 0x11;
/// Version 3: the Count-Min sketch is written bare (tag `0x07`). Version 2
/// wrapped it in a `0x08` header carrying a histogram seed; it decodes as
/// [`CodecError::UnsupportedVersion`].
const SHARD_VERSION: u8 = 3;

/// Upper bound accepted for the persisted shard count — a sanity limit far
/// above any real deployment, guarding decode against corrupted counts.
const MAX_SHARDS: usize = 1 << 16;

/// The full operator state of one shard at the moment of an epoch cut.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardState {
    /// Shard index.
    pub shard: u32,
    /// Minibatches the shard had processed at the cut (its local epoch).
    pub epoch: u64,
    /// Items the shard had processed at the cut (its `m_s`).
    pub items: u64,
    /// The shard's infinite-window heavy-hitter tracker.
    pub heavy_hitters: InfiniteHeavyHitters,
    /// The shard's boundary-aligned sliding-window state, when the engine
    /// runs a global window.
    pub window: Option<PaneWindow>,
    /// The shard's Count-Min sketch.
    pub count_min: AtomicCountMin,
}

impl ShardState {
    fn encode_into(&self, w: &mut ByteWriter) {
        put_header(w, SHARD_TAG, SHARD_VERSION);
        w.put_u32(self.shard);
        w.put_u64(self.epoch);
        w.put_u64(self.items);
        self.heavy_hitters.encode_into(w);
        match &self.window {
            Some(window) => {
                w.put_u8(1);
                window.encode_into(w);
            }
            None => w.put_u8(0),
        }
        self.count_min.encode_into(w);
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.expect_header(SHARD_TAG, SHARD_VERSION)?;
        let shard = r.get_u32()?;
        let epoch = r.get_u64()?;
        let items = r.get_u64()?;
        let heavy_hitters = InfiniteHeavyHitters::decode_from(r)?;
        let window = match r.get_u8()? {
            0 => None,
            1 => Some(PaneWindow::decode_from(r)?),
            _ => return Err(CodecError::Invalid("shard state: bad window flag")),
        };
        let count_min = AtomicCountMin::decode_from(r)?;
        Ok(Self {
            shard,
            epoch,
            items,
            heavy_hitters,
            window,
            count_min,
        })
    }
}

/// The global sliding-window configuration and clock at an epoch cut: what
/// recovery needs to resume the `WindowFence` so pane boundaries keep
/// landing at the same logical positions, and what ties the persisted
/// per-shard [`PaneWindow`]s to one aligned boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowState {
    /// Global window size `n_W` in items.
    pub size: u64,
    /// Number of panes the window is divided into (`k`; the slide is
    /// `size / panes`).
    pub panes: u32,
    /// Logical items accepted when the epoch was cut (the ticket).
    pub ticket: u64,
    /// Window boundaries cut so far; every shard's sealed pane ring is at
    /// exactly this boundary (the cut is consistent). Boundaries land at
    /// consecutive multiples of the slide, so the next boundary's position
    /// is derived, never stored.
    pub boundaries: u64,
}

impl WindowState {
    /// The window slide in items (`size / panes`).
    pub fn slide(&self) -> u64 {
        self.size / self.panes as u64
    }

    fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u64(self.size);
        w.put_u32(self.panes);
        w.put_u64(self.ticket);
        w.put_u64(self.boundaries);
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let size = r.get_u64()?;
        let panes = r.get_u32()?;
        let ticket = r.get_u64()?;
        let boundaries = r.get_u64()?;
        if panes == 0 || size < panes as u64 || size % panes as u64 != 0 {
            return Err(CodecError::Invalid(
                "window state: size must be a positive multiple of panes",
            ));
        }
        Ok(Self {
            size,
            panes,
            ticket,
            boundaries,
        })
    }
}

/// One persisted epoch: a consistent cut of every shard's summaries plus
/// the routing state needed to interpret them (the hot-key set — a key split
/// across shards must be *summed* at query time, live or historical).
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Store epoch number `E`, strictly increasing across the log.
    pub epoch: u64,
    /// Heavy-hitter threshold φ the engine ran with.
    pub phi: f64,
    /// Estimation error ε the engine ran with.
    pub epsilon: f64,
    /// The global sliding-window configuration and clock at the cut, when
    /// the engine ran a window.
    pub window: Option<WindowState>,
    /// Keys the router was splitting across shards at the cut, sorted.
    pub hot_keys: Vec<u64>,
    /// Per-shard states, in shard order (`shards[i].shard == i`).
    pub shards: Vec<ShardState>,
}

impl EpochRecord {
    /// Canonical binary encoding of the whole record (the payload of one
    /// segment-log frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        put_header(&mut w, EPOCH_TAG, EPOCH_VERSION);
        w.put_u64(self.epoch);
        w.put_f64(self.phi);
        w.put_f64(self.epsilon);
        match &self.window {
            Some(state) => {
                w.put_u8(1);
                state.encode_into(&mut w);
            }
            None => w.put_u8(0),
        }
        w.put_u32(self.hot_keys.len() as u32);
        for &key in &self.hot_keys {
            w.put_u64(key);
        }
        w.put_u32(self.shards.len() as u32);
        for shard in &self.shards {
            shard.encode_into(&mut w);
        }
        w.into_bytes()
    }

    /// Decodes a record from one frame payload, validating every structural
    /// invariant (never panics on corrupted input).
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        r.expect_header(EPOCH_TAG, EPOCH_VERSION)?;
        let epoch = r.get_u64()?;
        let phi = r.get_f64()?;
        let epsilon = r.get_f64()?;
        if !(epsilon > 0.0 && epsilon < phi && phi < 1.0) {
            return Err(CodecError::Invalid(
                "epoch record: need 0 < epsilon < phi < 1",
            ));
        }
        let window = match r.get_u8()? {
            0 => None,
            1 => Some(WindowState::decode_from(&mut r)?),
            _ => return Err(CodecError::Invalid("epoch record: bad window flag")),
        };
        let hot_len = r.get_len(8)?;
        let mut hot_keys = Vec::with_capacity(hot_len);
        for _ in 0..hot_len {
            let key = r.get_u64()?;
            if hot_keys.last().is_some_and(|&p| p >= key) {
                return Err(CodecError::Invalid(
                    "epoch record: hot keys must be strictly ascending",
                ));
            }
            hot_keys.push(key);
        }
        let shard_count = r.get_len(1)?;
        if shard_count == 0 || shard_count > MAX_SHARDS {
            return Err(CodecError::Invalid("epoch record: implausible shard count"));
        }
        let mut shards = Vec::with_capacity(shard_count);
        for expected in 0..shard_count {
            let shard = ShardState::decode_from(&mut r)?;
            if shard.shard as usize != expected {
                return Err(CodecError::Invalid("epoch record: shards out of order"));
            }
            // The window invariants that make time travel and recovery
            // sound: every shard carries a window iff the record does, its
            // geometry matches, and — because the cut is consistent — every
            // shard's pane ring is sealed at exactly the record's boundary.
            match (&window, &shard.window) {
                (None, None) => {}
                (Some(ws), Some(pw)) => {
                    if pw.panes() != ws.panes as usize {
                        return Err(CodecError::Invalid(
                            "epoch record: shard pane count differs from the window state",
                        ));
                    }
                    if pw.epsilon().to_bits() != epsilon.to_bits() {
                        return Err(CodecError::Invalid(
                            "epoch record: shard window epsilon differs from the engine's",
                        ));
                    }
                    if pw.sealed_seq() != ws.boundaries {
                        return Err(CodecError::Invalid(
                            "epoch record: shard window not aligned to the cut boundary",
                        ));
                    }
                }
                _ => {
                    return Err(CodecError::Invalid(
                        "epoch record: window presence differs between record and shard",
                    ));
                }
            }
            shards.push(shard);
        }
        r.expect_end()?;
        Ok(Self {
            epoch,
            phi,
            epsilon,
            window,
            hot_keys,
            shards,
        })
    }

    /// Reads only the epoch number from an encoded record (used to index a
    /// segment without decoding megabytes of summaries).
    pub fn peek_epoch(bytes: &[u8]) -> Result<u64, CodecError> {
        let mut r = ByteReader::new(bytes);
        r.expect_header(EPOCH_TAG, EPOCH_VERSION)?;
        r.get_u64()
    }

    /// Total items reflected in this epoch across all shards (`m`).
    pub fn total_items(&self) -> u64 {
        self.shards.iter().map(|s| s.items).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> EpochRecord {
        let mut shards = Vec::new();
        for shard in 0..3u32 {
            let mut hh = InfiniteHeavyHitters::new(0.05, 0.01);
            let mut window = PaneWindow::new(0.01, 4);
            let mut cm = AtomicCountMin::new(0.01, 0.01, 42);
            let batch: Vec<u64> = (0..500u64).map(|i| i % (7 + shard as u64)).collect();
            hh.process_minibatch(&batch);
            window.process_minibatch(&batch);
            // Two boundaries processed on every shard (a consistent cut).
            window.seal();
            window.process_minibatch(&batch[..100]);
            window.seal();
            cm.process_minibatch(&batch);
            shards.push(ShardState {
                shard,
                epoch: 1 + shard as u64,
                items: batch.len() as u64,
                heavy_hitters: hh,
                window: Some(window),
                count_min: cm,
            });
        }
        EpochRecord {
            epoch: 9,
            phi: 0.05,
            epsilon: 0.01,
            window: Some(WindowState {
                size: 10_000,
                panes: 4,
                ticket: 5_500,
                boundaries: 2,
            }),
            hot_keys: vec![0, 3, 11],
            shards,
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let record = sample_record();
        let bytes = record.encode();
        assert_eq!(EpochRecord::peek_epoch(&bytes).unwrap(), 9);
        let decoded = EpochRecord::decode(&bytes).unwrap();
        assert_eq!(decoded, record);
        assert_eq!(decoded.total_items(), record.total_items());
    }

    #[test]
    fn truncation_never_panics() {
        let bytes = sample_record().encode();
        for cut in (0..bytes.len()).step_by(7) {
            assert!(EpochRecord::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn misaligned_shard_windows_are_rejected() {
        // A shard whose pane ring is sealed at a different boundary than
        // the record's window state cannot come from a consistent cut.
        let mut record = sample_record();
        record.shards[1].window.as_mut().unwrap().seal();
        assert!(matches!(
            EpochRecord::decode(&record.encode()),
            Err(CodecError::Invalid(msg)) if msg.contains("aligned")
        ));
        // Window presence must agree between the record and every shard.
        let mut record = sample_record();
        record.shards[2].window = None;
        assert!(EpochRecord::decode(&record.encode()).is_err());
    }

    #[test]
    fn corruption_never_panics() {
        let bytes = sample_record().encode();
        for i in (0..bytes.len()).step_by(3) {
            let mut copy = bytes.clone();
            copy[i] ^= 0xA5;
            let _ = EpochRecord::decode(&copy); // Err or a different record — never a panic
        }
    }
}
