//! # psfa-store
//!
//! Epoch-snapshot persistence for the PSFA reproduction: the paper's
//! mergeable summaries are trivially *serializable* summaries, and this
//! crate turns that into a durability story — periodic consistent cuts of a
//! sharded engine's state spilled to an append-only, checksummed segment
//! log, with crash recovery onto the latest consistent epoch and
//! **time-travel queries** (`heavy_hitters_at(E)`, `estimate_at(key, E)`)
//! over retained history.
//!
//! ```text
//!  psfa-engine flusher thread            dir/
//!      │ IngestFence::cut_with ──────►   seg-0000000000.psfalog
//!      │   (consistent cut:              seg-0000000001.psfalog   ◄─ frames:
//!      │    every shard at the           …                           [len][crc32][EpochRecord]
//!      ▼    same stream point)
//!  EpochRecord { per-shard MG summary, Count-Min, window panes, hot keys,
//!                window cut (boundary + logical clock) }
//!      │
//!      ▼  SnapshotStore::append (fsync) · compact (retain K epochs)
//!  recovery: Engine::recover(dir, config)  — replay latest epoch
//!  history:  SnapshotStore::view_at(E)     — same ε·m bounds as live
//! ```
//!
//! ## Guarantees
//!
//! * **Typed failure, never panic**: scanning, loading, and decoding
//!   corrupted or truncated files returns [`StoreError`]; only the torn
//!   tail of the newest segment is silently dropped (that is the defined
//!   crash behaviour, see [`store`]).
//! * **Accuracy survives the disk**: serialisation is exact
//!   (`decode(encode(s)) == s` for every persisted summary), a persisted
//!   epoch is a consistent cut, and the mergeable-summaries argument then
//!   gives a recovered or historical query the same one-sided `ε·m` bound
//!   as the live engine — see [`view`] for the accounting.
//! * **Bounded space**: compaction keeps at most `K` epochs and deletes
//!   fully dead segment files.
//!
//! This crate uses **std-only I/O** (no external dependencies beyond the
//! workspace's own summary crates).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod config;
mod crc;
mod error;
mod record;
pub mod store;
pub mod view;

/// Test and experiment support (not part of the stable API).
#[doc(hidden)]
pub mod testutil {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Creates a unique, empty temp directory (pid + nanos + sequence in
    /// the name) for store-backed tests, benches, and experiments.
    pub fn unique_temp_dir(label: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock before unix epoch")
            .subsec_nanos();
        let dir = std::env::temp_dir().join(format!(
            "psfa-{label}-{}-{nanos}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }
}

pub use config::PersistenceConfig;
pub use crc::crc32;
pub use error::StoreError;
pub use record::{EpochRecord, ShardState, WindowState};
pub use store::SnapshotStore;
pub use view::EpochView;
