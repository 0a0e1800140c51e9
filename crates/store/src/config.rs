//! Persistence configuration, consumed by `EngineConfig::persistence` in
//! `psfa-engine` and by [`crate::SnapshotStore`] directly.

use std::path::{Path, PathBuf};

/// How (and how aggressively) an engine spills epoch snapshots to disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistenceConfig {
    /// Directory holding the segment log (created if missing).
    pub dir: PathBuf,
    /// The background flusher cuts a new epoch once this many minibatches
    /// have been accepted since the previous one.
    pub interval_batches: u64,
    /// Maximum historical epochs retained per shard (the `K` of
    /// compaction); older epochs are dropped and fully dead segment files
    /// deleted.
    pub retain_epochs: usize,
    /// Epoch records per segment file before rotating to a new segment.
    /// Smaller segments let compaction reclaim space sooner; larger ones
    /// mean fewer files.
    pub segment_max_records: usize,
}

impl PersistenceConfig {
    /// Persistence into `dir` with default knobs: snapshot every 64
    /// accepted minibatches, retain 8 epochs, rotate segments every 4
    /// records.
    pub fn new(dir: impl AsRef<Path>) -> Self {
        Self {
            dir: dir.as_ref().to_path_buf(),
            interval_batches: 64,
            retain_epochs: 8,
            segment_max_records: 4,
        }
    }

    /// Sets the flush interval in accepted minibatches.
    pub fn interval_batches(mut self, batches: u64) -> Self {
        self.interval_batches = batches;
        self
    }

    /// Sets the number of historical epochs compaction retains (`K`).
    pub fn retain_epochs(mut self, epochs: usize) -> Self {
        self.retain_epochs = epochs;
        self
    }

    /// Sets the number of epoch records per segment file.
    pub fn segment_max_records(mut self, records: usize) -> Self {
        self.segment_max_records = records;
        self
    }

    /// Checks parameter ranges.
    ///
    /// # Panics
    /// Panics on invalid parameters; called by the engine at spawn.
    pub fn validate(&self) {
        assert!(
            self.interval_batches >= 1,
            "persistence interval must be at least one minibatch"
        );
        assert!(
            self.retain_epochs >= 1,
            "compaction must retain at least one epoch"
        );
        assert!(
            self.segment_max_records >= 1,
            "segments must hold at least one record"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes() {
        let config = PersistenceConfig::new("/tmp/x")
            .interval_batches(16)
            .retain_epochs(3)
            .segment_max_records(2);
        config.validate();
        assert_eq!(config.dir, PathBuf::from("/tmp/x"));
        assert_eq!(config.interval_batches, 16);
        assert_eq!(config.retain_epochs, 3);
        assert_eq!(config.segment_max_records, 2);
    }

    #[test]
    #[should_panic(expected = "retain")]
    fn zero_retention_rejected() {
        PersistenceConfig::new("/tmp/x").retain_epochs(0).validate();
    }
}
