//! The hashed point-lookup index each [`crate::ShardSnapshot`] carries over
//! its item-sorted Misra–Gries entries.
//!
//! A snapshot keeps its entries sorted by item — candidates, cross-shard
//! merges and recovery read them in that order — and a binary search over
//! them is `log₂ S` dependent, cache-missing probes. The index answers the
//! same question in `O(1)` expected: an open-addressing (linear probing)
//! table of `u32` slots, each `0` (empty) or `1 +` a position in the
//! entries, at most half full, keyed by a seeded [`KeyMixBuildHasher`] so
//! item ids crafted from outside cannot pile into one probe run without
//! knowing the seed. Building it is one `O(S)` pass, paid once per
//! publication next to the `O(S log S)` sort.

use std::fmt;
use std::hash::BuildHasher;

use psfa_primitives::KeyMixBuildHasher;

/// Positions of item-sorted `(item, value)` entries, hashed by item (see
/// the module docs). An index answers only for the entry slice it was
/// built over.
#[derive(Clone)]
pub(crate) struct PointIndex {
    hasher: KeyMixBuildHasher,
    /// `0` for an empty slot, else `1 +` the entry's position. A power of
    /// two at least twice the entry count long: at least half the slots
    /// are empty, so every probe run ends.
    slots: Box<[u32]>,
}

impl PointIndex {
    /// Indexes `entries` (distinct items) under `hasher`.
    pub(crate) fn build(entries: &[(u64, u64)], hasher: KeyMixBuildHasher) -> Self {
        assert!(
            entries.len() < u32::MAX as usize,
            "a snapshot holds O(1/ε) entries; {} do not fit u32 positions",
            entries.len()
        );
        let mut slots = vec![0u32; (2 * entries.len()).next_power_of_two()].into_boxed_slice();
        let mask = slots.len() - 1;
        for (position, &(item, _)) in entries.iter().enumerate() {
            let mut at = hasher.hash_one(item) as usize & mask;
            while slots[at] != 0 {
                at = (at + 1) & mask;
            }
            slots[at] = position as u32 + 1;
        }
        Self { hasher, slots }
    }

    /// The value `entries` holds for `item`, `0` when it holds none.
    /// `entries` must be the slice this index was built over.
    #[inline]
    pub(crate) fn value(&self, entries: &[(u64, u64)], item: u64) -> u64 {
        let mask = self.slots.len() - 1;
        let mut at = self.hasher.hash_one(item) as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot == 0 {
                return 0;
            }
            let (key, value) = entries[slot as usize - 1];
            if key == item {
                return value;
            }
            at = (at + 1) & mask;
        }
    }
}

/// The slot count only: the hasher's seed stays out of logs.
impl fmt::Debug for PointIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PointIndex")
            .field("slots", &self.slots.len())
            .finish_non_exhaustive()
    }
}
