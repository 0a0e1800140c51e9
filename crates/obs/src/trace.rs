//! A bounded lock-free event-trace ring.
//!
//! [`TraceRing`] records fixed-size, sequence-stamped control-plane events
//! (boundary cuts, epoch publishes, flushes, hot-key promotions, worker
//! lifecycle) from any thread without locking, overwriting the oldest
//! records when full. Readers drain recent events without ever blocking a
//! writer.
//!
//! ## How writers and readers avoid tearing
//!
//! Each slot is a per-slot **seqlock**. A writer claims its slot for ticket
//! `t` by CASing the slot version from its observed completed (even) value
//! to the odd `2t + 1` (an `AcqRel` RMW, so the payload stores that follow
//! cannot move above the claim), fills the payload, then publishes with a
//! `Release` store of the even `2t + 2`. A reader loads the version with
//! `Acquire`, copies the payload, issues an `Acquire` fence, and re-reads
//! the version: the record is accepted only if both reads agree on the same
//! even value *and* the payload's own sequence stamp matches the version's
//! lap — otherwise the slot was mid-overwrite and the record is simply
//! dropped (the ring is telemetry; a lost record under overwrite races is
//! by design, a *mixed* record is not). Payload words are themselves
//! relaxed atomics, so even a theoretical doomed read is a benign stale
//! value, never undefined behaviour.
//!
//! If a writer finds its claim CAS fails (a slower writer from a previous
//! lap still mid-write, or a faster writer already a lap ahead), it drops
//! its own event rather than spin — writers are therefore wait-free and
//! the ring can never stall a boundary cut or an epoch publish.

use std::sync::atomic::{AtomicU64, Ordering};

/// What kind of control-plane event a trace record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceKind {
    /// A window boundary was cut at global stream position `a` (boundary
    /// sequence number in `b`).
    Boundary,
    /// A shard (`shard`) published a snapshot epoch `a` (trigger reason
    /// index in `b`, see `ObsReport`'s republish counters).
    EpochPublish,
    /// A persistence snapshot of epoch `a` was appended (`b` = bytes).
    EpochPersist,
    /// The router's hot set changed (`a` = promotion epoch, `b` = hot-set
    /// size after the change).
    HotPromote,
    /// Shard worker `shard` started.
    WorkerStart,
    /// Shard worker `shard` exited (`a` = items processed).
    WorkerExit,
    /// Shard worker `shard` panicked and the shard is quarantined
    /// (`a` = restart attempts so far, `b` = last published epoch).
    ShardQuarantined,
    /// Quarantined shard `shard` was restarted from its last published
    /// snapshot (`a` = restart attempts so far, `b` = reseed epoch).
    WorkerRestart,
    /// A persistence flush attempt failed on an I/O error (`a` = total
    /// flush failures so far; successes appear as
    /// [`TraceKind::EpochPersist`]).
    FlushFailed,
}

impl TraceKind {
    fn code(self) -> u64 {
        match self {
            TraceKind::Boundary => 0,
            TraceKind::EpochPublish => 1,
            TraceKind::EpochPersist => 2,
            TraceKind::HotPromote => 4,
            TraceKind::WorkerStart => 5,
            TraceKind::WorkerExit => 6,
            TraceKind::ShardQuarantined => 7,
            TraceKind::WorkerRestart => 8,
            TraceKind::FlushFailed => 9,
        }
    }

    fn from_code(code: u64) -> Option<Self> {
        Some(match code {
            0 => TraceKind::Boundary,
            1 => TraceKind::EpochPublish,
            2 => TraceKind::EpochPersist,
            // 3 was a flush kind that nothing emitted; it stays unassigned
            // so every other kind keeps its code.
            3 => return None,
            4 => TraceKind::HotPromote,
            5 => TraceKind::WorkerStart,
            6 => TraceKind::WorkerExit,
            7 => TraceKind::ShardQuarantined,
            8 => TraceKind::WorkerRestart,
            9 => TraceKind::FlushFailed,
            _ => return None,
        })
    }

    /// Short lowercase name (report rendering).
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Boundary => "boundary",
            TraceKind::EpochPublish => "epoch_publish",
            TraceKind::EpochPersist => "epoch_persist",
            TraceKind::HotPromote => "hot_promote",
            TraceKind::WorkerStart => "worker_start",
            TraceKind::WorkerExit => "worker_exit",
            TraceKind::ShardQuarantined => "shard_quarantined",
            TraceKind::WorkerRestart => "worker_restart",
            TraceKind::FlushFailed => "flush_failed",
        }
    }
}

/// One drained trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global ring sequence number (monotone across all writers; gaps mean
    /// overwritten or dropped records).
    pub seq: u64,
    /// Clock timestamp (nanoseconds) captured by the writer.
    pub at_ns: u64,
    /// Event kind.
    pub kind: TraceKind,
    /// Shard index the event concerns (`u32::MAX` when not shard-scoped).
    pub shard: u32,
    /// Kind-specific payload (see [`TraceKind`] docs).
    pub a: u64,
    /// Second kind-specific payload word.
    pub b: u64,
}

/// Marker for events not scoped to a shard.
pub const NO_SHARD: u32 = u32::MAX;

#[derive(Debug)]
struct Slot {
    /// Seqlock version: `2t + 1` while ticket `t` writes, `2t + 2` once
    /// its record is complete, `0` before first use.
    version: AtomicU64,
    seq: AtomicU64,
    at_ns: AtomicU64,
    kind: AtomicU64,
    shard: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            version: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            at_ns: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            shard: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// Bounded lock-free overwrite-oldest trace ring; see the module docs.
#[derive(Debug)]
pub struct TraceRing {
    slots: Box<[Slot]>,
    /// Next ticket to hand out (ticket t → slot `t & mask`).
    head: AtomicU64,
    /// First sequence number not yet returned by `drain` (advanced with
    /// `fetch_max` so concurrent drains never replay records).
    cursor: AtomicU64,
    mask: u64,
    /// Events dropped because a claim CAS failed (writer overlap).
    dropped: AtomicU64,
}

impl TraceRing {
    /// Creates a ring holding `capacity` records (rounded up to a power of
    /// two, minimum 8).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        Self {
            slots: (0..cap).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
            cursor: AtomicU64::new(0),
            mask: cap as u64 - 1,
            dropped: AtomicU64::new(0),
        }
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events recorded (ticket counter; includes overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events dropped because two writers overlapped on one slot.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records an event. Wait-free: claims a ticket, CASes the slot, and
    /// on claim failure drops the event instead of spinning.
    pub fn push(&self, at_ns: u64, kind: TraceKind, shard: u32, a: u64, b: u64) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket & self.mask) as usize];
        // Claim the slot from whatever completed (even) version it last
        // held. An odd version means an older writer is still mid-record;
        // a version above `2·ticket` means a newer lap already claimed
        // past us. Either way we drop our event instead of waiting — one
        // load + one CAS attempt, never a loop.
        let current = slot.version.load(Ordering::Relaxed);
        if current % 2 == 1
            || current > 2 * ticket
            || slot
                .version
                .compare_exchange(current, 2 * ticket + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        slot.seq.store(ticket, Ordering::Relaxed);
        slot.at_ns.store(at_ns, Ordering::Relaxed);
        slot.kind.store(kind.code(), Ordering::Relaxed);
        slot.shard.store(u64::from(shard), Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.version.store(2 * ticket + 2, Ordering::Release);
    }

    /// Reads the record for ticket `t`, validating the per-slot seqlock.
    fn read_ticket(&self, ticket: u64) -> Option<TraceEvent> {
        let slot = &self.slots[(ticket & self.mask) as usize];
        let v1 = slot.version.load(Ordering::Acquire);
        if v1 != 2 * ticket + 2 {
            return None; // not yet written, being written, or overwritten
        }
        let seq = slot.seq.load(Ordering::Relaxed);
        let at_ns = slot.at_ns.load(Ordering::Relaxed);
        let kind = slot.kind.load(Ordering::Relaxed);
        let shard = slot.shard.load(Ordering::Relaxed);
        let a = slot.a.load(Ordering::Relaxed);
        let b = slot.b.load(Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::Acquire);
        let v2 = slot.version.load(Ordering::Relaxed);
        if v2 != v1 || seq != ticket {
            return None; // overwritten mid-read: drop, never mix
        }
        Some(TraceEvent {
            seq,
            at_ns,
            kind: TraceKind::from_code(kind)?,
            shard: shard as u32,
            a,
            b,
        })
    }

    /// Drains every completed record not yet drained, oldest first.
    ///
    /// Concurrent drains partition the records between them (the drain
    /// cursor advances with `fetch_max`); records overwritten before being
    /// drained are lost, which is the overwrite-oldest contract.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let head = self.head.load(Ordering::Acquire);
        let capacity = self.mask + 1;
        let oldest = head.saturating_sub(capacity);
        let from = self.cursor.fetch_max(head, Ordering::AcqRel).max(oldest);
        let mut out = Vec::with_capacity((head - from) as usize);
        for ticket in from..head {
            if let Some(event) = self.read_ticket(ticket) {
                out.push(event);
            }
        }
        out
    }

    /// Copies the most recent `limit` completed records (oldest first)
    /// without advancing the drain cursor.
    pub fn peek(&self, limit: usize) -> Vec<TraceEvent> {
        let head = self.head.load(Ordering::Acquire);
        let capacity = self.mask + 1;
        let from = head.saturating_sub((limit as u64).min(capacity));
        (from..head).filter_map(|t| self.read_ticket(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_in_order() {
        let ring = TraceRing::new(16);
        for i in 0..10u64 {
            ring.push(i * 100, TraceKind::Boundary, 3, i, i + 1);
        }
        let events = ring.drain();
        assert_eq!(events.len(), 10);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.at_ns, i as u64 * 100);
            assert_eq!(e.kind, TraceKind::Boundary);
            assert_eq!(e.shard, 3);
            assert_eq!((e.a, e.b), (i as u64, i as u64 + 1));
        }
        // A second drain returns nothing new.
        assert!(ring.drain().is_empty());
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let ring = TraceRing::new(8);
        for i in 0..20u64 {
            ring.push(i, TraceKind::FlushFailed, NO_SHARD, i, 0);
        }
        let events = ring.drain();
        // Only the last `capacity` records survive.
        assert_eq!(events.len(), 8);
        assert_eq!(events.first().unwrap().seq, 12);
        assert_eq!(events.last().unwrap().seq, 19);
        assert_eq!(ring.recorded(), 20);
    }

    #[test]
    fn peek_does_not_consume() {
        let ring = TraceRing::new(8);
        for i in 0..4u64 {
            ring.push(i, TraceKind::WorkerStart, i as u32, 0, 0);
        }
        assert_eq!(ring.peek(2).len(), 2);
        assert_eq!(ring.drain().len(), 4);
    }

    #[test]
    fn concurrent_writers_never_tear() {
        use std::sync::Arc;
        let ring = Arc::new(TraceRing::new(64));
        let writers: Vec<_> = (0..4u32)
            .map(|w| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        // Payload words are all derived from the writer id
                        // so a mixed record is detectable.
                        let stamp = (u64::from(w) << 32) | i;
                        ring.push(stamp, TraceKind::EpochPublish, w, stamp, !stamp);
                    }
                })
            })
            .collect();
        let reader = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut seen = 0usize;
                for _ in 0..200 {
                    for e in ring.peek(64) {
                        assert_eq!(e.a, e.at_ns, "torn record: payload mixed across writers");
                        assert_eq!(e.b, !e.a, "torn record: payload mixed across writers");
                        assert_eq!(e.shard, (e.a >> 32) as u32);
                        seen += 1;
                    }
                    std::thread::yield_now();
                }
                seen
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(ring.recorded(), 20_000);
        // Every record that survives the final drain is coherent.
        for e in ring.drain() {
            assert_eq!(e.a, e.at_ns);
            assert_eq!(e.b, !e.a);
        }
    }
}
