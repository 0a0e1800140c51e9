//! The time source of the instrumentation layer.
//!
//! [`MonotonicClock`] amortises the cost of `Instant::now` into a single
//! `u64` nanosecond read against a process-wide anchor — cheap enough that
//! the only *truly* hot paths (per-item ingest) still avoid it entirely by
//! recording durations only around per-*batch* operations or slow paths (a
//! full queue).

use std::sync::OnceLock;
use std::time::Instant;

/// Process-wide monotone anchor so every clock instance shares one origin
/// and `now_ns` fits comfortably in `u64` (584 years of nanoseconds).
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// A monotone nanosecond clock: `Instant` elapsed-nanoseconds against a
/// process-wide origin.
#[derive(Debug, Clone, Copy, Default)]
pub struct MonotonicClock;

impl MonotonicClock {
    /// Creates the clock (and initialises the process anchor).
    pub fn new() -> Self {
        let _ = anchor();
        MonotonicClock
    }

    /// Nanoseconds since the process-wide origin; never decreases. Only
    /// differences are meaningful.
    pub fn now_ns(&self) -> u64 {
        anchor().elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_never_decreases() {
        let clock = MonotonicClock::new();
        let mut prev = clock.now_ns();
        for _ in 0..1000 {
            let now = clock.now_ns();
            assert!(now >= prev);
            prev = now;
        }
    }
}
