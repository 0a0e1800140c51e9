//! The correctness gate: after the final `drain()` every workload compares
//! the engine's answers with exact reference counts of what it offered.
//! A violation counts as a failed operation and makes the command exit
//! non-zero.

use psfa::prelude::{EngineHandle, HeavyHitter};

use crate::input::{Counts, Pool};

/// Point-query bounds are checked on the most frequent keys plus a fixed
/// stride of the rest — enough to catch a broken bound without making the
/// check the longest phase of the run.
const TOP_KEYS: usize = 64;
const SAMPLED_KEYS: usize = 4096;

/// Accuracy parameters every workload's engine runs with.
pub const PHI: f64 = 0.01;
pub const EPSILON: f64 = 0.001;
pub const CM_EPSILON: f64 = 0.0005;
pub const CM_DELTA: f64 = 0.01;

/// Violations reported in words; the count in `failed` stays exact.
const REPORTED_VIOLATIONS: usize = 20;

#[derive(Debug, Default)]
pub struct Gate {
    pub checks: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Gate {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failed += 1;
            if self.violations.len() < REPORTED_VIOLATIONS {
                self.violations.push(what());
            }
        }
    }
}

/// Keys to probe: the heaviest `TOP_KEYS` and a stride through the others.
fn probe_keys(exact: &Counts) -> Vec<(u64, u64)> {
    let mut keys: Vec<(u64, u64)> = exact.iter().map(|(&k, &c)| (k, c)).collect();
    let heaviest_first = |a: &(u64, u64), b: &(u64, u64)| b.1.cmp(&a.1).then(a.0.cmp(&b.0));
    if keys.len() > TOP_KEYS {
        keys.select_nth_unstable_by(TOP_KEYS, heaviest_first);
    }
    let rest = keys.split_off(keys.len().min(TOP_KEYS));
    let stride = (rest.len() / SAMPLED_KEYS).max(1);
    keys.extend(rest.into_iter().step_by(stride));
    keys
}

/// Heavy-hitter coverage: everything with `f ≥ φ·m` is reported, nothing
/// with `f < (φ − ε)·m` is, and no reported estimate exceeds the truth.
fn check_coverage(gate: &mut Gate, what: &str, reported: &[HeavyHitter], exact: &Counts, m: u64) {
    let must = PHI * m as f64;
    let may = (PHI - EPSILON) * m as f64;
    for (&key, &f) in exact {
        if f as f64 >= must {
            gate.require(reported.iter().any(|h| h.item == key), || {
                format!("{what}: key {key} with f={f} >= phi*m={must:.0} is not reported")
            });
        }
    }
    for h in reported {
        let f = exact.get(&h.item).copied().unwrap_or(0);
        gate.require(f as f64 >= may && h.estimate <= f, || {
            format!(
                "{what}: reported key {} has f={f}, estimate={}, (phi-eps)*m={may:.0}",
                h.item, h.estimate
            )
        });
    }
}

/// Checks a drained engine against the first `offered` batches of `pool`.
/// `live` engines must also have *processed* exactly what was offered; a
/// recovered engine's counters restart, so only its answers are checked.
pub fn check_engine(gate: &mut Gate, handle: &EngineHandle, pool: &Pool, offered: u64, live: bool) {
    let m = offered * pool.batch_len as u64;
    let total = handle.total_items();
    gate.require(total == m, || {
        format!("conservation: total_items()={total}, offered {m}")
    });
    if live {
        let processed = handle.metrics().items_processed();
        gate.require(processed == m, || {
            format!("conservation: items_processed={processed}, offered {m}")
        });
    }

    let exact = pool.counts(0, offered);
    let keys = probe_keys(&exact);
    let mg_slack = (EPSILON * m as f64).ceil() as u64;
    let cm_slack = (CM_EPSILON * m as f64).ceil() as u64;
    let mut cm_over = 0u64;
    for &(key, f) in &keys {
        let est = handle.estimate(key);
        gate.require(est <= f && est + mg_slack >= f, || {
            format!("estimate({key})={est} outside [f - eps*m, f] with f={f}, eps*m={mg_slack}")
        });
        let cm = handle.cm_estimate(key);
        gate.require(cm >= f, || format!("cm_estimate({key})={cm} below f={f}"));
        if cm > f + cm_slack {
            cm_over += 1;
        }
    }
    // The Count-Min upper bound holds per key with probability 1 − δ.
    let allowed = (3.0 * CM_DELTA * keys.len() as f64).ceil() as u64;
    gate.require(cm_over <= allowed, || {
        format!(
            "cm_estimate above f + cm_eps*m on {cm_over} of {} keys (allowed {allowed})",
            keys.len()
        )
    });
    check_coverage(gate, "heavy_hitters", &handle.heavy_hitters(), &exact, m);

    if let (Some(n_w), Some(slide)) = (handle.window(), handle.window_slide()) {
        check_window(gate, handle, pool, m, n_w, slide, live);
    }
}

/// The `ε·n_W` band over the aligned global window: after a drain every
/// shard of a live engine has sealed boundary `⌊m / slide⌋` (the `ingest`
/// call that crossed it cut it before returning), and the window is the
/// last `panes` panes before it — whole batches, because slide is a
/// multiple of the batch length. A persisted cut can fall between the
/// crossing batch and its boundary marker, so a recovered engine whose
/// prefix ends exactly on a boundary may still be one boundary behind.
fn check_window(
    gate: &mut Gate,
    handle: &EngineHandle,
    pool: &Pool,
    m: u64,
    n_w: u64,
    slide: u64,
    live: bool,
) {
    let newest = m / slide;
    if newest == 0 {
        return;
    }
    let Some(window) = handle.global_window() else {
        gate.require(false, || {
            format!("global_window() is None after drain at boundary {newest}")
        });
        return;
    };
    let seq = window.seq();
    let may_lag = !live && m.is_multiple_of(slide);
    let end = seq * slide;
    let start = end.saturating_sub(n_w);
    gate.require(
        (seq == newest || (may_lag && seq + 1 == newest)) && window.items() == end - start,
        || {
            format!(
                "window is (seq {seq}, {} items) with {m} items ingested, slide {slide}",
                window.items()
            )
        },
    );
    let batch_len = pool.batch_len as u64;
    debug_assert!(
        slide.is_multiple_of(batch_len),
        "boundaries must fall between batches"
    );
    let exact = pool.counts(start / batch_len, end / batch_len);
    let items = end - start;
    let slack = (EPSILON * items as f64).ceil() as u64;
    for (key, f) in probe_keys(&exact) {
        let est = handle.sliding_estimate(key);
        gate.require(est <= f && est + slack >= f, || {
            format!(
                "sliding_estimate({key})={est} outside [f - eps*n_W, f] with f={f}, eps*n_W={slack}"
            )
        });
    }
    check_coverage(
        gate,
        "sliding_heavy_hitters",
        &handle.sliding_heavy_hitters(),
        &exact,
        items,
    );
}
