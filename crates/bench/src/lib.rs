//! Shared helpers for the criterion benches and the `reproduce` experiment
//! binary: canonical workloads, timing utilities, and table printing.
//!
//! This crate regenerates the *paper* (PAPER.md): each of E1–E8 and F2
//! checks one theorem (named on the experiment's function in
//! `src/bin/reproduce.rs`), either as a Criterion bench in `benches/`
//! (wall-clock comparisons) or as an accuracy/space/work table from
//! `cargo run --release -p psfa-bench --bin reproduce`, or both. The
//! *engine* is measured by the `benchmark/` package (BENCHMARK.json), not
//! here.

use std::time::Instant;

use psfa::prelude::*;

pub mod bench_json;

/// Number of threads rayon is using — recorded in experiment output because
/// the depth/speedup claims are only observable with more than one core.
pub fn threads() -> usize {
    rayon::current_num_threads()
}

/// Times a closure and returns (result, seconds).
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Renders one row of an aligned table.
pub fn row(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| format!("{c:>14}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Renders a header row followed by a separator.
pub fn header(cells: &[&str]) -> String {
    let head = row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    let sep = "-".repeat(head.len());
    format!("{head}\n{sep}")
}

/// The canonical skewed workload used across experiments: Zipf(α) over a
/// fixed universe, pre-generated as whole minibatches.
pub fn zipf_minibatches(
    universe: u64,
    alpha: f64,
    batches: usize,
    batch_size: usize,
    seed: u64,
) -> Vec<Vec<u64>> {
    let mut generator = ZipfGenerator::new(universe, alpha, seed);
    (0..batches)
        .map(|_| generator.next_minibatch(batch_size))
        .collect()
}

/// Pre-generated binary minibatches of a given 1-density (experiments E1–E2).
pub fn binary_minibatches(
    density: f64,
    batches: usize,
    batch_size: usize,
    seed: u64,
) -> Vec<Vec<bool>> {
    let mut generator = BinaryStreamGenerator::new(density, seed);
    (0..batches)
        .map(|_| generator.next_bits(batch_size))
        .collect()
}

/// Exact frequencies of the last `n` items of a concatenated stream.
pub fn exact_window_counts(history: &[u64], n: u64) -> std::collections::HashMap<u64, u64> {
    let start = history.len().saturating_sub(n as usize);
    let mut counts = std::collections::HashMap::new();
    for &x in &history[start..] {
        *counts.entry(x).or_insert(0u64) += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_helpers_produce_requested_shapes() {
        let batches = zipf_minibatches(1000, 1.1, 3, 500, 1);
        assert_eq!(batches.len(), 3);
        assert!(batches.iter().all(|b| b.len() == 500));
        let bits = binary_minibatches(0.5, 2, 100, 2);
        assert_eq!(bits.len(), 2);
        assert_eq!(bits[0].len(), 100);
    }

    #[test]
    fn table_helpers_align() {
        let h = header(&["a", "b"]);
        assert!(h.contains('a') && h.contains('-'));
        let r = row(&["1".into(), "2".into()]);
        assert!(r.len() >= 29);
    }
}
