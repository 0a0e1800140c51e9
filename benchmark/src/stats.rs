//! Sample summaries: median, quartiles, and tail percentiles that honour
//! the "at least ten samples beyond" rule.

/// Summary of one metric's samples within a run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// A metric that is a single reading (a total, a counter).
    pub fn single(value: f64) -> Self {
        Self {
            n: 1,
            q1: value,
            median: value,
            q3: value,
        }
    }
}

/// Linear-interpolated quantile of an ascending slice (`q` in `0..=1`).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    Summary {
        n: s.len(),
        q1: quantile_sorted(&s, 0.25),
        median: quantile_sorted(&s, 0.5),
        q3: quantile_sorted(&s, 0.75),
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The `q` tail percentile, lowered to the highest percentile that still
/// has ten samples beyond it (so `tail(.., 0.99)` over 200 samples is the
/// p95). Fewer than twenty samples fall back to the median.
pub fn tail(values: &[f64], q: f64) -> f64 {
    let s = sorted(values);
    if s.len() < 20 {
        return quantile_sorted(&s, 0.5);
    }
    let supported = 1.0 - 10.0 / s.len() as f64;
    quantile_sorted(&s, q.min(supported))
}

/// The median of each block of `(block, nanoseconds)` samples, in block
/// order and in the given divisor's unit.
pub fn block_medians(samples: &[(u32, u64)], divisor: f64) -> Vec<f64> {
    let mut by_block: std::collections::BTreeMap<u32, Vec<f64>> = Default::default();
    for &(block, ns) in samples {
        by_block.entry(block).or_default().push(ns as f64 / divisor);
    }
    by_block.values().map(|v| median(v)).collect()
}

/// The durations of `(block, nanoseconds)` samples, without their blocks.
pub fn durations(samples: &[(u32, u64)]) -> Vec<u64> {
    samples.iter().map(|&(_, ns)| ns).collect()
}

/// Converts nanosecond durations to `f64` in the given divisor's unit
/// (`1e3` for µs, `1e6` for ms).
pub fn scaled(ns: &[u64], divisor: f64) -> Vec<f64> {
    ns.iter().map(|&v| v as f64 / divisor).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_a_ramp() {
        let values: Vec<f64> = (1..=9).map(f64::from).collect();
        let s = summarize(&values);
        assert_eq!((s.n, s.q1, s.median, s.q3), (9, 3.0, 5.0, 7.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let values: Vec<f64> = (0..200).map(f64::from).collect();
        // p99 of 200 samples has only two beyond it; p95 has ten.
        assert!((tail(&values, 0.99) - quantile_sorted(&values, 0.95)).abs() < 1e-9);
        let many: Vec<f64> = (0..5000).map(f64::from).collect();
        assert!((tail(&many, 0.99) - quantile_sorted(&many, 0.99)).abs() < 1e-9);
    }
}
