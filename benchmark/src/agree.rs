//! `--agree <dirA> <dirB>`: the repeatability self-check. Compares two
//! saved result sets metric by metric against the bounds fixed in
//! `BENCHMARK.json` and prints, per workload row, `agree`, `unresolved
//! (spread > bound)` or `differs`.

use std::path::Path;

use crate::json::{self, Value};
use crate::spec::WORKLOADS;
use crate::stats;

/// One end-to-end metric of `BENCHMARK.json`.
pub struct Bounded {
    pub name: String,
    pub bound: f64,
}

pub fn load_contract(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text)
}

pub fn bounded_metrics(contract: &Value) -> Vec<Bounded> {
    contract
        .get("end_to_end")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some(Bounded {
                name: m.get("name")?.as_str()?.to_string(),
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect()
}

/// A metric of one result set: the median over the set's runs, and its
/// spread as a share of that median — between runs when the set holds at
/// least four, otherwise the quartiles of the samples inside the one run.
struct Reading {
    median: f64,
    spread: f64,
    runs: usize,
}

fn read_set(dir: &Path, workload: &str, metric: &str) -> Option<Reading> {
    let prefix = format!("result-{workload}-t0");
    let mut values = Vec::new();
    let mut within = Vec::new();
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| Some(e.ok()?.file_name().to_string_lossy().into_owned()))
        .filter(|name| name.starts_with(&prefix) && name.ends_with(".json"))
        .collect();
    names.sort();
    for name in names {
        let text = std::fs::read_to_string(dir.join(name)).ok()?;
        let result = json::parse(&text).ok()?;
        let entry = result.get("metrics")?.get(metric)?;
        let value = entry.get("value")?.as_f64()?;
        values.push(value);
        let (q1, q3) = (entry.get("q1")?.as_f64()?, entry.get("q3")?.as_f64()?);
        within.push((q3 - q1) / value.abs().max(f64::MIN_POSITIVE));
    }
    if values.is_empty() {
        return None;
    }
    let summary = stats::summarize(&values);
    let spread = if values.len() >= 4 {
        (summary.q3 - summary.q1) / summary.median.abs().max(f64::MIN_POSITIVE)
    } else {
        stats::mean(&within)
    };
    Some(Reading {
        median: summary.median,
        spread,
        runs: values.len(),
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Verdict {
    Agree,
    Unresolved,
    Differs,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Agree => "agree",
            Verdict::Unresolved => "unresolved (spread > bound)",
            Verdict::Differs => "differs",
        }
    }
}

/// Prints the comparison; `Ok(true)` when no row differs.
pub fn agree(contract_path: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let contract = load_contract(contract_path)?;
    let metrics = bounded_metrics(&contract);
    let mut all_agree = true;
    println!(
        "{:<20} {:<18} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "delta", "spread", "bound"
    );
    for workload in WORKLOADS {
        let mut worst = Verdict::Agree;
        let mut rows = 0;
        for metric in &metrics {
            let (Some(ra), Some(rb)) = (
                read_set(a, workload, &metric.name),
                read_set(b, workload, &metric.name),
            ) else {
                continue;
            };
            rows += 1;
            let delta = (rb.median - ra.median).abs() / ra.median.abs().max(f64::MIN_POSITIVE);
            let spread = ra.spread.max(rb.spread);
            let verdict = if delta <= metric.bound {
                Verdict::Agree
            } else if spread > metric.bound {
                Verdict::Unresolved
            } else {
                Verdict::Differs
            };
            worst = worst.max(verdict);
            println!(
                "{:<20} {:<18} {:>14.4} {:>14.4} {:>7.2}% {:>7.2}% {:>6.1}%  {} (runs {}/{})",
                workload,
                metric.name,
                ra.median,
                rb.median,
                delta * 100.0,
                spread * 100.0,
                metric.bound * 100.0,
                verdict.label(),
                ra.runs,
                rb.runs
            );
        }
        if rows == 0 {
            println!("{workload:<20} (no results in both sets)");
            continue;
        }
        println!("{workload:<20} => {}", worst.label());
        all_agree &= worst != Verdict::Differs;
    }
    Ok(all_agree)
}
