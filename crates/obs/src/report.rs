//! Rendering the observability layer's measurements.
//!
//! An [`ObsReport`] is a plain data object: named percentile sections (one
//! per latency/size histogram), named counters, and recent trace events.
//! The engine assembles one from its recorders; this module renders it as
//! a human-readable table ([`ObsReport::to_table`]) or in the Prometheus
//! text exposition format ([`ObsReport::prometheus_text`]) — plain text,
//! zero dependencies, suitable for a `/metrics` endpoint or a log line.

use crate::histogram::Percentiles;
use crate::trace::TraceEvent;
use std::fmt::Write as _;

/// One histogram rendered as percentiles, e.g. producer enqueue wait.
#[derive(Debug, Clone)]
pub struct ObsSection {
    /// Metric name in `snake_case` (becomes the Prometheus metric name,
    /// prefixed with `psfa_`).
    pub name: String,
    /// Unit suffix rendered in tables and appended to the Prometheus name
    /// (`"ns"`, `"items"`, …).
    pub unit: &'static str,
    /// One-line description (the Prometheus `# HELP` text).
    pub help: &'static str,
    /// The percentile set extracted from the histogram snapshot.
    pub percentiles: Percentiles,
}

/// One monotone counter, e.g. pool misses or republishes by reason.
#[derive(Debug, Clone)]
pub struct ObsCounter {
    /// Counter name in `snake_case` (Prometheus name gains `psfa_` and
    /// `_total`).
    pub name: String,
    /// One-line description (the Prometheus `# HELP` text).
    pub help: &'static str,
    /// Current value.
    pub value: u64,
}

/// A complete observability report; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct ObsReport {
    /// Percentile sections, in presentation order.
    pub sections: Vec<ObsSection>,
    /// Counters, in presentation order.
    pub counters: Vec<ObsCounter>,
    /// Most recent trace events (newest last), if the caller drained any.
    pub recent_events: Vec<TraceEvent>,
}

impl ObsReport {
    /// True when nothing was recorded (all sections empty, all counters 0).
    pub fn is_empty(&self) -> bool {
        self.sections.iter().all(|s| s.percentiles.count == 0)
            && self.counters.iter().all(|c| c.value == 0)
            && self.recent_events.is_empty()
    }

    /// Looks up a section's percentiles by name (tests, bench export).
    pub fn percentiles(&self, name: &str) -> Option<Percentiles> {
        self.sections
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.percentiles)
    }

    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Renders an aligned text table of percentile rows and counters.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let name_w = self
            .sections
            .iter()
            .map(|s| s.name.len())
            .chain(self.counters.iter().map(|c| c.name.len()))
            .max()
            .unwrap_or(8)
            .max(8);
        let _ = writeln!(
            out,
            "{:name_w$}  {:>10}  {:>12}  {:>12}  {:>12}  {:>12}  {:>12}  unit",
            "metric", "count", "p50", "p90", "p99", "p999", "max"
        );
        for s in &self.sections {
            let p = s.percentiles;
            let _ = writeln!(
                out,
                "{:name_w$}  {:>10}  {:>12}  {:>12}  {:>12}  {:>12}  {:>12}  {}",
                s.name, p.count, p.p50, p.p90, p.p99, p.p999, p.max, s.unit
            );
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:name_w$}  {:>10}", "counter", "value");
            for c in &self.counters {
                let _ = writeln!(out, "{:name_w$}  {:>10}", c.name, c.value);
            }
        }
        out
    }

    /// Renders the Prometheus text exposition format (version 0.0.4):
    /// histograms as `summary` metrics with `quantile` labels, counters as
    /// `counter` metrics with the conventional `_total` suffix.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for s in &self.sections {
            let metric = if s.unit.is_empty() {
                format!("psfa_{}", s.name)
            } else {
                format!("psfa_{}_{}", s.name, s.unit)
            };
            let p = s.percentiles;
            let _ = writeln!(out, "# HELP {metric} {}", s.help);
            let _ = writeln!(out, "# TYPE {metric} summary");
            for (q, v) in [
                ("0.5", p.p50),
                ("0.9", p.p90),
                ("0.99", p.p99),
                ("0.999", p.p999),
            ] {
                let _ = writeln!(out, "{metric}{{quantile=\"{q}\"}} {v}");
            }
            let _ = writeln!(out, "{metric}_count {}", p.count);
        }
        for c in &self.counters {
            let metric = format!("psfa_{}_total", c.name);
            let _ = writeln!(out, "# HELP {metric} {}", c.help);
            let _ = writeln!(out, "# TYPE {metric} counter");
            let _ = writeln!(out, "{metric} {}", c.value);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::AtomicLogHistogram;

    fn sample_report() -> ObsReport {
        let h = AtomicLogHistogram::new();
        h.record_n(100, 99);
        h.record(5_000);
        ObsReport {
            sections: vec![ObsSection {
                name: "enqueue_wait".into(),
                unit: "ns",
                help: "producer wait for shard queue space",
                percentiles: h.snapshot().percentiles(),
            }],
            counters: vec![ObsCounter {
                name: "pool_miss".into(),
                help: "scratch slots left for a fresh allocation",
                value: 3,
            }],
            recent_events: Vec::new(),
        }
    }

    #[test]
    fn table_contains_all_rows() {
        let table = sample_report().to_table();
        assert!(table.contains("enqueue_wait"));
        assert!(table.contains("pool_miss"));
        assert!(table.contains("p999"));
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let text = sample_report().prometheus_text();
        assert!(text.contains("# TYPE psfa_enqueue_wait_ns summary"));
        assert!(text.contains("psfa_enqueue_wait_ns{quantile=\"0.99\"}"));
        assert!(text.contains("psfa_enqueue_wait_ns_count 100"));
        assert!(text.contains("# TYPE psfa_pool_miss_total counter"));
        assert!(text.contains("psfa_pool_miss_total 3"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<u64>().is_ok(), "bad sample line: {line}");
            assert!(parts.next().is_some());
        }
    }

    #[test]
    fn lookup_helpers_find_entries() {
        let report = sample_report();
        assert_eq!(report.percentiles("enqueue_wait").unwrap().count, 100);
        assert_eq!(report.counter("pool_miss"), Some(3));
        assert!(report.percentiles("nope").is_none());
        assert!(!report.is_empty());
        assert!(ObsReport::default().is_empty());
    }
}
