//! Machine-readable benchmark records for the repository's BENCH
//! trajectory.
//!
//! `reproduce --bench-json <path>` collects one record per measurement and
//! writes them as a JSON array. Three record shapes are written:
//!
//! * throughput — `{"experiment", "config", "items_per_sec"}` (every
//!   committed `BENCH_<pr>.json` since PR 5);
//! * latency percentiles — `{"experiment", "config", "metric", "p50_ns",
//!   "p90_ns", "p99_ns", "p999_ns"}` (added with the observability layer:
//!   E14 records enqueue-wait and per-kind query latencies);
//! * availability — `{"experiment", "config", "faults_injected",
//!   "faults_recovered", "queries_total", "queries_degraded",
//!   "unavail_p50_ns", "unavail_p99_ns", "unavail_max_ns"}` (added with
//!   fault injection: E17 kills workers mid-stream and records the
//!   per-fault unavailability window — quarantine to restart — plus how
//!   many queries answered degraded while it was open).
//!
//! A fourth shape is only *read*: request latency — `{"experiment",
//! "config", "metric", "requests", "busy", "p50_ns", "p99_ns",
//! "p999_ns"}`, which the retired E15 wrote into `BENCH_7..9.json`. Its
//! writer is gone (`benchmark/`'s `serve_mixed` workload measures the
//! front end now) but [`validate_file`] still accepts it, so the committed
//! history stays valid byte for byte.
//!
//! The writer is hand-rolled (no serde in the offline build); experiment,
//! config and metric strings are plain ASCII table labels, escaped for the
//! JSON string characters that could occur. [`validate_file`] checks a
//! committed file against the schema so CI catches a malformed or
//! hand-mangled trajectory.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

/// One benchmark record.
#[derive(Debug, Clone)]
pub enum Record {
    /// One throughput measurement.
    Throughput {
        /// Experiment id, e.g. `"E14"`.
        experiment: String,
        /// Configuration label, e.g. `"engine x4 (new)"`.
        config: String,
        /// Measured ingest throughput.
        items_per_sec: f64,
    },
    /// One latency distribution, as the standard percentile set in
    /// nanoseconds (one-sided log-bucket upper bounds; see `psfa-obs`).
    Latency {
        /// Experiment id, e.g. `"E14"`.
        experiment: String,
        /// Configuration label, e.g. `"engine x4 + obs"`.
        config: String,
        /// Metric name, e.g. `"enqueue_wait"` or `"query_estimate"`.
        metric: String,
        /// Median, ns.
        p50_ns: u64,
        /// 90th percentile, ns.
        p90_ns: u64,
        /// 99th percentile, ns.
        p99_ns: u64,
        /// 99.9th percentile, ns.
        p999_ns: u64,
    },
    /// One fault-injection availability measurement: the distribution of
    /// per-fault unavailability windows (first degraded observation to
    /// recovery) under concurrent ingest + query load.
    Availability {
        /// Experiment id, e.g. `"E17"`.
        experiment: String,
        /// Configuration label, e.g. `"engine x4, 2 worker kills"`.
        config: String,
        /// Faults the plan injected.
        faults_injected: u64,
        /// Faults the supervisor recovered (restarted workers).
        faults_recovered: u64,
        /// Queries issued while the faults were firing.
        queries_total: u64,
        /// Queries answered with a `Degraded` annotation.
        queries_degraded: u64,
        /// Median per-fault unavailability window, ns.
        unavail_p50_ns: u64,
        /// 99th-percentile unavailability window, ns.
        unavail_p99_ns: u64,
        /// Worst unavailability window, ns.
        unavail_max_ns: u64,
    },
}

static RECORDS: Mutex<Vec<Record>> = Mutex::new(Vec::new());

fn push(record: Record) {
    RECORDS
        .lock()
        .expect("bench-json record lock poisoned")
        .push(record);
}

/// Appends one throughput record to the in-process collection.
pub fn record(experiment: &str, config: &str, items_per_sec: f64) {
    push(Record::Throughput {
        experiment: experiment.to_string(),
        config: config.to_string(),
        items_per_sec,
    });
}

/// Appends one latency-percentile record (nanoseconds) to the in-process
/// collection.
pub fn record_latency(
    experiment: &str,
    config: &str,
    metric: &str,
    (p50_ns, p90_ns, p99_ns, p999_ns): (u64, u64, u64, u64),
) {
    push(Record::Latency {
        experiment: experiment.to_string(),
        config: config.to_string(),
        metric: metric.to_string(),
        p50_ns,
        p90_ns,
        p99_ns,
        p999_ns,
    });
}

/// Appends one availability record from a fault-injection run. The first
/// pair counts faults (injected, recovered), the second counts queries
/// (total, degraded); the triple is the per-fault unavailability-window
/// distribution in nanoseconds (p50, p99, max).
pub fn record_availability(
    experiment: &str,
    config: &str,
    (faults_injected, faults_recovered): (u64, u64),
    (queries_total, queries_degraded): (u64, u64),
    (unavail_p50_ns, unavail_p99_ns, unavail_max_ns): (u64, u64, u64),
) {
    push(Record::Availability {
        experiment: experiment.to_string(),
        config: config.to_string(),
        faults_injected,
        faults_recovered,
        queries_total,
        queries_degraded,
        unavail_p50_ns,
        unavail_p99_ns,
        unavail_max_ns,
    });
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Writes every collected record to `path` as a JSON array (pretty-printed
/// one object per line) and returns how many were written.
pub fn write_to(path: impl AsRef<Path>) -> std::io::Result<usize> {
    let records = RECORDS
        .lock()
        .expect("bench-json record lock poisoned")
        .clone();
    let mut out = std::fs::File::create(path)?;
    writeln!(out, "[")?;
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        match r {
            Record::Throughput {
                experiment,
                config,
                items_per_sec,
            } => writeln!(
                out,
                "  {{\"experiment\": \"{}\", \"config\": \"{}\", \"items_per_sec\": {:.0}}}{comma}",
                escape(experiment),
                escape(config),
                items_per_sec
            )?,
            Record::Latency {
                experiment,
                config,
                metric,
                p50_ns,
                p90_ns,
                p99_ns,
                p999_ns,
            } => writeln!(
                out,
                "  {{\"experiment\": \"{}\", \"config\": \"{}\", \"metric\": \"{}\", \
                 \"p50_ns\": {p50_ns}, \"p90_ns\": {p90_ns}, \"p99_ns\": {p99_ns}, \
                 \"p999_ns\": {p999_ns}}}{comma}",
                escape(experiment),
                escape(config),
                escape(metric),
            )?,
            Record::Availability {
                experiment,
                config,
                faults_injected,
                faults_recovered,
                queries_total,
                queries_degraded,
                unavail_p50_ns,
                unavail_p99_ns,
                unavail_max_ns,
            } => writeln!(
                out,
                "  {{\"experiment\": \"{}\", \"config\": \"{}\", \
                 \"faults_injected\": {faults_injected}, \"faults_recovered\": {faults_recovered}, \
                 \"queries_total\": {queries_total}, \"queries_degraded\": {queries_degraded}, \
                 \"unavail_p50_ns\": {unavail_p50_ns}, \"unavail_p99_ns\": {unavail_p99_ns}, \
                 \"unavail_max_ns\": {unavail_max_ns}}}{comma}",
                escape(experiment),
                escape(config),
            )?,
        }
    }
    writeln!(out, "]")?;
    Ok(records.len())
}

/// Validates a committed `BENCH_<pr>.json` file against the record schema:
/// a JSON array, one object per line, each object exactly one of a
/// throughput record (`experiment`, `config`, `items_per_sec`), a latency
/// record (`experiment`, `config`, `metric`, and the four `p*_ns`
/// percentiles), a request-latency record (`experiment`, `config`,
/// `metric`, `requests`, `busy`, and the `p50/p99/p999_ns` percentiles),
/// or an availability record (`experiment`, `config`, the four fault/query
/// counters, and the three `unavail_*_ns` percentiles).
/// Returns the number of valid records, or a description of the first
/// malformed line. Matches exactly what [`write_to`] emits, plus the
/// request-latency shape only the committed history holds — the point is
/// to catch hand-edited or truncated committed files in CI, not to be a
/// general JSON parser.
pub fn validate_file(path: impl AsRef<Path>) -> Result<usize, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
    if lines.next() != Some("[") {
        return Err(format!("{}: must open with a JSON array", path.display()));
    }
    let mut records = 0usize;
    let mut closed = false;
    for line in lines {
        if closed {
            return Err(format!(
                "{}: content after the closing bracket",
                path.display()
            ));
        }
        if line == "]" {
            closed = true;
            continue;
        }
        let object = line.strip_suffix(',').unwrap_or(line);
        let bad = |why: &str| format!("{}: {why}: {line}", path.display());
        if !(object.starts_with('{') && object.ends_with('}')) {
            return Err(bad("expected one object per line"));
        }
        let has_str_key =
            |key: &str| object.contains(&format!("\"{key}\": \"")) && !object.contains('\n');
        let has_num_key = |key: &str| {
            object
                .split(&format!("\"{key}\": "))
                .nth(1)
                .is_some_and(|rest| rest.starts_with(|c: char| c.is_ascii_digit()))
        };
        if !has_str_key("experiment") || !has_str_key("config") {
            return Err(bad("missing experiment/config"));
        }
        let throughput = has_num_key("items_per_sec");
        let latency = has_str_key("metric")
            && ["p50_ns", "p90_ns", "p99_ns", "p999_ns"]
                .iter()
                .all(|k| has_num_key(k));
        let request_latency = has_str_key("metric")
            && ["requests", "busy", "p50_ns", "p99_ns", "p999_ns"]
                .iter()
                .all(|k| has_num_key(k));
        let availability = [
            "faults_injected",
            "faults_recovered",
            "queries_total",
            "queries_degraded",
            "unavail_p50_ns",
            "unavail_p99_ns",
            "unavail_max_ns",
        ]
        .iter()
        .all(|k| has_num_key(k));
        if [throughput, latency, request_latency, availability]
            .iter()
            .filter(|&&shape| shape)
            .count()
            != 1
        {
            return Err(bad(
                "must be exactly one of a throughput, latency, request-latency, \
                 or availability record",
            ));
        }
        records += 1;
    }
    if !closed {
        return Err(format!("{}: missing closing bracket", path.display()));
    }
    if records == 0 {
        return Err(format!("{}: no records", path.display()));
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_as_json_lines() {
        record("E14", "engine x4 \"new\"", 1234567.89);
        record_latency(
            "E14",
            "engine x4 + obs",
            "enqueue_wait",
            (64, 128, 512, 2048),
        );
        record_availability(
            "E17",
            "engine x4, 2 worker kills",
            (2, 2),
            (5000, 41),
            (1_500_000, 2_100_000, 2_100_000),
        );
        let dir = std::env::temp_dir().join(format!("psfa-bench-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        let n = write_to(&path).unwrap();
        assert!(n >= 3);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("[\n"));
        assert!(text.contains("\"experiment\": \"E14\""));
        assert!(text.contains("\\\"new\\\""));
        assert!(text.contains("\"items_per_sec\": 1234568"));
        assert!(text.contains("\"metric\": \"enqueue_wait\""));
        assert!(text.contains("\"p999_ns\": 2048"));
        assert!(text.contains("\"faults_injected\": 2, \"faults_recovered\": 2"));
        assert!(text.contains("\"unavail_max_ns\": 2100000"));
        // What the writer emits, the validator accepts.
        assert_eq!(validate_file(&path).unwrap(), n);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn committed_bench_trajectories_validate() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut seen = 0usize;
        for entry in std::fs::read_dir(&root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                let n = validate_file(&path).unwrap_or_else(|e| panic!("schema violation: {e}"));
                assert!(n > 0, "{name}: empty trajectory");
                seen += 1;
            }
        }
        assert!(seen >= 1, "no committed BENCH_*.json trajectories found");
    }

    #[test]
    fn validator_rejects_malformed_files() {
        let dir = std::env::temp_dir().join(format!("psfa-bench-json-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, content: &str| {
            let path = dir.join(name);
            std::fs::write(&path, content).unwrap();
            path
        };
        // Not an array.
        let p = write("a.json", "{\"experiment\": \"E9\"}\n");
        assert!(validate_file(p).is_err());
        // Truncated (no closing bracket).
        let p = write(
            "b.json",
            "[\n  {\"experiment\": \"E9\", \"config\": \"x\", \"items_per_sec\": 1}\n",
        );
        assert!(validate_file(p).is_err());
        // Missing keys.
        let p = write("c.json", "[\n  {\"experiment\": \"E9\"}\n]\n");
        assert!(validate_file(p).is_err());
        // None of the record shapes.
        let p = write(
            "d.json",
            "[\n  {\"experiment\": \"E14\", \"config\": \"x\", \"metric\": \"m\"}\n]\n",
        );
        assert!(validate_file(p).is_err());
        // Request-latency record: no writer emits the shape any more, but a
        // line as committed in `BENCH_7..9.json` still validates …
        let p = write(
            "r.json",
            "[\n  {\"experiment\": \"E15\", \"config\": \"serve x4 loopback\", \
             \"metric\": \"ingest\", \"requests\": 8000, \"busy\": 0, \"p50_ns\": 311295, \
             \"p99_ns\": 1900543, \"p999_ns\": 4128767}\n]\n",
        );
        assert_eq!(validate_file(p), Ok(1));
        // … and not without its busy counter.
        let p = write(
            "f.json",
            "[\n  {\"experiment\": \"E15\", \"config\": \"x\", \"metric\": \"ingest\", \
             \"requests\": 10, \"p50_ns\": 1, \"p99_ns\": 2, \"p999_ns\": 3}\n]\n",
        );
        assert!(validate_file(p).is_err());
        // Availability record missing one of its unavailability percentiles.
        let p = write(
            "g.json",
            "[\n  {\"experiment\": \"E17\", \"config\": \"x\", \"faults_injected\": 2, \
             \"faults_recovered\": 2, \"queries_total\": 10, \"queries_degraded\": 1, \
             \"unavail_p50_ns\": 5, \"unavail_max_ns\": 9}\n]\n",
        );
        assert!(validate_file(p).is_err());
        // Empty array.
        let p = write("e.json", "[\n]\n");
        assert!(validate_file(p).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
