//! The schema of the repository's `BENCH_<pr>.json` trajectory records.
//!
//! `BENCH_JSON=<path> scripts/paired_bench.sh` writes one throughput
//! record per side per workload; the committed history also holds the
//! shapes earlier experiment runs wrote. [`validate_file`] accepts four:
//!
//! * throughput — `{"experiment", "config", "items_per_sec"}` (every
//!   committed `BENCH_<pr>.json`);
//! * latency percentiles — `{"experiment", "config", "metric", "p50_ns",
//!   "p90_ns", "p99_ns", "p999_ns"}` (E14's enqueue-wait and per-kind
//!   query latencies);
//! * request latency — `{"experiment", "config", "metric", "requests",
//!   "busy", "p50_ns", "p99_ns", "p999_ns"}` (the retired E15);
//! * availability — `{"experiment", "config", "faults_injected",
//!   "faults_recovered", "queries_total", "queries_degraded",
//!   "unavail_p50_ns", "unavail_p99_ns", "unavail_max_ns"}` (E17's
//!   per-fault unavailability windows).
//!
//! CI runs it over every committed file, so a malformed or hand-mangled
//! trajectory fails the build.

use std::path::Path;

/// Validates a committed `BENCH_<pr>.json` file against the record schema:
/// a JSON array, one object per line, each object exactly one of a
/// throughput record (`experiment`, `config`, `items_per_sec`), a latency
/// record (`experiment`, `config`, `metric`, and the four `p*_ns`
/// percentiles), a request-latency record (`experiment`, `config`,
/// `metric`, `requests`, `busy`, and the `p50/p99/p999_ns` percentiles),
/// or an availability record (`experiment`, `config`, the four fault/query
/// counters, and the three `unavail_*_ns` percentiles).
/// Returns the number of valid records, or a description of the first
/// malformed line. The point is to catch hand-edited or truncated
/// committed files in CI, not to be a general JSON parser.
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
        // A request-latency record as committed in `BENCH_7..9.json`
        // validates …
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
