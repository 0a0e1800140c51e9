//! The repo benchmark. One command runs the named workloads from a seed,
//! checks every answer against an exact reference, and prints every metric
//! by name with its unit, sample count, median and quartiles. See
//! `README.md` for the workloads and metrics and `../BENCHMARK.json` for
//! the bounds.
//!
//! ```text
//! psfa-benchmark --seed <u64> [--workload <name>] [--seconds <s>]
//!                [--trace <0|1> | --traced] [--quick] [--out <dir>]
//! psfa-benchmark --agree <dirA> <dirB>
//! ```

mod agree;
mod check;
mod harness;
mod ingest;
mod input;
mod json;
mod layers;
mod probe;
mod query_mix;
mod serve_mixed;
mod spec;
mod stats;
mod sys;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harness::{Args, Outcome};
use json::Value;

const DEFAULT_SECONDS: f64 = 20.0;
/// `--quick`: five workloads inside ten seconds.
const QUICK_SECONDS: f64 = 1.0;

fn usage() -> String {
    format!(
        "usage: psfa-benchmark --seed <u64> [--workload <{}>] [--seconds <s>] \
         [--trace <0|1> | --traced] [--quick] [--out <dir>]\n       \
         psfa-benchmark --agree <dirA> <dirB>",
        spec::WORKLOADS.join("|")
    )
}

enum Command {
    Run {
        args: Args,
        workloads: Vec<&'static str>,
    },
    Agree(PathBuf, PathBuf),
}

fn parse(argv: &[String]) -> Result<Command, String> {
    let benchmark_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut quick = false;
    let mut out_dir = benchmark_dir.join("out");
    let mut workloads: Vec<&'static str> = spec::WORKLOADS.to_vec();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--agree" => {
                return Ok(Command::Agree(
                    value("two directories")?.into(),
                    value("two directories")?.into(),
                ));
            }
            "--seed" => {
                let text = value("a number")?;
                seed = Some(text.parse().map_err(|_| format!("bad seed {text}"))?);
            }
            "--seconds" => {
                let text = value("a number")?;
                let s: f64 = text.parse().map_err(|_| format!("bad seconds {text}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("seconds must be in (0, 60], got {text}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--traced" => traced = true,
            "--quick" => quick = true,
            "--out" => out_dir = value("a directory")?.into(),
            "--workload" => {
                let name = value("a workload name")?;
                let known = spec::WORKLOADS
                    .iter()
                    .find(|w| **w == name)
                    .ok_or_else(|| format!("unknown workload {name}"))?;
                workloads = vec![*known];
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.unwrap_or(if quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    Ok(Command::Run {
        args: Args {
            seed,
            seconds,
            traced,
            quick,
            out_dir,
        },
        workloads,
    })
}

fn run_workload(name: &str, args: &Args) -> Outcome {
    match name {
        "ingest_skew" => harness::run(&ingest::ingest_skew(), args),
        "ingest_flat_window" => harness::run(&ingest::ingest_flat_window(), args),
        "durable_recover" => harness::run(&ingest::durable_recover(), args),
        "query_mix" => harness::run(&query_mix::QueryMix, args),
        "serve_mixed" => harness::run(&serve_mixed::ServeMixed, args),
        other => unreachable!("{other} passed the argument check"),
    }
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric exactly `value` and `unit`.
fn contract_line(outcome: &Outcome) -> String {
    Value::obj([
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::Num(outcome.attempted.max(1) as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        (
            "metrics",
            Value::Obj(
                outcome
                    .metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            Value::obj([
                                ("value", Value::Num(m.value)),
                                ("unit", Value::str(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

/// The results file: the environment header, and every metric with the
/// spread of the samples behind it. All timings are wall-clock.
fn results_file(name: &str, env: &Value, outcome: &Outcome) -> Value {
    Value::obj([
        ("env", env.clone()),
        ("workload", Value::str(name)),
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        (
            "violations",
            Value::Arr(outcome.violations.iter().map(Value::str).collect()),
        ),
        (
            "metrics",
            Value::Obj(
                outcome
                    .metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            Value::obj([
                                ("value", Value::Num(m.value)),
                                ("unit", Value::str(m.unit)),
                                ("n", Value::Num(m.summary.n as f64)),
                                ("q1", Value::Num(m.summary.q1)),
                                ("median", Value::Num(m.summary.median)),
                                ("q3", Value::Num(m.summary.q3)),
                                (
                                    "blocks",
                                    Value::Arr(m.blocks.iter().map(|&b| Value::Num(b)).collect()),
                                ),
                                ("basis", Value::str("wall")),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn print_table(name: &str, outcome: &Outcome) {
    println!(
        "== {name}: correct={} attempted={} failed={}",
        outcome.correct, outcome.attempted, outcome.failed
    );
    println!(
        "{:<40} {:>8} {:>7} {:>16} {:>16} {:>16}",
        "metric", "unit", "n", "q1", "median", "q3"
    );
    for m in &outcome.metrics {
        println!(
            "{:<40} {:>8} {:>7} {:>16.4} {:>16.4} {:>16.4}",
            m.name, m.unit, m.summary.n, m.summary.q1, m.summary.median, m.summary.q3
        );
    }
    for violation in &outcome.violations {
        println!("VIOLATION: {violation}");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&argv) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("{message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let (args, workloads) = match command {
        Command::Agree(a, b) => {
            let contract = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
            return match agree::agree(&contract, &a, &b) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(message) => {
                    eprintln!("{message}");
                    ExitCode::from(2)
                }
            };
        }
        Command::Run { args, workloads } => (args, workloads),
    };

    // Several workloads: one child process each, so `peak_rss_mb` is that
    // workload's own high-water mark and not its predecessors'.
    if workloads.len() > 1 {
        let exe = std::env::current_exe().expect("the running binary has a path");
        let mut all_correct = true;
        for name in workloads {
            let status = std::process::Command::new(&exe)
                .args(&argv)
                .args(["--workload", name])
                .status();
            match status {
                Ok(status) => all_correct &= status.success(),
                Err(e) => {
                    eprintln!("cannot start the {name} run: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        return if all_correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let name = workloads[0];

    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let env = sys::environment(args.seed, args.quick, args.seconds, args.traced);
    println!("env {}", env.render());
    let outcome = run_workload(name, &args);
    print_table(name, &outcome);
    let stem = format!("{name}-t{}-s{}", u8::from(args.traced), args.seed);
    let result_path = args.out_dir.join(format!("result-{stem}.json"));
    let written = std::fs::write(&result_path, results_file(name, &env, &outcome).render())
        .and_then(|()| {
            if args.traced {
                outcome
                    .tracer
                    .write_json(&args.out_dir.join(format!("trace-{name}.json")), &env)
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("cannot write results under {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    println!("{}", contract_line(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn contract() -> Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        agree::load_contract(&path).expect("BENCHMARK.json parses")
    }

    fn declared(contract: &Value, section: &str) -> Vec<(String, String)> {
        contract
            .get(section)
            .and_then(Value::as_arr)
            .expect("section is a list")
            .iter()
            .map(|m| {
                let field = |key: &str| m.get(key).and_then(Value::as_str).map(str::to_string);
                (
                    field("name").expect("metric has a name"),
                    field("unit").unwrap_or_default(),
                )
            })
            .collect()
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn contract_and_spec_declare_the_same_names_and_units() {
        let contract = contract();
        let pair = |n: &str, u: &str| (n.to_string(), u.to_string());
        let end_to_end: Vec<_> = spec::END_TO_END
            .iter()
            .map(|(n, u, _)| pair(n, u))
            .collect();
        let per_layer: Vec<_> = spec::PER_LAYER.iter().map(|(n, u)| pair(n, u)).collect();
        assert_eq!(declared(&contract, "end_to_end"), end_to_end);
        assert_eq!(declared(&contract, "per_layer"), per_layer);
        for (metric, (_, _, better)) in contract
            .get("end_to_end")
            .and_then(Value::as_arr)
            .expect("end_to_end is a list")
            .iter()
            .zip(spec::END_TO_END)
        {
            let declared = metric.get("better").and_then(Value::as_str);
            let expected = match better {
                spec::Better::Higher => "higher",
                spec::Better::Lower => "lower",
            };
            assert_eq!(declared, Some(expected));
        }
        let workloads: Vec<String> = declared(&contract, "workloads")
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(workloads, spec::WORKLOADS);

        let mut seen = BTreeSet::new();
        for (name, _) in declared(&contract, "end_to_end")
            .into_iter()
            .chain(declared(&contract, "per_layer"))
            .chain(declared(&contract, "workloads"))
        {
            assert!(well_formed(&name), "{name} must match [A-Za-z0-9_.-]+");
            assert!(seen.insert(name.clone()), "{name} is used twice");
        }
        let bounds = agree::bounded_metrics(&contract);
        assert_eq!(bounds.len(), spec::END_TO_END.len());
        assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
    }

    /// Runs workloads in `--quick` shape and checks that every name the
    /// contract declares comes out, with the declared unit.
    #[test]
    fn quick_runs_report_every_declared_metric() {
        let contract = contract();
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test");
        std::fs::create_dir_all(&out_dir).expect("create the output directory");
        // One segmented and one threaded workload cover all three shapes
        // of measurement loop; the durable one adds the store layer.
        for workload in ["durable_recover", "serve_mixed"] {
            for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let args = Args {
                    seed: 11,
                    seconds: 0.4,
                    traced,
                    quick: true,
                    out_dir: out_dir.clone(),
                };
                let outcome = run_workload(workload, &args);
                assert!(outcome.correct, "{workload}: {:?}", outcome.violations);
                assert!(outcome.attempted >= 1);
                let line = json::parse(&contract_line(&outcome)).expect("contract line parses");
                let reported = line.get("metrics").expect("metrics");
                let names = declared(&contract, section);
                for (name, unit) in &names {
                    let metric = reported
                        .get(name)
                        .unwrap_or_else(|| panic!("{workload} trace={traced} lacks {name}"));
                    assert_eq!(
                        metric.get("unit").and_then(Value::as_str),
                        Some(unit.as_str())
                    );
                    let value = metric.get("value").and_then(Value::as_f64).expect("value");
                    assert!(value.is_finite(), "{name} is not finite");
                    if !traced {
                        assert!(value > 0.0, "{workload}: end-to-end {name} must never be 0");
                    }
                }
                assert_eq!(outcome.metrics.len(), names.len(), "no undeclared metrics");
            }
        }
        let _ = std::fs::remove_dir_all(&out_dir);
    }
}
