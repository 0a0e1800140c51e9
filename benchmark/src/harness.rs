//! What every workload shares: the run arguments, the raw samples a
//! measurement produces, the driver that sequences set-up → measure →
//! check → tear-down (three instances untraced, or reference + traced),
//! and the conversion of samples into named metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::check::Gate;
use crate::spec::{self, Better, PER_LAYER};
use crate::stats::{self, Summary};
use crate::sys;
use crate::trace::Tracer;

/// Engine instances an untraced run sets up, measures and checks, one
/// after the other, each for an equal share of the run. Where an instance's
/// threads and pages land is drawn when it spawns and can stay for its whole
/// life: on this box one instance in four or five comes up 10–30% slower
/// than its siblings in the same process and never recovers, so one
/// instance per run makes the run's value a draw (ten-run spreads of
/// 11–18%). A block-sampled metric is therefore the best instance's
/// good-side decile (3–5% on the same runs), and `setup_s` the median of
/// the set-ups.
const INSTANCES: usize = 3;
/// Block-sampled metrics report the decile on their undisturbed side: the
/// 90th percentile of a rate's blocks, the 10th of a cost's or a latency's.
/// Everything that disturbs a block here — another tenant stealing the
/// core, the scheduler pairing the wrong threads — only ever makes it
/// slower, so the good-side decile estimates the undisturbed value, and a
/// real regression moves it as much as it moves every block. Measured on
/// this box it roughly halves the run-to-run spread of the block median.
const GOOD_SIDE: f64 = 0.1;
/// Share of a traced run spent on the untraced reference measurement that
/// `bench.tracing_overhead_share` compares against.
const REFERENCE_SHARE: f64 = 0.25;

#[derive(Debug, Clone)]
pub struct Args {
    pub seed: u64,
    /// Length of the timed phase of one workload, over all its instances.
    pub seconds: f64,
    pub traced: bool,
    /// Smoke mode: small pools, one set-up, a second or two per workload.
    /// Shapes only; never compared.
    pub quick: bool,
    pub out_dir: PathBuf,
}

impl Args {
    /// Pool sizes shrink in `--quick` so set-up stays a fraction of a second.
    pub fn pool_batches(&self, full: usize) -> usize {
        if self.quick {
            (full / 8).max(16)
        } else {
            full
        }
    }
}

/// Raw samples of one measurement phase.
#[derive(Debug, Default)]
pub struct Raw {
    /// Items accepted and drained per second, one sample per segment/slice.
    pub items_per_s: Vec<f64>,
    /// Process CPU time per item, one sample per segment/slice.
    pub cpu_per_item: Vec<f64>,
    /// Process CPU time and items over all timed segments.
    pub cpu_ns: u64,
    pub items: u64,
    /// Completed query calls per second, one sample per block/slice.
    pub queries_per_s: Vec<f64>,
    /// `heavy_hitters` latencies and freshness probes, each tagged with the
    /// block (segment or time slice) it was taken in. Freshness is a
    /// per-layer metric (see README.md), harvested in the traced run.
    pub hh_ns: Vec<Timed>,
    pub freshness_ns: Vec<Timed>,
    /// Operations attempted (a batch or frame delivered, a query answered),
    /// and those that errored or never became visible.
    pub attempted: u64,
    pub failed: u64,
    /// Everything the load threads recorded while tracing was on.
    pub layers: Layers,
}

impl Raw {
    pub fn cpu_ns_per_item(&self) -> f64 {
        self.cpu_ns as f64 / self.items.max(1) as f64
    }
}

/// A duration in nanoseconds and the block it belongs to.
pub type Timed = (u32, u64);

/// Per-layer values by name; anything a workload leaves out reports 0.
pub type Layers = BTreeMap<&'static str, f64>;

/// One workload. `Live` is whatever set-up produces: inputs, engine,
/// server, connections.
pub trait Workload {
    type Live;

    /// Generates the inputs from the seed, spawns the system under test and
    /// warms it up. Nothing here is timed except as `setup_s`.
    fn set_up(&self, args: &Args, observe: bool) -> Self::Live;

    /// The timed phase: `seconds` of load, recording spans when the tracer
    /// is on.
    fn measure(&self, live: &mut Self::Live, seconds: f64, tracer: &mut Tracer) -> Raw;

    /// Harvests per-layer metrics after a traced measurement: span
    /// durations, the engine's and server's own counters, layer replay.
    fn layers(&self, live: &Self::Live, raw: &Raw, tracer: &Tracer, layers: &mut Layers);

    /// Drains and checks every answer against the exact reference.
    /// `layers` is `Some` in the traced run.
    fn check(&self, live: &mut Self::Live, gate: &mut Gate, layers: Option<&mut Layers>);

    /// Stops everything set-up started and waits for it to end.
    fn tear_down(&self, live: Self::Live);
}

/// A reported metric: the value the contract line carries, plus the spread
/// of the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Summary,
    /// The per-block samples behind a sampled metric, in block order.
    pub blocks: Vec<f64>,
}

pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// No answer was outside its bound.
    pub correct: bool,
    /// The first few violations, in words.
    pub violations: Vec<String>,
    pub tracer: Tracer,
}

/// The good-side decile of per-block samples.
fn good_side(samples: &[f64], better: Better) -> f64 {
    let q = match better {
        Better::Higher => 1.0 - GOOD_SIDE,
        Better::Lower => GOOD_SIDE,
    };
    stats::quantile(samples, q)
}

/// An end-to-end metric with several samples behind its value.
fn sampled(name: &'static str, samples: &[f64], value: f64) -> Metric {
    Metric {
        name,
        unit: spec::end_to_end(name).0,
        value,
        summary: stats::summarize(samples),
        blocks: samples.to_vec(),
    }
}

/// An end-to-end metric with one sample per block and one series of blocks
/// per engine instance: each instance's good-side decile, and of those the
/// best. The summary and the saved blocks cover every instance.
fn blocked(name: &'static str, instances: Vec<Vec<f64>>) -> Metric {
    let better = spec::end_to_end(name).1;
    let deciles = instances
        .iter()
        .filter(|blocks| !blocks.is_empty())
        .map(|blocks| good_side(blocks, better));
    let best = match better {
        Better::Higher => deciles.reduce(f64::max),
        Better::Lower => deciles.reduce(f64::min),
    };
    sampled(name, &instances.concat(), best.unwrap_or(0.0))
}

/// A metric that is one reading.
fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        summary: Summary::single(value),
        blocks: Vec::new(),
    }
}

pub fn run<W: Workload>(workload: &W, args: &Args) -> Outcome {
    let origin = Instant::now();
    let mut gate = Gate::default();
    if !args.traced {
        let mut tracer = Tracer::new(false, origin);
        let instances = if args.quick { 1 } else { INSTANCES };
        let mut setup_s = Vec::with_capacity(instances);
        let mut raws = Vec::with_capacity(instances);
        let mut peak_rss_mb = 0.0;
        for instance in 0..instances {
            let start = Instant::now();
            let mut live = workload.set_up(args, false);
            setup_s.push(start.elapsed().as_secs_f64());
            raws.push(workload.measure(&mut live, args.seconds / instances as f64, &mut tracer));
            // Read before the first check builds its reference maps: the
            // peak should be the system's and the inputs', not the checker's.
            if instance == 0 {
                peak_rss_mb = sys::peak_rss_mb();
            }
            workload.check(&mut live, &mut gate, None);
            workload.tear_down(live);
        }
        let series = |of: fn(&Raw) -> Vec<f64>| raws.iter().map(of).collect::<Vec<_>>();
        let metrics = vec![
            // Set-up has a handful of samples, not blocks: their median.
            sampled("setup_s", &setup_s, stats::median(&setup_s)),
            blocked("items_per_s", series(|raw| raw.items_per_s.clone())),
            blocked("cpu_ns_per_item", series(|raw| raw.cpu_per_item.clone())),
            blocked("queries_per_s", series(|raw| raw.queries_per_s.clone())),
            blocked(
                "hh_p50_us",
                series(|raw| stats::block_medians(&raw.hh_ns, 1e3)),
            ),
            single(
                "peak_rss_mb",
                spec::end_to_end("peak_rss_mb").0,
                peak_rss_mb,
            ),
        ];
        let attempted: u64 = raws.iter().map(|raw| raw.attempted).sum();
        let failed: u64 = raws.iter().map(|raw| raw.failed).sum();
        return Outcome {
            metrics,
            attempted: attempted + gate.checks,
            failed: failed + gate.failed,
            correct: gate.failed == 0,
            violations: gate.violations,
            tracer,
        };
    }

    // Traced: a short untraced reference on an engine without observe(),
    // then the traced measurement on one with it — same binary, same
    // inputs, so their ratio is what tracing costs.
    let mut off = Tracer::new(false, origin);
    let mut reference_live = workload.set_up(args, false);
    let reference = workload.measure(
        &mut reference_live,
        args.seconds * REFERENCE_SHARE,
        &mut off,
    );
    workload.tear_down(reference_live);

    let mut tracer = Tracer::new(true, origin);
    let mut live = workload.set_up(args, true);
    let mut raw = workload.measure(
        &mut live,
        args.seconds * (1.0 - REFERENCE_SHARE),
        &mut tracer,
    );
    let mut layers = std::mem::take(&mut raw.layers);
    workload.layers(&live, &raw, &tracer, &mut layers);
    workload.check(&mut live, &mut gate, Some(&mut layers));
    workload.tear_down(live);

    let traced_rate = good_side(&raw.items_per_s, Better::Higher);
    let reference_rate = good_side(&reference.items_per_s, Better::Higher);
    layers.insert("bench.traced_items_per_s", traced_rate);
    layers.insert("bench.traced_cpu_ns_per_item", raw.cpu_ns_per_item());
    layers.insert(
        "bench.tracing_overhead_share",
        1.0 - traced_rate / reference_rate.max(1.0),
    );
    if let Some(&stage_sum) = layers.get("bench.stage_sum_ns_per_item") {
        layers.insert("bench.stage_sum_share", stage_sum / raw.cpu_ns_per_item());
    }
    let attempted = raw.attempted + gate.checks;
    let failed = raw.failed + gate.failed;
    layers.insert(
        "bench.failed_share",
        failed as f64 / attempted.max(1) as f64,
    );
    layers.insert("bench.spans_recorded", tracer.spans().len() as f64);

    for name in layers.keys() {
        spec::per_layer_unit(name);
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| single(name, unit, layers.get(name).copied().unwrap_or(0.0)))
        .collect();
    Outcome {
        metrics,
        attempted,
        failed,
        correct: gate.failed == 0,
        violations: gate.violations,
        tracer,
    }
}
