//! Sharded ingestion service: the engine serving a heavy concurrent
//! workload — four producer threads pushing 10M items while a monitor
//! thread answers heavy-hitter, point-frequency and Count-Min queries
//! against the live engine, the scenario the ROADMAP's "serve heavy traffic
//! from many users" north star asks for.
//!
//! The engine runs with **skew-aware routing**: the Zipf(1.15) head keys
//! that hash routing would pin to single shards are detected online and
//! split round-robin, levelling the per-shard load table printed at the
//! end (pass `--hash` to compare against plain hash routing).
//!
//! Run with:
//! ```text
//! cargo run --release --example engine_service            # skew-aware
//! cargo run --release --example engine_service -- --hash  # hash routing
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use psfa::prelude::*;

fn main() {
    let shards = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(4, 8);
    let producers = 4u64;
    let batches_per_producer = 250u64;
    let batch_size = 10_000usize;
    let total: u64 = producers * batches_per_producer * batch_size as u64; // 10M
    let phi = 0.01;
    let epsilon = 0.002;

    let routing = if std::env::args().any(|a| a == "--hash") {
        RoutingPolicy::Hash
    } else {
        RoutingPolicy::skew_aware()
    };
    let engine = Engine::spawn(
        EngineConfig::with_shards(shards)
            .queue_capacity(16)
            .heavy_hitters(phi, epsilon)
            .count_min(0.0005, 0.01, 42)
            .routing(routing),
    );
    println!(
        "engine up: {shards} shards, {} routing, ingesting {total} items from {producers} producers\n",
        routing.name()
    );
    let start = Instant::now();

    // Producers: each streams its own Zipf substream through a cloned
    // handle and returns its exact item counts for the final comparison.
    let mut workers = Vec::new();
    for p in 0..producers {
        let handle = engine.handle();
        workers.push(std::thread::spawn(move || {
            let mut generator = ZipfGenerator::new(1_000_000, 1.15, 1000 + p);
            let mut exact: HashMap<u64, u64> = HashMap::new();
            for _ in 0..batches_per_producer {
                let batch = generator.next_minibatch(batch_size);
                // A closed engine (shutdown raced, or every shard's restart
                // budget was exhausted) is a typed error here — stop this
                // producer cleanly rather than panicking the whole run.
                if handle.ingest(&batch).is_err() {
                    eprintln!("producer {p}: engine closed mid-run; stopping early");
                    break;
                }
                for &x in &batch {
                    *exact.entry(x).or_insert(0) += 1;
                }
            }
            exact
        }));
    }

    // Monitor: query the live engine while ingestion runs.
    let monitor = {
        let handle = engine.handle();
        let done = Arc::new(AtomicBool::new(false));
        let flag = done.clone();
        let join = std::thread::spawn(move || {
            let mut live_queries = 0u64;
            while !flag.load(Ordering::Acquire) {
                let m = handle.metrics();
                let processed = m.items_processed();
                if processed > 0 && processed < total {
                    let hh = handle.heavy_hitters();
                    live_queries += 1;
                    if live_queries % 50 == 1 {
                        let top = hh.first().map(|h| h.item);
                        println!(
                            "  [live] {processed:>9} items in, queue depth {:>3}, \
                             {:>2} heavy hitters, top item {:?}",
                            m.queue_depth(),
                            hh.len(),
                            top
                        );
                        if let Some(item) = top {
                            // Live point queries against both summaries.
                            let mg = handle.estimate(item);
                            let cm = handle.cm_estimate(item);
                            assert!(cm >= mg, "CM overestimates, MG underestimates");
                        }
                    }
                }
                std::thread::yield_now();
            }
            live_queries
        });
        (done, join)
    };

    let truths: Vec<HashMap<u64, u64>> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    engine.drain().unwrap();
    let ingest_secs = start.elapsed().as_secs_f64();
    monitor.0.store(true, Ordering::Release);
    let live_queries = monitor.1.join().unwrap();

    let handle = engine.handle();
    let metrics = handle.metrics();
    assert_eq!(metrics.items_processed(), total);
    println!(
        "\ningested {total} items in {ingest_secs:.2}s ({:.2} Mitems/s)",
        total as f64 / ingest_secs / 1e6
    );
    println!("answered {live_queries} full query rounds during ingestion");
    println!("\nper-shard load:\n{}", metrics.to_table());
    if let Some(imbalance) = metrics.load_imbalance() {
        println!(
            "load imbalance (max/mean): {imbalance:.3}  [1.0 = perfectly level; \
             hot keys split: {:?}]",
            metrics.hot_keys
        );
    }

    // Exact truth across all producers.
    let mut exact: HashMap<u64, u64> = HashMap::new();
    for t in truths {
        for (item, count) in t {
            *exact.entry(item).or_insert(0) += count;
        }
    }

    // Final answers: the union-of-shards heavy hitters against the exact
    // counts, with the paper's bands.
    let reported = handle.heavy_hitters();
    println!("final φ = {phi} heavy hitters (ε = {epsilon}):");
    println!(
        "{:<12} {:>12} {:>12} {:>12}",
        "item", "estimate", "count-min", "exact"
    );
    for hh in reported.iter().take(10) {
        let truth = exact.get(&hh.item).copied().unwrap_or(0);
        println!(
            "{:<12} {:>12} {:>12} {:>12}",
            hh.item,
            hh.estimate,
            handle.cm_estimate(hh.item),
            truth
        );
        assert!(hh.estimate <= truth, "estimates never overestimate");
        assert!(
            hh.estimate as f64 >= truth as f64 - epsilon * total as f64,
            "estimates stay within εm"
        );
    }
    for (&item, &f) in &exact {
        if f as f64 >= phi * total as f64 {
            assert!(
                reported.iter().any(|h| h.item == item),
                "missed true heavy hitter {item}"
            );
        }
    }

    let report = engine.shutdown().unwrap();
    assert_eq!(report.total_items(), total);
    println!("\nall live and final answers satisfy f - εm ≤ f̂ ≤ f ✓");
}
