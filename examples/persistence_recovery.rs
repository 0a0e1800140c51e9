//! Persistence, crash recovery, and time-travel queries, end to end:
//!
//! 1. run a skew-aware sharded engine with the background flusher spilling
//!    epoch snapshots to a segment log;
//! 2. kill it mid-stream (no final flush — a simulated `kill -9`);
//! 3. recover a fresh engine from the latest consistent epoch and show that
//!    estimates, heavy hitters, and hot-key placements survived;
//! 4. answer "heavy hitters as of epoch E" from retained history while the
//!    recovered engine keeps ingesting.
//!
//! ```text
//! cargo run --release --example persistence_recovery
//! ```

use std::collections::HashMap;

use psfa::prelude::*;

fn main() {
    let dir = std::env::temp_dir().join(format!("psfa-example-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = EngineConfig::with_shards(4)
        .queue_capacity(16)
        .heavy_hitters(0.02, 0.002)
        .skew_aware_routing()
        .persistence(
            PersistenceConfig::new(&dir)
                .interval_batches(16) // cut an epoch every 16 accepted minibatches
                .retain_epochs(64), // history depth for time-travel queries
        );

    println!(
        "phase 1 — live engine, flusher persisting to {}",
        dir.display()
    );
    let engine = Engine::spawn(config.clone());
    let handle = engine.handle();
    let mut zipf = ZipfGenerator::new(1_000_000, 1.4, 99);
    let mut truth: HashMap<u64, u64> = HashMap::new();
    for _ in 0..120 {
        let batch = zipf.next_minibatch(20_000);
        // A closed engine surfaces as a typed error; stop streaming
        // instead of panicking (the recovery phases below still run).
        if handle.ingest(&batch).is_err() {
            eprintln!("engine closed; stopping ingest early");
            break;
        }
        for &x in &batch {
            *truth.entry(x).or_insert(0) += 1;
        }
    }
    engine.drain().unwrap();
    let epoch = handle.snapshot_now().expect("snapshot");
    let m_snap = handle.total_items();
    let live_hh = handle.heavy_hitters();
    println!(
        "  {} items ingested, epoch {epoch} cut, {} heavy hitters, hot keys {:?}",
        m_snap,
        live_hh.len(),
        handle.metrics().hot_keys
    );
    println!("{}", handle.metrics().to_table());

    // Traffic after the snapshot keeps flowing (and the background flusher
    // keeps cutting epochs) until the process "dies" mid-stream: whatever
    // arrived after the *last* flushed epoch is lost, as in a real crash.
    let mut truth_all = truth.clone();
    for _ in 0..10 {
        let batch = zipf.next_minibatch(20_000);
        if handle.ingest(&batch).is_err() {
            eprintln!("engine closed; stopping ingest early");
            break;
        }
        for &x in &batch {
            *truth_all.entry(x).or_insert(0) += 1;
        }
    }
    engine.drain().unwrap();
    let total_ingested = handle.total_items();
    println!("phase 2 — crash: killing the engine mid-stream at {total_ingested} items\n");
    engine.kill();

    println!("phase 3 — recovery from the latest consistent epoch");
    let recovered = Engine::recover(&dir, config).expect("recover");
    let handle = recovered.handle();
    let m_rec = handle.total_items();
    println!(
        "  recovered {m_rec} items (last flushed epoch; {} in-memory items lost), hot keys {:?}",
        total_ingested - m_rec,
        handle.metrics().hot_keys
    );
    assert!((m_snap..=total_ingested).contains(&m_rec));
    // One-sided ε·m accuracy of the recovered state: the recovered prefix
    // contains everything up to the manual cut (so at least `truth`'s
    // counts, minus ε·m_rec) and nothing beyond what was ever ingested.
    let slack = (handle.epsilon() * m_rec as f64).ceil() as u64;
    let mut checked = 0u64;
    for hh in &live_hh {
        let est = handle.estimate(hh.item);
        assert!(est <= truth_all[&hh.item], "overestimate for {}", hh.item);
        assert!(
            est + slack >= truth[&hh.item],
            "bound violated for {}",
            hh.item
        );
        checked += 1;
    }
    println!("  {checked} recovered heavy-hitter estimates within the one-sided ε·m bound");

    println!("\nphase 4 — time travel while ingesting");
    for _ in 0..40 {
        handle
            .ingest(&zipf.next_minibatch(20_000))
            .expect("engine closed");
    }
    recovered.drain().unwrap();
    let epoch2 = handle.snapshot_now().expect("snapshot");
    let (view_then, view_now) = (
        handle.view_at(epoch).expect("history"),
        handle.view_at(epoch2).expect("history"),
    );
    let (then, now) = (view_then.heavy_hitters(), view_now.heavy_hitters());
    println!(
        "  epochs retained: {:?}",
        handle.persisted_epochs().expect("epochs")
    );
    println!(
        "  view_at({epoch}).heavy_hitters()  = {} items over {} stream items (frozen)",
        then.len(),
        view_then.total_items()
    );
    println!(
        "  view_at({epoch2}).heavy_hitters() = {} items over {} stream items",
        now.len(),
        view_now.total_items()
    );
    assert_eq!(then, live_hh, "epoch {epoch} is immutable history");

    println!("{}", handle.metrics().to_table());
    recovered.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    println!("done.");
}
