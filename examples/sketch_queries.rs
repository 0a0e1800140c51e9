//! Count-Min sketch point queries (Section 6) compared against the exact
//! answer, on a skewed stream processed in minibatches — with
//! a Misra–Gries heavy-hitter tracker fed side by side from the same
//! minibatches (the multi-operator architecture of Figure 1).
//!
//! Run with:
//! ```text
//! cargo run --release --example sketch_queries
//! ```

use std::collections::HashMap;

use psfa::prelude::*;

fn main() {
    let epsilon = 0.0005;
    let delta = 0.01;
    let batch_size = 20_000;
    let batches = 50;

    // Every operator sees every minibatch; queries see the prefix.
    let mut generator = ZipfGenerator::new(1_000_000, 1.1, 5);
    let mut cm = AtomicCountMin::new(epsilon, delta, 99);
    let mut hh = InfiniteHeavyHitters::new(0.01, 0.001);
    let mut exact: HashMap<u64, u64> = HashMap::new();
    for _ in 0..batches {
        let minibatch = generator.next_minibatch(batch_size);
        cm.process_minibatch(&minibatch);
        hh.process_minibatch(&minibatch);
        for &x in &minibatch {
            *exact.entry(x).or_insert(0) += 1;
        }
    }

    let m = cm.total();
    println!(
        "point queries after {m} updates (εm = {:.0}):",
        epsilon * m as f64
    );
    println!("{:<8} {:>10} {:>12}", "item", "exact", "count-min");
    for item in 0..10u64 {
        let truth = exact.get(&item).copied().unwrap_or(0);
        let cm_est = cm.query(item);
        println!("{item:<8} {truth:>10} {cm_est:>12}");
        assert!(cm_est >= truth, "Count-Min never underestimates");
        assert!(
            cm_est as f64 <= truth as f64 + epsilon * m as f64 + 1.0,
            "Count-Min overestimate within εm (w.h.p.)"
        );
    }
    println!(
        "\nsketch dimensions: {} x {} counters",
        cm.depth(),
        cm.width()
    );
    let heavy = hh.query();
    println!("1%-heavy hitters tracked alongside: {}", heavy.len());
    assert!(heavy.iter().all(|h| h.estimate <= exact[&h.item]));
}
