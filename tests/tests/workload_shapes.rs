//! Cross-crate tests of the workload substrate against the aggregates: the
//! generators must produce the stream shapes the experiments assume, and the
//! aggregates must behave sensibly on each of them.

use psfa::prelude::*;

#[test]
fn zipf_stream_has_heavy_hitters_and_uniform_does_not() {
    let phi = 0.05;
    let epsilon = 0.01;

    let mut zipf_tracker = InfiniteHeavyHitters::new(phi, epsilon);
    let mut zipf = ZipfGenerator::new(100_000, 1.4, 1);
    for _ in 0..20 {
        zipf_tracker.process_minibatch(&zipf.next_minibatch(5000));
    }
    assert!(
        !zipf_tracker.query().is_empty(),
        "a Zipf(1.4) stream must contain 5%-heavy hitters"
    );

    let mut uni_tracker = InfiniteHeavyHitters::new(phi, epsilon);
    let mut uniform = UniformGenerator::new(100_000, 2);
    for _ in 0..20 {
        uni_tracker.process_minibatch(&uniform.next_minibatch(5000));
    }
    assert!(
        uni_tracker.query().is_empty(),
        "a uniform stream over 100k items has no 5%-heavy hitters"
    );
}

#[test]
fn bursty_stream_heavy_hitter_appears_and_then_expires_from_window() {
    let n = 8192u64;
    let epsilon = 0.02;
    let mut est = SlidingFreqWorkEfficient::new(epsilon, n);
    let mut generator = BurstyGenerator::new(1_000_000, 4096, 3);

    // Quiet phase then burst phase.
    est.process_minibatch(&generator.next_minibatch(4096));
    let burst = generator.next_minibatch(4096);
    est.process_minibatch(&burst);
    // The dominant item of the burst must now be a heavy hitter of the window.
    let mut counts = std::collections::HashMap::new();
    for &x in &burst {
        *counts.entry(x).or_insert(0u64) += 1;
    }
    let (&burst_item, &burst_count) = counts.iter().max_by_key(|(_, &c)| c).unwrap();
    assert!(burst_count > 3000);
    assert!(est.estimate(burst_item) > 0);

    // After two full windows of quiet traffic the burst item must have expired.
    for _ in 0..4 {
        est.process_minibatch(&generator.next_minibatch(4096));
    }
    for _ in 0..4 {
        // Skip ahead to quiet phases only (phases alternate every 4096 items).
        let batch = generator.next_minibatch(4096);
        est.process_minibatch(&batch);
    }
    assert!(
        est.estimate(burst_item) <= burst_count,
        "expired burst item must not gain frequency"
    );
}

#[test]
fn packet_trace_elephants_dominate_count_min_queries() {
    let mut trace = PacketTraceGenerator::new(64, 5);
    let mut cm = AtomicCountMin::new(0.0005, 0.01, 1);
    let mut exact = std::collections::HashMap::new();
    for _ in 0..20 {
        let batch = trace.next_minibatch(10_000);
        cm.process_minibatch(&batch);
        for &x in &batch {
            *exact.entry(x).or_insert(0u64) += 1;
        }
    }
    let (&top_flow, &top_count) = exact.iter().max_by_key(|(_, &c)| c).unwrap();
    assert!(cm.query(top_flow) >= top_count);
    // The heaviest flow's estimate dominates a random light flow's estimate.
    let light_flow = *exact.iter().find(|(_, &c)| c <= 3).map(|(f, _)| f).unwrap();
    assert!(cm.query(top_flow) > cm.query(light_flow));
}

#[test]
fn work_meter_shows_linear_work_in_stream_length() {
    // Corollary 5.11 at the API level: doubling the number of identically
    // sized minibatches roughly doubles the charged work.
    let eps = 0.01;
    let mut generator = ZipfGenerator::new(10_000, 1.1, 9);
    let batches: Vec<Vec<u64>> = (0..20).map(|_| generator.next_minibatch(2000)).collect();

    let run = |count: usize| {
        let meter = WorkMeter::new();
        let mut est = ParallelFrequencyEstimator::new(eps).with_meter(meter.clone());
        for b in &batches[..count] {
            est.process_minibatch(b);
        }
        meter.total()
    };
    let half = run(10);
    let full = run(20);
    let ratio = full as f64 / half as f64;
    assert!(
        (1.6..=2.4).contains(&ratio),
        "work should scale linearly with the stream length, ratio = {ratio}"
    );
}
