//! Network monitoring scenario: find elephant flows in a synthetic packet
//! trace — served over the network, the deployment shape that motivates the
//! paper (identifying heavy hitters in high-velocity streams, cf. the
//! Estan–Varghese and Cormode–Hadjieleftheriou references in Section 1).
//!
//! A sharded engine runs behind the `psfa-serve` front end on loopback.
//! One protocol client plays the packet-capture pipeline, streaming the
//! trace in minibatches (and backing off when the server answers `Busy` —
//! backpressure is explicit, never buffered); a second client plays the
//! operator dashboard, polling heavy hitters and per-flow estimates over
//! the wire while ingest runs. An exact in-process tracker provides ground
//! truth: every truly heavy flow must be reported, and no estimate may
//! exceed its true count (the paper's one-sided guarantee survives the
//! network hop).
//!
//! Run with:
//! ```text
//! cargo run --release --example network_heavy_hitters
//! ```

use std::collections::HashMap;

use psfa::prelude::*;

fn main() {
    // Flow churn spreads traffic thin (the top flow holds ~0.4% of
    // packets), so an "elephant" here is ≥0.2% of traffic.
    let epsilon = 0.0005;
    let phi = 0.002;
    let window: u64 = 200_000;
    let batch_size = 10_000;
    let batches = 60;

    // The engine and its serving front end. Queries read published epoch
    // snapshots, so the dashboard never blocks the capture pipeline.
    let engine = Engine::spawn(
        EngineConfig::with_shards(4)
            .heavy_hitters(phi, epsilon)
            .sliding_window(window)
            .observe(),
    );
    let server =
        Server::spawn(engine.handle(), ServeConfig::default()).expect("spawn loopback server");
    let addr = server.local_addr();
    println!("psfa-serve listening on {addr}\n");

    // The dashboard: a second connection polling while ingest runs.
    let dashboard = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("dashboard connect");
        let mut polls = 0u64;
        loop {
            match client.heavy_hitters() {
                Ok(_) => polls += 1,
                Err(_) => return polls, // server shut down
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
            if polls > 10_000 {
                return polls;
            }
        }
    });

    // The capture pipeline: stream the trace over the wire through a client
    // with a retry policy — explicit backpressure (`Busy`) and broken
    // streams are absorbed by its capped, jittered backoff instead of a
    // hand-rolled retry loop or unbounded client-side queueing.
    let policy = RetryPolicy::default()
        .base_delay(std::time::Duration::from_micros(200))
        .max_retries(64);
    let mut capture = Client::connect(addr)
        .expect("capture connect")
        .retry(policy);
    let mut trace = PacketTraceGenerator::new(256, 7);
    let mut truth: HashMap<u64, u64> = HashMap::new();
    for batch_idx in 0..batches {
        let minibatch = trace.next_minibatch(batch_size);
        for &flow in &minibatch {
            *truth.entry(flow).or_insert(0) += 1;
        }
        let outcome = capture.ingest(&minibatch).expect("ingest over the wire");
        assert_eq!(outcome, IngestOutcome::Accepted(minibatch.len() as u64));

        if (batch_idx + 1) % 20 == 0 {
            let reported = capture.heavy_hitters().expect("query over the wire");
            let sliding = capture
                .sliding_heavy_hitters()
                .expect("sliding query over the wire");
            println!(
                "after {:>6} packets: {:>3} elephants (infinite), {:>3} in the last-{window} window",
                (batch_idx + 1) * batch_size,
                reported.len(),
                sliding.len(),
            );
        }
    }

    // Settle the stream, then verify the guarantees over the wire.
    engine.drain().unwrap();
    let m: u64 = truth.values().sum();
    let reported = capture.heavy_hitters().expect("final heavy hitters");
    let true_heavy: Vec<u64> = truth
        .iter()
        .filter(|(_, &f)| f as f64 >= phi * m as f64)
        .map(|(&flow, _)| flow)
        .collect();
    for flow in &true_heavy {
        assert!(
            reported.iter().any(|h| h.item == *flow),
            "missed elephant flow {flow}"
        );
    }
    println!(
        "\nfinal report ({} reported, {} truly above φm):",
        reported.len(),
        true_heavy.len()
    );
    for hh in reported.iter().take(5) {
        let exact = truth.get(&hh.item).copied().unwrap_or(0);
        assert!(
            hh.estimate <= exact,
            "one-sided bound violated over the wire"
        );
        println!(
            "    flow {:>8}  est {:>7}  exact {:>7}",
            hh.item, hh.estimate, exact
        );
    }

    // The same connection serves operational metrics.
    let metrics_text = capture.metrics_text().expect("metrics over the wire");
    let families = metrics_text
        .lines()
        .filter(|l| l.starts_with("# TYPE"))
        .count();
    println!("\nmetrics endpoint exports {families} instrument families");

    let serve_metrics = server.shutdown();
    let dashboard_polls = dashboard.join().expect("dashboard thread");
    println!(
        "served {} requests over {} connections ({} busy retries, \
         {} dashboard polls, peak in-flight {} B)",
        serve_metrics.requests,
        serve_metrics.connections_accepted,
        capture.busy_retries(),
        dashboard_polls,
        serve_metrics.peak_inflight_bytes,
    );
    engine.shutdown().unwrap();
}
