//! End-to-end smoke tests for the serving front end: a real loopback
//! server, concurrent ingest and query clients, and the accuracy /
//! backpressure / shutdown contracts the crate documents.
//!
//! * Answers served over the wire carry the same one-sided `ε·m` guarantee
//!   as in-process queries: a concurrent-client run must match a
//!   single-thread exact reference within `ε·m`.
//! * A tiny-queue engine must shed load with explicit `Busy` responses,
//!   every `Busy` must be clean — the engine's final item count is exactly
//!   the acknowledged batches — and the server's peak in-flight bytes stay
//!   within `max_connections × MAX_FRAME_LEN × 2`.
//! * Graceful shutdown answers in-flight requests, closes connections, and
//!   leaves the engine fully usable.
//! * A `Client` with a retry policy rides out injected connection drops: it
//!   reconnects, and a retried ingest is never counted twice. Without a
//!   policy the same drop is one typed `Frame` error and no reconnect. The
//!   server has no request deadline, so no answer to an applied ingest is
//!   ever replaced by a retryable error.
//! * A batch too large for one frame is refused typed before a byte is
//!   written: the connection stays usable, and a client with a retry
//!   policy neither retries nor reconnects.
//! * Shutdown wakes every handler at once: an idle connection is closed
//!   and a half-sent frame fails as one frame error, with no grace wait.
//! * A header announcing more than `MAX_FRAME_LEN` bytes closes its
//!   connection before any buffer grows, while other connections are
//!   served.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use psfa::prelude::*;

fn zipf_batches(batches: usize, batch_size: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut generator = ZipfGenerator::new(50_000, 1.2, seed);
    (0..batches)
        .map(|_| generator.next_minibatch(batch_size))
        .collect()
}

#[test]
fn concurrent_clients_match_the_single_thread_reference() {
    let phi = 0.01;
    let eps = 0.001;
    let batches = zipf_batches(24, 10_000, 99);
    let mut truth: HashMap<u64, u64> = HashMap::new();
    for b in &batches {
        for &x in b {
            *truth.entry(x).or_insert(0) += 1;
        }
    }
    let m: u64 = truth.values().sum();

    let engine = Engine::spawn(
        EngineConfig::with_shards(4)
            .heavy_hitters(phi, eps)
            .observe(),
    );
    let server = Server::spawn(engine.handle(), ServeConfig::default()).expect("server");
    let addr = server.local_addr();

    // Query client hammers the read path while ingest clients run: queries
    // read published snapshots and must never error or block the writers.
    let stop = Arc::new(AtomicBool::new(false));
    let querier = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("query client");
            let mut rounds = 0u64;
            while !stop.load(Ordering::Acquire) {
                let est = client.estimate(7).expect("estimate over the wire");
                let cm = client.cm_estimate(7).expect("cm estimate over the wire");
                assert!(cm >= est, "count-min {cm} below MG snapshot estimate {est}");
                let hh = client.heavy_hitters().expect("heavy hitters over the wire");
                assert!(hh.windows(2).all(|w| w[0].estimate >= w[1].estimate));
                client.ping().expect("ping");
                rounds += 1;
            }
            rounds
        })
    };

    // Three ingest clients split the stream between them.
    let mut writers = Vec::new();
    for chunk in batches.chunks(8) {
        let chunk = chunk.to_vec();
        writers.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("ingest client");
            for batch in &chunk {
                match client.ingest(batch).expect("ingest over the wire") {
                    IngestOutcome::Accepted(items) => assert_eq!(items, batch.len() as u64),
                    IngestOutcome::Busy => panic!("default queues must absorb this stream"),
                }
            }
        }));
    }
    for w in writers {
        w.join().expect("ingest client panicked");
    }
    stop.store(true, Ordering::Release);
    let query_rounds = querier.join().expect("query client panicked");
    assert!(query_rounds > 0, "the query client never ran");

    // Drain, then check wire answers against the exact reference: the
    // one-sided ε·m bound, same as in-process queries.
    engine.drain().unwrap();
    let mut client = Client::connect(addr).expect("verification client");
    let slack = (eps * m as f64).ceil() as u64 + 1;
    for (&item, &f) in &truth {
        let est = client.estimate(item).expect("estimate");
        assert!(est <= f, "estimate {est} above truth {f} for {item}");
        assert!(
            est + slack >= f,
            "estimate {est} under truth {f} by more than ε·m for {item}"
        );
    }
    let reported = client.heavy_hitters().expect("heavy hitters");
    for (&item, &f) in &truth {
        if f as f64 >= phi * m as f64 {
            assert!(
                reported.iter().any(|h| h.item == item),
                "missed φ-heavy item {item} over the wire"
            );
        }
    }
    // The instrumented engine serves its Prometheus text over the wire.
    let text = client.metrics_text().expect("metrics text");
    assert!(
        text.contains("psfa_"),
        "metrics endpoint returned no instrument families"
    );

    let metrics = server.shutdown();
    assert!(metrics.requests > 0);
    assert_eq!(metrics.frame_errors, 0);
    assert_eq!(metrics.active_connections, 0, "shutdown left connections");
    let report = engine.shutdown().unwrap();
    assert_eq!(
        report.total_items(),
        m,
        "the wire path lost or duplicated items"
    );
}

#[test]
fn tiny_queue_engine_sheds_load_with_busy() {
    // One shard, capacity-1 queue, and a worker that sleeps per batch: the
    // server must answer Busy rather than buffer.
    let slow_worker = FaultPlan::new().with_worker_delay(0, Duration::from_millis(3));
    let engine = Engine::spawn(
        EngineConfig::with_shards(1)
            .queue_capacity(1)
            .heavy_hitters(0.05, 0.01)
            .fault_injection(slow_worker),
    );
    let config = ServeConfig::default();
    let inflight_cap = (config.max_connections * MAX_FRAME_LEN * 2) as u64;
    let server = Server::spawn(engine.handle(), config).expect("server");
    let mut client = Client::connect(server.local_addr()).expect("client");

    let batch: Vec<u64> = (0..2_000u64).collect();
    let mut accepted = 0u64;
    let mut busy = 0u64;
    for _ in 0..200 {
        match client.ingest(&batch).expect("ingest over the wire") {
            IngestOutcome::Accepted(items) => {
                assert_eq!(items, batch.len() as u64);
                accepted += 1;
            }
            IngestOutcome::Busy => busy += 1,
        }
    }
    assert!(busy > 0, "an overdriven capacity-1 queue must answer Busy");
    assert!(accepted > 0, "some batches must still get through");

    let metrics = server.shutdown();
    assert_eq!(metrics.busy_responses, busy);
    // Shedding, not buffering: one request and one response frame per
    // connection is all the server ever held.
    assert!(
        metrics.peak_inflight_bytes > 0 && metrics.peak_inflight_bytes <= inflight_cap,
        "peak in-flight bytes {} outside (0, {inflight_cap}]",
        metrics.peak_inflight_bytes
    );
    engine.drain().unwrap();
    let report = engine.shutdown().unwrap();
    // Busy is clean: exactly the acknowledged batches reached the engine.
    assert_eq!(report.total_items(), accepted * batch.len() as u64);
}

#[test]
fn retrying_client_survives_injected_connection_drops() {
    // Every connection serves three frames and swallows the fourth without
    // a response, like a mid-flight partition.
    let engine = Engine::spawn(EngineConfig::with_shards(2).heavy_hitters(0.05, 0.01));
    let config =
        ServeConfig::default().fault_injection(FaultPlan::new().with_connection_drop_after(3));
    let server = Server::spawn(engine.handle(), config).expect("server");
    let policy = RetryPolicy::default().base_delay(Duration::from_millis(1));
    let mut client = Client::connect(server.local_addr())
        .expect("client")
        .retry(policy);

    let batches = zipf_batches(12, 1_000, 3);
    for batch in &batches {
        let outcome = client
            .ingest(batch)
            .expect("ingest must ride out the drops");
        assert_eq!(outcome, IngestOutcome::Accepted(batch.len() as u64));
    }
    assert!(client.reconnects() > 0, "dropped streams force reconnects");

    let metrics = server.shutdown();
    assert!(metrics.injected_drops > 0);
    engine.drain().unwrap();
    // A swallowed request was never applied, so its retry is the only
    // application: the count is exact, not "at least".
    assert_eq!(engine.handle().total_items(), 12_000);
    engine.shutdown().unwrap();
}

#[test]
fn client_without_a_retry_policy_reports_a_dropped_stream_and_never_reconnects() {
    let engine = Engine::spawn(EngineConfig::with_shards(2).heavy_hitters(0.05, 0.01));
    let config =
        ServeConfig::default().fault_injection(FaultPlan::new().with_connection_drop_after(3));
    let server = Server::spawn(engine.handle(), config).expect("server");
    let mut client = Client::connect(server.local_addr()).expect("client");
    // Three frames are served; the fourth is swallowed and the stream
    // closed, and the fifth goes to the same dead stream.
    for frame in 0..5 {
        let outcome = client.ingest(&[7; 100]);
        if frame < 3 {
            assert_eq!(outcome.expect("served"), IngestOutcome::Accepted(100));
        } else {
            assert!(matches!(outcome, Err(ClientError::Frame(_))), "{outcome:?}");
        }
    }
    assert_eq!((client.reconnects(), client.busy_retries()), (0, 0));
    assert_eq!(server.shutdown().connections_accepted, 1);
    engine.drain().unwrap();
    assert_eq!(engine.handle().total_items(), 300);
    engine.shutdown().unwrap();
}

#[test]
fn oversize_ingest_is_refused_typed_and_the_connection_survives() {
    let engine = Engine::spawn(EngineConfig::with_shards(2).heavy_hitters(0.05, 0.01));
    let server = Server::spawn(engine.handle(), ServeConfig::default()).expect("server");
    let addr = server.local_addr();
    // tag · version · kind · u32 count, then 8 bytes per item.
    let most = (MAX_FRAME_LEN - 7) / 8;
    assert_eq!(most, 524_287);
    let batch: Vec<u64> = (0..most as u64 + 1).map(|i| i % 1_000).collect();

    let mut client = Client::connect(addr).expect("client");
    assert_eq!(
        client.ingest(&batch[..most]).expect("the largest frame"),
        IngestOutcome::Accepted(most as u64)
    );
    match client.ingest(&batch) {
        Err(ClientError::Frame(FrameError::Oversize { len })) => {
            assert_eq!(len, 7 + 8 * (most + 1))
        }
        other => panic!("expected a typed Oversize refusal, got {other:?}"),
    }
    // Nothing was written, so the same connection carries on.
    assert_eq!(
        client
            .ingest(&[7, 7, 3])
            .expect("small batch after the refusal"),
        IngestOutcome::Accepted(3)
    );

    let mut retrying = Client::connect(addr)
        .expect("client")
        .retry(RetryPolicy::default());
    assert!(matches!(
        retrying.ingest(&batch),
        Err(ClientError::Frame(FrameError::Oversize { .. }))
    ));
    assert_eq!(retrying.reconnects(), 0);
    assert_eq!(retrying.busy_retries(), 0);
    assert_eq!(
        retrying.ingest(&[7]).expect("small batch"),
        IngestOutcome::Accepted(1)
    );
    assert_eq!(retrying.reconnects(), 0);

    let metrics = server.shutdown();
    assert_eq!(metrics.frame_errors, 0);
    engine.drain().unwrap();
    assert_eq!(engine.handle().total_items(), most as u64 + 4);
    engine.shutdown().unwrap();
}

#[test]
fn graceful_shutdown_answers_inflight_and_leaves_the_engine_usable() {
    let engine = Engine::spawn(EngineConfig::with_shards(2).heavy_hitters(0.05, 0.01));
    let server = Server::spawn(engine.handle(), ServeConfig::default()).expect("server");
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("client");
    for batch in zipf_batches(6, 5_000, 5) {
        match client.ingest(&batch).expect("ingest") {
            IngestOutcome::Accepted(items) => assert_eq!(items, batch.len() as u64),
            IngestOutcome::Busy => panic!("default queues must absorb this stream"),
        }
    }
    // An idle second connection is open throughout the shutdown.
    let mut idle = Client::connect(addr).expect("idle client");
    idle.ping().expect("ping before shutdown");

    // Shutdown blocks until every handler thread has exited; every request
    // answered above was acknowledged before its connection closed.
    let metrics = server.shutdown();
    assert_eq!(metrics.active_connections, 0);
    assert_eq!(metrics.frame_errors, 0);
    assert!(metrics.ingested_items >= 30_000);

    // The closed socket surfaces as a typed client error, not a hang.
    assert!(idle.ping().is_err(), "the server socket must be closed");

    // The engine is untouched by the front end going away: every
    // acknowledged item is drained and queryable in-process.
    engine.drain().unwrap();
    let handle = engine.handle();
    assert_eq!(handle.total_items(), 30_000);
    assert!(!handle.heavy_hitters().is_empty());
    engine.shutdown().unwrap();
}

#[test]
fn shutdown_wakes_an_idle_connection_and_fails_a_half_sent_frame_at_once() {
    let engine = Engine::spawn(EngineConfig::with_shards(2).heavy_hitters(0.05, 0.01));
    let server = Server::spawn(engine.handle(), ServeConfig::default()).expect("server");
    let addr = server.local_addr();

    let mut idle = Client::connect(addr).expect("idle client");
    idle.ping().expect("ping before shutdown");
    // A header announcing 64 payload bytes, then only 10 of them.
    let mut half = TcpStream::connect(addr).expect("raw stream");
    half.write_all(&64u32.to_le_bytes()).unwrap();
    half.write_all(&[0u8; 10]).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.metrics().connections_accepted < 2 {
        assert!(
            Instant::now() < deadline,
            "the raw stream was never accepted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let started = Instant::now();
    let metrics = server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "shutdown must not wait on an idle or half-sent connection: {:?}",
        started.elapsed()
    );
    assert_eq!(metrics.frame_errors, 1, "the half-sent frame fails");
    assert_eq!(metrics.active_connections, 0);
    assert!(idle.ping().is_err(), "the idle connection is closed");
    drop(half);
    engine.shutdown().unwrap();
}

#[test]
fn a_hostile_length_closes_its_connection_before_any_buffer_grows() {
    let engine = Engine::spawn(EngineConfig::with_shards(2).heavy_hitters(0.05, 0.01));
    let server = Server::spawn(engine.handle(), ServeConfig::default()).expect("server");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("client");

    let mut hostile = TcpStream::connect(addr).expect("raw stream");
    hostile
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    hostile
        .write_all(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes())
        .unwrap();
    let mut reply = Vec::new();
    hostile
        .read_to_end(&mut reply)
        .expect("the server closes the hostile connection");
    assert!(reply.is_empty(), "no answer to an oversize header");
    let metrics = server.metrics();
    assert_eq!(metrics.frame_errors, 1);
    assert_eq!(
        metrics.peak_inflight_bytes, 0,
        "nothing was read into a buffer"
    );

    // The well-formed connection opened before the hostile one is served.
    assert_eq!(
        client.ingest(&[7, 7, 3]).expect("ingest"),
        IngestOutcome::Accepted(3)
    );
    engine.drain().unwrap();
    assert_eq!(client.estimate(7).expect("estimate"), 2);
    let metrics = server.shutdown();
    assert_eq!(metrics.frame_errors, 1);
    assert_eq!(metrics.requests, 2);
    engine.shutdown().unwrap();
}
