//! The names this benchmark reports, mirrored by `../BENCHMARK.json` (a
//! test keeps the two in step). Units live here so a metric can never be
//! emitted with a unit the contract does not declare.

/// The five workloads; the names are normative (see README.md for why each
/// exists and which layers it bypasses).
pub const WORKLOADS: [&str; 5] = [
    "ingest_skew",
    "ingest_flat_window",
    "query_mix",
    "serve_mixed",
    "durable_recover",
];

/// Which way an end-to-end metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// End-to-end metrics: `(name, unit, better)`. Every workload reports
/// every one of them with tracing off. Bounds are fixed in
/// `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str, Better); 6] = [
    ("setup_s", "s", Better::Lower),
    ("items_per_s", "1/s", Better::Higher),
    ("cpu_ns_per_item", "ns", Better::Lower),
    ("queries_per_s", "1/s", Better::Higher),
    ("hh_p50_us", "us", Better::Lower),
    ("peak_rss_mb", "MB", Better::Lower),
];

/// Per-layer metrics: `(name, unit)`, grouped by the module they time.
/// Every workload reports every one of them in the traced run; a layer the
/// workload bypasses reports 0, which is itself a prediction to check.
pub const PER_LAYER: [(&str, &str); 68] = [
    // psfa-serve: protocol codec, client calls, server counters.
    ("serve.protocol.decode_ns_per_item", "ns"),
    ("serve.protocol.encode_ns_per_item", "ns"),
    ("serve.protocol.frame_bytes_per_item", "B"),
    ("serve.client.ingest_call_us_p50", "us"),
    ("serve.client.ingest_call_us_p99", "us"),
    ("serve.client.estimate_p50_us", "us"),
    ("serve.client.hh_p99_us", "us"),
    ("serve.wire_overhead_ns_per_item", "ns"),
    ("serve.server.requests", "count"),
    ("serve.server.busy", "count"),
    ("serve.server.peak_inflight_bytes", "B"),
    ("loadgen.lateness_p99_us", "us"),
    ("loadgen.late_share", "ratio"),
    // psfa-stream: router, lanes, fence, buffer pool.
    ("stream.router.partition_ns_per_item", "ns"),
    ("stream.router.partition_imbalance", "ratio"),
    ("stream.router.hot_keys", "count"),
    ("stream.router.promotions", "count"),
    ("stream.lane.push_pop_ns_per_batch", "ns"),
    ("stream.fence.claim_ns_per_batch", "ns"),
    ("stream.fence.boundaries", "count"),
    ("stream.pool.hit_ratio", "ratio"),
    // psfa-primitives: buildHist, ArcCell.
    ("primitives.histogram.build_ns_per_item", "ns"),
    ("primitives.histogram.distinct_per_batch", "count"),
    ("primitives.arc_cell.set_ns", "ns"),
    ("primitives.arc_cell.get_ns", "ns"),
    // psfa-freq and psfa-sketch: the per-distinct summary work.
    ("freq.mg.augment_ns_per_distinct", "ns"),
    ("freq.mg.cutoff_batch_share", "ratio"),
    ("sketch.cm.ingest_ns_per_distinct", "ns"),
    ("sketch.cm.query_ns", "ns"),
    ("freq.windowed.process_ns_per_distinct", "ns"),
    ("freq.windowed.seal_us", "us"),
    ("freq.windowed.global_merge_us", "us"),
    // psfa-engine: spans around public calls and EngineMetrics.
    ("engine.ingest_call_us_p50", "us"),
    ("engine.queue_depth_mean", "count"),
    ("engine.drain_ms", "ms"),
    ("engine.items_processed", "count"),
    ("engine.batches_processed", "count"),
    ("engine.work_units_per_item", "ratio"),
    ("engine.worker_restarts", "count"),
    // psfa-engine with observe() on (ObsReport).
    ("engine.enqueue_wait_us_p50", "us"),
    ("engine.batch_service_us_p50", "us"),
    ("engine.publish_staleness_us_p50", "us"),
    ("engine.republish_count", "count"),
    ("engine.window.max_shard_lag", "count"),
    // The query plane, one span per query kind.
    ("engine.query.estimate_ns_p50", "ns"),
    ("engine.query.cm_estimate_ns_p50", "ns"),
    ("engine.query.sliding_estimate_us_p50", "us"),
    ("engine.query.hh_p99_us", "us"),
    ("engine.query.sliding_hh_p50_us", "us"),
    ("engine.query.sliding_hh_p99_us", "us"),
    ("engine.query.freshness_p50_us", "us"),
    ("engine.query.freshness_p99_us", "us"),
    // psfa-store: the run's own latest record through the store.
    ("store.append_ms_p50", "ms"),
    ("store.load_ms_p50", "ms"),
    ("store.record_decode_ms_p50", "ms"),
    ("store.bytes_per_epoch", "B"),
    ("store.epochs_persisted", "count"),
    ("store.flush_failures", "count"),
    ("store.recover_ms_p50", "ms"),
    ("store.recover_ms_p99", "ms"),
    // References and reconciliation.
    ("baseline.single_thread_items_per_s", "1/s"),
    ("bench.stage_sum_ns_per_item", "ns"),
    ("bench.stage_sum_share", "ratio"),
    ("bench.tracing_overhead_share", "ratio"),
    ("bench.failed_share", "ratio"),
    ("bench.spans_recorded", "count"),
    ("bench.traced_items_per_s", "1/s"),
    ("bench.traced_cpu_ns_per_item", "ns"),
];

pub fn end_to_end(name: &str) -> (&'static str, Better) {
    END_TO_END
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|&(_, unit, better)| (unit, better))
        .unwrap_or_else(|| panic!("end-to-end metric {name} is not declared in spec.rs"))
}

pub fn per_layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .unwrap_or_else(|| panic!("per-layer metric {name} is not declared in spec.rs"))
}
