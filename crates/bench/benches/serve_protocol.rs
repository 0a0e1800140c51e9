//! The ingest wire path of `psfa-serve`, off the socket: one 8,192-item
//! ingest frame (the repo benchmark's `serve_mixed` frame size) encoded —
//! `Request::encode` then `write_frame` into a reused `Vec<u8>` — and
//! decoded — `read_frame` into a reused buffer then `Request::decode`. The
//! same two steps the benchmark replays as `serve.protocol.encode_ns_per_item`
//! and `serve.protocol.decode_ns_per_item`; ns/item is µs/iter × 1000 / 8192.
//!
//! Only public protocol API is used, so the file runs unchanged on an older
//! revision for a before/after comparison.

mod common;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use psfa::serve::protocol::{read_frame, write_frame};
use psfa::serve::Request;
use psfa_bench::zipf_minibatches;

const FRAME_ITEMS: usize = 8192;

fn bench_protocol(c: &mut Criterion) {
    let items = zipf_minibatches(1 << 20, 1.2, 1, FRAME_ITEMS, 29).remove(0);
    let request = Request::IngestBatch(items);
    let mut wire = Vec::new();
    write_frame(&mut wire, &request.encode()).expect("write to a Vec");

    let mut group = c.benchmark_group("serve_protocol");
    group.throughput(Throughput::Elements(FRAME_ITEMS as u64));
    group.bench_function("encode_ingest_frame_8192", |b| {
        let mut out = Vec::with_capacity(wire.len());
        b.iter(|| {
            out.clear();
            write_frame(&mut out, &request.encode()).expect("write to a Vec");
            black_box(out.len())
        })
    });
    group.bench_function("decode_ingest_frame_8192", |b| {
        let mut payload = Vec::new();
        b.iter(|| {
            let len = read_frame(&mut wire.as_slice(), &mut payload)
                .expect("a whole frame")
                .expect("one frame");
            Request::decode(&payload[..len]).expect("frame just encoded")
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = common::config();
    targets = bench_protocol
}
criterion_main!(benches);
