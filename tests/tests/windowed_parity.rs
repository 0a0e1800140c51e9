//! The acceptance test for globally consistent sliding windows: the
//! engine's aligned-window answers must match a single-threaded *exact*
//! sliding window over the same global stream, within the paper's
//! one-sided `ε·n_W` bound — under skew-aware routing, where per-shard
//! substreams are maximally uneven (the hot key is dealt round-robin
//! across every shard), and identically under plain hash routing.
//!
//! The stream is driven by a single producer with the batch size equal to
//! the window slide, so every boundary lands exactly between two ingest
//! calls and the aligned window covers a *known* item range: the exact
//! baseline fed the same batches covers precisely the same items.

use std::collections::HashMap;

use psfa::prelude::*;

const SHARDS: usize = 4;
const PHI: f64 = 0.02;
const EPSILON: f64 = 0.004;
const WINDOW: u64 = 20_000;
const PANES: usize = 8;
const SLIDE: usize = (WINDOW as usize) / PANES; // 2500: one boundary per batch
const BATCHES: usize = 32;

fn run(routing: RoutingPolicy) {
    let engine = Engine::spawn(
        EngineConfig::with_shards(SHARDS)
            .heavy_hitters(PHI, EPSILON)
            .sliding_window(WINDOW)
            .window_panes(PANES)
            .routing(routing),
    );
    let handle = engine.handle();
    let mut generator = ZipfGenerator::new(50_000, 1.5, 777);
    let mut exact = ExactSlidingWindow::new(WINDOW);
    let checkpoints = [1usize, 4, 8, 16, 24, 32];

    for t in 1..=BATCHES {
        let batch = generator.next_minibatch(SLIDE);
        handle.ingest(&batch).unwrap();
        exact.process_minibatch(&batch);
        if !checkpoints.contains(&t) {
            continue;
        }
        engine.drain().unwrap();

        // The aligned cut: boundary t, covering the last min(t, 8) panes —
        // exactly the items the exact window holds.
        let window = handle
            .global_window()
            .unwrap_or_else(|| panic!("{}: no aligned window at boundary {t}", routing.name()));
        assert_eq!(window.seq(), t as u64, "{}: wrong boundary", routing.name());
        let n_w = (t.min(PANES) * SLIDE) as u64;
        assert_eq!(
            window.items(),
            n_w,
            "{}: wrong window coverage",
            routing.name()
        );
        assert_eq!(exact.len() as u64, n_w, "baseline covers the same items");

        // Point parity on every key alive in the window: one-sided, within
        // ε·n_W of the exact count.
        let truth: HashMap<u64, u64> = exact.entries().into_iter().collect();
        let slack = (EPSILON * n_w as f64).ceil() as u64;
        for (&item, &f) in &truth {
            let est = window.estimate(item);
            assert!(
                est <= f,
                "{} boundary {t}: window estimate {est} above exact {f} for {item}",
                routing.name()
            );
            assert!(
                est + slack >= f,
                "{} boundary {t}: window estimate {est} under exact {f} for {item} \
                 by more than ε·n_W = {slack}",
                routing.name()
            );
        }

        // Heavy-hitter parity: completeness above φ·n_W, soundness below
        // (φ − ε)·n_W, sorted most frequent first.
        let reported = handle.sliding_heavy_hitters();
        for pair in reported.windows(2) {
            assert!(pair[0].estimate >= pair[1].estimate, "unsorted");
        }
        let reported_items: Vec<u64> = reported.iter().map(|h| h.item).collect();
        for (&item, &f) in &truth {
            if f as f64 >= PHI * n_w as f64 {
                assert!(
                    reported_items.contains(&item),
                    "{} boundary {t}: missed window heavy hitter {item} (f = {f}, n_W = {n_w})",
                    routing.name()
                );
            }
            if (f as f64) < (PHI - EPSILON) * n_w as f64 {
                assert!(
                    !reported_items.contains(&item),
                    "{} boundary {t}: false positive {item} (f = {f})",
                    routing.name()
                );
            }
        }
        // Every reported item is genuinely in the window.
        for h in &reported {
            assert!(
                truth.contains_key(&h.item),
                "{} boundary {t}: reported item {} not in the window at all",
                routing.name(),
                h.item
            );
        }
    }

    // Under skew routing the Zipf(1.5) head keys must actually have been
    // split — the parity above then covers replicated keys, not just
    // owner-routed ones.
    let metrics = handle.metrics();
    if routing.name() == "skew-aware" {
        assert!(
            !metrics.hot_keys.is_empty(),
            "Zipf(1.5) must promote hot keys, or this test exercises nothing"
        );
        let hot = metrics.hot_keys[0];
        assert_eq!(handle.placement(hot), Placement::Replicated);
        // The replicated key's window estimate still matched `exact` above;
        // double-check it is non-trivial (the head key dominates traffic).
        assert!(handle.sliding_estimate(hot) > 0);
    }
    let wm = metrics.window.expect("window metrics");
    assert_eq!(wm.boundaries, BATCHES as u64);
    assert_eq!(wm.max_shard_lag, 0, "drained engine has no boundary lag");
    engine.shutdown().unwrap();
}

#[test]
fn global_window_matches_exact_baseline_under_skew_routing() {
    run(RoutingPolicy::skew_aware());
}

#[test]
fn global_window_matches_exact_baseline_under_hash_routing() {
    run(RoutingPolicy::Hash);
}
