//! Property-based tests for the parallel primitives: every primitive must
//! agree with its obvious sequential specification on arbitrary inputs.

use proptest::prelude::*;
use std::collections::HashMap;

use psfa_primitives::intsort::sort_indices_by_key;
use psfa_primitives::{
    build_hist, build_hist_into, kth_smallest, pack, pack_indices, phi_cutoff, phi_cutoff_in_place,
    scan_exclusive, scan_inclusive, CompactedSegment, HistScratch,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scan_exclusive_matches_sequential(input in prop::collection::vec(0u64..1000, 0..5000)) {
        let (pre, total) = scan_exclusive(&input);
        let mut acc = 0u64;
        for (i, &x) in input.iter().enumerate() {
            prop_assert_eq!(pre[i], acc);
            acc += x;
        }
        prop_assert_eq!(total, acc);
    }

    #[test]
    fn scan_inclusive_is_running_sum(input in prop::collection::vec(0u64..1000, 0..5000)) {
        let inc = scan_inclusive(&input);
        let mut acc = 0u64;
        for (i, &x) in input.iter().enumerate() {
            acc += x;
            prop_assert_eq!(inc[i], acc);
        }
    }

    #[test]
    fn pack_matches_filter(
        input in prop::collection::vec(0u32..100, 0..4000),
        seed in 0u64..u64::MAX,
    ) {
        let flags: Vec<bool> = input
            .iter()
            .enumerate()
            .map(|(i, &x)| (x as u64).wrapping_mul(seed).wrapping_add(i as u64) % 3 == 0)
            .collect();
        let got = pack(&input, &flags);
        let want: Vec<u32> = input
            .iter()
            .zip(&flags)
            .filter_map(|(&x, &f)| if f { Some(x) } else { None })
            .collect();
        prop_assert_eq!(got, want);
        let idx = pack_indices(&flags);
        let want_idx: Vec<usize> = (0..input.len()).filter(|&i| flags[i]).collect();
        prop_assert_eq!(idx, want_idx);
    }

    #[test]
    fn intsort_is_stable_and_sorted(keys in prop::collection::vec(0u64..512, 0..4000)) {
        let perm = sort_indices_by_key(&keys, 512);
        prop_assert_eq!(perm.len(), keys.len());
        for w in perm.windows(2) {
            let (a, b) = (w[0] as usize, w[1] as usize);
            prop_assert!(keys[a] < keys[b] || (keys[a] == keys[b] && a < b));
        }
        let mut seen = vec![false; keys.len()];
        for &i in &perm {
            prop_assert!(!seen[i as usize]);
            seen[i as usize] = true;
        }
    }

    #[test]
    fn kth_smallest_matches_sorting(
        values in prop::collection::vec(0u64..10_000, 1..3000),
        rank_frac in 0.0f64..1.0,
    ) {
        let k = ((values.len() - 1) as f64 * rank_frac) as usize;
        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(kth_smallest(&values, k), sorted[k]);
    }

    #[test]
    fn phi_cutoff_properties(
        values in prop::collection::vec(1u64..1000, 0..2000),
        s in 1usize..200,
    ) {
        let phi = phi_cutoff(&values, s);
        let survivors = values.iter().filter(|&&v| v > phi).count();
        prop_assert!(survivors <= s);
        if phi > 0 {
            let touched = values.iter().filter(|&&v| v >= phi).count();
            prop_assert!(touched >= s);
        }
        // The in-place hot-path variant selects the identical cut-off.
        let mut scratch = values.clone();
        prop_assert_eq!(phi_cutoff_in_place(&mut scratch, s), phi);
    }

    #[test]
    fn build_hist_matches_hashmap(
        // Few distinct keys, many, and the two edge keys; lengths on both
        // sides of `SEQ_THRESHOLD`.
        items in prop::collection::vec(
            prop_oneof![0u64..300, any::<u64>(), Just(0u64), Just(u64::MAX)],
            0..6000,
        ),
        seed in any::<u64>(),
    ) {
        let mut want: HashMap<u64, u64> = HashMap::new();
        let mut order = Vec::new();
        for &x in &items {
            let count = want.entry(x).or_insert(0);
            if *count == 0 {
                order.push(x);
            }
            *count += 1;
        }
        let hist = build_hist(&items, seed);
        prop_assert_eq!(hist.len(), want.len());
        for e in &hist {
            prop_assert_eq!(want.get(&e.item).copied(), Some(e.count));
        }

        // The kernel: one scratch across a growing then shrinking run of
        // batches (a fresh table doubles mid-batch, a warm one is sized by
        // the previous batch), a second scratch with its own random key and
        // another seed. Rows are exact, in first-occurrence order, and the
        // same from both.
        let (mut scratch, mut other) = (HistScratch::new(), HistScratch::new());
        let (mut out, mut other_out) = (Vec::new(), Vec::new());
        let n = items.len();
        for end in [n / 7, n / 2, n, n / 3, n / 50, n] {
            let batch = &items[..end];
            build_hist_into(batch, seed, &mut scratch, &mut out);
            build_hist_into(batch, !seed, &mut other, &mut other_out);
            prop_assert_eq!(&out, &other_out);
            let mut seen: HashMap<u64, u64> = HashMap::new();
            for &x in batch {
                *seen.entry(x).or_insert(0) += 1;
            }
            let rows = order.iter().filter(|x| seen.contains_key(x));
            prop_assert!(out.iter().map(|e| &e.item).eq(rows));
            for e in &out {
                prop_assert_eq!(seen.get(&e.item).copied(), Some(e.count));
            }
        }
    }

    #[test]
    fn css_roundtrips(bits in prop::collection::vec(any::<bool>(), 0..5000)) {
        let css = CompactedSegment::from_bits(&bits);
        prop_assert_eq!(css.len() as usize, bits.len());
        prop_assert_eq!(css.to_bits(), bits.clone());
        prop_assert_eq!(css.count_ones() as usize, bits.iter().filter(|&&b| b).count());
    }

    #[test]
    fn css_concat_is_bit_concat(
        a in prop::collection::vec(any::<bool>(), 0..2000),
        b in prop::collection::vec(any::<bool>(), 0..2000),
    ) {
        let ca = CompactedSegment::from_bits(&a);
        let cb = CompactedSegment::from_bits(&b);
        let mut joined = a.clone();
        joined.extend_from_slice(&b);
        prop_assert_eq!(ca.concat(&cb), CompactedSegment::from_bits(&joined));
    }
}
