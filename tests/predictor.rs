//! Properties of the all-state lookback-2 predictor (§IV-A).
//!
//! The key guarantee the paper relies on: "the real start state on the
//! current chunk must be contained in the produced end state set" — the
//! containment property that makes the speculation queues a sound basis for
//! exhaustive recovery.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use gspecpal::partition::partition;
use gspecpal::predict::{lookback_queue, predict};
use gspecpal::specq::SpecQueue;
use gspecpal::table::DeviceTable;
use gspecpal::{Selector, SelectorProfile};
use gspecpal_fsm::random::{random_dfa, random_input};
use gspecpal_fsm::{Dfa, StateId};
use gspecpal_gpu::DeviceSpec;
use proptest::prelude::*;

/// The predictor's queue by definition: every state run over the whole
/// window, end states counted and ranked by (descending count, ascending
/// id).
fn naive_queue(dfa: &Dfa, window: &[u8]) -> SpecQueue {
    let mut counts: BTreeMap<StateId, u32> = BTreeMap::new();
    for s in 0..dfa.n_states() {
        *counts.entry(dfa.run_from(s, window)).or_default() += 1;
    }
    let mut ranked: Vec<(StateId, u32)> = counts.into_iter().collect();
    ranked.sort_by_key(|&(s, f)| (Reverse(f), s));
    SpecQueue::from_ranked(ranked)
}

/// [`Selector::profile`]'s speculation-quality columns by definition: the
/// truth's rank in the naive queue at every sampled boundary.
fn naive_profile(sel: &Selector, dfa: &Dfa, training: &[u8]) -> (f64, f64, usize, f64) {
    let boundaries = sel.boundaries.max(sel.portions).min(training.len().max(1));
    let trace = dfa.run_trace(dfa.start(), training);
    let (mut hits, mut totals) = (vec![0u32; sel.portions], vec![0u32; sel.portions]);
    let (mut spec1, mut spec4, mut worst, mut total) = (0u32, 0u32, 1usize, 0u32);
    for b in 0..boundaries {
        let pos = (b + 1) * training.len() / (boundaries + 1);
        if pos < sel.lookback || pos == 0 || pos > training.len() {
            continue;
        }
        let queue = naive_queue(dfa, &training[pos - sel.lookback..pos]);
        let rank = queue.rank_of(trace[pos - 1]).expect("containment") + 1;
        total += 1;
        worst = worst.max(rank);
        let portion = (pos * sel.portions / training.len().max(1)).min(sel.portions - 1);
        totals[portion] += 1;
        if rank == 1 {
            spec1 += 1;
            hits[portion] += 1;
        }
        spec4 += u32::from(rank <= 4);
    }
    let frac = |h: u32| if total == 0 { 0.0 } else { f64::from(h) / f64::from(total) };
    let accs: Vec<f64> = hits
        .iter()
        .zip(&totals)
        .filter(|&(_, &t)| t > 0)
        .map(|(&h, &t)| f64::from(h) / f64::from(t))
        .collect();
    let spread = match (
        accs.iter().cloned().fold(f64::INFINITY, f64::min),
        accs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    ) {
        (lo, hi) if lo.is_finite() && hi.is_finite() => hi - lo,
        _ => 0.0,
    };
    (frac(spec1), frac(spec4), worst, spread)
}

fn quality(p: &SelectorProfile) -> (f64, f64, usize, f64) {
    (p.spec1_accuracy, p.spec4_accuracy, p.worst_truth_rank, p.accuracy_spread)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn truth_is_always_contained(
        seed in 0u64..10_000,
        n_states in 1u32..60,
        n_classes in 1u16..16,
        input_len in 8usize..1500,
        n_chunks in 2usize..24,
        lookback in 1usize..5,
    ) {
        let dfa = random_dfa(seed, n_states, n_classes);
        let input = random_input(seed ^ 0xABCD, input_len);
        let chunks = partition(input.len(), n_chunks.min(input_len));
        let table = DeviceTable::transformed(&dfa, dfa.n_states());
        let pred = predict(&table, &input, &chunks, lookback, &DeviceSpec::test_unit());
        for (i, chunk) in chunks.iter().enumerate() {
            let truth = dfa.run(&input[..chunk.start]);
            prop_assert!(
                pred.queues[i].candidates().any(|s| s == truth),
                "chunk {i}: truth {truth} not in queue"
            );
        }
    }

    #[test]
    fn queue_sizes_bounded_by_state_count(
        seed in 0u64..5_000,
        n_states in 1u32..50,
        window_len in 0usize..6,
    ) {
        let dfa = random_dfa(seed, n_states, 8);
        let window = random_input(seed ^ 0x77, window_len);
        let q = lookback_queue(&dfa, &window);
        prop_assert!(q.initial_len() >= 1);
        prop_assert!(q.initial_len() <= n_states as usize);
    }

    #[test]
    fn queue_frequencies_sum_to_state_count(
        seed in 0u64..5_000,
        n_states in 1u32..50,
    ) {
        // Every start state maps to exactly one end state, so the candidate
        // multiplicities partition |Q|. Verify via rank structure: the
        // number of candidates with the top frequency times that frequency
        // cannot exceed |Q|.
        let dfa = random_dfa(seed, n_states, 6);
        let window = random_input(seed ^ 0x99, 2);
        let q = lookback_queue(&dfa, &window);
        // All candidates must be distinct states.
        let mut seen: Vec<_> = q.candidates().collect();
        let before = seen.len();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), before, "candidates are distinct");
    }

    #[test]
    fn ranking_is_by_descending_preimage_count(
        seed in 0u64..2_000,
        n_states in 2u32..40,
    ) {
        let dfa = random_dfa(seed, n_states, 4);
        let window = random_input(seed ^ 0x55, 2);
        let q = lookback_queue(&dfa, &window);
        // Recompute preimage counts and check monotonicity along the queue.
        let count = |target| {
            (0..n_states).filter(|&s| dfa.run_from(s, &window) == target).count()
        };
        let counts: Vec<usize> = q.candidates().map(count).collect();
        for w in counts.windows(2) {
            prop_assert!(w[0] >= w[1], "queue must be ranked by frequency: {counts:?}");
        }
        prop_assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn image_walk_queues_equal_the_naive_all_state_walk(
        seed in 0u64..10_000,
        n_states in 1u32..70,
        n_classes in 1u16..16,
        input_len in 8usize..400,
        n_chunks in 2usize..24,
        lookback in 0usize..5,
    ) {
        let dfa = random_dfa(seed, n_states, n_classes);
        let input = random_input(seed ^ 0x1D, input_len);
        let chunks = partition(input.len(), n_chunks.min(input_len));
        let table = DeviceTable::transformed(&dfa, dfa.n_states());
        let spec = DeviceSpec::test_unit();
        let first = predict(&table, &input, &chunks, lookback, &spec);
        let built = table.first_step_images().built();
        prop_assert!(lookback == 0 || built > 0, "a walk over a window builds its first image");
        // The second call walks from the images the first one built.
        let second = predict(&table, &input, &chunks, lookback, &spec);
        prop_assert_eq!(table.first_step_images().built(), built);
        for chunk in &chunks[1..] {
            let window = &input[chunk.start.saturating_sub(lookback)..chunk.start];
            let naive = naive_queue(&dfa, window);
            let i = chunks.iter().position(|c| c == chunk).unwrap();
            prop_assert_eq!(&first.queues[i], &naive, "window {:?}", window);
            prop_assert_eq!(&second.queues[i], &naive, "window {:?} (reused images)", window);
            prop_assert_eq!(&lookback_queue(&dfa, window), &naive, "one-off {:?}", window);
        }
        prop_assert_eq!(first.stats, second.stats);
    }

    #[test]
    fn selector_profile_ranks_the_truth_like_the_naive_queue(
        seed in 0u64..5_000,
        n_states in 1u32..50,
        n_classes in 1u16..12,
        training_len in 1usize..3_000,
        lookback in 1usize..4,
    ) {
        let dfa = random_dfa(seed, n_states, n_classes);
        let training = random_input(seed ^ 0x7A, training_len);
        let sel = Selector { lookback, ..Selector::default() };
        let expect = naive_profile(&sel, &dfa, &training);
        prop_assert_eq!(quality(&sel.profile(&dfa, &training)), expect);
        let table = DeviceTable::transformed(&dfa, 0);
        prop_assert_eq!(quality(&sel.profile_table(&table, &training)), expect);
        // Profiling leaves its images for the table's predictions.
        prop_assert!(table.first_step_images().built() > 0 || training_len < lookback + 2);
    }
}

#[test]
fn prediction_cost_is_roughly_constant_in_chunk_size() {
    // §III-C treats prediction cost as a constant C: it must not scale with
    // the input length (only with |Q| and N).
    let dfa = random_dfa(5, 30, 8);
    let spec = DeviceSpec::test_unit();
    let short = random_input(6, 1_000);
    let long = random_input(6, 100_000);
    let chunks_short = partition(short.len(), 16);
    let chunks_long = partition(long.len(), 16);
    let table = DeviceTable::transformed(&dfa, dfa.n_states());
    let c_short = predict(&table, &short, &chunks_short, 2, &spec).stats.cycles;
    let c_long = predict(&table, &long, &chunks_long, 2, &spec).stats.cycles;
    // Queue sizes differ slightly with the window contents, but the cost
    // must not scale with the 100x difference in chunk length.
    let ratio = c_long as f64 / c_short as f64;
    assert!(
        (0.5..2.0).contains(&ratio),
        "prediction cost must not depend on chunk length: {c_short} vs {c_long}"
    );
}
