//! All-state lookback-2 state prediction (§IV-A).
//!
//! For every chunk boundary, the predictor executes FSM transitions starting
//! from *all* states over the last `lookback` (= 2) bytes preceding the
//! chunk, producing a set of possible start states ranked by frequency of
//! appearance. The FSM convergence property guarantees the true start state
//! is always contained in the produced set: the real execution path passes
//! through *some* state `lookback` bytes before the boundary, and running
//! every state forward necessarily includes it. (This containment is
//! property-tested in the crate's test suite.)
//!
//! The paper treats prediction cost as a constant `C` (§III-C) because the
//! per-boundary all-state walk is warp-cooperative and only two symbols
//! long; the device kernel here charges exactly that cooperative cost.
//!
//! The host computes the same walk without stepping every state at every
//! boundary. Each table memoizes, per byte class, the *first-step image*:
//! the distinct successors of all states on that class, each with its
//! preimage count ([`FirstStepImages`]). The walk starts from that image and
//! carries each entry's multiplicity over the remaining window bytes, so it
//! costs one step per surviving state instead of one per machine state. The
//! ranked queues are identical, and the device is still charged the
//! all-state constant.

use std::cmp::Reverse;
use std::ops::Range;
use std::sync::OnceLock;

use gspecpal_fsm::{Dfa, StateId};
use gspecpal_gpu::{
    launch_grid, BlockDim, DeviceSpec, GridKernel, KernelStats, Phase, RoundKernel, RoundOutcome,
    ThreadCtx,
};

use crate::specq::SpecQueue;
use crate::table::DeviceTable;

/// The output of the prediction phase: one ranked queue per chunk, plus the
/// simulated cost of producing them.
#[derive(Clone, Debug)]
pub struct Prediction {
    /// `queues[i]` is `QS_i`. `queues[0]` holds the machine's certain start
    /// state.
    pub queues: Vec<SpecQueue>,
    /// Cost of the prediction kernel (the constant `C` of Equation 1).
    pub stats: KernelStats,
}

/// Runs the all-state lookback predictor for every chunk.
pub fn predict(
    table: &DeviceTable<'_>,
    input: &[u8],
    chunks: &[Range<usize>],
    lookback: usize,
    spec: &DeviceSpec,
) -> Prediction {
    assert!(!chunks.is_empty(), "need at least one chunk");
    let dfa = table.dfa();
    let mut walk = Walk::new(dfa);
    let mut queues = Vec::with_capacity(chunks.len());
    queues.push(SpecQueue::certain(dfa.start()));
    for chunk in &chunks[1..] {
        let boundary = chunk.start;
        let lo = boundary.saturating_sub(lookback);
        walk.run(dfa, table.first_step_images(), &input[lo..boundary]);
        queues.push(SpecQueue::from_ranked(walk.ranked()));
    }

    // Device cost: each thread runs the all-state walk for its boundary
    // cooperatively across its warp (ceil(|Q| / warp) states per lane, each
    // `lookback` transitions of one shared-memory lookup + one ALU op), then
    // ranks the end-state set.
    let n_states = u64::from(dfa.n_states());
    let mut kernel = PredictCost {
        n_threads: chunks.len(),
        states_per_lane: n_states.div_ceil(u64::from(spec.warp_size)),
        lookback: lookback as u64,
        queue_sizes: queues.iter().map(|q| q.initial_len() as u64).collect(),
    };
    let stats = launch_grid(spec, chunks.len(), &mut kernel);
    Prediction { queues, stats }
}

/// Builds the ranked queue for one boundary window. One-off callers get the
/// same walk [`predict`] runs, over images built for this call only.
pub fn lookback_queue(dfa: &Dfa, window: &[u8]) -> SpecQueue {
    let mut walk = Walk::new(dfa);
    walk.run(dfa, &FirstStepImages::new(dfa), window);
    SpecQueue::from_ranked(walk.ranked())
}

/// One byte class's first-step image: `(successor, preimage count)` for
/// every distinct successor, in ascending state order. The counts sum to
/// the machine's state count.
type Image = Box<[(StateId, u32)]>;

/// Per-class first-step images of one machine, each built on first use.
///
/// Building an image steps every state once; a class no window starts with
/// is never built. A memo is only reachable through the [`DeviceTable`] of
/// the machine it describes, and every job run on that table shares it.
#[derive(Clone)]
pub struct FirstStepImages {
    per_class: Box<[OnceLock<Image>]>,
}

impl FirstStepImages {
    /// An empty memo with one slot per byte class of `dfa`.
    pub(crate) fn new(dfa: &Dfa) -> Self {
        FirstStepImages { per_class: (0..dfa.alphabet_len()).map(|_| OnceLock::new()).collect() }
    }

    /// The image of `class`, building it with `counts` (all zero, one per
    /// state, and all zero again on return) if this is its first use.
    fn image(&self, dfa: &Dfa, class: u16, counts: &mut [u32]) -> &[(StateId, u32)] {
        self.per_class[usize::from(class)].get_or_init(|| {
            let stride = dfa.stride();
            let mut distinct = 0usize;
            for row in dfa.table().chunks_exact(stride) {
                let c = &mut counts[row[usize::from(class)] as usize];
                distinct += usize::from(*c == 0);
                *c += 1;
            }
            let mut image = Vec::with_capacity(distinct);
            for (t, c) in counts.iter_mut().enumerate() {
                if *c > 0 {
                    image.push((t as StateId, std::mem::take(c)));
                }
            }
            image.into_boxed_slice()
        })
    }

    /// Number of classes whose image has been built.
    pub fn built(&self) -> usize {
        self.per_class.iter().filter(|i| i.get().is_some()).count()
    }
}

impl std::fmt::Debug for FirstStepImages {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FirstStepImages")
            .field("classes", &self.per_class.len())
            .field("built", &self.built())
            .finish()
    }
}

/// Dense scratch for the all-state walk, reused across the boundaries of
/// one call: a per-state multiplicity and the states it is non-zero for.
/// Both are all-clear between walks.
pub(crate) struct Walk {
    counts: Vec<u32>,
    touched: Vec<StateId>,
}

impl Walk {
    pub(crate) fn new(dfa: &Dfa) -> Self {
        let n = dfa.n_states() as usize;
        Walk { counts: vec![0; n], touched: Vec::with_capacity(n) }
    }

    /// Runs every state of `dfa` over `window`, recording each distinct
    /// end state with the number of states that reach it.
    pub(crate) fn run(&mut self, dfa: &Dfa, images: &FirstStepImages, window: &[u8]) {
        debug_assert!(self.touched.is_empty(), "previous walk not drained");
        match window.split_first() {
            None => {
                self.touched.extend(0..dfa.n_states());
                self.counts.fill(1);
            }
            Some((&first, rest)) => {
                let class = dfa.classes().class(first);
                for &(t, m) in images.image(dfa, class, &mut self.counts) {
                    let e = dfa.run_from(t, rest);
                    let c = &mut self.counts[e as usize];
                    if *c == 0 {
                        self.touched.push(e);
                    }
                    *c += m;
                }
            }
        }
    }

    /// Drains the walk into a queue ranked by descending count, ties by
    /// ascending state id. The one allocation is the returned vector, at
    /// exact capacity.
    pub(crate) fn ranked(&mut self) -> Vec<(StateId, u32)> {
        let counts = &mut self.counts;
        let mut ranked: Vec<(StateId, u32)> =
            self.touched.drain(..).map(|s| (s, std::mem::take(&mut counts[s as usize]))).collect();
        ranked.sort_unstable_by_key(|&(s, f)| (Reverse(f), s));
        ranked
    }

    /// Drains the walk, returning the 0-based rank `state` would have in
    /// [`Walk::ranked`]'s queue, or `None` if no state reaches it.
    pub(crate) fn rank_of(&mut self, state: StateId) -> Option<usize> {
        let counts = &mut self.counts;
        let key = (Reverse(counts[state as usize]), state);
        let mut rank = 0;
        for s in self.touched.drain(..) {
            rank += usize::from((Reverse(counts[s as usize]), s) < key);
            counts[s as usize] = 0;
        }
        (key.0 .0 > 0).then_some(rank)
    }
}

struct PredictCost {
    n_threads: usize,
    states_per_lane: u64,
    lookback: u64,
    queue_sizes: Vec<u64>,
}

/// One block's view of the prediction cost model. The kernel is read-only
/// per thread, so every block shares the same description; global thread ids
/// address `queue_sizes` directly.
struct PredictCostBlock<'s>(&'s PredictCost);

impl RoundKernel for PredictCostBlock<'_> {
    fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        let cost = self.0;
        if tid == 0 || tid >= cost.n_threads {
            return RoundOutcome::IDLE; // Chunk 0 needs no prediction.
        }
        let steps = cost.states_per_lane * cost.lookback;
        ctx.shared(steps);
        ctx.alu(steps);
        // Frequency ranking of the end-state set.
        ctx.alu(cost.queue_sizes.get(tid).copied().unwrap_or(0) * 2);
        RoundOutcome::ACTIVE
    }

    fn after_sync(&mut self, _round: u64) -> bool {
        false
    }

    fn phase(&self) -> Phase {
        Phase::Predict
    }
}

impl GridKernel for PredictCost {
    type Block<'s> = PredictCostBlock<'s>;

    fn split<'s>(&'s mut self, dims: &[BlockDim]) -> Vec<PredictCostBlock<'s>> {
        let shared: &'s PredictCost = self;
        dims.iter().map(|_| PredictCostBlock(shared)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition;
    use gspecpal_fsm::examples::{div7, fig4_dfa};

    fn full(d: &Dfa) -> DeviceTable<'_> {
        DeviceTable::transformed(d, d.n_states())
    }

    #[test]
    fn true_start_state_is_always_contained() {
        let d = fig4_dfa();
        let input = b"code /* a comment */ more // and /*another*/ tail";
        let chunks = partition(input.len(), 8);
        let pred = predict(&full(&d), input, &chunks, 2, &DeviceSpec::test_unit());
        for (i, chunk) in chunks.iter().enumerate() {
            let truth = d.run(&input[..chunk.start]);
            assert!(
                pred.queues[i].candidates().any(|s| s == truth),
                "chunk {i}: truth {truth} missing from queue"
            );
        }
    }

    #[test]
    fn div7_queue_contains_all_residues() {
        // div7 is a permutation automaton: lookback can rule nothing out, so
        // every queue holds all 7 states with equal frequency.
        let d = div7();
        let input = b"10110101101011010110101101011010";
        let chunks = partition(input.len(), 4);
        let pred = predict(&full(&d), input, &chunks, 2, &DeviceSpec::test_unit());
        for q in &pred.queues[1..] {
            assert_eq!(q.initial_len(), 7);
        }
    }

    #[test]
    fn convergent_machine_gets_short_queues() {
        // A keyword machine over junk input converges to very few states.
        let d = gspecpal_fsm::combinators::keyword_dfa(&[b"attack", b"worm"]).unwrap();
        let q = lookback_queue(&d, b"zz");
        assert!(q.initial_len() <= 3, "queue had {} entries", q.initial_len());
    }

    #[test]
    fn ranking_is_by_frequency() {
        let d = gspecpal_fsm::combinators::keyword_dfa(&[b"ab"]).unwrap();
        let q = lookback_queue(&d, b"zz");
        // All states collapse to the root after two junk bytes.
        assert_eq!(q.initial_len(), 1);
        assert_eq!(q.front(), Some(d.run_from(d.start(), b"zz")));
    }

    #[test]
    fn chunk0_is_certain() {
        let d = div7();
        let input = b"1010101010101010";
        let chunks = partition(input.len(), 4);
        let pred = predict(&full(&d), input, &chunks, 2, &DeviceSpec::test_unit());
        assert_eq!(pred.queues[0].initial_len(), 1);
        assert_eq!(pred.queues[0].front(), Some(d.start()));
    }

    #[test]
    fn prediction_kernel_has_cost() {
        let d = div7();
        let input = b"10101010101010101010101010101010";
        let chunks = partition(input.len(), 8);
        let pred = predict(&full(&d), input, &chunks, 2, &DeviceSpec::test_unit());
        assert!(pred.stats.cycles > 0);
        assert!(pred.stats.shared_accesses > 0);
    }

    #[test]
    fn boundaries_inside_the_lookback_window_still_contain_truth() {
        // A chunk starting at position 1 has a 1-byte window; containment
        // must hold regardless.
        let d = div7();
        let input = b"101101";
        let chunks = vec![0..1, 1..3, 3..6];
        let pred = predict(&full(&d), input, &chunks, 2, &DeviceSpec::test_unit());
        for (i, c) in chunks.iter().enumerate() {
            let truth = d.run(&input[..c.start]);
            assert!(pred.queues[i].candidates().any(|s| s == truth), "chunk {i}");
        }
    }

    #[test]
    fn empty_window_yields_identity_queue() {
        // A zero-length window maps every state to itself: |Q| candidates.
        let d = div7();
        let q = lookback_queue(&d, b"");
        assert_eq!(q.initial_len(), 7);
    }
}
