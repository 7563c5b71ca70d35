//! DFA minimization by partition refinement.
//!
//! The workload generator minimizes every compiled machine so the state
//! counts reported in the Table II reproduction are canonical, and so that
//! structurally distinct FSM tiers really differ in behaviour rather than in
//! redundant states.
//!
//! The refinement is Valmari & Lehtinen's O(m log n) algorithm (m = states ×
//! classes transitions) on two refinable partitions: one of the states into
//! blocks, one of the transitions into *cords* (transitions sharing a class
//! and a target block). Each cord splits the blocks by its sources, each new
//! block splits the cords by its incoming transitions, and a split always
//! queues the smaller half, as in Hopcroft's algorithm.

use crate::dfa::{Dfa, DfaBuilder, StateId};

/// Returns the set of states reachable from the start state.
pub fn reachable_states(dfa: &Dfa) -> Vec<StateId> {
    let mut seen = vec![false; dfa.n_states() as usize];
    let mut stack = vec![dfa.start()];
    seen[dfa.start() as usize] = true;
    let mut out = Vec::new();
    while let Some(s) = stack.pop() {
        out.push(s);
        for c in 0..dfa.alphabet_len() {
            let t = dfa.next_by_class(s, c);
            if !seen[t as usize] {
                seen[t as usize] = true;
                stack.push(t);
            }
        }
    }
    out.sort_unstable();
    out
}

/// Minimizes `dfa`: removes unreachable states and merges language-equivalent
/// ones. The result is the unique (up to renaming) minimal DFA; states are
/// renumbered in BFS order from the start state so the output is
/// deterministic.
pub fn minimize(dfa: &Dfa) -> Dfa {
    let reachable = reachable_states(dfa);
    let n = reachable.len();
    // Dense renumbering of reachable states.
    let mut dense_of = vec![u32::MAX; dfa.n_states() as usize];
    for (i, &s) in reachable.iter().enumerate() {
        dense_of[s as usize] = i as u32;
    }
    let k = dfa.alphabet_len() as usize;

    // Transition `t = i * k + c` leaves dense state `i` on class `c`.
    let dense = &dense_of;
    let head: Vec<u32> = reachable
        .iter()
        .flat_map(|&s| (0..k).map(move |c| dense[dfa.next_by_class(s, c as u16) as usize]))
        .collect();
    // Incoming transitions of dense state `i`: `incoming[in_at[i]..in_at[i + 1]]`.
    let mut in_at = vec![0u32; n + 1];
    for &h in &head {
        in_at[h as usize + 1] += 1;
    }
    for i in 0..n {
        in_at[i + 1] += in_at[i];
    }
    let mut incoming = vec![0u32; head.len()];
    let mut fill = in_at.clone();
    for (t, &h) in head.iter().enumerate() {
        incoming[fill[h as usize] as usize] = t as u32;
        fill[h as usize] += 1;
    }

    // Blocks start as {rejecting, accepting}; cords as one per class.
    let mut blocks = Partition::grouped((0..n as u32).collect(), n);
    for (i, &s) in reachable.iter().enumerate() {
        if dfa.is_accepting(s) {
            blocks.mark(i as u32);
        }
    }
    blocks.split();
    let by_class = (0..k).flat_map(|c| (0..n).map(move |i| (i * k + c) as u32)).collect();
    let mut cords = Partition::grouped(by_class, n);

    // Every cord splits the blocks once; every block but 0 splits the
    // cords once. Block 0 need not: cords begin as whole classes, so once
    // every other block's incoming transitions are cut out, what remains of
    // each class is the cord into block 0.
    let (mut b, mut c) = (1, 0);
    while c < cords.len() {
        for &t in cords.members(c) {
            blocks.mark(t / k as u32);
        }
        blocks.split();
        c += 1;
        while b < blocks.len() {
            for &i in blocks.members(b) {
                for &t in &incoming[in_at[i as usize] as usize..in_at[i as usize + 1] as usize] {
                    cords.mark(t);
                }
            }
            cords.split();
            b += 1;
        }
    }

    // Rebuild: renumber blocks in BFS order from the start block.
    let block_of = |s: StateId| blocks.set_of[dense_of[s as usize] as usize];
    let rep_of = |b: u32| reachable[blocks.members(b as usize)[0] as usize];
    let start_block = block_of(dfa.start());
    let mut order = vec![u32::MAX; blocks.len()];
    let mut bfs = std::collections::VecDeque::new();
    order[start_block as usize] = 0;
    bfs.push_back(start_block);
    let mut next_id = 1u32;
    while let Some(b) = bfs.pop_front() {
        let rep_state = rep_of(b);
        for c in 0..k {
            let tb = block_of(dfa.next_by_class(rep_state, c as u16));
            if order[tb as usize] == u32::MAX {
                order[tb as usize] = next_id;
                next_id += 1;
                bfs.push_back(tb);
            }
        }
    }

    let mut builder = DfaBuilder::new(dfa.classes().clone());
    for _ in 0..next_id {
        builder.add_state(false);
    }
    for (b, &new) in order.iter().enumerate() {
        let rep_state = rep_of(b as u32);
        builder.set_accepting(new, dfa.is_accepting(rep_state)).expect("state was added above");
        for c in 0..k {
            let t_new = order[block_of(dfa.next_by_class(rep_state, c as u16)) as usize];
            builder
                .set_transition(new, c as u16, t_new)
                .expect("blocks reachable from start are numbered");
        }
    }
    builder.build(0).expect("minimized machine is non-empty and total")
}

/// A refinable partition of `0..n`: each set's elements are contiguous in
/// `elems`, and marking an element swaps it to the front of its set, so a
/// split only moves a boundary.
struct Partition {
    elems: Vec<u32>,
    /// Position of each element in `elems`.
    loc: Vec<u32>,
    set_of: Vec<u32>,
    /// Set `s` is `elems[first[s]..past[s]]`, its first `marked[s]` marked.
    first: Vec<u32>,
    past: Vec<u32>,
    marked: Vec<u32>,
    /// Sets with at least one marked element.
    touched: Vec<u32>,
}

impl Partition {
    /// `elems` cut into consecutive sets of `len` elements each.
    fn grouped(elems: Vec<u32>, len: usize) -> Self {
        let n = elems.len();
        let mut loc = vec![0u32; n];
        let mut set_of = vec![0u32; n];
        for (i, &e) in elems.iter().enumerate() {
            loc[e as usize] = i as u32;
            set_of[e as usize] = (i / len) as u32;
        }
        let sets = n / len.max(1);
        Partition {
            elems,
            loc,
            set_of,
            first: (0..sets).map(|s| (s * len) as u32).collect(),
            past: (1..=sets).map(|s| (s * len) as u32).collect(),
            marked: vec![0; sets],
            touched: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.first.len()
    }

    fn members(&self, s: usize) -> &[u32] {
        &self.elems[self.first[s] as usize..self.past[s] as usize]
    }

    fn mark(&mut self, e: u32) {
        let s = self.set_of[e as usize] as usize;
        let i = self.loc[e as usize] as usize;
        let j = (self.first[s] + self.marked[s]) as usize;
        if i < j {
            return; // Already marked.
        }
        self.elems.swap(i, j);
        self.loc[self.elems[i] as usize] = i as u32;
        self.loc[e as usize] = j as u32;
        if self.marked[s] == 0 {
            self.touched.push(s as u32);
        }
        self.marked[s] += 1;
    }

    /// Splits every touched set into its marked and unmarked parts; the
    /// smaller part becomes a new set (the marked part on a tie).
    fn split(&mut self) {
        while let Some(s) = self.touched.pop() {
            let s = s as usize;
            let j = self.first[s] + self.marked[s];
            self.marked[s] = 0;
            if j == self.past[s] {
                continue;
            }
            let z = self.first.len();
            if j - self.first[s] <= self.past[s] - j {
                self.first.push(self.first[s]);
                self.past.push(j);
                self.first[s] = j;
            } else {
                self.first.push(j);
                self.past.push(self.past[s]);
                self.past[s] = j;
            }
            self.marked.push(0);
            for i in self.first[z]..self.past[z] {
                self.set_of[self.elems[i as usize] as usize] = z as u32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::ByteClasses;
    use crate::examples::{div7, fig4_dfa};

    fn agree_on(d1: &Dfa, d2: &Dfa, inputs: &[&[u8]]) {
        for input in inputs {
            assert_eq!(d1.accepts(input), d2.accepts(input), "input {input:?}");
        }
    }

    #[test]
    fn minimal_machines_are_fixed_points() {
        let d = div7();
        let m = minimize(&d);
        assert_eq!(m.n_states(), d.n_states(), "div7 is already minimal");
        agree_on(&d, &m, &[b"110", b"111", b"0", b"1001", b"1110101", b""]);
    }

    #[test]
    fn redundant_states_are_merged() {
        // Two interchangeable accepting sinks.
        let mut b = DfaBuilder::new(ByteClasses::refine(|_, _| false));
        let s0 = b.add_state(false);
        let a1 = b.add_state(true);
        let a2 = b.add_state(true);
        b.set_transition(s0, 0, a1).unwrap();
        b.set_transition(a1, 0, a2).unwrap();
        b.set_transition(a2, 0, a1).unwrap();
        let d = b.build(s0).unwrap();
        let m = minimize(&d);
        assert_eq!(m.n_states(), 2);
        agree_on(&d, &m, &[b"", b"x", b"xx", b"xxx"]);
    }

    #[test]
    fn unreachable_states_are_dropped() {
        let mut b = DfaBuilder::new(ByteClasses::refine(|_, _| false));
        let s0 = b.add_state(true);
        let orphan = b.add_state(false);
        b.set_transition(s0, 0, s0).unwrap();
        b.set_transition(orphan, 0, orphan).unwrap();
        let d = b.build(s0).unwrap();
        assert_eq!(reachable_states(&d), vec![s0]);
        let m = minimize(&d);
        assert_eq!(m.n_states(), 1);
        assert!(m.accepts(b"anything"));
    }

    #[test]
    fn fig4_minimization_preserves_language() {
        let d = fig4_dfa();
        let m = minimize(&d);
        agree_on(&d, &m, &[b"/*", b"/* x */", b"//", b"**", b"/*/", b"", b"x/y*z"]);
        assert!(m.n_states() <= d.n_states());
    }

    #[test]
    fn all_accepting_machine_minimizes_to_one_state() {
        let mut b = DfaBuilder::new(ByteClasses::refine(|_, _| false));
        let s0 = b.add_state(true);
        let s1 = b.add_state(true);
        b.set_transition(s0, 0, s1).unwrap();
        b.set_transition(s1, 0, s0).unwrap();
        let d = b.build(s0).unwrap();
        let m = minimize(&d);
        assert_eq!(m.n_states(), 1);
    }

    #[test]
    fn none_accepting_machine_minimizes_to_one_state() {
        let mut b = DfaBuilder::new(ByteClasses::refine(|_, _| false));
        let s0 = b.add_state(false);
        let s1 = b.add_state(false);
        b.set_transition(s0, 0, s1).unwrap();
        b.set_transition(s1, 0, s0).unwrap();
        let d = b.build(s0).unwrap();
        let m = minimize(&d);
        assert_eq!(m.n_states(), 1);
        assert!(!m.accepts(b"x"));
    }
}
