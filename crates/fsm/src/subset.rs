//! NFA → DFA determinization (subset construction).
//!
//! Every NFA can be converted to an equivalent DFA (§II-A cites Hopcroft &
//! Ullman); the paper's evaluation compiles its regex rule sets to DFAs this
//! way (via RE2). We first compute byte equivalence classes from the NFA's
//! transition ranges so the resulting table stride is minimal, then run the
//! standard worklist subset construction over epsilon closures.
//!
//! Every NFA state's epsilon closure is computed once up front, and subsets
//! are bitsets over NFA states. Expanding a subset state takes one sweep
//! over its members, which drops each byte-range target into the bucket of
//! every class the range covers; each class's successor subset is the union
//! of its bucket's closures, gathered in one reusable bitset.

use std::collections::HashMap;

use crate::classes::ByteClasses;
use crate::dfa::{Dfa, DfaBuilder, StateId};
use crate::nfa::Nfa;
use crate::FsmError;

/// Upper bound on produced DFA states, to keep pathological regexes from
/// exploding during workload generation.
pub const DEFAULT_STATE_LIMIT: usize = 1 << 20;

/// Computes byte classes for an NFA: two bytes are equivalent iff every
/// transition range contains both or neither.
pub fn nfa_byte_classes(nfa: &Nfa) -> ByteClasses {
    // Mark range boundaries: a class boundary occurs at `lo` and after `hi`.
    let mut boundary = [false; 257];
    boundary[0] = true;
    for (_, st) in nfa.states() {
        for r in &st.ranges {
            boundary[r.lo as usize] = true;
            boundary[r.hi as usize + 1] = true;
        }
    }
    let mut map = [0u8; 256];
    let mut class: i32 = -1;
    for b in 0..256usize {
        if boundary[b] {
            class += 1;
        }
        map[b] = class as u8;
    }
    ByteClasses::from_map(map)
}

/// Determinizes `nfa` into a [`Dfa`] with at most `state_limit` states.
///
/// Subset states with an empty NFA set collapse into an explicit dead state
/// so the resulting transition function stays total (the paper's DFAs always
/// have a defined successor — one table lookup per input symbol). States are
/// numbered in discovery order: a LIFO worklist, classes in ascending order.
pub fn determinize_with_limit(nfa: &Nfa, state_limit: usize) -> Result<Dfa, FsmError> {
    let classes = nfa_byte_classes(nfa);
    let n_classes = usize::from(classes.len());
    let n = nfa.n_states() as usize;
    // Every state's epsilon closure; `seen[t] == s + 1` iff `t` is already
    // in `s`'s.
    let (mut seen, mut stack) = (vec![0u32; n], Vec::new());
    let closures = PerState::build(n, |s, closure| {
        seen[s as usize] = s + 1;
        stack.push(s);
        while let Some(u) = stack.pop() {
            closure.push(u);
            for &e in &nfa.state(u).epsilons {
                if seen[e as usize] != s + 1 {
                    seen[e as usize] = s + 1;
                    stack.push(e);
                }
            }
        }
    });
    // Every state's byte ranges as inclusive class intervals `(lo, hi,
    // target)`: class boundaries sit at every range boundary, so a range
    // covers exactly the classes from its first byte's to its last byte's.
    let moves = PerState::build(n, |s, moves| {
        let ranges = &nfa.state(s).ranges;
        moves.extend(ranges.iter().map(|r| (classes.class(r.lo), classes.class(r.hi), r.target)));
    });

    let mut builder = DfaBuilder::new(classes);
    // Subsets as bitsets over NFA states, numbered by their DFA state.
    let mut index: HashMap<Box<[u64]>, StateId> = HashMap::new();
    let mut worklist: Vec<(StateId, Box<[u64]>)> = Vec::new();
    let mut union = Union::new(nfa);
    let mut buckets: Vec<Vec<StateId>> = vec![Vec::new(); n_classes];

    let start_set: Box<[u64]> = union.of(&closures, &[nfa.start()]).into();
    let start = builder.add_state(union.accepting(&start_set));
    index.insert(start_set.clone(), start);
    worklist.push((start, start_set));

    // Lazily-allocated dead state for the empty subset.
    let mut dead: Option<StateId> = None;

    while let Some((did, set)) = worklist.pop() {
        for s in members(&set) {
            for &(lo, hi, target) in moves.of(s) {
                for bucket in &mut buckets[usize::from(lo)..=usize::from(hi)] {
                    bucket.push(target);
                }
            }
        }
        for (c, bucket) in buckets.iter_mut().enumerate() {
            let target = if bucket.is_empty() {
                *dead.get_or_insert_with(|| builder.add_state(false))
            } else {
                let next = union.of(&closures, bucket);
                bucket.clear();
                if let Some(&t) = index.get(next) {
                    t
                } else {
                    if builder.n_states() as usize >= state_limit {
                        return Err(FsmError::TooManyStates { limit: state_limit });
                    }
                    let key: Box<[u64]> = next.into();
                    let t = builder.add_state(union.accepting(&key));
                    index.insert(key.clone(), t);
                    worklist.push((t, key));
                    t
                }
            };
            builder.set_transition(did, c as u16, target)?;
        }
    }

    // Complete the dead state's row if it was allocated.
    if let Some(d) = dead {
        builder.set_default_transition(d, d)?;
    }
    builder.build(start)
}

/// One list per NFA state, flattened: state `s`'s list is
/// `items[at[s]..at[s + 1]]`.
struct PerState<T> {
    at: Vec<u32>,
    items: Vec<T>,
}

impl<T> PerState<T> {
    /// State `s`'s list is what `fill(s, items)` pushes, for `s` in `0..n`.
    fn build(n: usize, mut fill: impl FnMut(StateId, &mut Vec<T>)) -> Self {
        let mut at = Vec::with_capacity(n + 1);
        let mut items = Vec::new();
        for s in 0..n as StateId {
            at.push(items.len() as u32);
            fill(s, &mut items);
        }
        at.push(items.len() as u32);
        PerState { at, items }
    }

    fn of(&self, s: StateId) -> &[T] {
        &self.items[self.at[s as usize] as usize..self.at[s as usize + 1] as usize]
    }
}

/// The members of a subset bitset, in ascending order.
fn members(set: &[u64]) -> impl Iterator<Item = StateId> + '_ {
    set.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                w as StateId * 64 + bit
            })
        })
    })
}

/// Scratch for closing a set of NFA states into a subset bitset, plus the
/// NFA's accepting states in the same layout.
struct Union {
    bits: Vec<u64>,
    accepting: Vec<u64>,
}

impl Union {
    fn new(nfa: &Nfa) -> Self {
        let words = (nfa.n_states() as usize).div_ceil(64);
        let mut accepting = vec![0u64; words];
        for (s, st) in nfa.states() {
            if st.accepting {
                accepting[s as usize / 64] |= 1 << (s % 64);
            }
        }
        Union { bits: vec![0; words], accepting }
    }

    /// The epsilon closure of `targets`, valid until the next call.
    fn of(&mut self, closures: &PerState<StateId>, targets: &[StateId]) -> &[u64] {
        self.bits.fill(0);
        for &t in targets {
            // A member's closure is already inside the union: closures are
            // transitively closed.
            if self.bits[t as usize / 64] & (1 << (t % 64)) != 0 {
                continue;
            }
            for &u in closures.of(t) {
                self.bits[u as usize / 64] |= 1 << (u % 64);
            }
        }
        &self.bits
    }

    /// Whether any member of `set` accepts.
    fn accepting(&self, set: &[u64]) -> bool {
        set.iter().zip(&self.accepting).any(|(&s, &a)| s & a != 0)
    }
}

/// Determinizes with the default state budget.
pub fn determinize(nfa: &Nfa) -> Result<Dfa, FsmError> {
    determinize_with_limit(nfa, DEFAULT_STATE_LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::NfaBuilder;

    fn ends_with_ab() -> Nfa {
        let mut b = NfaBuilder::new();
        let s0 = b.add_state(false);
        let s1 = b.add_state(false);
        let s2 = b.add_state(true);
        b.add_range(s0, 0, 255, s0);
        b.add_byte(s0, b'a', s1);
        b.add_byte(s1, b'b', s2);
        b.build(s0)
    }

    #[test]
    fn determinized_machine_agrees_with_nfa() {
        let n = ends_with_ab();
        let d = determinize(&n).unwrap();
        for input in [&b""[..], b"ab", b"xxab", b"aab", b"ba", b"a", b"abab", b"abba", b"zzzzzab"] {
            assert_eq!(n.accepts(input), d.accepts(input), "input {input:?}");
        }
    }

    #[test]
    fn byte_classes_collapse_unused_bytes() {
        let n = ends_with_ab();
        let d = determinize(&n).unwrap();
        // Ranges: full 0..=255, 'a', 'b' => classes {<a}, {a}, {b}, {>b} = 4.
        assert!(d.alphabet_len() <= 4, "alphabet was {}", d.alphabet_len());
    }

    #[test]
    fn dead_state_is_total() {
        // NFA for exactly "a": dies on anything else.
        let mut b = NfaBuilder::new();
        let s0 = b.add_state(false);
        let s1 = b.add_state(true);
        b.add_byte(s0, b'a', s1);
        let n = b.build(s0);
        let d = determinize(&n).unwrap();
        assert!(d.accepts(b"a"));
        assert!(!d.accepts(b"ab"));
        assert!(!d.accepts(b"b"));
        // The DFA is total: running a long garbage string never panics.
        let junk = vec![b'q'; 1000];
        let _ = d.run(&junk);
    }

    #[test]
    fn epsilon_only_nfa() {
        let mut b = NfaBuilder::new();
        let s0 = b.add_state(false);
        let s1 = b.add_state(true);
        b.add_epsilon(s0, s1);
        let n = b.build(s0);
        let d = determinize(&n).unwrap();
        assert!(d.accepts(b""));
        assert!(!d.accepts(b"a"));
    }

    #[test]
    fn state_limit_enforced() {
        // NFA whose DFA needs 2^8 states: "8th symbol from the end is 'a'".
        let mut b = NfaBuilder::new();
        let s0 = b.add_state(false);
        b.add_range(s0, 0, 255, s0);
        let mut prev = b.add_state(false);
        b.add_byte(s0, b'a', prev);
        for _ in 0..7 {
            let nx = b.add_state(false);
            b.add_range(prev, 0, 255, nx);
            prev = nx;
        }
        b.set_accepting(prev, true);
        let n = b.build(s0);
        assert!(matches!(
            determinize_with_limit(&n, 16),
            Err(FsmError::TooManyStates { limit: 16 })
        ));
        // And with a generous limit it succeeds and agrees with the NFA.
        let d = determinize(&n).unwrap();
        assert!(d.accepts(b"a0000000"));
        assert!(!d.accepts(b"b0000000"));
    }
}
