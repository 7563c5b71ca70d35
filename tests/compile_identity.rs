//! The compile path (subset construction, product, minimization) produces
//! byte-identical machines to its straightforward reference versions: a
//! digest of the whole benchmark suite is pinned, and the reference
//! implementations below — hash-map subset and pair indexes, and a
//! Hopcroft refinement that rebuilds blocks through hash sets — are checked
//! `==` against the library on random regex sets and random machines.

use std::collections::{HashMap, HashSet, VecDeque};

use gspecpal_fsm::combinators::{product, ProductAccept};
use gspecpal_fsm::minimize::{minimize, reachable_states};
use gspecpal_fsm::random::random_dfa;
use gspecpal_fsm::subset::{determinize, nfa_byte_classes};
use gspecpal_fsm::{ByteClasses, Dfa, DfaBuilder, Nfa, StateId};
use gspecpal_regex::thompson::ThompsonCompiler;
use gspecpal_regex::{compile_set, parse, CompileConfig};
use gspecpal_workloads::build_suite;
use proptest::prelude::*;

/// FNV-1a over everything that defines a machine: state count, start,
/// byte-class map, table and accepting flags.
fn digest(h: &mut u64, d: &Dfa) {
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&d.n_states().to_le_bytes());
    eat(&d.start().to_le_bytes());
    for b in 0..=255u8 {
        eat(&d.classes().class(b).to_le_bytes());
    }
    for &t in d.table() {
        eat(&t.to_le_bytes());
    }
    for s in 0..d.n_states() {
        eat(&[u8::from(d.is_accepting(s))]);
    }
}

/// Every machine of `build_suite(1)` is identical to the one the hash-map
/// compile path built: the digest was computed on that implementation.
#[test]
fn suite_machines_are_byte_identical_to_the_reference_compile_path() {
    let suite = build_suite(1);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in &suite {
        digest(&mut h, &b.dfa);
    }
    let states: u64 = suite.iter().map(|b| u64::from(b.dfa.n_states())).sum();
    assert_eq!((suite.len(), states), (36, 74_603));
    assert_eq!(h, 0xa677_a077_23c0_c889, "suite digest {h:#018x}");
}

/// Reference subset construction: per-class `Nfa::step` (which recomputes
/// epsilon closures), subsets indexed by a SipHash map.
fn reference_determinize(nfa: &Nfa) -> Dfa {
    let classes = nfa_byte_classes(nfa);
    let reps = classes.representatives();
    let mut builder = DfaBuilder::new(classes.clone());
    let mut index: HashMap<Vec<StateId>, StateId> = HashMap::new();
    let mut worklist: Vec<(StateId, Vec<StateId>)> = Vec::new();
    let start_set = nfa.epsilon_closure(&[nfa.start()]);
    let start = builder.add_state(nfa.any_accepting(&start_set));
    index.insert(start_set.clone(), start);
    worklist.push((start, start_set));
    let mut dead: Option<StateId> = None;
    while let Some((did, set)) = worklist.pop() {
        for (c, &b) in reps.iter().enumerate() {
            let next = nfa.step(&set, b);
            let target = if next.is_empty() {
                *dead.get_or_insert_with(|| builder.add_state(false))
            } else if let Some(&t) = index.get(&next) {
                t
            } else {
                let t = builder.add_state(nfa.any_accepting(&next));
                index.insert(next.clone(), t);
                worklist.push((t, next));
                t
            };
            builder.set_transition(did, c as u16, target).unwrap();
        }
    }
    if let Some(d) = dead {
        builder.set_default_transition(d, d).unwrap();
    }
    builder.build(start).unwrap()
}

/// Reference product: reachable pairs indexed by a SipHash map.
fn reference_product(a: &Dfa, b: &Dfa, accept: ProductAccept) -> Dfa {
    let apply = |x: bool, y: bool| match accept {
        ProductAccept::Both => x && y,
        ProductAccept::Either => x || y,
        ProductAccept::First => x,
        ProductAccept::Xor => x != y,
    };
    let (ca, cb) = (a.classes().clone(), b.classes().clone());
    let classes =
        ByteClasses::refine(|x, y| ca.class(x) != ca.class(y) || cb.class(x) != cb.class(y));
    let reps = classes.representatives();
    let mut builder = DfaBuilder::new(classes);
    let mut index: HashMap<(StateId, StateId), StateId> = HashMap::new();
    let mut queue = VecDeque::new();
    let start = builder.add_state(apply(a.is_accepting(a.start()), b.is_accepting(b.start())));
    index.insert((a.start(), b.start()), start);
    queue.push_back((a.start(), b.start()));
    while let Some((sa, sb)) = queue.pop_front() {
        let from = index[&(sa, sb)];
        for (c, &rep) in reps.iter().enumerate() {
            let (ta, tb) = (a.next(sa, rep), b.next(sb, rep));
            let to = *index.entry((ta, tb)).or_insert_with(|| {
                queue.push_back((ta, tb));
                builder.add_state(apply(a.is_accepting(ta), b.is_accepting(tb)))
            });
            builder.set_transition(from, c as u16, to).unwrap();
        }
    }
    builder.build(start).unwrap()
}

/// Reference minimizer: Hopcroft's worklist rule, each split rebuilding the
/// block through a hash set, renumbered in BFS order from the start block.
fn reference_minimize(dfa: &Dfa) -> Dfa {
    let reachable = reachable_states(dfa);
    let n = reachable.len();
    let mut dense_of = vec![usize::MAX; dfa.n_states() as usize];
    for (i, &s) in reachable.iter().enumerate() {
        dense_of[s as usize] = i;
    }
    let k = dfa.alphabet_len() as usize;
    let mut inv: Vec<Vec<u32>> = vec![Vec::new(); n * k];
    for (i, &s) in reachable.iter().enumerate() {
        for c in 0..k {
            inv[dense_of[dfa.next_by_class(s, c as u16) as usize] * k + c].push(i as u32);
        }
    }
    let mut block_of: Vec<u32> =
        reachable.iter().map(|&s| u32::from(dfa.is_accepting(s))).collect();
    let mut blocks: Vec<Vec<u32>> = vec![Vec::new(), Vec::new()];
    for (i, &b) in block_of.iter().enumerate() {
        blocks[b as usize].push(i as u32);
    }
    if blocks[1].is_empty() {
        blocks.pop();
    } else if blocks[0].is_empty() {
        blocks.swap_remove(0);
        block_of.fill(0);
    }
    let mut in_worklist = vec![true; blocks.len()];
    let mut worklist: Vec<u32> = (0..blocks.len() as u32).collect();
    while let Some(splitter) = worklist.pop() {
        in_worklist[splitter as usize] = false;
        let members = blocks[splitter as usize].clone();
        for c in 0..k {
            let mut touched: HashMap<u32, Vec<u32>> = HashMap::new();
            for &m in &members {
                for &p in &inv[m as usize * k + c] {
                    touched.entry(block_of[p as usize]).or_default().push(p);
                }
            }
            for (b, hit) in touched {
                let b = b as usize;
                if hit.len() == blocks[b].len() {
                    continue;
                }
                let new_id = blocks.len() as u32;
                let hit: HashSet<u32> = hit.into_iter().collect();
                let (stay, moved): (Vec<u32>, Vec<u32>) =
                    blocks[b].iter().partition(|m| !hit.contains(m));
                for &m in &moved {
                    block_of[m as usize] = new_id;
                }
                blocks[b] = stay;
                blocks.push(moved);
                in_worklist.push(false);
                if in_worklist[b] || blocks[new_id as usize].len() < blocks[b].len() {
                    in_worklist[new_id as usize] = true;
                    worklist.push(new_id);
                } else {
                    in_worklist[b] = true;
                    worklist.push(b as u32);
                }
            }
        }
    }
    let block = |s: StateId| block_of[dense_of[s as usize]] as usize;
    let mut order = vec![u32::MAX; blocks.len()];
    order[block(dfa.start())] = 0;
    let mut bfs = VecDeque::from([block(dfa.start())]);
    let mut next_id = 1;
    while let Some(b) = bfs.pop_front() {
        let rep = reachable[blocks[b][0] as usize];
        for c in 0..k {
            let tb = block(dfa.next_by_class(rep, c as u16));
            if order[tb] == u32::MAX {
                order[tb] = next_id;
                next_id += 1;
                bfs.push_back(tb);
            }
        }
    }
    let mut builder = DfaBuilder::new(dfa.classes().clone());
    for _ in 0..next_id {
        builder.add_state(false);
    }
    for (b, members) in blocks.iter().enumerate() {
        let rep = reachable[members[0] as usize];
        builder.set_accepting(order[b], dfa.is_accepting(rep)).unwrap();
        for c in 0..k {
            let t = order[block(dfa.next_by_class(rep, c as u16))];
            builder.set_transition(order[b], c as u16, t).unwrap();
        }
    }
    builder.build(0).unwrap()
}

/// Small regexes over a handful of bytes, with classes, repetition and
/// alternation, so subsets and byte classes both vary.
fn regex_strategy() -> impl Strategy<Value = String> {
    let atom = prop_oneof![
        Just("[a-d]"),
        Just("."),
        Just("a"),
        Just("b"),
        Just("(cd|e)"),
        Just("[^a]"),
        Just(r"\d"),
        Just("[x-z0]"),
    ];
    let unit = (atom, prop_oneof![Just(""), Just("*"), Just("+"), Just("?"), Just("{1,3}")])
        .prop_map(|(a, r)| format!("{a}{r}"));
    prop::collection::vec(unit, 1..5).prop_map(|units| units.join(""))
}

fn accept_strategy() -> impl Strategy<Value = ProductAccept> {
    prop_oneof![
        Just(ProductAccept::Both),
        Just(ProductAccept::Either),
        Just(ProductAccept::First),
        Just(ProductAccept::Xor),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn determinize_and_minimize_equal_the_references_on_regex_sets(
        patterns in prop::collection::vec(regex_strategy(), 1..4),
        search in prop_oneof![Just(false), Just(true)],
    ) {
        let asts: Vec<_> =
            patterns.iter().map(|p| parse(p).expect("grammar emits valid patterns")).collect();
        let nfa = ThompsonCompiler::new().compile(&asts, search);
        let dfa = determinize(&nfa).expect("small patterns fit");
        let reference = reference_determinize(&nfa);
        prop_assert!(dfa == reference, "determinize differs on {:?}", patterns);
        prop_assert!(minimize(&dfa) == reference_minimize(&reference), "minimize on {:?}", patterns);
        if search {
            let refs: Vec<&str> = patterns.iter().map(String::as_str).collect();
            let compiled = compile_set(&refs, CompileConfig::default()).expect("compiles");
            prop_assert!(compiled == reference_minimize(&reference), "compile_set on {:?}", patterns);
        }
    }

    #[test]
    fn minimize_equals_the_reference_on_random_machines(
        seed in 0u64..50_000,
        n_states in 1u32..80,
        n_classes in 1u16..10,
    ) {
        let d = random_dfa(seed, n_states, n_classes);
        prop_assert!(minimize(&d) == reference_minimize(&d));
    }

    #[test]
    fn product_equals_the_reference_on_random_machines(
        seed in 0u64..50_000,
        na in 1u32..30,
        nb in 1u32..30,
        ka in 1u16..6,
        kb in 1u16..6,
        accept in accept_strategy(),
    ) {
        let a = random_dfa(seed, na, ka);
        let b = random_dfa(seed ^ 0x5eed, nb, kb);
        prop_assert!(product(&a, &b, accept).unwrap() == reference_product(&a, &b, accept));
    }
}
