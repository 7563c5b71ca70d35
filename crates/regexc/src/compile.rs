//! End-to-end compilation: patterns → NFA → DFA → minimal DFA.
//!
//! `compile_set` is the entry point the workload suite uses: like §V-B, each
//! benchmark FSM "is generated from a disjunction of multiple randomly
//! selected regular expressions".

use gspecpal_fsm::minimize::minimize;
use gspecpal_fsm::subset::determinize_with_limit;
use gspecpal_fsm::Dfa;

use crate::ast::Ast;
use crate::parser::parse;
use crate::thompson::ThompsonCompiler;
use crate::RegexError;

/// Whether the machine decides whole-input membership or reports substring
/// matches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MatchSemantics {
    /// Accepts iff the entire input is in the language.
    Anchored,
    /// Accepting whenever the consumed prefix ends with a match
    /// (`Σ*(p₁|…|pₖ)`). This is what the paper's rule-set DFAs do.
    #[default]
    Search,
}

/// Compilation options.
#[derive(Clone, Copy, Debug)]
pub struct CompileConfig {
    /// Match semantics (default [`MatchSemantics::Search`]).
    pub semantics: MatchSemantics,
    /// ASCII case-insensitive matching.
    pub case_insensitive: bool,
    /// Determinization state budget.
    pub state_limit: usize,
    /// Minimize the result (default on).
    pub minimize: bool,
}

impl Default for CompileConfig {
    fn default() -> Self {
        CompileConfig {
            semantics: MatchSemantics::Search,
            case_insensitive: false,
            state_limit: gspecpal_fsm::subset::DEFAULT_STATE_LIMIT,
            minimize: true,
        }
    }
}

/// Compiles one pattern with the given configuration.
pub fn compile(pattern: &str, config: CompileConfig) -> Result<Dfa, RegexError> {
    compile_set(&[pattern], config)
}

/// Compiles the disjunction of `patterns` into a single DFA.
///
/// ```
/// use gspecpal_regex::{compile_set, CompileConfig};
///
/// let dfa = compile_set(&["attack", "exploit[0-9]+"], CompileConfig::default())?;
/// assert_eq!(dfa.count_matches(b"an attack and exploit42"), 3); // 42 ends two matches
/// # Ok::<(), gspecpal_regex::RegexError>(())
/// ```
///
/// Under [`MatchSemantics::Search`], a leading `^` anchors that pattern to
/// the start of the stream (it can only match at position 0) while the other
/// patterns float; under [`MatchSemantics::Anchored`] every pattern is
/// whole-input anyway and a leading `^` is redundant but accepted.
pub fn compile_set(patterns: &[&str], config: CompileConfig) -> Result<Dfa, RegexError> {
    assert!(!patterns.is_empty(), "need at least one pattern");
    let mut asts = Vec::with_capacity(patterns.len());
    for p in patterns {
        let (anchored, body) = match p.strip_prefix('^') {
            Some(rest) => (true, rest),
            None => (false, *p),
        };
        let mut ast = parse(body)?;
        if config.case_insensitive {
            ast = ast.case_fold();
        }
        asts.push((ast, anchored));
    }
    let all_anchored = config.semantics == MatchSemantics::Anchored;
    let tagged: Vec<(Ast, bool)> =
        asts.into_iter().map(|(a, anch)| (a, anch || all_anchored)).collect();
    let nfa = ThompsonCompiler::new().compile_mixed(&tagged);
    let dfa = determinize_with_limit(&nfa, config.state_limit)?;
    Ok(if config.minimize { minimize(&dfa) } else { dfa })
}

/// Compiles already-parsed ASTs (used by workload generators that synthesize
/// patterns structurally).
pub fn compile_asts(asts: &[Ast], config: CompileConfig) -> Result<Dfa, RegexError> {
    let unanchored = config.semantics == MatchSemantics::Search;
    let nfa = ThompsonCompiler::new().compile(asts, unanchored);
    let dfa = determinize_with_limit(&nfa, config.state_limit)?;
    Ok(if config.minimize { minimize(&dfa) } else { dfa })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn search(patterns: &[&str]) -> Dfa {
        compile_set(patterns, CompileConfig::default()).unwrap()
    }

    fn anchored(pattern: &str) -> Dfa {
        compile(
            pattern,
            CompileConfig { semantics: MatchSemantics::Anchored, ..CompileConfig::default() },
        )
        .unwrap()
    }

    #[test]
    fn anchored_whole_input() {
        let d = anchored("ab*c");
        assert!(d.accepts(b"ac"));
        assert!(d.accepts(b"abbc"));
        assert!(!d.accepts(b"xac"));
        assert!(!d.accepts(b"acx"));
    }

    #[test]
    fn search_counts_match_ends() {
        let d = search(&["ab"]);
        // "ab" ends at positions 2 and 6 in "abxxab".
        assert_eq!(d.count_matches(b"abxxab"), 2);
        assert_eq!(d.count_matches(b"bbbb"), 0);
    }

    #[test]
    fn disjunction_of_rules() {
        let d = search(&["attack", "exploit[0-9]+", "GET /admin"]);
        assert_eq!(d.count_matches(b"an attack here"), 1);
        assert_eq!(d.count_matches(b"exploit42"), 2, "match ends at each digit");
        assert_eq!(d.count_matches(b"GET /admin HTTP"), 1);
        assert_eq!(d.count_matches(b"benign traffic"), 0);
    }

    #[test]
    fn case_insensitive_search() {
        let d = compile_set(
            &["Attack"],
            CompileConfig { case_insensitive: true, ..CompileConfig::default() },
        )
        .unwrap();
        assert!(d.count_matches(b"ATTACK") > 0);
        assert!(d.count_matches(b"attack") > 0);
        assert!(d.count_matches(b"aTtAcK") > 0);
    }

    #[test]
    fn minimization_shrinks_or_preserves() {
        let cfg_min = CompileConfig::default();
        let cfg_raw = CompileConfig { minimize: false, ..CompileConfig::default() };
        let dm = compile_set(&["abc|abd|abe"], cfg_min).unwrap();
        let dr = compile_set(&["abc|abd|abe"], cfg_raw).unwrap();
        assert!(dm.n_states() <= dr.n_states());
        for input in [&b"abc"[..], b"xxabd", b"abe!", b"abf"] {
            assert_eq!(dm.accepts(input), dr.accepts(input));
        }
    }

    #[test]
    fn search_semantics_match_bruteforce() {
        // Brute-force check: search accepts after prefix P iff some suffix of
        // P is in the anchored language.
        let pattern = "a[bc]+d?";
        let s = search(&[pattern]);
        let a = anchored(pattern);
        let input = b"zabcbdxacdyacbcb";
        let mut state = s.start();
        for i in 0..input.len() {
            state = s.next(state, input[i]);
            let brute = (0..=i).any(|j| a.accepts(&input[j..=i]));
            assert_eq!(s.is_accepting(state), brute, "prefix end {i}");
        }
    }

    #[test]
    fn caret_anchors_to_stream_start() {
        let d = search(&["^GET ", "attack"]);
        // "GET " fires only at position 0.
        assert_eq!(d.count_matches(b"GET /index"), 1);
        assert_eq!(d.count_matches(b"xGET /index"), 0);
        // The floating rule still fires anywhere.
        assert_eq!(d.count_matches(b"an attack and an attack"), 2);
        // Both on one stream.
        assert_eq!(d.count_matches(b"GET /attack"), 2);
    }

    #[test]
    fn all_anchored_set_has_no_floating_hub() {
        let d = search(&["^ab", "^cd"]);
        assert_eq!(d.count_matches(b"ab"), 1);
        assert_eq!(d.count_matches(b"cd"), 1);
        assert_eq!(d.count_matches(b"xab xcd"), 0);
    }

    #[test]
    fn caret_in_anchored_semantics_is_redundant() {
        let with = anchored("^abc");
        let without = anchored("abc");
        for input in [&b"abc"[..], b"xabc", b"abcx"] {
            assert_eq!(with.accepts(input), without.accepts(input));
        }
    }

    #[test]
    fn hex_escapes_match_binary() {
        let d = search(&[r"\x00\xff"]);
        assert_eq!(d.count_matches(&[0x00, 0xff, 0x00, 0x00, 0xff]), 2);
    }

    #[test]
    fn state_limit_propagates() {
        let cfg = CompileConfig { state_limit: 4, ..CompileConfig::default() };
        let err = compile_set(&["a.{10}b"], cfg);
        assert!(matches!(err, Err(RegexError::Fsm(_))));
    }

    #[test]
    fn parse_errors_propagate() {
        assert!(matches!(compile("a(", CompileConfig::default()), Err(RegexError::Parse(_))));
    }
}
