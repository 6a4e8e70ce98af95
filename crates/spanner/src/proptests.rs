//! Property-based tests for the spanner crate: the formalism-level
//! invariants (reference evaluation, determinization/functionalization,
//! composition, disjointness, algebra).
//!
//! Per-engine differential coverage (nfa / dense / prefilter / aot ×
//! batch / streaming / fleet, starved caches, sparse documents) lives in
//! the repository-wide engine-matrix harness (`tests/engine_matrix.rs`
//! at the workspace root), which draws random spanners from the shared
//! generator in `splitc_textgen::spangen` — new engines register there
//! instead of growing a copy-pasted suite here.

use crate::eval::{eval, reference_eval};
use crate::rgx::Rgx;
use crate::splitter::{compose, Splitter};
use crate::stream::{SplitterState, StreamTables};
use crate::tuple::SpanRelation;
use crate::vsa::Vsa;
use proptest::prelude::*;
use std::sync::Arc;

const PATTERNS: &[&str] = &[
    "x{a+}",
    ".*x{a}.*",
    "x{a*}y{b*}",
    "(a|b)*x{ab}(a|b)*",
    "x{[ab]+}",
    "a?x{b}a?",
    ".*x{}.*",
    "x{a|bb}",
    "(x{a}b)|(a(x{b}))",
    ".*x{a.a}.*",
];

const SPLITTER_PATTERNS: &[&str] = &[
    "(.*\\.)?x{[^.]+}(\\..*)?", // sentences
    "x{.*}",                    // whole document
    ".*x{..}.*",                // 2-byte windows (non-disjoint)
    "x{a*}.*",                  // prefix of a's (incl. empty)
    "x{ab}b|a(x{bb})",          // paper example 5.8
    ".*x{}a.*",                 // empty span before every 'a'
    ".*\\.x{}.*",               // empty span after every period
];

fn doc_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'.')], 0..8)
}

fn compile(p: &str) -> Vsa {
    Rgx::parse(p).unwrap().to_vsa().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn eval_agrees_with_reference(pi in 0..PATTERNS.len(), doc in doc_strategy()) {
        let p = compile(PATTERNS[pi]);
        prop_assert_eq!(eval(&p, &doc), reference_eval(&p, &doc));
    }

    #[test]
    fn determinize_preserves_outputs(pi in 0..PATTERNS.len(), doc in doc_strategy()) {
        let p = compile(PATTERNS[pi]);
        let d = p.determinize();
        prop_assert!(d.is_deterministic());
        prop_assert!(d.is_functional());
        prop_assert_eq!(eval(&p, &doc), eval(&d, &doc));
    }

    #[test]
    fn functionalize_preserves_outputs(pi in 0..PATTERNS.len(), doc in doc_strategy()) {
        let p = compile(PATTERNS[pi]);
        let f = p.functionalize();
        prop_assert!(f.is_functional());
        prop_assert_eq!(eval(&p, &doc), eval(&f, &doc));
    }

    #[test]
    fn composition_matches_pointwise_definition(
        pi in 0..PATTERNS.len(),
        si in 0..SPLITTER_PATTERNS.len(),
        doc in doc_strategy(),
    ) {
        let ps = compile(PATTERNS[pi]);
        let s = Splitter::parse(SPLITTER_PATTERNS[si]).unwrap();
        let composed = compose(&ps, &s);
        let direct = eval(&composed, &doc);
        let mut expected = Vec::new();
        for sp in s.split(&doc) {
            for t in eval(&ps, sp.slice(&doc)).iter() {
                expected.push(t.shift(sp));
            }
        }
        prop_assert_eq!(direct, SpanRelation::from_tuples(expected));
    }

    /// Both streaming modes against the reference evaluator: the
    /// compiled splitter (phase DFAs, whole document) and a budget-0
    /// stream (exact set-based fallback) fed in random-size chunks.
    #[test]
    fn compiled_and_set_mode_splits_match_reference(
        si in 0..SPLITTER_PATTERNS.len(),
        doc in doc_strategy(),
        chunk in 1usize..4,
    ) {
        let s = Splitter::parse(SPLITTER_PATTERNS[si]).unwrap();
        let reference = s.split(&doc);
        prop_assert_eq!(&s.compile().split(&doc), &reference);
        let tables = Arc::new(StreamTables::compile_with_budget(&s.evsa(), 0));
        let mut state = SplitterState::new(tables);
        let mut streamed = Vec::new();
        for piece in doc.chunks(chunk) {
            streamed.extend(state.push(piece));
        }
        streamed.extend(state.finish());
        prop_assert_eq!(streamed, reference);
    }

    #[test]
    fn disjointness_agrees_with_bruteforce(si in 0..SPLITTER_PATTERNS.len(), docs in proptest::collection::vec(doc_strategy(), 1..6)) {
        let s = Splitter::parse(SPLITTER_PATTERNS[si]).unwrap();
        let verdict = s.is_disjoint();
        if verdict {
            // No sampled document may produce overlapping spans.
            for doc in &docs {
                let spans = s.split(doc);
                for (i, a) in spans.iter().enumerate() {
                    for b in &spans[i + 1..] {
                        prop_assert!(
                            a.disjoint(*b),
                            "claimed disjoint but {a:?} overlaps {b:?} on {doc:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn union_is_set_union(
        pi in 0..PATTERNS.len(),
        qi in 0..PATTERNS.len(),
        doc in doc_strategy(),
    ) {
        let a = compile(PATTERNS[pi]);
        let b = compile(PATTERNS[qi]);
        if a.vars().names() == b.vars().names() {
            let u = a.union(&b).unwrap();
            prop_assert_eq!(eval(&u, &doc), eval(&a, &doc).union(&eval(&b, &doc)));
        }
    }

    #[test]
    fn equivalence_consistent_with_eval(
        pi in 0..PATTERNS.len(),
        qi in 0..PATTERNS.len(),
        doc in doc_strategy(),
    ) {
        let a = compile(PATTERNS[pi]);
        let b = compile(PATTERNS[qi]);
        if a.vars().names() == b.vars().names()
            && crate::equiv::spanner_equivalent(&a, &b).unwrap().holds()
        {
            prop_assert_eq!(eval(&a, &doc), eval(&b, &doc));
        }
    }
}
