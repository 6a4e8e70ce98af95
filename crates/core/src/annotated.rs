//! Annotated splitters (paper §7.3 and Appendix E).
//!
//! An annotated splitter maps a document to a set of *(key, span)* pairs
//! (key–value pairs in the MapReduce sense); a *key–spanner mapping*
//! assigns a split-spanner `P_S(κ)` to each key, and the composition
//! `P_S ∘ S_K` evaluates `P_S(κ)` on every chunk annotated `κ`.
//!
//! Representation: the paper annotates accepting states with keys
//! (`τ : Q_F → K`); we represent an annotated splitter directly by its
//! *key decomposition* `{S_κ}` — one ordinary splitter per key, where
//! `S_κ(d) = {s | (κ, s) ∈ S_K(d)}` (the paper itself reduces to the
//! `S_κ` in Lemma E.2). The two representations are interconvertible
//! with no blow-up.
//!
//! Implemented results: annotated split-correctness (Theorem E.3,
//! PSPACE), the *highlander* property (disjoint + at most one key per
//! `(d, span)` pair) and the PTIME check for highlander splitters
//! (Theorem E.4), and annotated splittability via per-key canonical
//! split-spanners (Theorem E.7).

use crate::cover::{self, cover_condition_df};
use crate::error::CertError;
use crate::split_correctness::{
    guarded_product_check, split_correct, CounterExample, FastPathError, Verdict,
};
use crate::splittability::canonical_split_spanner;
use splitc_spanner::splitter::{compose, two_run_report, Splitter};
use splitc_spanner::vars::VarTable;
use splitc_spanner::vsa::Vsa;
use std::collections::BTreeMap;

/// An annotated splitter, represented by its key decomposition.
#[derive(Debug, Clone)]
pub struct AnnotatedSplitter {
    keyed: BTreeMap<String, Splitter>,
}

impl AnnotatedSplitter {
    /// Builds an annotated splitter from `(key, splitter)` pairs.
    pub fn new(
        parts: impl IntoIterator<Item = (String, Splitter)>,
    ) -> Result<AnnotatedSplitter, String> {
        let mut keyed = BTreeMap::new();
        for (k, s) in parts {
            if keyed.insert(k.clone(), s).is_some() {
                return Err(format!("duplicate key {k}"));
            }
        }
        if keyed.is_empty() {
            return Err("an annotated splitter needs at least one key".into());
        }
        Ok(AnnotatedSplitter { keyed })
    }

    /// The keys.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.keyed.keys().map(String::as_str)
    }

    /// The splitter `S_κ` of a key.
    pub fn splitter_of(&self, key: &str) -> Option<&Splitter> {
        self.keyed.get(key)
    }

    /// Evaluates: all `(key, span)` pairs on the document.
    pub fn split(&self, doc: &[u8]) -> Vec<(String, splitc_spanner::span::Span)> {
        let mut out = Vec::new();
        for (k, s) in &self.keyed {
            for sp in s.split(doc) {
                out.push((k.clone(), sp));
            }
        }
        out
    }

    /// The unannotated union splitter (forgets keys).
    pub fn union_splitter(&self) -> Splitter {
        let table = VarTable::new(["x"]).expect("single");
        let mut acc: Option<Vsa> = None;
        for s in self.keyed.values() {
            let v = s
                .vsa()
                .replace_var_table(table.clone())
                .expect("splitters are unary");
            acc = Some(match acc {
                None => v,
                Some(a) => a.union(&v).expect("aligned variables"),
            });
        }
        Splitter::new(acc.expect("non-empty")).expect("unary")
    }

    /// The *highlander* property (App. E): the union splitter is
    /// disjoint **and** no `(document, span)` pair carries two different
    /// keys ("there can be only one").
    pub fn is_highlander(&self) -> bool {
        if !self.union_splitter().is_disjoint() {
            return false;
        }
        let evsas: Vec<_> = self.keyed.values().map(|s| s.evsa()).collect();
        for i in 0..evsas.len() {
            for j in i + 1..evsas.len() {
                let report = two_run_report(&evsas[i], &evsas[j]);
                if report.equal_spans {
                    return false;
                }
            }
        }
        true
    }
}

/// A key–spanner mapping `P_S : K → spanners` (paper §7.3).
#[derive(Debug, Clone)]
pub struct KeySpannerMapping {
    map: BTreeMap<String, Vsa>,
}

impl KeySpannerMapping {
    /// Builds a mapping; all spanners must share the same variables.
    pub fn new(
        parts: impl IntoIterator<Item = (String, Vsa)>,
    ) -> Result<KeySpannerMapping, String> {
        let map: BTreeMap<String, Vsa> = parts.into_iter().collect();
        if map.is_empty() {
            return Err("a key-spanner mapping needs at least one key".into());
        }
        let names = map.values().next().expect("non-empty").vars().clone();
        for v in map.values() {
            if v.vars().names() != names.names() {
                return Err("all key spanners must share the same variables".into());
            }
        }
        Ok(KeySpannerMapping { map })
    }

    /// The spanner of a key.
    pub fn get(&self, key: &str) -> Option<&Vsa> {
        self.map.get(key)
    }

    /// The keys.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.map.keys().map(String::as_str)
    }
}

/// The composition `P_S ∘ S_K` as a single spanner (Lemma E.2):
/// `⋃_κ π_V ((Σ* · x{P_S(κ)} · Σ*) ⋈ S_κ)` — implemented with the
/// Lemma C.2 composition per key, then union.
pub fn annotated_compose(
    mapping: &KeySpannerMapping,
    sk: &AnnotatedSplitter,
) -> Result<Vsa, String> {
    let mut acc: Option<Vsa> = None;
    for key in sk.keys() {
        let ps = mapping
            .get(key)
            .ok_or_else(|| format!("no spanner for key {key}"))?;
        let s = sk.splitter_of(key).expect("key exists");
        let piece = compose(ps, s);
        acc = Some(match acc {
            None => piece,
            Some(a) => a.union(&piece)?,
        });
    }
    acc.ok_or_else(|| "empty annotated splitter".into())
}

/// Annotated split-correctness (Theorem E.3, PSPACE): is
/// `P = P_S ∘ S_K`?
pub fn annotated_split_correct(
    p: &Vsa,
    mapping: &KeySpannerMapping,
    sk: &AnnotatedSplitter,
) -> Result<Verdict, CertError> {
    let composed = annotated_compose(mapping, sk)?;
    Ok(match splitc_spanner::spanner_equivalent(p, &composed)? {
        splitc_spanner::SpannerCheck::Holds => Verdict::Holds,
        splitc_spanner::SpannerCheck::Counterexample {
            doc,
            tuple,
            left_has_it,
        } => Verdict::Fails(CounterExample {
            doc,
            tuple,
            split: None,
            left_has_it,
            reason: "P and P_S ∘ S_K differ".into(),
        }),
    })
}

/// PTIME annotated split-correctness for deterministic functional
/// automata and a *highlander* annotated splitter (Theorem E.4): the
/// cover condition w.r.t. the union splitter, then one guarded product
/// per key (each `(d, s)` pair has a unique key, so per-key pointwise
/// agreement is the right analogue of Theorem 5.7; the same boundary
/// caveat as [`crate::split_correctness`] applies).
pub fn annotated_split_correct_df(
    p: &Vsa,
    mapping: &KeySpannerMapping,
    sk: &AnnotatedSplitter,
) -> Result<Verdict, CertError> {
    cover::validate_df(p, "P")?;
    for key in sk.keys() {
        let ps = mapping
            .get(key)
            .ok_or_else(|| FastPathError::new(format!("no spanner for key {key}")))?;
        cover::validate_df(ps, "P_S(κ)")?;
        cover::validate_df(sk.splitter_of(key).expect("key").vsa(), "S_κ")?;
    }
    if !sk.is_highlander() {
        return Err(FastPathError::new("annotated splitter is not a highlander splitter").into());
    }
    // Cover condition w.r.t. the (disjoint) union splitter. The union
    // of deterministic splitters is not syntactically deterministic;
    // determinize once (footnote 9 of the paper treats S_K as a plain
    // splitter here).
    let union = sk.union_splitter().determinize();
    match cover_condition_df(p, &union)? {
        Verdict::Holds => {}
        fails => return Ok(fails),
    }
    for key in sk.keys() {
        let ps = mapping.get(key).expect("validated");
        let s = sk.splitter_of(key).expect("key");
        match guarded_product_check(p, ps, s) {
            Verdict::Holds => {}
            fails => return Ok(fails),
        }
    }
    Ok(Verdict::Holds)
}

/// Annotated splittability for highlander splitters (Theorem E.7):
/// builds the canonical key–spanner mapping `κ ↦ P_{S_κ}^can` and checks
/// annotated split-correctness against it.
pub fn annotated_splittable(
    p: &Vsa,
    sk: &AnnotatedSplitter,
) -> Result<AnnotatedSplittability, CertError> {
    if !sk.is_highlander() {
        return Err(CertError::UnsupportedSplitter(
            "annotated splittability requires a highlander splitter".into(),
        ));
    }
    let mut parts = Vec::new();
    for key in sk.keys() {
        let s = sk.splitter_of(key).expect("key");
        parts.push((key.to_string(), canonical_split_spanner(p, s)));
    }
    let mapping = KeySpannerMapping::new(parts)?;
    Ok(match annotated_split_correct(p, &mapping, sk)? {
        Verdict::Holds => AnnotatedSplittability::Splittable { witness: mapping },
        Verdict::Fails(cex) => AnnotatedSplittability::NotSplittable(cex),
    })
}

/// Result of an annotated splittability check.
#[derive(Debug, Clone)]
pub enum AnnotatedSplittability {
    /// Splittable; the canonical key–spanner mapping witnesses it.
    Splittable {
        /// Canonical mapping `κ ↦ P_{S_κ}^can`.
        witness: KeySpannerMapping,
    },
    /// Not splittable.
    NotSplittable(CounterExample),
}

impl AnnotatedSplittability {
    /// Whether splittable.
    pub fn is_splittable(&self) -> bool {
        matches!(self, AnnotatedSplittability::Splittable { .. })
    }
}

/// Convenience check that a plain split-correctness instance embeds into
/// the annotated framework with a single key (sanity bridge used by
/// tests).
pub fn single_key(p: &Vsa, ps: &Vsa, s: &Splitter) -> Result<Verdict, CertError> {
    let sk = AnnotatedSplitter::new([("only".to_string(), s.clone())])?;
    let mapping = KeySpannerMapping::new([("only".to_string(), ps.clone())])?;
    let annotated = annotated_split_correct(p, &mapping, &sk)?;
    let plain = split_correct(p, ps, s)?;
    debug_assert_eq!(annotated.holds(), plain.holds());
    Ok(annotated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_spanner::eval::eval;
    use splitc_spanner::rgx::Rgx;
    use splitc_spanner::splitter;

    fn vsa(p: &str) -> Vsa {
        Rgx::parse(p).unwrap().to_vsa().unwrap()
    }

    /// GET/POST request log: messages split by blank lines, annotated by
    /// their method (the paper's §7.3 example).
    fn get_post_splitter() -> AnnotatedSplitter {
        // GET messages: start with "g "; POST messages: start with "p ".
        let get = Splitter::parse("(.*\\n\\n|)x{g [a-z]+}(\\n\\n.*|)").unwrap();
        let post = Splitter::parse("(.*\\n\\n|)x{p [a-z]+}(\\n\\n.*|)").unwrap();
        AnnotatedSplitter::new([("get".to_string(), get), ("post".to_string(), post)]).unwrap()
    }

    #[test]
    fn split_produces_keyed_spans() {
        let sk = get_post_splitter();
        let doc = b"g alpha\n\np beta";
        let pairs = sk.split(doc);
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0, "get");
        assert_eq!(pairs[0].1.slice(doc), b"g alpha");
        assert_eq!(pairs[1].0, "post");
        assert_eq!(pairs[1].1.slice(doc), b"p beta");
    }

    #[test]
    fn highlander_detection() {
        let sk = get_post_splitter();
        assert!(sk.is_highlander());
        // Same span reachable under two keys -> not highlander.
        let a = Splitter::parse("x{[a-z]+}").unwrap();
        let b = Splitter::parse("x{[a-m]+}").unwrap();
        let sk2 = AnnotatedSplitter::new([("k1".to_string(), a), ("k2".to_string(), b)]).unwrap();
        assert!(!sk2.is_highlander());
        // Disjoint keys but overlapping union -> not highlander either.
        let c = Splitter::parse("x{ab}b").unwrap();
        let d = Splitter::parse("a(x{bb})").unwrap();
        let sk3 = AnnotatedSplitter::new([("k1".to_string(), c), ("k2".to_string(), d)]).unwrap();
        assert!(!sk3.is_highlander());
    }

    #[test]
    fn annotated_composition_routes_by_key() {
        let sk = get_post_splitter();
        // Different extraction per method: GET -> capture the path word,
        // POST -> capture the method letter.
        let mapping = KeySpannerMapping::new([
            ("get".to_string(), vsa("g y{[a-z]+}")),
            ("post".to_string(), vsa("y{p} [a-z]+")),
        ])
        .unwrap();
        let composed = annotated_compose(&mapping, &sk).unwrap();
        let doc = b"g alpha\n\np beta";
        let rel = eval(&composed, doc);
        let spans: Vec<_> = rel
            .iter()
            .map(|t| t.get(composed.vars().lookup("y").unwrap()))
            .collect();
        // GET chunk: y = "alpha"; POST chunk: y = "p".
        assert!(spans.contains(&splitc_spanner::span::Span::new(2, 7)));
        assert!(spans.contains(&splitc_spanner::span::Span::new(9, 10)));
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn annotated_split_correctness_positive_and_negative() {
        let sk = get_post_splitter();
        let mapping = KeySpannerMapping::new([
            ("get".to_string(), vsa("g y{[a-z]+}")),
            ("post".to_string(), vsa("p y{[a-z]+}")),
        ])
        .unwrap();
        // P extracts the argument word of every message, method-blind.
        let p = vsa("(.*\\n\\n|)[gp] y{[a-z]+}(\\n\\n.*|)");
        assert!(annotated_split_correct(&p, &mapping, &sk).unwrap().holds());
        // Routing the wrong spanner to "post" breaks it.
        let bad = KeySpannerMapping::new([
            ("get".to_string(), vsa("g y{[a-z]+}")),
            ("post".to_string(), vsa("y{p} [a-z]+")),
        ])
        .unwrap();
        assert!(!annotated_split_correct(&p, &bad, &sk).unwrap().holds());
    }

    #[test]
    fn fast_path_agrees() {
        let raw = get_post_splitter();
        let sk = AnnotatedSplitter::new(
            raw.keys()
                .map(|k| (k.to_string(), raw.splitter_of(k).unwrap().determinize())),
        )
        .unwrap();
        let mapping = KeySpannerMapping::new([
            ("get".to_string(), vsa("g y{[a-z]+}").determinize()),
            ("post".to_string(), vsa("p y{[a-z]+}").determinize()),
        ])
        .unwrap();
        let p = vsa("(.*\\n\\n|)[gp] y{[a-z]+}(\\n\\n.*|)").determinize();
        let slow = annotated_split_correct(&p, &mapping, &sk).unwrap().holds();
        let fast = annotated_split_correct_df(&p, &mapping, &sk)
            .unwrap()
            .holds();
        assert_eq!(slow, fast);
    }

    #[test]
    fn annotated_splittability_builds_canonical_mapping() {
        let sk = get_post_splitter();
        let p = vsa("(.*\\n\\n|)[gp] y{[a-z]+}(\\n\\n.*|)");
        match annotated_splittable(&p, &sk).unwrap() {
            AnnotatedSplittability::Splittable { witness } => {
                // The canonical mapping reproduces P.
                assert!(annotated_split_correct(&p, &witness, &sk).unwrap().holds());
            }
            AnnotatedSplittability::NotSplittable(cex) => {
                panic!("should be annotated-splittable: {cex}")
            }
        }
    }

    #[test]
    fn single_key_bridges_to_plain() {
        let p = vsa(".*y{a+}.*");
        let s = splitter::sentences();
        assert!(single_key(&p, &p, &s).unwrap().holds());
    }
}
