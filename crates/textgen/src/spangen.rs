//! Seeded random *spanners* (as opposed to the corpora of
//! [`crate::corpus`]): the shared generator behind the repository-wide
//! engine-matrix differential harness.
//!
//! Every differential suite — the root `tests/engine_matrix.rs`
//! campaign, the fleet proptests of `splitc-exec` — draws its random
//! spanner/document pairs from this one module, so a new engine is
//! exercised against exactly the same distribution as every existing
//! one. The generators are deterministic in their seed (the proptest
//! shim samples seeds; structure is derived with a SplitMix64 stream),
//! which keeps failures replayable across crates.

use splitc_spanner::byteset::ByteSet;
use splitc_spanner::rgx::{Ast, Rgx};
use splitc_spanner::vsa::Vsa;

/// Fixed spanner patterns covering the engine-relevant shapes: empty
/// spans, unions, multiple variables, `Σ*` contexts (skip-loop bait),
/// and literal anchors (prefilter bait).
pub const PATTERNS: &[&str] = &[
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

/// Tiny SplitMix64 stream for seeded structure generation.
#[derive(Debug)]
pub struct Mix(pub u64);

impl Mix {
    /// The next raw 64-bit draw.
    pub fn draw(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw uniform-ish below `bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.draw() % bound
    }
}

/// A random variable-free regex AST over the `{a, b, c, ab, any, ε}`
/// leaf alphabet, depth-bounded. The distribution deliberately yields
/// literal anchors (prefilter gates engage), `Σ*` contexts (skip-loops
/// engage) and plain automata (everything falls back) in one stream.
pub fn rand_boolean_ast(rng: &mut Mix, depth: usize) -> Ast {
    let leaf = |rng: &mut Mix| match rng.below(6) {
        0 => Ast::Bytes(ByteSet::single(b'a')),
        1 => Ast::Bytes(ByteSet::single(b'b')),
        2 => Ast::Bytes(ByteSet::single(b'c')),
        3 => Ast::Bytes(ByteSet::from_bytes(b"ab")),
        4 => Ast::Bytes(ByteSet::FULL),
        _ => Ast::Epsilon,
    };
    if depth == 0 {
        return leaf(rng);
    }
    match rng.below(6) {
        0 | 1 => leaf(rng),
        2 => Ast::Concat(vec![
            rand_boolean_ast(rng, depth - 1),
            rand_boolean_ast(rng, depth - 1),
        ]),
        3 => Ast::Alt(vec![
            rand_boolean_ast(rng, depth - 1),
            rand_boolean_ast(rng, depth - 1),
        ]),
        4 => Ast::Star(Box::new(rand_boolean_ast(rng, depth - 1))),
        _ => Ast::Opt(Box::new(rand_boolean_ast(rng, depth - 1))),
    }
}

/// A random *functional* spanner: a top-level concatenation with one or
/// two variables at fixed slots (each path binds every variable exactly
/// once) and random boolean contexts around them.
pub fn rand_spanner_vsa(seed: u64) -> Vsa {
    let mut rng = Mix(seed);
    let two_vars = rng.below(2) == 0;
    let mut parts = vec![
        rand_boolean_ast(&mut rng, 2),
        Ast::Var("x".into(), Box::new(rand_boolean_ast(&mut rng, 2))),
        rand_boolean_ast(&mut rng, 2),
    ];
    if two_vars {
        parts.push(Ast::Var(
            "y".into(),
            Box::new(rand_boolean_ast(&mut rng, 2)),
        ));
        parts.push(rand_boolean_ast(&mut rng, 2));
    }
    Rgx::from_ast(Ast::Concat(parts))
        .expect("generated variables are well-formed")
        .to_vsa()
        .expect("generated AST is functional by construction")
}

/// A random single-variable spanner drawn from an existing stream (used
/// for fleet members, where the pool spans the whole gate spectrum:
/// strong literal evidence, required-byte-only, and catch-alls).
pub fn rand_member_vsa(rng: &mut Mix) -> Vsa {
    let parts = vec![
        rand_boolean_ast(rng, 2),
        Ast::Var("x".into(), Box::new(rand_boolean_ast(rng, 2))),
        rand_boolean_ast(rng, 2),
    ];
    Rgx::from_ast(Ast::Concat(parts))
        .expect("generated variables are well-formed")
        .to_vsa()
        .expect("generated AST is functional by construction")
}

/// A seeded fleet of `n` random single-variable spanners.
pub fn rand_fleet(seed: u64, n: usize) -> Vec<Vsa> {
    let mut rng = Mix(seed);
    (0..n).map(|_| rand_member_vsa(&mut rng)).collect()
}

/// A match-dense document: up to `max_len` bytes over the alphabet the
/// generated spanners and the library splitters both react to (letters,
/// sentence/line delimiters, token boundaries).
pub fn dense_doc(seed: u64, max_len: usize) -> Vec<u8> {
    let mut rng = Mix(seed ^ 0xD0C5);
    let len = if max_len == 0 {
        0
    } else {
        rng.below(max_len as u64 + 1) as usize
    };
    (0..len)
        .map(|_| match rng.below(6) {
            0 => b'a',
            1 => b'b',
            2 => b'c',
            3 => b'.',
            4 => b'\n',
            _ => b' ',
        })
        .collect()
}

/// A match-sparse document: long runs of filler with rare interesting
/// bytes — the shape prefilter gates and skip-loops are built for.
pub fn sparse_doc(seed: u64, max_len: usize) -> Vec<u8> {
    let mut rng = Mix(seed ^ 0x5BA2);
    let len = if max_len == 0 {
        0
    } else {
        rng.below(max_len as u64 + 1) as usize
    };
    (0..len)
        .map(|_| match rng.below(17) {
            0 => b'a',
            1..=8 => b'b',
            _ => b'.',
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        for seed in [0u64, 1, 42, u64::MAX] {
            assert_eq!(
                rand_spanner_vsa(seed).vars().names(),
                rand_spanner_vsa(seed).vars().names()
            );
            assert_eq!(dense_doc(seed, 32), dense_doc(seed, 32));
            assert_eq!(sparse_doc(seed, 64), sparse_doc(seed, 64));
        }
    }

    #[test]
    fn generated_spanners_are_functional() {
        for seed in 0..32u64 {
            assert!(rand_spanner_vsa(seed).is_functional());
        }
        assert_eq!(rand_fleet(7, 5).len(), 5);
    }

    #[test]
    fn fixed_patterns_parse() {
        for p in PATTERNS {
            Rgx::parse(p).unwrap().to_vsa().unwrap();
        }
    }
}
