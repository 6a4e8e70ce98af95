//! End-to-end integration: regex formula → formal certification →
//! execution engine, over generated corpora. The decision procedures'
//! verdicts must predict exactly whether distributed evaluation changes
//! the semantics.

use split_correctness::prelude::*;
use split_correctness::textgen::{self, CorpusConfig};
use splitc_textgen::spanners;
use std::sync::Arc;

fn corpus(bytes: usize, seed: u64) -> Vec<u8> {
    textgen::wiki_corpus(&CorpusConfig {
        target_bytes: bytes,
        seed,
        ..Default::default()
    })
}

/// For certified-splittable workloads, split evaluation over the native
/// splitter equals whole-document evaluation on real corpora.
#[test]
fn certified_workloads_evaluate_identically() {
    let s_formal = splitters::sentences();
    let split: SplitFn = Arc::new(native_splitters::sentences);
    let doc = corpus(64 << 10, 11);

    let workloads: Vec<(&str, Vsa)> = vec![
        ("2-gram", spanners::ngram_extractor(2)),
        ("3-gram", spanners::ngram_extractor(3)),
        ("entities", spanners::entity_extractor()),
        ("transactions", spanners::transaction_extractor()),
        ("sentiment", spanners::negative_sentiment_targets()),
    ];
    for (name, p) in workloads {
        let verdict = self_splittable(&p, &s_formal).unwrap();
        assert!(verdict.holds(), "{name} must be certified splittable");
        let spanner = CompileOptions::new().compile_spanner(&p);
        let seq = evaluate_sequential(&spanner, &doc);
        let par = evaluate_split(&spanner, &split, &doc, 3);
        assert_eq!(seq, par, "{name}: distributed evaluation must agree");
    }
}

/// For a non-splittable workload the engine's outputs genuinely differ —
/// the counterexample from the certifier predicts it.
#[test]
fn uncertified_workload_differs_and_witness_is_executable() {
    let p = Rgx::parse(".*x{[a-z]+\\. [A-Z][a-z]+}.*")
        .unwrap()
        .to_vsa()
        .unwrap(); // crosses a sentence boundary by construction
    let s = splitters::sentences();
    let verdict = self_splittable(&p, &s).unwrap();
    let Verdict::Fails(cex) = verdict else {
        panic!("crossing pattern must not be self-splittable");
    };
    // The witness document demonstrates the difference in the engine.
    let spanner = CompileOptions::new().compile_spanner(&p);
    let split: SplitFn = Arc::new(native_splitters::sentences);
    let seq = evaluate_sequential(&spanner, &cex.doc);
    let par = evaluate_split(&spanner, &split, &cex.doc, 2);
    assert_ne!(seq, par, "witness must separate the two plans");
    assert_eq!(seq.contains(&cex.tuple), cex.left_has_it);
}

/// Formal splitters agree with their fast native implementations on
/// generated corpora.
#[test]
fn formal_and_native_splitters_agree_on_corpora() {
    let doc = corpus(8 << 10, 23);
    assert_eq!(
        splitters::sentences().split(&doc),
        native_splitters::sentences(&doc)
    );
    assert_eq!(
        splitters::paragraphs().split(&doc),
        native_splitters::paragraphs(&doc)
    );
    assert_eq!(
        splitters::lines().split(&doc),
        native_splitters::lines(&doc)
    );
    for n in 1..=3 {
        assert_eq!(
            splitters::ngrams(n).split(&doc[..2048]),
            native_splitters::ngrams(&doc[..2048], n),
            "n = {n}"
        );
    }
    let log = textgen::http_log(25, 3);
    assert_eq!(
        splitters::http_messages().split(&log),
        native_splitters::paragraphs(&log)
    );
}

/// The splittability witness (canonical split-spanner) is directly
/// executable: P = witness ∘ S on corpora.
#[test]
fn splittability_witness_runs_on_the_engine() {
    let p = spanners::request_line_extractor();
    let s = splitters::http_messages();
    let SplittabilityVerdict::Splittable { witness } = splittable(&p, &s).unwrap() else {
        panic!("request lines must be splittable by messages");
    };
    let log = textgen::http_log(40, 5);
    let split: SplitFn = Arc::new(native_splitters::paragraphs);
    let via_witness = evaluate_split(
        &CompileOptions::new().compile_spanner(&witness),
        &split,
        &log,
        2,
    );
    let direct = evaluate_sequential(&CompileOptions::new().compile_spanner(&p), &log);
    assert_eq!(via_witness, direct);
}

/// Incremental evaluation equals from-scratch evaluation across a series
/// of edits on a real corpus.
#[test]
fn incremental_is_exact_over_edit_series() {
    let p = spanners::entity_extractor();
    let s = splitters::sentences();
    assert!(self_splittable(&p, &s).unwrap().holds());
    let spanner = CompileOptions::new().compile_spanner(&p);
    let cache = Arc::new(SegmentCache::new(1 << 16));
    let runner = RunnerOptions::new()
        .segment_cache(cache.clone())
        .corpus_runner(spanner.clone(), s.compile());
    let mut doc = corpus(16 << 10, 31);
    let mut handle = CorpusHandle::from_shards(s.compile(), [doc.clone()]);
    for i in 0..10 {
        let pos = (i * 997) % doc.len();
        doc[pos] = b'Q';
        handle.edit(0, pos..pos + 1, b"Q");
        assert_eq!(handle.shard_bytes(0), &doc[..]);
        assert_eq!(
            handle.extract(&runner).relations,
            [evaluate_sequential(&spanner, &doc)]
        );
    }
    let stats = cache.stats();
    assert!(stats.hits > stats.misses, "edits must mostly hit the cache");
}
