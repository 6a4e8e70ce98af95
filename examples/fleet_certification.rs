//! Fleet certification: batch-certify a family of extractors against
//! one splitter on a worker pool, then run the certified survivors
//! through the streaming corpus executor.
//!
//! ```sh
//! cargo run --release --example fleet_certification
//! ```

use split_correctness::exec::certify::{certify_many, CertifyConfig};
use split_correctness::prelude::*;
use split_correctness::textgen::{self, CorpusConfig};

fn main() {
    // 1. A fleet of extractors that should all ride the sentence
    //    splitter. Two are sentence-local, one crosses sentence
    //    boundaries, one needs context a chunk cannot provide.
    let patterns = [
        (".*x{a+}.*", "a-runs (sentence-local)"),
        (
            "(.*[^A-Za-z0-9]|)x{[A-Za-z0-9]+}([^A-Za-z0-9].*|)",
            "tokens",
        ),
        (".*x{a\\.a}.*", "period-crossing window"),
        (".*\\. x{[a-z]+}.*", "word after a sentence end"),
    ];
    let fleet: Vec<Vsa> = patterns
        .iter()
        .map(|(p, _)| Rgx::parse(p).unwrap().to_vsa().unwrap())
        .collect();
    let s = splitters::sentences();

    // 2. Certify all self-splittability pairs in one batch. The batch
    //    certifier shares composed spanners across pairs, routes
    //    eligible pairs through the Theorem 5.7 fast path, and runs the
    //    general pairs on the antichain containment engine.
    let pairs: Vec<(usize, usize)> = (0..fleet.len()).map(|i| (i, i)).collect();
    let result = certify_many(&fleet, &s, &pairs, &CertifyConfig::default());
    for (outcome, (pattern, label)) in result.outcomes.iter().zip(&patterns) {
        match &outcome.verdict {
            Ok(v) if v.holds() => println!("✓ {label}  ({pattern})  [{:?}]", outcome.path),
            Ok(Verdict::Fails(cex)) => println!(
                "✗ {label}  witness doc {:?}",
                String::from_utf8_lossy(&cex.doc)
            ),
            Ok(Verdict::Holds) => unreachable!(),
            Err(e) => println!("! {label}  error: {e}"),
        }
    }
    println!(
        "stats: {} pairs, {} fast-path, {} general, compose cache {}h/{}m\n",
        result.stats.pairs,
        result.stats.fast_path,
        result.stats.general,
        result.stats.compose_hits,
        result.stats.compose_misses,
    );

    // 3. Only certified extractors may be distributed — run one of them
    //    over a streamed synthetic corpus and cross-check a document.
    let certified: Vec<usize> = result
        .outcomes
        .iter()
        .filter(|c| c.holds())
        .map(|c| c.pair.0)
        .collect();
    println!(
        "{}/{} extractors certified for per-sentence execution",
        certified.len(),
        fleet.len()
    );
    let p = &fleet[certified[0]];
    let cfg = CorpusConfig {
        target_bytes: 64 << 10,
        ..Default::default()
    };
    let runner =
        RunnerOptions::new().corpus_runner(CompileOptions::new().compile_spanner(p), s.compile());
    let shards = 4;
    let out = runner.run_streams(textgen::wiki_corpus_shards(shards, &cfg));
    println!(
        "corpus run: {} docs, {} segments, {} tuples (streamed, certified-equal \
         to whole-document evaluation)",
        out.stats.docs,
        out.stats.segments,
        out.relations.iter().map(|r| r.len()).sum::<usize>(),
    );
}
