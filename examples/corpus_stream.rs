//! Streaming sharded corpus execution: split documents *while reading
//! them*, fan segments out to a bounded-queue worker pool, and aggregate
//! per-document results — without ever materializing a document.
//!
//! ```sh
//! cargo run --release --example corpus_stream
//! ```

use split_correctness::prelude::*;
use split_correctness::textgen::{self, CorpusConfig};

fn main() {
    // 1. An extractor (every alphanumeric token) and a splitter
    //    (sentences), certified self-splittable: per-segment evaluation
    //    provably equals whole-document evaluation (Thm 5.16).
    let p = Rgx::parse("(.*[^A-Za-z0-9]|)x{[A-Za-z0-9]+}([^A-Za-z0-9].*|)")
        .unwrap()
        .to_vsa()
        .unwrap();
    let s = splitters::sentences();
    assert!(self_splittable(&p, &s).unwrap().holds());
    println!("token extractor certified self-splittable by sentences ✓");

    // 2. A sharded corpus, generated as paragraph-chunk streams — the
    //    chunks go straight into the pipeline, no shard is materialized.
    let cfg = CorpusConfig {
        target_bytes: 64 << 10,
        ..Default::default()
    };
    let shards = 8;

    // 3. Stream the corpus through the runner: incremental splitting on
    //    this thread, batched segments over a bounded queue, 4 workers
    //    evaluating with per-worker lazy-DFA caches.
    let runner = RunnerOptions::new()
        .workers(4)
        .corpus_runner(CompileOptions::new().compile_spanner(&p), s.compile());
    let result = runner.run_streams(textgen::wiki_corpus_shards(shards, &cfg));
    let stats = result.stats;
    let tuples: usize = result.relations.iter().map(|r| r.len()).sum();
    println!(
        "{tuples} tokens from {} documents / {} segments ({} bytes) in {} batches",
        stats.docs, stats.segments, stats.segment_bytes, stats.batches,
    );
    println!(
        "lazy-DFA cache hit rate {:.4}; peak stream buffer {} bytes \
         (vs {} corpus bytes — memory stays at segment + chunk scale)",
        stats.cache.hit_rate(),
        stats.peak_buffered_bytes,
        stats.segment_bytes,
    );

    // 4. The certificate in action: the streamed result equals batch
    //    evaluation of the materialized corpus.
    let owned: Vec<Vec<u8>> = textgen::wiki_corpus_shards(shards, &cfg)
        .into_iter()
        .map(|sh| sh.flatten().collect())
        .collect();
    let refs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
    let spanner = CompileOptions::new().compile_spanner(&p);
    let split: SplitFn = std::sync::Arc::new(native_splitters::sentences);
    let batch = evaluate_many_split(&spanner, &split, &refs, 4);
    assert_eq!(result.relations, batch, "streaming equals batch semantics");
    println!("streamed relations equal materialized batch evaluation ✓");
}
