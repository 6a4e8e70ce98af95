//! E5 — streaming sharded corpus execution vs. materialize-then-split.
//!
//! The paper certifies that a split-correct spanner can be evaluated per
//! segment; PR 3's streaming subsystem turns that into a pipeline that
//! never materializes a document: chunks stream through an incremental
//! splitter, segments are batched onto a bounded queue, and a worker
//! pool evaluates them with per-worker dense caches. This benchmark
//! compares that pipeline ([`splitc_exec::CorpusRunner`]) against the
//! batch baseline (materialize every document, then
//! [`splitc_exec::evaluate_many_split`] with the same formal splitter)
//! on a sharded Wikipedia-like corpus, at equal worker counts.
//!
//! Emits the standard `BENCH` rows (`e5_corpus_stream/batch` and
//! `e5_corpus_stream/stream`) and reports streaming run statistics:
//! segments, batches, lazy-DFA cache hit rate, and the peak streaming
//! buffer (which stays near chunk + segment size, not corpus size).

use splitc_bench::{bench_json, engine_arg, ms, scaled, time_best, x, Table};
use splitc_exec::{evaluate_many_split, CompileOptions, RunnerOptions, SplitFn};
use splitc_spanner::splitter;
use splitc_spanner::vsa::Vsa;
use splitc_textgen::{wiki_corpus_shards, CorpusConfig};
use std::sync::Arc;

/// The workload extractor: maximal-digit-run tokens (`[0-9]+` bounded by
/// non-digits), self-splittable by sentences.
fn number_extractor() -> Vsa {
    splitc_spanner::rgx::Rgx::parse("(.*[^0-9]|)x{[0-9]+}([^0-9].*|)")
        .unwrap()
        .to_vsa()
        .unwrap()
}

fn main() {
    let engine = engine_arg();
    let workers: usize = std::env::var("SC_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let docs = 16;
    let per_doc = scaled(1 << 20);
    println!(
        "E5: streaming corpus execution over {docs} shards x {:.1} MiB \
         (engine: {}, workers: {workers})",
        per_doc as f64 / (1 << 20) as f64,
        engine.name()
    );

    let cfg = CorpusConfig {
        target_bytes: per_doc,
        seed: 0x5EED,
        ..Default::default()
    };
    let spanner = CompileOptions::new()
        .engine(engine)
        .compile_spanner(&number_extractor());
    let s = splitter::sentences();
    let compiled = s.compile();

    // Pre-generate the shard chunk lists so generator cost (RNG + string
    // formatting) is excluded from BOTH timed pipelines: the batch side
    // concatenates them into documents, the streaming side feeds the
    // same chunks without ever concatenating a document.
    let shard_chunks: Vec<Vec<Vec<u8>>> = wiki_corpus_shards(docs, &cfg)
        .into_iter()
        .map(|shard| shard.collect())
        .collect();
    let owned: Vec<Vec<u8>> = shard_chunks.iter().map(|c| c.concat()).collect();
    let refs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
    let total_bytes: usize = refs.iter().map(|d| d.len()).sum();

    // Batch baseline: formal split of each materialized document, then
    // per-segment tasks on the pool.
    let split: SplitFn = {
        let c = compiled.clone();
        Arc::new(move |doc: &[u8]| c.split(doc))
    };
    let (batch_rels, batch_wall) =
        time_best(2, || evaluate_many_split(&spanner, &split, &refs, workers));
    let batch_tuples: usize = batch_rels.iter().map(|r| r.len()).sum();
    bench_json(
        "e5_corpus_stream/batch",
        engine.name(),
        total_bytes,
        docs as f64,
        batch_wall,
        batch_tuples,
    );

    // Streaming pipeline over the same paragraph chunks — no document
    // is ever materialized on this path.
    let runner = RunnerOptions::new()
        .workers(workers)
        .corpus_runner(spanner.clone(), compiled.clone());
    let (stream_result, stream_wall) = time_best(2, || {
        runner.run_streams(
            shard_chunks
                .iter()
                .map(|chunks| chunks.iter().map(Vec::as_slice)),
        )
    });
    let stream_tuples: usize = stream_result.relations.iter().map(|r| r.len()).sum();
    bench_json(
        "e5_corpus_stream/stream",
        engine.name(),
        total_bytes,
        docs as f64,
        stream_wall,
        stream_tuples,
    );

    assert_eq!(
        stream_result.relations, batch_rels,
        "streaming and batch execution must agree"
    );

    let stats = stream_result.stats;
    let mib = total_bytes as f64 / (1 << 20) as f64;
    let mut table = Table::new(
        &format!("E5 — corpus execution at {workers} workers"),
        &["pipeline", "wall ms", "MiB/s", "speedup vs batch"],
    );
    table.row(&[
        "materialize + evaluate_many_split".into(),
        ms(batch_wall),
        format!("{:.1}", mib / batch_wall.as_secs_f64().max(1e-9)),
        x(1.0),
    ]);
    table.row(&[
        "streaming CorpusRunner".into(),
        ms(stream_wall),
        format!("{:.1}", mib / stream_wall.as_secs_f64().max(1e-9)),
        x(batch_wall.as_secs_f64() / stream_wall.as_secs_f64().max(1e-9)),
    ]);
    table.print();
    println!(
        "{} tuples from {} segments in {} batches; lazy-DFA cache hit rate {:.4}; \
         peak stream buffer {} bytes (corpus: {} bytes)",
        stream_tuples,
        stats.segments,
        stats.batches,
        stats.cache.hit_rate(),
        stats.peak_buffered_bytes,
        total_bytes,
    );
}
