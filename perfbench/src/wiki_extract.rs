//! `wiki_extract`: the bulk streaming path. 16 × 1 MiB Wikipedia-like
//! shards, fed in 64 KiB chunks through `CorpusRunner::run_streams`
//! with the number extractor on the AOT engine under the sentence
//! splitter. One operation is one full pass over the corpus.

use crate::common::{measure, report_overhead, Outcome, Tracer};
use crate::{repeated_setup, Args};
use splitc_exec::{
    certify_many, evaluate_many_split, CertifyConfig, CompileOptions, CorpusRunner, Engine,
    ExecSpanner, RunnerOptions, SplitFn, StreamingSplitter,
};
use splitc_spanner::splitter::{self, native, CompiledSplitter};
use splitc_spanner::vsa::Vsa;
use splitc_spanner::SpanRelation;
use splitc_textgen::{wiki_corpus_shards, CorpusConfig};
use std::sync::Arc;

pub const SHARDS: usize = 16;
pub const SHARD_BYTES: usize = 1 << 20;
pub const CHUNK_BYTES: usize = 64 << 10;

/// The e5 number extractor: maximal digit runs, self-splittable by
/// sentences.
pub fn number_extractor() -> Vsa {
    splitc_spanner::rgx::Rgx::parse("(.*[^0-9]|)x{[0-9]+}([^0-9].*|)")
        .expect("number extractor parses")
        .to_vsa()
        .expect("number extractor compiles")
}

/// `n` seeded wiki shards of `bytes` each, cut into [`CHUNK_BYTES`]
/// chunks (chunk edges fall inside sentences, so the splitter carries
/// state across chunks).
pub fn wiki_chunks(seed: u64, n: usize, bytes: usize) -> Vec<Vec<Vec<u8>>> {
    let cfg = CorpusConfig {
        target_bytes: bytes,
        seed,
        ..Default::default()
    };
    wiki_corpus_shards(n, &cfg)
        .into_iter()
        .map(|shard| {
            let doc: Vec<u8> = shard.flatten().collect();
            doc.chunks(CHUNK_BYTES).map(<[u8]>::to_vec).collect()
        })
        .collect()
}

/// Compiled pieces of the pipeline.
pub struct Compiled {
    pub spanner: ExecSpanner,
    pub splitter: CompiledSplitter,
}

/// Compiles the number extractor and sentence splitter on the AOT tier
/// and certifies the pair split-correct.
pub fn compile_and_certify(tracer: &mut Tracer, out: &mut Outcome) -> Compiled {
    let vsa = number_extractor();
    let opts = CompileOptions::new().engine(Engine::Aot);
    let ((spanner, splitter), _, _) = tracer.span("exec.options.compile", None, None, || {
        (
            opts.compile_spanner(&vsa),
            opts.compile_splitter(&splitter::sentences()),
        )
    });
    let (cert, _, _) = tracer.span("exec.certify", None, None, || {
        certify_many(
            &[vsa],
            &splitter::sentences(),
            &[(0, 0)],
            &CertifyConfig {
                workers: crate::common::nproc(),
                ..CertifyConfig::default()
            },
        )
    });
    if !cert.all_hold() {
        out.fail("number extractor is not certified split-correct under sentences".into());
    }
    Compiled { spanner, splitter }
}

/// The independent reference: materialized documents, the native
/// sentence splitter, the dense engine, and `evaluate_many_split`.
pub fn reference(docs: &[&[u8]]) -> Vec<SpanRelation> {
    let dense = CompileOptions::new()
        .engine(Engine::Dense)
        .compile_spanner(&number_extractor());
    let split: SplitFn = Arc::new(native::sentences);
    evaluate_many_split(&dense, &split, docs, crate::common::nproc())
}

fn pass(runner: &CorpusRunner, chunks: &[Vec<Vec<u8>>]) -> Vec<SpanRelation> {
    runner
        .run_streams(chunks.iter().map(|c| c.iter().map(Vec::as_slice)))
        .relations
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let chunks = wiki_chunks(args.seed, SHARDS, SHARD_BYTES);
    let docs: Vec<Vec<u8>> = chunks.iter().map(|c| c.concat()).collect();
    let total: usize = docs.iter().map(Vec::len).sum();
    let workers = crate::common::nproc();

    let (compiled, runner) = repeated_setup(&mut out, tracer, |tracer, out| {
        let c = compile_and_certify(tracer, out);
        let runner = RunnerOptions::new()
            .workers(workers)
            .corpus_runner(c.spanner.clone(), c.splitter.clone());
        (c, runner)
    });

    let refs: Vec<&[u8]> = docs.iter().map(Vec::as_slice).collect();
    let expected = reference(&refs);
    // Warm-up pass: page in the inputs and grow the allocator's pools.
    let _ = pass(&runner, &chunks);

    let (mut attempted, mut failed) = (0, 0);
    let (lp, traced) = measure(args.loop_time(), tracer, |tracer| {
        let t0 = std::time::Instant::now();
        let (rels, wall, op) = tracer.span("op", None, None, || pass(&runner, &chunks));
        attempted += 1;
        if rels != expected {
            failed += 1;
            eprintln!("wiki_extract: pass differs from the reference");
        }
        if tracer.enabled {
            replay_layers(tracer, op, &compiled, &chunks);
        }
        (t0, wall, total as f64)
    });
    out.attempted += attempted;
    out.failed += failed;
    report_overhead(&mut out, &lp, traced.as_ref());
    lp.report(&mut out, tracer.enabled);
    println!("wiki_extract: {SHARDS} shards, {total} bytes, {workers} workers");
    out
}

/// Times the pass's layers alone on one thread, as replay children of
/// the pass's span: the streaming split (one producer thread in the
/// runner), then per-segment evaluation (spread over the workers).
pub fn replay_layers(
    tracer: &mut Tracer,
    op: Option<usize>,
    c: &Compiled,
    chunks: &[Vec<Vec<u8>>],
) -> (usize, usize) {
    let (segments, _, _) = tracer.span("exec.stream", op, Some(1), || {
        split_all(&c.splitter, chunks)
    });
    let (tuples, _, _) = tracer.span("spanner.aot", op, Some(crate::common::nproc()), || {
        segments
            .iter()
            .map(|s| c.spanner.eval(s).len())
            .sum::<usize>()
    });
    (segments.len(), tuples)
}

/// Streams every shard through a fresh `StreamingSplitter`, returning
/// the segment bytes.
pub fn split_all(splitter: &CompiledSplitter, chunks: &[Vec<Vec<u8>>]) -> Vec<Vec<u8>> {
    let mut segs = Vec::new();
    for shard in chunks {
        let mut s = StreamingSplitter::new(splitter);
        for chunk in shard {
            segs.extend(s.push(chunk).into_iter().map(|seg| seg.bytes));
        }
        segs.extend(s.finish().into_iter().map(|seg| seg.bytes));
    }
    segs
}
