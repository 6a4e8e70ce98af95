//! `fleet_requery`: re-querying a presplit corpus with a 64-member
//! keyword fleet. 16 × 1 MiB keyword shards are split once into a
//! `CorpusHandle` at set-up; one operation is one
//! `FleetRunner::run_presplit` pass over the maintained segmentation, so
//! no splitting happens in the timed path. (`extract_fleet` is not used:
//! its memo would answer every pass after the first.)

use crate::common::{measure, nproc, report_overhead, Outcome, Rng, Tracer};
use crate::{repeated_setup, Args};
use splitc_automata::scan::MultiNeedle;
use splitc_exec::{
    certify_many, CertifyConfig, CompileOptions, CorpusHandle, Engine, Fleet, FleetResult,
    FleetRunner, RunnerOptions,
};
use splitc_spanner::splitter::{self, CompiledSplitter};
use splitc_spanner::vsa::Vsa;
use splitc_spanner::SpanRelation;
use splitc_textgen::spanners::keyword_fleet;
use splitc_textgen::{fleet_keyword, keyword_corpus_shards, CorpusConfig};
use std::sync::Arc;

pub const SHARDS: usize = 16;
pub const SHARD_BYTES: usize = 1 << 20;
pub const KEYWORDS: usize = 64;
pub const NEEDLE_EVERY: usize = 16;
/// Shards checked against per-member reference runs after every pass.
const CHECKED_SHARDS: usize = 2;

/// `n` seeded keyword-mention shards of `bytes` each.
pub fn keyword_shards(seed: u64, n: usize, bytes: usize) -> Vec<Vec<u8>> {
    let cfg = CorpusConfig {
        target_bytes: bytes,
        seed,
        ..Default::default()
    };
    keyword_corpus_shards(n, &cfg, KEYWORDS, NEEDLE_EVERY)
}

/// Set-up products: the compiled fleet, its splitter, and the presplit
/// corpus.
pub struct Prepared {
    pub vsas: Vec<Vsa>,
    pub fleet: Arc<Fleet>,
    pub splitter: CompiledSplitter,
    pub handle: CorpusHandle,
}

/// Compiles and certifies the 64-member fleet and presplits `shards`.
pub fn prepare(tracer: &mut Tracer, out: &mut Outcome, shards: &[Vec<u8>]) -> Prepared {
    let vsas = keyword_fleet(KEYWORDS);
    let opts = CompileOptions::new().engine(Engine::Aot);
    let ((fleet, splitter), _, _) = tracer.span("exec.options.compile_fleet", None, None, || {
        (
            Arc::new(opts.compile_fleet(&vsas)),
            opts.compile_splitter(&splitter::sentences()),
        )
    });
    let (cert, _, _) = tracer.span("exec.certify", None, None, || certify_fleet(&vsas));
    if !cert {
        out.fail("keyword fleet is not certified split-correct under sentences".into());
    }
    let (handle, _, _) = tracer.span("exec.handle.presplit", None, None, || {
        CorpusHandle::from_shards(splitter.clone(), shards.iter().cloned())
    });
    Prepared {
        vsas,
        fleet,
        splitter,
        handle,
    }
}

/// Certifies every member against the sentence splitter in one batch.
pub fn certify_fleet(vsas: &[Vsa]) -> bool {
    let pairs: Vec<(usize, usize)> = (0..vsas.len()).map(|i| (i, i)).collect();
    certify_many(
        vsas,
        &splitter::sentences(),
        &pairs,
        &CertifyConfig {
            workers: nproc(),
            ..CertifyConfig::default()
        },
    )
    .all_hold()
}

/// Per-member reference: each member compiled alone on the prefilter
/// tier and run by its own `CorpusRunner`, which streams and splits the
/// materialized shards itself. Returns `[shard][member]`.
fn reference(vsas: &[Vsa], docs: &[&[u8]]) -> Vec<Vec<SpanRelation>> {
    let opts = CompileOptions::new().engine(Engine::Prefilter);
    let mut per_doc = vec![Vec::with_capacity(vsas.len()); docs.len()];
    for vsa in vsas {
        let runner = RunnerOptions::new().workers(nproc()).corpus_runner(
            opts.compile_spanner(vsa),
            opts.compile_splitter(&splitter::sentences()),
        );
        for (d, rel) in runner.run_slices(docs).relations.into_iter().enumerate() {
            per_doc[d].push(rel);
        }
    }
    per_doc
}

pub fn pass(runner: &FleetRunner, handle: &CorpusHandle) -> FleetResult {
    runner.run_presplit(handle.presplit_docs())
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let shards = keyword_shards(args.seed, SHARDS, SHARD_BYTES);
    let total: usize = shards.iter().map(Vec::len).sum();

    let (p, runner) = repeated_setup(&mut out, tracer, |tracer, out| {
        let p = prepare(tracer, out, &shards);
        let runner = RunnerOptions::new()
            .workers(nproc())
            .fleet_runner(p.fleet.clone(), p.splitter.clone());
        (p, runner)
    });

    let mut rng = Rng::new(args.seed);
    let first = rng.below(SHARDS);
    let checked: Vec<usize> = (0..CHECKED_SHARDS).map(|k| (first + k) % SHARDS).collect();
    let docs: Vec<&[u8]> = checked.iter().map(|&i| shards[i].as_slice()).collect();
    let expected = reference(&p.vsas, &docs);
    let _ = pass(&runner, &p.handle);

    let (mut attempted, mut failed) = (0, 0);
    let (lp, traced) = measure(args.loop_time(), tracer, |tracer| {
        let t0 = std::time::Instant::now();
        let (res, wall, op) = tracer.span("op", None, None, || pass(&runner, &p.handle));
        attempted += 1;
        let ok = res.relations.len() == SHARDS
            && checked
                .iter()
                .zip(&expected)
                .all(|(&i, want)| &res.relations[i] == want);
        if !ok {
            failed += 1;
            eprintln!("fleet_requery: pass differs from the per-member reference");
        }
        if tracer.enabled {
            replay_layers(tracer, op, &p);
        }
        (t0, wall, total as f64)
    });
    out.attempted += attempted;
    out.failed += failed;
    report_overhead(&mut out, &lp, traced.as_ref());
    lp.report(&mut out, tracer.enabled);
    println!(
        "fleet_requery: {SHARDS} shards, {total} bytes, {} segments, {KEYWORDS} members, checked shards {checked:?}",
        p.handle.total_segments()
    );
    out
}

/// All segments of the presplit corpus, as byte slices.
pub fn segments(handle: &CorpusHandle) -> Vec<&[u8]> {
    (0..handle.num_shards())
        .flat_map(|i| {
            let bytes = handle.shard_bytes(i);
            handle
                .segments(i)
                .iter()
                .map(move |s| &bytes[s.start..s.end])
        })
        .collect()
}

/// The 64 keywords as scanner needles.
pub fn needles() -> Vec<Vec<u8>> {
    (0..KEYWORDS)
        .map(|i| fleet_keyword(i).into_bytes())
        .collect()
}

/// Replays the pass's layers: the fused pass through a one-worker
/// `FleetRunner` (gates, shared scan, engines, and the runner's own
/// batching), with a plain multi-needle scan of the same segments as its
/// child (the scan's share, measured without the fleet's early exit).
/// Both count as spread over the pass's `nproc` workers.
pub fn replay_layers(tracer: &mut Tracer, op: Option<usize>, p: &Prepared) {
    let n = nproc();
    let one = RunnerOptions::new()
        .workers(1)
        .fleet_runner(p.fleet.clone(), p.splitter.clone());
    let (_, _, fleet_span) = tracer.span("exec.fleet", op, Some(n), || pass(&one, &p.handle));
    let segs = segments(&p.handle);
    let scanner = MultiNeedle::new(&needles());
    tracer.span("automata.scan", fleet_span, Some(n), || {
        segs.iter()
            .map(|s| scanner.find_all(s).len())
            .sum::<usize>()
    });
}
