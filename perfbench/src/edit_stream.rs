//! `edit_stream`: writes beside reads. 32 × 256 KiB wiki shards are held
//! in a `CorpusHandle` with a `SegmentCache` attached to its runner; one
//! operation is one step of a seeded Wikipedia-model edit script (70%
//! point edits, 20% appends, 10% shard rewrites) followed by
//! `CorpusHandle::extract` of the whole corpus.

use crate::common::{measure, nproc, report_overhead, Outcome, Rng, Tracer};
use crate::{repeated_setup, Args};
use splitc_exec::{
    certify_many, CertifyConfig, CompileOptions, CorpusHandle, CorpusRunner, DeltaStats,
    ExecSpanner, RunnerOptions, SegmentCache,
};
use splitc_spanner::splitter;
use splitc_spanner::SpanRelation;
use splitc_textgen::edits::{edit_script, Edit};
use splitc_textgen::spanners::entity_extractor;
use splitc_textgen::{wiki_corpus, CorpusConfig};
use std::sync::Arc;
use std::time::Instant;

pub const SHARDS: usize = 32;
pub const SHARD_BYTES: usize = 256 << 10;
/// Segment-cache capacity: room for every segment of the corpus plus
/// the churn of a run's edits.
pub const CACHE_SEGMENTS: usize = 1 << 17;
/// Edit-script steps generated at a time (scripts track shard lengths,
/// so each block is generated against the current shadow state).
const BLOCK: usize = 64;
/// One operation in this many is checked against a full rescan of its
/// shard.
const CHECK_EVERY: usize = 8;

/// `n` seeded wiki shards of `bytes` each.
pub fn wiki_shards(seed: u64, n: usize, bytes: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            wiki_corpus(&CorpusConfig {
                target_bytes: bytes,
                seed: seed.wrapping_mul(1_000_003).wrapping_add(i as u64),
                ..Default::default()
            })
        })
        .collect()
}

/// A maintained corpus and the cached runner that re-extracts it.
pub struct Maintained {
    pub handle: CorpusHandle,
    pub runner: CorpusRunner,
    pub cache: Arc<SegmentCache>,
    /// The compiled spanner; its `cache_id` keys the runner's cache.
    pub spanner: ExecSpanner,
    /// The same spanner and splitter without a cache: the reference.
    pub uncached: CorpusRunner,
}

/// Compiles and certifies the entity extractor (default engine), builds
/// the handle, and runs the cold extraction that fills memo and cache.
pub fn maintain(tracer: &mut Tracer, out: &mut Outcome, shards: &[Vec<u8>]) -> Maintained {
    let vsa = entity_extractor();
    let opts = CompileOptions::new();
    let ((spanner, split), _, _) = tracer.span("exec.options.compile", None, None, || {
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
                workers: nproc(),
                ..CertifyConfig::default()
            },
        )
    });
    if !cert.all_hold() {
        out.fail("entity extractor is not certified split-correct under sentences".into());
    }
    let cache = Arc::new(SegmentCache::new(CACHE_SEGMENTS));
    let base = RunnerOptions::new().workers(nproc());
    let runner = base
        .clone()
        .segment_cache(cache.clone())
        .corpus_runner(spanner.clone(), split.clone());
    let uncached = base.corpus_runner(spanner.clone(), split.clone());
    let (handle, _, _) = tracer.span("exec.handle.presplit", None, None, || {
        CorpusHandle::from_shards(split, shards.iter().cloned())
    });
    tracer.span("exec.handle.extract", None, None, || {
        handle.extract(&runner)
    });
    Maintained {
        handle,
        runner,
        cache,
        spanner,
        uncached,
    }
}

/// Applies one script step to the handle.
pub fn apply(handle: &mut CorpusHandle, edit: &Edit) -> DeltaStats {
    match edit {
        Edit::Point {
            shard,
            start,
            end,
            text,
        } => handle.edit(*shard, *start..*end, text),
        Edit::Append { shard, text } => handle.append(*shard, text),
        Edit::ReplaceShard { shard, text } => handle.replace_shard(*shard, text.clone()),
    }
}

pub fn shard_of(edit: &Edit) -> usize {
    match edit {
        Edit::Point { shard, .. }
        | Edit::Append { shard, .. }
        | Edit::ReplaceShard { shard, .. } => *shard,
    }
}

/// The seeded edit script, generated a block at a time against the
/// current shard lengths.
pub struct Script {
    seed: u64,
    block: u64,
    pending: std::vec::IntoIter<Edit>,
}

impl Script {
    pub fn new(seed: u64) -> Script {
        Script {
            seed,
            block: 0,
            pending: Vec::new().into_iter(),
        }
    }

    pub fn next(&mut self, shadow: &[Vec<u8>]) -> Edit {
        if let Some(e) = self.pending.next() {
            return e;
        }
        let lens: Vec<usize> = shadow.iter().map(Vec::len).collect();
        let seed = self
            .seed
            .wrapping_mul(0x100_0000_01B3)
            .wrapping_add(self.block);
        self.block += 1;
        self.pending = edit_script(seed, &lens, BLOCK).into_iter();
        self.pending.next().expect("a non-empty block")
    }
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut shadow = wiki_shards(args.seed, SHARDS, SHARD_BYTES);

    let mut m = repeated_setup(&mut out, tracer, |tracer, out| {
        maintain(tracer, out, &shadow)
    });
    // A traced run keeps a twin beside the measured handle: the same
    // corpus and edits with its own cache, so the dirty shard alone can
    // be pushed through `run_presplit` and the cache probed.
    let mut twin = tracer
        .enabled
        .then(|| maintain(&mut Tracer::new(false), &mut Outcome::default(), &shadow));

    let mut script = Script::new(args.seed);
    let mut rng = Rng::new(args.seed ^ 0xED17);
    let (mut attempted, mut failed) = (0, 0);
    let mut last: Vec<SpanRelation> = Vec::new();
    let (mut resplit, mut converged, mut edits_seen) = (0usize, 0usize, 0usize);
    let (lp, traced) = measure(args.loop_time(), tracer, |tracer| {
        let edit = script.next(&shadow);
        let shard = shard_of(&edit);
        let t0 = Instant::now();
        let (delta, _, delta_span) = tracer.span("exec.handle.delta", None, None, || {
            apply(&mut m.handle, &edit)
        });
        let (res, _, extract_span) = tracer.span("exec.handle.extract", None, None, || {
            m.handle.extract(&m.runner)
        });
        let t1 = Instant::now();
        if let Some(op) = tracer.record("op", None, None, t0, t1) {
            for child in [delta_span, extract_span].into_iter().flatten() {
                tracer.set_parent(child, op);
            }
        }
        attempted += 1;
        edits_seen += 1;
        resplit += delta.resplit_bytes;
        converged += delta.converged as usize;
        edit.apply(&mut shadow);
        if rng.below(CHECK_EVERY) == 0 {
            let want = m.uncached.run_slices(&[shadow[shard].as_slice()]).relations;
            if res.relations.len() != SHARDS || res.relations[shard] != want[0] {
                failed += 1;
                eprintln!(
                    "edit_stream: shard {shard} differs from a full rescan after a {}",
                    edit.name()
                );
            }
        }
        if let Some(tw) = twin.as_mut() {
            apply(&mut tw.handle, &edit);
            if tracer.enabled {
                replay_dirty(tracer, extract_span, tw, shard);
            }
        }
        let bytes = m.handle.total_bytes() as f64;
        last = res.relations;
        (t0, t1 - t0, bytes)
    });
    // Final state: every shard against an uncached full rescan.
    let docs: Vec<&[u8]> = shadow.iter().map(Vec::as_slice).collect();
    if last != m.uncached.run_slices(&docs).relations {
        out.fail("edit_stream: final state differs from an uncached full rescan".into());
    }
    out.attempted += attempted;
    out.failed += failed;
    report_overhead(&mut out, &lp, traced.as_ref());
    let bytes = m.handle.total_bytes() as f64;
    lp.report(&mut out, tracer.enabled);
    let cs = m.cache.stats();
    println!(
        "edit_stream: {SHARDS} shards, {bytes} bytes, {edits_seen} edits, mean resplit {:.0} bytes, converged {:.3}, cache hit rate {:.4}",
        resplit as f64 / edits_seen.max(1) as f64,
        converged as f64 / edits_seen.max(1) as f64,
        cs.hit_rate()
    );
    out
}

/// Replays the dirty shard alone, as children of the extract span: see
/// [`dirty_alone`].
fn replay_dirty(tracer: &mut Tracer, extract_span: Option<usize>, tw: &Maintained, shard: usize) {
    let [presplit, probe] = dirty_alone(tw, shard);
    let id = tracer.record(
        "exec.corpus.presplit_dirty",
        extract_span,
        Some(1),
        presplit.0,
        presplit.1,
    );
    tracer.record("exec.segcache.probe", id, Some(nproc()), probe.0, probe.1);
}

/// Pushes shard `shard` of `tw` alone through `run_presplit` on its
/// cached runner (the gap to `extract` is memo assembly), then probes
/// every segment of that shard in its now-warm cache. Returns the two
/// intervals.
pub fn dirty_alone(tw: &Maintained, shard: usize) -> [(Instant, Instant); 2] {
    let h = &tw.handle;
    let t0 = Instant::now();
    std::hint::black_box(
        tw.runner
            .run_presplit(std::iter::once((h.shard_bytes(shard), h.segments(shard)))),
    );
    let t1 = Instant::now();
    let bytes = h.shard_bytes(shard);
    let id = tw.spanner.cache_id();
    for s in h.segments(shard) {
        let seg = &bytes[s.start..s.end];
        std::hint::black_box(tw.cache.get_or_eval(id, seg, || tw.spanner.eval(seg)));
    }
    [(t0, t1), (t1, Instant::now())]
}
