//! Streaming sharded corpus execution: one pipeline, two evaluators.
//!
//! [`CorpusRunner`] is the production shape of the paper's parallel
//! evaluation payoff: instead of materializing every document and
//! calling [`crate::evaluate_many_split`], it *streams* each document
//! through a [`StreamingSplitter`] (constant memory per document),
//! batches the emitted segments to amortize dispatch, fans the batches
//! out to a worker pool over a **bounded** queue (backpressure, so peak
//! memory is `chunk size + queue depth × batch bytes`, never corpus
//! size), evaluates each batch with the dense engine through a
//! per-worker lazy-DFA cache, and aggregates per-document
//! [`SpanRelation`]s with deterministic ordering regardless of worker
//! scheduling.
//!
//! This module owns that pipeline once, for both runners. A
//! [`CorpusRunner`] and a [`crate::FleetRunner`] each pair a
//! per-segment evaluator — one [`ExecSpanner`] (an engine dispatch
//! behind a segment-cache probe) or one [`crate::Fleet`] (the fused
//! gate → scan → dispatch pass) — with the same crate-private pipeline:
//! streaming split or presplit spans, batching, the bounded queue,
//! spawned or [`EvalPool`] workers with the drain-on-panic protocol,
//! and the deterministic `(document, member)` merge.
//!
//! When `P = P_S ∘ S` has been certified split-correct
//! (`splitc-core`), the relations returned here equal whole-document
//! evaluation of `P` — the differential proptest suite asserts equality
//! with [`crate::evaluate_many_split`] on every run.

use crate::engine::ExecSpanner;
use crate::pool::EvalPool;
use crate::segcache::SegmentCache;
use crate::stream::{Segment, StreamingSplitter};
use parking_lot::Mutex;
use splitc_spanner::dense::{DenseCache, DenseCacheStats};
use splitc_spanner::prefilter::PrefilterStats;
use splitc_spanner::span::Span;
use splitc_spanner::splitter::CompiledSplitter;
use splitc_spanner::tuple::{SpanRelation, SpanTuple};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;

/// Tuning knobs of a [`CorpusRunner`] (and of a [`crate::FleetRunner`],
/// which runs the same pipeline), set through the per-field setters of
/// [`crate::RunnerOptions`].
#[derive(Debug, Clone, Copy)]
pub struct CorpusRunnerConfig {
    /// Evaluation worker threads (the producer streams and splits on the
    /// calling thread). `0` is normalized to 1, matching the contract of
    /// the engine's pool entry points.
    pub workers: usize,
    /// Target payload per dispatched batch: segments are accumulated
    /// until their combined length reaches this many bytes, so corpora
    /// of tiny segments do not pay one queue round-trip per segment.
    pub batch_bytes: usize,
    /// Capacity of the bounded work queue, in batches. The producer
    /// blocks when the queue is full (backpressure), which bounds peak
    /// in-flight segment memory at `queue_depth × batch_bytes` plus one
    /// batch per worker.
    pub queue_depth: usize,
    /// Chunk size used by [`CorpusRunner::run_slices`] when feeding
    /// already-materialized documents through the streaming path.
    pub chunk_bytes: usize,
}

impl Default for CorpusRunnerConfig {
    fn default() -> Self {
        CorpusRunnerConfig {
            workers: 4,
            batch_bytes: 32 << 10,
            queue_depth: 8,
            chunk_bytes: 64 << 10,
        }
    }
}

impl CorpusRunnerConfig {
    /// Returns a copy with every zero knob normalized to its minimum
    /// legal value (1). This is *the* normalization every runner entry
    /// point applies — callers holding possibly-zero configured values
    /// can pass them straight through, and services that want a typed
    /// rejection instead can validate up front (see
    /// `splitc-server`'s config layer) rather than rely on panics.
    pub fn normalized(self) -> CorpusRunnerConfig {
        CorpusRunnerConfig {
            workers: self.workers.max(1),
            batch_bytes: self.batch_bytes.max(1),
            queue_depth: self.queue_depth.max(1),
            chunk_bytes: self.chunk_bytes.max(1),
        }
    }
}

/// Run statistics of one [`CorpusRunner`] invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorpusStats {
    /// Documents streamed.
    pub docs: usize,
    /// Documents whose relation was reused verbatim from a
    /// [`crate::CorpusHandle`] extraction memo instead of being run
    /// (always 0 outside [`crate::CorpusHandle::extract`]).
    pub docs_reused: usize,
    /// Split segments evaluated.
    pub segments: usize,
    /// Total bytes across all evaluated segments.
    pub segment_bytes: u64,
    /// Batches dispatched to the worker pool.
    pub batches: usize,
    /// Largest byte window any document's streaming splitter held at
    /// once — bounded by segment + chunk length for prompt splitters,
    /// not by document size.
    pub peak_buffered_bytes: usize,
    /// Aggregated per-worker lazy-DFA cache statistics (all zero under
    /// [`crate::Engine::Nfa`]).
    pub cache: DenseCacheStats,
    /// Aggregated prefilter statistics: worker-side gate rejections and
    /// skip-loop jumps (non-zero only under [`crate::Engine::Prefilter`])
    /// plus the streaming splitter's own skip-loop bytes (any engine).
    pub prefilter: PrefilterStats,
}

/// The outcome of a corpus run: one relation per input document (in
/// input order) plus run statistics.
#[derive(Debug, Clone)]
pub struct CorpusResult {
    /// Per-document span relations, index-aligned with the input order.
    pub relations: Vec<SpanRelation>,
    /// Statistics of the run.
    pub stats: CorpusStats,
}

/// The per-segment step the shared [`Pipeline`] fans out to its
/// workers. Production has exactly two implementations: [`ExecSpanner`]
/// (below) and [`crate::Fleet`]; everything around the step — split,
/// batch, queue, worker lifecycle, panic draining, merge — belongs to
/// the pipeline.
pub(crate) trait SegmentEval: Send + Sync + 'static {
    /// Worker-local state (engine caches, counters), created once per
    /// worker.
    type Scratch;

    /// What a worker reports to the runner when the queue drains.
    type Report: Send + 'static;

    /// Relations produced per document (members of the evaluator). An
    /// evaluator of width 0 is never given a segment.
    fn width(&self) -> usize;

    /// Fresh worker-local state.
    fn scratch(&self) -> Self::Scratch;

    /// Reduces a drained worker's state to its report. Runs on the
    /// worker, so the engine caches are torn down there, in parallel.
    fn report(scratch: Self::Scratch) -> Self::Report;

    /// Evaluates one segment, reporting `(member, relation)` for each
    /// member it dispatched (the relation may be empty); unreported
    /// members contribute nothing. With a `seg_cache`, a dispatch is
    /// first looked up by segment content.
    fn eval_into(
        &self,
        bytes: &[u8],
        seg_cache: Option<&SegmentCache>,
        scratch: &mut Self::Scratch,
        sink: impl FnMut(usize, &SpanRelation),
    );
}

impl SegmentEval for ExecSpanner {
    type Scratch = (DenseCache, PrefilterStats);
    type Report = (DenseCacheStats, PrefilterStats);

    fn width(&self) -> usize {
        1
    }

    fn scratch(&self) -> Self::Scratch {
        (DenseCache::default(), PrefilterStats::default())
    }

    fn report((cache, prefilter): Self::Scratch) -> Self::Report {
        (cache.stats(), prefilter)
    }

    fn eval_into(
        &self,
        bytes: &[u8],
        seg_cache: Option<&SegmentCache>,
        (cache, prefilter): &mut Self::Scratch,
        mut sink: impl FnMut(usize, &SpanRelation),
    ) {
        // Segment relations are pure functions of the bytes, so a
        // content-addressed hit is byte-identical to the engine
        // dispatch it replaces.
        match seg_cache {
            Some(sc) => {
                let (rel, _) = sc.get_or_eval(self.cache_id(), bytes, || {
                    self.backend().eval_scratch(bytes, cache, prefilter)
                });
                sink(0, &rel);
            }
            None => sink(0, &self.backend().eval_scratch(bytes, cache, prefilter)),
        }
    }
}

/// One segment flowing through the queue. The streaming path moves
/// each freshly split [`Segment`] in (the bytes were just materialized
/// and have no other owner); the presplit re-query path shares one
/// `Arc` of the whole document per segment instead of copying bytes —
/// at corpus scale that removes one allocation and one memcpy per
/// segment from the all-hits hot path.
enum SegPayload {
    /// Owned segment bytes (streaming split output).
    Owned(Segment),
    /// A slice `doc[span.start..span.end]` of a shared document.
    Shared { doc: Arc<Vec<u8>>, span: Span },
}

impl SegPayload {
    /// The segment's absolute span in its document (the shift applied
    /// to its tuples).
    fn span(&self) -> Span {
        match self {
            SegPayload::Owned(seg) => seg.span,
            SegPayload::Shared { span, .. } => *span,
        }
    }

    /// The segment bytes.
    fn bytes(&self) -> &[u8] {
        match self {
            SegPayload::Owned(seg) => &seg.bytes,
            SegPayload::Shared { doc, span } => &doc[span.start..span.end],
        }
    }
}

/// A batch of split segments bound for one worker. Batches may span
/// document boundaries, so collections of tiny documents still fill
/// them.
struct Batch {
    /// `(document index, segment)` pairs, in stream order.
    segments: Vec<(usize, SegPayload)>,
}

/// The producer side of the pipeline, handed to the per-document
/// closure of [`Pipeline::run`]: accumulates segments into batches and
/// dispatches them over the bounded queue (blocking when it is full —
/// the backpressure that bounds in-flight memory). Producers mutate run
/// statistics directly through `stats`.
struct Feed<'a> {
    tx: std::sync::mpsc::SyncSender<Batch>,
    batch: Vec<(usize, SegPayload)>,
    batch_bytes: usize,
    target: usize,
    stats: &'a mut CorpusStats,
}

impl Feed<'_> {
    fn segment(&mut self, di: usize, seg: SegPayload) {
        let len = seg.bytes().len();
        self.stats.segments += 1;
        self.stats.segment_bytes += len as u64;
        self.batch_bytes += len;
        self.batch.push((di, seg));
        if self.batch_bytes >= self.target {
            self.flush();
        }
    }
    fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        self.stats.batches += 1;
        self.batch_bytes = 0;
        let _ = self.tx.send(Batch {
            segments: std::mem::take(&mut self.batch),
        });
    }
}

/// The runner-independent half of both runners: the splitter, the
/// tuning, and the two shared resources a service threads through every
/// request. Built by [`crate::RunnerOptions`].
#[derive(Debug)]
pub(crate) struct Pipeline {
    pub(crate) splitter: CompiledSplitter,
    pub(crate) config: CorpusRunnerConfig,
    /// Shared long-lived worker pool. `None` spawns per-run threads
    /// (the batch-job shape); services reuse one [`EvalPool`] across
    /// requests.
    pub(crate) pool: Option<Arc<EvalPool>>,
    /// Shared content-addressed per-segment result cache. `None`
    /// evaluates every segment; services attach one process-wide cache
    /// so re-queries over slightly-changed corpora skip the unchanged
    /// segments.
    pub(crate) segment_cache: Option<Arc<SegmentCache>>,
}

/// What [`Pipeline::run`] hands back to its runner: the merged
/// `relations[doc][member]`, the runner-independent statistics, and
/// every worker's report for the runner to fold into its own stats.
pub(crate) struct PipelineRun<R> {
    pub(crate) relations: Vec<Vec<SpanRelation>>,
    pub(crate) stats: CorpusStats,
    pub(crate) reports: Vec<R>,
}

impl Pipeline {
    /// Streams chunked documents through the splitter into the workers.
    pub(crate) fn run_streams<E, D, C, B>(&self, eval: &Arc<E>, docs: D) -> PipelineRun<E::Report>
    where
        E: SegmentEval,
        D: IntoIterator<Item = C>,
        C: IntoIterator<Item = B>,
        B: AsRef<[u8]>,
    {
        self.run(eval, docs, |feed, di, doc| {
            let mut splitter = StreamingSplitter::new(&self.splitter);
            for chunk in doc {
                for seg in splitter.push(chunk.as_ref()) {
                    feed.segment(di, SegPayload::Owned(seg));
                }
            }
            feed.stats.peak_buffered_bytes = feed
                .stats
                .peak_buffered_bytes
                .max(splitter.peak_buffered_bytes());
            feed.stats.prefilter.bytes_skipped += splitter.bytes_skipped();
            for seg in splitter.finish() {
                feed.segment(di, SegPayload::Owned(seg));
            }
        })
    }

    /// Feeds already-split documents, skipping the splitter.
    pub(crate) fn run_presplit<'a, E, D>(&self, eval: &Arc<E>, docs: D) -> PipelineRun<E::Report>
    where
        E: SegmentEval,
        D: IntoIterator<Item = (&'a [u8], &'a [Span])>,
    {
        self.run(eval, docs, |feed, di, (bytes, spans)| {
            // One copy of the document, shared by every segment — the
            // per-segment cost is an `Arc` clone, not a byte copy, which
            // is what keeps the all-hits re-query path ahead of a full
            // rescan.
            let doc = Arc::new(bytes.to_vec());
            for &span in spans {
                feed.segment(
                    di,
                    SegPayload::Shared {
                        doc: doc.clone(),
                        span,
                    },
                );
            }
        })
    }

    /// Materialized documents through the streaming path, in
    /// [`CorpusRunnerConfig::chunk_bytes`] chunks.
    pub(crate) fn run_slices<E: SegmentEval>(
        &self,
        eval: &Arc<E>,
        docs: &[&[u8]],
    ) -> PipelineRun<E::Report> {
        let chunk = self.config.chunk_bytes.max(1);
        self.run_streams(eval, docs.iter().map(|d| d.chunks(chunk)))
    }

    /// The pipeline body: spins up the worker side, lets `produce` feed
    /// each document's segments through a [`Feed`] (which batches and
    /// applies backpressure), then collects and deterministically merges
    /// worker outputs.
    fn run<E, I, P>(&self, eval: &Arc<E>, docs: I, mut produce: P) -> PipelineRun<E::Report>
    where
        E: SegmentEval,
        I: IntoIterator,
        P: FnMut(&mut Feed<'_>, usize, I::Item),
    {
        let config = self.config.normalized();
        let width = eval.width();
        // An evaluator with no members (an empty fleet) needs no work:
        // documents are counted but never split, scanned, or dispatched.
        let workers = if width == 0 { 0 } else { config.workers };
        let mut stats = CorpusStats::default();
        let mut partials: Vec<(usize, usize, Vec<SpanTuple>)> = Vec::new();
        let mut reports = Vec::with_capacity(workers);

        let (tx, rx) = sync_channel::<Batch>(config.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        // Set when any worker's evaluation panics. Workers keep draining
        // the queue afterwards (without evaluating), so the producer's
        // blocking `send` on the bounded queue can never deadlock; the
        // panic is re-raised below once every worker has reported.
        let failed = Arc::new(AtomicBool::new(false));
        // Worker contexts are fully owned (`Arc` clones of the
        // evaluator, queue, and failure flag), so the same loop runs on
        // a shared long-lived [`EvalPool`] or on per-run spawned threads.
        let (out_tx, out_rx) = std::sync::mpsc::channel::<WorkerOutput<E::Report>>();
        let mut handles = Vec::new();
        for _ in 0..workers {
            let eval = eval.clone();
            let rx = rx.clone();
            let failed = failed.clone();
            let out_tx = out_tx.clone();
            let seg_cache = self.segment_cache.clone();
            let job = move || {
                let _ = out_tx.send(worker_loop(&*eval, seg_cache.as_deref(), &rx, &failed));
            };
            match &self.pool {
                Some(pool) => pool.execute(Box::new(job)),
                None => handles.push(std::thread::spawn(job)),
            }
        }
        drop(out_tx);

        // Producer: `produce` feeds segments on the calling thread; the
        // feed accumulates them (across document boundaries) until the
        // batch payload target is reached, then blocks on the bounded
        // queue — that block is the backpressure that caps in-flight
        // memory.
        let mut feed = Feed {
            tx,
            batch: Vec::new(),
            batch_bytes: 0,
            target: config.batch_bytes,
            stats: &mut stats,
        };
        for (di, doc) in docs.into_iter().enumerate() {
            feed.stats.docs += 1;
            if workers > 0 {
                produce(&mut feed, di, doc);
            }
        }
        feed.flush();
        drop(feed);

        // Collect exactly one report per worker. A worker that died
        // before reporting (a panic outside the catch — a bug) shows up
        // as a disconnected channel and is surfaced as a failure.
        for _ in 0..workers {
            match out_rx.recv() {
                Ok((tuples, report)) => {
                    partials.extend(tuples);
                    reports.push(report);
                }
                Err(_) => {
                    failed.store(true, Ordering::Relaxed);
                    break;
                }
            }
        }
        for h in handles {
            let _ = h.join();
        }
        assert!(
            !failed.load(Ordering::Relaxed),
            "a runner worker panicked while evaluating a batch"
        );

        // Deterministic aggregation: `from_tuples` sorts and dedups per
        // (doc, member), so the result is independent of batch and
        // worker scheduling.
        let mut per: Vec<Vec<Vec<SpanTuple>>> = (0..stats.docs)
            .map(|_| (0..width).map(|_| Vec::new()).collect())
            .collect();
        for (di, mi, tuples) in partials {
            per[di][mi].extend(tuples);
        }
        PipelineRun {
            relations: per
                .into_iter()
                .map(|row| row.into_iter().map(SpanRelation::from_tuples).collect())
                .collect(),
            stats,
            reports,
        }
    }
}

/// What one worker hands back when the queue drains: shifted tuples
/// keyed by `(doc, member)`, plus its report.
type WorkerOutput<R> = (Vec<(usize, usize, Vec<SpanTuple>)>, R);

/// One evaluation worker: drains the queue, evaluates each segment
/// with worker-local scratch, and returns shifted tuples keyed by
/// `(doc, member)`. Evaluation panics are caught and recorded in
/// `failed` — the worker then keeps draining (without evaluating) so
/// the producer never deadlocks on the bounded queue.
///
/// A free function over owned/shared contexts (not a method) so the
/// same loop body runs on per-run threads and on a long-lived
/// [`EvalPool`].
fn worker_loop<E: SegmentEval>(
    eval: &E,
    seg_cache: Option<&SegmentCache>,
    rx: &Mutex<Receiver<Batch>>,
    failed: &AtomicBool,
) -> WorkerOutput<E::Report> {
    let mut scratch = eval.scratch();
    let mut out: Vec<(usize, usize, Vec<SpanTuple>)> = Vec::new();
    loop {
        // Hold the lock across `recv`: batches are coarse, so the
        // serialization this imposes on the pop path is noise, and it
        // keeps the pool free of a lock-free queue dependency.
        let batch = match rx.lock().recv() {
            Ok(b) => b,
            Err(_) => break, // producer hung up and queue drained
        };
        if failed.load(Ordering::Relaxed) {
            continue; // drain-only after a failure elsewhere
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut local: Vec<(usize, usize, Vec<SpanTuple>)> = Vec::new();
            for (di, seg) in &batch.segments {
                let (bytes, span) = (seg.bytes(), seg.span());
                eval.eval_into(bytes, seg_cache, &mut scratch, |mi, rel| {
                    if !rel.is_empty() {
                        local.push((*di, mi, rel.iter().map(|t| t.shift(span)).collect()));
                    }
                });
            }
            local
        }));
        match result {
            Ok(tuples) => out.extend(tuples),
            Err(_) => failed.store(true, Ordering::Relaxed),
        }
    }
    (out, E::report(scratch))
}

/// Streaming sharded corpus executor: one [`ExecSpanner`] over the
/// shared pipeline (see the [module docs](self)). Construct with
/// [`crate::RunnerOptions::corpus_runner`] and feed a corpus with
/// [`CorpusRunner::run_streams`] (chunked sources),
/// [`CorpusRunner::run_slices`] (materialized documents, driven through
/// the same streaming path), or [`CorpusRunner::run_presplit`].
#[derive(Debug)]
pub struct CorpusRunner {
    pub(crate) spanner: Arc<ExecSpanner>,
    pub(crate) pipeline: Pipeline,
}

impl CorpusRunner {
    /// The runner's configuration.
    pub fn config(&self) -> &CorpusRunnerConfig {
        &self.pipeline.config
    }

    /// Streams a corpus of chunked document sources through the
    /// pipeline. Each item of `docs` is one document, delivered as an
    /// iterator of byte chunks (e.g. reads from a file or a generator) —
    /// no document is ever materialized by the runner.
    pub fn run_streams<D, C, B>(&self, docs: D) -> CorpusResult
    where
        D: IntoIterator<Item = C>,
        C: IntoIterator<Item = B>,
        B: AsRef<[u8]>,
    {
        corpus_result(self.pipeline.run_streams(&self.spanner, docs))
    }

    /// Evaluates documents whose split is **already known**, skipping
    /// the splitter entirely: each item is `(document bytes, split
    /// spans)`. This is the re-query path of the incremental layer —
    /// [`crate::handle::CorpusHandle`] maintains segmentations across
    /// edits and re-extracts through this entry point, so an unchanged
    /// segment costs one cache lookup instead of a resplit + dispatch.
    ///
    /// The spans must be the splitter's output for those bytes (the
    /// handle guarantees this); the pipeline downstream of splitting —
    /// batching, pooling, caching, deterministic merge — is identical to
    /// [`CorpusRunner::run_streams`].
    pub fn run_presplit<'a, D>(&self, docs: D) -> CorpusResult
    where
        D: IntoIterator<Item = (&'a [u8], &'a [Span])>,
    {
        corpus_result(self.pipeline.run_presplit(&self.spanner, docs))
    }

    /// Runs already-materialized documents through the streaming path,
    /// feeding each in [`CorpusRunnerConfig::chunk_bytes`] chunks. This
    /// is the entry point the differential tests and the
    /// `e5_corpus_stream` benchmark compare against
    /// [`crate::evaluate_many_split`].
    pub fn run_slices(&self, docs: &[&[u8]]) -> CorpusResult {
        corpus_result(self.pipeline.run_slices(&self.spanner, docs))
    }
}

/// Folds the workers' engine caches and prefilter counters into the
/// run statistics and unwraps the single relation per document.
fn corpus_result(run: PipelineRun<(DenseCacheStats, PrefilterStats)>) -> CorpusResult {
    let mut stats = run.stats;
    for (cache, prefilter) in run.reports {
        stats.cache = stats.cache.merge(cache);
        stats.prefilter = stats.prefilter.merge(prefilter);
    }
    CorpusResult {
        relations: run
            .relations
            .into_iter()
            .map(|mut row| row.pop().expect("one relation per document"))
            .collect(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{evaluate_many_split, Engine, SplitFn};
    use crate::{CompileOptions, RunnerOptions};
    use splitc_spanner::rgx::Rgx;
    use splitc_spanner::splitter;
    use splitc_spanner::vsa::Vsa;

    fn vsa(pat: &str) -> Vsa {
        Rgx::parse(pat).unwrap().to_vsa().unwrap()
    }

    fn spanner(pat: &str, engine: Engine) -> ExecSpanner {
        CompileOptions::new()
            .engine(engine)
            .compile_spanner(&vsa(pat))
    }

    fn runner(pat: &str, opts: RunnerOptions) -> CorpusRunner {
        opts.corpus_runner(spanner(pat, Engine::Dense), splitter::sentences().compile())
    }

    /// Sentence splitting by the reference evaluator, independent of the
    /// streaming tables the runners split on.
    fn reference_split() -> SplitFn {
        let s = splitter::sentences();
        Arc::new(move |doc: &[u8]| s.split(doc))
    }

    fn docs() -> Vec<Vec<u8>> {
        vec![
            b"aa bb. aaa. b aa".to_vec(),
            b"".to_vec(),
            b"no delimiter aaa".to_vec(),
            b"a.a.a.".to_vec(),
            b"...".to_vec(),
        ]
    }

    #[test]
    fn matches_evaluate_many_split() {
        let owned = docs();
        let refs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        let got = runner(".*x{a+}.*", RunnerOptions::tiny()).run_slices(&refs);
        let split = reference_split();
        let expected = evaluate_many_split(&spanner(".*x{a+}.*", Engine::Dense), &split, &refs, 3);
        assert_eq!(got.relations, expected);
        assert_eq!(got.stats.docs, refs.len());
        assert!(got.stats.segments > 0);
    }

    #[test]
    fn nfa_engine_and_zero_workers() {
        let owned = docs();
        let refs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        let got = RunnerOptions::new()
            .workers(0)
            .corpus_runner(
                spanner(".*x{a+}.*", Engine::Nfa),
                splitter::sentences().compile(),
            )
            .run_slices(&refs);
        let split = reference_split();
        let dense = spanner(".*x{a+}.*", Engine::Dense);
        assert_eq!(got.relations, evaluate_many_split(&dense, &split, &refs, 1));
        assert_eq!(got.stats.cache, DenseCacheStats::default());
    }

    #[test]
    fn cache_is_warm_on_repetitive_corpora() {
        let owned: Vec<Vec<u8>> = (0..50).map(|_| b"aa bb. cc aa. aaa".to_vec()).collect();
        let refs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        let got = runner(".*x{a+}.*", RunnerOptions::new().workers(2)).run_slices(&refs);
        assert!(
            got.stats.cache.hit_rate() > 0.9,
            "lazy DFA should be amortized: {:?}",
            got.stats.cache
        );
    }

    #[test]
    fn streaming_buffer_is_bounded() {
        // One 64 KiB document of short sentences, streamed in 512-byte
        // chunks: the splitter window must stay near segment + chunk.
        let doc: Vec<u8> = (0..4096)
            .flat_map(|_| b"aaaa bb aaaa cc.".to_vec())
            .collect();
        let refs: Vec<&[u8]> = vec![&doc];
        let opts = RunnerOptions::new().workers(2).chunk_bytes(512);
        let got = runner(".*x{a+}.*", opts).run_slices(&refs);
        assert!(
            got.stats.peak_buffered_bytes <= 512 + 64,
            "peak {} should be ~chunk+segment, doc is {}",
            got.stats.peak_buffered_bytes,
            doc.len()
        );
    }

    #[test]
    fn prefilter_engine_matches_and_reports_stats() {
        // A sparse corpus: only one sentence in many contains a digit.
        let mut owned: Vec<Vec<u8>> = (0..20)
            .map(|_| b"plain words only here. nothing to find. still nothing".to_vec())
            .collect();
        owned.push(b"the answer is 42. plain tail".to_vec());
        let refs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        let pat = "(.*[^0-9]|)x{[0-9]+}([^0-9].*|)";
        let opts = RunnerOptions::new().workers(2);
        let pre = opts.corpus_runner(
            spanner(pat, Engine::Prefilter),
            splitter::sentences().compile(),
        );
        let dense =
            opts.corpus_runner(spanner(pat, Engine::Dense), splitter::sentences().compile());
        let got = pre.run_slices(&refs);
        assert_eq!(got.relations, dense.run_slices(&refs).relations);
        let pf = got.stats.prefilter;
        assert!(
            pf.bytes_skipped > 500,
            "most segments should be gate-rejected: {pf:?}"
        );
        assert!(pf.candidates >= 1, "the digit sentence is a candidate");
        assert!(
            pf.candidates <= 4,
            "sparse corpus must not flood candidates: {pf:?}"
        );
        // Dense runs report no prefilter activity (the streaming
        // splitter may still skip, but sentences open everywhere).
        assert_eq!(dense.run_slices(&refs).stats.prefilter.candidates, 0);
    }

    #[test]
    fn empty_corpus() {
        let r = runner("x{a*}", RunnerOptions::new());
        let got = r.run_slices(&[]);
        assert!(got.relations.is_empty());
        assert_eq!(got.stats, CorpusStats::default());
    }

    #[test]
    fn pooled_runner_matches_spawned_runner() {
        let owned = docs();
        let refs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        let spawned = runner(".*x{a+}.*", RunnerOptions::tiny()).run_slices(&refs);
        // A shared pool, reused across several requests — including one
        // *smaller* than the requested worker count (self-draining
        // loops must still complete the run).
        for pool_size in [1, 2, 8] {
            let pool = Arc::new(EvalPool::new(pool_size));
            for _request in 0..3 {
                let got =
                    runner(".*x{a+}.*", RunnerOptions::tiny().pool(pool.clone())).run_slices(&refs);
                assert_eq!(got.relations, spawned.relations, "pool size {pool_size}");
            }
            assert!(pool.stats().submitted >= 3, "pool was actually used");
        }
    }

    #[test]
    fn repeated_segments_hit_segment_cache() {
        let cache = Arc::new(SegmentCache::new(64));
        let opts = RunnerOptions::new().workers(1).segment_cache(cache.clone());
        let got = runner(".*x{a+}.*", opts).run_slices(&[b"aa.aa.aa"]); // three identical segments
        let s = cache.stats();
        assert_eq!((s.misses, s.hits), (1, 2));
        // Per segment: x ∈ {a@0, a@1, aa} — 3 tuples, shifted apart.
        assert_eq!(got.relations[0].len(), 9, "shifted copies are distinct");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn config_normalization() {
        let zeroed = CorpusRunnerConfig {
            workers: 0,
            batch_bytes: 0,
            queue_depth: 0,
            chunk_bytes: 0,
        }
        .normalized();
        assert_eq!(zeroed.workers, 1);
        assert_eq!(zeroed.batch_bytes, 1);
        assert_eq!(zeroed.queue_depth, 1);
        assert_eq!(zeroed.chunk_bytes, 1);
        let kept = CorpusRunnerConfig::default().normalized();
        assert_eq!(kept.workers, CorpusRunnerConfig::default().workers);
    }

    /// A stand-in evaluator that panics on any segment holding a `!`
    /// and reports nothing otherwise — the one way to drive a real
    /// worker panic through the pipeline.
    struct PanicOnMark;

    impl SegmentEval for PanicOnMark {
        type Scratch = ();
        type Report = ();
        fn width(&self) -> usize {
            1
        }
        fn scratch(&self) {}
        fn report(_: ()) {}
        fn eval_into(
            &self,
            bytes: &[u8],
            _: Option<&SegmentCache>,
            _: &mut (),
            _: impl FnMut(usize, &SpanRelation),
        ) {
            assert!(!bytes.contains(&b'!'), "marked segment");
        }
    }

    #[test]
    fn worker_panic_is_reraised_without_deadlock() {
        // Many one-byte batches through a one-slot queue to a single
        // worker, with the marked segment early: the producer can only
        // finish if that worker keeps draining after its panic.
        let docs: Vec<Vec<u8>> = (0..64)
            .map(|i| format!("aa{i}. bb{i}").into_bytes())
            .collect();
        let mut marked = docs.clone();
        marked[2] = b"boom!. aa".to_vec();
        let config = CorpusRunnerConfig {
            workers: 1,
            batch_bytes: 1,
            queue_depth: 1,
            chunk_bytes: 2,
        };
        let pool = Arc::new(EvalPool::new(1));
        for pool in [None, Some(pool.clone())] {
            let pipeline = Pipeline {
                splitter: splitter::sentences().compile(),
                config,
                pool,
                segment_cache: None,
            };
            let marked = marked.clone();
            // Run on a helper thread so a deadlock fails the test
            // instead of hanging it.
            let (tx, rx) = std::sync::mpsc::channel();
            let helper = std::thread::spawn(move || {
                let refs: Vec<&[u8]> = marked.iter().map(Vec::as_slice).collect();
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    pipeline.run_slices(&Arc::new(PanicOnMark), &refs)
                }));
                let _ = tx.send(outcome.is_err());
            });
            let reraised = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("a panicking run must finish, not deadlock");
            helper.join().expect("the helper catches the run's panic");
            assert!(reraised, "the worker panic must be re-raised");
        }

        // The one-thread pool survived the panicked run and serves a
        // correct one; batches far outnumber the queue's single slot.
        let refs: Vec<&[u8]> = docs.iter().map(Vec::as_slice).collect();
        let opts = RunnerOptions::new()
            .workers(1)
            .batch_bytes(1)
            .queue_depth(1)
            .chunk_bytes(2);
        let pooled = runner(".*x{a+}.*", opts.clone().pool(pool.clone())).run_slices(&refs);
        let spawned = runner(".*x{a+}.*", opts).run_slices(&refs);
        assert_eq!(pooled.relations, spawned.relations);
        assert_eq!(pooled.stats.docs, 64);
        assert!(
            pooled.stats.batches > 8,
            "tiny batches should outnumber the queue"
        );
    }
}
