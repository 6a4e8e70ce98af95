//! One front door for engine and runner construction.
//!
//! * [`CompileOptions`] — *what to compile*: the engine request and the
//!   dense-engine configuration. One options value compiles spanners
//!   and fleets consistently; splitters have a single engine (the
//!   streaming phase DFAs of [`Splitter::compile`]), which the options
//!   do not change.
//! * [`RunnerOptions`] — *how to run*: worker/batch/queue/chunk tuning,
//!   an optional shared [`EvalPool`], and an optional shared
//!   [`SegmentCache`]. One options value constructs both runner kinds.
//!
//! ```
//! use splitc_exec::{CompileOptions, RunnerOptions, Engine};
//! use splitc_spanner::dense::DenseConfig;
//! use splitc_spanner::{rgx::Rgx, splitter};
//!
//! let vsa = Rgx::parse(".*x{a+}.*").unwrap().to_vsa().unwrap();
//! let dense = DenseConfig { skip_loop: true, ..DenseConfig::default() };
//! let opts = CompileOptions::new().engine(Engine::Prefilter).dense(dense);
//! let spanner = opts.compile_spanner(&vsa);
//! let split = splitter::sentences().compile();
//! let runner = RunnerOptions::new().workers(2).corpus_runner(spanner, split);
//! let out = runner.run_slices(&[b"aa b. aaa"]);
//! assert_eq!(out.relations.len(), 1);
//! ```

use crate::corpus::{CorpusRunner, CorpusRunnerConfig, Pipeline};
use crate::engine::{Engine, ExecSpanner};
use crate::fleet::{Fleet, FleetRunner};
use crate::pool::EvalPool;
use crate::segcache::SegmentCache;
use splitc_spanner::dense::DenseConfig;
use splitc_spanner::evsa::EVsa;
use splitc_spanner::splitter::{CompiledSplitter, Splitter};
use splitc_spanner::vsa::Vsa;
use std::sync::Arc;

/// Builder for every compile-time choice of the execution layer: which
/// engine tier to request and how the dense tier is budgeted.
#[derive(Debug, Clone, Default)]
pub struct CompileOptions {
    engine: Engine,
    dense: DenseConfig,
}

impl CompileOptions {
    /// Default options: [`Engine::Dense`] with the default
    /// [`DenseConfig`].
    pub fn new() -> CompileOptions {
        CompileOptions::default()
    }

    /// Requests an engine tier (compile-time tiering may still degrade
    /// an [`Engine::Aot`] request; see [`ExecSpanner::tier`]).
    pub fn engine(mut self, engine: Engine) -> CompileOptions {
        self.engine = engine;
        self
    }

    /// The dense-engine configuration (lazy-DFA cache bound, skip-loop),
    /// applied to whichever tier actually compiles.
    pub fn dense(mut self, config: DenseConfig) -> CompileOptions {
        self.dense = config;
        self
    }

    /// Compiles one spanner: block normal form ([`EVsa::from_vsa`]) plus
    /// the requested engine tier.
    pub fn compile_spanner(&self, vsa: &Vsa) -> ExecSpanner {
        ExecSpanner::from_evsa(Arc::new(EVsa::from_vsa(vsa)), self.engine, None, self.dense)
    }

    /// Compiles a fleet for fused evaluation: every member on the
    /// requested engine, over one shared byte partition and one needle
    /// scanner.
    pub fn compile_fleet(&self, vsas: &[Vsa]) -> Fleet {
        Fleet::build(vsas, self.engine, self.dense)
    }

    /// Compiles a splitter. Splitters run on one engine whatever the
    /// request — the streaming phase DFAs of [`Splitter::compile`] — so
    /// no option of this builder changes the result.
    pub fn compile_splitter(&self, splitter: &Splitter) -> CompiledSplitter {
        splitter.compile()
    }
}

/// Builder for runner construction: pipeline tuning plus the two shared
/// resources (worker pool, segment cache) a service threads through
/// every request. It is the only way to build a [`CorpusRunner`] or a
/// [`FleetRunner`].
#[derive(Debug, Clone, Default)]
pub struct RunnerOptions {
    config: CorpusRunnerConfig,
    pool: Option<Arc<EvalPool>>,
    segment_cache: Option<Arc<SegmentCache>>,
}

impl RunnerOptions {
    /// Default options: [`CorpusRunnerConfig::default`], per-run spawned
    /// workers, no segment cache.
    pub fn new() -> RunnerOptions {
        RunnerOptions::default()
    }

    /// Evaluation worker threads (see [`CorpusRunnerConfig::workers`]).
    pub fn workers(mut self, n: usize) -> RunnerOptions {
        self.config.workers = n;
        self
    }

    /// Target payload per dispatched batch
    /// (see [`CorpusRunnerConfig::batch_bytes`]).
    pub fn batch_bytes(mut self, n: usize) -> RunnerOptions {
        self.config.batch_bytes = n;
        self
    }

    /// Bounded queue capacity, in batches
    /// (see [`CorpusRunnerConfig::queue_depth`]).
    pub fn queue_depth(mut self, n: usize) -> RunnerOptions {
        self.config.queue_depth = n;
        self
    }

    /// Chunk size for materialized documents
    /// (see [`CorpusRunnerConfig::chunk_bytes`]).
    pub fn chunk_bytes(mut self, n: usize) -> RunnerOptions {
        self.config.chunk_bytes = n;
        self
    }

    /// Runs evaluation workers on a shared long-lived pool instead of
    /// per-run spawned threads.
    pub fn pool(mut self, pool: Arc<EvalPool>) -> RunnerOptions {
        self.pool = Some(pool);
        self
    }

    /// Attaches a shared content-addressed [`SegmentCache`]: workers look
    /// each segment up by content before dispatching the engine, so
    /// repeated segments — across documents, runs, and (for a
    /// process-wide cache) requests — are answered without
    /// re-evaluation. Results are byte-identical with or without.
    pub fn segment_cache(mut self, cache: Arc<SegmentCache>) -> RunnerOptions {
        self.segment_cache = Some(cache);
        self
    }

    /// The shared pipeline both runner kinds own. Shared resources are
    /// cloned in, not moved, so the options value is reusable.
    fn pipeline(&self, splitter: CompiledSplitter) -> Pipeline {
        Pipeline {
            splitter,
            config: self.config,
            pool: self.pool.clone(),
            segment_cache: self.segment_cache.clone(),
        }
    }

    /// Constructs a [`CorpusRunner`] evaluating `spanner` over the
    /// segments `splitter` produces. For results equal to
    /// whole-document evaluation the pair must be certified
    /// split-correct; the runner computes `P_S ∘ S` faithfully either
    /// way.
    pub fn corpus_runner(&self, spanner: ExecSpanner, splitter: CompiledSplitter) -> CorpusRunner {
        CorpusRunner {
            spanner: Arc::new(spanner),
            pipeline: self.pipeline(splitter),
        }
    }

    /// Constructs a [`FleetRunner`] with these options.
    pub fn fleet_runner(&self, fleet: Arc<Fleet>, splitter: CompiledSplitter) -> FleetRunner {
        FleetRunner {
            fleet,
            pipeline: self.pipeline(splitter),
        }
    }
}

#[cfg(test)]
impl RunnerOptions {
    /// Three workers over tiny batches, queue and chunks, so every test
    /// run crosses many batch and chunk boundaries.
    pub(crate) fn tiny() -> RunnerOptions {
        RunnerOptions::new()
            .workers(3)
            .batch_bytes(4)
            .queue_depth(2)
            .chunk_bytes(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{evaluate_many_split, SplitFn};
    use splitc_spanner::eval::eval_evsa;
    use splitc_spanner::rgx::Rgx;
    use splitc_spanner::splitter;

    fn vsa(pat: &str) -> Vsa {
        Rgx::parse(pat).unwrap().to_vsa().unwrap()
    }

    /// Sentence splitting by the reference evaluator.
    fn reference_split() -> SplitFn {
        let s = splitter::sentences();
        Arc::new(move |doc: &[u8]| s.split(doc))
    }

    #[test]
    fn compile_spanner_matches_reference_per_engine() {
        let v = vsa(".*x{a+}.*");
        let reference = EVsa::from_vsa(&v);
        let nfa = CompileOptions::new()
            .engine(Engine::Nfa)
            .compile_spanner(&v);
        let docs: Vec<&[u8]> = vec![b"aa bb. aaa. b aa", b"", b"a.a.a."];
        for engine in [Engine::Nfa, Engine::Dense, Engine::Prefilter, Engine::Aot] {
            let sp = CompileOptions::new().engine(engine).compile_spanner(&v);
            assert_eq!(sp.engine(), engine);
            assert_eq!(sp.tier(), engine, "a small spanner fits every tier");
            for d in &docs {
                assert_eq!(sp.eval(d), eval_evsa(&reference, d), "{engine:?}");
                assert_eq!(sp.eval(d), nfa.eval(d), "{engine:?}");
            }
        }
        assert_eq!(
            CompileOptions::new().compile_spanner(&v).engine(),
            Engine::Dense
        );
    }

    #[test]
    fn dense_knobs_apply() {
        let starved = DenseConfig {
            max_cache_states: 3,
            skip_loop: true,
        };
        let opts = CompileOptions::new().dense(starved);
        assert_eq!(opts.dense.max_cache_states, 3);
        assert!(opts.dense.skip_loop);
        // A starved cache still evaluates exactly.
        let v = vsa(".*x{a+}.*");
        let sp = opts.compile_spanner(&v);
        assert_eq!(
            sp.eval(b"aa b aaa"),
            eval_evsa(&EVsa::from_vsa(&v), b"aa b aaa")
        );
    }

    #[test]
    fn runner_options_match_evaluate_many_split() {
        let docs: Vec<&[u8]> = vec![b"aa bb. aaa. b aa", b"", b"a.a.a."];
        let expected = evaluate_many_split(
            &CompileOptions::new().compile_spanner(&vsa(".*x{a+}.*")),
            &reference_split(),
            &docs,
            1,
        );
        let pool = Arc::new(EvalPool::new(2));
        let cache = Arc::new(SegmentCache::new(128));
        let opts = RunnerOptions::new()
            .workers(2)
            .batch_bytes(8)
            .pool(pool.clone())
            .segment_cache(cache.clone());
        // Options are reusable: two runners from one value, and the
        // second run hits the segment cache the first populated.
        for _ in 0..2 {
            let runner = opts.corpus_runner(
                CompileOptions::new().compile_spanner(&vsa(".*x{a+}.*")),
                splitter::sentences().compile(),
            );
            assert_eq!(runner.run_slices(&docs).relations, expected);
        }
        assert!(pool.stats().submitted > 0, "pool was used");
        assert!(cache.stats().misses > 0, "cache was populated");
        // Note: distinct compilations get distinct cache ids, so the
        // second runner misses; sharing hits require a shared spanner.
        let shared = CompileOptions::new().compile_spanner(&vsa(".*x{a+}.*"));
        cache.reset_stats();
        for _ in 0..2 {
            let runner = opts.corpus_runner(shared.clone(), splitter::sentences().compile());
            assert_eq!(runner.run_slices(&docs).relations, expected);
        }
        let s = cache.stats();
        assert!(s.hits > 0, "second run over a shared spanner hits: {s:?}");
    }

    #[test]
    fn fleet_runner_via_options() {
        let pats = [".*x{a+}.*", "x{[0-9]+}", ".*x{[0-9]+}.*"];
        let vsas: Vec<Vsa> = pats.iter().map(|p| vsa(p)).collect();
        let docs: Vec<&[u8]> = vec![b"aa 42. bbb 7 aa", b"", b"9.a1"];
        let fleet = Arc::new(
            CompileOptions::new()
                .engine(Engine::Prefilter)
                .compile_fleet(&vsas),
        );
        let got = RunnerOptions::new()
            .workers(2)
            .segment_cache(Arc::new(SegmentCache::new(64)))
            .fleet_runner(fleet.clone(), splitter::sentences().compile())
            .run_slices(&docs);
        let split = reference_split();
        for (i, pat) in pats.iter().enumerate() {
            let member = evaluate_many_split(fleet.member(i), &split, &docs, 1);
            for (d, rel) in member.into_iter().enumerate() {
                assert_eq!(got.relations[d][i], rel, "{pat} on doc {d}");
            }
        }
    }
}
