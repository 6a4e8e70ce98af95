//! The ahead-of-time (AOT) engine: fully determinized, Hopcroft-minimized
//! DFAs frozen into flat premultiplied `u16` transition tables.
//!
//! The dense engine ([`crate::dense`]) pays lazy-DFA bookkeeping on the
//! hot path: a memoization probe, a hit/miss counter and a
//! `state * num_classes + class` multiply per scanned byte, plus hash
//! interning whenever a scan reaches a new power-set state. For the
//! small hot spanners that dominate the e-series benchmarks and the
//! server's warm paths, this module removes all of it at compile time:
//!
//! 1. **Full determinization under a budget** — both scan directions
//!    (the forward acceptance DFA and the backward *viability* DFA that
//!    feeds tuple enumeration) are determinized eagerly over the dense
//!    engine's byte-class adjacency. Construction aborts — and the
//!    caller falls back to the lazy dense tier — as soon as either
//!    direction would intern more than [`AotConfig::max_states`] sets
//!    (or more than the packed tables can address).
//! 2. **Hopcroft minimization** — the forward DFA only observes Boolean
//!    acceptance, so it is minimized with
//!    [`splitc_automata::dfa::Dfa::minimize_hopcroft`] before freezing.
//!    The backward DFA is *not* minimized: each of its states is an
//!    observable set of viable eVSA states (tuple enumeration reads the
//!    membership bitsets), and merging language-equivalent sets would
//!    change results.
//! 3. **Premultiplied `u16` tables** — state ids are stored
//!    pre-multiplied by the row stride (the class count rounded up to a
//!    power of two), with the accept/empty flag packed into bit 15, so
//!    the inner loop is `table[(id & MASK) | class]`: one AND, one OR,
//!    one load — no multiply, no branch. Both passes step 4 bytes per
//!    iteration (unrolled), and compose with the existing
//!    [`PrefilterGate`] and precompiled skip-loop escape scanners.
//!
//! Exactness: the backward table's states are exactly the viability sets
//! the lazy dense engine would intern, and the forward tuple enumeration
//! is the shared [`crate::eval`] search over the same dense edge tables —
//! so relations are byte-identical to the NFA, dense and prefilter
//! engines (asserted by the repository-wide engine-matrix differential
//! harness).

use crate::dense::{DenseCache, DenseConfig, DenseEdges, DenseEvsa};
use crate::eval::forward_enumerate_scratch;
use crate::eval::ViableSource;
use crate::evsa::EVsa;
use crate::prefilter::{PrefilterAnalysis, PrefilterGate, PrefilterStats};
use crate::tuple::SpanRelation;
use splitc_automata::classes::ByteClasses;
use splitc_automata::dfa::{Dfa, DEAD};
use splitc_automata::nfa::StateId;
use splitc_automata::scan::ByteFinder;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Flag bit packed into a table entry's id: *accepting* in the forward
/// table, *empty viability set* in the backward table.
const FLAG: u16 = 1 << 15;

/// Mask selecting the premultiplied state id (low 15 bits).
const MASK: u16 = FLAG - 1;

/// Consecutive self-steps before a pass consults its precompiled
/// skip-loop scanner (same rationale and value as the dense engine).
const SKIP_STREAK: u32 = 8;

/// Packs a state index into a premultiplied table entry.
///
/// `shift` is `log2(stride)`; the flag lands in bit 15, which the
/// packing budget (`states * stride <= 1 << 15`) keeps clear of the id.
#[inline]
fn pack(index: usize, shift: u32, flag: bool) -> u16 {
    debug_assert!(index << shift < 1 << 15, "premultiplied id overflows u16");
    ((index << shift) as u16) | if flag { FLAG } else { 0 }
}

/// Recovers the state index from a packed table entry.
#[inline]
fn unpack(id: u16, shift: u32) -> usize {
    ((id & MASK) >> shift) as usize
}

/// Tuning knobs of the AOT engine.
#[derive(Debug, Clone, Copy)]
pub struct AotConfig {
    /// Upper bound on determinized states *per scan direction*. When
    /// either direction's subset construction would exceed it — or the
    /// premultiplied ids would no longer fit in the 15 addressable bits
    /// of a `u16` — compilation returns `None` and the caller stays on
    /// the lazy dense tier. Determinization cost is bounded by
    /// `O(max_states · classes · |Q|/64)`, so an adversarial automaton
    /// cannot make compilation blow up.
    pub max_states: usize,
    /// Configuration for the embedded dense compilation, which supplies
    /// the byte-class partition and the edge tables driving tuple
    /// enumeration.
    pub dense: DenseConfig,
}

impl Default for AotConfig {
    fn default() -> Self {
        // Hot production spanners determinize to a handful of states;
        // the default budget admits all of them while keeping both
        // packed tables comfortably cache-resident (at most
        // `2 · 1024 · stride` u16 entries = 64 KiB per direction even at
        // the widest stride the u16 packing allows).
        AotConfig {
            max_states: 1024,
            dense: DenseConfig::default(),
        }
    }
}

/// One eagerly determinized scan direction: interned power sets and a
/// total `index × class` transition table (the empty set is explicit).
struct SubsetDfa {
    /// Flattened membership bitsets, `words` per state.
    sets: Vec<u64>,
    /// `trans[index * nc + class]` → successor index (total).
    trans: Vec<u32>,
    /// Index of the seed set.
    start: u32,
}

impl SubsetDfa {
    fn num_states(&self, words: usize) -> usize {
        self.sets.len().checked_div(words).unwrap_or(0)
    }
}

/// Budget-bounded subset construction over one of the dense engine's
/// adjacency CSRs (`backward` selects predecessors). Returns `None` when
/// more than `budget` sets would be interned.
fn determinize_bounded(
    dense: &DenseEvsa,
    seed: &[u64],
    backward: bool,
    budget: usize,
) -> Option<SubsetDfa> {
    let nc = dense.nc;
    let words = dense.words;
    let (off, pool) = if backward {
        (&dense.pred_off, &dense.pred_pool)
    } else {
        (&dense.succ_off, &dense.succ_pool)
    };
    let mut sets: Vec<u64> = Vec::new();
    let mut ids: HashMap<Box<[u64]>, u32> = HashMap::new();
    let mut trans: Vec<u32> = Vec::new();
    fn intern(
        set: Box<[u64]>,
        nc: usize,
        budget: usize,
        ids: &mut HashMap<Box<[u64]>, u32>,
        sets: &mut Vec<u64>,
        trans: &mut Vec<u32>,
    ) -> Option<u32> {
        if let Some(&id) = ids.get(&set) {
            return Some(id);
        }
        if ids.len() >= budget {
            return None;
        }
        let id = ids.len() as u32;
        sets.extend_from_slice(&set);
        trans.resize(trans.len() + nc, u32::MAX);
        ids.insert(set, id);
        Some(id)
    }
    let start = intern(seed.into(), nc, budget, &mut ids, &mut sets, &mut trans)?;
    let mut next = 0usize;
    let mut out = vec![0u64; words];
    while next < ids.len() {
        let id = next;
        next += 1;
        for c in 0..nc {
            out.iter_mut().for_each(|w| *w = 0);
            for w in 0..words {
                let mut bits = sets[id * words + w];
                while bits != 0 {
                    let q = (w << 6) + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let base = q * nc + c;
                    for &t in &pool[off[base] as usize..off[base + 1] as usize] {
                        out[t as usize >> 6] |= 1u64 << (t & 63);
                    }
                }
            }
            let rid = intern(
                out.clone().into_boxed_slice(),
                nc,
                budget,
                &mut ids,
                &mut sets,
                &mut trans,
            )?;
            trans[id * nc + c] = rid;
        }
    }
    Some(SubsetDfa { sets, trans, start })
}

/// Precompiled scan-skip analysis for one eVSA state with a block-free
/// self-loop (a "scanning" state: the `.*` context of an extractor).
///
/// `ok` is a bitvec indexed by `(backward id << shift) | class`: the bit
/// is set when, for a document byte of that class with that viability id
/// *after* it, the state's only viable move is the self-loop — the
/// self-loop mask contains the class, the state itself is in the
/// viability set, and every other transition either misses the class or
/// targets a state outside the set. Under those conditions the forward
/// enumeration can cross the byte without a stack frame (see
/// [`crate::eval::ViableSource::scan_skip`]); the lazy dense tier cannot
/// precompute this table because its cache ids are unstable under
/// eviction.
#[derive(Debug)]
struct ScanSkip {
    ok: Vec<u64>,
}

/// An [`EVsa`] compiled for the AOT engine: premultiplied forward
/// (acceptance) and backward (viability) DFA tables behind a
/// [`PrefilterGate`], with the dense engine's edge tables driving tuple
/// enumeration. Construct via [`AotEvsa::compile`] or
/// [`EVsa::compile_aot`]; `None` means the automaton exceeded the
/// budget and the caller should stay on the lazy dense tier.
#[derive(Debug)]
pub struct AotEvsa {
    /// The embedded dense compilation: byte classes, edge tables for the
    /// forward enumeration, post flags.
    dense: Arc<DenseEvsa>,
    analysis: PrefilterAnalysis,
    gate: PrefilterGate,
    /// `log2(stride)`; premultiplied id = `index << shift`.
    shift: u32,
    /// Row stride: class count rounded up to a power of two.
    stride: usize,
    /// Byte → class, widened for direct OR-ing into a premultiplied id.
    cls: Box<[u16; 256]>,
    /// Forward table: `fwd_tbl[(id & MASK) | class]` → packed successor
    /// (bit 15 = accepting).
    fwd_tbl: Vec<u16>,
    /// Backward table: same layout (bit 15 = empty viability set).
    bwd_tbl: Vec<u16>,
    /// Packed start entries of both passes.
    fwd_start: u16,
    bwd_start: u16,
    /// Premultiplied id of the forward dead sink (scan is decided).
    fwd_dead: u16,
    /// Bitset words per viability set.
    words: usize,
    /// Flattened viability membership bitsets, `words` per backward
    /// state, indexed by unpacked backward ids.
    bwd_sets: Vec<u64>,
    /// Per-eVSA-state scan-skip tables (`None` = no block-free
    /// self-loop, the state never scans).
    scan: Vec<Option<ScanSkip>>,
    /// Precompiled skip-loop escape scanners per state index (`None` =
    /// the state escapes too often for skipping to pay).
    fwd_escape: Vec<Option<ByteFinder>>,
    bwd_escape: Vec<Option<ByteFinder>>,
    /// State counts of the *raw* (unminimized) determinizations — the
    /// numbers the budget is charged against.
    raw_fwd: usize,
    raw_bwd: usize,
    /// Packed forward states (after minimization, incl. the dead sink).
    num_fwd: usize,
    /// Reusable scan caches for the pooled entry points.
    caches: Mutex<Vec<DenseCache>>,
    /// Aggregate statistics of the pooled entry points.
    stats: Mutex<PrefilterStats>,
}

impl AotEvsa {
    /// Determinizes and freezes `evsa` under `config`. `None` when the
    /// automaton is empty, a subset construction exceeds
    /// [`AotConfig::max_states`], or the packed ids would overflow the
    /// 15 addressable bits of a `u16` — callers then fall back to the
    /// lazy dense tier (which is exact at any size).
    pub fn compile(evsa: Arc<EVsa>, config: AotConfig) -> Option<AotEvsa> {
        let dense = Arc::new(DenseEvsa::compile(evsa, config.dense));
        AotEvsa::assemble(dense, config)
    }

    /// Like [`AotEvsa::compile`], but indexes the tables by a
    /// caller-supplied byte partition (see
    /// [`DenseEvsa::compile_with_classes`]; the fleet engine passes the
    /// coarsest common refinement across all members). A shared
    /// partition widens the row stride, so a member that fits the
    /// packing budget alone may return `None` here — fleet members
    /// degrade to lazy dense individually.
    ///
    /// # Panics
    ///
    /// Like the dense engine, `classes` must refine every transition
    /// mask of the automaton.
    pub fn compile_with_classes(
        evsa: Arc<EVsa>,
        config: AotConfig,
        classes: ByteClasses,
    ) -> Option<AotEvsa> {
        let dense = Arc::new(DenseEvsa::compile_with_classes(evsa, config.dense, classes));
        AotEvsa::assemble(dense, config)
    }

    fn assemble(dense: Arc<DenseEvsa>, config: AotConfig) -> Option<AotEvsa> {
        let evsa = dense.evsa_arc();
        if evsa.num_states() == 0 {
            return None;
        }
        let nc = dense.nc;
        let words = dense.words;
        let stride = nc.next_power_of_two();
        let shift = stride.trailing_zeros();
        // Ids are premultiplied by `stride`, so `states * stride` must
        // stay below bit 15; charging the budget with the same cap keeps
        // construction memory proportional to what can be packed.
        let budget = config.max_states.min((1usize << 15) / stride);
        if budget == 0 {
            return None;
        }

        let fwd_raw = determinize_bounded(&dense, &dense.start_set, false, budget)?;
        let bwd_raw = determinize_bounded(&dense, &dense.finals, true, budget)?;
        let raw_fwd = fwd_raw.num_states(words);
        let raw_bwd = bwd_raw.num_states(words);

        // Forward: only acceptance is observable, so minimize before
        // packing. The raw table is total (the empty set is an explicit
        // state), and Hopcroft re-drops dead-equivalent states.
        let accepts: Vec<bool> = (0..raw_fwd)
            .map(|i| (0..words).any(|w| fwd_raw.sets[i * words + w] & dense.finals[w] != 0))
            .collect();
        let dfa = Dfa::from_parts(
            nc as u32,
            fwd_raw.trans.iter().map(|&r| r as StateId).collect(),
            fwd_raw.start,
            accepts,
        );
        let min = dfa.minimize_hopcroft();
        // Pack the minimized forward DFA plus one explicit dead sink.
        let m = min.num_states();
        let num_fwd = m + 1;
        if num_fwd * stride > 1 << 15 {
            return None;
        }
        let sink = m;
        let fwd_dead = pack(sink, shift, false) & MASK;
        let mut fwd_tbl = vec![fwd_dead; num_fwd * stride];
        for q in 0..m {
            for c in 0..nc {
                let r = min.step(q as StateId, splitc_automata::nfa::Sym(c as u32));
                let entry = if r == DEAD {
                    fwd_dead
                } else {
                    pack(r as usize, shift, min.is_final(r))
                };
                fwd_tbl[(q << shift) | c] = entry;
            }
        }
        let fwd_start = pack(min.start() as usize, shift, min.is_final(min.start()));

        // Backward: every state's membership set feeds tuple
        // enumeration, so the determinization is packed unminimized.
        if raw_bwd * stride > 1 << 15 {
            return None;
        }
        let empty_of = |i: usize| (0..words).all(|w| bwd_raw.sets[i * words + w] == 0);
        let mut bwd_tbl = vec![0u16; raw_bwd * stride];
        for q in 0..raw_bwd {
            for c in 0..nc {
                let r = bwd_raw.trans[q * nc + c] as usize;
                bwd_tbl[(q << shift) | c] = pack(r, shift, empty_of(r));
            }
            // Padding classes are never indexed (cls[b] < nc); keep them
            // self-looping so a stray read cannot leave the table.
            for c in nc..stride {
                bwd_tbl[(q << shift) | c] = pack(q, shift, empty_of(q));
            }
        }
        let bwd_start = pack(
            bwd_raw.start as usize,
            shift,
            empty_of(bwd_raw.start as usize),
        );

        let classes = dense.classes();
        let mut cls = Box::new([0u16; 256]);
        for b in 0..=255u8 {
            cls[b as usize] = classes.class_of(b) as u16;
        }

        // Precompile skip-loop escape scanners: a state that self-loops
        // on ≥ 192 of the 256 bytes gets a SWAR finder for its escapes
        // (same threshold as the dense engine's lazy probe).
        let escapes = |tbl: &[u16], n: usize| -> Vec<Option<ByteFinder>> {
            (0..n)
                .map(|q| {
                    let own = (q << shift) as u16;
                    let mut stay = crate::byteset::ByteSet::EMPTY;
                    for c in 0..nc {
                        if tbl[(q << shift) | c] & MASK == own {
                            for b in classes.bytes_of(c) {
                                stay.insert(b);
                            }
                        }
                    }
                    if stay.len() >= 192 {
                        Some(ByteFinder::from_predicate(|b| !stay.contains(b)))
                    } else {
                        None
                    }
                })
                .collect()
        };
        let fwd_escape = escapes(&fwd_tbl, num_fwd);
        let bwd_escape = escapes(&bwd_tbl, raw_bwd);

        // Scan-skip tables (see [`ScanSkip`]): the backward ids are a
        // frozen, exhaustive enumeration of every viability set, so the
        // "is the self-loop the only viable move?" predicate can be
        // answered per (id, class) once, at compile time. The class
        // partition refines every transition mask, so testing one
        // representative byte per class is exact.
        let set_has = |id: usize, q: StateId| {
            bwd_raw.sets[id * words + (q as usize >> 6)] & (1u64 << (q & 63)) != 0
        };
        let scan: Vec<Option<ScanSkip>> = (0..evsa.num_states())
            .map(|qi| {
                let s = qi as StateId;
                // Post states emit-and-cut on entry: no frame ever
                // scans from one.
                if dense.post[qi] {
                    return None;
                }
                let ts = evsa.transitions_from(s);
                let mut self_mask = crate::byteset::ByteSet::EMPTY;
                for (block, mask, r) in ts {
                    if *r == s && block.is_empty() {
                        self_mask = self_mask.or(mask);
                    }
                }
                if self_mask.is_empty() {
                    return None;
                }
                let others: Vec<_> = ts
                    .iter()
                    .filter(|(block, _, r)| !(*r == s && block.is_empty()))
                    .map(|(_, mask, r)| (mask, *r))
                    .collect();
                let bits = raw_bwd << shift;
                let mut ok = vec![0u64; bits.div_ceil(64)];
                for c in 0..nc {
                    let Some(b) = classes.bytes_of(c).next() else {
                        continue;
                    };
                    if !self_mask.contains(b) {
                        continue;
                    }
                    for id in 0..raw_bwd {
                        if !set_has(id, s)
                            || others.iter().any(|(m, r)| m.contains(b) && set_has(id, *r))
                        {
                            continue;
                        }
                        let idx = (id << shift) | c;
                        ok[idx >> 6] |= 1u64 << (idx & 63);
                    }
                }
                Some(ScanSkip { ok })
            })
            .collect();

        let analysis = PrefilterAnalysis::analyze(evsa);
        let gate = analysis.gate();

        Some(AotEvsa {
            analysis,
            gate,
            shift,
            stride,
            cls,
            fwd_tbl,
            bwd_tbl,
            fwd_start,
            bwd_start,
            fwd_dead,
            words,
            bwd_sets: bwd_raw.sets,
            scan,
            fwd_escape,
            bwd_escape,
            raw_fwd,
            raw_bwd,
            num_fwd,
            dense,
            caches: Mutex::new(Vec::new()),
            stats: Mutex::new(PrefilterStats::default()),
        })
    }

    /// The compiled automaton.
    pub fn evsa(&self) -> &EVsa {
        self.dense.evsa()
    }

    /// The compiled automaton behind its shared handle.
    pub fn evsa_arc(&self) -> &Arc<EVsa> {
        self.dense.evsa_arc()
    }

    /// The prefilter analysis backing the gate.
    pub fn analysis(&self) -> &PrefilterAnalysis {
        &self.analysis
    }

    /// The document gate (shared with the prefilter engine).
    pub fn gate(&self) -> &PrefilterGate {
        &self.gate
    }

    /// Raw (unminimized) determinized state counts `(forward,
    /// backward)` — the numbers charged against
    /// [`AotConfig::max_states`]. Exposed so the tiering boundary can be
    /// pinned by regression tests.
    pub fn determinized_states(&self) -> (usize, usize) {
        (self.raw_fwd, self.raw_bwd)
    }

    /// Packed state counts `(forward, backward)`: the forward count is
    /// after Hopcroft minimization (plus the explicit dead sink), the
    /// backward count equals the raw determinization.
    pub fn packed_states(&self) -> (usize, usize) {
        (self.num_fwd, self.raw_bwd)
    }

    /// Row stride of the premultiplied tables: the byte-class count
    /// rounded up to the next power of two.
    pub fn row_stride(&self) -> usize {
        self.stride
    }

    /// Total size of the two premultiplied transition tables in bytes.
    pub fn table_bytes(&self) -> usize {
        (self.fwd_tbl.len() + self.bwd_tbl.len()) * 2
    }

    /// Snapshot of the statistics accumulated by the pooled entry
    /// points; callers driving [`AotEvsa::eval_with`] own their stats.
    pub fn stats(&self) -> PrefilterStats {
        *self.stats.lock().expect("stats poisoned")
    }

    /// One backward table step.
    #[inline(always)]
    fn bstep(&self, cur: u16, b: u8) -> u16 {
        self.bwd_tbl[((cur & MASK) | self.cls[b as usize]) as usize]
    }

    /// One forward table step.
    #[inline(always)]
    fn fstep(&self, cur: u16, b: u8) -> u16 {
        self.fwd_tbl[((cur & MASK) | self.cls[b as usize]) as usize]
    }

    /// Runs the backward viability pass, filling `cache.ids_buf` with
    /// the backward state *index* per position. Unrolled 4 bytes per
    /// iteration; flat regions are crossed by the precompiled escape
    /// scanners; an empty viability set short-circuits the rest (the
    /// empty set is a fixpoint of the predecessor step).
    fn viability_pass(&self, doc: &[u8], cache: &mut DenseCache) {
        let n = doc.len();
        cache.ids_buf.clear();
        cache.ids_buf.resize(n + 1, 0);
        let mut cur = self.bwd_start;
        cache.ids_buf[n] = unpack(cur, self.shift) as u32;
        let mut i = n;
        let mut streak = 0u32;
        while i > 0 {
            if cur & FLAG != 0 {
                // Empty viability set: every earlier position is empty.
                let idx = unpack(cur, self.shift) as u32;
                cache.ids_buf[..i].fill(idx);
                return;
            }
            if streak >= SKIP_STREAK {
                streak = 0;
                let idx = unpack(cur, self.shift);
                if let Some(f) = &self.bwd_escape[idx] {
                    match f.rfind(&doc[..i]) {
                        Some(j) => {
                            // Bytes after the last escape all stay put.
                            cache.ids_buf[j + 1..i].fill(idx as u32);
                            cache.skipped += (i - (j + 1)) as u64;
                            i = j + 1;
                            if i == 0 {
                                return;
                            }
                        }
                        None => {
                            cache.ids_buf[..i].fill(idx as u32);
                            cache.skipped += i as u64;
                            return;
                        }
                    }
                }
            }
            if i >= 4 {
                let prev = cur;
                cur = self.bstep(cur, doc[i - 1]);
                cache.ids_buf[i - 1] = unpack(cur, self.shift) as u32;
                cur = self.bstep(cur, doc[i - 2]);
                cache.ids_buf[i - 2] = unpack(cur, self.shift) as u32;
                cur = self.bstep(cur, doc[i - 3]);
                cache.ids_buf[i - 3] = unpack(cur, self.shift) as u32;
                cur = self.bstep(cur, doc[i - 4]);
                cache.ids_buf[i - 4] = unpack(cur, self.shift) as u32;
                i -= 4;
                // Block-level streak: a state unchanged across 4 steps
                // is (heuristically) sitting in a self-loop; the escape
                // probe above is exact either way.
                streak = if cur == prev { streak + 4 } else { 0 };
            } else {
                let prev = cur;
                cur = self.bstep(cur, doc[i - 1]);
                cache.ids_buf[i - 1] = unpack(cur, self.shift) as u32;
                i -= 1;
                streak = if cur == prev { streak + 1 } else { 0 };
            }
        }
    }

    /// Evaluates on a document, producing exactly the relation of the
    /// NFA, dense and prefilter engines. Uses pooled caches and the
    /// internal stats aggregate.
    pub fn eval(&self, doc: &[u8]) -> SpanRelation {
        let mut cache = self.take_cache();
        let mut stats = PrefilterStats::default();
        let out = self.eval_with(doc, &mut cache, &mut stats);
        self.return_cache(cache);
        let mut agg = self.stats.lock().expect("stats poisoned");
        *agg = agg.merge(stats);
        out
    }

    /// Evaluates with an explicit scan cache and stats accumulator (one
    /// pair per worker). The cache's id buffer and enumeration scratch
    /// are reused; its lazy-DFA state is untouched (the AOT tables are
    /// static), so a cache may alternate between engines freely.
    pub fn eval_with(
        &self,
        doc: &[u8],
        cache: &mut DenseCache,
        stats: &mut PrefilterStats,
    ) -> SpanRelation {
        if self.gate.rejects(doc) {
            stats.bytes_skipped += doc.len() as u64;
            return SpanRelation::empty();
        }
        if !self.gate.is_transparent() {
            stats.candidates += 1;
        }
        let skipped_before = cache.skipped;
        self.viability_pass(doc, cache);
        stats.bytes_skipped += cache.skipped - skipped_before;
        let viable = AotViable {
            ids: &cache.ids_buf,
            sets: &self.bwd_sets,
            words: self.words,
            scan: &self.scan,
            shift: self.shift,
            cls: &self.cls,
        };
        let rel = forward_enumerate_scratch(
            self.dense.evsa(),
            doc,
            &self.dense.post,
            &viable,
            &DenseEdges(&self.dense),
            &mut cache.scratch,
        );
        if rel.is_empty() && !self.gate.is_transparent() {
            stats.false_candidates += 1;
        }
        rel
    }

    /// Boolean acceptance through the gate (pooled cache + stats).
    pub fn accepts(&self, doc: &[u8]) -> bool {
        let mut cache = self.take_cache();
        let mut stats = PrefilterStats::default();
        let out = self.accepts_with(doc, &mut cache, &mut stats);
        self.return_cache(cache);
        let mut agg = self.stats.lock().expect("stats poisoned");
        *agg = agg.merge(stats);
        out
    }

    /// Boolean acceptance with an explicit cache and stats accumulator:
    /// the forward minimized table, unrolled 4 bytes per iteration, with
    /// dead-state early exit and skip-loop escapes.
    pub fn accepts_with(
        &self,
        doc: &[u8],
        cache: &mut DenseCache,
        stats: &mut PrefilterStats,
    ) -> bool {
        if self.gate.rejects(doc) {
            stats.bytes_skipped += doc.len() as u64;
            return false;
        }
        if !self.gate.is_transparent() {
            stats.candidates += 1;
        }
        let n = doc.len();
        let mut cur = self.fwd_start;
        let mut pos = 0usize;
        let mut streak = 0u32;
        while pos < n {
            if cur & MASK == self.fwd_dead {
                break;
            }
            if streak >= SKIP_STREAK {
                streak = 0;
                let idx = unpack(cur, self.shift);
                if let Some(f) = &self.fwd_escape[idx] {
                    match f.find(&doc[pos..]) {
                        Some(j) => {
                            cache.skipped += j as u64;
                            stats.bytes_skipped += j as u64;
                            pos += j;
                        }
                        None => {
                            cache.skipped += (n - pos) as u64;
                            stats.bytes_skipped += (n - pos) as u64;
                            pos = n;
                            break;
                        }
                    }
                }
            }
            if pos + 4 <= n {
                let prev = cur;
                cur = self.fstep(cur, doc[pos]);
                cur = self.fstep(cur, doc[pos + 1]);
                cur = self.fstep(cur, doc[pos + 2]);
                cur = self.fstep(cur, doc[pos + 3]);
                pos += 4;
                streak = if cur == prev { streak + 4 } else { 0 };
            } else {
                let prev = cur;
                cur = self.fstep(cur, doc[pos]);
                pos += 1;
                streak = if cur == prev { streak + 1 } else { 0 };
            }
        }
        let accepted = pos >= n && cur & FLAG != 0;
        if !accepted && !self.gate.is_transparent() {
            stats.false_candidates += 1;
        }
        accepted
    }

    fn take_cache(&self) -> DenseCache {
        self.caches
            .lock()
            .expect("cache pool poisoned")
            .pop()
            .unwrap_or_default()
    }

    fn return_cache(&self, cache: DenseCache) {
        self.caches.lock().expect("cache pool poisoned").push(cache);
    }
}

/// Viability view over the AOT backward table's membership bitsets.
struct AotViable<'a> {
    /// Backward state index per document position.
    ids: &'a [u32],
    /// Flattened membership bitsets, `words` per state.
    sets: &'a [u64],
    words: usize,
    /// Per-eVSA-state scan-skip tables.
    scan: &'a [Option<ScanSkip>],
    /// `log2(stride)` — the scan tables share the premultiplied layout.
    shift: u32,
    /// Byte → class.
    cls: &'a [u16; 256],
}

impl ViableSource for AotViable<'_> {
    #[inline]
    fn viable(&self, pos: usize, q: StateId) -> bool {
        let q = q as usize;
        let base = self.ids[pos] as usize * self.words;
        self.sets[base + (q >> 6)] & (1u64 << (q & 63)) != 0
    }

    #[inline]
    fn scan_skip(&self, doc: &[u8], mut pos: usize, q: StateId) -> usize {
        let Some(skip) = self.scan[q as usize].as_ref() else {
            return pos;
        };
        // One load + bit test per crossed byte, against the per-byte
        // frame push/pop + edge iteration this replaces.
        while pos < doc.len() {
            let idx =
                ((self.ids[pos + 1] as usize) << self.shift) | self.cls[doc[pos] as usize] as usize;
            if skip.ok[idx >> 6] & (1u64 << (idx & 63)) == 0 {
                break;
            }
            pos += 1;
        }
        pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{accepts_evsa, eval_evsa};
    use crate::rgx::Rgx;

    fn compile(pattern: &str) -> Arc<EVsa> {
        let vsa = Rgx::parse(pattern).unwrap().to_vsa().unwrap();
        Arc::new(EVsa::from_functional(&vsa.functionalize()))
    }

    fn aot(pattern: &str) -> AotEvsa {
        AotEvsa::compile(compile(pattern), AotConfig::default()).expect("fits default budget")
    }

    #[test]
    fn eval_matches_nfa_engine() {
        for (pat, docs) in [
            (
                ".*x{a+}.*",
                vec![b"aabaa".to_vec(), b"".to_vec(), b"bbb".to_vec()],
            ),
            (
                "x{a*}y{b*}",
                vec![b"aabb".to_vec(), b"ab".to_vec(), b"ba".to_vec()],
            ),
            ("(a|b)*x{ab}(a|b)*", vec![b"abab".to_vec()]),
            (".*x{}.*", vec![b"ab".to_vec()]),
            ("x{[^.]+}(\\..*)?", vec![b"ab.cd".to_vec()]),
            ("x{ab}b|a(x{bb})", vec![b"abb".to_vec(), b"ab".to_vec()]),
        ] {
            let e = compile(pat);
            let a = AotEvsa::compile(e.clone(), AotConfig::default()).unwrap();
            for doc in docs {
                assert_eq!(a.eval(&doc), eval_evsa(&e, &doc), "pattern {pat}");
                assert_eq!(
                    a.accepts(&doc),
                    !eval_evsa(&e, &doc).is_empty(),
                    "pattern {pat}"
                );
            }
        }
    }

    #[test]
    fn accepts_matches_nfa_engine() {
        let e = compile("a+b");
        let a = AotEvsa::compile(e.clone(), AotConfig::default()).unwrap();
        for doc in [b"aab".as_slice(), b"ab c", b"", b"b", b"aaab"] {
            assert_eq!(a.accepts(doc), accepts_evsa(&e, doc), "doc {doc:?}");
        }
    }

    #[test]
    fn long_unrolled_scan_is_exact() {
        // Lengths around the 4-byte unroll boundary and beyond.
        let e = compile(".*x{a+}.*");
        let a = AotEvsa::compile(e.clone(), AotConfig::default()).unwrap();
        for len in [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 255] {
            let mut doc = vec![b'b'; len];
            if len > 2 {
                doc[len / 2] = b'a';
                doc[len - 1] = b'a';
            }
            assert_eq!(a.eval(&doc), eval_evsa(&e, &doc), "len {len}");
            assert_eq!(a.accepts(&doc), accepts_evsa(&e, &doc), "len {len}");
        }
    }

    #[test]
    fn skip_loop_is_exact_and_skips() {
        let e = compile(".*x{q+}.*");
        let a = AotEvsa::compile(e.clone(), AotConfig::default()).unwrap();
        let mut doc = vec![b'a'; 2048];
        doc[777] = b'q';
        let mut cache = DenseCache::default();
        let mut stats = PrefilterStats::default();
        assert_eq!(
            a.eval_with(&doc, &mut cache, &mut stats),
            eval_evsa(&e, &doc)
        );
        assert!(
            cache.skipped_bytes() > 1000,
            "expected a large jump, got {}",
            cache.skipped_bytes()
        );
        // Matchless and tiny documents behave identically too.
        for doc in [vec![b'a'; 100], vec![], vec![b'q']] {
            assert_eq!(
                a.eval_with(&doc, &mut cache, &mut stats),
                eval_evsa(&e, &doc)
            );
        }
    }

    #[test]
    fn scan_skip_is_exact_on_sparse_and_dense_matches() {
        // Token-boundary extractor with `.*` contexts: the scanning
        // state gets a precompiled scan-skip table, and the enumeration
        // must still produce the exact NFA relation whether matches are
        // sparse (long skips), dense (skips interleave with branches),
        // or sitting on the document edges.
        let e = compile("(.*[^ab]|)x{a+b}([^ab].*|)");
        let a = AotEvsa::compile(e.clone(), AotConfig::default()).unwrap();
        assert!(
            a.scan.iter().any(Option::is_some),
            "the .* context must yield a scan-skip table"
        );
        let mut sparse = vec![b'.'; 4096];
        sparse[1000] = b'a';
        sparse[1001] = b'b';
        sparse[4094] = b'a';
        sparse[4095] = b'b';
        let dense_doc: Vec<u8> = b"aab ab .ab aaab b a ab".repeat(40);
        let edges: Vec<u8> = b"ab..ab".to_vec();
        for doc in [&sparse, &dense_doc, &edges, &Vec::new()] {
            assert_eq!(a.eval(doc), eval_evsa(&e, doc));
        }
    }

    #[test]
    fn gate_rejects_and_counts() {
        // Required literal 'q': an all-'a' document is gate-rejected
        // without a single table step.
        let a = aot(".*x{q+}.*");
        assert!(!a.gate().is_transparent());
        let mut cache = DenseCache::default();
        let mut stats = PrefilterStats::default();
        let doc = vec![b'a'; 512];
        assert!(a.eval_with(&doc, &mut cache, &mut stats).is_empty());
        assert_eq!(stats.bytes_skipped, 512);
        assert_eq!(stats.candidates, 0);
    }

    #[test]
    fn budget_fallback_boundary() {
        // budget-1 / budget / budget+1 around the automaton's own raw
        // determinization size pins the AOT→dense fallback edge.
        let e = compile("(a|b)*x{ab}(a|b)*");
        let full = AotEvsa::compile(e.clone(), AotConfig::default()).unwrap();
        let (rf, rb) = full.determinized_states();
        let need = rf.max(rb);
        assert!(need > 1, "test automaton must determinize to > 1 state");
        let cfg = |max_states| AotConfig {
            max_states,
            ..AotConfig::default()
        };
        assert!(
            AotEvsa::compile(e.clone(), cfg(need - 1)).is_none(),
            "budget-1 must fall back"
        );
        let at = AotEvsa::compile(e.clone(), cfg(need)).expect("budget exactly fits");
        let above = AotEvsa::compile(e.clone(), cfg(need + 1)).expect("budget+1 fits");
        for doc in [b"abab".as_slice(), b"", b"bb"] {
            assert_eq!(at.eval(doc), eval_evsa(&e, doc));
            assert_eq!(above.eval(doc), eval_evsa(&e, doc));
        }
    }

    #[test]
    fn zero_and_empty_automata_fall_back() {
        // An empty-language automaton either compiles (and then agrees
        // with the reference evaluator everywhere) or falls back.
        let v = crate::vsa::Vsa::new(crate::vars::VarTable::empty());
        let e = Arc::new(EVsa::from_functional(&v));
        if let Some(a) = AotEvsa::compile(e.clone(), AotConfig::default()) {
            for doc in [b"".as_slice(), b"ab"] {
                assert_eq!(a.eval(doc), eval_evsa(&e, doc));
                assert!(!a.accepts(doc));
            }
        }
        let e = compile("x{a}");
        assert!(AotEvsa::compile(
            e,
            AotConfig {
                max_states: 0,
                ..AotConfig::default()
            }
        )
        .is_none());
    }

    #[test]
    fn packing_roundtrips_at_u16_boundary() {
        // Every (index, shift) pair the packing budget admits must
        // round-trip through the premultiplied representation with the
        // flag bit intact — including the extreme index for each stride.
        for shift in 0..=8u32 {
            let stride = 1usize << shift;
            let max_index = (1usize << 15) / stride - 1;
            for index in [0, 1, max_index / 2, max_index] {
                for flag in [false, true] {
                    let id = pack(index, shift, flag);
                    assert_eq!(unpack(id, shift), index, "shift {shift} index {index}");
                    assert_eq!(id & FLAG != 0, flag);
                    // The premultiplied id stays below bit 15: masking
                    // off the flag recovers the shifted index exactly.
                    assert_eq!((id & MASK) as usize, index << shift);
                }
            }
        }
    }

    #[test]
    fn packing_budget_caps_state_count() {
        // With the widest possible stride the cap is 2^15 / stride; the
        // compile-time budget must never admit more states than pack().
        for nc in [1usize, 2, 3, 5, 8, 17, 200, 256] {
            let stride = nc.next_power_of_two();
            let cap = (1usize << 15) / stride;
            let shift = stride.trailing_zeros();
            // The largest admissible index packs; one past it would not.
            assert!(((cap - 1) << shift) < (1 << 15));
            assert!((cap << shift) >= (1 << 15));
        }
    }

    #[test]
    fn classes_shared_partition_matches_own() {
        use splitc_automata::classes::ByteClassBuilder;
        let e = compile(".*x{a+}.*");
        let own = AotEvsa::compile(e.clone(), AotConfig::default()).unwrap();
        let mut builder = ByteClassBuilder::new();
        for m in e.byte_masks() {
            builder.add_set(|b| m.contains(b));
        }
        builder.add_set(|b: u8| b.is_ascii_digit());
        let shared =
            AotEvsa::compile_with_classes(e.clone(), AotConfig::default(), builder.build())
                .unwrap();
        for doc in [b"aabaa".as_slice(), b"", b"q9a", b"bbb"] {
            assert_eq!(shared.eval(doc), own.eval(doc));
            assert_eq!(shared.accepts(doc), own.accepts(doc));
        }
    }

    #[test]
    fn minimization_shrinks_forward_table() {
        // The forward DFA of a union of redundant branches minimizes
        // below its raw determinization; the backward table must stay
        // at the raw size (its states are observable).
        let e = compile("x{a|aa|aaa}");
        let a = AotEvsa::compile(e, AotConfig::default()).unwrap();
        let (raw_fwd, raw_bwd) = a.determinized_states();
        let (packed_fwd, packed_bwd) = a.packed_states();
        assert_eq!(packed_bwd, raw_bwd);
        // packed_fwd includes the explicit dead sink.
        assert!(packed_fwd <= raw_fwd + 1);
        assert!(a.table_bytes() > 0);
    }
}
