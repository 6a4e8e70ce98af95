//! Shared plumbing: statistics, the span tracer, and the result record
//! every workload fills in.

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Bytes per MB in every `_mb_s` metric (decimal megabytes).
pub const MB: f64 = 1e6;

/// The fewest times each workload repeats its set-up; `setup_s` is the
/// median of the repetitions.
pub const SETUP_REPS: usize = 3;

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile `p` (0..=100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Seconds as milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` and returns its value with the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Worker count for runners, servers and client threads: the host's
/// available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / MB)
}

/// SplitMix64: the benchmark's own seeded choices (sizes, sampling),
/// independent of the generators inside the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One recorded span: a timed call into a layer, made by the benchmark.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// `Some(n)` for a replay: a call made after the operation, on the
    /// same input, to time one layer alone on one thread, where the
    /// operation itself spreads that layer's work over `n` threads. The
    /// self-time table counts a replay as its duration divided by `n`.
    pub replay: Option<usize>,
}

/// In-memory span store, written out once when the run ends. Disabled
/// tracers record nothing, so untraced runs pay one branch per span.
#[derive(Debug)]
pub struct Tracer {
    /// Cleared while a traced run measures its untraced comparison loop.
    pub enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`, returning its
    /// value, its duration and the span's id (for children).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        replay: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration, Option<usize>) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let id = self.record(name, parent, replay, t0, t1);
        (out, t1 - t0, id)
    }

    /// Records an already-timed interval.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        replay: Option<usize>,
        t0: Instant,
        t1: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: (t0 - self.epoch).as_nanos() as u64,
            end_ns: (t1 - self.epoch).as_nanos() as u64,
            parent,
            replay,
        });
        Some(self.spans.len() - 1)
    }

    /// Re-parents span `child` (a span recorded before its parent).
    pub fn set_parent(&mut self, child: usize, parent: usize) {
        self.spans[child].parent = Some(parent);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(
        &self,
        path: &std::path::Path,
        workload: &str,
        run_id: &str,
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"replay\":{},\"workload\":\"{workload}\",\"run\":\"{run_id}\"}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.replay.map_or("null".to_string(), |n| n.to_string()),
            )?;
        }
        out.flush()
    }
}

/// What a run reports: operation counts, the correctness verdict, and
/// named metrics with units.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Check failures outside any counted operation (set-up verdicts).
    pub broken: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn fail(&mut self, why: String) {
        if self.broken.len() < 8 {
            eprintln!("check failed: {why}");
        }
        self.broken.push(why);
    }

    /// Failed operations and failed checks.
    pub fn failures(&self) -> u64 {
        self.failed + self.broken.len() as u64
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty() && self.attempted > 0
    }

    /// The result line: one JSON object, printed last.
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(m, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failures(),
        )
    }
}

/// How often the host's CPU tick counters are sampled during a loop.
const TICK_SAMPLE: Duration = Duration::from_millis(25);
/// Operations or windows whose steal share is at most this count as
/// quiet.
const QUIET_STEAL: f64 = 0.05;

/// Host-wide `(steal, total)` CPU ticks from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let f: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    Some((*f.get(7)?, f.iter().sum()))
}

/// Samples the host's CPU tick counters on a background thread while a
/// loop runs, so each stretch of the loop can be tagged with the share
/// of CPU time the hypervisor stole from this machine.
pub struct TickSampler {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<Vec<(Instant, u64, u64)>>,
}

impl TickSampler {
    pub fn start() -> TickSampler {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut samples = Vec::new();
            loop {
                if let Some((steal, total)) = cpu_ticks() {
                    samples.push((Instant::now(), steal, total));
                }
                if flag.load(std::sync::atomic::Ordering::SeqCst) {
                    return samples;
                }
                std::thread::sleep(TICK_SAMPLE);
            }
        });
        TickSampler { stop, handle }
    }

    pub fn finish(self) -> Vec<(Instant, u64, u64)> {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        self.handle.join().expect("tick sampler panicked")
    }
}

/// The operations of one timed loop.
#[derive(Debug, Clone)]
pub struct Loop {
    pub start: Instant,
    /// Per operation: when it started, its latency (ms), and the input
    /// bytes its result covers.
    pub ops: Vec<(Instant, f64, f64)>,
    /// Wall time the loop ran, in seconds.
    pub wall_s: f64,
    /// Operations overlapped (several client connections): throughput
    /// is then bytes over wall time, not bytes per operation over the
    /// median latency.
    pub concurrent: bool,
    /// Host `(time, steal, total)` CPU tick samples taken during the loop.
    pub ticks: Vec<(Instant, u64, u64)>,
}

/// The operations a loop's metrics are computed from.
struct Kept {
    lat_ms: Vec<f64>,
    bytes: f64,
    /// Wall time of the kept units, in seconds.
    span_s: f64,
    /// Mean steal share of the kept units and of all units.
    steal: (f64, f64),
}

impl Loop {
    pub fn new(start: Instant, concurrent: bool) -> Loop {
        Loop {
            start,
            ops: Vec::new(),
            wall_s: 0.0,
            concurrent,
            ticks: Vec::new(),
        }
    }

    pub fn lat_ms(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.1).collect()
    }

    /// Share of host CPU ticks stolen between `a` and `b` (0 when the
    /// counters are unavailable).
    fn steal(&self, a: Instant, b: Instant) -> f64 {
        let before = self
            .ticks
            .iter()
            .rev()
            .find(|t| t.0 <= a)
            .or(self.ticks.first());
        let after = self.ticks.iter().find(|t| t.0 >= b).or(self.ticks.last());
        match (before, after) {
            (Some(x), Some(y)) if y.2 > x.2 => (y.1 - x.1) as f64 / (y.2 - x.2) as f64,
            _ => 0.0,
        }
    }

    /// The operations the metrics use. Other tenants of a shared host
    /// steal CPU from this machine in stretches that slow every layer
    /// alike, so operations are judged by the steal share while they
    /// ran: each operation by its own interval in a sequential loop, and
    /// windows of wall time (at least 0.5 s and three median operations
    /// long) in a concurrent one, whose throughput is measured over wall
    /// time. Units with at most [`QUIET_STEAL`] stolen are kept, topped
    /// up with the next least-stolen units until a quarter of the
    /// operations (at least 10) are kept.
    fn kept(&self) -> Kept {
        // (steal share, operations, wall seconds) per unit.
        let mut units: Vec<(f64, Vec<usize>, f64)> = if self.concurrent {
            let len = (3.0 * median(&self.lat_ms()) / 1e3)
                .max(0.5)
                .min(self.wall_s.max(1e-3));
            let n = (self.wall_s / len).ceil().max(1.0) as usize;
            let at = |s: f64| self.start + Duration::from_secs_f64(s);
            let mut windows: Vec<(f64, Vec<usize>, f64)> = (0..n)
                .map(|w| {
                    let steal = self.steal(at(w as f64 * len), at((w + 1) as f64 * len));
                    (steal, Vec::new(), len)
                })
                .collect();
            for (i, op) in self.ops.iter().enumerate() {
                let end = (op.0 - self.start).as_secs_f64() + op.1 / 1e3;
                windows[((end / len) as usize).min(n - 1)].1.push(i);
            }
            windows
        } else {
            self.ops
                .iter()
                .enumerate()
                .map(|(i, op)| {
                    let end = op.0 + Duration::from_secs_f64(op.1 / 1e3);
                    (self.steal(op.0, end), vec![i], op.1 / 1e3)
                })
                .collect()
        };
        let all_steal = units.iter().map(|u| u.0).sum::<f64>() / units.len().max(1) as f64;
        units.sort_by(|a, b| a.0.total_cmp(&b.0));
        let need = (self.ops.len() / 4).max(10).min(self.ops.len());
        let mut kept: Vec<usize> = Vec::new();
        let (mut used, mut steal, mut span_s) = (0, 0.0, 0.0);
        for (st, ops, secs) in &units {
            if *st > QUIET_STEAL && kept.len() >= need {
                break;
            }
            kept.extend(ops);
            used += 1;
            steal += st;
            span_s += secs;
        }
        Kept {
            lat_ms: kept.iter().map(|&i| self.ops[i].1).collect(),
            bytes: kept.iter().map(|&i| self.ops[i].2).sum(),
            span_s,
            steal: (steal / used.max(1) as f64, all_steal),
        }
    }

    /// Prints the loop summary and, for an untraced run, records the
    /// end-to-end loop metrics over the quiet stretches (set-up time,
    /// the ok ratio and memory are added by the caller). Throughput is
    /// bytes per operation over the median latency for a sequential
    /// loop, bytes over the kept wall time for a concurrent one.
    pub fn report(&self, out: &mut Outcome, traced: bool) {
        let k = self.kept();
        let (p50, p95) = (median(&k.lat_ms), percentile(&k.lat_ms, 95.0));
        let mb_s = if self.concurrent {
            k.bytes / MB / k.span_s.max(1e-9)
        } else {
            k.bytes / k.lat_ms.len().max(1) as f64 / MB / (p50 / 1e3)
        };
        if !traced {
            out.metric("extract_mb_s", mb_s, "MB/s");
            out.metric("op_p50_ms", p50, "ms");
            out.metric("op_p95_ms", p95, "ms");
        }
        let all = self.lat_ms();
        println!(
            "loop: {} ops in {:.2} s ({:.1} ops/s), all ops p50 {:.3} ms p95 {:.3} ms; kept {} ops (steal {:.3} kept, {:.3} all): {mb_s:.2} MB/s, p50 {p50:.3} ms, p95 {p95:.3} ms",
            all.len(),
            self.wall_s,
            all.len() as f64 / self.wall_s.max(1e-9),
            median(&all),
            percentile(&all, 95.0),
            k.lat_ms.len(),
            k.steal.0,
            k.steal.1,
        );
    }
}

/// Repeats `op` until `limit` of wall time has passed. `op` times
/// itself (checks and replays it runs are outside its latency) and
/// returns its start, latency, and the input bytes its result covers.
pub fn run_loop(limit: Duration, mut op: impl FnMut() -> (Instant, Duration, f64)) -> Loop {
    let sampler = TickSampler::start();
    let mut l = Loop::new(Instant::now(), false);
    while l.start.elapsed() < limit {
        let (t0, lat, bytes) = op();
        l.ops.push((t0, ms(lat), bytes));
    }
    l.wall_s = l.start.elapsed().as_secs_f64();
    l.ticks = sampler.finish();
    l
}

/// The timed loop of a sequential workload. Untraced runs loop for the
/// whole run; traced runs loop half the time untraced and half traced
/// (see [`report_overhead`]). Returns the untraced and traced loops.
pub fn measure(
    seconds: Duration,
    tracer: &mut Tracer,
    mut op: impl FnMut(&mut Tracer) -> (Instant, Duration, f64),
) -> (Loop, Option<Loop>) {
    if !tracer.enabled {
        return (run_loop(seconds, || op(tracer)), None);
    }
    tracer.enabled = false;
    let untraced = run_loop(seconds, || op(tracer));
    tracer.enabled = true;
    let traced = run_loop(seconds, || op(tracer));
    (untraced, Some(traced))
}

/// `trace.overhead_ratio`: traced over untraced median latency, minus 1.
pub fn report_overhead(out: &mut Outcome, untraced: &Loop, traced: Option<&Loop>) {
    if let Some(traced) = traced {
        let (u, t) = (median(&untraced.lat_ms()), median(&traced.lat_ms()));
        println!("tracing overhead: untraced p50 {u:.3} ms, traced p50 {t:.3} ms");
        out.metric("trace.overhead_ratio", t / u.max(1e-12) - 1.0, "ratio");
    }
}
