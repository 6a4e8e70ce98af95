//! The traced run's per-layer numbers: the self-time table of the
//! workload's own operations, and the layer probes — each layer driven
//! alone through its public functions on a fixed-size seeded probe
//! input that is the same for every workload.

use crate::common::{median, nproc, percentile, timed, Outcome, Tracer, MB};
use crate::{edit_stream, fleet_requery, serve_mix, wiki_extract};
use splitc_automata::antichain::cumulative_stats;
use splitc_automata::scan::MultiNeedle;
use splitc_exec::{CompileOptions, CorpusHandle, Engine, RunnerOptions};
use splitc_server::http::{read_request, Request};
use splitc_server::{handlers, offline_extract, Json, ServerConfig, ServiceState};
use splitc_textgen::spanners::keyword_fleet;
use std::collections::BTreeMap;
use std::time::Instant;

/// Probe corpus sizes (a quarter of the workloads' corpora).
const PROBE_SHARDS: usize = 4;
const PROBE_SHARD_BYTES: usize = 1 << 20;
const PROBE_EDIT_SHARDS: usize = 8;
const PROBE_EDITS: usize = 160;
/// Timed repetitions per probe; the median is reported.
const REPS: usize = 3;

/// Median wall time of `REPS` runs of `f`, with the last run's value.
fn median_time<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..REPS {
        let (v, d) = timed(&mut f);
        times.push(d.as_secs_f64());
        last = Some(v);
    }
    (last.expect("REPS > 0"), median(&times))
}

/// Prints the per-operation self-time table of the spans rooted at `op`
/// and reports its unattributed residual and top layer. Each layer row
/// is the layer's self time; the `op` span's own self time is the
/// unattributed residual, so the rows sum to the operation's wall time.
pub fn report_self_times(tracer: &Tracer, out: &mut Outcome) {
    let spans = tracer.spans();
    let root = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    // A replay counts as its duration over the threads the operation
    // spreads that layer across (see `Span::replay`).
    let eff = |i: usize| {
        let s = &spans[i];
        (s.end_ns - s.start_ns) as f64 / s.replay.unwrap_or(1) as f64
    };
    let mut child = vec![0.0f64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            child[p] += eff(i);
        }
    }
    let mut rows: BTreeMap<&str, f64> = BTreeMap::new();
    let mut setup: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut ops, mut wall) = (0usize, 0.0f64);
    for (i, s) in spans.iter().enumerate() {
        let own = (eff(i) - child[i]) / 1e6;
        let r = &spans[root(i)];
        if r.name != "op" {
            if s.parent.is_none() && s.name != "request" {
                *setup.entry(s.name).or_default() += own;
            }
            continue;
        }
        if s.name == "op" {
            ops += 1;
            wall += (s.end_ns - s.start_ns) as f64 / 1e6;
            *rows.entry("unattributed").or_default() += own;
        } else {
            *rows.entry(s.name).or_default() += own;
        }
    }
    let n = ops.max(1) as f64;
    let per_op = wall / n;
    println!("self time per operation ({ops} traced operations, mean wall {per_op:.3} ms):");
    for (name, total) in &rows {
        println!(
            "  {name:<30} {:>10.3} ms  {:>7.1}%",
            total / n,
            100.0 * total / wall.max(1e-12)
        );
    }
    let top = rows
        .iter()
        .filter(|(k, _)| **k != "unattributed")
        .max_by(|a, b| a.1.total_cmp(b.1));
    if let Some((name, t)) = top {
        println!(
            "top layer: {name} ({:.1}% of the operation's wall time)",
            100.0 * t / wall.max(1e-12)
        );
        out.metric("trace.top_layer_share", t / wall.max(1e-12), "ratio");
    }
    let unattributed = rows.get("unattributed").copied().unwrap_or(0.0);
    out.metric(
        "trace.unattributed_share",
        unattributed / wall.max(1e-12),
        "ratio",
    );
    println!("set-up spans (ms): {setup:.1?}");
}

/// Runs every layer probe and reports its metrics.
pub fn probe_all(seed: u64, out: &mut Outcome) {
    let t = Instant::now();
    probe_stream_engine_runner(seed, out);
    probe_fleet(seed, out);
    probe_handle(seed, out);
    probe_server(seed, out);
    probe_memcpy(out);
    println!("layer probes: {:.2} s", t.elapsed().as_secs_f64());
}

/// Splitting, per-segment evaluation, and the corpus runner at 1 and
/// `nproc` workers, on wiki shards with the number extractor (AOT).
fn probe_stream_engine_runner(seed: u64, out: &mut Outcome) {
    let chunks = wiki_extract::wiki_chunks(seed, PROBE_SHARDS, PROBE_SHARD_BYTES);
    let bytes: usize = chunks.iter().flatten().map(Vec::len).sum();
    let c = wiki_extract::compile_and_certify(&mut Tracer::new(false), out);
    let (segs, split_s) = median_time(|| wiki_extract::split_all(&c.splitter, &chunks));
    let seg_bytes: usize = segs.iter().map(Vec::len).sum();
    let (tuples, eval_s) =
        median_time(|| segs.iter().map(|s| c.spanner.eval(s).len()).sum::<usize>());
    let run = |workers: usize| {
        let runner = RunnerOptions::new()
            .workers(workers)
            .corpus_runner(c.spanner.clone(), c.splitter.clone());
        median_time(|| runner.run_streams(chunks.iter().map(|d| d.iter().map(Vec::as_slice))))
    };
    let (r1, w1_s) = run(1);
    let (_, wn_s) = run(nproc());
    out.metric(
        "exec.stream.split_mb_s",
        bytes as f64 / MB / split_s,
        "MB/s",
    );
    out.metric("exec.stream.segments", segs.len() as f64, "count");
    out.metric(
        "spanner.aot.seg_eval_mb_s",
        seg_bytes as f64 / MB / eval_s,
        "MB/s",
    );
    out.metric("exec.engine.tuples", tuples as f64, "count");
    out.metric("exec.corpus.w1_mb_s", bytes as f64 / MB / w1_s, "MB/s");
    out.metric("exec.corpus.wN_mb_s", bytes as f64 / MB / wn_s, "MB/s");
    out.metric("exec.corpus.batches", r1.stats.batches as f64, "count");
    out.metric(
        "exec.corpus.unattributed_share",
        1.0 - (split_s + eval_s) / w1_s,
        "ratio",
    );
}

/// Fleet compile and certification, the fused gates and scan, and the
/// multi-needle kernel, on keyword shards with the 64-member fleet.
fn probe_fleet(seed: u64, out: &mut Outcome) {
    let shards = fleet_requery::keyword_shards(seed, PROBE_SHARDS, PROBE_SHARD_BYTES);
    let bytes: usize = shards.iter().map(Vec::len).sum();
    let vsas = keyword_fleet(fleet_requery::KEYWORDS);
    let opts = CompileOptions::new().engine(Engine::Aot);
    let (fleet, compile_s) = median_time(|| std::sync::Arc::new(opts.compile_fleet(&vsas)));
    let before = cumulative_stats();
    let (held, cert) = timed(|| fleet_requery::certify_fleet(&vsas));
    let explored = cumulative_stats().explored - before.explored;
    if !held {
        out.fail("probe: keyword fleet not certified".into());
    }
    let splitter = opts.compile_splitter(&splitc_spanner::splitter::sentences());
    let handle = CorpusHandle::from_shards(splitter.clone(), shards.iter().cloned());
    let runner = RunnerOptions::new()
        .workers(nproc())
        .fleet_runner(fleet.clone(), splitter);
    let st = runner.run_presplit(handle.presplit_docs()).stats;
    let segs = fleet_requery::segments(&handle);
    let seg_bytes: usize = segs.iter().map(|s| s.len()).sum();
    let (useful, eval_s) = median_time(|| {
        segs.iter()
            .map(|s| fleet.eval(s).iter().filter(|r| !r.is_empty()).count())
            .sum::<usize>()
    });
    let scanner = MultiNeedle::new(&fleet_requery::needles());
    let (_, scan_s) = median_time(|| {
        shards
            .iter()
            .map(|s| scanner.find_all(s).len())
            .sum::<usize>()
    });
    let pairs = (st.segments * fleet.num_members()) as f64;
    out.metric("exec.options.compile_fleet_ms", compile_s * 1e3, "ms");
    out.metric("exec.certify.ms", cert.as_secs_f64() * 1e3, "ms");
    out.metric("automata.antichain.explored", explored as f64, "count");
    out.metric(
        "exec.fleet.eval_mb_s",
        seg_bytes as f64 / MB / eval_s,
        "MB/s",
    );
    out.metric("exec.fleet.fan_out", st.fan_out(), "ratio");
    out.metric(
        "exec.fleet.gate_reject_ratio",
        st.gate_rejected as f64 / pairs,
        "ratio",
    );
    out.metric(
        "exec.fleet.scan_reject_ratio",
        st.scan_rejected as f64 / pairs,
        "ratio",
    );
    out.metric(
        "exec.fleet.useful_dispatch_ratio",
        useful as f64 / st.dispatches.max(1) as f64,
        "ratio",
    );
    out.metric(
        "automata.scan.multineedle_mb_s",
        bytes as f64 / MB / scan_s,
        "MB/s",
    );
}

/// Delta resplit, memo assembly and the segment cache, on a maintained
/// wiki corpus under a seeded edit script, with a twin handle for the
/// dirty-shard-alone and cache-probe timings.
fn probe_handle(seed: u64, out: &mut Outcome) {
    let mut shadow = edit_stream::wiki_shards(seed, PROBE_EDIT_SHARDS, edit_stream::SHARD_BYTES);
    let quiet = &mut Tracer::new(false);
    let mut a = edit_stream::maintain(quiet, out, &shadow);
    let mut b = edit_stream::maintain(quiet, out, &shadow);
    a.cache.reset_stats();
    let mut script = edit_stream::Script::new(seed);
    let (mut delta_ms, mut extract_ms, mut dirty_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut resplit, mut converged, mut reused, mut docs) = (0usize, 0usize, 0usize, 0usize);
    let (mut probe_bytes, mut probe_s) = (0usize, 0.0f64);
    for _ in 0..PROBE_EDITS {
        let edit = script.next(&shadow);
        let shard = edit_stream::shard_of(&edit);
        let (d, dt) = timed(|| edit_stream::apply(&mut a.handle, &edit));
        let (res, et) = timed(|| a.handle.extract(&a.runner));
        edit.apply(&mut shadow);
        delta_ms.push(dt.as_secs_f64() * 1e3);
        extract_ms.push(et.as_secs_f64() * 1e3);
        resplit += d.resplit_bytes;
        converged += d.converged as usize;
        reused += res.stats.docs_reused;
        docs += res.stats.docs;
        edit_stream::apply(&mut b.handle, &edit);
        let [presplit, probe] = edit_stream::dirty_alone(&b, shard);
        dirty_ms.push((presplit.1 - presplit.0).as_secs_f64() * 1e3);
        probe_bytes += b.handle.shard_bytes(shard).len();
        probe_s += (probe.1 - probe.0).as_secs_f64();
    }
    let cs = a.cache.stats();
    let n = PROBE_EDITS as f64;
    out.metric("exec.handle.delta_p50_ms", median(&delta_ms), "ms");
    out.metric(
        "exec.handle.delta_p99_ms",
        percentile(&delta_ms, 99.0),
        "ms",
    );
    out.metric("exec.handle.extract_p50_ms", median(&extract_ms), "ms");
    out.metric(
        "exec.handle.extract_p99_ms",
        percentile(&extract_ms, 99.0),
        "ms",
    );
    out.metric("exec.handle.resplit_bytes", resplit as f64 / n, "bytes");
    out.metric("exec.handle.converged_ratio", converged as f64 / n, "ratio");
    out.metric(
        "exec.handle.docs_reused_ratio",
        reused as f64 / docs.max(1) as f64,
        "ratio",
    );
    out.metric("exec.segcache.hit_ratio", cs.hit_rate(), "ratio");
    out.metric(
        "exec.segcache.probe_mb_s",
        probe_bytes as f64 / MB / probe_s,
        "MB/s",
    );
    out.metric("exec.corpus.presplit_dirty_ms", median(&dirty_ms), "ms");
}

fn request(method: &str, path: &str, body: &str) -> Request {
    Request {
        method: method.into(),
        path: path.into(),
        headers: vec![("content-length".into(), body.len().to_string())],
        body: body.as_bytes().to_vec(),
    }
}

/// The protocol layers without a socket: JSON parse and encode,
/// `http::read_request` over in-memory bytes, and `handlers::handle` on
/// a service state; then the same requests over TCP for the wire share.
fn probe_server(seed: u64, out: &mut Outcome) {
    let state = ServiceState::new(ServerConfig {
        port: 0,
        workers: nproc(),
        ..ServerConfig::default()
    });
    let id = |r: splitc_server::http::Response| {
        Json::parse(std::str::from_utf8(&r.body).unwrap_or(""))
            .ok()
            .and_then(|j| j.get("id").and_then(Json::as_str).map(str::to_string))
            .unwrap_or_default()
    };
    let spanner = id(handlers::handle(
        &state,
        &request(
            "POST",
            "/spanners",
            &format!(
                "{{\"pattern\":{},\"engine\":\"{}\"}}",
                serve_mix::json_str(serve_mix::PATTERN.as_bytes()),
                serve_mix::ENGINE
            ),
        ),
    ));
    let splitter = id(handlers::handle(
        &state,
        &request("POST", "/splitters", "{\"builtin\":\"sentences\"}"),
    ));
    let certify = format!("{{\"spanner\":\"{spanner}\",\"splitter\":\"{splitter}\"}}");
    if handlers::handle(&state, &request("POST", "/certify", &certify)).status != 200 {
        out.fail("probe: certification request failed".into());
    }
    let docs = serve_mix::docs_for(seed, 0);
    let bodies: Vec<String> = docs
        .iter()
        .map(|d| {
            format!(
                "{{\"spanner\":\"{spanner}\",\"splitter\":\"{splitter}\",\"docs\":[{}]}}",
                serve_mix::json_str(d)
            )
        })
        .collect();
    // The largest body drives the single-request probes.
    let big = bodies.iter().max_by_key(|b| b.len()).expect("probe bodies");
    let (_, parse_s) = median_time(|| Json::parse(big).is_ok());
    let wire = serve_mix::http_request("POST", "/extract", big);
    let (_, read_s) =
        median_time(|| read_request(&mut std::io::Cursor::new(&wire), usize::MAX).is_ok());
    let big_doc = docs.iter().max_by_key(|d| d.len()).expect("probe docs");
    let encoded = offline_extract(&Json::obj(vec![
        ("pattern", Json::str(serve_mix::PATTERN)),
        ("engine", Json::str(serve_mix::ENGINE)),
        ("splitter_builtin", Json::str("sentences")),
        (
            "docs",
            Json::Arr(vec![Json::str(
                String::from_utf8_lossy(big_doc).into_owned(),
            )]),
        ),
    ]));
    let encoded = match encoded {
        Ok(j) => j,
        Err(e) => {
            out.fail(format!("probe: offline extract: {e}"));
            Json::Null
        }
    };
    let (text, encode_s) = median_time(|| encoded.to_string());

    let mut handle_ms = Vec::new();
    for b in &bodies {
        let req = request("POST", "/extract", b);
        let (resp, d) = timed(|| handlers::handle(&state, &req));
        if resp.status != 200 {
            out.fail(format!("probe: handler status {}", resp.status));
        }
        handle_ms.push(d.as_secs_f64() * 1e3);
    }
    let rtt = serve_mix::probe_round_trips(&spanner, &splitter, &bodies);
    let rtt_ms: f64 = match rtt {
        Ok(v) => v.iter().sum(),
        Err(e) => {
            out.fail(format!("probe: round trips: {e}"));
            f64::NAN
        }
    };
    out.metric(
        "server.json.parse_mb_s",
        big.len() as f64 / MB / parse_s,
        "MB/s",
    );
    out.metric(
        "server.json.encode_mb_s",
        text.len() as f64 / MB / encode_s,
        "MB/s",
    );
    out.metric("server.http.read_request_us", read_s * 1e6, "us");
    out.metric("server.handlers.handle_p50_ms", median(&handle_ms), "ms");
    out.metric(
        "server.handlers.handle_p99_ms",
        percentile(&handle_ms, 99.0),
        "ms",
    );
    out.metric(
        "server.wire_share",
        1.0 - handle_ms.iter().sum::<f64>() / rtt_ms,
        "ratio",
    );
}

/// Host reference: copy bandwidth of a 64 MiB buffer.
fn probe_memcpy(out: &mut Outcome) {
    let src = vec![7u8; 64 << 20];
    let mut dst = vec![0u8; 64 << 20];
    let (_, s) = median_time(|| {
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&dst);
    });
    out.metric("ref.memcpy_gb_s", src.len() as f64 / 1e9 / s, "GB/s");
}
