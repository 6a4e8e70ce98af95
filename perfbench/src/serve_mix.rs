//! `serve_mix`: the HTTP service under a closed loop of `nproc`
//! keep-alive connections. Each connection sends a seeded sequence:
//! ~90% `POST /extract` with one inline wiki document (log-uniform
//! 2–64 KiB), ~10% `POST /corpus/{own id}/delta` followed by `/extract`
//! of that corpus. Every request is serialized before timing starts and
//! sent over a raw `TcpStream`; responses are read by `Content-Length`
//! and compared byte for byte with `offline_extract` after timing.

use crate::common::{nproc, report_overhead, Loop, Outcome, Rng, TickSampler, Tracer, MB};
use crate::{repeated_setup, Args};
use splitc_server::http::read_request;
use splitc_server::{handlers, offline_extract, Json, Server, ServerConfig};
use splitc_textgen::edits::{edit_script, Edit};
use splitc_textgen::{wiki_corpus, CorpusConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The extractor pattern (the e5 number extractor) and engine served.
pub const PATTERN: &str = "(.*[^0-9]|)x{[0-9]+}([^0-9].*|)";
pub const ENGINE: &str = "aot";
/// Distinct inline documents per connection (requests cycle over them).
const DOCS_PER_CONN: usize = 24;
const MIN_DOC: f64 = 2048.0;
const MAX_DOC: f64 = 65536.0;
/// Each connection's corpus resource.
const CORPUS_SHARDS: usize = 4;
const CORPUS_SHARD_BYTES: usize = 16 << 10;
/// Request slots serialized per connection; the loop stops early if a
/// connection runs out.
const SLOTS: usize = 8_000;
const DELTA_SHARE: f64 = 0.1;

/// Minimal JSON string escaping for generated text (the benchmark's
/// own, so the program's encoder is not on the client side).
pub fn json_str(s: &[u8]) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for &b in s {
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            0..=0x1f => out.push_str(&format!("\\u{b:04x}")),
            _ => out.push(b as char),
        }
    }
    out.push('"');
    out
}

/// One serialized HTTP request.
pub fn http_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Sends `req` and reads one response by `Content-Length`, returning
/// status and body.
pub fn round_trip(
    w: &mut TcpStream,
    r: &mut BufReader<TcpStream>,
    req: &[u8],
) -> std::io::Result<(u16, Vec<u8>)> {
    w.write_all(req)?;
    let mut line = String::new();
    r.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
    let mut len = 0usize;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(std::io::Error::other("eof in headers"));
        }
        let l = line.trim_end();
        if l.is_empty() {
            break;
        }
        if let Some((k, v)) = l.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                len = v.trim().parse().map_err(std::io::Error::other)?;
            }
        }
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok((status, body))
}

pub fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let w = TcpStream::connect(addr)?;
    w.set_nodelay(true)?;
    w.set_read_timeout(Some(Duration::from_secs(60)))?;
    let r = BufReader::new(w.try_clone()?);
    Ok((w, r))
}

/// A running server with its registered pair.
pub struct Served {
    pub server: Server,
    pub spanner: String,
    pub splitter: String,
}

/// One set-up call on a keep-alive connection; the response is parsed
/// with the program's own `Json` (set-up is not the timed path).
fn call_json(
    conn: &mut (TcpStream, BufReader<TcpStream>),
    method: &str,
    path: &str,
    body: &str,
) -> Result<Json, String> {
    let (status, resp) = round_trip(&mut conn.0, &mut conn.1, &http_request(method, path, body))
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8(resp).map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("{method} {path}: {status} {text}"));
    }
    Json::parse(&text).map_err(|e| e.to_string())
}

/// Spawns the server, registers and certifies the pair, and puts one
/// corpus resource per connection.
pub fn serve(tracer: &mut Tracer, corpora: &[Vec<Vec<u8>>]) -> Result<Served, String> {
    let (server, _, _) = tracer.span("server.spawn", None, None, || {
        Server::spawn(ServerConfig {
            port: 0,
            workers: nproc(),
            ..ServerConfig::default()
        })
    });
    let server = server.map_err(|e| e.to_string())?;
    let conn = &mut connect(server.addr()).map_err(|e| e.to_string())?;
    let id = |j: Json| {
        j.get("id")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or("no id")
    };
    let (spanner, _, _) = tracer.span("server.register", None, None, || {
        call_json(
            conn,
            "POST",
            "/spanners",
            &format!(
                "{{\"pattern\":{},\"engine\":\"{ENGINE}\"}}",
                json_str(PATTERN.as_bytes())
            ),
        )
    });
    let spanner = id(spanner?)?;
    let splitter = id(call_json(
        conn,
        "POST",
        "/splitters",
        "{\"builtin\":\"sentences\"}",
    )?)?;
    let (cert, _, _) = tracer.span("exec.certify", None, None, || {
        call_json(
            conn,
            "POST",
            "/certify",
            &format!("{{\"spanner\":\"{spanner}\",\"splitter\":\"{splitter}\"}}"),
        )
    });
    if cert?.get("holds").and_then(Json::as_bool) != Some(true) {
        return Err("served pair is not certified split-correct".into());
    }
    tracer
        .span("server.corpus_put", None, None, || {
            put_corpora(conn, &splitter, corpora)
        })
        .0?;
    Ok(Served {
        server,
        spanner,
        splitter,
    })
}

/// Puts connection `c`'s corpus resource `c{c}` for every `c`.
fn put_corpora(
    conn: &mut (TcpStream, BufReader<TcpStream>),
    splitter: &str,
    corpora: &[Vec<Vec<u8>>],
) -> Result<(), String> {
    for (c, shards) in corpora.iter().enumerate() {
        let list: Vec<String> = shards.iter().map(|s| json_str(s)).collect();
        let body = format!(
            "{{\"splitter\":\"{splitter}\",\"shards\":[{}]}}",
            list.join(",")
        );
        call_json(conn, "PUT", &format!("/corpus/c{c}"), &body)?;
    }
    Ok(())
}

/// A request slot of a connection's sequence.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Inline(usize),
    Delta(usize),
}

/// Everything one connection sends, serialized, plus what is needed to
/// check its responses.
struct Conn {
    docs: Vec<Vec<u8>>,
    inline_reqs: Vec<Vec<u8>>,
    /// Expected `relations` JSON per inline document.
    inline_want: Vec<String>,
    deltas: Vec<Edit>,
    delta_reqs: Vec<Vec<u8>>,
    corpus_req: Vec<u8>,
    slots: Vec<Slot>,
}

/// What a connection saw in the timed loop.
#[derive(Default)]
struct Seen {
    /// Per request: sent, answered, and the document bytes it extracted.
    reqs: Vec<(Instant, Instant, f64)>,
    errors: u64,
    mismatches: u64,
    /// Corpus-extract responses, as the number of deltas applied before
    /// them and a hash of their relations, checked after timing.
    corpus: Vec<(usize, Option<u64>)>,
}

/// The `relations` value of an offline extraction, rendered as the
/// server renders it.
fn offline_relations(docs: &[&[u8]]) -> Result<String, String> {
    let body = Json::obj(vec![
        ("pattern", Json::str(PATTERN)),
        ("engine", Json::str(ENGINE)),
        ("splitter_builtin", Json::str("sentences")),
        (
            "docs",
            Json::Arr(
                docs.iter()
                    .map(|d| Json::str(String::from_utf8_lossy(d).into_owned()))
                    .collect(),
            ),
        ),
    ]);
    let out = offline_extract(&body)?;
    out.get("relations")
        .map(|r| r.to_string())
        .ok_or_else(|| "offline result has no relations".into())
}

/// An extract response is `HEAD`, the relations, then `TAIL` and stats.
const HEAD: &[u8] = b"{\"v\":1,\"relations\":";
const TAIL: &[u8] = b",\"stats\":";

/// Whether a server response carries exactly `want` as its relations.
fn matches(resp: &[u8], want: &str) -> bool {
    resp.starts_with(HEAD)
        && resp[HEAD.len()..].starts_with(want.as_bytes())
        && resp[HEAD.len() + want.len()..].starts_with(TAIL)
}

/// FNV-1a, 64-bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The hash of an extract response's `relations` bytes, so a run keeps
/// 8 bytes per corpus response instead of the body (`None` when the
/// body is not shaped like an extract response).
fn relations_hash(body: &[u8]) -> Option<u64> {
    let end = body.windows(TAIL.len()).rposition(|w| w == TAIL)?;
    (body.starts_with(HEAD) && end >= HEAD.len()).then(|| fnv64(&body[HEAD.len()..end]))
}

fn delta_body(e: &Edit) -> String {
    match e {
        Edit::Point {
            shard,
            start,
            end,
            text,
        } => format!(
            "{{\"op\":\"edit\",\"shard\":{shard},\"start\":{start},\"end\":{end},\"text\":{}}}",
            json_str(text)
        ),
        Edit::Append { shard, text } => {
            format!(
                "{{\"op\":\"append\",\"shard\":{shard},\"text\":{}}}",
                json_str(text)
            )
        }
        Edit::ReplaceShard { shard, text } => format!(
            "{{\"op\":\"replace_shard\",\"shard\":{shard},\"text\":{}}}",
            json_str(text)
        ),
    }
}

fn corpus_shards(seed: u64, c: usize) -> Vec<Vec<u8>> {
    (0..CORPUS_SHARDS)
        .map(|i| {
            wiki_corpus(&CorpusConfig {
                target_bytes: CORPUS_SHARD_BYTES,
                seed: seed ^ ((c * CORPUS_SHARDS + i) as u64 + 1).wrapping_mul(0x5851_F42D),
                ..Default::default()
            })
        })
        .collect()
}

/// Connection `c`'s inline documents. Sizes sit at fixed log-uniform
/// quantiles of 2–64 KiB, so every seed serves the same size mix; the
/// seed picks the text.
pub fn docs_for(seed: u64, c: usize) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(seed.wrapping_add(c as u64 * 7919));
    (0..DOCS_PER_CONN)
        .map(|k| {
            let q = (k as f64 + 0.5) / DOCS_PER_CONN as f64;
            let size = (MIN_DOC.ln() + q * (MAX_DOC.ln() - MIN_DOC.ln())).exp() as usize;
            let mut d = wiki_corpus(&CorpusConfig {
                target_bytes: size,
                seed: rng.next_u64(),
                ..Default::default()
            });
            d.truncate(size);
            d
        })
        .collect()
}

/// Sends each body as an inline `/extract`, one at a time, to a freshly
/// spawned server with the pair registered and certified; returns each
/// round trip in milliseconds.
pub fn probe_round_trips(
    spanner: &str,
    splitter: &str,
    bodies: &[String],
) -> Result<Vec<f64>, String> {
    let served = serve(&mut Tracer::new(false), &[])?;
    if served.spanner != spanner || served.splitter != splitter {
        return Err("probe server registered different ids".into());
    }
    let (mut w, mut r) = connect(served.server.addr()).map_err(|e| e.to_string())?;
    bodies
        .iter()
        .map(|b| {
            let req = http_request("POST", "/extract", b);
            let t = Instant::now();
            match round_trip(&mut w, &mut r, &req) {
                Ok((200, _)) => Ok(t.elapsed().as_secs_f64() * 1e3),
                Ok((status, _)) => Err(format!("status {status}")),
                Err(e) => Err(e.to_string()),
            }
        })
        .collect()
}

/// Generates and serializes connection `c`'s whole sequence.
fn plan(
    seed: u64,
    c: usize,
    spanner: &str,
    splitter: &str,
    shards: &[Vec<u8>],
) -> Result<Conn, String> {
    let mut rng = Rng::new(seed.wrapping_add(c as u64 * 7919) ^ 0x51075);
    let docs = docs_for(seed, c);
    let inline_reqs = docs
        .iter()
        .map(|d| {
            http_request(
                "POST",
                "/extract",
                &format!(
                    "{{\"spanner\":\"{spanner}\",\"splitter\":\"{splitter}\",\"docs\":[{}]}}",
                    json_str(d)
                ),
            )
        })
        .collect();
    let inline_want = docs
        .iter()
        .map(|d| offline_relations(&[d]))
        .collect::<Result<_, _>>()?;
    let mut n_deltas = 0;
    let slots: Vec<Slot> = (0..SLOTS)
        .map(|_| {
            if rng.unit() < DELTA_SHARE {
                n_deltas += 1;
                Slot::Delta(n_deltas - 1)
            } else {
                Slot::Inline(rng.below(DOCS_PER_CONN))
            }
        })
        .collect();
    let lens: Vec<usize> = shards.iter().map(Vec::len).collect();
    let deltas = edit_script(rng.next_u64(), &lens, n_deltas);
    let delta_reqs = deltas
        .iter()
        .map(|e| http_request("POST", &format!("/corpus/c{c}/delta"), &delta_body(e)))
        .collect();
    let corpus_req = http_request(
        "POST",
        "/extract",
        &format!("{{\"spanner\":\"{spanner}\",\"corpus\":\"c{c}\"}}"),
    );
    Ok(Conn {
        docs,
        inline_reqs,
        inline_want,
        deltas,
        delta_reqs,
        corpus_req,
        slots,
    })
}

/// One connection's closed loop, for `limit` after the start barrier.
fn drive(addr: SocketAddr, conn: &Conn, start: &Barrier, limit: Duration) -> Seen {
    let mut seen = Seen::default();
    let (mut w, mut r) = match connect(addr) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("serve_mix: connect: {e}");
            seen.errors += 1;
            start.wait();
            return seen;
        }
    };
    start.wait();
    let t_start = Instant::now();
    let mut send = |seen: &mut Seen, req: &[u8]| -> Option<Vec<u8>> {
        let t0 = Instant::now();
        let res = round_trip(&mut w, &mut r, req);
        seen.reqs.push((t0, Instant::now(), 0.0));
        match res {
            Ok((200, body)) => Some(body),
            Ok((status, body)) => {
                seen.errors += 1;
                eprintln!(
                    "serve_mix: status {status}: {}",
                    String::from_utf8_lossy(&body[..body.len().min(200)])
                );
                None
            }
            Err(e) => {
                seen.errors += 1;
                eprintln!("serve_mix: {e}");
                None
            }
        }
    };
    for slot in &conn.slots {
        if t_start.elapsed() >= limit || seen.errors > 0 {
            break;
        }
        match *slot {
            Slot::Inline(d) => {
                if let Some(body) = send(&mut seen, &conn.inline_reqs[d]) {
                    seen.reqs.last_mut().expect("request recorded").2 = conn.docs[d].len() as f64;
                    if !matches(&body, &conn.inline_want[d]) {
                        seen.mismatches += 1;
                    }
                }
            }
            Slot::Delta(k) => {
                if send(&mut seen, &conn.delta_reqs[k]).is_none() {
                    break;
                }
                let applied = k + 1;
                if let Some(body) = send(&mut seen, &conn.corpus_req) {
                    seen.reqs.last_mut().expect("request recorded").2 =
                        (CORPUS_SHARDS * CORPUS_SHARD_BYTES) as f64;
                    seen.corpus.push((applied, relations_hash(&body)));
                }
            }
        }
    }
    seen
}

/// Runs every connection's loop concurrently for `limit`; returns what
/// each saw and when the loop started.
fn closed_loop(addr: SocketAddr, conns: &[Conn], limit: Duration) -> (Vec<Seen>, Instant) {
    let start = Barrier::new(conns.len() + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter()
            .map(|c| s.spawn(|| drive(addr, c, &start, limit)))
            .collect();
        start.wait();
        let t0 = Instant::now();
        let seen: Vec<Seen> = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect();
        (seen, t0)
    })
}

/// Checks the corpus-extract responses by replaying the deltas on a
/// shadow corpus and extracting it offline. Returns mismatches.
fn check_corpus(conn: &Conn, shards: &[Vec<u8>], seen: &Seen) -> Result<u64, String> {
    let mut shadow = shards.to_vec();
    let mut applied = 0;
    let mut bad = 0;
    for (k, hash) in &seen.corpus {
        while applied < *k {
            conn.deltas[applied].apply(&mut shadow);
            applied += 1;
        }
        let docs: Vec<&[u8]> = shadow.iter().map(Vec::as_slice).collect();
        if *hash != Some(fnv64(offline_relations(&docs)?.as_bytes())) {
            bad += 1;
        }
    }
    Ok(bad)
}

fn summarize(seen: &[Seen], start: Instant, ticks: Vec<(Instant, u64, u64)>) -> Loop {
    let mut l = Loop::new(start, true);
    for s in seen {
        for &(a, b, bytes) in &s.reqs {
            l.ops.push((a, (b - a).as_secs_f64() * 1e3, bytes));
            l.wall_s = l.wall_s.max((b - start).as_secs_f64());
        }
    }
    l.ticks = ticks;
    l
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let n = nproc();
    let corpora: Vec<Vec<Vec<u8>>> = (0..n).map(|c| corpus_shards(args.seed, c)).collect();
    let served = repeated_setup(&mut out, tracer, |tracer, out| {
        match serve(tracer, &corpora) {
            Ok(s) => Some(s),
            Err(e) => {
                out.fail(format!("serve_mix set-up: {e}"));
                None
            }
        }
    });
    let Some(served) = served else {
        return out;
    };
    let conns: Vec<Conn> = match (0..n)
        .map(|c| plan(args.seed, c, &served.spanner, &served.splitter, &corpora[c]))
        .collect()
    {
        Ok(c) => c,
        Err(e) => {
            out.fail(format!("serve_mix plan: {e}"));
            return out;
        }
    };
    let addr = served.server.addr();

    let mut loops = Vec::new();
    for traced in [false, true] {
        if traced && !tracer.enabled {
            break;
        }
        // Each loop starts from freshly put corpora, so the delta
        // scripts apply from their first step again.
        if traced {
            let put = connect(addr)
                .map_err(|e| e.to_string())
                .and_then(|mut c| put_corpora(&mut c, &served.splitter, &corpora));
            if let Err(e) = put {
                out.fail(format!("serve_mix re-put: {e}"));
            }
        }
        let sampler = TickSampler::start();
        let (seen, start) = closed_loop(addr, &conns, args.loop_time());
        let ticks = sampler.finish();
        for (c, s) in seen.iter().enumerate() {
            out.attempted += s.reqs.len() as u64;
            out.failed += s.errors + s.mismatches;
            match check_corpus(&conns[c], &corpora[c], s) {
                Ok(bad) => out.failed += bad,
                Err(e) => out.fail(format!("serve_mix corpus check: {e}")),
            }
        }
        if traced {
            for s in &seen {
                for (a, b, _) in &s.reqs {
                    tracer.record("request", None, None, *a, *b);
                }
            }
        }
        loops.push(summarize(&seen, start, ticks));
    }
    if tracer.enabled {
        replay_layers(tracer, &served, &conns[0], &mut out);
    }
    let lp = &loops[0];
    report_overhead(&mut out, lp, loops.get(1));
    lp.report(&mut out, tracer.enabled);
    println!(
        "serve_mix: {n} connections, {:.1} MB of documents extracted",
        lp.ops.iter().map(|o| o.1).sum::<f64>() / MB
    );
    out
}

/// Sends each inline request of one connection once, alone, then replays
/// it through the server's layers in process: `http::read_request` over
/// the request bytes, `handlers::handle` on the server's own state, and
/// `Json::parse` of the body as the handler's child.
fn replay_layers(tracer: &mut Tracer, served: &Served, conn: &Conn, out: &mut Outcome) {
    let Ok((mut w, mut r)) = connect(served.server.addr()) else {
        out.fail("serve_mix replay: connect failed".into());
        return;
    };
    let state = served.server.state();
    for (d, req) in conn.inline_reqs.iter().enumerate() {
        let t0 = Instant::now();
        let res = round_trip(&mut w, &mut r, req);
        let t1 = Instant::now();
        let op = tracer.record("op", None, None, t0, t1);
        match res {
            Ok((200, body)) if matches(&body, &conn.inline_want[d]) => {}
            _ => out.fail(format!("serve_mix replay: request {d} failed")),
        }
        let (parsed, _, _) = tracer.span("server.http", op, Some(1), || {
            read_request(&mut std::io::Cursor::new(req), usize::MAX)
        });
        let Ok(Some(parsed)) = parsed else {
            out.fail(format!("serve_mix replay: request {d} does not parse"));
            continue;
        };
        let (resp, _, h) = tracer.span("server.handlers", op, Some(1), || {
            handlers::handle(state, &parsed)
        });
        if resp.status != 200 {
            out.fail(format!("serve_mix replay: handler status {}", resp.status));
        }
        let text = std::str::from_utf8(&parsed.body).unwrap_or("");
        tracer.span("server.json", h, Some(1), || Json::parse(text).is_ok());
    }
}
