//! Endpoint logic: JSON request → registry/runner calls → JSON response.
//!
//! Routes (all bodies and responses are JSON; every response leads with
//! the protocol version field `"v": 1`):
//!
//! | Route | Request | Response |
//! |---|---|---|
//! | `POST /spanners` | `{"pattern", "engine"?}` | `{"id", "cached", "vars"}` |
//! | `POST /splitters` | `{"pattern"}` or `{"builtin"}` | `{"id", "cached"}` |
//! | `POST /fleets` | `{"members": [ids]}` | `{"id", "cached", "members"}` |
//! | `POST /certify` | `{"spanner"\|"fleet", "splitter"}` | `{"holds", "cached", ...}` |
//! | `POST /extract` | `{"spanner"\|"fleet", "splitter", "docs"\|"corpus", "unchecked"?}` | `{"relations", "stats"}` |
//! | `PUT /corpus/{id}` | `{"splitter", "shards"}` | `{"id", "shards", "segments", ...}` |
//! | `POST /corpus/{id}/delta` | `{"op", "shard", "start"?, "end"?, "text"}` | `{"delta", ...}` |
//! | `GET /corpus/{id}` | — | corpus summary |
//! | `DELETE /corpus/{id}` | — | `{"deleted": true}` |
//! | `GET /stats` | — | full service statistics |
//! | `GET /healthz` | — | `{"ok": true}` |
//!
//! Request bodies are validated against a per-route field list: an
//! unknown field — or a `"v"` other than `1` — is a typed `400` naming
//! the offending key, so a client typo (`"unckecked"`) fails loudly
//! instead of being silently ignored.
//!
//! `/extract` refuses (`409`) when the requested pair is not certified
//! self-split-correct — per-segment evaluation would change the
//! extraction semantics — unless the request opts out with
//! `"unchecked": true`. Certification happens transparently on first
//! use and is cached thereafter (see [`crate::registry::Registry`]).
//!
//! `/extract` with `"corpus"` runs over a server-maintained corpus
//! resource (PUT once, then POST deltas) with the process-wide
//! [`SegmentCache`] attached: after a small delta, re-extraction
//! re-evaluates only the segments the edit actually changed — every
//! untouched segment is a content-addressed cache hit.

use crate::config::ServerConfig;
use crate::http::{Request, Response};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::registry::{hex_id, parse_hex_id, valid_corpus_id, CorpusEntry, Registry, SplitterSpec};

use splitc_core::cache::CachedVerdict;
use splitc_core::Verdict;
use splitc_exec::{CorpusHandle, DeltaStats, Engine, EvalPool, RunnerOptions, SegmentCache};
use splitc_spanner::{SpanRelation, VarTable};

use std::sync::Arc;
use std::time::Instant;

/// The wire protocol version: stamped into every response as the
/// leading `"v"` field; requests may carry `"v"` and are rejected when
/// it differs.
pub const PROTOCOL_VERSION: u64 = 1;

/// Shared state of a running service: registries, the evaluation pool,
/// metrics, and configuration.
#[derive(Debug)]
pub struct ServiceState {
    /// Artifact registries + certification cache.
    pub registry: Registry,
    /// The long-lived evaluation worker pool shared by all requests.
    pub pool: Arc<EvalPool>,
    /// Request/latency/execution metrics.
    pub metrics: Metrics,
    /// Process-wide content-addressed segment cache, attached to every
    /// corpus-resource extraction (bounded, see
    /// [`ServerConfig::segment_cache_capacity`]).
    pub segment_cache: Arc<SegmentCache>,
    /// The validated configuration the server was started with.
    pub config: ServerConfig,
}

impl ServiceState {
    /// Builds the state for a validated config (the pool is started
    /// here, sized to `config.workers`).
    pub fn new(config: ServerConfig) -> ServiceState {
        ServiceState {
            registry: Registry::new(),
            pool: Arc::new(EvalPool::new(config.workers)),
            metrics: Metrics::new(),
            segment_cache: Arc::new(SegmentCache::new(config.segment_cache_capacity)),
            config,
        }
    }

    /// The runner options every `/extract` uses: the shared pool and
    /// its width, the configured batch size, default queueing, and —
    /// for requests against a maintained corpus — the process-wide
    /// segment cache.
    fn runner_options(&self, cached: bool) -> RunnerOptions {
        let opts = RunnerOptions::new()
            .workers(self.config.workers)
            .batch_bytes(self.config.batch_bytes)
            .pool(self.pool.clone());
        if cached {
            opts.segment_cache(self.segment_cache.clone())
        } else {
            opts
        }
    }
}

/// Dispatches one request, recording latency and status metrics.
pub fn handle(state: &ServiceState, req: &Request) -> Response {
    let start = Instant::now();
    let response = route(state, req);
    let histogram = match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/spanners" | "/splitters" | "/fleets") => Some(&state.metrics.register_latency),
        ("POST", "/certify") => Some(&state.metrics.certify_latency),
        ("POST", "/extract") => Some(&state.metrics.extract_latency),
        ("GET", "/stats") => Some(&state.metrics.stats_latency),
        (_, p) if p.starts_with("/corpus/") => Some(&state.metrics.corpus_latency),
        _ => None,
    };
    if let Some(h) = histogram {
        h.record(start.elapsed());
    }
    state.metrics.count_status(response.status);
    response
}

fn route(state: &ServiceState, req: &Request) -> Response {
    if let Some(rest) = req.path.strip_prefix("/corpus/") {
        return corpus_route(state, req, rest);
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/spanners") => with_body(req, |body| register_spanner(state, body)),
        ("POST", "/splitters") => with_body(req, |body| register_splitter(state, body)),
        ("POST", "/fleets") => with_body(req, |body| register_fleet(state, body)),
        ("POST", "/certify") => with_body(req, |body| certify(state, body)),
        ("POST", "/extract") => with_body(req, |body| extract(state, body)),
        ("GET", "/stats") => stats(state),
        ("GET", "/healthz") => respond(200, Json::obj(vec![("ok", Json::Bool(true))])),
        ("POST" | "GET", _) => error(404, format!("no route {} {}", req.method, req.path)),
        _ => error(405, format!("method {} not supported", req.method)),
    }
}

/// Dispatches `/corpus/{id}` and `/corpus/{id}/delta` by method.
fn corpus_route(state: &ServiceState, req: &Request, rest: &str) -> Response {
    let (id, sub) = match rest.split_once('/') {
        Some((id, sub)) => (id, Some(sub)),
        None => (rest, None),
    };
    if !valid_corpus_id(id) {
        return error(
            400,
            format!("invalid corpus id {id:?} (want 1-64 chars of [A-Za-z0-9_-])"),
        );
    }
    match (req.method.as_str(), sub) {
        ("PUT", None) => with_body(req, |body| corpus_put(state, id, body)),
        ("POST", Some("delta")) => with_body(req, |body| corpus_delta(state, id, body)),
        ("GET", None) => corpus_get(state, id),
        ("DELETE", None) => corpus_delete(state, id),
        _ => error(404, format!("no route {} {}", req.method, req.path)),
    }
}

/// Wraps a response body with the protocol version: every object
/// response leads with `"v": 1`.
fn respond(status: u16, body: Json) -> Response {
    let body = match body {
        Json::Obj(mut pairs) => {
            pairs.insert(0, ("v".to_string(), Json::num(PROTOCOL_VERSION as u32)));
            Json::Obj(pairs)
        }
        other => other,
    };
    Response::json(status, body)
}

/// Builds a JSON error response (versioned like every other response).
pub fn error(status: u16, message: impl Into<String>) -> Response {
    respond(
        status,
        Json::obj(vec![("error", Json::Str(message.into()))]),
    )
}

/// Validates a request body against the route's field contract: it
/// must be a JSON object, an optional `"v"` must equal
/// [`PROTOCOL_VERSION`], and every other key must be in `allowed`.
/// Returns the typed `400` (naming the offending key) on violation.
fn validate_keys(body: &Json, allowed: &[&str]) -> Option<Response> {
    let Some(pairs) = body.as_obj() else {
        return Some(error(400, "request body must be a JSON object"));
    };
    if let Some(v) = body.get("v") {
        if v.as_u64() != Some(PROTOCOL_VERSION) {
            return Some(error(
                400,
                format!("unsupported protocol version {v} (this server speaks \"v\": 1)"),
            ));
        }
    }
    for (key, _) in pairs {
        if key != "v" && !allowed.contains(&key.as_str()) {
            return Some(error(
                400,
                format!("unknown field {key:?} (allowed: v, {})", allowed.join(", ")),
            ));
        }
    }
    None
}

fn with_body(req: &Request, f: impl FnOnce(&Json) -> Response) -> Response {
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return error(400, "body is not valid UTF-8"),
    };
    match Json::parse(text) {
        Ok(body) => f(&body),
        Err(e) => error(400, format!("invalid JSON body: {e}")),
    }
}

fn require_str<'a>(body: &'a Json, key: &str) -> Result<&'a str, Response> {
    body.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| error(400, format!("missing string field {key:?}")))
}

fn require_id(body: &Json, key: &str) -> Result<u64, Response> {
    let text = require_str(body, key)?;
    parse_hex_id(text).ok_or_else(|| error(400, format!("{key:?} is not a 16-hex-digit id")))
}

fn register_spanner(state: &ServiceState, body: &Json) -> Response {
    if let Some(r) = validate_keys(body, &["pattern", "engine"]) {
        return r;
    }
    let pattern = match require_str(body, "pattern") {
        Ok(p) => p,
        Err(r) => return r,
    };
    let engine = match body.get("engine").and_then(Json::as_str) {
        None => Engine::default(),
        Some(name) => match name.parse::<Engine>() {
            Ok(e) => e,
            Err(e) => return error(400, e),
        },
    };
    match state.registry.register_spanner(pattern, engine) {
        Err(e) => error(400, e),
        Ok((entry, cached)) => respond(
            200,
            Json::obj(vec![
                ("id", Json::str(hex_id(entry.id))),
                ("cached", Json::Bool(cached)),
                ("engine", Json::str(entry.engine.name())),
                // The tier compile-time tiering actually chose: equals
                // the engine except when an `aot` request exceeded the
                // determinization budget and degraded to `dense`.
                ("tier", Json::str(entry.exec.tier().name())),
                (
                    "vars",
                    Json::Arr(
                        entry
                            .vsa
                            .vars()
                            .names()
                            .iter()
                            .map(|n| Json::str(n.clone()))
                            .collect(),
                    ),
                ),
            ]),
        ),
    }
}

fn register_splitter(state: &ServiceState, body: &Json) -> Response {
    if let Some(r) = validate_keys(body, &["pattern", "builtin"]) {
        return r;
    }
    let spec = match (
        body.get("pattern").and_then(Json::as_str),
        body.get("builtin").and_then(Json::as_str),
    ) {
        (Some(p), None) => SplitterSpec::Pattern(p.to_string()),
        (None, Some(b)) => SplitterSpec::Builtin(b.to_string()),
        _ => return error(400, "exactly one of \"pattern\" or \"builtin\" is required"),
    };
    match state.registry.register_splitter(&spec) {
        Err(e) => error(400, e),
        Ok((entry, cached)) => respond(
            200,
            Json::obj(vec![
                ("id", Json::str(hex_id(entry.id))),
                ("cached", Json::Bool(cached)),
                ("disjoint", Json::Bool(entry.splitter.is_disjoint())),
            ]),
        ),
    }
}

fn register_fleet(state: &ServiceState, body: &Json) -> Response {
    if let Some(r) = validate_keys(body, &["members"]) {
        return r;
    }
    let members = match body.get("members").and_then(Json::as_arr) {
        Some(m) => m,
        None => return error(400, "missing array field \"members\""),
    };
    let mut ids = Vec::with_capacity(members.len());
    for m in members {
        match m.as_str().and_then(parse_hex_id) {
            Some(id) => ids.push(id),
            None => return error(400, "fleet members must be 16-hex-digit spanner ids"),
        }
    }
    match state.registry.register_fleet(&ids) {
        Err(e) => error(400, e),
        Ok((entry, cached)) => respond(
            200,
            Json::obj(vec![
                ("id", Json::str(hex_id(entry.id))),
                ("cached", Json::Bool(cached)),
                ("members", Json::num(entry.member_ids.len() as u32)),
                ("engine", Json::str(entry.engine.name())),
            ]),
        ),
    }
}

/// Renders one cached verdict as JSON fields.
fn verdict_json(v: &CachedVerdict) -> Json {
    match v {
        Ok(Verdict::Holds) => Json::obj(vec![("verdict", Json::str("holds"))]),
        Ok(Verdict::Fails(ce)) => Json::obj(vec![
            ("verdict", Json::str("fails")),
            (
                "counterexample",
                Json::str(String::from_utf8_lossy(&ce.doc).into_owned()),
            ),
            ("reason", Json::str(ce.reason.clone())),
        ]),
        Err(e) => Json::obj(vec![
            ("verdict", Json::str("error")),
            ("detail", Json::str(e.to_string())),
        ]),
    }
}

fn certify(state: &ServiceState, body: &Json) -> Response {
    if let Some(r) = validate_keys(body, &["spanner", "fleet", "splitter"]) {
        return r;
    }
    let splitter_id = match require_id(body, "splitter") {
        Ok(id) => id,
        Err(r) => return r,
    };
    let splitter = match state.registry.splitter(splitter_id) {
        Some(s) => s,
        None => return error(404, format!("unknown splitter {}", hex_id(splitter_id))),
    };
    match (body.get("spanner"), body.get("fleet")) {
        (Some(_), None) => {
            let spanner_id = match require_id(body, "spanner") {
                Ok(id) => id,
                Err(r) => return r,
            };
            let spanner = match state.registry.spanner(spanner_id) {
                Some(s) => s,
                None => return error(404, format!("unknown spanner {}", hex_id(spanner_id))),
            };
            let (verdict, cached) = state.registry.certify_spanner(&spanner, &splitter);
            let mut fields = vec![
                (
                    "holds".to_string(),
                    Json::Bool(matches!(&verdict, Ok(v) if v.holds())),
                ),
                ("cached".to_string(), Json::Bool(cached)),
            ];
            if let Json::Obj(pairs) = verdict_json(&verdict) {
                fields.extend(pairs);
            }
            respond(200, Json::Obj(fields))
        }
        (None, Some(_)) => {
            let fleet_id = match require_id(body, "fleet") {
                Ok(id) => id,
                Err(r) => return r,
            };
            let fleet = match state.registry.fleet(fleet_id) {
                Some(f) => f,
                None => return error(404, format!("unknown fleet {}", hex_id(fleet_id))),
            };
            let (verdicts, cached) = state.registry.certify_fleet(&fleet, &splitter);
            let holds = verdicts.iter().all(|v| matches!(v, Ok(x) if x.holds()));
            let members: Vec<Json> = fleet
                .member_ids
                .iter()
                .zip(&verdicts)
                .map(|(id, v)| {
                    let mut obj = vec![("spanner".to_string(), Json::str(hex_id(*id)))];
                    if let Json::Obj(pairs) = verdict_json(v) {
                        obj.extend(pairs);
                    }
                    Json::Obj(obj)
                })
                .collect();
            respond(
                200,
                Json::obj(vec![
                    ("holds", Json::Bool(holds)),
                    ("cached", Json::Bool(cached)),
                    ("members", Json::Arr(members)),
                ]),
            )
        }
        _ => error(400, "exactly one of \"spanner\" or \"fleet\" is required"),
    }
}

/// Renders a relation as an array of `{var: [start, end]}` tuples.
/// Deterministic: tuples are in the relation's canonical sorted order,
/// variables in [`VarTable`] order.
fn relation_json(relation: &SpanRelation, vars: &VarTable) -> Json {
    Json::Arr(
        relation
            .iter()
            .map(|tuple| {
                Json::Obj(
                    vars.names()
                        .iter()
                        .zip(tuple.spans())
                        .map(|(name, span)| {
                            (
                                name.clone(),
                                Json::Arr(vec![
                                    Json::num(span.start as u32),
                                    Json::num(span.end as u32),
                                ]),
                            )
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

/// Renders the process-wide segment cache counters (reported by
/// corpus-resource extractions, whose incrementality they witness).
fn seg_cache_json(cache: &SegmentCache) -> Json {
    let s = cache.stats();
    Json::obj(vec![
        ("hits", Json::Num(s.hits as f64)),
        ("misses", Json::Num(s.misses as f64)),
        ("evictions", Json::Num(s.evictions as f64)),
        ("entries", Json::num(cache.len() as u32)),
    ])
}

fn extract(state: &ServiceState, body: &Json) -> Response {
    if let Some(r) = validate_keys(
        body,
        &[
            "spanner",
            "fleet",
            "splitter",
            "docs",
            "corpus",
            "unchecked",
        ],
    ) {
        return r;
    }
    // Input source: inline "docs" or a maintained "corpus" resource.
    let corpus: Option<Arc<CorpusEntry>> = match (body.get("corpus"), body.get("docs")) {
        (Some(_), Some(_)) => return error(400, "pass either \"docs\" or \"corpus\", not both"),
        (Some(c), None) => match c.as_str() {
            Some(name) => match state.registry.corpus(name) {
                Some(entry) => Some(entry),
                None => return error(404, format!("unknown corpus {name:?}")),
            },
            None => return error(400, "\"corpus\" must be a string (resource name)"),
        },
        (None, _) => None,
    };
    // The splitter: explicit for inline docs; bound by the corpus for
    // resource extraction (an explicit one must then agree, since the
    // maintained segmentation was produced under it).
    let splitter_id = match &corpus {
        Some(entry) => {
            if body.get("splitter").is_some() {
                let id = match require_id(body, "splitter") {
                    Ok(id) => id,
                    Err(r) => return r,
                };
                if id != entry.splitter_id {
                    return error(
                        409,
                        format!(
                            "corpus {:?} is maintained under splitter {}, not {}",
                            entry.id,
                            hex_id(entry.splitter_id),
                            hex_id(id)
                        ),
                    );
                }
            }
            entry.splitter_id
        }
        None => match require_id(body, "splitter") {
            Ok(id) => id,
            Err(r) => return r,
        },
    };
    let splitter = match state.registry.splitter(splitter_id) {
        Some(s) => s,
        None => return error(404, format!("unknown splitter {}", hex_id(splitter_id))),
    };
    let docs: Vec<&str> = match (&corpus, body.get("docs").and_then(Json::as_arr)) {
        (Some(_), _) => Vec::new(),
        (None, Some(items)) => {
            let mut docs = Vec::with_capacity(items.len());
            for item in items {
                match item.as_str() {
                    Some(s) => docs.push(s),
                    None => return error(400, "\"docs\" must be an array of strings"),
                }
            }
            docs
        }
        (None, None) => return error(400, "missing field \"docs\" (or \"corpus\")"),
    };
    let doc_bytes: Vec<&[u8]> = docs.iter().map(|d| d.as_bytes()).collect();
    let unchecked = body
        .get("unchecked")
        .and_then(Json::as_bool)
        .unwrap_or(false);

    match (body.get("spanner"), body.get("fleet")) {
        (Some(_), None) => {
            let spanner_id = match require_id(body, "spanner") {
                Ok(id) => id,
                Err(r) => return r,
            };
            let spanner = match state.registry.spanner(spanner_id) {
                Some(s) => s,
                None => return error(404, format!("unknown spanner {}", hex_id(spanner_id))),
            };
            if !unchecked {
                let (verdict, _) = state.registry.certify_spanner(&spanner, &splitter);
                if !matches!(&verdict, Ok(v) if v.holds()) {
                    return not_split_correct(&verdict);
                }
            }
            let runner = state
                .runner_options(corpus.is_some())
                .corpus_runner(spanner.exec.clone(), splitter.compiled.clone());
            let result = match &corpus {
                // The entry mutex serializes extraction and mutation of
                // one corpus; the presplit segmentation is reused as-is.
                Some(entry) => entry.handle.lock().extract(&runner),
                None => runner.run_slices(&doc_bytes),
            };
            state.metrics.record_corpus(&result.stats);
            let vars = spanner.vsa.vars();
            let mut stats_pairs = vec![
                ("docs".to_string(), Json::num(result.stats.docs as u32)),
                (
                    "segments".to_string(),
                    Json::num(result.stats.segments as u32),
                ),
                (
                    "segment_bytes".to_string(),
                    Json::Num(result.stats.segment_bytes as f64),
                ),
                (
                    "batches".to_string(),
                    Json::num(result.stats.batches as u32),
                ),
            ];
            if corpus.is_some() {
                stats_pairs.push((
                    "docs_reused".to_string(),
                    Json::num(result.stats.docs_reused as u32),
                ));
                stats_pairs.push((
                    "segment_cache".to_string(),
                    seg_cache_json(&state.segment_cache),
                ));
            }
            respond(
                200,
                Json::Obj(vec![
                    (
                        "relations".to_string(),
                        Json::Arr(
                            result
                                .relations
                                .iter()
                                .map(|r| relation_json(r, vars))
                                .collect(),
                        ),
                    ),
                    ("stats".to_string(), Json::Obj(stats_pairs)),
                ]),
            )
        }
        (None, Some(_)) => {
            let fleet_id = match require_id(body, "fleet") {
                Ok(id) => id,
                Err(r) => return r,
            };
            let fleet = match state.registry.fleet(fleet_id) {
                Some(f) => f,
                None => return error(404, format!("unknown fleet {}", hex_id(fleet_id))),
            };
            if !unchecked {
                let (verdicts, _) = state.registry.certify_fleet(&fleet, &splitter);
                if let Some(bad) = verdicts.iter().find(|v| !matches!(v, Ok(x) if x.holds())) {
                    return not_split_correct(bad);
                }
            }
            let runner = state
                .runner_options(corpus.is_some())
                .fleet_runner(fleet.fleet.clone(), splitter.compiled.clone());
            let result = match &corpus {
                Some(entry) => entry.handle.lock().extract_fleet(&runner),
                None => runner.run_slices(&doc_bytes),
            };
            state.metrics.record_fleet(&result.stats);
            let mut stats_pairs = vec![
                ("docs".to_string(), Json::num(result.stats.docs as u32)),
                (
                    "segments".to_string(),
                    Json::num(result.stats.segments as u32),
                ),
                (
                    "segment_bytes".to_string(),
                    Json::Num(result.stats.segment_bytes as f64),
                ),
                (
                    "batches".to_string(),
                    Json::num(result.stats.batches as u32),
                ),
                (
                    "dispatches".to_string(),
                    Json::Num(result.stats.dispatches as f64),
                ),
                (
                    "gate_rejected".to_string(),
                    Json::Num(result.stats.gate_rejected as f64),
                ),
                (
                    "scan_rejected".to_string(),
                    Json::Num(result.stats.scan_rejected as f64),
                ),
            ];
            if corpus.is_some() {
                stats_pairs.push((
                    "docs_reused".to_string(),
                    Json::num(result.stats.docs_reused as u32),
                ));
                stats_pairs.push((
                    "segment_cache".to_string(),
                    seg_cache_json(&state.segment_cache),
                ));
            }
            respond(
                200,
                Json::Obj(vec![
                    (
                        "relations".to_string(),
                        Json::Arr(
                            result
                                .relations
                                .iter()
                                .map(|per_doc| {
                                    Json::Arr(
                                        per_doc
                                            .iter()
                                            .enumerate()
                                            .map(|(m, r)| relation_json(r, fleet.vsas[m].vars()))
                                            .collect(),
                                    )
                                })
                                .collect(),
                        ),
                    ),
                    ("stats".to_string(), Json::Obj(stats_pairs)),
                ]),
            )
        }
        _ => error(400, "exactly one of \"spanner\" or \"fleet\" is required"),
    }
}

/// Renders a corpus summary (the non-`"v"` part shared by the corpus
/// endpoints' responses).
fn corpus_summary(entry: &CorpusEntry, handle: &CorpusHandle) -> Vec<(String, Json)> {
    vec![
        ("id".to_string(), Json::str(entry.id.clone())),
        ("splitter".to_string(), Json::str(hex_id(entry.splitter_id))),
        ("shards".to_string(), Json::num(handle.num_shards() as u32)),
        (
            "segments".to_string(),
            Json::num(handle.total_segments() as u32),
        ),
        ("bytes".to_string(), Json::Num(handle.total_bytes() as f64)),
    ]
}

/// `PUT /corpus/{id}`: creates or wholesale-replaces a maintained
/// corpus resource, splitting each shard once under the given splitter.
fn corpus_put(state: &ServiceState, id: &str, body: &Json) -> Response {
    if let Some(r) = validate_keys(body, &["splitter", "shards"]) {
        return r;
    }
    let splitter_id = match require_id(body, "splitter") {
        Ok(id) => id,
        Err(r) => return r,
    };
    let splitter = match state.registry.splitter(splitter_id) {
        Some(s) => s,
        None => return error(404, format!("unknown splitter {}", hex_id(splitter_id))),
    };
    let shards: Vec<Vec<u8>> = match body.get("shards").and_then(Json::as_arr) {
        Some(items) => {
            let mut shards = Vec::with_capacity(items.len());
            for item in items {
                match item.as_str() {
                    Some(s) => shards.push(s.as_bytes().to_vec()),
                    None => return error(400, "\"shards\" must be an array of strings"),
                }
            }
            shards
        }
        None => return error(400, "missing array field \"shards\""),
    };
    let handle = CorpusHandle::from_shards(splitter.compiled.clone(), shards);
    let (entry, replaced) = state.registry.put_corpus(id, splitter_id, handle);
    let guard = entry.handle.lock();
    let mut fields = corpus_summary(&entry, &guard);
    fields.push(("replaced".to_string(), Json::Bool(replaced)));
    respond(200, Json::Obj(fields))
}

/// Renders the [`DeltaStats`] of one delta application.
fn delta_json(stats: &DeltaStats) -> Json {
    Json::obj(vec![
        ("window_start", Json::Num(stats.window_start as f64)),
        ("window_end", Json::Num(stats.window_end as f64)),
        ("resplit_bytes", Json::Num(stats.resplit_bytes as f64)),
        ("converged", Json::Bool(stats.converged)),
        (
            "segments_reused_prefix",
            Json::num(stats.segments_reused_prefix as u32),
        ),
        (
            "segments_reused_suffix",
            Json::num(stats.segments_reused_suffix as u32),
        ),
        ("segments_resplit", Json::num(stats.segments_resplit as u32)),
    ])
}

/// `POST /corpus/{id}/delta`: applies one edit operation — a point
/// `edit` (replace `start..end` of a shard with `text`), an `append`,
/// or a `replace_shard` — resplitting only the dirty window between the
/// quiescent frontiers (see [`CorpusHandle::edit`]).
fn corpus_delta(state: &ServiceState, id: &str, body: &Json) -> Response {
    if let Some(r) = validate_keys(body, &["op", "shard", "start", "end", "text"]) {
        return r;
    }
    let entry = match state.registry.corpus(id) {
        Some(e) => e,
        None => return error(404, format!("unknown corpus {id:?}")),
    };
    let op = match require_str(body, "op") {
        Ok(o) => o,
        Err(r) => return r,
    };
    let shard = match body.get("shard").and_then(Json::as_u64) {
        Some(s) => s as usize,
        None => return error(400, "missing integer field \"shard\""),
    };
    let text = match require_str(body, "text") {
        Ok(t) => t,
        Err(r) => return r,
    };
    let mut handle = entry.handle.lock();
    if shard >= handle.num_shards() {
        return error(
            404,
            format!(
                "corpus {id:?} has {} shards, no shard {shard}",
                handle.num_shards()
            ),
        );
    }
    let stats = match op {
        "edit" => {
            let (start, end) = match (
                body.get("start").and_then(Json::as_u64),
                body.get("end").and_then(Json::as_u64),
            ) {
                (Some(s), Some(e)) => (s as usize, e as usize),
                _ => return error(400, "\"edit\" needs integer fields \"start\" and \"end\""),
            };
            let len = handle.shard_bytes(shard).len();
            if start > end || end > len {
                return error(
                    400,
                    format!("edit range {start}..{end} out of bounds (shard len {len})"),
                );
            }
            handle.edit(shard, start..end, text.as_bytes())
        }
        "append" => handle.append(shard, text.as_bytes()),
        "replace_shard" => handle.replace_shard(shard, text.as_bytes().to_vec()),
        other => {
            return error(
                400,
                format!("unknown op {other:?} (expected edit|append|replace_shard)"),
            )
        }
    };
    let mut fields = corpus_summary(&entry, &handle);
    fields.push(("op".to_string(), Json::str(op)));
    fields.push(("delta".to_string(), delta_json(&stats)));
    respond(200, Json::Obj(fields))
}

/// `GET /corpus/{id}`: the corpus summary plus per-shard sizes.
fn corpus_get(state: &ServiceState, id: &str) -> Response {
    let entry = match state.registry.corpus(id) {
        Some(e) => e,
        None => return error(404, format!("unknown corpus {id:?}")),
    };
    let handle = entry.handle.lock();
    let mut fields = corpus_summary(&entry, &handle);
    fields.push((
        "shard_sizes".to_string(),
        Json::Arr(
            (0..handle.num_shards())
                .map(|s| {
                    Json::obj(vec![
                        ("bytes", Json::Num(handle.shard_bytes(s).len() as f64)),
                        ("segments", Json::num(handle.segments(s).len() as u32)),
                    ])
                })
                .collect(),
        ),
    ));
    respond(200, Json::Obj(fields))
}

/// `DELETE /corpus/{id}`: drops the resource (its cached segment
/// relations age out of the bounded segment cache naturally).
fn corpus_delete(state: &ServiceState, id: &str) -> Response {
    if state.registry.remove_corpus(id) {
        respond(
            200,
            Json::obj(vec![("id", Json::str(id)), ("deleted", Json::Bool(true))]),
        )
    } else {
        error(404, format!("unknown corpus {id:?}"))
    }
}

/// Runs one extraction completely offline — no server, no shared pool,
/// per-run spawned worker threads — and renders the relations with the
/// *same* JSON encoding as `/extract`. This is the differential
/// reference for the end-to-end harness (`scripts/server_smoke.sh`
/// compares server output byte-for-byte against this).
///
/// Request shape: `{"pattern": ...}` (spanner) or `{"patterns": [...]}`
/// (fleet), plus `"engine"?`, `"splitter"` or `"splitter_builtin"`, and
/// `"docs"`.
pub fn offline_extract(body: &Json) -> Result<Json, String> {
    let spec = match (
        body.get("splitter").and_then(Json::as_str),
        body.get("splitter_builtin").and_then(Json::as_str),
    ) {
        (Some(p), None) => SplitterSpec::Pattern(p.to_string()),
        (None, Some(b)) => SplitterSpec::Builtin(b.to_string()),
        _ => return Err("exactly one of \"splitter\" or \"splitter_builtin\" is required".into()),
    };
    let registry = Registry::new();
    let (splitter, _) = registry.register_splitter(&spec)?;
    let engine = match body.get("engine").and_then(Json::as_str) {
        None => Engine::default(),
        Some(name) => name.parse::<Engine>()?,
    };
    let docs: Vec<Vec<u8>> = body
        .get("docs")
        .and_then(Json::as_arr)
        .ok_or("missing array field \"docs\"")?
        .iter()
        .map(|d| {
            d.as_str()
                .map(|s| s.as_bytes().to_vec())
                .ok_or_else(|| "\"docs\" must be an array of strings".to_string())
        })
        .collect::<Result<_, _>>()?;
    let doc_slices: Vec<&[u8]> = docs.iter().map(|d| d.as_slice()).collect();

    match (body.get("pattern"), body.get("patterns")) {
        (Some(_), None) => {
            let pattern = body
                .get("pattern")
                .and_then(Json::as_str)
                .ok_or("\"pattern\" must be a string")?;
            let (spanner, _) = registry.register_spanner(pattern, engine)?;
            let runner =
                RunnerOptions::new().corpus_runner(spanner.exec.clone(), splitter.compiled.clone());
            let result = runner.run_slices(&doc_slices);
            Ok(Json::obj(vec![(
                "relations",
                Json::Arr(
                    result
                        .relations
                        .iter()
                        .map(|r| relation_json(r, spanner.vsa.vars()))
                        .collect(),
                ),
            )]))
        }
        (None, Some(_)) => {
            let patterns = body
                .get("patterns")
                .and_then(Json::as_arr)
                .ok_or("\"patterns\" must be an array")?;
            let mut ids = Vec::with_capacity(patterns.len());
            for p in patterns {
                let p = p
                    .as_str()
                    .ok_or("\"patterns\" must be an array of strings")?;
                let (entry, _) = registry.register_spanner(p, engine)?;
                ids.push(entry.id);
            }
            let (fleet, _) = registry.register_fleet(&ids)?;
            let runner =
                RunnerOptions::new().fleet_runner(fleet.fleet.clone(), splitter.compiled.clone());
            let result = runner.run_slices(&doc_slices);
            Ok(Json::obj(vec![(
                "relations",
                Json::Arr(
                    result
                        .relations
                        .iter()
                        .map(|per_doc| {
                            Json::Arr(
                                per_doc
                                    .iter()
                                    .enumerate()
                                    .map(|(m, r)| relation_json(r, fleet.vsas[m].vars()))
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            )]))
        }
        _ => Err("exactly one of \"pattern\" or \"patterns\" is required".into()),
    }
}

fn not_split_correct(verdict: &CachedVerdict) -> Response {
    let detail = match verdict {
        Ok(Verdict::Fails(ce)) => format!("not self-split-correct: {}", ce.reason),
        Ok(Verdict::Holds) => unreachable!("only called on failures"),
        Err(e) => format!("certification failed: {e}"),
    };
    respond(
        409,
        Json::obj(vec![
            ("error", Json::str(detail)),
            (
                "hint",
                Json::str("pass \"unchecked\": true to extract anyway (changes semantics)"),
            ),
        ]),
    )
}

fn stats(state: &ServiceState) -> Response {
    let (spanners, splitters, fleets) = state.registry.counts();
    let corpora = state.registry.corpus_count();
    let compile = state.registry.compile_stats();
    let cert = state.registry.cert_stats();
    let pool = state.pool.stats();
    let antichain = splitc_automata::cumulative_stats();
    // Per-entry engine/tier listing: the tier differs from the engine
    // exactly when an `aot` request fell back to the lazy dense tier.
    let entries = Json::Arr(
        state
            .registry
            .spanner_entries()
            .iter()
            .map(|e| {
                Json::obj(vec![
                    ("id", Json::str(hex_id(e.id))),
                    ("engine", Json::str(e.engine.name())),
                    ("tier", Json::str(e.exec.tier().name())),
                ])
            })
            .collect(),
    );
    let mut doc = vec![
        (
            "registry".to_string(),
            Json::obj(vec![
                ("spanners", Json::num(spanners as u32)),
                ("splitters", Json::num(splitters as u32)),
                ("fleets", Json::num(fleets as u32)),
                ("corpora", Json::num(corpora as u32)),
                ("entries", entries),
                (
                    "compile_cache",
                    Json::obj(vec![
                        ("hits", Json::Num(compile.hits as f64)),
                        ("misses", Json::Num(compile.misses as f64)),
                    ]),
                ),
                (
                    "cert_cache",
                    Json::obj(vec![
                        ("hits", Json::Num(cert.hits as f64)),
                        ("misses", Json::Num(cert.misses as f64)),
                        ("entries", Json::num(cert.entries as u32)),
                    ]),
                ),
            ]),
        ),
        (
            "pool".to_string(),
            Json::obj(vec![
                ("workers", Json::num(state.pool.workers() as u32)),
                ("submitted", Json::Num(pool.submitted as f64)),
                ("completed", Json::Num(pool.completed as f64)),
                ("panicked", Json::Num(pool.panicked as f64)),
            ]),
        ),
        (
            "antichain".to_string(),
            Json::obj(vec![
                ("runs", Json::Num(antichain.runs as f64)),
                ("explored", Json::Num(antichain.explored as f64)),
                ("pruned", Json::Num(antichain.pruned as f64)),
                ("subsets", Json::Num(antichain.subsets as f64)),
            ]),
        ),
    ];
    if let Json::Obj(pairs) = state.metrics.to_json() {
        doc.extend(pairs);
    }
    doc.push((
        "segment_cache".to_string(),
        seg_cache_json(&state.segment_cache),
    ));
    respond(200, Json::Obj(doc))
}
