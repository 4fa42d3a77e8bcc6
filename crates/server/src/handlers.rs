//! Endpoint logic: JSON request → `Body` → `Target` → JSON response.
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
//! Each body is decoded once into a `Body`, validated against the
//! route's field list: an unknown field — or a `"v"` other than `1` — is
//! a typed `400` naming the offending key, so a client typo
//! (`"unckecked"`) fails loudly instead of being silently ignored. The
//! typed getters reject a known field of the wrong type the same way
//! (`"engine": 3` is a `400`, not the default engine).
//!
//! `/certify` and `/extract` then run `Body → Target::{lookup, certify,
//! extract}`: a `Target` is a registered spanner or fleet; `lookup`
//! takes exactly one of `"spanner"`/`"fleet"`, `certify` returns
//! per-member verdicts, and `extract` runs inline docs or a corpus
//! resource and renders the relations plus wire stats.
//! [`offline_extract`] decodes its own request shape into the same
//! `Target` and runs the same `extract`.
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
use crate::registry::{
    hex_id, parse_hex_id, valid_corpus_id, CorpusEntry, FleetEntry, Registry, SpannerEntry,
    SplitterEntry, SplitterSpec,
};

use splitc_core::cache::CachedVerdict;
use splitc_core::Verdict;
use splitc_exec::{
    CorpusHandle, DeltaStats, Engine, EvalPool, RunStats, RunnerOptions, SegmentCache,
};
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

    /// The runner options every `/extract` uses: the shared pool, its
    /// width, the configured batch size, and default queueing.
    fn runner(&self) -> RunnerOptions {
        RunnerOptions::new()
            .workers(self.config.workers)
            .batch_bytes(self.config.batch_bytes)
            .pool(self.pool.clone())
    }

    /// A registered splitter, or the `404` naming it.
    fn splitter(&self, id: u64) -> Result<Arc<SplitterEntry>, Response> {
        self.registry
            .splitter(id)
            .ok_or_else(|| error(404, format!("unknown splitter {}", hex_id(id))))
    }

    /// A corpus resource, or the `404` naming it.
    fn corpus(&self, id: &str) -> Result<Arc<CorpusEntry>, Response> {
        self.registry
            .corpus(id)
            .ok_or_else(|| error(404, format!("unknown corpus {id:?}")))
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
    let result = match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/spanners") => {
            with_body(req, &["pattern", "engine"], |b| register_spanner(state, b))
        }
        ("POST", "/splitters") => with_body(req, &["pattern", "builtin"], |b| {
            register_splitter(state, b)
        }),
        ("POST", "/fleets") => with_body(req, &["members"], |b| register_fleet(state, b)),
        ("POST", "/certify") => with_body(req, &["spanner", "fleet", "splitter"], |b| {
            certify(state, b)
        }),
        ("POST", "/extract") => with_body(
            req,
            &[
                "spanner",
                "fleet",
                "splitter",
                "docs",
                "corpus",
                "unchecked",
            ],
            |b| extract(state, b),
        ),
        ("GET", "/stats") => Ok(stats(state)),
        ("GET", "/healthz") => Ok(respond(200, Json::obj(vec![("ok", Json::Bool(true))]))),
        ("POST" | "GET", _) => Err(error(404, format!("no route {} {}", req.method, req.path))),
        _ => Err(error(405, format!("method {} not supported", req.method))),
    };
    result.unwrap_or_else(|r| r)
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
    let result = match (req.method.as_str(), sub) {
        ("PUT", None) => with_body(req, &["splitter", "shards"], |b| corpus_put(state, id, b)),
        ("POST", Some("delta")) => with_body(req, &["op", "shard", "start", "end", "text"], |b| {
            corpus_delta(state, id, b)
        }),
        ("GET", None) => corpus_get(state, id),
        ("DELETE", None) => corpus_delete(state, id),
        _ => Err(error(404, format!("no route {} {}", req.method, req.path))),
    };
    result.unwrap_or_else(|r| r)
}

/// Wraps a response body with the protocol version: every object
/// response leads with `"v": 1`.
fn respond(status: u16, body: Json) -> Response {
    let body = match body {
        Json::Obj(mut pairs) => {
            pairs.insert(0, ("v".to_string(), uint(PROTOCOL_VERSION)));
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

/// A bare message is a client error: the request-body getters, registry
/// compilation and engine names all fail with one, and `?` turns it
/// into the route's `400`.
impl From<String> for Response {
    fn from(message: String) -> Response {
        error(400, message)
    }
}

/// Renders a count or byte offset. Exact below 2^53 (every offset a
/// corpus can reach); never truncated to 32 bits.
fn uint(n: u64) -> Json {
    Json::Num(n as f64)
}

/// Decodes a request body once — UTF-8, JSON, the route's field list —
/// and hands the validated view to `f`.
fn with_body(
    req: &Request,
    allowed: &[&str],
    f: impl FnOnce(&Body) -> Result<Response, Response>,
) -> Result<Response, Response> {
    let text = std::str::from_utf8(&req.body).map_err(|_| error(400, "body is not valid UTF-8"))?;
    let json = Json::parse(text).map_err(|e| error(400, format!("invalid JSON body: {e}")))?;
    f(&Body::new(&json, allowed)?)
}

/// A request body validated against its route's field contract: a JSON
/// object whose optional `"v"` equals [`PROTOCOL_VERSION`] and whose
/// other keys are all in the route's list. The typed getters fail with
/// the message of the route's `400`; a field present with the wrong
/// type is an error, never read as absent.
struct Body<'a>(&'a Json);

impl<'a> Body<'a> {
    fn new(json: &'a Json, allowed: &[&str]) -> Result<Body<'a>, String> {
        let pairs = json.as_obj().ok_or("request body must be a JSON object")?;
        if let Some(v) = json
            .get("v")
            .filter(|v| v.as_u64() != Some(PROTOCOL_VERSION))
        {
            return Err(format!(
                "unsupported protocol version {v} (this server speaks \"v\": 1)"
            ));
        }
        for (key, _) in pairs {
            if key != "v" && !allowed.contains(&key.as_str()) {
                return Err(format!(
                    "unknown field {key:?} (allowed: v, {})",
                    allowed.join(", ")
                ));
            }
        }
        Ok(Body(json))
    }

    fn get(&self, key: &str) -> Option<&'a Json> {
        self.0.get(key)
    }

    fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// An optional field; present with a type `cast` refuses is an error
    /// saying what it must be.
    fn opt<T>(
        &self,
        key: &str,
        cast: fn(&'a Json) -> Option<T>,
        want: &str,
    ) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| cast(v).ok_or_else(|| format!("{key:?} must be {want}")))
            .transpose()
    }

    fn str(&self, key: &str) -> Result<&'a str, String> {
        self.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing string field {key:?}"))
    }

    fn usize(&self, key: &str) -> Result<usize, String> {
        self.get(key)
            .and_then(Json::as_u64)
            .map(|n| n as usize)
            .ok_or_else(|| format!("missing integer field {key:?}"))
    }

    fn id(&self, key: &str) -> Result<u64, String> {
        parse_hex_id(self.str(key)?).ok_or_else(|| format!("{key:?} is not a 16-hex-digit id"))
    }

    fn arr(&self, key: &str) -> Result<&'a [Json], String> {
        self.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("missing array field {key:?}"))
    }

    fn strs(&self, key: &str) -> Result<Vec<&'a str>, String> {
        self.arr(key)?
            .iter()
            .map(|item| {
                item.as_str()
                    .ok_or_else(|| format!("{key:?} must be an array of strings"))
            })
            .collect()
    }

    /// Which of two mutually exclusive keys the body carries.
    fn one_of<'k>(&self, a: &'k str, b: &'k str) -> Result<&'k str, String> {
        match (self.has(a), self.has(b)) {
            (true, false) => Ok(a),
            (false, true) => Ok(b),
            _ => Err(exactly_one(a, b)),
        }
    }

    /// A splitter given as a pattern under `pattern` or a built-in name
    /// under `builtin` (a non-string value fails like a missing one).
    fn splitter_spec(&self, pattern: &str, builtin: &str) -> Result<SplitterSpec, String> {
        let key = self.one_of(pattern, builtin)?;
        let text = self
            .get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| exactly_one(pattern, builtin))?
            .to_string();
        Ok(if key == pattern {
            SplitterSpec::Pattern(text)
        } else {
            SplitterSpec::Builtin(text)
        })
    }

    /// The `"engine"` field, defaulting when absent.
    fn engine(&self) -> Result<Engine, String> {
        match self.opt("engine", Json::as_str, "a string")? {
            None => Ok(Engine::default()),
            Some(name) => name.parse(),
        }
    }
}

fn exactly_one(a: &str, b: &str) -> String {
    format!("exactly one of {a:?} or {b:?} is required")
}

fn register_spanner(state: &ServiceState, body: &Body) -> Result<Response, Response> {
    let pattern = body.str("pattern")?;
    let (entry, cached) = state.registry.register_spanner(pattern, body.engine()?)?;
    Ok(respond(
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
                Json::Arr(entry.vsa.vars().names().iter().map(Json::str).collect()),
            ),
        ]),
    ))
}

fn register_splitter(state: &ServiceState, body: &Body) -> Result<Response, Response> {
    let spec = body.splitter_spec("pattern", "builtin")?;
    let (entry, cached) = state.registry.register_splitter(&spec)?;
    Ok(respond(
        200,
        Json::obj(vec![
            ("id", Json::str(hex_id(entry.id))),
            ("cached", Json::Bool(cached)),
            ("disjoint", Json::Bool(entry.splitter.is_disjoint())),
        ]),
    ))
}

fn register_fleet(state: &ServiceState, body: &Body) -> Result<Response, Response> {
    let ids = body
        .arr("members")?
        .iter()
        .map(|m| m.as_str().and_then(parse_hex_id))
        .collect::<Option<Vec<u64>>>()
        .ok_or("fleet members must be 16-hex-digit spanner ids".to_string())?;
    let (entry, cached) = state.registry.register_fleet(&ids)?;
    Ok(respond(
        200,
        Json::obj(vec![
            ("id", Json::str(hex_id(entry.id))),
            ("cached", Json::Bool(cached)),
            ("members", uint(entry.member_ids.len() as u64)),
            ("engine", Json::str(entry.engine.name())),
        ]),
    ))
}

/// Whether a cached verdict certifies the pair.
fn holds(verdict: &CachedVerdict) -> bool {
    matches!(verdict, Ok(v) if v.holds())
}

/// Renders one cached verdict as JSON fields.
fn verdict_fields(v: &CachedVerdict) -> Vec<(&'static str, Json)> {
    match v {
        Ok(Verdict::Holds) => vec![("verdict", Json::str("holds"))],
        Ok(Verdict::Fails(ce)) => vec![
            ("verdict", Json::str("fails")),
            (
                "counterexample",
                Json::str(String::from_utf8_lossy(&ce.doc).into_owned()),
            ),
            ("reason", Json::str(ce.reason.clone())),
        ],
        Err(e) => vec![
            ("verdict", Json::str("error")),
            ("detail", Json::str(e.to_string())),
        ],
    }
}

/// What `/certify` and `/extract` run: one registered spanner, or a
/// fleet of them evaluated in one fused pass. A spanner stays a
/// [`splitc_exec::CorpusRunner`] run — a one-member fleet would add the
/// fleet's gates and change the stats.
enum Target {
    Spanner(Arc<SpannerEntry>),
    Fleet(Arc<FleetEntry>),
}

/// The documents an extraction reads.
enum Input<'a> {
    /// Inline documents, split on the fly.
    Docs(Vec<&'a [u8]>),
    /// A maintained corpus resource, re-queried through its presplit
    /// segmentation with the segment cache attached.
    Corpus(&'a CorpusEntry, &'a Arc<SegmentCache>),
}

impl Target {
    /// Resolves exactly one of `"spanner"` / `"fleet"` in the registry.
    fn lookup(registry: &Registry, body: &Body) -> Result<Target, Response> {
        let key = body.one_of("spanner", "fleet")?;
        let id = body.id(key)?;
        let found = match key {
            "spanner" => registry.spanner(id).map(Target::Spanner),
            _ => registry.fleet(id).map(Target::Fleet),
        };
        found.ok_or_else(|| error(404, format!("unknown {key} {}", hex_id(id))))
    }

    /// Certifies every member against `splitter` through the cache:
    /// per-member verdicts (one for a spanner), and whether all were
    /// cached.
    fn certify(&self, registry: &Registry, splitter: &SplitterEntry) -> (Vec<CachedVerdict>, bool) {
        match self {
            Target::Spanner(s) => {
                let (verdict, cached) = registry.certify_spanner(s, splitter);
                (vec![verdict], cached)
            }
            Target::Fleet(f) => registry.certify_fleet(f, splitter),
        }
    }

    /// Runs the target over `input` with `runner`'s pool and tuning, and
    /// renders the relations and the wire stats. `metrics`, when given,
    /// folds the run into the service totals.
    fn extract(
        &self,
        splitter: &SplitterEntry,
        input: &Input,
        runner: RunnerOptions,
        metrics: Option<&Metrics>,
    ) -> (Json, Json) {
        let runner = match input {
            Input::Corpus(_, cache) => runner.segment_cache(Arc::clone(cache)),
            Input::Docs(_) => runner,
        };
        let splitter = splitter.compiled.clone();
        let (relations, st): (Vec<Json>, RunStats) = match self {
            Target::Spanner(s) => {
                let runner = runner.corpus_runner(s.exec.clone(), splitter);
                let result = match input {
                    Input::Docs(docs) => runner.run_slices(docs),
                    // The entry mutex serializes extraction and mutation
                    // of one corpus; the presplit segmentation is reused.
                    Input::Corpus(entry, _) => entry.handle.lock().extract(&runner),
                };
                let vars = s.vsa.vars();
                let relations = result.relations.iter().map(|r| relation_json(r, vars));
                (relations.collect(), result.stats)
            }
            Target::Fleet(f) => {
                let runner = runner.fleet_runner(f.fleet.clone(), splitter);
                let result = match input {
                    Input::Docs(docs) => runner.run_slices(docs),
                    Input::Corpus(entry, _) => entry.handle.lock().extract_fleet(&runner),
                };
                let relations = result.relations.iter().map(|row| {
                    Json::Arr(
                        row.iter()
                            .zip(&f.vsas)
                            .map(|(r, vsa)| relation_json(r, vsa.vars()))
                            .collect(),
                    )
                });
                (relations.collect(), result.stats)
            }
        };
        let fleet = matches!(self, Target::Fleet(_));
        if let Some(m) = metrics {
            m.record(fleet, &st);
        }
        let mut counts = vec![
            ("docs", st.docs as u64),
            ("segments", st.segments as u64),
            ("segment_bytes", st.segment_bytes),
            ("batches", st.batches as u64),
        ];
        if fleet {
            counts.extend([
                ("dispatches", st.dispatches),
                ("gate_rejected", st.gate_rejected),
                ("scan_rejected", st.scan_rejected),
            ]);
        }
        let mut stats: Vec<(&str, Json)> = counts.into_iter().map(|(k, n)| (k, uint(n))).collect();
        if let Input::Corpus(_, cache) = input {
            stats.push(("docs_reused", uint(st.docs_reused as u64)));
            stats.push(("segment_cache", seg_cache_json(cache)));
        }
        (Json::Arr(relations), Json::obj(stats))
    }
}

fn certify(state: &ServiceState, body: &Body) -> Result<Response, Response> {
    let splitter = state.splitter(body.id("splitter")?)?;
    let target = Target::lookup(&state.registry, body)?;
    let (verdicts, cached) = target.certify(&state.registry, &splitter);
    let mut fields = vec![
        ("holds", Json::Bool(verdicts.iter().all(holds))),
        ("cached", Json::Bool(cached)),
    ];
    match &target {
        Target::Spanner(_) => fields.extend(verdict_fields(&verdicts[0])),
        Target::Fleet(fleet) => {
            let members = fleet
                .member_ids
                .iter()
                .zip(&verdicts)
                .map(|(id, v)| {
                    let mut obj = vec![("spanner", Json::str(hex_id(*id)))];
                    obj.extend(verdict_fields(v));
                    Json::obj(obj)
                })
                .collect();
            fields.push(("members", Json::Arr(members)));
        }
    }
    Ok(respond(200, Json::obj(fields)))
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
                                Json::Arr(vec![uint(span.start as u64), uint(span.end as u64)]),
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
        ("hits", uint(s.hits)),
        ("misses", uint(s.misses)),
        ("evictions", uint(s.evictions)),
        ("entries", uint(cache.len() as u64)),
    ])
}

fn extract(state: &ServiceState, body: &Body) -> Result<Response, Response> {
    if body.has("corpus") && body.has("docs") {
        return Err(error(400, "pass either \"docs\" or \"corpus\", not both"));
    }
    // Input source: inline "docs" or a maintained "corpus" resource.
    let corpus = match body.opt("corpus", Json::as_str, "a string (resource name)")? {
        Some(name) => Some(state.corpus(name)?),
        None => None,
    };
    // The splitter: explicit for inline docs; bound by the corpus for
    // resource extraction (an explicit one must then agree, since the
    // maintained segmentation was produced under it).
    let splitter_id = match &corpus {
        Some(entry) => {
            if body.has("splitter") {
                let id = body.id("splitter")?;
                if id != entry.splitter_id {
                    return Err(error(
                        409,
                        format!(
                            "corpus {:?} is maintained under splitter {}, not {}",
                            entry.id,
                            hex_id(entry.splitter_id),
                            hex_id(id)
                        ),
                    ));
                }
            }
            entry.splitter_id
        }
        None => body.id("splitter")?,
    };
    let splitter = state.splitter(splitter_id)?;
    let input = match &corpus {
        Some(entry) => Input::Corpus(entry, &state.segment_cache),
        None if body.get("docs").and_then(Json::as_arr).is_none() => {
            return Err(error(400, "missing field \"docs\" (or \"corpus\")"))
        }
        None => Input::Docs(body.strs("docs")?.iter().map(|d| d.as_bytes()).collect()),
    };
    let unchecked = body.opt("unchecked", Json::as_bool, "a boolean")?;
    let target = Target::lookup(&state.registry, body)?;
    if unchecked != Some(true) {
        let (verdicts, _) = target.certify(&state.registry, &splitter);
        if let Some(bad) = verdicts.iter().find(|v| !holds(v)) {
            return Err(not_split_correct(bad));
        }
    }
    let (relations, stats) =
        target.extract(&splitter, &input, state.runner(), Some(&state.metrics));
    Ok(respond(
        200,
        Json::obj(vec![("relations", relations), ("stats", stats)]),
    ))
}

/// Renders a corpus summary (the non-`"v"` part shared by the corpus
/// endpoints' responses).
fn corpus_summary(entry: &CorpusEntry, handle: &CorpusHandle) -> Vec<(&'static str, Json)> {
    vec![
        ("id", Json::str(entry.id.clone())),
        ("splitter", Json::str(hex_id(entry.splitter_id))),
        ("shards", uint(handle.num_shards() as u64)),
        ("segments", uint(handle.total_segments() as u64)),
        ("bytes", uint(handle.total_bytes())),
    ]
}

/// `PUT /corpus/{id}`: creates or wholesale-replaces a maintained
/// corpus resource, splitting each shard once under the given splitter.
fn corpus_put(state: &ServiceState, id: &str, body: &Body) -> Result<Response, Response> {
    let splitter = state.splitter(body.id("splitter")?)?;
    let shards: Vec<Vec<u8>> = body
        .strs("shards")?
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect();
    let handle = CorpusHandle::from_shards(splitter.compiled.clone(), shards);
    let (entry, replaced) = state.registry.put_corpus(id, splitter.id, handle);
    let guard = entry.handle.lock();
    let mut fields = corpus_summary(&entry, &guard);
    fields.push(("replaced", Json::Bool(replaced)));
    Ok(respond(200, Json::obj(fields)))
}

/// Renders the [`DeltaStats`] of one delta application.
fn delta_json(stats: &DeltaStats) -> Json {
    Json::obj(vec![
        ("window_start", uint(stats.window_start as u64)),
        ("window_end", uint(stats.window_end as u64)),
        ("resplit_bytes", uint(stats.resplit_bytes as u64)),
        ("converged", Json::Bool(stats.converged)),
        (
            "segments_reused_prefix",
            uint(stats.segments_reused_prefix as u64),
        ),
        (
            "segments_reused_suffix",
            uint(stats.segments_reused_suffix as u64),
        ),
        ("segments_resplit", uint(stats.segments_resplit as u64)),
    ])
}

/// `POST /corpus/{id}/delta`: applies one edit operation — a point
/// `edit` (replace `start..end` of a shard with `text`), an `append`,
/// or a `replace_shard` — resplitting only the dirty window between the
/// quiescent frontiers (see [`CorpusHandle::edit`]).
fn corpus_delta(state: &ServiceState, id: &str, body: &Body) -> Result<Response, Response> {
    let entry = state.corpus(id)?;
    let op = body.str("op")?;
    let shard = body.usize("shard")?;
    let text = body.str("text")?;
    let mut handle = entry.handle.lock();
    if shard >= handle.num_shards() {
        return Err(error(
            404,
            format!(
                "corpus {id:?} has {} shards, no shard {shard}",
                handle.num_shards()
            ),
        ));
    }
    let stats = match op {
        "edit" => {
            let (Ok(start), Ok(end)) = (body.usize("start"), body.usize("end")) else {
                return Err(error(
                    400,
                    "\"edit\" needs integer fields \"start\" and \"end\"",
                ));
            };
            let len = handle.shard_bytes(shard).len();
            if start > end || end > len {
                return Err(error(
                    400,
                    format!("edit range {start}..{end} out of bounds (shard len {len})"),
                ));
            }
            handle.edit(shard, start..end, text.as_bytes())
        }
        "append" => handle.append(shard, text.as_bytes()),
        "replace_shard" => handle.replace_shard(shard, text.as_bytes().to_vec()),
        other => {
            return Err(error(
                400,
                format!("unknown op {other:?} (expected edit|append|replace_shard)"),
            ))
        }
    };
    let mut fields = corpus_summary(&entry, &handle);
    fields.push(("op", Json::str(op)));
    fields.push(("delta", delta_json(&stats)));
    Ok(respond(200, Json::obj(fields)))
}

/// `GET /corpus/{id}`: the corpus summary plus per-shard sizes.
fn corpus_get(state: &ServiceState, id: &str) -> Result<Response, Response> {
    let entry = state.corpus(id)?;
    let handle = entry.handle.lock();
    let mut fields = corpus_summary(&entry, &handle);
    fields.push((
        "shard_sizes",
        Json::Arr(
            (0..handle.num_shards())
                .map(|s| {
                    Json::obj(vec![
                        ("bytes", uint(handle.shard_bytes(s).len() as u64)),
                        ("segments", uint(handle.segments(s).len() as u64)),
                    ])
                })
                .collect(),
        ),
    ));
    Ok(respond(200, Json::obj(fields)))
}

/// `DELETE /corpus/{id}`: drops the resource (its cached segment
/// relations age out of the bounded segment cache naturally).
fn corpus_delete(state: &ServiceState, id: &str) -> Result<Response, Response> {
    if !state.registry.remove_corpus(id) {
        return Err(error(404, format!("unknown corpus {id:?}")));
    }
    Ok(respond(
        200,
        Json::obj(vec![("id", Json::str(id)), ("deleted", Json::Bool(true))]),
    ))
}

/// Runs one extraction completely offline and renders the relations
/// with the *same* encoder as `/extract` — the differential reference
/// for the end-to-end harness (`scripts/server_smoke.sh` compares
/// server output byte-for-byte against this). It shares the request
/// decoding, `Target::extract` and the relation encoder with the
/// server; it runs with a fresh [`Registry`], no certification, the
/// default runner config, per-run spawned workers and no segment cache.
///
/// Request shape: `{"pattern": ...}` (spanner) or `{"patterns": [...]}`
/// (fleet), plus `"engine"?`, `"splitter"` or `"splitter_builtin"`, and
/// `"docs"`.
pub fn offline_extract(body: &Json) -> Result<Json, String> {
    let body = Body::new(
        body,
        &[
            "pattern",
            "patterns",
            "engine",
            "splitter",
            "splitter_builtin",
            "docs",
        ],
    )?;
    let registry = Registry::new();
    let (splitter, _) =
        registry.register_splitter(&body.splitter_spec("splitter", "splitter_builtin")?)?;
    let engine = body.engine()?;
    let docs = body.strs("docs")?;
    let target = match body.one_of("pattern", "patterns")? {
        "pattern" => Target::Spanner(registry.register_spanner(body.str("pattern")?, engine)?.0),
        _ => {
            let ids = body
                .strs("patterns")?
                .into_iter()
                .map(|p| Ok(registry.register_spanner(p, engine)?.0.id))
                .collect::<Result<Vec<u64>, String>>()?;
            Target::Fleet(registry.register_fleet(&ids)?.0)
        }
    };
    let input = Input::Docs(docs.iter().map(|d| d.as_bytes()).collect());
    let (relations, _) = target.extract(&splitter, &input, RunnerOptions::new(), None);
    Ok(Json::obj(vec![("relations", relations)]))
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
                ("spanners", uint(spanners as u64)),
                ("splitters", uint(splitters as u64)),
                ("fleets", uint(fleets as u64)),
                ("corpora", uint(corpora as u64)),
                ("entries", entries),
                (
                    "compile_cache",
                    Json::obj(vec![
                        ("hits", uint(compile.hits)),
                        ("misses", uint(compile.misses)),
                    ]),
                ),
                (
                    "cert_cache",
                    Json::obj(vec![
                        ("hits", uint(cert.hits)),
                        ("misses", uint(cert.misses)),
                        ("entries", uint(cert.entries as u64)),
                    ]),
                ),
            ]),
        ),
        (
            "pool".to_string(),
            Json::obj(vec![
                ("workers", uint(state.pool.workers() as u64)),
                ("submitted", uint(pool.submitted)),
                ("completed", uint(pool.completed)),
                ("panicked", uint(pool.panicked)),
            ]),
        ),
        (
            "antichain".to_string(),
            Json::obj(vec![
                ("runs", uint(antichain.runs)),
                ("explored", uint(antichain.explored)),
                ("pruned", uint(antichain.pruned)),
                ("subsets", uint(antichain.subsets)),
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

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_spanner::{Span, SpanTuple};

    #[test]
    fn offsets_past_u32_render_exactly() {
        // A shard grown past 4 GiB by `append` must not report wrapped
        // offsets.
        let start = u32::MAX as usize + 5;
        let relation =
            SpanRelation::from_tuples(vec![SpanTuple::new(vec![Span::new(start, start + 3)])]);
        let vars = VarTable::new(["x"]).unwrap();
        assert_eq!(
            relation_json(&relation, &vars).to_string(),
            r#"[{"x":[4294967300,4294967303]}]"#
        );
    }
}
