//! The serving workloads: an in-process `Server` over loopback, driven
//! by two keep-alive clients in a closed loop.
//!
//! * `serve-inline` — each `POST /extract` carries about 64 KiB of wiki
//!   documents inline and runs the entity extractor (default engine)
//!   under the sentences splitter, on the certified path.
//! * `serve-edit` — each client owns a corpus resource (8 keyword shards,
//!   about 256 KiB, `PUT` during set-up) and loops: one delta from
//!   `edits::edit_script`, then `POST /extract` of its corpus with a
//!   32-member keyword fleet.
//!
//! The clients speak raw HTTP/1.1 and read responses as bytes, so
//! client-side JSON parsing is never timed. serve-inline serializes its
//! requests before the timed window; serve-edit generates each delta
//! just before sending it, outside its latency. Connections are opened
//! once, during set-up: the accept loop polls, and a connection per
//! request would time the poll.
//!
//! The traced run replays the same request stream in process through
//! `http::read_request`, `handlers::handle` and `Response::write_to`,
//! and times separately the calls the handler makes internally
//! (`Json::parse` of the body, the runner or corpus-handle call, `Json`
//! encoding of the reply) to split handler time into layers.

use crate::host::Baseline;
use crate::reference::{entities, keyword_mentions, render, Spans};
use crate::stats::{iqr, median, setup_times, tail_percentile, Outcome, Tally};
use crate::trace::{durations_ms, write_trace, SpanRecord, Tracer};
use crate::{Args, Metric, Report};

use splitc_core::CertCacheStats;
use splitc_exec::{
    certify_many, CertifyConfig, CorpusHandle, CorpusRunner, CorpusRunnerConfig, DeltaStats,
    Engine, EvalPool, FleetRunner, SegmentCache, StreamingSplitter,
};
use splitc_server::handlers::handle;
use splitc_server::http::read_request;
use splitc_server::{hex_id, Json, Registry, Server, ServerConfig, ServiceState, SplitterSpec};
use splitc_spanner::splitter::CompiledSplitter;
use splitc_textgen::edits::{edit_script, Edit};
use splitc_textgen::{
    fleet_keyword, keyword_corpus, keyword_corpus_shards, wiki_corpus, CorpusConfig,
};

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server connection threads and evaluation workers (two cores).
const WORKERS: usize = 2;
/// Load-generating clients, one keep-alive connection each.
const CLIENTS: usize = 2;

/// The entity extractor of `splitc_textgen::spanners::entity_extractor`,
/// as the pattern the service compiles.
const ENTITY: &str = "(.*[^A-Za-z0-9]|)e{[A-Z][a-z]+}([^A-Za-z0-9].*|)";

fn server_config() -> ServerConfig {
    ServerConfig {
        port: 0,
        workers: WORKERS,
        ..ServerConfig::default()
    }
}

/// The runner configuration the service uses for every `/extract`.
fn exec_config(config: &ServerConfig) -> CorpusRunnerConfig {
    CorpusRunnerConfig {
        workers: config.workers,
        batch_bytes: config.batch_bytes,
        ..CorpusRunnerConfig::default()
    }
}

/// One request as it goes on the wire.
fn wire(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The body of a request built by [`wire`].
fn body_of(wire: &[u8]) -> &str {
    let at = wire
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator")
        + 4;
    std::str::from_utf8(&wire[at..]).expect("UTF-8 body")
}

/// A keep-alive client connection that sends pre-serialized requests
/// and returns status and raw body.
struct Conn {
    stream: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to the in-process server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        Conn {
            stream: BufReader::new(stream),
        }
    }

    fn call(&mut self, wire: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        self.stream.get_mut().write_all(wire)?;
        let mut line = String::new();
        self.stream.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
        let mut length = 0;
        loop {
            line.clear();
            self.stream.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((k, v)) = header.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    length = v
                        .trim()
                        .parse()
                        .map_err(|_| std::io::Error::other("bad Content-Length"))?;
                }
            }
        }
        let mut body = vec![0; length];
        self.stream.read_exact(&mut body)?;
        Ok((status, body))
    }

    /// A set-up call that must succeed; returns the parsed reply.
    fn ok(&mut self, method: &str, path: &str, body: &Json) -> Json {
        let (status, reply) = self
            .call(&wire(method, path, &body.to_string()))
            .unwrap_or_else(|e| panic!("{method} {path}: {e}"));
        let reply = String::from_utf8(reply).expect("UTF-8 reply");
        assert_eq!(status, 200, "{method} {path}: {reply}");
        Json::parse(&reply).expect("JSON reply")
    }
}

fn field(reply: &Json, key: &str) -> String {
    reply
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("reply field {key:?}"))
        .to_string()
}

/// A digest of an `/extract` reply's relations, or of the expected
/// relations (`Some`); a reply without relations digests as `None`.
fn digest(relations: Option<&[u8]>) -> u64 {
    let mut h = DefaultHasher::new();
    relations.hash(&mut h);
    h.finish()
}

/// The `relations` member of an `/extract` reply, as raw bytes.
fn relations_of(body: &[u8]) -> Option<&[u8]> {
    const KEY: &[u8] = b"\"relations\":";
    let from = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let to = from + body[from..].windows(9).position(|w| w == b",\"stats\":")?;
    Some(&body[from..to])
}

fn json_strings(items: &[Vec<u8>]) -> String {
    Json::Arr(
        items
            .iter()
            .map(|d| Json::str(std::str::from_utf8(d).expect("generated text is ASCII")))
            .collect(),
    )
    .to_string()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A running service with its client connections. Dropping it shuts the
/// service down: fields drop in order, so the connections close first,
/// the server's connection threads end, and the server's own drop joins
/// them.
struct System {
    conns: Vec<Conn>,
    server: Server,
    /// Time spent opening the connections and waiting for the accept
    /// loop to pick them up, which set-up time leaves out: the loop
    /// sleeps 25 ms between polls, so this wait is a uniform draw from
    /// 0 to 25 ms per boot, not work.
    accept_wait: Duration,
}

impl System {
    fn boot(config: ServerConfig) -> System {
        let server = Server::spawn(config).expect("spawn the server");
        let t = Instant::now();
        let mut conns: Vec<Conn> = (0..CLIENTS).map(|_| Conn::open(server.addr())).collect();
        for c in &mut conns {
            let (status, _) = c.call(&wire("GET", "/healthz", "")).expect("health check");
            assert_eq!(status, 200);
        }
        System {
            conns,
            server,
            accept_wait: t.elapsed(),
        }
    }
}

/// A serve set-up in the shape [`setup_times`] takes: the system, and
/// the accept wait to leave out of its time.
fn with_wait<T>(built: (System, T)) -> ((System, T), Duration) {
    let wait = built.0.accept_wait;
    (built, wait)
}

/// One set-up under a span; returns its time (s) less the accept wait,
/// and the system.
fn traced_setup<T>(tracer: &Tracer, setup: impl FnOnce() -> (System, T)) -> (f64, System) {
    let open = tracer.open("setup", None, 0);
    let (sys, _) = setup();
    let span = tracer.close(open);
    (span.ms() / 1e3 - sys.accept_wait.as_secs_f64(), sys)
}

/// What one closed-loop client saw.
#[derive(Default)]
struct ClientLog {
    tally: Tally,
    /// Latency (ms) of every successful request, by request class, and
    /// (serve-edit) of every completed cycle under [`CYCLE`].
    latencies: Vec<(usize, f64)>,
    /// Replies kept for checking: (operation index, digest of the
    /// relations). A digest, not the reply, so that the kept replies do
    /// not count in the process's memory.
    kept: Vec<(usize, u64)>,
    /// Document bytes extracted by successful operations.
    bytes: usize,
    /// Time spent generating requests inside the window.
    generating: Duration,
    /// Operations (cycles or requests) completed.
    ops: usize,
    /// When the client's last request completed.
    end: Option<Instant>,
}

impl ClientLog {
    /// Sends one request and records it under `class`.
    fn send(
        &mut self,
        conn: &mut Conn,
        wire: &[u8],
        class: usize,
        tracer: Option<(&Tracer, u64)>,
    ) -> Option<Vec<u8>> {
        let open = tracer.map(|(t, req)| t.open("client.request", None, req));
        let start = Instant::now();
        let result = conn.call(wire);
        let elapsed = start.elapsed();
        if let (Some((t, _)), Some(open)) = (tracer, open) {
            t.close(open);
        }
        self.end = Some(Instant::now());
        match result {
            Ok((200, body)) => {
                self.tally.record(Outcome::Ok);
                self.latencies.push((class, ms(elapsed)));
                Some(body)
            }
            Ok((status, body)) => {
                self.tally.record(Outcome::BadStatus);
                eprintln!(
                    "status {status}: {}",
                    String::from_utf8_lossy(&body[..body.len().min(200)])
                );
                None
            }
            Err(e) => {
                self.tally.record(Outcome::Transport);
                eprintln!("transport error: {e}");
                None
            }
        }
    }

    fn of_class(logs: &[ClientLog], class: usize) -> Vec<f64> {
        logs.iter()
            .flat_map(|l| &l.latencies)
            .filter(|(c, _)| *c == class)
            .map(|(_, v)| *v)
            .collect()
    }
}

/// Runs one closed-loop client per connection until `window` has
/// passed; `client` drives one connection and returns its log.
fn drive(
    sys: &mut System,
    window: Duration,
    client: impl Fn(usize, &mut Conn, Instant) -> ClientLog + Sync,
) -> (Vec<ClientLog>, f64) {
    let start = Instant::now();
    let deadline = start + window;
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = sys
            .conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                let client = &client;
                s.spawn(move || client(i, conn, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let end = logs.iter().filter_map(|l| l.end).max().unwrap_or(deadline);
    (logs, end.duration_since(start).as_secs_f64())
}

/// `p50` and the guarded `p95` of one latency class. A refused `p95`
/// is left out and says why; it is not on the JSON line.
fn latency_metrics(name: &str, samples: &[f64], p95: bool) -> Vec<Metric> {
    let mut out = vec![Metric::new(
        format!("{name}_p50_ms"),
        median(samples),
        "ms",
        samples.len(),
    )];
    if p95 {
        match tail_percentile(samples, 95.0) {
            Ok(v) => out.push(Metric::new(
                format!("{name}_p95_ms"),
                v,
                "ms",
                samples.len(),
            )),
            Err(e) => println!("  {name}_p95_ms refused: {e}"),
        }
    }
    out
}

/// In-process replay of requests through the service's layers.
struct Replay<'a> {
    state: &'a ServiceState,
    tracer: &'a Tracer,
}

/// What one replayed request measured.
struct Served {
    status: u16,
    body: Vec<u8>,
    /// read + handle + write, ms.
    total_ms: f64,
    handle_ms: f64,
}

impl Replay<'_> {
    fn call(&self, wire: &[u8], req: u64) -> Served {
        let t = self.tracer;
        let root = t.open("request", None, req);
        let parent = Some(root.id());
        let mut reader = Cursor::new(wire);
        let (parsed, _) = t.time("http.read", parent, req, || {
            read_request(&mut reader, self.state.config.max_body_bytes)
        });
        let request = parsed.expect("well-formed request").expect("one request");
        let (response, handled) = t.time("handlers.handle", parent, req, || {
            handle(self.state, &request)
        });
        let mut out = Vec::with_capacity(response.body.len() + 128);
        let _ = t.time("http.write", parent, req, || response.write_to(&mut out));
        let root = t.close(root);
        Served {
            status: response.status,
            body: response.body,
            total_ms: root.ms(),
            handle_ms: handled.ms(),
        }
    }

    /// Times `Json::parse` of a request body.
    fn parse(&self, body: &str, req: u64) -> f64 {
        let (parsed, span) = self
            .tracer
            .time("json.parse", None, req, || Json::parse(body));
        parsed.expect("request bodies are JSON");
        span.ms()
    }

    /// Times `Json` encoding of a reply (parsed untimed first).
    fn encode(&self, body: &[u8], req: u64) -> f64 {
        let json = Json::parse(std::str::from_utf8(body).expect("UTF-8")).expect("JSON reply");
        let (text, span) = self
            .tracer
            .time("json.encode", None, req, || json.to_string());
        assert_eq!(text.len(), body.len(), "re-encoding reproduces the reply");
        span.ms()
    }
}

fn rate(bytes: usize, ms: f64) -> f64 {
    bytes as f64 / 1e6 / (ms / 1e3)
}

/// Per-request layer samples of a replay.
#[derive(Default)]
struct LayerSamples {
    parse_ms: Vec<f64>,
    parse_rate: Vec<f64>,
    encode_rate: Vec<f64>,
    handler_self: Vec<f64>,
    /// Socket round trip minus in-process read + handle + write, per
    /// request.
    net_overhead: Vec<f64>,
}

/// Sends `wire` over a live connection to a second, identically set up
/// server, to pair with the same request's in-process replay: same
/// request, same moment, no concurrent clients. Returns the round trip
/// in ms.
fn socket_ms(conn: &mut Conn, wire: &[u8]) -> f64 {
    let t = Instant::now();
    let (status, _) = conn.call(wire).expect("paired socket request");
    let elapsed = ms(t.elapsed());
    assert_eq!(status, 200);
    elapsed
}

/// Runs a replayed request's in-process `call` between its `replicas`
/// (the handler's inner calls, timed alone) and its paired `socket`
/// call, in the order `flip` picks. Alternating the order across
/// requests keeps a host that speeds up or slows down within one request
/// from biasing the differences one way.
fn paired<R>(
    flip: bool,
    replicas: impl FnOnce() -> R,
    call: impl FnOnce() -> Served,
    socket: impl FnOnce() -> f64,
) -> (Served, f64, R) {
    if flip {
        let socket = socket();
        let served = call();
        (served, socket, replicas())
    } else {
        let replicas = replicas();
        let served = call();
        (served, socket(), replicas)
    }
}

impl LayerSamples {
    /// Pushes the layer metrics, and notes how widely the two
    /// differences spread per request: a change smaller than that
    /// spread over the square root of the sample count is noise.
    fn push_metrics(&self, m: &mut Vec<Metric>, notes: &mut Vec<Metric>, spans: &[SpanRecord]) {
        let n = self.parse_ms.len();
        let read = durations_ms(spans, "http.read");
        let handled = durations_ms(spans, "handlers.handle");
        let write = durations_ms(spans, "http.write");
        m.push(Metric::new("http.read_ms", median(&read), "ms", read.len()));
        m.push(Metric::new(
            "handlers.handle_ms",
            median(&handled),
            "ms",
            handled.len(),
        ));
        m.push(Metric::new(
            "http.write_ms",
            median(&write),
            "ms",
            write.len(),
        ));
        m.push(Metric::new(
            "json.parse_ms",
            median(&self.parse_ms),
            "ms",
            n,
        ));
        m.push(Metric::new(
            "json.parse_mb_per_s",
            median(&self.parse_rate),
            "MB/s",
            n,
        ));
        m.push(Metric::new(
            "json.encode_mb_per_s",
            median(&self.encode_rate),
            "MB/s",
            self.encode_rate.len(),
        ));
        m.push(Metric::new(
            "handlers.self_ms",
            median(&self.handler_self),
            "ms",
            self.handler_self.len(),
        ));
        m.push(Metric::new(
            "net.overhead_ms",
            median(&self.net_overhead),
            "ms",
            self.net_overhead.len(),
        ));
        for (name, v) in [
            ("iqr.handlers.self_ms", &self.handler_self),
            ("iqr.net.overhead_ms", &self.net_overhead),
        ] {
            notes.push(Metric::new(name, iqr(v), "ms", v.len()));
        }
    }
}

/// Cold `register_*` and `certify_*` calls on a fresh registry, the
/// antichain work of that certification, and the route `certify_many`
/// takes for the same extractors.
fn registry_metrics(m: &mut Vec<Metric>, tracer: &Tracer, patterns: &[String], as_fleet: bool) {
    let registry = Registry::new();
    let ((splitter, spanners, fleet), compile) = tracer.time("registry.compile", None, 0, || {
        let (splitter, _) = registry
            .register_splitter(&SplitterSpec::Builtin("sentences".into()))
            .expect("built-in splitter");
        let spanners: Vec<_> = patterns
            .iter()
            .map(|p| {
                registry
                    .register_spanner(p, Engine::default())
                    .expect("pattern")
                    .0
            })
            .collect();
        let fleet = as_fleet.then(|| {
            let ids: Vec<u64> = spanners.iter().map(|e| e.id).collect();
            registry.register_fleet(&ids).expect("fleet").0
        });
        (splitter, spanners, fleet)
    });
    let before = splitc_automata::cumulative_stats().explored;
    let (holds, certify) = tracer.time("registry.certify", None, 0, || match &fleet {
        Some(f) => registry
            .certify_fleet(f, &splitter)
            .0
            .iter()
            .all(|v| matches!(v, Ok(x) if x.holds())),
        None => matches!(registry.certify_spanner(&spanners[0], &splitter).0, Ok(x) if x.holds()),
    });
    assert!(holds, "the workload's extractors certify");
    let explored = splitc_automata::cumulative_stats().explored - before;
    m.push(Metric::new("compile_ms", compile.ms(), "ms", 1));
    m.push(Metric::new("registry.certify_ms", certify.ms(), "ms", 1));
    m.push(Metric::new(
        "antichain.explored",
        explored as f64,
        "count",
        1,
    ));
    let vsas: Vec<_> = spanners.iter().map(|e| e.vsa.clone()).collect();
    let pairs: Vec<(usize, usize)> = (0..vsas.len()).map(|i| (i, i)).collect();
    let config = CertifyConfig {
        workers: WORKERS,
        ..CertifyConfig::default()
    };
    let stats = certify_many(&vsas, &splitter.splitter, &pairs, &config).stats;
    m.push(Metric::new(
        "certify.fast_path_share",
        stats.fast_path as f64 / stats.pairs.max(1) as f64,
        "ratio",
        stats.pairs,
    ));
}

/// The steady-state certification-cache hit rate between two snapshots.
fn cert_hit_rate(m: &mut Vec<Metric>, before: CertCacheStats, after: CertCacheStats) {
    let hits = after.hits - before.hits;
    let lookups = hits + after.misses - before.misses;
    m.push(Metric::new(
        "registry.cert_cache_hit_rate",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
        lookups as usize,
    ));
}

// ---------------------------------------------------------------------
// serve-inline
// ---------------------------------------------------------------------

/// Distinct request bodies the clients rotate through.
const INLINE_BODIES: usize = 8;
/// Documents per request, and bytes per document (64 KiB per request).
const INLINE_DOCS: usize = 8;
const INLINE_DOC_BYTES: usize = 8 << 10;
/// Set-ups before and again after the window; `setup_s` is the median
/// of all, so that it samples the host at both ends of the run.
const INLINE_SETUPS: usize = 11;
/// Requests replayed in process by the traced run (even, so that both
/// orders of each pairing occur equally often).
const INLINE_REPLAYS: usize = 32;

struct InlineIds {
    spanner: String,
    splitter: String,
}

fn inline_setup() -> (System, InlineIds) {
    let mut sys = System::boot(server_config());
    let c = &mut sys.conns[0];
    let splitter = field(
        &c.ok(
            "POST",
            "/splitters",
            &Json::obj(vec![("builtin", Json::str("sentences"))]),
        ),
        "id",
    );
    let spanner = field(
        &c.ok(
            "POST",
            "/spanners",
            &Json::obj(vec![("pattern", Json::str(ENTITY))]),
        ),
        "id",
    );
    let verdict = c.ok(
        "POST",
        "/certify",
        &Json::obj(vec![
            ("spanner", Json::str(&spanner)),
            ("splitter", Json::str(&splitter)),
        ]),
    );
    assert_eq!(verdict.get("holds").and_then(Json::as_bool), Some(true));
    (sys, InlineIds { spanner, splitter })
}

/// `serve-inline`.
pub fn inline(args: &Args) -> Report {
    let docs: Vec<Vec<Vec<u8>>> = (0..INLINE_BODIES)
        .map(|b| {
            (0..INLINE_DOCS)
                .map(|d| {
                    wiki_corpus(&CorpusConfig {
                        target_bytes: INLINE_DOC_BYTES,
                        seed: args
                            .seed
                            .wrapping_mul(1000)
                            .wrapping_add((b * INLINE_DOCS + d) as u64),
                        ..CorpusConfig::default()
                    })
                })
                .collect()
        })
        .collect();
    let doc_bytes: Vec<usize> = docs
        .iter()
        .map(|ds| ds.iter().map(Vec::len).sum())
        .collect();
    let expected: Vec<String> = docs
        .iter()
        .map(|ds| {
            let spans: Vec<Spans> = ds.iter().map(|d| entities(d)).collect();
            render(&spans.iter().collect::<Vec<_>>(), "e")
        })
        .collect();
    let docs_json: Vec<String> = docs.iter().map(|ds| json_strings(ds)).collect();

    let baseline = Baseline::now();
    let set_up = || with_wait(inline_setup());
    let (mut setups, (mut sys, ids)) = setup_times(INLINE_SETUPS, set_up);
    let bodies: Vec<String> = docs_json
        .iter()
        .map(|d| {
            format!(
                "{{\"spanner\":\"{}\",\"splitter\":\"{}\",\"docs\":{d}}}",
                ids.spanner, ids.splitter
            )
        })
        .collect();
    let wires: Vec<Vec<u8>> = bodies.iter().map(|b| wire("POST", "/extract", b)).collect();

    // Warm-up: every body once per connection.
    let warm_up = |sys: &mut System| {
        for conn in &mut sys.conns {
            for w in &wires {
                let (status, _) = conn.call(w).expect("warm-up request");
                assert_eq!(status, 200);
            }
        }
    };
    warm_up(&mut sys);

    // Each reply is compared with its reference as it arrives, after its
    // latency is taken: one comparison of bytes, so that no reply has to
    // be kept (the kept replies would count in the process's memory).
    let run = |sys: &mut System, window: Duration, tracer: Option<&Tracer>| {
        drive(sys, window, |client, conn, deadline| {
            let mut log = ClientLog::default();
            let mut i = client;
            while Instant::now() < deadline {
                let which = i % wires.len();
                let req = (client as u64) << 32 | i as u64;
                if let Some(body) = log.send(conn, &wires[which], 0, tracer.map(|t| (t, req))) {
                    log.bytes += doc_bytes[which];
                    if relations_of(&body) != Some(expected[which].as_bytes()) {
                        log.tally.mismatch();
                    }
                }
                log.ops += 1;
                i += CLIENTS;
            }
            log
        })
    };
    let e2e = |logs: &[ClientLog], elapsed: f64, peak_mb: f64, setup_s: f64, setups: usize| {
        let lat = ClientLog::of_class(logs, 0);
        let ok = lat.len();
        let bytes: usize = logs.iter().map(|l| l.bytes).sum();
        let mut m = vec![
            Metric::new("setup_s", setup_s, "s", setups),
            Metric::new("peak_rss_mb", peak_mb, "MiB", 1),
            Metric::new("ops_per_s", ok as f64 / elapsed, "1/s", ok),
            Metric::new("op_p50_ms", median(&lat), "ms", ok),
            Metric::new("extract_mb_per_s", bytes as f64 / 1e6 / elapsed, "MB/s", ok),
            Metric::new("req_per_s", ok as f64 / elapsed, "1/s", ok),
        ];
        m.extend(latency_metrics("req", &lat, true));
        m
    };

    let mut report = Report::default();
    let (logs, elapsed) = run(&mut sys, args.seconds, None);
    drop(sys);
    let mut tally = logs.iter().fold(Tally::default(), |t, l| t.merge(l.tally));
    // Memory is read before the later set-ups, whose servers would leave
    // allocator fragments of their own.
    let peak_mb = baseline.peak_above_mb();
    setups.extend(setup_times(INLINE_SETUPS, set_up).0);
    let untraced = e2e(&logs, elapsed, peak_mb, median(&setups), setups.len());
    if !args.trace {
        report.tally = tally;
        report.metrics = untraced;
        return report;
    }

    // The traced phase: a fresh system, set up and loaded under spans.
    let tracer = Tracer::default();
    let (traced_setup, mut sys) = traced_setup(&tracer, inline_setup);
    warm_up(&mut sys);
    let (logs, elapsed) = run(&mut sys, args.seconds, Some(&tracer));
    drop(sys);
    tally = tally.merge(logs.iter().fold(Tally::default(), |t, l| t.merge(l.tally)));
    let traced = e2e(&logs, elapsed, baseline.peak_above_mb(), traced_setup, 1);
    report.overheads(&untraced, &traced);

    // Layers.
    let m = &mut report.metrics;
    registry_metrics(m, &tracer, &[ENTITY.to_string()], false);
    let state = ServiceState::new(server_config());
    let (splitter_entry, _) = state
        .registry
        .register_splitter(&SplitterSpec::Builtin("sentences".into()))
        .expect("builtin splitter");
    let (spanner_entry, _) = state
        .registry
        .register_spanner(ENTITY, Default::default())
        .expect("entity pattern");
    let _ = state
        .registry
        .certify_spanner(&spanner_entry, &splitter_entry);
    let replay = Replay {
        state: &state,
        tracer: &tracer,
    };
    let runner = CorpusRunner::with_pool(
        spanner_entry.exec.clone(),
        splitter_entry.compiled.clone(),
        exec_config(&state.config),
        state.pool.clone(),
    );
    let (mut live, _) = inline_setup();
    warm_up(&mut live);
    let mut samples = LayerSamples::default();
    let mut jobs = Vec::new();
    let mut cache = splitc_spanner::DenseCacheStats::default();
    let mut split_rate = Vec::new();
    let mut eval_rate = Vec::new();
    let mut tuple_rate = Vec::new();
    let mut op_self = Vec::new();
    let cert_before = state.registry.cert_stats();
    for r in 0..INLINE_REPLAYS {
        let which = r % wires.len();
        let req = r as u64;
        let (served, socket, (parse, exec, stats)) = paired(
            r % 2 == 1,
            || {
                let parse = replay.parse(&bodies[which], req);
                let refs: Vec<&[u8]> = docs[which].iter().map(Vec::as_slice).collect();
                let (result, exec) =
                    tracer.time("corpus.run", None, req, || runner.run_slices(&refs));
                (parse, exec.ms(), result.stats.cache)
            },
            || {
                let submitted = state.pool.stats().submitted;
                let served = replay.call(&wires[which], req);
                jobs.push((state.pool.stats().submitted - submitted) as f64);
                served
            },
            || socket_ms(&mut live.conns[0], &wires[which]),
        );
        assert_eq!(served.status, 200);
        tally.record(Outcome::Ok);
        if relations_of(&served.body) != Some(expected[which].as_bytes()) {
            tally.mismatch();
        }
        cache = cache.merge(stats);
        let encode = replay.encode(&served.body, req);
        samples.parse_ms.push(parse);
        samples.parse_rate.push(rate(bodies[which].len(), parse));
        samples.encode_rate.push(rate(served.body.len(), encode));
        samples.handler_self.push(served.handle_ms - parse - exec);
        samples.net_overhead.push(socket - served.total_ms);
        op_self.push(served.total_ms - exec);
        // The splitter and the engine alone, single-threaded, on the
        // request's documents.
        let alone = split_and_eval(
            &tracer,
            req,
            &splitter_entry.compiled,
            &docs[which],
            "engine.eval",
            |seg| spanner_entry.exec.eval(seg).len(),
        );
        split_rate.push(alone.split_mb_per_s);
        eval_rate.push(alone.eval_mb_per_s);
        tuple_rate.push(alone.tuples_per_s);
    }
    drop(live);
    let cert_after = state.registry.cert_stats();
    samples.push_metrics(m, &mut report.notes, &tracer.spans());
    let n = INLINE_REPLAYS;
    cert_hit_rate(m, cert_before, cert_after);
    m.push(Metric::new("pool.jobs", median(&jobs), "jobs/request", n));
    m.push(Metric::new(
        "split_mb_per_s",
        median(&split_rate),
        "MB/s",
        n,
    ));
    m.push(Metric::new("eval_mb_per_s", median(&eval_rate), "MB/s", n));
    m.push(Metric::new("op_self_ms", median(&op_self), "ms", n));
    m.push(Metric::new(
        "engine.tuples_per_s",
        median(&tuple_rate),
        "1/s",
        n,
    ));
    m.push(Metric::new(
        "dense.cache_hit_rate",
        cache.hit_rate(),
        "ratio",
        n,
    ));
    report.tally = tally;
    write_trace(&args.trace_path(), &tracer);
    report
}

// ---------------------------------------------------------------------
// serve-edit
// ---------------------------------------------------------------------

/// Keyword fleet members.
const EDIT_FLEET: usize = 32;
/// Shards per corpus and bytes per shard (256 KiB per corpus).
const EDIT_SHARDS: usize = 8;
const EDIT_SHARD_BYTES: usize = 32 << 10;
/// A keyword mention once every this many sentences.
const EDIT_NEEDLE_EVERY: usize = 16;
/// Every this many cycles a client keeps the re-query reply for the
/// shadow check.
const EDIT_SAMPLE_EVERY: usize = 50;
/// Set-ups before and after the window; `setup_s` is the median of all.
/// Each `PUT`s two 256 KiB corpora, whose parse takes most of a second,
/// so fewer set-ups than the other workloads. Only one runs before the
/// window: each leaves allocator fragments behind that would count in
/// the peak memory the window reads.
const EDIT_SETUPS_AFTER: usize = 5;
/// Entries of the service's segment cache. The default, 65536, never
/// fills in a run: the cache's memory, most of the process's growth,
/// would then track how many distinct segments a seed's edits happen to
/// produce (up to 4x apart between seeds), not the program. A full
/// cache evicts first-in first-out, so its memory is the same on every
/// seed, and its eviction path runs.
const EDIT_SEGMENT_CACHE: usize = 1024;

/// The service configuration of serve-edit.
fn edit_config() -> ServerConfig {
    ServerConfig {
        segment_cache_capacity: EDIT_SEGMENT_CACHE,
        ..server_config()
    }
}
/// Cycles replayed in process by the traced run.
const EDIT_REPLAYS: usize = 200;
/// Every this many replayed cycles, the splitter and the fleet run alone
/// over the whole shadow corpus.
const EDIT_PROBE_EVERY: usize = 4;

/// Latency classes of serve-edit requests.
const POINT: usize = 0;
const APPEND: usize = 1;
const REPLACE: usize = 2;
const QUERY: usize = 3;
/// A whole cycle: the delta's latency plus its re-query's.
const CYCLE: usize = 4;

fn edit_class(e: &Edit) -> usize {
    match e {
        Edit::Point { .. } => POINT,
        Edit::Append { .. } => APPEND,
        Edit::ReplaceShard { .. } => REPLACE,
    }
}

fn delta_body(e: &Edit) -> String {
    let text = |t: &[u8]| Json::str(std::str::from_utf8(t).expect("ASCII edit text"));
    let body = match e {
        Edit::Point {
            shard,
            start,
            end,
            text: t,
        } => Json::obj(vec![
            ("op", Json::str("edit")),
            ("shard", Json::num(*shard as u32)),
            ("start", Json::num(*start as u32)),
            ("end", Json::num(*end as u32)),
            ("text", text(t)),
        ]),
        Edit::Append { shard, text: t } => Json::obj(vec![
            ("op", Json::str("append")),
            ("shard", Json::num(*shard as u32)),
            ("text", text(t)),
        ]),
        Edit::ReplaceShard { shard, text: t } => Json::obj(vec![
            ("op", Json::str("replace_shard")),
            ("shard", Json::num(*shard as u32)),
            ("text", text(t)),
        ]),
    };
    body.to_string()
}

/// One client's deltas, generated as the client goes, so that no script
/// is held in memory and no window is too long for it. Step `i` is the
/// one-step `edit_script` of its own seed over the corpus's current
/// shard lengths (70% point edits, 20% appends, 10% `replace_shard`),
/// except that a `replace_shard`'s fresh wiki text is swapped for
/// keyword text of the shard's original length. The corpus therefore
/// keeps its size and its keyword density, one mention every
/// [`EDIT_NEEDLE_EVERY`] sentences, over the whole window; wiki text
/// would turn it keyword-free within seconds and leave the re-query
/// nothing to find.
struct EditStream {
    seed: u64,
    step: u64,
    lens: Vec<usize>,
    original: Vec<usize>,
}

impl EditStream {
    fn new(seed: u64, shards: &[Vec<u8>]) -> EditStream {
        let lens: Vec<usize> = shards.iter().map(Vec::len).collect();
        EditStream {
            seed,
            step: 0,
            original: lens.clone(),
            lens,
        }
    }

    fn next(&mut self) -> Edit {
        let seed = self.seed ^ self.step.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.step += 1;
        let mut e = edit_script(seed, &self.lens, 1)
            .pop()
            .expect("a one-step script");
        match &mut e {
            Edit::Point {
                shard,
                start,
                end,
                text,
            } => self.lens[*shard] = self.lens[*shard] - (*end - *start) + text.len(),
            Edit::Append { shard, text } => self.lens[*shard] += text.len(),
            Edit::ReplaceShard { shard, text } => {
                let len = self.original[*shard];
                *text = keyword_corpus(
                    &CorpusConfig {
                        target_bytes: len,
                        seed: seed.wrapping_add(1),
                        ..CorpusConfig::default()
                    },
                    EDIT_FLEET,
                    EDIT_NEEDLE_EVERY,
                );
                text.truncate(len);
                self.lens[*shard] = len;
            }
        }
        e
    }
}

/// One client's corpus and the seed of its edit stream.
struct EditClient {
    id: String,
    seed: u64,
    shards: Vec<Vec<u8>>,
    shards_json: String,
}

impl EditClient {
    fn stream(&self) -> EditStream {
        EditStream::new(self.seed, &self.shards)
    }

    fn delta_wire(&self, e: &Edit) -> Vec<u8> {
        wire(
            "POST",
            &format!("/corpus/{}/delta", self.id),
            &delta_body(e),
        )
    }
}

fn keyword_pattern(i: usize) -> String {
    format!(".*x{{{}[0-9]+}}.*", fleet_keyword(i))
}

/// Set-up of `serve-edit`; returns the system and the fleet id.
fn edit_setup(clients: &[EditClient]) -> (System, String) {
    let mut sys = System::boot(edit_config());
    let c = &mut sys.conns[0];
    let splitter = field(
        &c.ok(
            "POST",
            "/splitters",
            &Json::obj(vec![("builtin", Json::str("sentences"))]),
        ),
        "id",
    );
    let members: Vec<Json> = (0..EDIT_FLEET)
        .map(|i| {
            let reply = c.ok(
                "POST",
                "/spanners",
                &Json::obj(vec![("pattern", Json::str(keyword_pattern(i)))]),
            );
            Json::str(field(&reply, "id"))
        })
        .collect();
    let fleet = field(
        &c.ok(
            "POST",
            "/fleets",
            &Json::obj(vec![("members", Json::Arr(members))]),
        ),
        "id",
    );
    let verdict = c.ok(
        "POST",
        "/certify",
        &Json::obj(vec![
            ("fleet", Json::str(&fleet)),
            ("splitter", Json::str(&splitter)),
        ]),
    );
    assert_eq!(verdict.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(verdict.get("holds").and_then(Json::as_bool), Some(true));
    // Each client PUTs its own corpus on its own connection.
    std::thread::scope(|s| {
        for (conn, client) in sys.conns.iter_mut().zip(clients) {
            let splitter = &splitter;
            s.spawn(move || {
                let w = wire(
                    "PUT",
                    &format!("/corpus/{}", client.id),
                    &format!(
                        "{{\"splitter\":\"{splitter}\",\"shards\":{}}}",
                        client.shards_json
                    ),
                );
                let (status, body) = conn.call(&w).expect("PUT corpus");
                assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
            });
        }
    });
    (sys, fleet)
}

/// The expected `/extract` relations of a fleet over `shards`.
fn expected_fleet(shards: &[Vec<u8>]) -> String {
    let parts: Vec<String> = shards
        .iter()
        .map(|s| {
            let members = keyword_mentions(s, EDIT_FLEET);
            render(&members.iter().collect::<Vec<_>>(), "x")
        })
        .collect();
    format!("[{}]", parts.join(","))
}

/// Replays a client's edit stream on a shadow copy and checks the
/// replies kept at sampled cycles (reply `i` follows edit `i`). Returns
/// the keyword mentions per KiB of the shadow at each checked reply.
fn shadow_check(client: &EditClient, kept: &mut Vec<(usize, u64)>, tally: &mut Tally) -> Vec<f64> {
    kept.sort_by_key(|(i, _)| *i);
    let mut stream = client.stream();
    let mut shadow = client.shards.clone();
    let mut applied = 0;
    let mut density = Vec::new();
    for (i, got) in kept.drain(..) {
        while applied <= i {
            stream.next().apply(&mut shadow);
            applied += 1;
        }
        if got != digest(Some(expected_fleet(&shadow).as_bytes())) {
            tally.mismatch();
        }
        let mentions: usize = shadow
            .iter()
            .map(|s| {
                keyword_mentions(s, EDIT_FLEET)
                    .iter()
                    .map(Vec::len)
                    .sum::<usize>()
            })
            .sum();
        let kib = shadow.iter().map(Vec::len).sum::<usize>() as f64 / 1024.0;
        density.push(mentions as f64 / kib);
    }
    density
}

/// `serve-edit`.
pub fn edit(args: &Args) -> Report {
    let clients: Vec<EditClient> = (0..CLIENTS)
        .map(|c| {
            let shards = keyword_corpus_shards(
                EDIT_SHARDS,
                &CorpusConfig {
                    target_bytes: EDIT_SHARD_BYTES,
                    seed: args.seed.wrapping_mul(100).wrapping_add(c as u64 * 10),
                    ..CorpusConfig::default()
                },
                EDIT_FLEET,
                EDIT_NEEDLE_EVERY,
            );
            EditClient {
                id: format!("c{c}"),
                seed: args.seed.wrapping_mul(100).wrapping_add(c as u64),
                shards_json: json_strings(&shards),
                shards,
            }
        })
        .collect();

    let baseline = Baseline::now();
    let set_up = || with_wait(edit_setup(&clients));
    let (mut setups, (mut sys, fleet)) = setup_times(1, set_up);
    let queries: Vec<Vec<u8>> = clients
        .iter()
        .map(|c| {
            wire(
                "POST",
                "/extract",
                &format!("{{\"corpus\":\"{}\",\"fleet\":\"{fleet}\"}}", c.id),
            )
        })
        .collect();
    // Warm-up: the first query of each corpus fills the memos and the
    // segment cache.
    let warm_up = |sys: &mut System| {
        for (conn, q) in sys.conns.iter_mut().zip(&queries) {
            assert_eq!(conn.call(q).expect("warm-up query").0, 200);
        }
    };
    warm_up(&mut sys);

    // A cycle generates its delta (outside the request's latency, inside
    // the window), sends it, and re-queries the corpus.
    let run = |sys: &mut System, window: Duration, tracer: Option<&Tracer>| {
        drive(sys, window, |c, conn, deadline| {
            let client = &clients[c];
            let mut stream = client.stream();
            let mut log = ClientLog::default();
            let mut i = 0;
            while Instant::now() < deadline {
                let g = Instant::now();
                let e = stream.next();
                let delta = client.delta_wire(&e);
                log.generating += g.elapsed();
                let req = (c as u64) << 32 | (2 * i) as u64;
                let t = tracer.map(|t| (t, req));
                if log.send(conn, &delta, edit_class(&e), t).is_none() {
                    break;
                }
                let t = tracer.map(|t| (t, req + 1));
                let Some(body) = log.send(conn, &queries[c], QUERY, t) else {
                    break;
                };
                let n = log.latencies.len();
                let cycle = log.latencies[n - 2].1 + log.latencies[n - 1].1;
                log.latencies.push((CYCLE, cycle));
                if i % EDIT_SAMPLE_EVERY == 0 {
                    log.kept.push((i, digest(relations_of(&body))));
                }
                i += 1;
                log.ops += 1;
            }
            log
        })
    };
    // The state at the end of the window is checked too.
    let finish = |sys: &mut System, logs: &mut Vec<ClientLog>| {
        for (c, log) in logs.iter_mut().enumerate() {
            let done = log.ops;
            if done > 0 && log.tally.failed() == 0 {
                let (status, body) = sys.conns[c].call(&queries[c]).expect("final query");
                assert_eq!(status, 200);
                if (done - 1) % EDIT_SAMPLE_EVERY != 0 {
                    log.kept.push((done - 1, digest(relations_of(&body))));
                }
            }
        }
    };
    let e2e = |logs: &[ClientLog], elapsed: f64, peak_mb: f64, setup_s: f64, setups: usize| {
        let cycles: usize = logs.iter().map(|l| l.ops).sum();
        let deltas: Vec<f64> = [POINT, APPEND, REPLACE]
            .iter()
            .flat_map(|&c| ClientLog::of_class(logs, c))
            .collect();
        let mut m = vec![
            Metric::new("setup_s", setup_s, "s", setups),
            Metric::new("peak_rss_mb", peak_mb, "MiB", 1),
            Metric::new("ops_per_s", cycles as f64 / elapsed, "1/s", cycles),
            Metric::new(
                "op_p50_ms",
                median(&ClientLog::of_class(logs, CYCLE)),
                "ms",
                cycles,
            ),
            Metric::new("edits_per_s", cycles as f64 / elapsed, "1/s", cycles),
        ];
        m.extend(latency_metrics("delta", &deltas, true));
        m.extend(latency_metrics(
            "query",
            &ClientLog::of_class(logs, QUERY),
            false,
        ));
        m
    };
    let check = |logs: &mut Vec<ClientLog>, tally: &mut Tally, notes: &mut Vec<Metric>| {
        let mut density = Vec::new();
        for (c, log) in logs.iter_mut().enumerate() {
            density.extend(shadow_check(&clients[c], &mut log.kept, tally));
        }
        // How many keyword mentions the re-queries had to find.
        if !density.is_empty() {
            let (lo, hi) = density
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &d| (lo.min(d), hi.max(d)));
            notes.push(Metric::new(
                "mentions_per_kib.min",
                lo,
                "1/KiB",
                density.len(),
            ));
            notes.push(Metric::new(
                "mentions_per_kib.max",
                hi,
                "1/KiB",
                density.len(),
            ));
        }
    };

    let mut report = Report::default();
    let (mut logs, elapsed) = run(&mut sys, args.seconds, None);
    finish(&mut sys, &mut logs);
    drop(sys);
    let mut tally = logs.iter().fold(Tally::default(), |t, l| t.merge(l.tally));
    // Memory is read before the later set-ups, whose servers would leave
    // allocator fragments of their own.
    let peak_mb = baseline.peak_above_mb();
    setups.extend(setup_times(EDIT_SETUPS_AFTER, set_up).0);
    let untraced = e2e(&logs, elapsed, peak_mb, median(&setups), setups.len());
    report.notes.push(gen_share(&logs, elapsed));
    check(&mut logs, &mut tally, &mut report.notes);
    if !args.trace {
        report.tally = tally;
        report.metrics = untraced;
        return report;
    }

    // The traced phase: a fresh system, set up and loaded under spans,
    // replaying the same streams from the start.
    let tracer = Tracer::default();
    let (traced_setup, mut sys) = traced_setup(&tracer, || edit_setup(&clients));
    warm_up(&mut sys);
    let (mut logs, elapsed) = run(&mut sys, args.seconds, Some(&tracer));
    finish(&mut sys, &mut logs);
    tally = tally.merge(logs.iter().fold(Tally::default(), |t, l| t.merge(l.tally)));
    let traced = e2e(&logs, elapsed, baseline.peak_above_mb(), traced_setup, 1);
    check(&mut logs, &mut tally, &mut Vec::new());
    let cache = sys.server.state().segment_cache.stats();
    drop(sys);
    report.overheads(&untraced, &traced);
    let m = &mut report.metrics;
    m.push(Metric::new(
        "segcache.hit_rate",
        cache.hit_rate(),
        "ratio",
        1,
    ));
    m.push(Metric::new(
        "segcache.evictions",
        cache.evictions as f64,
        "count",
        1,
    ));
    edit_layers(&mut report, &mut tally, &tracer, &clients);
    report.tally = tally;
    write_trace(&args.trace_path(), &tracer);
    report
}

/// The share of the clients' window spent generating their deltas,
/// which `edits_per_s` includes.
fn gen_share(logs: &[ClientLog], elapsed: f64) -> Metric {
    let gen: f64 = logs.iter().map(|l| l.generating.as_secs_f64()).sum();
    Metric::new(
        "client.delta_gen_share",
        gen / (elapsed * logs.len() as f64),
        "ratio",
        logs.len(),
    )
}

/// Applies one scripted edit to a corpus handle directly.
fn apply_delta(handle: &mut CorpusHandle, e: &Edit) -> DeltaStats {
    match e {
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

/// The traced in-process replay of client 0's stream: the service on a
/// fresh state, and the same deltas and extractions called directly on
/// a corpus handle of the benchmark's own, which shadows the work the
/// handler does inside.
fn edit_layers(report: &mut Report, tally: &mut Tally, tracer: &Tracer, clients: &[EditClient]) {
    let m = &mut report.metrics;
    let client = &clients[0];
    let patterns: Vec<String> = (0..EDIT_FLEET).map(keyword_pattern).collect();
    registry_metrics(m, tracer, &patterns, true);

    // The service's state, set up directly through its registry.
    let state = ServiceState::new(edit_config());
    let (splitter, _) = state
        .registry
        .register_splitter(&SplitterSpec::Builtin("sentences".into()))
        .expect("built-in splitter");
    let members: Vec<u64> = patterns
        .iter()
        .map(|p| {
            let (entry, _) = state
                .registry
                .register_spanner(p, Engine::default())
                .expect("keyword pattern");
            entry.id
        })
        .collect();
    let (fleet, _) = state.registry.register_fleet(&members).expect("fleet");
    let shards = || client.shards.iter().cloned();
    state.registry.put_corpus(
        &client.id,
        splitter.id,
        CorpusHandle::from_shards(splitter.compiled.clone(), shards()),
    );
    let query_body = format!(
        "{{\"corpus\":\"{}\",\"fleet\":\"{}\"}}",
        client.id,
        hex_id(fleet.id)
    );
    let query = wire("POST", "/extract", &query_body);
    let replay = Replay {
        state: &state,
        tracer,
    };
    // The first query certifies the fleet and fills the memos; it stays
    // out of the trace, which describes the steady request stream.
    let warm = Replay {
        state: &state,
        tracer: &Tracer::default(),
    };
    assert_eq!(warm.call(&query, 0).status, 200);

    // The benchmark's own handle, shadowing the service's exec work.
    let mut handle = CorpusHandle::from_shards(splitter.compiled.clone(), shards());
    let runner = FleetRunner::with_pool(
        fleet.fleet.clone(),
        splitter.compiled.clone(),
        exec_config(&state.config),
        Arc::new(EvalPool::new(WORKERS)),
    )
    .with_segment_cache(Arc::new(SegmentCache::new(
        state.config.segment_cache_capacity,
    )));
    let _ = handle.extract_fleet(&runner);
    // Ids are content hashes, so the second server's fleet id and the
    // query are the same.
    let (mut live, live_fleet) = edit_setup(clients);
    assert_eq!(live_fleet, hex_id(fleet.id));
    assert_eq!(live.conns[0].call(&query).expect("warm-up").0, 200);

    let mut samples = LayerSamples::default();
    let mut by_kind: [Vec<f64>; 3] = Default::default();
    let mut resplit = Vec::new();
    let mut converged = 0usize;
    let mut extract_ms = Vec::new();
    let mut reused = Vec::new();
    let mut jobs = Vec::new();
    let mut split_rate = Vec::new();
    let mut eval_rate = Vec::new();
    let mut op_self = Vec::new();
    let mut stream = client.stream();
    let mut shadow = client.shards.clone();
    let cert_before = state.registry.cert_stats();
    for i in 0..EDIT_REPLAYS {
        let e = stream.next();
        let delta = client.delta_wire(&e);
        let delta_body = body_of(&delta);
        let req = 2 * i as u64;
        let name = ["handle.edit", "handle.append", "handle.replace_shard"][edit_class(&e)];
        let (served, socket, (parse, (stats, exec))) = paired(
            i % 2 == 1,
            || {
                let parse = replay.parse(delta_body, req);
                (
                    parse,
                    tracer.time(name, None, req, || apply_delta(&mut handle, &e)),
                )
            },
            || replay.call(&delta, req),
            || socket_ms(&mut live.conns[0], &delta),
        );
        assert_eq!(served.status, 200);
        tally.record(Outcome::Ok);
        by_kind[edit_class(&e)].push(exec.ms());
        resplit.push(stats.resplit_bytes as f64);
        converged += usize::from(stats.converged);
        samples.parse_ms.push(parse);
        samples.parse_rate.push(rate(delta_body.len(), parse));
        samples
            .handler_self
            .push(served.handle_ms - parse - exec.ms());
        samples.net_overhead.push(socket - served.total_ms);
        let delta_self = served.total_ms - exec.ms();
        e.apply(&mut shadow);
        if i % EDIT_PROBE_EVERY == 0 {
            let alone = split_and_eval(
                tracer,
                req,
                &splitter.compiled,
                &shadow,
                "fleet.eval",
                |seg| fleet.fleet.eval(seg).iter().map(|r| r.len()).sum(),
            );
            split_rate.push(alone.split_mb_per_s);
            eval_rate.push(alone.eval_mb_per_s);
        }

        let req = req + 1;
        let (served, socket, (parse, (result, exec))) = paired(
            i % 2 == 0,
            || {
                let parse = replay.parse(&query_body, req);
                (
                    parse,
                    tracer.time("handle.extract", None, req, || {
                        handle.extract_fleet(&runner)
                    }),
                )
            },
            || {
                let submitted = state.pool.stats().submitted;
                let served = replay.call(&query, req);
                jobs.push((state.pool.stats().submitted - submitted) as f64);
                served
            },
            || socket_ms(&mut live.conns[0], &query),
        );
        assert_eq!(served.status, 200);
        tally.record(Outcome::Ok);
        if (i % EDIT_SAMPLE_EVERY == 0 || i + 1 == EDIT_REPLAYS)
            && relations_of(&served.body) != Some(expected_fleet(&shadow).as_bytes())
        {
            tally.mismatch();
        }
        extract_ms.push(exec.ms());
        reused.push(result.stats.docs_reused as f64 / result.stats.docs.max(1) as f64);
        let encode = replay.encode(&served.body, req);
        samples.parse_ms.push(parse);
        samples.parse_rate.push(rate(query_body.len(), parse));
        samples.encode_rate.push(rate(served.body.len(), encode));
        samples
            .handler_self
            .push(served.handle_ms - parse - exec.ms());
        samples.net_overhead.push(socket - served.total_ms);
        op_self.push(delta_self + served.total_ms - exec.ms());
    }
    drop(live);
    cert_hit_rate(m, cert_before, state.registry.cert_stats());
    samples.push_metrics(m, &mut report.notes, &tracer.spans());
    for (kind, v) in ["edit", "append", "replace_shard"].iter().zip(&by_kind) {
        if !v.is_empty() {
            m.push(Metric::new(
                format!("handle.{kind}_ms"),
                median(v),
                "ms",
                v.len(),
            ));
        }
    }
    m.push(Metric::new(
        "handle.resplit_bytes",
        median(&resplit),
        "bytes",
        resplit.len(),
    ));
    m.push(Metric::new(
        "handle.converged_share",
        converged as f64 / EDIT_REPLAYS as f64,
        "ratio",
        EDIT_REPLAYS,
    ));
    m.push(Metric::new(
        "handle.extract_ms",
        median(&extract_ms),
        "ms",
        extract_ms.len(),
    ));
    m.push(Metric::new(
        "handle.docs_reused_share",
        median(&reused),
        "ratio",
        reused.len(),
    ));
    m.push(Metric::new(
        "pool.jobs",
        median(&jobs),
        "jobs/request",
        jobs.len(),
    ));
    m.push(Metric::new(
        "split_mb_per_s",
        median(&split_rate),
        "MB/s",
        split_rate.len(),
    ));
    m.push(Metric::new(
        "eval_mb_per_s",
        median(&eval_rate),
        "MB/s",
        eval_rate.len(),
    ));
    m.push(Metric::new(
        "op_self_ms",
        median(&op_self),
        "ms",
        op_self.len(),
    ));
}

/// What the splitter and the extractor measured alone, one thread, on
/// one operation's documents.
struct Alone {
    /// Document bytes split per second, MB/s.
    split_mb_per_s: f64,
    /// Segment bytes evaluated per second, MB/s.
    eval_mb_per_s: f64,
    tuples_per_s: f64,
}

/// Splits `docs` with `splitter` alone, then runs `eval` (one segment
/// to its tuple count) alone on every segment, each under a span.
fn split_and_eval(
    tracer: &Tracer,
    req: u64,
    splitter: &CompiledSplitter,
    docs: &[Vec<u8>],
    eval_span: &'static str,
    eval: impl Fn(&[u8]) -> usize,
) -> Alone {
    let (segs, split) = tracer.time("stream.split", None, req, || {
        let mut segs = Vec::new();
        for doc in docs {
            let mut s = StreamingSplitter::new(splitter);
            segs.extend(s.push(doc));
            segs.extend(s.finish());
        }
        segs
    });
    let bytes: usize = docs.iter().map(Vec::len).sum();
    let seg_bytes: usize = segs.iter().map(|s| s.bytes.len()).sum();
    let (tuples, evaluated) = tracer.time(eval_span, None, req, || {
        segs.iter().map(|s| eval(&s.bytes)).sum::<usize>()
    });
    Alone {
        split_mb_per_s: rate(bytes, split.ms()),
        eval_mb_per_s: rate(seg_bytes, evaluated.ms()),
        tuples_per_s: tuples as f64 / (evaluated.ms() / 1e3),
    }
}
