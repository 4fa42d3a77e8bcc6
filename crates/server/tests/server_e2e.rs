//! End-to-end tests against a live in-process server: protocol
//! round-trips, concurrent-client determinism, admission control, and
//! graceful shutdown.

use splitc_server::config::ServerConfig;
use splitc_server::handlers::offline_extract;
use splitc_server::json::Json;
use splitc_server::server::Server;
use splitc_server::Client;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A spanner known to be self-split-correct under `sentences`.
const LOCAL: &str = ".*x{a+}.*";
/// A second split-correct spanner over a different variable.
const LOCAL2: &str = ".*y{b+}.*";
/// A spanner whose matches cross sentence boundaries — certification
/// fails with a witness.
const CROSSING: &str = r".*x{a\.a}.*";

fn spawn(workers: usize, queue_depth: usize) -> Server {
    Server::spawn(ServerConfig {
        port: 0,
        workers,
        queue_depth,
        ..ServerConfig::default()
    })
    .expect("spawn")
}

fn register_spanner(client: &mut Client, pattern: &str) -> String {
    let (status, body) = client
        .post(
            "/spanners",
            &Json::obj(vec![("pattern", Json::str(pattern))]),
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    body.get("id").unwrap().as_str().unwrap().to_string()
}

fn register_sentences(client: &mut Client) -> String {
    let (status, body) = client
        .post(
            "/splitters",
            &Json::obj(vec![("builtin", Json::str("sentences"))]),
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    body.get("id").unwrap().as_str().unwrap().to_string()
}

fn docs_json(docs: &[&str]) -> Json {
    Json::Arr(docs.iter().map(|d| Json::str(*d)).collect())
}

#[test]
fn register_certify_extract_roundtrip_matches_offline() {
    let server = spawn(2, 8);
    let mut client = Client::new(server.addr());

    let spanner = register_spanner(&mut client, LOCAL);
    let splitter = register_sentences(&mut client);

    // Re-registration is a compile-cache hit with the same id.
    let (_, body) = client
        .post("/spanners", &Json::obj(vec![("pattern", Json::str(LOCAL))]))
        .unwrap();
    assert_eq!(body.get("id").unwrap().as_str().unwrap(), spanner);
    assert_eq!(body.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(
        body.get("vars").unwrap().as_arr().unwrap()[0].as_str(),
        Some("x")
    );

    // Cold certification, then a cache hit.
    let certify_req = Json::obj(vec![
        ("spanner", Json::str(spanner.clone())),
        ("splitter", Json::str(splitter.clone())),
    ]);
    let (status, body) = client.post("/certify", &certify_req).unwrap();
    assert_eq!(status, 200);
    assert_eq!(body.get("holds").unwrap().as_bool(), Some(true));
    assert_eq!(body.get("cached").unwrap().as_bool(), Some(false));
    let (_, body) = client.post("/certify", &certify_req).unwrap();
    assert_eq!(body.get("cached").unwrap().as_bool(), Some(true));

    // Extraction matches the offline differential reference
    // byte-for-byte.
    let docs = ["aaa bb. cc aa", "", "no match here.", "a.a.a"];
    let (status, body) = client
        .post(
            "/extract",
            &Json::obj(vec![
                ("spanner", Json::str(spanner.clone())),
                ("splitter", Json::str(splitter.clone())),
                ("docs", docs_json(&docs)),
            ]),
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let offline = offline_extract(&Json::obj(vec![
        ("pattern", Json::str(LOCAL)),
        ("splitter_builtin", Json::str("sentences")),
        ("docs", docs_json(&docs)),
    ]))
    .unwrap();
    assert_eq!(
        body.get("relations").unwrap().to_string(),
        offline.get("relations").unwrap().to_string(),
        "server and offline relations must be byte-identical"
    );
    assert_eq!(
        body.get("stats").unwrap().get("docs").unwrap().as_u64(),
        Some(4)
    );

    // /stats reflects the traffic.
    let (status, stats) = client.get("/stats").unwrap();
    assert_eq!(status, 200);
    let registry = stats.get("registry").unwrap();
    assert_eq!(registry.get("spanners").unwrap().as_u64(), Some(1));
    assert_eq!(registry.get("splitters").unwrap().as_u64(), Some(1));
    let cert = registry.get("cert_cache").unwrap();
    // Cold certify missed once; warm certify + the checked extract hit.
    assert_eq!(cert.get("misses").unwrap().as_u64(), Some(1));
    assert!(cert.get("hits").unwrap().as_u64().unwrap() >= 2);
    assert!(
        stats
            .get("latency")
            .unwrap()
            .get("extract")
            .unwrap()
            .get("count")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 1
    );
    let pool = stats.get("pool").unwrap();
    assert_eq!(pool.get("workers").unwrap().as_u64(), Some(2));
    assert!(pool.get("submitted").unwrap().as_u64().unwrap() >= 2);
    assert!(
        stats
            .get("antichain")
            .unwrap()
            .get("runs")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 1
    );

    // The fleet over inline docs matches the offline "patterns" form.
    let spanner2 = register_spanner(&mut client, LOCAL2);
    let (status, body) = client
        .post(
            "/fleets",
            &Json::obj(vec![(
                "members",
                Json::Arr(vec![Json::str(spanner), Json::str(spanner2)]),
            )]),
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let fleet = body.get("id").unwrap().as_str().unwrap().to_string();
    let (status, body) = client
        .post(
            "/extract",
            &Json::obj(vec![
                ("fleet", Json::str(fleet)),
                ("splitter", Json::str(splitter)),
                ("docs", docs_json(&docs)),
            ]),
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let offline = offline_extract(&Json::obj(vec![
        (
            "patterns",
            Json::Arr(vec![Json::str(LOCAL), Json::str(LOCAL2)]),
        ),
        ("splitter_builtin", Json::str("sentences")),
        ("docs", docs_json(&docs)),
    ]))
    .unwrap();
    assert_eq!(
        body.get("relations").unwrap().to_string(),
        offline.get("relations").unwrap().to_string(),
        "fleet relations over inline docs must be byte-identical to offline"
    );
}

#[test]
fn aot_and_dense_engines_are_distinct_entries_with_identical_bytes() {
    let server = spawn(2, 8);
    let mut client = Client::new(server.addr());
    let splitter = register_sentences(&mut client);

    // The same pattern under every engine name: the compile cache must
    // key on the tier, producing one distinct entry per engine...
    const ENGINES: [&str; 4] = ["nfa", "dense", "prefilter", "aot"];
    let mut ids = Vec::new();
    for engine in ENGINES {
        let (status, body) = client
            .post(
                "/spanners",
                &Json::obj(vec![
                    ("pattern", Json::str(LOCAL)),
                    ("engine", Json::str(engine)),
                ]),
            )
            .unwrap();
        assert_eq!(status, 200, "{body}");
        assert_eq!(body.get("cached").unwrap().as_bool(), Some(false));
        assert_eq!(body.get("engine").unwrap().as_str(), Some(engine));
        // A small pattern fits the AOT budget: requested tier == chosen.
        assert_eq!(body.get("tier").unwrap().as_str(), Some(engine));
        ids.push(body.get("id").unwrap().as_str().unwrap().to_string());
    }
    let mut distinct = ids.clone();
    distinct.sort();
    distinct.dedup();
    assert_eq!(
        distinct.len(),
        ENGINES.len(),
        "tiers must not share compile-cache keys"
    );
    // ...and re-registering under each engine hits its own entry.
    for (&engine, id) in ENGINES.iter().zip(&ids) {
        let (_, body) = client
            .post(
                "/spanners",
                &Json::obj(vec![
                    ("pattern", Json::str(LOCAL)),
                    ("engine", Json::str(engine)),
                ]),
            )
            .unwrap();
        assert_eq!(body.get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(body.get("id").unwrap().as_str().unwrap(), id);
    }

    // /extract bytes are identical under every tier.
    let docs = ["aaa bb. cc aa", "", "no match here.", "a.a.a"];
    let mut relations = Vec::new();
    for id in &ids {
        let (status, body) = client
            .post(
                "/extract",
                &Json::obj(vec![
                    ("spanner", Json::str(id.clone())),
                    ("splitter", Json::str(splitter.clone())),
                    ("docs", docs_json(&docs)),
                ]),
            )
            .unwrap();
        assert_eq!(status, 200, "{body}");
        relations.push(body.get("relations").unwrap().to_string());
    }
    for (engine, rel) in ENGINES.iter().zip(&relations) {
        assert_eq!(
            rel, &relations[0],
            "{engine} must extract the same bytes as nfa"
        );
    }

    // /stats reports the chosen tier per registry entry.
    let (status, stats) = client.get("/stats").unwrap();
    assert_eq!(status, 200);
    let entries = stats
        .get("registry")
        .unwrap()
        .get("entries")
        .unwrap()
        .as_arr()
        .unwrap();
    assert_eq!(entries.len(), ENGINES.len());
    for id in &ids {
        let entry = entries
            .iter()
            .find(|e| e.get("id").unwrap().as_str() == Some(id))
            .expect("registered entry listed in /stats");
        let engine = entry.get("engine").unwrap().as_str().unwrap();
        let tier = entry.get("tier").unwrap().as_str().unwrap();
        assert_eq!(tier, engine, "small pattern: requested tier compiled");
    }
}

/// `sentences` padded so its streaming phase DFAs exceed their budget:
/// the same language, but no stream, so each document is split whole.
const OVER_BUDGET_SENTENCES: &str = r"((.*a...........)?.*\.)?x{[^.]+}(\..*)?";

#[test]
fn over_budget_pattern_splitter_extracts_like_sentences() {
    let server = spawn(2, 8);
    let mut client = Client::new(server.addr());
    let spanner = register_spanner(&mut client, LOCAL);
    let sentences = register_sentences(&mut client);
    let (status, body) = client
        .post(
            "/splitters",
            &Json::obj(vec![("pattern", Json::str(OVER_BUDGET_SENTENCES))]),
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.get("disjoint").unwrap().as_bool(), Some(true));
    let padded = body.get("id").unwrap().as_str().unwrap().to_string();
    assert_ne!(padded, sentences);

    let (status, body) = client
        .post(
            "/certify",
            &Json::obj(vec![
                ("spanner", Json::str(spanner.clone())),
                ("splitter", Json::str(padded.clone())),
            ]),
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.get("holds").unwrap().as_bool(), Some(true), "{body}");

    let docs = [
        "aaa bb. cc aa",
        "",
        "no match here.",
        "a.a.a",
        "banana aaaaaaaaaaaaaa. and a tail",
    ];
    let mut replies = Vec::new();
    for splitter in [&sentences, &padded] {
        let (status, body) = client
            .post(
                "/extract",
                &Json::obj(vec![
                    ("spanner", Json::str(spanner.clone())),
                    ("splitter", Json::str(splitter.clone())),
                    ("docs", docs_json(&docs)),
                ]),
            )
            .unwrap();
        assert_eq!(status, 200, "{body}");
        replies.push(body.get("relations").unwrap().to_string());
    }
    assert_eq!(
        replies[1], replies[0],
        "padded splitter must extract like sentences"
    );
    assert!(
        replies[0].contains("\"x\""),
        "docs must produce tuples: {}",
        replies[0]
    );
}

#[test]
fn extract_refuses_uncertified_pairs_unless_unchecked() {
    let server = spawn(2, 8);
    let mut client = Client::new(server.addr());
    let spanner = register_spanner(&mut client, CROSSING);
    let splitter = register_sentences(&mut client);

    let request = Json::obj(vec![
        ("spanner", Json::str(spanner.clone())),
        ("splitter", Json::str(splitter.clone())),
        ("docs", docs_json(&["a.a"])),
    ]);
    let (status, body) = client.post("/extract", &request).unwrap();
    assert_eq!(status, 409, "{body}");
    assert!(body
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("split-correct"));

    // The certify endpoint reports the failure with a witness.
    let (status, body) = client
        .post(
            "/certify",
            &Json::obj(vec![
                ("spanner", Json::str(spanner.clone())),
                ("splitter", Json::str(splitter.clone())),
            ]),
        )
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(body.get("holds").unwrap().as_bool(), Some(false));
    assert_eq!(body.get("verdict").unwrap().as_str(), Some("fails"));
    assert!(body.get("counterexample").is_some());

    // Opting out runs the (semantics-changing) per-segment evaluation.
    let (status, body) = client
        .post(
            "/extract",
            &Json::obj(vec![
                ("spanner", Json::str(spanner)),
                ("splitter", Json::str(splitter)),
                ("docs", docs_json(&["a.a"])),
                ("unchecked", Json::Bool(true)),
            ]),
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    // Split evaluation cannot see the boundary-crossing match.
    assert_eq!(
        body.get("relations").unwrap().as_arr().unwrap()[0]
            .as_arr()
            .unwrap()
            .len(),
        0
    );
}

#[test]
fn concurrent_clients_get_deterministic_relations() {
    let server = spawn(4, 32);
    let addr = server.addr();

    // Set up artifacts once.
    let mut setup = Client::new(addr);
    let spanner_a = register_spanner(&mut setup, LOCAL);
    let spanner_b = register_spanner(&mut setup, LOCAL2);
    let splitter = register_sentences(&mut setup);
    let (status, body) = setup
        .post(
            "/fleets",
            &Json::obj(vec![(
                "members",
                Json::Arr(vec![
                    Json::str(spanner_a.clone()),
                    Json::str(spanner_b.clone()),
                ]),
            )]),
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let fleet = body.get("id").unwrap().as_str().unwrap().to_string();

    let docs = ["aaa bb. cc aa", "bbb. a", "", "ab ba. b.a"];
    let spanner_req = Json::obj(vec![
        ("spanner", Json::str(spanner_a.clone())),
        ("splitter", Json::str(splitter.clone())),
        ("docs", docs_json(&docs)),
    ]);
    let fleet_req = Json::obj(vec![
        ("fleet", Json::str(fleet.clone())),
        ("splitter", Json::str(splitter.clone())),
        ("docs", docs_json(&docs)),
    ]);

    // Reference answers, serialized.
    let (_, reference_spanner) = setup.post("/extract", &spanner_req).unwrap();
    let (_, reference_fleet) = setup.post("/extract", &fleet_req).unwrap();
    let reference_spanner = reference_spanner.get("relations").unwrap().to_string();
    let reference_fleet = reference_fleet.get("relations").unwrap().to_string();
    // The fused fleet pass and the single-spanner corpus pass agree on
    // the shared member — no cross-request scratch aliasing.
    let fleet_member_a: Vec<String> = Json::parse(&reference_fleet)
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|per_doc| per_doc.as_arr().unwrap()[0].to_string())
        .collect();
    let spanner_rel: Vec<String> = Json::parse(&reference_spanner)
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|r| r.to_string())
        .collect();
    assert_eq!(fleet_member_a, spanner_rel);

    // 8 threads × 5 requests each, alternating spanner and fleet
    // extractions on persistent connections.
    let outcomes: Vec<(Vec<String>, Vec<String>)> = std::thread::scope(|scope| {
        (0..8)
            .map(|t| {
                let spanner_req = &spanner_req;
                let fleet_req = &fleet_req;
                scope.spawn(move || {
                    let mut client = Client::new(addr);
                    let mut spanner_out = Vec::new();
                    let mut fleet_out = Vec::new();
                    for i in 0..5 {
                        let (req, out) = if (t + i) % 2 == 0 {
                            (spanner_req, &mut spanner_out)
                        } else {
                            (fleet_req, &mut fleet_out)
                        };
                        let (status, body) = client.post("/extract", req).unwrap();
                        assert_eq!(status, 200, "{body}");
                        out.push(body.get("relations").unwrap().to_string());
                    }
                    (spanner_out, fleet_out)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    for (spanner_out, fleet_out) in outcomes {
        assert!(spanner_out.iter().all(|r| *r == reference_spanner));
        assert!(fleet_out.iter().all(|r| *r == reference_fleet));
    }
}

#[test]
fn saturated_admission_queue_answers_429() {
    let server = spawn(1, 1);
    let addr = server.addr();

    // Occupy the single worker and the single queue slot with idle
    // connections, then keep connecting until one is refused. The
    // refusal must be a well-formed 429 response.
    let _held: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let mut saw_429 = false;
    let mut extra = Vec::new();
    for _ in 0..20 {
        std::thread::sleep(Duration::from_millis(20));
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let mut buf = Vec::new();
        match conn.read_to_end(&mut buf) {
            Ok(_) if !buf.is_empty() => {
                let text = String::from_utf8_lossy(&buf);
                assert!(
                    text.starts_with("HTTP/1.1 429"),
                    "unexpected response: {text}"
                );
                assert!(text.contains("admission queue full"));
                saw_429 = true;
                break;
            }
            // Admitted into the queue (a slot freed up): hold it idle
            // and try again.
            _ => extra.push(conn),
        }
    }
    assert!(saw_429, "no connection was refused with 429");

    // Releasing the held connections lets new requests through again,
    // once the server has observed the hang-ups. Until then a new
    // connection may still be refused with a 429 and closed, so poll on
    // fresh connections up to a deadline.
    drop(_held);
    drop(extra);
    let deadline = Instant::now() + Duration::from_secs(5);
    let (mut client, status, body) = loop {
        let mut client = Client::new(addr);
        match client.get("/healthz") {
            Ok((429, _)) | Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Ok((status, body)) => break (client, status, body),
            Err(e) => panic!("/healthz unreachable after the queue drained: {e}"),
        }
    };
    assert_eq!(status, 200);
    assert_eq!(body.get("ok").unwrap().as_bool(), Some(true));

    // The refusal was counted.
    let (_, stats) = client.get("/stats").unwrap();
    assert!(
        stats
            .get("responses")
            .unwrap()
            .get("rejected_429")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 1
    );
}

#[test]
fn protocol_errors_are_typed() {
    // Two workers: the keep-alive client pins one for the duration of
    // the test, and the raw socket below needs the other.
    let server = spawn(2, 4);
    let mut client = Client::new(server.addr());

    // Unknown route.
    let (status, _) = client.get("/nope").unwrap();
    assert_eq!(status, 404);
    // Bad JSON bodies, including a request that is valid but for a
    // number literal RFC 8259 forbids (`01`, which `f64` parsing takes).
    for (body, error) in [
        (b"{{{".as_slice(), ""),
        (br#"{"pattern":"x{a}","v":01}"#, "invalid number"),
    ] {
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        let head = format!(
            "POST /spanners HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        raw.write_all(&[head.as_bytes(), body].concat()).unwrap();
        let mut buf = [0u8; 512];
        let n = raw.read(&mut buf).unwrap();
        let reply = std::str::from_utf8(&buf[..n]).unwrap();
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        assert!(reply.contains(error), "{reply}");
    }
    // Unknown ids.
    let (status, _) = client
        .post(
            "/certify",
            &Json::obj(vec![
                ("spanner", Json::str("0000000000000000")),
                ("splitter", Json::str("0000000000000000")),
            ]),
        )
        .unwrap();
    assert_eq!(status, 404);
    // Invalid pattern.
    let (status, body) = client
        .post("/spanners", &Json::obj(vec![("pattern", Json::str("x{"))]))
        .unwrap();
    assert_eq!(status, 400);
    assert!(body.get("error").is_some());
    // Invalid config never spawns.
    assert!(Server::spawn(ServerConfig {
        workers: 0,
        ..ServerConfig::default()
    })
    .is_err());
}

#[test]
fn oversized_bodies_get_413() {
    let server = Server::spawn(ServerConfig {
        port: 0,
        workers: 1,
        queue_depth: 4,
        max_body_bytes: 2048,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(b"POST /extract HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n")
        .unwrap();
    let mut buf = [0u8; 256];
    let n = raw.read(&mut buf).unwrap();
    assert!(std::str::from_utf8(&buf[..n])
        .unwrap()
        .starts_with("HTTP/1.1 413"));
}

#[test]
fn shutdown_is_graceful_and_idempotent() {
    let mut server = spawn(2, 8);
    let addr = server.addr();
    let mut client = Client::new(addr);
    let (status, _) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);

    // Shutdown with an idle keep-alive connection still open: the
    // worker must notice and exit rather than pinning the join.
    server.shutdown();
    server.shutdown(); // idempotent

    // New connections are no longer served.
    let refused = match TcpStream::connect(addr) {
        Err(_) => true,
        Ok(mut conn) => {
            conn.set_read_timeout(Some(Duration::from_millis(300)))
                .unwrap();
            let _ = conn.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            let mut buf = [0u8; 16];
            matches!(conn.read(&mut buf), Ok(0) | Err(_))
        }
    };
    assert!(refused, "server still serving after shutdown");
}

#[test]
fn responses_are_versioned_and_unknown_fields_are_rejected() {
    let server = spawn(2, 8);
    let mut client = Client::new(server.addr());

    // Every response leads with the protocol version field.
    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    let pairs = body.as_obj().unwrap();
    assert_eq!(pairs[0].0, "v", "version leads: {body}");
    assert_eq!(body.get("v").unwrap().as_u64(), Some(1));

    // A request may carry "v": 1 explicitly.
    let (status, _) = client
        .post(
            "/spanners",
            &Json::obj(vec![("v", Json::num(1u32)), ("pattern", Json::str(LOCAL))]),
        )
        .unwrap();
    assert_eq!(status, 200);

    // A different version is refused.
    let (status, body) = client
        .post(
            "/spanners",
            &Json::obj(vec![("v", Json::num(2u32)), ("pattern", Json::str(LOCAL))]),
        )
        .unwrap();
    assert_eq!(status, 400);
    let err = body.get("error").unwrap().as_str().unwrap();
    assert!(err.contains("protocol version"), "{err}");
    assert_eq!(body.get("v").unwrap().as_u64(), Some(1), "errors carry v");

    // An unknown field is a typed 400 naming the offending key — a
    // client typo must fail loudly, not be silently ignored.
    let (status, body) = client
        .post(
            "/spanners",
            &Json::obj(vec![
                ("pattern", Json::str(LOCAL)),
                ("engin", Json::str("dense")),
            ]),
        )
        .unwrap();
    assert_eq!(status, 400);
    let err = body.get("error").unwrap().as_str().unwrap();
    assert!(err.contains("unknown field"), "{err}");
    assert!(err.contains("engin"), "names the offender: {err}");

    // A known field of the wrong type is a typed 400 naming the key, not
    // read as absent: no silent default engine, no silent "checked" (the
    // crossing pair below would otherwise answer 409).
    for engine in [Json::num(3u32), Json::Null] {
        let (status, body) = client
            .post(
                "/spanners",
                &Json::obj(vec![("pattern", Json::str(LOCAL)), ("engine", engine)]),
            )
            .unwrap();
        assert_eq!(status, 400, "{body}");
        let err = body.get("error").unwrap().as_str().unwrap();
        assert!(err.contains("\"engine\""), "names the key: {err}");
    }
    let crossing = register_spanner(&mut client, CROSSING);
    let splitter = register_sentences(&mut client);
    for unchecked in [Json::str("yes"), Json::num(1u32)] {
        let (status, body) = client
            .post(
                "/extract",
                &Json::obj(vec![
                    ("spanner", Json::str(crossing.clone())),
                    ("splitter", Json::str(splitter.clone())),
                    ("docs", docs_json(&["a.a"])),
                    ("unchecked", unchecked),
                ]),
            )
            .unwrap();
        assert_eq!(status, 400, "{body}");
        let err = body.get("error").unwrap().as_str().unwrap();
        assert!(err.contains("\"unchecked\""), "names the key: {err}");
    }
}

#[test]
fn corpus_resources_deltas_match_offline_and_hit_the_segment_cache() {
    let server = spawn(2, 8);
    let mut client = Client::new(server.addr());

    let spanner = register_spanner(&mut client, LOCAL);
    let splitter = register_sentences(&mut client);
    let shards = ["aaa bb. cc aa. dd a", "b aa. aaa."];

    // PUT the corpus: split once, maintained thereafter.
    let (status, body) = client
        .put(
            "/corpus/wiki",
            &Json::obj(vec![
                ("splitter", Json::str(splitter.clone())),
                ("shards", docs_json(&shards)),
            ]),
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.get("shards").unwrap().as_u64(), Some(2));
    assert_eq!(body.get("replaced").unwrap().as_bool(), Some(false));
    assert_eq!(body.get("segments").unwrap().as_u64(), Some(5));

    // Extraction by corpus id equals the offline reference
    // byte-for-byte.
    let extract_req = Json::obj(vec![
        ("spanner", Json::str(spanner.clone())),
        ("corpus", Json::str("wiki")),
    ]);
    let offline = |docs: &[&str]| {
        offline_extract(&Json::obj(vec![
            ("pattern", Json::str(LOCAL)),
            ("splitter_builtin", Json::str("sentences")),
            ("docs", docs_json(docs)),
        ]))
        .unwrap()
        .get("relations")
        .unwrap()
        .to_string()
    };
    let (status, body) = client.post("/extract", &extract_req).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        body.get("relations").unwrap().to_string(),
        offline(&shards),
        "corpus extraction == offline full re-extraction"
    );
    let cache = body.get("stats").unwrap().get("segment_cache").unwrap();
    let (hits_1, misses_1) = (
        cache.get("hits").unwrap().as_u64().unwrap(),
        cache.get("misses").unwrap().as_u64().unwrap(),
    );
    assert_eq!(misses_1, 5, "cold cache: every segment evaluated");

    // A point edit: only the dirty window is resplit, and the maintained
    // segmentation equals a from-scratch split of the edited text.
    let (status, body) = client
        .post(
            "/corpus/wiki/delta",
            &Json::obj(vec![
                ("op", Json::str("edit")),
                ("shard", Json::num(0u32)),
                ("start", Json::num(11u32)),
                ("end", Json::num(13u32)),
                ("text", Json::str("aaaa")),
            ]),
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.get("segments").unwrap().as_u64(), Some(5));
    let delta = body.get("delta").unwrap();
    assert!(delta.get("resplit_bytes").unwrap().as_u64().unwrap() > 0);

    // Re-extraction: the untouched shard is answered from the handle's
    // per-shard memo without running at all; inside the edited shard
    // the untouched segments hit the shared cache and only the edited
    // segment is re-evaluated.
    let edited = ["aaa bb. cc aaaa. dd a", "b aa. aaa."];
    let (status, body) = client.post("/extract", &extract_req).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        body.get("relations").unwrap().to_string(),
        offline(&edited),
        "post-delta extraction == offline on the edited corpus"
    );
    let stats = body.get("stats").unwrap();
    assert_eq!(
        stats.get("docs_reused").unwrap().as_u64(),
        Some(1),
        "the untouched shard never reaches the runner"
    );
    let cache = stats.get("segment_cache").unwrap();
    let (hits_2, misses_2) = (
        cache.get("hits").unwrap().as_u64().unwrap(),
        cache.get("misses").unwrap().as_u64().unwrap(),
    );
    assert_eq!(misses_2, misses_1 + 1, "only the edited segment recomputed");
    assert_eq!(
        hits_2,
        hits_1 + 2,
        "the edited shard's two untouched segments hit"
    );

    // An append delta, verified the same way.
    let (status, _) = client
        .post(
            "/corpus/wiki/delta",
            &Json::obj(vec![
                ("op", Json::str("append")),
                ("shard", Json::num(1u32)),
                ("text", Json::str(" new aa tail.")),
            ]),
        )
        .unwrap();
    assert_eq!(status, 200);
    let appended = ["aaa bb. cc aaaa. dd a", "b aa. aaa. new aa tail."];
    let (_, body) = client.post("/extract", &extract_req).unwrap();
    assert_eq!(
        body.get("relations").unwrap().to_string(),
        offline(&appended)
    );

    // The corpus summary reflects the maintained state.
    let (status, body) = client.get("/corpus/wiki").unwrap();
    assert_eq!(status, 200);
    assert_eq!(body.get("shards").unwrap().as_u64(), Some(2));
    assert_eq!(
        body.get("bytes").unwrap().as_u64(),
        Some((appended[0].len() + appended[1].len()) as u64)
    );

    // Guard rails: docs+corpus together, wrong splitter binding, and
    // unknown resources are refused.
    let (status, _) = client
        .post(
            "/extract",
            &Json::obj(vec![
                ("spanner", Json::str(spanner.clone())),
                ("corpus", Json::str("wiki")),
                ("docs", docs_json(&["x"])),
            ]),
        )
        .unwrap();
    assert_eq!(status, 400);
    let (status, body) = client
        .post(
            "/corpus/wiki/delta",
            &Json::obj(vec![
                ("op", Json::str("edit")),
                ("shard", Json::num(0u32)),
                ("start", Json::num(5u32)),
                ("end", Json::num(2u32)),
                ("text", Json::str("x")),
            ]),
        )
        .unwrap();
    assert_eq!(status, 400, "inverted range: {body}");

    // DELETE removes the resource; extraction then 404s.
    let (status, body) = client.delete("/corpus/wiki").unwrap();
    assert_eq!(status, 200);
    assert_eq!(body.get("deleted").unwrap().as_bool(), Some(true));
    let (status, _) = client.post("/extract", &extract_req).unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.delete("/corpus/wiki").unwrap();
    assert_eq!(status, 404, "already deleted");
}

#[test]
fn fleet_extraction_by_corpus_matches_offline() {
    let server = spawn(2, 8);
    let mut client = Client::new(server.addr());

    let sp1 = register_spanner(&mut client, LOCAL);
    let sp2 = register_spanner(&mut client, LOCAL2);
    let splitter = register_sentences(&mut client);
    let (status, body) = client
        .post(
            "/fleets",
            &Json::obj(vec![(
                "members",
                Json::Arr(vec![Json::str(sp1), Json::str(sp2)]),
            )]),
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let fleet = body.get("id").unwrap().as_str().unwrap().to_string();

    let shards = ["aa bb. ab ba.", "bbb a."];
    let (status, _) = client
        .put(
            "/corpus/mixed",
            &Json::obj(vec![
                ("splitter", Json::str(splitter)),
                ("shards", docs_json(&shards)),
            ]),
        )
        .unwrap();
    assert_eq!(status, 200);

    let (status, body) = client
        .post(
            "/extract",
            &Json::obj(vec![
                ("fleet", Json::str(fleet)),
                ("corpus", Json::str("mixed")),
            ]),
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let offline = offline_extract(&Json::obj(vec![
        (
            "patterns",
            Json::Arr(vec![Json::str(LOCAL), Json::str(LOCAL2)]),
        ),
        ("splitter_builtin", Json::str("sentences")),
        ("docs", docs_json(&shards)),
    ]))
    .unwrap();
    assert_eq!(
        body.get("relations").unwrap().to_string(),
        offline.get("relations").unwrap().to_string()
    );
}

#[test]
fn stats_exec_totals_are_the_sum_of_the_extract_replies() {
    let server = spawn(2, 8);
    let mut client = Client::new(server.addr());
    let sp1 = register_spanner(&mut client, LOCAL);
    let sp2 = register_spanner(&mut client, LOCAL2);
    let splitter = register_sentences(&mut client);
    let members = Json::Arr(vec![Json::str(sp1.clone()), Json::str(sp2)]);
    let (_, body) = client
        .post("/fleets", &Json::obj(vec![("members", members)]))
        .unwrap();
    let fleet = body.get("id").unwrap().as_str().unwrap().to_string();
    let shards = docs_json(&["aa bb. ab ba. a", "bbb a. aaa.", ""]);
    let corpus = Json::obj(vec![
        ("splitter", Json::str(&*splitter)),
        ("shards", shards),
    ]);
    assert_eq!(client.put("/corpus/sum", &corpus).unwrap().0, 200);

    // Inline and corpus runs of both targets; the corpus ones again from
    // the per-shard memo, and again after a delta dirties one shard.
    let docs = docs_json(&["aaa bb. cc aa", "", "no match here.", "b.a.b"]);
    let targets = [("spanner", &sp1), ("fleet", &fleet)];
    let mut requests: Vec<(&str, Json)> = Vec::new();
    for (key, id) in targets {
        let splitter = Json::str(&*splitter);
        let req = vec![
            (key, Json::str(id)),
            ("splitter", splitter),
            ("docs", docs.clone()),
        ];
        requests.push(("/extract", Json::obj(req)));
    }
    let by_corpus = |(key, id): (&str, &String)| {
        (
            "/extract",
            Json::obj(vec![(key, Json::str(id)), ("corpus", Json::str("sum"))]),
        )
    };
    requests.extend(targets.into_iter().chain(targets).map(by_corpus));
    let delta = vec![
        ("op", Json::str("append")),
        ("shard", Json::num(1u32)),
        ("text", Json::str(" ab aab.")),
    ];
    requests.push(("/corpus/sum/delta", Json::obj(delta)));
    requests.extend(targets.into_iter().map(by_corpus));

    let mut sums: std::collections::BTreeMap<&str, u64> = Default::default();
    for (path, req) in &requests {
        let (status, body) = client.post(path, req).unwrap();
        assert_eq!(status, 200, "{body}");
        if *path != "/extract" {
            continue;
        }
        let fleet_run = req.get("fleet").is_some();
        *sums
            .entry(if fleet_run {
                "fleet_runs"
            } else {
                "corpus_runs"
            })
            .or_default() += 1;
        let stats = body.get("stats").unwrap();
        assert_eq!(stats.get("dispatches").is_some(), fleet_run, "{stats}");
        for (total, key) in [
            ("docs", "docs"),
            ("segments", "segments"),
            ("segment_bytes", "segment_bytes"),
            ("batches", "batches"),
            ("fleet_dispatches", "dispatches"),
            ("fleet_gate_rejected", "gate_rejected"),
            ("fleet_scan_rejected", "scan_rejected"),
        ] {
            // A spanner run reports no fused-gate counts: it adds 0.
            *sums.entry(total).or_default() += stats.get(key).map_or(0, |n| n.as_u64().unwrap());
        }
    }
    // Refused requests run nothing but are counted by status class.
    let unknown = Json::obj(vec![
        ("spanner", Json::str(sp1)),
        ("corpus", Json::str("no")),
    ]);
    assert_eq!(client.post("/extract", &unknown).unwrap().0, 404);
    let no_splitter = Json::obj(vec![("fleet", Json::str(fleet))]);
    assert_eq!(client.post("/extract", &no_splitter).unwrap().0, 400);

    let (status, stats) = client.get("/stats").unwrap();
    assert_eq!(status, 200);
    let exec = stats.get("exec").unwrap();
    let keys: Vec<&str> = exec
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys.join(" "),
        "corpus_runs fleet_runs docs segments segment_bytes batches cache_hits cache_misses \
         prefilter_bytes_skipped prefilter_candidates splitter_bytes_skipped \
         splitter_bytes_stitched enum_frames fleet_dispatches fleet_gate_rejected \
         fleet_scan_rejected"
    );
    for (key, sum) in &sums {
        assert_eq!(exec.get(key).unwrap().as_u64(), Some(*sum), "exec.{key}");
    }
    assert_eq!((sums["corpus_runs"], sums["fleet_runs"]), (4, 4));
    assert!(sums["fleet_dispatches"] > 0 && sums["docs"] > 0, "{sums:?}");
    // Five registrations, the requests above and the two refusals;
    // `handle` counts a status after routing, so not this /stats.
    let responses = stats.get("responses").unwrap();
    let class = |key: &str| responses.get(key).unwrap().as_u64().unwrap();
    assert_eq!(class("client_4xx"), 2);
    let answered = 5 + requests.len() as u64 + 2;
    assert_eq!(
        class("ok_2xx") + class("client_4xx") + class("server_5xx"),
        answered
    );
}
