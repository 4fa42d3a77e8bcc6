#!/usr/bin/env sh
# End-to-end smoke test for the extraction service: boots
# `splitc-server` on an ephemeral loopback port, drives a full
# register -> certify -> extract -> stats round-trip over real HTTP
# (python3 stdlib http.client — no extra dependencies), compares the
# extraction relations byte-for-byte against `splitc-server --offline`
# (the no-server differential reference) for a spanner, a corpus
# resource, a two-member fleet, the spanner under every engine name and
# an over-budget pattern splitter, and finally delivers SIGTERM and
# asserts a graceful exit 0 with "shutdown complete" on stdout.
#
# Usage: scripts/server_smoke.sh [server-binary]
#        (default: ./target/release/splitc-server)
set -eu

bin="${1:-./target/release/splitc-server}"
test -x "$bin" || { echo "server binary $bin not found (build with: cargo build --release -p splitc-server)" >&2; exit 1; }

log="$(mktemp)"
trap 'rm -f "$log"; kill "$pid" 2>/dev/null || true' EXIT

"$bin" --port 0 --workers 4 >"$log" 2>&1 &
pid=$!

# Wait for the bound-address line (the server prints and flushes it
# once the listener is up).
addr=""
i=0
while [ "$i" -lt 100 ]; do
  addr="$(sed -n 's/^listening on //p' "$log")"
  [ -n "$addr" ] && break
  kill -0 "$pid" 2>/dev/null || { echo "server died during startup:" >&2; cat "$log" >&2; exit 1; }
  sleep 0.1
  i=$((i + 1))
done
test -n "$addr" || { echo "server never printed its address:" >&2; cat "$log" >&2; exit 1; }
echo "== server up at $addr (pid $pid)" >&2

python3 - "$addr" "$bin" <<'PY'
import http.client
import json
import subprocess
import sys

addr, bin_path = sys.argv[1], sys.argv[2]
host, port = addr.rsplit(":", 1)
conn = http.client.HTTPConnection(host, int(port), timeout=60)


def call(method, path, obj=None, expect=200):
    body = None if obj is None else json.dumps(obj)
    conn.request(method, path, body=body)
    resp = conn.getresponse()
    data = resp.read()
    if resp.status != expect:
        sys.exit(f"{method} {path}: expected {expect}, got {resp.status}: {data!r}")
    return data


PATTERN = ".*x{a+}.*"
DOCS = [
    "Alpha aaa bravo. Charlie aa delta.",
    "Echo a foxtrot! Golf aaaa hotel? No runs here.",
]

# Register + certify (cold, then cached).
spanner = json.loads(call("POST", "/spanners", {"pattern": PATTERN}))
splitter = json.loads(call("POST", "/splitters", {"builtin": "sentences"}))
pair = {"spanner": spanner["id"], "splitter": splitter["id"]}
cert = json.loads(call("POST", "/certify", pair))
assert cert["holds"] is True, f"pair must be self-split-correct: {cert}"
assert cert["cached"] is False, f"first certification must run: {cert}"
cert2 = json.loads(call("POST", "/certify", pair))
assert cert2["cached"] is True, f"second certification must hit the cache: {cert2}"

# Extract through the server, then offline; the relations payloads
# must be byte-identical (both sides share one JSON encoder). Wire
# responses lead with the protocol version; the offline reference is
# not a wire response and carries none.
prefix = '{"v":1,"relations":'
offline_prefix = '{"relations":'


def extract_relations(req):
    body = call("POST", "/extract", req).decode()
    assert body.startswith(prefix), f"unexpected extract shape: {body[:80]}"
    return body[len(prefix):body.index(',"stats":')]


def extract_stats(req):
    return json.loads(call("POST", "/extract", req))["stats"]


def offline_relations(docs, patterns=None, engine=None, splitter=None):
    target = {"pattern": PATTERN} if patterns is None else {"patterns": patterns}
    if engine is not None:
        target["engine"] = engine
    if splitter is None:
        target["splitter_builtin"] = "sentences"
    else:
        target["splitter"] = splitter
    offline_req = json.dumps({**target, "docs": docs})
    offline = subprocess.run(
        [bin_path, "--offline"], input=offline_req, capture_output=True,
        text=True, check=True).stdout.strip()
    assert offline.startswith(offline_prefix) and offline.endswith("}"), \
        f"unexpected offline shape: {offline[:80]}"
    return offline[len(offline_prefix):-1]


server_rel = extract_relations({**pair, "docs": DOCS})
offline_rel = offline_relations(DOCS)
assert server_rel == offline_rel, (
    "server and offline relations differ:\n"
    f"  server : {server_rel}\n  offline: {offline_rel}")
assert server_rel != "[]", "smoke corpus must produce tuples"

# Unknown fields are rejected with a typed 400 naming the key.
err = call("POST", "/extract", {**pair, "docs": DOCS, "dcos": []},
           expect=400).decode()
assert '"v":1' in err and "dcos" in err, f"unknown-field 400 names the key: {err}"

# Corpus resources: PUT shards, extract by id (fills the segment
# cache and the handle's per-shard memo), apply a point-edit delta,
# and prove the delta-maintained extraction answers byte-identically
# to offline full re-extraction of the edited corpus — with only the
# edited shard re-run and, inside it, only the edited segment
# re-evaluated.
call("PUT", "/corpus/smoke", {"splitter": splitter["id"], "shards": DOCS})
by_corpus = {"spanner": spanner["id"], "corpus": "smoke"}
stats0 = extract_stats(by_corpus)
assert stats0["docs_reused"] == 0, f"cold extract runs every shard: {stats0}"
stats0 = stats0["segment_cache"]
assert stats0["misses"] > 0 and stats0["hits"] == 0, \
    f"cold corpus extract misses every segment: {stats0}"
cold_misses = stats0["misses"]

# "Charlie aa delta." -> "Charlie aaa delta." (one segment touched).
edited = DOCS[0].replace("Charlie aa ", "Charlie aaa ")
start = DOCS[0].index("aa delta")
delta = json.loads(call("POST", "/corpus/smoke/delta", {
    "op": "edit", "shard": 0, "start": start, "end": start + 2,
    "text": "aaa"}))
assert delta["delta"]["segments_resplit"] >= 1, f"delta resplits: {delta}"

server_rel = extract_relations(by_corpus)
assert server_rel == offline_relations([edited, DOCS[1]]), \
    "delta-maintained extraction must equal offline full re-extraction"
stats1 = extract_stats(by_corpus)
assert stats1["docs_reused"] == len(DOCS), \
    f"an unchanged corpus re-extraction is answered from the memo: {stats1}"
stats1 = stats1["segment_cache"]
assert stats1["misses"] == cold_misses + 1, \
    f"a one-segment edit re-evaluates exactly one segment: {stats1}"
assert stats1["hits"] >= 1, \
    f"untouched segments of the edited shard are cache hits: {stats1}"

call("DELETE", "/corpus/smoke")
call("POST", "/extract", by_corpus, expect=404)

# Stats reflect the session: one certification miss (the corpus
# extractions certify the same pair — cache hits), exactly the two
# deliberate 4xx probes above, and six /extract requests (inline docs,
# the unknown-field 400, three corpus runs, the post-delete 404).
# Certification lookups: two /certify, the checked inline extract and
# the three corpus extracts; the two refused extracts fail before it.
stats = json.loads(call("GET", "/stats"))
assert stats["v"] == 1, f"stats responses carry the protocol version: {stats}"
cc = stats["registry"]["cert_cache"]
assert cc["misses"] == 1, f"exactly one cold certification expected: {cc}"
assert cc["hits"] + cc["misses"] == 2 + 1 + 3, \
    f"one lookup per /certify and checked /extract expected: {cc}"
assert stats["registry"]["corpora"] == 0, \
    f"the smoke corpus was deleted: {stats['registry']}"
assert stats["responses"]["client_4xx"] == 2 \
    and stats["responses"]["server_5xx"] == 0, \
    f"only the two deliberate 4xx probes expected: {stats['responses']}"
assert stats["latency"]["extract"]["count"] == 6, \
    f"six extracts recorded: {stats['latency']['extract']}"
assert stats["latency"]["corpus"]["count"] == 3, \
    f"PUT + delta + DELETE recorded: {stats['latency']['corpus']}"
assert stats["segment_cache"]["hits"] > 0 \
    and stats["segment_cache"]["evictions"] == 0, \
    f"segment cache served the corpus re-extractions: {stats['segment_cache']}"
assert stats["pool"]["workers"] == 4
# One fold of every run's report: one inline and three corpus runs, over
# 2 documents each (a corpus run counts its memo-reused shards too).
ex = stats["exec"]
assert ex["corpus_runs"] == 4 and ex["fleet_runs"] == 0, \
    f"one inline and three corpus spanner runs expected: {ex}"
assert ex["docs"] == 2 + 3 * 2, f"2 inline docs + 3 x 2 shards expected: {ex}"

# Fleet round trip (after the /stats counts above): register a second
# spanner, fuse both into a fleet, certify it, and compare its inline-docs
# relations byte-for-byte with the offline "patterns" form.
PATTERN2 = ".*y{b+}.*"
FLEET_DOCS = ["aa bb. ab ba.", "bbb a. Charlie aa delta."]
spanner2 = json.loads(call("POST", "/spanners", {"pattern": PATTERN2}))
fleet = json.loads(call("POST", "/fleets",
                        {"members": [spanner["id"], spanner2["id"]]}))
fleet_cert = json.loads(call("POST", "/certify",
                             {"fleet": fleet["id"], "splitter": splitter["id"]}))
assert fleet_cert["holds"] is True \
    and [m["verdict"] for m in fleet_cert["members"]] == ["holds", "holds"], \
    f"both fleet members must be self-split-correct: {fleet_cert}"
fleet_rel = extract_relations(
    {"fleet": fleet["id"], "splitter": splitter["id"], "docs": FLEET_DOCS})
offline_fleet = offline_relations(FLEET_DOCS, patterns=[PATTERN, PATTERN2])
assert fleet_rel == offline_fleet, (
    "server and offline fleet relations differ:\n"
    f"  server : {fleet_rel}\n  offline: {offline_fleet}")
assert '"y"' in fleet_rel and '"x"' in fleet_rel, \
    f"fleet smoke docs must produce tuples for both members: {fleet_rel}"
ex = json.loads(call("GET", "/stats"))["exec"]
assert ex["fleet_runs"] >= 1 and ex["fleet_dispatches"] > 0, \
    f"the fleet extract is folded into the totals: {ex}"

# One out-of-process differential per engine (after the /stats counts
# above): PATTERN registered under each engine name compiles to that
# tier, and its relations over DOCS are byte-identical to `--offline`
# run with the same engine.
for engine in ["nfa", "dense", "prefilter", "aot"]:
    entry = json.loads(call("POST", "/spanners",
                            {"pattern": PATTERN, "engine": engine}))
    assert entry["engine"] == engine and entry["tier"] == engine, \
        f"{engine} registers on its own tier: {entry}"
    engine_rel = extract_relations(
        {"spanner": entry["id"], "splitter": splitter["id"], "docs": DOCS})
    assert engine_rel == offline_relations(DOCS, engine=engine), \
        f"{engine}: server and offline relations differ: {engine_rel}"
    assert engine_rel != "[]", f"{engine}: smoke corpus must produce tuples"

# An over-budget pattern splitter (after the /stats counts above):
# `sentences` padded so its streaming phase DFAs exceed their budget,
# so it has no stream and each document is split whole. Its relations must
# be byte-identical to `--offline` with the same pattern and to the
# builtin-sentences reply.
OVER_BUDGET = r"((.*a...........)?.*\.)?x{[^.]+}(\..*)?"
padded = json.loads(call("POST", "/splitters", {"pattern": OVER_BUDGET}))
padded_pair = {"spanner": spanner["id"], "splitter": padded["id"]}
padded_cert = json.loads(call("POST", "/certify", padded_pair))
assert padded_cert["holds"] is True, \
    f"the padded splitter certifies like sentences: {padded_cert}"
padded_rel = extract_relations({**padded_pair, "docs": DOCS})
assert padded_rel == offline_relations(DOCS, splitter=OVER_BUDGET), \
    f"over-budget splitter: server and offline relations differ: {padded_rel}"
sentences_rel = extract_relations({**pair, "docs": DOCS})
assert padded_rel == sentences_rel, (
    "over-budget splitter must extract like builtin sentences:\n"
    f"  padded   : {padded_rel}\n  sentences: {sentences_rel}")

print("== round-trip OK: relations byte-identical to offline reference,"
      f" {len(json.loads(server_rel))} docs extracted; fleet of 2 agrees;"
      " all four engines agree; over-budget splitter agrees")
PY

# Graceful shutdown: SIGTERM -> in-flight work completes, exit 0.
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
test "$status" -eq 0 || { echo "server exited $status after SIGTERM:" >&2; cat "$log" >&2; exit 1; }
grep -q "shutdown complete" "$log" || { echo "no graceful-shutdown marker:" >&2; cat "$log" >&2; exit 1; }
trap 'rm -f "$log"' EXIT
echo "== graceful shutdown OK (exit 0)" >&2
echo "server smoke: all checks passed" >&2
