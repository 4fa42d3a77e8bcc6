#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark between two revisions.

Builds the benchmark (`BENCHMARK.json`'s `command`) for a parent and a
change revision into separate directories, runs N pairs of one workload,
alternating which side goes first, and prints per end-to-end metric:

  * each side's median and [q1, q3],
  * the change in medians, and how many pairs the change won
    (ties count for neither side),
  * one verdict line, following the paired-run rule:
      claim met / claim not met   for the `--claim` metric: met when the
                                  change wins at least 9/10 of the pairs
                                  and the medians differ (in the better
                                  direction) by more than the parent's
                                  interquartile range;
      worse than bound            the change's median is worse than the
                                  parent's by more than the metric's
                                  bound from BENCHMARK.json;
      unresolved                  it is not, but either side's
                                  interquartile range, relative to the
                                  parent's median, is wider than the
                                  bound, so the runs cannot tell;
      within bound                neither -- or every change run reads
                                  better than every parent run.

Each run's host calibration (`calibration_utf8_ms`) and failed/attempted
operation counts are printed too, so a swing that tracks the host shows.

After the builds, and again above the report, the script prints each
benchmark binary's `core::str::from_utf8` address mod 64 (read with
`nm`; `unknown` when `nm` or the symbol is missing) and warns when the
two sides differ: the serve workloads' JSON parser calls `from_utf8` per
character, so their speed follows where the linker placed it, and a
serve verdict between differently placed binaries measures layout as
well as code. Verdicts do not take the residues into account.

Revisions are exported with `git archive` into `<work>/<label>-<sha>/src`
and built into `<work>/<label>-<sha>/target`, so the checkout is never
touched and builds are reused across invocations. The special revision
`WORKTREE` builds the current checkout as it is, uncommitted edits
included. The script only reads BENCHMARK.json.

Usage:
    scripts/perf_pairs.py --parent HEAD~1 --change WORKTREE \\
        --workload batch-dense --pairs 10 --seconds 20 \\
        --seeds 124,125,126 --claim ops_per_s --work /tmp/perf-pairs

Importable: the statistics and verdict helpers are pure functions;
`scripts/test_perf_pairs.py` tests them without running any benchmark.
"""
import argparse
import json
import os
import re
import subprocess
import sys

WORKTREE = "WORKTREE"


def quartiles(xs):
    """(q1, median, q3) of `xs` by linear interpolation between order
    statistics (the 'inclusive' method); a single value is all three."""
    if not xs:
        raise ValueError("quartiles of no values")
    s = sorted(xs)

    def at(q):
        pos = q * (len(s) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def better(a, b, direction):
    """Whether value `a` is strictly better than `b` for a metric whose
    `better` field is `direction` ('higher' or 'lower')."""
    if direction == "higher":
        return a > b
    if direction == "lower":
        return a < b
    raise ValueError(f"unknown direction {direction!r}")


def wins(parent, change, direction):
    """Pairs (same index) in which the change reads strictly better."""
    if len(parent) != len(change):
        raise ValueError("parent and change need the same number of runs")
    return sum(better(c, p, direction) for p, c in zip(parent, change))


def relative_worsening(parent_median, change_median, direction):
    """How much worse the change's median is than the parent's, as a
    fraction of the parent's median (negative when it is better)."""
    if parent_median == 0:
        return 0.0 if change_median == parent_median else float("inf")
    delta = (change_median - parent_median) / abs(parent_median)
    return -delta if direction == "higher" else delta


def verdict(spec, parent, change, claim=False):
    """The verdict line's text for one metric.

    `spec` is the metric's BENCHMARK.json entry (`name`, `better`,
    `bound`); `parent` and `change` are the per-pair values, index i of
    both coming from pair i.
    """
    direction = spec["better"]
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    if claim:
        won = wins(parent, change, direction)
        gap_ok = better(cmed, pmed, direction) and abs(cmed - pmed) > (pq3 - pq1)
        met = won * 10 >= 9 * len(parent) and gap_ok
        return "claim met" if met else "claim not met"
    if all(better(c, p, direction) for c in change for p in parent):
        return "within bound"
    bound = spec["bound"]
    if relative_worsening(pmed, cmed, direction) > bound:
        return "worse than bound"
    spread = max(pq3 - pq1, cq3 - cq1) / abs(pmed) if pmed else 0.0
    if spread > bound:
        return "unresolved"
    return "within bound"


def parse_run(stdout):
    """(calibration_utf8_ms or None, final JSON object) of one benchmark
    run's standard output."""
    cal = None
    m = re.search(r"calibration_utf8_ms=([0-9.]+)", stdout)
    if m:
        cal = float(m.group(1))
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        raise ValueError("benchmark printed nothing")
    return cal, json.loads(lines[-1])


def format_report(metrics, runs, claim=None):
    """The summary table and verdict lines. `runs` is a list of pairs
    `(parent_result, change_result)`, each a parsed final JSON object."""
    out = []
    for spec in metrics:
        name = spec["name"]
        parent = [p["metrics"][name]["value"] for p, _ in runs]
        change = [c["metrics"][name]["value"] for _, c in runs]
        pq = quartiles(parent)
        cq = quartiles(change)
        delta = (cq[1] - pq[1]) / abs(pq[1]) * 100 if pq[1] else float("nan")
        won = wins(parent, change, spec["better"])
        out.append(
            f"{name:<12} parent {pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}]  "
            f"change {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}]  "
            f"delta median {delta:+.1f}%  change won {won}/{len(runs)}"
        )
    for spec in metrics:
        name = spec["name"]
        parent = [p["metrics"][name]["value"] for p, _ in runs]
        change = [c["metrics"][name]["value"] for _, c in runs]
        is_claim = name == claim
        v = verdict(spec, parent, change, claim=is_claim)
        kind = "claimed, better " + spec["better"] if is_claim else f"bound {spec['bound']}"
        out.append(f"verdict {name}: {v} ({kind})")
    return out


UTF8_SYMBOL = "core3str8converts9from_utf8"


def utf8_residue(nm_output):
    """`core::str::from_utf8`'s address mod 64 in `nm` output (the
    defined symbol whose mangled name ends with UTF8_SYMBOL), or None
    when it is not there."""
    for line in nm_output.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[2].endswith(UTF8_SYMBOL):
            try:
                return int(fields[0], 16) % 64
            except ValueError:
                return None
    return None


def residue_lines(parent, change):
    """The residue report: one line with both sides (`unknown` for None)
    and a warning line when both are known and differ."""
    shown = ["unknown" if r is None else str(r) for r in (parent, change)]
    out = [f"from_utf8 address mod 64: parent {shown[0]}, change {shown[1]}"]
    if parent is not None and change is not None and parent != change:
        out.append(
            "warning: from_utf8 residues differ; serve-* timings follow code "
            "layout as well as code"
        )
    return out


def binary_residue(src, target, command):
    """utf8_residue of the benchmark binary built from `src` into
    `target`, or None when `nm` fails or is not installed."""
    manifest = command[command.index("--manifest-path") + 1]
    with open(os.path.join(src, manifest)) as f:
        name = re.search(r'^name\s*=\s*"([^"]+)"', f.read(), re.M).group(1)
    try:
        done = subprocess.run(
            ["nm", os.path.join(target, "release", name)], capture_output=True, text=True
        )
    except OSError:
        return None
    return utf8_residue(done.stdout) if done.returncode == 0 else None


def git(repo, *args):
    return subprocess.run(
        ["git", "-C", repo, *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def prepare(repo, work, label, rev, command):
    """Exports `rev` (or uses the checkout for WORKTREE) and builds the
    benchmark; returns (source dir, target dir)."""
    if rev == WORKTREE:
        src, target = repo, os.path.join(work, f"{label}-worktree", "target")
    else:
        sha = git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}")
        base = os.path.join(work, f"{label}-{sha[:12]}")
        src, target = os.path.join(base, "src"), os.path.join(base, "target")
        if not os.path.isdir(src):
            # Extract beside `src` and rename, so an interrupted export
            # is never mistaken for a finished one.
            partial = src + ".partial"
            subprocess.run(["rm", "-rf", partial], check=True)
            os.makedirs(partial)
            archive = subprocess.Popen(
                ["git", "-C", repo, "archive", sha], stdout=subprocess.PIPE
            )
            subprocess.run(["tar", "-x", "-C", partial], stdin=archive.stdout, check=True)
            if archive.wait() != 0:
                raise SystemExit(f"git archive {rev} failed")
            os.rename(partial, src)
    build = list(command[: command.index("--")] if "--" in command else command)
    build[build.index("run")] = "build"
    print(f"building {label} ({rev}) ...", file=sys.stderr, flush=True)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    subprocess.run(build, cwd=src, env=env, check=True)
    return src, target


def run_once(command, src, target, args):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(
        command + args, cwd=src, env=env, capture_output=True, text=True
    )
    if done.returncode not in (0, 1):
        sys.stderr.write(done.stderr)
        raise SystemExit(f"benchmark exited {done.returncode}")
    return parse_run(done.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", required=True, help=f"git revision, or {WORKTREE}")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--seeds", default="1", help="comma-separated, cycled over pairs")
    ap.add_argument("--claim", default=None, help="the end-to-end metric claimed to improve")
    ap.add_argument("--work", required=True, help="directory for exports and builds")
    ap.add_argument("--repo", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    a = ap.parse_args(argv)

    with open(os.path.join(a.repo, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    if a.claim is not None and a.claim not in {m["name"] for m in metrics}:
        raise SystemExit(f"--claim {a.claim} is not an end-to-end metric")
    seconds = a.seconds if a.seconds is not None else bench["run_seconds"]
    seeds = [s.strip() for s in a.seeds.split(",") if s.strip()]
    command = bench["command"]

    sides = {
        "parent": prepare(a.repo, a.work, "parent", a.parent, command),
        "change": prepare(a.repo, a.work, "change", a.change, command),
    }
    residues = residue_lines(*(binary_residue(*sides[side], command) for side in ("parent", "change")))
    for line in residues:
        print(line, flush=True)
    runs = []
    for i in range(a.pairs):
        seed = seeds[i % len(seeds)]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        args = ["--workload", a.workload, "--seed", seed,
                "--seconds", f"{seconds:g}", "--trace", "0"]
        got = {}
        for side in order:
            cal, result = run_once(command, *sides[side], args)
            got[side] = result
            shown = " ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.4g}" for m in metrics
            )
            print(
                f"pair {i + 1} seed {seed} {side:<6} ({order[0]} first) "
                f"calibration_utf8_ms={cal} correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']} {shown}",
                flush=True,
            )
        runs.append((got["parent"], got["change"]))
    print()
    for line in residues + format_report(metrics, runs, a.claim):
        print(line)
    bad = [s for p, c in runs for s, r in (("parent", p), ("change", c))
           if not r["correct"] or r["failed"]]
    if bad:
        print(f"failed or incorrect runs: parent {bad.count('parent')}, change {bad.count('change')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
