#!/usr/bin/env python3
"""SOFT campaign benchmark.

Run from the root of a source tree:

    python3 perfbench/run.py --workload stateless-sweep --seed 1 --seconds 20 --trace 0

Builds perfbench/campaign.exe from the tree's sources (release profile,
build directory _perfbench_build), then measures one workload for
--seconds seconds in a closed loop: one client, each campaign started
when the previous one has finished, every campaign in a fresh process.
Every campaign's verdict digest is checked against perfbench/expected.json.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics under --trace 0 and the per-layer metrics of
a separate traced run under --trace 1. The line before it records the
host (nproc, OCaml version, commit) and the raw per-campaign figures.
Trace spans and full results are written under _perfbench_out/.

    python3 perfbench/run.py --pin

re-measures every workload once and rewrites perfbench/expected.json;
use it only when a change is meant to alter verdicts.

See perfbench/README.md for the metrics, the workloads and why.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

BENCH_DIR = "perfbench"
BUILD_DIR = "_perfbench_build"
OUT_DIR = "_perfbench_out"
EXE = os.path.join(BUILD_DIR, "default", BENCH_DIR, "campaign.exe")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")

# Dialect.all, paper order; the seed permutes it.
DIALECTS = ["postgresql", "mysql", "mariadb", "clickhouse", "monetdb",
            "duckdb", "virtuoso"]
WORKLOADS = ["stateless-sweep", "scenario-sweep", "default-sharded"]

# Set-up is ~30 ms per sweep, so each run takes the median of many
# samples.
SETUP_SAMPLES = 15
# Every run ends within this many seconds of its start (after the build).
RUN_DEADLINE_S = 170.0
BUILD_TIMEOUT_S = 840.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def check_tree(need_pins):
    needed = ["dune-project", os.path.join("lib", "core", "soft_runner.ml"),
              os.path.join(BENCH_DIR, "dune")] + ([EXPECTED] if need_pins else [])
    for path in needed:
        if not os.path.isfile(path):
            die("not the root of a SOFT source tree (missing %s)" % path)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        p = subprocess.run(
            ["dune", "build", "--release", "--build-dir", BUILD_DIR,
             "./%s/campaign.exe" % BENCH_DIR],
            env=env, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e, 1)
    if p.returncode != 0:
        log(p.stderr[-4000:])
        die("build failed", 1)


def host_facts(nproc):
    def sh(cmd):
        try:
            p = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
            return p.stdout.strip() if p.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            return None

    # The checkout may not be a git repository: the source digest names
    # the measured code either way.
    h = hashlib.sha256()
    for top in ["lib", "bin", BENCH_DIR]:
        for d, dirs, files in os.walk(top):
            dirs.sort()
            for f in sorted(files):
                if f == "dune" or f.endswith((".ml", ".mli")):
                    path = os.path.join(d, f)
                    h.update(path.encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return {
        "nproc": nproc,
        "ocaml": sh(["ocamlopt", "-version"]),
        "commit": sh(["git", "rev-parse", "HEAD"]) or "unknown",
        "source_sha256": h.hexdigest(),
    }


class Deadline(Exception):
    pass


def run_exe(args, deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise Deadline()
    try:
        p = subprocess.run([EXE] + args, capture_output=True, text=True,
                           timeout=left)
    except subprocess.TimeoutExpired:
        raise Deadline()
    if p.returncode != 0:
        log(p.stderr[-2000:])
        return None
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_campaigns(result, pins):
    """(cases executed, cases attempted, cases failed, bugs, branches).

    A campaign counts as failed, with its pinned case count, when it
    raised or its verdict digest differs from the pin."""
    attempted = sum(p["cases"] for p in pins.values())
    if result is None:
        return 0, attempted, attempted, 0, 0
    executed = failed = bugs = branches = 0
    seen = set()
    for c in result["campaigns"]:
        d = c["dialect"]
        seen.add(d)
        pin = pins[d]
        if "error" in c:
            log("campaign %s raised: %s" % (d, c["error"]))
            failed += pin["cases"]
            continue
        executed += c["cases"]
        bugs += c["bugs"]
        branches += c["branches"]
        if any(c[k] != pin[k] for k in ["cases", "bugs", "branches", "digest"]):
            log("campaign %s: verdicts differ from the pin: %s vs %s"
                % (d, json.dumps(c), json.dumps(pin)))
            failed += pin["cases"]
    failed += sum(p["cases"] for d, p in pins.items() if d not in seen)
    return executed, attempted, failed, bugs, branches


def median(xs):
    return statistics.median(xs) if xs else 0.0


def untraced_rep(w, jobs, order, deadline):
    """One sweep: each dialect campaign in a fresh process, as the CLI
    runs it. The sweep's wall time is the sum of the campaign times
    measured in-process; its peak heap is the mean of the campaign
    processes' peaks."""
    campaigns, wall_ns, peaks = [], 0, []
    for d in order:
        r = run_exe(["run", w, jobs, d], deadline)
        if r is None:
            continue
        campaigns += r["campaigns"]
        wall_ns += r["wall_ns"]
        peaks.append(r["peak_heap_bytes"])
    return {"campaigns": campaigns, "wall_ns": wall_ns,
            "peak_heap_bytes": statistics.mean(peaks) if peaks else 0}


def measure(args, pins, order, nproc):
    deadline = time.monotonic() + RUN_DEADLINE_S
    w, jobs = args.workload, str(nproc)
    trace_file = os.path.join(OUT_DIR, "trace-%s-seed%d.jsonl"
                              % (w, args.seed))
    attempted = failed = 0
    reps, traced, setups = [], [], []
    try:
        # A set-up sample is every dialect's set-up, each in a cold process.
        for _ in range(SETUP_SAMPLES):
            ns = [run_exe(["setup", d], deadline) for d in order]
            if all(ns):
                setups.append(sum(r["setup_ns"] for r in ns) / 1e9)
        t0 = time.monotonic()
        # Closed loop: the next campaign starts when the last has ended.
        # Under --trace 1 untraced and traced sweeps alternate. A sweep
        # starts only if one more of average length still fits in
        # --seconds, so a run's length does not depend on how the last
        # sweep straddles the limit.
        while True:
            n = len(reps) + len(traced)
            elapsed = time.monotonic() - t0
            if reps and (traced or not args.trace) and \
                    elapsed * (n + 1) / n > args.seconds:
                break
            want_trace = args.trace and len(traced) < len(reps)
            if want_trace:
                r = run_exe(["trace", w, jobs, ",".join(order), trace_file],
                            deadline)
            else:
                r = untraced_rep(w, jobs, order, deadline)
            executed, att, fail, bugs, branches = check_campaigns(r, pins)
            attempted += att
            failed += fail
            if r is None or not r["wall_ns"]:
                (traced if want_trace else reps).append(None)
                continue
            rep = {"wall_s": r["wall_ns"] / 1e9, "cases": executed,
                   "cases_per_s": executed / (r["wall_ns"] / 1e9),
                   "bugs": bugs, "branches": branches}
            if want_trace:
                rep["layers"] = r["layers"]
                traced.append(rep)
            else:
                rep["peak_heap_mb"] = r["peak_heap_bytes"] / 2 ** 20
                reps.append(rep)
    except Deadline:
        log("run deadline reached; the unfinished sweep counts as failed")
        attempted += sum(p["cases"] for p in pins.values())
        failed += sum(p["cases"] for p in pins.values())
    return reps, traced, setups, attempted, failed


def end_to_end(reps, setups, attempted, failed):
    ok = [r for r in reps if r is not None]
    return {
        "cases_per_s": (median([r["cases_per_s"] for r in ok]), "cases/s"),
        "setup_s": (median(setups), "s"),
        "peak_heap_mb": (median([r["peak_heap_mb"] for r in ok]), "MB"),
        "bugs_found": (median([r["bugs"] for r in ok]), "count"),
        "branches_covered": (median([r["branches"] for r in ok]), "count"),
        "verified_share": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(reps, traced):
    ok = [r for r in traced if r is not None]
    if not ok:
        return {}
    names = list(ok[0]["layers"])
    out = {n: (median([r["layers"][n]["value"] for r in ok]),
               ok[0]["layers"][n]["unit"]) for n in names}
    untraced = median([r["cases_per_s"] for r in reps if r is not None])
    traced_cps = median([r["cases_per_s"] for r in ok])
    out["trace.overhead_pct"] = (
        100.0 * (untraced - traced_cps) / untraced if untraced else 0.0, "%")
    return out


def pin():
    nproc = len(os.sched_getaffinity(0))
    pins = {}
    for w in WORKLOADS:
        r = run_exe(["run", w, str(nproc), ",".join(DIALECTS)],
                    time.monotonic() + RUN_DEADLINE_S)
        if r is None or any("error" in c for c in r["campaigns"]):
            die("pinning %s failed" % w, 1)
        t = run_exe(["trace", w, str(nproc), ",".join(DIALECTS),
                     os.path.join(OUT_DIR, "pin-%s.jsonl" % w)],
                    time.monotonic() + RUN_DEADLINE_S)
        if t is None or t["campaigns"] != r["campaigns"]:
            die("traced %s does not reproduce the untraced verdicts" % w, 1)
        pins[w] = {c["dialect"]: {k: c[k] for k in
                                  ["cases", "bugs", "branches", "digest"]}
                   for c in r["campaigns"]}
        log("%s: %d cases, %d bugs" % (
            w, sum(p["cases"] for p in pins[w].values()),
            sum(p["bugs"] for p in pins[w].values())))
    with open(EXPECTED, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()
    check_tree(not args.pin)
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.pin:
        pin()
        return
    if args.workload is None:
        die("--workload is required")
    with open(EXPECTED) as fh:
        pins = json.load(fh)[args.workload]
    nproc = len(os.sched_getaffinity(0))
    # The workloads enumerate their cases exhaustively; the seed only
    # permutes the order the dialect campaigns run in.
    order = list(DIALECTS)
    random.Random(args.seed).shuffle(order)

    reps, traced, setups, attempted, failed = measure(args, pins, order, nproc)
    if args.trace:
        metrics = per_layer(reps, traced)
    else:
        metrics = end_to_end(reps, setups, attempted, failed)
    correct = failed == 0 and bool(metrics)
    context = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "order": order, "host": host_facts(nproc),
               "campaigns": reps, "traced_campaigns": traced,
               "setup_s": setups}
    with open(os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as fh:
        json.dump(context, fh, indent=1)
    print(json.dumps(context))
    print(json.dumps({
        "correct": correct, "attempted": max(1, attempted), "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))


if __name__ == "__main__":
    main()
