#!/usr/bin/env python3
"""Builds bench_ledger and runs one workload; the last stdout line is JSON.

Usage (from the repository root):

    python3 bench/ledger/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/ledger/run.py --smoke

The build lands in build-ledger/ at the repository root (configured on
first use). The workload runs as its own process; its log goes to stderr.
The final stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (untraced runs) or every
per-layer metric (--trace 1, which also checks the Chrome trace file).
--json-dir DIR keeps the binary's full JSON output there, for compare.py.
--smoke builds, then runs all four workloads shrunk and traced, as a quick
harness check. Exits non-zero, printing no result, when the build fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-ledger")
BINARY = os.path.join(BUILD, "bench_ledger")
RUN_TIMEOUT_S = 170

WORKLOADS = ["batch_multiclass", "batch_oneclass", "edit_session", "daemon_mixed"]

# Spans a traced run must contain, beyond the layer replay's.
REPLAY_SPANS = [
    "ledger.replay", "merge.fingerprint", "merge.structural_hash",
    "codesize.size_model", "merge.candidate_index.insert",
    "merge.candidate_index.query", "align.linearize", "align.nw",
    "merge.codegen", "ir.verifier", "workloads.build", "interp.run",
]
WORKLOAD_SPANS = {
    "batch_multiclass": ["ledger.rep", "merge.session.cold",
                         "merge.session.warm", "check.print",
                         "merge.decision_cache.load",
                         "merge.decision_cache.save"],
    "edit_session": ["ledger.setup", "ledger.epoch", "workloads.plan_script",
                     "merge.service.initialize", "merge.service.begin_delta",
                     "merge.service.checkout", "workloads.edit_step",
                     "merge.service.apply", "check.cold_reference",
                     "merge.session.cold"],
    "daemon_mixed": ["ledger.setup", "ledger.request", "workloads.plan_script",
                     "service.daemon.start", "service.rpc.register",
                     "service.rpc.begin_delta", "service.rpc.apply_delta",
                     "service.rpc.query_stats", "check.cold_reference",
                     "merge.session.cold", "twin.epoch", "merge.service.apply",
                     "merge.service.checkout", "service.protocol.codec"],
}
WORKLOAD_SPANS["batch_oneclass"] = WORKLOAD_SPANS["batch_multiclass"]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_env():
    """Keeps compiler and program temporaries inside the build directory."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def build():
    os.makedirs(BUILD, exist_ok=True)
    env = build_env()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "bench_ledger"])
    for cmd in steps:
        rc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                            stderr=sys.stderr).returncode
        if rc != 0:
            log("run.py: build step failed:", " ".join(cmd))
            if cmd[1] == "-S":  # a half-configured tree must not be reused
                shutil.rmtree(BUILD, ignore_errors=True)
            return False
    return True


def trace_problems(path, workload):
    """Returns why the trace file is not valid Chrome trace JSON with every
    expected span, or an empty list."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        names = {e["name"] for e in events if e.get("ph") == "X"}
    except (OSError, ValueError, KeyError, TypeError) as e:
        return ["unreadable trace %s: %s" % (path, e)]
    wanted = REPLAY_SPANS + WORKLOAD_SPANS[workload]
    return ["span %s missing from the trace" % n for n in wanted
            if n not in names]


def run_workload(workload, seed, seconds, trace, smoke=False, json_dir=None):
    """Runs the binary once; returns the result dict, or None when
    the run produced no output at all."""
    workdir = os.path.join("build-ledger", "run")
    os.makedirs(os.path.join(ROOT, workdir), exist_ok=True)
    stem = os.path.join(ROOT, workdir, "%s-%d-%d" % (workload, seed,
                                                     os.getpid()))
    json_path = stem + ".json"
    trace_path = os.path.join(ROOT, workdir, "trace-%s.json" % workload)
    cmd = [BINARY, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--json=" + json_path,
           "--workdir=" + workdir]
    if trace:
        cmd.append("--trace=" + trace_path)
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=build_env(),
                              stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        log("run.py: %s exceeded %d s" % (workload, RUN_TIMEOUT_S))
        rc = -1
    try:
        with open(json_path) as f:
            out = json.load(f)
    except (OSError, ValueError):
        log("run.py: no output from bench_ledger (exit %d)" % rc)
        return None
    if json_dir:
        os.makedirs(json_dir, exist_ok=True)
        shutil.copy(json_path, os.path.join(
            json_dir, os.path.basename(stem) + ("-trace" if trace else "")
            + ".json"))
    os.remove(json_path)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    source = out["layers"] if trace else out["metrics"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    problems = ["metric %s missing" % m["name"] for m in wanted
                if m["name"] not in source]
    if trace:
        problems += trace_problems(trace_path, workload)
    for p in problems:
        log("run.py:", p)
    metrics = {m["name"]: {"value": source[m["name"]]["value"],
                           "unit": source[m["name"]]["unit"]}
               for m in wanted if m["name"] in source}
    return {"correct": bool(out["correct"]) and rc == 0 and not problems,
            "attempted": int(out["attempted"]) + len(problems),
            "failed": int(out["failed"]) + len(problems),
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--json-dir", help="keep the binary's JSON output here")
    ap.add_argument("--smoke", action="store_true",
                    help="run all four workloads shrunk and traced")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")
    if not build():
        return 1
    if args.smoke:
        ok = True
        for w in WORKLOADS:
            res = run_workload(w, args.seed, args.seconds, True, smoke=True)
            good = bool(res and res["correct"])
            log("smoke %-18s %s" % (w, "ok" if good else "FAILED"))
            ok &= good
        return 0 if ok else 1
    res = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace), json_dir=args.json_dir)
    if res is None:
        return 1
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
