#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The script

1. builds the measuring program (perfbench/perfbench.ml) from source
   with dune, into .bench_build/;
2. generates the workload's inputs from the seed, in a fresh process,
   into .perfbench_work/ (the measuring process gets only those files);
3. measures for about S seconds in another fresh process, with every
   SJOS_* and OCAMLRUNPARAM variable removed from its environment;
4. checks the outputs: the program's own checks, plus the answers
   pinned in perfbench/pins.json for the seeds listed there;
5. prints a readable summary and, as its last line, one JSON object
   with "correct", "attempted", "failed" and "metrics" -- the end-to-end
   metrics of BENCHMARK.json with --trace 0, the per-layer ones with
   --trace 1.

It exits 0 only when every check passed.  With --trace 1 the recorded
spans are kept in .perfbench_work/spans-<workload>.jsonl.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
WORK_ROOT = ".perfbench_work"
TARGET = "./perfbench/perfbench.exe"
WORKLOADS = ("cold-mbench", "hot-serve", "optimize-novel")

# Limits, so that one run ends within 180 s (900 s for a run that builds
# from scratch).
BUILD_TIMEOUT_S = 840
GEN_TIMEOUT_S = 60


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def clean_env(work):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SJOS_") and k != "OCAMLRUNPARAM"}
    env["TMPDIR"] = os.path.abspath(work)
    return env


def build():
    for needed in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(needed):
            fail("not a source checkout (missing %s); run from the repository root"
                 % needed)
    if shutil.which("dune") is None:
        fail("dune not found")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", TARGET]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           timeout=BUILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        fail("build failed")
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
    if not os.path.exists(exe):
        fail("build produced no %s" % exe)
    return exe


def run_step(cmd, env, timeout):
    """Run one step in its own process; never leave it running."""
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         env=env, text=True)
    try:
        out, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        p.kill()
        p.communicate()
        fail("%s timed out after %d s" % (cmd[1], timeout))
    if p.returncode != 0:
        sys.stderr.write(err)
        fail("%s exited with %d" % (cmd[1], p.returncode))
    return out


def check_pins(workload, seed, report):
    """Compare the run's answers with pins.json; return error strings."""
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)
    errors = []
    answers = report["answers"]
    for pinned in (pins["all_seeds"].get(workload, {}),
                   pins["seeds"].get(str(seed), {}).get(workload, {})):
        for key, want in pinned.get("answers", {}).items():
            if answers.get(key) != want:
                errors.append("%s: %s, pinned %s" % (key, answers.get(key), want))
        for key, want in pinned.get("counts", {}).items():
            got = report["counts"].get(key, {}).get("value")
            if got != want:
                errors.append("count %s: %s, pinned %s" % (key, got, want))
    return errors


def metric_names(kind):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return [(m["name"], m["unit"]) for m in bench[kind]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    traced = args.trace == "1"

    t0 = time.time()
    exe = build()
    build_s = time.time() - t0
    t0 = time.time()

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    spans_out = os.path.join(WORK_ROOT, "spans-%s.jsonl" % args.workload)
    try:
        env = clean_env(work)
        run_step([exe, "gen", "--workload", args.workload, "--seed", str(args.seed),
                  "--dir", work], env, GEN_TIMEOUT_S)
        cmd = [exe, "run", "--workload", args.workload, "--dir", work,
               "--seconds", repr(args.seconds), "--trace", args.trace]
        if traced:
            cmd += ["--spans-out", spans_out]
        # the measuring loop runs --seconds; set-up, checks and a last
        # operation that overruns need the rest
        out = run_step(cmd, env, 165 - (time.time() - t0))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("the measuring program printed no report")
    report = json.loads(lines[-1])
    pin_errors = check_pins(args.workload, args.seed, report)
    errors = report["errors"] + pin_errors
    failed = report["failed"] + len(pin_errors)
    attempted = report["attempted"]

    kind = "per_layer" if traced else "end_to_end"
    source = report["per_layer"] if traced else report["metrics"]
    metrics = {}
    for name, unit in metric_names(kind):
        if name not in source:
            fail("the report lacks metric %s" % name)
        metrics[name] = {"value": source[name]["value"], "unit": unit}

    samples = report["samples"]
    print("workload %s  seed %d  seconds %g  trace %s  (build %.1f s)"
          % (args.workload, args.seed, args.seconds, args.trace, build_s))
    print("config  %s" % json.dumps(report["config"], sort_keys=True))
    print("samples %s" % json.dumps(samples, sort_keys=True))
    for name, m in metrics.items():
        print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    print("answers %s" % json.dumps(report["answers"], sort_keys=True))
    print("counts  %s" % json.dumps(report["counts"], sort_keys=True))
    print("detail  %s" % json.dumps(report["detail"], sort_keys=True))
    for e in errors:
        print("CHECK FAILED: %s" % e)
    if traced:
        print("spans   %s" % spans_out)
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
