#!/usr/bin/env python3
"""Builds and runs auditbench, the benchmark of LibSEAL's audited request path.

Usage (from the repository root):

    python3 auditbench/run.py --workload git-push --seed 1 --seconds 10 --trace 0

The first run configures and builds the LibSEAL libraries and the benchmark
binary under .bench_build/ (a few minutes); later runs reuse the build. The
last line of standard output is the JSON result; the line before it carries
the run's details and host fingerprint. Exits non-zero, printing no result,
when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "auditbench")
OUT_DIR = os.path.join(".bench_build", "out")
WORKLOADS = ("git-push", "git-fetch-check", "tls-churn")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("auditbench: " + message, file=sys.stderr)
    sys.exit(1)


def child_env():
    """The environment for the build and the run: temporary files (the
    compiler's included) stay inside the checkout."""
    tmp = os.path.abspath(os.path.join(".bench_build", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(timeout_s):
    """Configures (once) and builds the benchmark; returns the binary path."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "auditbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=timeout_s, env=child_env()).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step failed: %s" % e)
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (see %s)" % log_path)
    return os.path.join(BUILD_DIR, "auditbench")


def source_digest():
    """SHA-256 over the program and benchmark sources (the checkout may not
    be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", os.path.relpath(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    """HEAD of the checkout, when the checkout itself is a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or lines[0] != os.getcwd():
        return "unavailable"
    return lines[1]


def expected_metrics(trace):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build(BUILD_TIMEOUT_S)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT_DIR]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                             env=child_env())
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("details: "):
        sys.stderr.write(run.stdout[-4000:])
        fail("run failed with exit code %d" % run.returncode)
    try:
        details = json.loads(lines[-2][len("details: "):])
        result = json.loads(lines[-1])
    except ValueError as e:
        fail("unparsable output: %s" % e)
    if set(result) != RESULT_KEYS:
        fail("result keys %s" % sorted(result))
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        fail("metrics %s do not match BENCHMARK.json"
             % sorted(set(result["metrics"]) ^ want))

    details["fingerprint"]["git_sha"] = git_sha()
    details["fingerprint"]["source_sha256"] = source_digest()
    details["result"] = result
    record = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                          % (args.workload, args.seed, args.trace))
    with open(record, "w") as f:
        json.dump(details, f, indent=1)
    del details["result"]
    print("details: " + json.dumps(details))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
