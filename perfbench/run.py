#!/usr/bin/env python3
"""Builds the benchmark program against this repository and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --check-determinism [--workload <serving workload>] [--seed <n>]

The first form prints, as its last line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: every end-to-end metric of
BENCHMARK.json with `--trace 0`, every per-layer metric with `--trace 1`.
The full record (samples per metric, exact virtual-clock values, every
correctness check, the workload's SLO limits, the CPU time behind the
wall-clock host metrics, and the environment: nproc, workers, compiler,
build type, LTO, git sha, seed) is stored under .bench_build/perfbench/results/.

The second form runs one serving workload at 1 worker and at the pool size
and byte-compares every virtual-clock and quality value (the CKV_THREADS
determinism contract); it exits non-zero on any difference.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# One process with at most two workers, and never more than the cores this
# process may use: the pool still fans out, and host timings stay steadier
# on a machine shared with other jobs (on one seed of serve_decode_heavy,
# four workers measured 13.0k-20.9k tok/s, one worker 18.1k-19.4k).
MAX_WORKERS = 2
BUILD_JOBS = 4
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def available_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail(f"{path} is missing")
    with open(path) as f:
        return json.load(f)


def check_sources():
    for rel in ("CMakeLists.txt", os.path.join("src", "serve", "batch_scheduler.hpp")):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            fail(f"repository source {rel} not found next to perfbench/; "
                 "run from a full checkout")


def build():
    """Configures (Release only) and builds the program; incremental."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    # Invocations sharing a checkout build one at a time.
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        build_locked()


def build_locked():
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(min(BUILD_JOBS, available_cores()))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            try:
                proc = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, cwd=ROOT)
            except subprocess.TimeoutExpired:
                fail(f"build step timed out: {' '.join(step)}")
            if proc.returncode != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                fail(f"build failed ({' '.join(step)}):\n{tail}")
    build_type = None
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type != "Release":
        fail(f"refusing to time a {build_type!r} build; only Release is timed")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired) as e:
        return f"unknown ({e})"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_binary(workload, seed, seconds, trace, workers, spans_out=None):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace)]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    env = dict(os.environ, CKV_THREADS=str(workers))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"perfbench exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, spec):
    workloads = {w["name"]: w for w in spec["workloads"]}
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; BENCHMARK.json lists "
             f"{', '.join(workloads)}")
    if args.trace not in ("0", "1"):
        fail("--trace takes 0 or 1")
    trace = int(args.trace)
    workers = min(MAX_WORKERS, available_cores())
    spans_out = None
    if trace:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans_out = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")
    out = run_binary(args.workload, args.seed, args.seconds, trace, workers, spans_out)

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        got = out["metrics"].get(m["name"])
        if got is None:
            fail(f"perfbench did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']!r} != BENCHMARK.json {m['unit']!r}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    extra = set(out["metrics"]) - set(metrics)
    if extra:
        fail(f"perfbench reported metrics BENCHMARK.json does not declare: {sorted(extra)}")

    checks = list(out["checks"])
    if out["env"]["workers"] > available_cores():
        checks.append({"name": "workers <= nproc", "ok": False,
                       "detail": f"{out['env']['workers']} > {available_cores()}"})
    correct = bool(out["correct"]) and all(c["ok"] for c in checks)
    for c in checks:
        if not c["ok"]:
            print(f"check failed: {c['name']} {c['detail']}", file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": trace,
        "seconds": args.seconds,
        "env": dict(out["env"], nproc=available_cores(), cpu_count=os.cpu_count(),
                    git_sha=git_sha(), seed=args.seed),
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "replays": out["replays"],
        "metrics": out["metrics"],
        "slo": out["slo"],
        "host_cpu": out["host_cpu"],
        "virtual": out["virtual"],
        "checks": checks,
        "spans": spans_out,
    }
    results_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    env = record["env"]
    print(f"# {args.workload} seed={args.seed} trace={trace} replays={out['replays']} "
          f"nproc={env['nproc']} workers={env['workers']} compiler={env['compiler']} "
          f"build={env['build_type']} lto={env['lto']} git={env['git_sha']} -> {path}",
          file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))


def check_determinism(args, spec):
    names = [w["name"] for w in spec["workloads"] if w["name"].startswith("serve_")]
    workload = args.workload or names[0]
    if workload not in names:
        fail(f"--check-determinism takes a serving workload: {', '.join(names)}")
    # The benchmark's pool size, and every core available up to BUILD_JOBS
    # (more workers interleave more).
    pools = sorted({1, min(MAX_WORKERS, available_cores()), min(BUILD_JOBS, available_cores())})
    if pools == [1]:
        print("note: 1 core available; the comparison is 1 worker against itself")
    runs = {}
    for workers in pools:
        out = run_binary(workload, args.seed, 0, 0, workers)
        if not out["correct"]:
            fail(f"checks failed at {workers} worker(s)")
        runs[workers] = out["virtual"]
    base = runs[1]
    differ = 0
    for workers in pools[1:]:
        diff = [k for k in sorted(set(base) | set(runs[workers]))
                if base.get(k) != runs[workers].get(k)]
        for k in diff:
            print(f"DIFF {k}: {base.get(k)} (1 worker) vs {runs[workers].get(k)} "
                  f"({workers} workers)")
        differ += len(diff)
    print(f"{workload} seed={args.seed}: {len(base)} virtual-clock and quality values, "
          f"workers {pools}: {'identical' if not differ else f'{differ} differ'}")
    sys.exit(1 if differ else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", default="0")
    parser.add_argument("--check-determinism", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    started = time.monotonic()
    check_sources()
    spec = load_spec()
    build()
    print(f"# build/up-to-date check took {time.monotonic() - started:.1f} s", file=sys.stderr)
    if args.check_determinism:
        check_determinism(args, spec)
    elif not args.workload:
        fail("--workload is required")
    else:
        measure(args, spec)


if __name__ == "__main__":
    main()
