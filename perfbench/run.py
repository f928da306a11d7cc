#!/usr/bin/env python3
"""Run one workload of the impact end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout (a git clone or an exported
tree). It builds perfbench_harness and the impact library from source in
Release under .bench_build/, runs the harness with the IMPACT_* environment
cleared and pinned, keeps the full record (build context, environment,
per-repetition timings, the simulated results of the seed) in
.bench_build/perfbench-results/, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json with --trace 0 and the
per-layer metrics with --trace 1. perfbench/README.md describes them.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = ROOT / ".bench_build" / "perfbench-results"
REFERENCE_DIR = HERE / "reference"
WORKLOADS = ("defense_grid", "covert_channels", "side_channel")
# Everything else named IMPACT_* is removed from the harness environment.
PINNED_ENV = {"IMPACT_CHECK": "0", "IMPACT_THREADS": "4"}
HARNESS_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def cmake_cache_value(key):
    cache = BUILD_DIR / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return None


def build():
    """Configures (once) and builds the harness; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no impact sources under {ROOT}/src; run from a source checkout")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", "4",
                  "--target", "perfbench_harness"])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed: {' '.join(step)} (log: {log})")
    build_type = cmake_cache_value("CMAKE_BUILD_TYPE")
    if build_type != "Release":
        fail(f"refusing to record a non-Release build ({build_type!r})")
    return BUILD_DIR / "perfbench_harness"


def harness_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("IMPACT_")}
    env.update(PINNED_ENV)
    return env


def run_harness(harness, argv):
    """Runs the harness; returns its record (the last stdout line) or exits."""
    try:
        proc = subprocess.run([str(harness), *argv], env=harness_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"harness exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("harness printed no record")
    return json.loads(lines[-1])


def source_identity():
    """The git commit when there is one, and a digest of the sources always
    (a benchmark checkout need not be a git repository)."""
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return commit, digest.hexdigest()


def check_metrics(record, spec):
    """The record must carry exactly BENCHMARK.json's metrics and units."""
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if record["trace"] else "end_to_end"]}
    got = {name: m["unit"] for name, m in record["metrics"].items()}
    if got != expected:
        fail(f"harness metrics disagree with BENCHMARK.json: "
             f"missing {sorted(set(expected) - set(got))}, "
             f"extra {sorted(set(got) - set(expected))}, "
             f"units {[n for n in got if n in expected and got[n] != expected[n]]}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())

    harness = build()
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--reference-dir", str(REFERENCE_DIR)]
    if args.trace:
        argv += ["--spans", str(RESULTS_DIR / f"{stem}.spans.json")]
    record = run_harness(harness, argv)
    check_metrics(record, spec)

    commit, digest = source_identity()
    record["context"]["git_commit"] = commit
    record["context"]["source_digest"] = digest
    out = RESULTS_DIR / f"{stem}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    ctx = record["context"]
    print(f"perfbench: {args.workload} seed={record['seed']} "
          f"build={ctx['build_type']} compiler={ctx['compiler']!r} "
          f"nproc={ctx['nproc']} threads={ctx['threads']} commit={commit} "
          f"source={digest[:16]} results={record['results_digest']} "
          f"record={out.relative_to(ROOT)}")
    for failure in record["failures"]:
        print(f"perfbench: FAILED {failure}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
