#!/usr/bin/env python3
"""Reduced-size self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced with one-second
measurement windows, and asserts that
  * each run is correct, attempts at least one op and fails none;
  * the untraced run emits exactly BENCHMARK.json's end-to-end metrics and
    the traced run exactly its per-layer metrics, each with its unit, and
    every end-to-end value is positive;
  * the traced defense_grid run reproduces the grid's measured counts
    (95,025,976 graph accesses; cache/TLB/DRAM-request counters repeated
    across the 4 row policies, so cache.repeat_share = 0.75);
  * a deliberately corrupted reference makes the run report a failed op.
Exits non-zero on the first failed assertion. Takes about two minutes on a
4-core host; builds the harness first if needed.
"""

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py)

GRID_ACCESSES = 95_025_976


def check(condition, message):
    if not condition:
        print(f"selfcheck: FAIL {message}", file=sys.stderr)
        sys.exit(1)
    print(f"selfcheck: ok   {message}")


def harness_record(harness, workload, trace, reference_dir):
    argv = ["--workload", workload, "--seconds", "1", "--trace", str(trace),
            "--reference-dir", str(reference_dir)]
    return run.run_harness(harness, argv)


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    harness = run.build()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            record = harness_record(harness, workload, trace, run.REFERENCE_DIR)
            tag = f"{workload} trace={trace}"
            check(record["correct"] and record["failed"] == 0
                  and record["attempted"] >= 1,
                  f"{tag}: correct, {record['attempted']} ops, none failed")
            wanted = spec["per_layer" if trace else "end_to_end"]
            got = {n: m["unit"] for n, m in record["metrics"].items()}
            check(got == {m["name"]: m["unit"] for m in wanted},
                  f"{tag}: every metric emitted with its unit")
            if not trace:
                check(all(m["value"] > 0 for m in record["metrics"].values()),
                      f"{tag}: every end-to-end value is positive")
            if workload == "defense_grid" and trace:
                m = {n: v["value"] for n, v in record["metrics"].items()}
                check(m["graph.accesses"] == GRID_ACCESSES,
                      f"{tag}: graph.accesses == {GRID_ACCESSES:,}")
                check(m["cache.repeat_share"] == 0.75,
                      f"{tag}: cache.repeat_share == 0.75")

    corrupt = run.ROOT / ".bench_build" / "selfcheck-reference"
    shutil.rmtree(corrupt, ignore_errors=True)
    shutil.copytree(run.REFERENCE_DIR, corrupt)
    ref = corrupt / "covert_channels.ref"
    lines = ref.read_text().splitlines()
    victim = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    lines[victim] = lines[victim].replace("correct=", "correct=1", 1)
    ref.write_text("\n".join(lines) + "\n")
    record = harness_record(harness, "covert_channels", 0, corrupt)
    check(not record["correct"] and record["failed"] >= 1,
          f"corrupted reference reported as {record['failed']} failed op(s)")
    shutil.rmtree(corrupt)
    print("selfcheck: all checks passed")


if __name__ == "__main__":
    main()
