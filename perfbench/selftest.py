#!/usr/bin/env python3
"""Self-test of the benchmark, at the small size.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

For each workload of BENCHMARK.json it runs the untraced and the traced
run twice at one seed and checks that

  * every run exits 0 and reports correct: true;
  * every metric BENCHMARK.json names for that mode appears exactly once
    (duplicate keys are rejected while parsing) and nothing else does;
  * the exact counts precision_at_10, core.repair_steps_per_event,
    core.walk_fetches_per_query and graph.bytes_per_edge are identical,
    bit for bit, across the two runs.

It also checks that run.py fails without printing a result when the
program's sources are absent. Exits 1 when any check fails.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import reject_duplicates  # noqa: E402

ROOT = os.getcwd()
SEED = 7
EXACT = {0: ["precision_at_10"],
         1: ["core.repair_steps_per_event", "core.walk_fetches_per_query",
             "graph.bytes_per_edge"]}


def run(cwd, workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "20",
         "--trace", str(trace), "--small"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1], object_pairs_hook=reject_duplicates)
    return done.returncode, result, done.stdout + done.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f, object_pairs_hook=reject_duplicates)
    failures = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            names = sorted(m["name"] for m in
                           bench["per_layer" if trace else "end_to_end"])
            runs = [run(ROOT, workload, trace) for _ in range(2)]
            tag = "%s trace=%d" % (workload, trace)
            for code, result, output in runs:
                if code != 0 or result is None or not result["correct"]:
                    failures.append("%s: run failed (exit %d)\n%s"
                                    % (tag, code, output[-3000:]))
                elif sorted(result["metrics"]) != names:
                    failures.append("%s: metrics differ from BENCHMARK.json: "
                                    "%s" % (tag, sorted(result["metrics"])))
            results = [r for _, r, _ in runs if r is not None]
            if len(results) == 2:
                for name in EXACT[trace]:
                    a = results[0]["metrics"].get(name, {}).get("value")
                    b = results[1]["metrics"].get(name, {}).get("value")
                    same = a is not None and repr(a) == repr(b)
                    print("  %-4s %-16s %-32s %r / %r"
                          % ("ok" if same else "FAIL", tag, name, a, b))
                    if not same:
                        failures.append("%s: %s not exact: %r vs %r"
                                        % (tag, name, a, b))
            print("%s: %d runs done" % (tag, len(runs)), flush=True)

    # A directory holding only BENCHMARK.json and the benchmark must fail
    # without printing a result.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, output = run(bare, "ingest", 0)
    shutil.rmtree(bare, ignore_errors=True)
    ok = code != 0 and result is None
    print("  %-4s without sources: exit %d, result printed: %s"
          % ("ok" if ok else "FAIL", code, result is not None))
    if not ok:
        failures.append("run.py did not fail without the program's sources")

    for f in failures:
        print("FAIL: " + f)
    print("selftest: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
