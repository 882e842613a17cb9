#!/usr/bin/env python3
"""Self-test of the campaign pipeline benchmark, at tiny grid size.

Run from the repository root:  python3 perfbench/selftest.py

Asserts, for every workload in BENCHMARK.json:
  * the timed run prints every end-to-end metric with its unit, with
    correct = true and failed = 0;
  * the traced run prints every per-layer metric with its unit, and its
    spans (spans.json) nest: each inside its parent, siblings disjoint;
  * store.bytes and sweep.rounds repeat exactly across two traced runs;
  * with --corrupt-store the damaged store digests make failed_ratio > 0.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEED = 7


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=ROOT,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spans_nest(path):
    with open(path) as f:
        spans = [json.loads(line) for line in f]
    last_child_end = {}
    for i, s in enumerate(spans):
        if s["end_s"] < s["start_s"] or s["parent"] >= i:
            return False
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            if s["start_s"] < p["start_s"] or s["end_s"] > p["end_s"]:
                return False
        if s["start_s"] < last_child_end.get(s["parent"], float("-inf")):
            return False
        last_child_end[s["parent"]] = s["end_s"]
    return bool(spans)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    def units(result):
        return {k: v["unit"] for k, v in result["metrics"].items()}

    for w in [w["name"] for w in spec["workloads"]]:
        timed = run(w, 0)
        check(units(timed) == end_to_end,
              f"{w}: timed run prints every end-to-end metric with its unit")
        check(timed["correct"] and timed["failed"] == 0 and
              timed["attempted"] > 0, f"{w}: timed outputs pass their checks")

        traced = [run(w, 1), run(w, 1)]
        check(units(traced[0]) == per_layer,
              f"{w}: traced run prints every per-layer metric with its unit")
        check(all(t["correct"] and t["failed"] == 0 for t in traced),
              f"{w}: traced outputs pass their checks")
        spans = os.path.join(ROOT, ".bench_build", "work", w, "spans.json")
        check(spans_nest(spans), f"{w}: traced spans nest")
        for name in ("store.bytes", "sweep.rounds"):
            a, b = (t["metrics"][name]["value"] for t in traced)
            check(a == b, f"{w}: {name} repeats exactly ({a} == {b})")

        corrupt = run(w, 0, "--corrupt-store")
        check(corrupt["failed"] / corrupt["attempted"] > 0 and
              not corrupt["correct"],
              f"{w}: a corrupted store gives failed_ratio "
              f"{corrupt['failed'] / corrupt['attempted']:.3f} > 0")

    print("self-test " + ("passed" if not failures else
                          f"FAILED ({len(failures)} checks)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
