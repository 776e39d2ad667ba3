#!/usr/bin/env python3
"""Smoke test of the benchmark on the small ci_smoke spec.

    python3 e2ebench/smoke_test.py

Runs every workload untraced and traced and checks that:
  - each run is correct, with no failed eval;
  - every named metric prints, as a stdout line and in the final JSON,
    with its unit, and matches BENCHMARK.json's list when that exists;
  - the trace file is Chrome trace-event JSON that parses;
  - on the serial workload (warm-objects-1t) the layers' self times sum
    to no more than the traced wall;
  - host-compiler runs are counted on cold-native only.
Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

SERIAL_WORKLOAD = "warm-objects-1t"
SMOKE_KERNELS = 2  # pathfinder, hotspot


def check(cond, msg):
    if not cond:
        print(f"FAIL: {msg}")
        sys.exit(1)


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--spec", "ci_smoke",
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    check(proc.returncode == 0, f"{workload} trace={trace} exited "
          f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1]), proc.stderr


def check_metrics(label, lines, result, table):
    check(result["correct"] and result["failed"] == 0, f"{label}: {result}")
    check(result["attempted"] >= 1, f"{label}: nothing attempted")
    check(set(result["metrics"]) == set(table),
          f"{label}: metrics {sorted(result['metrics'])}")
    for name, unit in table.items():
        check(result["metrics"][name]["unit"] == unit, f"{label}: {name} unit")
        check(any(l.startswith(f"{name} ") and l.endswith(f" {unit}")
                  for l in lines[:-1]), f"{label}: {name} line missing")


def self_times(events):
    """Self time per span id: its duration minus the part its children
    cover, in microseconds."""
    children = {}
    for e in events:
        children.setdefault(e["args"]["parent"], []).append(e)
    out = {}
    for e in events:
        start, end = e["ts"], e["ts"] + e["dur"]
        iv = sorted((max(c["ts"], start), min(c["ts"] + c["dur"], end))
                    for c in children.get(e["args"]["id"], []))
        covered, cur_a, cur_b = 0.0, None, None
        for a, b in iv:
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out[e["args"]["id"]] = e["dur"] - covered
    return out


def check_trace(workload, stderr, result):
    path = [l for l in stderr.splitlines() if l.startswith("trace: ")]
    check(path, f"{workload}: no trace path printed")
    with open(path[-1][len("trace: "):]) as f:
        events = json.load(f)["traceEvents"]
    check(events and all(e["ph"] == "X" for e in events),
          f"{workload}: trace events")
    roots = [e for e in events if e["name"] == "eval"]
    check(len(roots) == 1, f"{workload}: one root span")
    metrics = result["metrics"]
    if workload == SERIAL_WORKLOAD:
        # Spans of the eval's tree: the root and its descendants.
        by_parent = {}
        for e in events:
            by_parent.setdefault(e["args"]["parent"], []).append(e)
        tree, todo = [], [roots[0]]
        while todo:
            e = todo.pop()
            tree.append(e)
            todo += by_parent.get(e["args"]["id"], [])
        selfs = self_times(tree)
        total = sum(selfs.values())
        check(total <= roots[0]["dur"] + 1.0,  # 1 us of rounding
              f"self times {total} us exceed traced wall "
              f"{roots[0]['dur']} us")
    cc = metrics["interp.native_cc_runs"]["value"]
    if workload == "cold-native":
        check(cc >= SMOKE_KERNELS, f"cold-native counted {cc} compiles")
    else:
        check(cc == 0, f"{workload} counted {cc} compiles")


def main():
    bench_json = os.path.join(run.ROOT, "BENCHMARK.json")
    if os.path.exists(bench_json):
        with open(bench_json) as f:
            declared = json.load(f)
        check({m["name"]: m["unit"] for m in declared["end_to_end"]} ==
              run.END_TO_END, "BENCHMARK.json end_to_end differs")
        check({m["name"]: m["unit"] for m in declared["per_layer"]} ==
              run.PER_LAYER, "BENCHMARK.json per_layer differs")
        check({w["name"] for w in declared["workloads"]} <= set(run.WORKLOADS),
              "BENCHMARK.json names a workload run.py does not run")
    for workload in run.WORKLOADS:
        lines, result, _ = bench(workload, 0)
        check_metrics(f"{workload} untraced", lines, result, run.END_TO_END)
        lines, result, stderr = bench(workload, 1)
        check_metrics(f"{workload} traced", lines, result, run.PER_LAYER)
        check_trace(workload, stderr, result)
        print(f"ok {workload}")
    print("smoke test passed")


if __name__ == "__main__":
    main()
