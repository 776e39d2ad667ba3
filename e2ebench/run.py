#!/usr/bin/env python3
"""End-to-end `paper_small` evaluation benchmark (see README.md).

    python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. It builds the library and this
benchmark's worker (e2e_bench) with CMake into $CARGO_TARGET_DIR
(default .bench_build), sets up the workload, runs closed-loop evals of
the spec for S seconds (one eval at a time, each cold eval in a fresh
process), checks every eval's report bytes against the reference
interpreter's, and prints each metric by name with its unit. Times are
reported in seconds of the reference host: each is scaled by a fixed
calibration kernel timed just before and just after it (README.md,
"Host-speed calibration"). The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
run makes one untraced and one traced eval and reports the per-layer
metrics, writing the spans as Chrome trace-event JSON under
<build dir>/traces/. The seed is the FI seed of the spec.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["cold-native", "warm-objects", "warm-objects-1t", "cold-interp",
             "rerun-cached"]

# name -> unit
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
PER_LAYER = {
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "workloads.build_s": "s",
    "profiler.profile_s": "s",
    "profiler.dynamic_insts": "count",
    "interp.lower_s": "s",
    "interp.native_compile_s": "s",
    "interp.native_cc_runs": "count",
    "fi.campaigns": "count",
    "fi.trials": "count",
    "fi.campaign_wall_s": "s",
    "fi.campaign_busy_s": "s",
    "fi.snapshot_plan_s": "s",
    "fi.engine_setup_s": "s",
    "fi.trial_us": "us",
    "fi.resumed_ratio": "ratio",
    "fi.snapshot_bytes": "bytes",
    "core.model_s": "s",
    "analysis.bit_facts_s": "s",
    "baselines.pvf_s": "s",
    "baselines.epvf_s": "s",
    "eval.plan_s": "s",
    "eval.claim_s": "s",
    "eval.store_load_s": "s",
    "eval.store_loads": "count",
    "eval.store_save_s": "s",
    "eval.store_saves": "count",
    "eval.report_s": "s",
    "eval.cells_computed": "count",
    "eval.cells_cached": "count",
}

# Set-up repeats per run; setup_s reports the median preparation.
SETUP_REPEATS = 3
# Worker threads of every process: at most 4 cores (nproc of the 4-vCPU
# host the bounds were measured on).
THREADS = "4"
# Per-process limit, far above any single eval.
PROCESS_TIMEOUT_S = 150

# Rounds of each calibration (a round is 20-30 ms on the reference host).
# A calibration process runs before the set-up, after it, and after each
# eval process.
CAL_ROUNDS = 8
# Seconds of in-process rerun-cached evals per eval process, so that
# calibrations fall between them.
RERUN_SLICE_S = 1.0
# Seconds of a calibration round on the reference host (4-vCPU Intel
# Xeon VM, quiet), by thread count: (wall, CPU summed over the threads).
CAL_REFERENCE = {1: (0.021, 0.021), 4: (0.027, 0.105)}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configures (once) and builds the worker; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("e2ebench: the repository's src/ is missing; "
                         "run from the root of a full checkout")
    cdir = os.path.join(bdir, "cmake")
    if not os.path.isfile(os.path.join(cdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", cdir, "-j", THREADS, "--target",
                    "e2e_bench"], check=True, stdout=sys.stderr)
    return os.path.join(cdir, "e2e_bench")


class Worker:
    def __init__(self, exe, spec, seed, work):
        self.exe = exe
        self.spec = spec
        self.seed = str(seed)
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("TRIDENT_NATIVE_CACHE", "TRIDENT_CC",
                                 "E2E_CC_LOG")}
        self.env["TRIDENT_THREADS"] = THREADS
        self.env["TMPDIR"] = os.path.join(work, "tmp")
        os.makedirs(self.env["TMPDIR"], exist_ok=True)

    def run(self, mode, extra_env=None, **flags):
        cmd = [self.exe, mode, "--spec", self.spec, "--seed", self.seed]
        for key, value in flags.items():
            cmd += ["--" + key.replace("_", "-"), str(value)]
        env = dict(self.env, **(extra_env or {}))
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=PROCESS_TIMEOUT_S, text=True)
        lines = [json.loads(l) for l in proc.stdout.splitlines() if l]
        return proc.returncode, lines

    def setup_step(self, mode, **flags):
        rc, lines = self.run(mode, **flags)
        if rc != 0:
            raise SystemExit(f"e2ebench: set-up step '{mode}' failed")
        return lines

    def calibrate(self, of):
        """One calibration on the thread count of workload `of` (or of
        the set-up)."""
        return self.setup_step("calibrate", workload=of,
                               cal_rounds=CAL_ROUNDS)[0]


def host_factors(before, after):
    """(wall, CPU) factors that turn this host's seconds, measured between
    the calibrations `before` and `after`, into reference-host seconds.
    The faster calibration counts: a stall of the host that spoils one
    of them does not set the figure."""
    ref_wall, ref_cpu = CAL_REFERENCE[int(before["cal_threads"])]
    return (ref_wall / min(c["cal_wall_s"] for c in (before, after)),
            ref_cpu / min(c["cal_cpu_s"] for c in (before, after)))


def timed(f):
    t0 = time.perf_counter()
    f()
    return time.perf_counter() - t0


def set_up(worker, workload, work):
    """Reference report plus the workload's start state. Returns
    (setup seconds on this host, on the reference host, extra eval
    flags)."""
    before = worker.calibrate("set-up")
    ref = os.path.join(work, "ref")
    ref_s = timed(lambda: worker.setup_step("reference", out=ref))
    # Cold workloads start from empty directories: nothing to prepare.
    prep_s, flags = [0.0], {}
    warm_objects = workload.startswith("warm-objects")
    if warm_objects or workload == "rerun-cached":
        prep_s = []
        for k in range(SETUP_REPEATS):
            if warm_objects:
                flags = {"objects": os.path.join(work, f"objects-{k}")}
                prep_s.append(timed(
                    lambda: worker.setup_step("prefill", **flags)))
            else:
                flags = {"store": os.path.join(work, f"cached-{k}")}
                prep_s.append(timed(lambda: shutil.copytree(
                    os.path.join(ref, "store"), flags["store"])))
    after = worker.calibrate("set-up")
    setup_s = ref_s + statistics.median(prep_s)
    return setup_s, setup_s * host_factors(before, after)[0], flags


def one_sample(worker, workload, work, k, flags, seconds=0, trace=None):
    """One eval process over fresh dirs; returns its JSON lines (a
    crashed process is one failed line)."""
    sample = os.path.join(work, f"sample-{k}")
    os.makedirs(sample)
    args = {"workload": workload, "out": os.path.join(sample, "out"),
            "store": os.path.join(sample, "store"),
            "ref": os.path.join(work, "ref")}
    args.update(flags)
    extra_env = None
    mode = "eval"
    if seconds:
        args["seconds"] = seconds
    if trace:
        mode = "trace"
        args["trace_out"] = trace
        args["cc_log"] = os.path.join(sample, "cc.log")
        wrapper = os.path.join(HERE, "cc_count.sh")
        extra_env = {"TRIDENT_CC": f"sh '{wrapper}'",
                     "E2E_CC_LOG": args["cc_log"]}
    rc, lines = worker.run(mode, extra_env, **args)
    shutil.rmtree(sample)
    if rc != 0 or not lines:
        return [{"ok": False, "error": f"worker exited {rc}"}]
    return lines


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--spec", default="paper_small",
                   choices=["paper_small", "ci_smoke"],
                   help="ci_smoke is the smoke test's small spec")
    a = p.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    work = os.path.join(bdir, "work", f"{a.workload}-s{a.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        worker = Worker(exe, a.spec, a.seed, work)
        raw_setup_s, setup_s, flags = set_up(worker, a.workload, work)
        if a.trace:
            base = one_sample(worker, a.workload, work, 0, flags)
            traces = os.path.join(bdir, "traces")
            os.makedirs(traces, exist_ok=True)
            trace_path = os.path.join(
                traces, f"{a.spec}-{a.workload}-s{a.seed}.json")
            traced = one_sample(worker, a.workload, work, 1, flags,
                                trace=trace_path)
            lines = base + traced
            layer = dict(traced[0].get("metrics", {}))
            if base[0]["ok"] and layer:
                layer["trace.overhead_s"] = (layer["trace.wall_s"] -
                                             base[0]["wall_s"])
            metrics = {name: {"value": layer[name], "unit": unit}
                       for name, unit in PER_LAYER.items() if name in layer}
            log(f"trace: {trace_path}")
        else:
            # Only rerun-cached repeats in-process (it compiles nothing).
            budget = RERUN_SLICE_S if a.workload == "rerun-cached" else 0
            lines, k, t0 = [], 0, time.perf_counter()
            before = worker.calibrate(a.workload)
            while True:
                sample = one_sample(worker, a.workload, work, k, flags,
                                    seconds=budget)
                after = worker.calibrate(a.workload)
                wall_f, cpu_f = host_factors(before, after)
                for l in sample:
                    if l["ok"]:
                        l["ref_wall_s"] = l["wall_s"] * wall_f
                        l["ref_cpu_s"] = l["cpu_s"] * cpu_f
                lines += sample
                before = after
                k += 1
                if time.perf_counter() - t0 >= a.seconds:
                    break
            ok = [l for l in lines if l["ok"]]
            values = {"setup_s": setup_s}
            raw = {"setup_s": raw_setup_s}
            if ok:
                for name in ("wall_s", "cpu_s"):
                    values[name] = statistics.median(l["ref_" + name]
                                                     for l in ok)
                    raw[name] = statistics.median(l[name] for l in ok)
                values["peak_rss_mib"] = statistics.median(
                    l["peak_rss_mib"] for l in ok)
            for name, value in raw.items():
                log(f"{name} on this host: {value:.6g} s, "
                    f"x{values[name] / value:.3f} to the reference host")
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items() if name in values}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [l for l in lines if not l["ok"]]
    for error in sorted({l["error"] for l in failed}):
        log(f"failed eval: {error}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {len(failed) / len(lines):.6g} ratio "
          f"({len(failed)} of {len(lines)} evals failed)")
    print(json.dumps({"correct": not failed, "attempted": len(lines),
                      "failed": len(failed), "metrics": metrics}))


if __name__ == "__main__":
    main()
