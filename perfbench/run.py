#!/usr/bin/env python3
"""bvlab benchmark: one closed-loop workload per run, one operation in flight.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists):
  cli_readme  every README command line as a fresh `python -m bvlab.cli` process
  library     in warm worker processes: order2_bound over d in {2..20} and shell
              counts up to capacity, parameter_search, the four variance
              estimators, integral means and growth slopes

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced operations and prints the per-layer metrics.  The last stdout line is
the result object; the line before it carries the machine, the sample count
and the tail percentile.  Exits 2 without a result when the program is absent.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys

import cli_workload
from common import (BENCH_DIR, ROOT, WORK_DIR, child_env, eprint, import_metrics,
                    machine_info, program_present, result_line, run_child, summarize,
                    tail_percentile)
from tracer import layer_units

WORKLOADS = ("cli_readme", "library")
# Each run is cut into this many slices, each with its own set-up, so that
# the set-ups are spread over the run; setup_s is their median.  A cli_readme
# set-up runs every command once (about 6 s), a library one (a fresh worker
# process) takes about 1.5 s.
CLI_SEGMENTS = 3
LIBRARY_SEGMENTS = 5

END_TO_END_UNITS = {"op_p50_ms": "ms", "op_tail_ms": "ms", "ops_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = layer_units()
    units.update({"import.numpy_ms": "ms", "import.futures_process_ms": "ms",
                  "import.bvlab_ms": "ms", "import.numpy_loaded_ratio": "ratio",
                  "interpreter.start_ms": "ms"})
    for case in cli_workload.CASE_NAMES:
        units[f"cli.{case}.wall_ms"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


def run_worker(seed: int, seconds: float, mode: str) -> dict:
    argv = [sys.executable]
    if mode == "trace":
        argv += ["-X", "importtime"]
    argv += [str(BENCH_DIR / "worker.py"), "--seed", str(seed), "--seconds", str(seconds),
             "--mode", mode]
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    res = run_child(argv, child_env(), ROOT, WORK_DIR)
    lines = res.stdout.decode("utf-8", "replace").strip().splitlines()
    if res.code != 0 or not lines:
        eprint(res.stderr.decode("utf-8", "replace")[-4000:])
        raise SystemExit(f"worker exited with code {res.code}")
    out = json.loads(lines[-1])
    out["peak_rss_mb"] = res.maxrss_mb
    if mode == "trace":
        layers = out["layers"]
        layers.update(import_metrics(res.stderr.decode("utf-8", "replace")))
        layers["import.numpy_loaded_ratio"] = 1.0 if out["numpy_after_import"] else 0.0
        layers["interpreter.start_ms"] = (res.wall_s - out["in_process_s"]) * 1e3
    return out


def library(seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        return run_worker(seed, seconds, "trace")
    parts = [run_worker(seed, seconds / LIBRARY_SEGMENTS, "run")
             for _ in range(LIBRARY_SEGMENTS)]
    samples = [tuple(s) for p in parts for s in p["samples"]]
    out = summarize(samples, sum(p["loop_s"] for p in parts),
                    tail_percentile(LIBRARY_SEGMENTS * parts[0]["ops_per_round"]))
    out.update(setup_s=statistics.median(p["setup_s"] for p in parts),
               peak_rss_mb=max(p["peak_rss_mb"] for p in parts),
               rounds=sum(p["rounds"] for p in parts),
               attempted=sum(p["attempted"] for p in parts),
               failed=sum(p["failed"] for p in parts),
               errors=[e for p in parts for e in p["errors"]][:5])
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not program_present():
        eprint(f"bvlab sources not found under {ROOT / 'src'}; nothing to measure")
        return 2

    machine = machine_info()
    if args.workload == "cli_readme":
        if args.trace:
            out = cli_workload.trace(args.seed, args.seconds)
        else:
            out = cli_workload.measure(args.seed, args.seconds, CLI_SEGMENTS)
    else:
        out = library(args.seed, args.seconds, bool(args.trace))

    for err in out["errors"]:
        eprint("FAILED:", err)
    info = {"workload": args.workload, "seed": args.seed, "machine": machine}
    for key in ("samples", "tail_percentile", "tail_op", "rounds", "missing",
                "hook_errors"):
        if key in out:
            info[key] = out[key]
    print(json.dumps({"info": info}))
    if args.trace:
        units = per_layer_units()
        metrics = {k: out["layers"].get(k, 0.0) for k in units}
    else:
        units = END_TO_END_UNITS
        metrics = {k: out[k] for k in units}
    correct = out["failed"] == 0 and out["attempted"] > 0
    print(result_line(correct, out["attempted"], out["failed"], metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
