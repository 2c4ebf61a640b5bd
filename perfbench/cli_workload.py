"""The cli_readme workload: every README command line in a fresh interpreter.

Each operation is one `python -m bvlab.cli ...` process with the source tree
on PYTHONPATH, run to completion before the next starts.  The console script
is not assumed to be installed.  Inputs are written from the seed into a
temporary directory inside the benchmark's work directory, and every command
writes into its own temporary --out directory there.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import references as ref
from common import (BENCH_DIR, WORK_DIR, child_env, import_metrics, more_rounds,
                    run_child, summarize, tail_percentile)
from tracer import layer_metrics


def write_inputs(tmp: Path, rng: random.Random) -> dict[str, str]:
    """The documents the README commands read: a circle potential, a series
    with a few thousand coefficients, a piecewise field and a config file."""
    freqs = rng.sample([m for m in range(-4, 5) if m], 3)
    phi = {"coeffs": [[m, rng.uniform(-1, 1), rng.uniform(-1, 1)] for m in sorted(freqs)]}

    coeffs = []
    for k in range(1, 3001):
        amp = (rng.uniform(0.5, 1.5) / k) ** 0.5
        angle = rng.uniform(0.0, 2.0 * math.pi)
        coeffs.append([k, amp * math.cos(angle), amp * math.sin(angle)])
    series = {"coeffs": coeffs, "max_freq": 3000}

    terms = []
    r = 0.2
    for _ in range(6):
        r_out = r + rng.uniform(0.04, 0.07)
        n = rng.randint(2, 90)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        terms.append({"re": math.cos(angle), "im": math.sin(angle), "p": n - 2, "q": 0,
                      "gamma": float(2 - n), "r_in": r, "r_out": r_out})
        r = r_out
    field = {"terms": terms}

    config = {"d": rng.choice([3, 4, 8, 12]), "rho0": "optimal",
              "shells": rng.randint(4, 8), "refine": True}

    paths = {}
    for name, doc in (("phi", phi), ("series", series), ("mu", field), ("config", config)):
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths[name] = str(path)
    return paths


def command_lines(inputs: dict[str, str], seed: int) -> list[tuple[str, list[str]]]:
    """README command lines (without `--jobs`, which is slated for removal),
    plus the variance methods, the document readers and a --config run."""
    return [
        ("table2", ["table2", "--format", "csv"]),
        ("variance_exact", ["variance", "shell", "--d", "20", "--rho0", "optimal",
                            "--method", "exact"]),
        ("variance_block", ["variance", "shell", "--d", "2", "--rho0", "0.25", "--method",
                            "block", "--blocks", "14", "--shells", "22"]),
        ("variance_mass", ["variance", "shell", "--d", "16", "--rho0", "optimal",
                           "--method", "mass", "--shells", "12"]),
        ("variance_cesaro", ["variance", "shell", "--d", "20", "--rho0", "optimal",
                             "--method", "cesaro", "--shells", "12"]),
        ("optimize", ["optimize", "--d-min", "2", "--d-max", "64"]),
        ("order2_refine", ["order2", "--d", "16", "--rho0", "optimal", "--n0", "15",
                           "--refine"]),
        ("order2_grid", ["order2", "--grid-d", "12,16,20", "--grid-rho0", "optimal"]),
        ("order2_config", ["order2", "--config", inputs["config"]]),
        ("dimension", ["dimension", "--d", "20", "--k", "0.1"]),
        ("means_curve", ["means-curve", "--d", "2", "--rho0", "0.25", "--shells", "30",
                         "--r-min", "1e-8", "--r-max", "1e-3"]),
        ("means_curve_series", ["means-curve", "--series", inputs["series"]]),
        ("truncate", ["truncate", "--d", "3", "--rho0", "0.05", "--shells", "1",
                      "--r1", "0.7", "--eps", "0.01"]),
        ("truncate_mu", ["truncate", "--mu", inputs["mu"], "--r1", "0.7", "--eps", "0.01"]),
        ("dynamics_coboundary", ["dynamics", "coboundary", "--d", "2", "--n", "20"]),
        ("dynamics_var", ["dynamics", "var", "--blaschke", "0.3+0j", "--phi", inputs["phi"],
                          "--n", "50", "--samples", "100000", "--seed", str(seed % 1000)]),
        ("selfcheck", ["selfcheck"]),
        ("selfcheck_full", ["selfcheck", "--full"]),
    ]


CASE_NAMES = tuple(name for name, _ in command_lines(
    {"config": "", "series": "", "mu": "", "phi": ""}, 0))


class Case:
    __slots__ = ("name", "argv", "out_dir", "reference")

    def __init__(self, name: str, argv: list[str], out_dir: Path):
        self.name = name
        self.argv = argv
        self.out_dir = out_dir
        self.reference: str | None = None


def _digest(stdout: bytes, out_dir: Path) -> str:
    h = hashlib.sha256(stdout)
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class CliRun:
    """Inputs, cases and counters of one set-up of the workload."""

    def __init__(self, seed: int):
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli_", dir=WORK_DIR))
        self.rng = random.Random(seed)
        inputs = write_inputs(self.tmp, self.rng)
        self.cases = [Case(name, argv, self.tmp / "out" / name)
                      for name, argv in command_lines(inputs, seed)]
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.rss_mb: list[float] = []  # peak RSS of each command process

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def execute(self, case: Case, spans_path: Path | None = None):
        """Run one command line and check it; returns the child result and the
        operation time (the child's wall time plus the check)."""
        if case.out_dir.exists():
            shutil.rmtree(case.out_dir)
        case.out_dir.mkdir(parents=True)
        if spans_path is None:
            argv = [sys.executable, "-m", "bvlab.cli"]
        else:
            argv = [sys.executable, "-X", "importtime", str(BENCH_DIR / "cli_child.py"),
                    str(spans_path)]
        argv += case.argv + ["--out", str(case.out_dir)]
        t0 = time.perf_counter()
        res = run_child(argv, self.env, self.tmp, self.tmp)
        digest = _digest(res.stdout, case.out_dir)
        bad = ref.check_cli(case.name, res.code, digest, case.reference, res.stdout)
        if case.reference is None and res.code == 0:
            case.reference = digest
        op_s = time.perf_counter() - t0
        self.attempted += 1
        self.rss_mb.append(res.maxrss_mb)
        if bad is not None:
            self.failed += 1
            if len(self.errors) < 5:
                tail = res.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
                self.errors.append(f"{bad} {tail}")
        return res, op_s

    def shuffled(self) -> list[Case]:
        order = list(self.cases)
        self.rng.shuffle(order)
        return order


def setup(seed: int) -> tuple[CliRun, float, float]:
    """Input generation plus one run of every command line (the references for
    the byte-identity check).  Returns the run, its set-up time and the round time."""
    t0 = time.perf_counter()
    run = CliRun(seed)
    round_s = sum(run.execute(case)[1] for case in run.shuffled())
    return run, time.perf_counter() - t0, round_s


def measure(seed: int, seconds: float, segments: int) -> dict:
    """Cut the run into ``segments`` slices, each a fresh set-up followed by
    whole rounds for its share of ``seconds``, so that the set-ups are spread
    over the run."""
    samples: list[tuple[float, str]] = []
    setup_times, rss_mb, errors = [], [], []
    loop_s = 0.0
    rounds = attempted = failed = 0
    for _ in range(segments):
        run, setup_s, round_s = setup(seed)
        setup_times.append(setup_s)
        run.rss_mb.clear()
        try:
            segment_s = 0.0
            segment_rounds = 0
            while more_rounds(segment_rounds, 1, segment_s, round_s, seconds / segments):
                t0 = time.perf_counter()
                samples += [(run.execute(case)[1], case.name) for case in run.shuffled()]
                round_s = time.perf_counter() - t0
                segment_s += round_s
                segment_rounds += 1
        finally:
            run.close()
        loop_s += segment_s
        rounds += segment_rounds
        rss_mb += run.rss_mb
        attempted += run.attempted
        failed += run.failed
        errors += run.errors
    out = summarize(samples, loop_s, tail_percentile(segments * len(CASE_NAMES)))
    out.update(setup_s=statistics.median(setup_times), peak_rss_mb=max(rss_mb),
               rounds=rounds, attempted=attempted, failed=failed, errors=errors[:5])
    return out


def trace(seed: int, seconds: float) -> dict:
    """Alternate each command line untraced and traced, round after round."""
    run, _, round_s = setup(seed)
    try:
        spans_path = run.tmp / "spans.json"
        docs, walls = [], {case.name: [] for case in run.cases}
        importtimes, start_ms, numpy_loaded = [], [], []
        plain_s = traced_s = 0.0
        rounds = 0
        round_s *= 2.5
        while more_rounds(rounds, 1, plain_s + traced_s, round_s, seconds):
            t0 = time.perf_counter()
            for i, case in enumerate(run.shuffled()):
                # untraced and traced back to back, alternating which goes first
                spans_path.unlink(missing_ok=True)
                if (rounds + i) % 2:
                    traced, traced_op_s = run.execute(case, spans_path)
                    _, plain_op_s = run.execute(case)
                else:
                    _, plain_op_s = run.execute(case)
                    traced, traced_op_s = run.execute(case, spans_path)
                walls[case.name].append(plain_op_s * 1e3)
                plain_s += plain_op_s
                traced_s += traced_op_s
                if not spans_path.exists():  # the child died early; counted as failed
                    continue
                doc = json.loads(spans_path.read_text(encoding="utf-8"))
                docs.append(doc)
                importtimes.append(import_metrics(traced.stderr.decode("utf-8", "replace")))
                start_ms.append(traced.wall_s * 1e3 - doc["in_child_ns"] / 1e6)
                numpy_loaded.append(1.0 if doc["numpy_loaded"] else 0.0)
            round_s = time.perf_counter() - t0
            rounds += 1
        layers = layer_metrics(docs, rounds)
        for key in ("import.numpy_ms", "import.futures_process_ms", "import.bvlab_ms"):
            layers[key] = statistics.median(t[key] for t in importtimes)
        layers["import.numpy_loaded_ratio"] = statistics.fmean(numpy_loaded)
        layers["interpreter.start_ms"] = statistics.median(start_ms)
        for name, values in walls.items():
            layers[f"cli.{name}.wall_ms"] = statistics.median(values)
        layers["trace.overhead_ratio"] = traced_s / plain_s - 1.0
        missing = sorted({m for d in docs for m in d["missing"]})
        hook_errors = {k: v for d in docs for k, v in d["hook_errors"].items()}
        return {"layers": layers, "rounds": rounds, "missing": missing,
                "hook_errors": hook_errors, "attempted": run.attempted,
                "failed": run.failed, "errors": run.errors}
    finally:
        run.close()
