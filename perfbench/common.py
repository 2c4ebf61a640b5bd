"""Helpers shared by run.py and worker.py: child processes,
statistics, import-time parsing and machine facts.  Standard library only."""
from __future__ import annotations

import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "perfbench"
WORK_DIR = BENCH_DIR / "_work"
SRC_DIR = ROOT / "src"

# Percentiles considered for the tail, highest first; the reported one is the
# highest with at least TAIL_BEYOND operations above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_BEYOND = 10


def program_present() -> bool:
    return (SRC_DIR / "bvlab" / "__init__.py").is_file() and (SRC_DIR / "bvlab" / "cli.py").is_file()


def child_env() -> dict:
    """Environment for every program child: the source tree on the path and no
    output-directory override, so `--out` decides where artifacts go."""
    env = dict(os.environ)
    env.pop("BVLAB_OUT", None)
    env["PYTHONPATH"] = str(SRC_DIR)
    return env


class ChildResult(NamedTuple):
    code: int
    wall_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes


def run_child(argv: list[str], env: dict, cwd: Path, capture_dir: Path) -> ChildResult:
    """Spawn one process, wait for it with wait4 and return its own rusage.

    ``RUSAGE_CHILDREN`` only gives the maximum over all children ever reaped,
    so the per-process peak RSS has to come from wait4.  stdout and stderr go
    to files in ``capture_dir`` and are read back after the child exits.
    """
    out_path = capture_dir / "stdout"
    err_path = capture_dir / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out_fd = os.open(out_path, flags, 0o644)
    err_fd = os.open(err_path, flags, 0o644)
    try:
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_DUP2, out_fd, 1), (os.POSIX_SPAWN_DUP2, err_fd, 2)]
        old_cwd = os.getcwd()
        os.chdir(cwd)
        try:
            t0 = time.perf_counter()
            pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        finally:
            os.chdir(old_cwd)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
    finally:
        os.close(out_fd)
        os.close(err_fd)
    return ChildResult(os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0,
                       out_path.read_bytes(), err_path.read_bytes())


def tail_percentile(min_samples: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND operations above it
    in a run of ``min_samples`` operations.

    Runs repeat whole rounds and never fewer than a workload's minimum, so the
    percentile is taken from that minimum: it is then the same on every run
    and every commit, however many rounds a faster program fits in.
    """
    for pct in TAIL_LADDER:
        if min_samples * (100.0 - pct) / 100.0 >= TAIL_BEYOND:
            return pct
    return TAIL_LADDER[-1]


def more_rounds(done: int, min_rounds: int, loop_s: float, round_s: float,
                seconds: float) -> bool:
    """Whole rounds only: at least ``min_rounds``, then as many as bring the
    loop closest to ``seconds``."""
    return done < min_rounds or loop_s + 0.5 * round_s <= seconds


def summarize(samples: list[tuple[float, str]], loop_s: float, tail_pct: float) -> dict:
    """End-to-end timing figures of one closed-loop run from its
    (seconds, operation label) samples.  ``tail_op`` names the operation whose
    sample is the tail (nearest rank)."""
    ranked = sorted(samples)
    tail_s, tail_op = ranked[max(1, math.ceil(tail_pct / 100.0 * len(ranked))) - 1]
    return {
        "op_p50_ms": statistics.median(s for s, _ in ranked) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "ops_per_s": len(ranked) / loop_s,
        "tail_percentile": tail_pct,
        "tail_op": tail_op,
        "samples": len(ranked),
    }


def import_metrics(importtime_stderr: str) -> dict[str, float]:
    """Cumulative import times in ms from `python -X importtime` output.

    ``import.bvlab_ms`` sums the outermost-level bvlab entries, which include
    everything the package pulls in (numpy among it).
    """
    numpy_ms = futures_ms = bvlab_ms = 0.0
    for line in importtime_stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative_ms = float(parts[1]) / 1e3
        except ValueError:  # the header line
            continue
        name = parts[2].strip()
        outermost = parts[2].startswith(" ") and not parts[2].startswith("  ")
        if name == "numpy":
            numpy_ms = cumulative_ms
        elif name == "concurrent.futures.process":
            futures_ms = cumulative_ms
        elif outermost and (name == "bvlab" or name.startswith("bvlab.")):
            bvlab_ms += cumulative_ms
    return {"import.numpy_ms": numpy_ms, "import.futures_process_ms": futures_ms,
            "import.bvlab_ms": bvlab_ms}


def machine_info() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": "",
        "python": platform.python_version(),
        "load_avg_1m": os.getloadavg()[0],
    }
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind == "Unified":
            info[f"l{level}_size"] = size
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    from importlib.metadata import PackageNotFoundError, version
    try:
        info["numpy"] = version("numpy")
    except PackageNotFoundError:
        info["numpy"] = None
    return info


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    doc = {"correct": correct, "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    return json.dumps(doc)


def eprint(*args) -> None:
    print(*args, file=sys.stderr, flush=True)
