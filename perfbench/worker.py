"""The in-process workload: one warm interpreter, one operation in flight.

The operation list joins the order-2 ladder (`order2_bound` up to the 64-bit
shell capacity, `parameter_search`) and the estimator calls (the four variance
estimators, integral means, growth slopes).  One workload rather than two so
that each run can be long enough to average out the machine's speed swings.

run.py starts several of these processes one after another, each timing a
slice of the run, so that imports are paid inside each measured set-up, the
set-ups are spread over the run, and the peak RSS of each process doing the
work comes from wait4.  The last stdout line is a JSON object with the
figures of this process.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
from typing import Callable, NamedTuple  # noqa: E402

# The package first, so that -X importtime attributes numpy to it.
import bvlab  # noqa: E402,F401
import bvlab.annular as annular  # noqa: E402
import bvlab.constructions as constructions  # noqa: E402
import bvlab.order2 as order2  # noqa: E402
import bvlab.variance as variance  # noqa: E402

NUMPY_AFTER_IMPORT = "numpy" in sys.modules

import numpy as np  # noqa: E402

import references as ref  # noqa: E402
from common import WORK_DIR, more_rounds  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

ORDER2_DEGREES = (2, 3, 4, 8, 12, 16, 20)
ESTIMATOR_DEGREES = (2, 3, 4, 8, 16, 20)
FIXED_RHO0 = (0.05, 0.6)


class Op(NamedTuple):
    """One operation: a library call and the check of its result.  ``run``
    returns None when the result is correct and the reason otherwise."""

    label: str
    run: Callable[[], str | None]


def capacity_shells(d: int, rho0: float) -> int:
    return constructions.ShellParams(d=d, rho0=rho0, shells=10**6).clipped_to_max_freq().shells


def shell_ladder(cap: int) -> list[int]:
    """Every shell count up to 12, then six geometric steps to capacity."""
    counts = set(range(2, min(cap, 12) + 1))
    if cap > 12:
        counts |= {round(12 * (cap / 12) ** (i / 6)) for i in range(1, 7)}
    return sorted(counts)


def order2_op(d: int, rho0: float, shells: int, refine: bool) -> Op:
    params = constructions.ShellParams(d=d, rho0=rho0, shells=shells)

    def run():
        r = order2.order2_bound(params, refine=refine)
        return ref.check_order2(d, rho0, r.shells_used, r.first_order, r.second_order,
                                r.total, r.stability, refine)

    return Op(f"order2 d={d} J={shells} rho0={rho0:.4g}{' refine' if refine else ''}", run)


def search_op(grid_spec: list[tuple[int, float]], shells: int) -> Op:
    grid = [constructions.ShellParams(d=d, rho0=rho, shells=shells) for d, rho in grid_spec]

    def run():
        best, board = order2.parameter_search(grid)
        bad = ref.check_leaderboard([r.total for r in board], best.total)
        for r in board:
            bad = bad or ref.check_order2(r.params.d, r.params.rho0, r.shells_used,
                                          r.first_order, r.second_order, r.total,
                                          r.stability, False)
        return bad

    return Op(f"parameter_search {len(grid)} points", run)


def order2_ladder_ops(rng: random.Random) -> list[Op]:
    """Each (d, J) appears twice, at the optimal and at a seeded fixed rho0;
    exactly one of the two is refined, so the seed changes the inputs but not
    the amount of work."""
    ops = []
    for d in ORDER2_DEGREES:
        for shells in shell_ladder(capacity_shells(d, ref.optimal_rho0(d))):
            fixed = rng.uniform(*FIXED_RHO0)
            refine_fixed = rng.random() < 0.5
            ops.append(order2_op(d, ref.optimal_rho0(d), shells, not refine_fixed))
            ops.append(order2_op(d, fixed, shells, refine_fixed))
    for _ in range(4):
        degrees = rng.sample(ORDER2_DEGREES[2:], 3)
        grid_spec = [(d, rho) for d in degrees
                     for rho in (ref.optimal_rho0(d), rng.uniform(*FIXED_RHO0))]
        ops.append(search_op(grid_spec, 6))
    return ops


def estimator_ops(d: int, rho0: float) -> list[Op]:
    params = constructions.ShellParams(d=d, rho0=rho0, shells=22 if d == 2 else 12)
    blocks = 14 if d == 2 else 8

    def lacunary():
        moduli = constructions.shell_moduli(params, 2000)
        return ref.check_estimate(d, rho0, variance.variance_lacunary(moduli, d).value)

    def block():
        g = constructions.shell_beurling_series(params)
        return ref.check_estimate(d, rho0, variance.variance_block(g, d, 1.5, blocks).value)

    def mass():
        g = constructions.shell_beurling_series(params)
        return ref.check_estimate(d, rho0, variance.variance_block_mass(g).value)

    def cesaro():
        v = constructions.shell_cauchy_series(params)
        return ref.check_estimate(d, rho0, variance.cesaro_sigma4(v, 1.5, d).value)

    tag = f"d={d} rho0={rho0:.4g}"
    return [Op(f"lacunary {tag}", lacunary), Op(f"block {tag}", block),
            Op(f"mass {tag}", mass), Op(f"cesaro {tag}", cesaro)]


MEANS_RADII = tuple(1.0 + 1e-6 * (0.5e6 ** (i / 5)) for i in range(6))


def field_ops(mu, index: int) -> list[Op]:
    """Integral means and growth slope of the transform of a random shell field."""

    def means():
        g = annular.beurling_exterior(mu)
        bad = None
        for radius in MEANS_RADII:
            bad = bad or ref.check_means(g.coeffs, math.log(radius),
                                         variance.integral_means(g, radius))
        return bad

    def slope():
        g = annular.beurling_exterior(mu)
        return ref.check_slope(g.coeffs, 1.0 + 1e-6, 1.5, 40,
                               variance.growth_slope(g, 1.0 + 1e-6, 1.5, 40))

    return [Op(f"means field {index}", means), Op(f"slope field {index}", slope)]


def estimators_ops(rng: random.Random, seed: int) -> list[Op]:
    ops = []
    for d in ESTIMATOR_DEGREES:
        ops += estimator_ops(d, ref.optimal_rho0(d))
        ops += estimator_ops(d, rng.uniform(*FIXED_RHO0))
    np_rng = np.random.default_rng(seed)
    for i in range(6):
        mu = constructions.random_unit_shell_field(np_rng, shells=20, max_frequency=10**6)
        ops += field_ops(mu, i)
    return ops


def library_ops(rng: random.Random, seed: int) -> list[Op]:
    return order2_ladder_ops(rng) + estimators_ops(rng, seed)


# Whole timed rounds per worker process, at least.
MIN_ROUNDS = 1
SPANS_FILE = WORK_DIR / "spans_library.json"


class Runner:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def execute(self, op: Op) -> float:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            bad = op.run()
        except Exception as exc:  # a raising operation is a failed operation
            bad = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if bad is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{op.label}: {bad}")
        return dt

    def round(self, ops, rng: random.Random) -> tuple[list[tuple[float, str]], float]:
        """Every operation once, in a shuffled order: (time, label) of each
        operation and the round's time."""
        order = list(ops)
        rng.shuffle(order)
        t0 = time.perf_counter()
        samples = [(self.execute(op), op.label) for op in order]
        return samples, time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("run", "trace"), required=True)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    ops = library_ops(rng, args.seed)
    runner = Runner()
    warm, _ = runner.round(ops, rng)          # warm-up: every operation once
    setup_s = time.perf_counter() - T_START
    out = {"setup_s": setup_s, "numpy_after_import": NUMPY_AFTER_IMPORT,
           "ops_per_round": len(ops)}
    round_s = sum(dt for dt, _ in warm)

    if args.mode == "run":
        samples: list[tuple[float, str]] = []
        loop_s = 0.0
        rounds = 0
        while more_rounds(rounds, MIN_ROUNDS, loop_s, round_s, args.seconds):
            s, round_s = runner.round(ops, rng)
            samples += s
            loop_s += round_s
            rounds += 1
        out.update(samples=samples, loop_s=loop_s, rounds=rounds)
    else:
        tracer = Tracer()
        plain_s = traced_s = 0.0
        rounds = 0
        round_s *= 2.0
        while more_rounds(rounds, MIN_ROUNDS, plain_s + traced_s, round_s, args.seconds):
            order = list(ops)
            rng.shuffle(order)
            # The same operations untraced and traced, alternating which pass
            # goes first, so that drift in machine speed cancels.
            for traced in (False, True) if rounds % 2 == 0 else (True, False):
                if traced:
                    tracer.install()
                try:
                    t0 = time.perf_counter()
                    for op in order:
                        runner.execute(op)
                    pass_s = time.perf_counter() - t0
                finally:
                    tracer.uninstall()
                if traced:
                    traced_s += pass_s
                else:
                    plain_s += pass_s
                    round_s = 2.0 * pass_s
            rounds += 1
        doc = tracer.dump()
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        with open(SPANS_FILE, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out["layers"] = layer_metrics([doc], rounds)
        out["layers"]["trace.overhead_ratio"] = traced_s / plain_s - 1.0
        out["rounds"] = rounds
        out["missing"] = doc["missing"]
        out["hook_errors"] = doc["hook_errors"]
    out.update(attempted=runner.attempted, failed=runner.failed, errors=runner.errors,
               in_process_s=time.perf_counter() - T_START)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
