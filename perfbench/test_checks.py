"""Each workload's correctness check passes on the program's real result and
fails on a perturbed one.

    python3 perfbench/test_checks.py
"""
from __future__ import annotations

import dataclasses
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bvlab.order2 as order2  # noqa: E402
import bvlab.variance as variance  # noqa: E402
from bvlab.constructions import ShellParams  # noqa: E402

import cli_workload  # noqa: E402
import references as ref  # noqa: E402
import worker  # noqa: E402


class Patched:
    """Temporarily replace a module attribute with a function of the original."""

    def __init__(self, module, name, make):
        self.module, self.name, self.make = module, name, make

    def __enter__(self):
        self.original = getattr(self.module, self.name)
        setattr(self.module, self.name, self.make(self.original))

    def __exit__(self, *exc):
        setattr(self.module, self.name, self.original)


def scaled_result(field: str, factor: float):
    """Wrap a function so that one field of its (dataclass) result is scaled."""
    def make(original):
        def perturbed(*args, **kwargs):
            r = original(*args, **kwargs)
            return dataclasses.replace(r, **{field: getattr(r, field) * factor})
        return perturbed
    return make


class Order2LadderChecks(unittest.TestCase):
    def test_capacity_op_passes_and_fails_when_perturbed(self):
        d, rho0 = 16, ref.optimal_rho0(16)
        op = worker.order2_op(d, rho0, worker.capacity_shells(d, rho0), refine=True)
        self.assertIsNone(op.run())

        def second_order_off(original):
            def perturbed(*args, **kwargs):
                r = original(*args, **kwargs)
                second = r.second_order * (1 + 1e-6)
                return dataclasses.replace(r, second_order=second, total=r.first_order + second)
            return perturbed

        with Patched(order2, "order2_bound", second_order_off):
            self.assertIsNotNone(op.run())

    def test_shallow_ops_fail_when_second_order_is_half_again(self):
        for d, rho0, shells in ((2, 0.3, 6), (4, 0.3, 3)):
            op = worker.order2_op(d, rho0, shells, refine=False)
            self.assertIsNone(op.run(), op.label)
            with Patched(order2, "order2_bound", scaled_result("second_order", 1.5)):
                self.assertIsNotNone(op.run(), op.label)

    def test_total_below_first_order_fails(self):
        r = order2.order2_bound(ShellParams(d=8, rho0=0.2, shells=10))
        args = (8, 0.2, r.shells_used, r.first_order, r.second_order)
        self.assertIsNone(ref.check_order2(*args, r.total, None, False))
        self.assertIsNotNone(ref.check_order2(8, 0.2, r.shells_used, r.first_order,
                                              -r.second_order, r.first_order - r.second_order,
                                              None, False))

    def test_search_op_fails_on_unsorted_leaderboard(self):
        op = worker.search_op([(4, 0.2), (8, ref.optimal_rho0(8)), (12, 0.5)], 6)
        self.assertIsNone(op.run())

        def reversed_board(original):
            def perturbed(grid, *args, **kwargs):
                best, board = original(grid, *args, **kwargs)
                return board[-1], board[::-1]
            return perturbed

        with Patched(order2, "parameter_search", reversed_board):
            self.assertIsNotNone(op.run())


class EstimatorChecks(unittest.TestCase):
    def test_each_estimator_fails_three_percent_off(self):
        ops = worker.estimator_ops(3, 0.3)
        for op in ops:
            self.assertIsNone(op.run(), op.label)
        for name, op in zip(("variance_lacunary", "variance_block", "variance_block_mass",
                             "cesaro_sigma4"), ops):
            with Patched(variance, name, scaled_result("value", 1.03)):
                self.assertIsNotNone(op.run(), op.label)

    def test_means_and_slope_fail_when_perturbed(self):
        import numpy as np
        from bvlab.constructions import random_unit_shell_field
        mu = random_unit_shell_field(np.random.default_rng(5), shells=20, max_frequency=10**6)
        means, slope = worker.field_ops(mu, 0)
        self.assertIsNone(means.run())
        self.assertIsNone(slope.run())

        def nudged(original):
            return lambda *a, **k: original(*a, **k) * (1 + 1e-9)

        with Patched(variance, "integral_means_log", nudged):
            self.assertIsNotNone(means.run())
        with Patched(variance, "growth_slope", lambda f: lambda *a, **k: f(*a, **k) + 1e-6):
            self.assertIsNotNone(slope.run())


class CliChecks(unittest.TestCase):
    def test_table2_passes_then_fails_on_changed_artifacts_and_display(self):
        run = cli_workload.CliRun(seed=3)
        try:
            case = next(c for c in run.cases if c.name == "table2")
            res, _ = run.execute(case)          # sets the reference digest
            res, _ = run.execute(case)
            self.assertEqual(run.failed, 0, run.errors)
            digest = cli_workload._digest(res.stdout, case.out_dir)
            self.assertIsNone(ref.check_cli("table2", 0, digest, case.reference, res.stdout))

            self.assertIsNotNone(ref.check_cli("table2", 2, digest, case.reference, res.stdout))
            (case.out_dir / "table2.csv").write_bytes(res.stdout + b"\n")
            changed = cli_workload._digest(res.stdout, case.out_dir)
            self.assertIsNotNone(ref.check_cli("table2", 0, changed, case.reference, res.stdout))
            wrong = res.stdout.replace(b"0.8791", b"0.8792")
            self.assertIsNotNone(ref.check_cli("table2", 0, digest, case.reference, wrong))
        finally:
            run.close()


if __name__ == "__main__":
    unittest.main()
