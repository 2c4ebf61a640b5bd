import functools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from bvlab.annular import MonomialTerm, PiecewiseField
from bvlab.selfcheck import CheckResult, run_selfcheck

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
# a longer, randomized run of the fuzzers in test_cli_fuzz.py (2000 examples per case):
#   python -m pytest tests/test_cli_fuzz.py --hypothesis-profile=fuzz-long
settings.register_profile("fuzz-long", deadline=None, max_examples=8000)


@pytest.fixture
def mu4() -> PiecewiseField:
    """Basic unit-modulus block of angular order 4 on A(0.5, 0.8)."""
    return PiecewiseField.of(MonomialTerm.make(1.0, 2, 0, -2.0, 0.5, 0.8))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.Generator(np.random.Philox(20260810))


def circle(r: float, theta: float) -> complex:
    return r * complex(math.cos(theta), math.sin(theta))


@functools.cache
def selfcheck_results() -> dict[str, CheckResult]:
    """The full selfcheck list by name, run once: the home of the identity checks."""
    return {r.name: r for r in run_selfcheck(full=True)}


def assert_selfcheck(*names: str) -> None:
    results = selfcheck_results()
    for name in names:
        assert results[name].passed, f"{name}: {results[name].detail}"
