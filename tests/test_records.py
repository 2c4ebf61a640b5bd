"""Every record of the package is an immutable namedtuple, and the records that
validate or coerce their fields do so in __new__, which every way of making or
changing a record goes through."""
import dataclasses
import importlib
import math
import os
import subprocess
import sys

import pytest

from bvlab.annular import MonomialTerm, PiecewiseField
from bvlab.constructions import (ShellParams, lacunary_vector_field,
                                 truncate_to_polynomial)
from bvlab.dynamics import (MAX_ZEROS, BlaschkeMap, CirclePotential, birkhoff_variance,
                            coboundary_check)
from bvlab.errors import FREQ_CAP, CapacityError, ValidationError
from bvlab.formulas import optimal_rho0
from bvlab.laurent import ExteriorLaurent, SelfSimilarity
from bvlab.order2 import Order2Field, order2_bound
from bvlab.selfcheck import CheckResult
from bvlab.variance import variance_lacunary


def _records() -> dict:
    term = MonomialTerm.make(1.0, 2, 0, -2.0, 0.5, 0.8)
    field = PiecewiseField.of(term)
    phi = CirclePotential.from_map({1: 1.0})
    series = ExteriorLaurent({1: 1.0}, 2)
    records = [
        term, field, SelfSimilarity(2, 1), series,
        ShellParams(d=3, rho0=0.2, shells=2), lacunary_vector_field(2, 3),
        truncate_to_polynomial(field, 0.9, 0.01), variance_lacunary([1.0] * 4, 2),
        Order2Field(series),
        order2_bound(ShellParams(d=16, rho0=0.3, n0=15, shells=3)),
        phi, BlaschkeMap.power(2), birkhoff_variance(phi, BlaschkeMap.power(2), 5),
        coboundary_check(2, 5), CheckResult("name", True, "detail"),
    ]
    return {type(r).__name__: r for r in records}


RECORDS = _records()


def test_every_record_class_is_listed():
    defined = set()
    for module in ("annular", "constructions", "dynamics", "laurent", "order2", "selfcheck",
                   "variance"):
        module = importlib.import_module(f"bvlab.{module}")
        defined.update(name for name, obj in vars(module).items()
                       if isinstance(obj, type) and issubclass(obj, tuple)
                       and obj.__module__ == module.__name__)
    assert defined == set(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_an_immutable_namedtuple(name):
    record = RECORDS[name]
    assert isinstance(record, tuple) and type(record).__slots__ == ()
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], getattr(record, record._fields[0]))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert type(record._replace()) is type(record) and record._replace() == record


@pytest.mark.parametrize("name", RECORDS)
def test_record_reads_as_a_frozen_dataclass(name):
    record = RECORDS[name]
    assert dataclasses.is_dataclass(record)
    assert tuple(f.name for f in dataclasses.fields(record)) == record._fields
    changed = dataclasses.replace(record)
    assert type(changed) is type(record) and changed == record
    assert list(dataclasses.asdict(record)) == list(record._fields)


def test_changing_a_record_validates():
    params = ShellParams(d=3, rho0=0.2, shells=2)
    for change in (params._replace, lambda **kw: dataclasses.replace(params, **kw)):
        with pytest.raises(ValidationError):
            change(shells=-1)
        assert change(rho0="optimal").rho0 == optimal_rho0(3)
    assert BlaschkeMap.power(2)._replace(zeros=(0,)) == ((), 3)


def test_records_do_not_load_dataclasses():
    code = ("import sys; from bvlab.constructions import ShellParams; "
            "p = ShellParams(d=3, rho0=0.2); "
            "assert not hasattr(p, '__dataclass_fields__') and p._replace(shells=1).shells == 1; "
            "assert 'dataclasses' not in sys.modules")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_field_repr_names_each_field():
    assert repr(MonomialTerm(1, 0, 2, 0, -1.0, 0.0)) == (
        "MonomialTerm(coeff=(1+0j), p=0, q=2, gamma=0.0, log_r_in=-1.0, log_r_out=0.0)")


def test_equality_is_by_value():
    # a record equals a record (or a plain tuple) of equal values; series compare by value
    assert ExteriorLaurent({1: 1.0}, 2) == ExteriorLaurent({1: 1 + 0j}, 2)
    assert SelfSimilarity(2, 1) == (2, 1)


@pytest.mark.parametrize("make", [
    lambda: ShellParams(d=1, rho0=0.2),
    lambda: ShellParams(d=3, rho0=1.0),
    lambda: ShellParams(d=3, rho0=0.2, shells=-1),
    lambda: ShellParams(d=3, rho0=0.0),
    lambda: ShellParams(d=3, rho0=0.2, n0=1),
    lambda: MonomialTerm(1.0, -1, 0, 0.0, -1.0, 0.0),
    lambda: MonomialTerm(1.0, 0, 0, 0.0, 0.0, 0.0),
    lambda: SelfSimilarity(1, 1),
    lambda: SelfSimilarity(2, 0),
    lambda: BlaschkeMap((1.0,)),
    lambda: BlaschkeMap((complex(math.nan, 0),)),
    lambda: BlaschkeMap((0.5,) * (MAX_ZEROS + 1)),
    lambda: BlaschkeMap((), 0),
    lambda: ExteriorLaurent({0: 1.0}, 2),
    lambda: ExteriorLaurent({3: 1.0}, 2),
])
def test_validating_constructor_rejects(make):
    with pytest.raises(ValidationError):
        make()


@pytest.mark.parametrize("make", [lambda: ExteriorLaurent({FREQ_CAP + 1: 1.0}, FREQ_CAP),
                                  lambda: ExteriorLaurent({1: 1.0}, FREQ_CAP + 1)])
def test_series_past_capacity_is_rejected(make):
    with pytest.raises(CapacityError):
        make()


def test_constructors_coerce_and_resolve():
    assert ShellParams(d=3, rho0="optimal").rho0 == optimal_rho0(3)
    term = MonomialTerm(1, 0, 2, 0, -1.0, 0.0)
    assert type(term.coeff) is complex and type(term.gamma) is float
    outer, inner = (MonomialTerm(1.0, 0, 0, 0.0, lin, lin + 0.5) for lin in (-0.5, -1.0))
    assert PiecewiseField((outer, inner)).terms == (inner, outer)
    assert BlaschkeMap((0, 0.5), 2) == ((0.5 + 0j,), 3)
