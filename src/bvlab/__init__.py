"""Numerical laboratory for asymptotic variance of annular singular integrals.

Every submodule but ``cli`` is loaded lazily: its body runs on the first access
to one of its attributes, so a command runs only the modules it uses.  Import
each name from its module, as in ``from bvlab.order2 import order2_bound``.
"""
import importlib.util
import sys

__version__ = "0.1.0"

for _module in ("annular", "constructions", "dynamics", "errors", "formulas", "laurent",
                "manifest", "order2", "records", "selfcheck", "variance"):
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_module] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _module, _spec
