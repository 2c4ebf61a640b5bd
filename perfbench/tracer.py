"""Function-level spans and size counters for bvlab, installed from outside.

``from .x import y`` copies the function object into the importing module,
so a wrapper placed only on the defining module would miss most callers.
``Tracer.install`` therefore replaces every attribute of every loaded
``bvlab`` module that holds a traced function.  Spans are kept in memory;
self time is a span's duration minus the time covered by its direct children.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

# (defining module, attribute) of each traced function.  Metric names drop
# the "bvlab." prefix: annular.multiply.calls, laurent.ExteriorLaurent.from_doc.self_ms.
TARGETS = (
    ("bvlab.annular", "beurling"),
    ("bvlab.annular", "multiply"),
    ("bvlab.annular", "beurling_exterior"),
    ("bvlab.annular", "cauchy_full"),
    ("bvlab.annular", "cauchy_exterior"),
    ("bvlab.laurent", "convolve"),
    ("bvlab.laurent", "ExteriorLaurent.from_doc"),
    ("bvlab.constructions", "build_shell"),
    ("bvlab.constructions", "shell_cauchy_series"),
    ("bvlab.constructions", "shell_beurling_series"),
    ("bvlab.constructions", "truncate_to_polynomial"),
    ("bvlab.order2", "order2_field"),
    ("bvlab.order2", "order2_bound"),
    ("bvlab.order2", "parameter_search"),
    ("bvlab.variance", "variance_lacunary"),
    ("bvlab.variance", "variance_block"),
    ("bvlab.variance", "variance_block_mass"),
    ("bvlab.variance", "cesaro_sigma4"),
    ("bvlab.variance", "integral_means_log"),
    ("bvlab.variance", "growth_slope"),
    ("bvlab.dynamics", "birkhoff_variance_mc"),
    ("bvlab.dynamics", "log_deriv_mean"),
    ("bvlab.manifest", "json_text"),
    ("bvlab.manifest", "csv_text"),
    ("bvlab.manifest", "write_text"),
    ("bvlab.selfcheck", "run_selfcheck"),
    ("bvlab.cli", "main"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module.split('.', 1)[1]}.{attr}"


SPAN_NAMES = tuple(span_name(m, a) for m, a in TARGETS)


# Size counters: span name -> function(bound arguments, result) -> increments.
def _multiply_sizes(args, result):
    return {"annular.multiply.pairs": len(args["f"].terms) * len(args["g"].terms),
            "annular.multiply.terms_out": len(result.terms)}


def _convolve_sizes(args, result):
    return {"laurent.convolve.pairs": len(args["a"].coeffs) * len(args["b"].coeffs),
            "laurent.convolve.kept": len(result[0].coeffs)}


def _order2_field_sizes(args, result):
    return {"order2.coeffs_kept": len(result.w.coeffs)}


def _cesaro_sizes(args, result):
    return {"variance.cesaro_sigma4.annuli": len(result.diagnostics)}


def _write_sizes(args, result):
    return {"manifest.bytes_written": len(args["text"].encode("utf-8"))}


HOOKS = {
    "annular.multiply": _multiply_sizes,
    "laurent.convolve": _convolve_sizes,
    "order2.order2_field": _order2_field_sizes,
    "variance.cesaro_sigma4": _cesaro_sizes,
    "manifest.write_text": _write_sizes,
}

# Per-round totals reported as they are (name -> unit), and the two ratios
# (useful outcomes per attempted pair) computed from them.
COUNTER_UNITS = {"annular.multiply.pairs": "count", "annular.multiply.terms_out": "count",
                 "laurent.convolve.pairs": "count", "order2.coeffs_kept": "count",
                 "variance.cesaro_sigma4.annuli": "count", "manifest.bytes_written": "bytes"}
RATIOS = {"annular.multiply.useful_ratio": ("annular.multiply.terms_out", "annular.multiply.pairs"),
          "laurent.convolve.kept_ratio": ("laurent.convolve.kept", "laurent.convolve.pairs")}


def layer_units() -> dict[str, str]:
    """Units of every metric ``layer_metrics`` returns."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units.update(COUNTER_UNITS)
    units.update({name: "ratio" for name in RATIOS})
    return units


class Tracer:
    """Spans (name, parent index, start ns, end ns) of one process."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self.hook_errors: dict[str, str] = {}
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._saved: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "bvlab" or name.startswith("bvlab."))]
        for module_name, attr in TARGETS:
            name = span_name(module_name, attr)
            module = sys.modules.get(module_name)
            if module is None:  # not imported by this process: nothing can call it
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                original = None if cls is None else cls.__dict__.get(meth)
                if not isinstance(original, classmethod):
                    self.missing.add(name)
                    continue
                setattr(cls, meth, classmethod(self._wrap(name, original.__func__)))
                self._saved.append((cls, meth, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._saved.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook is not None else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, parent, t0, t1)
            if hook is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    for key, n in hook(bound, result).items():
                        counts[key] = counts.get(key, 0) + n
                except (AttributeError, KeyError, TypeError) as exc:
                    tracer.hook_errors[name] = repr(exc)
            return result

        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts,
                "missing": sorted(self.missing), "hook_errors": self.hook_errors}


def layer_metrics(docs: list[dict], rounds: int) -> dict[str, float]:
    """Per-round calls, self time and sizes from the dumps of ``rounds``
    identical traced rounds (one dump per process)."""
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_ns = dict.fromkeys(SPAN_NAMES, 0)
    counts: dict[str, int] = {}
    for doc in docs:
        spans = doc["spans"]
        covered = [0] * len(spans)
        for _name, parent, t0, t1 in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        for (name, _parent, t0, t1), child_ns in zip(spans, covered):
            calls[name] += 1
            self_ns[name] += (t1 - t0) - child_ns
        for key, n in doc["counts"].items():
            counts[key] = counts.get(key, 0) + n
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name] / rounds
        out[f"{name}.self_ms"] = self_ns[name] / 1e6 / rounds
    for name in COUNTER_UNITS:
        out[name] = counts.get(name, 0) / rounds
    for name, (num, den) in RATIOS.items():
        out[name] = counts[num] / counts[den] if counts.get(den) else 0.0
    return out
