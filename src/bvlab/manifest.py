"""Deterministic serialization: values in, the bytes of an artifact out.

Nothing time- or host-dependent is emitted, so identical values produce
byte-identical artifacts.  JSON objects are written with sorted keys, strings
are escaped by the standard library's encoder (every control character
included), complex numbers become ``[re, im]`` and floats are written with 17
significant digits (full round-trip precision); display rounding happens only
at the presentation layer.

The run manifest that ``cli.run`` builds is not a resolved configuration: it
echoes flags as parsed (``"d": "16"`` stays text), config values as written
and the ``rho0`` and ``method`` defaults, and lists under ``resolved`` the
values the run chose.
"""
from __future__ import annotations

import math
from json.encoder import encode_basestring
from pathlib import Path

from .errors import ValidationError


def fmt_float(x: float) -> str:
    if isinstance(x, float) and not math.isfinite(x):
        raise ValidationError("non-finite value in output")
    return f"{x:.17g}"


def _json(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return encode_basestring(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, complex):
        return _json([value.real, value.imag])
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise ValidationError("JSON object keys must be strings")
        return "{" + ", ".join(f"{encode_basestring(key)}: {_json(value[key])}"
                               for key in sorted(value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_json, value)) + "]"
    raise ValidationError(f"cannot serialize {type(value).__name__}")


def json_text(value) -> str:
    """Deterministic JSON with sorted keys and 17-significant-digit floats."""
    return _json(value) + "\n"


def csv_text(header: list[str], rows: list[list]) -> str:
    """CSV with a header row; floats full precision, cells must be scalar."""
    def cell(v) -> str:
        if isinstance(v, float):
            return fmt_float(v)
        if isinstance(v, (int, str)):
            return str(v)
        raise ValidationError(f"cannot put {type(v).__name__} in CSV")

    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValidationError("CSV row width mismatch")
        lines.append(",".join(cell(v) for v in row))
    return "\n".join(lines) + "\n"


def write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
