"""Run configuration, deterministic serialization and artifact emission.

Every CLI run writes a manifest echoing the fully resolved configuration and
the tool version.  Nothing time- or host-dependent is emitted, so identical
configurations produce byte-identical artifacts.  Floats are written with 17
significant digits (full round-trip precision); display rounding happens
only at the presentation layer.
"""
from __future__ import annotations

import math
import os
from pathlib import Path

from .errors import ValidationError

TOOL_NAME = "bvlab"
OUTPUT_ENV = "BVLAB_OUT"


def fmt_float(x: float) -> str:
    if isinstance(x, float) and not math.isfinite(x):
        raise ValidationError("non-finite value in output")
    return f"{x:.17g}"


def _json_fragment(value, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        escaped = escaped.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")
        out.append(f'"{escaped}"')
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(fmt_float(value))
    elif isinstance(value, complex):
        _json_fragment([value.real, value.imag], out)
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if i:
                out.append(", ")
            if not isinstance(key, str):
                raise ValidationError("JSON object keys must be strings")
            _json_fragment(key, out)
            out.append(": ")
            _json_fragment(value[key], out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(", ")
            _json_fragment(item, out)
        out.append("]")
    else:
        raise ValidationError(f"cannot serialize {type(value).__name__}")


def json_text(value) -> str:
    """Deterministic JSON with sorted keys and 17-significant-digit floats."""
    out: list[str] = []
    _json_fragment(value, out)
    return "".join(out) + "\n"


def csv_text(header: list[str], rows: list[list]) -> str:
    """CSV with a header row; floats full precision, cells must be scalar."""
    def cell(v) -> str:
        if isinstance(v, float):
            return fmt_float(v)
        if isinstance(v, (int, str)):
            return str(v)
        if isinstance(v, bool):  # pragma: no cover - bool is int, kept for clarity
            return str(v).lower()
        raise ValidationError(f"cannot put {type(v).__name__} in CSV")

    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValidationError("CSV row width mismatch")
        lines.append(",".join(cell(v) for v in row))
    return "\n".join(lines) + "\n"


def resolve_output_dir(configured: str | None) -> Path:
    """Output directory: the BVLAB_OUT environment variable wins, then the
    configured value (the flag over the config file), then ./bvlab_out."""
    return Path(os.environ.get(OUTPUT_ENV) or configured or "bvlab_out")


def write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


class RunConfig:
    """Resolved configuration of one CLI run; rejects unknown keys."""

    def __init__(self, command: str, known_keys: set[str], file_values: dict,
                 flag_values: dict):
        unknown = set(file_values) - known_keys
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        merged = dict(file_values)
        for key, val in flag_values.items():
            if val is not None:
                merged[key] = val
        self.command = command
        self.values = merged

    def manifest(self, version: str, extra: dict | None = None) -> dict:
        doc = {
            "tool": TOOL_NAME,
            "version": version,
            "command": self.command,
            "config": self.values,
        }
        if extra:
            doc["resolved"] = extra
        return doc
