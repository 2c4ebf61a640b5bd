"""Error types shared across the package, and the number readers that raise them.

Each error class carries the exit code the CLI returns for it: 2 for invalid
input (the default), 3 for a capacity or unresolved-scale error.
"""
import math
import re

# Frequencies are kept as checked 64-bit-range integers.  Constructions that
# would exceed this raise CapacityError instead of silently losing precision.
FREQ_CAP = 2**63 - 1
COEFF_CAP = 1e100  # a document coefficient's parts: their squares, summed 1e100 times, stay finite


class BVLabError(Exception):
    """Base class for package errors."""

    exit_code = 2


class ValidationError(BVLabError):
    """Invalid parameters or malformed input documents."""


class CapacityError(BVLabError):
    """A construction past the 64-bit frequency range, or a document coefficient past COEFF_CAP."""

    exit_code = 3


class UnsupportedTermError(BVLabError):
    """A transform result leaves the monomial-annulus term class.

    Only ``annular.cauchy_full`` raises it, for a term whose radial exponent
    e = 2p + gamma + 2 is 0 (a logarithmic antiderivative); a moment at e = 0 is
    the finite log moment, so the exterior series and the projection take one.
    The shell, lacunary and truncation constructions produce none (their e > 0).
    """


class DivergentMomentError(BVLabError):
    """Radial moment integral diverges (unbounded support with e >= 0)."""


class UnresolvedScaleError(BVLabError):
    """A variance estimate below its frequency cutoff, or a circle mean of log|B'| unresolved."""

    exit_code = 3


# decimal literal with optional fraction and exponent, e.g. 12, 1e12, 1.5e3
_DECIMAL = re.compile(r"([+-]?\d+)(?:\.(\d*))?(?:[eE]([+-]?\d{1,4}))?")
_MAX_DIGITS = 4300  # the interpreter's own limit for int <-> str conversion


def parse_int(value, key: str = "value") -> int:
    """Exact integer from an int, an integral float or a decimal string.

    Scientific notation such as ``1e12`` is accepted when its value is an
    exact integer.  Strings never pass through float, so 2**63 - 1 and
    12345678901234567 keep every digit.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    match = _DECIMAL.fullmatch(value.strip()) if isinstance(value, str) else None
    if match:
        digits = match[1] + (match[2] or "")
        shift = int(match[3] or 0) - len(match[2] or "")
        if len(digits) + abs(shift) <= _MAX_DIGITS:
            whole, rest = divmod(int(digits) * 10**max(shift, 0), 10**max(-shift, 0))
            if rest == 0:
                return whole
    raise ValidationError(f"{key} must be an integer, got {value!r}")


def parse_float(value, key: str = "value") -> float:
    """Finite float from a number or a decimal string; booleans are not numbers."""
    try:
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):  # an int beyond the float range overflows
        x = math.nan
    if not math.isfinite(x):
        raise ValidationError(f"{key} must be a finite number, got {value!r}")
    return x


def parse_complex(re, im) -> complex:
    """Complex coefficient from its parts, each finite and at most COEFF_CAP in modulus."""
    c = complex(parse_float(re, "coefficient"), parse_float(im, "coefficient"))
    if max(abs(c.real), abs(c.imag)) > COEFF_CAP:
        raise CapacityError(f"coefficient {c} exceeds {COEFF_CAP:g} in a part")
    return c


def parse_coeffs(entries) -> dict[int, complex]:
    """The coefficients of a document's [k, re, im] entries by frequency; a frequency
    listed twice is invalid, as it would leave the document two meanings."""
    coeffs = {}
    for k, re, im in entries:
        k = parse_int(k, "frequency")
        if k in coeffs:
            raise ValidationError(f"frequency {k} is listed twice")
        coeffs[k] = parse_complex(re, im)
    return coeffs
