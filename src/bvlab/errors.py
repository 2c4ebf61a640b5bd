"""Error types shared across the package, and the number readers that raise them.

Exit-code mapping used by the CLI: validation problems exit 2, capacity and
unresolved-scale/truncation problems exit 3.
"""
import math
import re

# Frequencies are kept as checked 64-bit-range integers.  Constructions that
# would exceed this raise CapacityError instead of silently losing precision.
FREQ_CAP = 2**63 - 1


class BVLabError(Exception):
    """Base class for package errors."""


class ValidationError(BVLabError):
    """Invalid parameters or malformed input documents."""


class CapacityError(BVLabError):
    """A requested construction exceeds the 64-bit frequency range."""


class UnsupportedTermError(BVLabError):
    """A transform result leaves the monomial-annulus term class.

    This happens only for the degenerate radial exponent e = 2p + gamma + 2 = 0,
    whose antiderivative is logarithmic.  None of the shell, lacunary or
    truncation constructions produce it (their exponents equal the positive
    angular order n), so the error marks genuinely unsupported inputs.
    """


class DivergentMomentError(BVLabError):
    """Radial moment integral diverges (unbounded support with e >= 0)."""


class UnresolvedScaleError(BVLabError):
    """A variance estimate was requested below the resolved frequency cutoff."""


class UnresolvedTruncationError(BVLabError):
    """Truncation tail mass exceeds the requested tolerance."""


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
    """Finite complex coefficient from its real and imaginary parts."""
    return complex(parse_float(re, "coefficient"), parse_float(im, "coefficient"))
