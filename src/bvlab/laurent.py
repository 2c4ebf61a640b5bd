"""Sparse Laurent series on the exterior disk |z| > 1, and the one radial-moment rule.

A series g(z) = sum_k b_k z^(-k) is stored as a map from the integer
frequency k >= 1 to the complex coefficient b_k.  ``max_freq`` is the
resolution cutoff: the stored coefficients are exact for k <= max_freq,
nothing is claimed beyond it.  Optional self-similarity metadata records the
lacunary block structure (base d, first block edge n0) used by the block-mass
variance estimator; it is not part of the series document.  A block
c conj(z)^p z^q |z|^gamma on r_in <= |z| < r_out adds one ``radial_moment``,
with e set by the transform, to one coefficient; radii are given by their logs.
``cauchy_coefficients`` is that rule for the Cauchy transform, the one route of
the term algebra's exterior series and of the shell series alike.
"""
from __future__ import annotations

from math import exp, fsum, inf, isfinite, prod
from operator import itemgetter

from .errors import (FREQ_CAP, CapacityError, DivergentMomentError, ValidationError,
                     parse_coeffs, parse_int)
from .records import record


def complex_fsum(values) -> complex:
    """Sum of complex values with the real and imaginary parts each summed by fsum."""
    re, im = [], []
    for v in values:
        re.append(v.real)
        im.append(v.imag)
    return complex(fsum(re), fsum(im))


def radial_power(e: float, log_r: float) -> float:
    """r**e computed from log r; exact at the conventions 0**pos = 0, r**0 = 1."""
    if e == 0.0:
        return 1.0
    if log_r == -inf:
        if e > 0:
            return 0.0
        raise DivergentMomentError("negative radial exponent with support reaching 0")
    if log_r == inf:
        if e < 0:
            return 0.0
        raise DivergentMomentError("non-negative radial exponent with unbounded support")
    return exp(e * log_r)


def radial_moment(coeff: complex, e: float, log_r_in: float, log_r_out: float) -> complex:
    """(1/pi) integral of c |w|^(e - 2) over r_in <= |w| < r_out, a block's moment at its
    one frequency: 2 c (r_out^e - r_in^e)/e, and 2 c log(r_out/r_in) when e = 0."""
    if e == 0.0:
        if not (isfinite(log_r_in) and isfinite(log_r_out)):
            raise DivergentMomentError("logarithmic moment with unbounded support")
        return 2.0 * coeff * (log_r_out - log_r_in)
    return 2.0 * coeff * (radial_power(e, log_r_out) - radial_power(e, log_r_in)) / e


def term_order(p: int, q: int, gamma: float, log_r_in: float, log_r_out: float):
    """Canonical order of blocks: angular frequency, support, then conjugate power and gamma."""
    return (q - p, log_r_in, log_r_out, p, gamma)


def cauchy_coefficients(blocks) -> dict[int, complex]:
    """Exterior Cauchy coefficients of blocks (coeff, p, q, gamma, log_r_in, log_r_out),
    plain tuples or ``annular.MonomialTerm``s.

    Each block with p >= q contributes its radial moment, e = 2p + gamma + 2, at
    the single frequency k = p - q + 1; the moments of each frequency are summed
    in ``term_order``, so the keys come largest first, the order in which
    derivative_coefficients checks capacity.  An unbounded block is rejected
    before any moment is taken.
    """
    keyed = []
    for c, p, q, gamma, lin, lout in blocks:
        if not isfinite(lout):
            raise ValidationError("cauchy_exterior requires bounded supports")
        if p >= q:
            keyed.append((term_order(p, q, gamma, lin, lout), c))
    keyed.sort(key=itemgetter(0))
    coeffs: dict[int, complex] = {}
    for (m, lin, lout, p, gamma), c in keyed:
        a = radial_moment(c, 2 * p + gamma + 2.0, lin, lout)
        if a != 0:
            k = 1 - m
            coeffs[k] = coeffs.get(k, 0) + a
    return coeffs


def derivative_coefficients(coeffs: dict[int, complex], order: int = 1) -> dict[int, complex]:
    """The n-th z-derivative termwise: a_k z^-k maps to (-1)^n k(k+1)...(k+n-1) a_k z^-(k+n).

    Per key, in the order given: a key past FREQ_CAP raises, then a nonzero
    coefficient whose k + n is past it.  Zero coefficients are dropped.
    """
    last = FREQ_CAP - order  # the largest k whose image fits
    out = {}
    for k, a in coeffs.items():
        if k > FREQ_CAP:
            raise CapacityError(f"frequency {k} exceeds 64-bit capacity")
        if a != 0:
            if k > last:
                raise CapacityError(f"frequency {k + order} exceeds 64-bit capacity")
            if order == 1:  # the transform's rule, kept as cheap as one negation per term
                out[k + 1] = -k * a
            else:
                out[k + order] = (-1) ** order * prod(range(k, k + order)) * a
    return out


class SelfSimilarity(record("SelfSimilarity", "base first_index")):
    """Lacunary block structure: block edges sit at n0 * base**j."""

    __slots__ = ()

    def __new__(cls, base: int, first_index: int) -> "SelfSimilarity":
        if base < 2 or first_index < 1:
            raise ValidationError("self-similarity needs base >= 2 and first index >= 1")
        return super().__new__(cls, base, first_index)

    def block_edges(self, max_freq: int) -> list[int]:
        edges = []
        n = self.first_index
        while n <= max_freq:
            edges.append(n)
            if n > max_freq // self.base:
                break
            n *= self.base
        return edges


class ExteriorLaurent(record("ExteriorLaurent", "coeffs max_freq self_similarity")):
    """Sparse Laurent series on |z| > 1.  The record is immutable; treat ``coeffs``,
    a dict, as frozen too."""

    __slots__ = ()

    def __new__(cls, coeffs, max_freq: int,
                self_similarity: SelfSimilarity | None = None) -> "ExteriorLaurent":
        cleaned: dict[int, complex] = {}
        for k, c in dict(coeffs).items():
            k = int(k)
            if k < 1:
                raise ValidationError(f"exterior frequency must be >= 1, got {k}")
            if k > FREQ_CAP:
                raise CapacityError(f"frequency {k} exceeds 64-bit capacity")
            c = complex(c)
            if c != 0:
                cleaned[k] = c
        max_freq = int(max_freq)
        if max_freq < 1:
            raise ValidationError(f"max_freq must be >= 1, got {max_freq}")
        if max_freq > FREQ_CAP:
            raise CapacityError(f"max_freq {max_freq} exceeds 64-bit capacity")
        if cleaned and max_freq < max(cleaned):
            raise ValidationError("stored frequency exceeds max_freq")
        return super().__new__(cls, cleaned, max_freq, self_similarity)

    # -- basic queries -----------------------------------------------------

    def frequencies(self) -> list[int]:
        return sorted(self.coeffs)

    def eval(self, z: complex) -> complex:
        """Evaluate at |z| > 1 (absolutely convergent there)."""
        if abs(z) <= 1.0:
            raise ValidationError("evaluation requires |z| > 1")
        w = 1.0 / z
        return complex_fsum(c * w**k for k, c in self.coeffs.items())

    # -- serialization -----------------------------------------------------

    def to_doc(self) -> dict:
        return {
            "coeffs": [[k, self.coeffs[k].real, self.coeffs[k].imag] for k in self.frequencies()],
            "max_freq": self.max_freq,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ExteriorLaurent":
        """Read to_doc's form by errors.parse_coeffs: each frequency at most once."""
        try:
            coeffs = parse_coeffs(doc["coeffs"])
            max_freq = parse_int(doc["max_freq"], "max_freq")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed Laurent document: {exc}") from exc
        return cls(coeffs, max_freq)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ExteriorLaurent({len(self.coeffs)} terms, max_freq={self.max_freq})"


def convolve(a: ExteriorLaurent, b: ExteriorLaurent,
             max_freq: int) -> tuple[ExteriorLaurent, float]:
    """Product of two exterior series truncated at ``max_freq``.

    Returns the truncated product and the l2 mass of the dropped tail.
    """
    out: dict[int, complex] = {}
    ka = sorted(a.coeffs)
    kb = sorted(b.coeffs)
    if ka and kb and ka[-1] + kb[-1] > FREQ_CAP:
        raise CapacityError("product frequency exceeds capacity")
    for i in ka:
        ci = a.coeffs[i]
        for j in kb:
            k = i + j
            out[k] = out.get(k, 0) + ci * b.coeffs[j]
    kept = {k: c for k, c in out.items() if k <= max_freq}
    return ExteriorLaurent(kept, max_freq), fsum(abs(c) ** 2 for k, c in out.items()
                                                 if k > max_freq)
