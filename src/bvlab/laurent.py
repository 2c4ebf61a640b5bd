"""Sparse Laurent series on the exterior disk |z| > 1.

A series g(z) = sum_k b_k z^(-k) is stored as a map from the integer
frequency k >= 1 to the complex coefficient b_k.  ``max_freq`` is the
resolution cutoff: the stored coefficients are exact for k <= max_freq,
nothing is claimed beyond it.  Optional self-similarity metadata records the
lacunary block structure (base d, first block edge n0) used by the block-mass
variance estimator.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import fsum

from .errors import FREQ_CAP, CapacityError, ValidationError, parse_complex, parse_int


@dataclass(frozen=True)
class SelfSimilarity:
    """Lacunary block structure: block edges sit at n0 * base**j."""

    base: int
    first_index: int

    def __post_init__(self) -> None:
        if self.base < 2 or self.first_index < 1:
            raise ValidationError("self-similarity needs base >= 2 and first index >= 1")

    def block_edges(self, max_freq: int) -> list[int]:
        edges = []
        n = self.first_index
        while n <= max_freq:
            edges.append(n)
            if n > max_freq // self.base:
                break
            n *= self.base
        return edges


class ExteriorLaurent:
    """Immutable sparse Laurent series on |z| > 1.  Treat instances as frozen."""

    __slots__ = ("coeffs", "max_freq", "self_similarity")

    def __init__(self, coeffs, max_freq: int, self_similarity: SelfSimilarity | None = None):
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
        if cleaned and max_freq < max(cleaned):
            raise ValidationError("stored frequency exceeds max_freq")
        object.__setattr__(self, "coeffs", cleaned)
        object.__setattr__(self, "max_freq", max_freq)
        object.__setattr__(self, "self_similarity", self_similarity)

    def __setattr__(self, *_):  # pragma: no cover - guard only
        raise AttributeError("ExteriorLaurent is immutable")

    # -- basic queries -----------------------------------------------------

    def frequencies(self) -> list[int]:
        return sorted(self.coeffs)

    def eval(self, z: complex) -> complex:
        """Evaluate at |z| > 1 (absolutely convergent there)."""
        if abs(z) <= 1.0:
            raise ValidationError("evaluation requires |z| > 1")
        re, im = [], []
        w = 1.0 / z
        for k, c in self.coeffs.items():
            v = c * w**k
            re.append(v.real)
            im.append(v.imag)
        return complex(fsum(re), fsum(im))

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "ExteriorLaurent":
        """Termwise d/dz: b_k z^-k maps to -k b_k z^-(k+1)."""
        out = {}
        for k, c in self.coeffs.items():
            out[k + 1] = -k * c
        return ExteriorLaurent(out, self.max_freq + 1, self.self_similarity)

    def third_derivative(self) -> "ExteriorLaurent":
        """Termwise d^3/dz^3: b_k maps to -k(k+1)(k+2) b_k at frequency k+3."""
        out = {}
        for k, c in self.coeffs.items():
            out[k + 3] = -k * (k + 1) * (k + 2) * c
        return ExteriorLaurent(out, self.max_freq + 3, self.self_similarity)

    # -- algebra -----------------------------------------------------------

    def scale(self, a: complex) -> "ExteriorLaurent":
        return ExteriorLaurent({k: a * c for k, c in self.coeffs.items()},
                               self.max_freq, self.self_similarity)

    def with_self_similarity(self, base: int, first_index: int) -> "ExteriorLaurent":
        return ExteriorLaurent(self.coeffs, self.max_freq, SelfSimilarity(base, first_index))

    def with_max_freq(self, max_freq: int) -> "ExteriorLaurent":
        return ExteriorLaurent(self.coeffs, max_freq, self.self_similarity)

    def truncated(self, max_freq: int) -> "ExteriorLaurent":
        """The coefficients with k <= max_freq, exact up to the new cutoff."""
        return ExteriorLaurent({k: c for k, c in self.coeffs.items() if k <= max_freq},
                               max_freq, self.self_similarity)

    # -- serialization -----------------------------------------------------

    def to_doc(self) -> dict:
        doc = {
            "coeffs": [[k, self.coeffs[k].real, self.coeffs[k].imag] for k in self.frequencies()],
            "max_freq": self.max_freq,
        }
        if self.self_similarity is not None:
            doc["self_similarity"] = [self.self_similarity.base, self.self_similarity.first_index]
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "ExteriorLaurent":
        try:
            coeffs = {parse_int(k, "frequency"): parse_complex(re, im)
                      for k, re, im in doc["coeffs"]}
            max_freq = parse_int(doc["max_freq"], "max_freq")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed Laurent document: {exc}") from exc
        ss = doc.get("self_similarity")
        if ss is not None and not (isinstance(ss, list) and len(ss) == 2
                                   and all(type(v) is int for v in ss)):
            raise ValidationError(f"self_similarity must be a pair of integers, got {ss!r}")
        return cls(coeffs, max_freq, None if ss is None else SelfSimilarity(*ss))

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
