"""Exact algebra of annulus-supported monomial fields.

A field is a finite sum of terms

    c * conj(z)^p * z^q * |z|^gamma   on the half-open annulus r_in <= |z| < r_out,

closed under the Cauchy transform C (convolution with 1/(pi z)), its
z-derivative S = dC/dz (the principal-value convolution with -1/(pi z^2)),
pointwise products, and pullback under z -> z^d.  By angular orthogonality each
transform coefficient is one radial moment of a term (``laurent.radial_moment``,
and ``laurent.cauchy_coefficients`` for the exterior series), so every operation
here is closed-form; the quadrature checks live in the tests.

Radial supports are kept in log form (log_r_in, log_r_out).  This preserves
1 - r accuracy for shells accumulating at the unit circle, where the plain
radius would round to 1.0 and destroy the moment integrals r^e with huge e.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_left
from math import inf, isfinite

from .errors import (CapacityError, FREQ_CAP, UnsupportedTermError, ValidationError,
                     parse_float, parse_int)
from .laurent import (ExteriorLaurent, cauchy_coefficients, complex_fsum,
                      derivative_coefficients, radial_moment, radial_power, term_order)
from .records import record


_MAX_LOG_RADIUS = math.log(sys.float_info.max)  # the largest log radius whose radius is a float


class MonomialTerm(record("MonomialTerm", "coeff p q gamma log_r_in log_r_out")):
    """One monomial piece c * conj(z)^p z^q |z|^gamma on [r_in, r_out)."""

    __slots__ = ()

    def __new__(cls, coeff: complex, p: int, q: int, gamma: float,
                log_r_in: float, log_r_out: float) -> "MonomialTerm":
        if p < 0:
            raise ValidationError("conjugate power p must be >= 0")
        if not log_r_in < log_r_out:
            raise ValidationError("term needs r_in < r_out")
        if _MAX_LOG_RADIUS < log_r_in or _MAX_LOG_RADIUS < log_r_out < inf:
            raise ValidationError(f"a finite log radius must be at most {_MAX_LOG_RADIUS!r}")
        return super().__new__(cls, complex(coeff), p, q, float(gamma), log_r_in, log_r_out)

    @classmethod
    def make(cls, coeff: complex, p: int, q: int, gamma: float,
             r_in: float, r_out: float) -> "MonomialTerm":
        if r_in < 0 or r_out <= r_in:
            raise ValidationError("radial support needs 0 <= r_in < r_out")
        lin = -inf if r_in == 0 else math.log(r_in)
        lout = inf if r_out == inf else math.log(r_out)
        return cls(coeff, p, q, gamma, lin, lout)

    @property
    def r_in(self) -> float:
        return math.exp(self.log_r_in)

    @property
    def r_out(self) -> float:
        return math.exp(self.log_r_out)

    def contains_log(self, log_abs_z: float) -> bool:
        return self.log_r_in <= log_abs_z < self.log_r_out

    def value(self, z: complex) -> complex:
        if z == 0:
            if self.log_r_in != -inf:
                return 0j
            if self.q < 0 or self.gamma < 0:
                raise ValidationError("negative exponent at z = 0")
            return self.coeff if self.p == 0 and self.q == 0 and self.gamma == 0 else 0j
        la = math.log(abs(z))
        if not self.contains_log(la):
            return 0j
        v = self.coeff
        if self.p:
            v *= z.conjugate() ** self.p
        if self.q:
            v *= z ** self.q
        if self.gamma:
            v *= math.exp(self.gamma * la)
        return v

    def scaled(self, a: complex) -> "MonomialTerm":
        return self._replace(coeff=a * self.coeff)

    def to_doc(self) -> dict:
        # a bound at 0 or infinity is spelled r_in 0 or r_out null, without its log key
        doc = {"re": self.coeff.real, "im": self.coeff.imag, "p": self.p, "q": self.q,
               "gamma": self.gamma, "r_in": self.r_in,
               "r_out": self.r_out if isfinite(self.log_r_out) else None}
        for key in ("log_r_in", "log_r_out"):
            if isfinite(getattr(self, key)):
                doc[key] = getattr(self, key)
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "MonomialTerm":
        def num(key: str) -> float:
            return parse_float(doc[key], key)

        def radius(key: str) -> float:
            # r_out null (or inf) is the radius infinity
            return inf if key == "r_out" and doc[key] in (None, inf) else num(key)

        def log_bound(key: str, edge: float) -> float:
            # the log key when present, else the radius key: r_in 0 is the log -inf,
            # r_out infinity the log +inf; an infinite log of the same side is read too
            log_key = "log_" + key
            if log_key in doc:
                return edge if doc[log_key] == edge else num(log_key)
            r = radius(key)
            if r < 0:
                raise ValidationError("radial support needs 0 <= r_in < r_out")
            return -inf if r == 0 else math.log(r)

        try:
            term = cls(complex(num("re"), num("im")), parse_int(doc["p"], "p"),
                       parse_int(doc["q"], "q"), num("gamma"), log_bound("r_in", -inf),
                       log_bound("r_out", inf))
            for key in ("r_in", "r_out"):
                # a bound spelled both ways must be one radius; to_doc writes exp(log)
                if "log_" + key in doc and key in doc and not math.isclose(
                        radius(key), getattr(term, key), rel_tol=1e-15):
                    raise ValidationError(f"{key} and log_{key} give two different radii")
            return term
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed term document: {exc}") from exc


class PiecewiseField(record("PiecewiseField", "terms")):
    """Finite sum of monomial terms; terms are canonically sorted at construction."""

    __slots__ = ()

    def __new__(cls, terms) -> "PiecewiseField":
        return super().__new__(cls, tuple(sorted(
            terms, key=lambda t: term_order(t.p, t.q, t.gamma, t.log_r_in, t.log_r_out))))

    @classmethod
    def of(cls, *terms: MonomialTerm) -> "PiecewiseField":
        return cls(terms)

    def eval(self, z: complex) -> complex:
        return complex_fsum(t.value(z) for t in self.terms)

    def breakpoints(self) -> list[float]:
        """Finite radial breakpoints, sorted and deduplicated."""
        logs = set()
        for t in self.terms:
            for l in (t.log_r_in, t.log_r_out):
                if isfinite(l):
                    logs.add(l)
        return [math.exp(l) for l in sorted(logs)]

    def max_r_out(self) -> float:
        return max((t.r_out for t in self.terms), default=0.0)

    def add(self, other: "PiecewiseField") -> "PiecewiseField":
        return PiecewiseField(self.terms + other.terms)

    def scaled(self, a: complex) -> "PiecewiseField":
        return PiecewiseField(tuple(t.scaled(a) for t in self.terms))

    def reflect_conjugate(self) -> "PiecewiseField":
        """Field w -> field(conj(w)); swaps the powers p and q."""
        for t in self.terms:
            if t.q < 0:
                raise ValidationError("reflection needs q >= 0 in every term")
        return PiecewiseField(tuple(
            MonomialTerm(t.coeff, t.q, t.p, t.gamma, t.log_r_in, t.log_r_out)
            for t in self.terms))

    def to_doc(self) -> dict:
        return {"terms": [t.to_doc() for t in self.terms]}

    @classmethod
    def from_doc(cls, doc: dict) -> "PiecewiseField":
        try:
            terms = tuple(MonomialTerm.from_doc(d) for d in doc["terms"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed field document: {exc}") from exc
        return cls(terms)

    def __repr__(self) -> str:  # pragma: no cover
        return f"PiecewiseField({len(self.terms)} terms)"


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def cauchy_exterior(field: PiecewiseField) -> ExteriorLaurent:
    """Laurent series of the Cauchy transform on |z| > max r_out."""
    coeffs = cauchy_coefficients(field.terms)
    return ExteriorLaurent(coeffs, max(coeffs, default=1))


def _cauchy_term_pieces(t: MonomialTerm) -> list[MonomialTerm]:
    """Piecewise Cauchy transform of one bounded monomial term.

    Splitting the kernel expansion at |z| gives, with e = 2p + gamma + 2 and
    m = q - p - 1:

      p >= q:    (2c/e) (|z|^e - r_in^e) z^m  on the support,
                 (2c/e) (r_out^e - r_in^e) z^m  outside,   0 inside;
      q >= p+1:  (2c/e) (|z|^e - r_out^e) z^m  on the support,
                 -(2c/e) (r_out^e - r_in^e) z^m  inside,   0 outside.

    The result vanishes at infinity, is continuous across both radii, and
    satisfies dF/dconj(z) = term almost everywhere.
    """
    if not isfinite(t.log_r_out):
        raise ValidationError("cauchy_full requires bounded supports")
    e = 2 * t.p + t.gamma + 2.0
    if e == 0.0:
        raise UnsupportedTermError(
            "radial exponent e = 2p + gamma + 2 vanishes; the logarithmic "
            "antiderivative is outside the monomial term class")
    c2e = 2.0 * t.coeff / e
    m = t.q - t.p - 1
    hi = radial_power(e, t.log_r_out)
    lo = radial_power(e, t.log_r_in)
    pieces = []
    if t.p >= t.q:
        pieces.append(MonomialTerm(c2e, 0, m, e, t.log_r_in, t.log_r_out))
        if lo != 0.0:
            pieces.append(MonomialTerm(-c2e * lo, 0, m, 0.0, t.log_r_in, t.log_r_out))
        if hi != lo:
            pieces.append(MonomialTerm(c2e * (hi - lo), 0, m, 0.0, t.log_r_out, inf))
    else:
        pieces.append(MonomialTerm(c2e, 0, m, e, t.log_r_in, t.log_r_out))
        if hi != 0.0:
            pieces.append(MonomialTerm(-c2e * hi, 0, m, 0.0, t.log_r_in, t.log_r_out))
        if hi != lo and t.log_r_in != -inf:
            pieces.append(MonomialTerm(-c2e * (hi - lo), 0, m, 0.0, -inf, t.log_r_in))
    return pieces


def cauchy_full(field: PiecewiseField) -> PiecewiseField:
    """Cauchy transform as a piecewise field on the whole plane."""
    out: list[MonomialTerm] = []
    for t in field.terms:
        if t.coeff != 0:
            out.extend(_cauchy_term_pieces(t))
    return PiecewiseField(tuple(out))


def derivative_z(field: PiecewiseField) -> PiecewiseField:
    """Termwise Wirtinger d/dz; boundary (distributional) parts are dropped.

    d/dz [conj^p z^q |z|^g] = q conj^p z^(q-1) |z|^g
                              + (g/2) conj^(p+1) z^q |z|^(g-2).
    """
    out = []
    for t in field.terms:
        if t.q != 0:
            out.append(MonomialTerm(t.q * t.coeff, t.p, t.q - 1, t.gamma,
                                    t.log_r_in, t.log_r_out))
        if t.gamma != 0.0:
            out.append(MonomialTerm(0.5 * t.gamma * t.coeff, t.p + 1, t.q,
                                    t.gamma - 2.0, t.log_r_in, t.log_r_out))
    return PiecewiseField(tuple(out))


def beurling(field: PiecewiseField) -> PiecewiseField:
    """Principal-value convolution with -1/(pi z^2), valid a.e.

    Computed as d/dz of the Cauchy transform; on |z| > max r_out it agrees
    with the Laurent route of beurling_exterior coefficientwise.
    """
    return derivative_z(cauchy_full(field))


def beurling_exterior(field: PiecewiseField) -> ExteriorLaurent:
    """Exterior Laurent series of the transform: a_k z^-k maps to -k a_k z^-(k+1)."""
    coeffs = derivative_coefficients(cauchy_coefficients(field.terms))
    return ExteriorLaurent(coeffs, max(coeffs, default=1))


def bergman_coefficients(field: PiecewiseField) -> dict[int, complex]:
    """Interior Taylor coefficients c_k = (k+1)/pi * integral of field * conj(w)^k.

    Requires support inside the closed unit disk.  A term contributes k + 1 times
    its radial moment, e = 2q + gamma + 2, at the single index k = q - p >= 0.
    """
    for t in field.terms:
        if t.log_r_out > 1e-15:
            raise ValidationError("bergman projection requires support in the unit disk")
    out: dict[int, complex] = {}
    for t in field.terms:
        k = t.q - t.p
        if k < 0:
            continue
        c = (k + 1) * radial_moment(t.coeff, 2 * t.q + t.gamma + 2.0,
                                    t.log_r_in, t.log_r_out)
        if c != 0:
            out[k] = out.get(k, 0) + c
    return out


def eval_taylor(coeffs: dict[int, complex], z: complex) -> complex:
    return complex_fsum(c * z**k for k, c in coeffs.items())


def _products(f: PiecewiseField, g: PiecewiseField):
    """The nonzero products of overlapping terms a of f and b of g, in a-major, b-minor order.

    Exponents add on the support intersection; each product comes as
    (coeff, p, q, gamma, log_r_in, log_r_out).  The terms of g are indexed by
    log_r_in, so each a tests only the b that start below its outer radius.
    """
    gs = g.terms
    order = sorted(range(len(gs)), key=lambda i: gs[i].log_r_in)
    starts = [gs[i].log_r_in for i in order]
    for ca, pa, qa, ga, in_a, out_a in f.terms:  # a term is its field tuple
        for i in sorted(order[:bisect_left(starts, out_a)]):
            cb, pb, qb, gb, in_b, out_b = gs[i]
            # b starts below a's outer radius, so the two overlap when b ends above its inner one
            if out_b > in_a:
                c = ca * cb
                if c != 0:
                    yield (c, pa + pb, qa + qb, ga + gb, max(in_a, in_b), min(out_a, out_b))


def multiply(f: PiecewiseField, g: PiecewiseField) -> PiecewiseField:
    """Pointwise product: exponents add on the support intersection."""
    return PiecewiseField(tuple(MonomialTerm(*t) for t in _products(f, g)))


def product_beurling_exterior(f: PiecewiseField, g: PiecewiseField) -> dict[int, complex]:
    """The coefficients of beurling_exterior(multiply(f, g)), bit for bit.

    The product terms go to the transform as tuples; they are never built.
    """
    return derivative_coefficients(cauchy_coefficients(_products(f, g)))


def pullback_power(field: PiecewiseField, d: int) -> PiecewiseField:
    """Pullback under f(z) = z^d:  mu(z^d) conj(f'(z)) / f'(z).

    Term rule: (c, p, q, gamma, [a, b)) maps to
    (c, d p + d - 1, d q - (d - 1), d gamma, [a^(1/d), b^(1/d))).
    Unit-modulus terms stay unit-modulus since |conj(f')/f'| = 1.
    """
    if d < 2:
        raise ValidationError("pullback degree must be >= 2")
    out = []
    for t in field.terms:
        p = d * t.p + d - 1
        if p > FREQ_CAP or abs(d * t.q) > FREQ_CAP:
            raise CapacityError("pullback exponent exceeds capacity")
        out.append(MonomialTerm(t.coeff, p, d * t.q - (d - 1), d * t.gamma,
                                t.log_r_in / d, t.log_r_out / d))
    return PiecewiseField(tuple(out))
