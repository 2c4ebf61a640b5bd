"""Exact algebra of annulus-supported monomial fields.

A field is a finite sum of terms

    c * conj(z)^p * z^q * |z|^gamma   on the half-open annulus r_in <= |z| < r_out,

closed under the Cauchy transform C (convolution with 1/(pi z)), its
z-derivative S = dC/dz (the principal-value convolution with -1/(pi z^2)),
pointwise products, and pullback under z -> z^d.  All transforms reduce to
radial power integrals by angular orthogonality, so every operation here is
closed-form; the quadrature cross-checks live in the test suite.

Radial supports are kept in log form (log_r_in, log_r_out).  This preserves
1 - r accuracy for shells accumulating at the unit circle, where the plain
radius would round to 1.0 and destroy the moment integrals r^e with huge e.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from math import fsum, inf, isfinite
from operator import itemgetter

from .errors import (CapacityError, DivergentMomentError, FREQ_CAP,
                     UnsupportedTermError, ValidationError, parse_float, parse_int)
from .laurent import ExteriorLaurent


def _pow_log(e: float, log_r: float) -> float:
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
    return math.exp(e * log_r)


@dataclass(frozen=True)
class MonomialTerm:
    """One monomial piece c * conj(z)^p z^q |z|^gamma on [r_in, r_out)."""

    coeff: complex
    p: int
    q: int
    gamma: float
    log_r_in: float
    log_r_out: float

    def __post_init__(self) -> None:
        if self.p < 0:
            raise ValidationError("conjugate power p must be >= 0")
        if not self.log_r_in < self.log_r_out:
            raise ValidationError("term needs r_in < r_out")
        object.__setattr__(self, "coeff", complex(self.coeff))
        object.__setattr__(self, "gamma", float(self.gamma))

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
        return MonomialTerm(a * self.coeff, self.p, self.q, self.gamma,
                            self.log_r_in, self.log_r_out)

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

        def log_bound(key: str, edge: float) -> float:
            # the log key when present, else the radius key: r_in 0 is the log -inf,
            # r_out null (or inf) the log +inf; an infinite log of the same side is read too
            log_key = "log_" + key
            if log_key in doc:
                return edge if doc[log_key] == edge else num(log_key)
            if edge == inf and doc[key] in (None, inf):
                return inf
            r = num(key)
            if r < 0:
                raise ValidationError("radial support needs 0 <= r_in < r_out")
            return -inf if r == 0 else math.log(r)

        try:
            return cls(complex(num("re"), num("im")), parse_int(doc["p"], "p"),
                       parse_int(doc["q"], "q"), num("gamma"), log_bound("r_in", -inf),
                       log_bound("r_out", inf))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed term document: {exc}") from exc


def _sort_key(p: int, q: int, gamma: float, log_r_in: float, log_r_out: float):
    """Canonical order of terms: angular frequency, support, then conjugate power and gamma."""
    return (q - p, log_r_in, log_r_out, p, gamma)


@dataclass(frozen=True)
class PiecewiseField:
    """Finite sum of monomial terms; terms are canonically sorted at construction."""

    terms: tuple[MonomialTerm, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(sorted(
            self.terms, key=lambda t: _sort_key(t.p, t.q, t.gamma, t.log_r_in, t.log_r_out))))

    @classmethod
    def of(cls, *terms: MonomialTerm) -> "PiecewiseField":
        return cls(tuple(terms))

    def eval(self, z: complex) -> complex:
        re, im = [], []
        for t in self.terms:
            v = t.value(z)
            re.append(v.real)
            im.append(v.imag)
        return complex(fsum(re), fsum(im))

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

    def min_r_in(self) -> float:
        return min((t.r_in for t in self.terms), default=0.0)

    def bounded_support(self) -> bool:
        return all(isfinite(t.log_r_out) for t in self.terms)

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

def moment(term: MonomialTerm, j: int) -> complex:
    """(1/pi) integral of term(w) * w^j over the plane.

    Vanishes unless j = p - q by angular orthogonality; otherwise equals
    2 c (r_out^e - r_in^e)/e with e = p + q + j + gamma + 2, and the
    degenerate e = 0 case integrates to 2 c log(r_out/r_in).
    """
    if j != term.p - term.q:
        return 0j
    return _radial_moment(term.coeff, term.p, term.gamma, term.log_r_in, term.log_r_out)


def _radial_moment(coeff: complex, p: int, gamma: float,
                   log_r_in: float, log_r_out: float) -> complex:
    """The moment of a term at its one frequency j = p - q, where e = 2p + gamma + 2."""
    e = 2 * p + gamma + 2.0
    if e == 0.0:
        if not (isfinite(log_r_in) and isfinite(log_r_out)):
            raise DivergentMomentError("logarithmic moment with unbounded support")
        return 2.0 * coeff * (log_r_out - log_r_in)
    hi = _pow_log(e, log_r_out)
    lo = _pow_log(e, log_r_in)
    return 2.0 * coeff * (hi - lo) / e


_UNBOUNDED = "cauchy_exterior requires bounded supports"


def cauchy_exterior(field: PiecewiseField) -> ExteriorLaurent:
    """Laurent series of the Cauchy transform on |z| > max r_out.

    Each term contributes the single frequency k = p - q + 1 (only when
    p >= q), with coefficient moment(term, p - q).
    """
    if not field.bounded_support():
        raise ValidationError(_UNBOUNDED)
    coeffs: dict[int, complex] = {}
    for t in field.terms:
        j = t.p - t.q
        if j < 0:
            continue
        a = moment(t, j)
        if a != 0:
            k = j + 1
            coeffs[k] = coeffs.get(k, 0) + a
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
    hi = _pow_log(e, t.log_r_out)
    lo = _pow_log(e, t.log_r_in)
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
    s = cauchy_exterior(field).derivative()
    return s.with_max_freq(max(s.coeffs, default=1))


def bergman_coefficients(field: PiecewiseField) -> dict[int, complex]:
    """Interior Taylor coefficients c_k = (k+1)/pi * integral of field * conj(w)^k.

    Requires support inside the closed unit disk.  A term contributes the
    single index k = q - p (when q >= p), with radial exponent e = 2q + gamma + 2.
    """
    for t in field.terms:
        if t.log_r_out > 1e-15:
            raise ValidationError("bergman projection requires support in the unit disk")
    out: dict[int, complex] = {}
    for t in field.terms:
        k = t.q - t.p
        if k < 0:
            continue
        e = 2 * t.q + t.gamma + 2.0
        if e == 0.0:
            raise UnsupportedTermError("degenerate radial exponent in projection")
        hi = _pow_log(e, t.log_r_out)
        lo = _pow_log(e, t.log_r_in)
        c = (k + 1) * 2.0 * t.coeff * (hi - lo) / e
        if c != 0:
            out[k] = out.get(k, 0) + c
    return out


def eval_taylor(coeffs: dict[int, complex], z: complex) -> complex:
    re, im = [], []
    for k in sorted(coeffs):
        v = coeffs[k] * z**k
        re.append(v.real)
        im.append(v.imag)
    return complex(fsum(re), fsum(im))


def _products(f: PiecewiseField, g: PiecewiseField):
    """The nonzero products of overlapping terms a of f and b of g, in a-major, b-minor order.

    Exponents add on the support intersection; each product comes as
    (coeff, p, q, gamma, log_r_in, log_r_out).  The terms of g are indexed by
    log_r_in, so each a tests only the b that start below its outer radius.
    """
    gs = g.terms
    order = sorted(range(len(gs)), key=lambda i: gs[i].log_r_in)
    starts = [gs[i].log_r_in for i in order]
    for a in f.terms:
        for i in sorted(order[:bisect_left(starts, a.log_r_out)]):
            b = gs[i]
            # b starts below a's outer radius, so the two overlap when b ends above its inner one
            if b.log_r_out > a.log_r_in:
                c = a.coeff * b.coeff
                if c != 0:
                    yield (c, a.p + b.p, a.q + b.q, a.gamma + b.gamma,
                           max(a.log_r_in, b.log_r_in), min(a.log_r_out, b.log_r_out))


def multiply(f: PiecewiseField, g: PiecewiseField) -> PiecewiseField:
    """Pointwise product: exponents add on the support intersection."""
    return PiecewiseField(tuple(MonomialTerm(*t) for t in _products(f, g)))


def product_beurling_exterior(f: PiecewiseField, g: PiecewiseField) -> dict[int, complex]:
    """The coefficients of beurling_exterior(multiply(f, g)), bit for bit.

    Each product term with p >= q contributes its moment at k = p - q + 1; the
    moments of each frequency are summed in the canonical term order, as
    cauchy_exterior sums them, and the derivative maps a_k to -k a_k at k + 1.
    The product terms themselves are never built.
    """
    pieces = []
    for c, p, q, gamma, lin, lout in _products(f, g):
        if not isfinite(lout):
            raise ValidationError(_UNBOUNDED)
        if p >= q:
            pieces.append((_sort_key(p, q, gamma, lin, lout), c))
    pieces.sort(key=itemgetter(0))
    coeffs: dict[int, complex] = {}
    for (m, lin, lout, p, gamma), c in pieces:
        a = _radial_moment(c, p, gamma, lin, lout)
        if a != 0:
            k = 1 - m
            coeffs[k] = coeffs.get(k, 0) + a
    # the checks of the two series beurling_exterior builds, in their order: a summed k
    # past FREQ_CAP, then a kept k whose k + 1 is; the largest k comes first
    out = {}
    for k, a in coeffs.items():
        if k > FREQ_CAP:
            raise CapacityError(f"frequency {k} exceeds 64-bit capacity")
        if a != 0:
            if k == FREQ_CAP:
                raise CapacityError(f"frequency {k + 1} exceeds 64-bit capacity")
            out[k + 1] = -k * a
    return out


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
