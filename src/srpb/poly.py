"""Sparse multivariate polynomials with exact coefficients.

A polynomial is an immutable sequence of (exponent-vector, coefficient)
terms, strictly descending in grevlex with x0 > x1 > ... > xn, with no zero
coefficients.  All operations are pure and return canonical values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import add
from typing import Iterable, Mapping

from .errors import ContextError, InputError
from .fields import Field


def grevlex(exps: tuple) -> tuple:
    """Sort key of the term order; larger key means larger monomial."""
    return sum(exps), tuple(-e for e in reversed(exps))


@dataclass(frozen=True)
class PolyRing:
    """Free polynomial context: coefficient field and variable count."""

    field: Field
    nvars: int

    def __post_init__(self):
        if self.nvars < 0:
            raise InputError("variable count must be non-negative")

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.constant(self.field.one)

    def constant(self, c) -> "Polynomial":
        c = self.field.element(c)
        return Polynomial(self, (((0,) * self.nvars, c),)) if c else self.zero()

    def variable(self, i: int) -> "Polynomial":
        if not 0 <= i < self.nvars:
            raise ContextError(f"variable x{i} outside context with {self.nvars} variables")
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, ((exps, self.field.one),))

    def monomial(self, exps: Iterable[int], coeff=None) -> "Polynomial":
        """coeff * x^exps, an int or Fraction coefficient reduced into the field."""
        exps = tuple(exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ContextError("bad exponent vector for this context")
        c = self.field.one if coeff is None else self.field.element(coeff)
        if not c:
            return self.zero()
        return Polynomial(self, ((exps, c),))

    def from_terms(self, mapping: Mapping[tuple, object]) -> "Polynomial":
        return _from_dict(self, dict(mapping))


def _descending(term: tuple) -> tuple:
    """Ascending sort key of a term that lists grevlex-larger monomials first."""
    exps = term[0]
    return -sum(exps), exps[::-1]


def _from_dict(ring: PolyRing, d: dict) -> "Polynomial":
    """The polynomial of a dict of raw coefficient sums: reduced once, zeros dropped, sorted once."""
    items = ring.field.reduce_terms(d)
    if len(items) > 1:
        items.sort(key=_descending)
    return Polynomial(ring, tuple(items))


class Polynomial:
    """Immutable canonical sparse polynomial over a PolyRing."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: tuple):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # -- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not any(self.terms[0][0]))

    def constant_term(self):
        """Coefficient of the monomial 1 (the value at the augmentation)."""
        for exps, c in self.terms:
            if not any(exps):
                return c
        return self.ring.field.zero

    def variables(self) -> frozenset:
        out = set()
        for exps, _ in self.terms:
            for i, e in enumerate(exps):
                if e:
                    out.add(i)
        return frozenset(out)

    # -- leading data (w.r.t. grevlex) ---------------------------------
    def leading(self):
        """(exponent vector, coefficient) of the leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0]

    # -- arithmetic ----------------------------------------------------
    def _check(self, other: "Polynomial") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ContextError("polynomials over different contexts")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        d = dict(self.terms)
        for e, c in other.terms:
            d[e] = d[e] + c if e in d else c
        return _from_dict(self.ring, d)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        d = dict(self.terms)
        for e, c in other.terms:
            d[e] = d[e] - c if e in d else -c
        return _from_dict(self.ring, d)

    def __neg__(self) -> "Polynomial":
        fld = self.ring.field
        return Polynomial(self.ring, tuple((e, fld.neg(c)) for e, c in self.terms))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        d: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(map(add, e1, e2))
                d[e] = d[e] + c1 * c2 if e in d else c1 * c2
        return _from_dict(self.ring, d)

    def scale(self, c) -> "Polynomial":
        fld = self.ring.field
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, tuple((e, fld.mul(k, c)) for e, k in self.terms))

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise InputError("negative polynomial power")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- comparisons / hashing -----------------------------------------
    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial)
                and (self.ring is other.ring or self.ring == other.ring)
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.ring, self.terms))

    # -- printing --------------------------------------------------------
    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)})"


def _format_monomial(exps: tuple) -> str:
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts)


def format_polynomial(f: Polynomial) -> str:
    """Canonical textual form, re-readable by the expression parser."""
    if not f.terms:
        return "0"
    fld = f.ring.field
    out = []
    for idx, (exps, c) in enumerate(f.terms):
        mono = _format_monomial(exps)
        neg = fld.char == 0 and c < 0
        mag = -c if neg else c
        if mono and mag == fld.one:
            body = mono
        elif mono:
            body = f"{fld.format(mag)}*{mono}"
        else:
            body = fld.format(mag)
        if idx == 0:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(out)


def exp_divides(g: tuple, m: tuple) -> bool:
    """Does the monomial with exponents g divide the one with exponents m?"""
    return all(a <= b for a, b in zip(g, m))


_POWERS = tuple(1 << i for i in range(64))


def support_mask(exps: tuple) -> int:
    """Bitmask of the variables whose exponent is nonzero."""
    if len(exps) <= len(_POWERS):
        return sum(compress(_POWERS, exps))
    return sum(1 << i for i, e in enumerate(exps) if e)


def exp_div(a: tuple, b: tuple) -> tuple:
    out = tuple(x - y for x, y in zip(a, b))
    if any(e < 0 for e in out):
        raise InputError("monomial division with negative exponent")
    return out


def exp_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))
