"""Exact coefficient fields: the rationals and prime fields F_p.

Scalars are plain python values: over Q an ``int`` when integral and a
``Fraction`` otherwise, over F_p an ``int`` in [0, p).  The two rational types
mix exactly and compare and hash equal (``Fraction(2) == 2``), so integral
values skip ``Fraction``'s gcd work.  The Field descriptor supplies the
arithmetic and is shared ring-wide; sums accumulated raw (as polynomial
products do) are brought back to this form once, by ``reduce_terms``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import index

from .errors import InputError


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


@lru_cache(maxsize=64, typed=True)
def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, memoized; InputError at or above the bound where it is exact."""
    if p >= _MR_LIMIT:
        raise InputError(f"field characteristic {p} is too large to certify as prime "
                         f"(limit {_MR_LIMIT})")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """Field descriptor: char == 0 means Q, char == p means F_p."""

    char: int
    zero = 0
    one = 1

    def __post_init__(self):
        if self.char != 0 and not _is_prime(self.char):
            raise InputError(f"field characteristic must be 0 or prime, got {self.char}")

    def from_int(self, n: int):
        n = index(n)
        return n % self.char if self.char else n

    def element(self, c):
        """c as a field element: an int or a Fraction is reduced, anything else kept."""
        if isinstance(c, int):
            return self.from_int(c)
        return self.from_fraction(c) if isinstance(c, Fraction) else c

    def from_fraction(self, q: Fraction):
        if self.char == 0:
            return self.reduce(Fraction(q))
        den = q.denominator % self.char
        if den == 0:
            raise InputError(f"denominator {q.denominator} is zero mod {self.char}")
        return (q.numerator * pow(den, self.char - 2, self.char)) % self.char

    def reduce(self, c):
        """A raw sum or product of elements as an element: mod p, or integral -> int."""
        if self.char:
            return c % self.char
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def reduce_terms(self, d: dict) -> list:
        """The (key, element) pairs of a dict of raw sums whose reduction is
        nonzero; ``reduce`` inlined, as this runs once per polynomial result."""
        if self.char:
            p = self.char
            return [(e, r) for e, c in d.items() if (r := c % p)]
        return [(e, c if type(c) is int or c.denominator != 1 else c.numerator)
                for e, c in d.items() if c]

    def add(self, a, b):
        return self.reduce(a + b)

    def sub(self, a, b):
        return self.reduce(a - b)

    def mul(self, a, b):
        return self.reduce(a * b)

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        if self.char == 0:
            return self.reduce(Fraction(1) / a)
        return pow(a, self.char - 2, self.char)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def format(self, a) -> str:
        return str(a)

    def name(self) -> str:
        return "Q" if self.char == 0 else f"Fp:{self.char}"

    @staticmethod
    def from_name(name: str) -> "Field":
        if name == "Q":
            return QQ
        if name.startswith("Fp:") and name[3:].isascii() and name[3:].isdigit():
            digits = name[3:].lstrip("0")
            if not digits:
                raise InputError(f"prime field {name!r} has characteristic 0")
            if len(digits) > len(str(_MR_LIMIT)):  # int() refuses over 4,300 digits
                raise InputError(f"field characteristic of {len(digits)} digits is too "
                                 f"large to certify as prime (limit {_MR_LIMIT})")
            return Field(int(digits))
        raise InputError(f"unknown field name {name[:40]!r}")


QQ = Field(0)


def GF(p: int) -> Field:
    return Field(p)
