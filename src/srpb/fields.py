"""Exact coefficient fields: the rationals and prime fields F_p.

Scalars are plain python values (Fraction for Q, int in [0, p) for F_p);
the Field descriptor supplies the arithmetic and is shared ring-wide.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ContextError, InputError


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

    def __post_init__(self):
        if self.char != 0 and not _is_prime(self.char):
            raise InputError(f"field characteristic must be 0 or prime, got {self.char}")

    @property
    def zero(self):
        return Fraction(0) if self.char == 0 else 0

    @property
    def one(self):
        return Fraction(1) if self.char == 0 else 1

    def from_int(self, n: int):
        if self.char == 0:
            return Fraction(n)
        return n % self.char

    def from_fraction(self, q: Fraction):
        if self.char == 0:
            return Fraction(q)
        den = q.denominator % self.char
        if den == 0:
            raise InputError(f"denominator {q.denominator} is zero mod {self.char}")
        return (q.numerator * pow(den, self.char - 2, self.char)) % self.char

    def add(self, a, b):
        return a + b if self.char == 0 else (a + b) % self.char

    def sub(self, a, b):
        return a - b if self.char == 0 else (a - b) % self.char

    def mul(self, a, b):
        return a * b if self.char == 0 else (a * b) % self.char

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        if self.char == 0:
            return Fraction(1) / a
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
            digits = name[3:].lstrip("0") or "0"
            if len(digits) > len(str(_MR_LIMIT)):  # int() refuses over 4,300 digits
                raise InputError(f"field characteristic of {len(digits)} digits is too "
                                 f"large to certify as prime (limit {_MR_LIMIT})")
            return Field(int(digits))
        raise InputError(f"unknown field name {name[:40]!r}")


QQ = Field(0)


def GF(p: int) -> Field:
    return Field(p)


def check_same_field(a: Field, b: Field) -> None:
    if a != b:
        raise ContextError(f"mixed coefficient fields {a.name()} and {b.name()}")
