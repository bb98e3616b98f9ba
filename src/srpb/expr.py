"""Parser for the shared polynomial expression grammar.

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | power
    power  := atom ('^' INT)*
    atom   := NUMBER | VAR | '(' expr ')'

NUMBER is an integer or rational literal ``a/b`` (no spaces around '/'),
VAR is ``x0`` .. ``x63``; digits are ASCII, at most ``_MAX_DIGITS`` in a
row.  Whitespace is insignificant; errors carry the offset of the offending
token.

Work caps, each an ExprError raised before the product: one parse spends at
most ``_MAX_TERM_PRODUCTS`` term products on products of more than one term
(the text bounds the others), and no product multiplies rational coefficients
whose sizes (numerator plus denominator bits) add up to over ``_MAX_COEFF_BITS``.
Nesting past the interpreter's recursion limit is an ExprError too.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ExprError
from .poly import Polynomial, PolyRing

_MAX_EXPONENT = 2 ** 31
_MAX_VAR = 63
_MAX_TERM_PRODUCTS = 10_000
_MAX_COEFF_BITS = 1024
_MAX_DIGITS = 4300  # the interpreter's default limit on int() of a digit string
_DIGITS = re.compile("[0-9]*")


class _Tokens:
    def __init__(self, text: str, rational: bool):
        self.text = text
        self.pos = 0
        self.budget = _MAX_TERM_PRODUCTS  # term products left
        self.rational = rational  # coefficients mod p stay below p

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _digits(self, j: int) -> int:
        """End of the run of ASCII digits starting at j."""
        k = _DIGITS.match(self.text, j).end()
        if k - j > _MAX_DIGITS:
            raise ExprError(f"literal longer than {_MAX_DIGITS} digits", j)
        return k

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return ("end", None, self.pos)
        ch = self.text[self.pos]
        start = self.pos
        if ch in "+-*^()":
            return (ch, ch, start)
        if ch in "0123456789":
            j = self._digits(start)
            num = int(self.text[start:j])
            if j < len(self.text) and self.text[j] == "/":
                k = self._digits(j + 1)
                if k == j + 1:
                    raise ExprError("expected digits after '/'", j + 1)
                den = int(self.text[j + 1:k])
                if den == 0:
                    raise ExprError("zero denominator", j + 1)
                return ("number", (Fraction(num, den), k - start), start)
            return ("number", (Fraction(num), j - start), start)
        if ch == "x":
            j = self._digits(start + 1)
            if j == start + 1:
                raise ExprError("expected variable index after 'x'", start + 1)
            return ("var", (int(self.text[start + 1:j]), j - start), start)
        raise ExprError(f"unexpected character {ch!r}", start)

    def take(self):
        kind, value, start = self.peek()
        if kind in ("number", "var"):
            self.pos = start + value[1]
        elif kind != "end":
            self.pos = start + 1
        return kind, value, start


def parse_expression(text: str, ring: PolyRing) -> Polynomial:
    """Parse an expression into a canonical polynomial over the context."""
    toks = _Tokens(text, ring.field.char == 0)
    try:
        result = _parse_expr(toks, ring)
    except RecursionError:
        raise ExprError("expression nests too deeply", toks.pos) from None
    kind, _, start = toks.peek()
    if kind != "end":
        raise ExprError(f"unexpected trailing {kind!r}", start)
    return result


def _parse_expr(toks: _Tokens, ring: PolyRing) -> Polynomial:
    """The terms' coefficients summed in one dict, sorted once."""
    fld = ring.field
    coeffs = dict(_parse_term(toks, ring).terms)
    while toks.peek()[0] in ("+", "-"):
        op = fld.add if toks.take()[0] == "+" else fld.sub
        for e, c in _parse_term(toks, ring).terms:
            coeffs[e] = op(coeffs.get(e, fld.zero), c)
    return ring.from_terms(coeffs)


def _coeff_bits(f: Polynomial) -> int:
    return max([c.numerator.bit_length() + c.denominator.bit_length() for _, c in f.terms],
               default=0)


def _mul(toks: _Tokens, a: Polynomial, b: Polynomial, at: int) -> Polynomial:
    """a * b, refused when it would pass the parse's work caps."""
    work = len(a.terms) * len(b.terms)
    toks.budget -= work if work > 1 else 0
    if toks.budget < 0:
        raise ExprError(f"expression needs more than {_MAX_TERM_PRODUCTS} term products", at)
    if toks.rational and _coeff_bits(a) + _coeff_bits(b) > _MAX_COEFF_BITS:
        raise ExprError(f"product of coefficients over {_MAX_COEFF_BITS} bits", at)
    return a * b


def _power(toks: _Tokens, x: Polynomial, n: int, at: int) -> Polynomial:
    """x^n by binary powering, as Polynomial.__pow__, with each product capped."""
    acc = x.ring.one()
    while n:
        if n & 1:
            acc = _mul(toks, acc, x, at)
        n >>= 1
        if n:
            x = _mul(toks, x, x, at)
    return acc


def _parse_term(toks: _Tokens, ring: PolyRing) -> Polynomial:
    acc = _parse_factor(toks, ring)
    while True:
        kind, _, start = toks.peek()
        if kind == "*":
            toks.take()
            acc = _mul(toks, acc, _parse_factor(toks, ring), start)
        else:
            return acc


def _parse_factor(toks: _Tokens, ring: PolyRing) -> Polynomial:
    kind, _, _ = toks.peek()
    if kind == "-":
        toks.take()
        return -_parse_factor(toks, ring)
    return _parse_power(toks, ring)


def _parse_power(toks: _Tokens, ring: PolyRing) -> Polynomial:
    acc = _parse_atom(toks, ring)
    while True:
        kind, _, _ = toks.peek()
        if kind != "^":
            return acc
        toks.take()
        nkind, nvalue, nstart = toks.take()
        if nkind != "number":
            raise ExprError("expected integer exponent after '^'", nstart)
        q = nvalue[0]
        if q.denominator != 1:
            raise ExprError("exponent must be an integer", nstart)
        n = q.numerator
        if n > _MAX_EXPONENT:
            raise ExprError("exponent too large", nstart)
        if len(acc.terms) == 1:
            # one term: its coefficient alone takes the capped steps (none for
            # a coefficient 1), and its exponent vector is scaled once
            (exps, c), = acc.terms
            if c != ring.field.one:
                c = _power(toks, ring.constant(c), n, nstart).terms[0][1]
            acc = ring.monomial([k * n for k in exps], c)
        else:
            acc = _power(toks, acc, n, nstart)


def _parse_atom(toks: _Tokens, ring: PolyRing) -> Polynomial:
    kind, value, start = toks.take()
    if kind == "number":
        q = value[0]
        if ring.field.char == 0:
            return ring.constant(q)
        return ring.constant(ring.field.from_fraction(q))
    if kind == "var":
        idx = value[0]
        if idx > _MAX_VAR:
            raise ExprError(f"variable index {idx} exceeds x{_MAX_VAR}", start)
        if idx >= ring.nvars:
            raise ExprError(f"variable x{idx} outside a {ring.nvars}-variable context", start)
        return ring.variable(idx)
    if kind == "(":
        inner = _parse_expr(toks, ring)
        ckind, _, cstart = toks.take()
        if ckind != ")":
            raise ExprError("expected ')'", cstart)
        return inner
    raise ExprError(f"expected a number, variable or '('", start)
