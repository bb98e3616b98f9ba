"""Parser for the shared polynomial expression grammar.

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | power
    power  := atom ('^' INT)*
    atom   := NUMBER | VAR | '(' expr ')'

NUMBER is an integer or rational literal ``a/b`` (no spaces around '/'),
VAR is ``x0`` .. ``x63``.  Whitespace is insignificant; errors carry the
byte offset of the offending token.

Work caps, each an ExprError raised before the product: one parse spends at
most ``_MAX_TERM_PRODUCTS`` term products on products of more than one term
(the text bounds the others), and no product multiplies rational coefficients
whose sizes (numerator plus denominator bits) add up to over ``_MAX_COEFF_BITS``.
Nesting past the interpreter's recursion limit is an ExprError too.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ExprError
from .poly import Polynomial, PolyRing

_MAX_EXPONENT = 2 ** 31
_MAX_VAR = 63
_MAX_TERM_PRODUCTS = 10_000
_MAX_COEFF_BITS = 1024


class _Tokens:
    def __init__(self, text: str, rational: bool):
        self.text = text
        self.pos = 0
        self.budget = _MAX_TERM_PRODUCTS  # term products left
        self.rational = rational  # coefficients mod p stay below p

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return ("end", None, self.pos)
        ch = self.text[self.pos]
        start = self.pos
        if ch in "+-*^()":
            return (ch, ch, start)
        if ch.isdigit():
            j = start
            while j < len(self.text) and self.text[j].isdigit():
                j += 1
            num = int(self.text[start:j])
            if j < len(self.text) and self.text[j] == "/":
                k = j + 1
                if k >= len(self.text) or not self.text[k].isdigit():
                    raise ExprError("expected digits after '/'", j + 1)
                while k < len(self.text) and self.text[k].isdigit():
                    k += 1
                den = int(self.text[j + 1:k])
                if den == 0:
                    raise ExprError("zero denominator", j + 1)
                return ("number", (Fraction(num, den), k - start), start)
            return ("number", (Fraction(num), j - start), start)
        if ch == "x":
            j = start + 1
            while j < len(self.text) and self.text[j].isdigit():
                j += 1
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
    acc = _parse_term(toks, ring)
    while True:
        kind, _, _ = toks.peek()
        if kind == "+":
            toks.take()
            acc = acc + _parse_term(toks, ring)
        elif kind == "-":
            toks.take()
            acc = acc - _parse_term(toks, ring)
        else:
            return acc


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
        # binary powering, as Polynomial.__pow__, with each product capped
        base, acc = acc, ring.one()
        while n:
            if n & 1:
                acc = _mul(toks, acc, base, nstart)
            n >>= 1
            if n:
                base = _mul(toks, base, base, nstart)


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
