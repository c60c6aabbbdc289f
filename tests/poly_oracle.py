"""Test-only oracle for the polynomial text syntax: a character-at-a-time
recursive descent parser that builds each atom through `Fraction` and
the public `Poly` constructors. It shares no code with the token parser
of `exactmath.parse_poly` beyond `Poly` and the limits, and gives the same
`Poly`, or the same `PolyParseError` (message and position), on every
text: the same checks in the same order, the nesting limit and the
variable exponent limit of powers and products included.
"""

from fractions import Fraction
from typing import Optional

from algebroid.exactmath import (
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    MAX_TERM_PRODUCTS,
    Poly,
    PolyParseError,
)

_COEFF_BOUND = 10**MAX_LITERAL_DIGITS
_COEFF_BITS = _COEFF_BOUND.bit_length()


class _CharParser:
    def __init__(self, text: str, base_dim: int):
        self.text = text
        self.base_dim = base_dim
        self.pos = 0
        self.depth = 0

    def error(self, message: str, position: Optional[int] = None):
        raise PolyParseError(message, self.pos if position is None else position)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Poly:
        p = self.parse_sum()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected character {self.text[self.pos]!r}")
        return p

    def parse_sum(self) -> Poly:
        ch = self.peek()
        negate = False
        # `ch in "+-"` would also take "", the end of input
        if ch == "+" or ch == "-":
            negate = ch == "-"
            self.pos += 1
        p = self.parse_product()
        if negate:
            p = -p
        while True:
            ch = self.peek()
            at = self.pos
            if ch == "+":
                self.pos += 1
                p = self.checked(p + self.parse_product(), at)
            elif ch == "-":
                self.pos += 1
                p = self.checked(p - self.parse_product(), at)
            else:
                return p

    def parse_product(self) -> Poly:
        p = self.parse_power()
        while self.peek() == "*":
            at = self.pos
            self.pos += 1
            p = self.product(p, self.parse_power(), at)
        return p

    def parse_power(self) -> Poly:
        base = self.parse_atom()
        if self.peek() != "^":
            return base
        at = self.pos
        self.pos += 1
        exp = self.parse_integer()
        num = base.num
        if num:
            # the coefficient size of the power, from its end terms
            size = max(abs(num[min(num)]), abs(num[max(num)]), base.den).bit_length() - 1
            if size * exp >= _COEFF_BITS:
                self.coefficient_error(at)
            if max(e for expo in num for e in expo) * exp >= _COEFF_BOUND:
                self.error(
                    f"variable exponent exceeds the limit of {MAX_LITERAL_DIGITS} digits", at
                )
        result = Poly.constant(self.base_dim, 1)
        while exp:
            if exp & 1:
                result = self.product(result, base, at)
            exp >>= 1
            if exp:
                base = self.product(base, base, at)
        return result

    def product(self, a: Poly, b: Poly, position: int) -> Poly:
        if len(a.num) * len(b.num) > MAX_TERM_PRODUCTS:
            self.error(
                f"product of {len(a.num)} by {len(b.num)} terms exceeds the limit "
                f"of {MAX_TERM_PRODUCTS} term products",
                position,
            )
        if a.num and b.num:
            # the top exponent of each variable in a * b, taken variable by variable
            top = max(
                max(e[v] for e in a.num) + max(e[v] for e in b.num) for v in range(self.base_dim)
            )
            if top >= _COEFF_BOUND:
                self.error(
                    f"variable exponent exceeds the limit of {MAX_LITERAL_DIGITS} digits", position
                )
        return self.checked(a * b, position)

    def checked(self, p: Poly, position: int) -> Poly:
        if any(abs(n) >= _COEFF_BOUND for n in p.num.values()) or (
            p.num and p.den >= _COEFF_BOUND
        ):
            self.coefficient_error(position)
        return p

    def coefficient_error(self, position: int):
        self.error(f"coefficient exceeds the limit of {MAX_LITERAL_DIGITS} digits", position)

    def parse_integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if start == self.pos:
            self.error("expected integer")
        if self.pos - start > MAX_LITERAL_DIGITS:
            self.error(f"integer literal exceeds the limit of {MAX_LITERAL_DIGITS} digits", start)
        return int(self.text[start : self.pos])

    def parse_atom(self) -> Poly:
        ch = self.peek()
        if ch == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.error(f"parentheses nested deeper than {MAX_NESTING}")
            self.pos += 1
            p = self.parse_sum()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            self.depth -= 1
            return p
        if ch == "x":
            start = self.pos
            self.pos += 1
            index = self.parse_integer()
            if not 1 <= index <= self.base_dim:
                self.error(f"variable x{index} out of range for base_dim {self.base_dim}", start)
            return Poly.variable(self.base_dim, index - 1)
        if ch.isdecimal():
            num = self.parse_integer()
            if self.peek() == "/":
                self.pos += 1
                self.skip_ws()
                start = self.pos
                den = self.parse_integer()
                if den == 0:
                    self.error("zero denominator", start)
                return Poly.constant(self.base_dim, Fraction(num, den))
            return Poly.constant(self.base_dim, num)
        self.error("expected polynomial atom")


def oracle_parse_poly(text: str, base_dim: int) -> Poly:
    """The polynomial `text` reads as, by the character parser."""
    return _CharParser(text, base_dim).parse()


def outcome(parse, text: str, base_dim: int):
    """("poly", the Poly) or ("error", message, position) of parse(text)."""
    try:
        return ("poly", parse(text, base_dim))
    except PolyParseError as exc:
        return ("error", exc.message, exc.position)
