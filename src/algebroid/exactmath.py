"""Exact rational scalars, sparse multivariate polynomials, and rational
linear algebra.

Everything in this module is exact: a polynomial is a sparse map from
exponent multi-indices to nonzero integer numerators over one positive
common denominator per polynomial (arbitrary-precision Python ints, in
lowest terms), and scalars and results are `fractions.Fraction`. The
linear algebra runs on integers. One sparse elimination, `echelon`,
reduces rows of nonzero ints {column: value} to row echelon form; it is
behind every rank and solve: `sparse_rank` clears each row of its
denominators and ranks it, `solve_linear` eliminates the augmented
sparse rows and solves back from the pivot rows, and the finite-KV
coboundaries reach it as integer rows already. The dense fraction-free
Bareiss elimination `bareiss` (Math. Comp. 22, 1968) is kept for
determinants and leading principal minors. Only `poly_matrix_inverse`
works on polynomial entries, over one table of minors memoised by
Laplace expansion, because Bareiss on `Poly` entries would need exact
multivariate division. The inverse, the adjugate over those minors,
exists only for a nonzero constant determinant, so
`poly_matrix_inverse(m) is not None` is also the test for one; it is
what `funmodel.conjugate` needs for a frame change. All values are
immutable after construction.

`parse_poly` reads the polynomial syntax by one scan of a compiled pattern
into tokens, a run of decimal digits or one other non-space character,
then by recursive descent over the token list; the atoms `n`, `n/m` and
`xk` are built as canonical integer polynomials, with no Fraction. A
token's column is worked out, by a second scan, only for an error.
`plain_literal`, the one reader of a plain literal (n or n/m with an
optional sign, in coefficients and file values alike), reads one into
its reduced integers when they are within the limit below and m is not
0; `parse_poly` builds such a literal straight into its integer
polynomial, and the token parser reads every other text and reports
every error.
Number literals have at most MAX_LITERAL_DIGITS digits each, and so have
the numerators and the denominator of every coefficient the parser
computes: a sum, product or power over the limit is a parse error at its
operator, and a power is checked before it is built, as is the largest
variable exponent a power or product would give, which has at most that
many digits too. Each product the parser computes, a `*` or a square or
multiply inside a power, multiplies at most MAX_TERM_PRODUCTS pairs of
terms, checked before the product is made. Parentheses nest at most
MAX_NESTING deep, which bounds the parser's recursion.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Iterator, Optional, Sequence

# exponent multi-index: tuple of non-negative ints, length = base_dim
Expo = tuple


def grlex_key(expo: Expo):
    """Graded lexicographic sort key for exponent multi-indices."""
    return (sum(expo), expo)


def monomials_upto(base_dim: int, max_degree: int) -> Iterator[Expo]:
    """Yield all exponent multi-indices of total degree <= max_degree in
    graded lexicographic order."""

    def of_degree(n: int, d: int) -> Iterator[Expo]:
        if n == 1:
            yield (d,)
            return
        for first in range(d, -1, -1):
            for rest in of_degree(n - 1, d - first):
                yield (first,) + rest

    for d in range(max_degree + 1):
        yield from of_degree(base_dim, d)


class Poly:
    """Sparse multivariate polynomial over the rationals.

    Variables are x1..xn where n = base_dim. The coefficients are integer
    numerators `num` ({expo: int}) over one positive common denominator
    `den`, the layout of FLINT's fmpq_poly. The form is canonical: no zero
    numerator is stored and gcd(den, every numerator) == 1, so equal
    polynomials have equal (den, num). `terms` is a read-only view of the
    coefficients as Fractions.
    """

    __slots__ = ("base_dim", "num", "den", "_hash")

    def __init__(self, base_dim: int, terms=None):
        if base_dim < 1:
            raise ValueError("base_dim must be positive")
        clean = {}
        if terms:
            for expo, coeff in (terms.items() if isinstance(terms, dict) else terms):
                if len(expo) != base_dim:
                    raise ValueError("exponent length != base_dim")
                coeff = Fraction(coeff)
                if coeff:
                    expo = tuple(int(e) for e in expo)
                    if any(e < 0 for e in expo):
                        raise ValueError("negative exponent")
                    clean[expo] = clean.get(expo, 0) + coeff
        # the lcm of reduced denominators leaves no common factor with den
        den = lcm(*(c.denominator for c in clean.values()))
        self.base_dim = base_dim
        self.num = {e: c.numerator * (den // c.denominator) for e, c in clean.items() if c}
        self.den = den
        self._hash = None

    @staticmethod
    def _make(base_dim: int, num: dict, den: int) -> "Poly":
        """Wrap nonzero numerators over den >= 1, dividing out their common
        factor with den."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {e: n // g for e, n in num.items()}
        out = Poly.__new__(Poly)
        out.base_dim, out.num, out.den, out._hash = base_dim, num, den, None
        return out

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(base_dim: int) -> "Poly":
        return Poly(base_dim)

    @staticmethod
    def constant(base_dim: int, value) -> "Poly":
        return Poly(base_dim, {(0,) * base_dim: value})

    @staticmethod
    def variable(base_dim: int, index: int) -> "Poly":
        if not 0 <= index < base_dim:
            raise ValueError("variable index out of range")
        expo = tuple(1 if i == index else 0 for i in range(base_dim))
        return Poly(base_dim, {expo: 1})

    @staticmethod
    def monomial(base_dim: int, expo: Sequence[int], coeff=1) -> "Poly":
        return Poly(base_dim, {tuple(expo): coeff})

    @property
    def terms(self) -> dict:
        """The coefficients as a new {expo: Fraction} dict."""
        den = self.den
        return {e: Fraction(n, den) for e, n in self.num.items()}

    # -- ring operations ----------------------------------------------

    def _check(self, other: "Poly"):
        if self.base_dim != other.base_dim:
            raise ValueError("base_dim mismatch")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        if not other.num:
            return self
        if not self.num:
            return other
        d1, d2 = self.den, other.den
        if d1 == d2:
            num, b = dict(self.num), 1
        else:
            g = gcd(d1, d2)
            a, b = d2 // g, d1 // g
            num = {e: n * a for e, n in self.num.items()}
            d1 *= a
        for expo, n in other.num.items():
            acc = num.get(expo, 0) + n * b
            if acc:
                num[expo] = acc
            else:
                num.pop(expo, None)
        return Poly._make(self.base_dim, num, d1)

    def __neg__(self) -> "Poly":
        out = Poly.__new__(Poly)
        out.base_dim = self.base_dim
        out.num = {e: -n for e, n in self.num.items()}
        out.den = self.den
        out._hash = None
        return out

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            return NotImplemented
        self._check(other)
        num = {}
        for e1, c1 in self.num.items():
            for e2, c2 in other.num.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                acc = num.get(expo, 0) + c1 * c2
                if acc:
                    num[expo] = acc
                else:
                    num.pop(expo, None)
        return Poly._make(self.base_dim, num, self.den * other.den)

    __rmul__ = __mul__

    def scale(self, scalar) -> "Poly":
        scalar = Fraction(scalar)
        if not scalar:
            return Poly.zero(self.base_dim)
        n = scalar.numerator
        num = {e: c * n for e, c in self.num.items()}
        return Poly._make(self.base_dim, num, self.den * scalar.denominator)

    def diff(self, index: int) -> "Poly":
        """Partial derivative with respect to x_{index+1}."""
        num = {}
        for expo, n in self.num.items():
            k = expo[index]
            if k:
                num[expo[:index] + (k - 1,) + expo[index + 1 :]] = n * k
        return Poly._make(self.base_dim, num, self.den)

    def diff_multi(self, alpha: Sequence[int]) -> "Poly":
        p = self
        for i, a in enumerate(alpha):
            for _ in range(a):
                p = p.diff(i)
                if not p.num:
                    return p
        return p

    # -- predicates, ordering, printing --------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.num)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.num), default=-1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.base_dim == other.base_dim
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.base_dim, self.den, frozenset(self.num.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.num)

    def __str__(self) -> str:
        if not self.num:
            return "0"
        parts = []
        for expo in sorted(self.num, key=grlex_key, reverse=True):
            coeff = Fraction(self.num[expo], self.den)
            factors = []
            for i, e in enumerate(expo):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            mono = "*".join(factors)
            if not mono:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = f"{abs(coeff)}*{mono}"
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"Poly({self})"


# ---------------------------------------------------------------------------
# Polynomial text syntax: variables x1..xn, integer/rational literals,
# + - * ^ and parentheses; whitespace insignificant.
# ---------------------------------------------------------------------------


# The most decimal digits an integer literal may have, and a coefficient
# the parser computes: every literal is checked when it is read, and the
# numerators and the denominator of every sum, product and power when it is
# made, so a value prints without reaching Python's own limit on int-to-str
# conversion (4300 digits).
MAX_LITERAL_DIGITS = 1000
_COEFF_BOUND = 10**MAX_LITERAL_DIGITS
_COEFF_BITS = _COEFF_BOUND.bit_length()


def over_digit_limit(p: Poly) -> bool:
    """Whether the denominator or a numerator of p has more than
    MAX_LITERAL_DIGITS digits."""
    values, bound = p.num.values(), _COEFF_BOUND
    return bool(values) and (p.den >= bound or max(values) >= bound or min(values) <= -bound)

# The most term pairs one product the parser computes may multiply: the
# terms of one factor times those of the other, checked before each `*`
# and before each square and multiply inside a power. A product at this
# limit takes about a quarter of a second (Python 3.11, one core);
# (1+x1)^800, whose largest product is 289 by 513 terms, parses, and
# (1+x1+x2)^3000 is refused when it would square the 561 terms of
# (1+x1+x2)^32.
MAX_TERM_PRODUCTS = 200_000


class PolyParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at column {position + 1})")
        self.message = message
        self.position = position


# The most levels of parentheses a polynomial may nest. The parser takes
# four calls per level, so the limit keeps it far inside Python's recursion
# limit (1000) from any caller: ((...(1)...)) 300 deep raised RecursionError.
MAX_NESTING = 100

# A token is a run of decimal digits or one other non-space character,
# after any whitespace; `\d` and `\s` take exactly the characters that
# str.isdecimal and str.isspace do.
_TOKEN = re.compile(r"\s*(\d+|\S)")


class _PolyParser:
    """Recursive descent over the tokens of one text, read by one scan of
    `_TOKEN`. Positions are token indices; the end of input is the index
    past the last token, and a token's column is worked out by a second
    scan only for an error. Atoms are built as canonical integer `Poly`s."""

    __slots__ = ("text", "base_dim", "zero", "toks", "i", "depth")

    def __init__(self, text: str, base_dim: int):
        self.text = text
        self.base_dim = base_dim
        self.zero = (0,) * base_dim
        self.toks = _TOKEN.findall(text)
        self.toks.append("")  # the end of input
        self.i = 0
        self.depth = 0

    def error(self, message: str, at: int):
        """Raise `message` at the start of token `at`, or at the end of the
        text for the end of input."""
        starts = [m.start(1) for m in _TOKEN.finditer(self.text)]
        starts.append(len(self.text))
        raise PolyParseError(message, starts[at])

    def parse(self) -> Poly:
        p = self.parse_sum()
        tok = self.toks[self.i]
        if tok:
            self.error(f"unexpected character {tok[0]!r}", self.i)
        return p

    def parse_sum(self) -> Poly:
        toks = self.toks
        tok = toks[self.i]
        negate = tok == "-"
        if negate or tok == "+":
            self.i += 1
        p = self.parse_product()
        if negate:
            p = -p
        while True:
            at = self.i
            tok = toks[at]
            if tok == "+":
                self.i = at + 1
                p = self.checked(p + self.parse_product(), at)
            elif tok == "-":
                self.i = at + 1
                p = self.checked(p - self.parse_product(), at)
            else:
                return p

    def parse_product(self) -> Poly:
        p = self.parse_power()
        while self.toks[self.i] == "*":
            at = self.i
            self.i = at + 1
            p = self.product(p, self.parse_power(), at)
        return p

    def parse_power(self) -> Poly:
        base = self.parse_atom()
        at = self.i
        if self.toks[at] != "^":
            return base
        self.i = at + 1
        exp = self.integer()
        num = base.num
        if num:
            # base^exp has the denominator den^exp and, among its
            # numerators, the exp-th powers of those of the lex-first and
            # -last exponents (lex is a monomial order): a power that is
            # over the limit by these is never built
            size = max(abs(num[min(num)]), abs(num[max(num)]), base.den).bit_length() - 1
            if size * exp >= _COEFF_BITS:
                self.coefficient_error(at)
            # nor one whose largest variable exponent would have more digits
            if max(map(max, num)) * exp >= _COEFF_BOUND:
                self.exponent_error(at)
        # square-and-multiply: O(log exp) products instead of exp
        result = Poly._make(self.base_dim, {self.zero: 1}, 1)
        while exp:
            if exp & 1:
                result = self.product(result, base, at)
            exp >>= 1
            if exp:
                base = self.product(base, base, at)
        return result

    def product(self, a: Poly, b: Poly, at: int) -> Poly:
        """a * b, when it multiplies at most MAX_TERM_PRODUCTS term pairs
        and its largest variable exponent has at most MAX_LITERAL_DIGITS
        digits (both checked before it is made), and its coefficients are
        within the digit limit; else an error at the operator, token `at`."""
        if len(a.num) * len(b.num) > MAX_TERM_PRODUCTS:
            self.error(
                f"product of {len(a.num)} by {len(b.num)} terms exceeds the limit "
                f"of {MAX_TERM_PRODUCTS} term products",
                at,
            )
        if a.num and b.num and max(map(max, a.num)) + max(map(max, b.num)) >= _COEFF_BOUND:
            # x_v's top exponent in a * b is the sum of its top exponents in
            # a and b, since the product of their top parts is not zero
            tops = zip(map(max, zip(*a.num)), map(max, zip(*b.num)))
            if max(map(sum, tops)) >= _COEFF_BOUND:
                self.exponent_error(at)
        return self.checked(a * b, at)

    def checked(self, p: Poly, at: int) -> Poly:
        """p, when its denominator and numerators have at most
        MAX_LITERAL_DIGITS digits; else an error at the operator, token
        `at`."""
        if over_digit_limit(p):
            self.coefficient_error(at)
        return p

    def coefficient_error(self, at: int):
        self.error(f"coefficient exceeds the limit of {MAX_LITERAL_DIGITS} digits", at)

    def exponent_error(self, at: int):
        self.error(f"variable exponent exceeds the limit of {MAX_LITERAL_DIGITS} digits", at)

    def integer(self) -> int:
        """The integer literal at the next token."""
        at = self.i
        tok = self.toks[at]
        if not tok.isdecimal():
            self.error("expected integer", at)
        if len(tok) > MAX_LITERAL_DIGITS:
            self.error(f"integer literal exceeds the limit of {MAX_LITERAL_DIGITS} digits", at)
        self.i = at + 1
        return int(tok)

    def parse_atom(self) -> Poly:
        at = self.i
        tok = self.toks[at]
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.error(f"parentheses nested deeper than {MAX_NESTING}", at)
            self.i = at + 1
            p = self.parse_sum()
            if self.toks[self.i] != ")":
                self.error("expected ')'", self.i)
            self.i += 1
            self.depth -= 1
            return p
        # errors found after a token is read point at the token's start
        base_dim, zero = self.base_dim, self.zero
        if tok == "x":
            self.i = at + 1
            index = self.integer()
            if not 1 <= index <= base_dim:
                self.error(f"variable x{index} out of range for base_dim {base_dim}", at)
            return Poly._make(base_dim, {zero[: index - 1] + (1,) + zero[index:]: 1}, 1)
        if tok.isdecimal():
            num, den = self.integer(), 1
            if self.toks[self.i] == "/":
                self.i += 1
                start = self.i
                den = self.integer()
                if not den:
                    self.error("zero denominator", start)
            return Poly._make(base_dim, {zero: num} if num else {}, den)
        self.error("expected polynomial atom", at)


# A plain literal: n or n/m, with an optional sign, in the digits `\d` takes,
# of at most MAX_LITERAL_DIGITS characters each.
_LITERAL = re.compile(r"([-+]?\d{1,%d})(?:/(\d{1,%d}))?" % (MAX_LITERAL_DIGITS, MAX_LITERAL_DIGITS))


def reduced(n: int, d: int) -> tuple:
    """n/d, d > 0, as (numerator, denominator) in lowest terms."""
    g = gcd(n, d)
    return (n, d) if g == 1 else (n // g, d // g)


def plain_literal(text: str) -> Optional[tuple]:
    """The plain literal `text`, n or n/m with an optional sign, as (n, m)
    in lowest terms; None for any other text, for m = 0 and for an integer
    of more than MAX_LITERAL_DIGITS characters, leading zeros counted as
    the token parser counts them. A caller reads what this passes on by
    its own grammar, which gives the same value or the error."""
    match = _LITERAL.fullmatch(text)
    if match is None:
        return None
    num, den = match.groups()
    if den is None:
        return int(num), 1
    d = int(den)
    return reduced(int(num), d) if d else None


def parse_poly(text: str, base_dim: int) -> Poly:
    """Parse the polynomial text syntax (`2*x1^2*x2 - 1/3`). A plain
    literal (`plain_literal`) is built straight into its integer Poly; any
    other text, and every error, goes through the token parser."""
    value = plain_literal(text)
    if value is not None:
        n, d = value
        return Poly._make(base_dim, {(0,) * base_dim: n} if n else {}, d)
    return _PolyParser(text, base_dim).parse()


# ---------------------------------------------------------------------------
# Exact rational linear algebra on integers: one sparse elimination for rank
# and solve, and the dense fraction-free (Bareiss) elimination for
# determinants and leading minors.
# ---------------------------------------------------------------------------


def bareiss(m: list, width: int):
    """Fraction-free elimination of the integer rows m to row echelon form,
    in place, over their first `width` columns (Bareiss, "Sylvester's
    identity and multistep integer-preserving Gaussian elimination", Math.
    Comp. 22, 1968).

    Columns are taken left to right. Row r keeps its place as the pivot
    row of a column when its entry there is nonzero, otherwise the first
    later row with a nonzero entry is exchanged into place. Each row below
    is updated as row := (p*row - f*pivot_row) / p_prev, p the new pivot,
    f the row's entry in the pivot column and p_prev the previous pivot;
    the division is exact, because every entry stays a minor of m. Before
    the first exchange or skipped column the pivot of step s is the
    leading principal minor of order s + 1, and on a square matrix of full
    rank the last pivot is the determinant up to the sign of the
    exchanges.

    Returns (pivot columns, the steps at which rows were exchanged, the
    last pivot or 1 if there is none).
    """
    rows = len(m)
    cols, exchanges = [], []
    prev = 1
    r = 0
    for c in range(width):
        if r == rows:
            break
        if not m[r][c]:
            p = next((i for i in range(r + 1, rows) if m[i][c]), None)
            if p is None:
                continue
            m[r], m[p] = m[p], m[r]
            exchanges.append(r)
        pivot_row = m[r]
        piv = pivot_row[c]
        for i in range(r + 1, rows):
            row = m[i]
            f = row[c]
            if f:
                m[i] = [(piv * a - f * b) // prev for a, b in zip(row, pivot_row)]
            elif piv != prev:
                m[i] = [piv * a // prev for a in row]
        prev = piv
        cols.append(c)
        r += 1
    return cols, exchanges, prev


def integer_det(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix."""
    work = [list(row) for row in m]
    n = len(work)
    cols, exchanges, last = bareiss(work, n)
    if len(cols) < n:
        return 0
    return -last if len(exchanges) % 2 else last


def echelon(rows: Iterable[dict]) -> dict:
    """The one sparse elimination: row echelon form of rows of nonzero
    ints {column: value}, as {leading column: pivot row}; its size is the
    rank.

    Each row is reduced on its leading (least) column against the pivot
    row kept for that column, by the fraction-free update row := p*row -
    f*pivot (p and f the two leading entries over their gcd), until it is
    zero or opens a new pivot column. A pivot row is primitive, with a
    positive leading entry, and holds no column left of its leading one; a
    row after an update that scaled it (p != 1) is divided by the gcd of
    its entries too, which keeps the integers at the size of the reduced
    rows on dense input. Only nonzero entries are stored, so the work
    follows the nonzeros. The rows are reduced in place: callers pass rows
    they own.
    """
    pivots = {}
    for row in rows:
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                g = gcd(*row.values())
                if row[lead] < 0:
                    g = -g
                pivots[lead] = {c: v // g for c, v in row.items()} if g != 1 else row
                break
            p, f = pivot[lead], row[lead]
            g = gcd(p, f)
            p, f = p // g, f // g
            if p != 1:
                row = {c: v * p for c, v in row.items()}
            for c, v in pivot.items():
                x = row.get(c, 0) - f * v
                if x:
                    row[c] = x
                else:
                    del row[c]
            if p != 1 and row:
                g = gcd(*row.values())
                if g != 1:
                    row = {c: v // g for c, v in row.items()}
    return pivots


def _cleared(row: dict) -> dict:
    """A new row of the nonzero values of row, ints or Fractions, times the
    least common denominator of the row (which changes no row space)."""
    den = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}


def sparse_rank(rows: Iterable[dict]) -> int:
    """Exact rank of a matrix given as sparse rows {column: value}: each
    row, of ints or Fractions, is cleared of its denominators and zero
    values into a new row, then `echelon`. The input rows are not
    modified."""
    return len(echelon(map(_cleared, rows)))


def rank(m: Sequence[Sequence]) -> int:
    return sparse_rank({c: v for c, v in enumerate(row) if v} for row in m)


def solve_linear(rows: Sequence[dict], b: Sequence, width: int) -> Optional[list]:
    """Solve m.x = b exactly, m the matrix whose rows are `rows`; returns
    a solution vector or None when the system is infeasible. Dimension
    mismatch raises ValueError.

    The rows are sparse rows {column: value} over columns 0..width-1, of
    ints or Fractions. The solution is the reduced row echelon one: every
    free (non-pivot) column gets 0. The augmented rows, b at column width,
    go through `echelon`; a pivot at column width means no solution, and
    otherwise x is solved from the pivot rows, last pivot column first.
    """
    if len(b) != len(rows):
        raise ValueError("right-hand side length != number of rows")
    pivots = echelon([_cleared({**row, width: v}) for row, v in zip(rows, b) if row or v])
    if width in pivots:
        return None  # a row 0 = nonzero: inconsistent
    x = [Fraction(0)] * width
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        rest = sum(v * x[j] for j, v in row.items() if j != c and j != width)
        x[c] = Fraction(row.get(width, 0) - rest, row[c])
    return x


def _minors(m: Sequence[Sequence[Poly]]):
    """minor(rows, cols): the determinant of m's rows x cols submatrix, by
    Laplace expansion along its first row, memoised across calls; the
    empty minor is 1."""
    base_dim = m[0][0].base_dim

    @lru_cache(maxsize=None)
    def minor(rows: tuple, cols: tuple) -> Poly:
        if not rows:
            return Poly.constant(base_dim, 1)
        if len(rows) == 1:
            return m[rows[0]][cols[0]]
        total = Poly.zero(base_dim)
        r = rows[0]
        rest = rows[1:]
        for k, c in enumerate(cols):
            entry = m[r][c]
            if entry.is_zero():
                continue
            sub = minor(rest, cols[:k] + cols[k + 1 :])
            term = entry * sub
            total = total + (term if k % 2 == 0 else -term)
        return total

    return minor


def poly_matrix_inverse(m: Sequence[Sequence[Poly]]) -> Optional[list]:
    """Inverse of a square matrix of Poly, the adjugate over the memoised
    minors (`_minors`) divided by the determinant; None unless
    the determinant is a nonzero constant, the case where the inverse
    has polynomial entries again (the matrix is unimodular)."""
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    minor = _minors(m)
    full = tuple(range(n))
    det = minor(full, full)
    if det.is_zero() or not det.is_constant():
        return None
    inv = Fraction(det.den, next(iter(det.num.values())))
    drop = [full[:k] + full[k + 1 :] for k in full]
    return [
        [minor(drop[j], drop[i]).scale(inv if (i + j) % 2 == 0 else -inv) for j in full]
        for i in full
    ]
