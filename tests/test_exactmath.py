import time
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroid.exactmath import (
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    MAX_TERM_PRODUCTS,
    Poly,
    PolyParseError,
    bareiss,
    echelon,
    grlex_key,
    integer_det,
    monomials_upto,
    parse_poly,
    poly_matrix_inverse,
    rank,
    solve_linear,
    sparse_rank,
)
from poly_oracle import oracle_parse_poly, outcome

fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=6
)


# --- test-only helpers: evaluation and dense matrix products ---------------


def poly_eval(p: Poly, point) -> Fraction:
    """The value of p at a rational point."""
    if len(point) != p.base_dim:
        raise ValueError("point length != base_dim")
    pt = [Fraction(v) for v in point]
    total = Fraction(0)
    for expo, coeff in p.terms.items():
        val = coeff
        for v, e in zip(pt, expo):
            val *= v**e
        total += val
    return total


def mat_vec(m, v) -> list:
    return [sum((Fraction(a) * Fraction(x) for a, x in zip(row, v)), Fraction(0)) for row in m]


def mat_mul(a, b) -> list:
    return [
        [
            sum((Fraction(a[i][k]) * Fraction(b[k][j]) for k in range(len(b))), Fraction(0))
            for j in range(len(b[0]))
        ]
        for i in range(len(a))
    ]


# --- test-only oracles: the Fraction row echelon and Gauss determinant -----
# The dense Fraction eliminations the library used before its integer
# Bareiss core: the oracles for `bareiss`, `solve_linear`,
# `poly_matrix_inverse` on constant matrices, the determinant and
# `sparse_rank`.


def _as_matrix(m) -> list:
    return [[Fraction(v) for v in row] for row in m]


def row_echelon(m: list):
    """In-place reduced row echelon over Fractions; returns the pivot
    columns."""
    if not m:
        return []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def kernel_basis(m) -> list:
    """Basis of the right kernel of m, from the reduced row echelon form."""
    work = _as_matrix(m)
    if not work:
        return []
    cols = len(work[0])
    pivots = row_echelon(work)
    basis = []
    for free in range(cols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][free]
        basis.append(vec)
    return basis


def rref_solve(m, b):
    """The reduced row echelon solution of m.x = b (free columns 0), or
    None when the system is infeasible."""
    work = _as_matrix(m)
    if not work:
        return []
    cols = len(work[0])
    aug = [row + [Fraction(v)] for row, v in zip(work, b)]
    pivots = row_echelon(aug)
    if pivots and pivots[-1] == cols:
        return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = aug[r][cols]
    return x


def fraction_det(matrix) -> Fraction:
    """Determinant by Gaussian elimination over Fractions."""
    m = _as_matrix(matrix)
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


def poly_strategy(base_dim: int):
    expo = st.tuples(*[st.integers(0, 3)] * base_dim)
    return st.dictionaries(expo, fractions, max_size=5).map(
        lambda terms: Poly(base_dim, terms)
    )


# --- test-only reference: the Fraction-dict polynomial --------------------
# Polynomials as {expo: Fraction} dicts, one Fraction operation per
# coefficient: shares no arithmetic with Poly's integer numerators over one
# denominator, so it serves as their oracle.


def _ref_put(terms, expo, coeff):
    acc = terms.get(expo, Fraction(0)) + coeff
    if acc:
        terms[expo] = acc
    else:
        terms.pop(expo, None)


def ref_add(t1, t2):
    terms = dict(t1)
    for expo, coeff in t2.items():
        _ref_put(terms, expo, coeff)
    return terms


def ref_mul(t1, t2):
    terms = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            _ref_put(terms, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
    return terms


def ref_scale(t, scalar):
    scalar = Fraction(scalar)
    return {e: c * scalar for e, c in t.items()} if scalar else {}


def ref_diff(t, index):
    terms = {}
    for expo, coeff in t.items():
        k = expo[index]
        if k:
            new = list(expo)
            new[index] = k - 1
            terms[tuple(new)] = coeff * k
    return terms


def ref_str(t):
    if not t:
        return "0"
    parts = []
    for expo in sorted(t, key=grlex_key, reverse=True):
        coeff = t[expo]
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
        parts.append(("-" if coeff < 0 else "+", body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def assert_canonical(p):
    assert isinstance(p.den, int) and p.den >= 1
    assert all(isinstance(n, int) and n for n in p.num.values())
    assert gcd(p.den, *p.num.values()) == 1


def assert_matches(p, ref_terms):
    assert_canonical(p)
    assert p.terms == ref_terms
    assert str(p) == ref_str(ref_terms)


# --- polynomial ring ----------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(poly_strategy(2), poly_strategy(2), fractions, st.integers(-4, 4))
def test_poly_matches_fraction_reference(p, q, c, k):
    tp, tq = p.terms, q.terms
    assert_matches(p, tp)
    assert_matches(p + q, ref_add(tp, tq))
    assert_matches(p - q, ref_add(tp, ref_scale(tq, -1)))
    assert_matches(-p, ref_scale(tp, -1))
    assert_matches(p * q, ref_mul(tp, tq))
    assert_matches(p.scale(c), ref_scale(tp, c))
    assert_matches(p * k, ref_scale(tp, k))
    assert_matches(c * p, ref_scale(tp, c))
    for i in range(2):
        assert_matches(p.diff(i), ref_diff(tp, i))
    assert_matches(p.diff_multi((2, 1)), ref_diff(ref_diff(ref_diff(tp, 0), 0), 1))


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), fractions, max_size=5))
def test_poly_built_from_terms_is_canonical(terms):
    p = Poly(2, terms)
    assert_matches(p, {e: c for e, c in terms.items() if c})
    # the same coefficients given as unreduced fraction strings
    q = Poly(2, [(e, f"{2 * c.numerator}/{2 * c.denominator}") for e, c in terms.items()])
    assert p == q and hash(p) == hash(q)


def test_equal_polys_built_differently_are_equal_and_hash_alike():
    half = Poly.constant(1, Fraction(1, 2))
    variants = (
        Poly.constant(1, Fraction(2, 4)),
        Poly(1, {(0,): "3/6"}),
        Poly(1, [((0,), Fraction(1, 4)), ((0,), Fraction(1, 4))]),
        Poly.constant(1, Fraction(1, 6)) + Poly.constant(1, Fraction(1, 3)),
        Poly.constant(1, 3).scale(Fraction(1, 6)),
        parse_poly("1/2*x1^2", 1).diff(0).diff(0).scale(Fraction(1, 2)),
    )
    for p in variants:
        assert_canonical(p)
        assert (p.den, p.num) == (2, {(0,): 1})
        assert p == half and hash(p) == hash(half)
    x = Poly.variable(1, 0)
    a = x.scale(Fraction(1, 3)) + x.scale(Fraction(2, 3))
    assert_canonical(a)
    assert a == x and hash(a) == hash(x) and a.den == 1
    assert (x.scale(Fraction(1, 2)) - x.scale(Fraction(1, 2))) == Poly.zero(1)


def test_terms_is_a_read_only_view():
    p = parse_poly("3/2*x1^2 - x1", 1)
    view = p.terms
    view[(2,)] = Fraction(7)
    view[(5,)] = Fraction(1)
    del view[(1,)]
    assert p.terms == {(2,): Fraction(3, 2), (1,): Fraction(-1)}
    assert str(p) == "3/2*x1^2 - x1"
    assert p == parse_poly("3/2*x1^2 - x1", 1)
    with pytest.raises(AttributeError):
        p.terms = {}


@settings(max_examples=60, deadline=None)
@given(poly_strategy(2), poly_strategy(2), poly_strategy(2))
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p - p == Poly.zero(2)


@settings(max_examples=60, deadline=None)
@given(poly_strategy(2))
def test_str_parse_round_trip(p):
    assert parse_poly(str(p), 2) == p


@settings(max_examples=40, deadline=None)
@given(poly_strategy(2), poly_strategy(2))
def test_diff_is_derivation(p, q):
    for i in range(2):
        assert (p * q).diff(i) == p.diff(i) * q + p * q.diff(i)


def test_parse_basics():
    p = parse_poly("(x1 + 2)^2 - x1^2", 1)
    assert str(p) == "4*x1 + 4"
    assert parse_poly("3/2*x2^3", 2).terms == {(0, 3): Fraction(3, 2)}
    assert parse_poly("-x1", 1) == Poly.variable(1, 0).scale(-1)
    assert parse_poly("0", 3).is_zero()


@settings(max_examples=40, deadline=None)
@given(poly_strategy(2))
def test_parsed_power_is_repeated_product(p):
    power = Poly.constant(2, 1)
    for k in range(13):
        assert parse_poly(f"({p})^{k}", 2) == power
        power = power * p


def test_parse_large_power():
    p = parse_poly("(1+x1)^800", 1)
    assert p.degree() == 800 and p.den == 1
    assert p.num[(400,)] == comb(800, 400)
    assert parse_poly("(1/2*x1 - 1/3)^2", 1) == parse_poly("1/4*x1^2 - 1/3*x1 + 1/9", 1)


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError) as exc:
        parse_poly("x1 + * 2", 1)
    assert exc.value.position == 5
    with pytest.raises(PolyParseError):
        parse_poly("x3", 2)  # variable out of range
    with pytest.raises(PolyParseError):
        parse_poly("x1 +", 1)
    # errors found after reading a token point at the token's start
    cases = (
        ("x2", 1, 0, "variable x2 out of range for base_dim 1"),
        ("x1 + 3*x12", 2, 7, "variable x12 out of range for base_dim 2"),
        ("1/0", 1, 2, "zero denominator"),
        ("x1 - 2/ 00", 1, 8, "zero denominator"),
        # the end of input is no sign: the error is at the end, not past it
        ("", 1, 0, "expected polynomial atom"),
        ("  ", 1, 2, "expected polynomial atom"),
        ("(", 1, 1, "expected polynomial atom"),
        ("x1 + (", 1, 6, "expected polynomial atom"),
    )
    for text, base_dim, position, message in cases:
        with pytest.raises(PolyParseError) as exc:
            parse_poly(text, base_dim)
        assert (exc.value.position, exc.value.message) == (position, message)
        assert str(exc.value) == f"{message} (at column {position + 1})"


def coefficient_error(text, base_dim=1):
    with pytest.raises(PolyParseError) as exc:
        parse_poly(text, base_dim)
    assert exc.value.message == f"coefficient exceeds the limit of {MAX_LITERAL_DIGITS} digits"
    return exc.value.position


def test_coefficient_size_limit():
    digits = lambda n: len(str(abs(n)))
    # the boundary: 1000 digits parse, 1001 do not, in a numerator and in
    # the denominator; each error points at its operator
    assert digits(parse_poly("2^3321", 1).num[(0,)]) == MAX_LITERAL_DIGITS
    assert digits(parse_poly("9^1047*x1", 1).num[(1,)]) == MAX_LITERAL_DIGITS
    assert digits(parse_poly("(1/10)^999", 1).den) == MAX_LITERAL_DIGITS
    assert coefficient_error("2^3322") == 1
    assert coefficient_error("x1 - 9^1048") == 6
    assert coefficient_error("x1 + (1/10)^1000") == 11
    assert coefficient_error("(0 - 9^1047)*9") == 12  # a negative numerator
    # a power far over the limit is refused before it is built
    for text in ("2^100000", "2^99999999999", "(1/3)^99999999999", "(x1 + 2)^99999999999"):
        assert coefficient_error(text) == text.index("^")
    # products: five factors 10^998 fail at the first '*'; five factors
    # 10^199 make 996 digits
    ten = "*".join(["10^998"] * 5)
    assert coefficient_error(ten) == ten.index("*")
    assert digits(parse_poly("*".join(["10^199"] * 5), 1).num[(0,)]) == 996
    # sums: the denominators 2^660, 3^417, 5^285, 7^236, 11^191, 13^179
    # are coprime with about 200 digits each, so five of the 1/p sum to a
    # denominator of 996 digits and the sixth term goes over
    terms = ["1/2^660", "1/3^417", "1/5^285", "1/7^236", "1/11^191", "1/13^179"]
    assert digits(parse_poly(" + ".join(terms[:5]), 1).den) == 996
    text = " + ".join(terms)
    assert coefficient_error(text) == text.rindex("+")
    minus = " - ".join(terms)
    assert coefficient_error(minus) == minus.rindex("-")
    # a squaring inside a power whose end terms stay small is checked too:
    # at the exponent 2^40 nothing else is multiplied before the last one
    assert coefficient_error("(1 + 10^300*x1 + x1^2)^1099511627776") == 22
    # the numerators of (1+x1)^800 stay far below the limit
    assert parse_poly("(1+x1)^800", 1).num[(400,)] == comb(800, 400)


def term_error(text, base_dim=1):
    with pytest.raises(PolyParseError) as exc:
        parse_poly(text, base_dim)
    assert exc.value.message.endswith(
        f"terms exceeds the limit of {MAX_TERM_PRODUCTS} term products"
    )
    return exc.value.position


def test_term_product_limit():
    # (1+x1)^800 multiplies 289 by 513 terms last, under the limit
    assert len(parse_poly("(1+x1)^800", 1).num) == 801
    # a power is refused at its '^' by the first product over the limit
    # it would compute, here the square of the 561 terms of (1+x1+x2)^32
    start = time.perf_counter()
    with pytest.raises(PolyParseError) as exc:
        parse_poly("(1+x1+x2)^3000", 2)
    assert time.perf_counter() - start < 1
    assert exc.value.position == 9
    assert exc.value.message == (
        f"product of 561 by 561 terms exceeds the limit of {MAX_TERM_PRODUCTS} term products"
    )
    assert term_error("(1+x1)^3000") == 6
    # a '*' is checked before it multiplies: 500 by 501 terms
    text = "(1+x1)^499 * (1+x1)^500"
    assert term_error(text) == text.index("*")
    # the boundary: 400 by 500 term pairs is the limit itself
    assert MAX_TERM_PRODUCTS == 400 * 500
    assert len(parse_poly("(1+x1)^399 * (1+x1)^499", 1).num) == 899
    text = "(1+x1)^399 * (1+x1)^500"
    assert term_error(text) == text.index("*")


# Texts over the parser's characters, with Unicode whitespace (\u00a0,
# \u2003), a Unicode decimal digit (٣, which str.isdecimal accepts) and a
# superscript digit (², which it does not); the tokens make mostly
# well-formed texts, the characters mostly broken ones.
_PARSER_CHARS = "0123456789xx+-*/^()  \t\u00a0\u2003٣²"
_PARSER_TOKENS = (
    "x1", "x2", "x3", "x٣", "2", "13", "0", "00", "1/2", "3/0", "٣", "²", "+", "-", "*",
    "^", "^2", "^3", "(", ")", " ", "\u00a0", "\u2003", "/", "x",
)
# Plain literals, which parse_poly reads without the token parser when
# each integer has at most MAX_LITERAL_DIGITS characters and the
# denominator is not 0: signs, leading zeros, ٣, integers of 1000 and 1001
# characters, and n/0.
_LITERAL_INTEGERS = st.one_of(
    st.text(alphabet="0123456789٣", min_size=1, max_size=4),
    st.sampled_from(["9" * 1000, "0" + "9" * 999, "9" * 1001, "0" * 1000 + "7", "0", "00"]),
)
plain_literals = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["", "+", "-"]),
        _LITERAL_INTEGERS,
        st.one_of(st.just(""), _LITERAL_INTEGERS.map("/".__add__)),
    ),
)
parser_texts = st.one_of(
    st.text(alphabet=_PARSER_CHARS, max_size=24),
    st.lists(st.sampled_from(_PARSER_TOKENS), max_size=16).map("".join),
    plain_literals,
)


@settings(max_examples=1500, derandomize=True, deadline=None)
@given(parser_texts, st.integers(1, 3))
def test_token_parser_matches_character_oracle(text, base_dim):
    """The token parser gives the same Poly, or the same error message and
    position, as the character-at-a-time oracle of tests/poly_oracle.py."""
    assert outcome(parse_poly, text, base_dim) == outcome(oracle_parse_poly, text, base_dim)


def parse_error(text, base_dim=1):
    """(message, position) of the error parse_poly raises on text, after
    checking that the oracle raises the same."""
    got = outcome(parse_poly, text, base_dim)
    assert got == outcome(oracle_parse_poly, text, base_dim)
    assert got[0] == "error", text
    return got[1:]


def test_nesting_limit():
    """MAX_NESTING levels of parentheses parse; one more is an error at the
    '(' that crosses the limit, however deep the text goes (300 levels
    raised RecursionError)."""
    assert MAX_NESTING == 100
    nested = lambda depth, body="x1": "(" * depth + body + ")" * depth
    assert parse_poly(nested(MAX_NESTING), 1) == Poly.variable(1, 0)
    # the limit counts open parentheses, not all of them
    wide = " + ".join([nested(MAX_NESTING, "1")] * 3) + "*" + nested(MAX_NESTING, "x1^2")
    assert parse_poly(wide, 1) == parse_poly("2 + x1^2", 1)
    message = f"parentheses nested deeper than {MAX_NESTING}"
    for depth in (MAX_NESTING + 1, 300, 5000):
        assert parse_error(nested(depth)) == (message, MAX_NESTING)
    text = "x1 + " + nested(MAX_NESTING, " ( 1)")
    assert parse_error(text) == (message, text.rindex("("))


def test_variable_exponent_limit():
    """A power whose largest variable exponent would have more than
    MAX_LITERAL_DIGITS digits is an error at its '^', before it is built
    (it raised ValueError when printed); one at the limit parses."""
    message = f"variable exponent exceeds the limit of {MAX_LITERAL_DIGITS} digits"
    e = "9" * (MAX_LITERAL_DIGITS - 1)
    assert parse_poly(f"x1^{e}", 1).num == {(int(e),): 1}
    text = f"(((((x1)^{e})^{e})^{e})^{e})^{e}"
    assert parse_error(text) == (message, text.index("^", text.index("^") + 1))
    # the boundary: 10^1000 - 10 has 1000 digits, 10^1000 has 1001
    top = "1" + "0" * (MAX_LITERAL_DIGITS - 1)
    assert parse_poly(f"(x1^{e})^10", 1).num == {(10 * int(e),): 1}
    assert parse_error(f"(x1^{top})^10") == (message, len(top) + 5)
    # each variable counts, in any term
    text = f"(1 + x1*x2^{top})^10"
    assert parse_error(text, 2) == (message, text.rindex("^"))
    # a constant base has no variable exponent
    assert parse_poly(f"1^{e}", 1) == Poly.constant(1, 1)


def test_product_variable_exponent_limit():
    """A product whose largest variable exponent would have more than
    MAX_LITERAL_DIGITS digits is an error at its '*', before it is built,
    as a power is at its '^' (x1^E*x1^E, E of 1000 nines, was read and
    written as a text that did not read back). A variable's top exponent
    in a product is the sum of its top exponents in the factors, so
    x1^E*x2^E parses."""
    message = f"variable exponent exceeds the limit of {MAX_LITERAL_DIGITS} digits"
    e = "9" * MAX_LITERAL_DIGITS
    text = f"x1^{e}*x1^{e}"
    assert parse_error(text) == (message, text.index("*"))
    assert parse_poly(f"x1^{e}*x2^{e}", 2).num == {(int(e), int(e)): 1}
    # the boundary: 5*10^999 twice is 10^1000, of 1001 digits
    half = 5 * 10 ** (MAX_LITERAL_DIGITS - 1)
    text = f"x1^{half} * x1^{half}"
    assert parse_error(text) == (message, text.index("*"))
    assert parse_poly(f"x1^{half - 1}*x1^{half}", 1).num == {(2 * half - 1,): 1}
    # in any term, after the operands are read, and the first '*' over the limit
    text = f"(1 + x1*x2^{e})*(x2 + 2) * x1"
    assert parse_error(text, 2) == (message, text.index(")*") + 1)
    text = f"2*x1*x2^{e} * (x1 - 3)*(x2^{e})"
    assert parse_error(text, 2) == (message, text.rindex("*"))
    # a constant factor adds no exponent
    assert parse_poly(f"x1^{e}*3", 1).num == {(int(e),): 3}


def test_eval_matches_expansion():
    p = parse_poly("x1^2*x2 - 3*x2 + 1/2", 2)
    assert poly_eval(p, [Fraction(2), Fraction(3)]) == Fraction(4 * 3 - 9) + Fraction(1, 2)


def test_grlex_order():
    ms = list(monomials_upto(2, 2))
    assert ms[0] == (0, 0)
    # degree-1 block before degree-2 block
    degrees = [sum(m) for m in ms]
    assert degrees == sorted(degrees)
    # within a degree block the enumeration is descending-lex (x1 heaviest)
    assert ms == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    # the sort key grades first, like the enumeration
    assert [grlex_key(m)[0] for m in ms] == degrees
    assert len(ms) == 6


def test_diff_multi():
    p = parse_poly("x1^3*x2^2", 2)
    assert p.diff_multi((2, 1)) == parse_poly("12*x1*x2", 2)
    assert p.diff_multi((0, 3)).is_zero()


# --- exact linear algebra -----------------------------------------------


def test_rank_and_kernel():
    m = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    m = [[Fraction(v) for v in row] for row in m]
    assert rank(m) == 2
    kb = kernel_basis(m)
    assert len(kb) == 1
    v = kb[0]
    assert all(sum(row[i] * v[i] for i in range(3)) == 0 for row in m)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.one_of(st.just(Fraction(0)), fractions), min_size=4, max_size=4),
        min_size=1,
        max_size=6,
    )
)
def test_sparse_rank_is_columns_minus_kernel(m):
    # kernel_basis runs the dense row echelon, a separate elimination
    r = sparse_rank({c: v for c, v in enumerate(row) if v} for row in m)
    assert r == rank(m) == 4 - len(kernel_basis(m))


# integer entries large enough that the fraction-free updates grow them
integers = st.integers(-(10**6), 10**6)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.one_of(st.just(0), st.integers(-3, 3), integers), min_size=5, max_size=5),
        min_size=1,
        max_size=8,
    )
)
def test_sparse_rank_integer_matrices(m):
    r = sparse_rank({c: v for c, v in enumerate(row) if v} for row in m)
    assert r == rank(m) == 5 - len(kernel_basis(m))
    # integer rows and the same rows as Fractions over a common denominator
    scaled = [{c: Fraction(v, 7) for c, v in enumerate(row) if v} for row in m]
    assert sparse_rank(scaled) == r


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(
            st.one_of(st.just(0), st.integers(-5, 5), fractions), min_size=5, max_size=5
        ),
        min_size=1,
        max_size=8,
    )
)
def test_sparse_rank_mixed_denominators(m):
    # a row mixes ints and Fractions of several denominators
    r = sparse_rank({c: v for c, v in enumerate(row) if v} for row in m)
    assert r == rank(m) == 5 - len(kernel_basis(m))


# entries of one kind: nonzero ints, Fractions (integral ones stay of type
# Fraction) or both in one row
ENTRY_KINDS = {
    "int": st.one_of(st.integers(-3, 3), integers),
    "fraction": fractions,
    "mixed": st.one_of(st.integers(-5, 5), fractions),
}


@st.composite
def shaped_matrices(draw):
    """(dense matrix, its sparse rows): tall and wide shapes, empty rows,
    and rows that keep some zero values."""
    entry = st.one_of(st.just(0), st.just(0), ENTRY_KINDS[draw(st.sampled_from(sorted(ENTRY_KINDS)))])
    cols = draw(st.integers(1, 6))
    m = []
    for _ in range(draw(st.integers(0, 4 * cols))):
        if draw(st.integers(0, 4)) == 0:
            m.append([0] * cols)  # an empty row
        else:
            m.append([draw(entry) for _ in range(cols)])
    keep_zeros = draw(st.booleans())
    rows = [{c: v for c, v in enumerate(row) if v or (keep_zeros and c % 2)} for row in m]
    return m, rows


@settings(max_examples=200, deadline=None)
@given(shaped_matrices())
def test_sparse_rank_matches_fraction_oracle_on_any_shape(case):
    m, rows = case
    before = [dict(row) for row in rows]
    assert sparse_rank(rows) == len(row_echelon(_as_matrix(m)))
    assert rows == before  # the input rows are not modified


def test_sparse_rank_fixed_cases():
    half = Fraction(1, 2)
    assert sparse_rank([]) == 0
    assert sparse_rank([{}, {3: 0}]) == 0
    assert sparse_rank([{0: 2, 1: 4}, {0: 1, 1: 2}]) == 1
    assert sparse_rank([{0: half, 1: Fraction(1, 3)}, {0: 3, 1: 2}]) == 1
    assert sparse_rank([{0: half, 1: Fraction(1, 3)}, {0: 3, 1: 3}]) == 2
    # a leading entry of either sign and a pivot that is not +-1
    assert sparse_rank([{0: -6, 2: 4}, {0: 9, 2: -6}, {0: 4, 1: 1}]) == 2
    assert sparse_rank([{1: 10**30, 2: 1}, {1: 10**30 + 1, 2: 1}, {2: 5}]) == 2
    # tall: more nonempty rows than columns, so the transpose is eliminated
    assert sparse_rank([{0: 2}, {}, {0: -4}, {5: 3}, {0: 1, 5: half}, {5: 0}]) == 2
    assert sparse_rank([{0: 1, 1: 1}, {0: 1, 1: -1}, {0: 3, 1: 1}, {1: 7}]) == 2
    assert sparse_rank([{2: 6}, {2: -9}, {2: Fraction(3, 4)}]) == 1


def test_solve_linear():
    m = [{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(-1)}]
    x = solve_linear(m, [Fraction(3), Fraction(1)], 2)
    assert x == [Fraction(2), Fraction(1)]
    # infeasible system
    m2 = [{0: Fraction(1)}, {0: Fraction(1)}]
    assert solve_linear(m2, [Fraction(1), Fraction(2)], 2) is None


def constant_matrix(m) -> list:
    return [[Poly.constant(1, v) for v in row] for row in m]


def constant_values(m) -> list:
    """The Fraction entries of a matrix of constant Poly."""
    return [[v.terms.get((0,), Fraction(0)) for v in row] for row in m]


def test_poly_matrix_inverse_round_trip():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = constant_values(poly_matrix_inverse(constant_matrix(a)))
    prod = mat_mul(a, inv)
    assert prod == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    singular = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert poly_matrix_inverse(constant_matrix(singular)) is None


def test_poly_matrix_inverse_of_a_unimodular_matrix():
    # [[1, x1], [x2, 1 + x1*x2]] has determinant 1: the inverse is polynomial
    p = lambda text: parse_poly(text, 2)
    m = [[p("1"), p("x1")], [p("x2"), p("1 + x1*x2")]]
    inv = poly_matrix_inverse(m)
    assert inv == [[p("1 + x1*x2"), p("-x1")], [p("-x2"), p("1")]]
    for a, b in ((m, inv), (inv, m)):
        prod = [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)] for i in range(2)]
        assert prod == [[p("1"), p("0")], [p("0"), p("1")]]
    # a 3 x 3 product of moves e_a -> e_a + t e_b, and a 1 x 1 unit
    m3 = [[p("1"), p("x1"), p("0")], [p("0"), p("1"), p("0")], [p("x2"), p("x1*x2 + 2"), p("1")]]
    inv3 = poly_matrix_inverse(m3)
    prod = [[sum((m3[i][k] * inv3[k][j] for k in range(3)), p("0")) for j in range(3)] for i in range(3)]
    assert prod == [[p("1") if i == j else p("0") for j in range(3)] for i in range(3)]
    assert poly_matrix_inverse([[p("-3")]]) == [[p("-1/3")]]


def test_poly_matrix_inverse_needs_a_constant_determinant():
    p = lambda text: parse_poly(text, 1)
    assert poly_matrix_inverse([[p("x1"), p("1")], [p("1"), p("x1")]]) is None  # det x1^2 - 1
    assert poly_matrix_inverse([[p("1 + x1")]]) is None
    assert poly_matrix_inverse([[p("x1"), p("x1")], [p("1"), p("1")]]) is None  # det 0
    with pytest.raises(ValueError):
        poly_matrix_inverse([[p("1"), p("0")]])


def test_mat_vec():
    a = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(3)]]
    assert mat_vec(a, [Fraction(1), Fraction(1)]) == [Fraction(3), Fraction(3)]


def test_poly_matrix_det():
    # the determinant over the minors decides the inverse: x^2 - 1 is not
    # a constant, x^2 - (x^2 - 1) = 1 is
    x = Poly.variable(1, 0)
    one = Poly.constant(1, 1)
    assert poly_matrix_inverse([[x, one], [one, x]]) is None
    assert poly_matrix_inverse([[x, one], [x * x - one, x]]) == [[x, -one], [one - x * x, x]]


# --- the Bareiss core against the Fraction oracles -----------------------

small_ints = st.integers(-4, 4)


def square(n_max: int, entries):
    return st.integers(1, n_max).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


@settings(max_examples=150, deadline=None)
@given(square(5, st.one_of(st.just(0), small_ints, integers)))
def test_integer_det_matches_fraction_oracle(m):
    assert integer_det(m) == fraction_det(m)


def test_bareiss_pivots_are_leading_minors():
    m = [[2, 1, 3], [4, 5, 6], [1, 0, 7]]
    work = [list(row) for row in m]
    cols, exchanges, last = bareiss(work, 3)
    assert (cols, exchanges) == ([0, 1, 2], [])
    minors = [fraction_det([row[: k + 1] for row in m[: k + 1]]) for k in range(3)]
    assert [work[k][k] for k in range(3)] == minors and last == minors[-1]
    # a zero leading minor forces an exchange; the determinant keeps its sign
    m = [[0, 1, 2], [1, 0, 3], [4, 5, 6]]
    work = [list(row) for row in m]
    cols, exchanges, last = bareiss(work, 3)
    assert exchanges == [0] and -last == fraction_det(m) == integer_det(m)


def augmented_systems():
    """(m, b): up to 6 x 4 systems of ints and Fractions, often rank
    deficient, with right-hand sides both in and out of the column space."""
    entry = st.one_of(st.just(0), st.just(0), small_ints, fractions)
    return st.integers(1, 6).flatmap(
        lambda rows: st.integers(1, 4).flatmap(
            lambda cols: st.tuples(
                st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows),
                st.lists(entry, min_size=rows, max_size=rows),
                st.lists(entry, min_size=cols, max_size=cols),
                st.booleans(),
            )
        )
    )


@settings(max_examples=200, deadline=None)
@given(augmented_systems())
def test_solve_linear_is_the_rref_solution(case):
    m, b, x0, consistent = case
    if consistent:  # b := m.x0, so the system has a solution
        b = mat_vec(m, x0)
    # every entry of each row, zeros too, as a row {column: value}
    x = solve_linear([dict(enumerate(row)) for row in m], b, len(m[0]))
    assert x == rref_solve(m, b)
    if x is None:
        assert not consistent
    else:
        assert mat_vec(m, x) == [Fraction(v) for v in b]
        assert all(type(v) is Fraction for v in x)


@settings(max_examples=100, deadline=None)
@given(square(4, st.one_of(st.just(0), small_ints, fractions)))
def test_poly_matrix_inverse_matches_rref_oracle(m):
    n = len(m)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    pivots = row_echelon(aug)
    inv = poly_matrix_inverse(constant_matrix(m))
    if pivots != list(range(n)):
        assert inv is None and fraction_det(m) == 0
    else:
        assert constant_values(inv) == [row[n:] for row in aug]


def test_solve_linear_fixed_cases():
    # free columns get 0; zero rows with a nonzero right-hand side are infeasible
    assert solve_linear([{0: 1, 1: 2}, {0: 2, 1: 4, 2: 1}], [3, 7], 3) == [Fraction(3), 0, Fraction(1)]
    assert solve_linear([{}, {0: 1, 1: 1}], [1, 2], 2) is None
    assert solve_linear([{}], [0], 2) == [0, 0]
    assert solve_linear([], [], 0) == []
    with pytest.raises(ValueError):
        solve_linear([{0: 1}], [1, 2], 1)


# --- the one sparse elimination against the Fraction oracle ----------------


@st.composite
def integer_rows(draw):
    """(dense int matrix, its sparse rows of nonzero ints): tall, wide and
    empty shapes, empty rows, small entries and large ones."""
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), integers)
    cols = draw(st.integers(1, 7))
    m = [
        draw(st.lists(entry, min_size=cols, max_size=cols))
        for _ in range(draw(st.integers(0, 3 * cols)))
    ]
    return m, [{c: v for c, v in enumerate(row) if v} for row in m]


@settings(max_examples=300, deadline=None)
@given(integer_rows())
def test_echelon_matches_fraction_oracle(case):
    m, rows = case
    pivots = echelon(rows)
    # the leading columns of a row echelon form are those of the reduced
    # one, so their number is the rank
    assert sorted(pivots) == row_echelon(_as_matrix(m))
    width = len(m[0]) if m else 0
    for lead, row in pivots.items():
        assert min(row) == lead and row[lead] > 0
        assert all(type(v) is int and v for v in row.values())
        assert gcd(*row.values()) == 1
    # the pivot rows span the row space of m
    dense_pivots = [[row.get(c, 0) for c in range(width)] for row in pivots.values()]
    assert len(row_echelon(_as_matrix(dense_pivots + m))) == len(pivots)


@settings(max_examples=200, deadline=None)
@given(augmented_systems())
def test_solve_linear_on_sparse_rows_is_the_rref_solution(case):
    m, b, x0, consistent = case
    if consistent:
        b = mat_vec(m, x0)
    rows = [{c: v for c, v in enumerate(row) if v} for row in m]
    assert solve_linear(rows, b, len(m[0])) == rref_solve(m, b)
    assert rows == [{c: v for c, v in enumerate(row) if v} for row in m]  # not modified
