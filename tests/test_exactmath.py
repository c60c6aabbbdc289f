from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroid.exactmath import (
    Poly,
    PolyParseError,
    grlex_key,
    kernel_basis,
    mat_inverse,
    mat_mul,
    mat_vec,
    monomials_upto,
    parse_poly,
    poly_matrix_det,
    rank,
    solve_linear,
    sparse_rank,
)

fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=6
)


def poly_strategy(base_dim: int):
    expo = st.tuples(*[st.integers(0, 3)] * base_dim)
    return st.dictionaries(expo, fractions, max_size=5).map(
        lambda terms: Poly(base_dim, terms)
    )


# --- polynomial ring ----------------------------------------------------


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


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError) as exc:
        parse_poly("x1 + * 2", 1)
    assert exc.value.position == 5
    with pytest.raises(PolyParseError):
        parse_poly("x3", 2)  # variable out of range
    with pytest.raises(PolyParseError):
        parse_poly("x1 +", 1)


def test_eval_matches_expansion():
    p = parse_poly("x1^2*x2 - 3*x2 + 1/2", 2)
    assert p.eval([Fraction(2), Fraction(3)]) == Fraction(4 * 3 - 9) + Fraction(1, 2)


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


def test_solve_linear():
    m = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    x = solve_linear(m, [Fraction(3), Fraction(1)])
    assert x == [Fraction(2), Fraction(1)]
    # infeasible system
    m2 = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]]
    assert solve_linear(m2, [Fraction(1), Fraction(2)]) is None


def test_mat_inverse_round_trip():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = mat_inverse(a)
    prod = mat_mul(a, inv)
    assert prod == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert mat_inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) is None


def test_mat_vec():
    a = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(3)]]
    assert mat_vec(a, [Fraction(1), Fraction(1)]) == [Fraction(3), Fraction(3)]


def test_poly_matrix_det():
    x = Poly.variable(1, 0)
    one = Poly.constant(1, 1)
    det = poly_matrix_det([[x, one], [one, x]])
    assert det == x * x - one
