import random
from fractions import Fraction

import pytest

from algebroid.catalog import (
    catalog_get,
    poisson_cotangent,
    tangent_lie,
    witt_line,
)
from algebroid.exactmath import Poly, parse_poly
from algebroid.fileformat import parse_document, serialize_structure
from algebroid.funmodel import FUNCTION, SECTION, MultiDiffOp, Section, find_witness
from algebroid import structures as st


def rand_poly(rng, base_dim, degree=2):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = tuple(rng.randint(0, degree) for _ in range(base_dim))
        terms[e] = Fraction(rng.randint(-4, 4))
    return Poly(base_dim, terms)


def rand_section(rng, rank, base_dim):
    return Section([rand_poly(rng, base_dim) for _ in range(rank)])


STRUCTURES = ["witt-line", "tangent-lie-2", "courant-standard-1", "poisson-cotangent"]


@pytest.mark.parametrize("name", STRUCTURES)
def test_op_builders_match_direct_evaluation(name):
    """The canonical operators evaluate to the same exact values as the
    direct anomaly formulas on random polynomial inputs."""
    S = catalog_get(name).structure
    rng = random.Random(hash(name) % 1000)
    for _ in range(4):
        s, sp, spp = (rand_section(rng, S.rank, S.base_dim) for _ in range(3))
        f = rand_poly(rng, S.base_dim)
        assert st.jacobiator(S, s, sp, spp) == st.jacobiator_op(S).apply(s, sp, spp)
        assert st.kv_anomaly(S, s, sp, spp) == st.kv_anomaly_op(S).apply(s, sp, spp)
        assert st.leibniz_anomaly(S, s, f, sp) == st.leibniz_anomaly_op(S).apply(s, f, sp)
        if S.pairing is not None:
            assert st.courant_T(S, s, sp, spp) == st.courant_T_op(S).apply(s, sp, spp)
            assert st.pairing_coboundary(S, s, sp, spp) == st.pairing_coboundary_op(
                S
            ).apply(s, sp, spp)


def test_jacobiator_requires_skew():
    S = witt_line()
    from algebroid.funmodel import AlgebroidStructure, BiDiffOp

    S2 = AlgebroidStructure(
        S.rank, S.base_dim,
        BiDiffOp(1, 1, [(0, 0, 0, (0,), (1,), 1)]),
        S.anchor_op(), S.pairing_op(), S.d_op(), skew=False,
    )
    with pytest.raises(ValueError):
        st.jacobiator(S2, *(Section.zero(1, 1),) * 3)
    with pytest.raises(ValueError):
        st.courant_T(S2, *(Section.zero(1, 1),) * 3)


def test_courant_T_requires_pairing():
    S = tangent_lie(1)
    with pytest.raises(ValueError):
        st.courant_T(S, *(Section.zero(1, 1),) * 3)
    with pytest.raises(ValueError):
        st.pairing_coboundary(S, *(Section.zero(1, 1),) * 3)


def test_rearranged_semantics():
    S = witt_line()
    rng = random.Random(2)
    op = S.pairing_op().compose(0, S.mult_op())  # <[s0,s1], s2>
    moved = st.rearranged(op, (2, 0, 1))
    for _ in range(5):
        a, b, c = (rand_section(rng, 1, 1) for _ in range(3))
        assert moved.apply(a, b, c) == op.apply(c, a, b)


def test_cyclic_sum_is_rotation_invariant():
    S = witt_line()
    op = S.pairing_op().compose(0, S.mult_op())
    total = st.cyclic_sum(op)
    assert find_witness(total - st.rearranged(total, (1, 2, 0))) is None
    with pytest.raises(ValueError):
        st.cyclic_sum(S.mult_op())


def test_leibniz_anomaly_vanishes_on_lie_structures():
    """For structures passing the Lie profile, the Leibniz anomaly is the
    zero operator (so it vanishes for every function input)."""
    for name in ("tangent-lie-1", "tangent-lie-2", "poisson-cotangent"):
        S = catalog_get(name).structure
        assert st.leibniz_anomaly_op(S).is_zero(), name


def test_jacobiator_equals_dT_on_cc_structures():
    S = witt_line()
    dT = S.d_op().compose(0, st.courant_T_op(S))
    assert find_witness(st.jacobiator_op(S) - dT) is None


def test_witt_line_pointwise_values():
    S = witt_line()
    one = Section([parse_poly("1", 1)])
    x = Section([parse_poly("x1", 1)])
    xx = Section([parse_poly("x1^2", 1)])
    f = parse_poly("x1", 1)
    assert st.jacobiator(S, one, x, xx).is_zero()
    assert st.courant_T(S, one, x, xx).is_zero()
    assert st.leibniz_anomaly(S, one, f, one) == Section([parse_poly("-1", 1)])


# --- function-complex cochains ------------------------------------------
# The coboundary evaluated term by term on concrete functions, in degrees
# 0-2: the test oracle for `d_cocycle_defect_op`. The library builds the
# coboundary only of D, and only as an operator.


class Cochain:
    """An element of C^k(F(M), V), k <= 2: a Section for k = 0, else a
    k-slot function-input, section-output operator."""

    def __init__(self, payload):
        if isinstance(payload, Section):
            self.degree = 0
        elif payload.slots in ((FUNCTION,), (FUNCTION, FUNCTION)) and payload.output == SECTION:
            self.degree = len(payload.slots)
        else:
            raise ValueError("cochain operator has the wrong signature")
        self.payload = payload

    def value(self, *args: Poly) -> Section:
        return self.payload if self.degree == 0 else self.payload.apply(*args)


def fun_coboundary(S, theta, args) -> Section:
    """The coboundary of theta (degree <= 2) evaluated on args
    (len(args) = degree + 1).

    Degree 0 maps to zero. Degree 1:
        dTheta(a1,a2) = -(a1 Theta(a2) - Theta(a1 a2) + a2 Theta(a1)).
    Degree 2 follows the same alternating action/append pattern.
    """
    if len(args) != theta.degree + 1:
        raise ValueError("argument count must be cochain degree + 1")
    if theta.degree == 0:
        return Section.zero(S.rank, S.base_dim)
    if theta.degree == 1:
        a1, a2 = args
        return -(
            theta.value(a2).scale(a1)
            - theta.value(a1 * a2)
            + theta.value(a1).scale(a2)
        )
    a1, a2, a3 = args
    j1 = (
        theta.value(a2, a3).scale(a1)
        - theta.value(a1 * a2, a3)
        - theta.value(a2, a1 * a3)
        + theta.value(a2, a1).scale(a3)
    )
    j2 = (
        theta.value(a1, a3).scale(a2)
        - theta.value(a2 * a1, a3)
        - theta.value(a1, a2 * a3)
        + theta.value(a1, a2).scale(a3)
    )
    return -j1 + j2


def witt_line_d_plus_identity():
    """witt-line with D(f) = f' + f: `[dcochain]` plus the line `0 0 1`.
    D is no cocycle: its coboundary is -D(1) = -1 on (1, 1)."""
    text = serialize_structure(witt_line(), "witt-line") + "0 0 1\n"
    return parse_document(text).structure


def test_fun_coboundary_degree0_is_zero():
    S = witt_line()
    theta = Cochain(Section([parse_poly("x1^2", 1)]))
    assert fun_coboundary(S, theta, [parse_poly("x1", 1)]).is_zero()


def test_fun_coboundary_eval_matches_op():
    rng = random.Random(13)
    for S in (witt_line(), witt_line_d_plus_identity()):
        theta = Cochain(S.d_op())
        op = st.d_cocycle_defect_op(S)
        for _ in range(6):
            a, b = rand_poly(rng, 1), rand_poly(rng, 1)
            assert fun_coboundary(S, theta, [a, b]) == op.apply(a, b)


def test_fun_coboundary_degree2():
    """Degree-2 coboundary expands by the alternating action/append
    pattern; checked against a hand expansion on the module action."""
    S = witt_line()
    r, n = 1, 1
    # Theta(f, g) = f g' . e_1 as a 2-cochain
    theta_op = MultiDiffOp(
        r, n, (FUNCTION, FUNCTION), SECTION,
        {(0, ((None, (0,)), (None, (1,)))): Poly.constant(n, 1)},
    )
    theta = Cochain(theta_op)
    rng = random.Random(17)
    for _ in range(4):
        a1, a2, a3 = (rand_poly(rng, 1) for _ in range(3))
        got = fun_coboundary(S, theta, [a1, a2, a3])
        t = lambda u, v: theta.value(u, v)
        j1 = (
            t(a2, a3).scale(a1)
            - t(a1 * a2, a3)
            - t(a2, a1 * a3)
            + t(a2, a1).scale(a3)
        )
        j2 = (
            t(a1, a3).scale(a2)
            - t(a2 * a1, a3)
            - t(a1, a2 * a3)
            + t(a1, a2).scale(a3)
        )
        assert got == -j1 + j2


def test_d_cocycle_defect_is_fun_coboundary_of_D():
    for name in ("witt-line", "courant-standard-2"):
        S = catalog_get(name).structure
        assert st.d_cocycle_defect_op(S).is_zero(), name
    assert not st.d_cocycle_defect_op(witt_line_d_plus_identity()).is_zero()


def test_d_cocycle_defect_is_a_cocycle():
    """The oracle's degree-2 coboundary kills the library's coboundary of
    a D that is no cocycle."""
    S = witt_line_d_plus_identity()
    defect = st.d_cocycle_defect_op(S)
    rng = random.Random(19)
    for _ in range(4):
        args = [rand_poly(rng, 1) for _ in range(3)]
        assert fun_coboundary(S, Cochain(defect), args).is_zero()


def test_d_forcing_nonzero_for_nonzero_D():
    S = witt_line()
    assert not st.d_forcing_op(S).is_zero()
    # standard Courant: forcing also nonzero (D nonzero, pairing nondegenerate)
    S2 = catalog_get("courant-standard-1").structure
    assert not st.d_forcing_op(S2).is_zero()


def test_invariance_defect_zero_on_witt_and_courant():
    for name in ("witt-line", "courant-standard-1", "courant-standard-2"):
        S = catalog_get(name).structure
        assert st.invariance_defect_op(S).is_zero(), name
