import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from algebroid.catalog import (
    KIND_FUNCTION_MODEL,
    catalog_get,
    catalog_names,
    courant_standard,
    tangent_lie,
    witt_line,
)
from algebroid.checkers import (
    PROFILE_TABLE,
    check_all_profiles,
    missing_requirement,
)
from algebroid.exactmath import Poly, parse_poly
from algebroid.fileformat import parse_document, serialize_structure
from algebroid.funmodel import (
    FUNCTION,
    SECTION,
    AlgebroidStructure,
    AnchorMap,
    BiDiffOp,
    DCochain,
    DiffOp,
    MultiDiffOp,
    Pairing,
    Section,
    apply_anchor,
    conjugate,
    find_witness,
    function_identity,
    function_inputs,
    function_product,
    module_action,
    pairing_value,
    section_identity,
    section_inputs,
)
from algebroid import structures as st


def rand_poly(rng, base_dim, degree=2):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = tuple(rng.randint(0, degree) for _ in range(base_dim))
        terms[e] = Fraction(rng.randint(-4, 4))
    return Poly(base_dim, terms)


def rand_section(rng, rank, base_dim):
    return Section([rand_poly(rng, base_dim) for _ in range(rank)])


# --- sections and scalar operators --------------------------------------


def test_section_module_action():
    s = Section([parse_poly("x1", 1)])
    f = parse_poly("x1^2", 1)
    assert (f * s).components[0] == parse_poly("x1^3", 1)
    assert s.scale(Fraction(1, 2)).components[0] == parse_poly("1/2*x1", 1)


def test_diffop_apply():
    op = DiffOp(1, {(1,): Poly.variable(1, 0), (0,): 2})
    f = parse_poly("x1^2", 1)
    assert op.apply(f) == parse_poly("2*x1^2 + 2*x1^2", 1)


# --- canonical operator algebra -----------------------------------------


def test_primitives_evaluate():
    r, n = 2, 2
    s = Section([parse_poly("x1", n), parse_poly("x2^2", n)])
    f = parse_poly("x1*x2", n)
    g = parse_poly("x2", n)
    assert section_identity(r, n).apply(s) == s
    assert function_identity(r, n).apply(f) == f
    assert module_action(r, n).apply(f, s) == s.scale(f)
    assert function_product(r, n).apply(f, g) == f * g


def test_compose_matches_nested_evaluation():
    rng = random.Random(3)
    S = witt_line()
    m = S.mult_op()
    mm = m.compose(0, m)  # [[s, s'], s'']
    for _ in range(10):
        a, b, c = (rand_section(rng, 1, 1) for _ in range(3))
        assert mm.apply(a, b, c) == m.apply(m.apply(a, b), c)


def test_compose_inner_slot_kinds():
    S = witt_line()
    with pytest.raises(ValueError):
        S.anchor_op().compose(1, S.mult_op())  # function slot, section output


def test_permute_reorders_inputs():
    rng = random.Random(5)
    S = tangent_lie(2)
    m = S.mult_op()
    swapped = m.permute((1, 0))
    for _ in range(5):
        a, b = rand_section(rng, 2, 2), rand_section(rng, 2, 2)
        assert swapped.apply(a, b) == m.apply(b, a)


def test_product_and_bind():
    rng = random.Random(7)
    S = witt_line()
    op = S.pairing_op().product(S.d_op())  # (s, s', f) -> <s,s'> D(f)
    for _ in range(5):
        a, b = rand_section(rng, 1, 1), rand_section(rng, 1, 1)
        f = rand_poly(rng, 1)
        direct = S.d_op().apply(f).scale(pairing_value(S, a, b))
        assert op.apply(a, b, f) == direct
        assert op.bind(0, a).bind(0, b).bind(0, f).apply() == direct


def test_derive_leibniz():
    S = witt_line()
    p = S.pairing_op()
    dp = p.derive(0)
    rng = random.Random(9)
    for _ in range(5):
        a, b = rand_section(rng, 1, 1), rand_section(rng, 1, 1)
        assert dp.apply(a, b) == p.apply(a, b).diff(0)


# --- the identity decision ----------------------------------------------


# operator equality lhs == rhs is the decision find_witness(lhs - rhs)


def test_operator_equal_none_for_equal():
    S = tangent_lie(2)
    m = S.mult_op()
    assert find_witness(m - m.permute((1, 0)).scale(-1)) is None


def test_operator_equal_signature_mismatch():
    S = witt_line()
    with pytest.raises(ValueError, match="operator signatures differ"):
        find_witness(S.mult_op() - S.pairing_op())


def test_operator_equal_symmetric_verdict():
    S = witt_line()
    zero = MultiDiffOp(1, 1, (SECTION, FUNCTION), FUNCTION, {})
    a = st.anchor_morphism_defect_op(S)
    b = a._like({})
    w1 = find_witness(a - b)
    w2 = find_witness(b - a)
    assert (w1 is None) == (w2 is None)
    assert w1.inputs == w2.inputs  # same first failing input either way
    assert find_witness(zero - zero) is None


def test_dual_route_cross_check():
    """Canonical-form equality agrees with exhaustive monomial evaluation
    on a small structure: a zero difference evaluates to zero on every
    test input, and the reported witness is the first nonzero one in
    enumeration order."""
    S = witt_line()
    L = st.leibniz_anomaly_op(S)
    R = st.leibniz_pairing_rhs_op(S)
    diff = L - R
    assert diff.is_zero()
    bound = max(L.order(), R.order()) + 1
    for s in section_inputs(1, 1, bound):
        for f in function_inputs(1, bound):
            for sp in section_inputs(1, 1, bound):
                assert (L.apply(s, f, sp) - R.apply(s, f, sp)).is_zero()

    defect = st.anchor_morphism_defect_op(S)
    w = find_witness(defect - defect._like({}))
    assert w is not None
    seen_witness = False
    for s in section_inputs(1, 1, defect.order() + 1):
        for sp in section_inputs(1, 1, defect.order() + 1):
            for f in function_inputs(1, defect.order() + 1):
                residual = defect.apply(s, sp, f)
                if not residual.is_zero():
                    assert (s, sp, f) == w.inputs
                    assert residual == w.residual
                    seen_witness = True
                    break
            if seen_witness:
                break
        if seen_witness:
            break
    assert seen_witness


def test_witness_deterministic():
    S = witt_line()
    defect = st.anchor_morphism_defect_op(S)
    w1 = find_witness(defect - defect._like({}))
    w2 = find_witness(defect - defect._like({}))
    assert w1.inputs == w2.inputs and w1.residual == w2.residual


# --- the witness search against the product-order reference --------------


def product_order_witness(diff, max_degree):
    """Reference search: apply diff to every input tuple, in the order of
    itertools.product over the per-slot test inputs, and return the first
    tuple with a nonzero residual."""
    pools = [
        function_inputs(diff.base_dim, max_degree)
        if kind == FUNCTION
        else section_inputs(diff.rank, diff.base_dim, max_degree)
        for kind in diff.slots
    ]
    for combo in itertools.product(*pools):
        residual = diff.apply(*combo)
        if not residual.is_zero():
            return combo, residual
    return None


# Monomial frame changes e_i -> scale_i e_{i + shift}, applied to every
# function-model catalog entry of rank <= 3.
FRAME_CHANGES = ((1, (2, -1, Fraction(3, 2))), (2, (Fraction(-1, 2), 3, 1)))


def monomial_frame_change(rank, shift, scales):
    return [
        [scales[i] if j == (i + shift) % rank else 0 for j in range(rank)]
        for i in range(rank)
    ]


def _search_cases():
    cases = []
    for name in catalog_names():
        entry = catalog_get(name)
        if entry.kind != KIND_FUNCTION_MODEL:
            continue
        cases.append((name, None))
        if entry.structure.rank <= 3:
            cases.extend((name, change) for change in FRAME_CHANGES)
    return cases


SEARCH_CASES = _search_cases()


@pytest.mark.parametrize(
    "name,change",
    SEARCH_CASES,
    ids=[f"{n}-shift{c[0]}" if c else n for n, c in SEARCH_CASES],
)
def test_find_witness_matches_product_order(name, change):
    S = catalog_get(name).structure
    if change is not None:
        S = conjugate(S, monomial_frame_change(S.rank, *change))
    searched = 0
    for profile, (_, axioms) in PROFILE_TABLE.items():
        if missing_requirement(S, profile) is not None:
            continue
        for label, build in axioms:
            diff = build(S)
            w = find_witness(diff)
            if w is None:
                assert diff.is_zero(), (profile, label)
                continue
            bound = diff.order() + 1
            inputs, residual = product_order_witness(diff, bound)
            assert w.inputs == inputs, (profile, label)
            assert str(w.residual) == str(residual), (profile, label)
            # a larger bound only appends inputs after the first witness
            assert product_order_witness(diff, bound + 2)[0] == inputs, (profile, label)
            searched += 1
    assert searched > 0


def test_find_witness_rejects_zero_operator():
    zero = st.anchor_morphism_defect_op(witt_line())._like({})
    assert find_witness(zero) is None


# --- structure data -----------------------------------------------------


def test_bidiffop_merges_terms():
    op = BiDiffOp(1, 1, [(0, 0, 0, (0,), (0,), 1), (0, 0, 0, (0,), (0,), -1)])
    assert op.terms == {} and op.same_signature(witt_line().mult_op())


@pytest.mark.parametrize(
    "term",
    [(5, 0, 0, (0,), (0,), 1), (0, 0, 0, (0, 0), (0,), 1), (0, 0, 0, (0,), (-1,), 1)],
    ids=["index-outside-rank", "alpha-too-long", "negative-beta"],
)
def test_bidiffop_rejects_bad_terms(term):
    # each would build a structure whose checks end in a meaningless
    # witness or an internal error, and whose export does not read back
    with pytest.raises(ValueError) as err:
        BiDiffOp(1, 1, [(0, 0, 0, (1,), (0,), 1), term])
    assert str(err.value) == (
        f"mult term {term[:5]} needs k, i, j in range(1) and multi-indices of 1 entries >= 0"
    )


def test_pairing_requires_symmetry():
    n = 1
    with pytest.raises(ValueError):
        Pairing(2, n, [[Poly.zero(n), Poly.constant(n, 1)],
                       [Poly.zero(n), Poly.zero(n)]])


def test_dcochain_order_limit():
    with pytest.raises(ValueError):
        DCochain(1, 1, [DiffOp(1, {(2,): 1})])


def test_structure_shape_validation():
    n = 1
    mult = BiDiffOp(2, n, [])
    anchor = AnchorMap(n, 1, [[Poly.zero(n)]])
    with pytest.raises(ValueError):
        AlgebroidStructure(2, n, mult, anchor)


def test_anchor_vector_field():
    S = witt_line()
    got = apply_anchor(S, Section([parse_poly("x1", 1)]), parse_poly("x1^2", 1))
    assert got == parse_poly("4*x1^2", 1)


# --- one representation per part -------------------------------------------

# sha256 of serialize_structure(S, name) for every function-model catalog
# entry, recorded when each part still kept its own terms beside its operator
CATALOG_DIGESTS = {
    "courant-standard-1": "6a0cdbed2e3903bd90350d5d1a6466783d5b8619e33a66e49e81073a3700d010",
    "courant-standard-2": "cd42e8bb2b90e6ffac006069c6d330c798e74c2583a7f2bbad9e0b0032ad888e",
    "courant-standard-3": "c74d276cfe1f6a78f547fadd0337bda961ec3674cc30dab73771313fe7de904b",
    "poisson-cotangent": "0095c796a9158ca994344a9562a60f5142b099fcac25d05f1302fc18ea88c417",
    "poisson-cotangent-nonpoisson": "7f830e96a3fc282694d0fe44c963aa155a29ec1f49b4e1940aecacc89859f290",
    "tangent-lie-1": "dc2c849d1aaceb1afc4cc97f391b6d44d8b047bdb5645de5f3b35ce099ab4b7d",
    "tangent-lie-2": "3cd1a71a9c24d4fe6d7befcb891b3043541d57500e46e34f44b2de29e96caf77",
    "tangent-lie-3": "5c3d3ea97e04afc7047ceab89a6d3d5073faf4cfa5a8770234048b8cf2afe084",
    "witt-line": "e20750a467dc123fd29c0871b9ffd5d3bb3d62b7f956b25dcf7ce03c1a458db7",
}


def _digest(S, name=""):
    return hashlib.sha256(serialize_structure(S, name).encode()).hexdigest()


def _gauged_structures():
    """courant_standard(2) under [[I, 0], [B, I]] with B_01 = x1*x2, and
    tangent_lie(2) under a polynomial frame of determinant 1; both give
    coefficients that are not constant."""
    one, zero, x1x2 = Poly.constant(2, 1), Poly.zero(2), parse_poly("x1*x2", 2)
    b_field = [[one, zero, zero, zero], [zero, one, zero, zero],
               [zero, x1x2, one, zero], [zero, zero, zero, one]]
    gauge = [[parse_poly("1 + x1*x2", 2), parse_poly("x2", 2)], [parse_poly("x1", 2), one]]
    return {
        "b-field": conjugate(courant_standard(2), b_field),
        "gauge": conjugate(tangent_lie(2), gauge),
    }


GAUGED_DIGESTS = {
    "b-field": "cb593345a445f10e1c1f89d12032750c5d8e2d3045fde10adf2cd6782695de7a",
    "gauge": "a06f6aba10a17e2708b4e086146fd10066daf8aaa7528b7b9d0558fbf413928c",
}


def test_catalog_structures_serialize_to_their_recorded_bytes():
    names = [n for n in catalog_names() if catalog_get(n).kind == KIND_FUNCTION_MODEL]
    assert sorted(CATALOG_DIGESTS) == names
    for name in names:
        S = catalog_get(name).structure
        assert _digest(S, name) == CATALOG_DIGESTS[name], name
        assert parse_document(serialize_structure(S, name)).structure == S, name


def test_conjugated_structures_serialize_to_their_recorded_bytes():
    for name, S in _gauged_structures().items():
        assert _digest(S) == GAUGED_DIGESTS[name], name
        assert parse_document(serialize_structure(S)).structure == S, name


def test_structures_that_differ_only_in_skew_are_unequal():
    for name in ("witt-line", "tangent-lie-2", "courant-standard-1"):
        S = catalog_get(name).structure
        ops = (
            S.mult_op(), S.anchor_op(),
            None if S.pairing is None else S.pairing_op(),
            None if S.d_cochain is None else S.d_op(),
        )
        assert AlgebroidStructure(S.rank, S.base_dim, *ops, skew=S.skew) == S
        T = AlgebroidStructure(S.rank, S.base_dim, *ops, skew=not S.skew)
        assert T != S and S != T


# --- conjugation ---------------------------------------------------------

# Frame changes e -> A e as products of moves e_a -> e_a + t e_b, which put
# t at A[b][a], then a scaling of every frame vector; the inverse is the
# product of the inverse factors in reverse order, so the tests never call
# the inverse under test.

FRAME_ENTRIES = sorted(
    name
    for name in catalog_names()
    if catalog_get(name).kind == KIND_FUNCTION_MODEL and catalog_get(name).structure.rank <= 4
)


def poly_matrix(A, n):
    return [[v if isinstance(v, Poly) else Poly.constant(n, v) for v in row] for row in A]


def poly_mat_mul(a, b):
    n = a[0][0].base_dim
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Poly.zero(n)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def push(A, s):
    """Coordinates of A s: the section whose primed coordinates are s."""
    n = s.base_dim
    return Section(
        [sum((a * c for a, c in zip(row, s.components)), Poly.zero(n)) for row in poly_matrix(A, n)]
    )


def elementary(rank, n, a, b, t):
    """The move e_a -> e_a + t e_b: the identity with t at [b][a]."""
    one, zero = Poly.constant(n, 1), Poly.zero(n)
    return [
        [one if i == j else t if (i, j) == (b, a) else zero for j in range(rank)]
        for i in range(rank)
    ]


@hs.composite
def frame_changes(draw, rank, n, dense=True, max_gauges=3):
    """(A, A^-1): up to max_gauges moves whose t has degree <= 1 or, when
    dense, also a dense constant frame (every lower, then every upper
    move, each with a constant t)."""
    nonzero = hs.fractions(-3, 3, max_denominator=3).filter(bool)
    pairs = [(a, b) for a in range(rank) for b in range(rank) if a != b]
    if pairs and dense and draw(hs.booleans()):
        moves = [(a, b, Poly.constant(n, draw(nonzero)))
                 for a, b in sorted(pairs, key=lambda p: p[0] < p[1])]
    else:
        linear = hs.lists(hs.integers(-2, 2), min_size=n + 1, max_size=n + 1).map(
            lambda c: Poly(n, {tuple(int(i == v) for i in range(n)): c[v] for v in range(n)})
            + Poly.constant(n, c[n])
        )
        picked = draw(hs.lists(hs.sampled_from(pairs), max_size=max_gauges)) if pairs else []
        moves = [(a, b, draw(linear)) for a, b in picked]
    A = A_inv = [[Poly.constant(n, int(i == j)) for j in range(rank)] for i in range(rank)]
    for a, b, t in moves:
        A = poly_mat_mul(A, elementary(rank, n, a, b, t))
        A_inv = poly_mat_mul(elementary(rank, n, a, b, -t), A_inv)
    scales = [draw(nonzero) for _ in range(rank)]
    A = [[v.scale(c) for v, c in zip(row, scales)] for row in A]
    A_inv = [[v.scale(1 / c) for v in row] for row, c in zip(A_inv, scales)]
    return A, A_inv


def draw_frames(data, **kw):
    """One drawn frame change (A, A^-1) per entry of FRAME_ENTRIES."""
    for name in FRAME_ENTRIES:
        S = catalog_get(name).structure
        yield S, data.draw(frame_changes(S.rank, S.base_dim, **kw), label=name)


@settings(max_examples=10, deadline=None)
@given(hs.data())
def test_conjugate_preserves_evaluation(data):
    # the four operators through `apply` only: A.mult'(a, b) = mult(Aa, Ab),
    # anchor'(a) = anchor(Aa), pairing'(a, b) = pairing(Aa, Ab), A.D'(f) =
    # D(f); a fixed upper triangular frame first, then one drawn frame per
    # entry
    fixed = (catalog_get("courant-standard-1").structure, ([[2, 1], [0, 3]], None))
    rng = random.Random(11)
    for S, (A, _) in (fixed, *draw_frames(data)):
        S2 = conjugate(S, A)
        r, n = S.rank, S.base_dim
        for _ in range(3):
            a, b = rand_section(rng, r, n), rand_section(rng, r, n)
            f = rand_poly(rng, n)
            assert push(A, S2.mult_op().apply(a, b)) == S.mult_op().apply(push(A, a), push(A, b))
            assert apply_anchor(S2, a, f) == apply_anchor(S, push(A, a), f)
            if S.pairing is not None:
                assert pairing_value(S2, a, b) == pairing_value(S, push(A, a), push(A, b))
            if S.d_cochain is not None:
                assert push(A, S2.d_op().apply(f)) == S.d_op().apply(f)


@settings(max_examples=5, deadline=None)
@given(hs.data())
def test_frame_changes_keep_the_capability_matrix(data):
    """Every axiom is stated for sections, so a gauge keeps each
    profile's applicability and failing labels; a witness of S', pushed
    through A, is an input on which S's own defect is nonzero (A times the
    witness's residual for a section-valued defect, the residual itself
    otherwise); and A^-1 pulls S' back to S."""
    # dense frames and a third gauge are left to the evaluation test: each
    # can take the capability matrix of courant-standard-2 to seconds
    for S, (A, A_inv) in draw_frames(data, dense=False, max_gauges=2):
        S2 = conjugate(S, A)
        assert conjugate(S2, A_inv) == S
        before, after = check_all_profiles(S), check_all_profiles(S2)
        for profile, report in after.items():
            if isinstance(report, str):
                assert before[profile] == report
                continue
            assert report.failing_labels() == before[profile].failing_labels(), profile
            for label, build in PROFILE_TABLE[profile][1]:
                w = report.entry(label).witness
                if w is None:
                    continue
                inputs = [push(A, v) if isinstance(v, Section) else v for v in w.inputs]
                residual = build(S).apply(*inputs)
                assert not residual.is_zero(), (profile, label)
                pushed = push(A, w.residual) if isinstance(w.residual, Section) else w.residual
                assert pushed == residual, (profile, label)


def test_conjugate_preserves_profiles():
    from algebroid.checkers import check_profile

    S = conjugate(witt_line(), [[3]])
    assert check_profile(S, "cc").passed
    assert tuple(check_profile(S, "courant").failing_labels()) == ("Ax2", "Ax4")


def test_conjugate_rejects_singular():
    with pytest.raises(ValueError):
        conjugate(witt_line(), [[0]])


WRONG_RANK_1 = "frame change must be a 1 x 1 matrix, the structure's rank"
WRONG_RANK_2 = "frame change must be a 2 x 2 matrix, the structure's rank"
NOT_UNIMODULAR = "frame change must have a nonzero constant determinant"


@pytest.mark.parametrize(
    "S,A,message",
    [
        (witt_line(), [[1, 0], [0, 1]], WRONG_RANK_1),
        (witt_line(), [], WRONG_RANK_1),
        (courant_standard(1), [[1]], WRONG_RANK_2),
        (courant_standard(1), [[1, 0], [0]], WRONG_RANK_2),
        (witt_line(), [[Poly.constant(2, 1)]], "frame change entries must be polynomials over base_dim 1"),
        (witt_line(), [[0]], NOT_UNIMODULAR),
        (witt_line(), [[parse_poly("1 + x1", 1)]], NOT_UNIMODULAR),
        (tangent_lie(2), [[1, parse_poly("x1", 2)], [parse_poly("x2", 2), 1]], NOT_UNIMODULAR),
    ],
    ids=["too-big", "empty", "too-small", "ragged", "other-base", "singular", "poly-det", "gauge-det"],
)
def test_conjugate_rejects_bad_frames(S, A, message):
    with pytest.raises(ValueError) as err:
        conjugate(S, A)
    assert str(err.value) == message
