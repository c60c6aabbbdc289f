import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroid.catalog import catalog_get, catalog_names, clan_84, vinberg_83
from algebroid.exactmath import rank, solve_linear
from algebroid.kvfin import (
    COEFF_SELF,
    COEFF_TRIVIAL,
    FinCochain,
    FinKVAlgebra,
    SymForm,
    clan_classify,
    coboundary_rows,
    cochain_space_dim,
    cohomology_summary,
    commutator_bracket,
    exactness_witness,
    fin_coboundary,
    kv_defect_fin,
    kv_nu,
    mc_check,
)
from algebroid.fileformat import parse_document, serialize_kvalgebra
from algebroid.kvfin import _coboundary, _residuals
from kv_helpers import kv_defect_cochain, perturb, product_cochain
from test_exactmath import _as_matrix, fraction_det, row_echelon, rref_solve


def alg(dim, triples):
    """Algebra from sparse (i, j, k, value) entries: e_i e_j += value e_k."""
    c = [[[F(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, v in triples:
        c[i][j][k] = F(v)
    return FinKVAlgebra(dim, c)


def rand_cochain(rng, dim, degree, coefficients):
    data = {}
    for idx in itertools.product(range(dim), repeat=degree):
        if coefficients == COEFF_SELF:
            data[idx] = [F(rng.randint(-3, 3)) for _ in range(dim)]
        else:
            data[idx] = F(rng.randint(-3, 3))
    return FinCochain(dim, degree, coefficients, data)


def frame_change(A, perm, diag):
    """A in the basis f_i = diag[i] e_perm[i]."""
    d = A.dim
    return FinKVAlgebra(d, [
        [
            [F(diag[i]) * diag[j] * A.c[perm[i]][perm[j]][perm[l]] / diag[l] for l in range(d)]
            for j in range(d)
        ]
        for i in range(d)
    ])


def direct_sum(A, B):
    d = A.dim + B.dim
    c = [[[F(0)] * d for _ in range(d)] for _ in range(d)]
    for off, X in ((0, A), (A.dim, B)):
        for i, j, k in itertools.product(range(X.dim), repeat=3):
            c[off + i][off + j][off + k] = X.c[i][j][k]
    return FinKVAlgebra(d, c)


def truncated(d):
    """Q[x]/(x^d) on the basis 1, x, .., x^{d-1}."""
    return alg(d, [(i, j, i + j, 1) for i, j in itertools.product(range(d), repeat=2) if i + j < d])


A83, FORM83 = vinberg_83()
A84, FORM84 = clan_84()
A84P, FORM84P = clan_84(as_printed=True)
COMMUTATIVE = alg(2, [(0, 0, 1, 1)])  # e1 e1 = e2, associative and commutative


# --- KV defect and brackets -------------------------------------------------


def test_kv_defect_examples():
    assert kv_defect_fin(A83) is None
    assert kv_defect_fin(A84) is None
    assert kv_defect_fin(A84P) is None
    assert kv_defect_fin(FinKVAlgebra.zero(3)) is None


def test_kv_defect_witness():
    A = alg(2, [(0, 1, 0, 1)])  # e1 e2 = e1
    w = kv_defect_fin(A)
    assert w is not None
    i, j, k, defect = w
    assert (i, j, k) == (0, 1, 1)
    assert defect == [F(-1), F(0)]
    # a late witness: only the last constant of a KV algebra is moved
    c = [[list(row) for row in plane] for plane in truncated(5).c]
    c[4][4][4] += 1
    A = FinKVAlgebra(5, c)
    assert kv_defect_fin(A) == reference_kv_defect(A) == (1, 4, 3, [0, 0, 0, 0, F(-1)])


def test_commutator_bracket_83_matches_displayed_bracket():
    report = commutator_bracket(A83)
    assert report.jacobi_ok
    # bracket (z y' - z' y, z x' - z' x, 0): [e3,e1] = e2, [e3,e2] = e1
    expected = alg(3, [(2, 0, 1, 1), (0, 2, 1, -1), (2, 1, 0, 1), (1, 2, 0, -1)])
    assert report.constants == expected.c


def test_commutator_bracket_84_second_component_sign():
    report = commutator_bracket(A84)
    assert report.jacobi_ok
    # corrected product gives [e3,e1] = -e2: the second bracket component
    # is -(z x' - z' x)
    assert report.constants[2][0][1] == F(-1)
    assert report.constants[0][2][1] == F(1)


def test_commutative_product_zero_bracket():
    report = commutator_bracket(COMMUTATIVE)
    assert all(
        not v for plane in report.constants for row in plane for v in row
    )
    assert report.jacobi_ok


def test_jacobi_holds_for_all_kv_algebras():
    for A in (A83, A84, A84P, COMMUTATIVE, FinKVAlgebra.zero(3)):
        assert kv_defect_fin(A) is None
        assert commutator_bracket(A).jacobi_ok


def test_jacobi_witness_on_non_lie_bracket():
    # a product whose commutator violates Jacobi
    A = alg(2, [(0, 1, 0, 1), (0, 0, 1, 1)])
    report = commutator_bracket(A)
    if not report.jacobi_ok:
        assert report.witness is not None


# --- test-only references: the dense-product readers ------------------------
# The KV defect, the invariance loop of clan_classify and the Jacobi loop of
# commutator_bracket written on basis vectors through FinKVAlgebra.product
# and SymForm.value, in Fractions: the oracles for the readers of the
# integer structure-constant table.


def basis_vectors(d):
    return [[F(int(t == s)) for t in range(d)] for s in range(d)]


def reference_kv_anomaly(A, u, v, w):
    def assoc(u, v, w):
        return [a - b for a, b in zip(A.product(u, A.product(v, w)), A.product(A.product(u, v), w))]

    return [a - b for a, b in zip(assoc(u, v, w), assoc(v, u, w))]


def reference_kv_defect(A):
    basis = basis_vectors(A.dim)
    for i, j, k in itertools.product(range(A.dim), repeat=3):
        defect = reference_kv_anomaly(A, basis[i], basis[j], basis[k])
        if any(defect):
            return (i, j, k, defect)
    return None


def reference_invariance(A, beta):
    basis = basis_vectors(A.dim)
    for i, j, k in itertools.product(range(A.dim), repeat=3):
        residual = beta.value(A.product(basis[i], basis[j]), basis[k]) + beta.value(
            basis[j], A.product(basis[i], basis[k])
        )
        if residual:
            return (i, j, k, residual)
    return None


def reference_jacobi(A):
    d = A.dim
    lie = FinKVAlgebra(d, [
        [[A.c[i][j][k] - A.c[j][i][k] for k in range(d)] for j in range(d)] for i in range(d)
    ])
    basis = basis_vectors(d)
    for i, j, k in itertools.product(range(d), repeat=3):
        jac = [
            x + y + z
            for x, y, z in zip(
                lie.product(lie.product(basis[i], basis[j]), basis[k]),
                lie.product(lie.product(basis[j], basis[k]), basis[i]),
                lie.product(lie.product(basis[k], basis[i]), basis[j]),
            )
        ]
        if any(jac):
            return (i, j, k, jac)
    return None


def frame_change_form(beta, perm, diag):
    """beta in the basis f_i = diag[i] e_perm[i]."""
    d = beta.dim
    return SymForm([
        [F(diag[i]) * diag[j] * beta.matrix[perm[i]][perm[j]] for j in range(d)] for i in range(d)
    ])


def reader_cases():
    """(algebra, form) pairs: the finite KV catalog entries, two monomial
    frame changes of each, and products perturbed at a few seeded entries
    so that KV, invariance and Jacobi fail somewhere."""
    rng = random.Random(17)
    cases = []
    for name in catalog_names():
        entry = catalog_get(name)
        if entry.algebra is None:
            continue
        A, beta = entry.algebra, entry.form
        cases.append((A, beta))
        for _ in range(2):
            perm = rng.sample(range(A.dim), A.dim)
            diag = [rng.choice((1, -1)) * rng.choice((1, 2, 3, F(1, 2), F(2, 3))) for _ in range(A.dim)]
            cases.append((frame_change(A, perm, diag), frame_change_form(beta, perm, diag)))
    for A, beta in list(cases):
        for _ in range(3):
            c = [[list(row) for row in plane] for plane in A.c]
            for _ in range(rng.randint(1, 3)):
                i, j, k = (rng.randrange(A.dim) for _ in range(3))
                c[i][j][k] += F(rng.choice((1, -1, 2, -3)), rng.choice((1, 2, 5)))
            cases.append((FinKVAlgebra(A.dim, c), beta))
    return cases


def test_table_matches_structure_constants():
    for A, _ in reader_cases():
        assert A.den >= 1
        for i, j in itertools.product(range(A.dim), repeat=2):
            row = [F(0)] * A.dim
            for m, num in A.nz[i][j]:
                assert type(num) is int and num
                row[m] = F(num, A.den)
            assert tuple(row) == A.c[i][j]


def test_readers_match_dense_product_oracle():
    found = {"kv": 0, "invariance": 0, "jacobi": 0, "cocycle": 0}
    for A, beta in reader_cases():
        kv_w = kv_defect_fin(A)
        assert kv_w == reference_kv_defect(A)
        report = clan_classify(A, beta)
        assert report.kv_witness == kv_w
        inv_w = reference_invariance(A, beta)
        assert report.invariance_witness == inv_w
        jac_w = commutator_bracket(A).witness
        assert jac_w == reference_jacobi(A)
        cocycle = fin_coboundary(A, COEFF_TRIVIAL, beta.as_cochain()).is_zero()
        assert report.cocycle == cocycle
        if cocycle:
            exactness_witness(A, beta)
        else:
            with pytest.raises(ValueError, match="not a 2-cocycle"):
                exactness_witness(A, beta)
        for w in (kv_w, inv_w, jac_w):
            if w is not None:
                values = w[3] if isinstance(w[3], list) else [w[3]]
                assert all(type(v) is F for v in values)
        found["kv"] += kv_w is not None
        found["invariance"] += inv_w is not None
        found["jacobi"] += jac_w is not None
        found["cocycle"] += not cocycle
    # the perturbed products give witnesses for every reader
    assert all(n >= 5 for n in found.values()), found


def test_kv_defect_cochain_matches_oracle():
    for A, _ in reader_cases()[::4]:
        basis = basis_vectors(A.dim)
        expected = FinCochain(A.dim, 3, COEFF_SELF)
        for i, j, k in itertools.product(range(A.dim), repeat=3):
            expected.set((i, j, k), reference_kv_anomaly(A, basis[i], basis[j], basis[k]))
        assert kv_defect_cochain(A) == expected


# --- coboundaries ------------------------------------------------------------


def reference_coboundary(A, coefficients, theta):
    """The coboundary written out term by term on basis vectors, through
    `FinCochain.value` and `FinKVAlgebra.product`: the test oracle for
    `coboundary_rows` and `fin_coboundary`."""
    d = A.dim
    k = theta.degree
    out = FinCochain(d, k + 1, coefficients)
    if k == 0:
        return out
    basis = [[F(int(t == s)) for t in range(d)] for s in range(d)]
    self_coeffs = coefficients == COEFF_SELF

    for idx in itertools.product(range(d), repeat=k + 1):
        args = [basis[i] for i in idx]
        acc = out.get(idx)

        def accumulate(sign, value):
            nonlocal acc
            if self_coeffs:
                acc = [a + sign * v for a, v in zip(acc, value)]
            else:
                acc = acc + sign * value

        for j in range(1, k + 1):
            sign = F(-1) ** j
            sj = args[j - 1]
            rest = args[: j - 1] + args[j:]
            head, last = rest[:-1], rest[-1]
            if self_coeffs:
                accumulate(sign, A.product(sj, theta.value(*rest)))
            for t in range(k):
                moved = rest[:t] + [A.product(sj, rest[t])] + rest[t + 1 :]
                accumulate(-sign, theta.value(*moved))
            if self_coeffs:
                accumulate(sign, A.product(theta.value(*(head + [sj])), last))
        out.set(idx, acc)
    return out


def reference_matrix(A, coefficients, degree):
    """Dense matrix of the reference coboundary, one column per basis cochain."""
    d = A.dim
    cols = []
    for idx in itertools.product(range(d), repeat=degree):
        if coefficients == COEFF_SELF:
            for o in range(d):
                value = [F(int(t == o)) for t in range(d)]
                theta = FinCochain(d, degree, coefficients, {idx: value})
                cols.append(reference_coboundary(A, coefficients, theta).coords)
        else:
            theta = FinCochain(d, degree, coefficients, {idx: F(1)})
            cols.append(reference_coboundary(A, coefficients, theta).coords)
    rows = cochain_space_dim(d, degree + 1, coefficients)
    return [[col[r] for col in cols] for r in range(rows)]


def dense(rows, width):
    return [[row.get(c, 0) for c in range(width)] for row in rows]


def sparse_product(left, right):
    """Sparse rows of the matrix product left . right."""
    out = []
    for row in left:
        acc = {}
        for c, v in row.items():
            for c2, w in right[c].items():
                acc[c2] = acc.get(c2, 0) + v * w
        out.append({c: v for c, v in acc.items() if v})
    return out


def oracle_algebras():
    """The catalog KV algebras and zero(3), each with two monomial frame
    changes."""
    rng = random.Random(5)
    out = []
    for A in (A83, A84, A84P, FinKVAlgebra.zero(3)):
        out.append(A)
        for _ in range(2):
            perm = rng.sample(range(A.dim), A.dim)
            diag = [rng.choice((1, -1)) * rng.choice((1, 2, 3, F(1, 2))) for _ in range(A.dim)]
            out.append(frame_change(A, perm, diag))
    return out


def test_coboundary_rows_match_reference():
    rng = random.Random(13)
    for A in oracle_algebras():
        for coefficients in (COEFF_SELF, COEFF_TRIVIAL):
            for k in (0, 1, 2):
                rows = coboundary_rows(A, coefficients, k)
                width = cochain_space_dim(A.dim, k, coefficients)
                # integer rows: A.den times the coboundary, entry by entry
                assert all(type(v) is int for row in rows for v in row.values())
                oracle = reference_matrix(A, coefficients, k)
                assert dense(rows, width) == [[A.den * v for v in row] for row in oracle]
                th = rand_cochain(rng, A.dim, k, coefficients)
                assert fin_coboundary(A, coefficients, th) == reference_coboundary(
                    A, coefficients, th
                )


def test_coboundary_rows_square_to_zero():
    """delta_2 . delta_1 = 0 as a product of sparse rows, for KV algebras
    up to dimension 6."""
    algebras = [truncated(d) for d in range(1, 7)] + [
        direct_sum(A83, FinKVAlgebra.zero(2)),
        direct_sum(A84, A83),
        direct_sum(A84, A84),
        COMMUTATIVE,
    ]
    for A in algebras:
        assert A.dim <= 6 and kv_defect_fin(A) is None
        for coefficients in (COEFF_SELF, COEFF_TRIVIAL):
            delta_1 = coboundary_rows(A, coefficients, 1)
            delta_2 = coboundary_rows(A, coefficients, 2)
            assert not any(sparse_product(delta_2, delta_1))
    assert any(coboundary_rows(truncated(6), COEFF_SELF, 1))


def test_degree0_coboundary_is_zero():
    th_self = FinCochain(3, 0, COEFF_SELF, {(): [F(1), F(2), F(3)]})
    th_triv = FinCochain(3, 0, COEFF_TRIVIAL, {(): F(5)})
    assert fin_coboundary(A83, COEFF_SELF, th_self).is_zero()
    assert fin_coboundary(A83, COEFF_TRIVIAL, th_triv).is_zero()


def test_trivial_degree1_is_theta_of_product():
    rng = random.Random(0)
    th = rand_cochain(rng, 3, 1, COEFF_TRIVIAL)
    d = fin_coboundary(A83, COEFF_TRIVIAL, th)
    for i, j in itertools.product(range(3), repeat=2):
        expected = sum(A83.c[i][j][k] * th.get((k,)) for k in range(3))
        assert d.get((i, j)) == expected


def test_trivial_degree2_formula():
    rng = random.Random(1)
    th = rand_cochain(rng, 3, 2, COEFF_TRIVIAL)
    d = fin_coboundary(A83, COEFF_TRIVIAL, th)
    basis = [[F(1 if t == s else 0) for t in range(3)] for s in range(3)]
    for i, j, k in itertools.product(range(3), repeat=3):
        a, b, c = basis[i], basis[j], basis[k]
        expected = (
            th.value(A83.product(a, b), c)
            + th.value(b, A83.product(a, c))
            - th.value(A83.product(b, a), c)
            - th.value(a, A83.product(b, c))
        )
        assert d.get((i, j, k)) == expected


def test_form_83_is_cocycle_for_any_alpha_beta():
    for a, b in itertools.product((1, -1, 2, -2), repeat=2):
        _, form = vinberg_83(a, b)
        assert fin_coboundary(A83, COEFF_TRIVIAL, form.as_cochain()).is_zero()


def test_dd_zero_over_kv_algebras():
    rng = random.Random(42)
    for A in (A83, A84, A84P, COMMUTATIVE):
        for coefficients in (COEFF_SELF, COEFF_TRIVIAL):
            for _ in range(10):
                th = rand_cochain(rng, A.dim, 1, coefficients)
                dd = fin_coboundary(A, coefficients, fin_coboundary(A, coefficients, th))
                assert dd.is_zero()


def test_coboundary_degree_limit():
    th = FinCochain(2, 3, COEFF_SELF)
    with pytest.raises(ValueError):
        fin_coboundary(COMMUTATIVE, COEFF_SELF, th)
    with pytest.raises(ValueError, match="degree <= 2"):
        coboundary_rows(COMMUTATIVE, COEFF_SELF, 3)
    with pytest.raises(ValueError, match="'self' or 'trivial'"):
        coboundary_rows(COMMUTATIVE, "adjoint", 1)


def test_cochain_arithmetic():
    rng = random.Random(3)
    a = rand_cochain(rng, 2, 1, COEFF_SELF)
    b = rand_cochain(rng, 2, 1, COEFF_SELF)
    assert (a + b) - b == a
    assert a.scale(2) - a == a
    assert (a - a).is_zero()
    assert len(a.coords) == cochain_space_dim(2, 1, COEFF_SELF)


# --- cohomology ---------------------------------------------------------------


def test_h0_self_is_dim():
    for A in (A83, A84, A84P, COMMUTATIVE, FinKVAlgebra.zero(2)):
        assert cohomology_summary(A, COEFF_SELF, 0)["dim_h"] == A.dim


def test_h1_abelian_is_dim_squared():
    for d in (2, 3):
        assert cohomology_summary(FinKVAlgebra.zero(d), COEFF_SELF, 1)["dim_h"] == d * d


def test_h2_vinberg_83_regression():
    # pinned after first computation by the exact-rank oracle
    assert cohomology_summary(A83, COEFF_SELF, 2)["dim_h"] == 5


def test_h2_self_large_dimensions():
    # values of the dense per-cochain assembly this code replaced
    cases = (
        (direct_sum(A83, FinKVAlgebra.zero(2)), (38, 55, 17)),
        (direct_sum(A84, A84), (22, 54, 32)),
        (truncated(6), (30, 61, 31)),
    )
    for A, (h, kernel, image) in cases:
        s = cohomology_summary(A, COEFF_SELF, 2)
        assert (s["dim_h"], s["dim_kernel"], s["dim_image"]) == (h, kernel, image)


def test_h2_self_truncated_8():
    # dim H^2 = d(d - 1) for Q[x]/(x^d), as at d = 3, 4 and 6
    assert cohomology_summary(truncated(8), COEFF_SELF, 2)["dim_h"] == 56


def test_cohomology_summary_consistent():
    s = cohomology_summary(A83, COEFF_SELF, 1)
    assert s["dim_h"] == s["dim_kernel"] - s["dim_image"]
    assert s["dim_cochains"] == 9


def test_cohomology_unsupported_degree():
    with pytest.raises(ValueError):
        cohomology_summary(A83, COEFF_SELF, 3)


# --- exactness -----------------------------------------------------------------


def test_exactness_83_infeasible():
    for a, b in itertools.product((1, -1, 2, -2), repeat=2):
        _, form = vinberg_83(a, b)
        assert exactness_witness(A83, form) is None


def test_exactness_zero_form():
    theta = exactness_witness(A83, SymForm([[0] * 3 for _ in range(3)]))
    assert theta is not None
    # coboundary of theta reproduces the (zero) form
    for i, j in itertools.product(range(3), repeat=2):
        assert sum(A83.c[i][j][k] * theta[k] for k in range(3)) == 0


def test_exactness_round_trip_on_commutative_algebra():
    """beta := dTheta0 is symmetric here (commutative product), and the
    solver returns a functional whose coboundary reproduces beta."""
    A = COMMUTATIVE
    theta0 = [F(3), F(-2)]
    b = [
        [sum(A.c[i][j][k] * theta0[k] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    form = SymForm(b)
    theta = exactness_witness(A, form)
    assert theta is not None
    for i, j in itertools.product(range(2), repeat=2):
        assert sum(A.c[i][j][k] * theta[k] for k in range(2)) == b[i][j]


def test_exactness_rejects_non_cocycle():
    _, form = clan_84(as_printed=True)
    with pytest.raises(ValueError):
        exactness_witness(A84P, form)


def reference_exactness(A, beta):
    """Theta from the system built by hand from A.nz, one row
    sum_k num_c[i][j][k] y_k = num_beta[i][j] for each (i, j) with a
    nonzero product or form entry: the construction `exactness_witness`
    replaced with the rows of the trivial coboundary C^1 -> C^2."""
    d, B = A.dim, beta.num
    rows, rhs = [], []
    for i, plane in enumerate(A.nz):
        for j, entries in enumerate(plane):
            if entries or B[i][j]:
                rows.append(dict(entries))
                rhs.append(B[i][j])
    y = solve_linear(rows, rhs, d)
    return None if y is None else [v * F(A.den, beta.den) for v in y]


def check_exactness(A, beta):
    """exactness_witness against the hand-built system; returns "exact",
    "not exact" or "not a cocycle"."""
    if not clan_classify(A, beta).cocycle:
        with pytest.raises(ValueError, match="not a 2-cocycle"):
            exactness_witness(A, beta)
        return "not a cocycle"
    theta = exactness_witness(A, beta)
    assert theta == reference_exactness(A, beta)
    return "not exact" if theta is None else "exact"


def test_exactness_matches_hand_built_system():
    outcomes = {check_exactness(A, beta) for A, beta in reader_cases() + cocycle_cases()}
    assert outcomes == {"exact", "not exact", "not a cocycle"}


@st.composite
def exactness_cases(draw):
    """Algebras of dimension 1-4 with the form
    beta(e_i, e_j) = Theta(e_i e_j + e_j e_i), a coboundary where the
    product is commutative, sometimes with one entry moved."""
    A = draw(st.one_of(algebras(4), near_kv_algebras()))
    d = A.dim
    b = symmetrised_coboundary(A, draw(st.lists(constants, min_size=d, max_size=d)))
    if draw(st.booleans()):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        b[i][j] += 1
        b[j][i] = b[i][j]
    return A, SymForm(b)


@settings(max_examples=100, deadline=None)
@given(exactness_cases())
def test_exactness_matches_hand_built_system_on_random_algebras(case):
    check_exactness(*case)


# --- clan classification ---------------------------------------------------------


def test_clan_84():
    report = clan_classify(A84, FORM84)
    assert report.verdict == "clan"
    assert all(report.sub_verdicts.values())
    assert FORM84.leading_minors() == [F(1), F(1), F(1)]


def test_pseudo_clan_83():
    report = clan_classify(A83, FORM83)
    assert report.verdict == "pseudo-clan"
    assert not report.definite and report.nondegenerate


def test_as_printed_fails_cocycle_and_invariance():
    report = clan_classify(A84P, FORM84P)
    assert report.verdict == "neither"
    assert report.kv
    assert not report.cocycle and not report.invariant
    assert report.invariance_witness is not None


def test_degenerate_form_is_neither():
    report = clan_classify(A84, SymForm([[0] * 3 for _ in range(3)]))
    assert report.verdict == "neither"
    assert not report.nondegenerate


def test_negative_definite_counts_as_definite():
    report = clan_classify(A84, SymForm([[-1, 0, 0], [0, -1, 0], [0, 0, -1]]))
    assert report.verdict == "clan"


def test_invariance_implies_cocycle():
    """Left-invariant symmetric forms are automatically 2-cocycles;
    checked on randomized invariant forms over the catalog algebras."""
    rng = random.Random(7)
    for A, base in ((A83, FORM83), (A84, FORM84)):
        for _ in range(10):
            scale = F(rng.randint(1, 5), rng.randint(1, 3))
            form = SymForm([[v * scale for v in row] for row in base.matrix])
            report = clan_classify(A, form)
            assert report.invariant
            assert report.cocycle


# --- deformations -----------------------------------------------------------------


def test_kv_nu_zero():
    nu = FinCochain(3, 2, COEFF_SELF)
    assert kv_nu(A83, nu).is_zero()
    assert mc_check(A83, nu).is_zero()


def test_kv_nu_of_kv_product_is_zero():
    nu = product_cochain(A83)
    assert kv_nu(FinKVAlgebra.zero(3), nu).is_zero()


def test_kv_nu_nonzero_for_non_kv_product():
    nu = FinCochain(2, 2, COEFF_SELF, {(0, 1): [F(1), F(0)]})  # e1 e2 = e1
    out = kv_nu(FinKVAlgebra.zero(2), nu)
    assert out.get((0, 1, 1)) == [F(-1), F(0)]


def test_mc_calibration_matches_direct_anomaly():
    rng = random.Random(11)
    for A in (A83, A84, COMMUTATIVE):
        for _ in range(5):
            nu = rand_cochain(rng, A.dim, 2, COEFF_SELF)
            assert mc_check(A, nu) == kv_defect_cochain(perturb(A, nu))


def test_mc_rescaled_product():
    nu = product_cochain(A83)  # 2*mu - mu
    assert mc_check(A83, nu).is_zero()


def test_perturb_validation():
    with pytest.raises(ValueError):
        perturb(A83, FinCochain(3, 1, COEFF_SELF))
    with pytest.raises(ValueError):
        kv_nu(A83, FinCochain(3, 2, COEFF_TRIVIAL))


# --- hypothesis algebras and forms ---------------------------------------------

constants = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


def algebras(max_dim: int):
    """Algebras of dimension 1..max_dim: sparse ones (a few entries) and
    dense ones (every constant drawn)."""

    def sparse(d):
        entry = st.tuples(*[st.integers(0, d - 1)] * 3, constants)
        return st.lists(entry, max_size=2 * d).map(lambda triples: alg(d, triples))

    def full(d):
        return st.lists(constants, min_size=d**3, max_size=d**3).map(
            lambda v: FinKVAlgebra(d, [[v[(i * d + j) * d:(i * d + j + 1) * d] for j in range(d)] for i in range(d)])
        )

    return st.integers(1, max_dim).flatmap(lambda d: st.one_of(sparse(d), full(d)))


def forms(d: int):
    """Symmetric forms on Q^d, often with zero entries."""
    entry = st.one_of(st.just(0), st.just(0), constants)
    return st.lists(entry, min_size=d * d, max_size=d * d).map(
        lambda v: SymForm([[v[min(i, j) * d + max(i, j)] for j in range(d)] for i in range(d)])
    )


def algebra_with_form(max_dim: int):
    return algebras(max_dim).flatmap(lambda A: st.tuples(st.just(A), forms(A.dim)))


def row_cocycle(A, beta):
    """The row-based cocycle test: every integer row of the trivial
    coboundary C^2 -> C^3 vanishes on the form's numerators."""
    flat = [v for row in beta.num for v in row]
    return not any(
        sum(v * flat[col] for col, v in row.items())
        for row in coboundary_rows(A, COEFF_TRIVIAL, 2)
    )


# --- the scattered KV defect --------------------------------------------------------


@st.composite
def near_kv_algebras(draw):
    """KV algebras (truncated polynomial rings, the finite catalog entries
    and direct sums of them with a zero algebra), each with up to two
    constants moved, so that the first witness may lie late in
    `itertools.product` order or not exist."""
    base = draw(st.sampled_from(
        [truncated(d) for d in range(1, 7)] + [A83, A84, A84P]
        + [direct_sum(A83, FinKVAlgebra.zero(3)), direct_sum(FinKVAlgebra.zero(2), A84)]
    ))
    d = base.dim
    c = [[list(row) for row in plane] for plane in base.c]
    for _ in range(draw(st.integers(0, 2))):
        i, j, k = (draw(st.integers(0, d - 1)) for _ in range(3))
        c[i][j][k] += draw(constants)
    return FinKVAlgebra(d, c)


@settings(max_examples=80, deadline=None)
@given(st.one_of(algebras(6), near_kv_algebras()))
def test_scattered_kv_defect_matches_reference(A):
    assert kv_defect_fin(A) == reference_kv_defect(A)


# --- the residual table ------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(algebra_with_form(5))
def test_residual_cocycle_test_matches_rows(case):
    A, beta = case
    report = clan_classify(A, beta)
    assert report.cocycle == row_cocycle(A, beta)
    assert report.invariance_witness == reference_invariance(A, beta)


def test_residual_cocycle_test_on_seeded_cases():
    """1000 seeded sparse and dense algebras of dimension 1-5 with random
    forms; both answers occur often."""
    rng = random.Random(3)

    def const():
        return F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3, 4)))

    found = {True: 0, False: 0}
    for _ in range(1000):
        d = rng.randint(1, 5)
        if rng.random() < 0.5:
            A = alg(d, [(*(rng.randrange(d) for _ in range(3)), const()) for _ in range(rng.randint(0, 2 * d))])
        else:
            A = FinKVAlgebra(d, [[[const() for _ in range(d)] for _ in range(d)] for _ in range(d)])
        v = [rng.choice((0, 0, const())) for _ in range(d * d)]
        beta = SymForm([[v[min(i, j) * d + max(i, j)] for j in range(d)] for i in range(d)])
        report = clan_classify(A, beta)
        assert report.cocycle == row_cocycle(A, beta)
        assert report.invariance_witness == reference_invariance(A, beta)
        found[report.cocycle] += 1
    assert min(found.values()) >= 200, found


def cocycle_cases():
    """Algebras with forms that are 2-cocycles: exact forms
    beta(e_i, e_j) = Theta(e_i e_j + e_j e_i) and invariant forms of the
    catalog entries, on the reader cases."""
    rng = random.Random(29)
    out = []
    for A, beta in reader_cases():
        theta = [F(rng.randint(-3, 3)) for _ in range(A.dim)]
        out.append((A, SymForm(symmetrised_coboundary(A, theta))))
        out.append((A, beta))
    return out


def symmetrised_coboundary(A, theta):
    """The matrix of beta(e_i, e_j) = Theta(e_i e_j + e_j e_i)."""
    d = A.dim
    return [[sum((A.c[i][j][k] + A.c[j][i][k]) * theta[k] for k in range(d)) for j in range(d)] for i in range(d)]


def test_residual_identity_against_coboundary_rows():
    """d beta(e_i, e_j, e_k) = R(i, j, k) - R(j, i, k): the integer rows of
    the trivial coboundary times the form's numerators equal the
    antisymmetrised residual table, entry by entry."""
    cocycles = 0
    for A, beta in cocycle_cases():
        d = A.dim
        flat = [v for row in beta.num for v in row]
        rows = coboundary_rows(A, COEFF_TRIVIAL, 2)
        R = _residuals(A, beta)
        for n, (i, j, k) in enumerate(itertools.product(range(d), repeat=3)):
            d_beta = sum(v * flat[col] for col, v in rows[n].items())
            assert d_beta == R.get((i * d + j) * d + k, 0) - R.get((j * d + i) * d + k, 0)
        cocycle = row_cocycle(A, beta)
        assert clan_classify(A, beta).cocycle == cocycle
        cocycles += cocycle
    assert cocycles >= 10


# --- scattered coboundary rows --------------------------------------------------------


def visited_rows(A, coefficients, k):
    """The coboundary rows built by visiting every (k+1)-tuple of basis
    indices and reading the constants each one needs, the construction the
    scattered `coboundary_rows` replaced: a second oracle, cheap enough for
    self-coefficient degree 2 at dimension 5."""
    d = A.dim
    self_coeffs = coefficients == COEFF_SELF
    width = d if self_coeffs else 1
    prod = A.nz

    def col(indices):
        n = 0
        for t in indices:
            n = n * d + t
        return n * width

    rows = []
    for idx in itertools.product(range(d), repeat=k + 1):
        out = [{} for _ in range(width)]
        for j in range(1, k + 1):
            sign = -1 if j % 2 else 1
            sj = idx[j - 1]
            rest = idx[: j - 1] + idx[j:]
            if self_coeffs:
                for o in range(d):
                    for m, v in prod[sj][o]:
                        out[m][col(rest) + o] = out[m].get(col(rest) + o, 0) + sign * v
            for t in range(k):
                for a, v in prod[sj][rest[t]]:
                    base = col(rest[:t] + (a,) + rest[t + 1 :])
                    for m in range(width):
                        out[m][base + m] = out[m].get(base + m, 0) - sign * v
            if self_coeffs:
                base, last = col(rest[:-1] + (sj,)), rest[-1]
                for o in range(d):
                    for m, v in prod[o][last]:
                        out[m][base + o] = out[m].get(base + o, 0) + sign * v
        rows.extend({c: v for c, v in row.items() if v} for row in out)
    return rows


def check_rows(A, reference_up_to=2):
    """coboundary_rows against visited_rows in every degree, and against
    the reference matrix in degrees up to reference_up_to (self
    coefficients) or 2 (trivial)."""
    for coefficients in (COEFF_SELF, COEFF_TRIVIAL):
        for k in (0, 1, 2):
            rows = coboundary_rows(A, coefficients, k)
            # every row is kept, empty rows included
            assert len(rows) == cochain_space_dim(A.dim, k + 1, coefficients)
            assert rows == visited_rows(A, coefficients, k)
            assert all(type(v) is int and v for row in rows for v in row.values())
            if coefficients == COEFF_SELF and k > reference_up_to:
                continue
            width = cochain_space_dim(A.dim, k, coefficients)
            oracle = reference_matrix(A, coefficients, k)
            assert dense(rows, width) == [[A.den * v for v in row] for row in oracle]


@settings(max_examples=15, deadline=None)
@given(algebras(5))
def test_scattered_rows_match_reference_on_random_algebras(A):
    # the self degree-2 reference matrix takes 1.5 s at dim 4 and 6 s at
    # dim 5, so there visited_rows is the oracle
    check_rows(A, reference_up_to=2 if A.dim <= 3 else 1)


def test_scattered_rows_match_reference_at_dim_4_and_5():
    rng = random.Random(31)
    c = [[[F(rng.choice((0, 0, 1, -2, F(1, 3)))) for _ in range(4)] for _ in range(4)] for _ in range(4)]
    check_rows(FinKVAlgebra(4, c))
    check_rows(direct_sum(A83, alg(2, [(0, 1, 1, 2), (1, 1, 0, -1)])), reference_up_to=1)


# --- the one-pass definiteness ----------------------------------------------------------


def oracle_minors(matrix):
    return [fraction_det([row[: k + 1] for row in matrix[: k + 1]]) for k in range(len(matrix))]


def check_form(beta):
    minors = oracle_minors(beta.matrix)
    negated = oracle_minors([[-v for v in row] for row in beta.matrix])
    assert beta.leading_minors() == minors
    assert beta.det() == fraction_det(beta.matrix)
    assert beta.nondegenerate() == (fraction_det(beta.matrix) != 0)
    assert beta.positive_definite() == all(m > 0 for m in minors)
    assert beta.negative_definite() == all(m > 0 for m in negated)
    assert beta.definite() == (all(m > 0 for m in minors) or all(m > 0 for m in negated))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(forms))
def test_form_minors_match_fraction_oracle(beta):
    check_form(beta)


def test_form_minors_fixed_cases():
    cases = [
        [[0, 1], [1, 0]],  # a zero leading minor, nondegenerate
        [[1, 1, 0], [1, 1, 0], [0, 0, 2]],  # zero second minor, degenerate
        [[1, 2, 0], [2, 4, 1], [0, 1, 0]],  # zero second minor, det -1
        [[-1, 0, 0], [0, -2, 0], [0, 0, -3]],  # negative definite
        [[-2, 1], [1, F(-2, 3)]],  # negative definite, off-diagonal
        [[F(1, 2), 0, 0], [0, F(1, 3), 0], [0, 0, 0]],  # semi-definite
        [[0] * 3 for _ in range(3)],
    ]
    for matrix in cases:
        check_form(SymForm(matrix))
    assert SymForm(cases[3]).negative_definite() and SymForm(cases[4]).definite()
    assert not SymForm(cases[5]).definite() and not SymForm(cases[5]).nondegenerate()
    assert SymForm(cases[2]).det() == -1 and SymForm(cases[2]).leading_minors()[1] == 0


# --- tables built from parsed entries ---------------------------------------------------


def assert_same_tables(parsed, A, beta):
    assert (parsed.algebra.nz, parsed.algebra.den) == (A.nz, A.den)
    assert parsed.algebra.c == A.c and parsed.algebra == A
    assert (parsed.form.num, parsed.form.den, parsed.form.rows) == (beta.num, beta.den, beta.rows)
    assert parsed.form.matrix == beta.matrix and parsed.form == beta


def dense_inputs(A, beta):
    """The constants of A and the matrix of beta as the dense constructors
    take them: ints where a value is whole, Fractions elsewhere."""
    whole = lambda v: int(v) if v.denominator == 1 else v
    return (
        [[[whole(v) for v in row] for row in plane] for plane in A.c],
        [[whole(v) for v in row] for row in beta.matrix],
    )


def test_parsed_tables_equal_dense_constructed():
    # the cocycle cases add forms with entries off the diagonal, which the
    # catalog's forms lack
    for A, beta in reader_cases() + cocycle_cases()[::2]:
        text = serialize_kvalgebra(A, beta)
        # the views are built on demand: a fresh parse has made neither yet
        parsed = parse_document(text)
        assert parsed.algebra._c is None and parsed.form._matrix is None
        assert_same_tables(parsed, A, beta)
        c, matrix = dense_inputs(A, beta)
        dense_A, dense_beta = FinKVAlgebra(A.dim, c), SymForm(matrix)
        assert dense_A._c is None and dense_beta._matrix is None
        assert_same_tables(parse_document(text), dense_A, dense_beta)


def test_entry_constructors_validate():
    for dim in (0, -1):
        with pytest.raises(ValueError, match="dim must be positive"):
            FinKVAlgebra.zero(dim)
        with pytest.raises(ValueError, match="dim must be positive"):
            FinKVAlgebra(dim, [])
    assert FinKVAlgebra.zero(3) == alg(3, []) and FinKVAlgebra.zero(3).c == alg(3, []).c


# --- the flat cochain ------------------------------------------------------------------


@st.composite
def cochain_cases(draw):
    """A cochain of dimension 1-3 and degree 0-3 in either module, built
    from {basis tuple: value}, with the values it was given in
    lexicographic order."""
    d = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 3))
    coefficients = draw(st.sampled_from((COEFF_SELF, COEFF_TRIVIAL)))
    entry = st.one_of(st.just(0), constants)
    if coefficients == COEFF_SELF:
        entry = st.lists(entry, min_size=d, max_size=d)
    indices = list(itertools.product(range(d), repeat=degree))
    values = draw(st.lists(entry, min_size=len(indices), max_size=len(indices)))
    return FinCochain(d, degree, coefficients, dict(zip(indices, values))), indices, values


@settings(max_examples=150, deadline=None)
@given(cochain_cases(), st.data())
def test_flat_cochain_properties(case, data):
    x, indices, values = case
    d, degree, self_coeffs = x.dim, x.degree, x.coefficients == COEFF_SELF
    flat = list(x.coords)
    assert flat == [F(v) for value in values for v in (value if self_coeffs else [value])]
    assert len(flat) == cochain_space_dim(d, degree, x.coefficients)
    # from_flat copies its input
    y = FinCochain.from_flat(d, degree, x.coefficients, flat)
    assert y == x
    flat.append(F(1))
    y.coords[0] += 1
    assert x.coords == flat[:-1] and y != x
    width = d if self_coeffs else 1
    for n, idx in enumerate(indices):
        expected = flat[n * width : (n + 1) * width]
        assert x.get(idx) == (expected if self_coeffs else expected[0])
    vectors = [data.draw(st.lists(constants, min_size=d, max_size=d)) for _ in range(degree)]
    expected = [F(0)] * d if self_coeffs else F(0)
    for idx in indices:
        coeff = F(1)
        for vector, i in zip(vectors, idx):
            coeff *= vector[i]
        if self_coeffs:
            expected = [e + coeff * v for e, v in zip(expected, x.get(idx))]
        else:
            expected += coeff * x.get(idx)
    assert x.value(*vectors) == expected
    # bad indices and wrong lengths
    for idx in ((d,) * degree, (0,) * (degree + 1), (-1,) * degree):
        if len(idx) != degree or degree:
            with pytest.raises(ValueError, match="bad basis index tuple"):
                x.get(idx)
            with pytest.raises(ValueError, match="bad basis index tuple"):
                x.set(idx, [0] * d if self_coeffs else 0)
    if self_coeffs:
        with pytest.raises(ValueError, match="wrong length"):
            x.set((0,) * degree, [0] * (d + 1))
    with pytest.raises(ValueError, match="wrong length"):
        FinCochain.from_flat(d, degree, x.coefficients, flat)
    with pytest.raises(ValueError, match="wrong length"):
        FinCochain.from_flat(d, degree, x.coefficients, flat[:-2])
    with pytest.raises(ValueError, match=f"takes {degree} inputs"):
        x.value(*vectors, [0] * d)


# --- the one KV anomaly ----------------------------------------------------------------


def dense_kv_nu(A, nu):
    """KV_nu written out on all d^3 basis triples through four
    `FinCochain.value` compositions each: the oracle for `kv_nu`."""
    d = A.dim
    basis = basis_vectors(d)
    out = FinCochain(d, 3, COEFF_SELF)
    for i, j, k in itertools.product(range(d), repeat=3):
        s, sp, spp = basis[i], basis[j], basis[k]
        v = [
            a - b - c + e
            for a, b, c, e in zip(
                nu.value(s, nu.value(sp, spp)),
                nu.value(nu.value(s, sp), spp),
                nu.value(sp, nu.value(s, spp)),
                nu.value(nu.value(sp, s), spp),
            )
        ]
        if any(v):
            out.set((i, j, k), v)
    return out


@st.composite
def nu_cases(draw):
    """(nu, whether nu is a KV product): the products of KV algebras of
    dimension 1-4 in a random monomial frame, and random sparse and dense
    degree-2 cochains."""
    if draw(st.booleans()):
        A = draw(st.sampled_from(
            [truncated(d) for d in range(1, 5)] + [A83, A84, A84P, COMMUTATIVE]
            + [direct_sum(A83, FinKVAlgebra.zero(1))]
        ))
        perm = draw(st.permutations(range(A.dim)))
        diag = [draw(st.sampled_from((1, -1, 2, F(1, 2), F(-2, 3)))) for _ in range(A.dim)]
        return product_cochain(frame_change(A, perm, diag)), True
    return product_cochain(draw(algebras(4))), False


@settings(max_examples=150, deadline=None)
@given(nu_cases())
def test_kv_nu_matches_dense_oracle(case):
    nu, is_kv = case
    A = FinKVAlgebra.zero(nu.dim)
    out = kv_nu(A, nu)
    assert out == dense_kv_nu(A, nu)
    if is_kv:
        assert out.is_zero()


def cancelling_algebras():
    """Algebras of dimension 2-4 with den > 1 whose constants cancel in
    e_i e_j - e_j e_i, wholly or in part: c[j][i][k] is c[i][j][k] plus 0,
    1/2, -2/3 or 1/6, so the bracket's numerators over A.den often share a
    factor with it."""
    rng = random.Random(83)
    out = []
    for d in (2, 3, 4):
        for _ in range(4):
            c = [[[F(0)] * d for _ in range(d)] for _ in range(d)]
            for i, j in itertools.combinations(range(d), 2):
                for k in range(d):
                    if rng.random() < 0.6:
                        v = F(rng.randint(-5, 5), rng.choice((2, 3, 6)))
                        c[i][j][k] = v
                        c[j][i][k] = v + rng.choice((0, 0, F(1, 2), F(-2, 3), F(1, 6)))
                c[i][i][rng.randrange(d)] = F(rng.randint(1, 5), 4)
            out.append(FinKVAlgebra(d, c))
    return out


def test_bracket_and_kv_nu_on_cancelling_fractions():
    """commutator_bracket and kv_nu, which hand reduced values to the table
    step, agree with the Fraction oracles `FinKVAlgebra.product` and
    `FinCochain.value` on algebras whose constants cancel."""
    for A in cancelling_algebras():
        assert A.den > 1
        d, basis = A.dim, basis_vectors(A.dim)
        report = commutator_bracket(A)
        expected = tuple(
            tuple(tuple(x - y for x, y in zip(A.product(u, v), A.product(v, u))) for v in basis)
            for u in basis
        )
        assert report.constants == expected
        assert report.witness == reference_jacobi(A)
        lie = FinKVAlgebra(d, report.constants)
        for base, nu in ((FinKVAlgebra.zero(d), product_cochain(A)), (A, product_cochain(lie))):
            assert kv_nu(base, nu) == dense_kv_nu(base, nu)


# --- frame changes on the finite track -------------------------------------------------


def unimodular(d, moves):
    """(P, P^-1) for the basis change f_a = e_a + t e_b, applied for each
    move (a, b, t) in turn: the columns of P are the new basis vectors in
    the old basis, P and P^-1 are integer and det P = 1."""
    P = [[int(i == j) for j in range(d)] for i in range(d)]
    P_inv = [row[:] for row in P]
    for a, b, t in moves:
        # P := P (I + t E_ba) and P^-1 := (I - t E_ba) P^-1
        for row in P:
            row[a] += t * row[b]
        P_inv[b] = [x - t * y for x, y in zip(P_inv[b], P_inv[a])]
    return P, P_inv


def change_basis(A, beta, P, P_inv):
    """A and beta in the basis f_i = sum_a P[a][i] e_a."""
    d = A.dim
    c = [
        [
            [
                sum(
                    P[a][i] * P[b][j] * A.c[a][b][m] * P_inv[k][m]
                    for a, b, m in itertools.product(range(d), repeat=3)
                    if A.c[a][b][m]
                )
                for k in range(d)
            ]
            for j in range(d)
        ]
        for i in range(d)
    ]
    form = [
        [sum(P[a][i] * P[b][j] * beta.matrix[a][b] for a in range(d) for b in range(d)) for j in range(d)]
        for i in range(d)
    ]
    return FinKVAlgebra(d, c), SymForm(form)


def block_form(*blocks):
    d = sum(len(b) for b in blocks)
    out, off = [[0] * d for _ in range(d)], 0
    for b in blocks:
        for i, j in itertools.product(range(len(b)), repeat=2):
            out[off + i][off + j] = b[i][j]
        off += len(b)
    return SymForm(out)


def frame_cases():
    """KV algebras of dimension 1-4 with forms: the finite catalog entries
    with their forms, direct sums, and truncated polynomial rings and the
    zero algebra with exact and diagonal forms."""
    _, form83 = vinberg_83(2, -1)
    cases = [
        (A84, FORM84), (A83, FORM83), (A83, form83),
        (direct_sum(A84, FinKVAlgebra.zero(1)), block_form(FORM84.matrix, [[2]])),
        (direct_sum(A83, FinKVAlgebra.zero(1)), block_form(FORM83.matrix, [[-1]])),
        (direct_sum(truncated(2), truncated(2)), block_form([[1, 0], [0, 0]], [[0, 3], [3, 1]])),
        (FinKVAlgebra.zero(3), block_form([[1, 1], [1, 2]], [[1]])),
        (COMMUTATIVE, SymForm([[1, 0], [0, 0]])),
    ]
    for d in range(1, 5):
        A = truncated(d)
        cases.append((A, SymForm(symmetrised_coboundary(A, [F(k, 3) for k in range(1, d + 1)]))))
        cases.append((A, SymForm([[int(i == j) for j in range(d)] for i in range(d)])))
    return cases


FRAME_CASES = frame_cases()


@st.composite
def framed_cases(draw):
    """A case of `frame_cases`, or its algebra with a random form, and
    up to five elementary moves e_a -> e_a + t e_b."""
    A, beta = draw(st.sampled_from(FRAME_CASES))
    d = A.dim
    if draw(st.integers(0, 3)) == 0:
        beta = draw(forms(d))
    moves = []
    if d > 1:
        for _ in range(draw(st.integers(1, 5))):
            a, off = draw(st.integers(0, d - 1)), draw(st.integers(1, d - 1))
            moves.append((a, (a + off) % d, draw(st.sampled_from((1, -1, 2, -2)))))
    return A, beta, unimodular(d, moves)


def frame_invariants(A, beta):
    dims = [
        cohomology_summary(A, co, k)["dim_h"] for co in (COEFF_SELF, COEFF_TRIVIAL) for k in (0, 1, 2)
    ]
    report = clan_classify(A, beta)
    return dims, report.verdict, report.sub_verdicts


@settings(max_examples=60, deadline=None)
@given(framed_cases())
def test_frame_changes_keep_finite_verdicts(case):
    """A unimodular change of basis P keeps the H^k dims in both modules,
    the clan verdict and its sub-verdicts, and exactness; a primitive
    Theta' of the new form agrees with Theta o P on every product, so the
    two are equal where the products span the algebra."""
    A, beta, (P, P_inv) = case
    B, beta_p = change_basis(A, beta, P, P_inv)
    d = A.dim
    assert frame_invariants(B, beta_p) == frame_invariants(A, beta)
    if not clan_classify(A, beta).cocycle:
        with pytest.raises(ValueError):
            exactness_witness(B, beta_p)
        return
    theta, theta_p = exactness_witness(A, beta), exactness_witness(B, beta_p)
    assert (theta is None) == (theta_p is None)
    if theta is None:
        return
    pulled = [sum(P[b][k] * theta[b] for b in range(d)) for k in range(d)]
    for i, j in itertools.product(range(d), repeat=2):
        assert sum(B.c[i][j][k] * theta_p[k] for k in range(d)) == beta_p.matrix[i][j]
        assert sum(B.c[i][j][k] * (theta_p[k] - pulled[k]) for k in range(d)) == 0
    if rank([B.c[i][j] for i in range(d) for j in range(d)]) == d:
        assert theta_p == pulled


# --- the one elimination against dense oracles -------------------------------------------


def dense_rank(matrix):
    """The rank of a dense matrix by the Fraction row echelon."""
    return len(row_echelon(_as_matrix(matrix)))


@settings(max_examples=25, deadline=None)
@given(framed_cases(), st.sampled_from((COEFF_SELF, COEFF_TRIVIAL)), st.integers(0, 2), st.randoms())
def test_cohomology_and_coboundary_match_dense_oracles(case, coefficients, k, rng):
    """KV algebras of dimension 1-4 in a unimodular basis (dense in
    general): the integer columns `cohomology_summary` eliminates are the
    reference matrix's times A.den, its dimensions are those of the dense
    Fraction ranks, and `fin_coboundary` is `reference_coboundary`."""
    A, beta, (P, P_inv) = case
    B = change_basis(A, beta, P, P_inv)[0]
    oracle = reference_matrix(B, coefficients, k)
    columns = _coboundary(B, coefficients, k, True)
    assert len(columns) == cochain_space_dim(B.dim, k, coefficients)
    assert [[col.get(r, 0) for col in columns] for r in range(len(oracle))] == [
        [B.den * v for v in row] for row in oracle
    ]
    dom = cochain_space_dim(B.dim, k, coefficients)
    kernel = dom - dense_rank(oracle)
    image = dense_rank(reference_matrix(B, coefficients, k - 1)) if k else 0
    assert cohomology_summary(B, coefficients, k) == {
        "dim_cochains": dom, "dim_kernel": kernel, "dim_image": image, "dim_h": kernel - image,
    }
    theta = rand_cochain(rng, B.dim, k, coefficients)
    assert fin_coboundary(B, coefficients, theta) == reference_coboundary(B, coefficients, theta)


def dense_exactness(A, beta):
    """Theta by the dense Fraction solve `rref_solve` of the reference
    trivial coboundary C^1 -> C^2 against beta's entries, the RREF
    solution (free columns 0): the dense oracle of `exactness_witness`."""
    return rref_solve(reference_matrix(A, COEFF_TRIVIAL, 1), [v for row in beta.matrix for v in row])


@st.composite
def framed_forms(draw):
    A, beta, (P, P_inv) = draw(framed_cases())
    return change_basis(A, beta, P, P_inv)


@settings(max_examples=150, deadline=None)
@given(st.one_of(exactness_cases(), framed_forms()))
def test_exactness_matches_dense_oracle(case):
    A, beta = case
    if not clan_classify(A, beta).cocycle:
        with pytest.raises(ValueError, match="not a 2-cocycle"):
            exactness_witness(A, beta)
        return
    assert exactness_witness(A, beta) == dense_exactness(A, beta)
