"""End-to-end acceptance checks, one test per criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion; each test also prints its verdict line.
"""

import io
import itertools
import json
import random
from fractions import Fraction as F

from algebroid.catalog import catalog_get, catalog_names, clan_84, vinberg_83
from algebroid.checkers import (
    check_profile,
    derive_nonasym_consequences,
    verify_anchor_morphism,
    verify_equivalence_A1_A2,
    verify_prop_64,
)
from algebroid.cli import run as cli_run
from algebroid.exactmath import Poly
from algebroid.fileformat import parse_document, serialize_document
from algebroid.funmodel import (
    AlgebroidStructure,
    AnchorMap,
    BiDiffOp,
    DCochain,
    DiffOp,
    Pairing,
    Section,
    conjugate,
)
from algebroid.kvfin import (
    COEFF_SELF,
    COEFF_TRIVIAL,
    FinCochain,
    FinKVAlgebra,
    clan_classify,
    cohomology_summary,
    commutator_bracket,
    exactness_witness,
    fin_coboundary,
    kv_defect_fin,
    mc_check,
)
from kv_helpers import perturb, product_cochain


def _ok(n, label):
    print(f"criterion {n}: PASS ({label})")


# --------------------------------------------------------------------------
# 1. The rank-1 polynomial-coefficient structure is CC but not Courant, its
#    anchor is not a bracket morphism, and neither A1 nor A2 holds.
# --------------------------------------------------------------------------


def test_criterion_1_witt_line_profile_split():
    S = catalog_get("witt-line").structure
    assert check_profile(S, "cc").passed
    courant = check_profile(S, "courant")
    assert not courant.passed
    assert courant.failing_labels() == ["Ax2", "Ax4"]
    w = verify_anchor_morphism(S)
    assert w is not None
    assert w.inputs == (Section([Poly.constant(1, 1)]), Section([Poly.variable(1, 0)]))
    assert w.residual == DiffOp(1, {(1,): -2})
    eq = verify_equivalence_A1_A2(S)
    assert (eq.a1, eq.a2) == (False, False) and eq.agree
    _ok(1, "witt-line: cc yes, courant fails exactly Ax2/Ax4, anchor witness, A1=A2=false")


# --------------------------------------------------------------------------
# 2. Standard Courant structures satisfy the full Courant profile and the
#    three derived identities.
# --------------------------------------------------------------------------


def test_criterion_2_standard_courant():
    for n in (2, 3):
        S = catalog_get(f"courant-standard-{n}").structure
        report = check_profile(S, "courant")
        assert report.passed
        assert [e.label for e in report.entries] == [
            "skew", "deltaD", "Ax1", "Ax2", "Ax3", "Ax4", "Ax5",
        ]
        derived = verify_prop_64(S)
        assert derived.passed
        assert [e.label for e in derived.entries] == ["i", "ii", "iii"]
    _ok(2, "courant-standard-2/3 pass Ax1..Ax5 and derived identities i/ii/iii")


# --------------------------------------------------------------------------
# 3. A1 and A2 always agree on CC structures: catalog cases plus a seeded
#    randomized sweep of constant-coefficient CC structures.
# --------------------------------------------------------------------------


def _random_cc_structures(rng, count):
    out = []
    while len(out) < count:
        pick = len(out) % 3
        if pick == 0:
            a = rng.choice([-3, -2, -1, 1, 2, 3])
            out.append(conjugate(catalog_get("witt-line").structure, [[a]]))
        elif pick == 1:
            base = catalog_get("courant-standard-2").structure
            A = [[F(0)] * 4 for _ in range(4)]
            for i in range(4):
                A[i][i] = F(rng.choice([1, 2, 3]))
            i, j = rng.sample(range(4), 2)
            A[i][j] = F(rng.randint(-2, 2))
            out.append(conjugate(base, A))
        else:
            rank = rng.choice([2, 3])
            n = 1
            diag = [rng.choice([1, 2, -1, 3]) for _ in range(rank)]
            g = [
                [Poly.constant(n, diag[i] if i == j else 0) for j in range(rank)]
                for i in range(rank)
            ]
            out.append(
                AlgebroidStructure(
                    rank, n,
                    BiDiffOp(rank, n, []),
                    AnchorMap(n, rank, [[Poly.zero(n)] * rank]),
                    Pairing(rank, n, g),
                    DCochain(rank, n, [DiffOp(n) for _ in range(rank)]),
                    skew=True,
                )
            )
    return out


def test_criterion_3_equivalence_sweep():
    cc_catalog = [
        name for name in catalog_names()
        if catalog_get(name).kind == "function-model"
        and catalog_get(name).structure.pairing is not None
        and catalog_get(name).structure.d_cochain is not None
    ]
    rng = random.Random(42)
    structures = [catalog_get(name).structure for name in cc_catalog]
    structures += _random_cc_structures(rng, 20)
    assert len(structures) >= 24
    for S in structures:
        report = verify_equivalence_A1_A2(S)
        assert report.agree, report.diagnostic
    _ok(3, f"A1/A2 agree on {len(structures)} CC structures (catalog + seeded sweep)")


# --------------------------------------------------------------------------
# 4. The dimension-3 left-symmetric product is KV, its commutator bracket
#    matches the displayed Lie bracket, and its invariant form is a
#    non-exact 2-cocycle for every tested parameter pair.
# --------------------------------------------------------------------------


def test_criterion_4_vinberg_83():
    A, form = vinberg_83()
    assert kv_defect_fin(A) is None
    bracket = commutator_bracket(A)
    assert bracket.jacobi_ok
    expected = _alg(3, [(2, 0, 1, 1), (0, 2, 1, -1), (2, 1, 0, 1), (1, 2, 0, -1)])
    assert bracket.constants == expected.c
    report = clan_classify(A, form)
    assert report.verdict == "pseudo-clan"
    assert report.cocycle and report.invariant and report.nondegenerate
    assert not report.definite
    for a, b in itertools.product((1, -1, 2, -2), repeat=2):
        Aab, fab = vinberg_83(a, b)
        assert fin_coboundary(Aab, COEFF_TRIVIAL, fab.as_cochain()).is_zero()
        assert exactness_witness(Aab, fab) is None
    _ok(4, "vinberg-83: KV, bracket matches, invariant cocycle, non-exact on the grid")


# --------------------------------------------------------------------------
# 5. The dimension-3 clan example classifies as a clan with unit leading
#    minors; the sign-variant transcription loses the cocycle and
#    invariance sub-verdicts.
# --------------------------------------------------------------------------


def test_criterion_5_clan_84():
    A, form = clan_84()
    report = clan_classify(A, form)
    assert report.verdict == "clan"
    assert report.kv and report.cocycle and report.invariant
    assert report.definite and report.nondegenerate
    assert form.leading_minors() == [F(1), F(1), F(1)]
    assert exactness_witness(A, form) is None
    printed = clan_classify(*clan_84(as_printed=True))
    assert printed.verdict == "neither"
    assert printed.kv
    assert not printed.cocycle and not printed.invariant
    _ok(5, "clan-84: clan with minors (1,1,1), non-exact; as-printed loses cocycle/invariance")


# --------------------------------------------------------------------------
# 6. In the non-asymmetric profile a nonzero generator is impossible:
#    injecting any nonzero constant D produces a forcing witness.
# --------------------------------------------------------------------------


def _constant_structure_with_d(pairing_diag, d_vec):
    rank, n = 3, 1
    g = [
        [Poly.constant(n, pairing_diag[i] if i == j else 0) for j in range(rank)]
        for i in range(rank)
    ]
    comps = [DiffOp(n, {(1,): d_vec[k]} if d_vec[k] else None) for k in range(rank)]
    return AlgebroidStructure(
        rank, n,
        BiDiffOp(rank, n, []),
        AnchorMap(n, rank, [[Poly.zero(n)] * rank]),
        Pairing(rank, n, g),
        DCochain(rank, n, comps),
    )


def test_criterion_6_nonasym_forces_d_zero():
    cases = [
        ([1, 1, 1], [1, 0, 0]),
        ([1, 1, 1], [0, -2, 0]),
        ([2, 1, 3], [0, 0, 1]),
        ([1, -1, 2], [1, 1, 1]),
        ([3, 2, 1], [0, 5, -1]),
    ]
    for diag, d_vec in cases:
        S = _constant_structure_with_d(diag, d_vec)
        report = derive_nonasym_consequences(S)
        assert not report.d_forced_zero.passed
        assert report.d_forced_zero.witness is not None
        assert not report.d_forced_zero.witness.residual.is_zero()
        # and with D = 0 the same structure passes the forcing check
        S0 = _constant_structure_with_d(diag, [0, 0, 0])
        assert derive_nonasym_consequences(S0).d_forced_zero.passed
    _ok(6, "every injected nonzero constant D yields a forcing witness")


# --------------------------------------------------------------------------
# 7. Finite KV cohomology: H0 = dim, the coboundary squares to zero on a
#    seeded sweep, H1 of the zero product is dim^2, and H2 of the
#    dimension-3 example equals the pinned value 5.
# --------------------------------------------------------------------------


def test_criterion_7_cohomology():
    finite = [
        catalog_get(name).algebra
        for name in catalog_names()
        if catalog_get(name).kind == "finite-kv"
    ]
    assert len(finite) >= 3
    rng = random.Random(42)
    for A in finite:
        assert cohomology_summary(A, COEFF_SELF, 0)["dim_h"] == A.dim
        for coefficients in (COEFF_SELF, COEFF_TRIVIAL):
            for _ in range(50):
                data = {}
                for idx in itertools.product(range(A.dim), repeat=1):
                    if coefficients == COEFF_SELF:
                        data[idx] = [F(rng.randint(-3, 3)) for _ in range(A.dim)]
                    else:
                        data[idx] = F(rng.randint(-3, 3))
                th = FinCochain(A.dim, 1, coefficients, data)
                dth = fin_coboundary(A, coefficients, th)
                assert fin_coboundary(A, coefficients, dth).is_zero()
    for d in (2, 3):
        assert cohomology_summary(FinKVAlgebra.zero(d), COEFF_SELF, 1)["dim_h"] == d * d
    A83, _ = vinberg_83()
    summary = cohomology_summary(A83, COEFF_SELF, 2)
    fresh = summary["dim_kernel"] - summary["dim_image"]
    assert summary["dim_h"] == fresh == 5
    _ok(7, "H0=dim, d∘d=0 on seeded sweep, H1(zero)=dim^2, H2(vinberg-83)=5")


# --------------------------------------------------------------------------
# 8. Deformation calibration: the residual of a perturbed product equals
#    the KV tensor of the perturbed product, so KV-to-KV moves have zero
#    residual and non-KV perturbations are detected.
# --------------------------------------------------------------------------


def _alg(dim, triples):
    c = [[[F(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, v in triples:
        c[i][j][k] = F(v)
    return FinKVAlgebra(dim, c)


def test_criterion_8_deformation_calibration():
    A83, _ = vinberg_83()
    A84, _ = clan_84()
    A84P, _ = clan_84(as_printed=True)
    base = [
        FinKVAlgebra.zero(2),
        FinKVAlgebra.zero(3),
        A83,
        A84,
        A84P,
        _alg(2, [(0, 0, 0, 1)]),
        _alg(2, [(0, 0, 1, 1)]),
        _alg(3, [(0, 0, 0, 1)]),
    ]
    products = list(base)
    for A in base[:2] + [A83, _alg(2, [(0, 0, 1, 1)])]:
        products.append(
            FinKVAlgebra(A.dim, [[[2 * v for v in row] for row in plane] for plane in A.c])
        )
    assert len(products) >= 10
    for A in products:
        assert kv_defect_fin(A) is None  # the pool really is KV
    # every KV-to-KV move has zero residual
    pairs = 0
    for A, B in itertools.permutations(products, 2):
        if A.dim != B.dim:
            continue
        nu = product_cochain(B) - product_cochain(A)
        assert mc_check(A, nu).is_zero()
        assert kv_defect_fin(perturb(A, nu)) is None
        pairs += 1
    assert pairs >= 20
    # non-KV perturbations produce a nonzero residual
    non_kv = [
        (FinKVAlgebra.zero(2), _alg(2, [(0, 1, 0, 1)])),
        (FinKVAlgebra.zero(2), _alg(2, [(0, 1, 0, 1), (0, 0, 1, 1)])),
        (FinKVAlgebra.zero(3), _alg(3, [(0, 1, 0, 1)])),
        (A83, _alg(3, [(0, 1, 0, 1)])),
        (A84, _alg(3, [(1, 2, 1, 1)])),
    ]
    for A, target in non_kv:
        nu = product_cochain(target)
        perturbed = perturb(A, nu)
        assert kv_defect_fin(perturbed) is not None  # independent oracle
        assert not mc_check(A, nu).is_zero()
    _ok(8, f"residual calibration on {pairs} KV pairs and 5 non-KV perturbations")


# --------------------------------------------------------------------------
# 9. The CLI is deterministic: every command is byte-stable across runs and
#    export/parse round-trips the full catalog.
# --------------------------------------------------------------------------


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_criterion_9_cli_determinism():
    commands = [["catalog", "list"], ["catalog", "list", "--format", "machine"]]
    for name in catalog_names():
        commands.append(["catalog", "show", name])
        commands.append(["export", "--catalog", name])
        commands.append(["check", "--catalog", name, "--format", "machine"])
    commands += [
        ["check", "--catalog", "witt-line", "--profile", "courant"],
        ["check", "--catalog", "clan-84", "--profile", "clan"],
        ["anomalies", "--catalog", "witt-line", "1", "x1", "x1^2", "--function", "x1"],
        ["cohomology", "--catalog", "vinberg-83", "--degree", "2"],
        ["cohomology", "--catalog", "vinberg-83", "--exactness"],
    ]
    for argv in commands:
        first = _invoke(argv)
        for _ in range(2):
            assert _invoke(argv) == first, argv
    for name in catalog_names():
        code, text, _ = _invoke(["export", "--catalog", name])
        assert code == 0
        assert serialize_document(parse_document(text)) == text
    machine = _invoke(["check", "--catalog", "witt-line", "--format", "machine"])[1]
    json.loads(machine)  # machine output is well-formed JSON
    _ok(9, f"{len(commands)} commands byte-stable x3; catalog export round-trips")
