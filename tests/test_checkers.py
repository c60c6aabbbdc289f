import random
from fractions import Fraction

import pytest

from algebroid.catalog import catalog_get, courant_standard, tangent_lie, witt_line
from algebroid.checkers import (
    PROFILES,
    check_all_profiles,
    check_profile,
    derive_nonasym_consequences,
    verify_anchor_morphism,
    verify_equivalence_A1_A2,
    verify_prop_64,
)
from algebroid.exactmath import Poly, parse_poly
from algebroid.funmodel import (
    AlgebroidStructure,
    AnchorMap,
    BiDiffOp,
    DCochain,
    DiffOp,
    Pairing,
    Section,
    conjugate,
    function_inputs,
    section_inputs,
)
from algebroid import structures as st


def constant_structure(rank, pairing_diag=None, d_first=0, skew=False):
    """Rank-r structure over one variable with zero product and anchor,
    an optional diagonal pairing, and D = (d_first * d/dx) e_1."""
    n = 1
    mult = BiDiffOp(rank, n, [])
    anchor = AnchorMap(n, rank, [[Poly.zero(n)] * rank])
    pairing = None
    if pairing_diag is not None:
        g = [
            [Poly.constant(n, pairing_diag[i] if i == j else 0) for j in range(rank)]
            for i in range(rank)
        ]
        pairing = Pairing(rank, n, g)
    comps = [DiffOp(n, {(1,): d_first} if k == 0 else None) for k in range(rank)]
    return AlgebroidStructure(rank, n, mult, anchor, pairing, DCochain(rank, n, comps), skew=skew)


# --- profile checks -------------------------------------------------------


def test_unknown_profile():
    with pytest.raises(ValueError):
        check_profile(witt_line(), "frobenius")


def test_missing_decorations():
    S = tangent_lie(1)  # no pairing, no D
    with pytest.raises(ValueError):
        check_profile(S, "cc")
    with pytest.raises(ValueError):
        check_profile(S, "courant")
    with pytest.raises(ValueError):
        check_profile(S, "nonasym-courant")


def test_skew_flag_gate():
    S = constant_structure(2, pairing_diag=[1, 1], skew=False)
    with pytest.raises(ValueError):
        check_profile(S, "lie")
    # non-skew allowed for kv and nonasym-courant
    assert check_profile(S, "kv").passed
    assert check_profile(S, "nonasym-courant").passed


def test_skew_declaration_verified_not_assumed():
    # declared skew but actually symmetric: mu(s,s') = s_1 s'_1 e_1
    n = 1
    mult = BiDiffOp(1, n, [(0, 0, 0, (0,), (0,), 1)])
    S = AlgebroidStructure(1, n, mult, AnchorMap(n, 1, [[Poly.zero(n)]]), skew=True)
    report = check_profile(S, "lie")
    assert "skew" in report.failing_labels()


def test_witt_line_profiles():
    S = witt_line()
    assert check_profile(S, "cc").passed
    courant = check_profile(S, "courant")
    assert courant.failing_labels() == ["Ax2", "Ax4"]
    lie = check_profile(S, "lie")
    assert lie.failing_labels() == ["P2"]


def test_jacobi_factor_is_explicit():
    S = catalog_get("courant-standard-2").structure
    courant, cc = check_profile(S, "courant"), check_profile(S, "cc")
    assert (courant.entry("Ax1").note, cc.entry("r1").note) == ("jacobi_factor=3", "jacobi_factor=1")
    # cc at factor 3, whose r1 is the courant row Ax1, passes; at factor 1
    # r1 fails on Courant
    assert courant.entry("Ax1").passed and cc.failing_labels() == ["r1"]


def test_report_overall_is_conjunction():
    report = check_profile(witt_line(), "courant")
    assert report.passed == all(e.passed for e in report.entries)
    assert not report.passed


def test_witnesses_reevaluate_nonzero():
    for name in ("witt-line", "poisson-cotangent-nonpoisson"):
        S = catalog_get(name).structure
        for profile in PROFILES:
            try:
                report = check_profile(S, profile)
            except ValueError:
                continue
            for entry in report.entries:
                if entry.witness is not None:
                    # residual object is nonzero by construction; re-check
                    assert not entry.witness.residual.is_zero()


def test_check_all_profiles_matrix():
    matrix = check_all_profiles(tangent_lie(1))
    assert matrix["lie"].passed
    assert isinstance(matrix["cc"], str)  # missing pairing/D reported as message


def _verdicts(matrix):
    return {
        p: r if isinstance(r, str) else r.failing_labels() for p, r in matrix.items()
    }


def test_check_all_profiles_courant_standard_4():
    assert _verdicts(check_all_profiles(courant_standard(4))) == {
        "lie": ["P1", "P2"],
        "kv": ["3i", "3ii", "3iii"],
        "cc": ["r1"],
        "courant": [],
        "nonasym-courant": ["R1", "R2"],
    }


def test_check_all_profiles_tangent_lie_5():
    assert _verdicts(check_all_profiles(tangent_lie(5))) == {
        "lie": [],
        "kv": ["3i", "3ii"],
        "cc": "profile 'cc' needs a pairing",
        "courant": "profile 'courant' needs a pairing",
        "nonasym-courant": "profile 'nonasym-courant' needs a pairing",
    }


def test_check_all_profiles_lets_builder_errors_through(monkeypatch):
    # only a missing requirement means "not applicable"
    def broken(S):
        raise ValueError("builder failure")

    monkeypatch.setattr(st, "kv_anomaly_op", broken)
    with pytest.raises(ValueError, match="builder failure"):
        check_all_profiles(tangent_lie(1))


# --- anchor morphism -------------------------------------------------------


def test_anchor_morphism_witt_witness():
    w = verify_anchor_morphism(witt_line())
    assert w is not None
    one = Section([parse_poly("1", 1)])
    x = Section([parse_poly("x1", 1)])
    assert w.inputs == (one, x)
    assert w.residual == DiffOp(1, {(1,): -2})


def test_anchor_morphism_witness_is_first_in_product_order():
    structures = [
        witt_line(),
        conjugate(witt_line(), [[-2]]),
        catalog_get("poisson-cotangent-nonpoisson").structure,
        conjugate(
            catalog_get("poisson-cotangent-nonpoisson").structure,
            [[0, 2, 0], [0, 0, -1], [Fraction(1, 2), 0, 0]],
        ),
    ]
    for S in structures:
        defect = st.anchor_morphism_defect_op(S)
        pool = section_inputs(S.rank, S.base_dim, defect.order() + 1)
        first = next(
            (s, sp)
            for s in pool
            for sp in pool
            if not defect.bind(0, s).bind(0, sp).is_zero()
        )
        w = verify_anchor_morphism(S)
        assert w.inputs == first
        assert not w.residual.is_zero()
        for f in function_inputs(S.base_dim, defect.order() + 1):
            assert w.residual.apply(f) == defect.apply(*first, f)


def test_anchor_morphism_pass_on_lie():
    assert verify_anchor_morphism(tangent_lie(2)) is None
    assert verify_anchor_morphism(catalog_get("courant-standard-2").structure) is None


def test_anchor_morphism_needs_skew():
    S = constant_structure(2, skew=False)
    with pytest.raises(ValueError):
        verify_anchor_morphism(S)


# --- equivalence and rank-gated consequences -------------------------------


def test_equivalence_witt():
    report = verify_equivalence_A1_A2(witt_line())
    assert (report.a1, report.a2) == (False, False)
    assert report.agree and report.diagnostic == ""
    assert report.a1_witness is not None and report.a2_witness is not None


def test_equivalence_standard_courant():
    report = verify_equivalence_A1_A2(catalog_get("courant-standard-2").structure)
    assert (report.a1, report.a2) == (True, True)


def test_equivalence_zero_structure():
    S = constant_structure(2, pairing_diag=[1, 1], skew=True)
    report = verify_equivalence_A1_A2(S)
    assert (report.a1, report.a2) == (True, True)


def test_equivalence_rejects_non_cc():
    S = catalog_get("poisson-cotangent").structure  # no pairing
    with pytest.raises(ValueError):
        verify_equivalence_A1_A2(S)


def test_prop64_rank_gate():
    with pytest.raises(ValueError) as exc:
        verify_prop_64(witt_line())
    assert "witt-line" in str(exc.value)


def test_prop64_standard_courant():
    for n in (2, 3):
        report = verify_prop_64(catalog_get(f"courant-standard-{n}").structure)
        assert report.passed
        assert [e.label for e in report.entries] == ["i", "ii", "iii"]


# --- non-asymmetric consequences --------------------------------------------


def test_nonasym_zero_structure_all_pass():
    S = constant_structure(3, pairing_diag=[1, 1, 1])
    report = derive_nonasym_consequences(S)
    assert report.passed
    assert report.profile.passed
    assert "skipped" not in report.anchor_identity.note


def test_nonasym_rank2_skips_anchor_identity():
    S = constant_structure(2, pairing_diag=[1, 1])
    report = derive_nonasym_consequences(S)
    assert "skipped" in report.anchor_identity.note


def test_nonasym_injected_D_yields_forcing_witness():
    S = constant_structure(3, pairing_diag=[1, 1, 1], d_first=1)
    report = derive_nonasym_consequences(S)
    assert not report.d_forced_zero.passed
    assert report.d_forced_zero.witness is not None
    assert not report.d_forced_zero.witness.residual.is_zero()


def test_nonasym_requires_decorations():
    with pytest.raises(ValueError):
        derive_nonasym_consequences(tangent_lie(2))
