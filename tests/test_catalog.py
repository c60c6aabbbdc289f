import pytest

from algebroid.catalog import (
    catalog_get,
    catalog_names,
    clan_84,
    poisson_cotangent_nonpoisson,
    vinberg_83,
)
from algebroid.checkers import check_profile
from algebroid.funmodel import find_witness
from algebroid.kvfin import clan_classify, kv_defect_fin
from algebroid import structures as st


def test_names_stable_and_sorted():
    names = catalog_names()
    assert names == sorted(names)
    assert "witt-line" in names and "clan-84-as-printed" in names


def test_unknown_name_lists_available():
    with pytest.raises(KeyError) as exc:
        catalog_get("nope")
    assert "witt-line" in str(exc.value)


def test_every_entry_passes_and_fails_as_documented():
    for name in catalog_names():
        entry = catalog_get(name)
        if entry.kind != "function-model":
            continue
        for profile in entry.passes:
            report = check_profile(entry.structure, profile)
            assert report.passed, (name, profile, str(report))
        for profile, labels in entry.fails:
            report = check_profile(entry.structure, profile)
            assert tuple(report.failing_labels()) == labels, (name, profile)


def test_witt_line_shape():
    entry = catalog_get("witt-line")
    assert entry.structure.rank == 1 and entry.structure.base_dim == 1


def test_tangent_lie_passes_lie():
    for n in (1, 2, 3):
        assert check_profile(catalog_get(f"tangent-lie-{n}").structure, "lie").passed


def test_courant_standard_rank():
    for n in (1, 2, 3):
        S = catalog_get(f"courant-standard-{n}").structure
        assert S.rank == 2 * n and S.base_dim == n


def test_poisson_cotangent_is_lie():
    assert check_profile(catalog_get("poisson-cotangent").structure, "lie").passed


def test_nonpoisson_variant_has_jacobiator_witness():
    S = poisson_cotangent_nonpoisson()
    J = st.jacobiator_op(S)
    assert not J.is_zero()
    w = find_witness(J)
    assert not w.residual.is_zero()
    # skew and Leibniz still hold: only P1 fails
    report = check_profile(S, "lie")
    assert report.failing_labels() == ["P1"]


def test_finite_entries_classify():
    assert clan_classify(*vinberg_83()).verdict == "pseudo-clan"
    assert clan_classify(*clan_84()).verdict == "clan"
    assert clan_classify(*clan_84(as_printed=True)).verdict == "neither"


def test_vinberg_variants_kv():
    for a, b in ((1, 1), (2, -1)):
        A, form = vinberg_83(a, b)
        assert kv_defect_fin(A) is None
        assert form.matrix[0][0] == a and form.matrix[1][1] == -a


def test_entries_immutable_constants():
    assert catalog_get("witt-line") is catalog_get("witt-line")
