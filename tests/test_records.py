"""The records: named tuples and plain classes with the same fields,
defaults, properties and text, a lean import, and a catalog built on
demand."""

import subprocess
import sys
from pathlib import Path

import pytest

from algebroid import catalog
from algebroid.catalog import CatalogEntry, catalog_get, catalog_names
from algebroid.checkers import (
    AxiomEntry,
    AxiomReport,
    EquivalenceReport,
    NonasymReport,
    check_profile,
)
from algebroid.exactmath import Poly
from algebroid.fileformat import ParsedDocument, parse_document, serialize_structure
from algebroid.funmodel import AlgebroidStructure, AnchorMap, BiDiffOp, Section, Witness
from algebroid.kvfin import BracketReport, ClanReport, clan_classify

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_pulls_in_neither_dataclasses_nor_inspect():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import algebroid.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "algebroid.cli" in out
    assert "dataclasses" not in out and "inspect" not in out


def test_catalog_entries_are_built_on_demand(monkeypatch):
    monkeypatch.setattr(catalog, "_BUILT", {})
    names = catalog_names()
    assert len(names) == 12 and names == sorted(names)
    assert catalog._BUILT == {}
    entry = catalog_get("courant-standard-2")
    assert list(catalog._BUILT) == ["courant-standard-2"]
    assert catalog_get("courant-standard-2") is entry
    assert entry.structure.rank == 4 and entry.passes == ("courant",)
    with pytest.raises(KeyError):
        catalog_get("nope")
    assert list(catalog._BUILT) == ["courant-standard-2"]


def test_record_fields_and_defaults():
    records = {
        Witness: (("inputs", "residual"), {}),
        AxiomEntry: (("label", "passed", "witness", "note"), {"witness": None, "note": ""}),
        EquivalenceReport: (("a1", "a2", "a1_witness", "a2_witness"), {}),
        NonasymReport: (
            ("profile", "leibniz_identity", "anchor_identity", "d_forced_zero",
             "rho_forced_zero"),
            {},
        ),
        BracketReport: (("constants", "jacobi_ok", "witness"), {}),
        ClanReport: (
            ("verdict", "kv", "cocycle", "invariant", "definite", "nondegenerate",
             "kv_witness", "invariance_witness"),
            {"kv_witness": None, "invariance_witness": None},
        ),
        CatalogEntry: (
            ("name", "kind", "structure", "algebra", "form", "note", "passes", "fails"),
            {"structure": None, "algebra": None, "form": None, "note": "",
             "passes": (), "fails": ()},
        ),
    }
    for cls, (fields, defaults) in records.items():
        assert cls._fields == fields
        assert cls._field_defaults == defaults
        assert cls.__slots__ == ()
        with pytest.raises(AttributeError):
            cls(*range(len(fields))).extra = 1
    entry = AxiomEntry("P1", False)
    assert entry == AxiomEntry("P1", False, None, "") and entry != AxiomEntry("P1", True)
    assert str(entry) == "AxiomEntry(label='P1', passed=False, witness=None, note='')"
    with pytest.raises(AttributeError):
        entry.passed = True


def test_record_properties_and_text():
    w = Witness((Section([Poly.constant(1, 1)]),), Poly.constant(1, 2))
    assert str(w) == "inputs=((1)); residual=2"
    report = AxiomReport("kv")
    assert report.entries == [] and report.entries is not AxiomReport("kv").entries
    report.entries += [AxiomEntry("3i", True), AxiomEntry("3ii", False, w, "n")]
    assert not report.passed and report.failing_labels() == ["3ii"]
    assert report.entry("3ii").witness is w
    with pytest.raises(KeyError):
        report.entry("3iii")
    assert str(report) == (
        "profile kv: FAIL\n  3i: pass\n  3ii: FAIL  [inputs=((1)); residual=2]  (n)"
    )
    assert report == AxiomReport("kv", list(report.entries)) != AxiomReport("lie")
    assert repr(AxiomReport("p")) == "AxiomReport(profile='p', entries=[])"

    equivalence = EquivalenceReport(True, False, None, w)
    assert not equivalence.agree and "theorem-violation" in equivalence.diagnostic
    assert EquivalenceReport(True, True, None, None).diagnostic == ""

    good, bad = AxiomEntry("a", True), AxiomEntry("b", False)
    nonasym = NonasymReport(report, good, good, bad, good)
    assert not nonasym.passed and nonasym.entries == [good, good, bad, good]
    assert NonasymReport(report, good, good, good, good).passed

    clan = clan_classify(catalog_get("clan-84").algebra, catalog_get("clan-84").form)
    assert clan.verdict == "clan" and clan.kv_witness is None
    assert clan.sub_verdicts == {
        "kv": True, "cocycle": True, "invariant": True, "definite": True,
        "nondegenerate": True,
    }

    doc = ParsedDocument("kvalgebra", "n")
    assert (doc.structure, doc.algebra, doc.form) == (None, None, None)
    assert doc == ParsedDocument("kvalgebra", "n") != ParsedDocument("kvalgebra", "m")
    assert str(doc) == (
        "ParsedDocument(kind='kvalgebra', name='n', structure=None, algebra=None, form=None)"
    )


def test_structure_rejects_parts_of_the_wrong_rank():
    S = catalog_get("tangent-lie-2").structure
    with pytest.raises(ValueError, match="rank/base_dim"):
        AlgebroidStructure(3, 2, S.mult_op(), S.anchor_op(), skew=True)
    with pytest.raises(ValueError, match="rank/base_dim"):
        AlgebroidStructure(
            2, 2, S.mult_op(), AnchorMap(2, 1, [[Poly.zero(2)], [Poly.zero(2)]]), skew=True
        )
    with pytest.raises(ValueError, match="rank/base_dim"):
        AlgebroidStructure(
            2, 2, S.mult_op(), S.anchor_op(), catalog_get("witt-line").structure.pairing_op(),
            skew=True,
        )
    T = AlgebroidStructure(2, 2, S.mult_op(), S.anchor_op(), skew=True)
    assert T == S and T.pairing is None and T.d_cochain is None
    assert T != AlgebroidStructure(2, 2, BiDiffOp(2, 2, []), S.anchor_op(), skew=True)
    assert check_profile(T, "lie").passed


def test_every_function_model_entry_round_trips_through_a_file():
    for name in catalog_names():
        S = catalog_get(name).structure
        if S is not None:
            assert parse_document(serialize_structure(S, name)).structure == S
