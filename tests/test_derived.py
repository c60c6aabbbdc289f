"""The derived checks against recorded reports, and the presence tests
that read operator slots, not views.

`verify_equivalence_A1_A2`, `verify_prop_64` and
`derive_nonasym_consequences` are courant-profile identities under new
labels. RECORDED holds, per input, a digest of the three reports (or the
ValueError each raises), recorded from verifiers that built each identity
on their own paths, so reading the rows must give `==` reports. The
inputs: witt-line, courant-standard-2/3, the frame changes [[I, 0],
[B, I]] of courant_standard(n) with a polynomial B for n = 2..4 (rank
4-8, polynomial coefficients), the seeded CC sweep of `test_acceptance`,
and the constant non-skew structures of `test_checkers` and
`test_acceptance`.
"""

import hashlib
import io
import random

from algebroid.catalog import catalog_get, courant_standard
from algebroid.checkers import (
    check_all_profiles,
    derive_nonasym_consequences,
    verify_equivalence_A1_A2,
    verify_prop_64,
)
from algebroid.cli import run
from algebroid.exactmath import Poly, parse_poly
from algebroid.funmodel import AlgebroidStructure, conjugate
from test_acceptance import _constant_structure_with_d, _random_cc_structures
from test_checkers import constant_structure

# n -> the nonzero entries (a, b, B_ab) of a polynomial matrix B. A closed
# skew B (every skew B at n = 2) would give courant_standard(n) back, so
# each B has a symmetric part or a skew part that is not closed.
SHEARS = {
    2: [(0, 1, "x1*x2"), (1, 0, "x1"), (1, 1, "x2")],
    3: [(0, 1, "x3"), (1, 0, "-x3"), (1, 2, "x1^2"), (2, 2, "1 - x2")],
    4: [(0, 1, "x1*x2"), (1, 0, "x3"), (2, 3, "x4^2"), (3, 3, "x1")],
}

# (pairing diagonal, D) of test_acceptance's criterion 6
FORCED = [
    ([1, 1, 1], [1, 0, 0]),
    ([1, 1, 1], [0, -2, 0]),
    ([2, 1, 3], [0, 0, 1]),
    ([1, -1, 2], [1, 1, 1]),
    ([3, 2, 1], [0, 5, -1]),
]


def shear(n):
    """The frame [[I, 0], [B, I]] of courant_standard(n) for SHEARS[n]."""
    A = [[Poly.constant(n, int(i == j)) for j in range(2 * n)] for i in range(2 * n)]
    for a, b, text in SHEARS[n]:
        A[n + a][b] = parse_poly(text, n)
    return A


def derived_inputs():
    named = [
        (name, catalog_get(name).structure)
        for name in ("witt-line", "courant-standard-2", "courant-standard-3")
    ]
    named += [(f"shear-{n}", conjugate(courant_standard(n), shear(n))) for n in SHEARS]
    sweep = _random_cc_structures(random.Random(42), 20)
    named += [(f"sweep-{k}", S) for k, S in enumerate(sweep)]
    named += [
        ("zero-3", constant_structure(3, pairing_diag=[1, 1, 1])),
        ("zero-2", constant_structure(2, pairing_diag=[1, 1])),
        ("injected-d", constant_structure(3, pairing_diag=[1, 1, 1], d_first=1)),
    ]
    for k, (diag, d_vec) in enumerate(FORCED):
        named.append((f"forced-{k}", _constant_structure_with_d(diag, d_vec)))
        named.append((f"forced-{k}-zero", _constant_structure_with_d(diag, [0, 0, 0])))
    return named


def reports_digest(S) -> str:
    """sha256 (16 hex digits) of the three reports' reprs, or the
    ValueError each check raises."""
    texts = []
    for check in (verify_equivalence_A1_A2, verify_prop_64, derive_nonasym_consequences):
        try:
            texts.append(repr(check(S)))
        except ValueError as exc:
            texts.append(f"ValueError: {exc}")
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]


RECORDED = {
    "witt-line": "bea0b9f24ff98960",
    "courant-standard-2": "f96367e149a44066",
    "courant-standard-3": "bf666899f3799204",
    "shear-2": "e9f32e76d9daf597",
    "shear-3": "4bbdbe7feb3cff18",
    "shear-4": "3e765c130ef59bb0",
    "sweep-0": "1ac321dcb062b182",
    "sweep-1": "c76779a80f122d9d",
    "sweep-2": "acf615a86a18ee53",
    "sweep-3": "85f9f1b4ea24b71c",
    "sweep-4": "f96367e149a44066",
    "sweep-5": "b4fcdf618b21bfc8",
    "sweep-6": "85f9f1b4ea24b71c",
    "sweep-7": "34012bb097fea31e",
    "sweep-8": "b4fcdf618b21bfc8",
    "sweep-9": "85f9f1b4ea24b71c",
    "sweep-10": "daa7d288cf8b3e9b",
    "sweep-11": "acf615a86a18ee53",
    "sweep-12": "f54689d689d3e394",
    "sweep-13": "daa7d288cf8b3e9b",
    "sweep-14": "acf615a86a18ee53",
    "sweep-15": "85f9f1b4ea24b71c",
    "sweep-16": "4b0adb589ddde397",
    "sweep-17": "acf615a86a18ee53",
    "sweep-18": "589bdb06417245a9",
    "sweep-19": "9be03335348e55c0",
    "zero-3": "db8f4775003914da",
    "zero-2": "6b6722ef338a7bcc",
    "injected-d": "ca9b9583d679b7ea",
    "forced-0": "ca9b9583d679b7ea",
    "forced-0-zero": "db8f4775003914da",
    "forced-1": "c83076d6f45f2a87",
    "forced-1-zero": "db8f4775003914da",
    "forced-2": "b8e9b5d1502ec1b6",
    "forced-2-zero": "db8f4775003914da",
    "forced-3": "c1d5bc72ba6a99d5",
    "forced-3-zero": "db8f4775003914da",
    "forced-4": "05e1a554eacc9d8a",
    "forced-4-zero": "db8f4775003914da",
}


def test_derived_reports_match_the_records():
    got = {name: reports_digest(S) for name, S in derived_inputs()}
    assert got == RECORDED


def test_presence_tests_decode_no_view(monkeypatch):
    """With every view property raising, the capability matrix and
    `anomalies` give the same bytes: presence is read off the slots."""
    S = catalog_get("courant-standard-2").structure
    argv = [
        "anomalies", "--catalog", "courant-standard-2",
        "1,0,x1,0", "0,x2,1,0", "x1,0,0,1", "--function", "x1*x2",
    ]

    def outputs():
        out, err = io.StringIO(), io.StringIO()
        code = run(argv, out, err)
        return str(check_all_profiles(S)), code, out.getvalue(), err.getvalue()

    before = outputs()

    def decode(self):
        raise AssertionError("a view was decoded")

    for view in ("mult", "anchor", "pairing", "d_cochain"):
        monkeypatch.setattr(AlgebroidStructure, view, property(decode))
    assert outputs() == before
