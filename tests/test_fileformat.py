import ast
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroid.catalog import catalog_get, catalog_names, courant_standard, tangent_lie
from algebroid.exactmath import MAX_LITERAL_DIGITS, Poly
from algebroid.fileformat import (
    MAX_BASE_DIM,
    MAX_KV_DIM,
    MAX_MULT_TERMS,
    MAX_RANK,
    _SECTIONS,
    FormatError,
    ParsedDocument,
    parse_document,
    serialize_document,
    serialize_kvalgebra,
    serialize_structure,
)
from algebroid.funmodel import AlgebroidStructure, AnchorMap, BiDiffOp
from algebroid.kvfin import FinKVAlgebra, SymForm
from format_corpus import FORMAT_CORPUS, mismatches, mult_terms

WITT = """\
[structure]
name witt
base_dim 1
rank 1
skew true
[mult]
0 0 0 0 1 1
0 0 0 1 0 -1
[anchor]
0 0 2*x1
[pairing]
0 0 1
[dcochain]
0 1 2
"""

KV = """\
[kvalgebra]
name demo
dim 2
1 0 0 1
[form]
0 0 1
1 1 3/2
"""


def test_parse_structure_basics():
    doc = parse_document(WITT)
    assert doc.kind == "structure" and doc.name == "witt"
    S = doc.structure
    assert S.rank == 1 and S.base_dim == 1 and S.mult.skew
    assert S.pairing is not None and S.d_cochain is not None


def test_parse_kvalgebra_basics():
    doc = parse_document(KV)
    assert doc.kind == "kvalgebra" and doc.name == "demo"
    assert doc.algebra.c[0][0][1] == 1
    assert doc.form.matrix[1][1] == pytest.approx(1.5)
    assert doc.form.matrix[0][1] == 0


def test_round_trip_all_catalog_entries():
    for name in catalog_names():
        entry = catalog_get(name)
        if entry.kind == "function-model":
            text = serialize_structure(entry.structure, name)
        else:
            text = serialize_kvalgebra(entry.algebra, entry.form, name)
        doc = parse_document(text)
        assert serialize_document(doc) == text  # bit-stable
        # and a second round trip is identical too
        assert serialize_document(parse_document(serialize_document(doc))) == text


def test_comments_and_blank_lines_ignored():
    doc = parse_document("# header\n\n" + WITT.replace("0 0 1\n", "0 0 1  # unit\n"))
    assert doc.structure.pairing.matrix[0][0].is_constant()


def test_pairing_symmetry_completed():
    text = WITT.replace("rank 1", "rank 2").replace("[pairing]\n0 0 1", "[pairing]\n0 1 5")
    S = parse_document(text).structure
    assert S.pairing.matrix[0][1] == S.pairing.matrix[1][0]


def test_pairing_conflict_and_duplicate():
    base = WITT.replace("rank 1", "rank 2")
    with pytest.raises(FormatError, match="conflicting"):
        parse_document(base.replace("[pairing]\n0 0 1", "[pairing]\n0 1 5\n1 0 6"))
    with pytest.raises(FormatError, match="duplicate"):
        parse_document(base.replace("[pairing]\n0 0 1", "[pairing]\n0 1 5\n1 0 5"))


def test_error_positions():
    bad = WITT.replace("0 0 0 0 1 1", "0 0 0 0 1 x1 + * 2")
    with pytest.raises(FormatError) as exc:
        parse_document(bad)
    assert exc.value.line == 7
    assert exc.value.column is not None
    assert "line 7" in str(exc.value)


def test_indented_coefficient_error_column():
    bad = WITT.replace("0 0 0 0 1 1", "    0 0 0 0 0 1+*x1")
    with pytest.raises(FormatError) as exc:
        parse_document(bad)
    assert (exc.value.line, exc.value.column) == (7, 17)  # the '*', in the raw line
    assert str(exc.value) == "line 7, column 17: bad polynomial: expected polynomial atom"


def test_coefficient_error_column_in_each_section():
    cases = (
        ("[anchor]\n0 0 2*x1", "[anchor]\n\t0  0 2*x1)", 10, 11),
        ("[pairing]\n0 0 1", "[pairing]\n  0 0 1 ? 2", 12, 9),
        ("[dcochain]\n0 1 2", "[dcochain]\n0 1   x1^x1", 14, 10),
        # errors found after reading a token point at the token's start
        ("[dcochain]\n0 1 2", "[dcochain]\n0 1   x2", 14, 7),
        ("[dcochain]\n0 1 2", "[dcochain]\n0 1 1/0", 14, 7),
        ("[dcochain]\n0 1 2", "[dcochain]\n0 1 x1 + 3/ 0", 14, 13),
    )
    for old, new, line, column in cases:
        with pytest.raises(FormatError) as exc:
            parse_document(WITT.replace(old, new))
        assert (exc.value.line, exc.value.column) == (line, column)
        assert "(at column" not in str(exc.value)


def test_index_out_of_range_reports_entry_line():
    struct = WITT.replace("rank 1", "rank 2")
    cases = (
        (struct.replace("0 0 0 1 0 -1", "0 0 5 1 0 -1"), 8,
         "mult component index out of range: 0 0 5"),
        (struct.replace("0 0 2*x1", "0 0 2*x1\n1 0 x1"), 11, "anchor index out of range: 1 0"),
        (struct.replace("[pairing]\n0 0 1", "[pairing]\n0 0 1\n3 1 1"), 13,
         "pairing index out of range: 1 3"),
        (struct.replace("0 1 2", "0 1 2\n\n2 0 1"), 16, "dcochain component out of range: 2"),
        (KV.replace("1 0 0 1", "1 0 0 1\n0 2 1 1"), 5, "product index out of range: 0 2 1"),
        (KV + "# a comment\n3 0 1\n", 9, "form index out of range: 0 3"),
    )
    for text, line, message in cases:
        with pytest.raises(FormatError) as exc:
            parse_document(text)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {message}"


def test_missing_required_key():
    with pytest.raises(FormatError, match="base_dim"):
        parse_document("[structure]\nrank 1\nskew true\n")


def error_of(text):
    with pytest.raises(FormatError) as exc:
        parse_document(text)
    return str(exc.value)


def test_unknown_header_keys_are_errors():
    """Each kind allows its own header keys; a misspelt `skew` no longer
    reads as skew false."""
    assert error_of(WITT.replace("skew true", "skw true")) == "line 5: unknown key 'skw' in [structure]"
    assert error_of(KV.replace("dim 2", "dim 2\nrank 5")) == "line 4: unknown key 'rank' in [kvalgebra]"
    assert error_of("[structure]\nbase_dim 1\nrank 1\ndim 3\n") == (
        "line 4: unknown key 'dim' in [structure]"
    )
    assert error_of(KV.replace("name demo", "skew true")) == "line 2: unknown key 'skew' in [kvalgebra]"


def test_each_section_at_most_once():
    assert error_of(WITT + "[mult]\n0 0 0 0 0 1\n") == "line 15: repeated section [mult]"
    assert error_of(KV + "[form]\n0 1 1\n") == "line 8: repeated section [form]"
    assert error_of("[structure]\nbase_dim 1\nrank 1\n[structure]\nskew true\n") == (
        "line 4: repeated section [structure]"
    )
    # a second [structure] can no longer bring rank after the data that needs it
    text = "[structure]\nbase_dim 1\n[mult]\n0 0 0 0 0 1\n[structure]\nrank 1\n"
    assert error_of(text) == "line 4: missing required key 'rank'"


def test_repeated_mult_lines_add_up():
    split = WITT.replace("0 0 0 0 1 1", "0 0 0 0 1 x1\n0 0 0 0 1 1 - x1")
    assert parse_document(split) == parse_document(WITT)
    cancel = WITT.replace("0 0 0 0 1 1", "0 0 0 0 1 1\n0 0 0 0 1 -1")
    assert len(parse_document(cancel).structure.mult.terms) == 1


def test_keys_come_before_the_data_that_reads_them():
    assert error_of("[kvalgebra]\n0 0 0 1\ndim 1\n") == "line 2: missing required key 'dim'"
    # a missing key is reported at the first data line that reads it ...
    assert error_of("[structure]\nbase_dim 1\n[anchor]\n\n0 0 x1\n") == (
        "line 5: missing required key 'rank'"
    )
    # ... or, in a file with none, at its last line
    assert error_of("[structure]\nbase_dim 1\n# no rank\n") == "line 3: missing required key 'rank'"
    # name reads nothing, so it may follow the products
    doc = parse_document("[kvalgebra]\ndim 1\n0 0 0 1\nname late\n")
    assert doc.name == "late" and doc.algebra.c[0][0][0] == 1


def test_signed_product_line_is_data():
    """A data line may start with `+`, as every index field may: no header
    key starts with one."""
    signed = parse_document(KV.replace("1 0 0 1", "+1 0 0 1"))
    assert signed == parse_document(KV)
    assert signed.algebra.c[0][0][1] == 1


def test_dcochain_order_above_one_is_a_format_error():
    """D is a first-order operator, so a [dcochain] term of order 2 is a
    format error at its line, like the other multi-index errors."""
    text = "[structure]\nbase_dim 2\nrank 1\nskew false\n[dcochain]\n0 1,0 1\n0 1,1 x1\n"
    assert error_of(text) == "line 7: multi-index '1,1' has order 2, expected at most 1"
    assert error_of(WITT.replace("0 1 2", "0 2 2")) == (
        "line 14: multi-index '2' has order 2, expected at most 1"
    )


def test_first_error_in_line_order():
    """Each line is checked completely when it is read, ranges included, so
    the error reported is the first in the file, whatever its section."""
    text = (
        "[structure]\nbase_dim 1\nrank 1\nskew true\n"
        "[anchor]\n0 3 x1\n[mult]\n0 0 5 0 1 1\n0 0 0 1 0 1+*\n"
    )
    assert error_of(text) == "line 6: anchor index out of range: 0 3"
    assert error_of(text.replace("0 3 x1", "0 0 x1")) == "line 8: mult component index out of range: 0 0 5"
    assert error_of(text.replace("rank 1", "rank 99")) == "line 3: rank 99 exceeds the limit 16"
    assert error_of(text.replace("skew true", "skew yes")) == "line 4: skew must be true or false"
    kv = "[kvalgebra]\ndim 2\n0 2 0 1\n0 0 0 x\n[form]\n0 5 1\n"
    assert error_of(kv) == "line 3: product index out of range: 0 2 0"
    # within one line the value comes before the ranges
    in_range = text.replace("0 3 x1", "0 0 x1")
    assert error_of(in_range.replace("0 0 5 0 1 1", "0 0 5 0 1 x2")).startswith("line 8, column 11:")


def test_format_corpus_gives_the_recorded_output():
    assert mismatches() == []


def message_patterns():
    """A regular expression for each FormatError message in fileformat.py,
    any formatted part matching any text."""
    source = Path(__file__).resolve().parent.parent / "src" / "algebroid" / "fileformat.py"

    def pattern(node):
        if isinstance(node, ast.Constant):
            return re.escape(node.value)
        if isinstance(node, ast.JoinedStr):
            return "".join(pattern(part) for part in node.values)
        if isinstance(node, ast.BinOp):  # "text" + " ".join(...)
            return pattern(node.left) + ".+"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "format":  # "...{}...".format(...)
                return ".+".join(map(re.escape, node.func.value.value.split("{}")))
        return ".+"

    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "FormatError":
            if node.args:
                yield pattern(node.args[0])


def test_format_corpus_covers_every_message_and_section():
    errors = [case.err for case in FORMAT_CORPUS if case.code == 2]
    assert len(errors) >= 40
    patterns = list(message_patterns())
    assert len(patterns) >= 25
    for regex in patterns:
        assert any(re.search(f"line \\d+(, column \\d+)?: {regex}\n", err) for err in errors), regex
    for section in ("structure", "mult", "anchor", "pairing", "dcochain", "kvalgebra", "form"):
        assert any(f"[{section}]" in case.text for case in FORMAT_CORPUS), section
    # entries with two or more errors
    assert sum("-then-" in case.label for case in FORMAT_CORPUS) >= 5


def test_duplicate_head_key():
    with pytest.raises(FormatError, match="duplicate key"):
        parse_document("[structure]\nrank 1\nrank 2\nbase_dim 1\n")


def test_bad_multi_index_length():
    bad = WITT.replace("0 0 0 0 1 1", "0 0 0 0,0 1 1")
    with pytest.raises(FormatError, match="multi-index"):
        parse_document(bad)


def test_unknown_section():
    with pytest.raises(FormatError, match="unknown section"):
        parse_document("[structure]\nbase_dim 1\nrank 1\n[bogus]\n")


def test_wrong_opening_section():
    with pytest.raises(FormatError, match="must open"):
        parse_document("[mult]\n0 0 0 0 0 1\n")


def test_content_before_header():
    with pytest.raises(FormatError, match="before the first section"):
        parse_document("dim 2\n[kvalgebra]\n")


def test_empty_document():
    with pytest.raises(FormatError, match="empty document"):
        parse_document("# nothing here\n\n")


def test_index_out_of_range():
    with pytest.raises(FormatError, match="out of range"):
        parse_document(WITT.replace("[anchor]\n0 0 2*x1", "[anchor]\n0 3 2*x1"))
    with pytest.raises(FormatError, match="out of range"):
        parse_document(KV.replace("1 0 0 1", "5 0 0 1"))


def test_kv_dim_limit():
    at_limit = KV.replace("dim 2", f"dim {MAX_KV_DIM}")
    assert parse_document(at_limit).algebra.dim == MAX_KV_DIM
    for dim in (MAX_KV_DIM + 1, 400, 2000, 10**12):
        with pytest.raises(FormatError) as exc:
            parse_document(KV.replace("dim 2", f"dim {dim}"))
        assert str(exc.value) == f"line 3: dim {dim} exceeds the limit {MAX_KV_DIM}"
        assert exc.value.line == 3


def test_rank_and_base_dim_limits():
    """rank and base_dim are refused just above their limits, at the line
    of their header key, also when a data line is the first to read them."""
    plain = "[structure]\nbase_dim {}\nrank {}\nskew false\n"
    S = parse_document(plain.format(MAX_BASE_DIM, MAX_RANK)).structure
    assert (S.base_dim, S.rank) == (MAX_BASE_DIM, MAX_RANK)
    for text, message in (
        (plain.format(1, MAX_RANK + 1), f"line 3: rank {MAX_RANK + 1} exceeds the limit {MAX_RANK}"),
        (plain.format(1, 200000), f"line 3: rank 200000 exceeds the limit {MAX_RANK}"),
        (plain.format(1, 10**12), f"line 3: rank {10**12} exceeds the limit {MAX_RANK}"),
        (
            plain.format(MAX_BASE_DIM + 1, 1),
            f"line 2: base_dim {MAX_BASE_DIM + 1} exceeds the limit {MAX_BASE_DIM}",
        ),
        (
            WITT.replace("base_dim 1", f"base_dim {MAX_BASE_DIM + 1}"),
            f"line 3: base_dim {MAX_BASE_DIM + 1} exceeds the limit {MAX_BASE_DIM}",
        ),
    ):
        with pytest.raises(FormatError) as exc:
            parse_document(text)
        assert str(exc.value) == message


def test_limits_admit_the_catalog_families():
    """courant_standard(n) (rank 2n) and tangent_lie(n) for n <= 8 parse
    back to their canonical text; n = 8 is at both limits."""
    assert (MAX_RANK, MAX_BASE_DIM) == (16, 8)
    for n in range(1, 9):
        for S in (courant_standard(n), tangent_lie(n)):
            text = serialize_structure(S, "family")
            assert serialize_document(parse_document(text)) == text


def test_serializer_refuses_what_a_file_cannot_hold():
    """A [mult] term of derivative order > 1 builds in code but would not
    read back (a file holds order at most 1), so serializing raises and
    names the term; order 1 still round-trips."""

    def structure(alpha, beta):
        mult = BiDiffOp(1, 1, [(0, 0, 0, alpha, beta, 1)])
        return AlgebroidStructure(1, 1, mult, AnchorMap(1, 1, [[Poly.zero(1)]]))

    for alpha, beta, term, order in (((2,), (0,), "0 0 0 2 0", 2), ((1,), (15,), "0 0 0 1 15", 15)):
        with pytest.raises(ValueError) as exc:
            serialize_structure(structure(alpha, beta))
        assert str(exc.value) == (
            f"[mult] term {term} has a multi-index of order {order}; a file holds order at most 1"
        )
    text = serialize_structure(structure((1,), (1,)))
    assert text.endswith("[mult]\n0 0 0 1 1 1\n")
    assert serialize_document(parse_document(text)) == text


def test_bad_rational_and_skew():
    with pytest.raises(FormatError, match="rational"):
        parse_document(KV.replace("1 0 0 1", "1 0 0 one"))
    with pytest.raises(FormatError, match="skew"):
        parse_document(WITT.replace("skew true", "skew yes"))


def test_serialize_document_dispatch():
    assert serialize_document(parse_document(KV)) == serialize_kvalgebra(
        parse_document(KV).algebra, parse_document(KV).form, "demo"
    )


def test_bare_header_is_the_zero_object():
    """A section header with no entries, or only zero ones, gives the zero
    pairing, D or form; without the header there is none."""
    bare = WITT.replace("[pairing]\n0 0 1\n[dcochain]\n0 1 2\n", "[pairing]\n[dcochain]\n")
    S = parse_document(bare).structure
    zero = parse_document(WITT.replace("[pairing]\n0 0 1", "[pairing]\n0 0 0")).structure
    assert S.pairing is not None and S.pairing == zero.pairing
    assert S.d_cochain is not None and not S.d_cochain.components[0].terms
    assert serialize_document(parse_document(bare)).endswith("[pairing]\n[dcochain]\n")
    none = WITT.split("[pairing]")[0]
    assert parse_document(none).structure.pairing is None
    assert parse_document(none).structure.d_cochain is None
    form = parse_document("[kvalgebra]\ndim 2\n[form]\n").form
    assert form == SymForm.from_entries(2, ()) and not form.nondegenerate()
    assert parse_document("[kvalgebra]\ndim 2\n").form is None


# --- literal sizes -----------------------------------------------------------


def kv_value(text):
    """The parsed value of a one-entry algebra whose constant is text."""
    return parse_document(KV.replace("1 0 0 1", f"1 0 0 {text}")).algebra.c[0][0][1]


def test_rational_literal_forms():
    for text in ("3/4", "-2", "+7", "1.5", "1e3", "-1.5e-3", ".5", "2.", "1E2", "0/5"):
        assert kv_value(text) == Fraction(text)
    assert parse_document(KV.replace("1 1 3/2", "1 1 -6/4")).form.matrix[1][1] == Fraction(-3, 2)


# texts near the forms Fraction accepts: digits, signs, '/', '.', 'e', '_'
literal_texts = st.text(alphabet="0123456789+-/._eE", min_size=1, max_size=7)


def decimal_digits(n: int) -> int:
    """The decimal digits of n, within one, without converting n to str."""
    return int(abs(n).bit_length() * 0.30103) + 1


@settings(max_examples=500, deadline=None)
@given(literal_texts)
def test_rational_literal_parse_agrees_with_fraction(text):
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(FormatError, match="bad rational literal"):
            kv_value(text)
        return
    size = max(decimal_digits(expected.numerator), decimal_digits(expected.denominator))
    if size <= MAX_LITERAL_DIGITS - 10:  # reduction drops at most a few digits
        assert kv_value(text) == expected
    elif size > MAX_LITERAL_DIGITS + 1:
        with pytest.raises(FormatError, match="exceeds the limit"):
            kv_value(text)


def test_rational_literal_size_limit():
    ok = "9" * MAX_LITERAL_DIGITS
    for text in (ok, f"-{ok}", f"1/{ok}", f"{ok}/7", f"1e{MAX_LITERAL_DIGITS - 1}", f"1e-{MAX_LITERAL_DIGITS - 1}"):
        assert kv_value(text) == Fraction(text)
    over = "9" * (MAX_LITERAL_DIGITS + 1)
    # the digits of numerator or denominator before reduction: 2.5e1000 is
    # 25 * 10^999, 0.5e-999 is 5 / 10^1000
    for text in (over, f"1/{over}", f"{over}/2", "1e20000", "1e-20000", "2.5e1000", "0.5e-1000",
                 "1e" + "9" * 5000, f"0.{'0' * MAX_LITERAL_DIGITS}1"):
        with pytest.raises(FormatError) as exc:
            kv_value(text)
        assert (exc.value.line, exc.value.column) == (4, 7)
        assert str(exc.value).endswith(f"rational literal exceeds the limit of {MAX_LITERAL_DIGITS} digits")
    # leading zeros and a zero mantissa do not count
    for text in (f"{'0' * MAX_LITERAL_DIGITS}12", "0e999999", "2.5e999", "0.5e-998"):
        assert kv_value(text) == Fraction(text)
    # in [form], with the column of the value
    with pytest.raises(FormatError) as exc:
        parse_document(KV.replace("1 1 3/2", "1   1   1e20000"))
    assert (exc.value.line, exc.value.column) == (7, 9)


def test_integer_literal_size_limit():
    ok = "7" * MAX_LITERAL_DIGITS
    doc = parse_document(WITT.replace("0 0 0 1 0 -1", f"0 0 0 1 0 -{ok}"))
    assert str(doc.structure.mult.terms[-1][1]) == f"-{ok}"
    over = "7" * (MAX_LITERAL_DIGITS + 1)
    # (coefficient, column of the long literal): a constant, a product
    # factor, a denominator and an exponent
    for coeff, column in ((over, 11), (f"2*{over}", 13), (f"1/{over}", 13), (f"x1^{over}", 14)):
        with pytest.raises(FormatError) as exc:
            parse_document(WITT.replace("0 0 0 1 0 -1", f"0 0 0 1 0 {coeff}"))
        assert (exc.value.line, exc.value.column) == (8, column)
        assert str(exc.value).endswith(
            f"bad polynomial: integer literal exceeds the limit of {MAX_LITERAL_DIGITS} digits"
        )


# --- plain literals as integers ------------------------------------------------


# the value each literal gave on the parser that read every value as a
# Fraction, or its error (the CLI writes "error: " before it); on Python
# 3.10 that parser refused the underscores, which Fraction accepts from 3.11
RECORDED_LITERALS = {
    "2/4": "1/2", "+3": "3", "007": "7", "-0": "0", "-007/014": "-1/2", "0/5": "0", "00/1": "0",
    "1.5": "3/2", "-1.5e-3": "-3/2000", ".5": "1/2", "2.": "2", "1E2": "100", "1e3": "1000",
    "1e+3": "1000", "1.e3": "1000", "1_000": "1000", "1_0/2_0": "1/2", "1.5_0": "3/2",
    "1e1_0": "10000000000", "1/2_0": "1/20", "٣": "3", "٣/٦": "1/2",
    "9" * 1000: "9" * 1000, "0" * 5 + "9" * 1000: "9" * 1000, f"1/{'9' * 1000}": f"1/{'9' * 1000}",
    "1e999": "1" + "0" * 999,
    **{text: f"line 4, column 7: bad rational literal {text!r}" for text in (
        "0/0", "1/0", "0/000", "1/-2", "1/+2", "-1/-2", "--1", "+-1", "/2", "2/", ".e3", "e3",
        "1e", "1__000", "_1", "1_", "1/٠", "nan", "inf", "0x10", "1/2/3", f"{'9' * 1000}/0",
        f"{'9' * 1001}/-2",
        # Python's 4300-digit int limit counts leading zeros, the digit limit does not
        "0" * 4301 + "1", "1/" + "0" * 4301 + "1", "0" * 4301 + "1.5",
    )},
    **{text: "line 4, column 7: rational literal exceeds the limit of 1000 digits" for text in (
        "9" * 1001, "1" + "0" * 1000, f"-{'9' * 1001}", f"1/{'9' * 1001}", f"{'9' * 1001}/0",
        "1e1000", "1e-1000", "0" * 4301 + "9" * 1001,
    )},
}


def kv_value_or_error(text):
    try:
        return str(kv_value(text))
    except FormatError as exc:
        return str(exc)


def test_literals_read_as_recorded():
    for text, recorded in RECORDED_LITERALS.items():
        assert kv_value_or_error(text) == recorded, text


@st.composite
def rational_literals(draw):
    """(text, size): a rational literal with signs, leading zeros, an
    unreduced or zero n/m, decimals, exponents and underscores, well or
    badly placed, some n and m of 1000 or 1001 digits; size is the most
    significant digits of n or m, or 0 for a short decimal literal."""
    def digits(long):
        text = draw(st.text("0123456789", min_size=1, max_size=5))
        if long and draw(st.booleans()):
            text = "0" * draw(st.integers(0, 2)) + draw(st.sampled_from("19")) * draw(
                st.sampled_from([999, 1000, 1001])
            )
        if draw(st.integers(0, 4)) == 0:
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(["_", "__"])) + text[at:]
        return text

    def significant(text):
        return len(text.replace("_", "").lstrip("0"))

    sign = draw(st.sampled_from(["", "+", "-", "--"]))
    num = digits(long=True)
    form = draw(st.sampled_from(["n", "n/m", "decimal"]))
    if form == "n":
        return sign + num, significant(num)
    if form == "n/m":
        den = draw(st.sampled_from(["", "-", "+"])) + digits(long=True)
        return f"{sign}{num}/{den}", max(significant(num), significant(den))
    exponent = draw(st.sampled_from(["", "e", "E"]))
    if exponent:
        exponent += draw(st.sampled_from(["", "+", "-"])) + str(draw(st.integers(0, 60)))
    return f"{sign}{num[:5]}.{digits(long=False)}{exponent}", 0


@settings(max_examples=400, deadline=None)
@given(rational_literals())
def test_plain_and_other_literals_agree_with_fraction(case):
    """The value is Fraction(text), or the error is the one the parser
    gave before plain literals were read as integers: a bad literal, then
    the digit limit, then a zero denominator."""
    text, size = case
    if sys.version_info < (3, 11) and "_" in text:
        return  # Fraction here refuses the underscores 3.11 accepts
    bad = f"line 4, column 7: bad rational literal {text!r}"
    try:
        expected = Fraction(text)
    except ValueError:
        assert kv_value_or_error(text) == bad
        return
    except ZeroDivisionError:
        expected = None
    if size > MAX_LITERAL_DIGITS:
        assert kv_value_or_error(text) == (
            f"line 4, column 7: rational literal exceeds the limit of {MAX_LITERAL_DIGITS} digits"
        )
    elif expected is None:
        assert kv_value_or_error(text) == bad
    else:
        assert kv_value(text) == expected


def test_plain_literals_build_the_from_entries_tables():
    """2/4, +3, 007 and -0, read as integers, give the algebra and form
    that `from_entries` gives on their Fractions: the same den, nz and num."""
    text = (
        "[kvalgebra]\ndim 3\n0 0 0 2/4\n1 0 1 +3\n2 1 1 007\n0 2 2 -0\n"
        "[form]\n0 0 2/4\n0 1 +3\n1 1 007\n2 2 -0\n"
    )
    doc = parse_document(text)
    A = FinKVAlgebra.from_entries(
        3, [(0, 0, 0, Fraction(1, 2)), (0, 1, 1, Fraction(3)), (1, 1, 2, Fraction(7)),
            (2, 2, 0, Fraction(0))]
    )
    beta = SymForm.from_entries(
        3, [(0, 0, Fraction(1, 2)), (0, 1, Fraction(3)), (1, 1, Fraction(7)), (2, 2, Fraction(0))]
    )
    assert (doc.algebra.den, doc.algebra.nz) == (A.den, A.nz) == (2, A.nz) and doc.algebra == A
    assert (doc.form.den, doc.form.num, doc.form.rows) == (beta.den, beta.num, beta.rows)
    assert doc.form == beta and doc.form.den == 2
    assert serialize_document(doc) == (
        "[kvalgebra]\ndim 3\n0 0 0 1/2\n1 0 1 3\n2 1 1 7\n[form]\n0 0 1/2\n0 1 3\n1 1 7\n"
    )


def test_reader_goes_straight_to_the_table_step(monkeypatch):
    """The reader checks each entry once: its stores go to the table step,
    not through the checks of `from_entries`."""

    def twice(cls, *args):
        raise AssertionError("entries checked again")

    monkeypatch.setattr(FinKVAlgebra, "from_entries", classmethod(twice))
    monkeypatch.setattr(SymForm, "from_entries", classmethod(twice))
    doc = parse_document(KV)
    assert doc.algebra.c[0][0][1] == 1 and doc.form.matrix[1][1] == Fraction(3, 2)


def test_form_repeats_compare_values():
    """(0,1) and (1,0) are one entry, and a repeat is an error either way:
    equal values, in any form, are a duplicate, others a conflict."""
    for first, second in (("1/2", "2/4"), ("1/2", "0.5"), ("-3", "-6/2"), ("0", "-0/7")):
        with pytest.raises(FormatError) as exc:
            parse_document(f"[kvalgebra]\ndim 2\n[form]\n0 1 {first}\n1 0 {second}\n")
        assert str(exc.value) == "line 5: duplicate form entry 1 0"
    for first, second in (("1/2", "1/3"), ("1/2", "-1/2"), ("0", "1e-9")):
        with pytest.raises(FormatError) as exc:
            parse_document(f"[kvalgebra]\ndim 2\n[form]\n0 1 {first}\n1 0 {second}\n")
        assert str(exc.value) == "line 5: conflicting form entries for (1,0)"


def test_mult_term_limit():
    """A [mult] holds MAX_MULT_TERMS distinct terms; a repeated line adds
    up and counts once, and the line that would add one more is the error."""
    assert _SECTIONS["mult"].terms == MAX_MULT_TERMS == 512
    S = parse_document(mult_terms(512, "0 0 0 0 0 2")).structure
    assert len(S.mult.terms) == 512
    with pytest.raises(FormatError) as exc:
        parse_document(mult_terms(512, "0 0 0 0 0 2", "0 0 0 1 0 1"))
    assert str(exc.value) == "line 518: distinct mult terms exceed the limit 512"
    assert len(courant_standard(8).mult.terms) <= MAX_MULT_TERMS
