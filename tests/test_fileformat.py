import ast
import io
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroid import fileformat
from algebroid.catalog import catalog_get, catalog_names, courant_standard, tangent_lie, witt_line
from algebroid.cli import run
from algebroid.exactmath import MAX_LITERAL_DIGITS, Poly, grlex_key
from algebroid.fileformat import (
    MAX_BASE_DIM,
    MAX_KV_DIM,
    MAX_MULT_TERMS,
    MAX_RANK,
    _SECTIONS,
    FormatError,
    ParsedDocument,
    canonical_text,
    parse_document,
    serialize_document,
    serialize_kvalgebra,
    serialize_structure,
)
from algebroid.funmodel import (
    AlgebroidStructure,
    AnchorMap,
    BiDiffOp,
    DCochain,
    DiffOp,
    Pairing,
    conjugate,
)
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
    and for each polynomial parser error in exactmath.py (a `self.error`
    call) as a file reports it, any formatted part matching any text."""
    package = Path(__file__).resolve().parent.parent / "src" / "algebroid"

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

    for node in ast.walk(ast.parse((package / "fileformat.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "FormatError":
            if node.args:
                yield pattern(node.args[0])
    for node in ast.walk(ast.parse((package / "exactmath.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "error":
            yield re.escape("bad polynomial: ") + pattern(node.args[0])


def test_format_corpus_covers_every_message_and_section():
    errors = [case.err for case in FORMAT_CORPUS if case.code == 2]
    assert len(errors) >= 40
    patterns = list(message_patterns())
    assert len(patterns) >= 36
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


def test_multi_index_entries_read_as_int_does():
    """A multi-index entry is any text int() takes: a sign, '_' between
    digits and Unicode decimal digits, each read to its value before the
    sign and order checks."""
    base = "[structure]\nbase_dim 2\nrank 1\nskew false\n[mult]\n0 0 0 {} 0,0 1\n"
    for alpha, result in (
        ("+1,0", "0 0 0 1,0 0,0 1"),
        ("-0,+1", "0 0 0 0,1 0,0 1"),
        ("٠,١", "0 0 0 0,1 0,0 1"),
        ("1_0,0", "line 6: multi-index '1_0,0' has order 10, expected at most 1"),
        ("٣,0", "line 6: multi-index '٣,0' has order 3, expected at most 1"),
        ("+0,1_0", "line 6: multi-index '+0,1_0' has order 10, expected at most 1"),
        ("0,-1", "line 6: negative entry in multi-index '0,-1'"),
        ("0,²", "line 6: bad multi-index '0,²'"),
    ):
        text = base.format(alpha)
        if result.startswith("line"):
            assert error_of(text) == result
        else:
            assert serialize_document(parse_document(text)).splitlines()[-1] == result


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


def test_serializer_refuses_structures_over_the_file_limits():
    """A structure at each file limit (rank, base_dim, distinct [mult]
    terms) round-trips; one more raises ValueError naming the limit,
    read from the reader's own limits."""
    limits = _SECTIONS["mult"].terms, MAX_RANK, MAX_BASE_DIM
    assert limits == (MAX_MULT_TERMS, 16, 8)

    def terms(n):
        # n distinct order-0/1 terms over rank 8, base_dim 1
        return [(t // 64 % 8, t // 8 % 8, t % 8, (t // 512,), (0,), 1) for t in range(n)]

    def structure(rank, base_dim, mult=()):
        anchor = AnchorMap(base_dim, rank, [[Poly.zero(base_dim)] * rank] * base_dim)
        return AlgebroidStructure(rank, base_dim, BiDiffOp(rank, base_dim, mult), anchor)

    for S in (structure(8, 1, terms(MAX_MULT_TERMS)), structure(MAX_RANK, MAX_BASE_DIM)):
        text = serialize_structure(S)
        assert parse_document(text).structure == S
        assert serialize_document(parse_document(text)) == text
    for S, message in (
        (
            structure(8, 1, terms(MAX_MULT_TERMS + 1)),
            f"[mult] has {MAX_MULT_TERMS + 1} distinct terms; a file holds at most {MAX_MULT_TERMS}",
        ),
        (
            structure(MAX_RANK + 1, 1),
            f"rank {MAX_RANK + 1} exceeds the limit {MAX_RANK} of a file",
        ),
        (
            structure(1, MAX_BASE_DIM + 1),
            f"base_dim {MAX_BASE_DIM + 1} exceeds the limit {MAX_BASE_DIM} of a file",
        ),
    ):
        with pytest.raises(ValueError) as exc:
            serialize_structure(S)
        assert str(exc.value) == message


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
    assert form == SymForm([[0, 0], [0, 0]]) and not form.nondegenerate()
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
    # at and past the characters a plain literal may have, sign not counted
    f"+{'9' * 1000}": "9" * 1000, f"-{'9' * 1000}/{'0' * 999}7": f"-{'9' * 1000}/7",
    "0" * 1001 + "/2": "0", "0" * 1001 + "3/" + "0" * 1001 + "6": "1/2",
    **{text: f"line 4, column 7: bad rational literal {text!r}" for text in (
        "0/0", "1/0", "0/000", "1/-2", "1/+2", "-1/-2", "--1", "+-1", "/2", "2/", ".e3", "e3",
        "1e", "1__000", "_1", "1_", "1/٠", "nan", "inf", "0x10", "1/2/3", f"{'9' * 1000}/0",
        "1/" + "0" * 1000, "1/" + "0" * 1001,
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


def test_plain_literals_build_the_dense_tables():
    """2/4, +3, 007 and -0, read as integers, give the algebra and form
    that the dense constructors give on their Fractions: the same den, nz
    and num."""
    text = (
        "[kvalgebra]\ndim 3\n0 0 0 2/4\n1 0 1 +3\n2 1 1 007\n0 2 2 -0\n"
        "[form]\n0 0 2/4\n0 1 +3\n1 1 007\n2 2 -0\n"
    )
    doc = parse_document(text)
    c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    c[0][0][0], c[0][1][1], c[1][1][2] = Fraction(1, 2), Fraction(3), Fraction(7)
    A = FinKVAlgebra(3, c)
    beta = SymForm([[Fraction(1, 2), 3, 0], [3, 7, 0], [0, 0, 0]])
    assert (doc.algebra.den, doc.algebra.nz) == (A.den, A.nz) == (2, A.nz) and doc.algebra == A
    assert (doc.form.den, doc.form.num, doc.form.rows) == (beta.den, beta.num, beta.rows)
    assert doc.form == beta and doc.form.den == 2
    assert serialize_document(doc) == (
        "[kvalgebra]\ndim 3\n0 0 0 1/2\n1 0 1 3\n2 1 1 7\n[form]\n0 0 1/2\n0 1 3\n1 1 7\n"
    )


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


# --- one writer over the reader's tables ----------------------------------------


def summed(*coeffs):
    """WITT with its first [mult] term on one line per coefficient."""
    return WITT.replace("0 0 0 0 1 1\n", "".join(f"0 0 0 0 1 {c}\n" for c in coeffs))


def test_summed_mult_entry_limit():
    """Repeated [mult] lines add up within MAX_LITERAL_DIGITS: the line
    whose sum crosses the limit is the error; a sum at the limit exports
    to a literal that reads back."""
    nines = "9" * MAX_LITERAL_DIGITS
    for coeffs, line in (
        ((nines, nines), 8),
        (("1", "1", nines), 9),
        ((f"1/{nines}", f"1/{'9' * (MAX_LITERAL_DIGITS - 1)}8"), 8),  # a denominator
        (("x1", f"{nines}*x1", "1"), 8),
    ):
        with pytest.raises(FormatError) as exc:
            parse_document(summed(*coeffs))
        assert str(exc.value) == (
            f"line {line}: summed mult coefficient exceeds the limit of {MAX_LITERAL_DIGITS} digits"
        )
    at_limit = summed(f"{'9' * (MAX_LITERAL_DIGITS - 1)}8", "1", f"-{nines}", nines)
    text = canonical_text(at_limit)
    assert f"0 0 0 0 1 {nines}\n" in text
    assert canonical_text(text) == text == serialize_document(parse_document(at_limit))


def one_constant(dim, value):
    """The dim-d algebra whose one nonzero constant is e_0 e_0 = value e_0."""
    c = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    c[0][0][0] = value
    return FinKVAlgebra(dim, c)


def one_pair(dim, i, j, value):
    """The dim-d form whose one nonzero pair is beta(e_i, e_j) = value."""
    matrix = [[0] * dim for _ in range(dim)]
    matrix[i][j] = matrix[j][i] = value
    return SymForm(matrix)


def test_writer_refuses_what_would_not_read_back():
    """Either serializer raises ValueError naming the limit for what a file
    cannot hold: a dim over MAX_KV_DIM, a form of another dim, a number
    over MAX_LITERAL_DIGITS digits, a coefficient's or a variable
    exponent; the largest of each round-trips."""
    over = 10**MAX_LITERAL_DIGITS
    for A, form, message in (
        (FinKVAlgebra.zero(MAX_KV_DIM + 1), None,
         f"dim {MAX_KV_DIM + 1} exceeds the limit {MAX_KV_DIM} of a file"),
        (FinKVAlgebra.zero(2), SymForm([[0] * 3] * 3), "the form has dim 3, the algebra dim 2"),
        (FinKVAlgebra.zero(3), SymForm([[0] * 2] * 2), "the form has dim 2, the algebra dim 3"),
        (one_constant(1, over), None,
         f"[kvalgebra] entry 0 0 0 has a number of more than {MAX_LITERAL_DIGITS} digits; "
         "a file holds at most that many"),
        (FinKVAlgebra.zero(2), one_pair(2, 0, 1, Fraction(1, over)),
         f"[form] entry 0 1 has a number of more than {MAX_LITERAL_DIGITS} digits; "
         "a file holds at most that many"),
    ):
        with pytest.raises(ValueError) as exc:
            serialize_kvalgebra(A, form)
        assert str(exc.value) == message
    S = conjugate(witt_line(), [[Fraction(over + 7, 3)]])
    with pytest.raises(ValueError) as exc:
        serialize_structure(S)
    assert str(exc.value) == (
        f"[mult] entry 0 0 0 0 1 has a number of more than {MAX_LITERAL_DIGITS} digits; "
        "a file holds at most that many"
    )
    mult = BiDiffOp(1, 1, [(0, 0, 0, (0,), (1,), Poly.constant(1, 1)),
                           (0, 0, 0, (1,), (0,), Poly.constant(1, -1))])
    with pytest.raises(ValueError) as exc:
        serialize_structure(AlgebroidStructure(
            1, 1, mult, AnchorMap(1, 1, [[Poly.monomial(1, (over,))]]), skew=True
        ))
    assert str(exc.value) == (
        f"[anchor] entry 0 0 has a number of more than {MAX_LITERAL_DIGITS} digits; "
        "a file holds at most that many"
    )
    A, form = one_constant(MAX_KV_DIM, Fraction(over - 1, over - 2)), one_pair(
        MAX_KV_DIM, 0, 5, Fraction(1 - over, over - 3)
    )
    text = serialize_kvalgebra(A, form)
    doc = parse_document(text)
    assert (doc.algebra, doc.form) == (A, form) and canonical_text(text) == text
    coeff = Poly.constant(1, Fraction(over - 1, over - 2))
    mult = BiDiffOp(1, 1, [(0, 0, 0, (0,), (1,), coeff), (0, 0, 0, (1,), (0,), -coeff)])
    anchor = AnchorMap(1, 1, [[coeff * Poly.monomial(1, (over - 1,))]])
    S = AlgebroidStructure(1, 1, mult, anchor, skew=True)
    text = serialize_structure(S)
    assert parse_document(text).structure == S and canonical_text(text) == text


def test_export_of_a_file_builds_no_operator(monkeypatch, tmp_path):
    """`export FILE` goes from the reader's tables to the writer: no
    structure, operator or algebra is built."""

    def built(*args):
        raise AssertionError("built")

    for name in ("_build_structure", "_build_kvalgebra"):
        monkeypatch.setattr(fileformat, name, built)
    for text in (WITT, KV):
        path = tmp_path / "doc.alg"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        assert run(["export", str(path)], out, err) == 0, err.getvalue()
        assert out.getvalue() == text


# Values of random documents, some zero; the bad ones (an error, a literal
# or a sum over the digit limit) are drawn for about one line in twelve.
COEFFS = ("1", "-2/4", "0", "x1-x1", "0/3", "007", "٣", "x1", "x1^2 - 1/2", "(1+x1)^2",
          "-x1*x1 + 3")
VALUES = ("1", "0", "-3/6", "1.5", "2e1", "007", "٣", "-0/5")
BAD_COEFFS = ("9" * 1000, "9" * 1001, "1/0", "x1+", "²", "x3")
BAD_VALUES = ("1/0", "x", "9" * 1001, "1e1001")


@st.composite
def documents(draw) -> str:
    """A [structure] or [kvalgebra] document with split and repeated lines,
    comments, blank lines, zero entries and empty sections in any order;
    some lines have an error, an index out of range or a repeat that does
    not add up, and some [mult] sums cross the digit limit."""
    lines = []
    if draw(st.booleans()):
        dim = draw(st.integers(1, 3))
        lines += ["[kvalgebra]", f"name {draw(st.sampled_from(['a', 'b c']))}", f"dim {dim}"]
        sections = {"kvalgebra": (dim,) * 3, "form": (dim,) * 2}
        base_dim = 0
    else:
        base_dim, rank = draw(st.integers(1, 2)), draw(st.integers(1, 3))
        lines += ["[structure]", f"base_dim {base_dim}", f"rank {rank}"]
        lines += draw(st.sampled_from([[], ["skew true"], ["skew false"], ["name s"]]))
        sections = {
            "mult": (rank,) * 3, "anchor": (base_dim, rank), "pairing": (rank,) * 2,
            "dcochain": (rank,),
        }
    multi = {"mult": 2, "dcochain": 1}
    # the [kvalgebra] products follow its header, the sections come in any order
    for section in sorted(draw(st.permutations(list(sections))), key="kvalgebra".__ne__):
        if section != "kvalgebra":
            if not draw(st.integers(0, 3)):
                continue  # no header
            lines.append(f"[{section}]")
        poly = section not in ("kvalgebra", "form")
        # distinct entries: indices, then the variable each multi-index
        # differentiates (base_dim for none); (i, j) is (j, i) in [pairing]
        # and [form]
        fields = [st.integers(0, bound - 1) for bound in sections[section]]
        fields += [st.integers(0, base_dim)] * multi.get(section, 0)
        symmetric = section in ("pairing", "form")
        keys = draw(st.lists(
            st.tuples(*fields), max_size=6,
            unique_by=lambda key: tuple(sorted(key[:2])) if symmetric else key,
        ))
        for key in keys:
            bad = draw(st.integers(0, 11)) == 0
            count = len(sections[section])
            idx = list(key[:count])
            if bad and draw(st.booleans()):
                idx[-1] = sections[section][-1]  # out of range
            elif symmetric and draw(st.booleans()):
                idx.reverse()
            alphas = [
                ",".join(str(int(a == v)) for a in range(base_dim)) for v in key[count:]
            ]
            pool = (BAD_COEFFS if poly else BAD_VALUES) if bad else (COEFFS if poly else VALUES)
            line = " ".join([*map(str, idx), *alphas, draw(st.sampled_from(pool))])
            # a [mult] line is split in two that add up; another repeat is an error
            repeats = 1 + (draw(st.integers(0, 3 if section == "mult" else 40)) == 0)
            for _ in range(repeats):
                lines.append(line + draw(st.sampled_from(["", "  # c", "\t"])))
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# comment", "   "])))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


def old_serialize(doc: ParsedDocument) -> str:
    """The serializers before the one writer, kept as the oracle: each
    section's lines built from the views of the structure, or from the
    Fraction views of the algebra and its form."""
    lines = [f"[{doc.kind}]"] + ([f"name {doc.name}"] if doc.name else [])
    idx = lambda alpha: ",".join(map(str, alpha))  # noqa: E731
    if doc.kind == "kvalgebra":
        A, form = doc.algebra, doc.form
        lines.append(f"dim {A.dim}")
        lines += [
            f"{k} {i} {j} {A.c[i][j][k]}"
            for k in range(A.dim) for i in range(A.dim) for j in range(A.dim) if A.c[i][j][k]
        ]
        if form is not None:
            lines.append("[form]")
            lines += [
                f"{i} {j} {form.matrix[i][j]}"
                for i in range(form.dim) for j in range(i, form.dim) if form.matrix[i][j]
            ]
        return "\n".join(lines) + "\n"
    S = doc.structure
    lines += [f"base_dim {S.base_dim}", f"rank {S.rank}", f"skew {str(S.skew).lower()}"]
    if S.mult.terms:
        lines.append("[mult]")
        lines += [f"{k} {i} {j} {idx(a)} {idx(b)} {c}" for (k, i, j, a, b), c in S.mult.terms]
    anchor = [
        f"{a} {j} {c}" for a, row in enumerate(S.anchor.matrix) for j, c in enumerate(row) if c
    ]
    if anchor:
        lines += ["[anchor]"] + anchor
    if S.pairing is not None:
        g = S.pairing.matrix
        lines.append("[pairing]")
        lines += [f"{i} {j} {g[i][j]}" for i in range(S.rank) for j in range(i, S.rank) if g[i][j]]
    if S.d_cochain is not None:
        lines.append("[dcochain]")
        for k, op in enumerate(S.d_cochain.components):
            lines += [f"{k} {idx(a)} {op.terms[a]}" for a in sorted(op.terms, key=grlex_key)]
    return "\n".join(lines) + "\n"


def route(function, text):
    try:
        return ("text", function(text))
    except FormatError as exc:
        return ("error", str(exc))


@settings(max_examples=600, derandomize=True, deadline=None)
@given(documents())
def test_canonical_text_is_the_old_route(text):
    """`canonical_text`, the reader's tables written out, gives the text or
    the error of parse, build and serialize, and of the serializers that
    built each line from the views."""
    got = route(canonical_text, text)
    assert got == route(lambda t: serialize_document(parse_document(t)), text)
    assert got == route(lambda t: old_serialize(parse_document(t)), text)


# --- the table step: a file's tables wrapped as the four operators --------------


def constructor_route(head: dict, tables: dict) -> AlgebroidStructure:
    """The structure built through the part constructors from the reader's
    tables, kept as the oracle of the table step: every entry checked again
    and every operator normalised."""
    base_dim, rank = head["base_dim"], head["rank"]
    mult = BiDiffOp(rank, base_dim, [key + (c,) for key, c in tables.get("mult", {}).items()])
    anchor = tables.get("anchor", {})
    anchor = AnchorMap(base_dim, rank, [
        [anchor.get((a, j), Poly.zero(base_dim)) for j in range(rank)] for a in range(base_dim)
    ])
    pairing = tables.get("pairing")
    if pairing is not None:
        g = [[Poly.zero(base_dim) for _ in range(rank)] for _ in range(rank)]
        for (i, j), coeff in pairing.items():
            g[i][j] = g[j][i] = coeff
        pairing = Pairing(rank, base_dim, g)
    d_cochain = tables.get("dcochain")
    if d_cochain is not None:
        comps = [{} for _ in range(rank)]
        for (k, alpha), coeff in d_cochain.items():
            comps[k][alpha] = coeff
        d_cochain = DCochain(rank, base_dim, [DiffOp(base_dim, c) for c in comps])
    return AlgebroidStructure(
        rank, base_dim, mult, anchor, pairing, d_cochain, skew=head.get("skew", False)
    )


# coefficients over x1..xn, n the base_dim: constants (some zero) and
# polynomials (one of them zero)
TABLE_COEFFS = ("1", "-3", "2/3", "-5/7", "0", "0/4", "x1", "xn^2 - 1/2", "(1+x1)^2",
                "-x1*xn + 3", "x1 - x1", "-2/9*x1")


@st.composite
def structure_files(draw) -> str:
    """A [structure] file over base_dim 1-3 and rank 1-4 whose [mult] lines
    repeat, some pairs summing to zero, with pairing entries written (j, i)
    and [pairing] and [dcochain] each absent, a bare header or with entries."""
    base_dim, rank = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    coeff = st.sampled_from(TABLE_COEFFS).map(lambda c: c.replace("xn", f"x{base_dim}"))
    alpha = st.integers(0, base_dim).map(
        lambda v: ",".join(str(int(a == v)) for a in range(base_dim))
    )
    index = st.integers(0, rank - 1)
    lines = ["[structure]", f"base_dim {base_dim}", f"rank {rank}"]
    lines += draw(st.sampled_from([[], ["skew true"], ["skew false"]]))
    lines.append("[mult]")
    for key in draw(st.lists(st.tuples(index, index, index, alpha, alpha), max_size=8,
                             unique=True)):
        c = draw(coeff)
        lines.append(" ".join([*map(str, key), c]))
        repeat = draw(st.sampled_from(["", "cancel", "add"]))
        if repeat == "cancel":
            lines.append(" ".join([*map(str, key), f"-({c})"]))
        elif repeat == "add":
            lines.append(" ".join([*map(str, key), draw(coeff)]))
    lines.append("[anchor]")
    for a, j in draw(st.lists(st.tuples(st.integers(0, base_dim - 1), index), max_size=6,
                              unique=True)):
        lines.append(f"{a} {j} {draw(coeff)}")
    pairing = draw(st.sampled_from(["absent", "header", "entries"]))
    if pairing != "absent":
        lines.append("[pairing]")
    if pairing == "entries":
        for i, j in draw(st.lists(st.tuples(index, index), max_size=6,
                                  unique_by=lambda key: tuple(sorted(key)))):
            i, j = sorted((i, j), reverse=draw(st.booleans()))  # (j, i) or (i, j)
            lines.append(f"{i} {j} {draw(coeff)}")
    dcochain = draw(st.sampled_from(["absent", "header", "entries"]))
    if dcochain != "absent":
        lines.append("[dcochain]")
    if dcochain == "entries":
        for k, a in draw(st.lists(st.tuples(index, alpha), max_size=6, unique=True)):
            lines.append(f"{k} {a} {draw(coeff)}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, derandomize=True, deadline=None)
@given(structure_files())
def test_table_step_is_the_constructor_route(text):
    """The structure `parse_document` builds through the table step equals
    the one the part constructors build from the same reader tables, term
    for term and in the same term order, and it serializes to the same
    bytes."""
    kind, head, tables = fileformat._read(text)
    S, want = parse_document(text).structure, constructor_route(head, tables)
    assert S == want
    for got_op, want_op in zip(
        (S._mult, S._anchor, S._pairing, S._d), (want._mult, want._anchor, want._pairing, want._d)
    ):
        assert (got_op is None) == (want_op is None)
        if got_op is not None:
            assert list(got_op.terms.items()) == list(want_op.terms.items())
    assert serialize_structure(S, "s") == serialize_structure(want, "s")
    assert serialize_structure(S) == canonical_text(text)


def test_catalog_and_frame_changed_copies_read_back():
    """Every function-model catalog entry, and a copy changed by a frame
    with a polynomial entry, reads back from its text as itself."""
    for name in catalog_names():
        entry = catalog_get(name)
        if entry.kind != "function-model":
            continue
        S = entry.structure
        r, x1 = S.rank, Poly.variable(S.base_dim, 0)
        frame = [[Fraction(-2, 3) if i == j == 0 else int(i == j) for j in range(r)]
                 for i in range(r)]
        if r > 1:
            frame[0][r - 1] = x1 + Poly.constant(S.base_dim, 2)
        for T in (S, conjugate(S, frame)):
            text = serialize_structure(T, name)
            assert parse_document(text).structure == T, name
            assert canonical_text(text) == text


def test_constants_are_written_as_str_gives_them():
    """Each poly section writes a constant coefficient from its integers,
    the text `str(Poly)` gives: signs, denominators and numbers at the
    digit limit; one digit more is refused as before."""
    nines = 10**MAX_LITERAL_DIGITS - 1
    values = (1, -1, 7, -12, Fraction(2, 3), Fraction(-5, 4), nines, -nines,
              Fraction(1, nines), Fraction(-nines, nines - 1))
    head = {"base_dim": 2, "rank": 2}
    keys = {
        "mult": (1, 0, 1, (0, 1), (0, 0)), "anchor": (1, 0), "pairing": (0, 1),
        "dcochain": (1, (1, 0)),
    }
    for section, key in keys.items():
        for value in values:
            c = Poly.constant(2, value)
            text = fileformat._write("structure", head, {section: {key: c}})
            assert text.splitlines()[-1].rsplit(" ", 1)[1] == str(c)
            assert canonical_text(text) == text
        for value in (nines + 1, Fraction(-1, nines + 1)):
            with pytest.raises(ValueError) as exc:
                fileformat._write("structure", head, {section: {key: Poly.constant(2, value)}})
            assert str(exc.value).endswith(
                f"has a number of more than {MAX_LITERAL_DIGITS} digits; "
                "a file holds at most that many"
            )
    S = conjugate(witt_line(), [[Fraction(-3, 7)]])
    lines = serialize_structure(S).splitlines()
    assert lines[4:] == [
        "[mult]", "0 0 0 0 1 -3/7", "0 0 0 1 0 3/7", "[anchor]", "0 0 -6/7", "[pairing]",
        "0 0 9/49", "[dcochain]", "0 1 -7/3",
    ]


def test_multi_index_memo_is_per_document():
    """A multi-index text read in one document is checked again in the
    next: `1,0` valid at base_dim 2 is refused at base_dim 1 and 3 with the
    message and line it always had, in [mult] and in [dcochain]."""
    head = "[structure]\nbase_dim {}\nrank 1\nskew false\n"
    mult = head + "[mult]\n0 0 0 0,1 1,0 1\n0 0 0 1,0 0,0 2\n"
    dcochain = head + "[dcochain]\n0 0,0 1\n0 1,0 2\n"
    for _ in range(2):
        for text in (mult, dcochain):
            assert canonical_text(text.format(2)).endswith(" 2\n")
            parse_document(text.format(2))
        assert error_of(mult.format(3)) == "line 6: multi-index '0,1' has 2 entries, expected 3"
        assert error_of(mult.format(1)) == "line 6: multi-index '0,1' has 2 entries, expected 1"
        assert error_of(dcochain.format(3)) == (
            "line 6: multi-index '0,0' has 2 entries, expected 3"
        )
        assert error_of(dcochain.format(2).replace("0 1,0 2", "0 1,1 2")) == (
            "line 7: multi-index '1,1' has order 2, expected at most 1"
        )
    # a text first read after others is checked in full
    repeated = mult.format(2) + "0 0 0 1,0 1,0 3\n0 0 0 2,0 0,0 1\n"
    assert error_of(repeated) == "line 9: multi-index '2,0' has order 2, expected at most 1"
    assert error_of(head.format(2) + "[mult]\n0 0 0 1,0 0,0 1\n0 0 0 1,0 0,0 1\n[dcochain]\n"
                    "0 1,0 1\n0 1,0 2\n") == "line 10: duplicate dcochain entry 0 1,0"
