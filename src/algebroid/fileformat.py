"""Line-oriented structure-definition files.

Two document kinds share the syntax: bracketed section headers, `#`
comments, 0-based indices, and exact rational/polynomial values.

Function-model structure:

    [structure]
    name <identifier>          # optional
    base_dim <n>
    rank <r>
    skew <true|false>          # optional, false if absent
    [mult]
    k i j alpha beta coeff     # mu(s,s')_k += coeff * d^alpha(s_i) d^beta(s'_j)
    [anchor]
    a j coeff                  # rho(e_j)'s d_a component
    [pairing]
    i j coeff                  # symmetric; (j,i) filled in, conflicts are errors
    [dcochain]
    k alpha coeff              # D(f)_k += coeff * d^alpha(f)

Finite KV algebra:

    [kvalgebra]
    name <identifier>          # optional
    dim <d>
    k i j value                # e_i e_j gets value * e_k
    [form]
    i j value                  # symmetric rational form

alpha/beta are comma-separated multi-indices of length base_dim, each of
order (entry sum) at most 1 (see Limits); coeff is a polynomial
in x1..xn; value is a rational literal. Repeated [mult] lines for one
term add up; any other repeated entry is an error. Serialization is
canonical (sorted term order), so parse -> serialize is bit-stable.

The reader, `_read`, turns a text into its header keys and section
tables; `parse_document` then hands them to a table step, which builds
the structure or the algebra from them. One writer, `_write`, turns
section tables back into text: `serialize_structure` makes the tables
from a structure's views and `serialize_kvalgebra` from the `kvfin`
tables, and `canonical_text` hands the reader's tables straight to the
writer, so `export FILE` builds no operator and no algebra. The writer
writes a constant coefficient from its integer numerator and
denominator, as it writes a rational value; only a non-constant one goes
through `str(Poly)`. It raises ValueError for what a file cannot hold,
since the text would not read back: a header value over its limit, more
[mult] terms than the section holds, a multi-index of order over 1, a
number (a coefficient's numerator or denominator, or a variable
exponent) of more than MAX_LITERAL_DIGITS digits, or a form of another
dim than its algebra.

The opening section holds the header keys, and only those listed above
for its kind: `name`, `base_dim`, `rank`, `skew` in [structure], `name`
and `dim` in [kvalgebra]. A key line is one that does not start with a
digit, `+` or `-`. Each section appears at most once, and a data line
needs the keys it reads (base_dim, rank or dim) above it. `_SECTIONS` is
the table of sections. One row reader, `_read_row`, checks every data
line completely when it is read (field count, indices, multi-indices, the
value, then the index ranges), so the error reported is the first in line
order; its section's row picks the value parser, `parse_poly` for a
coefficient or `_parse_rational` for a [kvalgebra] or [form] value. A
plain n or n/m is read as integers by `exactmath.plain_literal` in both.
Each distinct multi-index text is parsed once per document, its order
checked at each use. A rational value is stored as its reduced integer
numerator and denominator. The stores go straight to the table steps,
`AlgebroidStructure._from_tables` for the four structure sections and
the `kvfin` one for the rational sections, and neither checks an entry
again: the reader is the one place that checks a file's entries. A
missing required key is reported at the first data line that reads it,
or at the last line of a file that has none.

An optional section ([pairing], [dcochain], [form]) whose header is
present with no entries, or only zero ones, is the zero pairing, D or
form; a missing header means the structure has none. The serializers
write a zero object as its bare header, so export is a fixpoint.

Limits, each a parse error with its line (and column for a literal):

- A [kvalgebra] dim is at most MAX_KV_DIM (6). The dearest call on an
  algebra is its self-coefficient H^2, whose coboundary matrix has d^4
  rows and d^3 columns; `cohomology` refuses a non-KV algebra before it
  builds one. At dim 6, `cohomology FILE --degree 2 --coefficients self`
  through `cli.run` took 2.9-3.3 s on dense KV algebras (clan-84 + clan-84
  and Q[x]/(x^6) after a unimodular change of basis) and 30.1 s (one run)
  on clan-84 + vinberg-83 after the 32 moves e_a -> e_a + t e_b drawn from
  random.Random(54), whose constants have numerators up to 2564 (Intel
  Xeon, 2 cores, Python 3.11.7). `serialize_kvalgebra` refuses an algebra
  over the limit.
- A [structure] rank is at most MAX_RANK (16) and its base_dim at most
  MAX_BASE_DIM (8), which admits every catalog entry and courant_standard(n)
  and tangent_lie(n) for n <= 8. A structure holds base_dim x rank anchor
  entries (and rank x rank pairing entries with a pairing) whatever the
  file lists, so without a limit a 4-line file with rank 200000 took
  0.41 s and 43 MB to `export`. At the limits, `check FILE` (the
  capability matrix) took 3.9 s on courant_standard(8) (rank 16, base_dim
  8) and 0.16 s on tangent_lie(8) (same machine). The time also grows
  with the number of [mult] terms, which the next limit bounds.
  `serialize_structure` refuses a structure over either limit.
- A [mult] section holds at most MAX_MULT_TERMS (512) distinct terms
  (k, i, j, alpha, beta), the `terms` of its `_SECTIONS` row; the line
  that would add the 513th is the error. Repeated lines of one term add
  up and count once.
  This admits every catalog entry, courant_standard(8) (496 terms) and
  tangent_lie(8) (128 terms). At the limit, `check FILE --profile kv` took
  1.5 s on courant_standard(8) with 16 more terms (same machine). The size
  of a coefficient is not limited: a term's polynomial may have any number
  of monomials, within the literal and product limits below, and so may
  the sum of a term's repeated lines.
  `serialize_structure` refuses a structure with more terms.
- Each [mult] and [dcochain] multi-index has order at most 1, which
  admits every catalog entry and courant_standard(n) and tangent_lie(n)
  for n <= 8. The witness search grows with the order: a one-term [mult]
  of order 10^20 made `check FILE` hang, and at rank 16, base_dim 8, a
  two-term skew [mult] took 59 s and 608 MB at order 2 against 2.8 s and
  46 MB at order 1 (same machine). A structure built in code may have a
  higher order, but `serialize_structure` refuses it with a ValueError
  that names the term, since its file would not read back.
- A number literal has at most MAX_LITERAL_DIGITS (1000) digits. In a
  polynomial that holds for each integer, leading zeros counted (the
  digits of a constant, a denominator, a variable index or an exponent),
  and for the numerators and the denominator of every coefficient the
  polynomial parser computes: a sum, product or power over the limit is
  an error at the column of its operator, and a power such as
  2^99999999999 is refused before it is built, as is a power or product
  that would give a variable an exponent of more than that many digits,
  such as (x1^E)^E for E of 999 digits or x1^E*x1^E for E of 1000 nines.
  The sum of a term's repeated [mult] lines is held to the same limit:
  the line whose sum crosses it is the error (`summed mult coefficient
  exceeds the limit of 1000 digits`), where the sum used to be exported
  as a literal that did not read back. A rational value in [kvalgebra]
  or [form] takes every form Fraction(text) accepts on Python 3.11 and
  later (3/4, -2, 1.5, 1e3, 1_000), on every supported Python, and its
  numerator and denominator, written out before reduction, have at most
  that many significant digits: 1e999 is at the limit, 1e1000 and
  1e-1000 are over it. So a value prints without reaching Python's
  4300-digit limit on int-to-str conversion. The two grammars differ only
  there: a polynomial counts leading zeros and takes no decimal, exponent
  or `_` form.
- Each product the polynomial parser computes multiplies at most
  MAX_TERM_PRODUCTS (200,000) pairs of terms, checked before it is made,
  so (1+x1+x2)^3000 is an error at the column of its ^.
- Parentheses in a polynomial nest at most MAX_NESTING (100) deep; 300
  levels exhausted Python's recursion limit.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache
from fractions import Fraction
from typing import Optional

from .exactmath import (
    MAX_LITERAL_DIGITS,
    Poly,
    PolyParseError,
    over_digit_limit,
    parse_poly,
    plain_literal,
    reduced,
)
from .funmodel import AlgebroidStructure
from .kvfin import FinKVAlgebra, SymForm


class FormatError(ValueError):
    """Parse error with 1-based line (and, when known, column) position."""

    def __init__(self, message: str, line: int, column: Optional[int] = None):
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.column = column


class ParsedDocument(
    namedtuple("ParsedDocument", "kind name structure algebra form", defaults=(None, None, None))
):
    """A parsed file: its kind ("structure" | "kvalgebra"), its name, and
    the structure, or the algebra with its optional form."""

    __slots__ = ()


MAX_KV_DIM = 6
MAX_RANK = 16
MAX_BASE_DIM = 8
MAX_MULT_TERMS = 512
# header key -> the largest value a file may give it; these keys are required
_HEAD_LIMITS = {"dim": MAX_KV_DIM, "rank": MAX_RANK, "base_dim": MAX_BASE_DIM}

# One row per section. The section that opens a document gives its `kind`
# and the header `keys` it allows. A data line is `usage`: an index per
# header key in `bounds` (the key bounds it), `multi` multi-indices of
# length base_dim (of total order at most `order`, if set), and the value,
# a polynomial coefficient if `poly` (which also reads base_dim) or else a
# rational. In a `symmetric` section (i, j) is also (j, i); repeats of an
# entry add up if `adds`, else they are an error that names the entry by
# `noun`. `what` names an index out of range. A section holds at most
# `terms` distinct entries, if set. An `optional` section's header alone is
# the zero object, and without it the part is absent, so it is written with
# no entries too.
_Section = namedtuple(
    "_Section",
    "kind keys usage bounds multi order poly symmetric adds noun what terms optional",
    defaults=((), None, (), 0, None, False, False, False, "", "", None, False),
)
_SECTIONS = {
    "structure": _Section("structure", keys=("name", "base_dim", "rank", "skew")),
    "mult": _Section(
        "structure", usage="k i j alpha beta coeff", bounds=("rank",) * 3, multi=2, order=1,
        poly=True, adds=True, noun="mult", what="mult component index", terms=MAX_MULT_TERMS,
    ),
    "anchor": _Section(
        "structure", usage="a j coeff", bounds=("base_dim", "rank"), poly=True, noun="anchor",
        what="anchor index",
    ),
    "pairing": _Section(
        "structure", usage="i j coeff", bounds=("rank", "rank"), poly=True, symmetric=True,
        noun="pairing", what="pairing index", optional=True,
    ),
    "dcochain": _Section(
        "structure", usage="k alpha coeff", bounds=("rank",), multi=1, order=1, poly=True,
        noun="dcochain", what="dcochain component", optional=True,
    ),
    "kvalgebra": _Section(
        "kvalgebra", keys=("name", "dim"), usage="k i j value", bounds=("dim",) * 3,
        noun="product", what="product index",
    ),
    "form": _Section(
        "kvalgebra", usage="i j value", bounds=("dim", "dim"), symmetric=True, noun="form",
        what="form index", optional=True,
    ),
}


def _parse_multi_index(text: str, base_dim: int, order: Optional[int], lineno: int, memo: dict):
    """The multi-index `text` of a line of order at most `order`. `memo`
    holds the texts of one document (so of one base_dim) already parsed,
    and the order is checked at each use."""
    idx = memo.get(text)
    if idx is None:
        parts = text.split(",")
        if len(parts) != base_dim:
            raise FormatError(
                f"multi-index {text!r} has {len(parts)} entries, expected {base_dim}",
                lineno,
            )
        try:
            idx = tuple(map(int, parts))
        except ValueError:
            raise FormatError(f"bad multi-index {text!r}", lineno) from None
        if min(idx) < 0:
            raise FormatError(f"negative entry in multi-index {text!r}", lineno)
        memo[text] = idx
    if order is not None and sum(idx) > order:
        raise FormatError(
            f"multi-index {text!r} has order {sum(idx)}, expected at most {order}", lineno
        )
    return idx


def _value_column(raw: str, line: str, text: str) -> int:
    """The raw column where `text`, the last field of `line` (the content
    of `raw`), starts; worked out only for an error."""
    return len(raw) - len(raw.lstrip()) + len(line) - len(text) + 1


def _parse_coeff(text: str, base_dim: int, lineno: int, raw: str, line: str) -> Poly:
    """Parse the coefficient `text`, the last field of `line`."""
    try:
        return parse_poly(text, base_dim)
    except PolyParseError as exc:
        column = _value_column(raw, line, text) + exc.position
        raise FormatError(f"bad polynomial: {exc.message}", lineno, column) from None


# The syntax Fraction(text) accepts: n, n/m and decimal notation with an
# optional exponent, with '_' allowed between digits. It is compiled (and
# cached by `re`) only when a literal first needs it, not at import.
_RATIONAL = (
    r"(?i)[-+]?(?=\d|\.\d)(?P<num>\d*|\d+(_\d+)*)"
    r"(?:/(?P<den>\d+(_\d+)*)|(?:\.(?P<decimal>\d*|\d+(_\d+)*))?(?:e(?P<exp>[-+]?\d+(_\d+)*))?)"
)


def _literal_digits(match) -> int:
    """The most decimal digits of the numerator or the denominator of the
    value a rational literal writes, before reduction: the significant
    digits of n and m for n/m, and for decimal notation those of
    M * 10^(e - f), M the mantissa's digits read as one integer and f the
    number of its fractional digits."""

    def significant(*groups):
        return len("".join(match.group(g) or "" for g in groups).replace("_", "").lstrip("0"))

    if match.group("den") is not None:
        return max(significant("num"), significant("den"))
    mantissa = significant("num", "decimal")
    if not mantissa:
        return 1  # the value is 0
    exponent = (match.group("exp") or "0").replace("_", "")
    size = exponent.lstrip("+-").lstrip("0")
    if len(size) >= 7:
        return 10**6  # over the limit; the exponent is not converted
    shift = int(exponent) - len((match.group("decimal") or "").replace("_", ""))
    return mantissa + shift if shift >= 0 else max(mantissa, 1 - shift)


def _parse_rational(text: str, lineno: int, raw: str, line: str) -> tuple:
    """The rational literal `text`, the last field of `line`, as (numerator,
    denominator) in lowest terms with denominator > 0: every form
    `Fraction(text)` accepts on Python 3.11 and later, within
    MAX_LITERAL_DIGITS. A plain n or n/m is read as integers by
    `plain_literal`; what that passes on goes through `_RATIONAL` and
    Fraction, which give the same value or the error."""
    value = plain_literal(text)
    if value is not None:
        return value
    match = re.fullmatch(_RATIONAL, text)
    if match is not None:
        if _literal_digits(match) > MAX_LITERAL_DIGITS:
            raise FormatError(
                f"rational literal exceeds the limit of {MAX_LITERAL_DIGITS} digits",
                lineno, _value_column(raw, line, text),
            )
        try:
            # the expression has placed every '_' between digits, where
            # Python 3.11 and later accept it, so 3.10 reads the same; an
            # integer of more than 4300 characters, leading zeros counted,
            # is over Python's limit on str-to-int conversion
            value = Fraction(text.replace("_", ""))
        except (ValueError, ZeroDivisionError):
            pass
        else:
            return value.numerator, value.denominator
    raise FormatError(f"bad rational literal {text!r}", lineno, _value_column(raw, line, text))


def _parse_int_field(text: str, what: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"bad {what} {text!r}", lineno) from None


def _parse_indices(fields, lineno: int) -> tuple:
    """The index fields as ints; the first bad one is the parse error."""
    try:
        return tuple(map(int, fields))
    except ValueError:
        for text in fields:
            _parse_int_field(text, "index", lineno)
        raise


def _read_key(section: str, keys, line: str, lineno: int, head: dict) -> None:
    """Check a header key line of `section`, then store its value in head."""
    key, _, text = line.partition(" ")
    text = text.strip()
    if not text:
        raise FormatError(f"key {key!r} has no value", lineno)
    if key not in keys:
        raise FormatError(f"unknown key {key!r} in [{section}]", lineno)
    if key in head:
        raise FormatError(f"duplicate key {key!r}", lineno)
    value = text
    if key in _HEAD_LIMITS:
        value = _parse_int_field(text, key, lineno)
        if value <= 0:
            raise FormatError(f"{key} must be positive", lineno)
        if value > _HEAD_LIMITS[key]:
            raise FormatError(f"{key} {value} exceeds the limit {_HEAD_LIMITS[key]}", lineno)
    elif key == "skew":
        if text not in ("true", "false"):
            raise FormatError("skew must be true or false", lineno)
        value = text == "true"
    head[key] = value


def _limits(row: _Section, head: dict, lineno: int) -> tuple:
    """(base_dim or 0, the bound of each index) of `row`'s data lines."""
    try:
        return (head["base_dim"] if row.poly else 0, [head[key] for key in row.bounds])
    except KeyError as exc:
        raise FormatError(f"missing required key {exc.args[0]!r}", lineno) from None


def _check_ranges(row: _Section, key: tuple, bounds, lineno: int) -> None:
    for i, bound in zip(key, bounds):
        if not 0 <= i < bound:
            raise FormatError(f"{row.what} out of range: " + " ".join(map(str, key)), lineno)


def _repeated(row: _Section, idx: tuple, old, value, lineno: int, shown=()) -> FormatError:
    """The error for a repeated entry that does not add up: a conflict for
    differing values of a symmetric pair, else a duplicate, named by its
    indices and the texts `shown` after them."""
    if row.symmetric and old != value:
        return FormatError("conflicting {} entries for ({},{})".format(row.noun, *idx), lineno)
    return FormatError(f"duplicate {row.noun} entry " + " ".join(map(str, idx + shown)), lineno)


def _read_row(
    row: _Section, line: str, raw: str, lineno: int, head: dict, limits, store: dict, memo: dict
):
    """Check a data line of `row` completely, in the order syntax, indices,
    the header keys it reads, multi-indices, the value and the index
    ranges, then store it, where a repeated entry adds up or is an error.
    `line` is the content of `raw`. A polynomial value (`row.poly`) is
    stored as a Poly, a rational one as (numerator, denominator) in lowest
    terms, the checked input of the `kvfin` table step. `limits` is
    (base_dim, the bound of each index) or None, looked up here at a
    section's first data line; it is returned for the next line. `memo`
    holds the document's parsed multi-indices."""
    count, multi, poly = len(row.bounds), row.multi, row.poly
    # a coefficient may hold spaces, so the line splits before it; a
    # rational value holds none, so its line splits at every space
    parts = line.split(None, count + multi) if poly else line.split()
    if len(parts) != count + multi + 1:
        raise FormatError(f"expected: {row.usage}", lineno)
    text = parts.pop()
    idx = _parse_indices(parts[:count] if multi else parts, lineno)
    if limits is None:
        limits = _limits(row, head, lineno)
    base_dim, bounds = limits
    if multi:
        alphas = tuple(
            _parse_multi_index(alpha, base_dim, row.order, lineno, memo) for alpha in parts[count:]
        )
    if poly:
        value = _parse_coeff(text, base_dim, lineno, raw, line)
    else:
        value = _parse_rational(text, lineno, raw, line)
    key = idx[::-1] if row.symmetric and idx[0] > idx[1] else idx
    _check_ranges(row, key, bounds, lineno)
    if multi:
        key += alphas
    old = store.get(key)
    if old is None:
        if row.terms is not None and len(store) == row.terms:
            raise FormatError(f"distinct {row.noun} terms exceed the limit {row.terms}", lineno)
    elif row.adds:
        value = old + value
        if over_digit_limit(value):
            raise FormatError(
                f"summed {row.noun} coefficient exceeds the limit of {MAX_LITERAL_DIGITS} digits",
                lineno,
            )
    else:
        raise _repeated(row, idx, old, value, lineno, tuple(parts[count:]))
    store[key] = value
    return limits


def _read(text: str) -> tuple:
    """The reader: the document's kind, its checked header keys and its
    section tables, {section: {entry key: value}}, keyed as `_write` and
    the build steps read them; a section header with no entries has an
    empty table."""
    lines = text.splitlines()
    kind = row = None
    head: dict = {}  # header key -> its checked value
    entries: dict = {}  # section -> {entry key: value}; a header with no entries is the zero object
    memo: dict = {}  # multi-index text -> its entries, for this document's base_dim
    for lineno, raw in enumerate(lines, start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line[0] == "[" and line[-1] == "]":
            section = line[1:-1].strip()
            row = _SECTIONS.get(section)
            if kind is None:
                if row is None or not row.keys:
                    raise FormatError("document must open with [structure] or [kvalgebra]", lineno)
                kind = row.kind
            if row is None or row.kind != kind:
                raise FormatError(f"unknown section [{section}]", lineno)
            if section in entries:
                raise FormatError(f"repeated section [{section}]", lineno)
            store = entries[section] = {}
            limits = None
            continue
        if row is None:
            raise FormatError("content before the first section header", lineno)
        if row.keys and not line[0].isdigit() and line[0] not in "+-":
            _read_key(section, row.keys, line, lineno, head)
        elif row.usage is None:
            raise FormatError(f"unexpected data line in [{section}]", lineno)
        else:
            limits = _read_row(row, line, raw, lineno, head, limits, store, memo)

    if kind is None:
        raise FormatError("empty document", max(len(lines), 1))
    for key in _SECTIONS[kind].keys:
        if key in _HEAD_LIMITS and key not in head:
            raise FormatError(f"missing required key {key!r}", len(lines))
    return kind, head, entries


def parse_document(text: str) -> ParsedDocument:
    kind, head, entries = _read(text)
    name = head.get("name", "")
    if kind == "structure":
        return ParsedDocument(kind, name, structure=_build_structure(head, entries))
    algebra, form = _build_kvalgebra(head, entries)
    return ParsedDocument(kind, name, algebra=algebra, form=form)


def canonical_text(text: str) -> str:
    """The canonical text of the document `text`, what
    `serialize_document(parse_document(text))` gives: the reader's tables
    go straight to the writer, and no operator or algebra is built."""
    return _write(*_read(text))


def _build_structure(head: dict, entries: dict):
    """The read tables go straight to the `funmodel` table step: the reader
    has checked every index range, multi-index and repeat, and the stores
    are keyed as that step reads them, [pairing] by (i, j) with i <= j."""
    return AlgebroidStructure._from_tables(
        head["rank"], head["base_dim"], entries.get("mult", {}), entries.get("anchor", {}),
        entries.get("pairing"), entries.get("dcochain"), skew=head.get("skew", False),
    )


def _build_kvalgebra(head: dict, entries: dict):
    """The read values go straight to the `kvfin` table steps: the reader
    has checked every index range and repeat, and the stores are keyed as
    those steps read them, products by (k, i, j) and the form by (i, j)
    with i <= j."""
    dim = head["dim"]
    algebra = FinKVAlgebra._from_table(dim, entries["kvalgebra"])
    form = entries.get("form")
    if form is not None:
        form = SymForm._from_table(dim, form)
    return algebra, form


# ---------------------------------------------------------------------------
# Canonical serialization.
# ---------------------------------------------------------------------------


_NUMBER_BOUND = 10**MAX_LITERAL_DIGITS  # the least number of too many digits


@lru_cache(maxsize=1024)
def _fmt_idx(alpha: tuple) -> str:
    return ",".join(map(str, alpha))


def _write(kind: str, head: dict, tables: dict) -> str:
    """The one writer: the canonical text of a document from its header
    keys and its section tables, keyed as `_read` stores them ([mult]
    (k, i, j, alpha, beta), [anchor] (a, j), [pairing] and [form] (i, j)
    with i <= j, [dcochain] (k, alpha), [kvalgebra] (k, i, j)), with Poly
    coefficients or rational values as reduced (numerator, denominator).
    A constant coefficient is written from its numerator and `den` as a
    rational value is, `n` or `n/d`, the text `str(Poly)` gives; any other
    coefficient goes through `str(Poly)`.
    A section is written if its table is given, entries in sorted key
    order (for [dcochain] that is D's grlex order, since a file holds
    order at most 1) and zero ones left out; [mult] and [anchor] are left
    out with no nonzero entry. What a file cannot hold, since the text
    would not read back, raises ValueError naming the limit: a header
    value over its limit, more entries than a section holds, a multi-index
    of order over its section's, or a number of more than
    MAX_LITERAL_DIGITS digits."""
    for key, limit in _HEAD_LIMITS.items():
        if head.get(key, 0) > limit:
            raise ValueError(f"{key} {head[key]} exceeds the limit {limit} of a file")
    lines = [f"[{kind}]"]
    if head.get("name"):
        lines.append(f"name {head['name']}")
    if kind == "structure":
        lines.append(f"base_dim {head['base_dim']}")
        lines.append(f"rank {head['rank']}")
        lines.append(f"skew {'true' if head.get('skew') else 'false'}")
    else:
        lines.append(f"dim {head['dim']}")
    zero = (0,) * head.get("base_dim", 0)  # a constant coefficient's exponent
    for section, row in _SECTIONS.items():
        table = tables.get(section)
        if table is None:
            continue
        if row.terms is not None and len(table) > row.terms:
            raise ValueError(
                f"[{section}] has {len(table)} distinct terms; a file holds at most {row.terms}"
            )
        count = len(row.bounds)
        body = []
        for key in sorted(table):
            value = table[key]
            poly = row.poly
            if poly and len(value.num) == 1 and zero in value.num:
                # a constant: written from its integers, as a rational value is
                value, poly = (value.num[zero], value.den), False
            if poly:
                if not value:
                    continue
                over = over_digit_limit(value) or max(map(max, value.num)) >= _NUMBER_BOUND
            else:
                n, d = value
                if not n:
                    continue
                over = max(abs(n), d) >= _NUMBER_BOUND
            if row.multi:
                alphas = key[count:]
                fields = " ".join([*map(str, key[:count]), *map(_fmt_idx, alphas)])
                order = max(map(sum, alphas))
                if order > row.order:
                    raise ValueError(
                        f"[{section}] term {fields} has a multi-index of order {order}; "
                        f"a file holds order at most {row.order}"
                    )
            else:
                fields = " ".join(map(str, key))
            if over:
                raise ValueError(
                    f"[{section}] entry {fields} has a number of more than "
                    f"{MAX_LITERAL_DIGITS} digits; a file holds at most that many"
                )
            text = str(value) if poly else f"{n}/{d}" if d != 1 else str(n)
            body.append(f"{fields} {text}")
        if body or row.optional:
            if not row.keys:
                lines.append(f"[{section}]")
            lines.extend(body)
    return "\n".join(lines) + "\n"


def serialize_structure(S: AlgebroidStructure, name: str = "") -> str:
    """The canonical text of S: its section tables from the views, then
    `_write`, which raises ValueError for a structure built in code that a
    file cannot hold."""
    head = {"name": name, "base_dim": S.base_dim, "rank": S.rank, "skew": S.skew}
    matrix = S.anchor.matrix
    tables = {
        "mult": dict(S.mult.terms),
        "anchor": {(a, j): c for a, row in enumerate(matrix) for j, c in enumerate(row) if c},
    }
    if S.has("pairing"):
        g = S.pairing.matrix
        tables["pairing"] = {
            (i, j): g[i][j] for i in range(S.rank) for j in range(i, S.rank) if g[i][j]
        }
    if S.has("D"):
        tables["dcochain"] = {
            (k, alpha): c
            for k, op in enumerate(S.d_cochain.components)
            for alpha, c in op.terms.items()
        }
    return _write("structure", head, tables)


def serialize_kvalgebra(A: FinKVAlgebra, form: Optional[SymForm] = None, name: str = "") -> str:
    """The canonical text of A and its form: the section tables from
    `A.nz`/`A.den` and `form.num`/`form.den`, then `_write`. A form of
    another dim than A's raises ValueError, as `_write` does for what a
    file cannot hold."""
    den = A.den
    tables = {
        "kvalgebra": {
            (m, i, j): reduced(n, den)
            for i, plane in enumerate(A.nz)
            for j, row in enumerate(plane)
            for m, n in row
        }
    }
    if form is not None:
        if form.dim != A.dim:
            raise ValueError(f"the form has dim {form.dim}, the algebra dim {A.dim}")
        num, den = form.num, form.den
        tables["form"] = {
            (i, j): reduced(num[i][j], den)
            for i in range(form.dim)
            for j in range(i, form.dim)
            if num[i][j]
        }
    return _write("kvalgebra", {"name": name, "dim": A.dim}, tables)


def serialize_document(doc: ParsedDocument) -> str:
    if doc.kind == "structure":
        return serialize_structure(doc.structure, doc.name)
    return serialize_kvalgebra(doc.algebra, doc.form, doc.name)
