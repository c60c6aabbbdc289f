"""Line-oriented structure-definition files.

Two document kinds share the syntax: bracketed section headers, `#`
comments, 0-based indices, and exact rational/polynomial values.

Function-model structure:

    [structure]
    name <identifier>          # optional
    base_dim <n>
    rank <r>
    skew <true|false>
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

alpha/beta are comma-separated multi-indices of length base_dim; coeff is
a polynomial in x1..xn; value is a rational literal. Serialization is
canonical (sorted term order), so parse -> serialize is bit-stable.

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
  and Q[x]/(x^6) after a unimodular change of basis) and 22.6-25.8 s on
  clan-84 + vinberg-83 after one (Intel Xeon, 2 cores, Python 3.11.7).
- A [structure] rank is at most MAX_RANK (16) and its base_dim at most
  MAX_BASE_DIM (8), which admits every catalog entry and courant_standard(n)
  and tangent_lie(n) for n <= 8. A structure holds base_dim x rank anchor
  entries (and rank x rank pairing entries with a pairing) whatever the
  file lists, so without a limit a 4-line file with rank 200000 took
  0.41 s and 43 MB to `export`. At the limits, `check FILE` (the
  capability matrix) took 3.9 s on courant_standard(8) (rank 16, base_dim
  8) and 0.16 s on tangent_lie(8) (same machine). These limits do not
  bound the number of product lines, which the time also grows with.
- A number literal has at most MAX_LITERAL_DIGITS (1000) digits. In a
  polynomial that holds for each integer (the digits of a constant, a
  denominator, a variable index or an exponent), and for the numerators
  and the denominator of every coefficient the polynomial parser computes:
  a sum, product or power over the limit is an error at the column of its
  operator, and a power such as 2^99999999999 is refused before it is
  built. A rational value in [kvalgebra] or [form] takes every form
  Fraction(text) accepts (3/4, -2, 1.5, 1e3), and its numerator and
  denominator, written out before reduction, have at most that many
  significant digits: 1e999 is at the limit, 1e1000 and 1e-1000 are over
  it. So a value prints without reaching Python's 4300-digit limit on
  int-to-str conversion.
- Each product the polynomial parser computes multiplies at most
  MAX_TERM_PRODUCTS (200,000) pairs of terms, checked before it is made,
  so (1+x1+x2)^3000 is an error at the column of its ^.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from .exactmath import MAX_LITERAL_DIGITS, Poly, PolyParseError, grlex_key, parse_poly
from .funmodel import (
    AlgebroidStructure,
    AnchorMap,
    BiDiffOp,
    DCochain,
    DiffOp,
    Pairing,
)
from .kvfin import FinKVAlgebra, SymForm


class FormatError(ValueError):
    """Parse error with 1-based line (and, when known, column) position."""

    def __init__(self, message: str, line: int, column: Optional[int] = None):
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.column = column


class ParsedDocument:
    """A parsed file: its kind ("structure" | "kvalgebra"), its name, and
    the structure, or the algebra with its optional form."""

    _FIELDS = ("kind", "name", "structure", "algebra", "form")

    def __init__(
        self,
        kind: str,
        name: str,
        structure: Optional[AlgebroidStructure] = None,
        algebra: Optional[FinKVAlgebra] = None,
        form: Optional[SymForm] = None,
    ):
        self.kind = kind
        self.name = name
        self.structure = structure
        self.algebra = algebra
        self.form = form

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._FIELDS)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._FIELDS)
        return f"ParsedDocument({fields})"


MAX_KV_DIM = 6
MAX_RANK = 16
MAX_BASE_DIM = 8
# header key -> the largest value a file may give it
_HEAD_LIMITS = {"dim": MAX_KV_DIM, "rank": MAX_RANK, "base_dim": MAX_BASE_DIM}

_STRUCT_SECTIONS = ("structure", "mult", "anchor", "pairing", "dcochain")
_KV_SECTIONS = ("kvalgebra", "form")


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def _parse_multi_index(text: str, base_dim: int, lineno: int):
    parts = text.split(",")
    if len(parts) != base_dim:
        raise FormatError(
            f"multi-index {text!r} has {len(parts)} entries, expected {base_dim}",
            lineno,
        )
    try:
        idx = tuple(int(p) for p in parts)
    except ValueError:
        raise FormatError(f"bad multi-index {text!r}", lineno) from None
    if any(i < 0 for i in idx):
        raise FormatError(f"negative entry in multi-index {text!r}", lineno)
    return idx


def _parse_coeff(text: str, base_dim: int, lineno: int, end: int) -> Poly:
    """Parse the coefficient that ends the line at raw column `end`."""
    try:
        return parse_poly(text, base_dim)
    except PolyParseError as exc:
        col = end - len(text) + exc.position + 1
        raise FormatError(f"bad polynomial: {exc.message}", lineno, col) from None


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


def _parse_rational(text: str, lineno: int, column: int) -> Fraction:
    """Parse the rational literal `text` that starts at raw column `column`:
    every form `Fraction(text)` accepts, within MAX_LITERAL_DIGITS."""
    num, slash, den = text.partition("/")
    body = num[1:] if num.startswith(("+", "-")) else num
    # n and n/m, the common forms, skip the regular expressions
    plain = body.isdecimal() and (den.isdecimal() or not slash)
    match = None if plain else re.fullmatch(_RATIONAL, text)
    if not plain and match is None:
        raise FormatError(f"bad rational literal {text!r}", lineno, column)
    digits = max(len(body.lstrip("0")), len(den.lstrip("0"))) if plain else _literal_digits(match)
    if digits > MAX_LITERAL_DIGITS:
        raise FormatError(
            f"rational literal exceeds the limit of {MAX_LITERAL_DIGITS} digits", lineno, column
        )
    try:
        if plain:
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"bad rational literal {text!r}", lineno, column) from None


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


def parse_document(text: str) -> ParsedDocument:
    lines = text.splitlines()
    # locate the first header to decide the document kind
    section = None
    kind = None
    name = ""
    head: dict = {}
    mult_terms = []
    anchor_entries = {}
    pairing_entries = {}
    d_entries = {}
    kv_entries = {}  # entry key -> (value, line of the entry)
    form_entries = {}
    where = {}  # (section, entry key) -> line of a [structure] document's entry
    seen_head_keys = set()
    sections = set()  # the headers met; a header with no entries is the zero object

    for lineno, raw in enumerate(lines, start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        end = len(raw) - len(raw.lstrip()) + len(line)  # raw column after the content
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if kind is None:
                if section == "structure":
                    kind = "structure"
                elif section == "kvalgebra":
                    kind = "kvalgebra"
                else:
                    raise FormatError(
                        "document must open with [structure] or [kvalgebra]", lineno
                    )
            allowed = _STRUCT_SECTIONS if kind == "structure" else _KV_SECTIONS
            if section not in allowed:
                raise FormatError(f"unknown section [{section}]", lineno)
            sections.add(section)
            continue
        if section is None:
            raise FormatError("content before the first section header", lineno)

        if section in ("structure", "kvalgebra") and not line[0].isdigit() and line[0] != "-":
            key, _, value = line.partition(" ")
            value = value.strip()
            if not value:
                raise FormatError(f"key {key!r} has no value", lineno)
            if key in seen_head_keys:
                raise FormatError(f"duplicate key {key!r}", lineno)
            seen_head_keys.add(key)
            head[key] = (value, lineno)
            continue

        fields = line.split()
        if section == "mult":
            parts = line.split(None, 5)
            if len(parts) != 6:
                raise FormatError("expected: k i j alpha beta coeff", lineno)
            k, i, j = (_parse_int_field(p, "index", lineno) for p in parts[:3])
            base_dim = _head_int(head, "base_dim", lineno)
            alpha = _parse_multi_index(parts[3], base_dim, lineno)
            beta = _parse_multi_index(parts[4], base_dim, lineno)
            coeff = _parse_coeff(parts[5], base_dim, lineno, end)
            where[("mult", len(mult_terms))] = lineno
            mult_terms.append((k, i, j, alpha, beta, coeff))
        elif section == "anchor":
            parts = line.split(None, 2)
            if len(parts) != 3:
                raise FormatError("expected: a j coeff", lineno)
            a = _parse_int_field(parts[0], "index", lineno)
            j = _parse_int_field(parts[1], "index", lineno)
            base_dim = _head_int(head, "base_dim", lineno)
            coeff = _parse_coeff(parts[2], base_dim, lineno, end)
            if (a, j) in anchor_entries:
                raise FormatError(f"duplicate anchor entry {a} {j}", lineno)
            anchor_entries[(a, j)] = coeff
            where[("anchor", (a, j))] = lineno
        elif section == "pairing":
            parts = line.split(None, 2)
            if len(parts) != 3:
                raise FormatError("expected: i j coeff", lineno)
            i = _parse_int_field(parts[0], "index", lineno)
            j = _parse_int_field(parts[1], "index", lineno)
            base_dim = _head_int(head, "base_dim", lineno)
            coeff = _parse_coeff(parts[2], base_dim, lineno, end)
            key = (min(i, j), max(i, j))
            if key in pairing_entries:
                if pairing_entries[key] != coeff:
                    raise FormatError(
                        f"conflicting pairing entries for ({i},{j})", lineno
                    )
                raise FormatError(f"duplicate pairing entry {i} {j}", lineno)
            pairing_entries[key] = coeff
            where[("pairing", key)] = lineno
        elif section == "dcochain":
            parts = line.split(None, 2)
            if len(parts) != 3:
                raise FormatError("expected: k alpha coeff", lineno)
            k = _parse_int_field(parts[0], "index", lineno)
            base_dim = _head_int(head, "base_dim", lineno)
            alpha = _parse_multi_index(parts[1], base_dim, lineno)
            coeff = _parse_coeff(parts[2], base_dim, lineno, end)
            if (k, alpha) in d_entries:
                raise FormatError(f"duplicate dcochain entry {k} {parts[1]}", lineno)
            d_entries[(k, alpha)] = coeff
            where[("dcochain", (k, alpha))] = lineno
        elif section == "kvalgebra":
            if len(fields) != 4:
                raise FormatError("expected: k i j value", lineno)
            key = _parse_indices(fields[:3], lineno)
            if key in kv_entries:
                raise FormatError("duplicate product entry {} {} {}".format(*key), lineno)
            kv_entries[key] = (_parse_rational(fields[3], lineno, end - len(fields[3]) + 1), lineno)
        elif section == "form":
            if len(fields) != 3:
                raise FormatError("expected: i j value", lineno)
            i, j = _parse_indices(fields[:2], lineno)
            value = _parse_rational(fields[2], lineno, end - len(fields[2]) + 1)
            key = (i, j) if i <= j else (j, i)
            if key in form_entries:
                if form_entries[key][0] != value:
                    raise FormatError(f"conflicting form entries for ({i},{j})", lineno)
                raise FormatError(f"duplicate form entry {i} {j}", lineno)
            form_entries[key] = (value, lineno)
        else:
            raise FormatError(f"unexpected data line in [{section}]", lineno)

    if kind is None:
        raise FormatError("empty document", max(len(lines), 1))

    name = head.get("name", ("", 0))[0]

    if kind == "structure":
        base_dim = _head_int(head, "base_dim", 1)
        rank = _head_int(head, "rank", 1)
        skew_text, skew_line = head.get("skew", ("false", 0))
        if skew_text not in ("true", "false"):
            raise FormatError("skew must be true or false", skew_line)
        _validate_indices(
            mult_terms, rank, base_dim, anchor_entries, pairing_entries, d_entries, where
        )
        mult = BiDiffOp(rank, base_dim, mult_terms, skew=(skew_text == "true"))
        anchor_matrix = [
            [anchor_entries.get((a, j), Poly.zero(base_dim)) for j in range(rank)]
            for a in range(base_dim)
        ]
        anchor = AnchorMap(base_dim, rank, anchor_matrix)
        pairing = None
        if "pairing" in sections:
            g = [[Poly.zero(base_dim) for _ in range(rank)] for _ in range(rank)]
            for (i, j), coeff in pairing_entries.items():
                g[i][j] = coeff
                g[j][i] = coeff
            pairing = Pairing(rank, base_dim, g)
        d_cochain = None
        if "dcochain" in sections:
            comps = [dict() for _ in range(rank)]
            for (k, alpha), coeff in d_entries.items():
                comps[k][alpha] = coeff
            d_cochain = DCochain(rank, base_dim, [DiffOp(base_dim, c) for c in comps])
        structure = AlgebroidStructure(rank, base_dim, mult, anchor, pairing, d_cochain)
        return ParsedDocument("structure", name, structure=structure)

    dim = _head_int(head, "dim", 1)
    for (k, i, j), (_, line) in kv_entries.items():
        if not (0 <= k < dim and 0 <= i < dim and 0 <= j < dim):
            raise FormatError(f"product index out of range: {k} {i} {j}", line)
    algebra = FinKVAlgebra.from_entries(
        dim, ((i, j, k, value) for (k, i, j), (value, _) in kv_entries.items())
    )
    form = None
    if "form" in sections:
        for (i, j), (_, line) in form_entries.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise FormatError(f"form index out of range: {i} {j}", line)
        form = SymForm.from_entries(
            dim, ((i, j, value) for (i, j), (value, _) in form_entries.items())
        )
    return ParsedDocument("kvalgebra", name, algebra=algebra, form=form)


def _head_int(head: dict, key: str, lineno: int) -> int:
    if key not in head:
        raise FormatError(f"missing required key {key!r}", lineno)
    value, keyline = head[key]
    out = _parse_int_field(value, key, keyline)
    if out <= 0:
        raise FormatError(f"{key} must be positive", keyline)
    if out > _HEAD_LIMITS[key]:
        raise FormatError(f"{key} {out} exceeds the limit {_HEAD_LIMITS[key]}", keyline)
    return out


def _validate_indices(mult_terms, rank, base_dim, anchor_entries, pairing_entries, d_entries, where):
    for n, (k, i, j, alpha, beta, _) in enumerate(mult_terms):
        if not all(0 <= t < rank for t in (k, i, j)):
            raise FormatError(f"mult component index out of range: {k} {i} {j}", where[("mult", n)])
    for a, j in anchor_entries:
        if not (0 <= a < base_dim and 0 <= j < rank):
            raise FormatError(f"anchor index out of range: {a} {j}", where[("anchor", (a, j))])
    for i, j in pairing_entries:
        if not (0 <= i < rank and 0 <= j < rank):
            raise FormatError(f"pairing index out of range: {i} {j}", where[("pairing", (i, j))])
    for k, alpha in d_entries:
        if not 0 <= k < rank:
            raise FormatError(
                f"dcochain component out of range: {k}", where[("dcochain", (k, alpha))]
            )


# ---------------------------------------------------------------------------
# Canonical serialization.
# ---------------------------------------------------------------------------


def _fmt_idx(alpha) -> str:
    return ",".join(str(a) for a in alpha)


def serialize_structure(S: AlgebroidStructure, name: str = "") -> str:
    lines = ["[structure]"]
    if name:
        lines.append(f"name {name}")
    lines.append(f"base_dim {S.base_dim}")
    lines.append(f"rank {S.rank}")
    lines.append(f"skew {'true' if S.mult.skew else 'false'}")
    if S.mult.terms:
        lines.append("[mult]")
        for (k, i, j, alpha, beta), coeff in S.mult.terms:
            lines.append(f"{k} {i} {j} {_fmt_idx(alpha)} {_fmt_idx(beta)} {coeff}")
    anchor_lines = []
    for a in range(S.base_dim):
        for j in range(S.rank):
            coeff = S.anchor.matrix[a][j]
            if not coeff.is_zero():
                anchor_lines.append(f"{a} {j} {coeff}")
    if anchor_lines:
        lines.append("[anchor]")
        lines.extend(anchor_lines)
    if S.pairing is not None:
        lines.append("[pairing]")
        for i in range(S.rank):
            for j in range(i, S.rank):
                coeff = S.pairing.matrix[i][j]
                if not coeff.is_zero():
                    lines.append(f"{i} {j} {coeff}")
    if S.d_cochain is not None:
        lines.append("[dcochain]")
        for k, op in enumerate(S.d_cochain.components):
            for alpha in sorted(op.terms, key=grlex_key):
                lines.append(f"{k} {_fmt_idx(alpha)} {op.terms[alpha]}")
    return "\n".join(lines) + "\n"


def serialize_kvalgebra(A: FinKVAlgebra, form: Optional[SymForm] = None, name: str = "") -> str:
    lines = ["[kvalgebra]"]
    if name:
        lines.append(f"name {name}")
    lines.append(f"dim {A.dim}")
    for k in range(A.dim):
        for i in range(A.dim):
            for j in range(A.dim):
                value = A.c[i][j][k]
                if value:
                    lines.append(f"{k} {i} {j} {value}")
    if form is not None:
        lines.append("[form]")
        for i in range(form.dim):
            for j in range(i, form.dim):
                if form.matrix[i][j]:
                    lines.append(f"{i} {j} {form.matrix[i][j]}")
    return "\n".join(lines) + "\n"


def serialize_document(doc: ParsedDocument) -> str:
    if doc.kind == "structure":
        return serialize_structure(doc.structure, doc.name)
    return serialize_kvalgebra(doc.algebra, doc.form, doc.name)
