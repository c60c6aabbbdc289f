"""The format corpus: bad definition files, each with the exit code and
stderr that `algebroid export FILE` gives (`cli.run`, in-process). It
covers every `FormatError` text of `fileformat`, every section, and files
with two or more errors, where the one reported is the first in line order.

An entry with `was` answers differently from the parser that read each
section with its own branch and checked index ranges after the last line;
`was` is that parser's (exit code, stderr). Those entries are the intended
changes: the first error in line order, header keys outside the kind's
list, repeated sections, keys that come after the data lines that read
them, and a [dcochain] term of order above 1, which exited 3. Four later
changes are marked the same way: a [mult] multi-index of order above 1,
which was read (and could make `check` hang), a superscript digit in a
polynomial, which exited 3, the end of a polynomial, which was read as a
sign, so its error column was one too far, and a [mult] section of more
than 512 distinct terms, which was read. Every other entry gives that
parser's output byte for byte.

`tests/test_fileformat.py` runs the corpus under pytest. Run it without
pytest, on any Python the package supports, with

    PYTHONPATH=src python tests/format_corpus.py

which prints each mismatching entry and exits 1 if there is one.
"""

import io
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

from algebroid.cli import run

Case = namedtuple("Case", "label text code err was", defaults=(None,))

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


def witt(old="", new=""):
    """WITT with its first `old` replaced by `new`."""
    return WITT.replace(old, new, 1)


def witt2(old, new):
    """witt(old, new) at rank 2."""
    return witt(old, new).replace("rank 1", "rank 2")


def kv(old="", new=""):
    """KV with its first `old` replaced by `new`."""
    return KV.replace(old, new, 1)


def lines(*rows):
    return "\n".join(rows) + "\n"


def mult_terms(count, *extra):
    """A rank-8 structure whose [mult] lists `count` distinct terms
    k i j 0 0 1 (512 of them at most), then the lines `extra`."""
    terms = (f"{n // 64} {n // 8 % 8} {n % 8} 0 0 1" for n in range(count))
    return lines("[structure]", "base_dim 1", "rank 8", "[mult]", *terms, *extra)


FORMAT_CORPUS = (
    # document level
    Case("empty", "",
         2, "error: line 1: empty document\n"),
    Case("only-comments", "# nothing here\n\n",
         2, "error: line 2: empty document\n"),
    Case("opens-with-mult", lines("[mult]", "0 0 0 0 0 1"),
         2, "error: line 1: document must open with [structure] or [kvalgebra]\n"),
    Case("opens-with-form", lines("  [form]  # a comment", "0 0 1"),
         2, "error: line 1: document must open with [structure] or [kvalgebra]\n"),
    Case("content-before-header", lines("dim 2", "[kvalgebra]"),
         2, "error: line 1: content before the first section header\n"),
    Case("unknown-section", lines("[structure]", "base_dim 1", "rank 1", "[bogus]"),
         2, "error: line 4: unknown section [bogus]\n"),
    Case("form-in-structure", witt() + "[form]\n",
         2, "error: line 15: unknown section [form]\n"),
    Case("mult-in-kvalgebra", kv() + "[mult]\n",
         2, "error: line 8: unknown section [mult]\n"),
    Case("kvalgebra-in-structure", witt() + "[kvalgebra]\n",
         2, "error: line 15: unknown section [kvalgebra]\n"),
    # header keys
    Case("key-without-value", lines("[structure]", "base_dim"),
         2, "error: line 2: key 'base_dim' has no value\n"),
    Case("key-with-tab", lines("[structure]", "base_dim\t1", "rank 1"),
         2, "error: line 2: key 'base_dim\\t1' has no value\n"),
    Case("duplicate-key", lines("[structure]", "rank 1", "rank 2", "base_dim 1"),
         2, "error: line 3: duplicate key 'rank'\n"),
    Case("bad-base-dim", lines("[structure]", "base_dim two", "rank 1"),
         2, "error: line 2: bad base_dim 'two'\n"),
    Case("zero-rank", lines("[structure]", "base_dim 1", "rank 0"),
         2, "error: line 3: rank must be positive\n"),
    Case("rank-over-limit", lines("[structure]", "base_dim 1", "rank 200000", "skew false"),
         2, "error: line 3: rank 200000 exceeds the limit 16\n"),
    Case("base-dim-over-limit", witt("base_dim 1", "base_dim 9"),
         2, "error: line 3: base_dim 9 exceeds the limit 8\n"),
    Case("dim-over-limit", kv("dim 2", "dim 7"),
         2, "error: line 3: dim 7 exceeds the limit 6\n"),
    Case("negative-dim", kv("dim 2", "dim -1"),
         2, "error: line 3: dim must be positive\n"),
    Case("bad-dim", kv("dim 2", "dim 2.0"),
         2, "error: line 3: bad dim '2.0'\n"),
    Case("bad-skew", witt("skew true", "skew yes"),
         2, "error: line 5: skew must be true or false\n"),
    Case("missing-base-dim", lines("[structure]", "rank 1", "skew true"),
         2, "error: line 3: missing required key 'base_dim'\n",
         was=(2, "error: line 1: missing required key 'base_dim'\n")),
    Case("missing-rank", lines("[structure]", "base_dim 1"),
         2, "error: line 2: missing required key 'rank'\n",
         was=(2, "error: line 1: missing required key 'rank'\n")),
    Case("missing-dim", lines("[kvalgebra]", "name x"),
         2, "error: line 2: missing required key 'dim'\n",
         was=(2, "error: line 1: missing required key 'dim'\n")),
    Case("missing-base-dim-at-data", lines("[structure]", "rank 1", "[mult]", "0 0 0 0 0 1"),
         2, "error: line 4: missing required key 'base_dim'\n"),
    Case("missing-rank-at-data", lines("[structure]", "base_dim 1", "[mult]", "0 0 0 0 0 1"),
         2, "error: line 4: missing required key 'rank'\n",
         was=(2, "error: line 1: missing required key 'rank'\n")),
    Case("key-line-in-form", kv("[form]\n0 0 1", "[form]\ndim 2"),
         2, "error: line 6: expected: i j value\n"),
    Case("key-line-in-mult", witt("0 0 0 0 1 1", "rank 2"),
         2, "error: line 7: expected: k i j alpha beta coeff\n"),
    Case("unknown-key-without-value", lines("[structure]", "skw"),
         2, "error: line 2: key 'skw' has no value\n"),
    Case("data-line-in-structure", lines("[structure]", "base_dim 1", "rank 1", "0 0 0"),
         2, "error: line 4: unexpected data line in [structure]\n"),
    # [mult]
    Case("mult-short", witt("0 0 0 0 1 1", "0 0 0 0 1"),
         2, "error: line 7: expected: k i j alpha beta coeff\n"),
    Case("mult-bad-index", witt("0 0 0 0 1 1", "0 0 x 0 1 1"),
         2, "error: line 7: bad index 'x'\n"),
    Case("mult-multi-index-length", witt("0 0 0 0 1 1", "0 0 0 0,0 1 1"),
         2, "error: line 7: multi-index '0,0' has 2 entries, expected 1\n"),
    Case("mult-bad-multi-index", witt("0 0 0 0 1 1", "0 0 0 a 1 1"),
         2, "error: line 7: bad multi-index 'a'\n"),
    Case("mult-negative-multi-index", witt("0 0 0 0 1 1", "0 0 0 -1 1 1"),
         2, "error: line 7: negative entry in multi-index '-1'\n"),
    Case("dcochain-order-2",
         lines("[structure]", "base_dim 1", "rank 1", "skew false", "[dcochain]", "0 2 1"),
         2, "error: line 6: multi-index '2' has order 2, expected at most 1\n",
         was=(3, "internal error: ValueError: D components must be differential operators "
                 "of order <= 1\n")),
    Case("mult-order-2", witt("0 0 0 0 1 1", "0 0 0 0 2 1"),
         2, "error: line 7: multi-index '2' has order 2, expected at most 1\n",
         was=(0, "")),
    Case("mult-order-10-to-20",
         lines("[structure]", "base_dim 1", "rank 1", "[mult]", "0 0 0 99999999999999999999 0 1"),
         2, "error: line 5: multi-index '99999999999999999999' has order 99999999999999999999, "
            "expected at most 1\n",
         was=(0, "")),
    Case("mult-superscript-digit", witt("0 0 0 0 1 1", "0 0 0 0 1 ²"),
         2, "error: line 7, column 11: bad polynomial: expected polynomial atom\n",
         was=(3, "internal error: ValueError: invalid literal for int() with base 10: '²'\n")),
    Case("mult-bad-polynomial", witt("0 0 0 0 1 1", "0 0 0 0 1 x1 + * 2"),
         2, "error: line 7, column 16: bad polynomial: expected polynomial atom\n"),
    Case("mult-variable-out-of-range", witt("0 0 0 0 1 1", "  0 0 0 0 1   x2"),
         2, "error: line 7, column 15: bad polynomial: variable x2 out of range for base_dim 1\n"),
    Case("mult-index-out-of-range", witt("0 0 0 1 0 -1", "0 0 5 1 0 -1"),
         2, "error: line 8: mult component index out of range: 0 0 5\n"),
    Case("mult-long-literal", witt("0 0 0 1 0 -1", "0 0 0 1 0 " + "7" * 1001),
         2, "error: line 8, column 11: bad polynomial: integer literal exceeds the limit of 1000 digits\n"),
    Case("mult-power-over-limit", witt("0 0 0 1 0 -1", "0 0 0 1 0 2^3322"),
         2, "error: line 8, column 12: bad polynomial: coefficient exceeds the limit of 1000 digits\n"),
    Case("term-product-limit",
         lines("[structure]", "base_dim 2", "rank 1", "[dcochain]", "0 0,0 (1+x1+x2)^3000"),
         2, "error: line 5, column 16: bad polynomial: product of 561 by 561 terms exceeds the limit of 200000 term products\n"),
    Case("mult-terms-over-limit", mult_terms(512, "0 0 0 0 0 2", "7 7 7 1 0 x1"),
         2, "error: line 518: distinct mult terms exceed the limit 512\n",
         was=(0, "")),
    # [anchor]
    Case("anchor-short", witt("0 0 2*x1", "0 2*x1"),
         2, "error: line 10: expected: a j coeff\n"),
    Case("anchor-duplicate", witt("0 0 2*x1", "0 0 2*x1\n00 0 x1"),
         2, "error: line 11: duplicate anchor entry 0 0\n"),
    Case("anchor-index-out-of-range", witt("0 0 2*x1", "0 3 2*x1"),
         2, "error: line 10: anchor index out of range: 0 3\n"),
    Case("anchor-negative-index", witt("0 0 2*x1", "-1 0 x1"),
         2, "error: line 10: anchor index out of range: -1 0\n"),
    Case("anchor-bad-polynomial", witt("0 0 2*x1", "\t0  0 2*x1)"),
         2, "error: line 10, column 11: bad polynomial: unexpected character ')'\n"),
    Case("anchor-open-parenthesis",
         lines("[structure]", "base_dim 1", "rank 1", "skew true", "[anchor]", "0 0 ("),
         2, "error: line 6, column 6: bad polynomial: expected polynomial atom\n",
         was=(2, "error: line 6, column 7: bad polynomial: expected polynomial atom\n")),
    # [pairing]
    Case("pairing-short", witt("[pairing]\n0 0 1", "[pairing]\n0 0"),
         2, "error: line 12: expected: i j coeff\n"),
    Case("pairing-conflict", witt2("[pairing]\n0 0 1", "[pairing]\n0 1 5\n1 0 6"),
         2, "error: line 13: conflicting pairing entries for (1,0)\n"),
    Case("pairing-duplicate", witt2("[pairing]\n0 0 1", "[pairing]\n0 1 5\n1 0 5"),
         2, "error: line 13: duplicate pairing entry 1 0\n"),
    Case("pairing-index-out-of-range", witt("[pairing]\n0 0 1", "[pairing]\n0 0 1\n3 1 1"),
         2, "error: line 13: pairing index out of range: 1 3\n"),
    # [dcochain]
    Case("dcochain-short", witt("[dcochain]\n0 1 2", "[dcochain]\n0 1"),
         2, "error: line 14: expected: k alpha coeff\n"),
    Case("dcochain-duplicate", witt("0 1 2", "0 1 2\n0 01 3"),
         2, "error: line 15: duplicate dcochain entry 0 01\n"),
    Case("dcochain-component-out-of-range", witt("0 1 2", "0 1 2\n\n2 0 1"),
         2, "error: line 16: dcochain component out of range: 2\n"),
    Case("dcochain-division-by-zero", witt("[dcochain]\n0 1 2", "[dcochain]\n0 1 1/0"),
         2, "error: line 14, column 7: bad polynomial: zero denominator\n"),
    # [kvalgebra] data
    Case("product-short", kv("1 0 0 1", "1 0 0"),
         2, "error: line 4: expected: k i j value\n"),
    Case("product-bad-index", kv("1 0 0 1", "1 0 z 1"),
         2, "error: line 4: bad index 'z'\n"),
    Case("product-bad-rational", kv("1 0 0 1", "1 0 0 one"),
         2, "error: line 4, column 7: bad rational literal 'one'\n"),
    Case("product-spaced-rational", kv("1 0 0 1", "1 0 0 3 / 4"),
         2, "error: line 4: expected: k i j value\n"),
    Case("product-literal-over-limit", kv("1 0 0 1", "1 0 0 1e20000"),
         2, "error: line 4, column 7: rational literal exceeds the limit of 1000 digits\n"),
    Case("product-duplicate", kv("1 0 0 1", "1 0 0 1\n1 0 0 2"),
         2, "error: line 5: duplicate product entry 1 0 0\n"),
    Case("product-index-out-of-range", kv("1 0 0 1", "1 0 0 1\n0 2 1 1"),
         2, "error: line 5: product index out of range: 0 2 1\n"),
    # [form]
    Case("form-short", kv("[form]\n0 0 1", "[form]\n0 0"),
         2, "error: line 6: expected: i j value\n"),
    Case("form-conflict", kv("1 1 3/2", "0 1 1\n1 0 2"),
         2, "error: line 8: conflicting form entries for (1,0)\n"),
    Case("form-duplicate", kv("1 1 3/2", "0 1 1\n1 0 1"),
         2, "error: line 8: duplicate form entry 1 0\n"),
    Case("form-index-out-of-range", kv() + "# a comment\n3 0 1\n",
         2, "error: line 9: form index out of range: 0 3\n"),
    Case("form-zero-denominator", kv("1 1 3/2", "1 1 3/0"),
         2, "error: line 7, column 5: bad rational literal '3/0'\n"),
    # two or more errors
    Case("index-and-polynomial-one-line", witt("0 0 0 0 1 1", "0 0 5 0 1 x1+*"),
         2, "error: line 7, column 14: bad polynomial: expected polynomial atom\n"),
    Case("bad-index-then-bad-value", kv("1 0 0 1", "1 0 z 1\n1 1 1 one"),
         2, "error: line 4: bad index 'z'\n"),
    Case("conflict-then-range", witt2("[pairing]\n0 0 1", "[pairing]\n0 1 5\n1 0 6\n3 3 1"),
         2, "error: line 13: conflicting pairing entries for (1,0)\n"),
    Case("anchor-mult-coefficient",
         lines("[structure]", "base_dim 1", "rank 1", "skew true", "[anchor]", "0 3 x1",
               "[mult]", "0 0 5 0 1 1", "0 0 0 1 0 1+*"),
         2, "error: line 6: anchor index out of range: 0 3\n",
         was=(2, "error: line 9, column 13: bad polynomial: expected polynomial atom\n")),
    Case("anchor-then-mult-range",
         lines("[structure]", "base_dim 1", "rank 1", "skew true", "[anchor]", "0 3 x1",
               "[mult]", "0 0 5 0 1 1"),
         2, "error: line 6: anchor index out of range: 0 3\n",
         was=(2, "error: line 8: mult component index out of range: 0 0 5\n")),
    Case("rank-limit-then-coefficient",
         lines("[structure]", "base_dim 1", "rank 99", "[mult]", "0 0 0 0 0 x1+*"),
         2, "error: line 3: rank 99 exceeds the limit 16\n",
         was=(2, "error: line 5, column 14: bad polynomial: expected polynomial atom\n")),
    Case("bad-skew-then-coefficient", witt("skew true", "skew yes").replace("0 1 2", "0 1 2+"),
         2, "error: line 5: skew must be true or false\n",
         was=(2, "error: line 14, column 7: bad polynomial: expected polynomial atom\n")),
    Case("product-range-then-value", lines("[kvalgebra]", "dim 2", "0 2 0 1", "0 0 0 x"),
         2, "error: line 3: product index out of range: 0 2 0\n",
         was=(2, "error: line 4, column 7: bad rational literal 'x'\n")),
    Case("form-range-then-conflict",
         lines("[kvalgebra]", "dim 2", "[form]", "0 5 1", "0 0 1", "0 0 2"),
         2, "error: line 4: form index out of range: 0 5\n",
         was=(2, "error: line 6: conflicting form entries for (0,0)\n")),
    Case("duplicate-then-bad-value", kv("1 0 0 1", "1 0 0 1\n1 0 0 x"),
         2, "error: line 5, column 7: bad rational literal 'x'\n",
         was=(2, "error: line 5: duplicate product entry 1 0 0\n")),
    Case("mult-range-then-term-limit", mult_terms(512, "0 0 8 1 0 1"),
         2, "error: line 517: mult component index out of range: 0 0 8\n"),
    Case("bad-rank-then-duplicate-key", lines("[structure]", "rank x", "rank 2", "base_dim 1"),
         2, "error: line 2: bad rank 'x'\n",
         was=(2, "error: line 3: duplicate key 'rank'\n")),
    Case("range-then-missing-dim", lines("[kvalgebra]", "5 0 0 1", "dim 2"),
         2, "error: line 2: missing required key 'dim'\n",
         was=(2, "error: line 2: product index out of range: 5 0 0\n")),
    # files the old parser accepted: unknown keys, repeated sections, keys after data
    Case("unknown-key-skw", witt("skew true", "skw true"),
         2, "error: line 5: unknown key 'skw' in [structure]\n",
         was=(0, "")),
    Case("unknown-key-rank-in-kvalgebra", kv("dim 2", "dim 2\nrank 5"),
         2, "error: line 4: unknown key 'rank' in [kvalgebra]\n",
         was=(0, "")),
    Case("unknown-key-dim-in-structure", lines("[structure]", "base_dim 1", "rank 1", "dim 3"),
         2, "error: line 4: unknown key 'dim' in [structure]\n",
         was=(0, "")),
    Case("repeated-mult", witt() + "[mult]\n0 0 0 0 0 1\n",
         2, "error: line 15: repeated section [mult]\n",
         was=(0, "")),
    Case("repeated-form", kv() + "[form]\n0 1 1\n",
         2, "error: line 8: repeated section [form]\n",
         was=(0, "")),
    Case("repeated-structure",
         lines("[structure]", "base_dim 1", "[mult]", "0 0 0 0 0 1", "[structure]", "rank 1"),
         2, "error: line 4: missing required key 'rank'\n",
         was=(0, "")),
    Case("product-before-dim", lines("[kvalgebra]", "0 0 0 1", "dim 1"),
         2, "error: line 2: missing required key 'dim'\n",
         was=(0, "")),
    Case("repeated-structure-header",
         lines("[structure]", "base_dim 1", "rank 1", "[structure]", "skew true"),
         2, "error: line 4: repeated section [structure]\n",
         was=(0, "")),
)


def invoke(text: str):
    """(exit code, stderr) of `export FILE` on a file holding text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.alg"
        path.write_bytes(text.encode("utf-8"))
        out, err = io.StringIO(), io.StringIO()
        code = run(["export", str(path)], out, err)
    return code, err.getvalue()


def mismatches():
    """(case, what `run` gave) for each entry whose output differs."""
    found = []
    for case in FORMAT_CORPUS:
        got = invoke(case.text)
        if got != (case.code, case.err):
            found.append((case, got))
    return found


if __name__ == "__main__":
    bad = mismatches()
    for case, got in bad:
        print(f"mismatch: {case.label}: expected {(case.code, case.err)!r}, got {got!r}")
    print(f"{len(FORMAT_CORPUS) - len(bad)} of {len(FORMAT_CORPUS)} documents give their "
          f"recorded output (Python {sys.version.split()[0]})")
    sys.exit(1 if bad else 0)
