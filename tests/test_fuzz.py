"""A fuzz guard for definition files.

Exports of small catalog entries are mutated, each by one to three edits:
a line deleted or duplicated, or a token replaced or inserted, the new
token drawn from the file's own tokens or from a few foreign ones. Each
mutated file goes through `export`, `check`, `cohomology` and
`anomalies`. Every call must exit 0, 1 or 2, never 3 (internal error),
and on exit 2 every "line N" in stderr must be a line of the file. The
examples are derandomized, so the run is the same every time.
"""

import io
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from algebroid.cli import run

ENTRIES = ("witt-line", "tangent-lie-1", "courant-standard-1", "poisson-cotangent", "clan-84", "vinberg-83")
FOREIGN = ("", "-1", "2", "7", "x1", "x2^3", "1/0", "0,0", "0,-1", "[mult]", "[form]", "rank", "dim", "é", "9" * 12)
LINE = re.compile(r"(?<![\w-])line (\d+)")


def export(name: str) -> str:
    out = io.StringIO()
    assert run(["export", "--catalog", name], out, io.StringIO()) == 0
    return out.getvalue()


EXPORTS = {name: export(name).splitlines() for name in ENTRIES}


@st.composite
def mutated_files(draw) -> str:
    lines = list(EXPORTS[draw(st.sampled_from(ENTRIES))])
    pool = sorted({t for line in lines for t in line.split()}) + list(FOREIGN)
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("delete", "duplicate", "replace", "insert")))
        if edit == "delete":
            del lines[n]
        elif edit == "duplicate":
            lines.insert(n, lines[n])
        else:
            tokens = lines[n].split(" ")
            at = draw(st.integers(0, len(tokens) - (edit == "replace")))
            token = draw(st.sampled_from(pool))
            if edit == "replace":
                tokens[at] = token
            else:
                tokens.insert(at, token)
            lines[n] = " ".join(tokens)
    return "".join(line + "\n" for line in lines)


def calls(path: str) -> list:
    return [
        ["export", path],
        ["check", path],
        ["cohomology", path, "--degree", "1"],
        ["anomalies", path, "x1", "1", "x1^2"],
    ]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(mutated_files())
def test_mutated_exports_exit_0_1_or_2_at_a_line_of_the_file(text):
    n_lines = len(text.splitlines())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.alg"
        path.write_text(text, encoding="utf-8")
        for argv in calls(str(path)):
            err = io.StringIO()
            code = run(argv, io.StringIO(), err)
            assert code in (0, 1, 2), (argv[0], text, err.getvalue())
            if code == 2:
                for line in LINE.findall(err.getvalue()):
                    assert 1 <= int(line) <= n_lines, (argv[0], text, err.getvalue())
