"""The grammar corpus: argv that `cli.run` must answer with the same exit
code, stdout and stderr as a fresh whole grammar, `build_parser()`. `run`
parses every argv with one grammar, built on its first call and kept. The
corpus covers help, errors, abbreviations, `--`, `=` values and options
before the verb, and runs twice through `run`, in order and then
reversed, so that a call which sees what an earlier one parsed shows.
`EMPTY_ARGUMENT_CASES` also pins the exit code and stderr of the argv
with an empty file argument, with the earlier answer as `was`.

`tests/test_cli.py` runs the comparison under pytest. Run it without
pytest, on any Python the package supports, with

    PYTHONPATH=src python tests/grammar_corpus.py

which prints each mismatching argv and exits 1 if there is one.
"""

import io
import sys

from algebroid import cli
from algebroid.cli import build_parser, run

GRAMMAR_CORPUS = (
    [], ["-h"], ["frobnicate"], ["chec"], ["--format", "machine", "check"],
    ["--", "check"],
    ["check", "--catalog", "witt-line", "--profile", "cc"],
    ["check", "--catalog", "witt-line", "--prof", "kv", "--format", "machine"],
    ["check", "--catalog", "witt-line", "--profile", "bogus"],
    ["check", "--catalog", "witt-line", "--seed", "1"],
    ["check", "--catalog", "witt-line", "--pro"],
    ["check", "a.alg", "b.alg"],
    ["check", "--profile", "bogus", "-h"],
    ["check", "--catalog", "clan-84", "--profile", "clan", "--acc", "pseudo-clan"],
    ["anomalies", "--catalog", "witt-line", "1", "x1", "x1^2", "--func", "x1"],
    ["anomalies", "--catalog", "witt-line"],
    ["anomalies", "--catalog", "witt-line", "1", "x1", "--function"],
    ["anomalies", "--catalog", "witt-line", "1", "x1", "x1", "x1^2"],
    ["cohomology", "--catalog", "clan-84", "--deg", "1"],
    ["cohomology", "--catalog", "clan-84", "--degree", "x"],
    ["cohomology", "--catalog", "clan-84", "--coefficients", "bad"],
    ["cohomology", "--catalog", "clan-84", "--co", "trivial", "--format", "machine"],
    ["cohomology", "--catalog", "vinberg-83", "--exactness", "--bogus"],
    ["cohomology", "--", "--catalog"],
    ["catalog"], ["catalog", "list"], ["catalog", "lis"], ["catalog", "list", "extra"],
    ["catalog", "show"], ["catalog", "show", "clan-84", "--format", "machine"],
    ["catalog", "show", "nope"], ["catalog", "list", "--format", "xml"],
    ["export", "--catalog", "witt-line"], ["export"], ["export", "--bogus"],
    ["export", "a.alg", "b.alg"], ["export", "--catalog", "witt-line", "--format", "xml"],
    ["check", "--catalog=witt-line", "--profile=lie"],
    ["cohomology", "--catalog", "clan-84", "--degree=1"],
    ["check", "--", "x"], ["catalog", "show", "--", "clan-84"],
    ["cohomology", "-h", "--bogus"], ["export", "--catalog", "witt-line", "extra"],
    ["check", "--catalog", "witt-line", "--form", "machine"],
    ["anomalies", "--catalog", "witt-line", "1", "x1", "x1", "--function=x1"],
    ["catalog", "list", "-h"],
)

# An empty argument counts as given: "" with --catalog is a file and the
# catalog both, and "" alone is a file that cannot be opened. `was` is the
# (exit code, stderr) of the parser that read "" as absent: the catalog
# entry answered, or `export ""` said `no input`.
EMPTY_ARGUMENT_CASES = (
    (["export", "--catalog", "witt-line", ""], 2,
     "error: give either a file or --catalog, not both\n", (0, "")),
    (["cohomology", "", "--catalog", "clan-84"], 2,
     "error: give either a file or --catalog, not both\n", (0, "")),
    (["check", "--catalog", "witt-line", "", "--profile", "lie"], 2,
     "error: give either a file or --catalog, not both\n", (1, "")),
    (["export", ""], 2, "error: [Errno 2] No such file or directory: ''\n",
     (2, "error: no input: give a file or --catalog NAME\n")),
)
GRAMMAR_CORPUS += tuple(argv for argv, *_ in EMPTY_ARGUMENT_CASES)


def whole_grammar_invoke(*argv):
    """The oracle: parse argv with a fresh whole grammar, then dispatch to
    the verb's handler and map exceptions to exit codes as `run` does."""
    out, err = io.StringIO(), io.StringIO()
    try:
        args = build_parser().parse_args(list(argv))
        code = cli._VERBS[args.verb][2](args, out)
    except cli._HelpRequested as exc:
        out.write(exc.args[0])
        code = 0
    except (cli.UsageError, cli.FormatError, cli.PolyParseError, OSError) as exc:
        err.write(f"error: {exc}\n")
        code = 2
    except Exception as exc:  # noqa: BLE001 - exit-code contract
        err.write(f"internal error: {type(exc).__name__}: {exc}\n")
        code = 3
    return code, out.getvalue(), err.getvalue()


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def mismatches():
    """The corpus argv on which `run` and the oracle differ, and the empty
    argument cases that do not give their exit code and stderr, in either
    of two passes through `run`: in order, then reversed."""
    cases = [(argv, whole_grammar_invoke(*argv)) for argv in GRAMMAR_CORPUS]
    cases += [(argv, (code, "", err)) for argv, code, err, _ in EMPTY_ARGUMENT_CASES]
    bad = []
    for order in (cases, cases[::-1]):
        bad += [argv for argv, want in order if invoke(*argv) != want and argv not in bad]
    return bad


if __name__ == "__main__":
    bad = mismatches()
    for argv in bad:
        print("mismatch:", argv)
    print(f"{len(GRAMMAR_CORPUS) - len(bad)} of {len(GRAMMAR_CORPUS)} argv match "
          f"a fresh grammar in both passes (Python {sys.version.split()[0]})")
    sys.exit(1 if bad else 0)
