"""Command-line interface.

Verbs: check, anomalies, cohomology, catalog list, catalog show, export.
Exit codes: 0 = all requested checks pass, 1 = an axiom/verdict fails,
2 = parse or usage error, 3 = internal error. Output is deterministic;
--format machine emits one JSON document with sorted keys.

`run` parses every argv with one whole grammar, `build_parser()`: the
top-level parser and each verb's subparser, filled from the one table
`_VERBS` (verb -> help, add_arguments, handler), 8 parsers. It is built
on the first call in a process, in about 0.87 ms, and kept; nothing is
built at import. Every parser wraps help at a fixed 78 columns, what
argparse picks with no terminal and no COLUMNS, so help bytes do not
depend on either and building a parser asks for no terminal size. A
two-level parse takes about 0.04 ms, and a `cohomology --catalog clan-84
--degree 1` call about 0.11 ms in process, against 0.22 ms when each
call built its verb's own parser. A fresh `python -m algebroid.cli` of
that call took a median 95.9 and 105.7 ms in two sets of 15 runs,
alternating with a verb's own parser at 95.0 and 104.7 ms (Python
3.11.7, shared 2-core Xeon, no bytecode cache): a one-call process pays
about the build, within the spread of starting Python. Only the first
two paragraphs of this docstring are the `--help` description.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Optional, TextIO

from . import __version__
from .catalog import CatalogEntry, catalog_get, catalog_names
from .checkers import (
    PROFILES,
    AxiomReport,
    check_all_profiles,
    check_profile,
    missing_requirement,
)
from .exactmath import Poly, PolyParseError, parse_poly
from .fileformat import (
    FormatError,
    ParsedDocument,
    canonical_text,
    parse_document,
    serialize_document,
)
from .funmodel import Section
from .kvfin import (
    COEFF_SELF,
    COEFF_TRIVIAL,
    clan_classify,
    cohomology_summary,
    exactness_witness,
    kv_defect_fin,
)
from .structures import (
    courant_T,
    jacobiator,
    kv_anomaly,
    leibniz_anomaly,
    pairing_coboundary,
)


class UsageError(ValueError):
    pass


_CLAN_VERDICTS = ("clan", "pseudo-clan", "neither")


class _HelpRequested(Exception):
    """`-h` was given; the argument is the help text `run` writes to `out`."""


# argparse's width with no terminal and no COLUMNS (80 - 2); a fixed width
# keeps help bytes off the terminal and parser builds off its size probe
_HelpFormatter = functools.partial(argparse.HelpFormatter, width=78)


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of printing and calling sys.exit, so
    help goes to `run`'s `out` and errors map to exit code 2 uniformly."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, formatter_class=_HelpFormatter, **kwargs)

    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())


# `--help` shows the first two paragraphs of the module docstring
_DESCRIPTION = "\n\n".join((__doc__ or "").split("\n\n")[:2]) or None


def build_parser() -> argparse.ArgumentParser:
    """A new whole argparse grammar: the top-level parser and every verb's
    subparser."""
    parser = _Parser(prog="algebroid", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (help_text, add_arguments, _) in _VERBS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


# the grammar `run` parses with, built on its first call and kept; argparse
# changes no parser as it parses, and a handler must not change a default
# it finds in args (the `--accept` list), which the next call gets too
_grammar = functools.cache(build_parser)


def _source_arguments(p):
    p.add_argument("file", nargs="?", help="structure-definition file")
    p.add_argument("--catalog", help="built-in structure name")


def _input_arguments(p):
    _source_arguments(p)
    p.add_argument(
        "--format", choices=("text", "machine"), default="text",
        help="output format (machine = JSON, stable key order)",
    )


def _check_arguments(p):
    _input_arguments(p)
    p.add_argument(
        "--profile",
        choices=PROFILES + ("clan",),
        help="profile to check; default runs all applicable profiles",
    )
    p.add_argument(
        "--accept", action="append", default=[],
        help="extra clan verdict treated as passing: pseudo-clan or neither "
        "(a finite KV algebra with a form only)",
    )


def _anomalies_arguments(p):
    _input_arguments(p)
    p.add_argument(
        "sections", nargs="+",
        help="section inputs as comma-separated component polynomials",
    )
    p.add_argument(
        "--function", default="1",
        help="function input for the Leibniz anomaly (default 1)",
    )


def _cohomology_arguments(p):
    _input_arguments(p)
    # None when not given, so that --exactness can refuse them
    p.add_argument("--degree", type=int, help="0, 1 or 2 (default 0)")
    p.add_argument(
        "--coefficients", choices=(COEFF_SELF, COEFF_TRIVIAL),
        help="coefficient module (default self)",
    )
    p.add_argument(
        "--exactness", action="store_true",
        help="solve beta = dTheta for the entry's form; prints the "
        "functional or NON-EXACT",
    )


def _catalog_arguments(p):
    csub = p.add_subparsers(dest="catalog_verb", required=True)
    pl = csub.add_parser("list", help="list entry names")
    pl.add_argument("--format", choices=("text", "machine"), default="text")
    ps = csub.add_parser("show", help="show one entry")
    ps.add_argument("name")
    ps.add_argument("--format", choices=("text", "machine"), default="text")


# ---------------------------------------------------------------------------
# Input loading.
# ---------------------------------------------------------------------------


def _entry_document(entry: CatalogEntry) -> ParsedDocument:
    """The catalog entry as the document its file would parse to."""
    if entry.kind == "function-model":
        return ParsedDocument("structure", entry.name, structure=entry.structure)
    return ParsedDocument("kvalgebra", entry.name, algebra=entry.algebra, form=entry.form)


def _source(args) -> tuple:
    """(the catalog entry, None) or (None, the decoded text of the file)
    that args name."""
    # "" counts as given: it names no catalog entry and no file, and fails
    # as such instead of reading as absent
    catalog, file = getattr(args, "catalog", None), getattr(args, "file", None)
    if catalog is not None and file is not None:
        raise UsageError("give either a file or --catalog, not both")
    if catalog is not None:
        try:
            return catalog_get(catalog), None
        except KeyError as exc:
            raise UsageError(str(exc.args[0])) from None
    if file is not None:
        # decode the whole file at once, so a decode error's offset is the
        # file's; the reader splits lines as text mode would
        with open(file, "rb") as fh:
            data = fh.read()
        try:
            return None, data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the bytes before the bad one decode; count lines as the reader does
            line = len((data[: exc.start].decode("utf-8") + "?").splitlines())
            raise UsageError(
                f"{file}: not UTF-8 at byte offset {exc.start} (line {line}): "
                f"{exc.reason}"
            ) from None
    raise UsageError("no input: give a file or --catalog NAME")


def _load(args) -> ParsedDocument:
    entry, text = _source(args)
    return parse_document(text) if entry is None else _entry_document(entry)


# ---------------------------------------------------------------------------
# Serialization of reports.
# ---------------------------------------------------------------------------


def _witness_dict(witness) -> Optional[dict]:
    if witness is None:
        return None
    return {
        "inputs": [str(v) for v in witness.inputs],
        "residual": str(witness.residual),
    }


def _report_dict(report: AxiomReport) -> dict:
    return {
        "profile": report.profile,
        "passed": report.passed,
        "axioms": [
            {
                "label": e.label,
                "passed": e.passed,
                "witness": _witness_dict(e.witness),
                "note": e.note,
            }
            for e in report.entries
        ],
    }


def _emit(args, out: TextIO, payload: dict, text: str):
    if args.format == "machine":
        out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        out.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# Verbs.
# ---------------------------------------------------------------------------


def _clan_text(report) -> str:
    lines = [f"classification: {report.verdict}"]
    for key, value in report.sub_verdicts.items():
        lines.append(f"  {key}: {'pass' if value else 'FAIL'}")
    if report.kv_witness is not None:
        i, j, k, defect = report.kv_witness
        lines.append(f"  kv witness: (e{i+1},e{j+1},e{k+1}) defect {_vec_str(defect)}")
    if report.invariance_witness is not None:
        i, j, k, res = report.invariance_witness
        lines.append(f"  invariance witness: (e{i+1},e{j+1},e{k+1}) residual {res}")
    return "\n".join(lines)


def _vec_str(vec) -> str:
    return "(" + ", ".join(str(v) for v in vec) + ")"


def _kv_fail_text(witness) -> str:
    i, j, k, defect = witness
    return f"kv: FAIL at (e{i+1},e{j+1},e{k+1}) defect {_vec_str(defect)}"


def _cmd_check(args, out: TextIO) -> int:
    for verdict in args.accept:
        if verdict not in _CLAN_VERDICTS:
            raise UsageError(
                f"--accept takes clan, pseudo-clan or neither, not {verdict!r}"
            )
    doc = _load(args)
    if args.accept and (doc.kind != "kvalgebra" or doc.form is None):
        raise UsageError(
            "--accept applies to the clan verdict of a finite KV algebra with a form"
        )
    if doc.kind == "kvalgebra":
        return _cmd_check_finite(args, doc, out)
    S = doc.structure
    if args.profile == "clan":
        raise UsageError("profile 'clan' applies to finite KV algebras")
    if args.profile:
        reason = missing_requirement(S, args.profile)
        if reason is not None:
            raise UsageError(reason)
        report = check_profile(S, args.profile)
        _emit(args, out, _report_dict(report), str(report))
        return 0 if report.passed else 1
    # capability matrix over all profiles
    matrix = check_all_profiles(S)
    payload, lines = {}, [f"capability matrix for {doc.name or 'input structure'}:"]
    any_pass = False
    for profile in PROFILES:
        result = matrix[profile]
        if isinstance(result, str):
            payload[profile] = {"applicable": False, "reason": result}
            lines.append(f"  {profile}: not applicable ({result})")
        else:
            payload[profile] = {"applicable": True, **_report_dict(result)}
            any_pass = any_pass or result.passed
            verdict = "PASS" if result.passed else (
                "FAIL at " + ", ".join(result.failing_labels())
            )
            lines.append(f"  {profile}: {verdict}")
    _emit(args, out, payload, "\n".join(lines))
    return 0 if any_pass else 1


def _cmd_check_finite(args, doc: ParsedDocument, out: TextIO) -> int:
    A = doc.algebra
    if args.profile in PROFILES:
        raise UsageError(
            f"profile {args.profile!r} applies to function-model structures; "
            "finite KV algebras support 'kv' via the clan sub-verdicts or "
            "--profile clan"
        )
    if doc.form is None:
        if args.profile == "clan":
            raise UsageError("profile 'clan' needs a [form] section or catalog form")
        witness = kv_defect_fin(A)
        passed = witness is None
        text = "kv: pass" if passed else _kv_fail_text(witness)
        _emit(args, out, {"kv": passed}, text)
        return 0 if passed else 1
    report = clan_classify(A, doc.form)
    payload = {"verdict": report.verdict, "sub_verdicts": report.sub_verdicts}
    _emit(args, out, payload, _clan_text(report))
    accepted = {"clan", *args.accept}
    return 0 if report.verdict in accepted else 1


def _parse_argument_poly(text: str, base_dim: int, what: str, start: int = 0) -> Poly:
    """Parse the polynomial at `start` of the argument named `what`; an
    error gives the column within the whole argument."""
    try:
        return parse_poly(text, base_dim)
    except PolyParseError as exc:
        raise UsageError(
            f"{what}, column {start + exc.position + 1}: bad polynomial: {exc.message}"
        ) from None


def _parse_section(text: str, rank: int, base_dim: int, what: str) -> Section:
    parts = text.split(",")
    if len(parts) != rank:
        raise UsageError(
            f"{what} {text!r} has {len(parts)} components, expected {rank}"
        )
    comps, start = [], 0
    for part in parts:
        comps.append(_parse_argument_poly(part, base_dim, what, start))
        start += len(part) + 1
    return Section(comps)


def _cmd_anomalies(args, out: TextIO) -> int:
    if args.catalog is not None and args.file is not None:
        # with --catalog, every positional is a section input, "" too
        args.sections = [args.file] + args.sections
        args.file = None
    doc = _load(args)
    if doc.kind != "structure":
        raise UsageError("anomaly evaluation applies to function-model structures")
    S = doc.structure
    if len(args.sections) < 3:
        raise UsageError("need three section inputs (s, s', s'')")
    if len(args.sections) > 3:
        raise UsageError(
            f"need three section inputs (s, s', s''), got {len(args.sections)}"
        )
    s, sp, spp = (
        _parse_section(t, S.rank, S.base_dim, f"section {n}")
        for n, t in enumerate(args.sections, 1)
    )
    f = _parse_argument_poly(args.function, S.base_dim, "--function")
    results = {}
    if S.skew:
        results["J"] = str(jacobiator(S, s, sp, spp))
    results["KV"] = str(kv_anomaly(S, s, sp, spp))
    results["L"] = str(leibniz_anomaly(S, s, f, sp))
    if S.has("pairing"):
        if S.skew:
            results["T"] = str(courant_T(S, s, sp, spp))
        results["delta_pairing"] = str(pairing_coboundary(S, s, sp, spp))
    text = "\n".join(f"{key} = {results[key]}" for key in sorted(results))
    _emit(args, out, results, text)
    return 0


def _cmd_cohomology(args, out: TextIO) -> int:
    if args.exactness and (args.degree, args.coefficients) != (None, None):
        raise UsageError("--exactness takes neither --degree nor --coefficients")
    degree = 0 if args.degree is None else args.degree
    coefficients = args.coefficients or COEFF_SELF
    if degree not in (0, 1, 2):
        raise UsageError(f"--degree must be 0, 1 or 2, not {degree}")
    doc = _load(args)
    if doc.kind != "kvalgebra":
        raise UsageError(
            "cohomology dimensions are computed for finite KV algebras only; "
            "the function-model complex is infinite-dimensional"
        )
    A = doc.algebra
    # exactness asks whether beta = d(Theta) for one map d: C^1 -> C^2,
    # which is defined on any algebra, so it needs no KV check
    if args.exactness:
        if doc.form is None:
            raise UsageError("--exactness needs a [form] section or catalog form")
        try:
            theta = exactness_witness(A, doc.form)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if theta is None:
            _emit(args, out, {"exact": False}, "NON-EXACT")
            return 1
        payload = {"exact": True, "theta": [str(v) for v in theta]}
        _emit(args, out, payload, "EXACT: Theta = " + _vec_str(theta))
        return 0
    # the coboundary squares to zero only on a KV algebra; elsewhere the
    # ranks would not be the dimensions of any cohomology
    witness = kv_defect_fin(A)
    if witness is not None:
        raise UsageError(
            "cohomology dimensions need a KV algebra; " + _kv_fail_text(witness)
        )
    summary = cohomology_summary(A, coefficients, degree)
    text = (
        f"degree {degree}, coefficients {coefficients}: "
        f"dim C = {summary['dim_cochains']}, dim ker = {summary['dim_kernel']}, "
        f"dim im = {summary['dim_image']}, dim H = {summary['dim_h']}"
    )
    _emit(args, out, summary, text)
    return 0


def _cmd_catalog(args, out: TextIO) -> int:
    if args.catalog_verb == "list":
        names = catalog_names()
        _emit(args, out, {"entries": names}, "\n".join(names))
        return 0
    try:
        entry = catalog_get(args.name)
    except KeyError as exc:
        raise UsageError(str(exc.args[0])) from None
    serialized = serialize_document(_entry_document(entry))
    payload = {
        "name": entry.name,
        "kind": entry.kind,
        "note": entry.note,
        "definition": serialized,
    }
    text = f"name: {entry.name}\nkind: {entry.kind}\nnote: {entry.note}\n\n{serialized}"
    _emit(args, out, payload, text)
    return 0


def _cmd_export(args, out: TextIO) -> int:
    # a file's text goes from the reader's tables to the writer, with no
    # operator built
    entry, text = _source(args)
    if entry is None:
        out.write(canonical_text(text))
    else:
        out.write(serialize_document(_entry_document(entry)))
    return 0


# verb -> (help, add_arguments, handler), in the order `--help` lists them
_VERBS = {
    "check": ("run axiom-profile checks", _check_arguments, _cmd_check),
    "anomalies": (
        "evaluate anomaly tensors on inputs", _anomalies_arguments, _cmd_anomalies
    ),
    "cohomology": (
        "finite KV cohomology dimensions (exit 2 on a non-KV algebra)",
        _cohomology_arguments,
        _cmd_cohomology,
    ),
    "catalog": ("list or show built-in structures", _catalog_arguments, _cmd_catalog),
    "export": ("print the canonical file serialization", _source_arguments, _cmd_export),
}


def run(argv, out: TextIO, err: TextIO) -> int:
    try:
        args = _grammar().parse_args(argv)
        return _VERBS[args.verb][2](args, out)
    except _HelpRequested as exc:
        out.write(exc.args[0])
        return 0
    except (UsageError, FormatError, PolyParseError) as exc:
        err.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        err.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # noqa: BLE001 - exit-code contract
        err.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv, sys.stdout, sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
