import argparse
import hashlib
import io
import json
import shutil
import time

import pytest

from algebroid import cli
from algebroid.catalog import catalog_names
from algebroid.cli import build_parser, main, run
from algebroid.fileformat import parse_document, serialize_document
from grammar_corpus import EMPTY_ARGUMENT_CASES, mismatches, whole_grammar_invoke


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


# --- check ---------------------------------------------------------------


def test_check_pass_and_fail_exit_codes():
    code, out, _ = invoke("check", "--catalog", "witt-line", "--profile", "cc")
    assert code == 0 and "PASS" in out
    code, out, _ = invoke("check", "--catalog", "witt-line", "--profile", "courant")
    assert code == 1
    assert "Ax2" in out and "Ax4" in out


def test_check_capability_matrix():
    code, out, _ = invoke("check", "--catalog", "witt-line")
    assert code == 0  # at least one profile passes
    for profile in ("lie", "kv", "cc", "courant", "nonasym-courant"):
        assert profile in out


def test_check_matrix_fails_when_nothing_passes(tmp_path):
    # skew product that is not a bracket for any profile
    text = (
        "[structure]\nbase_dim 1\nrank 1\nskew true\n"
        "[mult]\n0 0 0 0,  1\n"
    ).replace("0 0 0 0,  1", "0 0 0 1 1 x1")
    f = tmp_path / "bad.alg"
    f.write_text(text)
    code, out, _ = invoke("check", str(f))
    assert code == 1


def test_non_cocycle_d_fails_delta_d_with_its_witness(tmp_path):
    # witt-line with D(f) = f' + f: dD(1, 1) = -D(1) = -1
    _, text, _ = invoke("export", "--catalog", "witt-line")
    f = tmp_path / "witt-d.alg"
    f.write_text(text + "0 0 1\n")
    for profile in ("cc", "courant", "nonasym-courant"):
        code, out, _ = invoke("check", str(f), "--profile", profile, "--format", "machine")
        assert code == 1, profile
        entry = {a["label"]: a for a in json.loads(out)["axioms"]}["deltaD"]
        assert entry["passed"] is False, profile
        assert entry["witness"] == {"inputs": ["1", "1"], "residual": "(-1)"}, profile


def test_check_missing_requirement_is_usage_error():
    code, out, err = invoke("check", "--catalog", "tangent-lie-2", "--profile", "courant")
    assert code == 2
    assert out == ""
    assert err == "error: profile 'courant' needs a pairing\n"


def test_seed_option_removed():
    code, _, err = invoke("check", "--catalog", "witt-line", "--seed", "1")
    assert code == 2 and "--seed" in err


def test_check_machine_output_is_sorted_json():
    code, out, _ = invoke(
        "check", "--catalog", "witt-line", "--profile", "cc", "--format", "machine"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["profile"] == "cc" and payload["passed"] is True
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_check_clan_profiles_and_accept():
    code, out, _ = invoke("check", "--catalog", "clan-84", "--profile", "clan")
    assert code == 0 and "clan" in out
    code, out, _ = invoke("check", "--catalog", "vinberg-83", "--profile", "clan")
    assert code == 1 and "pseudo-clan" in out
    code, _, _ = invoke(
        "check", "--catalog", "vinberg-83", "--profile", "clan",
        "--accept", "pseudo-clan",
    )
    assert code == 0


def test_check_profile_kind_mismatch():
    code, _, err = invoke("check", "--catalog", "vinberg-83", "--profile", "courant")
    assert code == 2 and "error:" in err
    code, _, err = invoke("check", "--catalog", "witt-line", "--profile", "clan")
    assert code == 2


NOT_A_CLAN_INPUT = (
    "error: --accept applies to the clan verdict of a finite KV algebra with a form\n"
)


def test_accept_takes_only_clan_verdicts():
    for argv in (
        ("check", "--catalog", "witt-line", "--accept", "bogus"),
        ("check", "--catalog", "clan-84", "--profile", "clan", "--accept", "bogus"),
        ("check", "--catalog", "clan-84", "--accept", "clan", "--accept", "Clan"),
    ):
        bad = argv[-1]
        assert invoke(*argv) == (
            2, "", f"error: --accept takes clan, pseudo-clan or neither, not {bad!r}\n"
        ), argv
    # each verdict is accepted where it applies
    assert invoke("check", "--catalog", "clan-84-as-printed", "--profile", "clan")[0] == 1
    for verdict in ("neither", "pseudo-clan"):
        code, out, _ = invoke(
            "check", "--catalog", "clan-84-as-printed", "--profile", "clan", "--accept", verdict
        )
        assert code == (0 if verdict == "neither" else 1)
        assert out.startswith("classification: neither\n")


def test_accept_needs_a_finite_algebra_with_a_form(tmp_path):
    path = tmp_path / "noform.alg"
    path.write_text("[kvalgebra]\ndim 2\n0 1 0 1\n")
    for argv in (
        ("check", "--catalog", "witt-line", "--accept", "pseudo-clan"),
        ("check", "--catalog", "witt-line", "--profile", "lie", "--accept", "clan"),
        ("check", str(path), "--accept", "neither"),
        ("check", str(path), "--accept", "pseudo-clan", "--format", "machine"),
    ):
        assert invoke(*argv) == (2, "", NOT_A_CLAN_INPUT), argv


def test_clan_profile_needs_a_form(tmp_path):
    path = tmp_path / "noform.alg"
    path.write_text("[kvalgebra]\ndim 2\n0 1 0 1\n")
    error = "error: profile 'clan' needs a [form] section or catalog form\n"
    assert invoke("check", str(path), "--profile", "clan") == (2, "", error)
    assert invoke("check", str(path), "--profile", "clan", "--format", "machine") == (2, "", error)
    # without --profile the algebra still gets its KV verdict
    assert invoke("check", str(path)) == (0, "kv: pass\n", "")


# --- anomalies -------------------------------------------------------------


def test_anomalies_witt_values():
    code, out, _ = invoke(
        "anomalies", "--catalog", "witt-line", "1", "x1", "x1^2", "--function", "x1"
    )
    assert code == 0
    lines = dict(line.split(" = ", 1) for line in out.strip().splitlines())
    assert lines["J"] == "(0)"
    assert lines["T"] == "0"
    # Leibniz anomaly with f = x1 at (1, x1): L(1, x1, x1) component
    code2, out2, _ = invoke(
        "anomalies", "--catalog", "witt-line", "1", "1", "1", "--function", "x1"
    )
    assert code2 == 0
    lines2 = dict(line.split(" = ", 1) for line in out2.strip().splitlines())
    assert lines2["L"] == "(-1)"


def test_anomalies_from_file(tmp_path):
    code, out0, _ = invoke("export", "--catalog", "witt-line")
    f = tmp_path / "witt.alg"
    f.write_text(out0)
    code, out, _ = invoke("anomalies", str(f), "1", "x1", "x1^2")
    assert code == 0 and "KV = " in out


def test_anomalies_usage_errors():
    code, _, err = invoke("anomalies", "--catalog", "witt-line", "1", "x1")
    assert code == 2 and "three section" in err
    code, _, err = invoke("anomalies", "--catalog", "witt-line", "1,2", "1", "1")
    assert code == 2 and "components" in err
    code, _, _ = invoke("anomalies", "--catalog", "vinberg-83", "1", "1", "1")
    assert code == 2


def test_anomalies_extra_sections_exit_2(tmp_path):
    """A fourth section input is an error, not silently dropped, with a
    file and with --catalog (where the first positional is a section)."""
    code, out0, _ = invoke("export", "--catalog", "witt-line")
    f = tmp_path / "witt.alg"
    f.write_text(out0)
    message = "error: need three section inputs (s, s', s''), got 4\n"
    for source in ([str(f)], ["--catalog", "witt-line"]):
        assert invoke("anomalies", *source, "1", "x1", "x1", "garbage((") == (2, "", message)


def test_anomalies_argument_errors_name_the_argument_and_column():
    """A bad polynomial in an `anomalies` argument names the argument and
    gives the column within the whole argument."""
    cases = (
        (["1,x1 +* 2", "x1,0", "0,1"], "section 1, column 7: bad polynomial: "
         "expected polynomial atom"),
        (["1,0", "x1,(x1", "0,1"], "section 2, column 7: bad polynomial: expected ')'"),
        (["1,0", "x1,0", "0 , x2"], "section 3, column 5: bad polynomial: "
         "variable x2 out of range for base_dim 1"),
        (["1,0", "x1,0", "0,1", "--function", "x1^2 + 1/0"],
         "--function, column 10: bad polynomial: zero denominator"),
        # a superscript digit is no decimal digit (it exited 3)
        (["1,²", "x1,0", "0,1"], "section 1, column 3: bad polynomial: "
         "expected polynomial atom"),
        (["1,0", "x1,0", "0,1", "--function", "x1^²"],
         "--function, column 4: bad polynomial: expected integer"),
        # the end of a component is no sign (these gave one column more)
        (["1,(", "x1,0", "0,1"], "section 1, column 4: bad polynomial: "
         "expected polynomial atom"),
        (["1,", "x1,0", "0,1"], "section 1, column 3: bad polynomial: "
         "expected polynomial atom"),
    )
    for args, message in cases:
        code, out, err = invoke("anomalies", "--catalog", "courant-standard-1", *args)
        assert (code, out, err) == (2, "", f"error: {message}\n")
    code, _, err = invoke("anomalies", "--catalog", "courant-standard-1", "1,0", "1", "0,1")
    assert (code, err) == (2, "error: section 2 '1' has 1 components, expected 2\n")
    # with --catalog an empty first positional is section 1, not dropped
    assert invoke("anomalies", "--catalog", "witt-line", "", "1", "1") == (
        2, "", "error: section 1, column 1: bad polynomial: expected polynomial atom\n"
    )


def test_term_limit_exits_2(tmp_path):
    """A power that would multiply too many terms exits 2 within a second,
    at the column of its '^', in a file and in an `anomalies` argument."""
    message = "bad polynomial: product of 561 by 561 terms exceeds the limit of 200000 term products"
    path = tmp_path / "terms.alg"
    path.write_text(
        "[structure]\nbase_dim 2\nrank 1\nskew false\n[mult]\n0 0 0 0,0 0,0 (1+x1+x2)^3000\n"
    )
    start = time.perf_counter()
    code, out, err = invoke("export", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: line 6, column 24: {message}\n")
    start = time.perf_counter()
    code, out, err = invoke(
        "anomalies", "--catalog", "tangent-lie-2", "1,0", "0,1", "x1,(1+x1+x2)^3000"
    )
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: section 3, column 13: {message}\n")


# --- cohomology -------------------------------------------------------------


def test_cohomology_dims():
    code, out, _ = invoke(
        "cohomology", "--catalog", "vinberg-83", "--degree", "2",
        "--coefficients", "self",
    )
    assert code == 0 and "dim H = 5" in out


def test_cohomology_machine():
    code, out, _ = invoke(
        "cohomology", "--catalog", "vinberg-83", "--degree", "0",
        "--format", "machine",
    )
    assert code == 0
    assert json.loads(out)["dim_h"] == 3


def test_cohomology_exactness():
    code, out, _ = invoke("cohomology", "--catalog", "vinberg-83", "--exactness")
    assert code == 1 and out.strip() == "NON-EXACT"
    code, out, _ = invoke("cohomology", "--catalog", "clan-84", "--exactness")
    assert code == 1 and out.strip() == "NON-EXACT"


def test_exactness_refuses_degree_and_coefficients():
    error = "error: --exactness takes neither --degree nor --coefficients\n"
    for extra in (
        ("--degree", "7"), ("--degree", "0"), ("--coefficients", "trivial"),
        ("--coefficients", "self", "--degree", "2"),
    ):
        argv = ("cohomology", "--catalog", "clan-84", "--exactness", *extra)
        assert invoke(*argv) == (2, "", error), argv
    # the defaults still apply without --exactness
    assert invoke("cohomology", "--catalog", "clan-84") == invoke(
        "cohomology", "--catalog", "clan-84", "--degree", "0", "--coefficients", "self"
    )


def test_cohomology_unsupported_degree_is_usage_error():
    for degree in ("3", "-1"):
        code, out, err = invoke("cohomology", "--catalog", "vinberg-83", "--degree", degree)
        assert (code, out) == (2, "")
        assert err == f"error: --degree must be 0, 1 or 2, not {degree}\n"


def test_cohomology_refuses_a_non_kv_algebra(tmp_path):
    """Dimensions need d o d = 0, so a non-KV algebra exits 2 with the KV
    witness `check` prints; exactness asks about one map and still runs."""
    path = tmp_path / "nonkv.alg"
    path.write_text("[kvalgebra]\ndim 2\n0 0 1 1\n")
    code, out, _ = invoke("check", str(path))
    assert (code, out) == (1, "kv: FAIL at (e1,e2,e2) defect (-1, 0)\n")
    for degree in ("0", "1", "2"):
        for coefficients in ("self", "trivial"):
            code, out, err = invoke(
                "cohomology", str(path), "--degree", degree, "--coefficients", coefficients
            )
            assert (code, out) == (2, "")
            assert err == (
                "error: cohomology dimensions need a KV algebra; "
                "kv: FAIL at (e1,e2,e2) defect (-1, 0)\n"
            )
    path.write_text("[kvalgebra]\ndim 2\n0 0 1 1\n[form]\n1 1 1\n")
    assert invoke("cohomology", str(path), "--exactness") == (1, "NON-EXACT\n", "")


def test_cohomology_rejects_function_model():
    code, _, err = invoke("cohomology", "--catalog", "witt-line")
    assert code == 2 and "finite KV" in err


# --- catalog and export -------------------------------------------------------


def test_catalog_list():
    code, out, _ = invoke("catalog", "list")
    assert code == 0
    assert out.strip().splitlines() == catalog_names()


def test_catalog_show():
    code, out, _ = invoke("catalog", "show", "witt-line")
    assert code == 0 and "[structure]" in out and "kind: function-model" in out
    code, _, err = invoke("catalog", "show", "nope")
    assert code == 2 and "witt-line" in err


def test_export_round_trips_every_entry():
    for name in catalog_names():
        code, out, _ = invoke("export", "--catalog", name)
        assert code == 0
        doc = parse_document(out)
        assert serialize_document(doc) == out


ZERO_SECTIONS = {
    # a zero D: courant, cc and nonasym-courant apply to it
    "dcochain": "[structure]\nbase_dim 1\nrank 1\nskew true\n[mult]\n0 0 0 0 1 1\n"
    "0 0 0 1 0 -1\n[pairing]\n0 0 1\n[dcochain]\n0 0 0\n",
    "pairing": "[structure]\nbase_dim 1\nrank 1\nskew true\n[mult]\n0 0 0 0 1 1\n"
    "0 0 0 1 0 -1\n[pairing]\n0 0 0\n[dcochain]\n0 1 2\n",
    "form": "[kvalgebra]\ndim 2\n1 0 0 1\n[form]\n0 1 0\n",
}


def test_zero_sections_survive_export(tmp_path):
    """A section whose entries are all zero is the zero object, written as
    its bare header: export is a fixpoint and every verdict stays."""
    for section, text in ZERO_SECTIONS.items():
        source = tmp_path / f"{section}.alg"
        source.write_text(text)
        verdicts = [invoke("check", str(source))]
        if section == "form":
            verdicts.append(invoke("cohomology", str(source), "--exactness"))
        assert "not applicable" not in verdicts[0][1] and verdicts[-1][0] != 2
        exported = invoke("export", str(source))
        assert exported[0] == 0 and f"[{section}]\n" in exported[1]
        for n in range(2):
            again = tmp_path / f"{section}-{n}.alg"
            again.write_text(exported[1])
            assert invoke("export", str(again)) == exported
            assert invoke("check", str(again)) == verdicts[0]
            if section == "form":
                assert invoke("cohomology", str(again), "--exactness") == verdicts[1]


def test_export_takes_no_format():
    for value in ("machine", "text"):
        assert invoke("export", "--catalog", "witt-line", "--format", value) == (
            2, "", "error: unrecognized arguments: --format\n"
        )
    assert invoke("export", "--catalog", "witt-line", "--format=machine") == (
        2, "", "error: unrecognized arguments: --format=machine\n"
    )


def test_export_missing_input():
    code, _, err = invoke("export")
    assert code == 2 and "no input" in err


def test_empty_file_argument_counts_as_given():
    # "" with --catalog is two inputs, and "" alone a file that cannot be
    # opened; before, "" read as absent
    for argv, code, err, was in EMPTY_ARGUMENT_CASES:
        assert invoke(*argv) == (code, "", err), argv
        assert (code, err) != was
    assert invoke("anomalies", "--catalog", "", "1", "1", "1")[0] == 2
    assert "unknown catalog entry ''" in invoke("cohomology", "--catalog", "")[2]


def test_file_errors_exit_2(tmp_path):
    code, _, err = invoke("check", "/no/such/file.alg")
    assert code == 2
    bad = tmp_path / "bad.alg"
    bad.write_text("[structure]\nrank 1\n")
    code, _, err = invoke("check", str(bad))
    assert code == 2 and "base_dim" in err


def test_unknown_header_key_exits_2_through_check(tmp_path):
    """`skw true` for `skew true` used to read as skew false and turn the
    witt-line's `cc: PASS` (exit 0) into exit 1; now it is a parse error."""
    _, text, _ = invoke("export", "--catalog", "witt-line")
    good, bad = tmp_path / "witt.alg", tmp_path / "skw.alg"
    good.write_text(text)
    bad.write_text(text.replace("skew true", "skw true"))
    code, out, _ = invoke("check", str(good), "--profile", "cc")
    assert code == 0 and "PASS" in out
    for argv in (["check", str(bad)], ["check", str(bad), "--profile", "cc"]):
        assert invoke(*argv) == (2, "", "error: line 5: unknown key 'skw' in [structure]\n")


def test_repeated_section_exits_2(tmp_path):
    _, text, _ = invoke("export", "--catalog", "witt-line")
    path = tmp_path / "twice.alg"
    path.write_text(text + "[mult]\n0 0 0 0 0 1\n")
    line = text.count("\n") + 1
    assert invoke("check", str(path)) == (2, "", f"error: line {line}: repeated section [mult]\n")


def test_kv_dim_over_limit_exits_2(tmp_path):
    big = tmp_path / "big.alg"
    big.write_text("[kvalgebra]\n# one product line\ndim 400\n0 1 2 1\n")
    for argv in (["check", str(big)], ["cohomology", str(big), "--degree", "2"]):
        code, out, err = invoke(*argv)
        assert (code, out) == (2, "")
        assert err == "error: line 3: dim 400 exceeds the limit 6\n"


def test_structure_limits_exit_2(tmp_path):
    """A rank over the limit exits 2 at once, before the parser builds one
    anchor entry per unit of rank, and a [mult] multi-index of order above
    1 before `check` searches inputs up to that order (it hung)."""
    cases = (
        ("[structure]\nbase_dim 1\nrank 200000\nskew false\n",
         "line 3: rank 200000 exceeds the limit 16"),
        ("[structure]\nbase_dim 1\nrank 1\n[mult]\n0 0 0 99999999999999999999 0 1\n",
         "line 5: multi-index '99999999999999999999' has order 99999999999999999999, "
         "expected at most 1"),
    )
    big = tmp_path / "big.alg"
    for text, message in cases:
        big.write_text(text)
        for argv in (["export", str(big)], ["check", str(big)]):
            start = time.perf_counter()
            code, out, err = invoke(*argv)
            assert time.perf_counter() - start < 1
            assert (code, out, err) == (2, "", f"error: {message}\n")


def test_non_utf8_file_exits_2(tmp_path):
    """A file that is not UTF-8 is a usage error naming the file and the
    offset of the first bad byte in the whole file, not an internal error."""
    short = tmp_path / "short.alg"
    short.write_bytes(b"[kvalgebra]\n# caf\xff\xfe\ndim 1\n0 0 0 1\n")
    # past the first 8192 bytes, which text mode decodes as one chunk
    long = tmp_path / "long.alg"
    long.write_bytes(b"[kvalgebra]\n" + b"#\n" * 5000 + b"dim 1 \xe9\n")
    # lines end as the parser splits them, here with a bare carriage return
    mac = tmp_path / "mac.alg"
    mac.write_bytes(b"[kvalgebra]\r\r# caf\xff\rdim 1\r")
    for path, offset, line, reason in (
        (short, 17, 2, "invalid start byte"),
        (mac, 18, 3, "invalid start byte"),
        (long, 10018, 5002, "invalid continuation byte"),
    ):
        for verb in ("cohomology", "export", "check"):
            code, out, err = invoke(verb, str(path))
            assert (code, out) == (2, ""), verb
            assert err == (
                f"error: {path}: not UTF-8 at byte offset {offset} (line {line}): {reason}\n"
            )


def test_oversized_literals_exit_2(tmp_path):
    kv = tmp_path / "huge.alg"
    kv.write_text("[kvalgebra]\ndim 2\n0 0 0 1e20000\n[form]\n0 0 1\n")
    structure = tmp_path / "long.alg"
    structure.write_text(
        "[structure]\nbase_dim 1\nrank 1\nskew false\n[mult]\n0 0 0 0 0 " + "7" * 5000 + "\n"
    )
    for argv in (
        ["check", str(kv), "--profile", "clan", "--format", "machine"],
        ["export", str(kv)],
        ["cohomology", str(kv), "--exactness"],
    ):
        code, out, err = invoke(*argv)
        assert (code, out) == (2, "")
        assert err == "error: line 3, column 7: rational literal exceeds the limit of 1000 digits\n"
    code, out, err = invoke("export", str(structure))
    assert (code, out) == (2, "")
    assert err == (
        "error: line 6, column 11: bad polynomial: integer literal exceeds the limit "
        "of 1000 digits\n"
    )


def test_oversized_coefficients_exit_2(tmp_path):
    """A coefficient the parser would compute over the digit limit exits 2
    at once, in a file (line and column) and in an `anomalies` argument
    (the argument and the column), however large the exponent."""
    message = "coefficient exceeds the limit of 1000 digits"
    for coeff in ("2^100000", "2^99999999999"):
        path = tmp_path / "power.alg"
        path.write_text(
            "[structure]\nbase_dim 1\nrank 1\nskew false\n[mult]\n0 0 0 0 0 " + coeff + "\n"
        )
        start = time.perf_counter()
        code, out, err = invoke("export", str(path))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: line 6, column 12: bad polynomial: {message}\n"
        start = time.perf_counter()
        code, out, err = invoke("anomalies", "--catalog", "witt-line", "1", "x1", f"x1 + {coeff}")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: section 3, column 7: bad polynomial: {message}\n"
    code, out, err = invoke(
        "anomalies", "--catalog", "witt-line", "1", "x1", "x1", "--function", "10^998*10^998"
    )
    assert (code, out, err) == (2, "", f"error: --function, column 7: bad polynomial: {message}\n")


def mult_file(tmp_path, coeff):
    """A rank-1 structure file whose one [mult] term 0 0 0 0 1 has coeff."""
    path = tmp_path / "coeff.alg"
    path.write_text(f"[structure]\nbase_dim 1\nrank 1\nskew false\n[mult]\n0 0 0 0 1 {coeff}\n")
    return str(path)


def test_nesting_limit_exits_2(tmp_path):
    """Parentheses 100 deep parse; 101 deep (and 300, which raised
    RecursionError) exit 2 at the column of the 101st '(', in a file and
    in an `anomalies` argument."""
    message = "bad polynomial: parentheses nested deeper than 100"
    for depth in (100, 101, 300):
        coeff = "(" * depth + "1" + ")" * depth
        file_result = invoke("export", mult_file(tmp_path, coeff))
        argument_result = invoke("anomalies", "--catalog", "witt-line", coeff, "1", "1")
        if depth == 100:
            assert file_result == (0, invoke("export", mult_file(tmp_path, "1"))[1], "")
            assert argument_result == invoke("anomalies", "--catalog", "witt-line", "1", "1", "1")
        else:
            assert file_result == (2, "", f"error: line 6, column 111: {message}\n")
            assert argument_result == (2, "", f"error: section 1, column 101: {message}\n")


def test_power_of_a_power_exits_2(tmp_path):
    """A power whose variable exponent would have more than 1000 digits is
    refused at its '^' (it raised ValueError when printed); x1^E with E of
    999 digits still parses and fails kv with a printed witness."""
    e = "9" * 999
    coeff = f"(((((x1)^{e})^{e})^{e})^{e})^{e}"
    column = 11 + coeff.index("^", coeff.index("^") + 1)
    assert invoke("export", mult_file(tmp_path, coeff)) == (
        2, "", f"error: line 6, column {column}: bad polynomial: variable exponent "
               "exceeds the limit of 1000 digits\n",
    )
    code, out, err = invoke("check", mult_file(tmp_path, f"x1^{e}"), "--profile", "kv")
    assert (code, err) == (1, "")
    assert "FAIL" in out and f"x1^{e}" in out


def test_usage_errors_exit_2():
    code, _, _ = invoke("check", "--catalog", "witt-line", "--profile", "bogus")
    assert code == 2
    code, _, _ = invoke("frobnicate")
    assert code == 2


def test_output_byte_stable():
    commands = [
        ["check", "--catalog", "witt-line"],
        ["check", "--catalog", "courant-standard-2", "--profile", "courant",
         "--format", "machine"],
        ["check", "--catalog", "clan-84", "--profile", "clan"],
        ["anomalies", "--catalog", "witt-line", "1", "x1", "x1^2"],
        ["cohomology", "--catalog", "vinberg-83", "--degree", "2"],
        ["catalog", "list", "--format", "machine"],
        ["catalog", "show", "clan-84"],
        ["export", "--catalog", "poisson-cotangent"],
    ]
    for argv in commands:
        runs = [invoke(*argv) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2], argv


# --- grammar --------------------------------------------------------------


def _subparser(parser, *path):
    """The parser `path` (verbs, then sub-verbs) leads to in `parser`."""
    for name in path:
        (action,) = (
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        parser = action.choices[name]
    return parser


HELP_PATHS = (
    (), ("check",), ("anomalies",), ("cohomology",), ("catalog",),
    ("catalog", "list"), ("catalog", "show"), ("export",),
)


def test_help_is_written_to_out_and_returns_0():
    """`-h` at the top level, after each verb and after each catalog
    sub-verb writes that parser's help in the whole grammar to `out`."""
    for path in HELP_PATHS:
        expected = _subparser(build_parser(), *path).format_help()
        for flag in ("--help", "-h"):
            assert invoke(*path, flag) == (0, expected, ""), path


# sha256 of each HELP_PATHS help text, recorded with COLUMNS unset and
# stdout not a terminal, where argparse wrapped at 80 - 2 = 78 columns
HELP_SHA256 = {
    (): "6130133b1279c9a77ed04a3cc9b7796a604bda4889045627303e07d1604d89a1",
    ("check",): "6582274c8d99daeac056673432530c6865fc11d55800470f700530fccec51bcd",
    ("anomalies",): "9da15f7c411fc1d36567e83166e1d2ac3e440a17080722d70a94f0113e1dc1ca",
    ("cohomology",): "f5e13923ba021ad1a0a2be4238895ba317cd259b7f7dab6076d69ac9a4395361",
    ("catalog",): "bb73ee6e40241d80255b91d36a6a5c90f6bbc2901214e56f180fef0ab4b659b9",
    ("catalog", "list"): "934aacce27b044ae7791d9faaf0c7dbf7c6b5e922f250f4ad888368872a5ad49",
    ("catalog", "show"): "adc949fdcf544f97a6542fecfb06113d42848e6cd6ca56ffc89285e54d48af0d",
    ("export",): "0071317a9d64091c411889569a3fbc87a991212dd62880421d4a357824ad64f1",
}


@pytest.mark.parametrize("columns", [None, "40", "200"])
def test_help_bytes_do_not_depend_on_columns(monkeypatch, capsys, columns):
    """Help is wrapped at 78 columns whatever COLUMNS or the terminal says,
    through `run` and through `main`."""
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    for path, digest in HELP_SHA256.items():
        code, out, err = invoke(*path, "--help")
        assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, digest, ""), path
        assert main([*path, "-h"]) == 0
        captured = capsys.readouterr()
        assert captured.out == out and captured.err == "", path


def test_parsers_never_ask_for_the_terminal_size(monkeypatch):
    """Building any parser, `run`'s grammar or a fresh one, and asking any
    of them for help, reads no terminal size."""

    def no_probe(*args, **kwargs):
        raise AssertionError("shutil.get_terminal_size called")

    monkeypatch.setattr(shutil, "get_terminal_size", no_probe)
    cli._grammar.cache_clear()
    for path in HELP_PATHS:
        assert invoke(*path, "--help")[0] == 0
    for parser in (cli._grammar(), build_parser()):
        for path in HELP_PATHS:
            assert _subparser(parser, *path).format_help()


def test_main_writes_help_to_stdout(capsys):
    assert main(["cohomology", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out == _subparser(build_parser(), "cohomology").format_help()
    assert captured.err == ""


def test_shared_grammar_matches_fresh_grammar():
    """Every argv gives the same exit code, stdout and stderr through `run`,
    which parses with one grammar kept from its first call, as parsing with
    a fresh whole grammar, the oracle, in order and then reversed."""
    assert mismatches() == []


def test_accept_default_is_not_carried_between_calls():
    """`--accept` appends to a copy of its default: a call without it after
    one with it answers as a fresh grammar does, and the default stays []."""
    argv = ["check", "--catalog", "clan-84", "--profile", "clan"]
    invoke(*argv, "--accept", "pseudo-clan")
    assert invoke(*argv) == whole_grammar_invoke(*argv)
    (accept,) = (
        a for a in _subparser(cli._grammar(), "check")._actions if a.dest == "accept"
    )
    assert accept.default == []


def test_grammar_built_once_per_process(monkeypatch):
    """`run` builds its grammar's 8 parsers on its first call and none on
    any call after it, whatever the argv."""
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli._grammar.cache_clear()
    invoke("cohomology", "--catalog", "clan-84", "--degree", "1")
    assert len(built) == 8, built
    for argv in (
        ["check", "--catalog", "witt-line", "--profile", "cc"],
        ["anomalies", "--catalog", "witt-line", "1", "x1", "x1"],
        ["cohomology", "--catalog", "clan-84", "--degree", "1"],
        ["export", "--catalog", "witt-line"],
        ["catalog", "list"],
        ["catalog", "show", "clan-84"],
        [],
        ["--help"],
        ["frobnicate"],
        ["--format", "machine", "check"],
    ):
        built.clear()
        invoke(*argv)
        assert built == [], (argv, built)
