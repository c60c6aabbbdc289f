"""Record the benchmark's reference data at the current commit.

    python3 perfbench/record.py answers
    python3 perfbench/record.py digests

`answers` writes known_answers.json: for every base function-model
structure, the capability matrix (pass/fail per profile, failing labels,
or why a profile does not apply); for every base finite KV algebra, every
cohomology dimension the workloads ask for, whether the form is exact
(null when it is not a cocycle) and the clan verdict. A monomial frame
change preserves all of it, so the table does not depend on the seed. The
table is cross-checked against the catalog's documented passes and fails
and against the dimensions pinned in the acceptance tests.

`digests` writes digests.json: the sha256 digest (first 12 hex digits)
of every call's exit code and output, for seeds 0 to 10 and the first
DIGEST_ROUNDS rounds of every workload.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from inputs import fm_bases, kv_bases
from run import HERE, WORK, Results, digest, invoke, load_json, load_program
from workloads import WORKLOADS, KvCohomology, _matrix_view

DIGEST_SEEDS = range(11)
DIGEST_ROUNDS = 2


def _call_json(package, argv):
    rc, out, err, _ = invoke(package, argv + ["--format", "machine"])
    if rc not in (0, 1):
        raise RuntimeError(f"{argv}: exit {rc}: {err}")
    return rc, json.loads(out)


def record_answers(package) -> dict:
    fmt, kv = package.fileformat, package.kvfin
    workdir = WORK / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    table = {"function_model": {}, "finite_kv": {}}

    for name, S in fm_bases(package).items():
        path = workdir / f"{name}.txt"
        path.write_text(fmt.serialize_structure(S, name), encoding="utf-8")
        rc, payload = _call_json(package, ["check", str(path)])
        table["function_model"][name] = {"exit": rc, "profiles": _matrix_view(payload)}

    for name, (A, form) in kv_bases(package).items():
        path = workdir / f"{name}.txt"
        path.write_text(fmt.serialize_kvalgebra(A, form, name), encoding="utf-8")
        cohomology = {}
        for coeff in ("self", "trivial"):
            cohomology[coeff] = {}
            for k in (0, 1, 2):
                if k == 2 and coeff == "self" and A.dim > KvCohomology.SELF_H2_MAX_DIM:
                    continue
                argv = ["cohomology", str(path), "--degree", str(k), "--coefficients", coeff]
                cohomology[coeff][str(k)] = _call_json(package, argv)[1]
        exact = None
        if form is not None and kv.fin_coboundary(
            A, kv.COEFF_TRIVIAL, form.as_cochain()
        ).is_zero():
            exact = _call_json(package, ["cohomology", str(path), "--exactness"])[1]["exact"]
        clan = _call_json(package, ["check", str(path), "--profile", "clan"])[1]
        table["finite_kv"][name] = {
            "dim": A.dim, "cohomology": cohomology, "exact": exact, "clan": clan,
        }
    shutil.rmtree(workdir, ignore_errors=True)
    cross_check(package, table)
    return table


def cross_check(package, table):
    """Fail loudly where the table disagrees with what the catalog
    documents or the acceptance tests pin."""
    catalog = package.catalog
    for name in catalog.catalog_names():
        entry = catalog.catalog_get(name)
        if entry.kind != "function-model":
            continue
        profiles = table["function_model"][name]["profiles"]
        for profile in entry.passes:
            assert profiles[profile]["passed"], (name, profile)
        for profile, labels in entry.fails:
            assert tuple(profiles[profile]["failing"]) == labels, (name, profile)
    kvt = table["finite_kv"]
    for name, row in kvt.items():
        assert row["cohomology"]["self"]["0"]["dim_h"] == row["dim"], name
    assert kvt["vinberg-83"]["cohomology"]["self"]["2"]["dim_h"] == 5
    assert kvt["zero-3"]["cohomology"]["self"]["1"]["dim_h"] == 9  # dim^2
    assert kvt["vinberg-83"]["clan"]["verdict"] == "pseudo-clan"
    assert kvt["vinberg-83"]["exact"] is False
    assert kvt["clan-84"]["clan"]["verdict"] == "clan"
    assert kvt["clan-84-as-printed"]["clan"]["verdict"] == "neither"
    exactness = {row["exact"] for row in kvt.values()}
    assert {True, False} <= exactness, "the mix needs both EXACT and NON-EXACT forms"


def record_digests() -> dict:
    answers = load_json("known_answers.json")
    out = {}
    for name, cls in WORKLOADS.items():
        out[name] = {}
        for seed in DIGEST_SEEDS:
            package = load_program()
            workdir = WORK / name
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            workload = cls(package, answers, workdir, seed)
            results = Results(None)
            per_round = {}
            for index in range(DIGEST_ROUNDS):
                row = []
                for position, call in enumerate(workload.round(index)):
                    rc, text, err, _ = invoke(package, call.argv)
                    results.record(index, position, call, rc, text, err)
                    row.append(digest(rc, text, err))
                per_round[str(index)] = row
            if results.failures:
                raise RuntimeError(f"{name} seed {seed}: {results.failures[:3]}")
            out[name][str(seed)] = per_round
            print(f"{name} seed {seed}: {results.attempted} calls", file=sys.stderr)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("what", choices=("answers", "digests"))
    args = parser.parse_args(argv)
    if args.what == "answers":
        data, target = record_answers(load_program()), "known_answers.json"
    else:
        data, target = record_digests(), "digests.json"
    with open(HERE / target, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
