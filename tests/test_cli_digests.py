"""CLI bytes pinned as digests.

For each call below, DIGESTS in cli_digests.json holds the sha256 of the
JSON list [exit code, stdout, stderr] of `cli.run`:

- `check` on every catalog entry: the capability matrix (or the finite
  verdict) in text and machine form, and each applicable `--profile`;
- `export`, and `catalog show` in text and machine form, on every entry;
- on the finite KV entries, `cohomology` at degrees 0-2 in both
  coefficient modules, and `--exactness`;
- `anomalies` on each function-model entry with fixed sections.

A change that keeps every byte of these calls passes unchanged. To record
the digests again after a deliberate change of output, run this file as
a script with `src` on PYTHONPATH; it writes cli_digests.json.
"""

import hashlib
import io
import json
from pathlib import Path

from algebroid.catalog import catalog_get, catalog_names
from algebroid.checkers import PROFILES, missing_requirement
from algebroid.cli import run
from algebroid.kvfin import COEFF_SELF, COEFF_TRIVIAL

RECORD = Path(__file__).with_name("cli_digests.json")


def anomaly_sections(rank: int, base_dim: int) -> list:
    """Three fixed section arguments: component c of section n is
    (c + 1) x_{(c + n) mod base_dim + 1}^n - n."""
    return [
        ",".join(f"{c + 1}*x{(c + n) % base_dim + 1}^{n} - {n}" for c in range(rank))
        for n in (1, 2, 3)
    ]


def calls() -> list:
    out = []
    for name in catalog_names():
        entry = catalog_get(name)
        src = ["--catalog", name]
        out.append(["export", *src])
        for fmt in ("text", "machine"):
            out.append(["check", *src, "--format", fmt])
            out.append(["catalog", "show", name, "--format", fmt])
        if entry.kind == "function-model":
            S = entry.structure
            out += [
                ["check", *src, "--profile", profile]
                for profile in PROFILES
                if missing_requirement(S, profile) is None
            ]
            sections = anomaly_sections(S.rank, S.base_dim)
            out.append(["anomalies", *src, *sections, "--function", "x1^2 + 1"])
        else:
            if entry.form is not None:
                out.append(["check", *src, "--profile", "clan"])
                out.append(["cohomology", *src, "--exactness"])
            out += [
                ["cohomology", *src, "--degree", str(k), "--coefficients", co]
                for co in (COEFF_SELF, COEFF_TRIVIAL)
                for k in (0, 1, 2)
            ]
    return out


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def digests() -> dict:
    return {" ".join(argv): digest(argv) for argv in calls()}


def test_cli_bytes_match_the_records():
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))
    got = digests()
    assert sorted(got) == sorted(recorded)
    assert [key for key in got if got[key] != recorded[key]] == []


if __name__ == "__main__":
    RECORD.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
