"""The benchmark workloads: each one turns a seed into rounds of CLI calls,
and each call carries the check of its output against the known answers.

A round draws a fresh frame change for every base structure, writes the
definition files and returns the calls that read them. A run measures
whole rounds, so every run has the same mix of calls.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from inputs import (
    FrameStream,
    conjugate_kv,
    fm_bases,
    kv_bases,
    monomial_matrix,
    noncanonical_structure,
    section_text,
)


@dataclass
class Call:
    argv: list
    label: str
    # check(exit_code, stdout, stderr) -> None when correct, else the reason
    check: Callable[[int, str, str], Optional[str]]


def _json(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


def _expect(rc, want_rc, payload, want):
    if rc != want_rc:
        return f"exit {rc}, expected {want_rc}"
    if payload != want:
        return "output differs from the known answer"
    return None


class Workload:
    name = ""
    # rounds per cycle: a run measures whole cycles, so that every run
    # draws each permutation of each base structure equally often
    CYCLE = 1

    def __init__(self, algebroid, answers: dict, workdir: Path, seed: int,
                 known_defects: bool = False):
        self.alg = algebroid
        self.answers = answers
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.known_defects = known_defects
        self.seen = set()
        self.streams = {}

    def _frame(self, base: str, rank: int):
        stream = self.streams.get(base)
        if stream is None:
            stream = self.streams[base] = FrameStream(rank, self.rng)
        return stream.next()

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _fm_draw(self, base: str, S):
        """A frame-changed copy of S that no earlier call has seen."""
        while True:
            perm, diag = self._frame(base, S.rank)
            S2 = self.alg.funmodel.conjugate(S, monomial_matrix(perm, diag))
            key = self.alg.fileformat.serialize_structure(S2)
            if key not in self.seen:
                self.seen.add(key)
                return S2

    def round(self, index: int) -> list:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# fm-matrix: the full capability matrix on function-model structures.
# ---------------------------------------------------------------------------


def _matrix_view(payload) -> Optional[dict]:
    """The frame-invariant part of a `check --format machine` payload."""
    if not isinstance(payload, dict):
        return None
    out = {}
    for profile, got in payload.items():
        if not got.get("applicable"):
            out[profile] = {"applicable": False, "reason": got.get("reason")}
            continue
        axioms = got.get("axioms", [])
        if any(a["witness"] is None for a in axioms if not a["passed"]):
            return None  # every failure must carry a witness
        out[profile] = {
            "applicable": True,
            "passed": got.get("passed"),
            "failing": [a["label"] for a in axioms if not a["passed"]],
        }
    return out


class FmMatrix(Workload):
    """`check FILE --format machine` on frame-changed function-model
    structures; every call gets a distinct structure."""

    name = "fm-matrix"
    # courant-standard-2 has 6 cosets of 4 permutations, 2 per round
    CYCLE = 3
    # draws per round; a multiple of the rank keeps whole cosets together
    DRAWS = {
        "witt-line": 2,
        "tangent-lie-1": 2,
        "tangent-lie-2": 2,
        "tangent-lie-3": 6,
        "courant-standard-1": 2,
        "courant-standard-2": 8,
        "poisson-cotangent": 2,
        "poisson-cotangent-nonpoisson": 18,
    }

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        bases = fm_bases(self.alg)
        self.bases = {name: bases[name] for name in self.DRAWS}

    def round(self, index):
        calls = []
        for base, draws in self.DRAWS.items():
            entry = self.answers["function_model"][base]
            want = entry["profiles"]
            for k in range(draws):
                S2 = self._fm_draw(base, self.bases[base])
                text = self.alg.fileformat.serialize_structure(S2, base)
                path = self._write(f"r{index}-{base}-{k}", text)

                def check(rc, out, err, want=want, want_rc=entry["exit"]):
                    return _expect(rc, want_rc, _matrix_view(_json(out)), want)

                calls.append(Call(["check", path, "--format", "machine"], base, check))
        self.rng.shuffle(calls)
        return calls


# ---------------------------------------------------------------------------
# kv-cohomology: the finite KV track.
# ---------------------------------------------------------------------------


class KvCohomology(Workload):
    """Cohomology dimensions in degrees 0..2 in both coefficient modules,
    exactness of the form and the clan classification, on frame-changed
    finite KV algebras of dimension 3 to 6."""

    name = "kv-cohomology"
    # self coefficients at degree 2 only up to this dimension
    SELF_H2_MAX_DIM = 4

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bases = kv_bases(self.alg)

    def round(self, index):
        kv = self.alg.kvfin
        calls = []
        for base, (A, form) in self.bases.items():
            entry = self.answers["finite_kv"][base]
            perm, diag = self._frame(base, A.dim)
            A2, form2 = conjugate_kv(kv.FinKVAlgebra, kv.SymForm, A, form, perm, diag)
            text = self.alg.fileformat.serialize_kvalgebra(A2, form2, base)
            path = self._write(f"r{index}-{base}", text)
            for coeff in ("self", "trivial"):
                for k in (0, 1, 2):
                    if k == 2 and coeff == "self" and A.dim > self.SELF_H2_MAX_DIM:
                        continue
                    want = entry["cohomology"][coeff][str(k)]
                    calls.append(Call(
                        ["cohomology", path, "--degree", str(k), "--coefficients", coeff,
                         "--format", "machine"],
                        f"{base} H{k} {coeff}",
                        lambda rc, out, err, want=want: _expect(rc, 0, _json(out), want),
                    ))
            if entry["exact"] is not None:
                calls.append(Call(
                    ["cohomology", path, "--exactness", "--format", "machine"],
                    f"{base} exactness",
                    lambda rc, out, err, exact=entry["exact"]: _expect(
                        rc, 0 if exact else 1, (_json(out) or {}).get("exact"), exact
                    ),
                ))
            clan = entry["clan"]
            calls.append(Call(
                ["check", path, "--profile", "clan", "--accept", "pseudo-clan",
                 "--format", "machine"],
                f"{base} clan",
                lambda rc, out, err, clan=clan: _expect(
                    rc, 0 if clan["verdict"] in ("clan", "pseudo-clan") else 1, _json(out), clan
                ),
            ))
        self.rng.shuffle(calls)
        return calls


# ---------------------------------------------------------------------------
# files: parser, serializer, direct evaluators and single-profile checks.
# ---------------------------------------------------------------------------

_ZERO_SECTION = re.compile(r"\((0, )*0\)")


class Files(Workload):
    """Frame-changed structures written as non-canonical definition files,
    each hit by `export`, `anomalies` and single-profile `check` calls."""

    name = "files"
    # the exponent of the powers in section inputs, chosen so that each
    # `anomalies` call takes about the same time (0.2 s to 0.35 s here)
    POWER = {
        "witt-line": 16,
        "tangent-lie-1": 20,
        "tangent-lie-2": 6,
        "tangent-lie-3": 5,
        "tangent-lie-4": 4,
        "courant-standard-1": 11,
        "courant-standard-2": 3,
        "courant-standard-3": 2,
        "poisson-cotangent": 7,
        "poisson-cotangent-nonpoisson": 4,
    }

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bases = fm_bases(self.alg)

    def round(self, index):
        fmt = self.alg.fileformat
        calls, defects = [], []
        for base, S in self.bases.items():
            entry = self.answers["function_model"][base]
            S2 = self._fm_draw(base, S)
            canonical = fmt.serialize_structure(S2, base)
            path = self._write(
                f"r{index}-{base}", noncanonical_structure(S2, base, self.rng)
            )

            def check_export(rc, out, err, canonical=canonical):
                if rc != 0 or out != canonical:
                    return "export differs from the canonical text"
                if fmt.serialize_document(fmt.parse_document(out)) != out:
                    return "export is not a fixpoint"
                return None

            calls.append(Call(["export", path], f"{base} export", check_export))

            power = self.POWER[base]
            sections = [section_text(S.rank, S.base_dim, self.rng, power) for _ in range(3)]
            function = section_text(1, S.base_dim, self.rng, power)
            keys = {"KV", "L"} | ({"J"} if S.mult.skew else set())
            if S.pairing is not None:
                keys |= {"delta_pairing"} | ({"T"} if S.mult.skew else set())
            lie = entry["profiles"]["lie"].get("passed", False)

            def check_anomalies(rc, out, err, keys=keys, lie=lie):
                payload = _json(out)
                if rc != 0 or not isinstance(payload, dict) or set(payload) != keys:
                    return "anomalies output has the wrong shape"
                if lie and not all(_ZERO_SECTION.fullmatch(payload[k]) for k in ("J", "L")):
                    return "J or L is nonzero on a Lie structure"
                return None

            calls.append(Call(
                ["anomalies", path, *sections, "--function", function, "--format", "machine"],
                f"{base} anomalies",
                check_anomalies,
            ))

            lacking = []
            for profile, want in entry["profiles"].items():
                if want.get("passed"):
                    calls.append(Call(
                        ["check", path, "--profile", profile, "--format", "machine"],
                        f"{base} check {profile}",
                        lambda rc, out, err: _expect(
                            rc, 0, (_json(out) or {}).get("passed"), True
                        ),
                    ))
                elif not want["applicable"]:
                    lacking.append(profile)
            if lacking and self.known_defects:
                # the exit-code contract asks for 2 (usage error)
                profile = lacking[index % len(lacking)]
                defects.append(Call(
                    ["check", path, "--profile", profile, "--format", "machine"],
                    f"{base} check {profile} (requirements missing)",
                    lambda rc, out, err: None if rc == 2 else f"exit {rc}, expected 2",
                ))
        self.rng.shuffle(calls)
        # appended after the shuffle, so the default calls stay as they are
        return calls + defects


WORKLOADS = {w.name: w for w in (FmMatrix, KvCohomology, Files)}
