"""Axiom-profile checkers and derived-identity verifiers.

Each profile is a list of labelled operator identities, written as data
in PROFILE_TABLE: profile -> (requirements, [(label, builder)]). Every
checker here reads its axioms and requirements from that table. An
identity is decided by building its defect (both sides subtracted) as a
canonical multidifferential operator; a failing identity carries a
concrete witness input whose residual is nonzero on re-evaluation.

Profiles:
  lie            skew, P1 (jacobiator = 0), P2 (Leibniz anomaly = 0)
  kv             3i (KV anomaly = 0), 3ii ((fs)s' = f(ss')), 3iii (Leibniz)
  cc             skew, deltaD, r1 (J = D(T)), r2 (pairing invariance)
  courant        skew, deltaD, Ax1 (3J = D(T)), Ax2 (anchor morphism),
                 Ax3 (Leibniz with -<s,s'>D(f)), Ax4 (rho(D f) = 0),
                 Ax5 (pairing invariance)
  nonasym-courant  deltaD, R1 (KV = D of the pairing coboundary),
                 R2 ((fs)s' = f(ss')), R3 (pairing invariance)

The J-versus-D(T) constant is table data, stated once per row: r1 of cc
has factor 1 and Ax1 of courant factor 3, and the entry's note names it.
The derived checks accept either normalization: their CC gate passes a
structure that passes cc at factor 1 or at factor 3, and builds J and
D(T) once.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Optional

from .funmodel import (
    AlgebroidStructure,
    DiffOp,
    MultiDiffOp,
    Witness,
    find_witness,
)
from . import structures as st


class AxiomEntry(namedtuple("AxiomEntry", "label passed witness note", defaults=(None, ""))):
    """One labelled axiom: its verdict, the witness of a failure, a note."""

    __slots__ = ()


class AxiomReport:
    """The entries of one profile, in table order; `entries` is a new list
    per report unless one is given."""

    def __init__(self, profile: str, entries: Optional[list] = None):
        self.profile = profile
        self.entries = [] if entries is None else entries

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.profile, self.entries) == (other.profile, other.entries)

    def __repr__(self):
        return f"AxiomReport(profile={self.profile!r}, entries={self.entries!r})"

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def entry(self, label: str) -> AxiomEntry:
        for e in self.entries:
            if e.label == label:
                return e
        raise KeyError(label)

    def failing_labels(self):
        return [e.label for e in self.entries if not e.passed]

    def __str__(self) -> str:
        lines = [f"profile {self.profile}: {'PASS' if self.passed else 'FAIL'}"]
        for e in self.entries:
            line = f"  {e.label}: {'pass' if e.passed else 'FAIL'}"
            if e.witness is not None:
                line += f"  [{e.witness}]"
            if e.note:
                line += f"  ({e.note})"
            lines.append(line)
        return "\n".join(lines)


def _identity_entry(label: str, diff: MultiDiffOp, note: str = "") -> AxiomEntry:
    """Entry for the identity diff == 0."""
    w = find_witness(diff)
    return AxiomEntry(label, w is None, w, note)


# ---------------------------------------------------------------------------
# The profile table.
# ---------------------------------------------------------------------------

# Every builder maps a structure to the defect operator whose vanishing
# is the axiom. Builders look the structures module up at call time, so
# each operator is built through its *_op entry point.


def _jacobi_parts(S: AlgebroidStructure) -> tuple:
    """(J, D(T)), the two operators of r1 and Ax1; slots (s, s', s'')."""
    return st.jacobiator_op(S), S.d_op().compose(0, st.courant_T_op(S))


class _JacobiRow(namedtuple("_JacobiRow", "factor")):
    """The builder of factor * J - D(T), the row r1 (factor 1) or Ax1
    (factor 3); slots (s, s', s'')."""

    __slots__ = ()

    def __call__(self, S: AlgebroidStructure) -> MultiDiffOp:
        J, DT = _jacobi_parts(S)
        return J.scale(self.factor) - DT


def _leibniz_defect(S: AlgebroidStructure) -> MultiDiffOp:
    """s(fs') - (rho(s)f)s' - f(ss') + <s,s'>D(f); slots (s, f, s')."""
    return st.leibniz_anomaly_op(S) - st.leibniz_pairing_rhs_op(S)


def _kv_defect(S: AlgebroidStructure) -> MultiDiffOp:
    """KV anomaly minus D of the pairing coboundary; slots (s, s', s'')."""
    return st.kv_anomaly_op(S) - S.d_op().compose(0, st.pairing_coboundary_op(S))


# profile -> (requirements, [(label, builder)]); the requirements are
# keys of _REQUIREMENTS.
PROFILE_TABLE = {
    "lie": (("skew",), [
        ("skew", lambda S: st.mult_skew_defect_op(S)),
        ("P1", lambda S: st.jacobiator_op(S)),
        ("P2", lambda S: st.leibniz_anomaly_op(S)),
    ]),
    "kv": ((), [
        ("3i", lambda S: st.kv_anomaly_op(S)),
        ("3ii", lambda S: st.fs_linearity_defect_op(S)),
        ("3iii", lambda S: st.leibniz_anomaly_op(S)),
    ]),
    "cc": (("pairing", "d", "skew"), [
        ("skew", lambda S: st.mult_skew_defect_op(S)),
        ("deltaD", lambda S: st.d_cocycle_defect_op(S)),
        ("r1", _JacobiRow(1)),
        ("r2", lambda S: st.invariance_defect_op(S)),
    ]),
    "courant": (("pairing", "d", "skew"), [
        ("skew", lambda S: st.mult_skew_defect_op(S)),
        ("deltaD", lambda S: st.d_cocycle_defect_op(S)),
        ("Ax1", _JacobiRow(3)),
        ("Ax2", lambda S: st.anchor_morphism_defect_op(S)),
        ("Ax3", _leibniz_defect),
        ("Ax4", lambda S: st.rho_d_op(S)),
        ("Ax5", lambda S: st.invariance_defect_op(S)),
    ]),
    "nonasym-courant": (("pairing", "d"), [
        ("deltaD", lambda S: st.d_cocycle_defect_op(S)),
        ("R1", _kv_defect),
        ("R2", lambda S: st.fs_linearity_defect_op(S)),
        ("R3", lambda S: st.invariance_defect_op(S)),
    ]),
}

PROFILES = tuple(PROFILE_TABLE)

# requirement -> (test on the structure, what the message says is needed)
_REQUIREMENTS = {
    "pairing": (lambda S: S.has("pairing"), "a pairing"),
    "d": (lambda S: S.has("D"), "a D cochain"),
    "skew": (lambda S: S.skew, "a multiplication declared skew"),
}


def missing_requirement(S: AlgebroidStructure, profile: str) -> Optional[str]:
    """Why the structure cannot be checked against the profile, or None."""
    for req in PROFILE_TABLE[profile][0]:
        holds, needed = _REQUIREMENTS[req]
        if not holds(S):
            return f"profile {profile!r} needs {needed}"
    return None


def check_profile(S: AlgebroidStructure, profile: str) -> AxiomReport:
    """Run every axiom of the named profile as an operator identity."""
    if profile not in PROFILE_TABLE:
        raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}")
    reason = missing_requirement(S, profile)
    if reason is not None:
        raise ValueError(reason)
    report = AxiomReport(profile)
    for label, build in PROFILE_TABLE[profile][1]:
        note = f"jacobi_factor={build.factor}" if isinstance(build, _JacobiRow) else ""
        report.entries.append(_identity_entry(label, build(S), note))
    return report


def check_all_profiles(S: AlgebroidStructure) -> dict:
    """Capability matrix: profile -> AxiomReport or precondition message."""
    return {
        profile: missing_requirement(S, profile) or check_profile(S, profile)
        for profile in PROFILES
    }


# ---------------------------------------------------------------------------
# Derived-identity verifiers.
# ---------------------------------------------------------------------------


def verify_anchor_morphism(S: AlgebroidStructure) -> Optional[Witness]:
    """Decide rho([s,s']) = [rho(s), rho(s')] on all sections.

    Returns None on pass; on failure, a witness (s, s') whose residual is
    the nonzero defect as a differential operator on functions.
    """
    if not S.skew:
        raise ValueError("anchor-morphism check needs a skew multiplication")
    defect = st.anchor_morphism_defect_op(S)  # slots (s, s', f)
    w = find_witness(defect)
    if w is None:
        return None
    s, sp, _ = w.inputs
    # one FUNCTION slot remains; read it off as a DiffOp
    residual = defect.bind(0, s).bind(0, sp)
    terms = {skeys[0][1]: coeff for (_, skeys), coeff in residual.terms.items()}
    return Witness((s, sp), DiffOp(S.base_dim, terms))


class EquivalenceReport(namedtuple("EquivalenceReport", "a1 a2 a1_witness a2_witness")):
    """Independent decisions of the two equivalent conditions on a
    CC structure: (A1) anchor morphism, (A2) rho(D(f)) = 0."""

    __slots__ = ()

    @property
    def agree(self) -> bool:
        return self.a1 == self.a2

    @property
    def diagnostic(self) -> str:
        if self.agree:
            return ""
        return (
            "theorem-violation diagnostic: (A1) and (A2) disagree on a CC "
            "structure; this signals an implementation or convention bug"
        )


def _cc_gate(S: AlgebroidStructure, caller: str):
    """Require the CC axioms in the J = D(T) or the 3J = D(T)
    normalization: the paper's "up to a constant factor". Only r1 depends
    on the factor, so every row is decided once with r1 at factor 3, from
    one J and one D(T), and r1 again at its own factor 1 only if it alone
    fails there. Factor 3 comes first because every known structure with
    J != 0 passes r1 there, and only a failing decision searches for a
    witness. A failure names the rows that fail at factor 3."""
    reason = missing_requirement(S, "cc")
    if reason is not None:
        raise ValueError(reason)
    J, DT = _jacobi_parts(S)
    rows = PROFILE_TABLE["cc"][1]
    r1 = dict(rows)["r1"]

    def fails(build, factor=3):
        defect = J.scale(factor) - DT if build is r1 else build(S)
        return find_witness(defect) is not None

    failing = [label for label, build in rows if fails(build)]
    if not failing or failing == ["r1"] and not fails(r1, r1.factor):
        return
    raise ValueError(
        f"{caller} needs a structure passing the CC axioms; failing: {failing}"
    )


_COURANT_ROWS = dict(PROFILE_TABLE["courant"][1])


def _courant_entries(S: AlgebroidStructure, relabel, note: str = "") -> list:
    """The entries of the courant rows named by `relabel`, pairs (new
    label, courant label), under their new labels; a failing one carries
    `note`."""
    entries = []
    for label, axiom in relabel:
        w = find_witness(_COURANT_ROWS[axiom](S))
        entries.append(AxiomEntry(label, w is None, w, "" if w is None else note))
    return entries


def verify_equivalence_A1_A2(S: AlgebroidStructure) -> EquivalenceReport:
    _cc_gate(S, "equivalence check")
    a1, a2 = _courant_entries(S, (("A1", "Ax2"), ("A2", "Ax4")))
    return EquivalenceReport(a1.passed, a2.passed, a1.witness, a2.witness)


def verify_prop_64(S: AlgebroidStructure) -> AxiomReport:
    """For a CC structure of rank > 3, the three consequences:
    (i) Leibniz with the -<s,s'>D(f) correction, (ii) anchor morphism,
    (iii) rho(D(f)) = 0. All must pass; a failure is escalated in the
    entry note as a theorem-violation diagnostic."""
    if S.rank <= 3:
        raise ValueError(
            f"rank {S.rank} <= 3 rejected: the rank-1 catalog structure "
            "'witt-line' satisfies the CC axioms yet violates all three "
            "consequences, so the derivation needs rank > 3"
        )
    _cc_gate(S, "consequence check")
    note = "theorem-violation diagnostic: a rank>3 CC structure must satisfy this identity"
    relabel = (("i", "Ax3"), ("ii", "Ax2"), ("iii", "Ax4"))
    return AxiomReport("prop-64-consequences", _courant_entries(S, relabel, note))


class NonasymReport(
    namedtuple(
        "NonasymReport",
        "profile leibniz_identity anchor_identity d_forced_zero rho_forced_zero",
    )
):
    """Derived consequences of the non-skew profile with pairing and D:
    the profile's AxiomReport and one AxiomEntry per forced identity."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def entries(self):
        """The four identity entries: every field after `profile`."""
        return list(self[1:])


def derive_nonasym_consequences(S: AlgebroidStructure) -> NonasymReport:
    """Check the identities forced on a non-skew pairing structure:

    - leibniz_identity: s(fs') - (rho(s)f)s' - f(ss') = -<s,s'>D(f)
    - anchor_identity (rank > 2): [rho(s),rho(s')] = rho(ss') - rho(s's)
    - d_forced_zero: <s,s'><D(f),s''> + <s,s''><D(f),s'> = 0
    - rho_forced_zero: rho = 0

    The profile verdict is included rather than gated on, so structures
    with an injected non-cocycle D still get a forcing-identity witness.
    """
    if missing_requirement(S, "nonasym-courant") is not None:
        raise ValueError("consequence derivation needs a pairing and a D cochain")
    profile = check_profile(S, "nonasym-courant")

    (leibniz,) = _courant_entries(S, (("leibniz_identity", "Ax3"),))
    if S.rank > 2:
        anchor = _identity_entry(
            "anchor_identity", st.anchor_commutator_defect_op(S)
        )
    else:
        anchor = AxiomEntry(
            "anchor_identity", True, None, f"skipped: rank {S.rank} <= 2"
        )
    forcing = _identity_entry("d_forced_zero", st.d_forcing_op(S))
    rho = _identity_entry("rho_forced_zero", S.anchor_op())
    return NonasymReport(profile, leibniz, anchor, forcing, rho)
