"""Built-in named structures used by the tests and the CLI.

Function-model entries are AlgebroidStructure instances; finite entries
are FinKVAlgebra instances with an optional symmetric form. Each entry
records which axiom profiles it is expected to pass and fail; the test
suite re-derives those claims with the checkers. The names are a table;
an entry's data is built the first time `catalog_get` asks for it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import partial

from .exactmath import Poly
from .funmodel import (
    AlgebroidStructure,
    AnchorMap,
    BiDiffOp,
    DCochain,
    DiffOp,
    Pairing,
)
from .kvfin import FinKVAlgebra, SymForm

KIND_FUNCTION_MODEL = "function-model"
KIND_FINITE_KV = "finite-kv"


class CatalogEntry(
    namedtuple(
        "CatalogEntry",
        "name kind structure algebra form note passes fails",
        defaults=(None, None, None, "", (), ()),
    )
):
    """A named entry: a function-model structure, or a finite algebra with
    an optional form; `fails` holds (profile, (failing axiom labels...))
    pairs."""

    __slots__ = ()


def _unit(n: int, a: int):
    return tuple(1 if i == a else 0 for i in range(n))


def _zero_idx(n: int):
    return (0,) * n


# ---------------------------------------------------------------------------
# Function-model builders.
# ---------------------------------------------------------------------------


def witt_line() -> AlgebroidStructure:
    """Rank-1 line over one variable: [f,g] = f g' - g f', rho(f) = 2 f d/dx,
    <f,g> = f g, D(f) = f'."""
    n, r = 1, 1
    mult = BiDiffOp(r, n, [(0, 0, 0, (0,), (1,), 1), (0, 0, 0, (1,), (0,), -1)])
    anchor = AnchorMap(n, r, [[Poly.constant(n, 2)]])
    pairing = Pairing(r, n, [[Poly.constant(n, 1)]])
    d = DCochain(r, n, [DiffOp(n, {(1,): 1})])
    return AlgebroidStructure(r, n, mult, anchor, pairing, d, skew=True)


def tangent_lie(n: int) -> AlgebroidStructure:
    """Vector fields on R^n with the usual bracket and identity anchor."""
    r = n
    terms = []
    for k in range(n):
        for a in range(n):
            terms.append((k, a, k, _zero_idx(n), _unit(n, a), 1))
            terms.append((k, k, a, _unit(n, a), _zero_idx(n), -1))
    mult = BiDiffOp(r, n, terms)
    anchor = AnchorMap(
        n, r,
        [[Poly.constant(n, 1 if a == j else 0) for j in range(r)] for a in range(n)],
    )
    return AlgebroidStructure(r, n, mult, anchor, skew=True)


def courant_standard(n: int) -> AlgebroidStructure:
    """Vector-field/1-form pairs over R^n (rank 2n). Components 0..n-1 are
    the vector part X, n..2n-1 the form part xi.

    Bracket: ([X,Y], L_X eta - L_Y xi - (1/2) d(i_X eta - i_Y xi)).
    Pairing: (1/2)(i_X eta + i_Y xi). Anchor: projection to X. D(f) = (0, df).
    The 1/2 factors are fixed by requiring all five Courant axioms to pass.
    """
    r = n * 2
    half = Fraction(1, 2)
    z = _zero_idx(n)
    terms = []
    for k in range(n):
        for a in range(n):
            # vector part: [X, Y]
            terms.append((k, a, k, z, _unit(n, a), 1))
            terms.append((k, k, a, _unit(n, a), z, -1))
            # form part
            terms.append((n + k, a, n + k, z, _unit(n, a), 1))      # X_a d_a eta_k
            terms.append((n + k, a, n + a, _unit(n, k), z, half))   # (1/2) eta_a d_k X_a
            terms.append((n + k, a, n + a, z, _unit(n, k), -half))  # -(1/2) X_a d_k eta_a
            terms.append((n + k, n + k, a, _unit(n, a), z, -1))     # -Y_a d_a xi_k
            terms.append((n + k, n + a, a, z, _unit(n, k), -half))  # -(1/2) xi_a d_k Y_a
            terms.append((n + k, n + a, a, _unit(n, k), z, half))   # (1/2) Y_a d_k xi_a
    mult = BiDiffOp(r, n, terms)
    anchor = AnchorMap(
        n, r,
        [[Poly.constant(n, 1 if a == j else 0) for j in range(r)] for a in range(n)],
    )
    g = [[Poly.zero(n) for _ in range(r)] for _ in range(r)]
    for a in range(n):
        g[a][n + a] = Poly.constant(n, half)
        g[n + a][a] = Poly.constant(n, half)
    pairing = Pairing(r, n, g)
    comps = [DiffOp(n) for _ in range(n)] + [
        DiffOp(n, {_unit(n, a): 1}) for a in range(n)
    ]
    d = DCochain(r, n, comps)
    return AlgebroidStructure(r, n, mult, anchor, pairing, d, skew=True)


def _koszul_structure(n: int, pi) -> AlgebroidStructure:
    """1-forms on R^n with the bivector bracket
    [alpha, beta] = L_{#alpha} beta - L_{#beta} alpha - d(Pi(alpha, beta)),
    where (#alpha)_b = sum_a pi[a][b] alpha_a; anchor = #."""
    r = n
    pi = [[p if isinstance(p, Poly) else Poly.constant(n, p) for p in row] for row in pi]
    z = _zero_idx(n)
    terms = []
    for k in range(n):
        for a in range(n):
            for c in range(n):
                p = pi[c][a]
                dk_p = p.diff(k)
                if not p.is_zero():
                    # L_{#alpha} beta
                    terms.append((k, c, k, z, _unit(n, a), p))
                    terms.append((k, c, a, _unit(n, k), z, p))
                    # - L_{#beta} alpha
                    terms.append((k, k, c, _unit(n, a), z, -p))
                    terms.append((k, a, c, z, _unit(n, k), -p))
                    # - d(Pi(alpha, beta)), derivative hitting the arguments
                    terms.append((k, c, a, _unit(n, k), z, -p))
                    terms.append((k, c, a, z, _unit(n, k), -p))
                if not dk_p.is_zero():
                    terms.append((k, c, a, z, z, dk_p))   # from d_k(#alpha)
                    terms.append((k, a, c, z, z, -dk_p))  # from -d_k(#beta)
                    terms.append((k, c, a, z, z, -dk_p))  # from -d_k Pi(alpha,beta)
    mult = BiDiffOp(r, n, terms)
    anchor = AnchorMap(n, r, [[pi[j][a] for j in range(r)] for a in range(n)])
    return AlgebroidStructure(r, n, mult, anchor, skew=True)


def poisson_cotangent() -> AlgebroidStructure:
    """1-forms on R^2 with the constant symplectic bivector (a Poisson
    structure, so the bracket satisfies Jacobi)."""
    return _koszul_structure(2, [[0, 1], [-1, 0]])


def poisson_cotangent_nonpoisson() -> AlgebroidStructure:
    """1-forms on R^3 with the bivector d1^d2 + x2 d2^d3, which fails the
    Poisson condition, so the bracket has a nonzero jacobiator."""
    n = 3
    x2 = Poly.variable(n, 1)
    zero = Poly.zero(n)
    one = Poly.constant(n, 1)
    pi = [[zero, one, zero], [-one, zero, x2], [zero, -x2, zero]]
    return _koszul_structure(n, pi)


# ---------------------------------------------------------------------------
# Finite KV builders (0-based basis indices).
# ---------------------------------------------------------------------------


def vinberg_83(alpha=1, beta=1):
    """dim-3 algebra e3 e1 = e2, e3 e2 = e1 (all other products zero) with
    the invariant form diag(alpha, -alpha, beta)."""
    z = Fraction(0)
    c = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    c[2][0][1] = Fraction(1)
    c[2][1][0] = Fraction(1)
    alpha, beta = Fraction(alpha), Fraction(beta)
    form = SymForm([[alpha, 0, 0], [0, -alpha, 0], [0, 0, beta]])
    return FinKVAlgebra(3, c), form


def clan_84(alpha=1, as_printed: bool = False):
    """dim-3 algebra e3 e1 = -e2, e3 e2 = e1 with form diag(1, 1, alpha).
    The as_printed variant keeps only e3 e2 = e1, which breaks both the
    cocycle and the invariance of the form."""
    z = Fraction(0)
    c = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    c[2][1][0] = Fraction(1)
    if not as_printed:
        c[2][0][1] = Fraction(-1)
    form = SymForm([[1, 0, 0], [0, 1, 0], [0, 0, Fraction(alpha)]])
    return FinKVAlgebra(3, c), form


# ---------------------------------------------------------------------------
# The registry: a table of names, each entry built the first time it is
# asked for.
# ---------------------------------------------------------------------------

# name -> (kind, builder, note, passes, fails); a function-model builder
# returns the structure, a finite one the (algebra, form) pair
_TABLE = {
    "witt-line": (
        KIND_FUNCTION_MODEL,
        witt_line,
        "Rank-1 line bundle over one variable with [f,g] = f g' - g f', "
        "rho(f) = 2 f d/dx, <f,g> = fg, D = d/dx. The minimal structure "
        "satisfying the CC axioms while violating the anchor-morphism "
        "and rho(D f) = 0 identities, showing they are not consequences "
        "at rank 1.",
        ("cc",),
        (
            ("lie", ("P2",)),
            ("kv", ("3i", "3ii", "3iii")),
            ("courant", ("Ax2", "Ax4")),
        ),
    ),
}
for _n in (1, 2, 3):
    _TABLE[f"tangent-lie-{_n}"] = (
        KIND_FUNCTION_MODEL,
        partial(tangent_lie, _n),
        f"Vector fields on R^{_n} with the usual bracket and the "
        "identity anchor; the baseline Lie-profile structure.",
        ("lie",),
        (),
    )
for _n in (1, 2, 3):
    _TABLE[f"courant-standard-{_n}"] = (
        KIND_FUNCTION_MODEL,
        partial(courant_standard, _n),
        f"Vector-field/1-form pairs over R^{_n} (rank {2 * _n}) with "
        "the skew bracket, half-sum pairing and D = exterior "
        "derivative. The 1/2 normalizations are fixed by requiring "
        "all five Courant axioms to hold exactly.",
        ("courant",),
        (),
    )
_TABLE["poisson-cotangent"] = (
    KIND_FUNCTION_MODEL,
    poisson_cotangent,
    "1-forms on R^2 with the bracket of the constant symplectic "
    "bivector and the induced anchor; the bivector is Poisson, so "
    "the Lie profile passes.",
    ("lie",),
    (),
)
_TABLE["poisson-cotangent-nonpoisson"] = (
    KIND_FUNCTION_MODEL,
    poisson_cotangent_nonpoisson,
    "1-forms on R^3 with the bivector d1^d2 + x2 d2^d3, which is "
    "not Poisson; the bracket is skew with a Leibniz anchor but "
    "the jacobiator is nonzero.",
    (),
    (("lie", ("P1",)),),
)
_TABLE["vinberg-83"] = (
    KIND_FINITE_KV,
    vinberg_83,
    "dim-3 KV algebra e3 e1 = e2, e3 e2 = e1 with the invariant "
    "form diag(1,-1,1): an indefinite nondegenerate invariant "
    "2-cocycle, hence a pseudo-clan, and the cocycle is non-exact.",
    (),
    (),
)
_TABLE["clan-84"] = (
    KIND_FINITE_KV,
    clan_84,
    "dim-3 KV algebra e3 e1 = -e2, e3 e2 = e1 with the definite "
    "invariant form diag(1,1,1): a clan. The product is the "
    "single-sign repair of the as-printed variant, selected as the "
    "unique one-character change passing both the KV identity and "
    "form invariance; its commutator second component is -(z x' - z' x).",
    (),
    (),
)
_TABLE["clan-84-as-printed"] = (
    KIND_FINITE_KV,
    partial(clan_84, as_printed=True),
    "The as-printed variant keeping only e3 e2 = e1: still KV, but "
    "the diag(1,1,1) form is neither a cocycle nor invariant, so "
    "classification returns neither.",
    (),
    (),
)

_BUILT = {}  # name -> CatalogEntry, filled by catalog_get


def catalog_names():
    """The entry names, sorted; no entry is built."""
    return sorted(_TABLE)


def catalog_get(name: str) -> CatalogEntry:
    """The named entry, built on the first call; later calls return the
    same object."""
    entry = _BUILT.get(name)
    if entry is not None:
        return entry
    if name not in _TABLE:
        raise KeyError(
            f"unknown catalog entry {name!r}; available: {', '.join(catalog_names())}"
        )
    kind, build, note, passes, fails = _TABLE[name]
    if kind == KIND_FUNCTION_MODEL:
        entry = CatalogEntry(name, kind, build(), note=note, passes=passes, fails=fails)
    else:
        algebra, form = build()
        entry = CatalogEntry(name, kind, algebra=algebra, form=form, note=note)
    _BUILT[name] = entry
    return entry
