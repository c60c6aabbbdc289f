"""The computable bundle model: sections as polynomial tuples, the
structure maps (multiplication, anchor, pairing, D) as multidifferential
operators, and the exact identity-decision engine.

A :class:`MultiDiffOp` is the canonical form of a real-multilinear
multidifferential operator: a sum of terms

    coeff(x) * prod_t d^{alpha_t}( input_t[component_t] )

with polynomial coefficients. Every "for all sections / functions" axiom
is decided by composing structure operators into this canonical form and
subtracting: the canonical form of a nonzero operator is nonzero.
:func:`find_witness` is the one decision of such a defect: None when it
is zero, else a witness input recovered from monomial test inputs in
graded-lexicographic order, one slot at a time. An operator of order m
is determined by its action on monomials of degree <= m, so its bound,
order + 1, makes the witness search complete, never a sampling
heuristic.

A structure (:class:`AlgebroidStructure`) is its `skew` flag and four
canonical operators, for mult, anchor, pairing and D, and nothing else.
The part names `BiDiffOp`, `AnchorMap`, `Pairing` and `DCochain` are
constructors for code: each checks its frame-term input and returns the
operator. A structure file goes through the table step,
`AlgebroidStructure._from_tables`, instead: the file reader has checked
every entry, and the step wraps its tables as the four operators with no
second check and no normalising pass.
`S.mult`, `S.anchor`, `S.pairing` and `S.d_cochain` are read-only views
in frame terms, decoded from the operators for the serializer;
`S.has(part)` tells whether a pairing or D is present without one. A frame
change (:func:`conjugate`) composes new operators and keeps them as they
are.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Optional, Sequence

from .exactmath import (
    Poly,
    grlex_key,
    monomials_upto,
    poly_matrix_inverse,
)

SECTION = "s"
FUNCTION = "f"


class Section:
    """Rank-r tuple of polynomials sharing one base dimension."""

    __slots__ = ("rank", "base_dim", "components")

    def __init__(self, components: Sequence[Poly]):
        components = tuple(components)
        if not components:
            raise ValueError("a section needs at least one component")
        base_dim = components[0].base_dim
        if any(c.base_dim != base_dim for c in components):
            raise ValueError("components disagree on base_dim")
        self.rank = len(components)
        self.base_dim = base_dim
        self.components = components

    @staticmethod
    def zero(rank: int, base_dim: int) -> "Section":
        return Section([Poly.zero(base_dim)] * rank)

    @staticmethod
    def basis(rank: int, base_dim: int, index: int, coeff: Optional[Poly] = None) -> "Section":
        comps = [Poly.zero(base_dim)] * rank
        comps[index] = coeff if coeff is not None else Poly.constant(base_dim, 1)
        return Section(comps)

    def __add__(self, other: "Section") -> "Section":
        return Section([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: "Section") -> "Section":
        return Section([a - b for a, b in zip(self.components, other.components)])

    def __neg__(self) -> "Section":
        return Section([-a for a in self.components])

    def scale(self, f) -> "Section":
        """Module action f.s, componentwise; f may be a Poly or a rational."""
        if isinstance(f, Poly):
            return Section([f * c for c in self.components])
        return Section([c.scale(f) for c in self.components])

    __rmul__ = scale

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __eq__(self, other) -> bool:
        return isinstance(other, Section) and self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"

    def __repr__(self):
        return f"Section{self}"


class DiffOp:
    """Scalar differential operator sum_alpha c_alpha(x) d^alpha with
    polynomial coefficients."""

    __slots__ = ("base_dim", "terms")

    def __init__(self, base_dim: int, terms=None):
        self.base_dim = base_dim
        clean = {}
        if terms:
            for alpha, coeff in (terms.items() if isinstance(terms, dict) else terms):
                alpha = tuple(int(a) for a in alpha)
                if len(alpha) != base_dim:
                    raise ValueError("multi-index length != base_dim")
                if not isinstance(coeff, Poly):
                    coeff = Poly.constant(base_dim, coeff)
                if not coeff.is_zero():
                    acc = clean.get(alpha)
                    coeff = coeff if acc is None else acc + coeff
                    if coeff.is_zero():
                        clean.pop(alpha, None)
                    else:
                        clean[alpha] = coeff
        self.terms = clean

    @property
    def order(self) -> int:
        return max((sum(a) for a in self.terms), default=0)

    def apply(self, f: Poly) -> Poly:
        out = Poly.zero(self.base_dim)
        for alpha, coeff in self.terms.items():
            out = out + coeff * f.diff_multi(alpha)
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiffOp)
            and self.base_dim == other.base_dim
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.base_dim, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for alpha in sorted(self.terms, key=grlex_key):
            coeff = self.terms[alpha]
            ds = "*".join(
                f"d{i + 1}" + (f"^{a}" if a > 1 else "")
                for i, a in enumerate(alpha)
                if a
            )
            cs = str(coeff)
            if " " in cs:
                cs = f"({cs})"
            parts.append(f"{cs}*{ds}" if ds else cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"DiffOp({self})"


# ---------------------------------------------------------------------------
# Canonical multidifferential operators.
# ---------------------------------------------------------------------------

# term key: (out_component_or_None, ((slot_component_or_None, alpha), ...))


class MultiDiffOp:
    """Canonical multilinear multidifferential operator.

    slots: tuple of SECTION/FUNCTION markers, one per input slot.
    output: SECTION or FUNCTION.
    terms: map from (out_comp, slot_keys) to a Poly coefficient, where
    slot_keys holds one (component, alpha) pair per slot (component is
    None for function slots).
    """

    __slots__ = ("rank", "base_dim", "slots", "output", "terms")

    def __init__(self, rank, base_dim, slots, output, terms=None):
        self.rank = rank
        self.base_dim = base_dim
        self.slots = tuple(slots)
        self.output = output
        clean = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for key, coeff in items:
                if not isinstance(coeff, Poly):
                    coeff = Poly.constant(base_dim, coeff)
                if coeff.is_zero():
                    continue
                acc = clean.get(key)
                coeff = coeff if acc is None else acc + coeff
                if coeff.is_zero():
                    clean.pop(key, None)
                else:
                    clean[key] = coeff
        self.terms = clean

    # -- bookkeeping ----------------------------------------------------

    def _like(self, terms) -> "MultiDiffOp":
        return MultiDiffOp(self.rank, self.base_dim, self.slots, self.output, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> int:
        """Max total derivative order across all slots of any term."""
        return max(
            (sum(sum(alpha) for _, alpha in skeys) for _, skeys in self.terms),
            default=0,
        )

    def same_signature(self, other: "MultiDiffOp") -> bool:
        return (
            self.rank == other.rank
            and self.base_dim == other.base_dim
            and self.slots == other.slots
            and self.output == other.output
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiDiffOp)
            and self.same_signature(other)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.slots, self.output, frozenset(self.terms.items())))

    # -- linear structure -------------------------------------------------

    def __add__(self, other: "MultiDiffOp") -> "MultiDiffOp":
        if not self.same_signature(other):
            raise ValueError("operator signatures differ")
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = terms.get(key)
            total = coeff if acc is None else acc + coeff
            if total.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = total
        return self._like(terms)

    def __neg__(self) -> "MultiDiffOp":
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "MultiDiffOp") -> "MultiDiffOp":
        return self + (-other)

    def scale(self, scalar) -> "MultiDiffOp":
        scalar = Fraction(scalar)
        if not scalar:
            return self._like({})
        return self._like({k: c.scale(scalar) for k, c in self.terms.items()})

    # -- operator algebra --------------------------------------------------

    def component(self, comp: Optional[int]) -> "MultiDiffOp":
        """Project a section-output operator to one function-output
        component (comp=None returns a function-output operator as is)."""
        if self.output == FUNCTION:
            if comp is not None:
                raise ValueError("function output has no components")
            return self
        terms = {
            (None, skeys): coeff
            for (out, skeys), coeff in self.terms.items()
            if out == comp
        }
        return MultiDiffOp(self.rank, self.base_dim, self.slots, FUNCTION, terms)

    def derive(self, index: int) -> "MultiDiffOp":
        """d/dx_index composed with a function-output operator (Leibniz
        over the coefficient and every slot factor)."""
        if self.output != FUNCTION:
            raise ValueError("derive only applies to function-output operators")
        terms = []
        for (out, skeys), coeff in self.terms.items():
            dc = coeff.diff(index)
            if not dc.is_zero():
                terms.append(((out, skeys), dc))
            for t, (comp, alpha) in enumerate(skeys):
                bumped = list(alpha)
                bumped[index] += 1
                new_keys = skeys[:t] + ((comp, tuple(bumped)),) + skeys[t + 1 :]
                terms.append(((out, new_keys), coeff))
        return self._like(terms)

    def derive_multi(self, alpha: Sequence[int]) -> "MultiDiffOp":
        op = self
        for i, a in enumerate(alpha):
            for _ in range(a):
                op = op.derive(i)
        return op

    def permute(self, perm: Sequence[int]) -> "MultiDiffOp":
        """Reorder slots: new slot i is old slot perm[i]."""
        perm = tuple(perm)
        if sorted(perm) != list(range(len(self.slots))):
            raise ValueError("not a permutation of the slots")
        slots = tuple(self.slots[p] for p in perm)
        terms = {}
        for (out, skeys), coeff in self.terms.items():
            key = (out, tuple(skeys[p] for p in perm))
            acc = terms.get(key)
            terms[key] = coeff if acc is None else acc + coeff
        return MultiDiffOp(self.rank, self.base_dim, slots, self.output, terms)

    def compose(self, pos: int, inner: "MultiDiffOp") -> "MultiDiffOp":
        """Plug `inner` into slot `pos`; the plugged slot's kind must match
        inner's output. Result slots: self.slots with slot pos replaced by
        inner.slots."""
        if inner.rank != self.rank or inner.base_dim != self.base_dim:
            raise ValueError("operator shapes differ")
        if self.slots[pos] != inner.output:
            raise ValueError("slot kind does not match inner output")
        slots = self.slots[:pos] + inner.slots + self.slots[pos + 1 :]
        # cache derived inner components, keyed by (component, alpha)
        derived = {}
        terms = []
        for (out, skeys), coeff in self.terms.items():
            comp, alpha = skeys[pos]
            key = (comp, alpha)
            if key not in derived:
                derived[key] = inner.component(comp).derive_multi(alpha)
            for (_, in_keys), in_coeff in derived[key].terms.items():
                new_keys = skeys[:pos] + in_keys + skeys[pos + 1 :]
                terms.append(((out, new_keys), coeff * in_coeff))
        return MultiDiffOp(self.rank, self.base_dim, slots, self.output, terms)

    def product(self, other: "MultiDiffOp") -> "MultiDiffOp":
        """Pointwise product; self must be function-valued. Result slots are
        self.slots followed by other.slots, output is other's."""
        if self.output != FUNCTION:
            raise ValueError("left factor of a product must be function-valued")
        if other.rank != self.rank or other.base_dim != self.base_dim:
            raise ValueError("operator shapes differ")
        terms = []
        for (_, skeys1), c1 in self.terms.items():
            for (out, skeys2), c2 in other.terms.items():
                terms.append(((out, skeys1 + skeys2), c1 * c2))
        return MultiDiffOp(
            self.rank, self.base_dim, self.slots + other.slots, other.output, terms
        )

    # -- evaluation ---------------------------------------------------------

    def bind(self, pos: int, value) -> "MultiDiffOp":
        """Substitute a concrete Section/Poly into slot pos."""
        if self.slots[pos] == SECTION:
            if not isinstance(value, Section) or value.rank != self.rank:
                raise ValueError("expected a rank-matching Section")
            comps = value.components
        else:
            if not isinstance(value, Poly) or value.base_dim != self.base_dim:
                raise ValueError("expected a Poly over the structure's base")
            comps = None
        slots = self.slots[:pos] + self.slots[pos + 1 :]
        terms = []
        for (out, skeys), coeff in self.terms.items():
            comp, alpha = skeys[pos]
            target = value if comps is None else comps[comp]
            factor = target.diff_multi(alpha)
            if factor.is_zero():
                continue
            terms.append(((out, skeys[:pos] + skeys[pos + 1 :]), coeff * factor))
        return MultiDiffOp(self.rank, self.base_dim, slots, self.output, terms)

    def apply(self, *inputs):
        """Evaluate on concrete inputs; returns a Poly or a Section."""
        if len(inputs) != len(self.slots):
            raise ValueError(f"expected {len(self.slots)} inputs, got {len(inputs)}")
        if self.output == FUNCTION:
            total = Poly.zero(self.base_dim)
        else:
            acc = [Poly.zero(self.base_dim) for _ in range(self.rank)]
        for (out, skeys), coeff in self.terms.items():
            val = coeff
            for (comp, alpha), value in zip(skeys, inputs):
                target = value if comp is None else value.components[comp]
                val = val * target.diff_multi(alpha)
                if val.is_zero():
                    break
            else:
                if out is None:
                    total = total + val
                else:
                    acc[out] = acc[out] + val
        return total if self.output == FUNCTION else Section(acc)


# ---------------------------------------------------------------------------
# Primitive operators.
# ---------------------------------------------------------------------------


def section_identity(rank: int, base_dim: int) -> MultiDiffOp:
    zero = (0,) * base_dim
    terms = {(k, ((k, zero),)): Poly.constant(base_dim, 1) for k in range(rank)}
    return MultiDiffOp(rank, base_dim, (SECTION,), SECTION, terms)

def function_identity(rank: int, base_dim: int) -> MultiDiffOp:
    zero = (0,) * base_dim
    return MultiDiffOp(
        rank, base_dim, (FUNCTION,), FUNCTION,
        {(None, ((None, zero),)): Poly.constant(base_dim, 1)},
    )

def module_action(rank: int, base_dim: int) -> MultiDiffOp:
    """(f, s) -> f.s"""
    zero = (0,) * base_dim
    terms = {
        (k, ((None, zero), (k, zero))): Poly.constant(base_dim, 1) for k in range(rank)
    }
    return MultiDiffOp(rank, base_dim, (FUNCTION, SECTION), SECTION, terms)

def bundle_map(rank: int, base_dim: int, matrix) -> MultiDiffOp:
    """s -> M s, (M s)_i = sum_p M[i][p] s_p, for a rank x rank matrix M."""
    zero = (0,) * base_dim
    terms = [((i, ((p, zero),)), row[p]) for i, row in enumerate(matrix) for p in range(rank)]
    return MultiDiffOp(rank, base_dim, (SECTION,), SECTION, terms)

def function_product(rank: int, base_dim: int) -> MultiDiffOp:
    """(f, g) -> f*g"""
    zero = (0,) * base_dim
    return MultiDiffOp(
        rank, base_dim, (FUNCTION, FUNCTION), FUNCTION,
        {(None, ((None, zero), (None, zero))): Poly.constant(base_dim, 1)},
    )


# ---------------------------------------------------------------------------
# Structure data: each part is its canonical operator. The part names are
# constructors that check their input and return the operator.
# ---------------------------------------------------------------------------


def _check_base_dim(base_dim: int, what: str, index, value) -> None:
    """Raise ValueError naming `what` `index` if value, a Poly or DiffOp,
    is not over base_dim; a scalar passes."""
    if getattr(value, "base_dim", base_dim) != base_dim:
        raise ValueError(f"{what} {index} has base_dim {value.base_dim}, expected {base_dim}")


def BiDiffOp(rank: int, base_dim: int, terms) -> MultiDiffOp:
    """The multiplication from its frame terms (k, i, j, alpha, beta, coeff):

        mu(s, s')_k += coeff * d^alpha(s_i) * d^beta(s'_j)

    Repeated terms add up. A term whose k, i or j is not in range(rank),
    whose alpha or beta is not base_dim entries >= 0, or whose Poly
    coefficient is not over base_dim raises ValueError naming it."""
    fibre, keyed = frozenset(range(rank)), []
    for k, i, j, alpha, beta, coeff in terms:
        alpha, beta = tuple(alpha), tuple(beta)
        if (
            not (k in fibre and i in fibre and j in fibre)
            or len(alpha) != base_dim or len(beta) != base_dim or min((0, *alpha, *beta)) < 0
        ):
            raise ValueError(
                f"mult term {(k, i, j, alpha, beta)} needs k, i, j in range({rank}) "
                f"and multi-indices of {base_dim} entries >= 0"
            )
        _check_base_dim(base_dim, "mult term", (k, i, j, alpha, beta), coeff)
        keyed.append(((k, ((i, alpha), (j, beta))), coeff))
    return MultiDiffOp(rank, base_dim, (SECTION, SECTION), SECTION, keyed)


def AnchorMap(base_dim: int, rank: int, matrix: Sequence[Sequence[Poly]]) -> MultiDiffOp:
    """rho(e_j) = sum_a p[a][j] d/dx_a, as the operator (s, f) -> rho(s)(f).
    An entry p[a][j] that is a Poly not over base_dim raises ValueError
    naming it, as in `Pairing` and `DCochain`."""
    if len(matrix) != base_dim or any(len(row) != rank for row in matrix):
        raise ValueError("anchor matrix must be base_dim x rank")
    zero = (0,) * base_dim
    terms = []
    for a, row in enumerate(matrix):
        e_a = tuple(int(i == a) for i in range(base_dim))
        for j, p in enumerate(row):
            _check_base_dim(base_dim, "anchor entry", (a, j), p)
            terms.append(((None, ((j, zero), (None, e_a))), p))
    return MultiDiffOp(rank, base_dim, (SECTION, FUNCTION), FUNCTION, terms)


def Pairing(rank: int, base_dim: int, matrix: Sequence[Sequence[Poly]]) -> MultiDiffOp:
    """Symmetric bilinear form <s, s'> = sum g_ij s_i s'_j with g_ij Poly;
    an entry g_ij not over base_dim raises ValueError naming it."""
    if len(matrix) != rank or any(len(row) != rank for row in matrix):
        raise ValueError("pairing matrix must be rank x rank")
    for i in range(rank):
        for j in range(i):
            if matrix[i][j] != matrix[j][i]:
                raise ValueError("pairing matrix must be symmetric")
    zero = (0,) * base_dim
    terms = []
    for i, row in enumerate(matrix):
        for j, g in enumerate(row):
            _check_base_dim(base_dim, "pairing entry", (i, j), g)
            terms.append(((None, ((i, zero), (j, zero))), g))
    return MultiDiffOp(rank, base_dim, (SECTION, SECTION), FUNCTION, terms)


def DCochain(rank: int, base_dim: int, components: Sequence[DiffOp]) -> MultiDiffOp:
    """Degree-1 cochain D(f) = sum_k D_k(f) e_k with each D_k of order <= 1.
    A component D_k, or a coefficient of one, not over base_dim raises
    ValueError naming it."""
    if len(components) != rank:
        raise ValueError("need one DiffOp per fibre component")
    terms = []
    for k, op in enumerate(components):
        _check_base_dim(base_dim, "dcochain component", k, op)
        for alpha, c in op.terms.items():
            _check_base_dim(base_dim, "dcochain term", (k, alpha), c)
            terms.append(((k, ((None, alpha),)), c))
    if any(op.order > 1 for op in components):
        raise ValueError("D components must be differential operators of order <= 1")
    return MultiDiffOp(rank, base_dim, (FUNCTION,), SECTION, terms)


# Read-only views of the parts in frame terms, decoded from the operators:
# the [mult] terms ((k, i, j, alpha, beta), coeff) sorted, with the skew
# flag; the base_dim x rank anchor and rank x rank pairing matrices; and one
# DiffOp per fibre component of D.
MultView = namedtuple("MultView", "terms skew")
AnchorView = namedtuple("AnchorView", "matrix")
PairingView = namedtuple("PairingView", "matrix")
DCochainView = namedtuple("DCochainView", "components")

# part -> (slots, output) of its operator
_SIGNATURES = (
    ("mult", (SECTION, SECTION), SECTION),
    ("anchor", (SECTION, FUNCTION), FUNCTION),
    ("pairing", (SECTION, SECTION), FUNCTION),
    ("D", (FUNCTION,), SECTION),
)
# optional part -> the slot that holds its operator, or None
_OPTIONAL = {"pairing": "_pairing", "D": "_d"}


class AlgebroidStructure:
    """A bundle of rank `rank` over R^base_dim: the skew flag and four
    canonical operators, the multiplication (s, s') -> s s', the anchor
    (s, f) -> rho(s)(f), and the optional pairing (s, s') -> <s, s'> and
    D f -> D(f) consumed by the axiom profiles.

    The operators come from the part constructors (BiDiffOp, AnchorMap,
    Pairing, DCochain), from the table step `_from_tables` on a file's
    checked tables, or from `compose` on theirs. The skew flag is a
    declaration; checkers verify it, never assume it. `mult`, `anchor`,
    `pairing` and `d_cochain` are views in frame terms, decoded on each
    access; `pairing` and `d_cochain` are None when the part is absent."""

    __slots__ = ("rank", "base_dim", "skew", "_mult", "_anchor", "_pairing", "_d")

    def __init__(
        self,
        rank: int,
        base_dim: int,
        mult: MultiDiffOp,
        anchor: MultiDiffOp,
        pairing: Optional[MultiDiffOp] = None,
        d_cochain: Optional[MultiDiffOp] = None,
        skew: bool = False,
    ):
        ops = (mult, anchor, pairing, d_cochain)
        for op, (part, slots, output) in zip(ops, _SIGNATURES):
            if op is None and part in _OPTIONAL:
                continue
            if not isinstance(op, MultiDiffOp):
                raise ValueError(f"the {part} part must be a MultiDiffOp")
            if (op.rank, op.base_dim) != (rank, base_dim):
                raise ValueError("structure parts disagree on rank/base_dim")
            if (op.slots, op.output) != (slots, output):
                raise ValueError(f"the {part} operator has the wrong slots or output")
        self.rank = rank
        self.base_dim = base_dim
        self.skew = skew
        self._mult, self._anchor, self._pairing, self._d = ops

    def __repr__(self):
        ops = (self._mult, self._anchor, self._pairing, self._d)
        counts = tuple(None if op is None else len(op.terms) for op in ops)
        return (
            f"AlgebroidStructure(rank={self.rank!r}, base_dim={self.base_dim!r}, "
            f"skew={self.skew!r}, term counts (mult, anchor, pairing, D)={counts!r})"
        )

    # primitive operators
    def mult_op(self) -> MultiDiffOp:
        return self._mult

    def anchor_op(self) -> MultiDiffOp:
        return self._anchor

    def pairing_op(self) -> MultiDiffOp:
        if self._pairing is None:
            raise ValueError("structure has no pairing")
        return self._pairing

    def d_op(self) -> MultiDiffOp:
        if self._d is None:
            raise ValueError("structure has no D cochain")
        return self._d

    def has(self, part: str) -> bool:
        """Whether the optional part "pairing" or "D" is present, read off
        its slot without decoding a view."""
        return getattr(self, _OPTIONAL[part]) is not None

    # views in frame terms
    @property
    def mult(self) -> MultView:
        terms = self._mult.terms.items()
        terms = [((k, i, j, alpha, beta), c) for (k, ((i, alpha), (j, beta))), c in terms]
        return MultView(tuple(sorted(terms)), self.skew)

    @property
    def anchor(self) -> AnchorView:
        matrix = [[Poly.zero(self.base_dim)] * self.rank for _ in range(self.base_dim)]
        for (_, ((j, _), (_, e_a))), c in self._anchor.terms.items():
            matrix[e_a.index(1)][j] = c
        return AnchorView(tuple(map(tuple, matrix)))

    @property
    def pairing(self) -> Optional[PairingView]:
        if self._pairing is None:
            return None
        g = [[Poly.zero(self.base_dim)] * self.rank for _ in range(self.rank)]
        for (_, ((i, _), (j, _))), c in self._pairing.terms.items():
            g[i][j] = c
        return PairingView(tuple(map(tuple, g)))

    @property
    def d_cochain(self) -> Optional[DCochainView]:
        if self._d is None:
            return None
        comps = [{} for _ in range(self.rank)]
        for (k, ((_, alpha),)), c in self._d.terms.items():
            comps[k][alpha] = c
        return DCochainView(tuple(DiffOp(self.base_dim, t) for t in comps))

    def __eq__(self, other):
        return (
            isinstance(other, AlgebroidStructure)
            and (self.rank, self.base_dim, self.skew) == (other.rank, other.base_dim, other.skew)
            and (self._mult, self._anchor, self._pairing, self._d)
            == (other._mult, other._anchor, other._pairing, other._d)
        )

    @classmethod
    def _from_tables(cls, rank, base_dim, mult, anchor, pairing=None, d=None, skew=False):
        """The table step, on checked frame-term tables: mult
        {(k, i, j, alpha, beta): coeff}, anchor {(a, j): coeff}, pairing
        {(i, j): coeff} with i <= j and d {(k, alpha): coeff}, each entry
        once, every index in range, every multi-index of base_dim entries
        >= 0 and every coeff a Poly over base_dim; pairing and d are None
        when absent. Each table is keyed as its operator's terms as it is,
        zero values dropped, in the term order of the part constructors,
        and wrapped with no normalising pass."""
        zero = (0,) * base_dim
        units = [tuple(int(i == a) for i in range(base_dim)) for a in range(base_dim)]
        anchor = sorted(anchor.items())  # by (a, j), as AnchorMap takes them
        terms = [
            {(k, ((i, alpha), (j, beta))): c for (k, i, j, alpha, beta), c in mult.items() if c},
            {(None, ((j, zero), (None, units[a]))): c for (a, j), c in anchor if c},
            None,
            None,
        ]
        if pairing is not None:
            g = {}
            for (i, j), c in pairing.items():
                if c:
                    g[i, j] = g[j, i] = c
            terms[2] = {(None, ((i, zero), (j, zero))): c for (i, j), c in sorted(g.items())}
        if d is not None:
            d = sorted(d.items(), key=lambda item: item[0][0])  # by k, as DCochain takes them
            terms[3] = {(k, ((None, alpha),)): c for (k, alpha), c in d if c}
        ops = []
        for t, (_, slots, output) in zip(terms, _SIGNATURES):
            op = None
            if t is not None:
                op = MultiDiffOp.__new__(MultiDiffOp)
                op.rank, op.base_dim, op.slots, op.output, op.terms = (
                    rank, base_dim, slots, output, t
                )
            ops.append(op)
        return cls(rank, base_dim, *ops, skew=skew)


def _check_sections(S: AlgebroidStructure, *sections: Section) -> None:
    if any(s.rank != S.rank for s in sections):
        raise ValueError("section rank != structure rank")
    if any(s.base_dim != S.base_dim for s in sections):
        raise ValueError("section base_dim != structure base_dim")


def apply_mult(S: AlgebroidStructure, s: Section, sp: Section) -> Section:
    _check_sections(S, s, sp)
    return S.mult_op().apply(s, sp)


def apply_anchor(S: AlgebroidStructure, s: Section, f: Poly) -> Poly:
    if s.rank != S.rank or f.base_dim != S.base_dim:
        raise ValueError("shape mismatch")
    return S.anchor_op().apply(s, f)


def pairing_value(S: AlgebroidStructure, s: Section, sp: Section) -> Poly:
    pairing = S.pairing_op()
    _check_sections(S, s, sp)
    return pairing.apply(s, sp)


# ---------------------------------------------------------------------------
# Canonical test inputs and the identity decision.
# ---------------------------------------------------------------------------


def function_inputs(base_dim: int, max_degree: int):
    """Monomial test functions in graded-lexicographic order."""
    return [Poly.monomial(base_dim, e) for e in monomials_upto(base_dim, max_degree)]


def section_inputs(rank: int, base_dim: int, max_degree: int):
    """Monomial-times-basis-vector test sections, ordered by (grlex
    monomial, component index)."""
    out = []
    for expo in monomials_upto(base_dim, max_degree):
        for comp in range(rank):
            out.append(Section.basis(rank, base_dim, comp, Poly.monomial(base_dim, expo)))
    return out


class Witness(namedtuple("Witness", "inputs residual")):
    """A concrete failing input (a tuple) with its nonzero residual (a
    Poly, Section or DiffOp)."""

    __slots__ = ()

    def __str__(self):
        ins = ", ".join(str(v) for v in self.inputs)
        return f"inputs=({ins}); residual={self.residual}"


def find_witness(diff: MultiDiffOp) -> Optional[Witness]:
    """The identity decision: None iff diff is the zero operator, else the
    first input tuple (canonical order) on which diff evaluates to a
    nonzero residual.

    The search fixes one slot at a time: each slot takes the first test
    input (monomials of degree <= diff.order() + 1, in the order of
    function_inputs / section_inputs) whose bound operator is nonzero, and
    the residual is diff applied to the chosen inputs. This is the first
    witness in the product order of the test inputs: an input whose bound
    operator is zero starts no witness, and a nonzero bound operator has
    one among the remaining inputs, because binding a slot never raises
    the order and a nonzero operator of order m is nonzero on monomials of
    degree <= m. The pools are in grlex degree order, so any larger bound
    only appends inputs after the first nonzero one and finds the same
    witness.
    """
    if diff.is_zero():
        return None
    max_degree = diff.order() + 1
    inputs, bound = [], diff
    for kind in diff.slots:
        if kind == FUNCTION:
            pool = function_inputs(diff.base_dim, max_degree)
        else:
            pool = section_inputs(diff.rank, diff.base_dim, max_degree)
        for value in pool:
            rest = bound.bind(0, value)
            if not rest.is_zero():
                break
        inputs.append(value)
        bound = rest
    residual = diff.apply(*inputs)
    if residual.is_zero():
        raise AssertionError(
            "nonzero canonical operator with no witness inside the degree bound"
        )
    return Witness(tuple(inputs), residual)


# ---------------------------------------------------------------------------
# Changes of frame, constant or polynomial (randomized instances and the
# frame-invariance tests).
# ---------------------------------------------------------------------------


def _frame(A: Sequence[Sequence], rank: int, base_dim: int) -> list:
    """A as a rank x rank matrix of Poly over base_dim, or a ValueError
    that names what is wrong with it."""
    if len(A) != rank or any(len(row) != rank for row in A):
        raise ValueError(f"frame change must be a {rank} x {rank} matrix, the structure's rank")
    A = [[v if isinstance(v, Poly) else Poly.constant(base_dim, v) for v in row] for row in A]
    if any(v.base_dim != base_dim for row in A for v in row):
        raise ValueError(f"frame change entries must be polynomials over base_dim {base_dim}")
    return A


def conjugate(S: AlgebroidStructure, A: Sequence[Sequence]) -> AlgebroidStructure:
    """Pull the structure back along the frame change e -> A e.

    A is a rank x rank matrix of ints, Fractions or Poly over S's base.
    Its determinant must be a nonzero constant, the case where A^-1 is
    polynomial too; any other frame raises ValueError. With the bundle
    map s -> A s and `compose`: mult' = A^-1 o mult o (A, A), anchor' =
    anchor o A, pairing' = pairing o (A, A), D' = A^-1 o D. Every axiom
    profile is invariant under this."""
    r, n = S.rank, S.base_dim
    A = _frame(A, r, n)
    A_inv = poly_matrix_inverse(A)
    if A_inv is None:
        raise ValueError("frame change must have a nonzero constant determinant")
    push, pull = bundle_map(r, n, A), bundle_map(r, n, A_inv)
    mult = pull.compose(0, S.mult_op().compose(0, push).compose(1, push))
    anchor = S.anchor_op().compose(0, push)
    pairing = None if S._pairing is None else S._pairing.compose(0, push).compose(1, push)
    d_cochain = None if S._d is None else pull.compose(0, S._d)
    return AlgebroidStructure(r, n, mult, anchor, pairing, d_cochain, skew=S.skew)
