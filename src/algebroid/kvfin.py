"""Finite-dimensional Koszul-Vinberg (KV) algebras given by rational
structure constants: KV axiom check, commutator bracket, the cochain
complex with coefficients in the algebra itself or in the trivial module,
cohomology dimensions through H^2, exactness of symmetric 2-cocycles,
clan classification, and the deformation (Maurer-Cartan type) residual.

Coboundary convention, degree k <= 2, coefficients in a module M:

    dTheta(s_1..s_{k+1}) = sum_{j=1..k} (-1)^j [ (s_j . Theta)(.. s_j hat ..)
                                        + Theta(.. s_j hat .., s_j) . s_{k+1} ]

with (a . Theta)(t_1..t_k) = a Theta(t..) - sum_i Theta(.., a t_i, ..) by
the left action on M, and the trailing term by its right action. A module
is a dimension and sparse tables of both actions: the algebra itself
("self") has its structure constants as both, the trivial module Q is
(1, (), ()). The convention is pinned by two properties checked in the
tests: d(d Theta) = 0 over KV algebras, and the deformation calibration
KV_{mu+nu} = KV_mu - d(nu) + KV_nu.

Every reader works on one table built with the algebra: nz[i][j] lists the
nonzero structure constants of e_i e_j as (m, num) pairs, integer
numerators over the one positive common denominator A.den. It is built
in two steps. The check step, `from_entries`, raises ValueError for an
index out of range or a repeated entry. The table step, `_table`, takes
checked values {(k, i, j): (num, den)} in lowest terms and checks
nothing. The dense constructor, whose entries are in range and distinct
by their place, and the file reader (`fileformat`), which checks each
entry as it reads its line and stores it keyed and reduced this way, go
to the table step straight; code that builds from entries, such as
`commutator_bracket`, goes through the check step. A form is built in
the same two steps, keyed by (i, j) with i <= j. A.c and beta.matrix are
Fraction views made on first read. The KV defect, the Jacobi check of
the commutator, the residual table of a form and the coboundary all read
the table, so their inner loops multiply Python ints and turn a result
into Fractions only once, when it is a witness. The KV anomaly is
written once, in `_kv_anomalies`, scattered from the chained pairs of
nonzero constants one basis pair i < j at a time, since it is skew in
i, j: `kv_defect_fin` stops at the first pair, whose least nonzero triple
is the first witness in basis-triple order, and `kv_nu` reads all of
them off the table of the product nu.

A cochain is one list of Fractions, its coords (basis tuples in
lexicographic order, each with its coefficients in the module's basis).
The coboundary is written once, in `_coboundary`, over the module's
tables: on basis inputs every term is one action entry or constant, so
each nonzero one is scattered into the entries of the coboundary matrix
it reaches, integer numerators over A.den in that order. The work follows
the nonzero constants, not the d^{k+1} basis tuples, and the matrices are
mostly zero: the degree-2 self matrix of a 5-dimensional algebra is
625 x 125 with under 1% nonzeros. The entries come out as sparse integer
rows {column: num} (`coboundary_rows`), which `fin_coboundary` multiplies
by a cochain's list, or as columns {row: num}: the matrices are taller
than wide, so `cohomology_summary` ranks the columns, the fewer vectors,
and hands them to `exactmath.echelon`, the one sparse elimination, as
they are built, with no transpose and no type scan.

A form beta is checked through one residual table,
R(i, j, k) = beta(e_i e_j, e_k) + beta(e_j, e_i e_k). In the convention
above the trivial-coefficient coboundary of beta is
d beta(e_i, e_j, e_k) = R(i, j, k) - R(j, i, k), so beta is left-invariant
iff R = 0 and a 2-cocycle iff R is symmetric in i, j; the tests pin this
identity against `coboundary_rows`. Definiteness and nondegeneracy come
from one fraction-free Bareiss pass over the form's numerators
(`exactmath.bareiss`): its pivots are the leading principal minors m_k, so
beta is positive definite iff every m_k > 0, negative definite iff every
(-1)^k m_k > 0, and the pass goes on with row exchanges past a zero minor
to the determinant. Exactness solves the trivial coboundary's sparse
integer rows C^1 -> C^2 against beta's numerators with
`exactmath.solve_linear`, on the elimination the ranks use.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .exactmath import bareiss, echelon, integer_det, solve_linear

COEFF_SELF = "self"
COEFF_TRIVIAL = "trivial"


def _fraction(v) -> Fraction:
    return v if type(v) is Fraction else Fraction(v)


_ZERO = Fraction(0)


class FinKVAlgebra:
    """dim-d algebra with product e_i e_j = sum_k c[i][j][k] e_k.

    Every reader uses one table, built once with the algebra: nz[i][j] =
    ((m, num), ..) lists the nonzero constants of e_i e_j, m ascending, as
    integer numerators over the one positive common denominator `den`, so
    c[i][j][m] == Fraction(num, den). `c` is the public Fraction view,
    made when it is first read.
    """

    def __init__(self, dim: int, c):
        if dim <= 0:
            raise ValueError("dim must be positive")
        c = tuple(tuple(tuple(_fraction(v) for v in row) for row in plane) for plane in c)
        if len(c) != dim or any(
            len(plane) != dim or any(len(row) != dim for row in plane) for plane in c
        ):
            raise ValueError("structure constants must be dim x dim x dim")
        self._table(dim, {
            (k, i, j): (v.numerator, v.denominator)
            for i, plane in enumerate(c)
            for j, row in enumerate(plane)
            for k, v in enumerate(row)
            if v
        })

    @classmethod
    def from_entries(cls, dim: int, entries) -> "FinKVAlgebra":
        """The algebra with e_i e_j = sum of value * e_k over its entries
        (i, j, k, value); each (i, j, k) appears at most once and the
        constants of the missing ones are 0. This is the check step: it
        raises ValueError for a dim <= 0, an index out of range or a
        repeat, then hands the entries to the table step."""
        if dim <= 0:
            raise ValueError("dim must be positive")
        values = {}
        for i, j, k, value in entries:
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError(f"product index out of range: {i} {j} {k}")
            if (k, i, j) in values:
                raise ValueError(f"repeated product entry {i} {j} {k}")
            values[k, i, j] = (value.numerator, value.denominator)
        return cls._from_table(dim, values)

    @classmethod
    def _from_table(cls, dim: int, values) -> "FinKVAlgebra":
        out = cls.__new__(cls)
        out._table(dim, values)
        return out

    def _table(self, dim: int, values):
        """The table step, on checked values {(k, i, j): (num, den)}, the
        constant of e_k in e_i e_j with every index in range(dim) and
        num/den in lowest terms, den > 0. In sorted (k, i, j) order each
        nz[i][j] gets its m ascending."""
        den = lcm(*(d for n, d in values.values() if n))
        flat = [()] * (dim * dim)  # flat[i*dim + j] = nz[i][j]
        for (m, i, j), (n, d) in sorted(values.items()):
            if n:
                flat[i * dim + j] += ((m, n * (den // d)),)
        self.dim, self.den, self._c = dim, den, None
        self.nz = tuple(tuple(flat[i * dim : (i + 1) * dim]) for i in range(dim))

    @property
    def c(self):
        if self._c is None:
            d, den = self.dim, self.den
            c = [[[_ZERO] * d for _ in range(d)] for _ in range(d)]
            for i, plane in enumerate(self.nz):
                for j, row in enumerate(plane):
                    for m, num in row:
                        c[i][j][m] = Fraction(num, den)
            self._c = tuple(tuple(tuple(row) for row in plane) for plane in c)
        return self._c

    @staticmethod
    def zero(dim: int) -> "FinKVAlgebra":
        return FinKVAlgebra.from_entries(dim, ())

    def product(self, u: Sequence[Fraction], v: Sequence[Fraction]):
        d, c = self.dim, self.c
        out = [Fraction(0)] * d
        for i in range(d):
            if not u[i]:
                continue
            for j in range(d):
                if not v[j]:
                    continue
                uv = u[i] * v[j]
                for k in range(d):
                    if c[i][j][k]:
                        out[k] += uv * c[i][j][k]
        return out

    def __eq__(self, other):
        # the table is canonical: equal constants give equal (den, nz)
        return (
            isinstance(other, FinKVAlgebra)
            and (self.dim, self.den, self.nz) == (other.dim, other.den, other.nz)
        )


def _add_left(acc, nz, i, j, k, sign):
    """acc += sign * (e_i e_j) e_k, numerators over den^2."""
    for a, x in nz[i][j]:
        x *= sign
        for m, y in nz[a][k]:
            acc[m] += x * y


def _kv_anomalies(A: FinKVAlgebra):
    """Yield (i, j, {k*d + m: numerator over den^2}) for each pair i < j
    on which the KV anomaly K(i, j, k) = (e_i, e_j, e_k) - (e_j, e_i, e_k),
    with (u, v, w) = u(vw) - (uv)w, is nonzero somewhere, pairs in
    ascending order and only nonzero numerators kept. K is skew in i, j,
    so these pairs hold all of it.

    K(i, j, k) = T(i, j, k) - T(j, i, k) - L(i, j, k) + L(j, i, k), with
    T(p, q, k) = e_p (e_q e_k) and L(p, q, k) = (e_p e_q) e_k. Each term
    is a chained pair of nonzero constants, c[q][k][a] c[p][a][m] for T
    and c[p][q][a] c[a][k][m] for L, so the anomaly of a pair (i, j) is
    scattered from the chains that start at its constants, for every k at
    once: the work follows the chained pairs, each met once, not the d^3
    basis triples.
    """
    d, nz = A.dim, A.nz
    for i in range(d):
        for j in range(i + 1, d):
            acc = {}
            for p, q, sign in ((i, j, 1), (j, i, -1)):
                # sign * T(p, q, k): c[q][k][a] c[p][a][m]
                for k, row in enumerate(nz[q]):
                    for a, x in row:
                        x *= sign
                        for m, y in nz[p][a]:
                            key = k * d + m
                            acc[key] = acc.get(key, 0) + x * y
                # -sign * L(p, q, k): c[p][q][a] c[a][k][m]
                for a, x in nz[p][q]:
                    x *= -sign
                    for k, row in enumerate(nz[a]):
                        for m, y in row:
                            key = k * d + m
                            acc[key] = acc.get(key, 0) + x * y
            acc = {key: v for key, v in acc.items() if v}
            if acc:
                yield i, j, acc


def _over(nums, den: int) -> list:
    return [Fraction(n, den) for n in nums]


def kv_defect_fin(A: FinKVAlgebra) -> Optional[tuple]:
    """None if the KV anomaly vanishes on all basis triples, else the
    witness (i, j, k, defect-vector) of the least such triple (i, j, k),
    the first in `itertools.product` order. That triple has i < j, since
    K(i, i, k) = 0 and K is skew in i, j."""
    first = next(_kv_anomalies(A), None)
    if first is None:
        return None
    i, j, acc = first
    d = A.dim
    k = min(acc) // d
    return (i, j, k, _over([acc.get(k * d + m, 0) for m in range(d)], A.den * A.den))


class BracketReport(namedtuple("BracketReport", "constants jacobi_ok witness")):
    """Skew structure constants b[i][j][k] of the commutator together
    with the Jacobi verdict over basis triples; the witness is
    (i, j, k, defect-vector) when Jacobi fails, else None."""

    __slots__ = ()


def commutator_bracket(A: FinKVAlgebra) -> BracketReport:
    d, b = A.dim, {}
    for i, j in itertools.product(range(d), repeat=2):
        for m, x in A.nz[i][j]:
            b[i, j, m] = b.get((i, j, m), 0) + x
            b[j, i, m] = b.get((j, i, m), 0) - x
    lie = FinKVAlgebra.from_entries(d, ((*key, Fraction(v, A.den)) for key, v in b.items()))
    for i, j, k in itertools.product(range(d), repeat=3):
        jac = [0] * d
        _add_left(jac, lie.nz, i, j, k, 1)
        _add_left(jac, lie.nz, j, k, i, 1)
        _add_left(jac, lie.nz, k, i, j, 1)
        if any(jac):
            return BracketReport(lie.c, False, (i, j, k, _over(jac, lie.den * lie.den)))
    return BracketReport(lie.c, True, None)


# ---------------------------------------------------------------------------
# Cochains and coboundaries.
# ---------------------------------------------------------------------------


class FinCochain:
    """k-linear map on a dim-d space with values in the algebra
    (coefficients == "self") or in the rationals ("trivial"). `coords` is
    one list of Fractions: the basis tuples in
    lexicographic order, each followed by its `width` values, one per
    basis vector of the module. A trivial cochain's value at a tuple is
    a scalar, a self cochain's a list."""

    def __init__(self, dim: int, degree: int, coefficients: str, data=None):
        self.width = _module(coefficients, dim)[0]
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.dim, self.degree, self.coefficients = dim, degree, coefficients
        self.coords = [_ZERO] * (dim**degree * self.width)
        if data:
            for idx, value in (data.items() if isinstance(data, dict) else data):
                self.set(idx, value)

    def _offset(self, idx) -> int:
        """Where the value at the basis tuple idx starts in `coords`."""
        idx = tuple(idx)
        if len(idx) != self.degree or any(not 0 <= i < self.dim for i in idx):
            raise ValueError("bad basis index tuple")
        n = 0
        for i in idx:
            n = n * self.dim + i
        return n * self.width

    def get(self, idx):
        n = self._offset(idx)
        if self.coefficients == COEFF_SELF:
            return self.coords[n : n + self.width]
        return self.coords[n]

    def set(self, idx, value):
        n = self._offset(idx)
        if self.coefficients == COEFF_SELF:
            value = [Fraction(v) for v in value]
            if len(value) != self.width:
                raise ValueError("value vector has the wrong length")
            self.coords[n : n + self.width] = value
        else:
            self.coords[n] = Fraction(value)

    def value(self, *vectors):
        """Evaluate multilinearly on coefficient vectors: each nonzero
        coordinate, at basis tuple idx and component m, adds itself times
        prod_pos vectors[pos][idx[pos]] to component m."""
        if len(vectors) != self.degree:
            raise ValueError(f"degree-{self.degree} cochain takes {self.degree} inputs")
        out = [_ZERO] * self.width
        for n, coeff in enumerate(self.coords):
            if coeff:
                n, m = divmod(n, self.width)
                for vector in reversed(vectors):
                    n, i = divmod(n, self.dim)
                    coeff *= _fraction(vector[i])
                    if not coeff:
                        break
                out[m] += coeff
        return out if self.coefficients == COEFF_SELF else out[0]

    def is_zero(self) -> bool:
        return not any(self.coords)

    def _shape(self):
        return self.dim, self.degree, self.coefficients

    def __add__(self, other):
        if self._shape() != other._shape():
            raise ValueError("cochain shapes differ")
        return self._like([a + b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return self._like([-v for v in self.coords])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        scalar = Fraction(scalar)
        return self._like([scalar * v for v in self.coords])

    def __eq__(self, other):
        return (
            isinstance(other, FinCochain)
            and (self._shape(), self.coords) == (other._shape(), other.coords)
        )

    def _like(self, coords) -> "FinCochain":
        return FinCochain.from_flat(self.dim, self.degree, self.coefficients, coords)

    @classmethod
    def from_flat(cls, dim: int, degree: int, coefficients: str, values) -> "FinCochain":
        """The cochain whose `coords` are `values`, as Fractions."""
        out = cls(dim, degree, coefficients)
        if len(values) != len(out.coords):
            raise ValueError("flat cochain has the wrong length")
        out.coords = [_fraction(v) for v in values]
        return out


def fin_coboundary(A: FinKVAlgebra, coefficients: str, theta: FinCochain) -> FinCochain:
    """Coboundary of theta (degree <= 2) in the named coefficient module."""
    if theta.coefficients != coefficients:
        raise ValueError("cochain coefficient module does not match")
    if theta.dim != A.dim:
        raise ValueError("cochain dimension does not match the algebra")
    rows = coboundary_rows(A, coefficients, theta.degree)
    x = theta.coords
    out = FinCochain(A.dim, theta.degree + 1, coefficients)
    out.coords = [sum((v * x[col] for col, v in row.items()), _ZERO) / A.den for row in rows]
    return out


def _module(coefficients: str, dim: int, constants=()) -> tuple:
    """The module named `coefficients` of a dim-d algebra whose nonzero
    constants are `constants`: (width, left, right), its dimension and its
    actions as entries (p, q, r, num), e_p m_q (left) or m_p e_q (right)
    having num / A.den on m_r. e_p e_q = sum c[p][q][r] e_r is both
    actions of "self"; the trivial module has none."""
    if coefficients == COEFF_SELF:
        return dim, constants, constants
    if coefficients == COEFF_TRIVIAL:
        return 1, (), ()
    raise ValueError("coefficients must be 'self' or 'trivial'")


def cochain_space_dim(dim: int, degree: int, coefficients: str) -> int:
    return dim**degree * _module(coefficients, dim)[0]


def coboundary_rows(A: FinKVAlgebra, coefficients: str, k: int) -> list:
    """The coboundary C^k -> C^{k+1} as sparse integer rows {column: num}:
    the coboundary is these rows divided by A.den. Rows and columns follow
    `FinCochain.coords` order (`_coboundary`)."""
    return _coboundary(A, coefficients, k, False)


def _coboundary(A: FinKVAlgebra, coefficients: str, k: int, by_column: bool) -> list:
    """The nonzero integer entries of A.den times the coboundary C^k ->
    C^{k+1}: one dict per row, {column: num}, or with `by_column` one per
    column, {row: num}, the orientation `cohomology_summary` eliminates.

    Rows and columns follow `FinCochain.coords` order over the module's
    basis m_0..m_{w-1} (`_module`). Row (i_1..i_{k+1}, m) collects, for
    each j with the sign (-1)^j and rest the other k indices: the left
    action e_{i_j} m_o -> m_m at column (rest, o); the in-slot terms
    -c[i_j][rest[t]][a] at (rest with a in slot t, m); and the trailing
    right action m_o e_{i_{k+1}} -> m_m at (rest[:-1] + (i_j,), o).

    Each term is one action entry or constant, so every nonzero one is
    scattered into the entries it reaches, summed in one flat table keyed
    row * per_row + column * per_column: by row (columns, 1), by column
    (1, rows). The table is then split into the dicts of its outer index.
    The trivial module's empty tables reach none, and the rows or columns
    nothing reaches stay empty.
    """
    if k > 2:
        raise ValueError("coboundary implemented for degree <= 2")
    d = A.dim
    constants = [
        (p, q, r, v) for p, plane in enumerate(A.nz) for q, row in enumerate(plane) for r, v in row
    ]
    w, left, right = _module(coefficients, d, constants)
    width, height = d**k * w, d ** (k + 1) * w
    per_row, per_column = (1, height) if by_column else (width, 1)
    table = {}
    get = table.get
    # a tuple rest of k indices is its flat number; for_slot[t][q] lists
    # those with rest[t] == q
    for_slot = [[[] for _ in range(d)] for _ in range(k)]
    for n, rest in enumerate(itertools.product(range(d), repeat=k)):
        for t, q in enumerate(rest):
            for_slot[t][q].append(n)
    for j in range(1, k + 1):
        sign = -1 if j % 2 else 1
        # row (rest with s_j inserted before its slot j - 1, m) and column
        # (rest, o) have the key base[rest] + (s_j * step * w + m) * per_row
        # + o * per_column
        step = d ** (k - j + 1)
        base = [
            ((n // step) * step * d + n % step) * w * per_row + n * w * per_column
            for n in range(d**k)
        ]
        # the left action s_j Theta(rest), s_j = e_p and Theta(rest) = m_q
        for p, q, r, v in left:
            x, off = sign * v, (p * step * w + r) * per_row + q * per_column
            for at in base:
                key = at + off
                table[key] = get(key, 0) + x
        # the trailing term Theta(rest[:-1], s_j) e_q with rest[-1] = q and
        # Theta(..) = m_p
        hops = [sj * (step * per_row + per_column) * w for sj in range(d)]
        for p, q, r, v in right:
            x, off = sign * v, r * per_row + (p - q * w) * per_column
            for n in for_slot[k - 1][q]:
                at = base[n] + off
                for hop in hops:
                    key = at + hop
                    table[key] = get(key, 0) + x
        # minus Theta(.., s_j rest[t], ..) with s_j = e_p and rest[t] = q
        diagonal = [m * (per_row + per_column) for m in range(w)]
        for p, q, r, v in constants:
            x = -sign * v
            for t in range(k):
                off = p * step * w * per_row + (r - q) * d ** (k - 1 - t) * w * per_column
                for n in for_slot[t][q]:
                    at = base[n] + off
                    for m in diagonal:
                        key = at + m
                        table[key] = get(key, 0) + x
    inner = height if by_column else width
    out = [{} for _ in range(width if by_column else height)]
    for key, x in table.items():
        if x:
            n, m = divmod(key, inner)
            out[n][m] = x
    return out


def cohomology_summary(A: FinKVAlgebra, coefficients: str, k: int) -> dict:
    """Exact dims of the complex at degree k: cochain space, ker(delta_k),
    im(delta_{k-1}), and H^k. Each rank is `exactmath.echelon` on the
    coboundary's integer columns."""
    if k not in (0, 1, 2):
        raise ValueError("cohomology supported for k <= 2")
    dom = cochain_space_dim(A.dim, k, coefficients)
    kernel = dom - len(echelon(_coboundary(A, coefficients, k, True)))
    image_prev = len(echelon(_coboundary(A, coefficients, k - 1, True))) if k > 0 else 0
    return {
        "dim_cochains": dom,
        "dim_kernel": kernel,
        "dim_image": image_prev,
        "dim_h": kernel - image_prev,
    }


# ---------------------------------------------------------------------------
# Symmetric forms, exactness, clans.
# ---------------------------------------------------------------------------


class SymForm:
    """Symmetric rational bilinear form on the dim-d fiber.

    `num` holds the entries as integer numerators over the one positive
    common denominator `den`, and `rows[i]` lists the nonzero (j, num) of
    row i. `matrix` is the Fraction view, made when it is first read."""

    def __init__(self, matrix):
        matrix = tuple(tuple(_fraction(v) for v in row) for row in matrix)
        d = len(matrix)
        if any(len(row) != d for row in matrix):
            raise ValueError("form matrix must be square")
        for i in range(d):
            for j in range(i):
                if matrix[i][j] != matrix[j][i]:
                    raise ValueError("form matrix must be symmetric")
        self._table(d, {
            (i, j): (matrix[i][j].numerator, matrix[i][j].denominator)
            for i in range(d)
            for j in range(i, d)
            if matrix[i][j]
        })

    @classmethod
    def from_entries(cls, dim: int, entries) -> "SymForm":
        """The form with beta(e_i, e_j) = beta(e_j, e_i) = value for its
        entries (i, j, value); each pair {i, j} appears at most once and
        the missing entries are 0. This is the check step: it raises
        ValueError for a dim <= 0, an index out of range or a repeat, then
        hands the entries to the table step."""
        if dim <= 0:
            raise ValueError("dim must be positive")
        values = {}
        for i, j, value in entries:
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"form index out of range: {i} {j}")
            key = (i, j) if i <= j else (j, i)
            if key in values:
                raise ValueError(f"repeated form entry {i} {j}")
            values[key] = (value.numerator, value.denominator)
        return cls._from_table(dim, values)

    @classmethod
    def _from_table(cls, dim: int, values) -> "SymForm":
        out = cls.__new__(cls)
        out._table(dim, values)
        return out

    def _table(self, dim: int, values):
        """The table step, on checked values {(i, j): (num, den)} with
        i <= j < dim and num/den in lowest terms, den > 0: num and rows."""
        den = lcm(*(d for n, d in values.values() if n))
        num = [[0] * dim for _ in range(dim)]
        rows = [[] for _ in range(dim)]
        # in (i, j) order, row r gets its entries (i, r), i < r, before
        # its entries (r, j), j >= r: ascending
        for (i, j), (n, d) in sorted(values.items()):
            if n:
                n *= den // d
                num[i][j] = num[j][i] = n
                rows[i].append((j, n))
                if i != j:
                    rows[j].append((i, n))
        self.dim, self.den, self._pass, self._matrix = dim, den, None, None
        self.num = tuple(map(tuple, num))
        self.rows = tuple(map(tuple, rows))

    @property
    def matrix(self):
        if self._matrix is None:
            den = self.den
            self._matrix = tuple(tuple(Fraction(v, den) for v in row) for row in self.num)
        return self._matrix

    def __eq__(self, other):
        # num over den is canonical: equal forms give equal (den, num)
        return isinstance(other, SymForm) and (self.den, self.num) == (other.den, other.num)

    def value(self, u, v):
        out = Fraction(0)
        matrix = self.matrix
        for i in range(self.dim):
            if not u[i]:
                continue
            for j in range(self.dim):
                if matrix[i][j] and v[j]:
                    out += Fraction(u[i]) * matrix[i][j] * Fraction(v[j])
        return out

    def as_cochain(self) -> FinCochain:
        flat = [v for row in self.matrix for v in row]
        return FinCochain.from_flat(self.dim, 2, COEFF_TRIVIAL, flat)

    def _eliminate(self):
        """One Bareiss pass over num, kept: (the leading principal minors
        of num up to the first zero one, det(num)). Before the first row
        exchange or skipped column, the pivot of step s is the leading
        minor of order s + 1; the first zero one forces an exchange, and
        the pass goes on with exchanges to the determinant."""
        if self._pass is None:
            n = self.dim
            work = [list(row) for row in self.num]
            cols, exchanges, last = bareiss(work, n)
            minors = []
            for step in range(min(exchanges[0] if exchanges else n, len(cols))):
                if cols[step] != step:
                    break
                minors.append(work[step][step])
            det = 0 if len(cols) < n else (-last if len(exchanges) % 2 else last)
            self._pass = (minors, det)
        return self._pass

    def det(self) -> Fraction:
        return Fraction(self._eliminate()[1], self.den**self.dim)

    def leading_minors(self):
        """The leading principal minors of orders 1..dim, as Fractions."""
        minors = list(self._eliminate()[0])
        for order in range(len(minors) + 1, self.dim + 1):
            minors.append(integer_det([row[:order] for row in self.num[:order]]))
        return [Fraction(v, self.den ** (k + 1)) for k, v in enumerate(minors)]

    def positive_definite(self) -> bool:
        minors = self._eliminate()[0]
        return len(minors) == self.dim and all(v > 0 for v in minors)

    def negative_definite(self) -> bool:
        # the minors of -B are (-1)^k times those of B
        minors = self._eliminate()[0]
        return len(minors) == self.dim and all(v > 0 if k % 2 else v < 0 for k, v in enumerate(minors))

    def definite(self) -> bool:
        return self.positive_definite() or self.negative_definite()

    def nondegenerate(self) -> bool:
        return self._eliminate()[1] != 0


def _residuals(A: FinKVAlgebra, beta: SymForm) -> dict:
    """The nonzero R(i, j, k) = beta(e_i e_j, e_k) + beta(e_j, e_i e_k), as
    {(i*d + j)*d + k: numerator over A.den * beta.den}.

    Each nonzero constant c[i][q][a] meets the nonzero beta[a][t] in two
    places: R(i, q, t) gets c[i][q][a] beta[a][t], and R(i, t, q) gets
    c[i][q][a] beta[t][a]. In this module's coboundary convention the
    trivial-coefficient coboundary of beta is d beta(e_i, e_j, e_k) =
    R(i, j, k) - R(j, i, k), so this one table decides both invariance
    (R = 0) and the cocycle condition (R symmetric in i, j).
    """
    d, rows = A.dim, beta.rows
    R = {}
    for i, plane in enumerate(A.nz):
        for q, entries in enumerate(plane):
            for a, x in entries:
                for t, b in rows[a]:
                    xb = x * b
                    key = (i * d + q) * d + t
                    R[key] = R.get(key, 0) + xb
                    key = (i * d + t) * d + q
                    R[key] = R.get(key, 0) + xb
    return {key: v for key, v in R.items() if v}


def _is_symmetric(R: dict, d: int) -> bool:
    """Whether R(i, j, k) == R(j, i, k) everywhere."""
    for key, v in R.items():
        i, j = divmod(key // d, d)
        if R.get(key + (j - i) * (d - 1) * d, 0) != v:
            return False
    return True


def exactness_witness(A: FinKVAlgebra, beta: SymForm):
    """Solve beta(e_i, e_j) = Theta(e_i e_j) for a linear functional Theta.

    beta must be a trivial-coefficient 2-cocycle (checked); returns the
    coefficient vector (Theta(e_k))_k or None when the system is
    infeasible, certifying a nonvanishing cohomology class. The system is
    the trivial coboundary C^1 -> C^2, row (i, j) of which is
    sum_k num_c[i][j][k] y_k = num_beta[i][j]; Theta = y * A.den / beta.den.
    """
    if beta.dim != A.dim:
        raise ValueError("form dimension does not match the algebra")
    if not _is_symmetric(_residuals(A, beta), A.dim):
        raise ValueError("form is not a 2-cocycle")
    y = solve_linear(coboundary_rows(A, COEFF_TRIVIAL, 1), [v for row in beta.num for v in row], A.dim)
    if y is None:
        return None
    scale = Fraction(A.den, beta.den)
    return [v * scale for v in y]


class ClanReport(
    namedtuple(
        "ClanReport",
        "verdict kv cocycle invariant definite nondegenerate kv_witness invariance_witness",
        defaults=(None, None),
    )
):
    """The verdict ("clan" | "pseudo-clan" | "neither"), its five
    sub-verdicts, and the KV and invariance witnesses when those fail."""

    __slots__ = ()

    @property
    def sub_verdicts(self):
        return {
            "kv": self.kv,
            "cocycle": self.cocycle,
            "invariant": self.invariant,
            "definite": self.definite,
            "nondegenerate": self.nondegenerate,
        }


def clan_classify(A: FinKVAlgebra, beta: SymForm) -> ClanReport:
    """clan = KV + cocycle + left-invariant + definite;
    pseudo-clan = KV + cocycle + left-invariant + nondegenerate, not definite."""
    if beta.dim != A.dim:
        raise ValueError("form dimension does not match the algebra")
    kv_w = kv_defect_fin(A)
    R = _residuals(A, beta)
    cocycle = _is_symmetric(R, A.dim)
    # left invariance: R = 0; the first nonzero residual in basis-triple
    # order is the witness
    inv_w = None
    if R:
        key = min(R)
        ij, k = divmod(key, A.dim)
        inv_w = (*divmod(ij, A.dim), k, Fraction(R[key], A.den * beta.den))
    definite = beta.definite()
    nondeg = beta.nondegenerate()
    base = kv_w is None and cocycle and inv_w is None
    if base and definite:
        verdict = "clan"
    elif base and nondeg:
        verdict = "pseudo-clan"
    else:
        verdict = "neither"
    return ClanReport(verdict, kv_w is None, cocycle, inv_w is None, definite, nondeg, kv_w, inv_w)


# ---------------------------------------------------------------------------
# Deformations.
# ---------------------------------------------------------------------------


def kv_nu(A: FinKVAlgebra, nu: FinCochain) -> FinCochain:
    """KV_nu(s,s',s'') = nu(s,nu(s',s'')) - nu(nu(s,s'),s'')
                       - nu(s',nu(s,s'')) + nu(nu(s',s),s''),
    the KV anomaly of the product nu: `_kv_anomalies` on the table of nu
    gives the pairs i < j, and K(j, i, k) = -K(i, j, k) the rest."""
    if nu.degree != 2 or nu.coefficients != COEFF_SELF or nu.dim != A.dim:
        raise ValueError("nu must be a degree-2 self-coefficient cochain")
    d = A.dim
    N = FinKVAlgebra.from_entries(
        d, ((*divmod(n // d, d), n % d, v) for n, v in enumerate(nu.coords) if v)
    )
    out = FinCochain(d, 3, COEFF_SELF)
    den2, block = N.den * N.den, d * d
    for i, j, acc in _kv_anomalies(N):
        for key, v in acc.items():
            out.coords[(i * d + j) * block + key] = Fraction(v, den2)
            out.coords[(j * d + i) * block + key] = Fraction(-v, den2)
    return out


def mc_check(A: FinKVAlgebra, nu: FinCochain) -> FinCochain:
    """Deformation residual of mu + nu over the base product of A.

    Calibration: residual = KV_nu - d(nu) equals the KV anomaly tensor of
    the deformed product whenever A itself is KV, so it vanishes exactly
    when mu + nu is again a KV product.
    """
    return kv_nu(A, nu) - fin_coboundary(A, COEFF_SELF, nu)
