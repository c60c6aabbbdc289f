"""Finite-dimensional Koszul-Vinberg (KV) algebras given by rational
structure constants: KV axiom check, commutator bracket, the cochain
complex with coefficients in the algebra itself or in the trivial module,
cohomology dimensions through H^2, exactness of symmetric 2-cocycles,
clan classification, and the deformation (Maurer-Cartan type) residual.

Coboundary convention, degree k <= 2, coefficients in the algebra:

    dTheta(s_1..s_{k+1}) = sum_{j=1..k} (-1)^j [ (s_j . Theta)(.. s_j hat ..)
                                        + Theta(.. s_j hat .., s_j) . s_{k+1} ]

with (a . Theta)(t_1..t_k) = a Theta(t..) - sum_i Theta(.., a t_i, ..) and a
right-multiplication trailing term. Trivial coefficients delete the two
module-action terms. The convention is pinned by two properties checked
in the tests: d(d Theta) = 0 over KV algebras, and the deformation
calibration KV_{mu+nu} = KV_mu - d(nu) + KV_nu.

Every reader works on one table built with the algebra: nz[i][j] lists the
nonzero structure constants of e_i e_j as (m, num) pairs, integer
numerators over the one positive common denominator A.den (A.c stays the
public Fraction view). The KV defect, the Jacobi check of the commutator,
the invariance check of a form and the coboundary all read this table, so
their inner loops multiply Python ints and turn a result into Fractions
only once, when it is a witness.

The coboundary formula is written once, in `coboundary_rows`: on basis
inputs every term is a single structure constant, so each row of the
coboundary matrix is read straight off the table as a sparse integer row
{column: num}, and the coboundary is those rows divided by A.den. With
self coefficients a row has at most k(k+2)d entries out of d^{k+1}
columns, and most structure constants of the algebras here vanish, so the
matrices are mostly zero: the degree-2 self matrix of a 5-dimensional
algebra is 625 x 125 with under 1% nonzeros. `fin_coboundary` multiplies
these rows by the flattened cochain, `cohomology_summary` ranks them with
the fraction-free `exactmath.sparse_rank`, and the cocycle test of a form
multiplies the trivial-coefficient rows by the form's integer numerators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .exactmath import Rational, solve_linear, sparse_rank

COEFF_SELF = "self"
COEFF_TRIVIAL = "trivial"


def _fraction(v) -> Fraction:
    return v if type(v) is Fraction else Fraction(v)


def _frac_matrix(matrix):
    return tuple(tuple(_fraction(v) for v in row) for row in matrix)


def _common_den(values) -> int:
    """The least positive common denominator of the nonzero values."""
    return lcm(*(v.denominator for v in values if v))


class FinKVAlgebra:
    """dim-d algebra with product e_i e_j = sum_k c[i][j][k] e_k.

    `c` is the public Fraction view. The constructor also builds, once, the
    table every reader uses: nz[i][j] = ((m, num), ..) lists the nonzero
    constants of e_i e_j as integer numerators over the one positive common
    denominator `den`, so c[i][j][m] == Fraction(num, den).
    """

    def __init__(self, dim: int, c):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        c = tuple(tuple(tuple(_fraction(v) for v in row) for row in plane) for plane in c)
        if len(c) != dim or any(
            len(plane) != dim or any(len(row) != dim for row in plane) for plane in c
        ):
            raise ValueError("structure constants must be dim x dim x dim")
        self.c = c
        den = _common_den(v for plane in c for row in plane for v in row)
        self.den = den
        self.nz = tuple(
            tuple(
                tuple((m, v.numerator * (den // v.denominator)) for m, v in enumerate(row) if v)
                for row in plane
            )
            for plane in c
        )

    @staticmethod
    def zero(dim: int) -> "FinKVAlgebra":
        z = Fraction(0)
        return FinKVAlgebra(dim, [[[z] * dim for _ in range(dim)] for _ in range(dim)])

    def product(self, u: Sequence[Rational], v: Sequence[Rational]):
        d = self.dim
        out = [Fraction(0)] * d
        for i in range(d):
            if not u[i]:
                continue
            for j in range(d):
                if not v[j]:
                    continue
                uv = u[i] * v[j]
                for k in range(d):
                    if self.c[i][j][k]:
                        out[k] += uv * self.c[i][j][k]
        return out

    def __eq__(self, other):
        return isinstance(other, FinKVAlgebra) and self.dim == other.dim and self.c == other.c


def _basis_vec(dim: int, k: int):
    v = [Fraction(0)] * dim
    v[k] = Fraction(1)
    return v


# Triple products on basis vectors, read off the table: they add numerators
# over den^2 into acc.


def _add_left(acc, nz, i, j, k, sign):
    """acc += sign * (e_i e_j) e_k."""
    for a, x in nz[i][j]:
        x *= sign
        for m, y in nz[a][k]:
            acc[m] += x * y


def _add_right(acc, nz, i, j, k, sign):
    """acc += sign * e_i (e_j e_k)."""
    for a, x in nz[j][k]:
        x *= sign
        for m, y in nz[i][a]:
            acc[m] += x * y


def _kv_anomalies(A: FinKVAlgebra):
    """Yield (i, j, k, numerators over den^2) of the KV anomaly
    (e_i, e_j, e_k) - (e_j, e_i, e_k), with (u, v, w) = u(vw) - (uv)w, for
    every basis triple in `itertools.product` order."""
    nz = A.nz
    for i, j, k in itertools.product(range(A.dim), repeat=3):
        acc = [0] * A.dim
        _add_right(acc, nz, i, j, k, 1)
        _add_left(acc, nz, i, j, k, -1)
        _add_right(acc, nz, j, i, k, -1)
        _add_left(acc, nz, j, i, k, 1)
        yield i, j, k, acc


def _over(nums, den: int) -> list:
    return [Fraction(n, den) for n in nums]


def kv_defect_fin(A: FinKVAlgebra) -> Optional[tuple]:
    """None if the KV anomaly vanishes on all basis triples, else the
    first (i, j, k, defect-vector) witness."""
    for i, j, k, acc in _kv_anomalies(A):
        if any(acc):
            return (i, j, k, _over(acc, A.den * A.den))
    return None


@dataclass(frozen=True)
class BracketReport:
    """Skew structure constants b[i][j][k] of the commutator together
    with the Jacobi verdict over basis triples."""

    constants: tuple
    jacobi_ok: bool
    witness: Optional[tuple]  # (i, j, k, defect-vector) when Jacobi fails


def commutator_bracket(A: FinKVAlgebra) -> BracketReport:
    d = A.dim
    b = tuple(
        tuple(
            tuple(A.c[i][j][k] - A.c[j][i][k] for k in range(d)) for j in range(d)
        )
        for i in range(d)
    )
    lie = FinKVAlgebra(d, b)
    for i, j, k in itertools.product(range(d), repeat=3):
        jac = [0] * d
        _add_left(jac, lie.nz, i, j, k, 1)
        _add_left(jac, lie.nz, j, k, i, 1)
        _add_left(jac, lie.nz, k, i, j, 1)
        if any(jac):
            return BracketReport(b, False, (i, j, k, _over(jac, lie.den * lie.den)))
    return BracketReport(b, True, None)


# ---------------------------------------------------------------------------
# Cochains and coboundaries.
# ---------------------------------------------------------------------------


class FinCochain:
    """k-linear map on a dim-d space, stored densely on basis tuples.
    Values are coefficient vectors (coefficients == "self") or rationals
    (coefficients == "trivial")."""

    def __init__(self, dim: int, degree: int, coefficients: str, data=None):
        if coefficients not in (COEFF_SELF, COEFF_TRIVIAL):
            raise ValueError("coefficients must be 'self' or 'trivial'")
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.dim = dim
        self.degree = degree
        self.coefficients = coefficients
        self.data = {}
        if data:
            for idx, value in (data.items() if isinstance(data, dict) else data):
                idx = tuple(idx)
                if len(idx) != degree or any(not 0 <= i < dim for i in idx):
                    raise ValueError("bad basis index tuple")
                self.set(idx, value)

    def _zero_value(self):
        if self.coefficients == COEFF_SELF:
            return [Fraction(0)] * self.dim
        return Fraction(0)

    def get(self, idx):
        idx = tuple(idx)
        value = self.data.get(idx)
        if value is None:
            return self._zero_value()
        return list(value) if self.coefficients == COEFF_SELF else value

    def set(self, idx, value):
        idx = tuple(idx)
        if self.coefficients == COEFF_SELF:
            value = tuple(Fraction(v) for v in value)
            if len(value) != self.dim:
                raise ValueError("value vector has the wrong length")
            if any(value):
                self.data[idx] = value
            else:
                self.data.pop(idx, None)
        else:
            value = Fraction(value)
            if value:
                self.data[idx] = value
            else:
                self.data.pop(idx, None)

    def add_to(self, idx, value):
        if self.coefficients == COEFF_SELF:
            acc = self.get(idx)
            self.set(idx, [a + Fraction(v) for a, v in zip(acc, value)])
        else:
            self.set(idx, self.get(idx) + Fraction(value))

    def value(self, *vectors):
        """Evaluate multilinearly on coefficient vectors."""
        if len(vectors) != self.degree:
            raise ValueError(f"degree-{self.degree} cochain takes {self.degree} inputs")
        out = self._zero_value()
        for idx, value in self.data.items():
            coeff = Fraction(1)
            for pos, i in enumerate(idx):
                coeff *= Fraction(vectors[pos][i])
                if not coeff:
                    break
            if not coeff:
                continue
            if self.coefficients == COEFF_SELF:
                for k in range(self.dim):
                    out[k] += coeff * value[k]
            else:
                out += coeff * value
        return out

    def is_zero(self) -> bool:
        return not self.data

    def __add__(self, other):
        if (self.dim, self.degree, self.coefficients) != (
            other.dim,
            other.degree,
            other.coefficients,
        ):
            raise ValueError("cochain shapes differ")
        out = FinCochain(self.dim, self.degree, self.coefficients, self.data)
        for idx, value in other.data.items():
            out.add_to(idx, value)
        return out

    def __neg__(self):
        out = FinCochain(self.dim, self.degree, self.coefficients)
        for idx, value in self.data.items():
            if self.coefficients == COEFF_SELF:
                out.set(idx, [-v for v in value])
            else:
                out.set(idx, -value)
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        scalar = Fraction(scalar)
        out = FinCochain(self.dim, self.degree, self.coefficients)
        for idx, value in self.data.items():
            if self.coefficients == COEFF_SELF:
                out.set(idx, [scalar * v for v in value])
            else:
                out.set(idx, scalar * value)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, FinCochain)
            and (self.dim, self.degree, self.coefficients)
            == (other.dim, other.degree, other.coefficients)
            and self.data == other.data
        )

    def flatten(self):
        """Dense coordinate list (basis tuples in lexicographic order)."""
        out = []
        for idx in itertools.product(range(self.dim), repeat=self.degree):
            value = self.get(idx)
            if self.coefficients == COEFF_SELF:
                out.extend(value)
            else:
                out.append(value)
        return out

    @classmethod
    def from_flat(cls, dim: int, degree: int, coefficients: str, values) -> "FinCochain":
        """Inverse of `flatten`."""
        out = cls(dim, degree, coefficients)
        width = dim if coefficients == COEFF_SELF else 1
        for n, idx in enumerate(itertools.product(range(dim), repeat=degree)):
            chunk = values[n * width : (n + 1) * width]
            out.set(idx, chunk if coefficients == COEFF_SELF else chunk[0])
        return out


def product_cochain(A: FinKVAlgebra) -> FinCochain:
    """The multiplication of A as a degree-2 self-coefficient cochain."""
    data = {}
    for i, j in itertools.product(range(A.dim), repeat=2):
        data[(i, j)] = A.c[i][j]
    return FinCochain(A.dim, 2, COEFF_SELF, data)


def kv_defect_cochain(A: FinKVAlgebra) -> FinCochain:
    """The full KV anomaly as a degree-3 self-coefficient cochain."""
    out = FinCochain(A.dim, 3, COEFF_SELF)
    den2 = A.den * A.den
    for i, j, k, acc in _kv_anomalies(A):
        if any(acc):
            out.set((i, j, k), _over(acc, den2))
    return out


def fin_coboundary(A: FinKVAlgebra, coefficients: str, theta: FinCochain) -> FinCochain:
    """Coboundary of theta (degree <= 2) in the named coefficient module."""
    if theta.coefficients != coefficients:
        raise ValueError("cochain coefficient module does not match")
    if theta.dim != A.dim:
        raise ValueError("cochain dimension does not match the algebra")
    rows = coboundary_rows(A, coefficients, theta.degree)
    flat = theta.flatten()
    values = [sum((v * flat[col] for col, v in row.items()), Fraction(0)) / A.den for row in rows]
    return FinCochain.from_flat(A.dim, theta.degree + 1, coefficients, values)


def cochain_space_dim(dim: int, degree: int, coefficients: str) -> int:
    base = dim**degree
    return base * dim if coefficients == COEFF_SELF else base


def coboundary_rows(A: FinKVAlgebra, coefficients: str, k: int) -> list:
    """The coboundary C^k -> C^{k+1} as sparse integer rows {column: num}:
    the coboundary is these rows divided by A.den.

    Rows and columns follow `FinCochain.flatten` order. Row
    (i_1..i_{k+1}, m) collects, for each j with the sign (-1)^j and rest the
    other k indices: the left action c[i_j][o][m] at column (rest, o); the
    in-slot terms -c[i_j][rest[t]][a] at rest with a in slot t; and the
    trailing right multiplication c[o][i_{k+1}][m] at (rest[:-1] + (i_j,), o).
    Trivial coefficients keep only the in-slot terms.
    """
    if coefficients not in (COEFF_SELF, COEFF_TRIVIAL):
        raise ValueError("coefficients must be 'self' or 'trivial'")
    if k > 2:
        raise ValueError("coboundary implemented for degree <= 2")
    d = A.dim
    self_coeffs = coefficients == COEFF_SELF
    width = d if self_coeffs else 1
    prod = A.nz

    def col(indices):  # first column of the basis cochains at indices
        n = 0
        for t in indices:
            n = n * d + t
        return n * width

    rows = []
    for idx in itertools.product(range(d), repeat=k + 1):
        out = [{} for _ in range(width)]
        for j in range(1, k + 1):
            sign = -1 if j % 2 else 1
            sj = idx[j - 1]
            rest = idx[: j - 1] + idx[j:]  # the other k arguments
            if self_coeffs:
                # (s_j . Theta)(rest): the left action s_j Theta(rest) ...
                base = col(rest)
                for o in range(d):
                    column = base + o
                    for m, v in prod[sj][o]:
                        out[m][column] = out[m].get(column, 0) + sign * v
            # ... minus Theta(.., s_j rest[t], ..), in both modules
            for t in range(k):
                for a, v in prod[sj][rest[t]]:
                    base = col(rest[:t] + (a,) + rest[t + 1 :])
                    for m in range(width):
                        column = base + m
                        out[m][column] = out[m].get(column, 0) - sign * v
            if self_coeffs:
                # trailing right-multiplication term
                base, last = col(rest[:-1] + (sj,)), rest[-1]
                for o in range(d):
                    column = base + o
                    for m, v in prod[o][last]:
                        out[m][column] = out[m].get(column, 0) + sign * v
        rows.extend({c: v for c, v in row.items() if v} for row in out)
    return rows


def cohomology_summary(A: FinKVAlgebra, coefficients: str, k: int) -> dict:
    """Exact dims of the complex at degree k: cochain space, ker(delta_k),
    im(delta_{k-1}), and H^k."""
    if k not in (0, 1, 2):
        raise ValueError("cohomology supported for k <= 2")
    dom = cochain_space_dim(A.dim, k, coefficients)
    kernel = dom - sparse_rank(coboundary_rows(A, coefficients, k))
    image_prev = sparse_rank(coboundary_rows(A, coefficients, k - 1)) if k > 0 else 0
    return {
        "dim_cochains": dom,
        "dim_kernel": kernel,
        "dim_image": image_prev,
        "dim_h": kernel - image_prev,
    }


def cohomology_dim(A: FinKVAlgebra, coefficients: str, k: int) -> int:
    """dim H^k = dim ker(delta_k) - rank(delta_{k-1}), exact ranks."""
    return cohomology_summary(A, coefficients, k)["dim_h"]


# ---------------------------------------------------------------------------
# Symmetric forms, exactness, clans.
# ---------------------------------------------------------------------------


class SymForm:
    """Symmetric rational bilinear form on the dim-d fiber.

    `matrix` is the Fraction view; `num` holds the same entries as integer
    numerators over the one positive common denominator `den`."""

    def __init__(self, matrix):
        matrix = _frac_matrix(matrix)
        d = len(matrix)
        if any(len(row) != d for row in matrix):
            raise ValueError("form matrix must be square")
        for i in range(d):
            for j in range(i):
                if matrix[i][j] != matrix[j][i]:
                    raise ValueError("form matrix must be symmetric")
        self.dim = d
        self.matrix = matrix
        den = _common_den(v for row in matrix for v in row)
        self.den = den
        self.num = tuple(tuple(v.numerator * (den // v.denominator) for v in row) for row in matrix)

    def value(self, u, v):
        out = Fraction(0)
        for i in range(self.dim):
            if not u[i]:
                continue
            for j in range(self.dim):
                if self.matrix[i][j] and v[j]:
                    out += Fraction(u[i]) * self.matrix[i][j] * Fraction(v[j])
        return out

    def as_cochain(self) -> FinCochain:
        data = {}
        for i in range(self.dim):
            for j in range(self.dim):
                data[(i, j)] = self.matrix[i][j]
        return FinCochain(self.dim, 2, COEFF_TRIVIAL, data)

    def det(self) -> Fraction:
        return _det(self.matrix)

    def leading_minors(self):
        return [
            _det([row[: k + 1] for row in self.matrix[: k + 1]])
            for k in range(self.dim)
        ]

    def positive_definite(self) -> bool:
        return all(m > 0 for m in self.leading_minors())

    def negative_definite(self) -> bool:
        neg = [[-v for v in row] for row in self.matrix]
        return SymForm(neg).positive_definite()

    def definite(self) -> bool:
        return self.positive_definite() or self.negative_definite()

    def nondegenerate(self) -> bool:
        return self.det() != 0


def _det(matrix) -> Fraction:
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    m = [list(row) for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


def _is_cocycle(A: FinKVAlgebra, beta: SymForm) -> bool:
    """Whether beta is a trivial-coefficient 2-cocycle: every integer row of
    the coboundary C^2 -> C^3 vanishes on the form's flattened numerators."""
    flat = [v for row in beta.num for v in row]
    return not any(
        sum(v * flat[col] for col, v in row.items())
        for row in coboundary_rows(A, COEFF_TRIVIAL, 2)
    )


def exactness_witness(A: FinKVAlgebra, beta: SymForm):
    """Solve beta(e_i, e_j) = Theta(e_i e_j) for a linear functional Theta.

    beta must be a trivial-coefficient 2-cocycle (checked); returns the
    coefficient vector (Theta(e_k))_k or None when the system is
    infeasible, certifying a nonvanishing cohomology class.
    """
    if beta.dim != A.dim:
        raise ValueError("form dimension does not match the algebra")
    if not _is_cocycle(A, beta):
        raise ValueError("form is not a 2-cocycle")
    d = A.dim
    rows, rhs = [], []
    for i in range(d):
        for j in range(d):
            rows.append([A.c[i][j][k] for k in range(d)])
            rhs.append(beta.matrix[i][j])
    return solve_linear(rows, rhs)


@dataclass(frozen=True)
class ClanReport:
    verdict: str  # "clan" | "pseudo-clan" | "neither"
    kv: bool
    cocycle: bool
    invariant: bool
    definite: bool
    nondegenerate: bool
    kv_witness: Optional[tuple] = None
    invariance_witness: Optional[tuple] = None

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
    cocycle = _is_cocycle(A, beta)
    # left invariance: beta(e_i e_j, e_k) + beta(e_j, e_i e_k) = 0, in
    # numerators over A.den * beta.den
    nz, B = A.nz, beta.num
    inv_w = None
    for i, j, k in itertools.product(range(A.dim), repeat=3):
        residual = sum(x * B[a][k] for a, x in nz[i][j]) + sum(x * B[j][a] for a, x in nz[i][k])
        if residual:
            inv_w = (i, j, k, Fraction(residual, A.den * beta.den))
            break
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


def perturb(A: FinKVAlgebra, nu: FinCochain) -> FinKVAlgebra:
    """The algebra with product mu + nu (nu a degree-2 self cochain)."""
    if nu.degree != 2 or nu.coefficients != COEFF_SELF or nu.dim != A.dim:
        raise ValueError("nu must be a degree-2 self-coefficient cochain")
    d = A.dim
    c = [
        [
            [A.c[i][j][k] + nu.get((i, j))[k] for k in range(d)]
            for j in range(d)
        ]
        for i in range(d)
    ]
    return FinKVAlgebra(d, c)


def kv_nu(A: FinKVAlgebra, nu: FinCochain) -> FinCochain:
    """KV_nu(s,s',s'') = nu(s,nu(s',s'')) - nu(nu(s,s'),s'')
                       - nu(s',nu(s,s'')) + nu(nu(s',s),s'')."""
    if nu.degree != 2 or nu.coefficients != COEFF_SELF or nu.dim != A.dim:
        raise ValueError("nu must be a degree-2 self-coefficient cochain")
    d = A.dim
    basis = [_basis_vec(d, t) for t in range(d)]
    out = FinCochain(d, 3, COEFF_SELF)
    for i, j, k in itertools.product(range(d), repeat=3):
        s, sp, spp = basis[i], basis[j], basis[k]
        v = [
            a - b - c + e
            for a, b, c, e in zip(
                nu.value(s, nu.value(sp, spp)),
                nu.value(nu.value(s, sp), spp),
                nu.value(sp, nu.value(s, spp)),
                nu.value(nu.value(sp, s), spp),
            )
        ]
        if any(v):
            out.set((i, j, k), v)
    return out


def mc_check(A: FinKVAlgebra, nu: FinCochain) -> FinCochain:
    """Deformation residual of mu + nu over the base product of A.

    Calibration: residual = KV_nu - d(nu) equals the KV anomaly tensor of
    the deformed product whenever A itself is KV, so it vanishes exactly
    when mu + nu is again a KV product.
    """
    return kv_nu(A, nu) - fin_coboundary(A, COEFF_SELF, nu)
