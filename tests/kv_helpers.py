"""Test-only helpers for finite KV algebras: the product as a cochain, the
full KV anomaly cochain and the perturbed algebra mu + nu. The library
has no caller for them; the deformation tests and the acceptance
criterion 8 use them to build inputs and expected values."""

import itertools

from algebroid.kvfin import COEFF_SELF, FinCochain, FinKVAlgebra, _kv_anomalies, _over


def product_cochain(A: FinKVAlgebra) -> FinCochain:
    """The multiplication of A as a degree-2 self-coefficient cochain."""
    data = {}
    for i, j in itertools.product(range(A.dim), repeat=2):
        data[(i, j)] = A.c[i][j]
    return FinCochain(A.dim, 2, COEFF_SELF, data)


def kv_defect_cochain(A: FinKVAlgebra) -> FinCochain:
    """The full KV anomaly as a degree-3 self-coefficient cochain, read off
    the structure-constant table by the library's own scattered anomaly,
    which yields the pairs i < j; K(j, i, k) = -K(i, j, k) fills in the
    rest."""
    d, den2 = A.dim, A.den * A.den
    out = FinCochain(d, 3, COEFF_SELF)
    for i, j, acc in _kv_anomalies(A):
        for k in range(d):
            nums = [acc.get(k * d + m, 0) for m in range(d)]
            out.set((i, j, k), _over(nums, den2))
            out.set((j, i, k), _over([-v for v in nums], den2))
    return out


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
