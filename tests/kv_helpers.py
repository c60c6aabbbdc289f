"""Test-only helpers for finite KV algebras: the product as a cochain, the
full KV anomaly cochain and the perturbed algebra mu + nu. The library
has no caller for them; the deformation tests and the acceptance
criterion 8 use them to build inputs and expected values."""

from algebroid.kvfin import COEFF_SELF, FinCochain, FinKVAlgebra, kv_nu


def product_cochain(A: FinKVAlgebra) -> FinCochain:
    """The multiplication of A as a degree-2 self-coefficient cochain."""
    return FinCochain.from_flat(
        A.dim, 2, COEFF_SELF, [v for plane in A.c for row in plane for v in row]
    )


def kv_defect_cochain(A: FinKVAlgebra) -> FinCochain:
    """The full KV anomaly of A as a degree-3 self-coefficient cochain: the
    KV anomaly of its product taken as a deformation of the zero algebra,
    which `kv_nu` reads off the table by the library's scattered anomaly."""
    return kv_nu(FinKVAlgebra.zero(A.dim), product_cochain(A))


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
