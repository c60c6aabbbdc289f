"""Anomaly tensors and the defect operators of the axioms.

Evaluation entry points (jacobiator, kv_anomaly, leibniz_anomaly,
courant_T, pairing_coboundary) compute exact values on concrete
sections/functions. The *_op builders assemble the same quantities as
canonical multidifferential operators, which is what the axiom checkers
subtract and decide; `d_cocycle_defect_op` builds the coboundary of D in
the function complex C(F(M), V), which the D-cocycle check needs.
"""

from __future__ import annotations

from typing import Sequence

from .exactmath import Poly
from .funmodel import (
    AlgebroidStructure,
    MultiDiffOp,
    Section,
    apply_anchor,
    apply_mult,
    function_identity,
    function_product,
    module_action,
    pairing_value,
    section_identity,
)


def rearranged(op: MultiDiffOp, positions: Sequence[int]) -> MultiDiffOp:
    """Operator g with g(a_0,..) = op(a_{positions[0]}, a_{positions[1]}, ..)."""
    perm = [0] * len(positions)
    for t, pos in enumerate(positions):
        perm[pos] = t
    return op.permute(perm)


def cyclic_sum(op: MultiDiffOp) -> MultiDiffOp:
    """Sum of op over cyclic rotations of its three slots."""
    if len(op.slots) != 3:
        raise ValueError("cyclic sum needs a 3-slot operator")
    return op + rearranged(op, (1, 2, 0)) + rearranged(op, (2, 0, 1))


# ---------------------------------------------------------------------------
# Direct anomaly evaluation.
# ---------------------------------------------------------------------------


def jacobiator(S: AlgebroidStructure, s: Section, sp: Section, spp: Section) -> Section:
    """Cyclic sum of iterated brackets [[s,s'],s'']; the multiplication
    must be declared skew."""
    if not S.skew:
        raise ValueError("jacobiator requires a skew multiplication")
    return (
        apply_mult(S, apply_mult(S, s, sp), spp)
        + apply_mult(S, apply_mult(S, sp, spp), s)
        + apply_mult(S, apply_mult(S, spp, s), sp)
    )


def associator(S: AlgebroidStructure, s, sp, spp) -> Section:
    return apply_mult(S, s, apply_mult(S, sp, spp)) - apply_mult(
        S, apply_mult(S, s, sp), spp
    )


def kv_anomaly(S: AlgebroidStructure, s: Section, sp: Section, spp: Section) -> Section:
    """Asymmetry of the associator in its first two slots:
    (s,s',s'') - (s',s,s'')."""
    return associator(S, s, sp, spp) - associator(S, sp, s, spp)


def leibniz_anomaly(S: AlgebroidStructure, s: Section, f: Poly, sp: Section) -> Section:
    """s(f s') - (rho(s)f) s' - f (s s')."""
    return (
        apply_mult(S, s, sp.scale(f))
        - sp.scale(apply_anchor(S, s, f))
        - apply_mult(S, s, sp).scale(f)
    )


def courant_T(S: AlgebroidStructure, s: Section, sp: Section, spp: Section) -> Poly:
    """Cyclic sum of <[s,s'],s''>; needs a pairing and a skew bracket."""
    if not S.has("pairing"):
        raise ValueError("courant_T requires a pairing")
    if not S.skew:
        raise ValueError("courant_T requires a skew multiplication")
    return (
        pairing_value(S, apply_mult(S, s, sp), spp)
        + pairing_value(S, apply_mult(S, sp, spp), s)
        + pairing_value(S, apply_mult(S, spp, s), sp)
    )


def pairing_coboundary(S: AlgebroidStructure, s: Section, sp: Section, spp: Section) -> Poly:
    """Six-term coboundary of the pairing seen as a scalar 2-cochain on
    sections; each term is computed independently and summed."""
    if not S.has("pairing"):
        raise ValueError("pairing_coboundary requires a pairing")
    t1 = -apply_anchor(S, s, pairing_value(S, sp, spp))
    t2 = pairing_value(S, apply_mult(S, s, sp), spp)
    t3 = pairing_value(S, sp, apply_mult(S, s, spp))
    t4 = apply_anchor(S, sp, pairing_value(S, s, spp))
    t5 = -pairing_value(S, apply_mult(S, sp, s), spp)
    t6 = -pairing_value(S, s, apply_mult(S, sp, spp))
    return t1 + t2 + t3 + t4 + t5 + t6


# ---------------------------------------------------------------------------
# Operator builders used by the axiom checkers.
# ---------------------------------------------------------------------------


def mult_skew_defect_op(S: AlgebroidStructure) -> MultiDiffOp:
    """mu(s,s') + mu(s',s); zero iff the multiplication is skew."""
    m = S.mult_op()
    return m + rearranged(m, (1, 0))


def jacobiator_op(S: AlgebroidStructure) -> MultiDiffOp:
    return cyclic_sum(S.mult_op().compose(0, S.mult_op()))


def kv_anomaly_op(S: AlgebroidStructure) -> MultiDiffOp:
    m = S.mult_op()
    assoc = m.compose(1, m) - m.compose(0, m)
    return assoc - rearranged(assoc, (1, 0, 2))


def leibniz_anomaly_op(S: AlgebroidStructure) -> MultiDiffOp:
    """Slots (s, f, s')."""
    r, n = S.rank, S.base_dim
    m = S.mult_op()
    t1 = m.compose(1, module_action(r, n))  # s(f s'), slots (s, f, s')
    t2 = S.anchor_op().product(section_identity(r, n))  # (rho(s)f) s'
    t3 = rearranged(function_identity(r, n).product(m), (1, 0, 2))  # f (s s')
    return t1 - t2 - t3


def courant_T_op(S: AlgebroidStructure) -> MultiDiffOp:
    return cyclic_sum(S.pairing_op().compose(0, S.mult_op()))


def pairing_coboundary_op(S: AlgebroidStructure) -> MultiDiffOp:
    p = S.pairing_op()
    m = S.mult_op()
    rho_p = S.anchor_op().compose(1, p)  # rho(a0)<a1,a2>
    p0m = p.compose(0, m)  # <a0 a1, a2>
    p1m = p.compose(1, m)  # <a0, a1 a2>
    return (
        -rho_p
        + p0m
        + rearranged(p1m, (1, 0, 2))  # <s', s s''>
        + rearranged(rho_p, (1, 0, 2))  # rho(s')<s, s''>
        - rearranged(p0m, (1, 0, 2))  # <s' s, s''>
        - p1m  # <s, s' s''>
    )


def d_cocycle_defect_op(S: AlgebroidStructure) -> MultiDiffOp:
    """The coboundary of D in C(F(M), V), slots (a1, a2):
    -(a1 D(a2) - D(a1 a2) + a2 D(a1)); zero iff D is a cocycle."""
    r, n = S.rank, S.base_dim
    D = S.d_op()
    aD = module_action(r, n).compose(1, D)  # a1 * D(a2)
    mid = D.compose(0, function_product(r, n))  # D(a1 * a2)
    return -(aD - mid + rearranged(aD, (1, 0)))


def anchor_morphism_defect_op(S: AlgebroidStructure) -> MultiDiffOp:
    """rho([s,s'])f - [rho(s),rho(s')]f; slots (s, s', f)."""
    a = S.anchor_op()
    lhs = a.compose(0, S.mult_op())
    nested = a.compose(1, a)  # rho(s)(rho(s')f)
    return lhs - (nested - rearranged(nested, (1, 0, 2)))


def anchor_commutator_defect_op(S: AlgebroidStructure) -> MultiDiffOp:
    """[rho(s),rho(s')]f - rho(ss')f + rho(s's)f; slots (s, s', f)."""
    a = S.anchor_op()
    nested = a.compose(1, a)
    am = a.compose(0, S.mult_op())
    return (nested - rearranged(nested, (1, 0, 2))) - am + rearranged(am, (1, 0, 2))


def rho_d_op(S: AlgebroidStructure) -> MultiDiffOp:
    """rho(D(f))g; slots (f, g)."""
    return S.anchor_op().compose(0, S.d_op())


def leibniz_pairing_rhs_op(S: AlgebroidStructure) -> MultiDiffOp:
    """-<s,s'> D(f); slots (s, f, s')."""
    prod = S.pairing_op().product(S.d_op())  # (s, s', f) -> <s,s'> D(f)
    return -rearranged(prod, (0, 2, 1))


def invariance_defect_op(S: AlgebroidStructure) -> MultiDiffOp:
    """rho(s)<s',s''> - <ss' + D<s,s'>, s''> - <s', ss'' + D<s,s''>>.

    Zero iff the (r2)/Ax5/(R3) invariance identity holds.
    """
    p = S.pairing_op()
    m = S.mult_op()
    lhs = S.anchor_op().compose(1, p)
    p0m = p.compose(0, m)
    p1m = p.compose(1, m)
    pd = p.compose(0, S.d_op())  # (f, t) -> <D f, t>
    dpair = pd.compose(0, p)  # (a0, a1, a2) -> <D<a0,a1>, a2>
    rhs = (
        p0m
        + dpair
        + rearranged(p1m, (1, 0, 2))  # <s', s s''>
        + rearranged(dpair, (0, 2, 1))  # <s', D<s,s''>> (pairing is symmetric)
    )
    return lhs - rhs


def fs_linearity_defect_op(S: AlgebroidStructure) -> MultiDiffOp:
    """(f s) s' - f (s s'); slots (f, s, s')."""
    r, n = S.rank, S.base_dim
    m = S.mult_op()
    lhs = m.compose(0, module_action(r, n))
    rhs = function_identity(r, n).product(m)
    return lhs - rhs


def d_forcing_op(S: AlgebroidStructure) -> MultiDiffOp:
    """<s,s'><D(f),s''> + <s,s''><D(f),s'>; slots (s, s', s'', f).

    For a non-degenerate pairing this vanishes as an operator iff D = 0.
    """
    p = S.pairing_op()
    pd = p.compose(0, S.d_op())  # (f, t) -> <D f, t>
    prod = p.product(pd)  # (b0,b1,b2,b3) -> <b0,b1><D b2, b3>
    return rearranged(prod, (0, 1, 3, 2)) + rearranged(prod, (0, 2, 3, 1))
