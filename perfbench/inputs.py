"""Seeded inputs for the benchmark: monomial frame changes of fixed base
structures, and the definition-file text the calls read.

A monomial frame change is a signed permutation times a diagonal of small
nonzero rationals. It keeps every verdict, every cohomology dimension and
the sparsity of the structure, while it changes every coefficient and the
order in which witnesses are enumerated.

Witness-search cost depends mostly on the permutation. So that a run's
total cost does not hang on a lucky draw, the permutations of each base
structure are drawn a whole cyclic coset at a time, {sigma . rho^k}, and
every coset is used once before any repeats.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

SCALES = tuple(sorted({Fraction(p, q) for p in range(1, 6) for q in range(1, 6)}))


def _cosets(rank: int):
    """The cyclic cosets of the permutations of range(rank); each coset is
    one Latin square, so every slot takes every value once inside it."""
    seen, out = set(), []
    for sigma in itertools.permutations(range(rank)):
        if sigma in seen:
            continue
        coset = [tuple(sigma[(i + k) % rank] for i in range(rank)) for k in range(rank)]
        seen.update(coset)
        out.append(coset)
    return out


class FrameStream:
    """Endless seeded stream of monomial frames (perm, diag) for one rank.

    The frame maps basis element i to diag[i] * e_{perm[i]}. Permutations
    come a cyclic coset at a time, in a seeded order, and every coset is
    used once before the order is reshuffled.
    """

    def __init__(self, rank: int, rng: random.Random):
        self.rank = rank
        self.rng = rng
        self.cosets = _cosets(rank) if rank <= 4 else None
        self.queue = []

    def _refill(self):
        if self.cosets is None:
            # rank > 4: too many cosets to enumerate; draw one at random
            sigma = list(range(self.rank))
            self.rng.shuffle(sigma)
            coset = [tuple(sigma[(i + k) % self.rank] for i in range(self.rank))
                     for k in range(self.rank)]
            self.rng.shuffle(coset)
            self.queue.extend(coset)
            return
        order = list(self.cosets)
        self.rng.shuffle(order)
        for coset in order:
            coset = list(coset)
            self.rng.shuffle(coset)
            self.queue.extend(coset)

    def next(self):
        if not self.queue:
            self._refill()
        perm = self.queue.pop(0)
        diag = [self.rng.choice((1, -1)) * self.rng.choice(SCALES) for _ in range(self.rank)]
        return perm, diag


def monomial_matrix(perm, diag):
    r = len(perm)
    A = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        A[i][perm[i]] = Fraction(diag[i])
    return A


def conjugate_kv(algebra_cls, form_cls, A, form, perm, diag):
    """The same basis change for a finite KV algebra and its form: with
    f_i = a_i e_{perm[i]}, c'[i][j][m] = a_i a_j c[pi][pj][pm] / a_m and
    form'[i][j] = a_i a_j form[pi][pj]."""
    d = A.dim
    c = [
        [
            [diag[i] * diag[j] * A.c[perm[i]][perm[j]][perm[m]] / diag[m] for m in range(d)]
            for j in range(d)
        ]
        for i in range(d)
    ]
    new_form = None
    if form is not None:
        new_form = form_cls(
            [[diag[i] * diag[j] * form.matrix[perm[i]][perm[j]] for j in range(d)]
             for i in range(d)]
        )
    return algebra_cls(d, c), new_form


# ---------------------------------------------------------------------------
# Base structures.
# ---------------------------------------------------------------------------


def fm_bases(algebroid):
    """Function-model base structures, by name, from the catalog builders."""
    cat = algebroid.catalog
    out = {"witt-line": cat.witt_line()}
    for n in (1, 2, 3, 4):
        out[f"tangent-lie-{n}"] = cat.tangent_lie(n)
    for n in (1, 2, 3):
        out[f"courant-standard-{n}"] = cat.courant_standard(n)
    out["poisson-cotangent"] = cat.poisson_cotangent()
    out["poisson-cotangent-nonpoisson"] = cat.poisson_cotangent_nonpoisson()
    return out


def _direct_sum(kv, first, second):
    (A, fa), (B, fb) = first, second
    d = A.dim + B.dim
    zero = Fraction(0)
    c = [[[zero] * d for _ in range(d)] for _ in range(d)]
    m = [[zero] * d for _ in range(d)]
    for off, (X, fx) in ((0, (A, fa)), (A.dim, (B, fb))):
        for i, j in itertools.product(range(X.dim), repeat=2):
            m[off + i][off + j] = fx.matrix[i][j]
            for k in range(X.dim):
                c[off + i][off + j][off + k] = X.c[i][j][k]
    return kv.FinKVAlgebra(d, c), kv.SymForm(m)


def _zero_part(kv, diag):
    d = len(diag)
    return kv.FinKVAlgebra.zero(d), kv.SymForm(
        [[diag[i] if i == j else 0 for j in range(d)] for i in range(d)]
    )


def _truncated(kv, d):
    """Q[x]/(x^d) on the basis 1, x, .., x^{d-1}, with the exact form
    beta(e_i, e_j) = Theta(e_i e_j) for Theta = (1, 2, .., d)."""
    zero = Fraction(0)
    c = [[[zero] * d for _ in range(d)] for _ in range(d)]
    for i, j in itertools.product(range(d), repeat=2):
        if i + j < d:
            c[i][j][i + j] = Fraction(1)
    form = [[Fraction(i + j + 1) if i + j < d else zero for j in range(d)] for i in range(d)]
    return kv.FinKVAlgebra(d, c), kv.SymForm(form)


def kv_bases(algebroid):
    """Finite KV base algebras with forms, by name, of dimension 3 to 6:
    the catalog algebras and variants, direct sums, zero and
    truncated-polynomial algebras. The many small ones keep the 90th
    percentile of a round among calls of similar cost."""
    kv, get = algebroid.kvfin, algebroid.catalog.catalog_get
    cat = {n: (get(n).algebra, get(n).form) for n in ("vinberg-83", "clan-84", "clan-84-as-printed")}
    out = dict(cat)
    out["vinberg-83(2,-1)"] = algebroid.catalog.vinberg_83(2, -1)
    out["clan-84(3)"] = algebroid.catalog.clan_84(3)
    out["truncated-3"] = _truncated(kv, 3)
    out["zero-3"] = _zero_part(kv, [1, 2, 3])
    out["vinberg-83+zero-1"] = _direct_sum(kv, cat["vinberg-83"], _zero_part(kv, [1]))
    out["clan-84+zero-1"] = _direct_sum(kv, cat["clan-84"], _zero_part(kv, [2]))
    out["truncated-4"] = _truncated(kv, 4)
    out["vinberg-83+zero-2"] = _direct_sum(kv, cat["vinberg-83"], _zero_part(kv, [1, 2]))
    out["clan-84+vinberg-83"] = _direct_sum(kv, cat["clan-84"], cat["vinberg-83"])
    out["clan-84+clan-84"] = _direct_sum(kv, cat["clan-84"], cat["clan-84"])
    out["truncated-6"] = _truncated(kv, 6)
    return out


# ---------------------------------------------------------------------------
# Definition-file text.
# ---------------------------------------------------------------------------


def _idx(alpha):
    return ",".join(str(a) for a in alpha)


def _split(coeff, rng):
    """Two coefficient texts that sum to coeff."""
    part = rng.choice((1, -1)) * rng.choice(SCALES)
    rest = f"({coeff}) - {part}" if part > 0 else f"({coeff}) + {-part}"
    return rest, str(part)


def noncanonical_structure(S, name: str, rng: random.Random) -> str:
    """A definition file for S in non-canonical text: shuffled header keys,
    sections and lines, comments, symmetric pairing entries written either
    way round, and some [mult] coefficients split over repeated lines."""
    n = S.base_dim
    mult = []
    for (k, i, j, alpha, beta), coeff in S.mult.terms:
        head = f"{k} {i} {j} {_idx(alpha)} {_idx(beta)}"
        if rng.random() < 0.3:
            mult.extend(f"{head}   {c}" for c in _split(coeff, rng))
        else:
            mult.append(f"{head} {coeff}")
    anchor = [
        f"{a} {j} {S.anchor.matrix[a][j]}"
        for a in range(n)
        for j in range(S.rank)
        if not S.anchor.matrix[a][j].is_zero()
    ]
    sections = [("mult", mult), ("anchor", anchor)]
    if S.pairing is not None:
        pairing = []
        for i in range(S.rank):
            for j in range(i, S.rank):
                g = S.pairing.matrix[i][j]
                if not g.is_zero():
                    a, b = (i, j) if rng.random() < 0.5 else (j, i)
                    pairing.append(f"{a} {b} {g}")
        sections.append(("pairing", pairing))
    if S.d_cochain is not None:
        dco = [
            f"{k} {_idx(alpha)} {coeff}"
            for k, op in enumerate(S.d_cochain.components)
            for alpha, coeff in op.terms.items()
        ]
        sections.append(("dcochain", dco))
    head = [f"name {name}", f"base_dim {n}", f"rank {S.rank}",
            f"skew {'true' if S.mult.skew else 'false'}"]
    rng.shuffle(head)
    rng.shuffle(sections)
    lines = [f"# frame-changed {name}", "[structure]"] + head
    for title, body in sections:
        if not body:
            continue
        rng.shuffle(body)
        lines.append(f"  [{title}]   # section")
        for line in body:
            lines.append(line + ("   # term" if rng.random() < 0.2 else ""))
            if rng.random() < 0.1:
                lines.append("")
    return "\n".join(lines) + "\n"


def _sign(value) -> str:
    return "+" if value > 0 else "-"


def section_text(rank: int, base_dim: int, rng: random.Random, power: int) -> str:
    """A section input: component j is the one-variable power
    (a + b*xv)^power plus a term c*xu. The variables take turns from a
    seeded offset, so every input of a structure costs about the same."""
    offset = rng.randrange(base_dim)
    comps = []
    for j in range(rank):
        a, b, c = (rng.choice((1, -1)) * rng.randint(1, 5) for _ in range(3))
        v, u = (j + offset) % base_dim + 1, (j + offset + 1) % base_dim + 1
        comps.append(f"({a} {_sign(b)} {abs(b)}*x{v})^{power} {_sign(c)} {abs(c)}*x{u}")
    return ",".join(comps)
