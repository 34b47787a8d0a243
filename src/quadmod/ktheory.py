"""Integer Smith reduction and the K-groups induced by the generators.

The generating creation operators act on classes of the left-action
operator model by compression. When the generators are partial isometries
whose range projections commute with the model, those compressions send
model projections to model projections, and summing their class patterns
over all generators gives a square integer matrix on the model's free
class group. The two K-groups are the cokernel and kernel of identity
minus that matrix.

The class lifts are diagonal: each block is diag(p) for a 0/1 column p.
The module block is a model idempotent, diagonal as the model is, and on
level n >= 2 the block is the quotient of L (x) I, whose diagonal the
quotient reads at the coordinates it keeps (see GeneratorFamily.
lift_diagonals). A range projection R then commutes with a lift exactly
when R P - P R vanishes, and on block (d, s) that difference is
R_ds * (p_s[col] - p_d[row]) entry by entry, a mask of R's entries, so
ktheory-range-commute forms no matrix product; the lift times a generator
is its rows scaled by p, so ktheory-compression-route is one product per
generator, the adjoint times the row-scaled generator. The class patterns
are read in one pass per generating family (class_patterns).

Everything here runs over plain Python integers, so there is no overflow
or rounding anywhere in the reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ExactMatrix
from .quadmodule import acted_columns
from .relations import GeneratorFamily, families_report


class AssumptionsViolated(ValueError):
    """The generator family does not act on the model by projections."""


def _int_identity(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def int_matmul(a: list, b: list) -> list:
    if not a:
        return []
    inner = len(b)
    cols = len(b[0]) if inner else 0
    return [
        [sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for row in a
    ]


def determinant(rows: list) -> int:
    """Fraction-free determinant of an integer matrix."""
    a = [[int(x) for x in row] for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass
class SmithForm:
    """Invertible row and column operations diagonalising an integer matrix.

    left @ original @ right == diagonal, with each diagonal entry
    nonnegative and dividing the next.
    """

    left: list
    diagonal: list
    right: list
    rank: int

    @property
    def diag(self) -> list:
        return [
            self.diagonal[i][i]
            for i in range(min(len(self.diagonal), len(self.diagonal[0]) if self.diagonal else 0))
        ]


def _xgcd(a: int, b: int) -> tuple:
    """gcd(a, b) > 0 together with its Bezout pair."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def smith_normal_form(rows: list) -> SmithForm:
    """Diagonalise an integer matrix by unimodular row and column moves.

    Pivots are chosen as the smallest nonzero entry in absolute value,
    ties broken by row then column. Entries are cleared with Bezout
    two-row and two-column combines, so every clearing step replaces the
    pivot by a divisor of itself and intermediate entries stay tame.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(row) != n for row in rows):
        raise ValueError("ragged matrix")
    a = [[int(x) for x in row] for row in rows]
    left = _int_identity(m)
    right = _int_identity(n)

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in right:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        left[dst] = [x + c * y for x, y in zip(left[dst], left[src])]

    def combine_rows(i1, i2, x, y, u, v):
        for mat in (a, left):
            r1, r2 = mat[i1], mat[i2]
            mat[i1] = [x * p + y * q for p, q in zip(r1, r2)]
            mat[i2] = [u * p + v * q for p, q in zip(r1, r2)]

    def combine_cols(j1, j2, x, y, u, v):
        for mat in (a, right):
            for row in mat:
                p, q = row[j1], row[j2]
                row[j1] = x * p + y * q
                row[j2] = u * p + v * q

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(a[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        swap_rows(t, best[1])
        swap_cols(t, best[2])
        while True:
            clean = True
            for i in range(t + 1, m):
                if a[i][t]:
                    piv, val = a[t][t], a[i][t]
                    if val % piv == 0:
                        add_row(t, i, -(val // piv))
                    else:
                        g, x, y = _xgcd(piv, val)
                        combine_rows(t, i, x, y, -(val // g), piv // g)
                        clean = False
            for j in range(t + 1, n):
                if a[t][j]:
                    piv, val = a[t][t], a[t][j]
                    if val % piv == 0:
                        for row in a:
                            row[j] -= (val // piv) * row[t]
                        for row in right:
                            row[j] -= (val // piv) * row[t]
                    else:
                        g, x, y = _xgcd(piv, val)
                        combine_cols(t, j, x, y, -(val // g), piv // g)
                        clean = False
            if not clean:
                continue
            if any(a[i][t] for i in range(t + 1, m)):
                continue
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if a[t][t] < 0:
            add_row(t, t, -2)
        t += 1
    rank = sum(1 for i in range(min(m, n)) if a[i][i] != 0)
    return SmithForm(left, a, right, rank)


@dataclass
class FGAbelianGroup:
    """A finitely generated abelian group in invariant-factor form."""

    free_rank: int
    torsion: list

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def as_dict(self) -> dict:
        return {"freeRank": self.free_rank, "factors": list(self.torsion)}


@dataclass
class KTheoryResult:
    k0: FGAbelianGroup
    k1: FGAbelianGroup
    class_matrix: list
    reports: list


def class_patterns(gens: GeneratorFamily, family: int):
    """The model projections that compressing each class through each
    generator of one family induces on the module, as an integer array of
    shape (generators, rank, classes) whose entry (g, r, cl) is entry r of
    the 0/1 class pattern of class cl compressed through generator g.

    Compressing class cl through generator g gives the left action of the
    algebra element <m_g, E_cl m_g> on the module. One pass reads them all:
    E_cl m_g for every pair as one Kronecker product, the inner products
    <m_g, E_cl m_g> as one column_pairs, their left actions on the module
    summand as one combination of its batched left actions, and their
    patterns by one model membership test. Raises AssumptionsViolated
    naming the first pair, in the order (generator, class), whose image is
    not a model projection."""
    space = gens.space
    spec = space.spec
    h = space.summand((1, ()))
    model = gens.model
    members = gens.members(family)
    stack, side_ops = (spec.inner_B1, h.left_B1) if family == 1 else (spec.inner_B2, h.left_B2)
    ng, ncl = members.ncols, model.rank
    # column (cl, g) of images is E_cl m_g, and of repeated m_g
    images = acted_columns(h.ambient(model.idempotents), members)
    repeated = members.take_cols(np.tile(np.arange(ng), ncl))
    # column (g, cl) of values is <m_g, E_cl m_g>
    values = stack.column_pairs(repeated, images).take_cols(
        [cl * ng + g for g in range(ng) for cl in range(ncl)])
    inside, patterns = model.projection_patterns(side_ops.combine(values))
    if not inside.all():
        g, cl = divmod(int(np.argmin(inside)), ncl)
        raise AssumptionsViolated(
            f"family {family} generator {g} does not send class "
            f"{cl} to a model projection"
        )
    return patterns.reshape(ng, ncl, -1).transpose(0, 2, 1)


def class_action_matrix(gens: GeneratorFamily) -> tuple:
    """The integer matrix of the summed generator compressions on model
    classes, together with the assumption reports that legitimise it.

    Raises AssumptionsViolated when a generator is not a partial isometry,
    a range projection fails to commute with the model, or a compression
    leaves the model's projections.
    """
    space = gens.space
    K = space.depth
    lifts = gens.lifts

    def class_of(family, g):
        return lambda cl: f"family {family} generator {g} class {cl}"

    def commute_parts():
        # one family over the classes per generator
        for f in (1, 2):
            ranges = gens.ranges[f]
            for g in range(ranges.shape[0]):
                yield gens.lift_commutators(ranges[g]), class_of(f, g)

    reports = [families_report(
        "ktheory-partial-isometry",
        "every generator is a partial isometry",
        ((gens.ranges[f] @ gens.family(f).window(1, K - 1) - gens.family(f),
          lambda g, f=f: f"family {f} generator {g}") for f in (1, 2)), 1, K - 1,
    ), families_report(
        "ktheory-range-commute",
        "every range projection commutes with the lifted model",
        commute_parts(), 1, K,
    )]
    bad = [r for r in reports if not r.passed]
    if bad:
        raise AssumptionsViolated(
            "; ".join(f"{r.check_id}: {r.witness}" for r in bad)
        )

    # per family and generator, the patterns of the model projections its
    # compression sends the classes to, as the columns of a 0/1 matrix
    patterns = {f: class_patterns(gens, f) for f in (1, 2)}
    matrix = (patterns[1].sum(axis=0) + patterns[2].sum(axis=0)).tolist()

    route = families_report(
        "ktheory-compression-route",
        "compressing a lifted class projection through a generator recovers "
        "its induced model element on the tower",
        ((gens.adjoints[f][g] @ gens.lifted(gens.family(f)[g].window(1, K - 1))
          - lifts.window(1, K - 1).combine(ExactMatrix(columns)),
          class_of(f, g))
         for f in (1, 2) for g, columns in enumerate(patterns[f])), 1, K - 1,
    )
    reports.append(route)
    if not route.passed:
        raise AssumptionsViolated(f"{route.check_id}: {route.witness}")
    return matrix, reports


def k_groups_of_matrix(matrix: list) -> tuple:
    """K-groups read off a square integer class matrix A from one Smith form
    of I - A: K0 is its cokernel, and K1 its kernel, free of rank
    r - rank, as is the cokernel's free part."""
    r = len(matrix)
    delta = [
        [(1 if i == j else 0) - matrix[i][j] for j in range(r)]
        for i in range(r)
    ]
    form = smith_normal_form(delta)
    free = r - form.rank
    return FGAbelianGroup(free, [d for d in form.diag if d > 1]), FGAbelianGroup(free, [])


def k_groups(gens: GeneratorFamily) -> KTheoryResult:
    matrix, reports = class_action_matrix(gens)
    k0, k1 = k_groups_of_matrix(matrix)
    return KTheoryResult(k0, k1, matrix, reports)
