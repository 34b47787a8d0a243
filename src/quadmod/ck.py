"""Matrix-indexed partial isometries cut out by the operator model.

Each minimal idempotent of the left-action model slices every generating
creation operator into a family of partial isometries. Their supports are
again model projections, and reading those supports off produces a square
0-1 relation matrix: state a's support is the sum of the ranges of
exactly the states its matrix row selects. The verifiers here check that
picture on the truncated tower, and the helpers analyse the matrix itself
(column amalgamation, aperiodicity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebras import AlgebraHom
from .linalg import ExactMatrix
from .relations import GeneratorFamily, families_report, window_report


class CKStructureError(ValueError):
    """The sliced generators do not have model-projection supports."""


@dataclass
class CKState:
    """One sliced generator, a class composed with a creation, by its
    indices, with the 0/1 class pattern of its support."""

    family: int
    class_index: int
    generator_index: int
    support: list


@dataclass
class CKBundle:
    """The states, first family first, and their relation matrix; ops and
    adjoints hold each family's states, and their adjoints, as one FockOperator."""

    gens: GeneratorFamily
    states: list
    matrix: list
    ops: dict
    adjoints: dict

    def state_labels(self) -> list[str]:
        return [
            f"family {st.family} class {st.class_index} generator {st.generator_index}"
            for st in self.states
        ]


def build_ck_generators(gens: GeneratorFamily) -> CKBundle:
    """Slice the generating family by the model's minimal idempotents and
    read off the relation matrix from the resulting supports.

    The slice of class cl and generator g, lift(E_cl) @ S_g, is kept where
    it is nonzero, and only slices that can be nonzero are formed. Its
    coefficient-level block is E_cl times S_g's block there; above it, the
    lift acts on the leftmost tensor factor, so every block is the
    creation of E_cl m_g and vanishes with it. The candidates are the
    pairs where one of these two module-level blocks is nonzero, two small
    products for all pairs at once. When the family's right action is
    unital, the columns of the coefficient-level block sum to E_cl m_g, so
    every candidate is kept. The slices are S_g's rows scaled by the lift
    diagonals (GeneratorFamily.lifted), and the supports of a family's
    states are read by one model membership test."""
    model = gens.model
    lifts = gens.lifts
    ncl = lifts.shape[0]
    module = (1, ())
    h = gens.space.summand(module)
    classes = model.idempotents.reshaped((ncl,), (ncl, 1))
    states, ops, adjoints = [], {}, {}
    for family in (1, 2):
        members = gens.family(family)
        ng = members.shape[0]
        vectors = h.coordinates(gens.members(family))
        # per (class, generator): whether E_cl m_g, or the coefficient-level
        # block of the slice, is nonzero
        columns = vectors.regrouped((h.dim, ng, 1), (1, 0, 2))
        reach = (classes @ columns.reshaped((ng,), (1, ng))).nonzero()
        coefficient = members.blocks.get((module, (0, ())))
        if coefficient is not None:
            reach = reach | (classes @ coefficient.reshaped(members.shape, (1, ng))).nonzero()
        cls, gs = np.nonzero(reach)
        sliced = gens.lifted(members[gs], cls)
        kept = np.flatnonzero(sliced.nonzero())
        ops[family] = sliced[kept]
        adjoints[family] = ops[family].adjoint()
        squares = adjoints[family] @ ops[family].window(1, 1)
        inside, patterns = model.projection_patterns(squares.block(module, module))
        if not inside.all():
            j = kept[np.argmin(inside)]
            raise CKStructureError(
                f"state (family {family}, class {int(cls[j])}, generator {int(gs[j])}) "
                "has a support that is not a model projection"
            )
        states += [CKState(family, int(cls[j]), int(gs[j]), pattern)
                   for j, pattern in zip(kept, patterns.tolist())]
    matrix = [[st.support[other.class_index] for other in states] for st in states]
    return CKBundle(gens, states, matrix, ops, adjoints)


def verify_ck_relations(bundle: CKBundle) -> list:
    """The relation-matrix identities satisfied by the sliced generators,
    each one family expression per generating family: one family over the
    states of both would hold zero blocks for half its members."""
    gens = bundle.gens
    space = gens.space
    K = space.depth
    states = bundle.states
    lifts = gens.lifts
    ncl = lifts.shape[0]
    ops, adjoints = bundle.ops, bundle.adjoints
    # per family, the indices of its states in state order
    order = {f: [idx for idx, st in enumerate(states) if st.family == f] for f in (1, 2)}
    # per family, the 0/1 class pattern of each state's support, one column
    # per state: the supports are these combinations of the lifts, as a
    # family to compare against and as diagonals to scale columns by
    patterns = {f: ExactMatrix.from_rows([states[idx].support for idx in idxs]).T
                for f, idxs in order.items()}
    supports = {f: lifts.combine(pattern) for f, pattern in patterns.items()}
    support_diagonals = {f: gens.lift_diagonals.combine(pattern)
                         for f, pattern in patterns.items()}
    ranges = {f: ops[f] @ adjoints[f] for f in (1, 2)}
    relation = ExactMatrix.from_rows(bundle.matrix)

    def selection(f, of, count):
        """The 0/1 matrix whose row i is unit row of(state) of size count,
        for state i of family f."""
        return ExactMatrix.identity(count).take_rows([of(states[idx]) for idx in order[f]])

    def per_family(diffs):
        for f, idxs in order.items():
            yield diffs(f), lambda i, idxs=idxs: f"state {idxs[i]}"

    def selected(f):
        # member i: the sum of the ranges, of both families, that the matrix
        # row of state i of family f selects
        return (ranges[1].combine(relation.submatrix(order[f], order[1]).T)
                + ranges[2].combine(relation.submatrix(order[f], order[2]).T))

    reports = [families_report(
        "ck-state-support",
        "each state's absolute square is the lift of its support projection",
        per_family(lambda f: adjoints[f] @ ops[f].window(1, K - 1) - supports[f]), 1, K - 1,
    ), families_report(
        "ck-partial-isometry",
        "every state is a partial isometry",
        per_family(lambda f: ranges[f] @ ops[f].window(0, K - 1) - ops[f]), 0, K - 1,
    ), families_report(
        # The top level has no range projections to split into, so the main
        # relation stops one level short of the truncation.
        "ck-relation",
        "each state's support splits into the ranges its matrix row selects",
        per_family(lambda f: adjoints[f] @ ops[f].window(2, K - 1) - selected(f)), 2, K - 1,
    )]

    class_ranges = (ranges[1].combine(selection(1, lambda st: st.class_index, ncl))
                    + ranges[2].combine(selection(2, lambda st: st.class_index, ncl)))
    reports.append(families_report(
        "ck-class-range",
        "each idempotent class is the sum of the ranges of its states",
        [(lifts - class_ranges, lambda cl: f"class {cl}")], 2, K,
    ))
    reports.append(window_report(
        "ck-total-range",
        "the ranges of all states add to the identity",
        class_ranges.sums(ncl) - space.identity(), 2, K,
    ))
    reports.append(families_report(
        "ck-generator-split",
        "every generator is the sum of its states",
        ((gens.family(f) - ops[f].combine(
            selection(f, lambda st: st.generator_index, gens.family(f).shape[0])),
          lambda g, f=f: f"family {f} generator {g}") for f in (1, 2)),
        0, K - 1,
    ))
    reports.append(families_report(
        "ck-left-shift",
        "slicing a generator from the left equals shifting by its support "
        "from the right",
        per_family(lambda f: ops[f] - support_diagonals[f].right_times(gens.family(f)[
            [states[idx].generator_index for idx in order[f]]].window(1, K - 1))),
        1, K - 1,
    ))
    return reports


def bipartite_relation_matrices(M: int, N: int) -> tuple:
    """The two block factors and the full relation matrix of the bipartite
    example, states ordered first family then second, pairs in row-major
    order."""
    pairs = [(i, k) for i in range(M) for k in range(N)]
    A = [[1 if k == l else 0 for (j, l) in pairs] for (i, k) in pairs]
    B = [[1 if i == j else 0 for (j, l) in pairs] for (i, k) in pairs]
    H = [row + row for row in A] + [row + row for row in B]
    return A, B, H


def column_amalgamation(matrix: list) -> tuple:
    """Group identical columns and sum the rows inside each group.

    Returns (classes, reduced) where classes lists the column indices of
    each group in order of first appearance.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    seen = {}
    classes = []
    for j in range(n):
        col = tuple(matrix[i][j] for i in range(n))
        if col in seen:
            classes[seen[col]].append(j)
        else:
            seen[col] = len(classes)
            classes.append([j])
    reduced = [
        [sum(matrix[a][cls2[0]] for a in cls1) for cls2 in classes]
        for cls1 in classes
    ]
    return classes, reduced


def is_aperiodic(matrix: list) -> tuple:
    """Whether some power of the nonnegative matrix is entrywise positive,
    together with the least such exponent.

    The search stops at the sharp bound (n - 1)^2 + 1 for n x n matrices.
    """
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square and nonempty")
    if any(x < 0 for row in matrix for x in row):
        raise ValueError("matrix must be nonnegative")
    base = [[bool(x) for x in row] for row in matrix]
    power = base
    bound = (n - 1) ** 2 + 1
    for k in range(1, bound + 1):
        if all(all(row) for row in power):
            return True, k
        power = [
            [any(power[i][m] and base[m][j] for m in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return False, None


def verify_two_isometry_relations(gens: GeneratorFamily, first_twist: AlgebraHom,
                                  second_twist: AlgebraHom) -> list:
    """The isometry pair generated by a singly generated module, and which
    of the two twists each one implements by conjugation.

    Conjugating by the first generator recovers the second twist and vice
    versa.  Swapping the two twist arguments checks the mismatched
    attributions, which only pass when the twists agree. Each identity
    quantified over the base algebra is one family over its basis.
    """
    if gens.S.shape != (1,) or gens.T.shape != (1,):
        raise ValueError("both generating families must be singletons")
    space = gens.space
    spec = space.spec
    K = space.depth
    u, v = gens.S[0], gens.T[0]
    u_adj, v_adj = gens.adjoints[1][0], gens.adjoints[2][0]
    u_range, v_range = gens.ranges[1][0], gens.ranges[2][0]
    eye = ExactMatrix.identity(spec.algebra_A.dim)

    def element(c):
        return f"element {c}"

    # the side action of every embedded base basis element, one family each
    acts = {1: space.left_actions(1, spec.left_embed_1(eye), (0, K)),
            2: space.left_actions(2, spec.left_embed_2(eye), (0, K))}
    reports = [
        window_report(
            "two-isometry-complete",
            "the two range projections add to the identity",
            u_range + v_range - space.identity(), 2, K,
        ),
        window_report(
            "two-isometry-u",
            "the first generator is an isometry",
            u_adj @ u - space.identity(), 1, K - 1,
        ),
        window_report(
            "two-isometry-v",
            "the second generator is an isometry",
            v_adj @ v - space.identity(), 1, K - 1,
        ),
        families_report(
            "two-isometry-range-commute-u",
            "the first range projection commutes with the base action",
            [(u_range @ acts[1] - acts[1] @ u_range, element)], 1, K,
        ),
        families_report(
            "two-isometry-range-commute-v",
            "the second range projection commutes with the base action",
            [(v_range @ acts[1] - acts[1] @ v_range, element)], 1, K,
        ),
    ]

    # Conjugating by a generator lands in that family's coefficient
    # component, so each case compares against the matching side action.
    cases = [
        ("two-isometry-hom-u-second-twist", u, u_adj, 1, spec.left_embed_1, second_twist,
         "conjugation by the first generator implements the second twist"),
        ("two-isometry-hom-v-first-twist", v, v_adj, 2, spec.left_embed_2, first_twist,
         "conjugation by the second generator implements the first twist"),
    ]
    for check_id, gen, gen_adj, side, embed, twist, statement in cases:
        twisted = space.left_actions(side, embed(twist.matrix), (0, K - 1))
        reports.append(families_report(
            check_id, statement,
            [(gen_adj @ acts[side] @ gen.window(0, K - 1) - twisted, element)], 0, K - 1,
        ))
    return reports
