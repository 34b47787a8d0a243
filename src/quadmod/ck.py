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

from .algebras import AlgebraHom
from .relations import GeneratorFamily, _sequence_report, window_report


class CKStructureError(ValueError):
    """The sliced generators do not have model-projection supports."""


@dataclass
class CKState:
    """One sliced generator, a class composed with a creation, and its adjoint."""

    family: int
    class_index: int
    generator_index: int
    op: object
    adjoint: object
    support: list


@dataclass
class CKBundle:
    gens: GeneratorFamily
    states: list
    matrix: list

    def state_labels(self) -> list[str]:
        return [
            f"family {st.family} class {st.class_index} generator {st.generator_index}"
            for st in self.states
        ]


def build_ck_generators(gens: GeneratorFamily) -> CKBundle:
    """Slice the generating family by the model's minimal idempotents and
    read off the relation matrix from the resulting supports."""
    states = []
    for family, members in ((1, gens.S), (2, gens.T)):
        for cl, lifted in enumerate(gens.lifts):
            for g, x in enumerate(members):
                op = lifted @ x
                if op.is_zero():
                    continue
                adjoint = op.adjoint()
                candidate = (adjoint @ op).block((1, ()), (1, ()))
                pattern = gens.model.projection_coords(candidate)
                if pattern is None:
                    raise CKStructureError(
                        f"state (family {family}, class {cl}, generator {g}) "
                        "has a support that is not a model projection"
                    )
                states.append(CKState(family, cl, g, op, adjoint, pattern))
    matrix = [[st.support[other.class_index] for other in states] for st in states]
    return CKBundle(gens, states, matrix)


def verify_ck_relations(bundle: CKBundle) -> list:
    """The relation-matrix identities satisfied by the sliced generators."""
    gens = bundle.gens
    space = gens.space
    K = space.depth
    states = bundle.states
    supports = [gens.lift_projection(st.support) for st in states]
    ranges = [st.op @ st.adjoint for st in states]
    reports = []

    def support_diffs():
        for idx, st in enumerate(states):
            yield (f"state {idx}", st.adjoint @ st.op - supports[idx])

    reports.append(_sequence_report(
        "ck-state-support",
        "each state's absolute square is the lift of its support projection",
        support_diffs(), 1, K - 1,
    ))

    def iso_diffs():
        for idx, st in enumerate(states):
            yield (f"state {idx}", ranges[idx] @ st.op - st.op)

    reports.append(_sequence_report(
        "ck-partial-isometry",
        "every state is a partial isometry",
        iso_diffs(), 0, K - 1,
    ))

    def relation_diffs():
        for idx, (st, row) in enumerate(zip(states, bundle.matrix)):
            rhs = sum((r for r, bit in zip(ranges, row) if bit), space.zero())
            yield (f"state {idx}", st.adjoint @ st.op - rhs)

    # The top level has no range projections to split into, so the main
    # relation stops one level short of the truncation.
    reports.append(_sequence_report(
        "ck-relation",
        "each state's support splits into the ranges its matrix row selects",
        relation_diffs(), 2, K - 1,
    ))

    def class_range_diffs():
        for cl, lifted in enumerate(gens.lifts):
            acc = sum((r for r, st in zip(ranges, states) if st.class_index == cl),
                      space.zero())
            yield (f"class {cl}", lifted - acc)

    reports.append(_sequence_report(
        "ck-class-range",
        "each idempotent class is the sum of the ranges of its states",
        class_range_diffs(), 2, K,
    ))

    reports.append(window_report(
        "ck-total-range",
        "the ranges of all states add to the identity",
        sum(ranges, space.zero()) - space.identity(), 2, K,
    ))

    def split_diffs():
        for family in (1, 2):
            for g, x in enumerate(gens.family(family)):
                acc = sum((st.op for st in states
                           if st.family == family and st.generator_index == g),
                          space.zero())
                yield (f"family {family} generator {g}", x - acc)

    reports.append(_sequence_report(
        "ck-generator-split",
        "every generator is the sum of its states",
        split_diffs(), 0, K - 1,
    ))

    def shift_diffs():
        for idx, st in enumerate(states):
            yield (
                f"state {idx}",
                st.op - gens.family(st.family)[st.generator_index] @ supports[idx],
            )

    reports.append(_sequence_report(
        "ck-left-shift",
        "slicing a generator from the left equals shifting by its support "
        "from the right",
        shift_diffs(), 1, K - 1,
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
    attributions, which only pass when the twists agree.
    """
    if len(gens.S) != 1 or len(gens.T) != 1:
        raise ValueError("both generating families must be singletons")
    space = gens.space
    spec = space.spec
    K = space.depth
    u, v = gens.S[0], gens.T[0]
    (u_adj,), (v_adj,) = gens.adjoints[1], gens.adjoints[2]
    (u_range,), (v_range,) = gens.ranges[1], gens.ranges[2]
    base_elems = [spec.algebra_A.basis_element(c) for c in range(spec.algebra_A.dim)]
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
    ]

    def act1(x):
        return space.left_action(1, spec.left_embed_1(x))

    def act2(x):
        return space.left_action(2, spec.left_embed_2(x))

    def commute_diffs(proj):
        for c, x in enumerate(base_elems):
            act = act1(x)
            yield (f"element {c}", proj @ act - act @ proj)

    reports.append(_sequence_report(
        "two-isometry-range-commute-u",
        "the first range projection commutes with the base action",
        commute_diffs(u_range), 1, K,
    ))
    reports.append(_sequence_report(
        "two-isometry-range-commute-v",
        "the second range projection commutes with the base action",
        commute_diffs(v_range), 1, K,
    ))

    # Conjugating by a generator lands in that family's coefficient
    # component, so each case compares against the matching side action.
    cases = [
        ("two-isometry-hom-u-second-twist", u, u_adj, act1, second_twist,
         "conjugation by the first generator implements the second twist"),
        ("two-isometry-hom-v-first-twist", v, v_adj, act2, first_twist,
         "conjugation by the second generator implements the first twist"),
    ]
    for check_id, gen, gen_adj, act, twist, statement in cases:
        def hom_diffs(gen=gen, gen_adj=gen_adj, act=act, twist=twist):
            for c, x in enumerate(base_elems):
                yield (f"element {c}", gen_adj @ act(x) @ gen - act(twist(x)))

        reports.append(_sequence_report(check_id, statement, hom_diffs(), 0, K - 1))
    return reports
