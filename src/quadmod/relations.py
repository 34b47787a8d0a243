"""Operator identities for the creation families on the truncated tower.

Every verifier returns IdentityReport records. An identity is declared on
a source-level window [lo, hi]: the difference of its two sides must
vanish on every block whose source summand sits at a level inside the
window. Outside the window the truncation itself breaks the identity
(the top level has nowhere to create into, and the coefficient level is
not part of the module), so the window is part of the statement rather
than a tolerance.

All comparisons are exact. Identities that quantify over module vectors
or algebra elements are checked on coordinate basis vectors, which
decides them because each slot enters linearly or antilinearly. Each such
identity is one FockFamily expression over all its members at once: the
fixed operators (basis creations and annihilations, side and right
actions, generators) are gathered into families once, with size-1 axes
where a member does not depend on them, and the members that vary are
built with the batched creations, left_actions and expansions. Each
member keeps its own formula. Only the rightmost factors, and the batched
operators, are restricted to the declared window: the source summands of a
product are those of its rightmost factor, so no block inside the window
changes (see the fock module on window pruning).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from functools import cached_property

from .fock import FockDiagonal, FockFamily, FockOperator, FockSpace
from .linalg import ExactMatrix, MatrixStack, gram_adjoint, kron_sum, weighted_sum
from .opalgebra import DiagonalOperatorModel, NotDiagonalModel
from .report import CheckResult, IdentityReport
from .scalars import GaussianRational

_I = GaussianRational(0, 1)


@dataclass
class GeneratorFamily:
    """Creation operators attached to the two generating families, each
    family one FockFamily over its generators, with everything derived
    from them: their adjoints and range projections, the left-action
    operator model and its lifts to the tower.

    Derived operators are built on first use, so a module whose left
    actions are not diagonal raises NotDiagonalModel only where a stage
    reads the model.
    """

    space: FockSpace
    S: FockFamily
    T: FockFamily

    def family(self, family: int) -> FockFamily:
        """The generating creation operators of one family (1 or 2)."""
        return self.S if family == 1 else self.T

    def members(self, family: int) -> ExactMatrix:
        """The generating module vectors of one family, as columns."""
        spec = self.space.spec
        return ExactMatrix.hstack(spec.basis_U if family == 1 else spec.basis_V)

    @cached_property
    def adjoints(self) -> dict:
        """The annihilation operators of each family, in generator order."""
        return {1: self.S.adjoint(), 2: self.T.adjoint()}

    @cached_property
    def ranges(self) -> dict:
        """The range projections x x* of each family, in generator order."""
        return {fam: self.family(fam) @ adjoints for fam, adjoints in self.adjoints.items()}

    def range_sum(self, family: int) -> FockFamily:
        """The sum of one family's range projections, as a one-member family."""
        ranges = self.ranges[family]
        return ranges.sums(ranges.shape[0])

    def expansions(self, family: int, xs: ExactMatrix, window) -> FockFamily:
        """The creation operators of the module vectors in the columns of xs
        rebuilt from the generating family, as a family over the columns:
        the sum over members m_i of their creation followed by the side
        action of the inner products <m_i, x>. The side actions, the
        rightmost factors, are built on the source window only."""
        spec = self.space.spec
        stack = spec.inner_B1 if family == 1 else spec.inner_B2
        members = self.members(family)
        ops = self.family(family)
        return _total(
            ops[i] @ self.space.left_actions(family, stack.pairs(members.take_cols([i]), xs), window)
            for i in range(members.ncols)
        )

    @cached_property
    def model(self) -> DiagonalOperatorModel:
        """The algebra generated by both left actions on the module."""
        h = self.space.summand((1, ()))
        return DiagonalOperatorModel(h.left_B1 + h.left_B2)

    @cached_property
    def lifts(self) -> FockFamily:
        """The lifts of the model's minimal idempotents, in class order; the
        lift of a 0/1 class pattern is lifts.combine of its column."""
        return self.space.lifts(self.model.idempotents)

    @cached_property
    def lift_diagonals(self) -> FockDiagonal:
        """The lifts as diagonals, read once from the lifts built. Every
        lift block is diagonal: the module block is a model idempotent, and
        a block on level n >= 2 is the quotient of L (x) I, which keeps the
        diagonal entries on the coordinates it keeps (on an eliminated
        quotient because express is the identity on them)."""
        return self.lifts.diagonal()

    def lifted(self, x: FockFamily, classes=slice(None)) -> FockFamily:
        """lifts[classes] @ x, member by member: the rows of x's blocks
        scaled by the lift diagonals."""
        return self.lift_diagonals[classes].times(x)

    def lift_commutators(self, x: FockFamily) -> FockFamily:
        """x @ lifts - lifts @ x for an operator family x without batch
        axes, one member per class: x's blocks times the masks of the lift
        diagonals."""
        return self.lift_diagonals.commutator(x)


def make_generators(space: FockSpace) -> GeneratorFamily:
    spec = space.spec
    K = space.depth
    return GeneratorFamily(
        space,
        space.creations(1, ExactMatrix.hstack(spec.basis_U), (0, K)),
        space.creations(2, ExactMatrix.hstack(spec.basis_V), (0, K)),
    )


def _key_name(key) -> str:
    n, word = key
    if not word:
        return f"level {n}"
    return "level {} word {}".format(n, "".join(str(x) for x in word))


def _block_witness(dest, src) -> str:
    return f"nonzero block {_key_name(dest)} <- {_key_name(src)}"


def window_report(check_id, statement, diff, lo, hi) -> IdentityReport:
    """Report whether a difference operator vanishes on the source window."""
    bad = sorted(k for k in diff.blocks if lo <= k[1][0] <= hi)
    if bad:
        return IdentityReport(check_id, statement, (lo, hi), False, _block_witness(*bad[0]))
    return IdentityReport(check_id, statement, (lo, hi), True)


def families_report(check_id, statement, parts, lo, hi) -> IdentityReport:
    """Report whether every member of the families of difference operators
    in parts vanishes on the source window. parts yields (family, label)
    pairs in member order: one pair, or one per operator set when the
    members fall into families over different operator sets. It is read up
    to the first failing family only, and a failure names that family's
    first failing member in C order, by label(*index), and its first bad
    block."""
    for diffs, label in parts:
        failure = diffs.first_failure(lo, hi)
        if failure is not None:
            index, block = failure
            witness = f"{label(*index)}: {_block_witness(*block)}"
            return IdentityReport(check_id, statement, (lo, hi), False, witness)
    return IdentityReport(check_id, statement, (lo, hi), True)


def _annihilation_expected(space: FockSpace, family: int, xs: ExactMatrix) -> FockFamily:
    """The lowering operators predicted by the inner-product formula for the
    module vectors in the columns of xs, as a family over the columns."""
    spec = space.spec
    h = space.summand((1, ()))
    c = xs.ncols
    d1 = spec.algebra_B1.dim
    d2 = spec.algebra_B2.dim
    gram = h.gram_B1 if family == 1 else h.gram_B2
    # row j of rows[t] is x_j^H coords[t], row t of member j's base block
    xs_adj = h.coordinates(xs).H
    rows = [xs_adj @ g for g in gram.coords]
    zero = ExactMatrix.zeros(c, h.dim)
    sides = rows + [zero] * d2 if family == 1 else [zero] * d1 + rows
    base = MatrixStack.regrouped(ExactMatrix.vstack(sides), (d1 + d2, c, h.dim), (1, 0, 2))
    blocks = {((0, ()), (1, ())): base}
    for key in space.keys:
        n, word = key
        if n < 1 or n == space.depth:
            continue
        src_key = (n + 1, (family,) + word)
        src = space.summand(src_key)
        tail = space.summand(key)
        ops = tail.left_B1 if family == 1 else tail.left_B2
        # rows (j, v) of the Kronecker sum are the rows of member j's block,
        # read on the source quotient by include, the column selection reps
        summed = kron_sum(rows, ops).take_cols(src.reps)
        blocks[(key, src_key)] = MatrixStack.regrouped(summed, (c, tail.dim, src.dim), (0, 1, 2))
    return FockFamily(space, (c,), blocks)


def _word_start_projection(space: FockSpace, family: int) -> FockOperator:
    blocks = {}
    for key in space.keys:
        n, word = key
        if n >= 2 and word[0] == family:
            blocks[(key, key)] = ExactMatrix.identity(space.summand(key).dim)
    return FockOperator(space, blocks)


def _lift_samples(space: FockSpace):
    h = space.summand((1, ()))
    first = h.left_B1[0]
    mixed = first + h.left_B2[-1].scale(_I)
    return [("left generator", first), ("complex combination", mixed)]


def _to_ambient(space: FockSpace, L: ExactMatrix) -> ExactMatrix:
    h = space.summand((1, ()))
    return h.ambient(L)


def _total(terms):
    return functools.reduce(operator.add, terms)


def verify_creation_relations(gens: GeneratorFamily) -> list:
    """Structural identities of single creation and annihilation operators."""
    space = gens.space
    spec = space.spec
    K = space.depth
    d = spec.dim
    eye = ExactMatrix.identity(d)
    if d >= 2:
        extra = eye.take_cols([0]) + eye.take_cols([1]).scale(_I)
    else:
        extra = eye.take_cols([0]).scale(GaussianRational(1, 1))
    # Every identity below reuses these families: the creations and
    # annihilations of the basis vectors (and of one extra vector), the
    # right actions of the base algebra basis and the two lifted samples.
    vectors = ExactMatrix.hstack([eye, extra])
    created, annihilated, lowered = {}, {}, {}
    for fam in (1, 2):
        created_ext = space.creations(fam, vectors, (0, K))
        lowered[fam] = created_ext.adjoint()
        created[fam] = created_ext[:d]
        annihilated[fam] = lowered[fam][:d]
    right = space.right_actions(ExactMatrix.identity(spec.algebra_A.dim), (0, K))
    samples = _lift_samples(space)
    ns = len(samples)
    lifted = space.lifts(L for _, L in samples)
    ambients = [_to_ambient(space, L) for _, L in samples]
    # the vectors e_p + i e_q, p < q, and (1 + i) e_0 of the linearity check
    pairs = [(p, q) for p in range(d) for q in range(p + 1, d)]
    combos = ExactMatrix.hstack(
        [eye.take_cols([p]) + eye.take_cols([q]).scale(_I) for p, q in pairs]
        + [eye.take_cols([0]).scale(GaussianRational(1, 1))])
    reports = []

    for family, fam_name in ((1, "1"), (2, "2")):
        alg = spec.algebra_B1 if family == 1 else spec.algebra_B2
        nc = alg.dim
        s_fam, a_fam = created[family], annihilated[family]
        s_col, right_row = s_fam.reshape((d, 1)), right.reshape((1, -1))

        reports.append(families_report(
            f"creation-module-map-{fam_name}",
            "creation commutes with the right coefficient action",
            [(s_col @ right_row - right_row @ s_col,
              lambda p, a: f"vector {p}, coefficient {a}")], 0, K,
        ))

        reports.append(families_report(
            f"annihilation-formula-{fam_name}",
            "the adjoint of creation lowers degree by the inner-product formula",
            [(lowered[family] - _annihilation_expected(space, family, vectors),
              lambda p: f"vector {p}")], 1, K,
        ))

        # creating each combination against the same combination of the
        # basis creations
        reports.append(families_report(
            f"creation-linear-{fam_name}",
            "creation is complex linear in the module vector",
            [(space.creations(family, combos, (0, K - 1)) - s_fam.combine(combos),
              lambda j: f"pair {pairs[j]}" if j < len(pairs) else "complex rescaling")], 0, K - 1,
        ))

        # the vector of member (sample, p, c) is rops[c] @ L_amb @ e_p
        rops = spec.right_B1 if family == 1 else spec.right_B2
        by_sample = ExactMatrix.hstack([rop @ L_amb for L_amb in ambients for rop in rops])
        transformed = by_sample.take_cols(
            [(s * nc + c) * d + p for s in range(ns) for p in range(d) for c in range(nc)])
        side = space.left_actions(family, ExactMatrix.identity(nc), (0, K - 1))
        reports.append(families_report(
            f"creation-lift-intertwine-{fam_name}",
            "creation by a transformed and side-scaled vector factors through "
            "the lifted operator and the side action",
            [(space.creations(family, transformed, (0, K - 1)).reshape((ns, d, nc))
              - lifted.reshape((ns, 1, 1)) @ s_fam.reshape((1, d, 1)) @ side.reshape((1, 1, nc)),
              lambda s, p, c: f"{samples[s][0]}, vector {p}, side element {c}")], 0, K - 1,
        ))

        inner = spec.inner_B1 if family == 1 else spec.inner_B2
        values = ExactMatrix.hstack([inner.pairs(eye, L_amb) for L_amb in ambients])
        reports.append(families_report(
            f"compressed-left-action-{fam_name}",
            "compressing a lifted operator between two creations recovers its "
            "inner-product coefficient as a side action",
            [(a_fam.reshape((1, d, 1)) @ lifted.reshape((ns, 1, 1))
              @ s_fam.window(0, K - 1).reshape((1, 1, d))
              - space.left_actions(family, values, (0, K - 1)).reshape((ns, d, d)),
              lambda s, p, q: f"{samples[s][0]}, vectors ({p}, {q})")], 0, K - 1,
        ))

    reports.append(families_report(
        "cross-family-orthogonal-1",
        "annihilation from the first family kills the second family's range",
        [(annihilated[1].reshape((d, 1)) @ created[2].window(1, K).reshape((1, d)),
          lambda p, q: f"vectors ({p}, {q})")], 1, K,
    ))
    reports.append(families_report(
        "cross-family-orthogonal-2",
        "annihilation from the second family kills the first family's range",
        [(annihilated[2].reshape((1, d)) @ created[1].window(1, K).reshape((d, 1)),
          lambda p, q: f"vectors ({p}, {q})")], 1, K,
    ))

    sum_s = gens.range_sum(1)
    sum_t = gens.range_sum(2)
    p0 = space.level_projection(0)
    p1 = space.level_projection(1)

    reports.append(window_report(
        "range-sum-1",
        "the first family's range sum projects onto the module level and the "
        "summands created through the first tensor",
        sum_s - (p1 + _word_start_projection(space, 1)), 0, K,
    ))
    reports.append(window_report(
        "range-sum-2",
        "the second family's range sum projects onto the module level and the "
        "summands created through the second tensor",
        sum_t - (p1 + _word_start_projection(space, 2)), 0, K,
    ))
    reports.append(window_report(
        "range-sum-total",
        "both range sums and the coefficient projection add to the identity "
        "plus the module-level projection",
        sum_s + sum_t + p0 - (space.identity() + p1), 0, K,
    ))

    for family, fam_name, which in ((1, "1", "first"), (2, "2", "second")):
        reports.append(families_report(
            f"creation-expansion-{fam_name}",
            f"every {which}-family creation expands over the generating family with "
            "inner-product coefficients",
            [(created[family] - gens.expansions(family, eye, (0, K - 1)),
              lambda p: f"vector {p}")], 0, K - 1,
        ))
    return reports


def verify_defining_relations(gens: GeneratorFamily) -> list:
    """The eight relations satisfied by the generating creation operators."""
    space = gens.space
    spec = space.spec
    K = space.depth
    reports = []

    reports.append(window_report(
        "defining-relation-1",
        "the two generating range sums add to the identity",
        gens.range_sum(1) + gens.range_sum(2) - space.identity(), 2, K,
    ))

    def pair_label(i, j):
        return f"pair ({i}, {j})"

    reports.append(families_report(
        "defining-relation-2",
        "generators of the two families have orthogonal ranges",
        [(gens.adjoints[1].reshape((-1, 1)) @ gens.T.window(1, K).reshape((1, -1)),
          pair_label)], 1, K,
    ))

    for number, side, which in ((3, 1, "first"), (4, 2, "second")):
        ops, adj = gens.family(side), gens.adjoints[side]
        members = gens.members(side)
        n = members.ncols
        stack = spec.inner_B1 if side == 1 else spec.inner_B2
        reports.append(families_report(
            f"defining-relation-{number}",
            f"{which}-family compressions recover the {which}-side inner products",
            [(adj.reshape((n, 1)) @ ops.window(0, K - 1).reshape((1, n))
              - space.left_actions(side, stack.pairs(members, members), (0, K - 1)).reshape((n, n)),
              pair_label)], 0, K - 1,
        ))

    def element_label(c, j):
        return f"element {c}, generator {j}"

    statements = {
        (1, 1): "the first side action shifts across first-family generators",
        (1, 2): "the first side action shifts across second-family generators",
        (2, 1): "the second side action shifts across first-family generators",
        (2, 2): "the second side action shifts across second-family generators",
    }
    acts = {side: space.left_actions(side, ExactMatrix.identity(len(ops)), (0, K))
            for side, ops in ((1, spec.left_B1), (2, spec.left_B2))}
    for number, (side, family) in ((5, (1, 1)), (6, (1, 2)), (7, (2, 1)), (8, (2, 2))):
        amb_ops = spec.left_B1 if side == 1 else spec.left_B2
        nc = len(amb_ops)
        members = gens.members(family)
        n = members.ncols
        shifted = ExactMatrix.hstack([op @ members for op in amb_ops])
        reports.append(families_report(
            f"defining-relation-{number}",
            statements[(side, family)],
            [(acts[side].reshape((nc, 1)) @ gens.family(family).window(0, K - 1).reshape((1, n))
              - gens.expansions(family, shifted, (0, K - 1)).reshape((nc, n)),
              element_label)], 0, K - 1,
        ))
    return reports


def represent_module_maps(gens: GeneratorFamily, ambients: list) -> FockFamily:
    """The tower operators assembled from module maps' matrix coefficients
    against the two generating families, as a family over the maps: for
    each family, the generators rebuilt from the mapped members, each
    times its adjoint, summed over the generators."""
    space = gens.space
    r = len(ambients)
    terms = []
    for family in (1, 2):
        members = gens.members(family)
        n = members.ncols
        mapped = ExactMatrix.hstack([L_amb @ members for L_amb in ambients])
        rebuilt = gens.expansions(family, mapped, (0, space.depth)).reshape((r, n))
        terms.append((rebuilt @ gens.adjoints[family].reshape((1, n))).reshape((r * n,)).sums(n))
    return _total(terms)


def _complex_sample(dim: int) -> ExactMatrix:
    values = [GaussianRational(0)] * dim
    values[0] = GaussianRational(1)
    if dim >= 2:
        values[1] = _I
    else:
        values[0] = GaussianRational(1, 1)
    return ExactMatrix.column(values)


def verify_reconstruction_identities(gens: GeneratorFamily) -> list:
    """Rebuilding side actions and their products from the generators."""
    space = gens.space
    spec = space.spec
    K = space.depth
    d = spec.dim
    eye = ExactMatrix.identity(d)
    reports = []

    def scalar_compression(family):
        """Member (p, q): sum_i m_i^* L(<e_p|e_q>) m_i minus the side action
        of the embedded base inner product, L being the other side's action;
        every intermediate family is released on return."""
        other = 2 if family == 1 else 1
        stack = spec.inner_B2 if family == 1 else spec.inner_B1
        embed = spec.left_embed_1 if family == 1 else spec.left_embed_2
        mid = space.left_actions(other, stack.pairs(eye, eye), (0, K))
        ops, adj = gens.family(family), gens.adjoints[family]
        lhs = _total(adj[i] @ mid @ ops[i].window(0, K - 1) for i in range(ops.shape[0]))
        rhs = space.left_actions(family, embed(spec.inner_A.pairs(eye, eye)), (0, K - 1))
        return (lhs - rhs).reshape((d, d))

    for family, fam_name, which in ((1, "1", "first"), (2, "2", "second")):
        reports.append(families_report(
            f"scalar-compression-{fam_name}",
            "averaging the other side's inner-product action over the "
            f"{which} family recovers the embedded base inner product",
            [(scalar_compression(family),
              lambda p, q: f"vectors ({p}, {q})")], 0, K - 1,
        ))

    z = _complex_sample(spec.algebra_B1.dim)
    w = _complex_sample(spec.algebra_B2.dim)
    phi1z = weighted_sum(spec.left_B1, z)
    phi2w = weighted_sum(spec.left_B2, w)
    gram_a = spec.inner_A.scalarized()

    def action(side, b, lo=2):
        """The side action on the summands from level lo to K only: every
        case below is declared on [2, K], and a left factor keeps the rest."""
        return space.left_actions(side, b, (lo, K)).member((0,))

    cases = [
        ("algebra-reconstruction-z",
         "the first side action is rebuilt from its matrix coefficients",
         phi1z, action(1, z)),
        ("algebra-reconstruction-w",
         "the second side action is rebuilt from its matrix coefficients",
         phi2w, action(2, w)),
        ("algebra-reconstruction-zstar",
         "the adjoint of the first side action is rebuilt as the conjugate action",
         gram_adjoint(phi1z, gram_a, gram_a), action(1, z.conj())),
        ("algebra-reconstruction-wstar",
         "the adjoint of the second side action is rebuilt as the conjugate action",
         gram_adjoint(phi2w, gram_a, gram_a), action(2, w.conj())),
        ("algebra-reconstruction-zw",
         "the product of the two side actions is rebuilt from its coefficients",
         phi1z @ phi2w, action(1, z, 0) @ action(2, w)),
        ("algebra-reconstruction-wz",
         "the reversed product of the side actions is rebuilt from its coefficients",
         phi2w @ phi1z, action(2, w, 0) @ action(1, z)),
    ]
    rebuilt = {}
    for check_id, statement, amb, expected in cases:
        rebuilt[check_id] = represent_module_maps(gens, [amb])
        reports.append(window_report(
            check_id, statement, rebuilt[check_id] - expected, 2, K,
        ))

    reports.append(window_report(
        "product-reconstruction",
        "rebuilding a product of side actions agrees with the product of the "
        "rebuilt operators",
        rebuilt["algebra-reconstruction-zw"]
        - rebuilt["algebra-reconstruction-z"] @ rebuilt["algebra-reconstruction-w"],
        2, K,
    ))
    return reports


def verify_module_map_representation(gens: GeneratorFamily) -> list:
    """The coefficient representation of the left-action operator model."""
    space = gens.space
    spec = space.spec
    K = space.depth
    try:
        model = gens.model
    except NotDiagonalModel as exc:
        return [CheckResult(
            "module-map-model",
            "the two left actions are simultaneously diagonal in the module basis",
            False,
            str(exc),
        )]
    reports = []
    ambients = [_to_ambient(space, E) for E in model.idempotents]
    represented = represent_module_maps(gens, ambients)
    ncl = len(ambients)
    # per family, coordinate c of <m_i|L m_j> for every class L and pair
    # (i, j) of members, as row c with columns (class, i, j)
    values = {}
    for family in (1, 2):
        members = gens.members(family)
        stack = spec.inner_B1 if family == 1 else spec.inner_B2
        values[family] = ExactMatrix.hstack([stack.pairs(members, L_amb @ members)
                                             for L_amb in ambients])
    n = gens.S.shape[0]

    # The represented operator doubles on the module level, where both
    # generating families rebuild it at once, so compression is declared
    # from source level 1 up.
    reports.append(families_report(
        "module-map-compression",
        "compressing a represented operator between first-family generators "
        "returns its matrix coefficient",
        [(gens.adjoints[1].reshape((1, n, 1)) @ represented.reshape((ncl, 1, 1))
          @ gens.S.window(1, K - 1).reshape((1, 1, n))
          - space.left_actions(1, values[1], (1, K - 1)).reshape((ncl, n, n)),
          lambda cl, a, b: f"class {cl}, generators ({a}, {b})")], 1, K - 1,
    ))

    reports.append(window_report(
        "module-map-multiplicative",
        "representation turns operator products into operator products",
        represent_module_maps(gens, [ambients[0] @ ambients[-1]])
        - represented[0] @ represented[-1],
        2, K,
    ))

    # row cl of the coefficient matrix holds every coefficient of class cl:
    # member c of a regrouped values matrix is its coordinate c, one row
    # per class
    blocks = []
    for vals in values.values():
        d = vals.nrows
        per_coord = MatrixStack.regrouped(vals, (d, ncl, vals.ncols // ncl), (0, 1, 2))
        blocks += [per_coord.member((d,), (c,)) for c in range(d)]
    coeff = ExactMatrix.hstack(blocks)
    rank = coeff.rank()
    reports.append(CheckResult(
        "module-map-injective",
        "distinct model operators have distinct coefficient families",
        rank == model.rank,
        "" if rank == model.rank else f"coefficient rank {rank} of {model.rank}",
    ))
    return reports


def _span_rank(ops) -> int:
    keys = sorted({k for op in ops for k in op.blocks})
    if not keys:
        return 0
    rows = []
    for op in ops:
        pieces = []
        for dest, src in keys:
            m = op.block(dest, src)
            pieces.extend(m.take_rows([i]) for i in range(m.nrows))
        rows.append(ExactMatrix.hstack(pieces))
    return ExactMatrix.vstack(rows).rank()


def core_filtration_dims(gens: GeneratorFamily, max_length: int) -> list[int]:
    """Dimensions of the degree-zero corners spanned by two-sided words of
    each length, conjugating the operator model, at this truncation depth."""
    space = gens.space
    if max_length >= space.depth:
        raise ValueError("word length must stay below the truncation depth")
    alphabet = [fam.member((i,)) for fam in (gens.S, gens.T) for i in range(fam.shape[0])]
    lifts = [gens.lifts.member((c,)) for c in range(gens.lifts.shape[0])]
    dims = []
    words = [space.identity()]
    for n in range(max_length + 1):
        if n > 0:
            words = [g @ wrd for g in alphabet for wrd in words]
        adjoints = [wrd.adjoint() for wrd in words]
        ops = [w1 @ e @ w2 for w1 in words for e in lifts for w2 in adjoints]
        dims.append(_span_rank([space.degree_zero_part(op) for op in ops]))
    return dims


def full_identity_suite(gens: GeneratorFamily) -> list:
    """Every identity verifier, in declaration order."""
    reports = []
    reports.extend(verify_creation_relations(gens))
    reports.extend(verify_defining_relations(gens))
    reports.extend(verify_reconstruction_identities(gens))
    reports.extend(verify_module_map_representation(gens))
    return reports
