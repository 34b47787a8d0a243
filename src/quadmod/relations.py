"""Operator identities for the creation families on the truncated tower.

Every verifier returns CheckResult records, an identity's with its
window. An identity is declared on a source-level window [lo, hi]: the
difference of its two sides must vanish on every block whose source
summand sits at a level inside the window. Outside the window the
truncation itself breaks the identity (the top level has nowhere to
create into, and the coefficient level is not part of the module), so
the window is part of the statement rather than a tolerance.

All comparisons are exact. Identities that quantify over module vectors
or algebra elements are checked on coordinate basis vectors, which
decides them because each slot enters linearly or antilinearly. Each such
identity is one FockOperator expression over all its members at once: the
fixed operators (basis creations and annihilations, side and right
actions, generators) are gathered into families once, with size-1 axes
where a member does not depend on them, and the members that vary are
built with the batched creations and left_actions. Each member keeps its
own formula. Only the rightmost factors, and the batched side actions,
are restricted to the declared window: the source summands of a product
are those of its rightmost factor, so no block inside the window changes
(see the fock module on window pruning).

The side action phi is linear, so every operator rebuilt from a generating
family S_1, ..., S_n is a combination of one basis family, with phi(e_c)
the action of side basis element c and <.|.>_c coordinate c of the side
inner product:

* the creation of x is sum_{i,c} <m_i|x>_c S_i phi(e_c), a combination of
  the expansion basis S_i phi(e_c);
* a module map L is represented by sum_{i,j,c} <m_j|L m_i>_c
  S_j phi(e_c) S_i*, a combination of the representation basis
  S_j phi(e_c) S_i*. The coefficients are quadmodule.compressions of the
  family's members by the maps, and the suite represents all its module
  maps in one call, whose coefficients the checks that read them reuse;
* the scalar compression sum_i S_i* phi'(<e_p|e_q>') S_i, phi' being the
  other side's action, is the combination of the members S_i* phi'(e_c) S_i
  with the coordinates of <e_p|e_q>'.

Each combination is one exact product per block (FockOperator.combine) and
moving it outside the products changes no entry. Restricting a basis family
to a window restricts its rightmost factor, as above.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .fock import FockDiagonal, FockOperator, FockSpace
from .linalg import ExactMatrix, gram_adjoint, kron_sum_entries, regroup
from .opalgebra import DiagonalOperatorModel, NotDiagonalModel
from .quadmodule import acted_columns, compressions
from .report import CheckResult
from .scalars import GaussianRational

_I = GaussianRational(0, 1)


@dataclass
class GeneratorFamily:
    """Creation operators attached to the two generating families, each
    family one FockOperator over its generators, with everything derived
    from them: their adjoints and range projections, the expansion basis
    that expansions combine (see the module docstring), the left-action
    operator model and its lifts to the tower.

    Derived operators are built on first use, so a module whose left
    actions are not diagonal raises NotDiagonalModel only where a stage
    reads the model.
    """

    space: FockSpace
    S: FockOperator
    T: FockOperator

    def family(self, family: int) -> FockOperator:
        """The generating creation operators of one family (1 or 2)."""
        return self.S if family == 1 else self.T

    def members(self, family: int) -> ExactMatrix:
        """The generating module vectors of one family, as columns."""
        return self.space.spec.families[family]

    @cached_property
    def adjoints(self) -> dict:
        """The annihilation operators of each family, in generator order."""
        return {1: self.S.adjoint(), 2: self.T.adjoint()}

    @cached_property
    def ranges(self) -> dict:
        """The range projections x x* of each family, in generator order."""
        return {fam: self.family(fam) @ adjoints for fam, adjoints in self.adjoints.items()}

    def range_sum(self, family: int) -> FockOperator:
        """The sum of one family's range projections, as the one member of
        batch shape (1,)."""
        ranges = self.ranges[family]
        return ranges.sums(ranges.shape[0])

    def inner(self, family: int):
        """The side-algebra-valued inner product of one family's side."""
        spec = self.space.spec
        return spec.inner_B1 if family == 1 else spec.inner_B2

    @cached_property
    def side_bases(self) -> dict:
        """Per side (1 or 2), the actions of the side algebra's basis
        elements on the whole tower, in basis order."""
        space = self.space
        return {side: space.left_actions(side, ExactMatrix.identity(self.inner(side).num_coords),
                                         (0, space.depth))
                for side in (1, 2)}

    @cached_property
    def expansion_bases(self) -> dict:
        """Per family, the members (i, c), i slowest, S_i phi(e_c) on the
        whole tower: generator i followed by the side action of basis
        element c. Every expansion is a combination of them."""
        return {fam: (self.family(fam).reshape((-1, 1)) @ self.side_bases[fam].reshape((1, -1)))
                .reshape((-1,)) for fam in (1, 2)}

    def expansions(self, family: int, xs: ExactMatrix, window) -> FockOperator:
        """The creation operators of the module vectors in the columns of xs
        rebuilt from the generating family, one member per column:
        sum_i S_i phi(<m_i|x>), the combination of the expansion basis with
        coefficient (i, c) the coordinate c of <m_i|x>. The side actions,
        the rightmost factors, are kept on the source window only."""
        stack, members = self.inner(family), self.members(family)
        n, nc, m = members.ncols, stack.num_coords, xs.ncols
        # column (i, k) of the pairs holds <m_i|x_k>; row (i, c) of coeffs
        coeffs = regroup(stack.pairs(members, xs), (nc, n, m), (1, 0, 2), n * nc, m)
        return self.expansion_bases[family].window(*window).combine(coeffs)

    @cached_property
    def model(self) -> DiagonalOperatorModel:
        """The algebra generated by both left actions on the module."""
        h = self.space.summand((1, ()))
        # both batches, one after the other along the batch axis
        rows = ExactMatrix.vstack([h.left_B1.flattened(), h.left_B2.flattened()])
        return DiagonalOperatorModel(rows.regrouped((rows.nrows, h.dim, h.dim), (0, 1, 2)))

    @cached_property
    def lifts(self) -> FockOperator:
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

    def lifted(self, x: FockOperator, classes=slice(None)) -> FockOperator:
        """lifts[classes] @ x, member by member: the rows of x's blocks
        scaled by the lift diagonals."""
        return self.lift_diagonals[classes].times(x)

    def lift_commutators(self, x: FockOperator) -> FockOperator:
        """x @ lifts - lifts @ x for an operator family x without batch
        axes, one member per class: x's blocks times the masks of the lift
        diagonals."""
        return self.lift_diagonals.commutator(x)


def make_generators(space: FockSpace) -> GeneratorFamily:
    families = space.spec.families
    return GeneratorFamily(space, space.creations(1, families[1]), space.creations(2, families[2]))


def _key_name(key) -> str:
    n, word = key
    if not word:
        return f"level {n}"
    return "level {} word {}".format(n, "".join(str(x) for x in word))


def _block_witness(dest, src) -> str:
    return f"nonzero block {_key_name(dest)} <- {_key_name(src)}"


def window_report(check_id, statement, diff, lo, hi) -> CheckResult:
    """Report whether a difference operator, one member, vanishes on the
    source window; a failure names its first bad block."""
    failure = diff.first_failure(lo, hi)
    if failure is not None:
        return CheckResult(check_id, statement, False, _block_witness(*failure[1]), (lo, hi))
    return CheckResult(check_id, statement, True, window=(lo, hi))


def families_report(check_id, statement, parts, lo, hi) -> CheckResult:
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
            return CheckResult(check_id, statement, False, witness, (lo, hi))
    return CheckResult(check_id, statement, True, window=(lo, hi))


def _annihilation_expected(space: FockSpace, family: int, xs: ExactMatrix) -> FockOperator:
    """The lowering operators predicted by the inner-product formula for the
    module vectors in the columns of xs, one member per column."""
    spec = space.spec
    h = space.summand((1, ()))
    c = xs.ncols
    d1 = spec.algebra_B1.dim
    d2 = spec.algebra_B2.dim
    gram = h.gram_B1 if family == 1 else h.gram_B2
    nc = gram.num_coords
    # row j of member t of rows is x_j^H grams[t], row t of member j's base
    # block among the rows of the family's side
    rows = h.coordinates(xs).H @ gram.grams
    start = 0 if family == 1 else d1
    base = rows.regrouped((nc, c, h.dim), (1, 0, 2)).scattered(
        range(start, start + nc), range(h.dim), (d1 + d2, h.dim))
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
        # read on the source quotient by include, the column selection reps,
        # and only those columns are formed
        summed = kron_sum_entries(rows, ops, range(c * tail.dim), src.reps)
        blocks[(key, src_key)] = summed.regrouped((c, tail.dim, src.dim), (0, 1, 2))
    return FockOperator(space, (c,), blocks)


def _lift_samples(space: FockSpace):
    """The names of the sample module operators the lift identities are
    checked on, and the operators as one batch."""
    h = space.summand((1, ()))
    first = h.left_B1.take(h.left_B1.batch_shape, 0)
    mixed = first + h.left_B2.take(h.left_B2.batch_shape, -1).scale(_I)
    return ["left generator", "complex combination"], ExactMatrix.stack([first, mixed], (2,))


def verify_creation_relations(gens: GeneratorFamily) -> list:
    """Structural identities of single creation and annihilation operators."""
    space = gens.space
    spec = space.spec
    K = space.depth
    d = spec.dim
    eye = ExactMatrix.identity(d)
    # Every identity below reuses these families: the creations and
    # annihilations of the basis vectors (and of one extra vector), the
    # right actions of the base algebra basis and the two lifted samples.
    vectors = ExactMatrix.hstack([eye, _complex_sample(d)])
    created, annihilated, lowered = {}, {}, {}
    for fam in (1, 2):
        created_ext = space.creations(fam, vectors)
        lowered[fam] = created_ext.adjoint()
        created[fam] = created_ext[:d]
        annihilated[fam] = lowered[fam][:d]
    right = space.right_actions(ExactMatrix.identity(spec.algebra_A.dim), (0, K))
    names, samples = _lift_samples(space)
    ns = len(names)
    lifted = space.lifts(samples)
    ambients = space.summand((1, ())).ambient(samples)
    # column (s, q) is L_s e_q
    columns = regroup(ambients.flattened(), (ns, d, d), (1, 0, 2), d, ns * d)
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
            [(space.creations(family, combos) - s_fam.combine(combos),
              lambda j: f"pair {pairs[j]}" if j < len(pairs) else "complex rescaling")], 0, K - 1,
        ))

        # column (c, s, p) of the acted columns, rops[c] @ L_s @ e_p, is the
        # vector of member (s, p, c)
        rops = spec.right_B1 if family == 1 else spec.right_B2
        transformed = regroup(acted_columns(rops, columns), (d, nc, ns * d), (0, 2, 1), d,
                              ns * d * nc)
        side = gens.side_bases[family].window(0, K - 1)
        reports.append(families_report(
            f"creation-lift-intertwine-{fam_name}",
            "creation by a transformed and side-scaled vector factors through "
            "the lifted operator and the side action",
            [(space.creations(family, transformed).reshape((ns, d, nc))
              - lifted.reshape((ns, 1, 1)) @ s_fam.reshape((1, d, 1)) @ side.reshape((1, 1, nc)),
              lambda s, p, c: f"{names[s]}, vector {p}, side element {c}")], 0, K - 1,
        ))

        inner = gens.inner(family)
        # column (p, s, q) of the pairs holds <e_p|L_s e_q>; column (s, p, q) of values
        values = regroup(inner.pairs(eye, columns), (nc, d, ns, d), (0, 2, 1, 3), nc, ns * d * d)
        reports.append(families_report(
            f"compressed-left-action-{fam_name}",
            "compressing a lifted operator between two creations recovers its "
            "inner-product coefficient as a side action",
            [(a_fam.reshape((1, d, 1)) @ lifted.reshape((ns, 1, 1))
              @ s_fam.window(0, K - 1).reshape((1, 1, d))
              - space.left_actions(family, values, (0, K - 1)).reshape((ns, d, d)),
              lambda s, p, q: f"{names[s]}, vectors ({p}, {q})")], 0, K - 1,
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
    p0 = space.projection(space.keys_at_level(0))
    p1 = space.projection(space.keys_at_level(1))
    # the summands of level 2 and above whose word starts with each family
    starts = {fam: space.projection(k for k in space.keys if k[0] >= 2 and k[1][0] == fam)
              for fam in (1, 2)}

    reports.append(window_report(
        "range-sum-1",
        "the first family's range sum projects onto the module level and the "
        "summands created through the first tensor",
        sum_s - (p1 + starts[1]), 0, K,
    ))
    reports.append(window_report(
        "range-sum-2",
        "the second family's range sum projects onto the module level and the "
        "summands created through the second tensor",
        sum_t - (p1 + starts[2]), 0, K,
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
        stack = gens.inner(side)
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
    acts = gens.side_bases
    for number, (side, family) in ((5, (1, 1)), (6, (1, 2)), (7, (2, 1)), (8, (2, 2))):
        amb_ops = spec.left_B1 if side == 1 else spec.left_B2
        nc = amb_ops.batch_shape[0]
        members = gens.members(family)
        n = members.ncols
        shifted = acted_columns(amb_ops, members)
        reports.append(families_report(
            f"defining-relation-{number}",
            statements[(side, family)],
            [(acts[side].reshape((nc, 1)) @ gens.family(family).window(0, K - 1).reshape((1, n))
              - gens.expansions(family, shifted, (0, K - 1)).reshape((nc, n)),
              element_label)], 0, K - 1,
        ))
    return reports


def represent_module_maps(gens: GeneratorFamily, maps: ExactMatrix):
    """The tower operators assembled from the matrix coefficients of module
    maps, one batch along one axis in ambient module coordinates, against
    the two generating families, one member per map: the sum over both
    families of sum_{i,j} S_j phi(<m_j|L m_i>) S_i*, the combination of the
    representation basis with coefficient (j, c, i) the coordinate c of
    <m_j|L m_i>. Returns the operators and, per family, the coefficients
    it combined, column l holding those of map l in rows (j, c, i). The
    basis, S_j phi(e_c) S_i* with j slowest, is built per family inside the
    call and is not bound, so one family's basis is freed before the next
    one's is built."""
    r = maps.batch_shape[0]
    terms, coeffs = [], {}
    for family in (1, 2):
        members = gens.members(family)
        stack = gens.inner(family)
        n, nc = members.ncols, stack.num_coords
        # column (j, l, i) of the compressions holds <m_j|L_l m_i>
        coeffs[family] = regroup(compressions(members, stack, maps), (nc, n, r, n), (1, 0, 3, 2),
                                 n * nc * n, r)
        terms.append((gens.expansion_bases[family].reshape((-1, 1))
                      @ gens.adjoints[family].reshape((1, -1))).reshape((-1,))
                     .combine(coeffs[family]))
    return terms[0] + terms[1], coeffs


def scalar_compressions(gens: GeneratorFamily, family: int) -> FockOperator:
    """Member (p, q), p slowest: sum_i S_i* L(<e_p|e_q>) S_i on source
    levels 0 to K - 1, L being the other side's action and <.|.> its inner
    product, as the combination of the nc members sum_i S_i* L(e_c) S_i
    with the coordinates of the inner products."""
    K = gens.space.depth
    other = 2 if family == 1 else 1
    stack = gens.inner(other)
    eye = ExactMatrix.identity(gens.space.spec.dim)
    ops, adj = gens.family(family), gens.adjoints[family]
    # member (i, c) is S_i* L(e_c) S_i; each coordinate c repeats once per i
    terms = (adj.reshape((-1, 1)) @ gens.side_bases[other].reshape((1, -1))
             @ ops.window(0, K - 1).reshape((-1, 1))).reshape((-1,))
    pairs = stack.pairs(eye, eye)
    return terms.combine(ExactMatrix.vstack([pairs] * ops.shape[0]))


def _complex_sample(dim: int) -> ExactMatrix:
    values = [GaussianRational(0)] * dim
    values[0] = GaussianRational(1)
    if dim >= 2:
        values[1] = _I
    else:
        values[0] = GaussianRational(1, 1)
    return ExactMatrix.column(values)


def verify_module_map_identities(gens: GeneratorFamily) -> list:
    """Rebuilding side actions, their products and the left-action operator
    model from matrix coefficients, every module map rebuilt by one
    represent_module_maps call."""
    space = gens.space
    spec = space.spec
    K = space.depth
    d = spec.dim
    eye = ExactMatrix.identity(d)
    try:
        model, refused = gens.model, None
    except NotDiagonalModel as exc:
        model, refused = None, CheckResult(
            "module-map-model",
            "the two left actions are simultaneously diagonal in the module basis",
            False,
            str(exc),
        )
    reports = []

    for family, fam_name, which in ((1, "1", "first"), (2, "2", "second")):
        embed = spec.left_embed_1 if family == 1 else spec.left_embed_2
        # the right side is not bound, so it is not held while the maps
        # below are represented
        reports.append(families_report(
            f"scalar-compression-{fam_name}",
            "averaging the other side's inner-product action over the "
            f"{which} family recovers the embedded base inner product",
            [((scalar_compressions(gens, family)
               - space.left_actions(family, embed(spec.inner_A.pairs(eye, eye)), (0, K - 1)))
              .reshape((d, d)), lambda p, q: f"vectors ({p}, {q})")], 0, K - 1,
        ))

    z = _complex_sample(spec.algebra_B1.dim)
    w = _complex_sample(spec.algebra_B2.dim)
    phi1z = spec.left_B1.combine(z).take((1,), 0)
    phi2w = spec.left_B2.combine(w).take((1,), 0)
    gram_a = spec.inner_A.scalarized()
    # both adjoints from one inverse of the scalar Gram
    adjoints = gram_adjoint(ExactMatrix.stack([phi1z, phi2w], (2,)), gram_a, gram_a)

    def action(side, b, lo=2):
        """The side action on the summands from level lo to K only: every
        case below is declared on [2, K], and a left factor keeps the rest."""
        return space.left_actions(side, b, (lo, K))[0]

    # each case's expected operator is built when its report is made, so
    # none is held while the maps are represented
    cases = [
        ("algebra-reconstruction-z",
         "the first side action is rebuilt from its matrix coefficients",
         phi1z, lambda: action(1, z)),
        ("algebra-reconstruction-w",
         "the second side action is rebuilt from its matrix coefficients",
         phi2w, lambda: action(2, w)),
        ("algebra-reconstruction-zstar",
         "the adjoint of the first side action is rebuilt as the conjugate action",
         adjoints.take((2,), 0), lambda: action(1, z.conj())),
        ("algebra-reconstruction-wstar",
         "the adjoint of the second side action is rebuilt as the conjugate action",
         adjoints.take((2,), 1), lambda: action(2, w.conj())),
        ("algebra-reconstruction-zw",
         "the product of the two side actions is rebuilt from its coefficients",
         phi1z @ phi2w, lambda: action(1, z, 0) @ action(2, w)),
        ("algebra-reconstruction-wz",
         "the reversed product of the side actions is rebuilt from its coefficients",
         phi2w @ phi1z, lambda: action(2, w, 0) @ action(1, z)),
    ]
    # the maps of the cases, then, with a model, the class maps and the
    # product of the first and the last
    first = len(cases)
    maps = ExactMatrix.stack([amb for _, _, amb, _ in cases], (first,))
    if model is not None:
        ambients = space.summand((1, ())).ambient(model.idempotents)
        ncl = model.rank
        product = ambients.take((ncl,), [0]) @ ambients.take((ncl,), [-1])
        rows = ExactMatrix.vstack([maps.flattened(), ambients.flattened(), product.flattened()])
        maps = rows.regrouped((first + ncl + 1, d, d), (0, 1, 2))
    represented, coeffs = represent_module_maps(gens, maps)
    rebuilt = {}
    for k, (check_id, statement, _, expected) in enumerate(cases):
        rebuilt[check_id] = represented[k]
        reports.append(window_report(
            check_id, statement, rebuilt[check_id] - expected(), 2, K,
        ))

    reports.append(window_report(
        "product-reconstruction",
        "rebuilding a product of side actions agrees with the product of the "
        "rebuilt operators",
        rebuilt["algebra-reconstruction-zw"]
        - rebuilt["algebra-reconstruction-z"] @ rebuilt["algebra-reconstruction-w"],
        2, K,
    ))
    if model is None:
        return reports + [refused]

    classes = range(first, first + ncl)
    represented_product, represented = represented[classes.stop], represented[first:classes.stop]
    n, nc = gens.S.shape[0], gens.inner(1).num_coords
    # coordinate c of <m_i|L m_j> for every class L and pair (i, j) of
    # first-family members, as row c with columns (class, i, j)
    values = regroup(coeffs[1].take_cols(classes), (n, nc, n, ncl), (1, 3, 0, 2), nc, ncl * n * n)

    # The represented operator doubles on the module level, where both
    # generating families rebuild it at once, so compression is declared
    # from source level 1 up.
    reports.append(families_report(
        "module-map-compression",
        "compressing a represented operator between first-family generators "
        "returns its matrix coefficient",
        [(gens.adjoints[1].reshape((1, n, 1)) @ represented.reshape((ncl, 1, 1))
          @ gens.S.window(1, K - 1).reshape((1, 1, n))
          - space.left_actions(1, values, (1, K - 1)).reshape((ncl, n, n)),
          lambda cl, a, b: f"class {cl}, generators ({a}, {b})")], 1, K - 1,
    ))

    reports.append(window_report(
        "module-map-multiplicative",
        "representation turns operator products into operator products",
        represented_product - represented[0] @ represented[-1],
        2, K,
    ))

    # column l of the coefficients holds every coefficient of class l
    rank = ExactMatrix.vstack(coeffs.values()).take_cols(classes).rank()
    reports.append(CheckResult(
        "module-map-injective",
        "distinct model operators have distinct coefficient families",
        rank == model.rank,
        "" if rank == model.rank else f"coefficient rank {rank} of {model.rank}",
    ))
    return reports


def full_identity_suite(gens: GeneratorFamily) -> list:
    """Every identity verifier, in declaration order."""
    reports = []
    reports.extend(verify_creation_relations(gens))
    reports.extend(verify_defining_relations(gens))
    reports.extend(verify_module_map_identities(gens))
    return reports
