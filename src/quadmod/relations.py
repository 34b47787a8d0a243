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
decides them because each slot enters linearly or antilinearly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .fock import FockOperator, FockSpace
from .linalg import ExactMatrix, gram_adjoint, kron_sum, weighted_sum
from .opalgebra import DiagonalOperatorModel, NotDiagonalModel
from .report import CheckResult, IdentityReport
from .scalars import GaussianRational

_I = GaussianRational(0, 1)


@dataclass
class GeneratorFamily:
    """Creation operators attached to the two generating families, with
    everything derived from them: their adjoints and range projections,
    the left-action operator model and its lifts to the tower.

    Derived operators are built on first use, so a module whose left
    actions are not diagonal raises NotDiagonalModel only where a stage
    reads the model.
    """

    space: FockSpace
    S: list
    T: list

    @property
    def depth(self) -> int:
        return self.space.depth

    def family(self, family: int) -> list:
        """The generating creation operators of one family (1 or 2)."""
        return self.S if family == 1 else self.T

    @cached_property
    def adjoints(self) -> dict:
        """The annihilation operators of each family, in generator order."""
        return {1: [s.adjoint() for s in self.S], 2: [t.adjoint() for t in self.T]}

    @cached_property
    def ranges(self) -> dict:
        """The range projections x x* of each family, in generator order."""
        return {fam: [x @ x_adj for x, x_adj in zip(self.family(fam), adjoints)]
                for fam, adjoints in self.adjoints.items()}

    def expand(self, family: int, xi: ExactMatrix) -> FockOperator:
        """The creation operator of the module vector xi rebuilt from the
        generating family: the sum over members m_i of their creation
        followed by the side action of the inner product <m_i, xi>."""
        spec = self.space.spec
        members = spec.basis_U if family == 1 else spec.basis_V
        stack = spec.inner_B1 if family == 1 else spec.inner_B2
        out = self.space.zero()
        for op, m in zip(self.family(family), members):
            out = out + op @ self.space.left_action(family, stack.pair(m, xi))
        return out

    @cached_property
    def model(self) -> DiagonalOperatorModel:
        """The algebra generated by both left actions on the module."""
        h = self.space.summand((1, ()))
        return DiagonalOperatorModel(h.left_B1 + h.left_B2)

    @cached_property
    def lifts(self) -> list:
        """The lifts of the model's minimal idempotents, in class order."""
        return [self.space.lift(e) for e in self.model.idempotents]

    def lift_projection(self, pattern) -> FockOperator:
        """The lift of the model projection with a 0/1 class pattern: lift
        is linear, so this is the sum of the selected class lifts."""
        out = self.space.zero()
        for bit, lifted in zip(pattern, self.lifts):
            if bit:
                out = out + lifted
        return out


def make_generators(space: FockSpace) -> GeneratorFamily:
    spec = space.spec
    return GeneratorFamily(
        space,
        [space.creation(1, u) for u in spec.basis_U],
        [space.creation(2, v) for v in spec.basis_V],
    )


def _key_name(key) -> str:
    n, word = key
    if not word:
        return f"level {n}"
    return "level {} word {}".format(n, "".join(str(x) for x in word))


def window_report(check_id, statement, diff, lo, hi) -> IdentityReport:
    """Report whether a difference operator vanishes on the source window."""
    bad = sorted(k for k in diff.blocks if lo <= k[1][0] <= hi)
    if bad:
        dest, src = bad[0]
        witness = f"nonzero block {_key_name(dest)} <- {_key_name(src)}"
        return IdentityReport(check_id, statement, (lo, hi), False, witness)
    return IdentityReport(check_id, statement, (lo, hi), True)


def _family_report(check_id, statement, labelled_diffs, lo, hi) -> IdentityReport:
    for label, diff in labelled_diffs:
        rep = window_report(check_id, statement, diff, lo, hi)
        if not rep.passed:
            rep.witness = f"{label}: {rep.witness}"
            return rep
    return IdentityReport(check_id, statement, (lo, hi), True)


def _basis_columns(dim: int) -> list:
    eye = ExactMatrix.identity(dim)
    return [eye.take_cols([p]) for p in range(dim)]


def _annihilation_expected(space: FockSpace, family: int, xi: ExactMatrix) -> FockOperator:
    """The lowering operator predicted by the inner-product formula."""
    spec = space.spec
    h = space.summand((1, ()))
    xi_q = h.express @ xi
    d1 = spec.algebra_B1.dim
    d2 = spec.algebra_B2.dim
    gram = h.gram_B1 if family == 1 else h.gram_B2
    rows = [xi_q.H @ g for g in gram.coords]
    if family == 1:
        base = ExactMatrix.vstack(rows + [ExactMatrix.zeros(d2, h.dim)])
    else:
        base = ExactMatrix.vstack([ExactMatrix.zeros(d1, h.dim)] + rows)
    blocks = {((0, ()), (1, ())): base}
    for key in space.keys:
        n, word = key
        if n < 1 or n == space.depth:
            continue
        src_key = (n + 1, (family,) + word)
        src = space.summand(src_key)
        tail = space.summand(key)
        ops = tail.left_B1 if family == 1 else tail.left_B2
        blocks[(key, src_key)] = kron_sum(rows, ops) @ src.include
    return FockOperator(space, blocks)


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
    return h.include @ L @ h.express


def verify_creation_relations(gens: GeneratorFamily) -> list:
    """Structural identities of single creation and annihilation operators."""
    space = gens.space
    spec = space.spec
    K = space.depth
    d = spec.dim
    basis = _basis_columns(d)
    # Every identity below reuses these: the creations and annihilations of
    # the basis vectors, the right actions of the base algebra basis and the
    # two lifted samples.
    created = {fam: [space.creation(fam, xi) for xi in basis] for fam in (1, 2)}
    annihilated = {fam: [s.adjoint() for s in ops] for fam, ops in created.items()}
    right = [
        space.right_action(spec.algebra_A.basis_element(a))
        for a in range(spec.algebra_A.dim)
    ]
    samples = [
        (label, space.lift(L), _to_ambient(space, L)) for label, L in _lift_samples(space)
    ]
    if d >= 2:
        extra = basis[0] + basis[1].scale(_I)
    else:
        extra = basis[0].scale(GaussianRational(1, 1))
    reports = []

    for family, fam_name in ((1, "1"), (2, "2")):
        alg = spec.algebra_B1 if family == 1 else spec.algebra_B2
        side = [space.left_action(family, alg.basis_element(c)) for c in range(alg.dim)]

        def module_map_diffs(fam=family):
            for p, s in enumerate(created[fam]):
                for a, r in enumerate(right):
                    yield (f"vector {p}, coefficient {a}", s @ r - r @ s)

        reports.append(_family_report(
            f"creation-module-map-{fam_name}",
            "creation commutes with the right coefficient action",
            module_map_diffs(), 0, K,
        ))

        def annihilation_diffs(fam=family):
            lowered = annihilated[fam] + [space.creation(fam, extra).adjoint()]
            for p, (xi, s_adj) in enumerate(zip(basis + [extra], lowered)):
                yield (f"vector {p}", s_adj - _annihilation_expected(space, fam, xi))

        reports.append(_family_report(
            f"annihilation-formula-{fam_name}",
            "the adjoint of creation lowers degree by the inner-product formula",
            annihilation_diffs(), 1, K,
        ))

        def linearity_diffs(fam=family):
            ops = created[fam]
            for p in range(d):
                for q in range(p + 1, d):
                    combo = space.creation(fam, basis[p] + basis[q].scale(_I))
                    yield (f"pair ({p}, {q})", combo - (ops[p] + ops[q].scale(_I)))
            scaled = space.creation(fam, basis[0].scale(GaussianRational(1, 1)))
            yield ("complex rescaling", scaled - ops[0].scale(GaussianRational(1, 1)))

        reports.append(_family_report(
            f"creation-linear-{fam_name}",
            "creation is complex linear in the module vector",
            linearity_diffs(), 0, K - 1,
        ))

        right_ops = spec.right_B1 if family == 1 else spec.right_B2

        def intertwine_diffs(fam=family, side=side, rops=right_ops):
            for label, lifted, L_amb in samples:
                for p, xi in enumerate(basis):
                    s_xi = created[fam][p]
                    for c, act in enumerate(side):
                        lhs = space.creation(fam, rops[c] @ (L_amb @ xi))
                        yield (
                            f"{label}, vector {p}, side element {c}",
                            lhs - lifted @ s_xi @ act,
                        )

        reports.append(_family_report(
            f"creation-lift-intertwine-{fam_name}",
            "creation by a transformed and side-scaled vector factors through "
            "the lifted operator and the side action",
            intertwine_diffs(), 0, K - 1,
        ))

        inner = spec.inner_B1 if family == 1 else spec.inner_B2

        def compression_diffs(fam=family, stack=inner):
            for label, lifted, L_amb in samples:
                for p, zeta in enumerate(basis):
                    for q, xi in enumerate(basis):
                        val = stack.pair(zeta, L_amb @ xi)
                        lhs = annihilated[fam][p] @ lifted @ created[fam][q]
                        yield (
                            f"{label}, vectors ({p}, {q})",
                            lhs - space.left_action(fam, val),
                        )

        reports.append(_family_report(
            f"compressed-left-action-{fam_name}",
            "compressing a lifted operator between two creations recovers its "
            "inner-product coefficient as a side action",
            compression_diffs(), 0, K - 1,
        ))

    def cross_diffs(order):
        for p in range(d):
            for q in range(d):
                if order == 1:
                    diff = annihilated[1][p] @ created[2][q]
                else:
                    diff = annihilated[2][q] @ created[1][p]
                yield (f"vectors ({p}, {q})", diff)

    reports.append(_family_report(
        "cross-family-orthogonal-1",
        "annihilation from the first family kills the second family's range",
        cross_diffs(1), 1, K,
    ))
    reports.append(_family_report(
        "cross-family-orthogonal-2",
        "annihilation from the second family kills the first family's range",
        cross_diffs(2), 1, K,
    ))

    sum_s = sum(gens.ranges[1], space.zero())
    sum_t = sum(gens.ranges[2], space.zero())
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

    def expansion_diffs(family):
        for p, xi in enumerate(basis):
            yield (f"vector {p}", created[family][p] - gens.expand(family, xi))

    reports.append(_family_report(
        "creation-expansion-1",
        "every first-family creation expands over the generating family with "
        "inner-product coefficients",
        expansion_diffs(1), 0, K - 1,
    ))
    reports.append(_family_report(
        "creation-expansion-2",
        "every second-family creation expands over the generating family with "
        "inner-product coefficients",
        expansion_diffs(2), 0, K - 1,
    ))
    return reports


def verify_defining_relations(gens: GeneratorFamily) -> list:
    """The eight relations satisfied by the generating creation operators."""
    space = gens.space
    spec = space.spec
    K = space.depth
    reports = []

    total = sum(gens.ranges[1] + gens.ranges[2], space.zero())
    reports.append(window_report(
        "defining-relation-1",
        "the two generating range sums add to the identity",
        total - space.identity(), 2, K,
    ))

    reports.append(_family_report(
        "defining-relation-2",
        "generators of the two families have orthogonal ranges",
        ((f"pair ({j}, {l})", s_adj @ t)
         for j, s_adj in enumerate(gens.adjoints[1]) for l, t in enumerate(gens.T)),
        1, K,
    ))

    def gram_diffs(members, side, stack):
        for i, x_adj in enumerate(gens.adjoints[side]):
            for j, y in enumerate(gens.family(side)):
                val = stack.pair(members[i], members[j])
                yield (f"pair ({i}, {j})", x_adj @ y - space.left_action(side, val))

    reports.append(_family_report(
        "defining-relation-3",
        "first-family compressions recover the first-side inner products",
        gram_diffs(spec.basis_U, 1, spec.inner_B1), 0, K - 1,
    ))
    reports.append(_family_report(
        "defining-relation-4",
        "second-family compressions recover the second-side inner products",
        gram_diffs(spec.basis_V, 2, spec.inner_B2), 0, K - 1,
    ))

    def intertwine_diffs(side, family):
        amb_ops = spec.left_B1 if side == 1 else spec.left_B2
        members = spec.basis_U if family == 1 else spec.basis_V
        alg = spec.algebra_B1 if side == 1 else spec.algebra_B2
        for c in range(alg.dim):
            act = space.left_action(side, alg.basis_element(c))
            for j, (x, m) in enumerate(zip(gens.family(family), members)):
                rhs = gens.expand(family, amb_ops[c] @ m)
                yield (f"element {c}, generator {j}", act @ x - rhs)

    statements = {
        (1, 1): "the first side action shifts across first-family generators",
        (1, 2): "the first side action shifts across second-family generators",
        (2, 1): "the second side action shifts across first-family generators",
        (2, 2): "the second side action shifts across second-family generators",
    }
    for number, (side, family) in ((5, (1, 1)), (6, (1, 2)), (7, (2, 1)), (8, (2, 2))):
        reports.append(_family_report(
            f"defining-relation-{number}",
            statements[(side, family)],
            intertwine_diffs(side, family), 0, K - 1,
        ))
    return reports


def represent_module_map(gens: GeneratorFamily, L_amb: ExactMatrix) -> FockOperator:
    """The tower operator assembled from a module map's matrix coefficients
    against the two generating families."""
    spec = gens.space.spec
    out = gens.space.zero()
    for family, members in ((1, spec.basis_U), (2, spec.basis_V)):
        for m, m_adj in zip(members, gens.adjoints[family]):
            out = out + gens.expand(family, L_amb @ m) @ m_adj
    return out


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
    basis = _basis_columns(spec.dim)
    reports = []

    def scalar_compression_diffs(family):
        ops = gens.family(family)
        other = 2 if family == 1 else 1
        stack = spec.inner_B2 if family == 1 else spec.inner_B1
        embed = spec.left_embed_1 if family == 1 else spec.left_embed_2
        for p, xi in enumerate(basis):
            for q, eta in enumerate(basis):
                mid = space.left_action(other, stack.pair(xi, eta))
                lhs = space.zero()
                for op, op_adj in zip(ops, gens.adjoints[family]):
                    lhs = lhs + op_adj @ mid @ op
                rhs = space.left_action(family, embed(spec.inner_A.pair(xi, eta)))
                yield (f"vectors ({p}, {q})", lhs - rhs)

    reports.append(_family_report(
        "scalar-compression-1",
        "averaging the other side's inner-product action over the first "
        "family recovers the embedded base inner product",
        scalar_compression_diffs(1), 0, K - 1,
    ))
    reports.append(_family_report(
        "scalar-compression-2",
        "averaging the other side's inner-product action over the second "
        "family recovers the embedded base inner product",
        scalar_compression_diffs(2), 0, K - 1,
    ))

    z = _complex_sample(spec.algebra_B1.dim)
    w = _complex_sample(spec.algebra_B2.dim)
    phi1z = weighted_sum(spec.left_B1, z)
    phi2w = weighted_sum(spec.left_B2, w)
    gram_a = spec.inner_A.scalarized()

    cases = [
        ("algebra-reconstruction-z",
         "the first side action is rebuilt from its matrix coefficients",
         phi1z, space.left_action(1, z)),
        ("algebra-reconstruction-w",
         "the second side action is rebuilt from its matrix coefficients",
         phi2w, space.left_action(2, w)),
        ("algebra-reconstruction-zstar",
         "the adjoint of the first side action is rebuilt as the conjugate action",
         gram_adjoint(phi1z, gram_a, gram_a), space.left_action(1, z.conj())),
        ("algebra-reconstruction-wstar",
         "the adjoint of the second side action is rebuilt as the conjugate action",
         gram_adjoint(phi2w, gram_a, gram_a), space.left_action(2, w.conj())),
        ("algebra-reconstruction-zw",
         "the product of the two side actions is rebuilt from its coefficients",
         phi1z @ phi2w, space.left_action(1, z) @ space.left_action(2, w)),
        ("algebra-reconstruction-wz",
         "the reversed product of the side actions is rebuilt from its coefficients",
         phi2w @ phi1z, space.left_action(2, w) @ space.left_action(1, z)),
    ]
    rebuilt = {}
    for check_id, statement, amb, expected in cases:
        rebuilt[check_id] = represent_module_map(gens, amb)
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
    represented = [represent_module_map(gens, L_amb) for L_amb in ambients]

    def compression_diffs():
        for cl, (L_amb, rep) in enumerate(zip(ambients, represented)):
            for a, s_adj in enumerate(gens.adjoints[1]):
                for b, s in enumerate(gens.S):
                    val = spec.inner_B1.pair(spec.basis_U[a], L_amb @ spec.basis_U[b])
                    diff = s_adj @ rep @ s - space.left_action(1, val)
                    yield (f"class {cl}, generators ({a}, {b})", diff)

    # The represented operator doubles on the module level, where both
    # generating families rebuild it at once, so compression is declared
    # from source level 1 up.
    reports.append(_family_report(
        "module-map-compression",
        "compressing a represented operator between first-family generators "
        "returns its matrix coefficient",
        compression_diffs(), 1, K - 1,
    ))

    reports.append(window_report(
        "module-map-multiplicative",
        "representation turns operator products into operator products",
        represent_module_map(gens, ambients[0] @ ambients[-1])
        - represented[0] @ represented[-1],
        2, K,
    ))

    rows = []
    for L_amb in ambients:
        entries = []
        for u in spec.basis_U:
            for uj in spec.basis_U:
                col = spec.inner_B1.pair(u, L_amb @ uj)
                entries.extend(col[c, 0] for c in range(col.nrows))
        for v in spec.basis_V:
            for vl in spec.basis_V:
                col = spec.inner_B2.pair(v, L_amb @ vl)
                entries.extend(col[c, 0] for c in range(col.nrows))
        rows.append(entries)
    coeff = ExactMatrix.from_rows(rows)
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
    alphabet = list(gens.S) + list(gens.T)
    dims = []
    words = [space.identity()]
    for n in range(max_length + 1):
        if n > 0:
            words = [g @ wrd for g in alphabet for wrd in words]
        adjoints = [wrd.adjoint() for wrd in words]
        ops = [w1 @ e @ w2 for w1 in words for e in gens.lifts for w2 in adjoints]
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
