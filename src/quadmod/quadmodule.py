"""Two-coefficient Hilbert bimodule specifications and exact validation.

A module specification packages a finite-dimensional complex vector space H
together with:

  * three commutative coefficient algebras: a base algebra A and two side
    algebras B1, B2;
  * right actions of B1 and B2 on H and left actions of B1 and B2 on H;
  * inner products valued in A, B1 and B2, stored as coordinate Gram
    stacks;
  * unital embeddings of A into each side algebra, one pair realizing the
    common left action of A (left_embed_*) and one pair giving the right
    A-module structure of the side algebras (right_embed_*);
  * finite generating families basis_U (for the B1-valued structure) and
    basis_V (for the B2-valued structure).

validate_axioms checks every compatibility the construction later relies
on; each check is reported individually with an exact witness on failure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import AlgebraHom, CommAlgebra
from .linalg import ExactMatrix, GramStack, psd_check, weighted_sum
from .report import CheckResult
from .scalars import GaussianRational


class InvalidParameter(ValueError):
    """A builder or verifier received parameters outside its domain."""


class LambdaNotFaithful(ValueError):
    """The derived index maps are not faithful positive maps."""


def _vec(matrix: ExactMatrix) -> ExactMatrix:
    cols = [matrix.take_cols([j]) for j in range(matrix.ncols)]
    return ExactMatrix.vstack(cols)


class QuadModuleSpec:
    def __init__(
        self,
        algebra_A: CommAlgebra,
        algebra_B1: CommAlgebra,
        algebra_B2: CommAlgebra,
        dim: int,
        right_B1: list[ExactMatrix],
        right_B2: list[ExactMatrix],
        left_B1: list[ExactMatrix],
        left_B2: list[ExactMatrix],
        inner_A: GramStack,
        inner_B1: GramStack,
        inner_B2: GramStack,
        left_embed_1: AlgebraHom,
        left_embed_2: AlgebraHom,
        right_embed_1: AlgebraHom,
        right_embed_2: AlgebraHom,
        basis_U: list[ExactMatrix],
        basis_V: list[ExactMatrix],
        name: str = "",
    ):
        if dim < 1:
            raise ValueError("module dimension must be at least 1")
        self.algebra_A = algebra_A
        self.algebra_B1 = algebra_B1
        self.algebra_B2 = algebra_B2
        self.dim = dim
        self.right_B1 = list(right_B1)
        self.right_B2 = list(right_B2)
        self.left_B1 = list(left_B1)
        self.left_B2 = list(left_B2)
        self.inner_A = inner_A
        self.inner_B1 = inner_B1
        self.inner_B2 = inner_B2
        self.left_embed_1 = left_embed_1
        self.left_embed_2 = left_embed_2
        self.right_embed_1 = right_embed_1
        self.right_embed_2 = right_embed_2
        self.basis_U = list(basis_U)
        self.basis_V = list(basis_V)
        self.name = name
        self._check_shapes()
        # right action of A, realized through the first side algebra; the
        # agreement with the second route is a validated axiom
        self.right_A = [
            weighted_sum(self.right_B1, self.right_embed_1(self.algebra_A.basis_element(a)))
            for a in range(self.algebra_A.dim)
        ]

    def _check_shapes(self):
        pairs = [
            (self.right_B1, self.algebra_B1.dim, "right_B1"),
            (self.right_B2, self.algebra_B2.dim, "right_B2"),
            (self.left_B1, self.algebra_B1.dim, "left_B1"),
            (self.left_B2, self.algebra_B2.dim, "left_B2"),
        ]
        for ops, count, label in pairs:
            if len(ops) != count:
                raise ValueError(f"{label}: expected {count} operators")
            for op in ops:
                if op.shape != (self.dim, self.dim):
                    raise ValueError(f"{label}: operator shape mismatch")
        stacks = [
            (self.inner_A, self.algebra_A.dim, "inner_A"),
            (self.inner_B1, self.algebra_B1.dim, "inner_B1"),
            (self.inner_B2, self.algebra_B2.dim, "inner_B2"),
        ]
        for stack, count, label in stacks:
            if stack.num_coords != count or stack.dim != self.dim:
                raise ValueError(f"{label}: Gram stack shape mismatch")
        for hom, label in [
            (self.left_embed_1, "left_embed_1"),
            (self.right_embed_1, "right_embed_1"),
        ]:
            if hom.source.dim != self.algebra_A.dim or hom.target.dim != self.algebra_B1.dim:
                raise ValueError(f"{label}: wrong algebras")
        for hom, label in [
            (self.left_embed_2, "left_embed_2"),
            (self.right_embed_2, "right_embed_2"),
        ]:
            if hom.source.dim != self.algebra_A.dim or hom.target.dim != self.algebra_B2.dim:
                raise ValueError(f"{label}: wrong algebras")
        for fam, label in [(self.basis_U, "basis_U"), (self.basis_V, "basis_V")]:
            if not fam:
                raise ValueError(f"{label}: must be nonempty")
            for v in fam:
                if v.shape != (self.dim, 1):
                    raise ValueError(f"{label}: vector shape mismatch")

    # -- small helpers ----------------------------------------------------

    def left_A(self, a: ExactMatrix) -> ExactMatrix:
        """The common left action of A, via the first embedding."""
        return weighted_sum(self.left_B1, self.left_embed_1(a))

    # -- axiom validation --------------------------------------------------

    def validate_axioms(self) -> list[CheckResult]:
        out = []
        dim = self.dim

        def add(check_id, statement, passed, witness=""):
            out.append(CheckResult(check_id, statement, bool(passed), witness))

        # each action is a unital representation of its (commutative) algebra
        families = [
            ("right-b1", self.right_B1, self.algebra_B1),
            ("right-b2", self.right_B2, self.algebra_B2),
            ("left-b1", self.left_B1, self.algebra_B1),
            ("left-b2", self.left_B2, self.algebra_B2),
        ]
        for label, ops, alg in families:
            bad = ""
            for c in range(alg.dim):
                for c2 in range(alg.dim):
                    want = ops[c] if c == c2 else ExactMatrix.zeros(dim, dim)
                    if ops[c] @ ops[c2] != want:
                        bad = f"basis pair ({c},{c2})"
                        break
                if bad:
                    break
            add(
                f"action-rep-{label}",
                "the action respects products of algebra elements",
                not bad,
                bad,
            )
            total = ExactMatrix.zeros(dim, dim)
            for op in ops:
                total = total + op
            add(
                f"action-unital-{label}",
                "the algebra unit acts as the identity operator",
                total == ExactMatrix.identity(dim),
            )

        # left and right actions commute, in all four combinations
        combos = [
            ("left-b1-right-b1", self.left_B1, self.right_B1),
            ("left-b1-right-b2", self.left_B1, self.right_B2),
            ("left-b2-right-b1", self.left_B2, self.right_B1),
            ("left-b2-right-b2", self.left_B2, self.right_B2),
        ]
        for label, lefts, rights in combos:
            bad = ""
            for c, left in enumerate(lefts):
                for c2, right in enumerate(rights):
                    if left @ right != right @ left:
                        bad = f"left basis {c} vs right basis {c2}"
                        break
                if bad:
                    break
            add(
                f"action-commute-{label}",
                "left and right actions commute",
                not bad,
                bad,
            )

        # the two routes to the right A-action agree
        bad = ""
        for a in range(self.algebra_A.dim):
            ea = self.algebra_A.basis_element(a)
            via1 = weighted_sum(self.right_B1, self.right_embed_1(ea))
            via2 = weighted_sum(self.right_B2, self.right_embed_2(ea))
            if via1 != via2:
                bad = f"base algebra basis {a}"
                break
        add(
            "right-action-compatible",
            "the right A-action through either side algebra is the same",
            not bad,
            bad,
        )

        # twisted right-action compatibility: acting by b, then by a in A,
        # equals acting by b times the embedded image of a
        for label, ops, alg, embed in [
            ("1", self.right_B1, self.algebra_B1, self.right_embed_1),
            ("2", self.right_B2, self.algebra_B2, self.right_embed_2),
        ]:
            bad = ""
            for a in range(self.algebra_A.dim):
                ra = self.right_A[a]
                img = embed(self.algebra_A.basis_element(a))
                for c in range(alg.dim):
                    twisted = weighted_sum(ops, alg.mul(alg.basis_element(c), img))
                    if twisted != ra @ ops[c]:
                        bad = f"algebra basis {c}, base basis {a}"
                        break
                if bad:
                    break
            add(
                f"right-action-twist-{label}",
                "right action twisted by the embedded base algebra matches acting in two steps",
                not bad,
                bad,
            )

        # the two left embeddings induce the same left A-action
        bad = ""
        for a in range(self.algebra_A.dim):
            ea = self.algebra_A.basis_element(a)
            l1 = weighted_sum(self.left_B1, self.left_embed_1(ea))
            l2 = weighted_sum(self.left_B2, self.left_embed_2(ea))
            if l1 != l2:
                bad = f"base algebra basis {a}"
                break
        add(
            "left-action-compatible",
            "the left A-action through either side algebra is the same",
            not bad,
            bad,
        )

        # inner products: hermitian, positive, nondegenerate, right-linear
        stacks = [
            ("a", self.inner_A, None, None),
            ("b1", self.inner_B1, self.right_B1, None),
            ("b2", self.inner_B2, self.right_B2, None),
        ]
        for label, stack, _, _ in stacks:
            add(
                f"inner-hermitian-{label}",
                "the inner product is conjugate-symmetric",
                stack.is_hermitian(),
            )
            bad = ""
            for c, g in enumerate(stack.coords):
                if not g.is_hermitian():
                    continue
                ok, _ = psd_check(g)
                if not ok:
                    bad = f"coordinate {c}"
                    break
            add(
                f"inner-positive-{label}",
                "squared lengths are positive algebra elements",
                not bad,
                bad,
            )
            add(
                f"inner-nondegenerate-{label}",
                "only the zero vector has zero length",
                stack.is_hermitian() and stack.scalarized().rank() == dim,
            )

        # right linearity over the respective coefficient algebra
        for label, stack, ops in [
            ("b1", self.inner_B1, self.right_B1),
            ("b2", self.inner_B2, self.right_B2),
            ("a", self.inner_A, self.right_A),
        ]:
            bad = ""
            for c, g in enumerate(stack.coords):
                for c2, op in enumerate(ops):
                    want = g if c == c2 else ExactMatrix.zeros(dim, dim)
                    if g @ op != want:
                        bad = f"coordinate {c}, algebra basis {c2}"
                        break
                if bad:
                    break
            add(
                f"inner-right-linear-{label}",
                "the inner product is linear over the right action of its own algebra",
                not bad,
                bad,
            )

        # side-valued inner products absorb the right A-action through the
        # right embeddings
        for label, stack, embed in [
            ("1", self.inner_B1, self.right_embed_1),
            ("2", self.inner_B2, self.right_embed_2),
        ]:
            bad = ""
            for a in range(self.algebra_A.dim):
                ra = self.right_A[a]
                img = embed(self.algebra_A.basis_element(a))
                for c, g in enumerate(stack.coords):
                    if g @ ra != g.scale(img[c, 0]):
                        bad = f"coordinate {c}, base basis {a}"
                        break
                if bad:
                    break
            add(
                f"inner-right-twist-{label}",
                "moving a base algebra element inside the inner product picks up its embedded image",
                not bad,
                bad,
            )

        # left actions are adjointable for all three inner products, with
        # the conjugated element as the common adjoint
        for side, ops in [("1", self.left_B1), ("2", self.left_B2)]:
            for label, stack in [("a", self.inner_A), ("b1", self.inner_B1), ("b2", self.inner_B2)]:
                bad = ""
                for c, op in enumerate(ops):
                    for x, g in enumerate(stack.coords):
                        if g @ op != op.H @ g:
                            bad = f"algebra basis {c}, coordinate {x}"
                            break
                    if bad:
                        break
                add(
                    f"left-adjointable-{side}-{label}",
                    "the left action is adjointable with the conjugate element as adjoint",
                    not bad,
                    bad,
                )

        # faithfulness of the left actions, including the induced A-action
        for label, ops in [("b1", self.left_B1), ("b2", self.left_B2)]:
            stacked = ExactMatrix.hstack([_vec(op) for op in ops])
            add(
                f"left-faithful-{label}",
                "the left action has trivial kernel",
                stacked.rank() == len(ops),
            )
        a_ops = [self.left_A(self.algebra_A.basis_element(a)) for a in range(self.algebra_A.dim)]
        stacked = ExactMatrix.hstack([_vec(op) for op in a_ops])
        add(
            "left-faithful-a",
            "the induced left action of the base algebra has trivial kernel",
            stacked.rank() == len(a_ops),
        )

        # fullness: inner product values span the whole coefficient algebra
        for label, stack in [("a", self.inner_A), ("b1", self.inner_B1), ("b2", self.inner_B2)]:
            values = ExactMatrix.hstack(
                [stack.value(p, q) for p in range(dim) for q in range(dim)]
            )
            add(
                f"inner-full-{label}",
                "inner product values span the coefficient algebra",
                values.rank() == stack.num_coords,
            )

        # the four embeddings are unital *-homomorphisms; the left pair must
        # additionally be injective to keep the A-actions faithful
        for label, hom, need_injective in [
            ("left-embed-1", self.left_embed_1, True),
            ("left-embed-2", self.left_embed_2, True),
            ("right-embed-1", self.right_embed_1, False),
            ("right-embed-2", self.right_embed_2, False),
        ]:
            fails = hom.validate()
            if need_injective and not hom.is_injective():
                fails = fails + ["injective"]
            add(
                f"hom-{label}",
                "the embedding is a unital *-homomorphism",
                not fails,
                ", ".join(fails),
            )

        return out

    # -- finite type --------------------------------------------------------

    def verify_finite_type(self) -> list[CheckResult]:
        """Check that basis_U and basis_V generate the two right module
        structures and satisfy the compression and trace conditions."""
        out = []
        dim = self.dim

        def add(check_id, statement, passed, witness=""):
            out.append(CheckResult(check_id, statement, bool(passed), witness))

        recon_u = ExactMatrix.zeros(dim, dim)
        for u in self.basis_U:
            for c, g in enumerate(self.inner_B1.coords):
                recon_u = recon_u + (self.right_B1[c] @ u) @ (u.H @ g)
        add(
            "finite-basis-reconstruction-u",
            "every vector is recovered from the first family and its side-1 inner products",
            recon_u == ExactMatrix.identity(dim),
        )

        recon_v = ExactMatrix.zeros(dim, dim)
        for v in self.basis_V:
            for c, g in enumerate(self.inner_B2.coords):
                recon_v = recon_v + (self.right_B2[c] @ v) @ (v.H @ g)
        add(
            "finite-basis-reconstruction-v",
            "every vector is recovered from the second family and its side-2 inner products",
            recon_v == ExactMatrix.identity(dim),
        )

        bad = ""
        for i, u in enumerate(self.basis_U):
            for j, u2 in enumerate(self.basis_U):
                for c in range(self.algebra_B2.dim):
                    val = self.inner_B1.pair(u, self.left_B2[c] @ u2)
                    if self.left_embed_1.preimage(val) is None:
                        bad = f"pair ({i},{j}), side-2 basis {c}"
                        break
                if bad:
                    break
            if bad:
                break
        add(
            "finite-basis-compression-u",
            "compressions of the side-2 left action by the first family land in the embedded base algebra",
            not bad,
            bad,
        )

        bad = ""
        for k, v in enumerate(self.basis_V):
            for l, v2 in enumerate(self.basis_V):
                for c in range(self.algebra_B1.dim):
                    val = self.inner_B2.pair(v, self.left_B1[c] @ v2)
                    if self.left_embed_2.preimage(val) is None:
                        bad = f"pair ({k},{l}), side-1 basis {c}"
                        break
                if bad:
                    break
            if bad:
                break
        add(
            "finite-basis-compression-v",
            "compressions of the side-1 left action by the second family land in the embedded base algebra",
            not bad,
            bad,
        )

        # trace condition: summing side-1 compressions of a side-2 inner
        # product recovers the A-valued inner product (and symmetrically)
        weights = ExactMatrix.from_rows(
            [
                [
                    sum(
                        ((u.H @ g1 @ (self.left_B2[c2] @ u))[0, 0] for u in self.basis_U),
                        GaussianRational(),
                    )
                    for c2 in range(self.algebra_B2.dim)
                ]
                for g1 in self.inner_B1.coords
            ]
        )
        lhs = self.inner_B2.transform(weights)
        rhs = self.inner_A.transform(self.left_embed_1.matrix)
        add(
            "finite-basis-trace-u",
            "summed first-family compressions of side-2 inner products equal the embedded A-valued inner product",
            lhs == rhs,
        )

        weights = ExactMatrix.from_rows(
            [
                [
                    sum(
                        ((v.H @ g2 @ (self.left_B1[c1] @ v))[0, 0] for v in self.basis_V),
                        GaussianRational(),
                    )
                    for c1 in range(self.algebra_B1.dim)
                ]
                for g2 in self.inner_B2.coords
            ]
        )
        lhs = self.inner_B1.transform(weights)
        rhs = self.inner_A.transform(self.left_embed_2.matrix)
        add(
            "finite-basis-trace-v",
            "summed second-family compressions of side-1 inner products equal the embedded A-valued inner product",
            lhs == rhs,
        )

        return out

    # -- index maps ----------------------------------------------------------

    def derive_lambda(self) -> "LambdaMaps":
        """Compute the two index maps from the generating families.

        The side-i index map sends a side-i algebra element to the sum of
        its compressions by the opposite family, pulled back through the
        left embedding. Raises LambdaNotFaithful when a compression sum
        falls outside the embedded base algebra, or when the resulting map
        is not entrywise nonnegative with no zero column (the exact failure
        of faithful positivity in the commutative setting).
        """
        cols1 = []
        for c in range(self.algebra_B1.dim):
            total = ExactMatrix.zeros(self.algebra_B2.dim, 1)
            for v in self.basis_V:
                total = total + self.inner_B2.pair(v, self.left_B1[c] @ v)
            a = self.left_embed_2.preimage(total)
            if a is None:
                raise LambdaNotFaithful(
                    f"side-1 compression sum for basis element {c} is outside the embedded base algebra"
                )
            cols1.append(a)
        lam1 = ExactMatrix.hstack(cols1)

        cols2 = []
        for c in range(self.algebra_B2.dim):
            total = ExactMatrix.zeros(self.algebra_B1.dim, 1)
            for u in self.basis_U:
                total = total + self.inner_B1.pair(u, self.left_B2[c] @ u)
            a = self.left_embed_1.preimage(total)
            if a is None:
                raise LambdaNotFaithful(
                    f"side-2 compression sum for basis element {c} is outside the embedded base algebra"
                )
            cols2.append(a)
        lam2 = ExactMatrix.hstack(cols2)

        for label, lam in [("side-1", lam1), ("side-2", lam2)]:
            for i in range(lam.nrows):
                for j in range(lam.ncols):
                    v = lam[i, j]
                    if not (v.is_real and v.re >= 0):
                        raise LambdaNotFaithful(f"{label} index map has a non-positive entry")
            for j in range(lam.ncols):
                if all(lam[i, j].is_zero for i in range(lam.nrows)):
                    raise LambdaNotFaithful(f"{label} index map kills basis element {j}")

        checks = []
        for label, lam, embed, alg in [
            ("1", lam1, self.right_embed_1, self.algebra_B1),
            ("2", lam2, self.right_embed_2, self.algebra_B2),
        ]:
            bad = ""
            for a in range(self.algebra_A.dim):
                ea = self.algebra_A.basis_element(a)
                twist = alg.mult_matrix(embed(ea))
                if lam @ twist != self.algebra_A.mult_matrix(ea) @ lam:
                    bad = f"base basis {a}"
                    break
            checks.append(
                CheckResult(
                    f"index-map-right-compat-{label}",
                    "the index map intertwines the twisted right A-action with multiplication",
                    not bad,
                    bad,
                )
            )
        checks.append(
            CheckResult(
                "index-map-inner-compat-1",
                "the side-1 index map carries the side-1 inner product to the A-valued one",
                self.inner_B1.transform(lam1) == self.inner_A,
            )
        )
        checks.append(
            CheckResult(
                "index-map-inner-compat-2",
                "the side-2 index map carries the side-2 inner product to the A-valued one",
                self.inner_B2.transform(lam2) == self.inner_A,
            )
        )
        return LambdaMaps(lam1, lam2, checks)

    # -- strong finite type ---------------------------------------------------

    def verify_strongly_finite_type(self, basis_1=None, basis_2=None) -> list[CheckResult]:
        """Check that the side algebras are generated over the embedded base
        algebra by the given families (standard algebra bases by default)."""
        maps = self.derive_lambda()
        if basis_1 is None:
            basis_1 = [self.algebra_B1.basis_element(c) for c in range(self.algebra_B1.dim)]
        if basis_2 is None:
            basis_2 = [self.algebra_B2.basis_element(c) for c in range(self.algebra_B2.dim)]
        out = []

        recon = ExactMatrix.zeros(self.algebra_B1.dim, self.algebra_B1.dim)
        for e in basis_1:
            me = self.algebra_B1.mult_matrix(e)
            recon = recon + me @ self.right_embed_1.matrix @ maps.lam1 @ me.H
        out.append(
            CheckResult(
                "strong-basis-b1",
                "the first side algebra is recovered from its family via the index map",
                recon == ExactMatrix.identity(self.algebra_B1.dim),
            )
        )

        recon = ExactMatrix.zeros(self.algebra_B2.dim, self.algebra_B2.dim)
        for f in basis_2:
            mf = self.algebra_B2.mult_matrix(f)
            recon = recon + mf @ self.right_embed_2.matrix @ maps.lam2 @ mf.H
        out.append(
            CheckResult(
                "strong-basis-b2",
                "the second side algebra is recovered from its family via the index map",
                recon == ExactMatrix.identity(self.algebra_B2.dim),
            )
        )
        return out

    # -- derived right module basis over the base algebra ---------------------

    def derive_right_A_basis(self):
        """Build the two induced generating families of H as a right
        A-module and verify their reconstruction identities.

        Returns (family_u, family_v, checks): family_u collects the first
        family acted on by the side-1 algebra basis, family_v the second
        family acted on by the side-2 algebra basis.
        """
        family_u = [
            self.right_B1[c] @ u
            for u in self.basis_U
            for c in range(self.algebra_B1.dim)
        ]
        family_v = [
            self.right_B2[c] @ v
            for v in self.basis_V
            for c in range(self.algebra_B2.dim)
        ]
        checks = []
        for label, family in [("u", family_u), ("v", family_v)]:
            recon = ExactMatrix.zeros(self.dim, self.dim)
            for w in family:
                for a, g in enumerate(self.inner_A.coords):
                    recon = recon + (self.right_A[a] @ w) @ (w.H @ g)
            checks.append(
                CheckResult(
                    f"right-a-basis-{label}",
                    "the induced family generates H as a right module over the base algebra",
                    recon == ExactMatrix.identity(self.dim),
                )
            )
        return family_u, family_v, checks


@dataclass
class LambdaMaps:
    """The derived index maps, with their compatibility check results."""

    lam1: ExactMatrix
    lam2: ExactMatrix
    checks: list[CheckResult]


# -- builders ------------------------------------------------------------


def build_example_MN(M: int, N: int) -> QuadModuleSpec:
    """The bipartite tensor module: H = C^M tensor C^N over (C; C^N, C^M).

    Basis vectors are indexed lexicographically by (row, column) pairs with
    the second side index varying fastest.
    """
    if not (isinstance(M, int) and isinstance(N, int)) or M < 1 or N < 1:
        raise InvalidParameter("M and N must be integers >= 1")
    A = CommAlgebra(1)
    B1 = CommAlgebra(N)
    B2 = CommAlgebra(M)
    dim = M * N

    def diag(pred):
        return ExactMatrix.diagonal([1 if pred(i, k) else 0 for i in range(M) for k in range(N)])

    right_B1 = [diag(lambda i, k, c=c: k == c) for c in range(N)]
    right_B2 = [diag(lambda i, k, c=c: i == c) for c in range(M)]
    left_B1 = [diag(lambda i, k, c=c: k == c) for c in range(N)]
    left_B2 = [diag(lambda i, k, c=c: i == c) for c in range(M)]

    inner_A = GramStack([ExactMatrix.identity(dim)])
    inner_B1 = GramStack(right_B1)
    inner_B2 = GramStack(right_B2)

    embed1 = AlgebraHom.scalar_embedding(B1)
    embed2 = AlgebraHom.scalar_embedding(B2)

    basis_U = [
        ExactMatrix.from_rows([[1 if i == i0 else 0] for i in range(M) for _ in range(N)])
        for i0 in range(M)
    ]
    basis_V = [
        ExactMatrix.from_rows([[1 if k == k0 else 0] for _ in range(M) for k in range(N)])
        for k0 in range(N)
    ]

    return QuadModuleSpec(
        algebra_A=A,
        algebra_B1=B1,
        algebra_B2=B2,
        dim=dim,
        right_B1=right_B1,
        right_B2=right_B2,
        left_B1=left_B1,
        left_B2=left_B2,
        inner_A=inner_A,
        inner_B1=inner_B1,
        inner_B2=inner_B2,
        left_embed_1=embed1,
        left_embed_2=embed2,
        right_embed_1=embed1,
        right_embed_2=embed2,
        basis_U=basis_U,
        basis_V=basis_V,
        name=f"bipartite-{M}x{N}",
    )


def build_example_alpha_beta(d: int, sigma, tau) -> QuadModuleSpec:
    """The permutation-twisted function module: H = C^d over three copies
    of C^d, twisted by the automorphisms x -> x o sigma and x -> x o tau.

    sigma and tau are permutations of range(d), read as spectrum maps: the
    first automorphism sends x to the function j -> x[sigma[j]].
    """
    if not isinstance(d, int) or d < 1:
        raise InvalidParameter("d must be an integer >= 1")
    alg = CommAlgebra(d)
    try:
        alpha = AlgebraHom.permutation(alg, sigma)
        beta = AlgebraHom.permutation(alg, tau)
    except ValueError as exc:
        raise InvalidParameter(str(exc)) from exc

    def mult_of(hom_matrix, c):
        col = hom_matrix @ alg.basis_element(c)
        return alg.mult_matrix(col)

    right_B1 = [mult_of(alpha.matrix, c) for c in range(d)]
    right_B2 = [mult_of(beta.matrix, c) for c in range(d)]
    left_B1 = [mult_of(beta.matrix @ alpha.matrix, c) for c in range(d)]
    left_B2 = [mult_of(alpha.matrix @ beta.matrix, c) for c in range(d)]

    inner_A = GramStack(
        [ExactMatrix.diagonal([1 if i == j else 0 for i in range(d)]) for j in range(d)]
    )
    inner_B1 = inner_A.transform(alpha.inverse().matrix)
    inner_B2 = inner_A.transform(beta.inverse().matrix)

    ones = ExactMatrix.from_rows([[1]] * d)

    return QuadModuleSpec(
        algebra_A=alg,
        algebra_B1=alg,
        algebra_B2=alg,
        dim=d,
        right_B1=right_B1,
        right_B2=right_B2,
        left_B1=left_B1,
        left_B2=left_B2,
        inner_A=inner_A,
        inner_B1=inner_B1,
        inner_B2=inner_B2,
        left_embed_1=AlgebraHom.identity(alg),
        left_embed_2=AlgebraHom.identity(alg),
        right_embed_1=alpha.inverse(),
        right_embed_2=beta.inverse(),
        basis_U=[ones],
        basis_V=[ones],
        name=f"twisted-functions-{d}",
    )
