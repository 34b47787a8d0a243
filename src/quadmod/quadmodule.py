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

Every check that quantifies over a grid of members, (c, c2), (a, c),
(c, x) or (i, j, c), is one batched expression over the whole grid. The
action families and coordinate Grams are held as ExactMatrix values with
batch axes, laid out along the grid's axes, and the two sides of the axiom
are a few exact products, member-wise scalings or combinations of whole
batches (see the linalg module), never one product per member. Their
difference is tested member by member with one array test, and a failing
check's witness names its first failing member in C order over the grid:
the member a nested loop over the grid, first axis outermost, would meet
first. Range membership over a grid is one elimination, and ranks are read
from the flattened batches. The index maps are derived once per specification and
shared by every stage that reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebras import AlgebraHom, CommAlgebra
from .linalg import (
    ExactMatrix,
    GramStack,
    as_batch,
    hermitian_psd_check,
    regroup,
    times_kron_identity,
)
from .report import CheckResult


class InvalidParameter(ValueError):
    """A builder or verifier received parameters outside its domain."""


class LambdaNotFaithful(ValueError):
    """The derived index maps are not faithful positive maps."""


def _first(bad) -> tuple | None:
    """The first index, in C order, at which the boolean array bad is
    true, or None."""
    hits = np.argwhere(bad)
    return tuple(int(i) for i in hits[0]) if len(hits) else None


def _grid(first: ExactMatrix, second: ExactMatrix):
    """Two batched matrices of one batch axis each, laid out on the grid (i, j) of
    their members: first along i, second along j."""
    r, s = first.batch_shape[0], second.batch_shape[0]
    return first.reshaped((r,), (r, 1)), second.reshaped((s,), (1, s))


def _columns(x: ExactMatrix) -> ExactMatrix:
    """The columns of x, one member per column."""
    m, n = x.shape
    return x.regrouped((m, n, 1), (1, 0, 2))


def _entries(x: ExactMatrix) -> ExactMatrix:
    """The entries of x as 1 x 1 members over x's index grid."""
    m, n = x.shape
    return x.regrouped((m, n, 1, 1), (0, 1, 2, 3))


def acted_columns(ops: ExactMatrix, vectors: ExactMatrix) -> ExactMatrix:
    """ops[c] @ vectors for every member c of ops, one batched product, as
    the columns (c, j) of one matrix."""
    (d,), (n, k) = ops.batch_shape, vectors.shape
    return regroup((ops @ vectors).flattened(), (d, n, k), (1, 0, 2), n, d * k)


def compressions(family: ExactMatrix, form: GramStack, ops: ExactMatrix) -> ExactMatrix:
    """For the columns f_i of family, a form and the members ops[c] of a
    batch: the form's values <f_i | ops[c] f_j> as the columns (i, c, j) of
    one matrix. ops[c] f_j is one product for every (c, j), and the values
    one pairs call."""
    return form.pairs(family, acted_columns(ops, family))


def _reconstructs(acts: ExactMatrix, family: ExactMatrix, form: GramStack) -> bool:
    """Whether every vector v is sum_f sum_c acts[c] f <f|v>_c over the
    columns f of family and the coordinates c of the form, that is whether
    sum_c acts[c] (F F^H) G_c is the identity: F F^H, the stack (F F^H) G,
    acts times it and the sum over c, one product each."""
    gram = family @ family.H
    total = (acts @ (gram @ form.grams)).combine(CommAlgebra(acts.batch_shape[0]).unit())
    return (total - ExactMatrix.identity(family.nrows)).is_zero()


class QuadModuleSpec:
    """A module specification, each family held once, as one batch.

    The constructor takes each action family (right_B1, right_B2, left_B1,
    left_B2, one operator per basis element of its algebra) and each
    generating family (basis_U, basis_V, one column vector per generator)
    as a list of matrices or as one batched matrix, and the inner products
    as GramStacks. It stores each family as one batched ExactMatrix, stacked
    by as_batch when it came as a list: the action families of shape
    (d, dim, dim) over their algebra's basis, the generating families of
    shape (k, dim, 1). Iterating a family yields its members.

    Every stage reads the batches: the action families directly, right_A
    (one combine of right_B1) and families (each generating family as one
    dim x k matrix of columns, one regroup of its batch)."""

    def __init__(
        self,
        algebra_A: CommAlgebra,
        algebra_B1: CommAlgebra,
        algebra_B2: CommAlgebra,
        dim: int,
        right_B1: ExactMatrix | list[ExactMatrix],
        right_B2: ExactMatrix | list[ExactMatrix],
        left_B1: ExactMatrix | list[ExactMatrix],
        left_B2: ExactMatrix | list[ExactMatrix],
        inner_A: GramStack,
        inner_B1: GramStack,
        inner_B2: GramStack,
        left_embed_1: AlgebraHom,
        left_embed_2: AlgebraHom,
        right_embed_1: AlgebraHom,
        right_embed_2: AlgebraHom,
        basis_U: ExactMatrix | list[ExactMatrix],
        basis_V: ExactMatrix | list[ExactMatrix],
        name: str = "",
    ):
        if dim < 1:
            raise ValueError("module dimension must be at least 1")
        self.algebra_A = algebra_A
        self.algebra_B1 = algebra_B1
        self.algebra_B2 = algebra_B2
        self.dim = dim
        self.right_B1 = as_batch(right_B1)
        self.right_B2 = as_batch(right_B2)
        self.left_B1 = as_batch(left_B1)
        self.left_B2 = as_batch(left_B2)
        self.inner_A = inner_A
        self.inner_B1 = inner_B1
        self.inner_B2 = inner_B2
        self.left_embed_1 = left_embed_1
        self.left_embed_2 = left_embed_2
        self.right_embed_1 = right_embed_1
        self.right_embed_2 = right_embed_2
        self.basis_U = as_batch(basis_U)
        self.basis_V = as_batch(basis_V)
        self.name = name
        self._check_shapes()
        # the index maps, or their failure, once derive_lambda has run
        self._index_maps = None

    def _check_shapes(self):
        n = self.dim
        for ops, count, label in [
            (self.right_B1, self.algebra_B1.dim, "right_B1"),
            (self.right_B2, self.algebra_B2.dim, "right_B2"),
            (self.left_B1, self.algebra_B1.dim, "left_B1"),
            (self.left_B2, self.algebra_B2.dim, "left_B2"),
        ]:
            if ops.batch_shape != (count,) or ops.shape != (n, n):
                raise ValueError(f"{label}: expected {count} operators of shape {n} x {n}")
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
            if len(fam.batch_shape) != 1 or not fam.batch_shape[0] or fam.shape != (n, 1):
                raise ValueError(f"{label}: expected a nonempty family of vectors of length {n}")

    @cached_property
    def right_A(self) -> ExactMatrix:
        """The right action of A realized through the first side algebra,
        one batch over A's basis (the agreement with the second route is a
        validated axiom)."""
        return self.right_B1.combine(self.right_embed_1.matrix)

    @cached_property
    def families(self) -> dict:
        """Each generating family as one matrix whose columns are its
        vectors: basis_U under 1, basis_V under 2."""
        return {label: fam.regrouped((fam.batch_shape[0], self.dim), (1, 0))
                for label, fam in ((1, self.basis_U), (2, self.basis_V))}

    @cached_property
    def _family_compressions(self) -> dict:
        """The compressions of the first family ("u") under the side-1 form
        and of the second ("v") under the side-2 form, of the other side's
        left action, each with its traces sum_i <f_i | ops[c] f_i> as the
        columns c of a second matrix (one product with I (x) 1): read by the
        finite type checks and the index maps."""
        out = {}
        for label, family, form, ops in (("u", 1, self.inner_B1, self.left_B2),
                                         ("v", 2, self.inner_B2, self.left_B1)):
            members = self.families[family]
            k, d = members.ncols, ops.batch_shape[0]
            values = compressions(members, form, ops)
            diagonal = values.take_cols([(i * d + c) * k + i for c in range(d) for i in range(k)])
            out[label] = values, times_kron_identity(diagonal, CommAlgebra(k).unit(), d, False)
        return out

    # -- axiom validation --------------------------------------------------

    def validate_axioms(self) -> list[CheckResult]:
        out = []
        dim = self.dim
        forms = [("a", self.inner_A), ("b1", self.inner_B1), ("b2", self.inner_B2)]

        def add(check_id, statement, passed, witness=""):
            out.append(CheckResult(check_id, statement, bool(passed), witness))

        def add_grid(check_id, statement, diff, witness):
            """One check over a grid: diff holds the difference of the two
            sides per member, and witness formats the first failing index."""
            bad = _first(diff.nonzero())
            add(check_id, statement, bad is None, "" if bad is None else witness.format(*bad))

        # each action is a unital representation of its (commutative) algebra
        families = [
            ("right-b1", self.right_B1, self.algebra_B1),
            ("right-b2", self.right_B2, self.algebra_B2),
            ("left-b1", self.left_B1, self.algebra_B1),
            ("left-b2", self.left_B2, self.algebra_B2),
        ]
        for label, ops, alg in families:
            rows, cols = _grid(ops, ops)
            add_grid(
                f"action-rep-{label}",
                "the action respects products of algebra elements",
                rows @ cols - rows.scaled(ExactMatrix.identity(alg.dim)),
                "basis pair ({},{})",
            )
            add(
                f"action-unital-{label}",
                "the algebra unit acts as the identity operator",
                (ops.combine(alg.unit()) - ExactMatrix.identity(dim)).is_zero(),
            )

        # left and right actions commute, in all four combinations
        combos = [
            ("left-b1-right-b1", self.left_B1, self.right_B1),
            ("left-b1-right-b2", self.left_B1, self.right_B2),
            ("left-b2-right-b1", self.left_B2, self.right_B1),
            ("left-b2-right-b2", self.left_B2, self.right_B2),
        ]
        for label, left, right in combos:
            lefts, rights = _grid(left, right)
            add_grid(
                f"action-commute-{label}",
                "left and right actions commute",
                lefts @ rights - rights @ lefts,
                "left basis {} vs right basis {}",
            )

        # the two routes to the right A-action agree
        add_grid(
            "right-action-compatible",
            "the right A-action through either side algebra is the same",
            self.right_A - self.right_B2.combine(self.right_embed_2.matrix),
            "base algebra basis {}",
        )

        # twisted right-action compatibility: acting by b, then by a in A,
        # equals acting by b times the embedded image of a; on the grid
        # (a, c), b_c times the image of a is embed[c, a] b_c
        for label, ops, embed in [
            ("1", self.right_B1, self.right_embed_1),
            ("2", self.right_B2, self.right_embed_2),
        ]:
            base, side = _grid(self.right_A, ops)
            add_grid(
                f"right-action-twist-{label}",
                "right action twisted by the embedded base algebra matches acting in two steps",
                base @ side - side.scaled(embed.matrix.T),
                "algebra basis {1}, base basis {0}",
            )

        # the two left embeddings induce the same left A-action
        left_A = self.left_B1.combine(self.left_embed_1.matrix)
        add_grid(
            "left-action-compatible",
            "the left A-action through either side algebra is the same",
            left_A - self.left_B2.combine(self.left_embed_2.matrix),
            "base algebra basis {}",
        )

        # inner products: hermitian, positive, nondegenerate, right-linear
        for label, form in forms:
            grams = form.grams
            hermitian = ~(grams - grams.H).nonzero()
            add(
                f"inner-hermitian-{label}",
                "the inner product is conjugate-symmetric",
                hermitian.all(),
            )
            # only coordinates just found Hermitian are tested for positivity
            coords = form.coords
            bad = next((int(c) for c in np.flatnonzero(hermitian)
                        if not hermitian_psd_check(coords[c])[0]), None)
            add(
                f"inner-positive-{label}",
                "squared lengths are positive algebra elements",
                bad is None,
                "" if bad is None else f"coordinate {bad}",
            )
            add(
                f"inner-nondegenerate-{label}",
                "only the zero vector has zero length",
                hermitian.all() and form.scalarized().rank() == dim,
            )

        # right linearity over the respective coefficient algebra
        for label, form, ops in [
            ("b1", self.inner_B1, self.right_B1),
            ("b2", self.inner_B2, self.right_B2),
            ("a", self.inner_A, self.right_A),
        ]:
            coords, acts = _grid(form.grams, ops)
            add_grid(
                f"inner-right-linear-{label}",
                "the inner product is linear over the right action of its own algebra",
                coords @ acts - coords.scaled(ExactMatrix.identity(form.num_coords)),
                "coordinate {}, algebra basis {}",
            )

        # side-valued inner products absorb the right A-action through the
        # right embeddings
        for label, form, embed in [
            ("1", self.inner_B1, self.right_embed_1),
            ("2", self.inner_B2, self.right_embed_2),
        ]:
            base, coords = _grid(self.right_A, form.grams)
            add_grid(
                f"inner-right-twist-{label}",
                "moving a base algebra element inside the inner product picks up its embedded image",
                coords @ base - coords.scaled(embed.matrix.T),
                "coordinate {1}, base basis {0}",
            )

        # left actions are adjointable for all three inner products, with
        # the conjugated element as the common adjoint
        for side, ops in [("1", self.left_B1), ("2", self.left_B2)]:
            for label, form in forms:
                acts, coords = _grid(ops, form.grams)
                add_grid(
                    f"left-adjointable-{side}-{label}",
                    "the left action is adjointable with the conjugate element as adjoint",
                    coords @ acts - acts.H @ coords,
                    "algebra basis {}, coordinate {}",
                )

        # faithfulness of the left actions, including the induced A-action:
        # the flattened operators are linearly independent
        for label, ops, alg in [("b1", self.left_B1, self.algebra_B1),
                                ("b2", self.left_B2, self.algebra_B2)]:
            add(
                f"left-faithful-{label}",
                "the left action has trivial kernel",
                ops.flattened().rank() == alg.dim,
            )
        add(
            "left-faithful-a",
            "the induced left action of the base algebra has trivial kernel",
            left_A.flattened().rank() == self.algebra_A.dim,
        )

        # fullness: inner product values span the whole coefficient algebra;
        # the value <e_p|e_q> is column (p, q) of the flattened Grams
        for label, form in forms:
            add(
                f"inner-full-{label}",
                "inner product values span the coefficient algebra",
                form.grams.flattened().rank() == form.num_coords,
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
        family_u, family_v = self.families[1], self.families[2]

        def add(check_id, statement, passed, witness=""):
            out.append(CheckResult(check_id, statement, bool(passed), witness))

        add(
            "finite-basis-reconstruction-u",
            "every vector is recovered from the first family and its side-1 inner products",
            _reconstructs(self.right_B1, family_u, self.inner_B1),
        )
        add(
            "finite-basis-reconstruction-v",
            "every vector is recovered from the second family and its side-2 inner products",
            _reconstructs(self.right_B2, family_v, self.inner_B2),
        )

        traces = {}
        for label, k, d, embed, other, statement in [
            ("u", family_u.ncols, self.algebra_B2.dim, self.left_embed_1, "side-2",
             "compressions of the side-2 left action by the first family land in the embedded base algebra"),
            ("v", family_v.ncols, self.algebra_B1.dim, self.left_embed_2, "side-1",
             "compressions of the side-1 left action by the second family land in the embedded base algebra"),
        ]:
            values, traces[label] = self._family_compressions[label]
            # the columns (i, c, j) of the values in the order (i, j, c)
            order = [(i * d + c) * k + j for i in range(k) for j in range(k) for c in range(d)]
            bad = embed.first_outside_range(values.take_cols(order))
            witness = ""
            if bad is not None:
                i, j, c = np.unravel_index(bad, (k, k, d))
                witness = f"pair ({i},{j}), {other} basis {c}"
            add(f"finite-basis-compression-{label}", statement, bad is None, witness)

        # trace condition: summing side-1 compressions of a side-2 inner
        # product recovers the A-valued inner product (and symmetrically)
        add(
            "finite-basis-trace-u",
            "summed first-family compressions of side-2 inner products equal the embedded A-valued inner product",
            self.inner_B2.transform(traces["u"]) == self.inner_A.transform(self.left_embed_1.matrix),
        )
        add(
            "finite-basis-trace-v",
            "summed second-family compressions of side-1 inner products equal the embedded A-valued inner product",
            self.inner_B1.transform(traces["v"]) == self.inner_A.transform(self.left_embed_2.matrix),
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

        The maps are derived once per specification: every later call
        returns the same maps, or raises the same failure again.
        """
        if self._index_maps is None:
            try:
                self._index_maps = self._derived_index_maps()
            except LambdaNotFaithful as exc:
                self._index_maps = exc
        if isinstance(self._index_maps, LambdaNotFaithful):
            raise LambdaNotFaithful(*self._index_maps.args)
        return self._index_maps

    def _derived_index_maps(self) -> "LambdaMaps":
        lams = {}
        for side, label, embed in [("side-1", "v", self.left_embed_2),
                                   ("side-2", "u", self.left_embed_1)]:
            _, totals = self._family_compressions[label]
            bad = embed.first_outside_range(totals)
            if bad is not None:
                raise LambdaNotFaithful(
                    f"{side} compression sum for basis element {bad} is outside the embedded base algebra"
                )
            lams[side] = embed.matrix.solve(totals)

        for side, lam in lams.items():
            if not lam.is_nonnegative():
                raise LambdaNotFaithful(f"{side} index map has a non-positive entry")
            zero = _first(~_columns(lam).nonzero())
            if zero is not None:
                raise LambdaNotFaithful(f"{side} index map kills basis element {zero[0]}")
        lam1, lam2 = lams["side-1"], lams["side-2"]

        # lam diag(embed(e_a)) = diag(e_a) lam for every a: on the grid
        # (a, j), column j of lam times embed[j, a] against lam[a, j] e_a
        units = _columns(ExactMatrix.identity(self.algebra_A.dim))
        checks = []
        for label, lam, embed in [("1", lam1, self.right_embed_1), ("2", lam2, self.right_embed_2)]:
            base, cols = _grid(units, _columns(lam))
            diff = cols.scaled(embed.matrix.T) - base.scaled(lam)
            bad = _first(diff.nonzero().any(axis=1))
            checks.append(
                CheckResult(
                    f"index-map-right-compat-{label}",
                    "the index map intertwines the twisted right A-action with multiplication",
                    bad is None,
                    "" if bad is None else f"base basis {bad[0]}",
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
        algebra by the given families, each one matrix whose columns are its
        elements (standard algebra bases by default).

        With K = embed @ lam, the sum over the family's elements e of
        diag(e) K diag(e)^H has entry (p, q) equal to K[p, q] times
        (B B^H)[p, q], B holding the family as columns: one product and
        one member-wise scaling."""
        maps = self.derive_lambda()
        out = []
        for label, alg, family, embed, lam, statement in [
            ("b1", self.algebra_B1, basis_1, self.right_embed_1, maps.lam1,
             "the first side algebra is recovered from its family via the index map"),
            ("b2", self.algebra_B2, basis_2, self.right_embed_2, maps.lam2,
             "the second side algebra is recovered from its family via the index map"),
        ]:
            basis = ExactMatrix.identity(alg.dim) if family is None else family
            recon = _entries(embed.matrix @ lam).scaled(basis @ basis.H)
            out.append(CheckResult(
                f"strong-basis-{label}",
                statement,
                (recon - _entries(ExactMatrix.identity(alg.dim))).is_zero(),
            ))
        return out

    # -- derived right module basis over the base algebra ---------------------

    def derive_right_A_basis(self):
        """Build the two induced generating families of H as a right
        A-module and verify their reconstruction identities.

        Returns (family_u, family_v, checks): family_u holds the first
        family acted on by the side-1 algebra basis, family_v the second
        family acted on by the side-2 algebra basis, each as the columns
        (c, j) of one matrix, column (c, j) being ops[c] @ vectors[j].
        """
        families, checks = {}, []
        for label, ops, family in [("u", self.right_B1, 1), ("v", self.right_B2, 2)]:
            families[label] = acted = acted_columns(ops, self.families[family])
            checks.append(
                CheckResult(
                    f"right-a-basis-{label}",
                    "the induced family generates H as a right module over the base algebra",
                    _reconstructs(self.right_A, acted, self.inner_A),
                )
            )
        return families["u"], families["v"], checks

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

    # u_i = e_i (x) 1 and v_k = 1 (x) e_k, the columns of I_M (x) 1 and
    # 1 (x) I_N; B1 acts by multiplication with the v_k, B2 with the u_i
    basis_U = _columns(ExactMatrix.identity(M).kron(B1.unit()))
    basis_V = _columns(B2.unit().kron(ExactMatrix.identity(N)))
    right_B1 = left_B1 = basis_V.to_diagonal()
    right_B2 = left_B2 = basis_U.to_diagonal()

    # the identity, as a batch of one
    inner_A = GramStack(ExactMatrix.identity(dim).reshaped((), (1,)))
    inner_B1 = GramStack(right_B1)
    inner_B2 = GramStack(right_B2)

    embed1 = AlgebraHom.scalar_embedding(B1)
    embed2 = AlgebraHom.scalar_embedding(B2)

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

    # element c acts by multiplication with column c of its twist matrix
    def acting(twist):
        return _columns(twist).to_diagonal()

    right_B1 = acting(alpha.matrix)
    right_B2 = acting(beta.matrix)
    left_B1 = acting(beta.matrix @ alpha.matrix)
    left_B2 = acting(alpha.matrix @ beta.matrix)

    inner_A = GramStack(acting(ExactMatrix.identity(d)))
    inner_B1 = inner_A.transform(alpha.inverse().matrix)
    inner_B2 = inner_A.transform(beta.inverse().matrix)

    ones = _columns(alg.unit())

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
        basis_U=ones,
        basis_V=ones,
        name=f"twisted-functions-{d}",
    )
