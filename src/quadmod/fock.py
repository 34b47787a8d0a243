"""Truncated interior tensor towers over a validated module specification.

The tower has levels 0..K. Level 0 is the direct sum of the two side
algebras with the inner product induced by the index maps. Level 1 is the
module itself. Level n splits into summands indexed by words over {1, 2}
of length n-1 recording which balanced tensor product glued each step;
each summand is the quotient of an ambient coordinate tensor space by the
null space of its inner product.

Everything is exact. A quotient basis is a set of ambient coordinates
reps. When the scalarized Gram is diagonal, as it is on every builtin
module, reps are the coordinates where its diagonal is nonzero, and the
quotient is a coordinate selection: an ambient operator descends to its
entries (reps, reps), and it preserves the null space exactly when its
entries (reps, outside) vanish. Otherwise reps are the pivot columns of a
deterministic reduced row echelon form of the Gram, and operators move
through the express map that elimination finds. QuadSpace hides which
kind a summand is. Every construction step is cross-checked (balancing
relations, the two index-map routes to the A-valued inner product, and the
bracketing independence of triple tensors).

Every structure operator of a balanced tensor is x (x) I or I (x) x, and
it is never formed: QuadSpace takes it as the factor x, the size of the
identity and the side, an operator of a summand that is no tensor being
the case of an identity of size 1. A coordinate quotient reads the entries
it needs with kron_identity_entries, and an eliminated one multiplies by
it with linalg's Kronecker kernels. Each operator list of a summand is one
ExactMatrix with one batch axis over the list: it is descended, held and
read as that one batch.

Nor are the Gram stacks of a balanced tensor H (x)_B W formed on its
ambient space. Coordinate k of a stack is sum_c G_c (x) (W_k L_c), with
G_c the B-valued Gram of H, L_c the action of B on W and W_k the stack of
W. Its scalar Gram, the coordinate sum of the A-valued stack, is
sum_c G_c (x) (S L_c), S being the scalar Gram of W (the coordinate sum of
its A-valued stack, on either kind of quotient): one Kronecker sum of the
ambient size, from which reps are chosen as for any Gram. Each stack is
then formed on reps x reps only, by linalg's kron_sum_entries, so a cut
summand forms no coordinate larger than |reps|^2. The associativity
check, which is defined on the whole triple ambient space, forms the pair
stacks H (x) H on every index, once, and compares the two bracketings of
each triple stack one row slab at a time, so no whole triple stack is
ever held (see _associativity_check).

Operators on the tower are block matrices over the summands
(FockOperator), indexed by a batch shape: each block is one ExactMatrix
holding that block of every member in its batch axes, so a product or sum
of operators is one exact product or sum per pair of blocks, under the
per-entry bound of linalg whatever the number of members. A single
operator has the batch shape (), and indexing op[i] reads member i.
creations, left_actions, right_actions and lifts build whole batches: the
creations of every column of a matrix of module vectors, the side actions
of every column of a coefficient matrix, or the lifts of every member of a
batch of module operators, in one product per block; creation and lift
are their one-member cases. An operator whose blocks are all diagonal,
such as the lifts of a diagonal model, can also be read as a FockDiagonal,
which multiplies by it and takes commutators with it without a matrix
product.

Window pruning: an identity is checked on the blocks whose source level
lies in a window [lo, hi]. The source summands of a product are those of
its rightmost factor, and those of a sum are those of its terms, so
restricting every rightmost factor, and every batched action, to source
levels in [lo, hi] leaves each block inside the window unchanged and drops
only blocks the check ignores. Creations are built whole: no creation has
a block from the top level K, so every window [0, hi] with hi >= K - 1
keeps all of their blocks.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import os

import numpy as np

from .linalg import (
    ExactMatrix,
    GramStack,
    NotDiagonal,
    diagonal_commutator,
    entrywise,
    kron_identity_entries,
    kron_sum,
    kron_sum_entries,
    regroup,
    times_kron_identity,
)
from .quadmodule import QuadModuleSpec
from .report import CheckResult

# Exact rational arithmetic is cubic in the level dimension, so the
# default budget refuses towers that would grind or exhaust memory.
# Raise QUADMOD_MAX_DIM deliberately for bigger builds.
DEFAULT_MAX_DIM = 600


class DepthTooSmall(ValueError):
    """The tower needs at least two levels above the coefficient level."""


class TooLarge(ValueError):
    """The requested tower exceeds the configured dimension budget."""


class BadBudget(ValueError):
    """QUADMOD_MAX_DIM is set but is not a positive integer."""


class TowerDefect(ValueError):
    """A construction cross-check failed. checks holds every check made
    before the tower was abandoned, the failed one last."""

    def __init__(self, checks: list):
        super().__init__(checks[-1].witness)
        self.checks = checks


def dimension_budget() -> int:
    raw = os.environ.get("QUADMOD_MAX_DIM", "")
    if not raw:
        return DEFAULT_MAX_DIM
    try:
        value = int(raw)
    except ValueError as exc:
        raise BadBudget(f"QUADMOD_MAX_DIM is not an integer: {raw!r}") from exc
    if value < 1:
        raise BadBudget("QUADMOD_MAX_DIM must be positive")
    return value


def _coordinate_quotient(diagonal: ExactMatrix):
    """The quotient by the null space of a diagonal scalar Gram, given as
    its diagonal column: it keeps the coordinates reps where the diagonal
    is nonzero (the pivots rref would find), its Gram is the diagonal
    there, inverted entry by entry, and no express map is needed, as
    express is the row selection reps."""
    reps = diagonal.nonzero_rows()
    kept = diagonal.take_rows(reps)
    return reps, kept.to_diagonal(), kept.reciprocals().to_diagonal(), None


def _eliminated_quotient(scalar: ExactMatrix):
    """The quotient by the null space of any Hermitian scalar Gram: reps are
    the pivot columns of its reduced row echelon form, and express =
    G_q^-1 @ scalar.take_rows(reps) sends ambient coordinates to quotient
    coordinates, G_q being the Gram on reps. Its columns reps are the
    identity, as include, the column selection reps, is its right inverse."""
    _, pivots = scalar.rref()
    reps = list(pivots)
    gram = scalar.submatrix(reps, reps)
    gram_inv = gram.inverse()
    express = gram_inv @ scalar.take_rows(reps)
    if express.take_cols(reps) != ExactMatrix.identity(len(reps)):
        raise AssertionError("internal error: express/include mismatch")
    return reps, gram, gram_inv, express


def _quotient(scalar: ExactMatrix):
    """(reps, gram, gram_inv, express) of the quotient by the null space of
    a Hermitian scalar Gram: a coordinate selection, with express None,
    when the Gram is diagonal, and by elimination otherwise. ValueError
    when the Gram is not Hermitian, which a diagonal Gram is exactly when
    its diagonal, read once, is real."""
    try:
        diagonal = scalar.diagonal_columns()
    except NotDiagonal:
        if not scalar.is_hermitian():
            raise ValueError("ambient inner product is not Hermitian") from None
        return _eliminated_quotient(scalar)
    if not diagonal.is_real():
        raise ValueError("ambient inner product is not Hermitian")
    return _coordinate_quotient(diagonal)


# the structure operators a QuadSpace carries, in the order they are checked
_OPERATORS = ("left_B1", "left_B2", "right_A", "right_B1", "right_B2")


class QuadSpace:
    """A quotient inner-product space in the tower.

    Presented by an ambient coordinate space and the representative
    ambient indices (reps) whose basis vectors are the quotient's basis.
    order is reps then the other indices (outside), a read-only index
    array made once, of which reps and outside are views, so a gather
    converts no list. The include map sends a quotient basis vector to its ambient basis
    vector, so x @ include is the column selection x.take_cols(reps). The
    express map, sending ambient coordinates to quotient coordinates, takes
    one of two forms:

    * a coordinate quotient, whose scalarized Gram is diagonal, cuts away
      the coordinates where the diagonal vanishes, so express is the row
      selection reps too and is not stored (express is None);
    * otherwise express is G_q^-1 @ scalar.take_rows(reps), G_q being the
      Gram on reps, found by elimination.

    coordinates, descend and ambient apply express and include in either
    form, so no caller depends on which. Carries quotient Gram stacks for
    the inner products that exist on it and the transported structure
    operators, each list one ExactMatrix with one batch axis over the
    list, or None.
    """

    __slots__ = (
        "ambient_dim",
        "dim",
        "order",
        "express",
        "gram_A",
        "gram_B1",
        "gram_B2",
        "gram_scalar",
        "gram_scalar_inv",
        "left_B1",
        "left_B2",
        "right_A",
        "right_B1",
        "right_B2",
        "degenerate",
    )

    def __init__(self, **kw):
        for slot in self.__slots__:
            setattr(self, slot, kw.pop(slot))
        if kw:
            raise TypeError(f"unexpected fields: {sorted(kw)}")

    @property
    def reps(self) -> np.ndarray:
        return self.order[:self.dim]

    @property
    def outside(self) -> np.ndarray:
        return self.order[self.dim:]

    @classmethod
    def from_ambient(
        cls,
        gram_A: GramStack | _BalancedStack,
        gram_B1: GramStack | _BalancedStack | None,
        gram_B2: GramStack | _BalancedStack | None,
        left_B1: ExactMatrix | None,
        left_B2: ExactMatrix | None,
        right_A: ExactMatrix | None,
        right_B1: ExactMatrix | None = None,
        right_B2: ExactMatrix | None = None,
        head: int = 1,
        tail: int = 1,
    ) -> "QuadSpace":
        """The quotient of an ambient space by the null space of its
        scalarized Gram. Each Gram stack is a GramStack or a _BalancedStack,
        which forms its entries on reps only. Each operator list is one
        ExactMatrix with one batch axis over the list, or None. The ambient
        space is a tensor product of factors of dims head and tail, and a
        left action x acts on it as x (x) I_tail, a right action as
        I_head (x) x; a space that is no tensor has head = tail = 1. Each
        list descends in one batch (see descend); a list whose member does
        not preserve the null space is refused, naming its first such
        member."""
        ambient_dim = gram_A.dim
        reps, gram, gram_inv, express = _quotient(gram_A.scalarized())
        kept = len(reps)
        cut = np.ones(ambient_dim, bool)
        cut[reps] = False
        order = np.concatenate([np.asarray(reps, np.intp), np.flatnonzero(cut)])
        order.flags.writeable = False
        reps = order[:kept]
        # the operator fields are filled in below, once descend can run
        space = cls(
            ambient_dim=ambient_dim,
            dim=kept,
            order=order,
            express=express,
            gram_A=gram_A.restrict(reps),
            gram_B1=gram_B1.restrict(reps) if gram_B1 is not None else None,
            gram_B2=gram_B2.restrict(reps) if gram_B2 is not None else None,
            gram_scalar=gram,
            gram_scalar_inv=gram_inv,
            degenerate=kept != ambient_dim,
            **dict.fromkeys(_OPERATORS),
        )
        # every structure operator must preserve the null space
        for label, ops in zip(_OPERATORS, (left_B1, left_B2, right_A, right_B1, right_B2)):
            if ops is None:
                continue
            left = label.startswith("left")
            quotient, null_part = space.descend(ops, tail if left else head, left)
            bad = null_part.nonzero()
            if bad.any():
                raise ValueError(
                    f"{label}[{int(np.argmax(bad))}] does not preserve the inner-product null space"
                )
            setattr(space, label, quotient)
        return space

    def coordinates(self, x: ExactMatrix, s: int = 1, left: bool = True) -> ExactMatrix:
        """express @ (x (x) I_s) when left is true, express @ (I_s (x) x)
        otherwise: the quotient coordinates of the ambient vectors in the
        columns of that product, for every member of a batched x at once.
        A plain ambient matrix x is the case s = 1."""
        if self.express is None:
            return kron_identity_entries(x, s, left, self.reps, range(x.ncols * s))
        return times_kron_identity(self.express, x, s, left)

    def descend(self, x: ExactMatrix, s: int = 1, left: bool = True):
        """(express @ op @ include, express @ op on the null space) for the
        ambient operator op = x (x) I_s when left is true and I_s (x) x
        otherwise, for every member of a batched x at once: the operator op
        induces on the quotient, and a matrix that vanishes exactly when op
        preserves the null space of the ambient Gram (express kills a
        vector exactly when the Gram does). A plain ambient operator x is
        the case s = 1.

        The columns outside reps of I - include @ express span the null
        space, so for M = express @ op the second matrix is
        M[:, outside] - M[:, reps] @ express[:, outside]. On a coordinate
        quotient express vanishes outside reps, and the two matrices are the
        entries (reps, reps) and (reps, outside) of op, read by one gather
        of the rows reps in the column order reps, outside. The quotient is
        copied out of it, so that it does not hold the null part alive."""
        kept = self.dim
        if self.express is None:
            both = kron_identity_entries(x, s, left, self.reps, self.order)
            return (both.take_cols(np.arange(kept)),
                    both.take_cols(range(kept, self.ambient_dim)))
        m = self.coordinates(x, s, left)
        quotient = m.take_cols(self.reps)
        return quotient, (m.take_cols(self.outside)
                          - quotient @ self.express.take_cols(self.outside))

    def ambient(self, L: ExactMatrix) -> ExactMatrix:
        """include @ L @ express: an operator on the quotient as the ambient
        operator that vanishes on the null space, for every member of a
        batched L at once."""
        n = self.ambient_dim
        if self.express is None:
            return L.scattered(self.reps, self.reps, (n, n))
        return (L @ self.express).scattered(self.reps, range(n), (n, n))


class _BalancedStack:
    """One Gram stack of a balanced tensor, held as its factors: coordinate
    k is sum_c G_c (x) (W_k @ L_c), G being the left factor's inner product
    valued in the balancing algebra, L its left action on the right factor,
    one batch over c, and W the right factor's stack. QuadSpace
    reads it twice: its scalar Gram, sum_c G_c (x) (S @ L_c) with S the
    coordinate sum of W, as one Kronecker sum, and its entries on the kept
    coordinates, one kron_sum_entries over every coordinate, so no
    coordinate of a cut summand is formed on the ambient space."""

    __slots__ = ("inner", "stack", "left_ops")

    def __init__(self, inner_left: GramStack, stack: GramStack, left_ops: ExactMatrix):
        self.inner = inner_left.grams
        self.stack = stack
        self.left_ops = left_ops

    @property
    def dim(self) -> int:
        return self.inner.nrows * self.stack.dim

    def scalarized(self) -> ExactMatrix:
        return kron_sum(self.inner, self.stack.scalarized() @ self.left_ops)

    def restrict(self, idx) -> GramStack:
        rights = _times_each(self.stack.grams, self.left_ops)
        return GramStack(kron_sum_entries(self.inner, rights, idx, idx))


def _times_each(stack: ExactMatrix, ops: ExactMatrix) -> ExactMatrix:
    """Every member of a stack with one batch axis times every member of
    ops, in one batched product: member (k, c) is stack[k] @ ops[c]."""
    return stack.reshaped(stack.batch_shape, stack.batch_shape + (1,)) @ ops


def relative_tensor(h: QuadSpace, tensor_type: int, w: QuadSpace) -> tuple[QuadSpace, ExactMatrix]:
    """The balanced tensor of the module summand h with the tower summand w.

    tensor_type selects the balancing side algebra (1 or 2). Returns the
    quotient space and its balancing defects, one member per side algebra
    basis element, which callers assert to vanish; the quotient flag
    degenerate records whether the ambient space was actually cut.
    """
    if tensor_type not in (1, 2):
        raise ValueError("tensor_type must be 1 or 2")
    inner_left = h.gram_B1 if tensor_type == 1 else h.gram_B2
    w_left = w.left_B1 if tensor_type == 1 else w.left_B2
    h_right = h.right_B1 if tensor_type == 1 else h.right_B2

    gram_A, gram_B1, gram_B2 = (
        None if stack is None else _BalancedStack(inner_left, stack, w_left)
        for stack in (w.gram_A, w.gram_B1, w.gram_B2))
    space = QuadSpace.from_ambient(gram_A, gram_B1, gram_B2, h.left_B1, h.left_B2, w.right_A,
                                   head=h.dim, tail=w.dim)
    # express @ (h_right[c] (x) I_w - I_h (x) w_left[c]), every c at once
    defects = space.coordinates(h_right, w.dim) - space.coordinates(w_left, h.dim, False)
    return space, defects


def _sum_blocks(a: dict, b: dict) -> dict:
    """The blocks of a sum of two block operators."""
    blocks = dict(a)
    for k, v in b.items():
        blocks[k] = blocks[k] + v if k in blocks else v
    return blocks


def _difference_blocks(a: dict, b: dict) -> dict:
    """The blocks of a difference of two block operators, each block shared
    by both one subtraction."""
    blocks = dict(a)
    for k, v in b.items():
        blocks[k] = blocks[k] - v if k in blocks else -v
    return blocks


def _product_blocks(a: dict, b: dict) -> dict:
    """The blocks of a product of two block operators: each block (d, s) of
    a meets every block (s, t) of b, and products landing on the same
    (d, t) add up."""
    by_src = {}
    for (d2, s2), m2 in b.items():
        by_src.setdefault(d2, []).append((s2, m2))
    blocks = {}
    for (d1, s1), m1 in a.items():
        for s2, m2 in by_src.get(s1, ()):
            k = (d1, s2)
            prod = m1 @ m2
            blocks[k] = blocks[k] + prod if k in blocks else prod
    return blocks


class FockOperator:
    """Block matrices over the summands of a truncated tower, indexed by a
    batch shape: each block is one ExactMatrix over all members at once
    (see linalg), so a product or sum is one exact product or sum per
    block pair rather than one per member. A single operator has the batch
    shape ().

    A block may have size-1 batch axes where the operator has more: such a
    block is the same for every index along them, and numpy broadcasting
    spreads it without copying. Blocks that vanish for every member are
    dropped; window and reshape, which only select or re-view blocks,
    keep them unscanned. window restricts an operator to a source-level
    window (see the module docstring on pruning).
    """

    __slots__ = ("space", "shape", "blocks")

    def __init__(self, space: "FockSpace", shape, blocks: dict):
        self.space = space
        self.shape = tuple(shape)
        self.blocks = {k: v for k, v in blocks.items() if not v.is_zero()}

    @classmethod
    def _of_nonzero(cls, space: "FockSpace", shape, blocks: dict) -> "FockOperator":
        """An operator from blocks already known to be nonzero, such as a
        selection or a re-view of another operator's blocks: none is
        scanned again."""
        op = cls.__new__(cls)
        op.space, op.shape, op.blocks = space, tuple(shape), blocks
        return op

    def _with(self, other, blocks_of):
        """blocks_of applied to the blocks of both operators, over the
        broadcast batch shape; NotImplemented for any other operand."""
        if not isinstance(other, FockOperator):
            return NotImplemented
        if self.space is not other.space:
            raise ValueError("operators live on different towers")
        shape = self.shape
        if other.shape != shape:
            shape = np.broadcast_shapes(shape, other.shape)
        return FockOperator(self.space, shape, blocks_of(self.blocks, other.blocks))

    def __matmul__(self, other):
        return self._with(other, _product_blocks)

    def __add__(self, other):
        return self._with(other, _sum_blocks)

    def __sub__(self, other):
        return self._with(other, _difference_blocks)

    def __neg__(self):
        return FockOperator(self.space, self.shape, {k: -v for k, v in self.blocks.items()})

    def __getitem__(self, index) -> "FockOperator":
        """The operator indexed on its batch axes as a numpy array of its
        shape would be: op[i] is member i, of shape (), and slices and new
        axes keep blocks as views."""
        shape = np.empty(self.shape, np.int8)[index].shape
        return FockOperator(self.space, shape,
                            {k: v.take(self.shape, index) for k, v in self.blocks.items()})

    def reshape(self, shape) -> "FockOperator":
        """The same members, in the same C order, over the batch shape shape."""
        shape = np.empty(self.shape, np.int8).reshape(shape).shape
        return FockOperator._of_nonzero(self.space, shape, {
            k: v.reshaped(self.shape, shape) for k, v in self.blocks.items()})

    def adjoint(self) -> "FockOperator":
        """The adjoint for the tower's scalar inner products: block (d, s)
        becomes block (s, d)."""
        space = self.space
        return FockOperator(space, self.shape, {
            (s, d): space.summand(s).gram_scalar_inv @ m.H @ space.summand(d).gram_scalar
            for (d, s), m in self.blocks.items()})

    def is_zero(self) -> bool:
        return not self.blocks

    def __eq__(self, other):
        if not isinstance(other, FockOperator) or self.space is not other.space:
            return NotImplemented
        return (self - other).is_zero()

    def combine(self, coeffs: ExactMatrix) -> "FockOperator":
        """For one batch axis: member j of the result is sum_k coeffs[k, j] *
        member k, one exact product per block."""
        if self.shape != (coeffs.nrows,):
            raise ValueError("coefficient rows do not match the members")
        return FockOperator(self.space, (coeffs.ncols,),
                            {k: v.combine(coeffs) for k, v in self.blocks.items()})

    def sums(self, size: int) -> "FockOperator":
        """For one batch axis: member i of the result is the sum of the size
        members from i * size on, as one combine."""
        groups = [j // size for j in range(self.shape[0])]
        return self.combine(ExactMatrix.identity(self.shape[0] // size).take_rows(groups))

    def window(self, lo: int, hi: int) -> "FockOperator":
        """The blocks whose source level lies in [lo, hi]."""
        return FockOperator._of_nonzero(self.space, self.shape, {
            k: v for k, v in self.blocks.items() if lo <= k[1][0] <= hi})

    def block(self, dest, src) -> ExactMatrix:
        """Block (dest, src) of every member, over the full batch shape;
        zero matrices where the operator has no such block."""
        got = self.blocks.get((dest, src))
        if got is not None:
            return got.reshaped(self.shape, self.shape)
        return ExactMatrix.zeros(*self.shape, self.space.summand(dest).dim,
                                 self.space.summand(src).dim)

    def diagonal(self) -> "FockDiagonal":
        """The operator as diagonals, for one whose every block is a
        diagonal matrix on the diagonal of the block grid."""
        columns = {}
        for (dest, src), v in self.blocks.items():
            if dest != src:
                raise ValueError("the operator has a block off the block diagonal")
            columns[dest] = v.diagonal_columns()
        return FockDiagonal(self.space, self.shape, columns)

    def nonzero(self):
        """Per member, whether it has a nonzero block: a boolean array of
        the batch shape."""
        return functools.reduce(np.logical_or, (v.nonzero() for v in self.blocks.values()),
                                np.zeros(self.shape, bool))

    def first_failure(self, lo: int, hi: int):
        """The first member, in C order over the batch shape, with a nonzero
        block whose source level lies in [lo, hi], with that member's first
        such block (dest, src) in sorted order; None when every member
        vanishes on the window."""
        inside = self.window(lo, hi)
        bad = inside.nonzero()
        if not bad.any():
            return None
        index = np.unravel_index(int(np.argmax(bad)), self.shape)
        key = min(k for k, v in inside.blocks.items()
                  if np.broadcast_to(v.nonzero(), self.shape)[index])
        return tuple(int(i) for i in index), key


class FockDiagonal:
    """Block-diagonal tower operators whose blocks are diagonal matrices,
    indexed by a batch shape, such as the class lifts of a diagonal model:
    per summand, the diagonals of every member as one batched column.
    Multiplying an operator by them from the left, or taking its
    commutator with them, scales the rows and columns of the operator's
    blocks: one entrywise product per block and no matrix product (see
    linalg on diagonal kernels). A summand without a column is one where
    every member vanishes."""

    __slots__ = ("space", "shape", "columns")

    def __init__(self, space: "FockSpace", shape, columns: dict):
        self.space = space
        self.shape = tuple(shape)
        self.columns = columns

    def __getitem__(self, index) -> "FockDiagonal":
        """The members indexed on the batch axes, as FockOperator indexes."""
        shape = np.empty(self.shape, np.int8)[index].shape
        return FockDiagonal(self.space, shape,
                            {k: v.take(self.shape, index) for k, v in self.columns.items()})

    def _batch(self, x: FockOperator) -> tuple:
        if self.space is not x.space:
            raise ValueError("operators live on different towers")
        return np.broadcast_shapes(self.shape, x.shape)

    def combine(self, coeffs: ExactMatrix) -> "FockDiagonal":
        """For diagonals with one batch axis: member j of the result is
        sum_k coeffs[k, j] * member k, as FockOperator.combine forms it."""
        if self.shape != (coeffs.nrows,):
            raise ValueError("coefficient rows do not match the diagonals")
        return FockDiagonal(self.space, (coeffs.ncols,),
                            {k: v.combine(coeffs) for k, v in self.columns.items()})

    def times(self, x: FockOperator) -> FockOperator:
        """D @ x, member by member: the rows of each block (dest, src) of x
        scaled by the diagonal on dest."""
        shape = self._batch(x)
        return FockOperator(self.space, shape, {
            (dest, src): entrywise(self.columns[dest], m)
            for (dest, src), m in x.blocks.items() if dest in self.columns})

    def right_times(self, x: FockOperator) -> FockOperator:
        """x @ D, member by member: the columns of each block (dest, src) of
        x scaled by the diagonal on src, the commutator with no diagonal on
        dest."""
        shape = self._batch(x)
        return FockOperator(self.space, shape, {
            (dest, src): diagonal_commutator(m, None, self.columns[src])
            for (dest, src), m in x.blocks.items() if src in self.columns})

    def commutator(self, x: FockOperator) -> FockOperator:
        """x @ D - D @ x, member by member: each block (dest, src) of x
        times the mask of the diagonal on src less the diagonal on dest."""
        shape = self._batch(x)
        blocks = {}
        for (dest, src), m in x.blocks.items():
            left, right = self.columns.get(dest), self.columns.get(src)
            if left is not None or right is not None:
                blocks[(dest, src)] = diagonal_commutator(m, left, right)
        return FockOperator(self.space, shape, blocks)


class FockSpace:
    """Levels 0..K of the tower over a module specification."""

    def __init__(self, spec: QuadModuleSpec, depth: int, summands: dict, lam1, lam2, checks):
        self.spec = spec
        self.depth = depth
        self.summands = summands
        self.lam1 = lam1
        self.lam2 = lam2
        self.build_checks = checks
        self.keys = sorted(summands.keys())
        self._levels = [key[0] for key in self.keys]
        # where each summand's block starts in a member of a side family
        self._offsets = list(itertools.accumulate(
            (summands[key].dim ** 2 for key in self.keys), initial=0))
        # per QuadSpace operator list ("left_B1", "left_B2", "right_A"): the
        # batched matrix whose member c holds the summand blocks of operator c
        self._side_families = {}
        # per creation family: the stacked coefficient-level operator
        self._coefficient_stacks = {}

    def summand(self, key) -> QuadSpace:
        return self.summands[key]

    def keys_at_level(self, n: int):
        return [k for k in self.keys if k[0] == n]

    @property
    def level_dims(self) -> list[int]:
        dims = [0] * (self.depth + 1)
        for (n, _), sp in self.summands.items():
            dims[n] += sp.dim
        return dims

    # -- basic operators -------------------------------------------------

    def zero(self) -> FockOperator:
        return FockOperator(self, (), {})

    def identity(self) -> FockOperator:
        return FockOperator(
            self, (), {(k, k): ExactMatrix.identity(sp.dim) for k, sp in self.summands.items()}
        )

    def level_projection(self, n: int) -> FockOperator:
        return FockOperator(
            self,
            (),
            {
                (k, k): ExactMatrix.identity(self.summands[k].dim)
                for k in self.keys_at_level(n)
            },
        )

    def creation(self, family: int, xi: ExactMatrix) -> FockOperator:
        """The degree-raising operator attached to a module vector: the one
        member of creations on the whole tower."""
        if xi.shape != (self.spec.dim, 1):
            raise ValueError("module vector shape mismatch")
        return self.creations(family, xi)[0]

    def creations(self, family: int, xs: ExactMatrix) -> FockOperator:
        """The creation operators of the module vectors in the columns of xs,
        one member per column.

        family 1 prepends through the first balanced tensor, family 2
        through the second. The vectors are given in ambient module
        coordinates. On the coefficient level a creation acts on the
        matching side summand: its block's column t is express @ right[t] @ x
        for that side's right action right, one product of the stacked
        express @ right[t] with I (x) xs (times_kron_identity) for every
        column t and vector x at once. From level n >= 1 it prepends the
        tensor factor: the block express @ (x (x) I) of every vector is read
        off with all the vectors as columns at once, by the quotient's
        coordinates.
        """
        if family not in (1, 2):
            raise ValueError("family must be 1 or 2")
        if xs.nrows != self.spec.dim:
            raise ValueError("module vector shape mismatch")
        h = self.summands[(1, ())]
        c = xs.ncols
        width = self.summands[(0, ())].dim
        coeff = times_kron_identity(self._coefficient_stack(family), xs, width, False)
        # column (t, j) of coeff is column t of member j's block
        blocks = {((1, ()), (0, ())): coeff.regrouped((h.dim, width, c), (2, 0, 1))}
        xs_q = h.coordinates(xs)
        for key in self.keys:
            n, word = key
            if n == 0 or n == self.depth:
                continue
            dest = (n + 1, (family,) + word)
            dsp = self.summands[dest]
            s = self.summands[key].dim
            # column (j, v) of the product is column v of member j's block
            prod = dsp.coordinates(xs_q, s)
            blocks[(dest, key)] = prod.regrouped((dsp.dim, c, s), (1, 0, 2))
        return FockOperator(self, (c,), blocks)

    def _coefficient_stack(self, family: int) -> ExactMatrix:
        """express @ right[t] for every coefficient-level column t, side by
        side in one row of blocks, built once per family: right is the
        family's side right action, and the other side's columns are zero."""
        if family not in self._coefficient_stacks:
            h = self.summands[(1, ())]
            spec = self.spec
            n, d1, d2 = spec.dim, spec.algebra_B1.dim, spec.algebra_B2.dim
            if self.summands[(0, ())].dim != d1 + d2:
                raise AssertionError("internal error: coefficient level was cut")
            rights = spec.right_B1 if family == 1 else spec.right_B2
            d = rights.batch_shape[0]
            # the family's right actions side by side, placed among the columns
            # of every coefficient basis element
            own = h.coordinates(regroup(rights.flattened(), (d, n, n), (1, 0, 2), n, d * n))
            start = 0 if family == 1 else d1 * n
            self._coefficient_stacks[family] = own.scattered(
                range(h.dim), range(start, start + d * n), (h.dim, (d1 + d2) * n))
        return self._coefficient_stacks[family]

    def _side_family(self, ops: str) -> ExactMatrix:
        """One operator list of the summands, built once, as an r x 1 x L
        batched matrix: member c holds every summand's operator c, each read
        row-major, side by side in key order."""
        if ops not in self._side_families:
            flat = ExactMatrix.hstack(getattr(self.summands[key], ops).flattened()
                                      for key in self.keys)
            self._side_families[ops] = flat.regrouped((flat.nrows, 1, flat.ncols), (0, 1, 2))
        return self._side_families[ops]

    def _diagonal_family(self, ops: str, coeffs: ExactMatrix, window) -> FockOperator:
        """The block-diagonal operators sum_c coeffs[c, j] * ops[c], one per
        column j, on the summands whose level lies in window = (lo, hi):
        keys are sorted by level, so those summands are one run of columns
        of the side family, combined by one exact product and then cut into
        blocks."""
        lo, hi = window
        start = bisect.bisect_left(self._levels, lo)
        stop = bisect.bisect_right(self._levels, hi)
        at = self._offsets
        run = self._side_family(ops).take_cols(range(at[start], at[stop])).combine(coeffs)
        keys = self.keys[start:stop]
        cuts = run.square_blocks([self.summands[key].dim for key in keys])
        return FockOperator(self, (coeffs.ncols,), {(key, key): cut for key, cut in zip(keys, cuts)})

    def left_actions(self, side: int, coeffs: ExactMatrix, window) -> FockOperator:
        """The actions of the side algebra elements in the columns of coeffs,
        acting on the leftmost tensor factor and by one-sided multiplication
        on the coefficient level, one member per column, on the
        summands whose level lies in window = (lo, hi)."""
        if side not in (1, 2):
            raise ValueError("side must be 1 or 2")
        alg = self.spec.algebra_B1 if side == 1 else self.spec.algebra_B2
        if coeffs.nrows != alg.dim:
            raise ValueError("algebra element shape mismatch")
        return self._diagonal_family("left_B1" if side == 1 else "left_B2", coeffs, window)

    def right_actions(self, coeffs: ExactMatrix, window) -> FockOperator:
        """The right actions of the base algebra elements in the columns of
        coeffs, one member per column, on the summands whose level
        lies in window = (lo, hi)."""
        if coeffs.nrows != self.spec.algebra_A.dim:
            raise ValueError("base algebra element shape mismatch")
        return self._diagonal_family("right_A", coeffs, window)

    def lift(self, L: ExactMatrix) -> FockOperator:
        """The one member of lifts."""
        return self.lifts(L.reshaped((), (1,)))[0]

    def lifts(self, ops: ExactMatrix) -> FockOperator:
        """The extensions of the module operators ops, one batch along one
        axis given in quotient coordinates of the module summand, to the
        tower, one member per operator: each acts on the leftmost tensor
        factor and is zero on the coefficient level. On level n >= 2 the
        block of L is the quotient express @ (L (x) I) @ include of the
        summand, and L must preserve the summand's null space (see
        QuadSpace.descend). On a coordinate quotient the blocks and null
        parts of all members are gathered at once from the batch, and an
        eliminated quotient forms them in one batched product."""
        h = self.summands[(1, ())]
        if len(ops.batch_shape) != 1 or ops.shape != (h.dim, h.dim):
            raise ValueError("operators must act on the module summand, along one batch axis")
        blocks = {((1, ()), (1, ())): ops}
        for key in self.keys:
            n, word = key
            if n < 2:
                continue
            tail = self.summands[(n - 1, word[1:])]
            block, null_part = self.summands[key].descend(ops, tail.dim)
            if not null_part.is_zero():
                raise ValueError(
                    "operator does not descend to the tensor quotient; "
                    "it is not adjointable on the module"
                )
            blocks[(key, key)] = block
        return FockOperator(self, ops.batch_shape, blocks)


_BALANCED = "balanced-tensor defects vanish in every summand"
_ROUTED = "both index-map routes give the A-valued inner product on every summand"


def _construction_defect(n: int, word: tuple, space: QuadSpace, defects, lam1, lam2):
    """The failed check of a new tower summand, or None when its balancing
    defects vanish and both index-map routes give its A-valued form."""
    unbalanced = defects.nonzero()
    if unbalanced.any():
        return CheckResult(
            "tensor-balanced", _BALANCED, False,
            f"balancing defect at level {n}, word {word}, basis {int(np.argmax(unbalanced))}",
        )
    for route, (stack, lam) in enumerate(((space.gram_B1, lam1), (space.gram_B2, lam2)), 1):
        differs = (stack.transform(lam).grams - space.gram_A.grams).nonzero()
        if differs.any():
            return CheckResult(
                "index-route-consistent", _ROUTED, False,
                f"index-map route {route} differs at level {n}, word {word}, "
                f"coordinate {int(np.argmax(differs))}",
            )
    return None


def build_fock(spec: QuadModuleSpec, depth: int) -> FockSpace:
    """Construct levels 0..depth of the tower, with all construction-time
    cross-checks enforced.

    Raises DepthTooSmall for depth < 2, BadBudget when QUADMOD_MAX_DIM is
    not a positive integer, TooLarge when the accumulated quotient
    dimension would exceed the QUADMOD_MAX_DIM budget,
    LambdaNotFaithful (from the index-map derivation) when level 0 cannot
    carry a definite inner product, and TowerDefect when a new summand fails
    its balancing or index-map route check or, from depth 3, the two
    bracketings of a triple tensor disagree somewhere on the whole triple
    ambient space, which _associativity_check reads one row slab at a
    time.
    """
    if depth < 2:
        raise DepthTooSmall("the tower needs depth at least 2")
    budget = dimension_budget()
    maps = spec.derive_lambda()
    lam1, lam2 = maps.lam1, maps.lam2
    checks = list(maps.checks)
    for c in checks:
        if not c.passed:
            raise ValueError(f"index map consistency failed: {c.check_id} ({c.witness})")

    dA = spec.algebra_A.dim
    d1 = spec.algebra_B1.dim
    d2 = spec.algebra_B2.dim

    # level 0: the two side algebras in a column, inner product through the
    # index maps. Every operator there is diagonal, multiplication in
    # C^d1 + C^d2, so each family is one batch of columns made diagonal.
    width = d1 + d2
    # coordinate Gram a: row a of both index maps
    gram0 = ExactMatrix.hstack([lam1, lam2]).regrouped((dA, width, 1), (0, 1, 2)).to_diagonal()
    # side basis element c: the unit of its coordinate
    units = ExactMatrix.identity(width).regrouped((width, width, 1), (1, 0, 2)).to_diagonal()
    # base basis element a: its images under both right embeddings
    right0_A = (ExactMatrix.vstack([spec.right_embed_1.matrix, spec.right_embed_2.matrix])
                .regrouped((width, dA, 1), (1, 0, 2)).to_diagonal())
    level0 = QuadSpace.from_ambient(GramStack(gram0), None, None, units.take((width,), slice(d1)),
                                    units.take((width,), slice(d1, None)), right0_A)
    if level0.degenerate:
        raise AssertionError("internal error: faithful index maps left level 0 degenerate")

    summands = {(0, ()): level0}
    total = level0.dim

    # level 1: the module itself
    h = QuadSpace.from_ambient(
        spec.inner_A,
        spec.inner_B1,
        spec.inner_B2,
        spec.left_B1,
        spec.left_B2,
        spec.right_A,
        right_B1=spec.right_B1,
        right_B2=spec.right_B2,
    )
    summands[(1, ())] = h
    total += h.dim
    if total > budget:
        raise TooLarge(f"tower dimension {total} exceeds budget {budget}")

    checks.append(
        CheckResult(
            "module-quotient",
            "the module carries a definite inner product (no quotient needed)",
            not h.degenerate,
            f"cut from {h.ambient_dim} to {h.dim}" if h.degenerate else "",
        )
    )

    degenerate_tensor = False
    for n in range(2, depth + 1):
        for tail_key in sorted(k for k in summands if k[0] == n - 1):
            tail = summands[tail_key]
            for family in (1, 2):
                estimated = h.dim * tail.dim
                if total + estimated > budget:
                    raise TooLarge(
                        f"tower dimension would exceed budget {budget} at level {n}"
                    )
                space, defects = relative_tensor(h, family, tail)
                word = (family,) + tail_key[1]
                failed = _construction_defect(n, word, space, defects, lam1, lam2)
                if failed is not None:
                    raise TowerDefect(checks + [failed])
                degenerate_tensor = degenerate_tensor or space.degenerate
                summands[(n, word)] = space
                total += space.dim

    # every summand passed both cross-checks of _construction_defect
    checks.append(CheckResult("tensor-balanced", _BALANCED, True))
    checks.append(CheckResult("index-route-consistent", _ROUTED, True))
    checks.append(
        CheckResult(
            "tensor-quotient",
            "balanced tensor quotients were nontrivial somewhere in the tower",
            True,
            "quotients were cut" if degenerate_tensor else "all tensor Grams were definite",
        )
    )

    if depth >= 3:
        disagreeing = _associativity_check(h)
        checks.append(
            CheckResult(
                "tensor-associative",
                "triple tensors agree under both bracketings on the full ambient space",
                disagreeing is None,
                "" if disagreeing is None
                else f"the two bracketings of the type {disagreeing} triple tensor disagree",
            )
        )
        if disagreeing is not None:
            raise TowerDefect(checks)

    return FockSpace(spec, depth, summands, lam1, lam2, checks)


def _row_blocks(stack: ExactMatrix, size: int) -> list:
    """For a stack with one batch axis over c: per a, the rows
    a size .. a size + size - 1 of every member, as one view whose entry
    (x, c) is entry x, read row-major, of that block of member c. It is
    the transposed left factor that kron_sum multiplies for those rows."""
    blocks = stack.regrouped((stack.batch_shape[0], -1, size * stack.ncols), (1, 2, 0))
    return [blocks.take(blocks.batch_shape, a) for a in range(blocks.batch_shape[0])]


def _associativity_check(h: QuadSpace):
    """Compare the two bracketings of every type-(i, j) triple tensor of the
    module with itself, on the full (unquotiented) triple ambient space,
    one row slab at a time. Returns the first type (i, j) whose bracketings
    disagree, or None.

    The pair stacks P^f = H (x)_f H of every Gram type, and B_f acting on
    the pair as L^f (x) I_h, are formed once. For each Gram type W of the
    third factor, rows (a, ., .) of coordinate k of the right bracketing
    H (x)_i (H (x)_j H) are sum_t G^i_t[a, .] (x) (P^j_k @ (L^i_t (x) I_h))
    and those of the left bracketing (H (x)_i H) (x)_j H are
    sum_s P^i_s[(a, .), .] (x) (W_k @ L^j_s), P^i_s being the B_j-valued
    pair Gram. Each is the product a^T b that kron_sum forms, with b, the
    right factors flattened, formed once per type and Gram type and a^T a
    view of the left factor's rows (_row_blocks). kron_sum would regroup
    the two products into rows and columns; instead both are read in the
    index order (k, a', b, c, b', c') of row (a, b, c) and column
    (a', b', c'), and compared once. So the whole triple stack, h^6
    entries per coordinate, is never held; a slab has h^5."""
    n = h.dim
    grams = [stack.grams for stack in (h.gram_A, h.gram_B1, h.gram_B2)]
    inner, left = {1: grams[1], 2: grams[2]}, {1: h.left_B1, 2: h.left_B2}
    pairs = {f: [kron_sum(inner[f], _times_each(w, left[f])) for w in grams] for f in (1, 2)}
    pair_left = {f: kron_identity_entries(x, n, True, range(n * n), range(n * n))
                 for f, x in left.items()}
    for i in (1, 2):
        rows_i = _row_blocks(inner[i], 1)
        for j in (1, 2):
            pair_rows = _row_blocks(pairs[i][j], n)
            for g, w in enumerate(grams):
                coords = w.batch_shape
                slab = coords + (n,) * 5
                # the right factors of both sides, flattened: (k, t, n^4) and (k, s, n^2)
                rights = _times_each(pairs[j][g], pair_left[i]).regrouped(
                    coords + (-1, n ** 4), (0, 1, 2))
                thirds = _times_each(w, left[j]).regrouped(coords + (-1, n * n), (0, 1, 2))
                # slabs (k, a', (b, c), (b', c')) and (k, (b, a', b'), (c, c')), both
                # read as (k, a', b, c, b', c')
                if any((rows_i[a] @ rights).regrouped(slab, range(6))
                       != (pair_rows[a] @ thirds).regrouped(slab, (0, 2, 1, 4, 3, 5))
                       for a in range(n)):
                    return i, j
    return None
