"""The operator algebra generated by the two left actions on the module.

In every specification this workbench accepts, the left action operators
are simultaneously diagonal matrices, so the unital *-algebra they
generate consists of all functions that are constant on the joint level
sets of the generator diagonals. The model stores that coordinate
partition and the corresponding minimal idempotents.

A specification whose left actions are not diagonal in the given basis is
rejected rather than silently approximated.
"""

from __future__ import annotations

from .linalg import ExactMatrix, NotDiagonal


class NotDiagonalModel(ValueError):
    """The generating operators are not simultaneously diagonal."""


class DiagonalOperatorModel:
    """The unital algebra generated by a family of diagonal operators.

    classes lists the coordinates of each class, and class_of the class of
    each coordinate; the operator with coordinate column x is diagonal, with
    entry x[class_of[j]] at coordinate j. The generators are one batched
    matrix with one batch axis over them, and so are the minimal
    idempotents, one member per class in class order."""

    __slots__ = ("dim", "classes", "class_of", "idempotents")

    def __init__(self, generators: ExactMatrix):
        if len(generators.batch_shape) != 1 or not generators.batch_shape[0]:
            raise ValueError("need at least one generator, along one batch axis")
        k, dim = generators.batch_shape[0], generators.nrows
        try:
            columns = generators.diagonal_columns()
        except NotDiagonal:
            raise NotDiagonalModel(
                "left action operators are not simultaneously diagonal "
                "in the module basis; this model only covers the "
                "diagonal case"
            ) from None
        self.dim = dim
        # row j holds every generator's diagonal entry j; a class is a set
        # of equal rows
        self.classes = columns.regrouped((k, dim), (1, 0)).equal_rows()
        self.class_of = [0] * dim
        for c, cls in enumerate(self.classes):
            for j in cls:
                self.class_of[j] = c
        # row j of membership is the unit row of the class of j, so its
        # column c is the diagonal of idempotent c
        membership = ExactMatrix.identity(self.rank).take_rows(self.class_of)
        self.idempotents = membership.regrouped((dim, self.rank, 1), (1, 0, 2)).to_diagonal()

    @property
    def rank(self) -> int:
        return len(self.classes)

    def projection_patterns(self, ops: ExactMatrix):
        """Which members of module operators with one batch axis
        are model projections, and their 0/1 class patterns: a boolean array
        over the members, and an integer array whose row j is member j's
        pattern (meaningless where member j is no model projection). A model
        projection is a diagonal 0/1 matrix constant on every class, so one
        pass over the numerators decides every member."""
        if len(ops.batch_shape) != 1:
            raise ValueError("need operators over one batch axis")
        zero_one, ones = ops.zero_one_diagonals()
        if ones.shape[1] != self.dim:
            raise ValueError("operators must act on the module")
        patterns = ones[:, [cls[0] for cls in self.classes]]
        inside = zero_one & (ones == patterns[:, self.class_of]).all(axis=1)
        return inside, patterns.astype(int)
