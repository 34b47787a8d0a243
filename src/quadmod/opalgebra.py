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

from .linalg import ExactMatrix


class NotDiagonalModel(ValueError):
    """The generating operators are not simultaneously diagonal."""


class DiagonalOperatorModel:
    """The unital algebra generated by a family of diagonal operators.

    membership is the 0/1 matrix whose column c marks the coordinates of
    class c, so the operator with coordinate column x has diagonal
    membership @ x."""

    __slots__ = ("dim", "classes", "membership", "idempotents")

    def __init__(self, generators: list[ExactMatrix]):
        if not generators:
            raise ValueError("need at least one generator")
        dim = generators[0].nrows
        for g in generators:
            if g.shape != (dim, dim):
                raise ValueError("generator shape mismatch")
            if not g.is_diagonal():
                raise NotDiagonalModel(
                    "left action operators are not simultaneously diagonal "
                    "in the module basis; this model only covers the "
                    "diagonal case"
                )
        diagonals = ExactMatrix.hstack([g.diagonal_column() for g in generators])
        signature = {}
        for j, key in enumerate(diagonals.to_rows()):
            signature.setdefault(tuple(key), []).append(j)
        self.dim = dim
        self.classes = sorted(signature.values(), key=lambda cls: cls[0])
        # row j of membership is the unit row of the class of j
        class_of = [0] * dim
        for c, cls in enumerate(self.classes):
            for j in cls:
                class_of[j] = c
        self.membership = ExactMatrix.identity(self.rank).take_rows(class_of)
        self.idempotents = [
            self.membership.take_cols([c]).to_diagonal() for c in range(self.rank)
        ]

    @property
    def rank(self) -> int:
        return len(self.classes)

    def coords(self, op: ExactMatrix) -> ExactMatrix | None:
        """The coordinate column of an operator in the model, or None when
        the operator lies outside it."""
        if op.shape != (self.dim, self.dim):
            return None
        values = op.diagonal_column().take_rows([cls[0] for cls in self.classes])
        if self.element(values) != op:
            return None
        return values

    def contains(self, op: ExactMatrix) -> bool:
        return self.coords(op) is not None

    def element(self, coeffs: ExactMatrix) -> ExactMatrix:
        """The operator with the given coordinate column."""
        if coeffs.shape != (self.rank, 1):
            raise ValueError("coordinate column shape mismatch")
        return (self.membership @ coeffs).to_diagonal()

    def projection_coords(self, op: ExactMatrix) -> list[int] | None:
        """For a projection in the model, its 0/1 class pattern; None when
        the operator is not a model projection."""
        coords = self.coords(op)
        rows = None if coords is None else coords.integer_rows()
        if rows is None or any(v not in (0, 1) for v, in rows):
            return None
        return [v for v, in rows]
