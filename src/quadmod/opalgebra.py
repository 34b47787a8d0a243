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
from .scalars import GaussianRational


class NotDiagonalModel(ValueError):
    """The generating operators are not simultaneously diagonal."""


class DiagonalOperatorModel:
    """The unital algebra generated by a family of diagonal operators."""

    __slots__ = ("dim", "classes", "idempotents")

    def __init__(self, generators: list[ExactMatrix]):
        if not generators:
            raise ValueError("need at least one generator")
        dim = generators[0].nrows
        for g in generators:
            if g.shape != (dim, dim):
                raise ValueError("generator shape mismatch")
            for i in range(dim):
                for j in range(dim):
                    if i != j and not g[i, j].is_zero:
                        raise NotDiagonalModel(
                            "left action operators are not simultaneously diagonal "
                            "in the module basis; this model only covers the "
                            "diagonal case"
                        )
        signature = {}
        for j in range(dim):
            key = tuple(g[j, j] for g in generators)
            signature.setdefault(key, []).append(j)
        self.dim = dim
        self.classes = sorted(signature.values(), key=lambda cls: cls[0])
        self.idempotents = [
            ExactMatrix.diagonal([1 if j in cls else 0 for j in range(dim)])
            for cls in self.classes
        ]

    @property
    def rank(self) -> int:
        return len(self.classes)

    def coords(self, op: ExactMatrix) -> ExactMatrix | None:
        """The coordinate column of an operator in the model, or None when
        the operator lies outside it."""
        if op.shape != (self.dim, self.dim):
            return None
        values = []
        for cls in self.classes:
            v = op[cls[0], cls[0]]
            values.append(v)
        candidate = self.element(ExactMatrix.column(values))
        if candidate != op:
            return None
        return ExactMatrix.column(values)

    def contains(self, op: ExactMatrix) -> bool:
        return self.coords(op) is not None

    def element(self, coeffs: ExactMatrix) -> ExactMatrix:
        """The operator with the given coordinate column."""
        if coeffs.shape != (self.rank, 1):
            raise ValueError("coordinate column shape mismatch")
        out = ExactMatrix.zeros(self.dim, self.dim)
        for c, e in enumerate(self.idempotents):
            out = out + e.scale(coeffs[c, 0])
        return out

    def projection_coords(self, op: ExactMatrix) -> list[int] | None:
        """For a projection in the model, its 0/1 class pattern; None when
        the operator is not a model projection."""
        coords = self.coords(op)
        if coords is None:
            return None
        pattern = []
        for c in range(self.rank):
            v = coords[c, 0]
            if v == GaussianRational(0):
                pattern.append(0)
            elif v == GaussianRational(1):
                pattern.append(1)
            else:
                return None
        return pattern
