"""Finite-dimensional commutative C*-algebras and their unital *-homomorphisms.

An algebra here is C^d with pointwise operations; elements are d x 1
column vectors over the Gaussian rationals. Homomorphisms are stored as
matrices acting on coordinates, with validation helpers for unitality,
multiplicativity, *-preservation and injectivity.
"""

from __future__ import annotations

import numpy as np

from .linalg import ExactMatrix


class CommAlgebra:
    """C^dim with pointwise product and conjugation."""

    __slots__ = ("dim",)

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("algebra dimension must be at least 1")
        self.dim = dim

    def unit(self) -> ExactMatrix:
        return ExactMatrix(np.ones((self.dim, 1), np.int64))

    def __eq__(self, other):
        return isinstance(other, CommAlgebra) and other.dim == self.dim

    def __repr__(self):
        return f"CommAlgebra(dim={self.dim})"


class AlgebraHom:
    """A linear map between commutative algebras, stored as a matrix.

    The map sends x to matrix @ x. Whether it is actually a unital
    *-homomorphism is checked by validate(), not assumed.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: CommAlgebra, target: CommAlgebra, matrix: ExactMatrix):
        if matrix.shape != (target.dim, source.dim):
            raise ValueError("hom matrix shape mismatch")
        self.source = source
        self.target = target
        self.matrix = matrix

    def __call__(self, x: ExactMatrix) -> ExactMatrix:
        return self.matrix @ x

    def is_unital(self) -> bool:
        return self(self.source.unit()) == self.target.unit()

    def is_multiplicative(self) -> bool:
        """h(e_i) h(e_j) = delta_ij h(e_i) for every pair (i, j), as one array
        test. With M the matrix, target coordinate r of the left side is
        M[r, i] M[r, j] and of the right side M[r, i] delta_ij: over the
        grid (r, i), row r of M scaled by M[r, i] must equal the unit row
        e_i scaled by M[r, i]."""
        t, s = self.matrix.shape
        rows = self.matrix.regrouped((t, 1, 1, s), (0, 1, 2, 3))
        units = ExactMatrix.identity(s).regrouped((1, s, 1, s), (0, 1, 2, 3))
        return (rows.scaled(self.matrix) - units.scaled(self.matrix)).is_zero()

    def is_star_map(self) -> bool:
        return self.matrix == self.matrix.conj()

    def is_injective(self) -> bool:
        return self.matrix.rank() == self.source.dim

    def validate(self) -> list[str]:
        """Names of the unital *-homomorphism properties that fail."""
        failures = []
        if not self.is_unital():
            failures.append("unital")
        if not self.is_multiplicative():
            failures.append("multiplicative")
        if not self.is_star_map():
            failures.append("star-preserving")
        return failures

    def first_outside_range(self, ys: ExactMatrix) -> int | None:
        """The first column of ys that is not self(x) for any x, or None.

        Every column is tested by one elimination: reduced row echelon form
        picks its pivots left to right, so the first pivot among the
        columns of ys is the first of them outside the span of the
        matrix's columns and of the earlier columns of ys, and the earlier
        ones, being no pivots, lie in the range."""
        n = self.matrix.ncols
        _, pivots = ExactMatrix.hstack([self.matrix, ys]).rref()
        return next((p - n for p in pivots if p >= n), None)

    @staticmethod
    def identity(alg: CommAlgebra) -> "AlgebraHom":
        return AlgebraHom(alg, alg, ExactMatrix.identity(alg.dim))

    @classmethod
    def from_spectrum_map(cls, source: CommAlgebra, target: CommAlgebra, positions) -> "AlgebraHom":
        """The hom h(x)_r = x_{positions[r]}."""
        positions = list(positions)
        if len(positions) != target.dim:
            raise ValueError("need one source position per target coordinate")
        rows = []
        for r in range(target.dim):
            p = positions[r]
            if not 0 <= p < source.dim:
                raise ValueError("position out of range")
            rows.append([1 if c == p else 0 for c in range(source.dim)])
        return cls(source, target, ExactMatrix.from_rows(rows))

    @classmethod
    def scalar_embedding(cls, target: CommAlgebra) -> "AlgebraHom":
        """The unique unital hom from C."""
        return cls(CommAlgebra(1), target, ExactMatrix.from_rows([[1]] * target.dim))

    @classmethod
    def permutation(cls, alg: CommAlgebra, perm) -> "AlgebraHom":
        """Automorphism precomposing coordinates with perm: h(x)_j = x_{perm[j]}."""
        perm = list(perm)
        if sorted(perm) != list(range(alg.dim)):
            raise ValueError("not a permutation of the coordinate set")
        return cls.from_spectrum_map(alg, alg, perm)

    def inverse(self) -> "AlgebraHom":
        return AlgebraHom(self.target, self.source, self.matrix.inverse())

    def __repr__(self):
        return f"AlgebraHom({self.source.dim} -> {self.target.dim})"
