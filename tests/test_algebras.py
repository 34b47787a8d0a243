import pytest

from quadmod.algebras import AlgebraHom, CommAlgebra
from quadmod.linalg import ExactMatrix
from quadmod.scalars import GaussianRational


def test_pointwise_algebra_basics():
    alg = CommAlgebra(3)
    x = ExactMatrix.column([1, GaussianRational(0, 2), -3])
    y = ExactMatrix.column([2, 1, 1])
    # multiplication by x is the diagonal matrix of x
    assert x.to_diagonal() @ y == ExactMatrix.column([2, GaussianRational(0, 2), -3])
    assert alg.unit().to_diagonal() == ExactMatrix.identity(3)


def test_permutation_hom_matrix_is_frozen_convention():
    # h(x)_j = x_{perm[j]}, so row j carries a 1 in column perm[j]
    alg = CommAlgebra(3)
    h = AlgebraHom.permutation(alg, [1, 2, 0])
    assert h.matrix == ExactMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert h.validate() == []
    assert h.is_injective()
    x = ExactMatrix.column([10, 20, 30])
    assert h(x) == ExactMatrix.column([20, 30, 10])
    assert h.inverse().matrix == h.matrix.T
    assert h.matrix @ h.inverse().matrix == ExactMatrix.identity(3)


def test_permutation_rejects_non_bijections():
    alg = CommAlgebra(3)
    with pytest.raises(ValueError):
        AlgebraHom.permutation(alg, [0, 0, 1])
    with pytest.raises(ValueError):
        AlgebraHom.permutation(alg, [0, 1])


def test_scalar_embedding_and_preimage():
    target = CommAlgebra(3)
    h = AlgebraHom.scalar_embedding(target)
    assert h.validate() == []
    assert h(ExactMatrix.column([5])) == ExactMatrix.column([5, 5, 5])
    # constant columns have a preimage; the first column without one is
    # named even when a later column repeats it
    ys = ExactMatrix.from_rows([[7, 0, 1, 2], [7, 0, 0, 0], [7, 0, 0, 0]])
    assert h.first_outside_range(ys.take_cols([0, 1])) is None
    assert h.first_outside_range(ys) == 2
    assert h.first_outside_range(ys.take_cols([3, 2])) == 0


def test_validate_reports_each_failure():
    alg = CommAlgebra(2)
    squash = AlgebraHom(alg, alg, ExactMatrix.from_rows([[1, 1], [0, 1]]))
    fails = squash.validate()
    assert "multiplicative" in fails
    zero = AlgebraHom(alg, alg, ExactMatrix.zeros(2, 2))
    assert "unital" in zero.validate()
    crooked = AlgebraHom(
        alg, alg, ExactMatrix.from_rows([[GaussianRational(0, 1), 0], [0, 1]])
    )
    assert "star-preserving" in crooked.validate()


def test_spectrum_map_collapse_is_still_a_hom():
    # a non-injective spectrum map is unital and multiplicative
    source = CommAlgebra(2)
    target = CommAlgebra(3)
    h = AlgebraHom.from_spectrum_map(source, target, [0, 0, 1])
    assert h.validate() == []
    assert h(ExactMatrix.column([4, 9])) == ExactMatrix.column([4, 4, 9])
