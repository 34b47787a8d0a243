import pytest

from quadmod.fock import build_fock
from quadmod.linalg import ExactMatrix
from quadmod.opalgebra import DiagonalOperatorModel, NotDiagonalModel
from quadmod.quadmodule import build_example_MN
from quadmod.relations import make_generators
from quadmod.scalars import GaussianRational


def diag(*values):
    return ExactMatrix.diagonal(list(values))


def test_classes_group_coordinates_with_equal_spectra():
    model = DiagonalOperatorModel([diag(1, 0, 1, 0), diag(0, 2, 0, 2)])
    assert model.rank == 2
    assert model.classes == [[0, 2], [1, 3]]
    assert model.idempotents[0] == diag(1, 0, 1, 0)
    assert model.idempotents[1] == diag(0, 1, 0, 1)


def test_singleton_classes_when_spectra_separate_points():
    model = DiagonalOperatorModel([diag(1, 2, 3)])
    assert model.rank == 3
    assert model.classes == [[0], [1], [2]]


def test_coords_and_element_are_inverse():
    model = DiagonalOperatorModel([diag(1, 0, 1, 0), diag(0, 2, 0, 2)])
    op = diag(5, -7, 5, -7)
    coords = model.coords(op)
    assert coords == ExactMatrix.column([5, -7])
    assert model.element(coords) == op
    assert model.contains(op)


def test_operators_outside_the_model_are_rejected():
    model = DiagonalOperatorModel([diag(1, 0, 1, 0)])
    # breaks the tie between coordinates 0 and 2
    assert model.coords(diag(1, 0, 2, 0)) is None
    assert not model.contains(diag(1, 0, 2, 0))
    # non-diagonal operators are never in a diagonal model
    off = ExactMatrix.zeros(4, 4).set_block(0, 1, ExactMatrix.from_rows([[1]]))
    assert model.coords(off) is None
    # shape mismatch
    assert model.coords(diag(1, 0)) is None


def test_projection_coords_filters_non_idempotent_values():
    model = DiagonalOperatorModel([diag(1, 0, 1, 0), diag(0, 2, 0, 2)])
    assert model.projection_coords(diag(1, 0, 1, 0)) == [1, 0]
    assert model.projection_coords(diag(1, 1, 1, 1)) == [1, 1]
    assert model.projection_coords(ExactMatrix.zeros(4, 4)) == [0, 0]
    assert model.projection_coords(diag(2, 0, 2, 0)) is None
    assert model.projection_coords(diag(GaussianRational(0, 1), 0, GaussianRational(0, 1), 0)) is None


def test_non_diagonal_generators_are_refused():
    off = ExactMatrix.from_rows([[0, 1], [0, 0]])
    with pytest.raises(NotDiagonalModel):
        DiagonalOperatorModel([off])
    with pytest.raises(ValueError):
        DiagonalOperatorModel([])


def test_element_shape_check():
    model = DiagonalOperatorModel([diag(1, 2)])
    with pytest.raises(ValueError):
        model.element(ExactMatrix.column([1]))


def test_left_action_model_of_the_bipartite_module():
    model = make_generators(build_fock(build_example_MN(2, 2), 2)).model
    # (i, k) pairs in row-major order: the two families cut the four
    # coordinates into four separate classes
    assert model.rank == 4
    assert model.classes == [[0], [1], [2], [3]]
    for e in model.idempotents:
        assert e @ e == e
