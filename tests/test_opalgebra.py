import pytest

from quadmod.fock import build_fock
from quadmod.linalg import ExactMatrix
from quadmod.opalgebra import DiagonalOperatorModel, NotDiagonalModel
from quadmod.quadmodule import build_example_MN
from quadmod.relations import make_generators
from quadmod.scalars import GaussianRational


def diag(*values):
    return ExactMatrix.column(list(values)).to_diagonal()


def model_of(*generators):
    """The model of the generators, stacked along one batch axis."""
    return DiagonalOperatorModel(ExactMatrix.stack(generators, (len(generators),)))


def test_classes_group_coordinates_with_equal_spectra():
    model = model_of(diag(1, 0, 1, 0), diag(0, 2, 0, 2))
    assert model.rank == 2
    assert model.classes == [[0, 2], [1, 3]]
    assert model.idempotents == ExactMatrix.stack([diag(1, 0, 1, 0), diag(0, 1, 0, 1)], (2,))


def test_singleton_classes_when_spectra_separate_points():
    model = model_of(diag(1, 2, 3))
    assert model.rank == 3
    assert model.classes == [[0], [1], [2]]


def patterns_of(model, *ops):
    inside, patterns = model.projection_patterns(ExactMatrix.stack(ops, (len(ops),)))
    return [p.tolist() if ok else None for ok, p in zip(inside, patterns)]


def test_projection_patterns_read_every_member_at_once():
    model = model_of(diag(1, 0, 1, 0), diag(0, 2, 0, 2))
    assert patterns_of(model, diag(1, 0, 1, 0), diag(1, 1, 1, 1), ExactMatrix.zeros(4, 4),
                       diag(0, 1, 0, 1)) == [[1, 0], [1, 1], [0, 0], [0, 1]]


def test_operators_outside_the_model_are_rejected():
    model = model_of(diag(1, 0, 1, 0))
    # breaks the tie between coordinates 0 and 2
    assert patterns_of(model, diag(1, 0, 0, 0), diag(1, 0, 1, 0)) == [None, [1, 0]]
    # non-diagonal operators are never in a diagonal model
    off = ExactMatrix.identity(1).scattered([0], [1], (4, 4))
    assert patterns_of(model, off, diag(1, 1, 1, 1) + off) == [None, None]


def test_projection_patterns_filter_non_idempotent_values():
    model = model_of(diag(1, 0, 1, 0), diag(0, 2, 0, 2))
    i = GaussianRational(0, 1)
    # model elements that are not projections, beside one that is: the
    # stack shares the denominator 2 of the half, so a one is read from
    # numerators equal to the denominator
    assert patterns_of(model, diag(5, -7, 5, -7), diag(2, 0, 2, 0), diag(i, 0, i, 0),
                       diag(GaussianRational("1/2"), 0, GaussianRational("1/2"), 0),
                       diag(1 + i, 0, 1 + i, 0), diag(0, 1, 0, 1)) == [None] * 5 + [[0, 1]]


def test_projection_pattern_shape_checks():
    model = model_of(diag(1, 2))
    with pytest.raises(ValueError):
        model.projection_patterns(ExactMatrix.stack([diag(1, 0, 0)], (1,)))
    with pytest.raises(ValueError):
        model.projection_patterns(ExactMatrix.stack([diag(1, 0)], (1, 1)))
    with pytest.raises(ValueError):
        model.projection_patterns(ExactMatrix.stack([ExactMatrix.zeros(2, 3)], (1,)))


def test_non_diagonal_generators_are_refused():
    off = ExactMatrix.from_rows([[0, 1], [0, 0]])
    with pytest.raises(NotDiagonalModel):
        model_of(off)
    # no generator, or one without its batch axis
    with pytest.raises(ValueError):
        DiagonalOperatorModel(ExactMatrix.zeros(0, 2, 2))
    with pytest.raises(ValueError):
        DiagonalOperatorModel(off)


def test_left_action_model_of_the_bipartite_module():
    model = make_generators(build_fock(build_example_MN(2, 2), 2)).model
    # (i, k) pairs in row-major order: the two families cut the four
    # coordinates into four separate classes
    assert model.rank == 4
    assert model.classes == [[0], [1], [2], [3]]
    e = model.idempotents
    assert e @ e == e
