import pytest

from quadmod.algebras import AlgebraHom
from quadmod.ck import (
    CKStructureError,
    bipartite_relation_matrices,
    build_ck_generators,
    column_amalgamation,
    is_aperiodic,
    verify_ck_relations,
    verify_two_isometry_relations,
)
from quadmod.fock import build_fock
from quadmod.linalg import ExactMatrix
from quadmod.opalgebra import DiagonalOperatorModel
from quadmod.quadmodule import build_example_MN, build_example_alpha_beta
from quadmod.relations import make_generators


def bipartite_bundle(depth=3):
    space = build_fock(build_example_MN(2, 2), depth)
    return build_ck_generators(make_generators(space))


def twisted_generators(sigma, tau, d=3, depth=3):
    spec = build_example_alpha_beta(d, sigma, tau)
    return make_generators(build_fock(spec, depth))


def test_bipartite_matrix_is_the_doubled_block_form():
    bundle = bipartite_bundle()
    A, B, H = bipartite_relation_matrices(2, 2)
    assert A == [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]]
    assert B == [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]
    assert bundle.matrix == H
    assert len(bundle.states) == 8


def test_bipartite_state_order_and_labels():
    bundle = bipartite_bundle()
    triples = [(st.family, st.class_index, st.generator_index)
               for st in bundle.states]
    assert triples == [
        (1, 0, 0), (1, 1, 0), (1, 2, 1), (1, 3, 1),
        (2, 0, 0), (2, 1, 1), (2, 2, 0), (2, 3, 1),
    ]
    assert bundle.state_labels()[0] == "family 1 class 0 generator 0"


def test_ck_relations_hold_on_the_bipartite_module():
    bundle = bipartite_bundle()
    reports = verify_ck_relations(bundle)
    assert [r.check_id for r in reports if not r.passed] == []
    windows = {r.check_id: r.window for r in reports}
    assert windows == {
        "ck-state-support": (1, 2),
        "ck-partial-isometry": (0, 2),
        "ck-relation": (2, 2),
        "ck-class-range": (2, 3),
        "ck-total-range": (2, 3),
        "ck-generator-split": (0, 2),
        "ck-left-shift": (1, 2),
    }


def test_ck_relations_hold_on_the_twisted_module():
    gens = twisted_generators([1, 2, 0], [2, 0, 1])
    bundle = build_ck_generators(gens)
    assert [r.check_id for r in verify_ck_relations(bundle) if not r.passed] == []
    # a singleton family slices into one state per class; the first three
    # rows follow one cycle, the last three the other
    assert bundle.matrix == [
        [0, 1, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 1],
        [1, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 1],
        [1, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 1, 0],
    ]
    classes, reduced = column_amalgamation(bundle.matrix)
    assert classes == [[0, 3], [1, 4], [2, 5]]
    assert reduced == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_coarse_models_break_the_state_structure():
    # a model too coarse to see where the slices land cannot assign
    # projection supports
    space = build_fock(build_example_MN(2, 2), 2)
    gens = make_generators(space)
    coarse = DiagonalOperatorModel([ExactMatrix.diagonal([1, 0, 0, 0])])
    assert coarse.classes == [[0], [1, 2, 3]]
    gens.model = coarse
    with pytest.raises(CKStructureError, match="support"):
        build_ck_generators(gens)


def test_column_amalgamation_of_the_bipartite_matrix():
    A, B, H = bipartite_relation_matrices(2, 2)
    classes, reduced = column_amalgamation(H)
    assert classes == [[0, 4], [1, 5], [2, 6], [3, 7]]
    expected = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]
    assert reduced == expected
    assert reduced == [[2, 1, 1, 0], [1, 2, 0, 1], [1, 0, 2, 1], [0, 1, 1, 2]]


def test_column_amalgamation_rejects_ragged_input():
    with pytest.raises(ValueError):
        column_amalgamation([[1, 0], [1]])


def test_amalgamation_is_identity_when_columns_differ():
    matrix = [[1, 0], [1, 1]]
    classes, reduced = column_amalgamation(matrix)
    assert classes == [[0], [1]]
    assert reduced == matrix


def test_aperiodicity_of_the_relation_matrices():
    _, _, H = bipartite_relation_matrices(2, 2)
    assert is_aperiodic(H) == (True, 2)
    assert is_aperiodic([[1, 0], [0, 1]]) == (False, None)
    assert is_aperiodic([[0, 1], [1, 1]]) == (True, 2)
    # a pure cycle never mixes
    assert is_aperiodic([[0, 1], [1, 0]]) == (False, None)


def test_aperiodicity_validates_input():
    with pytest.raises(ValueError):
        is_aperiodic([])
    with pytest.raises(ValueError):
        is_aperiodic([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        is_aperiodic([[1, -1], [0, 1]])


def test_two_isometries_with_equal_twists_match_both_attributions():
    gens = twisted_generators([1, 2, 0], [1, 2, 0])
    alg = gens.space.spec.algebra_A
    alpha = AlgebraHom.permutation(alg, [1, 2, 0])
    reports = verify_two_isometry_relations(gens, alpha, alpha)
    assert [r.check_id for r in reports if not r.passed] == []
    assert len(reports) == 7


def test_two_isometry_conjugation_swaps_the_twists():
    # conjugating by the first generator implements the second twist, and
    # conversely; with distinct twists the swapped attributions must fail
    gens = twisted_generators([1, 2, 0], [2, 0, 1])
    alg = gens.space.spec.algebra_A
    alpha = AlgebraHom.permutation(alg, [1, 2, 0])
    beta = AlgebraHom.permutation(alg, [2, 0, 1])
    outcome = {r.check_id: r.passed
               for r in verify_two_isometry_relations(gens, alpha, beta)}
    assert all(outcome.values())
    swapped = {r.check_id: r.passed
               for r in verify_two_isometry_relations(gens, beta, alpha)}
    assert [cid for cid, ok in swapped.items() if not ok] == [
        "two-isometry-hom-u-second-twist", "two-isometry-hom-v-first-twist"]


def test_two_isometry_report_holds_only_the_matching_attributions():
    gens = twisted_generators([1, 2, 0], [2, 0, 1])
    alg = gens.space.spec.algebra_A
    alpha = AlgebraHom.permutation(alg, [1, 2, 0])
    beta = AlgebraHom.permutation(alg, [2, 0, 1])
    reports = verify_two_isometry_relations(gens, alpha, beta)
    assert [r.check_id for r in reports] == [
        "two-isometry-complete",
        "two-isometry-u",
        "two-isometry-v",
        "two-isometry-range-commute-u",
        "two-isometry-range-commute-v",
        "two-isometry-hom-u-second-twist",
        "two-isometry-hom-v-first-twist",
    ]


def test_two_isometry_needs_singleton_families():
    gens = make_generators(build_fock(build_example_MN(2, 2), 2))
    alg = gens.space.spec.algebra_A
    ident = AlgebraHom.identity(alg)
    with pytest.raises(ValueError, match="singleton"):
        verify_two_isometry_relations(gens, ident, ident)
