"""Acceptance gate for the workbench.

One test per promised behavior, each checked in exact arithmetic; there
are no tolerances anywhere.  Run with -v to get one line per criterion.
"""

import copy
import random

import pytest

from quadmod import serialize
from quadmod.ck import (
    bipartite_relation_matrices,
    column_amalgamation,
    is_aperiodic,
    verify_two_isometry_relations,
)
from quadmod.algebras import AlgebraHom
from quadmod.fock import build_fock
from quadmod.ktheory import (
    AssumptionsViolated,
    determinant,
    int_matmul,
    k_groups,
    k_groups_of_matrix,
    smith_normal_form,
)
from quadmod.linalg import ExactMatrix
from quadmod.quadmodule import build_example_MN, build_example_alpha_beta
from quadmod.relations import full_identity_suite, make_generators
from quadmod.scalars import GaussianRational

from test_fock import degree_zero_part, gauge_unitary, scaled
from test_mutations import CATALOG


def sum_matrices(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def assert_all_pass(reports):
    failed = [(r.check_id, r.witness) for r in reports if not r.passed]
    assert failed == []


def test_bipartite_k_groups_form_the_cyclic_family():
    # K0 of the (2, N) module is cyclic of order N^2 - 1, K1 vanishes
    for N in range(2, 9):
        A, B, _ = bipartite_relation_matrices(2, N)
        k0, k1 = k_groups_of_matrix(sum_matrices(A, B))
        assert str(k0) == f"Z/{N * N - 1}"
        assert (k1.free_rank, k1.torsion) == (0, [])
        space = build_fock(build_example_MN(2, N), 2)
        result = k_groups(make_generators(space))
        assert result.class_matrix == sum_matrices(A, B)
        assert str(result.k0) == f"Z/{N * N - 1}"


def test_amalgamating_the_relation_matrix_recovers_the_block_sum():
    for M in range(2, 5):
        for N in range(2, 5):
            A, B, H = bipartite_relation_matrices(M, N)
            classes, reduced = column_amalgamation(H)
            size = M * N
            assert classes == [[j, j + size] for j in range(size)]
            assert reduced == sum_matrices(A, B)


def test_identity_suite_holds_on_the_bipartite_towers():
    for M, N, depth in ((2, 2, 4), (2, 3, 3)):
        gens = make_generators(build_fock(build_example_MN(M, N), depth))
        assert_all_pass(full_identity_suite(gens))


def test_identity_suite_and_isometry_pair_on_the_twisted_tower():
    spec = build_example_alpha_beta(3, [1, 2, 0], [2, 0, 1])
    gens = make_generators(build_fock(spec, 3))
    assert_all_pass(full_identity_suite(gens))

    alg = spec.algebra_A
    alpha = AlgebraHom.permutation(alg, [1, 2, 0])
    beta = AlgebraHom.permutation(alg, [2, 0, 1])
    outcome = {r.check_id: r.passed
               for r in verify_two_isometry_relations(gens, alpha, beta)}
    # swapping the twists attributes each one to the other generator
    swapped = {r.check_id: r.passed
               for r in verify_two_isometry_relations(gens, beta, alpha)}
    outcome["two-isometry-hom-u-first-twist"] = swapped["two-isometry-hom-u-second-twist"]
    outcome["two-isometry-hom-v-second-twist"] = swapped["two-isometry-hom-v-first-twist"]
    # conjugation swaps the attributions: the first generator carries the
    # second twist and the second generator the first
    assert outcome == {
        "two-isometry-complete": True,
        "two-isometry-u": True,
        "two-isometry-v": True,
        "two-isometry-range-commute-u": True,
        "two-isometry-range-commute-v": True,
        "two-isometry-hom-u-second-twist": True,
        "two-isometry-hom-v-first-twist": True,
        "two-isometry-hom-u-first-twist": False,
        "two-isometry-hom-v-second-twist": False,
    }


def test_gauge_rotation_grades_the_generators():
    specs = [
        build_example_MN(2, 2),
        build_example_alpha_beta(3, [1, 2, 0], [2, 0, 1]),
    ]
    i_unit = GaussianRational(0, 1)
    for spec in specs:
        space = build_fock(spec, 3)
        gauge = gauge_unitary(space)
        assert gauge @ gauge.adjoint() == space.identity()
        gens = make_generators(space)
        for op in [fam[i] for fam in (gens.S, gens.T) for i in range(fam.shape[0])]:
            assert gauge @ op @ gauge.adjoint() == scaled(op, i_unit)
            assert degree_zero_part(op).is_zero()
            square = op @ op.adjoint()
            assert degree_zero_part(square) == square
            assert gauge @ square @ gauge.adjoint() == square


def test_smith_normal_form_invariants_over_random_matrices():
    rng = random.Random(1789)
    square_seen = 0
    for _ in range(500):
        m = rng.randrange(1, 9)
        n = rng.randrange(1, 9)
        matrix = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        form = smith_normal_form(matrix)
        assert int_matmul(int_matmul(form.left, matrix), form.right) == form.diagonal
        assert abs(determinant(form.left)) == 1
        assert abs(determinant(form.right)) == 1
        d = form.diag
        nonzero = [x for x in d if x]
        assert d[:form.rank] == nonzero
        assert all(x > 0 for x in nonzero)
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
        if m == n:
            square_seen += 1
            product = 1
            for x in d:
                product *= x
            assert abs(determinant(matrix)) == product
    assert square_seen > 20


def test_bipartite_relation_matrices_are_primitive():
    for M in range(2, 5):
        for N in range(2, 5):
            _, _, H = bipartite_relation_matrices(M, N)
            primitive, exponent = is_aperiodic(H)
            assert primitive
            assert exponent == 2
            assert exponent <= (len(H) - 1) ** 2 + 1


def test_remixed_generators_are_refused_not_misread():
    # a unitary remix of the first family keeps every finite type check
    # green, yet no diagonal class action exists; the computation must
    # refuse rather than return a wrong matrix
    spec = build_example_MN(2, 2)
    c = GaussianRational("3/5")
    s = GaussianRational(0, "4/5")
    spec.basis_U = spec.basis_U.combine(ExactMatrix.from_rows([[c, s], [s, c]]))
    assert_all_pass(spec.validate_axioms())
    assert_all_pass(spec.verify_finite_type())
    space = build_fock(spec, 3)
    with pytest.raises(AssumptionsViolated, match="ktheory-range-commute"):
        k_groups(make_generators(space))


def test_every_cataloged_corruption_is_detected():
    clean = serialize.spec_to_dict(build_example_MN(2, 2))
    for label, path, value, expected in CATALOG:
        data = copy.deepcopy(clean)
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        spec = serialize.spec_from_dict(data)
        results = spec.validate_axioms() + spec.verify_finite_type()
        failed = {r.check_id for r in results if not r.passed}
        assert expected in failed, label
