import argparse
import math
import random
from itertools import combinations

import numpy as np
import pytest

from quadmod import ktheory, linalg
from quadmod.ck import bipartite_relation_matrices
from quadmod.cli import load_spec, smith_trial_matrices
from quadmod.fock import FockOperator, build_fock
from quadmod.ktheory import (
    AssumptionsViolated,
    FGAbelianGroup,
    class_action_matrix,
    determinant,
    int_matmul,
    k_groups,
    k_groups_of_matrix,
    smith_normal_form,
)
from quadmod.linalg import ExactMatrix
from quadmod.quadmodule import build_example_MN, build_example_alpha_beta
from quadmod.relations import make_generators
from quadmod.scalars import GaussianRational


def sum_matrices(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


# -- integer normal form -----------------------------------------------------


def test_smith_form_of_small_diagonals():
    assert smith_normal_form([[2, 0], [0, 3]]).diag == [1, 6]
    assert smith_normal_form([[4, 0], [0, 6]]).diag == [2, 12]
    assert smith_normal_form([[1, 0], [0, 1]]).diag == [1, 1]
    assert smith_normal_form([[0, 0], [0, 0]]).diag == [0, 0]


def test_smith_form_of_rectangles():
    form = smith_normal_form([[2, 4, 6]])
    assert form.diag == [2]
    assert form.rank == 1
    form = smith_normal_form([[2], [4], [6]])
    assert form.diag == [2]


def test_smith_factorization_is_exact():
    matrix = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    form = smith_normal_form(matrix)
    assert int_matmul(int_matmul(form.left, matrix), form.right) == form.diagonal
    assert abs(determinant(form.left)) == 1
    assert abs(determinant(form.right)) == 1
    d = form.diag
    assert all(x > 0 for x in d[:form.rank])
    assert all(b % a == 0 for a, b in zip(d, d[1:]) if a)
    product = 1
    for x in d:
        product *= x
    assert abs(determinant(matrix)) == abs(product)


def test_smith_random_invariants_stay_exact():
    rng = random.Random(20260815)
    for _ in range(200):
        m = rng.randrange(1, 7)
        n = rng.randrange(1, 7)
        matrix = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        form = smith_normal_form(matrix)
        assert int_matmul(int_matmul(form.left, matrix), form.right) == form.diagonal
        assert abs(determinant(form.left)) == 1
        assert abs(determinant(form.right)) == 1
        d = form.diag
        nonzero = [x for x in d if x]
        assert len(nonzero) == form.rank
        assert d[:form.rank] == nonzero
        assert all(x > 0 for x in nonzero)
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
        if m == n:
            product = 1
            for x in d:
                product *= x
            assert abs(determinant(matrix)) == product


def _invariant_factors_from_minors(matrix):
    """The nonzero invariant factors of an integer matrix with no
    elimination at all: d_k / d_(k-1), d_k being the gcd of the k x k minors
    and d_0 = 1, until every k x k minor vanishes (k is then one past the
    rank)."""
    m, n = len(matrix), len(matrix[0])
    factors, previous = [], 1
    for k in range(1, min(m, n) + 1):
        d = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                d = math.gcd(d, determinant([[matrix[i][j] for j in cols] for i in rows]))
        if d == 0:
            break
        factors.append(d // previous)
        previous = d
    return factors


def _assert_smith_matches_minors(matrix):
    form = smith_normal_form(matrix)
    factors = _invariant_factors_from_minors(matrix)
    assert form.rank == len(factors)
    assert form.diag[:form.rank] == factors
    assert not any(form.diag[form.rank:])


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_smith_self_check_matrices_match_determinantal_divisors(seed):
    matrices = list(smith_trial_matrices(seed))
    assert max(max(len(m), len(m[0])) for m in matrices) <= 6
    for matrix in matrices:
        _assert_smith_matches_minors(matrix)


@pytest.mark.parametrize("spec", [
    build_example_MN(2, 2),
    build_example_MN(2, 3),
    build_example_alpha_beta(4, [1, 0, 3, 2], [2, 3, 0, 1]),
], ids=["mn:2,2", "mn:2,3", "perm:4"])
def test_class_matrices_match_determinantal_divisors(spec):
    a = k_groups(make_generators(build_fock(spec, 2))).class_matrix
    n = len(a)
    # K0 and K1 are the cokernel and kernel of I - A
    delta = [[int(i == j) - a[i][j] for j in range(n)] for i in range(n)]
    for matrix in (a, delta):
        _assert_smith_matches_minors(matrix)


def test_determinantal_divisors_of_known_forms():
    assert _invariant_factors_from_minors([[2, 0], [0, 3]]) == [1, 6]
    assert _invariant_factors_from_minors([[4, 0], [0, 6]]) == [2, 12]
    assert _invariant_factors_from_minors([[0, 0], [0, 0]]) == []
    assert _invariant_factors_from_minors([[2, 4, 6]]) == [2]


def test_determinant_basics():
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[2]]) == 2
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[1, 1], [1, 1]]) == 0
    assert determinant([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1


# -- group bookkeeping --------------------------------------------------------


def test_group_rendering():
    assert str(FGAbelianGroup(0, [])) == "0"
    assert str(FGAbelianGroup(1, [])) == "Z"
    assert str(FGAbelianGroup(2, [])) == "Z^2"
    assert str(FGAbelianGroup(0, [3])) == "Z/3"
    assert str(FGAbelianGroup(0, [2, 2])) == "Z/2 + Z/2"
    assert str(FGAbelianGroup(1, [2])) == "Z + Z/2"
    assert FGAbelianGroup(0, [7]).as_dict() == {"freeRank": 0, "factors": [7]}


def test_k_groups_are_cokernel_and_kernel_of_one_smith_form(monkeypatch):
    # K0 and K1 of A are the cokernel and kernel of I - A, read from one
    # Smith form: I - A = diag(1, 3), 0 and I in turn
    forms = []

    def counted(rows, _call=smith_normal_form):
        forms.append(rows)
        return _call(rows)

    monkeypatch.setattr(ktheory, "smith_normal_form", counted)
    for matrix, k0, k1 in (([[0, 0], [0, -2]], "Z/3", "0"), ([[1, 0], [0, 1]], "Z^2", "Z^2"),
                           ([[0, 0], [0, 0]], "0", "0")):
        forms.clear()
        assert [str(g) for g in k_groups_of_matrix(matrix)] == [k0, k1]
        assert len(forms) == 1


# -- K-groups of the worked modules -------------------------------------------


def test_k_groups_of_the_bipartite_matrix_family():
    # the amalgamated relation matrix of the (2, N) module always leaves
    # the cyclic group of order N^2 - 1
    for N in range(2, 9):
        A, B, _ = bipartite_relation_matrices(2, N)
        k0, k1 = k_groups_of_matrix(sum_matrices(A, B))
        assert str(k0) == f"Z/{N * N - 1}"
        assert str(k1) == "0"


def test_identity_minus_class_matrix_diagonal():
    A, B, _ = bipartite_relation_matrices(2, 2)
    reduced = sum_matrices(A, B)
    eye_minus = [[(1 if i == j else 0) - reduced[i][j] for j in range(4)]
                 for i in range(4)]
    assert smith_normal_form(eye_minus).diag == [1, 1, 1, 3]


def test_class_action_matrix_of_the_bipartite_module():
    space = build_fock(build_example_MN(2, 2), 3)
    result = k_groups(make_generators(space))
    A, B, _ = bipartite_relation_matrices(2, 2)
    assert result.class_matrix == sum_matrices(A, B)
    assert str(result.k0) == "Z/3"
    assert str(result.k1) == "0"
    assert [r.check_id for r in result.reports if not r.passed] == []
    windows = {r.check_id: r.window for r in result.reports}
    assert windows == {
        "ktheory-partial-isometry": (1, 2),
        "ktheory-range-commute": (1, 3),
        "ktheory-compression-route": (1, 2),
    }


def test_class_action_matrix_of_the_twisted_module():
    spec = build_example_alpha_beta(3, [1, 2, 0], [2, 0, 1])
    result = k_groups(make_generators(build_fock(spec, 3)))
    # the sum of the two permutation matrices
    assert result.class_matrix == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert str(result.k0) == "Z/2 + Z/2"
    assert str(result.k1) == "0"


def test_equal_twists_give_the_doubled_cycle():
    spec = build_example_alpha_beta(3, [1, 2, 0], [1, 2, 0])
    result = k_groups(make_generators(build_fock(spec, 3)))
    assert result.class_matrix == [[0, 2, 0], [0, 0, 2], [2, 0, 0]]
    assert str(result.k0) == "Z/7"


def test_remixed_basis_violates_the_class_assumptions():
    # mixing the first generating family through a unitary keeps the module
    # finite type but the ranges stop commuting with the diagonal model
    spec = build_example_MN(2, 2)
    c = GaussianRational("3/5")
    s = GaussianRational(0, "4/5")
    spec.basis_U = spec.basis_U.combine(ExactMatrix.from_rows([[c, s], [s, c]]))
    assert [r.check_id for r in spec.verify_finite_type() if not r.passed] == []
    space = build_fock(spec, 3)
    with pytest.raises(AssumptionsViolated, match="range-commute"):
        k_groups(make_generators(space))


# -- closed forms of the class matrix ---------------------------------------


def _kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _ones(n):
    return [[1] * n for _ in range(n)]


def _permutation_matrix(perm):
    return [[int(perm[i] == j) for j in range(len(perm))] for i in range(len(perm))]


def _cycle_power(d, k):
    return [(i + k) % d for i in range(d)]


@pytest.mark.parametrize("M, N", [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_bipartite_class_matrix_has_its_closed_form(M, N):
    # read from the spec parameters alone: I_M (x) J_N + J_M (x) I_N
    a = k_groups(make_generators(build_fock(build_example_MN(M, N), 2))).class_matrix
    assert a == sum_matrices(_kron(_identity(M), _ones(N)), _kron(_ones(M), _identity(N)))


PERMUTATION_PAIRS = [
    (d, _cycle_power(d, 1), _cycle_power(d, k)) for d in range(1, 7) for k in range(d)
] + [
    (4, [1, 0, 3, 2], [2, 3, 0, 1]),
    (5, list(range(5)), list(range(5))),
    (6, [1, 2, 0, 4, 5, 3], [3, 4, 5, 0, 1, 2]),
    (6, [1, 0, 3, 2, 5, 4], list(range(6))),
]


@pytest.mark.parametrize("d, sigma, tau", PERMUTATION_PAIRS,
                         ids=[f"{d}-{s}-{t}" for d, s, t in PERMUTATION_PAIRS])
def test_permutation_class_matrix_has_its_closed_form(d, sigma, tau):
    # commuting twists sigma and tau give P_sigma + P_tau, row i holding a
    # one in columns sigma(i) and tau(i)
    spec = build_example_alpha_beta(d, sigma, tau)
    a = k_groups(make_generators(build_fock(spec, 2))).class_matrix
    assert a == sum_matrices(_permutation_matrix(sigma), _permutation_matrix(tau))


# -- diagonal lifts: masks instead of products --------------------------------


def _generators(builtin, depth):
    spec, _ = load_spec(argparse.Namespace(input=None, builtin=builtin))
    return make_generators(build_fock(spec, depth))


def _same_blocks(got, want):
    assert got.shape == want.shape
    assert set(got.blocks) == set(want.blocks)
    for key, block in want.blocks.items():
        assert (got.blocks[key] - block).is_zero(), key


@pytest.mark.parametrize("builtin", [
    "mn:2,2", "mn:3,3",
    "perm:3,(0 1 2),(0 2 1)", "perm:4,(0 1)(2 3),(0 2)(1 3)",
    "perm:5,(0 1 2 3 4),(0 2 4 1 3)", "perm:6,(0 1 2 3 4 5),(0 2 4)(1 3 5)",
])
def test_mask_families_equal_the_product_families(builtin):
    gens = _generators(builtin, 3)
    lifts = gens.lifts
    ncl = lifts.shape[0]
    for f in (1, 2):
        ranges, members = gens.ranges[f], gens.family(f)
        for g in range(ranges.shape[0]):
            _same_blocks(gens.lift_commutators(ranges[g]),
                         ranges[g] @ lifts - lifts @ ranges[g])
            _same_blocks(gens.lifted(members[g]), lifts @ members[g])
        # every (class, generator) pair, as build_ck_generators indexes them
        cls, gs = np.divmod(np.arange(ncl * members.shape[0]), members.shape[0])
        _same_blocks(gens.lifted(members[gs], cls), lifts[cls] @ members[gs])
    # a generator times combined lifts, as ck-left-shift forms it: each
    # class alone and all of them together
    patterns = ExactMatrix.hstack([ExactMatrix.identity(ncl), ExactMatrix.column([1] * ncl)])
    combined = gens.lift_diagonals.combine(patterns)
    for f in (1, 2):
        member = gens.family(f)[0]
        _same_blocks(combined.right_times(member), member @ lifts.combine(patterns))


def test_a_lift_block_off_its_diagonal_is_refused():
    gens = _generators("mn:2,2", 3)
    # creations map each level to the next, off the block diagonal
    with pytest.raises(ValueError, match="off the block diagonal"):
        gens.family(1).diagonal()
    ncl, key = gens.lifts.shape[0], ((2, (1,)), (2, (1,)))
    blocks = dict(gens.lifts.blocks)
    mats = [blocks[key].take((ncl,), i) for i in range(ncl)]
    mats[0] = mats[0] + ExactMatrix.identity(1).scattered([0], [1], mats[0].shape)
    blocks[key] = ExactMatrix.stack(mats, (ncl,))
    gens.lifts = FockOperator(gens.space, (ncl,), blocks)
    with pytest.raises(ValueError, match="off its diagonal"):
        gens.lift_diagonals


def _products_inside(monkeypatch, owner, name, selected=lambda *args: True):
    """A list that counts the linalg._product calls made while owner.name
    runs on arguments that selected accepts."""
    counts, inside = [], []
    call, product = getattr(owner, name), linalg._product

    def spied(*args, **kwargs):
        chosen = selected(*args)
        if chosen:
            counts.append(0)
        inside.append(chosen)
        try:
            return call(*args, **kwargs)
        finally:
            inside.pop()

    def counted(a, b):
        if inside and inside[-1]:
            counts[-1] += 1
        return product(a, b)

    monkeypatch.setattr(owner, name, spied)
    monkeypatch.setattr(linalg, "_product", counted)
    return counts


def test_range_commute_forms_no_product(monkeypatch):
    counts = _products_inside(monkeypatch, ktheory, "families_report",
                              lambda check_id, *rest: check_id == "ktheory-range-commute")
    class_action_matrix(_generators("mn:2,3", 3))
    assert counts == [0]


def test_the_pattern_read_makes_as_many_products_at_every_size(monkeypatch):
    counts = _products_inside(monkeypatch, ktheory, "class_patterns")
    for builtin in ("mn:2,3", "mn:2,6"):
        class_action_matrix(_generators(builtin, 2))
    # one pattern read per generating family and size
    assert len(counts) == 4
    assert counts[:2] == counts[2:] and all(counts)
