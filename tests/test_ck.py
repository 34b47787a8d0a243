import argparse

import numpy as np
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
from quadmod.cli import load_spec
from quadmod.fock import build_fock
from quadmod.ktheory import AssumptionsViolated, class_action_matrix
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
    coarse = DiagonalOperatorModel(
        ExactMatrix.stack([ExactMatrix.column([1, 0, 0, 0]).to_diagonal()], (1,)))
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


# -- witnesses under perturbed towers --------------------------------------

SIGMA, TAU = [1, 2, 0], [2, 0, 1]

# the check ids of each section, in report order
SECTION_ORDER = {
    "ck": ["ck-state-support", "ck-partial-isometry", "ck-relation", "ck-class-range",
           "ck-total-range", "ck-generator-split", "ck-left-shift"],
    "two": ["two-isometry-complete", "two-isometry-u", "two-isometry-v",
            "two-isometry-range-commute-u", "two-isometry-range-commute-v",
            "two-isometry-hom-u-second-twist", "two-isometry-hom-v-first-twist"],
    "ktheory": ["ktheory-partial-isometry", "ktheory-range-commute",
                "ktheory-compression-route"],
}

# (module, perturbation) -> per section, the witness of every failing check;
# a failed K-theory assumption raises, so its entry lists the failed checks
# of the exception message instead. Together the perturbations fail every
# check id of the three sections.
CK_PERTURBED_FAILURES = {
    ("mn:2,2", "gram-scale"): {
        "ck": {
            "ck-state-support": "state 0: nonzero block level 2 word 1 <- level 2 word 1",
            "ck-partial-isometry": "state 0: nonzero block level 3 word 11 <- level 2 word 1",
            "ck-relation": "state 0: nonzero block level 2 word 1 <- level 2 word 1",
            "ck-class-range": "class 0: nonzero block level 3 word 11 <- level 3 word 11",
            "ck-total-range": "nonzero block level 3 word 11 <- level 3 word 11",
        },
        "ktheory": [
            "ktheory-partial-isometry: family 1 generator 0: "
            "nonzero block level 3 word 11 <- level 2 word 1",
        ],
    },
    ("mn:2,2", "gram-shear-1"): {
        "ck": {
            "ck-class-range": "class 0: nonzero block level 3 word 11 <- level 3 word 11",
            "ck-total-range": "nonzero block level 3 word 11 <- level 3 word 11",
        },
        "ktheory": [
            "ktheory-range-commute: family 1 generator 0 class 0: "
            "nonzero block level 3 word 11 <- level 3 word 11",
        ],
    },
    ("mn:2,2", "gram-shear-2"): {
        "ck": {
            "ck-class-range": "class 0: nonzero block level 3 word 22 <- level 3 word 22",
            "ck-total-range": "nonzero block level 3 word 22 <- level 3 word 22",
        },
        "ktheory": [
            "ktheory-range-commute: family 2 generator 0 class 0: "
            "nonzero block level 3 word 22 <- level 3 word 22",
        ],
    },
    ("mn:2,2", "model"): {
        "ck": {
            "ck-state-support": "state 1: nonzero block level 1 <- level 1",
            "ck-relation": "state 1: nonzero block level 2 word 1 <- level 2 word 1",
            "ck-total-range": "nonzero block level 2 word 1 <- level 2 word 1",
            "ck-generator-split": "family 1 generator 1: nonzero block level 1 <- level 0",
            "ck-left-shift": "state 1: nonzero block level 2 word 1 <- level 1",
        },
        "ktheory": [
            "ktheory-compression-route: family 1 generator 0 class 1: "
            "nonzero block level 1 <- level 1",
        ],
    },
    ("mn:2,2", "support"): {
        "ck": {
            "ck-state-support": "state 0: nonzero block level 1 <- level 1",
            "ck-left-shift": "state 0: nonzero block level 2 word 1 <- level 1",
        },
    },
    ("mn:2,2", "matrix"): {
        "ck": {
            "ck-relation": "state 0: nonzero block level 2 word 1 <- level 2 word 1",
        },
    },
    ("perm:3", "left_B1"): {
        "two": {
            "two-isometry-hom-u-second-twist": "element 0: nonzero block level 1 <- level 1",
        },
    },
    ("perm:3", "left_B2"): {
        "two": {
            "two-isometry-hom-v-first-twist":
                "element 2: "
                "nonzero block level 2 word 2 <- level 2 word 2",
        },
    },
    ("perm:3", "gram-scale"): {
        "ck": {
            "ck-state-support": "state 0: nonzero block level 2 word 1 <- level 2 word 1",
            "ck-partial-isometry": "state 0: nonzero block level 3 word 11 <- level 2 word 1",
            "ck-relation": "state 0: nonzero block level 2 word 1 <- level 2 word 1",
            "ck-class-range": "class 0: nonzero block level 3 word 11 <- level 3 word 11",
            "ck-total-range": "nonzero block level 3 word 11 <- level 3 word 11",
        },
        "two": {
            "two-isometry-complete": "nonzero block level 3 word 11 <- level 3 word 11",
            "two-isometry-u": "nonzero block level 2 word 1 <- level 2 word 1",
            "two-isometry-hom-u-second-twist":
                "element 0: "
                "nonzero block level 2 word 1 <- level 2 word 1",
        },
        "ktheory": [
            "ktheory-partial-isometry: family 1 generator 0: "
            "nonzero block level 3 word 11 <- level 2 word 1",
        ],
    },
    ("perm:3", "gram-shear-1"): {
        "ck": {
            "ck-class-range": "class 0: nonzero block level 3 word 11 <- level 3 word 11",
            "ck-total-range": "nonzero block level 3 word 11 <- level 3 word 11",
        },
        "two": {
            "two-isometry-complete": "nonzero block level 3 word 11 <- level 3 word 11",
            "two-isometry-u": "nonzero block level 2 word 1 <- level 2 word 1",
            "two-isometry-range-commute-u":
                "element 0: "
                "nonzero block level 3 word 11 <- level 3 word 11",
            "two-isometry-hom-u-second-twist":
                "element 2: "
                "nonzero block level 2 word 1 <- level 2 word 1",
        },
        "ktheory": [
            "ktheory-partial-isometry: family 1 generator 0: "
            "nonzero block level 3 word 11 <- level 2 word 1",
            "ktheory-range-commute: family 1 generator 0 class 0: "
            "nonzero block level 3 word 11 <- level 3 word 11",
        ],
    },
    ("perm:3", "gram-shear-2"): {
        "ck": {
            "ck-class-range": "class 0: nonzero block level 3 word 22 <- level 3 word 22",
            "ck-total-range": "nonzero block level 3 word 22 <- level 3 word 22",
        },
        "two": {
            "two-isometry-complete": "nonzero block level 3 word 22 <- level 3 word 22",
            "two-isometry-v": "nonzero block level 2 word 2 <- level 2 word 2",
            "two-isometry-range-commute-v":
                "element 0: "
                "nonzero block level 3 word 22 <- level 3 word 22",
            "two-isometry-hom-v-first-twist":
                "element 2: "
                "nonzero block level 2 word 2 <- level 2 word 2",
        },
        "ktheory": [
            "ktheory-partial-isometry: family 2 generator 0: "
            "nonzero block level 3 word 22 <- level 2 word 2",
            "ktheory-range-commute: family 2 generator 0 class 0: "
            "nonzero block level 3 word 22 <- level 3 word 22",
        ],
    },
    ("perm:3", "model"): {
        "ck": {
            "ck-state-support": "state 1: nonzero block level 1 <- level 1",
            "ck-relation": "state 1: nonzero block level 2 word 1 <- level 2 word 1",
            "ck-total-range": "nonzero block level 2 word 1 <- level 2 word 1",
            "ck-generator-split": "family 1 generator 0: nonzero block level 1 <- level 0",
            "ck-left-shift": "state 1: nonzero block level 2 word 1 <- level 1",
        },
        "ktheory": [
            "ktheory-compression-route: family 1 generator 0 class 1: "
            "nonzero block level 1 <- level 1",
        ],
    },
    ("perm:3", "support"): {
        "ck": {
            "ck-state-support": "state 0: nonzero block level 1 <- level 1",
            "ck-left-shift": "state 0: nonzero block level 2 word 1 <- level 1",
        },
    },
    ("perm:3", "matrix"): {
        "ck": {
            "ck-relation": "state 0: nonzero block level 2 word 1 <- level 2 word 1",
        },
    },
}


def _perturbed(module, perturbation):
    """The reports of the three sections on a depth-3 tower whose summand,
    model or state data carry one perturbation."""
    spec = (build_example_MN(2, 2) if module == "mn:2,2"
            else build_example_alpha_beta(3, SIGMA, TAU))
    space = build_fock(spec, 3)
    if perturbation == "left_B1":
        summand = space.summand((2, (1,)))
        # member 0 doubled, the others kept
        d = summand.left_B1.batch_shape[0]
        weights = ExactMatrix.column([2] + [1] * (d - 1)).to_diagonal()
        summand.left_B1 = summand.left_B1.combine(weights)
    elif perturbation == "left_B2":
        summand = space.summand(space.keys[-1])
        # the identity added to the last member
        d, n = summand.left_B2.batch_shape[0], summand.dim
        summand.left_B2 = summand.left_B2 + ExactMatrix.stack(
            [ExactMatrix.zeros(n, n)] * (d - 1) + [ExactMatrix.identity(n)], (d,))
    elif perturbation == "gram-scale":
        # the adjoints of the blocks into this summand double
        summand = space.summand((3, (1, 1)))
        summand.gram_scalar = summand.gram_scalar.scale(2)
    elif perturbation.startswith("gram-shear"):
        # a range projection into this summand stops commuting with the
        # diagonal actions
        summand = space.summand((3, (1, 1)) if perturbation.endswith("1") else (3, (2, 2)))
        n = summand.dim
        shear = ExactMatrix.identity(n) + ExactMatrix.identity(1).scattered([0], [n - 1], (n, n))
        summand.gram_scalar = summand.gram_scalar @ shear
    gens = make_generators(space)
    if perturbation == "model":
        # the last class's idempotent zeroed, the others kept
        ncl = gens.model.rank
        gens.model.idempotents = gens.model.idempotents.combine(
            ExactMatrix.column([1] * (ncl - 1) + [0]).to_diagonal())
    bundle = build_ck_generators(gens)
    first = bundle.states[0]
    if perturbation == "support":
        first.support = [1 - first.support[0]] + first.support[1:]
    elif perturbation == "matrix":
        bundle.matrix[0] = [1 - bundle.matrix[0][0]] + bundle.matrix[0][1:]
    sections = {"ck": verify_ck_relations(bundle)}
    if module != "mn:2,2":
        alg = spec.algebra_A
        sections["two"] = verify_two_isometry_relations(
            gens, AlgebraHom.permutation(alg, SIGMA), AlgebraHom.permutation(alg, TAU))
    try:
        sections["ktheory"] = class_action_matrix(gens)[1]
    except AssumptionsViolated as exc:
        sections["ktheory"] = str(exc)
    return sections


@pytest.mark.parametrize("module, perturbation", list(CK_PERTURBED_FAILURES))
def test_perturbed_towers_keep_their_ck_witnesses(module, perturbation):
    # each failing check names the state, generator, class or element, and
    # the block, that checking its members one by one in order names first
    failures = CK_PERTURBED_FAILURES[(module, perturbation)]
    got = _perturbed(module, perturbation)
    assert set(got) == {"ck", "ktheory"} | ({"two"} if module == "perm:3" else set())
    for section, reports in got.items():
        expected = failures.get(section, {})
        if isinstance(expected, list):
            assert reports == "; ".join(expected)
            continue
        assert [(r.check_id, r.passed, r.witness) for r in reports] == [
            (cid, cid not in expected, expected.get(cid, "")) for cid in SECTION_ORDER[section]]


@pytest.mark.parametrize("builtin, depth", [
    ("mn:2,2", 3), ("mn:3,3", 3),
    ("perm:3,(0 1 2),(0 2 1)", 3), ("perm:4,(0 1)(2 3),(0 2)(1 3)", 3),
    ("perm:5,(0 1 2 3 4),(0 2 4 1 3)", 3), ("perm:6,(0 1 2 3 4 5),(0 2 4)(1 3 5)", 3),
])
def test_slices_chosen_on_the_module_match_the_whole_tower_filter(builtin, depth):
    # the slices kept from the module-level blocks are those the whole
    # tower keeps: every (class, generator) slice formed, the zero ones
    # dropped
    spec, _ = load_spec(argparse.Namespace(input=None, builtin=builtin))
    gens = make_generators(build_fock(spec, depth))
    bundle = build_ck_generators(gens)
    lifts = gens.lifts
    ncl = lifts.shape[0]
    expected = []
    for family in (1, 2):
        members = gens.family(family)
        ng = members.shape[0]
        sliced = (lifts.reshape((ncl, 1)) @ members.reshape((1, ng))).reshape((ncl * ng,))
        kept = [int(j) for j in np.flatnonzero(sliced.nonzero())]
        expected += [(family, *divmod(j, ng)) for j in kept]
        assert not (bundle.ops[family] - sliced[kept]).nonzero().any()
    assert [(st.family, st.class_index, st.generator_index) for st in bundle.states] == expected
