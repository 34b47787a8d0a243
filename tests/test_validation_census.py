"""Every check of the module-validation section can fail, and names its
first failing member.

Each row edits a few stored entries of a builtin module (as
test_mutations.py does) and pins the whole failing part of the validation
section: every failing check id with its witness. Where the grid allows,
the damage sits at a member other than the first, so a witness shows
that the first failing member is named in C order over the grid.
"""

import copy

import pytest

from quadmod import serialize
from quadmod.cli import validate_section
from quadmod.quadmodule import build_example_MN, build_example_alpha_beta
from test_mutations import CATALOG

ONE, ZERO, TWO, NEG = [1, 1, 0, 1], [0, 1, 0, 1], [2, 1, 0, 1], [-1, 1, 0, 1]
I, MINUS_I = [0, 1, 1, 1], [0, 1, -1, 1]

BASES = {
    "mn:2,2": lambda: build_example_MN(2, 2),
    "perm:3": lambda: build_example_alpha_beta(3, [1, 2, 0], [2, 0, 1]),
}


def _copied(base, field, index):
    return getattr(BASES[base](), field).grams.to_entries()[index].tolist()


ROWS = [
    ("right-b2-off-diagonal", "mn:2,2", [(("right_B2", 1, 0, 1), ONE)], {
        "action-rep-right-b2": "basis pair (0,1)",
        "action-unital-right-b2": "",
        "action-commute-left-b1-right-b2": "left basis 0 vs right basis 1",
        "right-action-compatible": "base algebra basis 0",
        "inner-right-linear-b2": "coordinate 0, algebra basis 1",
        "finite-basis-reconstruction-v": "",
        "right-a-basis-v": "",
    }),
    ("left-b1-off-diagonal", "mn:2,2", [(("left_B1", 1, 0, 1), ONE)], {
        "action-rep-left-b1": "basis pair (0,1)",
        "action-unital-left-b1": "",
        "action-commute-left-b1-right-b1": "left basis 1 vs right basis 0",
        "left-action-compatible": "base algebra basis 0",
        "left-adjointable-1-a": "algebra basis 1, coordinate 0",
        "left-adjointable-1-b1": "algebra basis 1, coordinate 0",
        "left-adjointable-1-b2": "algebra basis 1, coordinate 0",
        "finite-basis-compression-v": "pair (0,1), side-1 basis 1",
    }),
    ("left-b2-off-diagonal", "mn:2,2", [(("left_B2", 1, 0, 1), ONE)], {
        "action-rep-left-b2": "basis pair (0,1)",
        "action-unital-left-b2": "",
        "action-commute-left-b2-right-b1": "left basis 1 vs right basis 0",
        "left-action-compatible": "base algebra basis 0",
        "left-adjointable-2-a": "algebra basis 1, coordinate 0",
        "left-adjointable-2-b1": "algebra basis 1, coordinate 0",
        "left-adjointable-2-b2": "algebra basis 1, coordinate 0",
        "finite-basis-compression-u": "pair (0,0), side-2 basis 1",
        "finite-basis-trace-u": "",
        "index-map-derivation":
            "side-2 compression sum for basis element 1 is outside the embedded base algebra",
    }),
    ("left-b1-couples", "mn:2,2", [(("left_B1", 1, 1, 2), ONE)], {
        "action-rep-left-b1": "basis pair (1,0)",
        "action-unital-left-b1": "",
        "action-commute-left-b1-right-b1": "left basis 1 vs right basis 0",
        "action-commute-left-b1-right-b2": "left basis 1 vs right basis 0",
        "left-action-compatible": "base algebra basis 0",
        "left-adjointable-1-a": "algebra basis 1, coordinate 0",
        "left-adjointable-1-b1": "algebra basis 1, coordinate 1",
        "left-adjointable-1-b2": "algebra basis 1, coordinate 0",
        "finite-basis-compression-v": "pair (1,0), side-1 basis 1",
    }),
    ("left-b2-couples", "mn:2,2", [(("left_B2", 1, 2, 0), ONE)], {
        "action-rep-left-b2": "basis pair (1,0)",
        "action-unital-left-b2": "",
        "action-commute-left-b2-right-b2": "left basis 1 vs right basis 0",
        "left-action-compatible": "base algebra basis 0",
        "left-adjointable-2-a": "algebra basis 1, coordinate 0",
        "left-adjointable-2-b1": "algebra basis 1, coordinate 0",
        "left-adjointable-2-b2": "algebra basis 1, coordinate 1",
        "finite-basis-compression-u": "pair (1,0), side-2 basis 1",
    }),
    ("left-b2-complex", "perm:3", [(("left_B2", 1, 0, 2), I)], {
        "action-rep-left-b2": "basis pair (0,1)",
        "action-unital-left-b2": "",
        "action-commute-left-b2-right-b1": "left basis 1 vs right basis 0",
        "action-commute-left-b2-right-b2": "left basis 1 vs right basis 1",
        "left-action-compatible": "base algebra basis 1",
        "left-adjointable-2-a": "algebra basis 1, coordinate 0",
        "left-adjointable-2-b1": "algebra basis 1, coordinate 1",
        "left-adjointable-2-b2": "algebra basis 1, coordinate 2",
        "finite-basis-trace-u": "",
        "index-map-derivation": "side-2 index map has a non-positive entry",
    }),
    ("left-b1-loses-a-point", "mn:2,2", [(("left_B1", 0, 0, 0), ZERO)], {
        "action-unital-left-b1": "",
        "left-action-compatible": "base algebra basis 0",
        "finite-basis-compression-v": "pair (0,0), side-1 basis 0",
        "finite-basis-trace-v": "",
        "index-map-derivation":
            "side-1 compression sum for basis element 0 is outside the embedded base algebra",
    }),
    ("left-b1-member-vanishes", "mn:2,2",
     [(("left_B1", 1, 1, 1), ZERO), (("left_B1", 1, 3, 3), ZERO)], {
        "action-unital-left-b1": "",
        "left-action-compatible": "base algebra basis 0",
        "left-faithful-b1": "",
        "finite-basis-trace-v": "",
        "index-map-derivation": "side-1 index map kills basis element 1",
    }),
    ("left-b2-member-vanishes", "mn:2,2",
     [(("left_B2", 1, 2, 2), ZERO), (("left_B2", 1, 3, 3), ZERO)], {
        "action-unital-left-b2": "",
        "left-action-compatible": "base algebra basis 0",
        "left-faithful-b2": "",
        "finite-basis-trace-u": "",
        "index-map-derivation": "side-2 index map kills basis element 1",
    }),
    ("right-b1-scaled", "perm:3", [(("right_B1", 2, 1, 1), TWO)], {
        "action-rep-right-b1": "basis pair (2,2)",
        "action-unital-right-b1": "",
        "right-action-compatible": "base algebra basis 1",
        "right-action-twist-1": "algebra basis 2, base basis 1",
        "right-action-twist-2": "algebra basis 0, base basis 1",
        "inner-right-linear-b1": "coordinate 2, algebra basis 2",
        "inner-right-linear-a": "coordinate 1, algebra basis 1",
        "inner-right-twist-1": "coordinate 2, base basis 1",
        "inner-right-twist-2": "coordinate 0, base basis 1",
        "finite-basis-reconstruction-u": "",
        "right-a-basis-u": "",
        "right-a-basis-v": "",
    }),
    ("base-gram-indefinite", "perm:3", [(("inner_A", 1, 1, 1), NEG)], {
        "inner-positive-a": "coordinate 1",
        "finite-basis-trace-u": "",
        "finite-basis-trace-v": "",
        "index-map-inner-compat-1": "",
        "index-map-inner-compat-2": "",
        "right-a-basis-u": "",
        "right-a-basis-v": "",
    }),
    ("side-2-gram-not-hermitian", "mn:2,2", [(("inner_B2", 1, 0, 1), ONE)], {
        "inner-hermitian-b2": "",
        "inner-nondegenerate-b2": "",
        "inner-right-linear-b2": "coordinate 1, algebra basis 0",
        "left-adjointable-1-b2": "algebra basis 0, coordinate 1",
        "finite-basis-reconstruction-v": "",
        "finite-basis-compression-v": "pair (0,1), side-1 basis 1",
        "finite-basis-trace-u": "",
        "index-map-inner-compat-2": "",
    }),
    # the nonzero off-diagonal block survives two pivots with a zero
    # diagonal, so the negativity witness comes from the off-diagonal scan
    ("side-2-gram-off-diagonal-indefinite", "mn:2,2",
     [(("inner_B2", 1, 0, 1), ONE), (("inner_B2", 1, 1, 0), ONE)], {
        "inner-positive-b2": "coordinate 1",
        "inner-nondegenerate-b2": "",
        "inner-right-linear-b2": "coordinate 1, algebra basis 0",
        "left-adjointable-1-b2": "algebra basis 0, coordinate 1",
        "finite-basis-reconstruction-v": "",
        "finite-basis-compression-v": "pair (0,1), side-1 basis 1",
        "finite-basis-trace-u": "",
        "index-map-inner-compat-2": "",
    }),
    ("side-2-gram-degenerate", "mn:2,2", [(("inner_B2", 1, 3, 3), ZERO)], {
        "inner-nondegenerate-b2": "",
        "finite-basis-reconstruction-v": "",
        "finite-basis-compression-v": "pair (1,1), side-1 basis 1",
        "finite-basis-trace-u": "",
        "finite-basis-trace-v": "",
        "index-map-derivation":
            "side-1 compression sum for basis element 1 is outside the embedded base algebra",
    }),
    ("side-1-gram-complex-coupling", "mn:2,2",
     [(("inner_B1", 0, 0, 2), I), (("inner_B1", 0, 2, 0), MINUS_I)], {
        "inner-nondegenerate-b1": "",
        "left-adjointable-2-b1": "algebra basis 0, coordinate 0",
        "finite-basis-reconstruction-u": "",
        "finite-basis-compression-u": "pair (0,1), side-2 basis 1",
        "finite-basis-trace-v": "",
        "index-map-inner-compat-1": "",
    }),
    ("base-gram-repeats-a-coordinate", "perm:3",
     [(("inner_A", 2), _copied("perm:3", "inner_A", 1))], {
        "inner-nondegenerate-a": "",
        "inner-right-linear-a": "coordinate 2, algebra basis 1",
        "inner-full-a": "",
        "finite-basis-trace-u": "",
        "finite-basis-trace-v": "",
        "index-map-inner-compat-1": "",
        "index-map-inner-compat-2": "",
        "right-a-basis-u": "",
        "right-a-basis-v": "",
    }),
    ("side-1-gram-repeats-a-coordinate", "mn:2,2",
     [(("inner_B1", 1), _copied("mn:2,2", "inner_B1", 0))], {
        "inner-nondegenerate-b1": "",
        "inner-right-linear-b1": "coordinate 1, algebra basis 0",
        "inner-full-b1": "",
        "finite-basis-reconstruction-u": "",
        "finite-basis-trace-v": "",
        "index-map-inner-compat-1": "",
    }),
    ("side-2-gram-repeats-a-coordinate", "mn:2,2",
     [(("inner_B2", 1), _copied("mn:2,2", "inner_B2", 0))], {
        "inner-nondegenerate-b2": "",
        "inner-right-linear-b2": "coordinate 1, algebra basis 0",
        "inner-full-b2": "",
        "finite-basis-reconstruction-v": "",
        "finite-basis-trace-u": "",
        "index-map-inner-compat-2": "",
    }),
    ("left-embed-1-merges-points", "perm:3",
     [(("left_embed_1", 0, 1), ONE), (("left_embed_1", 1, 1), ZERO)], {
        "left-action-compatible": "base algebra basis 1",
        "left-faithful-a": "",
        "hom-left-embed-1": "unital, multiplicative, injective",
        "finite-basis-compression-u": "pair (0,0), side-2 basis 0",
        "finite-basis-trace-u": "",
        "index-map-derivation":
            "side-2 compression sum for basis element 0 is outside the embedded base algebra",
    }),
    ("left-embed-2-merges-points", "perm:3",
     [(("left_embed_2", 1, 2), ONE), (("left_embed_2", 2, 2), ZERO)], {
        "left-action-compatible": "base algebra basis 2",
        "hom-left-embed-2": "unital, multiplicative, injective",
        "finite-basis-compression-v": "pair (0,0), side-1 basis 0",
        "finite-basis-trace-v": "",
        "index-map-derivation":
            "side-1 compression sum for basis element 0 is outside the embedded base algebra",
    }),
    ("right-embed-1-complex", "mn:2,2", [(("right_embed_1", 1, 0), I)], {
        "right-action-compatible": "base algebra basis 0",
        "right-action-twist-2": "algebra basis 0, base basis 0",
        "inner-right-linear-a": "coordinate 0, algebra basis 0",
        "inner-right-twist-2": "coordinate 0, base basis 0",
        "hom-right-embed-1": "unital, multiplicative, star-preserving",
        "index-map-right-compat-1": "base basis 0",
        "strong-basis-b1": "",
        "right-a-basis-u": "",
        "right-a-basis-v": "",
    }),
    ("right-embed-1-scaled", "perm:3", [(("right_embed_1", 1, 2), TWO)], {
        "right-action-compatible": "base algebra basis 2",
        "right-action-twist-2": "algebra basis 2, base basis 2",
        "inner-right-linear-a": "coordinate 0, algebra basis 2",
        "inner-right-twist-2": "coordinate 2, base basis 2",
        "hom-right-embed-1": "unital, multiplicative",
        "index-map-right-compat-1": "base basis 2",
    }),
    ("right-embed-2-scaled", "perm:3", [(("right_embed_2", 2, 0), TWO)], {
        "right-action-compatible": "base algebra basis 0",
        "right-action-twist-2": "algebra basis 2, base basis 0",
        "inner-right-twist-2": "coordinate 2, base basis 0",
        "hom-right-embed-2": "unital, multiplicative",
        "index-map-right-compat-2": "base basis 0",
        "strong-basis-b2": "",
    }),
    ("second-family-rescaled", "mn:2,2", [(("basis_V", 1, 3), TWO)], {
        "finite-basis-reconstruction-v": "",
        "finite-basis-compression-v": "pair (1,1), side-1 basis 1",
        "finite-basis-trace-v": "",
        "index-map-derivation":
            "side-1 compression sum for basis element 1 is outside the embedded base algebra",
    }),
]


def perturbed(base, edits):
    data = serialize.spec_to_dict(BASES[base]())
    for path, value in edits:
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = copy.deepcopy(value)
    return serialize.spec_from_dict(data)


def failures(spec):
    return {c["id"]: c["witness"] for c in validate_section(spec)["checks"] if not c["passed"]}


@pytest.mark.parametrize("base, edits, expected", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_damage_fails_the_named_checks_at_the_first_bad_member(base, edits, expected):
    assert failures(perturbed(base, edits)) == expected


def test_every_validation_check_fails_somewhere():
    # the ids of a clean report, against the ids failed by the rows above
    # and by the single-entry corruptions of test_mutations.py
    ids = [c["id"] for c in validate_section(BASES["mn:2,2"]())["checks"]]
    failed = {i for row in ROWS for i in row[3]}
    for _, path, value, _ in CATALOG:
        failed |= set(failures(perturbed("mn:2,2", [(path, value)])))
    assert [i for i in ids if i not in failed] == []
    assert "index-map-derivation" in failed
