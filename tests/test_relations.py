import itertools

import pytest

from quadmod.fock import build_fock
from quadmod.linalg import ExactMatrix
from quadmod.quadmodule import build_example_MN, build_example_alpha_beta
from quadmod.relations import (
    core_filtration_dims,
    full_identity_suite,
    make_generators,
    represent_module_map,
)

# every identity the suite checks, with its truncation window at depth K
# (upper bounds written as offsets from K)
WINDOWS = {
    "creation-module-map-1": (0, 0),
    "creation-module-map-2": (0, 0),
    "annihilation-formula-1": (1, 0),
    "annihilation-formula-2": (1, 0),
    "creation-linear-1": (0, -1),
    "creation-linear-2": (0, -1),
    "creation-lift-intertwine-1": (0, -1),
    "creation-lift-intertwine-2": (0, -1),
    "compressed-left-action-1": (0, -1),
    "compressed-left-action-2": (0, -1),
    "cross-family-orthogonal-1": (1, 0),
    "cross-family-orthogonal-2": (1, 0),
    "range-sum-1": (0, 0),
    "range-sum-2": (0, 0),
    "range-sum-total": (0, 0),
    "creation-expansion-1": (0, -1),
    "creation-expansion-2": (0, -1),
    "defining-relation-1": (2, 0),
    "defining-relation-2": (1, 0),
    "defining-relation-3": (0, -1),
    "defining-relation-4": (0, -1),
    "defining-relation-5": (0, -1),
    "defining-relation-6": (0, -1),
    "defining-relation-7": (0, -1),
    "defining-relation-8": (0, -1),
    "scalar-compression-1": (0, -1),
    "scalar-compression-2": (0, -1),
    "algebra-reconstruction-z": (2, 0),
    "algebra-reconstruction-w": (2, 0),
    "algebra-reconstruction-zstar": (2, 0),
    "algebra-reconstruction-wstar": (2, 0),
    "algebra-reconstruction-zw": (2, 0),
    "algebra-reconstruction-wz": (2, 0),
    "product-reconstruction": (2, 0),
    "module-map-compression": (1, -1),
    "module-map-multiplicative": (2, 0),
}


def run_suite(space):
    reports = full_identity_suite(make_generators(space))
    failed = [r.check_id for r in reports if not r.passed]
    assert failed == []
    return reports


@pytest.fixture(scope="module")
def bipartite():
    return build_fock(build_example_MN(2, 2), 3)


@pytest.fixture(scope="module")
def twisted():
    spec = build_example_alpha_beta(3, [1, 2, 0], [2, 0, 1])
    return build_fock(spec, 3)


def test_suite_passes_on_the_bipartite_module(bipartite):
    reports = run_suite(bipartite)
    assert len(reports) == 37


def test_suite_passes_on_the_twisted_module(twisted):
    run_suite(twisted)


def test_suite_passes_with_identity_twists():
    spec = build_example_alpha_beta(2, [0, 1], [0, 1])
    run_suite(build_fock(spec, 3))


def test_declared_windows_are_exactly_the_catalog(bipartite):
    reports = run_suite(bipartite)
    windowed = {r.check_id: r.window for r in reports if hasattr(r, "window")}
    K = bipartite.depth
    expected = {cid: (lo, K + hi) for cid, (lo, hi) in WINDOWS.items()}
    assert windowed == expected
    plain = [r.check_id for r in reports if not hasattr(r, "window")]
    assert plain == ["module-map-injective"]


def test_windows_scale_with_depth():
    space = build_fock(build_example_alpha_beta(2, [1, 0], [1, 0]), 4)
    reports = run_suite(space)
    windowed = {r.check_id: r.window for r in reports if hasattr(r, "window")}
    assert windowed["defining-relation-1"] == (2, 4)
    assert windowed["annihilation-formula-2"] == (1, 4)
    assert windowed["module-map-compression"] == (1, 3)


def test_completeness_window_is_tight(bipartite):
    # below level 2 the two range families genuinely fail to fill the
    # space, so the declared window cannot be widened
    space = bipartite
    gens = make_generators(space)
    total = space.zero()
    for s in gens.S:
        total = total + s @ s.adjoint()
    for t in gens.T:
        total = total + t @ t.adjoint()
    defect = total - space.identity()
    assert defect.first_nonzero_source_level() == 0
    assert not defect.is_zero_on_source_levels(1, 1)


def test_represented_module_map_doubles_on_the_module_level(bipartite):
    # both generating families rebuild the operator on the module level,
    # so the representation overshoots by a factor of two exactly there
    space = bipartite
    gens = make_generators(space)
    h = space.summand((1, ()))
    L_module = h.left_B1[0]
    L_amb = h.include @ L_module @ h.express
    represented = represent_module_map(gens, L_amb)
    key = (1, ())
    assert represented.block(key, key) == L_module.scale(2)
    diff = represented - space.lift(L_module)
    assert diff.first_nonzero_source_level() == 1
    assert diff.is_zero_on_source_levels(2, space.depth - 1)


def test_filtration_dims_bipartite():
    space = build_fock(build_example_MN(2, 2), 3)
    gens = make_generators(space)
    assert core_filtration_dims(gens, 1) == [4, 64]


def test_filtration_dims_twisted():
    spec = build_example_alpha_beta(3, [1, 2, 0], [2, 0, 1])
    gens = make_generators(build_fock(spec, 3))
    assert core_filtration_dims(gens, 2) == [3, 12, 48]


def test_filtration_needs_headroom(twisted):
    gens = make_generators(twisted)
    with pytest.raises(ValueError):
        core_filtration_dims(gens, 3)


def test_generator_counts_follow_the_bases(bipartite, twisted):
    gens = make_generators(bipartite)
    assert len(gens.S) == 2 and len(gens.T) == 2
    gens = make_generators(twisted)
    assert len(gens.S) == 1 and len(gens.T) == 1


@pytest.mark.parametrize("tower", ["bipartite", "twisted"])
def test_lift_projection_is_the_lift_of_the_model_projection(tower, request):
    space = request.getfixturevalue(tower)
    gens = make_generators(space)
    model = gens.model
    for pattern in itertools.product((0, 1), repeat=model.rank):
        expected = space.lift(model.element(ExactMatrix.column(list(pattern))))
        assert gens.lift_projection(pattern) == expected, pattern
