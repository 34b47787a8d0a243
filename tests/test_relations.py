import functools
import itertools
import operator
from fractions import Fraction

import pytest
from test_cli import rotated_bipartite
from test_fock import degree_zero_part
from test_ktheory import _same_blocks

from quadmod import fock, relations
from quadmod.fock import FockOperator, FockSpace, build_fock
from quadmod.linalg import ExactMatrix
from quadmod.quadmodule import build_example_MN, build_example_alpha_beta
from quadmod.relations import (
    GeneratorFamily,
    full_identity_suite,
    make_generators,
    represent_module_maps,
    scalar_compressions,
)
from quadmod.scalars import GaussianRational

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
    for family in (gens.S, gens.T):
        for i in range(family.shape[0]):
            x = family[i]
            total = total + x @ x.adjoint()
    defect = total - space.identity()
    assert not defect.window(0, 0).is_zero()
    assert not defect.window(1, 1).is_zero()


def test_represented_module_map_doubles_on_the_module_level(bipartite):
    # both generating families rebuild the operator on the module level,
    # so the representation overshoots by a factor of two exactly there
    space = bipartite
    gens = make_generators(space)
    h = space.summand((1, ()))
    L_module = h.left_B1.take((2,), 0)
    L_amb = h.ambient(L_module)
    represented, _ = represent_module_maps(gens, L_amb.reshaped((), (1,)))
    represented = represented[0]
    key = (1, ())
    assert represented.block(key, key) == L_module.scale(2)
    diff = represented - space.lift(L_module)
    # the first source level with a nonzero block is the module level
    assert diff.window(0, 0).is_zero()
    assert not diff.window(1, 1).is_zero()
    assert diff.window(2, space.depth - 1).is_zero()


def _span_rank(ops) -> int:
    keys = sorted({k for op in ops for k in op.blocks})
    if not keys:
        return 0
    rows = []
    for op in ops:
        pieces = []
        for dest, src in keys:
            m = op.block(dest, src)
            pieces.extend(m.take_rows([i]) for i in range(m.nrows))
        rows.append(ExactMatrix.hstack(pieces))
    return ExactMatrix.vstack(rows).rank()


def core_filtration_dims(gens, max_length: int) -> list[int]:
    """Dimensions of the degree-zero corners spanned by two-sided words of
    each length, conjugating the operator model, at this truncation depth."""
    space = gens.space
    if max_length >= space.depth:
        raise ValueError("word length must stay below the truncation depth")
    alphabet = [fam[i] for fam in (gens.S, gens.T) for i in range(fam.shape[0])]
    lifts = [gens.lifts[c] for c in range(gens.lifts.shape[0])]
    dims = []
    words = [space.identity()]
    for n in range(max_length + 1):
        if n > 0:
            words = [g @ wrd for g in alphabet for wrd in words]
        adjoints = [wrd.adjoint() for wrd in words]
        ops = [w1 @ e @ w2 for w1 in words for e in lifts for w2 in adjoints]
        dims.append(_span_rank([degree_zero_part(op) for op in ops]))
    return dims


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
    assert gens.S.shape == (2,) and gens.T.shape == (2,)
    gens = make_generators(twisted)
    assert gens.S.shape == (1,) and gens.T.shape == (1,)


@pytest.mark.parametrize("tower", ["bipartite", "twisted"])
def test_lift_projection_is_the_lift_of_the_model_projection(tower, request):
    # lift is linear, so the lift of a model projection is the combination
    # of the class lifts that its 0/1 pattern selects
    space = request.getfixturevalue(tower)
    gens = make_generators(space)
    model = gens.model
    for pattern in itertools.product((0, 1), repeat=model.rank):
        column = ExactMatrix.column(list(pattern))
        projection = model.idempotents.combine(column)
        expected = space.lift(projection.take((1,), 0))
        assert gens.lifts.combine(column)[0] == expected, pattern


# -- operators rebuilt from the basis families -------------------------------

# The formulas below sum one product per generator, each with its own side
# action; the suite combines basis families built once instead, and the two
# must agree block for block.


def _total(terms):
    return functools.reduce(operator.add, terms)


def reference_expansions(gens, family, xs, window):
    # sum_i S_i phi(<m_i|x>), one side action per generator
    space = gens.space
    members, ops = gens.members(family), gens.family(family)
    return _total(
        ops[i] @ space.left_actions(family, gens.inner(family).pairs(members.take_cols([i]), xs),
                                    window)
        for i in range(members.ncols))


def reference_module_maps(gens, maps):
    # per family, the generators rebuilt from the mapped members, each times
    # its adjoint, summed over the generators
    r = maps.batch_shape[0]
    terms = []
    for family in (1, 2):
        members = gens.members(family)
        n = members.ncols
        mapped = ExactMatrix.hstack([maps.take((r,), l) @ members for l in range(r)])
        rebuilt = reference_expansions(gens, family, mapped, (0, gens.space.depth)).reshape((r, n))
        terms.append((rebuilt @ gens.adjoints[family].reshape((1, n))).reshape((r * n,)).sums(n))
    return _total(terms)


def reference_scalar_compressions(gens, family):
    # member (p, q): sum_i S_i* L(<e_p|e_q>) S_i, one product per generator
    space = gens.space
    K = space.depth
    eye = ExactMatrix.identity(space.spec.dim)
    other = 2 if family == 1 else 1
    mid = space.left_actions(other, gens.inner(other).pairs(eye, eye), (0, K))
    ops, adj = gens.family(family), gens.adjoints[family]
    return _total(adj[i] @ mid @ ops[i].window(0, K - 1) for i in range(ops.shape[0]))


REBUILT_TOWERS = {
    "mn:2,2": lambda: build_example_MN(2, 2),
    "perm:4": lambda: build_example_alpha_beta(4, [1, 0, 3, 2], [2, 3, 0, 1]),
    # complex Grams that are not diagonal: every tensor quotient eliminates
    "rotated_bipartite": rotated_bipartite,
}


def _rebuilt_cases(spec):
    """Module vectors, with a complex one, and a batch of ambient module
    maps, with a complex one and a product, to rebuild."""
    d = spec.dim
    eye = ExactMatrix.identity(d)
    i = GaussianRational(0, 1)
    extra = eye.take_cols([0]) + eye.take_cols([d - 1]).scale(i)
    first = spec.left_B1.take(spec.left_B1.batch_shape, 0)
    last = spec.left_B2.take(spec.left_B2.batch_shape, -1)
    maps = [first, last.scale(i), first @ last]
    return ExactMatrix.hstack([eye, extra]), ExactMatrix.stack(maps, (len(maps),))


@pytest.mark.parametrize("module", list(REBUILT_TOWERS))
def test_combinations_of_the_basis_families_match_the_per_generator_formulas(module):
    spec = REBUILT_TOWERS[module]()
    gens = make_generators(build_fock(spec, 3))
    K = gens.space.depth
    xs, maps = _rebuilt_cases(spec)
    for family in (1, 2):
        for window in ((0, K - 1), (0, K), (1, K - 1)):
            _same_blocks(gens.expansions(family, xs, window),
                         reference_expansions(gens, family, xs, window))
        _same_blocks(scalar_compressions(gens, family).reshape((-1,)),
                     reference_scalar_compressions(gens, family))
    _same_blocks(represent_module_maps(gens, maps)[0], reference_module_maps(gens, maps))


def test_cached_basis_families_leave_no_products(monkeypatch, bipartite):
    # once the expansion basis exists, an expansion is a combination of it:
    # no block product at all; a represented module map builds its basis,
    # one block product per family, and combines it for every map at once
    gens = make_generators(bipartite)
    gens.expansion_bases
    products = []

    def counted(a, b, _call=fock._product_blocks):
        products.append(1)
        return _call(a, b)

    monkeypatch.setattr(fock, "_product_blocks", counted)
    spec = bipartite.spec
    xs, maps = _rebuilt_cases(spec)
    for family in (1, 2):
        gens.expansions(family, xs, (0, bipartite.depth - 1))
    assert products == []
    for count in (1, maps.batch_shape[0]):
        products.clear()
        represent_module_maps(gens, maps.take(maps.batch_shape, slice(count)))
        assert len(products) == 2
    # the spy sees the products a family expression makes
    gens.S @ gens.T
    assert products


@pytest.mark.parametrize("module, maps, failed", [
    ("mn:2,2", 6 + 4 + 1, []),
    ("rotated_bipartite", 6, ["module-map-model"]),
])
def test_the_suite_represents_its_module_maps_in_one_call(monkeypatch, module, maps, failed):
    # the six reconstruction maps and, where the left actions have a
    # diagonal model, its class maps and their product are rebuilt by one
    # call, whose coefficients the class checks read; without a model the
    # call takes the six maps and the suite still names the missing model
    calls = []
    represent = relations.represent_module_maps

    def counted(gens, batch):
        calls.append(batch.batch_shape)
        return represent(gens, batch)

    monkeypatch.setattr(relations, "represent_module_maps", counted)
    reports = full_identity_suite(make_generators(build_fock(REBUILT_TOWERS[module](), 3)))
    assert calls == [(maps,)]
    assert [r.check_id for r in reports if not r.passed] == failed


# -- witnesses under perturbed towers --------------------------------------

# every report of the suite, in report order
REPORT_ORDER = [
    "creation-module-map-1", "annihilation-formula-1", "creation-linear-1",
    "creation-lift-intertwine-1", "compressed-left-action-1", "creation-module-map-2",
    "annihilation-formula-2", "creation-linear-2", "creation-lift-intertwine-2",
    "compressed-left-action-2", "cross-family-orthogonal-1",
    "cross-family-orthogonal-2", "range-sum-1", "range-sum-2", "range-sum-total",
    "creation-expansion-1", "creation-expansion-2", "defining-relation-1",
    "defining-relation-2", "defining-relation-3", "defining-relation-4",
    "defining-relation-5", "defining-relation-6", "defining-relation-7",
    "defining-relation-8", "scalar-compression-1", "scalar-compression-2",
    "algebra-reconstruction-z", "algebra-reconstruction-w",
    "algebra-reconstruction-zstar", "algebra-reconstruction-wstar",
    "algebra-reconstruction-zw", "algebra-reconstruction-wz", "product-reconstruction",
    "module-map-compression", "module-map-multiplicative", "module-map-injective",
]

# (module, perturbation) -> the witness of every failing report, each naming
# the first failing member in member order and its first bad block
PERTURBED_FAILURES = {
    ("mn:2,2", "lift"): {
        "creation-lift-intertwine-2":
            "left generator, vector 0, side element 0: "
            "nonzero block level 2 word 2 <- level 1",
        "compressed-left-action-2":
            "left generator, vectors (0, 0): "
            "nonzero block level 1 <- level 1",
    },
    ("mn:2,2", "left_B1"): {
        "annihilation-formula-1":
            "vector 0: "
            "nonzero block level 2 word 1 <- level 3 word 11",
        "creation-lift-intertwine-1":
            "left generator, vector 0, side element 0: "
            "nonzero block level 3 word 11 <- level 2 word 1",
        "compressed-left-action-1":
            "left generator, vectors (0, 0): "
            "nonzero block level 2 word 1 <- level 2 word 1",
        "creation-expansion-1": "vector 0: nonzero block level 3 word 11 <- level 2 word 1",
        "defining-relation-3":
            "pair (0, 0): "
            "nonzero block level 2 word 1 <- level 2 word 1",
        "defining-relation-5":
            "element 0, generator 0: "
            "nonzero block level 2 word 1 <- level 1",
        "defining-relation-7":
            "element 0, generator 0: "
            "nonzero block level 3 word 11 <- level 2 word 1",
        "scalar-compression-1":
            "vectors (0, 0): "
            "nonzero block level 2 word 1 <- level 2 word 1",
        "algebra-reconstruction-z": "nonzero block level 2 word 1 <- level 2 word 1",
        "algebra-reconstruction-w": "nonzero block level 3 word 11 <- level 3 word 11",
        "algebra-reconstruction-zstar": "nonzero block level 2 word 1 <- level 2 word 1",
        "algebra-reconstruction-wstar": "nonzero block level 3 word 11 <- level 3 word 11",
        "algebra-reconstruction-zw": "nonzero block level 2 word 1 <- level 2 word 1",
        "algebra-reconstruction-wz": "nonzero block level 2 word 1 <- level 2 word 1",
        "product-reconstruction": "nonzero block level 3 word 11 <- level 3 word 11",
    },
    ("mn:2,2", "left_B2"): {
        "defining-relation-8":
            "element 1, generator 0: "
            "nonzero block level 3 word 22 <- level 2 word 2",
        "algebra-reconstruction-w": "nonzero block level 3 word 22 <- level 3 word 22",
        "algebra-reconstruction-wstar": "nonzero block level 3 word 22 <- level 3 word 22",
        "algebra-reconstruction-zw": "nonzero block level 3 word 22 <- level 3 word 22",
        "algebra-reconstruction-wz": "nonzero block level 3 word 22 <- level 3 word 22",
    },
    # the census found no module that fails creation-linear-*,
    # cross-family-orthogonal-*, range-sum-* or range-sum-total; each of
    # the three perturbations below makes some of them fail
    ("mn:2,2", "real_creations"): {
        "annihilation-formula-1": "vector 4: nonzero block level 0 <- level 1",
        "creation-linear-1": "pair (0, 1): nonzero block level 1 <- level 0",
        "creation-lift-intertwine-1":
            "complex combination, vector 2, side element 0: "
            "nonzero block level 1 <- level 0",
        "annihilation-formula-2": "vector 4: nonzero block level 0 <- level 1",
        "creation-linear-2": "pair (0, 1): nonzero block level 1 <- level 0",
        "creation-lift-intertwine-2":
            "complex combination, vector 2, side element 1: "
            "nonzero block level 1 <- level 0",
    },
    ("mn:2,2", "leaky_creations"): {
        "annihilation-formula-2": "vector 0: nonzero block level 1 <- level 2 word 1",
        "creation-lift-intertwine-2":
            "left generator, vector 0, side element 0: "
            "nonzero block level 2 word 1 <- level 1",
        "compressed-left-action-2":
            "left generator, vectors (0, 0): "
            "nonzero block level 1 <- level 1",
        "cross-family-orthogonal-1": "vectors (0, 0): nonzero block level 1 <- level 1",
        "cross-family-orthogonal-2": "vectors (0, 0): nonzero block level 1 <- level 1",
        "range-sum-2": "nonzero block level 2 word 1 <- level 2 word 1",
        "range-sum-total": "nonzero block level 2 word 1 <- level 2 word 1",
        "creation-expansion-2": "vector 0: nonzero block level 2 word 1 <- level 1",
        "defining-relation-1": "nonzero block level 2 word 1 <- level 2 word 1",
        "defining-relation-2": "pair (0, 0): nonzero block level 1 <- level 1",
        "defining-relation-4": "pair (0, 0): nonzero block level 1 <- level 1",
        "defining-relation-8":
            "element 0, generator 0: "
            "nonzero block level 2 word 1 <- level 1",
        "scalar-compression-2": "vectors (0, 0): nonzero block level 1 <- level 1",
        "algebra-reconstruction-z": "nonzero block level 2 word 1 <- level 2 word 1",
        "algebra-reconstruction-w": "nonzero block level 2 word 1 <- level 2 word 1",
        "algebra-reconstruction-zstar": "nonzero block level 2 word 1 <- level 2 word 1",
        "algebra-reconstruction-wstar": "nonzero block level 2 word 1 <- level 2 word 1",
        "algebra-reconstruction-zw": "nonzero block level 2 word 1 <- level 2 word 1",
        "algebra-reconstruction-wz": "nonzero block level 2 word 1 <- level 2 word 1",
        "product-reconstruction": "nonzero block level 2 word 1 <- level 2 word 1",
        "module-map-compression":
            "class 0, generators (0, 0): "
            "nonzero block level 1 <- level 1",
    },
    ("mn:2,2", "short_range_sums"): {
        "range-sum-1": "nonzero block level 2 word 1 <- level 2 word 1",
        "range-sum-2": "nonzero block level 2 word 2 <- level 2 word 2",
        "range-sum-total": "nonzero block level 2 word 1 <- level 2 word 1",
        "defining-relation-1": "nonzero block level 2 word 1 <- level 2 word 1",
    },
    ("perm:3", "lift"): {
        "creation-lift-intertwine-2":
            "left generator, vector 0, side element 2: "
            "nonzero block level 2 word 2 <- level 1",
        "compressed-left-action-2":
            "left generator, vectors (0, 0): "
            "nonzero block level 1 <- level 1",
    },
    ("perm:3", "left_B1"): {
        "annihilation-formula-1":
            "vector 2: "
            "nonzero block level 2 word 1 <- level 3 word 11",
        "creation-lift-intertwine-1":
            "complex combination, vector 2, side element 0: "
            "nonzero block level 3 word 11 <- level 2 word 1",
        "compressed-left-action-1":
            "complex combination, vectors (2, 2): "
            "nonzero block level 2 word 1 <- level 2 word 1",
        "creation-expansion-1": "vector 2: nonzero block level 3 word 11 <- level 2 word 1",
        "defining-relation-3":
            "pair (0, 0): "
            "nonzero block level 2 word 1 <- level 2 word 1",
        "defining-relation-5":
            "element 0, generator 0: "
            "nonzero block level 2 word 1 <- level 1",
        "defining-relation-7":
            "element 2, generator 0: "
            "nonzero block level 3 word 11 <- level 2 word 1",
        "scalar-compression-1":
            "vectors (0, 0): "
            "nonzero block level 2 word 1 <- level 2 word 1",
        "algebra-reconstruction-z": "nonzero block level 2 word 1 <- level 2 word 1",
        "algebra-reconstruction-zstar": "nonzero block level 2 word 1 <- level 2 word 1",
        "algebra-reconstruction-zw": "nonzero block level 2 word 1 <- level 2 word 1",
        "algebra-reconstruction-wz": "nonzero block level 2 word 1 <- level 2 word 1",
    },
    ("perm:3", "left_B2"): {
        "defining-relation-8":
            "element 2, generator 0: "
            "nonzero block level 3 word 22 <- level 2 word 2",
    },
}


def _extra_lift_block(monkeypatch):
    """Every lift gains the identity on the summand of level 2, word 2."""
    lifts = FockSpace.lifts
    key = (2, (2,))

    def perturbed(self, ops):
        extra = {(key, key): ExactMatrix.identity(self.summand(key).dim)}
        return lifts(self, ops) + FockOperator(self, (), extra)

    monkeypatch.setattr(FockSpace, "lifts", perturbed)


def _real_creations(monkeypatch):
    """Every creation drops the imaginary part of its module vectors."""
    creations = FockSpace.creations

    def perturbed(self, family, xs):
        return creations(self, family, (xs + xs.conj()).scale(Fraction(1, 2)))

    monkeypatch.setattr(FockSpace, "creations", perturbed)


def _leaky_creations(monkeypatch):
    """Every second-family creation from level 1 also adds the first
    family's creation of the same vector, into the first family's range."""
    creations = FockSpace.creations

    def perturbed(self, family, xs):
        own = creations(self, family, xs)
        if family == 1:
            return own
        return own + creations(self, 1, xs).window(1, 1)

    monkeypatch.setattr(FockSpace, "creations", perturbed)


def _short_range_sums(monkeypatch):
    """Each family's range sum misses its summand of level 2, the word of
    that family alone."""
    range_sum = GeneratorFamily.range_sum

    def perturbed(self, family):
        full = range_sum(self, family)
        key = (2, (family,))
        return FockOperator(self.space, full.shape,
                            {k: v for k, v in full.blocks.items() if k != (key, key)})

    monkeypatch.setattr(GeneratorFamily, "range_sum", perturbed)


@pytest.mark.parametrize("module, perturbation", list(PERTURBED_FAILURES))
def test_perturbed_towers_keep_their_witnesses(monkeypatch, module, perturbation):
    # each failing family names the member and block that checking its
    # members one by one, in member order, would name first
    if module == "mn:2,2":
        spec = build_example_MN(2, 2)
    else:
        spec = build_example_alpha_beta(3, [1, 2, 0], [2, 0, 1])
    space = build_fock(spec, 3)
    if perturbation == "lift":
        _extra_lift_block(monkeypatch)
    elif perturbation == "real_creations":
        _real_creations(monkeypatch)
    elif perturbation == "leaky_creations":
        _leaky_creations(monkeypatch)
    elif perturbation == "short_range_sums":
        _short_range_sums(monkeypatch)
    elif perturbation == "left_B1":
        summand = space.summand((2, (1,)))
        # member 0 doubled, the others kept
        d = summand.left_B1.batch_shape[0]
        weights = ExactMatrix.column([2] + [1] * (d - 1)).to_diagonal()
        summand.left_B1 = summand.left_B1.combine(weights)
    else:
        summand = space.summand(space.keys[-1])
        # the identity added to the last member
        d, n = summand.left_B2.batch_shape[0], summand.dim
        summand.left_B2 = summand.left_B2 + ExactMatrix.stack(
            [ExactMatrix.zeros(n, n)] * (d - 1) + [ExactMatrix.identity(n)], (d,))
    reports = full_identity_suite(make_generators(space))
    failures = PERTURBED_FAILURES[(module, perturbation)]
    expected = [(cid, cid not in failures, failures.get(cid, "")) for cid in REPORT_ORDER]
    assert [(r.check_id, r.passed, r.witness) for r in reports] == expected
