import json
import re
import tracemalloc
from collections import Counter
from fractions import Fraction as F

import pytest

from quadmod import cli, fock
from quadmod.fock import (DepthTooSmall, FockOperator, FockSpace, QuadSpace, TooLarge,
                          TowerDefect, build_fock)
from quadmod.linalg import ExactMatrix, GramStack
from quadmod.quadmodule import build_example_MN, build_example_alpha_beta
from quadmod.scalars import GaussianRational

GR = GaussianRational
I = GaussianRational(0, 1)


def scaled(x, c):
    """The operator x times the scalar c, block by block."""
    return FockOperator(x.space, x.shape, {k: v.scale(c) for k, v in x.blocks.items()})


def degree_zero_part(x):
    """The block-diagonal-in-level part of an operator."""
    return FockOperator(x.space, x.shape,
                        {k: v for k, v in x.blocks.items() if k[0][0] == k[1][0]})


def gauge_unitary(space):
    """The quarter-turn gauge rotation: multiplication by i^n on level n."""
    return FockOperator(space, (), {(key, key): ExactMatrix.identity(sp.dim).scale(I ** key[0])
                                    for key, sp in space.summands.items()})


def bipartite_space(M=2, N=2, depth=3):
    return build_fock(build_example_MN(M, N), depth)


def twisted_space(depth=3):
    spec = build_example_alpha_beta(3, [1, 2, 0], [2, 0, 1])
    return build_fock(spec, depth)


def test_level_dims_bipartite_2x2():
    space = bipartite_space(depth=4)
    assert space.level_dims == [4, 4, 16, 64, 256]
    assert sum(space.level_dims) == 344


def test_level_dims_twisted_d3():
    space = twisted_space(depth=4)
    assert space.level_dims == [6, 3, 6, 12, 24]


def test_level_dims_bipartite_2x3():
    space = bipartite_space(2, 3, depth=3)
    assert space.level_dims == [5, 6, 30, 150]


def test_construction_checks_all_pass():
    space = twisted_space()
    assert all(c.passed for c in space.build_checks)
    ids = {c.check_id for c in space.build_checks}
    assert "index-route-consistent" in ids
    assert "tensor-quotient" in ids
    assert "tensor-associative" in ids


def misrouted(monkeypatch, family):
    """Double the B1-valued form of the level 2 summand of one family, so
    that the first index-map route misses its A-valued form there."""
    tensor = fock.relative_tensor

    def perturbed(h, tensor_type, w):
        space, defects = tensor(h, tensor_type, w)
        if w is h and tensor_type == family:
            space.gram_B1 = GramStack(g.scale(2) for g in space.gram_B1.coords)
        return space, defects

    monkeypatch.setattr(fock, "relative_tensor", perturbed)


def test_an_index_route_mismatch_fails_its_check(monkeypatch, capsys):
    misrouted(monkeypatch, 2)
    with pytest.raises(TowerDefect) as err:
        build_fock(build_example_MN(2, 2), 3)
    failed = err.value.checks[-1]
    assert (failed.check_id, failed.passed) == ("index-route-consistent", False)
    assert failed.witness == "index-map route 1 differs at level 2, word (2,), coordinate 0"
    assert all(c.passed for c in err.value.checks[:-1])

    code = cli.main(["full", "--builtin", "mn:2,2", "--depth", "3", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    # validation, then the tower section that the failed check ends
    assert [sec["title"] for sec in report["sections"]] == ["module validation", "tower construction"]
    assert report["sections"][1]["checks"][-1]["witness"] == failed.witness


def perturb_pair_actions(monkeypatch, entry):
    """One unit more at entry (entry, entry) of every x (x) I_h read on
    every index in order, which only the associativity check reads: its
    two bracketings of a triple tensor then disagree. entry -1 is the last
    diagonal entry."""
    gather = fock.kron_identity_entries

    def perturbed(x, s, left, rows, cols):
        got = gather(x, s, left, rows, cols)
        if isinstance(rows, range) and isinstance(cols, range):
            at = [entry % got.nrows]
            got = got + ExactMatrix.identity(1).scattered(at, at, got.shape)
        return got

    monkeypatch.setattr(fock, "kron_identity_entries", perturbed)


def test_a_bracketing_disagreement_fails_its_check(monkeypatch, capsys):
    perturb_pair_actions(monkeypatch, 0)
    with pytest.raises(TowerDefect) as err:
        build_fock(build_example_MN(2, 2), 3)
    failed = err.value.checks[-1]
    assert (failed.check_id, failed.passed) == ("tensor-associative", False)
    assert failed.witness == "the two bracketings of the type (1, 1) triple tensor disagree"
    assert all(c.passed for c in err.value.checks[:-1])
    assert "index-route-consistent" in {c.check_id for c in err.value.checks}

    code = cli.main(["full", "--builtin", "mn:2,2", "--depth", "3", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    # the tower section keeps every check made before the failed one
    tower = report["sections"][-1]
    assert tower["title"] == "tower construction"
    assert [c["id"] for c in tower["checks"]] == [c.check_id for c in err.value.checks]
    assert tower["checks"][-1]["witness"] == failed.witness


def test_a_disagreement_at_the_last_pair_entry_fails_the_check(monkeypatch):
    perturb_pair_actions(monkeypatch, -1)
    h = build_fock(build_example_MN(2, 2), 2).summand((1, ()))
    assert fock._associativity_check(h) == (1, 1)


def test_a_disagreement_in_the_last_row_slab_fails_the_check(monkeypatch):
    # keep only the last row of the module's B1-valued Gram: every row
    # (a, ., .) of a type (1, j) triple stack then vanishes in both
    # bracketings but for a = h - 1, which alone the perturbation reaches,
    # so a check that skips the last first-factor index passes
    h = build_fock(build_example_MN(2, 2), 2).summand((1, ()))
    last_row = ExactMatrix.column([0] * (h.dim - 1) + [1]).to_diagonal()
    fields = {slot: getattr(h, slot) for slot in QuadSpace.__slots__}
    cut = QuadSpace(**fields | {"gram_B1": GramStack(last_row @ h.gram_B1.grams)})
    assert fock._associativity_check(cut) is None
    perturb_pair_actions(monkeypatch, -1)
    assert fock._associativity_check(cut) == (1, 1)


def test_the_associativity_check_holds_no_triple_stack():
    # the whole triple stacks of the perm:6 module take about 15 MB; one
    # row slab of them, h^5 of h^6 entries per coordinate, far less
    cycles = cli.parse_cycles(6, "(0 1 2 3 4 5)"), cli.parse_cycles(6, "(0 2 4)(1 3 5)")
    h = build_fock(build_example_alpha_beta(6, *cycles), 2).summand((1, ()))
    tracemalloc.start()
    try:
        assert fock._associativity_check(h) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_window_and_reshape_scan_no_block_again(monkeypatch):
    # both only select or re-view blocks already known to be nonzero
    space = bipartite_space(depth=3)
    op = space.creations(1, ExactMatrix.identity(space.spec.dim))
    scans = []
    is_zero = ExactMatrix.is_zero
    monkeypatch.setattr(ExactMatrix, "is_zero", lambda m: scans.append(m) or is_zero(m))
    inside, rows = op.window(1, 2), op.reshape((2, -1))
    assert not scans
    monkeypatch.undo()
    assert inside.blocks == {k: v for k, v in op.blocks.items() if 1 <= k[1][0] <= 2}
    assert rows.shape == (2, op.shape[0] // 2)
    assert rows[1, 0] == op[op.shape[0] // 2]


def test_summand_keys_are_words():
    space = bipartite_space(depth=3)
    assert space.keys_at_level(0) == [(0, ())]
    assert space.keys_at_level(1) == [(1, ())]
    level2 = space.keys_at_level(2)
    assert level2 == [(2, (1,)), (2, (2,))]
    assert len(space.keys_at_level(3)) == 4


def test_depth_below_two_is_rejected():
    spec = build_example_MN(2, 2)
    with pytest.raises(DepthTooSmall):
        build_fock(spec, 1)


def test_dimension_budget_is_enforced(monkeypatch):
    monkeypatch.setenv("QUADMOD_MAX_DIM", "20")
    spec = build_example_MN(2, 3)
    with pytest.raises(TooLarge):
        build_fock(spec, 3)
    monkeypatch.setenv("QUADMOD_MAX_DIM", "250")
    assert build_fock(spec, 2).level_dims == [5, 6, 30]


def test_creation_shapes_are_validated():
    space = bipartite_space()
    with pytest.raises(ValueError):
        space.creation(3, ExactMatrix.column([1, 0, 0, 0]))
    with pytest.raises(ValueError):
        space.creation(1, ExactMatrix.column([1, 0]))
    with pytest.raises(ValueError):
        space.left_actions(1, ExactMatrix.column([1, 0, 0, 0]), (0, space.depth))


def test_adjoint_is_an_involution():
    space = bipartite_space()
    s = space.creation(1, space.spec.families[1].take_cols([0]))
    assert s.adjoint().adjoint() == s
    t = space.creation(2, space.spec.families[2].take_cols([1]))
    combined = s @ t.adjoint() + scaled(t, I)
    assert combined.adjoint().adjoint() == combined


def test_creation_raises_degree_by_one():
    space = bipartite_space()
    s = space.creation(1, space.spec.families[1].take_cols([0]))
    assert all(dest[0] == src[0] + 1 for dest, src in s.blocks)
    assert degree_zero_part(s).is_zero()
    assert degree_zero_part(s @ s.adjoint()) == s @ s.adjoint()


def test_gauge_unitary_scales_creation_by_i():
    for space in (bipartite_space(), twisted_space()):
        u = gauge_unitary(space)
        assert u @ u.adjoint() == space.identity()
        s = space.creation(1, space.spec.families[1].take_cols([0]))
        assert u @ s @ u.adjoint() == scaled(s, I)
        t = space.creation(2, space.spec.families[2].take_cols([0]))
        assert u @ t @ u.adjoint() == scaled(t, I)


def test_cross_family_product_leaves_level_zero_remnant():
    # S* T vanishes wherever the source has passed through a genuine
    # balanced tensor; at the bottom the two embeddings overlap
    space = bipartite_space()
    s = space.creation(1, space.spec.families[1].take_cols([0]))
    t = space.creation(2, space.spec.families[2].take_cols([0]))
    product = s.adjoint() @ t
    assert product.window(1, space.depth).is_zero()
    _, (_, src) = product.first_failure(0, space.depth)
    assert src[0] == 0


def test_completeness_defect_sits_below_level_two():
    space = bipartite_space()
    total = FockOperator(space, (), {})
    for xi in space.spec.basis_U:
        s = space.creation(1, xi)
        total = total + s @ s.adjoint()
    for eta in space.spec.basis_V:
        t = space.creation(2, eta)
        total = total + t @ t.adjoint()
    defect = total - space.identity()
    assert defect.window(2, space.depth).is_zero()
    _, (_, src) = defect.first_failure(0, space.depth)
    assert src[0] == 0


def test_lift_rejects_non_descending_operators():
    space = twisted_space()
    h = space.summand((1, ()))
    raiser = ExactMatrix.identity(1).scattered([0], [1], (h.dim, h.dim))
    with pytest.raises(ValueError, match="descend"):
        space.lift(raiser)
    with pytest.raises(ValueError):
        space.lift(ExactMatrix.identity(2))


def test_lift_of_left_action_matches_tower_action():
    space = bipartite_space()
    h = space.summand((1, ()))
    b = ExactMatrix.identity(space.spec.algebra_B1.dim).take_cols([0])
    lifted = space.lift(h.left_B1.take((2,), 0))
    tower = space.left_actions(1, b, (0, space.depth))[0]
    diff = lifted - tower
    # they may only disagree on the coefficient level, where lift is zero
    assert diff.window(1, space.depth).is_zero()


def test_lifts_gather_all_members_at_once_on_a_coordinate_quotient(monkeypatch):
    # one gather per summand for the blocks and the null parts together,
    # however many operators are lifted, and each member is its own lift
    space = bipartite_space()
    h = space.summand((1, ()))
    ops = [batch.take((2,), c) for batch in (h.left_B1, h.left_B2) for c in range(2)]
    ops.append(ops[0] @ ops[3])
    gathers = []

    def counted(*args, _call=fock.kron_identity_entries):
        gathers.append(1)
        return _call(*args)

    monkeypatch.setattr(fock, "kron_identity_entries", counted)
    lifted = space.lifts(ExactMatrix.stack(ops, (len(ops),)))
    upper = [k for k in space.keys if k[0] >= 2]
    assert all(space.summand(k).express is None for k in upper)
    assert len(gathers) == len(upper)
    for i, L in enumerate(ops):
        assert lifted[i] == space.lift(L)


def test_apply_moves_vectors_up_one_level():
    space = bipartite_space()
    s = space.creation(1, space.spec.families[1].take_cols([0]))
    # every block of a creation maps a level-n summand into level n + 1,
    # and its adjoint maps back down
    assert s.blocks
    assert all(dest[0] == src[0] + 1 for dest, src in s.blocks)
    assert ((1, ()), (0, ())) in s.blocks
    assert {(src, dest) for dest, src in s.blocks} == set(s.adjoint().blocks)


def test_level_projections_resolve_identity():
    space = twisted_space()
    total = FockOperator(space, (), {})
    for n in range(space.depth + 1):
        total = total + space.projection(space.keys_at_level(n))
    assert total == space.identity()


# -- quotients: coordinate selections and elimination -----------------------


def _diagonal_stack(*diagonals):
    return GramStack(ExactMatrix.column(d).to_diagonal() for d in diagonals)


# ambient dim 6, read as 3 x 2 for x (x) I_2 and as 3 copies of 2 for
# I_3 (x) y; the cut Gram vanishes on the odd coordinates, which both
# Kronecker operators and the matrix below map into themselves
CUT = _diagonal_stack([1, 0, 2, 0, F(1, 2), 0], [3, 0, 0, 0, 1, 0])
DEFINITE = _diagonal_stack([2, F(1, 3), 5, -1, 1, 7], [0, 1, 0, 0, 0, GR(F(1, 2))])
X = ExactMatrix.from_rows([[1, GR(0, 2), 0], [F(1, 2), 3, -1], [0, 4, 5]])
Y = ExactMatrix.from_rows([[2, 0], [F(1, 3), GR(0, 1)]])
OP = ExactMatrix.from_rows([
    [1, 0, 2, 0, F(1, 2), 0],
    [5, 3, 0, 1, 0, GR(0, 1)],
    [0, 0, 4, 0, -1, 0],
    [7, 2, 0, F(2, 3), 1, 1],
    [GR(1, 1), 0, 0, 0, 6, 0],
    [0, 0, 1, 0, 0, 2],
])


def _batch(*mats):
    return ExactMatrix.stack(mats, (len(mats),))


def _from_ambient(stack):
    """The ambient space read as C^3 (x) C^2: left actions x (x) I_2 and
    right actions I_3 (x) y, given by their factors."""
    return fock.QuadSpace.from_ambient(
        stack, _diagonal_stack([1] * 6), None,
        _batch(X, X @ X), _batch(-X), _batch(Y), head=3, tail=2)


def _from_plain(stack):
    """The same ambient space with plain operators, one of them X (x) I_2
    formed by kron."""
    return fock.QuadSpace.from_ambient(
        stack, _diagonal_stack([1] * 6), None,
        _batch(X.kron(ExactMatrix.identity(2)), OP), None, _batch(OP @ OP))


@pytest.mark.parametrize("stack, dim", [(CUT, 3), (DEFINITE, 6)], ids=["cut", "definite"])
@pytest.mark.parametrize("build", [_from_ambient, _from_plain], ids=["factors", "plain"])
def test_coordinate_quotient_matches_elimination(monkeypatch, build, stack, dim):
    selected = build(stack)
    with monkeypatch.context() as m:
        m.setattr(fock, "_quotient", fock._eliminated_quotient)
        eliminated = build(stack)
    assert selected.express is None and eliminated.express is not None
    assert selected.dim == dim
    assert selected.degenerate == eliminated.degenerate == (dim < 6)
    assert selected.reps.tolist() == eliminated.reps.tolist()
    for field in ("gram_scalar", "gram_scalar_inv", "left_B1", "left_B2", "right_A"):
        assert getattr(selected, field) == getattr(eliminated, field), field
    for field in ("gram_A", "gram_B1"):
        assert getattr(selected, field).coords == getattr(eliminated, field).coords, field
    assert selected.right_B1 is eliminated.right_B1 is None
    # X (x) I_2 descends alike from its factor and formed
    assert (_from_ambient(stack).left_B1.take((2,), 0)
            == _from_plain(stack).left_B1.take((2,), 0))
    vectors = OP.take_cols([0, 3, 5])
    assert selected.coordinates(vectors) == eliminated.coordinates(vectors)
    for args in ((OP,), (X, 2), (Y, 3, False)):
        assert selected.coordinates(*args) == eliminated.coordinates(*args)
        assert selected.descend(*args) == eliminated.descend(*args)
    # batched operators descend member by member, in either form
    ops = [OP, OP @ OP, -OP]
    for space in (selected, eliminated):
        quotients, null_parts = space.descend(_batch(*ops))
        for i, op in enumerate(ops):
            assert (quotients.take((3,), i), null_parts.take((3,), i)) == space.descend(op)
    assert (selected.ambient(selected.left_B1.take((2,), 1))
            == eliminated.ambient(eliminated.left_B1.take((2,), 1)))
    # include is the column selection reps in both forms, and express the
    # coordinates: include @ L @ express read back on the quotient is L
    for space in (selected, eliminated):
        L = space.left_B1.take((2,), 0)
        assert space.descend(space.ambient(L))[0] == L


# the null space of FIRST is spanned by the coordinates (1, u) of C^2 (x) C^3
FIRST = ExactMatrix.column([1, 1, 1, 0, 0, 0]).to_diagonal()


@pytest.mark.parametrize("gram, ops, sizes, label", [
    # coordinate quotient: diagonal Gram, the null vector e_1 is sent to e_0
    (ExactMatrix.column([1, 0]).to_diagonal(),
     (_batch(ExactMatrix.from_rows([[0, 1], [0, 0]])), None, None), {}, "left_B1[0]"),
    # coordinate quotient: y (x) I_3 sends the null vector e_(1, 0) outside
    # the null space when y[0, 1] is nonzero
    (FIRST, (None, _batch(Y.H), None), {"tail": 3}, "left_B2[0]"),
    # the same, with y (x) I_3 preserving the null space ahead of it: the
    # first member that leaves it is named
    (FIRST, (None, _batch(Y, Y.H, Y.H), None), {"tail": 3}, "left_B2[1]"),
    # I_3 (x) y on the cut coordinates of CUT, read as C^3 (x) C^2
    (CUT.scalarized(), (None, None, _batch(Y.H)), {"head": 3}, "right_A[0]"),
    # elimination: the null vector (1, -1) is sent to (1, 0)
    (ExactMatrix.from_rows([[1, 1], [1, 1]]), (None, None, _batch(ExactMatrix.from_rows([[1, 0], [0, 0]]))),
     {}, "right_A[0]"),
], ids=["coordinate", "coordinate-kron", "coordinate-kron-later", "coordinate-kron-right",
        "elimination"])
def test_from_ambient_rejects_an_operator_leaving_the_null_space(gram, ops, sizes, label):
    message = f"{label} does not preserve the inner-product null space"
    with pytest.raises(ValueError, match=re.escape(message)):
        fock.QuadSpace.from_ambient(GramStack([gram]), None, None, *ops, **sizes)


def test_operator_lists_are_held_as_batches_and_never_stacked_again(monkeypatch):
    # each operator list of a summand is the one batch that from_ambient
    # descended: a tensor summand and a side family read it as it is, so a
    # build stacks only the spec's Grams and the lists of levels 0 and 1
    # (99 stacks when the lists were held as lists of matrices)
    calls, inside = Counter(), []
    stack = ExactMatrix.stack.__func__

    def counted(cls, mats, shape):
        calls[inside[-1] if inside else "build"] += 1
        return stack(cls, mats, shape)

    def entered(owner, name):
        call = getattr(owner, name)

        def spied(*args, **kwargs):
            inside.append(name)
            try:
                return call(*args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(owner, name, spied)

    monkeypatch.setattr(ExactMatrix, "stack", classmethod(counted))
    entered(fock, "relative_tensor")
    entered(FockSpace, "_side_family")
    space = build_fock(build_example_MN(2, 2), 4)
    for side in (1, 2):
        space.left_actions(side, ExactMatrix.identity(2), (0, space.depth))
    space.right_actions(ExactMatrix.identity(1), (0, space.depth))
    assert calls["relative_tensor"] == calls["_side_family"] == 0
    assert calls["build"] < 20
    for key in space.keys:
        summand = space.summand(key)
        for field, size in (("left_B1", 2), ("left_B2", 2), ("right_A", 1)):
            assert getattr(summand, field).batch_shape == (size,), (key, field)


def test_cut_summands_form_grams_on_reps_and_descend_each_list_once(monkeypatch, capsys):
    # ktheory mn:2,6 --depth 2 cuts both tensor summands (to 24 and 72 of
    # 144 coordinates): each forms its scalar Gram once on the ambient
    # space and its Gram stacks on reps x reps only, and from_ambient
    # descends each operator list as one batch, read by one gather
    tensors, seen, descents, gathers = [], [], [], []
    relative_tensor, from_ambient = fock.relative_tensor, fock.QuadSpace.from_ambient
    descend, init = fock.QuadSpace.descend, GramStack.__init__
    kron_sum = fock.kron_sum

    def tensor(h, tensor_type, w):
        seen.append({"stacks": [], "sums": []})
        space, defects = relative_tensor(h, tensor_type, w)
        tensors.append((seen.pop(), space))
        return space, defects

    def summed(lefts, rights):
        out = kron_sum(lefts, rights)
        if seen:
            seen[-1]["sums"].append(out)
        return out

    def stack(self, coords):
        init(self, coords)
        if seen:
            seen[-1]["stacks"].append(self.grams)

    def ambient(*args, **kwargs):
        descents.append([])
        space = from_ambient(*args, **kwargs)
        lists = [ops for ops in args[3:] + tuple(kwargs.values()) if isinstance(ops, ExactMatrix)]
        assert descents.pop() == [1] * len(lists)
        return space

    def descended(self, *args):
        gathers.append(0)
        out = descend(self, *args)
        count = gathers.pop()
        if descents:
            descents[-1].append(count)
        return out

    def counted(call):
        def gathered(*args):
            if gathers:
                gathers[-1] += 1
            return call(*args)
        return gathered

    monkeypatch.setattr(fock, "relative_tensor", tensor)
    monkeypatch.setattr(fock, "kron_sum", summed)
    monkeypatch.setattr(GramStack, "__init__", stack)
    monkeypatch.setattr(fock.QuadSpace, "from_ambient", ambient)
    monkeypatch.setattr(fock.QuadSpace, "descend", descended)
    monkeypatch.setattr(fock, "kron_identity_entries", counted(fock.kron_identity_entries))
    monkeypatch.setattr(ExactMatrix, "submatrix", counted(ExactMatrix.submatrix))
    code = cli.main(["ktheory", "--builtin", "mn:2,6", "--depth", "2"])
    capsys.readouterr()
    assert code == 0
    assert [(space.ambient_dim, space.dim) for _, space in tensors] == [(144, 24), (144, 72)]
    for found, space in tensors:
        [scalar] = found["sums"]
        assert (scalar.batch_shape, scalar.shape) == ((), (144, 144))
        assert len(found["stacks"]) == 3
        assert all(g.shape == (space.dim, space.dim) for g in found["stacks"])
