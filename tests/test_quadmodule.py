import argparse

import pytest

from quadmod import linalg, quadmodule
from quadmod.algebras import AlgebraHom
from quadmod.cli import load_spec, validate_section
from quadmod.linalg import ExactMatrix
from quadmod.quadmodule import (
    InvalidParameter,
    LambdaNotFaithful,
    build_example_MN,
    build_example_alpha_beta,
)


def failing_ids(results):
    return [r.check_id for r in results if not r.passed]


def test_bipartite_2x2_satisfies_every_axiom():
    spec = build_example_MN(2, 2)
    results = spec.validate_axioms()
    assert failing_ids(results) == []
    seen = {r.check_id for r in results}
    # spot-check that the big groups are actually present
    for expected in [
        "action-rep-right-b1",
        "action-commute-left-b2-right-b1",
        "right-action-compatible",
        "left-action-compatible",
        "inner-positive-b2",
        "inner-right-twist-1",
        "left-adjointable-2-a",
        "left-faithful-a",
        "inner-full-a",
        "hom-left-embed-2",
    ]:
        assert expected in seen


def test_bipartite_2x3_finite_type_and_index_maps():
    spec = build_example_MN(2, 3)
    assert failing_ids(spec.validate_axioms()) == []
    assert failing_ids(spec.verify_finite_type()) == []

    maps = spec.derive_lambda()
    assert maps.lam1 == ExactMatrix.from_rows([[1, 1, 1]])
    assert maps.lam2 == ExactMatrix.from_rows([[1, 1]])
    assert failing_ids(maps.checks) == []

    assert failing_ids(spec.verify_strongly_finite_type()) == []

    family_u, family_v, checks = spec.derive_right_A_basis()
    assert family_u.shape == (6, 6) and family_v.shape == (6, 6)
    assert failing_ids(checks) == []


def test_bipartite_generating_family_is_orthonormal():
    spec = build_example_MN(2, 2)
    u0, u1 = spec.basis_U
    assert spec.inner_B1.pairs(u0, u0) == spec.algebra_B1.unit()
    assert spec.inner_B1.pairs(u0, u1) == ExactMatrix.zeros(2, 1)
    v0, v1 = spec.basis_V
    assert spec.inner_B2.pairs(v0, v0) == spec.algebra_B2.unit()
    assert spec.inner_B2.pairs(v1, v0) == ExactMatrix.zeros(2, 1)


def test_twisted_functions_commuting_cycles():
    # powers of a common 3-cycle commute, so the module closes up
    spec = build_example_alpha_beta(3, [1, 2, 0], [2, 0, 1])
    assert failing_ids(spec.validate_axioms()) == []
    assert failing_ids(spec.verify_finite_type()) == []

    maps = spec.derive_lambda()
    alpha = AlgebraHom.permutation(spec.algebra_B1, [1, 2, 0])
    beta = AlgebraHom.permutation(spec.algebra_B2, [2, 0, 1])
    # the first index map is the first twist itself, not its inverse
    assert maps.lam1 == alpha.matrix
    assert maps.lam2 == beta.matrix
    assert failing_ids(maps.checks) == []

    assert failing_ids(spec.verify_strongly_finite_type()) == []
    family_u, family_v, checks = spec.derive_right_A_basis()
    assert family_u.shape == (3, 3) and family_v.shape == (3, 3)
    assert failing_ids(checks) == []


def test_twisted_functions_identity_twists():
    spec = build_example_alpha_beta(2, [0, 1], [0, 1])
    assert failing_ids(spec.validate_axioms()) == []
    maps = spec.derive_lambda()
    assert maps.lam1 == ExactMatrix.identity(2)


def test_noncommuting_twists_fail_the_named_axioms():
    # a 3-cycle and a transposition do not commute; the construction still
    # builds, but the left actions of the two sides disagree about A
    spec = build_example_alpha_beta(3, [1, 2, 0], [1, 0, 2])
    bad = failing_ids(spec.validate_axioms())
    assert bad != []
    assert "left-action-compatible" in bad
    # everything in this family is diagonal, so commutation never breaks
    assert not any(b.startswith("action-commute") for b in bad)


def test_truncated_strong_family_fails():
    spec = build_example_MN(2, 2)
    short = ExactMatrix.identity(spec.algebra_B1.dim).take_cols([0])
    results = spec.verify_strongly_finite_type(basis_1=short)
    assert failing_ids(results) == ["strong-basis-b1"]
    short = ExactMatrix.identity(spec.algebra_B2.dim).take_cols([0])
    results = spec.verify_strongly_finite_type(basis_2=short)
    assert failing_ids(results) == ["strong-basis-b2"]


def test_lambda_not_faithful_when_family_degenerates():
    spec = build_example_MN(2, 2)
    spec.basis_V = ExactMatrix.zeros(1, 4, 1)
    with pytest.raises(LambdaNotFaithful):
        spec.derive_lambda()


def test_lambda_preimage_failure_is_detected():
    # a single indicator vector compresses to something outside the
    # embedded scalars
    spec = build_example_MN(2, 2)
    spec.basis_V = ExactMatrix.stack([ExactMatrix.column([1, 0, 0, 0])], (1,))
    with pytest.raises(LambdaNotFaithful, match="outside"):
        spec.derive_lambda()


def test_builder_parameter_validation():
    with pytest.raises(InvalidParameter):
        build_example_MN(0, 2)
    with pytest.raises(InvalidParameter):
        build_example_MN(2, -1)
    with pytest.raises(InvalidParameter):
        build_example_alpha_beta(0, [], [])
    with pytest.raises(InvalidParameter):
        build_example_alpha_beta(3, [0, 0, 1], [0, 1, 2])


@pytest.mark.parametrize("small, large", [
    ("perm:3,(0 1 2),(0 2 1)", "perm:6,(0 1 2 3 4 5),(0 2 4)(1 3 5)"),
    ("mn:2,2", "mn:3,3"),
])
def test_validation_makes_as_many_products_on_a_larger_module(monkeypatch, small, large):
    # every quantified check is one batched expression, so the number of
    # exact products does not grow with the grids; the pivots of a
    # positivity test are per coordinate by design and are not counted
    products, validating, positivity = [], [], []
    product, psd = linalg._product, quadmodule.hermitian_psd_check

    def counted_product(a, b):
        if validating and not positivity:
            products[-1] += 1
        return product(a, b)

    def counted_psd(g):
        positivity.append(g)
        try:
            return psd(g)
        finally:
            positivity.pop()

    monkeypatch.setattr(linalg, "_product", counted_product)
    monkeypatch.setattr(quadmodule, "hermitian_psd_check", counted_psd)
    for builtin in (small, large):
        spec, _ = load_spec(argparse.Namespace(input=None, builtin=builtin))
        products.append(0)
        validating.append(builtin)
        section = validate_section(spec)
        validating.pop()
        assert all(c["passed"] for c in section["checks"])
    assert products[0] == products[1] > 0


def test_validation_computes_each_familys_compressions_once(monkeypatch):
    # the finite type checks and the index maps read the same compressions
    # of the two generating families, so validation forms each one once
    calls = []
    compressions = quadmodule.compressions

    def counted(family, form, ops):
        calls.append(form)
        return compressions(family, form, ops)

    monkeypatch.setattr(quadmodule, "compressions", counted)
    spec = build_example_MN(2, 3)
    section = validate_section(spec)
    assert all(c["passed"] for c in section["checks"])
    assert calls == [spec.inner_B1, spec.inner_B2]
