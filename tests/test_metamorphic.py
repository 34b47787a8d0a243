"""Metamorphic checks: renaming the module basis, rescaling it by rational
weights, or conjugating both twists of a permutation module by one
permutation, yields an isomorphic module, so every verdict and both
K-groups must stay the same."""

import argparse
import json
from fractions import Fraction

import pytest

from quadmod import cli, serialize
from quadmod.cli import main
from quadmod.linalg import ExactMatrix, GramStack
from quadmod.quadmodule import QuadModuleSpec, build_example_MN


def full_report(capsys, *argv) -> dict:
    code = main(["full", *argv, "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == (0 if report["passed"] else 1)
    return report


def verdicts(report: dict) -> tuple:
    """Every (section, check id, verdict) of a report, and its K-groups."""
    checks = [(sec["title"], c["id"], c["passed"])
              for sec in report["sections"] for c in sec["checks"]]
    [groups] = [sec["groups"] for sec in report["sections"] if "groups" in sec]
    return checks, groups


def relabelled(spec: QuadModuleSpec, perm: list) -> QuadModuleSpec:
    """The same module with basis vector i of H renamed perm[i]."""
    inverse = [perm.index(r) for r in range(spec.dim)]
    # P e_i = e_perm[i]; coordinates, operators and Grams move with P
    p = ExactMatrix.identity(spec.dim).take_rows(inverse)

    def op(m):
        return p @ m @ p.T

    def stack(gram):
        return GramStack([op(g) for g in gram.coords])

    return QuadModuleSpec(
        spec.algebra_A, spec.algebra_B1, spec.algebra_B2, spec.dim,
        [op(m) for m in spec.right_B1], [op(m) for m in spec.right_B2],
        [op(m) for m in spec.left_B1], [op(m) for m in spec.left_B2],
        stack(spec.inner_A), stack(spec.inner_B1), stack(spec.inner_B2),
        spec.left_embed_1, spec.left_embed_2,
        spec.right_embed_1, spec.right_embed_2,
        [p @ v for v in spec.basis_U], [p @ v for v in spec.basis_V],
        name=spec.name,
    )


def test_relabelling_the_basis_keeps_every_verdict(tmp_path, capsys):
    path = tmp_path / "relabelled.json"
    serialize.save(relabelled(build_example_MN(2, 3), [4, 0, 5, 2, 1, 3]), path)
    original = verdicts(full_report(capsys, "--builtin", "mn:2,3"))
    assert verdicts(full_report(capsys, "--input", str(path))) == original
    assert original[1]["K0"] == {"freeRank": 0, "factors": [8]}


def rescaled(spec: QuadModuleSpec, weights: list) -> QuadModuleSpec:
    """The same module in the basis w_i e_i, the weights cycled over the
    basis: with D = diag(w), coordinates become D^-1 x, operators
    D^-1 L D and each coordinate Gram D^H G D."""
    w = [weights[i % len(weights)] for i in range(spec.dim)]
    d = ExactMatrix.column(w).to_diagonal()
    d_inv = ExactMatrix.column([1 / x for x in w]).to_diagonal()

    def op(m):
        return d_inv @ m @ d

    def stack(gram):
        return GramStack([d @ g @ d for g in gram.coords])

    return QuadModuleSpec(
        spec.algebra_A, spec.algebra_B1, spec.algebra_B2, spec.dim,
        [op(m) for m in spec.right_B1], [op(m) for m in spec.right_B2],
        [op(m) for m in spec.left_B1], [op(m) for m in spec.left_B2],
        stack(spec.inner_A), stack(spec.inner_B1), stack(spec.inner_B2),
        spec.left_embed_1, spec.left_embed_2,
        spec.right_embed_1, spec.right_embed_2,
        [d_inv @ v for v in spec.basis_U], [d_inv @ v for v in spec.basis_V],
        name=spec.name,
    )


# coprime numerators and denominators up to 40
WEIGHTS = [Fraction(8, 19), Fraction(35, 9), Fraction(8, 13), Fraction(31, 38), Fraction(5, 7)]


@pytest.mark.parametrize("builtin, options", [
    ("mn:2,2", ("--depth", "3")),
    ("perm:4,(0 1)(2 3),(0 2)(1 3)", ()),
], ids=["mn:2,2", "perm:4"])
def test_rational_weights_keep_every_verdict(tmp_path, capsys, builtin, options):
    # the rescaled Grams hold entries other than 0 and 1, so the tower's
    # Gram stacks and quotients run on fractions end to end
    spec, _ = cli.load_spec(argparse.Namespace(input=None, builtin=builtin))
    weighted = rescaled(spec, WEIGHTS)
    assert not all(g.zero_one_diagonals()[0] for g in weighted.inner_A.coords)
    reports = []
    for name, module in (("plain", spec), ("weighted", weighted)):
        path = tmp_path / f"{name}.json"
        serialize.save(module, path)
        reports.append(verdicts(full_report(capsys, "--input", str(path), *options)))
    assert reports[1] == reports[0]
    assert all(passed for _, _, passed in reports[0][0])


def conjugated(cycles: str, pi: list) -> str:
    """Cycle notation of pi sigma pi^-1: each point p becomes pi[p]."""
    return "".join("(" + " ".join(str(pi[int(p)]) for p in group.split()) + ")"
                   for group in cycles.strip("()").split(")("))


@pytest.mark.parametrize("d, sigma, tau, pi, k0", [
    (4, "(0 1 2 3)", "(0 2)(1 3)", [0, 2, 3, 1], [5]),
    (5, "(0 1 2 3 4)", "(0 2 4 1 3)", [3, 0, 4, 1, 2], [11]),
])
def test_conjugating_both_twists_keeps_every_verdict(capsys, d, sigma, tau, pi, k0):
    original = verdicts(full_report(capsys, "--builtin", f"perm:{d},{sigma},{tau}"))
    twin = f"perm:{d},{conjugated(sigma, pi)},{conjugated(tau, pi)}"
    assert twin != f"perm:{d},{sigma},{tau}"
    assert verdicts(full_report(capsys, "--builtin", twin)) == original
    assert original[1]["K0"] == {"freeRank": 0, "factors": k0}
