"""Command line front end: build a module, run the checks, print a report.

Reports come out as plain text or as JSON (format tag "quadmod-report-v1",
schema shipped as report_schema.json next to this file).  Exit status is 0
when every check passed, 1 when at least one failed, 2 for unusable input.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys

from . import serialize
from .algebras import AlgebraHom
from .ck import (
    CKStructureError,
    build_ck_generators,
    column_amalgamation,
    is_aperiodic,
    verify_ck_relations,
    verify_two_isometry_relations,
)
from .fock import (BadBudget, DepthTooSmall, FockSpace, TooLarge, TowerDefect, build_fock,
                   dimension_budget)
from .ktheory import (
    AssumptionsViolated,
    FGAbelianGroup,
    determinant,
    int_matmul,
    k_groups,
    smith_normal_form,
)
from .opalgebra import NotDiagonalModel
from .quadmodule import (
    InvalidParameter,
    LambdaNotFaithful,
    QuadModuleSpec,
    build_example_MN,
    build_example_alpha_beta,
)
from .relations import GeneratorFamily, full_identity_suite, make_generators
from .report import CheckResult
from .serialize import SpecFormatError

FORMAT_TAG = "quadmod-report-v1"

_CYCLES_RE = re.compile(r"(?:\s*\([^()]*\))+\s*")


class CLIError(Exception):
    """Unusable command line input."""


# -- input parsing ---------------------------------------------------------


def _split_top_level(text: str) -> list:
    """Split on commas that sit outside parentheses."""
    parts = []
    current = []
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise CLIError(f"unbalanced parentheses in {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise CLIError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(current))
    return parts


def parse_cycles(d: int, token: str) -> list:
    """Read a permutation of range(d) from cycle notation.

    "(0 1 2)" maps 0 to 1, 1 to 2 and 2 to 0.  Several cycles may be
    juxtaposed, "id" or an empty token is the identity.
    """
    perm = list(range(d))
    token = token.strip()
    if token in ("", "id"):
        return perm
    if not _CYCLES_RE.fullmatch(token):
        raise CLIError(
            f"bad permutation {token!r}; write cycles like (0 1 2)(3 4) or id"
        )
    seen = set()
    for group in re.findall(r"\(([^()]*)\)", token):
        try:
            points = [int(p) for p in group.split()]
        except ValueError:
            raise CLIError(f"non-integer entry in cycle ({group})")
        if len(points) < 2:
            raise CLIError(f"cycle ({group}) needs at least two points")
        for i, p in enumerate(points):
            if not 0 <= p < d:
                raise CLIError(f"cycle point {p} is out of range for d={d}")
            if p in points[:i]:
                shown = " ".join(map(str, points))
                raise CLIError(f"point {p} appears twice in cycle ({shown})")
            if p in seen:
                raise CLIError(f"point {p} appears in two cycles")
        seen.update(points)
        for pos, image in zip(points, points[1:] + points[:1]):
            perm[pos] = image
    return perm


def _within_budget(total: int, sizes: str):
    """Refuse a builtin whose levels 0 and 1 alone, of dimension total,
    exceed the dimension budget: no tower over it can be built, and the
    module itself may not fit in memory."""
    try:
        budget = dimension_budget()
    except BadBudget as exc:
        raise CLIError(str(exc))
    if total > budget:
        raise CLIError(f"builtin too large: levels 0 and 1 have dimension {total} "
                       f"({sizes}), which exceeds budget {budget}")


def load_spec(args) -> tuple:
    """Build the module spec named by --builtin or --input.

    Returns (spec, perms) where perms is the (sigma, tau) pair for the
    permutation builtin and None otherwise. A builtin is sized before it
    is built (see _within_budget).
    """
    if args.input is not None:
        try:
            spec = serialize.load(args.input)
        except OSError as exc:
            raise CLIError(f"cannot read {args.input}: {exc}")
        except SpecFormatError as exc:
            raise CLIError(f"bad spec file {args.input}: {exc}")
        return spec, None

    kind, _, rest = args.builtin.partition(":")
    if kind == "mn":
        parts = rest.split(",")
        if len(parts) != 2:
            raise CLIError(f"expected mn:M,N, got {args.builtin!r}")
        try:
            m, n = int(parts[0]), int(parts[1])
        except ValueError:
            raise CLIError(f"expected integer sizes in {args.builtin!r}")
        if min(m, n) >= 1:
            _within_budget(m * n + m + n, f"M*N = {m * n} plus M + N = {m + n}")
        try:
            return build_example_MN(m, n), None
        except InvalidParameter as exc:
            raise CLIError(str(exc))
    if kind == "perm":
        parts = _split_top_level(rest)
        if len(parts) != 3:
            raise CLIError(
                f"expected perm:d,(cycles),(cycles), got {args.builtin!r}"
            )
        try:
            d = int(parts[0])
        except ValueError:
            raise CLIError(f"expected an integer dimension in {args.builtin!r}")
        if d < 1:
            raise CLIError("the permutation builtin needs d >= 1")
        _within_budget(3 * d, f"d = {d} plus 2d = {2 * d}")
        sigma = parse_cycles(d, parts[1])
        tau = parse_cycles(d, parts[2])
        try:
            return build_example_alpha_beta(d, sigma, tau), (sigma, tau)
        except InvalidParameter as exc:
            raise CLIError(str(exc))
    raise CLIError(
        f"unknown builtin kind {kind!r}; use mn:M,N or perm:d,(cycles),(cycles)"
    )


def build_space(spec: QuadModuleSpec, requested_depth) -> FockSpace:
    # an unreadable budget is a usage error, whatever the depth
    try:
        if requested_depth is not None:
            return build_fock(spec, requested_depth)
        try:
            return build_fock(spec, 3)
        except TooLarge:
            pass
        try:
            return build_fock(spec, 2)
        except TooLarge as exc:
            raise CLIError(f"module too large even at depth 2: {exc}")
    except (TooLarge, DepthTooSmall, BadBudget) as exc:
        raise CLIError(str(exc))


# -- report sections -------------------------------------------------------


def _section(title: str, checks: list, **extra) -> dict:
    body = {"title": title, "checks": [c.as_dict() for c in checks]}
    body.update(extra)
    return body


def validate_section(spec: QuadModuleSpec) -> dict:
    checks = list(spec.validate_axioms())
    checks += spec.verify_finite_type()
    try:
        maps = spec.derive_lambda()
        checks += maps.checks
        checks += spec.verify_strongly_finite_type()
        checks += spec.derive_right_A_basis()[2]
    except LambdaNotFaithful as exc:
        checks.append(CheckResult(
            "index-map-derivation",
            "the derived index matrices are nonnegative with no zero column",
            False,
            str(exc),
        ))
    return _section("module validation", checks)


def tower_section(space: FockSpace) -> dict:
    return _section(
        f"tower construction (depth {space.depth})",
        list(space.build_checks),
        levelDims=list(space.level_dims),
    )


def identity_section(gens: GeneratorFamily) -> dict:
    return _section("operator identities", full_identity_suite(gens))


def ck_section(gens: GeneratorFamily) -> dict:
    try:
        bundle = build_ck_generators(gens)
    except (CKStructureError, NotDiagonalModel) as exc:
        failed = CheckResult(
            "ck-structure",
            "every generator slice has a model projection as its support",
            False,
            str(exc),
        )
        return _section("matrix states", [failed])
    classes, reduced = column_amalgamation(bundle.matrix)
    primitive, exponent = is_aperiodic(reduced)
    return _section(
        "matrix states",
        verify_ck_relations(bundle),
        stateLabels=bundle.state_labels(),
        matrix=[list(row) for row in bundle.matrix],
        amalgamation={
            "classes": [list(c) for c in classes],
            "reduced": [list(row) for row in reduced],
        },
        aperiodic={"primitive": primitive, "exponent": exponent},
    )


def _derive_twists(space: FockSpace, perms) -> tuple | None:
    spec = space.spec
    alg = spec.algebra_A
    if perms is not None:
        sigma, tau = perms
        return (AlgebraHom.permutation(alg, sigma),
                AlgebraHom.permutation(alg, tau))
    if not (alg.dim == spec.algebra_B1.dim == spec.algebra_B2.dim):
        return None
    # the tower was built from these index maps, and the dims agree above
    first = AlgebraHom(alg, alg, space.lam1)
    second = AlgebraHom(alg, alg, space.lam2)
    if first.validate() or second.validate():
        return None
    return first, second


def two_isometry_section(gens: GeneratorFamily, perms) -> dict | None:
    """Checks for the singleton-generator case, when the two coefficient
    actions come from automorphisms we can recover."""
    if gens.S.shape != (1,) or gens.T.shape != (1,):
        return None
    twists = _derive_twists(gens.space, perms)
    if twists is None:
        return None
    return _section(
        "two-isometry checks",
        verify_two_isometry_relations(gens, twists[0], twists[1]),
    )


# Random matrices the seeded Smith-form self check factors.
SMITH_TRIALS = 25


def smith_trial_matrices(seed: int):
    """The random integer matrices, at most 6 x 6, that the Smith-form self
    check factors, frozen by seed."""
    rng = random.Random(seed)
    for _ in range(SMITH_TRIALS):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        yield [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]


def smith_self_check(seed: int) -> CheckResult:
    """Randomized invariants of the integer normal form, frozen by seed."""
    statement = ("random integer matrices factor as U D V with unimodular "
                 "U, V and a positive dividing diagonal")
    for trial, matrix in enumerate(smith_trial_matrices(seed)):
        form = smith_normal_form(matrix)
        ok = int_matmul(int_matmul(form.left, matrix), form.right) == form.diagonal
        ok = ok and abs(determinant(form.left)) == 1
        ok = ok and abs(determinant(form.right)) == 1
        entries = form.diag
        nonzero = [e for e in entries if e]
        ok = ok and entries[:len(nonzero)] == nonzero
        ok = ok and all(e > 0 for e in nonzero)
        ok = ok and all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
        if not ok:
            return CheckResult(
                "smith-self-check", statement, False,
                f"invariant failed on trial {trial} (seed {seed})",
            )
    return CheckResult("smith-self-check", statement, True)


def ktheory_section(gens: GeneratorFamily, seed=None) -> dict:
    try:
        result = k_groups(gens)
    except (AssumptionsViolated, NotDiagonalModel) as exc:
        failed = CheckResult(
            "ktheory-assumptions",
            "the generator compressions act on the model classes",
            False,
            str(exc),
        )
        return _section("k-theory", [failed])
    checks = list(result.reports)
    if seed is not None:
        checks.append(smith_self_check(seed))
    return _section(
        "k-theory",
        checks,
        classMatrix=[list(row) for row in result.class_matrix],
        groups={"K0": result.k0.as_dict(), "K1": result.k1.as_dict()},
    )


def assemble_report(spec: QuadModuleSpec, depth, sections: list) -> dict:
    passed = all(c["passed"] for sec in sections for c in sec["checks"])
    return {
        "format": FORMAT_TAG,
        "spec": {
            "name": spec.name,
            "dims": {
                "A": spec.algebra_A.dim,
                "B1": spec.algebra_B1.dim,
                "B2": spec.algebra_B2.dim,
                "H": spec.dim,
            },
        },
        "depth": depth,
        "passed": passed,
        "sections": sections,
    }


# -- rendering -------------------------------------------------------------


def _group_text(data: dict) -> str:
    return str(FGAbelianGroup(data["freeRank"], list(data["factors"])))


def _matrix_lines(matrix: list) -> list:
    return ["  " + " ".join(str(x) for x in row) for row in matrix]


def render_text(report: dict) -> str:
    dims = report["spec"]["dims"]
    lines = [
        "quadmod report: " + report["spec"]["name"],
        f"dims: A={dims['A']} B1={dims['B1']} B2={dims['B2']} H={dims['H']}",
    ]
    for section in report["sections"]:
        lines.append("")
        lines.append("== " + section["title"] + " ==")
        if "levelDims" in section:
            lines.append("level dims: "
                         + " ".join(str(n) for n in section["levelDims"]))
        for check in section["checks"]:
            mark = "ok  " if check["passed"] else "FAIL"
            window = ""
            if "window" in check:
                window = " [{}..{}]".format(*check["window"])
            witness = ""
            if not check["passed"] and check["witness"]:
                witness = " ({})".format(check["witness"])
            lines.append(f"{mark} {check['id']}{window}{witness}")
        if "stateLabels" in section:
            lines.append(f"states: {len(section['stateLabels'])}")
            for label in section["stateLabels"]:
                lines.append("  " + label)
        if "matrix" in section:
            lines.append("relation matrix:")
            lines += _matrix_lines(section["matrix"])
        if "amalgamation" in section:
            groups = section["amalgamation"]["classes"]
            lines.append("amalgamated columns: " + " ".join(
                "[" + " ".join(str(j) for j in cls) + "]" for cls in groups))
            lines.append("amalgamated matrix:")
            lines += _matrix_lines(section["amalgamation"]["reduced"])
        if "aperiodic" in section:
            info = section["aperiodic"]
            if info["primitive"]:
                lines.append(f"aperiodic: yes (exponent {info['exponent']})")
            else:
                lines.append("aperiodic: no")
        if "classMatrix" in section:
            lines.append("class matrix:")
            lines += _matrix_lines(section["classMatrix"])
        if "groups" in section:
            k0 = _group_text(section["groups"]["K0"])
            k1 = _group_text(section["groups"]["K1"])
            lines.append(f"K0 = {k0}, K1 = {k1}")
    lines.append("")
    lines.append("RESULT: " + ("pass" if report["passed"] else "fail"))
    return "\n".join(lines) + "\n"


# -- entry point -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadmod",
        description="exact checks for finite type modules over a pair of "
                    "commutative coefficient algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("validate", "check the module axioms and the finite type conditions"),
        ("fock", "build the truncated tensor tower and run the operator "
                 "identity suite"),
        ("ck", "slice the generators into matrix states and check their "
               "relations"),
        ("ktheory", "compute the class action matrix and the K-groups"),
        ("full", "run every stage"),
    )
    for name, help_text in commands:
        cmd = sub.add_parser(name, help=help_text)
        source = cmd.add_mutually_exclusive_group(required=True)
        source.add_argument(
            "--builtin", metavar="SPEC",
            help="mn:M,N for the bipartite module, or "
                 "perm:d,(cycles),(cycles) for the twisted function module",
        )
        source.add_argument(
            "--input", metavar="FILE",
            help="JSON module description (quadmod-spec-v1)",
        )
        if name != "validate":
            cmd.add_argument(
                "--depth", type=int, default=None,
                help="truncation depth (default: 3, falling back to 2 when "
                     "the tower would get too large)",
            )
        cmd.add_argument("--format", choices=("text", "json"), default="text")
        cmd.add_argument(
            "--output", metavar="FILE", default=None,
            help="write the report here instead of stdout",
        )
        if name in ("ktheory", "full"):
            cmd.add_argument(
                "--seed", type=int, default=None,
                help="also run a seeded random self check of the integer "
                     "normal form",
            )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every main call in the process, built on the first:
    parse_args keeps no state in it and returns a fresh namespace per call."""
    return build_parser()


def run(args) -> dict:
    spec, perms = load_spec(args)
    if args.command == "validate":
        return assemble_report(spec, None, [validate_section(spec)])
    sections = []
    if args.command == "full":
        sections.append(validate_section(spec))
    try:
        space = build_space(spec, args.depth)
    except TowerDefect as exc:
        # the checks made so far, the failed cross-check last, end the report
        sections.append(_section("tower construction", exc.checks))
        return assemble_report(spec, args.depth, sections)
    except ValueError as exc:
        # a tower that cannot be built fails one check and ends the report
        failed = CheckResult(
            "tower-construction",
            "the truncated tensor tower can be built over the module",
            False,
            str(exc),
        )
        sections.append(_section("tower construction", [failed]))
        return assemble_report(spec, args.depth, sections)
    gens = make_generators(space)
    sections.append(tower_section(space))
    if args.command in ("fock", "full"):
        sections.append(identity_section(gens))
    if args.command in ("ck", "full"):
        sections.append(ck_section(gens))
        extra = two_isometry_section(gens, perms)
        if extra is not None:
            sections.append(extra)
    if args.command in ("ktheory", "full"):
        sections.append(ktheory_section(gens, args.seed))
    return assemble_report(spec, space.depth, sections)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        report = run(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        payload = json.dumps(report, indent=1, sort_keys=True) + "\n"
    else:
        payload = render_text(report)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    return 0 if report["passed"] else 1
