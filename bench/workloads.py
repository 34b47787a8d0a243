"""Workload jobs, seeded inputs and the output gate.

Each job takes a builtin module, relabels the basis of H by a permutation
drawn from the benchmark seed, and writes the result with quadmod.serialize.
The program sees only the --input file.  Relabelling leaves level dims,
K-groups, every check verdict and RESULT unchanged, so one pinned answer
per job holds for every seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

from quadmod import cli, serialize
from quadmod.quadmodule import QuadModuleSpec
from quadmod.linalg import GramStack


@dataclass(frozen=True)
class Job:
    name: str
    builtin: str
    argv: tuple    # command and options; "{seed}" is replaced by the seed


PERM_TWISTS = (
    "perm:3,(0 1 2),(0 2 1)",
    "perm:4,(0 1)(2 3),(0 2)(1 3)",
    "perm:5,(0 1 2 3 4),(0 2 4 1 3)",
    "perm:6,(0 1 2 3 4 5),(0 2 4)(1 3 5)",
)

WORKLOADS = {
    "tower_deep": [Job("mn22-d4", "mn:2,2", ("full", "--depth", "4"))],
    "ktheory_wide": [Job("mn26-d2", "mn:2,6",
                         ("ktheory", "--depth", "2", "--seed", "{seed}"))],
    "perm_small": [Job(f"perm{spec[5]}", spec, ("full",)) for spec in PERM_TWISTS],
}

# One short job per workload, on the same code path, for the smoke mode.
SMOKE = {
    "tower_deep": [Job("mn22-d3", "mn:2,2", ("full", "--depth", "3"))],
    "ktheory_wide": [Job("mn23-d2", "mn:2,3",
                         ("ktheory", "--depth", "2", "--seed", "{seed}"))],
    "perm_small": [WORKLOADS["perm_small"][0]],
}


# -- seeded inputs -----------------------------------------------------


def basis_permutation(dim: int, seed: int, job: str) -> list:
    """A seeded permutation of range(dim) that moves some point when dim > 1."""
    perm = list(range(dim))
    random.Random(f"{job}:{seed}").shuffle(perm)
    if dim > 1 and perm == sorted(perm):
        perm = perm[1:] + perm[:1]
    return perm


def relabel(spec: QuadModuleSpec, perm: list) -> QuadModuleSpec:
    """The same module with basis vector i of H renamed perm[i]."""
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i

    def op(m):
        return m.submatrix(inv, inv)

    def stack(s):
        return GramStack([op(g) for g in s.coords])

    return QuadModuleSpec(
        algebra_A=spec.algebra_A,
        algebra_B1=spec.algebra_B1,
        algebra_B2=spec.algebra_B2,
        dim=spec.dim,
        right_B1=[op(m) for m in spec.right_B1],
        right_B2=[op(m) for m in spec.right_B2],
        left_B1=[op(m) for m in spec.left_B1],
        left_B2=[op(m) for m in spec.left_B2],
        inner_A=stack(spec.inner_A),
        inner_B1=stack(spec.inner_B1),
        inner_B2=stack(spec.inner_B2),
        left_embed_1=spec.left_embed_1,
        left_embed_2=spec.left_embed_2,
        right_embed_1=spec.right_embed_1,
        right_embed_2=spec.right_embed_2,
        basis_U=[v.take_rows(inv) for v in spec.basis_U],
        basis_V=[v.take_rows(inv) for v in spec.basis_V],
        name=spec.name,
    )


def write_inputs(jobs, seed: int, directory: Path) -> list:
    """Write one relabelled spec per job; returns the argv of each job."""
    directory.mkdir(parents=True, exist_ok=True)
    argvs = []
    for job in jobs:
        spec, _ = cli.load_spec(argparse.Namespace(input=None, builtin=job.builtin))
        path = directory / f"{job.name}.json"
        serialize.save(relabel(spec, basis_permutation(spec.dim, seed, job.name)), path)
        argv = [a.replace("{seed}", str(seed)) for a in job.argv]
        argvs.append(argv[:1] + ["--input", str(path), "--format", "json"] + argv[1:])
    return argvs


# -- running one job ---------------------------------------------------


def run_job(argv: list) -> tuple:
    """Run the program in-process; returns (seconds, exit code, stdout, error)."""
    out = io.StringIO()
    err = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a raising job is a failed job, not a crash
        code = None
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if error is None and code not in (0, 1):
        error = f"exit code {code}: {err.getvalue().strip()}"
    return seconds, code, out.getvalue(), error


# -- the output gate ---------------------------------------------------


def answer_of(report: dict, code: int) -> dict:
    """The seed-independent part of a JSON report."""
    answer = {"exit": code, "result": "pass" if report["passed"] else "fail",
              "levelDims": None, "K0": None, "K1": None, "checks": []}
    for section in report["sections"]:
        if "levelDims" in section:
            answer["levelDims"] = section["levelDims"]
        if "groups" in section:
            answer["K0"] = section["groups"]["K0"]
            answer["K1"] = section["groups"]["K1"]
        for check in section["checks"]:
            answer["checks"].append([section["title"], check["id"], check["passed"]])
    return answer


def first_mismatch(answer: dict, pin: dict) -> str | None:
    for key in ("exit", "result", "levelDims", "K0", "K1"):
        if answer[key] != pin[key]:
            return f"{key}: got {answer[key]!r}, pinned {pin[key]!r}"
    got, want = answer["checks"], pin["checks"]
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"check {i}: got {g!r}, pinned {w!r}"
    if len(got) != len(want):
        return f"{len(got)} checks, pinned {len(want)}"
    return None


def determinant(rows: list) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def cuntz_krieger_mismatch(report: dict) -> str | None:
    """|K0| must equal |det(I - A)| for the class matrix A when K0 is finite."""
    for section in report["sections"]:
        if "classMatrix" not in section or "groups" not in section:
            continue
        a = section["classMatrix"]
        n = len(a)
        det = abs(determinant([[int(i == j) - a[i][j] for j in range(n)]
                               for i in range(n)]))
        k0 = section["groups"]["K0"]
        order = 1
        for f in k0["factors"]:
            order *= f
        if k0["freeRank"] == 0 and order != det:
            return f"|K0| = {order} but |det(I - A)| = {det}"
        if k0["freeRank"] > 0 and det != 0:
            return f"K0 has free rank {k0['freeRank']} but |det(I - A)| = {det}"
    return None


def check_job(name: str, code, stdout: str, error, pins: dict) -> str | None:
    """None when the job's output matches its pin, else the first mismatch."""
    if error is not None:
        return error
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    return (first_mismatch(answer_of(report, code), pins[name])
            or cuntz_krieger_mismatch(report))
