import copy
import json
import sys
from collections import Counter
from importlib import resources

import jsonschema
import numpy as np
import pytest

from quadmod import cli, fock, linalg, relations, serialize
from quadmod.cli import CLIError, main, parse_cycles
from quadmod.fock import FockOperator, FockSpace, QuadSpace
from quadmod.linalg import ExactMatrix, GramStack
from quadmod.opalgebra import DiagonalOperatorModel
from quadmod.quadmodule import QuadModuleSpec, build_example_MN, build_example_alpha_beta
from quadmod.scalars import GaussianRational

from test_mutations import CATALOG


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_reuses_one_parser_with_a_fresh_namespace_per_call(monkeypatch, capsys):
    # the parser is built on the first call only, and each call's options,
    # subcommand and defaults land in a namespace of its own
    namespaces, builds = [], []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(cli, "run", lambda args: namespaces.append(args) or {"passed": True})
    monkeypatch.setattr(cli, "render_text", lambda report: "")
    try:
        assert main(["ktheory", "--builtin", "mn:2,2", "--depth", "2", "--seed", "3",
                     "--format", "json"]) == 0
        assert main(["validate", "--input", "spec.json"]) == 0
        assert main(["full", "--builtin", "mn:2,3"]) == 0
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert len(builds) == 1
    first, second, third = (vars(n) for n in namespaces)
    assert first == {"command": "ktheory", "builtin": "mn:2,2", "input": None, "depth": 2,
                     "format": "json", "output": None, "seed": 3}
    assert second == {"command": "validate", "builtin": None, "input": "spec.json",
                      "format": "text", "output": None}
    assert third == {"command": "full", "builtin": "mn:2,3", "input": None, "depth": None,
                     "format": "text", "output": None, "seed": None}


def report_schema():
    return json.loads(
        resources.files("quadmod").joinpath("report_schema.json").read_text())


def rotated_bipartite():
    """mn:2,2 with every action, Gram and generator conjugated by a rational
    unitary that mixes the first two coordinates: a valid module whose left
    actions are not diagonal in its basis."""
    spec = build_example_MN(2, 2)
    c, s = GaussianRational("3/5"), GaussianRational(0, "4/5")
    u = ExactMatrix.from_rows([[c, s, 0, 0], [s, c, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])

    def op(m):
        return u @ m @ u.H

    def stack(gram):
        return GramStack([op(g) for g in gram.coords])

    return QuadModuleSpec(
        spec.algebra_A, spec.algebra_B1, spec.algebra_B2, spec.dim,
        [op(m) for m in spec.right_B1], [op(m) for m in spec.right_B2],
        [op(m) for m in spec.left_B1], [op(m) for m in spec.left_B2],
        stack(spec.inner_A), stack(spec.inner_B1), stack(spec.inner_B2),
        spec.left_embed_1, spec.left_embed_2,
        spec.right_embed_1, spec.right_embed_2,
        [u @ v for v in spec.basis_U], [u @ v for v in spec.basis_V],
        name=spec.name,
    )


def test_validate_passes_on_the_bipartite_builtin(capsys):
    code, out, err = run_cli(capsys, "validate", "--builtin", "mn:2,3")
    assert code == 0
    assert err == ""
    assert "RESULT: pass" in out
    assert "ok   left-action-compatible" in out


def test_validate_flags_noncommuting_twists(capsys):
    code, out, _ = run_cli(
        capsys, "validate", "--builtin", "perm:3,(0 1 2),(0 1)")
    assert code == 1
    assert "FAIL left-action-compatible" in out
    assert "RESULT: fail" in out


def test_ktheory_renders_the_cyclic_group(capsys):
    code, out, _ = run_cli(capsys, "ktheory", "--builtin", "mn:2,4")
    assert code == 0
    assert "K0 = Z/15, K1 = 0" in out


def test_full_json_report_matches_the_schema(capsys):
    code, out, _ = run_cli(
        capsys, "full", "--builtin", "mn:2,2", "--format", "json",
        "--seed", "5")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, report_schema())
    assert report["format"] == "quadmod-report-v1"
    assert report["passed"] is True
    titles = [s["title"] for s in report["sections"]]
    assert titles == [
        "module validation",
        "tower construction (depth 3)",
        "operator identities",
        "matrix states",
        "k-theory",
    ]
    ktheory = report["sections"][-1]
    assert ktheory["groups"]["K0"] == {"freeRank": 0, "factors": [3]}
    assert any(c["id"] == "smith-self-check" for c in ktheory["checks"])


def test_reports_are_deterministic(capsys):
    first = run_cli(capsys, "full", "--builtin", "perm:2,(0 1),(0 1)",
                    "--format", "json")
    second = run_cli(capsys, "full", "--builtin", "perm:2,(0 1),(0 1)",
                     "--format", "json")
    assert first == second
    third = run_cli(capsys, "ck", "--builtin", "mn:2,2")
    fourth = run_cli(capsys, "ck", "--builtin", "mn:2,2")
    assert third == fourth


def test_output_goes_to_a_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run_cli(
        capsys, "validate", "--builtin", "mn:2,2", "--output", str(target))
    assert code == 0
    assert out == ""
    assert "RESULT: pass" in target.read_text()


def test_serialized_input_gets_the_two_isometry_section(tmp_path, capsys):
    spec = build_example_alpha_beta(3, [1, 2, 0], [2, 0, 1])
    path = tmp_path / "twisted.json"
    serialize.save(spec, path)
    code, out, _ = run_cli(capsys, "ck", "--input", str(path))
    assert code == 0
    assert "== two-isometry checks ==" in out
    assert "two-isometry-hom-u-second-twist" in out
    # the mismatched attributions stay out of the report
    assert "two-isometry-hom-u-first-twist" not in out


def test_paired_families_have_no_two_isometry_section(capsys):
    code, out, _ = run_cli(capsys, "ck", "--builtin", "mn:2,2")
    assert code == 0
    assert "two-isometry" not in out
    assert "amalgamated matrix:" in out
    assert "aperiodic: yes (exponent 2)" in out


def test_unusable_inputs_exit_with_two(capsys):
    cases = [
        ("validate", "--builtin", "mn:2"),
        ("validate", "--builtin", "mn:a,b"),
        ("validate", "--builtin", "ring:3"),
        ("validate", "--builtin", "perm:3,(0 1 9),(0 1)"),
        ("validate", "--builtin", "perm:3,(0 1,(0 1)"),
        ("fock", "--input", "/does/not/exist.json"),
        ("fock", "--builtin", "mn:0,2"),
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv


def test_a_point_repeated_within_one_cycle_is_named_as_such(capsys):
    code, out, err = run_cli(capsys, "full", "--builtin", "perm:3,(0 0 1),(0 1)")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: point 0 appears twice in cycle (0 0 1)"]


def test_an_unwritable_output_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "full", "--builtin", "perm:3,(0 1 2),(0 1)",
                             "--output", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")
    assert len(err.splitlines()) == 1
    assert not target.exists()


@pytest.mark.parametrize("raw", ["x", "0", "-3"])
def test_a_bad_budget_is_a_usage_error(monkeypatch, capsys, raw):
    # neither a tower too large nor a failed tower-construction check
    monkeypatch.setenv("QUADMOD_MAX_DIM", raw)
    for argv in (("ck", "--builtin", "mn:2,2"),
                 ("full", "--builtin", "mn:2,2", "--depth", "2", "--format", "json")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: QUADMOD_MAX_DIM "), argv
        assert len(err.splitlines()) == 1


def _unbuilt(*args):
    raise AssertionError("an oversized builtin was built")


@pytest.mark.parametrize("argv, sizes", [
    (("validate", "--builtin", "mn:30,30"), "dimension 960 (M*N = 900 plus M + N = 60)"),
    (("ktheory", "--builtin", "mn:30,30"), "dimension 960 (M*N = 900 plus M + N = 60)"),
    (("full", "--builtin", "perm:99999999999,(0 1),(0 1)"),
     "dimension 299999999997 (d = 99999999999 plus 2d = 199999999998)"),
], ids=["validate-mn", "ktheory-mn", "full-perm"])
def test_an_oversized_builtin_is_refused_before_it_is_built(monkeypatch, capsys, argv, sizes):
    # levels 0 and 1 alone exceed the budget, so no command can use the
    # module, and building it (or parsing the cycles of a huge
    # permutation) could exhaust memory
    for name in ("build_example_MN", "build_example_alpha_beta", "parse_cycles"):
        monkeypatch.setattr(cli, name, _unbuilt)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: builtin too large: levels 0 and 1 have {sizes}, which exceeds budget 600\n"


def test_the_builtin_size_check_reads_the_budget(monkeypatch, capsys):
    # mn:2,3 has 6 + 5 = 11 dimensions on levels 0 and 1
    monkeypatch.setenv("QUADMOD_MAX_DIM", "11")
    code, _, _ = run_cli(capsys, "validate", "--builtin", "mn:2,3")
    assert code == 0
    monkeypatch.setenv("QUADMOD_MAX_DIM", "10")
    code, out, err = run_cli(capsys, "validate", "--builtin", "mn:2,3")
    assert (code, out) == (2, "")
    assert "dimension 11" in err and "budget 10" in err
    monkeypatch.setenv("QUADMOD_MAX_DIM", "x")
    code, _, err = run_cli(capsys, "validate", "--builtin", "perm:3,(0 1 2),(0 1)")
    assert code == 2 and err.startswith("error: QUADMOD_MAX_DIM ")


def test_missing_source_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fock"])
    assert exc.value.code == 2


def test_malformed_spec_file_exits_with_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "quadmod-spec-v1"}')
    code, _, err = run_cli(capsys, "validate", "--input", str(path))
    assert code == 2
    assert "bad spec file" in err


@pytest.mark.parametrize("content, reason", [
    (b"\xff\xfe{}", "not UTF-8 text: "),
    ((b"[" * 100000) + (b"]" * 100000), "not valid JSON: nested too deeply"),
], ids=["not-utf8", "deeply-nested"])
def test_undecodable_or_deeply_nested_spec_files_are_usage_errors(tmp_path, capsys, content,
                                                                  reason):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    for command in ("validate", "full"):
        code, out, err = run_cli(capsys, command, "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: bad spec file {path}: {reason}")
        assert len(err.splitlines()) == 1


def test_cycle_parsing():
    assert parse_cycles(3, "") == [0, 1, 2]
    assert parse_cycles(3, "id") == [0, 1, 2]
    assert parse_cycles(3, "(0 1 2)") == [1, 2, 0]
    assert parse_cycles(3, "(0 2 1)") == [2, 0, 1]
    assert parse_cycles(4, "(0 1)(2 3)") == [1, 0, 3, 2]
    assert parse_cycles(4, "(1 3)") == [0, 3, 2, 1]
    with pytest.raises(CLIError, match="out of range"):
        parse_cycles(2, "(0 5)")
    with pytest.raises(CLIError, match="two cycles"):
        parse_cycles(3, "(0 1)(1 2)")
    with pytest.raises(CLIError, match="twice"):
        parse_cycles(3, "(0 1 0)")
    with pytest.raises(CLIError, match="at least two"):
        parse_cycles(3, "(0)")
    with pytest.raises(CLIError, match="bad permutation"):
        parse_cycles(3, "0 1 2")
    with pytest.raises(CLIError, match="non-integer"):
        parse_cycles(3, "(a b)")


def test_depth_flag_controls_the_tower(capsys):
    code, out, _ = run_cli(
        capsys, "fock", "--builtin", "mn:2,2", "--depth", "2")
    assert code == 0
    assert "tower construction (depth 2)" in out
    assert "level dims: 4 4 16" in out
    code, _, err = run_cli(
        capsys, "fock", "--builtin", "mn:2,2", "--depth", "1")
    assert code == 2
    assert "depth" in err


def test_depth_falls_back_when_the_budget_is_tight(monkeypatch, capsys):
    monkeypatch.setenv("QUADMOD_MAX_DIM", "200")
    code, out, _ = run_cli(capsys, "fock", "--builtin", "mn:2,3")
    assert code == 0
    assert "tower construction (depth 2)" in out
    monkeypatch.setenv("QUADMOD_MAX_DIM", "20")
    code, _, err = run_cli(capsys, "fock", "--builtin", "mn:2,3")
    assert code == 2
    assert "too large" in err


@pytest.mark.parametrize("command, failed", [
    ("fock", {"module-map-model"}),
    ("ck", {"ck-structure"}),
    ("ktheory", {"ktheory-assumptions"}),
    ("full", {"module-map-model", "ck-structure", "ktheory-assumptions"}),
])
def test_non_diagonal_left_actions_fail_a_check(tmp_path, capsys, command, failed):
    path = tmp_path / "rotated.json"
    serialize.save(rotated_bipartite(), path)
    code, out, err = run_cli(capsys, command, "--input", str(path),
                             "--depth", "2", "--format", "json")
    assert code == 1
    assert err == ""
    report = json.loads(out)
    jsonschema.validate(report, report_schema())
    assert {c["id"] for sec in report["sections"] for c in sec["checks"]
            if not c["passed"]} == failed


def test_one_full_run_builds_the_operator_model_once(monkeypatch, capsys):
    built = []
    init = DiagonalOperatorModel.__init__

    def counted(self, generators):
        built.append(generators.batch_shape[0])
        init(self, generators)

    monkeypatch.setattr(DiagonalOperatorModel, "__init__", counted)
    code, _, _ = run_cli(capsys, "full", "--builtin", "mn:2,2", "--depth", "2")
    assert code == 0
    assert built == [4]


# Linear combinations and diagonals that are one array operation each, and
# the tower build, whose coefficient level is diagonal families made whole.
ARRAY_ONLY = [
    (FockSpace, "left_actions"),
    (GramStack, "transform"),
    (DiagonalOperatorModel, "projection_patterns"),
    (cli, "build_fock"),
    (serialize, "matrix_from_json"),
]


@pytest.mark.parametrize("sizes, argv", [
    ((2, 2), ("full", "--depth", "3")),
    ((2, 6), ("ktheory", "--depth", "2")),
])
def test_linear_combinations_read_no_entries(tmp_path, monkeypatch, capsys, sizes, argv):
    inside, calls, reads = [], Counter(), Counter()
    for owner, name in ARRAY_ONLY:
        def spied(*args, _call=getattr(owner, name), _name=name):
            calls[_name] += 1
            inside.append(_name)
            try:
                return _call(*args)
            finally:
                inside.pop()
        monkeypatch.setattr(owner, name, spied)
    getitem = ExactMatrix.__getitem__

    def counted(self, key):
        reads.update(set(inside))
        return getitem(self, key)

    monkeypatch.setattr(ExactMatrix, "__getitem__", counted)
    # each tower builds one side family per operator list it combines
    families = {}
    side_family = FockSpace._side_family

    def recorded(self, ops):
        family = side_family(self, ops)
        families.setdefault((id(self), ops), set()).add(id(family))
        return family

    monkeypatch.setattr(FockSpace, "_side_family", recorded)
    # the builtin, read back from a file so that the loader runs too
    path = tmp_path / "module.json"
    serialize.save(build_example_MN(*sizes), path)
    code, _, _ = run_cli(capsys, argv[0], "--input", str(path), *argv[1:])
    assert code == 0
    expected = {name for _, name in ARRAY_ONLY}
    if argv[0] == "ktheory":
        expected.discard("left_actions")
    assert expected <= set(calls)
    assert not reads, f"entries read one by one: {dict(reads)}"
    assert all(len(ids) == 1 for ids in families.values())


# Kronecker-structured work that runs through linalg's Kronecker kernels.
KRON_FREE = [
    (fock, "_associativity_check"),
    (fock._BalancedStack, "scalarized"),
    (fock._BalancedStack, "restrict"),
    (fock, "relative_tensor"),
    (QuadSpace, "from_ambient"),
    (FockSpace, "creations"),
    (FockSpace, "lifts"),
    (relations, "_annihilation_expected"),
]


@pytest.mark.parametrize("builtin, options", [
    ("mn:2,2", ("--depth", "3")),
    ("perm:5,(0 1 2 3 4),(0 2 4 1 3)", ()),
])
def test_kronecker_products_form_no_krons(monkeypatch, capsys, builtin, options):
    inside, calls, krons = [], Counter(), Counter()
    for owner, name in KRON_FREE:
        def spied(*args, _call=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            inside.append(_name)
            try:
                return _call(*args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(owner, name, spied)
    kron = ExactMatrix.kron

    def counted_kron(self, other):
        krons.update(set(inside))
        return kron(self, other)

    monkeypatch.setattr(ExactMatrix, "kron", counted_kron)
    # products per pairs call, and the Grams stacked again inside one: a
    # GramStack holds its Grams as one batched matrix, stacked once when it
    # is built
    pairing, products, restacked = [], [], []
    pairs, matmul = GramStack.pairs, ExactMatrix.__matmul__
    stack, vstack = ExactMatrix.stack, ExactMatrix.vstack

    def counted_pairs(self, x, y):
        pairing.append(self)
        products.append(0)
        try:
            return pairs(self, x, y)
        finally:
            pairing.pop()

    def counted_matmul(self, other):
        if pairing:
            products[-1] += 1
        return matmul(self, other)

    def counted_stack(cls, mats, shape):
        if pairing:
            restacked.append("stack")
        return stack(mats, shape)

    def counted_vstack(mats):
        if pairing:
            restacked.append("vstack")
        return vstack(mats)

    monkeypatch.setattr(GramStack, "pairs", counted_pairs)
    monkeypatch.setattr(ExactMatrix, "__matmul__", counted_matmul)
    monkeypatch.setattr(ExactMatrix, "stack", classmethod(counted_stack))
    monkeypatch.setattr(ExactMatrix, "vstack", staticmethod(counted_vstack))
    code, _, _ = run_cli(capsys, "full", "--builtin", builtin, *options)
    assert code == 0
    assert set(calls) == {name for _, name in KRON_FREE}
    assert not krons, f"krons formed: {dict(krons)}"
    assert products and max(products) <= 2
    assert not restacked, f"Grams stacked inside pairs: {Counter(restacked)}"


@pytest.mark.parametrize("argv, eliminates", [
    (("--builtin", "mn:2,2", "--depth", "3"), False),
    (("--builtin", "perm:5,(0 1 2 3 4),(0 2 4 1 3)"), False),
    # a rotated module: its Gram and some tensor Grams are not diagonal
    (("--input", "rotated.json", "--depth", "3"), True),
], ids=["mn:2,2", "perm:5", "rotated"])
def test_diagonal_grams_take_the_coordinate_quotient(monkeypatch, capsys, tmp_path, argv,
                                                      eliminates):
    # every builtin Gram is diagonal, so every quotient is a coordinate
    # selection and QuadSpace.from_ambient eliminates nothing
    inside, calls = [], Counter()
    from_ambient = QuadSpace.from_ambient

    def spied(*args, **kwargs):
        calls["from_ambient"] += 1
        inside.append(1)
        try:
            return from_ambient(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(QuadSpace, "from_ambient", spied)
    for name in ("rref", "inverse"):
        def counted(self, _call=getattr(ExactMatrix, name), _name=name):
            if inside:
                calls[_name] += 1
            return _call(self)
        monkeypatch.setattr(ExactMatrix, name, counted)
    serialize.save(rotated_bipartite(), tmp_path / "rotated.json")
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(capsys, "full", *argv)
    assert code in (0, 1)
    assert calls["from_ambient"] > 0
    if eliminates:
        assert calls["rref"] > 0 and calls["inverse"] > 0
    else:
        assert not calls["rref"] and not calls["inverse"], dict(calls)


def corrupted_spec_file(tmp_path, path, value):
    """The bipartite module with one stored entry overwritten, as a file."""
    data = copy.deepcopy(serialize.spec_to_dict(build_example_MN(2, 2)))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    target = tmp_path / "corrupted.json"
    target.write_text(json.dumps(data))
    return target


def failed_report_checks(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 1
    assert err == ""
    report = json.loads(out)
    jsonschema.validate(report, report_schema())
    return {c["id"] for sec in report["sections"] for c in sec["checks"]
            if not c["passed"]}


# Rows whose corrupted right action breaks the balancing relations of the
# first tensor level; the others stop the tower before it is built.
UNBALANCED = {"right-action-not-multiplicative", "right-action-loses-unit"}


@pytest.mark.parametrize(
    "path,value,expected,tower_check",
    [row[1:] + ("tensor-balanced" if row[0] in UNBALANCED else "tower-construction",)
     for row in CATALOG],
    ids=[row[0] for row in CATALOG])
def test_a_tower_that_cannot_be_built_gets_a_report(tmp_path, capsys, path,
                                                    value, expected, tower_check):
    spec_file = corrupted_spec_file(tmp_path, path, value)
    failed = failed_report_checks(
        capsys, "full", "--input", str(spec_file), "--depth", "2")
    assert {expected, tower_check} <= failed


def test_fock_reports_a_tower_that_cannot_be_built(tmp_path, capsys):
    name, path, value, _ = CATALOG[0]
    assert name in UNBALANCED
    spec_file = corrupted_spec_file(tmp_path, path, value)
    code, out, err = run_cli(capsys, "fock", "--input", str(spec_file),
                             "--depth", "2", "--format", "json")
    assert (code, err) == (1, "")
    report = json.loads(out)
    jsonschema.validate(report, report_schema())
    # the failed check ends the report: no identity suite runs
    [tower] = report["sections"]
    assert tower["title"] == "tower construction"
    failed = [c for c in tower["checks"] if not c["passed"]]
    assert [c["id"] for c in failed] == ["tensor-balanced"]
    assert failed[0]["witness"] == "balancing defect at level 2, word (1,), basis 0"
    assert tower["checks"][-1] == failed[0]


@pytest.mark.parametrize("argv", [
    ("--builtin", "mn:2,2", "--depth", "2"),
    ("--builtin", "perm:3,(0 1 2),(0 2 1)"),
])
def test_one_full_run_adjoints_each_operator_once(monkeypatch, capsys, argv):
    # every operator passed in stays referenced, so no id is reused
    seen = []
    adjoint = FockOperator.adjoint

    def counted(self):
        seen.append(self)
        return adjoint(self)

    monkeypatch.setattr(FockOperator, "adjoint", counted)
    code, _, _ = run_cli(capsys, "full", *argv)
    assert code == 0
    assert max(Counter(id(op) for op in seen).values()) == 1


@pytest.mark.parametrize("argv", [
    ("--builtin", "mn:2,2", "--depth", "2"),
    ("--builtin", "perm:3,(0 1 2),(0 2 1)"),
])
def test_real_products_skip_the_complex_kernel(monkeypatch, capsys, argv):
    # one flag per operand handed to the complex arithmetic as two parts:
    # is its imaginary part zero?
    real = []
    bilinear = linalg._bilinear

    def counted(f, a, b, bound):
        real.extend(not x[1].any() for x in (a, b) if len(x) == 2)
        return bilinear(f, a, b, bound)

    monkeypatch.setattr(linalg, "_bilinear", counted)
    code, _, _ = run_cli(capsys, "full", *argv)
    assert code == 0
    assert real and not any(real)


def _has_complex_matrix(frame) -> bool:
    """Whether a local of frame is, or lists, a complex ExactMatrix."""
    return any(isinstance(m, ExactMatrix) and not m.is_real()
               for value in frame.f_locals.values()
               for m in (value if isinstance(value, (list, tuple)) else (value,)))


@pytest.mark.parametrize("argv", [
    ("--builtin", "mn:2,2", "--depth", "3"),
    ("--builtin", "perm:3,(0 1 2),(0 2 1)"),
])
def test_real_operands_hand_the_constructor_no_imaginary_part(monkeypatch, capsys, argv):
    # an all-zero imaginary part comes only from a reader of outside data or
    # from arithmetic on a complex operand; every other caller builds a real
    # result from its operands' parts, so the constructor never scans it
    readers = {"from_entries", "from_flat_entries"}
    stray = []
    init = ExactMatrix.__init__

    def watched(self, re, im=None, *args, **kwargs):
        if im is not None and not np.asarray(im).any():
            caller = sys._getframe(1)
            # a comprehension's frame: look at the function it runs in
            while caller.f_code.co_name.startswith("<"):
                caller = caller.f_back
            if caller.f_code.co_name not in readers and not _has_complex_matrix(caller):
                stray.append(f"{caller.f_code.co_filename}:{caller.f_lineno}")
        init(self, re, im, *args, **kwargs)

    monkeypatch.setattr(ExactMatrix, "__init__", watched)
    code, _, _ = run_cli(capsys, "full", *argv)
    assert code == 0
    assert not stray, "zero imaginary parts handed in at " + ", ".join(sorted(set(stray)))


@pytest.mark.parametrize("argv", [
    ("--builtin", "mn:2,2", "--depth", "3"),
    ("--builtin", "perm:5,(0 1 2 3 4),(0 2 4 1 3)"),
])
def test_identity_families_create_and_act_in_batches(monkeypatch, capsys, argv):
    # inside the identity suite every creation and lift belongs to one
    # batched family (creations, lifts), never to a per-member call of
    # creation or lift; side actions exist only as batched families
    inside, suites, strays = [], [], []
    suite = relations.full_identity_suite

    def watched(gens):
        suites.append(gens)
        inside.append(True)
        try:
            return suite(gens)
        finally:
            inside.pop()

    monkeypatch.setattr(cli, "full_identity_suite", watched)
    for name in ("creation", "lift"):
        def spied(self, *args, _call=getattr(FockSpace, name), _name=name):
            if inside:
                strays.append(_name)
            return _call(self, *args)

        monkeypatch.setattr(FockSpace, name, spied)
    code, _, _ = run_cli(capsys, "full", *argv)
    assert code == 0
    assert len(suites) == 1
    assert strays == [], f"per-member calls inside the identity suite: {Counter(strays)}"
