"""No unused API: every function, method and class that the package
defines is referenced by name in the package or in the benchmark."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

from quadmod import cli, linalg

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "bench")
# where a reference counts as use: a name only the tests call is not used
# by the program (the benchmark names the functions it wraps in strings)
USERS = ("src", "bench")
_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parsed(top: str):
    for path in sorted((ROOT / top).rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _references(tree, strings: bool):
    """(name, line, module_local) for every use of a name in one file.

    A bare name only refers to a definition of the same module (other
    modules reach it through an import); attribute names and imported
    names may refer to any definition. So may the words of string literals
    when strings is true: the benchmark wraps functions named in strings,
    while a string in the package is a message, and a word of it ("the
    zero vector") names nothing. Docstrings are prose, not references."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module,) + _DEFINITION)
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, False
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno, False
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            for word in re.findall(r"\w+", node.value):
                yield word, node.lineno, False


def test_every_defined_name_is_referenced():
    uses = {}
    for top in USERS:
        for path, tree in _parsed(top):
            for name, line, local in _references(tree, top == "bench"):
                uses.setdefault(name, []).append((path, line, local))
    unused = []
    for home, tree in _parsed("src"):
        for node in ast.walk(tree):
            if not isinstance(node, _DEFINITION):
                continue
            name = node.name
            # the language calls dunder methods implicitly
            if name.startswith("__") and name.endswith("__"):
                continue
            # lines of the definition itself, body included, do not count
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                (path != home and not local) or (path == home and line not in own)
                for path, line, local in uses.get(name, ())
            ):
                unused.append(f"{home.name}:{node.lineno} {name}")
    assert not unused, "defined but never referenced: " + ", ".join(unused)


def _defaulted_parameters(path, node, call_name, shift):
    """(where, call name, parameter, position) for each defaulted parameter
    of one function; position counts the positional arguments of a call,
    after any bound self or cls, and is None for keyword-only parameters."""
    args = node.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    where = f"{path.name}:{node.lineno} {node.name}"
    for index, arg in enumerate(positional):
        if index >= first_default:
            yield where, call_name, arg.arg, index - shift
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield where, call_name, arg.arg, None


def _package_defaults():
    """Defaulted parameters of the package's top-level functions and methods.
    Nested functions are left out: they bind loop variables as defaults."""
    for path, tree in _parsed("src"):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield from _defaulted_parameters(path, node, node.name, 0)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    # calling the class runs its __init__
                    called = node.name if item.name == "__init__" else item.name
                    yield from _defaulted_parameters(path, item, called, 0 if static else 1)


def _call_sites():
    """Per called name: (positional count, star, keywords, double star)."""
    calls = {}
    for top in SEARCHED:
        for _, tree in _parsed(top):
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is None:
                    continue
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append(
                    (len(node.args), starred, keywords, None in keywords))
    return calls


def test_every_default_is_overridden_somewhere():
    # a default that no call overrides is a constant in disguise
    calls = _call_sites()
    unused = []
    for where, name, param, position in _package_defaults():
        if not any(
            param in keywords or double_star
            or (position is not None and (count > position or starred))
            for count, starred, keywords, double_star in calls.get(name, ())
        ):
            unused.append(f"{where}({param})")
    assert not unused, "defaults never overridden: " + ", ".join(unused)


def test_numerator_arrays_stay_private_to_linalg():
    # an array reaches an ExactMatrix only through its constructor, which
    # is what keeps the _real flag true to the imaginary part
    private = {"_re", "_im", "_den", "_real", "_peak", "_exact"}
    reads = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path, tree in _parsed("src")
        if path.name != "linalg.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in private
    ]
    assert not reads, "ExactMatrix internals read outside linalg: " + ", ".join(reads)


def _scoped_nodes(node, scope=()):
    """(qualified name of the enclosing definition, node) for every node
    under node, a definition counting as its own scope; a lambda belongs to
    the definition it sits in."""
    for child in ast.iter_child_nodes(node):
        inner = scope + (child.name,) if isinstance(child, _DEFINITION) else scope
        yield ".".join(inner), child
        yield from _scoped_nodes(child, inner)


def _scoped_calls(node):
    """(qualified name of the enclosing definition, call) for every call
    under node."""
    return ((scope, child) for scope, child in _scoped_nodes(node) if isinstance(child, ast.Call))


def _calls(node, name: str) -> bool:
    """Whether node calls a function or method of the given name."""
    func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
    return name in (getattr(func, "id", None), getattr(func, "attr", None))


def test_only_the_constructor_decides_how_a_real_matrix_is_stored():
    # an imaginary part of None is the one way to say "known real": no call
    # passes a realness flag, and only the constructor and zeros reach the
    # shared read-only zero, so a new structure flag has one place to live
    owners = {"ExactMatrix.__init__", "ExactMatrix.zeros"}
    stray = []
    for path, tree in _parsed("src"):
        for scope, call in _scoped_calls(tree):
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if any(k.arg == "_real" for k in call.keywords):
                stray.append(f"{path.name}:{call.lineno} {scope} passes _real=")
            if name == "_zero" and scope not in owners:
                stray.append(f"{path.name}:{call.lineno} {scope} calls _zero")
    assert not stray, "realness decided outside the constructor: " + ", ".join(stray)


def test_only_the_arithmetic_helpers_promote_to_big_integers():
    # int64-to-bigint promotion is decided in one place per kind of work:
    # bilinear kernels, sums, rescaling, normalisation and concatenation;
    # a kernel that called _common itself would state the rule again
    owners = {"_bilinear", "_sum", "_concatenated", "ExactMatrix._scaled_to",
              "ExactMatrix._normalize"}
    stray = []
    for path, tree in _parsed("src"):
        for scope, call in _scoped_calls(tree):
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "_common" and scope not in owners:
                stray.append(f"{path.name}:{call.lineno} {scope}")
    assert not stray, "promotion decided outside the helpers: " + ", ".join(stray)


def _scoped_names(node, scope=()):
    """(qualified name of the enclosing definition, name, line) for every
    name loaded or attribute read under node, calls and references alike."""
    for child in ast.iter_child_nodes(node):
        inner = scope + (child.name,) if isinstance(child, _DEFINITION) else scope
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            yield ".".join(inner), child.id, child.lineno
        elif isinstance(child, ast.Attribute):
            yield ".".join(inner), child.attr, child.lineno
        yield from _scoped_names(child, inner)


def test_only_the_exact_scan_and_the_gate_helper_read_peaks():
    # a matrix is scanned where a carried bound crosses a gate and nowhere
    # else: only the exact scan and rref's _peak_of scan numerators for a
    # peak, and only _gate_bound turns carried peaks into a bound a kernel
    # gates on
    readers = {
        "_max_abs": {"ExactMatrix._exact_peak", "_peak_of"},
        "_peak_abs": {"_gate_bound"},
        "_exact_peak": {"_gate_bound", "ExactMatrix._peak_abs"},
    }
    stray = [
        f"{path.name}:{line} {scope} reads {name}"
        for path, tree in _parsed("src")
        for scope, name, line in _scoped_names(tree)
        if name in readers and scope not in readers[name]
    ]
    assert not stray, "peaks read outside the scan and the gate helper: " + ", ".join(stray)


def _tracer_module():
    """bench/tracer.py, loaded without running the benchmark."""
    path = ROOT / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer_targets", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _tracer_targets():
    """(module, attribute path) of every function bench/tracer.py wraps,
    read from its target lists."""
    tracer = _tracer_module()
    rows = tracer.STAGES + tracer.OPERATORS + tracer.KERNELS + [tracer.TRUEDIV]
    return [(module, attr) for _, module, attr in rows]


@pytest.mark.parametrize("module, path", _tracer_targets())
def test_every_traced_target_is_defined_where_the_tracer_patches_it(module, path):
    # a method must sit in its owner class's own dict, not be inherited; a
    # plain name must be a module-level function of its module
    mod = importlib.import_module("quadmod." + module)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        owner = getattr(mod, owner_name)
        assert attr in vars(owner), f"{path} is not defined in {owner_name} itself"
        assert callable(getattr(owner, attr))
    else:
        assert callable(vars(mod).get(attr)), f"{module}.{attr} is not a module-level function"


def test_the_benchmark_tracer_sees_every_exact_product(monkeypatch, capsys):
    # every exact product runs inside ExactMatrix.__matmul__, which the
    # benchmark's tracer wraps, so its kernel counters cover batched work
    tracer = _tracer_module().Tracer()
    product, innermost = linalg._product, []

    def spied(a, b):
        # the innermost traced call open when the product runs
        innermost.append(tracer.stack[-1][0] if tracer.stack else None)
        return product(a, b)

    monkeypatch.setattr(linalg, "_product", spied)
    tracer.install()
    try:
        code = cli.main(["full", "--builtin", "mn:2,2", "--depth", "3"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    prefixes = {span[0]: span[1] for span in tracer.spans}
    assert innermost
    assert {prefixes.get(i) for i in innermost} == {"linalg.__matmul__"}


def test_only_lists_from_outside_the_package_are_stacked():
    # a family is made as one batch where it is made; ExactMatrix.stack
    # takes in, through as_batch alone, the lists a caller hands the package
    # (a spec's families, coordinate Grams, Kronecker factors) and joins
    # expressions that are distinct by construction into one family, and
    # nothing else is taken apart into a list only to be stacked again
    allowed = {
        "as_batch",
        "_lift_samples",
        "verify_module_map_identities",
    }
    stray = []
    for path, tree in _parsed("src"):
        for scope, call in _scoped_calls(tree):
            func = call.func
            if (isinstance(func, ast.Attribute) and func.attr == "stack"
                    and isinstance(func.value, ast.Name) and func.value.id == "ExactMatrix"
                    and scope not in allowed):
                stray.append(f"{path.name}:{call.lineno} {scope}")
    assert not stray, "families restacked from lists: " + ", ".join(stray)


def test_only_compressions_pairs_acted_columns():
    # the coefficient table <f_i | ops[c] f_j> is formed in one function: no
    # other hands acted_columns(...) to .pairs(...), directly or through a
    # name it binds to one
    stray = []
    for path, tree in _parsed("src"):
        nodes = list(_scoped_nodes(tree))
        acted = {(scope, target.id) for scope, node in nodes
                 if isinstance(node, ast.Assign) and _calls(node.value, "acted_columns")
                 for target in node.targets if isinstance(target, ast.Name)}
        for scope, node in nodes:
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "pairs"
                    and (path.name, scope) != ("quadmodule.py", "compressions")
                    and any(_calls(arg, "acted_columns")
                            or (isinstance(arg, ast.Name) and (scope, arg.id) in acted)
                            for arg in node.args)):
                stray.append(f"{path.name}:{node.lineno} {scope}")
    assert not stray, "acted columns paired outside compressions: " + ", ".join(stray)
