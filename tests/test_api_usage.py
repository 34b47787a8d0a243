"""No unused API: every function, method and class that the package
defines is referenced by name somewhere in the project."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "bench")
_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parsed(top: str):
    for path in sorted((ROOT / top).rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _references(tree):
    """(name, line, module_local) for every use of a name in one file.

    A bare name only refers to a definition of the same module (other
    modules reach it through an import); attribute names, imported names
    and the words of string literals (the benchmark wraps functions named
    in strings) may refer to any definition. Docstrings are prose, not
    references."""
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
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            for word in re.findall(r"\w+", node.value):
                yield word, node.lineno, False


def test_every_defined_name_is_referenced():
    uses = {}
    for top in SEARCHED:
        for path, tree in _parsed(top):
            for name, line, local in _references(tree):
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
