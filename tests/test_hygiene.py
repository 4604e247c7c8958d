"""Lint steps without a linter: no module imports a name it never uses,
and the package defines no function, method or class that nothing names.

An import counts as used when the bound name occurs as a name anywhere in
the module or is listed in ``__all__``; ``from __future__`` imports are
directives, not names.  A definition counts as used when its name occurs
in the package, the tests or the benchmark outside the definition itself.
The scans read the sources with :mod:`ast` only.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "pltlbmc").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """Names bound by the imports of ``source`` that it never uses, as
    (line, name) pairs."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [(line, name) for line, name in imported if name not in used]


def test_the_scan_finds_unused_imports():
    source = "from __future__ import annotations\nimport os.path\nimport re\nfrom x import a, b as c\n__all__ = ['a']\nre.compile\n"
    assert unused_imports(source) == [(2, "os"), (4, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def dead_definitions(sources, package):
    """Functions, methods and classes defined in the ``package`` paths,
    dunders excepted, whose name occurs in none of ``sources`` outside
    their own definition, as (path, line, name) triples.

    ``sources`` maps each path to its text.  A name occurs where it is read
    as a name or an attribute, imported, or written as a string constant
    (``monkeypatch.setattr`` and ``__all__`` name things that way).
    """
    defs = []
    uses = {}  # name -> [(path, line), ...]
    for path, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if path in package and not node.name.startswith("__"):
                    defs.append((path, node.lineno, node.end_lineno, node.name))
                continue
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            uses.setdefault(name, []).append((path, node.lineno))
    return [
        (path, line, name)
        for path, line, end, name in defs
        if all(p == path and line <= n <= end for p, n in uses.get(name, ()))
    ]


def test_the_scan_finds_dead_definitions():
    package = (
        "def used():\n    pass\n"
        "def dead(n):\n    return dead(n - 1)\n"
        "class C:\n    def __init__(self):\n        pass\n"
        "    def named(self):\n        pass\n"
        "    def unnamed(self):\n        pass\n"
    )
    other = "from p import used\nsetattr(C, 'named', None)\n"
    assert dead_definitions({"p.py": package, "t.py": other}, {"p.py"}) == [
        ("p.py", 3, "dead"),
        ("p.py", 10, "unnamed"),
    ]


def test_no_dead_definitions():
    scanned = MODULES + sorted((ROOT / "perfbench").glob("*.py"))
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in scanned}
    package = {str(p.relative_to(ROOT)) for p in PACKAGE}
    assert dead_definitions(sources, package) == []
