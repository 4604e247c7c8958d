"""Lint steps without a linter: no module imports a name it never uses,
the package defines no function, method or class that nothing names, and
no function of the package calls itself, directly or through others.

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


def call_cycles(sources):
    """The cycles of the call graph of ``sources`` (module name -> text), as
    sorted tuples of the qualified names in each strongly connected part.

    The graph holds each module's functions and its classes' methods.  A
    call of a bare name reaches the module function of that name, defined
    in the module or imported into it with a relative ``from`` import; a
    ``self.name`` call inside a class reaches that class's method.  Calls
    in nested functions and lambdas count for the enclosing definition.
    """
    calls = {}  # qualified name -> the names it calls
    for module, text in sources.items():
        tree = ast.parse(text)
        scope = {}  # bare name -> qualified name
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                scope[node.name] = f"{module}.{node.name}"
            elif isinstance(node, ast.ImportFrom) and node.level:
                scope.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                calls[scope[node.name]] = _callees(node, scope, {})
            elif isinstance(node, ast.ClassDef):
                methods = {
                    d.name: f"{module}.{node.name}.{d.name}" for d in node.body if isinstance(d, ast.FunctionDef)
                }
                for d in node.body:
                    if isinstance(d, ast.FunctionDef):
                        calls[methods[d.name]] = _callees(d, scope, methods)
    reach = {}
    for start in calls:
        seen, todo = set(), list(calls[start])
        while todo:
            name = todo.pop()
            if name in calls and name not in seen:
                seen.add(name)
                todo.extend(calls[name])
        reach[start] = seen
    return sorted(
        {tuple(sorted(m for m in reach[n] if n in reach[m])) for n in calls if n in reach[n]}
    )


def _callees(definition, scope, methods):
    out = set()
    for node in ast.walk(definition):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in scope:
            out.add(scope[f.id])
        elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "self":
            if f.attr in methods:
                out.add(methods[f.attr])
    return out


def test_the_scan_finds_call_cycles():
    a = (
        "from .b import helper\n"
        "def loop(n):\n    return loop(n - 1)\n"
        "def ping():\n    return helper()\n"
        "def leaf():\n    return len([])\n"
        "class P:\n"
        "    def one(self):\n        return self.two()\n"
        "    def two(self):\n        return [self.one() for _ in ()]\n"
        "    def three(self):\n        return leaf() or self.one()\n"
    )
    b = "from .a import ping\ndef helper():\n    return ping()\ndef other():\n    return helper()\n"
    assert call_cycles({"a": a, "b": b}) == [("a.P.one", "a.P.two"), ("a.loop",), ("a.ping", "b.helper")]


def test_no_recursion_in_the_package():
    # deep formulas and expressions must not run into the interpreter's
    # recursion limit, so every walk keeps an explicit stack
    assert call_cycles({p.stem: p.read_text() for p in PACKAGE}) == []
