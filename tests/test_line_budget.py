"""The line budget: ``src/dcsp`` holds at most 1,800 lines, the ceiling
that ROADMAP.md sets for every change.  ``dcsp.__all__`` names every
public binding of the package.  No scope of ``tests/`` defines a name
twice.

    PYTHONPATH=src python3 tests/test_line_budget.py

prints what ROADMAP.md reports beside each line count: the size by file,
the split by kind (a docstring's inner blank lines count as docstring) and
the size of ``dcsp.__all__``, then the lines of ``tests/`` by file, which
have no ceiling, each with the test functions and test classes that
``ast`` finds in it (a parametrized test counts once).
"""

import ast
import types
from pathlib import Path

import dcsp

CEILING = 1800
TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "dcsp"


def sizes(root=SRC):
    """Lines per module under ``root``, as ``wc -l`` counts them."""
    return {path.relative_to(root).as_posix(): path.read_text().count("\n")
            for path in sorted(root.rglob("*.py"))}


def kinds():
    """The lines of ``src/dcsp`` split into code, docstring, comment and
    blank."""
    counts = dict(code=0, docstring=0, comment=0, blank=0)
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        doc = set()
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                    and ast.get_docstring(node)):
                doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        for number, line in enumerate(text.splitlines(), 1):
            counts["docstring" if number in doc else "blank" if not line.strip()
                   else "comment" if line.lstrip().startswith("#") else "code"] += 1
    return counts


def defined_tests(text):
    """``(functions, classes)``: the test functions (methods included)
    and test classes that pytest collects from a module ``text``."""
    tree = ast.parse(text)
    classes = [c for c in tree.body if isinstance(c, ast.ClassDef) and c.name.startswith("Test")]
    functions = [f for scope in (tree, *classes) for f in scope.body
                 if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and f.name.startswith("test")]
    return len(functions), len(classes)


def report():
    by_file, tests = sizes(), sizes(TESTS)
    counts = {name: defined_tests((TESTS / name).read_text()) for name in tests}
    return "\n".join([
        *(f"{n:5d} {name}" for name, n in by_file.items()),
        f"src/dcsp: {sum(by_file.values())} lines (ceiling {CEILING:,})",
        "src/dcsp by kind: " + ", ".join(f"{n} {kind}" for kind, n in kinds().items()),
        f"dcsp.__all__: {len(dcsp.__all__)} names",
        *(f"{n:5d} {name}  ({counts[name][0]} test functions, {counts[name][1]} test classes)"
          for name, n in tests.items()),
        f"tests: {sum(tests.values())} lines (no ceiling); "
        "{} test functions, {} test classes".format(*map(sum, zip(*counts.values()))),
    ])


def test_all_names_every_public_binding():
    # a stale name left in __all__ would break only `from dcsp import *`
    public = {name for name, value in vars(dcsp).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(dcsp.__all__) == sorted(public)
    namespace = {}
    exec("from dcsp import *", namespace)
    assert set(namespace) - {"__builtins__"} == public


def repeated_names(text):
    """``(scope, name)`` for each function or class name that a module or
    class body of ``text`` defines more than once; Python keeps only the
    last definition, so an earlier test of that name would never run."""
    repeats = []
    scopes = [("module", ast.parse(text))]
    for scope, node in scopes:
        seen = set()
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if child.name in seen:
                    repeats.append((scope, child.name))
                seen.add(child.name)
                if isinstance(child, ast.ClassDef):
                    scopes.append((child.name, child))
    return repeats


def test_src_dcsp_fits_the_line_budget():
    assert sum(sizes().values()) <= CEILING, report()


def test_no_test_scope_defines_a_name_twice():
    assert repeated_names("def a(): pass\nclass C:\n    def a(self): pass\n") == []
    assert repeated_names("class C:\n    def a(self): pass\n    def a(self): pass\n") == \
        [("C", "a")]
    found = {path.relative_to(TESTS).as_posix(): repeated_names(path.read_text())
             for path in sorted(TESTS.rglob("*.py"))}
    assert {path: names for path, names in found.items() if names} == {}


if __name__ == "__main__":
    print(report())
