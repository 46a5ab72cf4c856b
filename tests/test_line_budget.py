"""The line budget: ``src/dcsp`` holds at most 1,800 lines, the ceiling
that ROADMAP.md sets for every change.

    PYTHONPATH=src python3 tests/test_line_budget.py

prints what ROADMAP.md reports beside each line count: the size by file,
the split by kind (a docstring's inner blank lines count as docstring) and
the size of ``dcsp.__all__``.
"""

import ast
from pathlib import Path

import dcsp

CEILING = 1800
SRC = Path(__file__).resolve().parent.parent / "src" / "dcsp"


def sizes():
    """Lines per module of ``src/dcsp``, as ``wc -l`` counts them."""
    return {path.name: path.read_text().count("\n") for path in sorted(SRC.glob("*.py"))}


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


def report():
    by_file = sizes()
    return "\n".join([
        *(f"{n:5d} {name}" for name, n in by_file.items()),
        f"src/dcsp: {sum(by_file.values())} lines (ceiling {CEILING:,})",
        "src/dcsp by kind: " + ", ".join(f"{n} {kind}" for kind, n in kinds().items()),
        f"dcsp.__all__: {len(dcsp.__all__)} names",
    ])


def test_src_dcsp_fits_the_line_budget():
    assert sum(sizes().values()) <= CEILING, report()


if __name__ == "__main__":
    print(report())
