"""Count the code lines of the opplab package: lines that are neither blank, comments nor docstrings.

Usage:
  python3 scripts/code_lines.py [SRC_DIR]

SRC_DIR defaults to ``src/opplab`` of this repository.  Prints one line per
module (``name lines``), sorted by name, then ``total lines``.  A docstring
is the string-literal first statement of a module, class or function, and
every line it spans is left out; so is every line whose first non-blank
character is ``#``.  This is the code size that the simplicity entries of
ROADMAP.md and CHANGES.md quote.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings of ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of ``source`` that are neither blank, comments nor docstrings."""
    skip = docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if number not in skip and line.strip() and not line.lstrip().startswith("#")
    )


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else ROOT / "src" / "opplab"
    counts = {path.name: code_lines(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    for name, lines in counts.items():
        print(f"{name} {lines}")
    print(f"total {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
