"""Count the lines of each `covsize` module: total, code, docstring, comment
and blank.

A docstring line is any line of a module's, class's or function's
docstring, its blank lines and quotes included.  Of the other lines, a
comment line holds only a comment and a blank line only whitespace; every
other line is code, a trailing comment included.

Run from the repository root:
    python3 scripts/src_lines.py
    python3 scripts/src_lines.py path/to/src/covsize
"""

import argparse
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("total", "code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers (from 1) that the docstrings in `tree` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    """The line counts of one module, by kind."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        kind = ("docstring" if number in docs else "blank" if not stripped
                else "comment" if stripped.startswith("#") else "code")
        counts[kind] += 1
        counts["total"] += 1
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path, default=ROOT / "src" / "covsize",
                        help="the package directory (default: src/covsize)")
    args = parser.parse_args()
    rows = [(path.name, count(path)) for path in sorted(args.package.glob("*.py"))]
    rows.append(("all", {kind: sum(c[kind] for _, c in rows) for kind in KINDS}))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}" + "".join(f"{kind:>11}" for kind in KINDS))
    for name, counts in rows:
        print(f"{name:<{width}}" + "".join(f"{counts[kind]:>11}" for kind in KINDS))


if __name__ == "__main__":
    main()
