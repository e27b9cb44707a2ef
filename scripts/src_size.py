#!/usr/bin/env python3
"""Print the size of each splitft module: lines and AST statements.

A statement is any ``ast.stmt`` node found by ``ast.walk``, so nested
statements (function bodies, branches) count too. Comments and
docstring lines count as lines only.

Usage:
    python scripts/src_size.py [package_dir]
"""

import ast
import sys
from pathlib import Path


def module_size(path: Path) -> tuple[int, int]:
    text = path.read_text()
    stmts = sum(isinstance(node, ast.stmt) for node in ast.walk(ast.parse(text)))
    return len(text.splitlines()), stmts


def main() -> None:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "splitft"
    rows = [(p.stem, *module_size(p)) for p in sorted(root.glob("*.py"))]
    width = max(len(name) for name, _, _ in rows + [("total", 0, 0)])
    print(f"{'module':<{width}}  {'lines':>6}  {'stmts':>6}")
    for name, lines, stmts in rows:
        print(f"{name:<{width}}  {lines:>6}  {stmts:>6}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>6}  {sum(r[2] for r in rows):>6}")


if __name__ == "__main__":
    main()
