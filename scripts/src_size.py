#!/usr/bin/env python3
"""Print the size of each splitft module: lines and AST statements.

A statement is any ``ast.stmt`` node found by ``ast.walk``, so nested
statements (function bodies, branches) count too. Comments and
docstring lines count as lines only.

Given a second package dir (say a parent checkout's ``src/splitft``), it
prints each module's and the total's size there, the size here and the
change; a module missing on one side counts as 0 there.

Last it lists the package's top-level functions and classes that no file
under ``src/`` or ``scripts/`` of the package's repo names: helpers only
tests (or the benchmark) use. A use is an AST name or attribute, so a
mention in a comment or string does not count.

Usage:
    python scripts/src_size.py [package_dir [parent_package_dir]]
"""

import ast
import sys
from pathlib import Path


def module_size(path: Path) -> tuple[int, int]:
    text = path.read_text()
    stmts = sum(isinstance(node, ast.stmt) for node in ast.walk(ast.parse(text)))
    return len(text.splitlines()), stmts


def package_sizes(root: Path) -> dict[str, tuple[int, int]]:
    sizes = {p.stem: module_size(p) for p in sorted(root.glob("*.py"))}
    sizes["total"] = (sum(s[0] for s in sizes.values()), sum(s[1] for s in sizes.values()))
    return sizes


def unused_definitions(root: Path) -> list[str]:
    """``module.name`` of each top-level def or class of the package that no
    file under the repo's src/ or scripts/ uses."""
    repo = root.resolve().parent.parent
    used = set()
    for path in [*(repo / "src").rglob("*.py"), *(repo / "scripts").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [
        f"{path.stem}.{node.name}"
        for path in sorted(root.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name not in used
    ]


def main() -> None:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "splitft"
    sizes = package_sizes(root)
    width = max(len(name) for name in sizes)
    if len(sys.argv) < 3:
        print(f"{'module':<{width}}  {'lines':>6}  {'stmts':>6}")
        for name, (lines, stmts) in sizes.items():
            print(f"{name:<{width}}  {lines:>6}  {stmts:>6}")
    else:
        parent = package_sizes(Path(sys.argv[2]))
        names = sorted((set(sizes) | set(parent)) - {"total"}) + ["total"]
        width = max(len(name) for name in names)
        print(f"{'module':<{width}}  {'lines':>13}  {'delta':>6}  {'stmts':>13}  {'delta':>6}")
        for name in names:
            (a_lines, a_stmts), (b_lines, b_stmts) = parent.get(name, (0, 0)), sizes.get(name, (0, 0))
            print(f"{name:<{width}}  {f'{a_lines} -> {b_lines}':>13}  {b_lines - a_lines:>+6}  "
                  f"{f'{a_stmts} -> {b_stmts}':>13}  {b_stmts - a_stmts:>+6}")
    unused = unused_definitions(root)
    print(f"top-level names no file under src/ or scripts/ uses: {', '.join(unused) if unused else 'none'}")


if __name__ == "__main__":
    main()
