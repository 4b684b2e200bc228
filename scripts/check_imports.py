"""Flag module-level imports that a module never uses.

Usage: python scripts/check_imports.py PATH [PATH ...]

Each PATH is a Python file or a directory searched for ``*.py`` files. A
name bound by a top-level ``import`` or ``from ... import`` counts as used
when it appears anywhere in the module as a name (``x``, or ``x`` in
``x.attr``); a re-export through ``__all__`` is not recognised, and no
module of this repository has one. ``from __future__`` imports are
skipped. Prints one ``path:line: name`` line per unused import and exits
1 if there is any, else 0.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each top-level import the module does not use."""
    tree = ast.parse(source)
    bound: list[tuple[int, str]] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound.append((node.lineno, alias.asname or alias.name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def python_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for arg in paths:
        path = Path(arg)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    found = 0
    for path in python_files(argv):
        for line, name in unused_imports(path.read_text()):
            print(f"{path}:{line}: {name} imported but unused")
            found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
