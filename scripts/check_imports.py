"""Flag imports that a module or a function never uses.

Usage: python scripts/check_imports.py PATH [PATH ...]

Each PATH is a Python file or a directory searched for ``*.py`` files. A
name bound by an ``import`` or ``from ... import`` counts as used when it
appears as a name (``x``, or ``x`` in ``x.attr``): anywhere in the module
for a top-level import, anywhere in the function for an import inside a
function body. A re-export through ``__all__`` is not recognised, and no
module of this repository has one. ``from __future__`` imports are
skipped. Prints one ``path:line: name`` line per unused import and exits
1 if there is any, else 0.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _bound(node: ast.stmt) -> list[tuple[int, str]]:
    """(line, name) of each name an import statement binds."""
    if isinstance(node, ast.Import):
        # ``import a.b`` binds ``a``
        return [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [(node.lineno, alias.asname or alias.name) for alias in node.names
                if alias.name != "*"]
    return []


def _function_imports(function: ast.AST):
    """The import statements of a function body, at any depth of its
    blocks, leaving out nested functions and classes."""
    todo = list(ast.iter_child_nodes(function))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _unused(scope: ast.AST, imports) -> list[tuple[int, str]]:
    used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
    return [(line, name) for node in imports for line, name in _bound(node)
            if name not in used]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each top-level import the module does not use and
    each function-level import its function does not use."""
    tree = ast.parse(source)
    found = _unused(tree, tree.body)
    for node in ast.walk(tree):
        if isinstance(node, FUNCTIONS):
            found += _unused(node, _function_imports(node))
    return sorted(found)


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
