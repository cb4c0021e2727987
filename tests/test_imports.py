"""Every module-level import in the library and the tests is used.

A name bound by a module-level import must be read somewhere in its file.
Package ``__init__.py`` files, which import to re-export, and
``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list:
    """The names path's module-level imports bind that nothing in the file reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in bound.items() if name not in used]


def test_no_unused_module_level_imports():
    files = sorted((ROOT / "src" / "scvx").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = [u for path in files if path.name != "__init__.py" for u in unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)
