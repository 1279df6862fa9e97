"""The package namespace and the imports of its modules."""

import ast
from pathlib import Path

import polysphere


def test_every_exported_name_exists():
    """A re-export left behind by a deleted name fails here, not at import by a user."""
    missing = [name for name in polysphere.__all__ if not hasattr(polysphere, name)]
    assert missing == []
    assert len(set(polysphere.__all__)) == len(polysphere.__all__)


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    """``__init__`` imports only to re-export, so it is the one module left out."""
    src = Path(polysphere.__file__).parent
    unused = {
        path.name: _unused_imports(path)
        for path in sorted(src.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: found for name, found in unused.items() if found} == {}
