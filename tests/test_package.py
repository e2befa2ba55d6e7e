"""The package's public surface: ``__all__`` lists exactly the names that
``capalg/__init__.py`` imports, so a deleted export cannot linger in one list."""

import ast
from pathlib import Path

import capalg


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse(Path(capalg.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(capalg.__all__) == sorted(imported)
    assert len(set(capalg.__all__)) == len(capalg.__all__)
