"""The package's public surface: ``__all__`` lists exactly the names that
``capalg/__init__.py`` imports, so a deleted export cannot linger in one
list; and importing the command line loads no module it does not need."""

import ast
import os
import subprocess
import sys
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


def test_importing_the_command_line_leaves_dataclasses_unloaded():
    # dataclasses pulls in inspect, ast, dis and tokenize: time every job pays
    src = str(Path(capalg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, capalg.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
