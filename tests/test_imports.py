"""Every name a package module imports is read somewhere in that module.

A stdlib stand-in for a linter's unused-import rule.  ``__init__.py`` is left
out: it imports names in order to export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "monoidkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
  tree = ast.parse(source)
  imported = {}
  for node in ast.walk(tree):
    if isinstance(node, ast.Import):
      for alias in node.names:
        imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
      for alias in node.names:
        imported[alias.asname or alias.name] = node.lineno
  read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
  return sorted((line, name) for name, line in imported.items()
                if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
  assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
  source = ("from __future__ import annotations\n"
            "import os, random\nfrom json import dumps as d, loads\n"
            "print(os.sep, loads)\n")
  assert unused_imports(source) == [(2, "random"), (3, "d")]
