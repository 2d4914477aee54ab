"""Every name a package module imports is read somewhere in that module,
and no package module imports another one's private (underscore) names.

A stdlib stand-in for a linter's unused-import and private-import rules.
``__init__.py`` is left out of the first: it imports names in order to
export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "monoidkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(PACKAGE.glob("*.py"))


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


def private_imports(source):
  """(line, name) for each underscore name imported from a package module."""
  return sorted(
      (node.lineno, alias.name) for node in ast.walk(ast.parse(source))
      if isinstance(node, ast.ImportFrom)
      and (node.level or (node.module or "").split(".")[0] == "monoidkit")
      for alias in node.names if alias.name.startswith("_"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
  assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
  source = ("from __future__ import annotations\n"
            "import os, random\nfrom json import dumps as d, loads\n"
            "print(os.sep, loads)\n")
  assert unused_imports(source) == [(2, "random"), (3, "d")]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_module_imports_no_private_name(path):
  assert private_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_private_import():
  source = ("from __future__ import annotations\n"
            "from ._private import open_name\n"
            "from .serre import _inverse, hom_quotient\n"
            "from monoidkit.asets import _equivariant_maps as search\n"
            "from os import _exit\n")
  assert private_imports(source) == [(3, "_inverse"),
                                     (4, "_equivariant_maps")]
