"""Every name a package module imports is read somewhere in that module,
no package module imports another one's private (underscore) names, every
module-level function and class is read somewhere in the package, and no
``tuple(...)`` call in ``src/`` takes a generator expression.

A stdlib stand-in for a linter's unused-import, private-import and
dead-code rules.  ``__init__.py`` is left out of the first: it imports
names in order to export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "monoidkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
SOURCES = sorted(PACKAGE.parent.rglob("*.py"))


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


# Names no package module reads, kept on purpose.
KEPT_UNREAD = {
    "brute_force_asets": "the raw-enumeration oracle the tests check the "
                         "structural corpora against",
    "close_under_subquotients": "the benchmark tracer wraps it by name",
    "orbit_decomposition": "orbits and stabilizers of a Γ₊-set, for the "
                           "Burnside-mark certificate",
    "coset_orbit_aset": "one orbit Γ/H, which the tests build Γ₊-sets "
                        "from; all_gamma_asets reads the same coset table",
    "kernel": "a construction of the paper's quasi-exact category",
    "cokernel": "a construction of the paper's quasi-exact category",
    "smash": "a construction of the paper's quasi-exact category",
    "point_aset": "the zero object of the paper's quasi-exact category",
}


def _bound(fn):
  """The names bound in the own scope of function or lambda ``fn``: its
  parameters and every name its body assigns, imports, defines or catches,
  less those it declares ``global``.  Nested function and class bodies are
  not entered; comprehension targets count as bound in ``fn``."""
  args = fn.args
  names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                           args.vararg, args.kwarg) if a}
  declared = set()
  todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
  while todo:
    node = todo.pop()
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
      names.add(node.id)
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)):
      names.add(node.name)
      continue
    elif isinstance(node, ast.Lambda):
      continue
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
      names.update(a.asname or a.name.split(".")[0] for a in node.names)
    elif isinstance(node, ast.ExceptHandler) and node.name:
      names.add(node.name)
    elif isinstance(node, ast.Global):
      declared.update(node.names)
    todo.extend(ast.iter_child_nodes(node))
  return names - declared


def _global_reads(tree):
  """The names ``tree`` loads where no enclosing function binds them: at
  module or class level, or in a function whose scope chain leaves the
  name to the module."""
  read = set()
  todo = [(tree, frozenset())]
  while todo:
    node, local = todo.pop()
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
      # decorators and defaults are read in the enclosing scope
      outer = [*getattr(node, "decorator_list", ()), *node.args.defaults,
               *(d for d in node.args.kw_defaults if d)]
      todo += [(child, local) for child in outer]
      inner = local | _bound(node)
      body = node.body if isinstance(node.body, list) else [node.body]
      todo += [(child, inner) for child in body]
      continue
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
       and node.id not in local:
      read.add(node.id)
    todo += [(child, local) for child in ast.iter_child_nodes(node)]
  return read


def unread_definitions(sources):
  """(module, name) for each module-level function or class of ``sources``
  (module name to source) that no module reads: as a loaded name, as an
  attribute or as an imported name, ``__init__``'s exports included.

  Reads are scope-aware: a name that an enclosing function binds (a
  parameter or an assignment) is that function's local, so a function
  whose only reader is a variable called like it (``kernel`` in ``serre``
  is one) is flagged.
  """
  trees = {module: ast.parse(source) for module, source in sources.items()}
  read = set()
  for tree in trees.values():
    read |= _global_reads(tree)
    for node in ast.walk(tree):
      if isinstance(node, ast.Attribute):
        read.add(node.attr)
      elif isinstance(node, ast.ImportFrom):
        read.update(alias.name for alias in node.names)
  return sorted((module, node.name) for module, tree in trees.items()
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name not in read)


def test_every_definition_is_read_in_the_package():
  sources = {p.stem: p.read_text(encoding="utf-8") for p in ALL_MODULES}
  unread = unread_definitions(sources)
  assert [name for _, name in unread if name not in KEPT_UNREAD] == []
  # an exception that gains a reader, or goes, leaves the list
  assert sorted(name for _, name in unread) == sorted(KEPT_UNREAD)


def test_the_check_sees_an_unread_definition():
  sources = {
      "a": ("import b\nfrom .c import used_by_import\n"
            "def dead(): pass\ndef called(): pass\n"
            "class Unread: pass\nclass Read: pass\n"
            "def shadowed(): pass\n"
            "def f():\n  called(); b.attribute_read; Read\n"
            "  shadowed = 1\n  return shadowed\n"),
      "b": "def attribute_read(): pass\ndef only_stored(): pass\n"
           "only_stored = None\n",
      "c": "def used_by_import(): pass\n",
  }
  # ``shadowed`` is read only as f's local variable, so it is unread
  assert unread_definitions(sources) == [
      ("a", "Unread"), ("a", "dead"), ("a", "f"), ("a", "shadowed"),
      ("b", "only_stored")]


def test_the_check_reads_names_by_scope():
  source = ("def param(): pass\ndef outer(): pass\ndef inner(): pass\n"
            "def in_default(): pass\ndef in_lambda(): pass\n"
            "def module_read(): pass\ndef global_read(): pass\n"
            "def g(param, y=in_default()):\n  return param\n"
            "def h():\n  outer = 1\n  def k():\n    return outer, inner\n"
            "  return k, lambda inner: inner, lambda: in_lambda\n"
            "def m():\n  global global_read\n  global_read = 2\n"
            "  return global_read, module_read\n"
            "g, h, m\n")
  # a parameter and an enclosing function's local hide the definition; a
  # default, a lambda's free name and a ``global`` name read it
  assert unread_definitions({"a": source}) == [("a", "outer"), ("a", "param")]


def tuple_generator_calls(source):
  """Line of each ``tuple(<generator expression>)`` call in ``source``.

  A generator has no length, so CPython sizes such a tuple by guessing and
  shrinks it at the end: it is allocated at one size and freed at another,
  and over a long run the tuple free lists fill up.  ``tuple([...])``
  builds the list first and allocates the tuple once, at its size.
  """
  return sorted(
      node.lineno for node in ast.walk(ast.parse(source))
      if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
      and node.func.id == "tuple" and len(node.args) == 1
      and isinstance(node.args[0], ast.GeneratorExp))


def test_no_tuple_call_takes_a_generator():
  found = [f"{path.relative_to(PACKAGE.parent.parent)}:{line}"
           for path in SOURCES
           for line in tuple_generator_calls(path.read_text(encoding="utf-8"))]
  assert found == [], f"tuple(<generator>) at {', '.join(found)}"


def test_the_check_sees_a_tuple_of_a_generator():
  source = ("a = tuple(x for x in range(3))\n"
            "b = tuple([x for x in range(3)])\n"
            "c = tuple(sorted(x for x in range(3)))\n"
            "d = (tuple(\n  y for y in a), list(x for x in b))\n")
  assert tuple_generator_calls(source) == [1, 4]
