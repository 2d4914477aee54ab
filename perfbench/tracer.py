"""Outside-in layer tracer for monoidkit.

The package is not edited.  ``Tracer.install`` wraps the public functions of
each layer and replaces *every* binding of them: the defining module, every
``monoidkit.*`` module that imported the function by name (``ktheory`` does
``from .intlin import smith_normal_form``; ``serre``, ``selftest`` and ``cli``
do the same).  Methods are patched on their
class.  ``Tracer.uninstall`` puts every original back.

Each wrapped call records one span: name, start, end, parent span and item
id, kept in flat arrays in memory and written out once by ``dump``.  A
layer's self time is its spans' durations minus the time covered by their
child spans.  Counters that need the arguments or the result (rows fed to
SNF, subsets tested by the lattice walk, ...) are taken at the same
boundary, after the span's end time is read.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
from array import array
from time import perf_counter

# layer -> (module, attribute path) of each wrapped public callable
LAYERS = {
    "corpora": [("monoidkit.corpora", n) for n in (
        "all_gamma_asets", "all_pointed_sets", "all_nilpotent_asets",
        "close_under_subquotients", "dedup_up_to_iso")],
    "asets.lattice": [("monoidkit.asets", "FiniteASet.subobject_sets")],
    "asets.construct": [("monoidkit.asets", "FiniteASet.__init__"),
                        ("monoidkit.asets", "ASetMap.__init__")],
    "asets.hom": [("monoidkit.asets", "hom_maps")],
    "asets.iso": [("monoidkit.asets", "FiniteASet.find_isomorphism")],
    "serre.window": [("monoidkit.serre", n) for n in (
        "canonical_window", "index_poset", "check_filtered")],
    "serre.quotient": [("monoidkit.serre", n) for n in (
        "hom_quotient", "compose_quotient", "is_iso_quotient",
        "monic_representative", "check_condition_w")],
    "intlin.snf": [("monoidkit.intlin", "smith_normal_form")],
    "ktheory": [("monoidkit.ktheory", n) for n in (
        "k0_of_catspec", "burnside_rank")],
    "diagrams": [("monoidkit.diagrams", "key_diagram"),
                 ("monoidkit.diagrams", "KeyDiagram.verify")],
}


def _content_key(X):
  """What an object is, independent of which instance carries it."""
  return (X.base, tuple(X.elements),
          tuple(sorted((g, tuple(sorted(m.items(), key=repr)))
                       for g, m in X.action.items())))


def _window_key(args):
  if len(args) == 1:        # check_filtered(poset)
    poset = args[0]
    X, Y, pred = poset.X, poset.Y, poset.pred
  else:                     # canonical_window / index_poset (X, Y, pred)
    X, Y, pred = args[:3]
  return (_content_key(X), _content_key(Y), repr(pred))


class Tracer:
  """Spans and counters for one benchmark process; install() to switch on."""

  def __init__(self):
    self.names = []                      # span name table: "layer:callable"
    self.layer_of = []                   # name index -> layer
    self.span_name = array("i")
    self.span_parent = array("i")
    self.span_item = array("i")
    self.span_start = array("d")
    self.span_end = array("d")
    self.item = -1
    self._stack = []
    self._patches = []
    self.counts = {}
    self.window_keys = set()

  # -- counters ----------------------------------------------------------------

  def _bump(self, key, by=1):
    self.counts[key] = self.counts.get(key, 0) + by

  def _count(self, qualname, args, result):
    if qualname == "FiniteASet.subobject_sets":
      self._bump("asets.lattice.subsets_tested", 2 ** (len(args[0].elements) - 1))
      self._bump("asets.lattice.subobjects_out", len(result))
    elif qualname == "hom_maps":
      self._bump("asets.hom.maps_out", len(result))
    elif qualname == "FiniteASet.find_isomorphism":
      self._bump("asets.iso.found", result is not None)
    elif qualname == "smith_normal_form":
      rows = args[0]
      self._bump("intlin.snf.rows_in", len(rows))
      self._bump("intlin.snf.distinct_rows_in", len({tuple(r) for r in rows}))
    elif qualname in ("all_gamma_asets", "all_pointed_sets",
                      "all_nilpotent_asets", "close_under_subquotients",
                      "dedup_up_to_iso"):
      self._bump("corpora.classes_out", len(result))
    elif qualname in ("canonical_window", "index_poset", "check_filtered"):
      self.window_keys.add(_window_key(args))

  # -- patching ------------------------------------------------------------------

  def _wrap(self, fn, layer, qualname):
    name = f"{layer}:{qualname}"
    if name not in self.names:
      self.names.append(name)
      self.layer_of.append(layer)
    name_id = self.names.index(name)
    stack = self._stack
    spans = (self.span_name, self.span_parent, self.span_item,
             self.span_start, self.span_end)
    span_name, span_parent, span_item, span_start, span_end = spans
    count = self._count

    def traced(*args, **kwargs):
      idx = len(span_name)
      span_name.append(name_id)
      span_parent.append(stack[-1] if stack else -1)
      span_item.append(self.item)
      span_start.append(0.0)
      span_end.append(0.0)
      stack.append(idx)
      t0 = perf_counter()
      try:
        result = fn(*args, **kwargs)
      finally:
        t1 = perf_counter()
        stack.pop()
        span_start[idx] = t0
        span_end[idx] = t1
      count(qualname, args, result)
      return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", qualname)
    traced.__qualname__ = getattr(fn, "__qualname__", qualname)
    traced.__doc__ = getattr(fn, "__doc__", None)
    return traced

  def install(self):
    """Wrap every layer callable at every binding; returns self."""
    if self._patches:
      raise RuntimeError("tracer is already installed")
    package = importlib.import_module("monoidkit")
    for info in pkgutil.iter_modules(package.__path__):
      importlib.import_module(f"monoidkit.{info.name}")
    for layer, targets in LAYERS.items():
      for module_name, path in targets:
        module = importlib.import_module(module_name)
        if "." in path:
          cls_name, attr = path.split(".")
          cls = getattr(module, cls_name)
          original = cls.__dict__[attr]
          self._patches.append((cls, attr, original))
          setattr(cls, attr, self._wrap(original, layer, path))
          continue
        original = getattr(module, path)
        traced = self._wrap(original, layer, path)
        holders = [m for n, m in list(sys.modules.items())
                   if n == "monoidkit" or n.startswith("monoidkit.")]
        for holder in holders:
          for attr, value in list(vars(holder).items()):
            if value is original:
              self._patches.append((holder, attr, original))
              setattr(holder, attr, traced)
    return self

  def uninstall(self):
    for holder, attr, original in reversed(self._patches):
      setattr(holder, attr, original)
    self._patches = []

  def __enter__(self):
    return self.install()

  def __exit__(self, *exc):
    self.uninstall()

  # -- results -------------------------------------------------------------------

  def mark(self):
    """Start a summary window: returns (span count, counters) to pass on."""
    self.window_keys = set()
    return len(self.span_name), dict(self.counts)

  def layer_summary(self, since=(0, {})):
    """Per-layer metrics over what was recorded since `since` = mark().

    Returns {metric name: value} with every per-layer metric present, zero
    for a layer the spans never entered.
    """
    first, counts0 = since
    n = len(self.span_name)
    child = [0.0] * (n - first)
    for i in range(first, n):
      p = self.span_parent[i]
      if p >= first:
        child[p - first] += self.span_end[i] - self.span_start[i]
    calls = {layer: 0 for layer in LAYERS}
    self_s = {layer: 0.0 for layer in LAYERS}
    per_name = [0] * len(self.names)
    for i in range(first, n):
      nid = self.span_name[i]
      layer = self.layer_of[nid]
      per_name[nid] += 1
      calls[layer] += 1
      self_s[layer] += (self.span_end[i] - self.span_start[i]) - child[i - first]

    def delta(key):
      return self.counts.get(key, 0) - counts0.get(key, 0)

    def ratio(a, b):
      return a / b if b else 0.0

    by_name = {name.split(":", 1)[1]: per_name[i]
               for i, name in enumerate(self.names)}
    tested = delta("asets.lattice.subsets_tested")
    lattice_out = delta("asets.lattice.subobjects_out")
    window_keys = len(self.window_keys)
    m = {
        "corpora.calls": calls["corpora"],
        "corpora.classes_out": delta("corpora.classes_out"),
        "asets.lattice.calls": calls["asets.lattice"],
        "asets.lattice.subsets_tested": tested,
        "asets.lattice.subobjects_out": lattice_out,
        "asets.lattice.yield": ratio(lattice_out, tested),
        "asets.construct.objects": by_name.get("FiniteASet.__init__", 0),
        "asets.construct.maps": by_name.get("ASetMap.__init__", 0),
        "asets.hom.calls": calls["asets.hom"],
        "asets.hom.maps_out": delta("asets.hom.maps_out"),
        "asets.iso.calls": calls["asets.iso"],
        "asets.iso.found_ratio": ratio(delta("asets.iso.found"),
                                       calls["asets.iso"]),
        "serre.window.calls": calls["serre.window"],
        "serre.window.distinct_keys": window_keys,
        "serre.window.distinct_ratio": ratio(window_keys, calls["serre.window"]),
        "serre.quotient.calls": calls["serre.quotient"],
        "intlin.snf.calls": calls["intlin.snf"],
        "intlin.snf.rows_in": delta("intlin.snf.rows_in"),
        "intlin.snf.distinct_rows_in": delta("intlin.snf.distinct_rows_in"),
        "ktheory.calls": calls["ktheory"],
        "diagrams.calls": calls["diagrams"],
    }
    for layer in LAYERS:
      m[f"{layer}.self_s"] = self_s[layer]
    return m

  def dump(self, stem):
    """Write the spans once: <stem>.json (layout) and <stem>.bin (arrays)."""
    n = len(self.span_name)
    columns = [("name", self.span_name), ("parent", self.span_parent),
               ("item", self.span_item), ("start", self.span_start),
               ("end", self.span_end)]
    meta = {"spans": n, "names": self.names,
            "columns": [[c, a.typecode, a.itemsize] for c, a in columns],
            "byteorder": sys.byteorder,
            "note": "columns are stored one after another in <stem>.bin; "
                    "name indexes names (layer:callable), parent is a span "
                    "index or -1, start/end are perf_counter seconds"}
    with open(f"{stem}.bin", "wb") as fh:
      for _, a in columns:
        a.tofile(fh)
    with open(f"{stem}.json", "w") as fh:
      json.dump(meta, fh, indent=1)
