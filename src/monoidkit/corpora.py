"""Corpora of small A-sets: exhaustive enumeration up to iso, plus samplers.

The exhaustive enumerators are structural — they generate one canonical
representative per isomorphism class instead of deduplicating raw tables:

* An ℕ-set is a pointed successor graph, i.e. a rooted forest hanging on ∗
  together with a multiset of "crowns" (directed cycles with trees attached).
  Classes are enumerated as shape data (`NShape`) so the generator itself
  knows which ones are rooted trees (those with no crowns) — an oracle
  independent of anything the library computes from the table.
* A Γ₊-set for a finite abelian group Γ is forced to be a Γ-permutation set
  with a disjoint basepoint (g·x = ∗ would give x = g⁻¹·∗ = ∗), so classes
  are multisets of coset orbits Γ/H; the stabilizers come out for free.
  Each orbit is placed from one coset table per subgroup and call.
* A set over ℕ/(tᴺ) is a successor forest of height ≤ N.

`brute_force_asets` really does enumerate raw action tables and deduplicate;
it exists to cross-check the structural generators on small sizes.

`subquotient_relations` closes a corpus under subobjects and quotients and
lists its K₀ relations.  It walks a Γ₊-set as a multiset of orbits: S and
X/S are ∗ plus a sub-multiset and its complement, so it takes one subobject
per sub-multiset, reads the class keys of S and X/S off X's own orbit walk,
and builds an object only when its key opens a new class.  Every other
object is walked subobject by subobject.
"""

from __future__ import annotations

import itertools

from .asets import STAR, FiniteASet, IsoClasses, nat_set
from .errors import ClosureBoundExceeded, InvalidStructure
from .monoids import NatMonoid

# --------------------------------------------------------------- tree shapes
#
# A rooted-tree shape is a sorted tuple of child shapes; the leaf is ().
# Nested tuples compare recursively, so plain sorted() canonicalizes.

_tree_cache = {}
_forest_cache = {}


def tree_shapes(n):
  """All rooted trees on n nodes, as canonical shapes."""
  if n < 1:
    return ()
  if n not in _tree_cache:
    _tree_cache[n] = tuple(forest_multisets(n - 1))
  return _tree_cache[n]


def _multisets(total, parts):
  """Every multiset of parts with sizes summing to `total`, as a tuple of
  parts in non-decreasing (size, part) order; ``parts(size)`` lists the
  parts of one size.  Depth first, smaller parts first, with an explicit
  stack (children pushed in reverse, so they pop in order)."""
  found = []
  stack = [(total, (), None)]
  while stack:
    remaining, prefix, floor = stack.pop()
    if remaining == 0:
      found.append(prefix)
      continue
    stack += reversed([(remaining - size, prefix + (part,), (size, part))
                       for size in range(1, remaining + 1)
                       for part in parts(size)
                       if floor is None or (size, part) >= floor])
  return found


def forest_multisets(total):
  """All multisets of tree shapes with `total` nodes, as sorted tuples."""
  if total not in _forest_cache:
    _forest_cache[total] = tuple(_multisets(total, tree_shapes))
  return _forest_cache[total]


def shape_height(shape):
  """The number of levels of a tree shape, counted level by level."""
  height, level = 0, [shape]
  while level:
    height += 1
    level = [child for node in level for child in node]
  return height


def _shape_tuples(slots, total):
  """Ordered `slots`-tuples of tree shapes whose sizes sum to `total`."""
  if slots == 0:
    if total == 0:
      yield ()
    return
  for size in range(1, total - slots + 2):
    for shape in tree_shapes(size):
      for rest in _shape_tuples(slots - 1, total - size):
        yield (shape,) + rest


def crown_shapes(total):
  """Cycles of length k with a tree hanging at each node, `total` nodes.

  A crown is a k-tuple of tree shapes (the cycle node is each tree's root),
  canonical up to rotation (functional-graph cycles are directed, so no
  reflections).
  """
  out = set()
  for k in range(1, total + 1):
    for shapes in _shape_tuples(k, total):
      out.add(min(shapes[i:] + shapes[:i] for i in range(k)))
  return tuple(sorted(out))


class NShape:
  """Isomorphism class of a finite ℕ-set: forest on ∗ plus crowns."""

  __slots__ = ("forest", "crowns")

  def __init__(self, forest=(), crowns=()):
    self.forest = tuple(forest)
    self.crowns = tuple(crowns)

  def height(self):
    return max((shape_height(s) for s in self.forest), default=0)

  def to_aset(self):
    """The N-set, nodes named x1, x2, ... in depth-first preorder: the
    forest's trees, then each crown's cycle nodes followed by the trees
    hanging on them.  Iterative, so any depth builds."""
    succ = {}
    counter = itertools.count(1)
    # (name, successor, shape) still to place, the next on top; a tree node
    # is named when placed, a crown's cycle nodes when the crown is reached
    stack = [(None, STAR, shape) for shape in reversed(self.forest)]
    crowns = list(reversed(self.crowns))
    while stack or crowns:
      if not stack:
        crown = crowns.pop()
        nodes = [f"x{next(counter)}" for _ in crown]
        stack = [(nodes[i], nodes[(i + 1) % len(nodes)], crown[i])
                 for i in reversed(range(len(crown)))]
      me, parent, shape = stack.pop()
      me = me or f"x{next(counter)}"
      succ[me] = parent
      stack += [(None, me, child) for child in reversed(shape)]
    return nat_set(succ, name=repr(self))

  def __eq__(self, other):
    return (isinstance(other, NShape)
            and (self.forest, self.crowns) == (other.forest, other.crowns))

  def __hash__(self):
    return hash((self.forest, self.crowns))

  def __repr__(self):
    return (f"NShape(forest={_tuple_text(self.forest)}, "
            f"crowns={_tuple_text(self.crowns)})")


def _tuple_text(t):
  """repr(t) for nested tuples of tuples, built iteratively: a shape may be
  nested deeper than the recursion limit."""
  out = ["("]
  stack = [(t, 0)]          # a tuple and the index of its next item
  while stack:
    node, i = stack.pop()
    if i < len(node):
      out.append(", (" if i else "(")
      stack += [(node, i + 1), (node[i], 0)]
    else:
      out.append(",)" if len(node) == 1 else ")")
  return "".join(out)


def all_nshapes(max_elements):
  """Every ℕ-set class with carrier (incl. ∗) of at most `max_elements`."""
  shapes = []
  for m in range(max_elements):
    for forest_part in range(m + 1):
      for forest in forest_multisets(forest_part):
        for crowns in _multisets(m - forest_part, crown_shapes):
          shapes.append(NShape(forest, crowns))
  return shapes


def all_nsets(max_elements):
  return [s.to_aset() for s in all_nshapes(max_elements)]


# --------------------------------------------------- sets over other monoids


def all_pointed_sets(monoid, max_elements):
  """All sets over a monoid with no proper generators (e.g. 𝔽₁): one per size."""
  if monoid.generators():
    raise InvalidStructure(f"{monoid.name} has generators; use a real enumerator")
  out = []
  for m in range(max_elements):
    elements = [STAR] + [f"x{i}" for i in range(1, m + 1)]
    out.append(FiniteASet(monoid, elements, {}, STAR, name=f"{m + 1} points"))
  return out


def nilpotency_index(monoid, gen):
  power = gen
  for k in range(1, len(monoid.elements) + 1):
    if power == monoid.zero:
      return k
    power = monoid.mul(power, gen)
  return None


def all_nilpotent_asets(monoid, max_elements):
  """All sets over ⟨t | tᴺ = ∗⟩: successor forests of height ≤ N."""
  gens = monoid.generators()
  if len(gens) != 1:
    raise InvalidStructure("expected a single-generator monoid")
  t = gens[0]
  bound = nilpotency_index(monoid, t)
  if bound is None:
    raise InvalidStructure(f"generator {t!r} of {monoid.name} is not nilpotent")
  out = []
  for m in range(max_elements):
    for forest in forest_multisets(m):
      if max((shape_height(s) for s in forest), default=0) > bound:
        continue
      line = NShape(forest).to_aset()
      action = {t: dict(line.action["t"])}
      out.append(FiniteASet(monoid, list(line.elements), action, STAR,
                            name=line.name))
  return out


def unit_subgroups(monoid):
  """All subgroups of the unit group, as frozensets of monoid elements."""
  units = frozenset(monoid.unit_elements())

  def span(gens):
    seen = {monoid.one}
    frontier = [monoid.one]
    while frontier:
      x = frontier.pop()
      for g in gens:
        y = monoid.mul(x, g)
        if y not in seen:
          seen.add(y)
          frontier.append(y)
    return frozenset(seen)

  found = {span([])}
  frontier = [span([])]
  while frontier:
    H = frontier.pop()
    for g in units:
      if g not in H:
        K = span(list(H) + [g])
        if K not in found:
          found.add(K)
          frontier.append(K)
  return sorted(found, key=lambda H: (len(H), sorted(H)))


def _coset_table(monoid, subgroup):
  """Γ/H for a subgroup H of the units, with untagged coset labels: the
  labels in sorted order, and each generator's (coset, image) label pairs
  in the order the cosets are first met over the units."""
  cosets = {}
  for u in monoid.unit_elements():
    c = frozenset(monoid.mul(u, h) for h in subgroup)
    cosets.setdefault(c, f"[{min(c)}]")
  moves = {g: [(label, cosets[frozenset(monoid.mul(g, x) for x in c)])
               for c, label in cosets.items()]
           for g in monoid.generators()}
  return sorted(cosets.values()), moves


def _orbit_wedge(monoid, parts, name=None):
  """The Γ₊-set with one coset orbit per (coset table, tag) of `parts`; an
  element is its tag plus its coset label, one string shared by the
  carrier and every generator map."""
  elements = [STAR]
  action = {g: {} for g in monoid.generators()}
  for (labels, moves), tag in parts:
    tagged = {c: tag + c for c in labels}
    elements += tagged.values()
    for g, pairs in moves.items():
      action[g].update([(tagged[c], tagged[d]) for c, d in pairs])
  return FiniteASet(monoid, elements, action, STAR, name=name)


def coset_orbit_aset(monoid, subgroup, tag=""):
  """The Γ₊-set of cosets Γ/H (plus basepoint) for a subgroup H of the units."""
  table = _coset_table(monoid, subgroup)
  return _orbit_wedge(monoid, [(table, tag)],
                      name=f"orbit of index {len(table[0])}")


def all_gamma_asets(monoid, max_elements):
  """Every Γ₊-set class with ≤ max_elements carrier; with stabilizer orders.

  Returns (aset, stabilizer_orders) pairs, one per class: a Γ₊-set is a
  Γ-permutation set with basepoint, so a class is a multiset of coset
  orbits; `stabilizer_orders` lists |H| per orbit (all 1 ⟺ free).  The
  coset table of each subgroup is built once per call, and each orbit of
  each class is placed from it under its own tag.
  """
  subgroups = unit_subgroups(monoid)
  tables = [_coset_table(monoid, H) for H in subgroups]
  sizes = [len(labels) for labels, _ in tables]
  out = []
  # depth first, each multiset before its extensions by later subgroups
  stack = [(max_elements - 1, 0, [])]
  while stack:
    budget, start, chosen = stack.pop()
    name = f"{len(chosen)} orbit(s)" if chosen else "point"
    parts = [(tables[i], f"o{k}") for k, i in enumerate(chosen)]
    out.append((_orbit_wedge(monoid, parts, name),
                tuple([len(subgroups[i]) for i in chosen])))
    stack += [(budget - sizes[i], i, chosen + [i])
              for i in reversed(range(start, len(subgroups)))
              if sizes[i] <= budget]
  return out


def brute_force_asets(monoid, max_elements):
  """Raw enumeration of all action tables, deduplicated up to iso.

  Exponential in carrier size and generator count — this is the oracle the
  structural enumerators are checked against, not a production path.
  """
  gens = (["t"] if isinstance(monoid, NatMonoid) else monoid.generators())
  out = []
  for m in range(max_elements):
    carrier = [f"x{i}" for i in range(1, m + 1)]
    targets = carrier + [STAR]
    candidates = []
    for assignment in itertools.product(
        itertools.product(targets, repeat=m), repeat=len(gens)):
      action = {g: dict(zip(carrier, images))
                for g, images in zip(gens, assignment)}
      try:
        X = FiniteASet(monoid, [STAR] + carrier, action, STAR)
      except InvalidStructure:
        continue
      if X.validate().ok:
        candidates.append(X)
    out.extend(dedup_up_to_iso(candidates))
  return out


def dedup_up_to_iso(asets):
  """The first object of each isomorphism class, in input order."""
  classes = IsoClasses()
  for X in asets:
    classes.index(X)
  return classes.reps


def _subobject_steps(X, orbits):
  """(s, key of S, key of X/S) for each subobject s of X that the closure
  walk indexes, in ``subobject_sets()`` order.

  When X has a ``canonical_key``, X is ∗ plus orbits Γ/H, S is ∗ plus a
  sub-multiset of them and X/S is ∗ plus the complementary multiset, so
  subobjects with one sub-multiset give one pair of classes.  Only the first
  subobject of each sub-multiset in lattice order is listed: for counts
  c_H ≤ m_H it takes the first c_H orbits of each stabilizer H (swapping in
  an earlier orbit raises the mask), and sorting these by (size, −mask) is
  the lattice order.  Both keys are (monoid, size, sorted stabilizers), read
  off X's one orbit walk.  Otherwise every subobject is listed, with no keys,
  from a fresh walk of X's masks that keeps nothing on X.
  """
  if orbits is None:
    return [(s, None, None) for s in X._sets_of(X._walk_masks())]
  bits = list(X._bits().items())
  by_type = {}
  for mask, stabilizer in orbits:
    members = tuple([x for x, b in bits if mask & b])
    by_type.setdefault(stabilizer, []).append((mask, members))
  # per stabilizer H, one option per count c ≤ m_H: (mask, elements, c
  # copies of H, m_H − c copies of H), the first c orbits of that type
  options = []
  for h in sorted(by_type):
    m = len(by_type[h])
    mask, members = 0, ()
    option = [(0, (), (), (h,) * m)]
    for c, (orbit_mask, orbit_members) in enumerate(by_type[h], 1):
      mask |= orbit_mask
      members += orbit_members
      option.append((mask, members, (h,) * c, (h,) * (m - c)))
    options.append(option)
  monoid, n, base = X.monoid, len(X.elements), X.base
  found = []
  for choice in itertools.product(*options):
    mask, members, sub, quo = 0, (base,), (), ()
    for part in choice:
      mask |= part[0]
      members += part[1]
      sub += part[2]
      quo += part[3]
    size = len(members)
    found.append((size, -mask, members, (monoid, size, sub),
                  (monoid, n + 1 - size, quo)))
  found.sort(key=lambda f: (f[0], f[1]))
  return [(frozenset(members), sub, quo) for _, _, members, sub, quo in found]


def subquotient_relations(seeds, bound=64):
  """Sub/quotient closure of `seeds` up to iso, with its K₀ relations.

  Returns (reps, rows): one representative per class, and the distinct
  rows [X] − [S] − [X/S] of every sequence S >--> X -->> X/S with X a
  representative, each a dict from an index into `reps` to a nonzero int.
  A row has at most three terms and sums to −1, so none is zero.  Raises
  ClosureBoundExceeded when the class count passes `bound`.

  A Γ₊-set X is walked as a multiset of orbits: one subobject per
  sub-multiset (``_subobject_steps``), the classes of S and X/S looked up
  by keys derived from X's orbits, and S or X/S built only when its key
  opens a new class.  The subobjects skipped repeat a triple (X, S, X/S)
  already seen, so reps, rows and their order are those of walking every
  subobject.  Any other X is walked subobject by subobject, S and X/S
  built and indexed.
  """
  classes = IsoClasses()
  reps = classes.reps
  work = []

  def index(X):
    # one orbit walk gives X's class key and, for a new class, its orbits
    orbits = X._orbit_masks()
    known = len(reps)
    i = classes.index(X)
    if i == known:
      if known >= bound:
        raise ClosureBoundExceeded(
            f"subquotient closure exceeded {bound} classes")
      work.append((i, orbits))
    return i

  for X in seeds:
    index(X)
  ends = []
  while work:
    i, orbits = work.pop()
    X = reps[i]
    # the lattice's sets are closed by construction: build S and X/S
    # unchecked, with no maps, keep neither on X, and build neither when
    # its key already names a class
    for s, sub_key, quotient_key in _subobject_steps(X, orbits):
      j = classes.find_key(sub_key)
      if j is None:
        j = index(X._sub_object(s))
      k = classes.find_key(quotient_key)
      if k is None:
        k = index(X._quotient_object(s))
      ends.append((i, j, k))
  rows = {}
  for i, j, k in ends:
    row = {i: 1}
    for t in (j, k):
      row[t] = row.get(t, 0) - 1
    row = {t: c for t, c in row.items() if c}
    rows.setdefault(frozenset(row.items()), row)
  return reps, list(rows.values())


def close_under_subquotients(seeds, bound=64):
  """Representatives of the sub/quotient closure of `seeds`, up to iso.

  Raises ClosureBoundExceeded when the class count passes `bound`.
  """
  return subquotient_relations(seeds, bound)[0]


# ------------------------------------------------------------------ samplers


def random_nset(rng, max_nonbase):
  """A uniformly messy successor map on a random carrier size."""
  m = rng.randint(0, max_nonbase)
  carrier = [f"x{i}" for i in range(1, m + 1)]
  succ = {x: rng.choice(carrier + [STAR]) for x in carrier}
  return nat_set(succ)

