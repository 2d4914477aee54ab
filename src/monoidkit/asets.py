"""Finite pointed sets with a monoid action, and their quasi-exact category.

Objects carry the action on a generating set only; everything else is
recovered by closing the generator maps inside the full transformation
monoid of the carrier, and ``full_action`` checks that closure against the
monoid's relations when it is first asked for.  Morphisms are basepoint- and
action-preserving maps.  Exact sequences are injection/surjection pairs where
the surjection collapses exactly the image and nothing else.

The public constructors ``FiniteASet(...)`` and ``ASetMap(...)`` check their
input in full.  Objects and maps derived from valid ones are built by the
private ``_trusted`` constructors instead, which check nothing: subobjects
and quotients (``sub_aset``, ``quotient_by``, after their admissibility
check, or ``_sub_object``/``_quotient_object`` directly for a set closed by
construction: a set of the lattice, or a union of orbits), the two maps
of ``exact_seq_from_sub`` (after ``subquotient``'s admissibility check),
``identity_map``, the maps ``iter_hom_maps`` finds (its search checks
every equivariance square), composites (``ASetMap.compose``, after its
carrier check), and the quotient of ``coequalizer`` (its identification
is a congruence; only the class names are checked distinct).

An object's subobject lattice is walked once and kept on it as int masks,
one bit per non-base element in the one layout of ``_bits``;
``subobject_sets()`` hands out fresh frozensets, and ``subquotient``
builds (S, X/S) only for the sets it is asked for.  Beside each pair that
``exact_seq_from_sub`` asks for, X keeps the two mappings of S ↣ X ↠ X/S
and one exactness verdict; each sequence it hands out for (X, S) wraps the
kept mappings in two fresh ``_trusted`` maps.  So a trusted map's mapping
may be shared, and no caller mutates a map's mapping.

Maps and isomorphisms come from one backtracking search,
``_equivariant_maps``.  ``iter_hom_maps`` yields the maps it finds one
at a time, so a search for a witness stops at it; ``iter_maps_within``
is the same search with a list of allowed images per element, for a
caller that knows where each element must go; ``hom_maps`` lists them;
``find_isomorphism`` first compares the objects' ``iso_key`` (an invariant
each object computes once and keeps) and then takes the first one-to-one map
that sends each element to one of equal invariant.

Isomorphism classes are decided in one of two ways.  A Γ₊-set (Γ a finite
abelian group, F1 included) has an exact ``canonical_key``: its size and
the sorted multiset of its orbit stabilizers, read off one walk of the
monoid's ``unit_tree`` per orbit.  Two such objects are isomorphic exactly
when their keys are equal, so ``is_isomorphic`` compares keys and searches
nothing.  Every other object (N-sets, N/(tⁿ)-sets, sets over any other
finite monoid) has no such key, and ``is_isomorphic`` runs
``find_isomorphism``.  ``class_key`` is the one bucket key: the canonical
key where there is one, else ``iso_key``.  ``IsoClasses`` is the one index
of isomorphism classes: it buckets by ``class_key`` and compares only
inside a bucket; a canonical key's bucket holds one class, so its lookup is
a dict lookup.

The category is not abelian, but images, kernels, cokernels, fiber products,
pushouts and coequalizers all exist on finite carriers.  Kernels,
cokernels, wedges, smash products and coequalizers are constructed here;
the key diagram (``diagrams``) decides its fiber product and pushouts on
the carriers without building them.
"""

from __future__ import annotations

import heapq

from .errors import InvalidStructure, Undecidable
from .monoids import STAR, FiniteMonoid, NatMonoid


class FiniteASet:
  """A finite pointed set with an action of a pointed monoid.

  ``action`` maps generator names to element maps; entries on the basepoint
  may be omitted (they are forced).  Over ``NatMonoid`` the single key is
  ``"t"`` and the object is just a pointed set with a successor map.

  The constructor checks the carrier and the generator maps; ``_trusted``
  takes fields that are already known to be valid and checks nothing.
  """

  def __init__(self, monoid, elements, action, base=STAR, name=None):
    self.monoid = monoid
    self.elements = list(elements)
    self.base = base
    self.name = name
    if len(set(self.elements)) != len(self.elements):
      raise InvalidStructure("duplicate elements in carrier")
    if base not in self.elements:
      raise InvalidStructure("basepoint missing from carrier")
    self._element_set = set(self.elements)
    self.action = {}
    for gen, mapping in action.items():
      full = dict(mapping)
      full.setdefault(base, base)
      for x, y in full.items():
        if x not in self._element_set or y not in self._element_set:
          raise InvalidStructure(f"action of {gen!r} mentions unknown element")
      missing = sorted(self._element_set - set(full), key=str)
      if missing:
        raise InvalidStructure(f"action of {gen!r} is not total: missing {missing}")
      if full[base] != base:
        raise InvalidStructure(f"action of {gen!r} moves the basepoint")
      self.action[gen] = full
    if isinstance(monoid, NatMonoid):
      if set(self.action) != {"t"}:
        raise InvalidStructure("an N-set needs exactly the successor map 't'")
    else:
      known = set(monoid.elements)
      for gen in self.action:
        if gen not in known:
          raise InvalidStructure(f"action key {gen!r} is not a monoid element")
    self._full_action_cache = None
    self._iso_cache = None
    self._canonical = False         # until computed: None is an answer
    self._derived = None

  @classmethod
  def _trusted(cls, monoid, elements, action, base, name=None,
               element_set=None):
    """An object from fields derived from a valid one, unchecked.

    ``elements`` is a fresh list and ``action`` maps every generator to a
    total map on it that fixes ``base``; the caller guarantees both.  A
    given ``element_set`` holds exactly ``elements`` and is kept, not copied.
    """
    self = object.__new__(cls)
    self.monoid = monoid
    self.elements = elements
    self.base = base
    self.name = name
    self._element_set = set(elements) if element_set is None else element_set
    self.action = action
    self._full_action_cache = None
    self._iso_cache = None
    self._canonical = False         # until computed: None is an answer
    self._derived = None
    return self

  # -- basic structure ---------------------------------------------------------

  def size(self):
    return len(self.elements)

  def nonbase(self):
    return [x for x in self.elements if x != self.base]

  def is_trivial(self):
    return len(self.elements) == 1

  def full_action(self):
    """Action map for every monoid element (finite acting monoid only).

    Built by closing the given generator maps under multiplication; a
    conflict between two factorizations of the same monoid element means the
    input did not respect the monoid relations.
    """
    if isinstance(self.monoid, NatMonoid):
      raise InvalidStructure("full action tables exist over finite monoids only")
    if self._full_action_cache is not None:
      return self._full_action_cache
    m = self.monoid
    const = {x: self.base for x in self.elements}
    # the unit and zero actions are forced (so if 1 = 0, X is the point); a
    # conflicting generator map or closure product trips a check below
    table = {m.one: {x: x for x in self.elements}}
    if table.setdefault(m.zero, const) != const:
      raise InvalidStructure("the unit law: 1 = 0, so X must be the point")
    for gen, gmap in self.action.items():
      if gen in table and table[gen] != gmap:
        raise InvalidStructure(f"action of {gen!r} conflicts with the unit law")
      table[gen] = dict(gmap)
    frontier = list(table)
    while frontier:
      a = frontier.pop()
      for gen, gmap in self.action.items():
        b = m.mul(a, gen)
        composed = {x: gmap[table[a][x]] for x in self.elements}
        if b in table:
          if table[b] != composed:
            raise InvalidStructure(
                f"action is inconsistent: element {b!r} gets two different maps")
        else:
          table[b] = composed
          frontier.append(b)
    missing = sorted(set(m.elements) - set(table), key=str)
    if missing:
      raise InvalidStructure(
          f"action keys do not generate the monoid (missing {missing})")
    self._full_action_cache = table
    return table

  def validate(self):
    from .monoids import ValidationReport
    v = []
    try:
      if not isinstance(self.monoid, NatMonoid):
        self.full_action()
    except InvalidStructure as e:
      v.append(str(e))
    return ValidationReport(self.name or "A-set", v)

  def act(self, a, x):
    """a . x for a monoid element a (over N, a is the exponent of t)."""
    if isinstance(self.monoid, NatMonoid):
      step = self.action["t"]
      for _ in range(a):
        x = step[x]
      return x
    return self.full_action()[a][x]

  def orbit(self, x):
    """The cyclic subobject generated by x (always action-closed)."""
    out = {self.base, x}
    frontier = [x]
    while frontier:
      y = frontier.pop()
      for gmap in self.action.values():
        z = gmap[y]
        if z not in out:
          out.add(z)
          frontier.append(z)
    return frozenset(out)

  # -- subobjects and quotients --------------------------------------------------

  def is_admissible_subset(self, subset):
    s = set(subset)
    if self.base not in s or not s <= self._element_set:
      return False
    return all(s.issuperset(map(gmap.__getitem__, s))
               for gmap in self.action.values())

  def _bits(self):
    """Element ↦ its bit in X's subobject masks, the one bit layout:
    ``nonbase()[i]`` is bit n-1-i, so among masks of one popcount the
    ``itertools.combinations`` order is descending numeric order.  The
    basepoint is 0, in no mask; it is the dict's last key."""
    rest = self.nonbase()
    top = len(rest) - 1
    bit = {x: 1 << (top - i) for i, x in enumerate(rest)}
    bit[self.base] = 0
    return bit

  def _walk_masks(self):
    """The masks of ``subobject_sets()``, walked afresh and kept nowhere.

    A subobject is the basepoint plus a union of orbits, so the masks are
    built, not filtered: the work grows with the number of subobjects
    times the carrier size, not with 2^n.
    """
    bit = self._bits()
    gmaps = list(self.action.values())
    down = []               # (x's bit, orbit(x) as a mask), x in nonbase()
    for x, m in zip(self.nonbase(), bit.values()):
      frontier = [x]
      while frontier:
        y = frontier.pop()
        for gmap in gmaps:
          z = gmap[y]
          b = bit[z]
          if b and not m & b:
            m |= b
            frontier.append(z)
      down.append((bit[x], m))
    # include/exclude walk in nonbase() order: every mask kept is closed,
    # and an element left out earlier stays out, so x may join only when
    # its orbit's earlier elements are all in already
    masks = [0]
    for b, d in down:
      earlier = d & -(b << 1)
      masks += [m | d for m in masks if not m & b and m & earlier == earlier]
    masks.sort(reverse=True)
    return sorted(masks, key=int.bit_count)

  def _masks(self):
    """X's subobject masks, walked once and kept on X."""
    kept = self._kept()
    kept.lattice = kept.lattice or tuple(self._walk_masks())
    return kept.lattice

  def _sets_of(self, masks):
    """The subobject of each mask, as a frozenset, one at a time."""
    bits = list(self._bits().items())
    return (frozenset([self.base] + [x for x, b in bits if m & b])
            for m in masks)

  def subobject_sets(self):
    """Every action-closed subset containing the basepoint, as frozensets,
    in a new list on each call (the masks behind it are kept on X).

    The order is fixed: by size, and within one size by the positions of
    the elements in ``nonbase()``, in ``itertools.combinations`` order (the
    order of a filter over all subsets, smallest first).
    """
    return list(self._sets_of(self._masks()))

  def sub_aset(self, subset):
    """(subobject, inclusion) for an action-closed subset."""
    if not self.is_admissible_subset(subset):
      raise InvalidStructure("subset is not action-closed (or misses the basepoint)")
    sub = self._sub_object(set(subset))
    return sub, ASetMap._trusted(sub, self, {x: x for x in sub.elements})

  def quotient_by(self, subset):
    """(quotient, projection) collapsing an admissible subset to the basepoint.

    Surviving elements keep their names.
    """
    if not self.is_admissible_subset(subset):
      raise InvalidStructure("can only collapse an action-closed subset")
    s = set(subset)
    quo = self._quotient_object(s)
    push = {x: self.base if x in s else x for x in self.elements}
    return quo, ASetMap._trusted(self, quo, push)

  def _sub_object(self, s):
    """The subobject on an admissible set s, built unchecked; s becomes its
    carrier set, so the caller must never change it."""
    keep = [x for x in self.elements if x in s]
    action = {g: {x: gmap[x] for x in keep} for g, gmap in self.action.items()}
    return FiniteASet._trusted(self.monoid, keep, action, self.base, element_set=s)

  def _quotient_object(self, s):
    """X/s for an admissible set s (it holds the basepoint), unchecked."""
    base = self.base
    keep = [x for x in self.elements if x == base or x not in s]
    action = {g: {x: base if gmap[x] in s else gmap[x] for x in keep}
              for g, gmap in self.action.items()}
    return FiniteASet._trusted(self.monoid, keep, action, base)

  # -- derived data kept on the object ----------------------------------------------

  def _kept(self):
    """The derived-data slot, made on first use."""
    if self._derived is None:
      self._derived = _Derived()
    return self._derived

  def subquotient(self, subset):
    """(S, X/S) for an admissible frozenset S, built on the first ask and
    kept on X under the frozenset asked for (S's carrier set is that
    frozenset), so all callers share them: never rename them.  Only the
    pairs asked for are kept; ``sub_aset`` and ``quotient_by`` stay
    uncached."""
    kept = self._kept().subquotients
    if subset not in kept:
      if not self.is_admissible_subset(subset):
        raise InvalidStructure("not an action-closed subset with the basepoint")
      kept[subset] = self._sub_object(subset), self._quotient_object(subset)
    return kept[subset]

  # -- comparisons ------------------------------------------------------------------

  def same_carrier(self, other):
    return self is other or (
        self.monoid == other.monoid and self.base == other.base
        and self._element_set == other._element_set
        and self.action == other.action)

  def iso_key(self):
    """An isomorphism invariant, computed once and kept on the object.

    (size, generator names, sorted multiset of the element invariants).  An
    element's invariant records, per generator in name order, whether the
    generator kills, fixes or moves it and how many non-base elements it
    sends there, plus the size of the element's orbit.
    """
    if self._iso_cache is None:
      gens = sorted(self.action)
      maps = [self.action[g] for g in gens]
      rest = self.nonbase()
      base = self.base
      hits = []
      for gmap in maps:
        h = dict.fromkeys(rest, 0)
        for x in rest:
          if gmap[x] != base:
            h[gmap[x]] += 1
        hits.append(h)
      invariants = [
          (tuple([0 if gmap[x] == base else 1 if gmap[x] == x else 2
                  for gmap in maps]),
           tuple([h[x] for h in hits]), len(self.orbit(x)))
          for x in rest]
      key = (len(self.elements), tuple(gens), tuple(sorted(invariants)))
      self._iso_cache = (key, invariants)
    return self._iso_cache[0]

  def canonical_key(self):
    """The exact class key of a Γ₊-set, or None; computed once and kept.

    Over a monoid with a ``unit_tree`` (Γ₊ for a finite abelian group Γ,
    F1 included), X is ∗ plus a disjoint union of orbits Γ/H, so X is
    determined up to isomorphism by (monoid, size, sorted multiset of the
    orbit stabilizers H), read off the orbit walk of ``_orbit_masks``.  The
    key reads the action as valid (``validate`` checks it).  Over any other
    monoid, or when the action is not given on the tree's generators, the
    key is None.
    """
    if self._canonical is False:
      self._orbit_masks()
    return self._canonical

  def _orbit_masks(self):
    """X's orbits in first-element order, each as (element mask, stabilizer
    mask), or None when X has no ``canonical_key``; the walk also sets that
    key, so a caller that needs both walks X once.

    The element bits are ``_bits()``, the layout of the subobject masks,
    so a subobject's mask is the union of its orbits' masks.  A
    stabilizer is a bit mask over the ``unit_tree``'s units: one walk of the
    tree from an orbit's first element reads u·x for every unit u off the
    generator maps, |Γ| dict reads per orbit, no ``full_action``, no ``mul``.
    """
    tree = (self.monoid.unit_tree()
            if isinstance(self.monoid, FiniteMonoid) else None)
    if tree is None or not all(g in self.action for _, _, g in tree[1:]):
      self._canonical = None
      return None
    steps = [(parent, self.action[g]) for _, parent, g in tree[1:]]
    bit = self._bits()
    orbits, seen = [], 0
    for x, b in bit.items():
      if b and not seen & b:
        images = [x]
        for parent, gmap in steps:
          images.append(gmap[images[parent]])
        mask = stabilizer = 0
        for i, y in enumerate(images):
          mask |= bit[y]
          if y == x:
            stabilizer |= 1 << i
        seen |= mask
        orbits.append((mask, stabilizer))
    if self._canonical is False:
      self._canonical = (self.monoid, len(self.elements),
                         tuple(sorted(stabilizer for _, stabilizer in orbits)))
    return orbits

  def class_key(self):
    """The bucket key of X's isomorphism class: ``canonical_key`` where X
    has one (so a Γ₊-set never computes ``iso_key``), else ``iso_key``.
    Equal classes have equal keys; only a canonical key also decides."""
    return self.canonical_key() or self.iso_key()

  def find_isomorphism(self, other):
    """A basepoint/action-preserving bijection self → other, or None.

    Objects of different size (checked first, so that neither computes its
    key) or different ``iso_key`` are rejected at once.  Otherwise the
    search is the hom search restricted to one-to-one maps that send each
    element to one of equal invariant; an equivariant bijection is an
    isomorphism, so the first map found is returned.  Candidates are tried
    in the order of ``other.nonbase()``, so the result is the first
    isomorphism in that lexicographic order.
    """
    if (self.monoid != other.monoid or self.size() != other.size()
        or self.iso_key() != other.iso_key()):
      return None
    same = {}
    for y, inv in zip(other.nonbase(), other._iso_cache[1]):
      same.setdefault(inv, []).append(y)
    choices = {x: same[inv]
               for x, inv in zip(self.nonbase(), self._iso_cache[1])}
    return next(_equivariant_maps(self, other, choices, True), None)

  def is_isomorphic(self, other):
    """Are the objects isomorphic?  The monoids are compared first, then the
    sizes (so that neither object computes a key for a mismatch), then,
    when both objects have a ``canonical_key``, the keys, which decide;
    otherwise ``find_isomorphism`` searches."""
    if self.monoid != other.monoid or self.size() != other.size():
      return False
    key, other_key = self.canonical_key(), other.canonical_key()
    if key is None or other_key is None:
      return self.find_isomorphism(other) is not None
    return key == other_key

  def __repr__(self):
    label = self.name or f"{len(self.elements)} elements"
    return f"FiniteASet({label})"


class _Derived:
  """What an object computes about itself once and keeps: its subobject
  masks (``_masks``), the (S, X/S) pairs ``subquotient`` was asked for, the
  ``_KeptSequence`` of each S that ``exact_seq_from_sub`` was asked for, and
  ``serre``'s window halves and admissible lists.  Nothing here may refer
  to the object, or it would live until a cyclic GC pass."""

  __slots__ = ("lattice", "subquotients", "sequences", "windows")

  def __init__(self):
    self.lattice = None
    self.subquotients = {}
    self.sequences = {}
    self.windows = {}


class _KeptSequence:
  """What X keeps of S ↣ X ↠ X/S for one admissible S: the inclusion's and
  the projection's mappings (element names only, no object) and the
  exactness verdict, None until ``is_exact`` first judges a sequence of
  (X, S).  Nothing here refers to X."""

  __slots__ = ("inclusion", "projection", "_exact")

  def __init__(self, inclusion, projection):
    self.inclusion = inclusion
    self.projection = projection
    self._exact = None


class IsoClasses:
  """The isomorphism classes seen so far, one representative each.

  ``index(X)`` is the number of X's class, counting classes in order of
  first arrival; ``find(X)`` is that number, or None when X is in no class
  yet, and inserts nothing; ``find_key(key)`` is the same for an exact key,
  with no object built.  The buckets are keyed by ``class_key``.  X is
  compared, by ``is_isomorphic``, only with the representatives in its
  bucket, and ``index`` opens a new class (X becoming its representative)
  when none matches.  A canonical key is exact, so its bucket holds one
  class and the lookup makes no isomorphism search.  Given ``reps``, known
  to be pairwise non-isomorphic, the index starts from them, each filed
  under its key without a comparison.
  """

  def __init__(self, reps=()):
    self.reps = list(reps)
    self._buckets = {}
    for i, X in enumerate(self.reps):
      self._buckets.setdefault(X.class_key(), []).append(i)

  def find(self, X):
    for i in self._buckets.get(X.class_key(), ()):
      if X.is_isomorphic(self.reps[i]):
        return i
    return None

  def find_key(self, key):
    """The class filed under an exact (canonical) key, or None, with no
    object in hand; inserts nothing.  An exact key's bucket holds one
    class, and no class is filed under None."""
    bucket = self._buckets.get(key)
    return bucket[0] if bucket else None

  def index(self, X):
    # find's loop, inline: the closure walk indexes every S and X/S it builds
    bucket = self._buckets.setdefault(X.class_key(), [])
    for i in bucket:
      if X.is_isomorphic(self.reps[i]):
        return i
    bucket.append(len(self.reps))
    self.reps.append(X)
    return len(self.reps) - 1


class ASetMap:
  """A morphism of pointed A-sets: basepoint- and action-preserving.

  The constructor checks domain, images, basepoint and equivariance;
  ``_trusted`` takes a mapping already known to be a morphism.
  """

  def __init__(self, source, target, mapping):
    self.source = source
    self.target = target
    self.mapping = dict(mapping)
    if set(self.mapping) != source._element_set:
      raise InvalidStructure("map must be defined on exactly the source carrier")
    for x, y in self.mapping.items():
      if y not in target._element_set:
        raise InvalidStructure(f"map sends {x!r} outside the target")
    if self.mapping[source.base] != target.base:
      raise InvalidStructure("map does not preserve the basepoint")
    if set(source.action) != set(target.action):
      raise InvalidStructure("source and target use different acting generators")
    for g, gmap in source.action.items():
      tmap = target.action[g]
      for x in source.elements:
        if self.mapping[gmap[x]] != tmap[self.mapping[x]]:
          raise InvalidStructure(
              f"map is not equivariant at generator {g!r}, element {x!r}")

  @classmethod
  def _trusted(cls, source, target, mapping):
    """A map the caller guarantees is a morphism source → target, unchecked.

    ``mapping`` is kept, not copied: a fresh dict, or one of the mappings
    X keeps for ``exact_seq_from_sub``, which every sequence of (X, S)
    shares and no one mutates.
    """
    self = object.__new__(cls)
    self.source = source
    self.target = target
    self.mapping = mapping
    return self

  def __call__(self, x):
    return self.mapping[x]

  def is_injective(self):
    vals = list(self.mapping.values())
    return len(set(vals)) == len(vals)

  def is_surjective(self):
    return set(self.mapping.values()) == self.target._element_set

  def is_isomorphism(self):
    return self.is_injective() and self.is_surjective()

  def image_set(self):
    return frozenset(self.mapping.values())

  def preimage(self, subset):
    s = set(subset)
    return frozenset(x for x, y in self.mapping.items() if y in s)

  def compose(self, then):
    """self followed by then (diagrammatic order)."""
    if not self.target.same_carrier(then.source):
      raise InvalidStructure("maps are not composable")
    return ASetMap._trusted(self.source, then.target,
                            {x: then.mapping[y] for x, y in self.mapping.items()})

  def __eq__(self, other):
    return (isinstance(other, ASetMap)
            and self.source.same_carrier(other.source)
            and self.target.same_carrier(other.target)
            and self.mapping == other.mapping)

  def __hash__(self):
    return hash(frozenset(self.mapping.items()))

  def __repr__(self):
    return f"ASetMap({self.source!r} -> {self.target!r})"


def identity_map(X):
  return ASetMap._trusted(X, X, {x: x for x in X.elements})


class ExactSeq:
  """X' >--i--> X --p-->> X'': an admissible monic and its cokernel.

  A sequence built by hand keeps its own exactness verdict; one from
  ``exact_seq_from_sub`` reads the verdict its middle object keeps for
  (X, S) in ``_kept``, a ``_KeptSequence`` shared by every sequence of
  (X, S).
  """

  def __init__(self, i, p):
    if not i.target.same_carrier(p.source):
      raise InvalidStructure("the two maps must share the middle object")
    self.i = i
    self.p = p
    self._exact = None
    self._kept = None

  @property
  def sub(self):
    return self.i.source

  @property
  def middle(self):
    return self.i.target

  @property
  def quotient(self):
    return self.p.target

  def __repr__(self):
    return f"ExactSeq({self.sub!r} -> {self.middle!r} -> {self.quotient!r})"


def is_exact(seq):
  """Is p literally a cokernel of i and i a kernel of p?

  Requires i injective, p surjective, the fiber of p over the basepoint to be
  exactly the image of i, and every other fiber to be a single point.  The
  check runs once and its verdict is kept: for a sequence from
  ``exact_seq_from_sub``, on X's record of (X, S), so it runs once per
  (X, S) however many sequences of (X, S) are judged; for one built by
  hand, on ``seq`` itself.
  """
  held = seq._kept or seq
  if held._exact is None:
    i, p = seq.i, seq.p
    image = i.image_set()
    outside = [p(x) for x in p.source.elements if x not in image]
    held._exact = (i.is_injective() and p.is_surjective()
                   and p.preimage({p.target.base}) == image
                   and len(set(outside)) == len(outside))
  return held._exact


def kernel(p):
  """The inclusion of ker p, the fiber of p over the basepoint (the kernel
  object is its source)."""
  return p.source.sub_aset(p.preimage({p.target.base}))[1]


def cokernel(i):
  """The projection onto coker i, the target with the image collapsed (the
  cokernel object is its target)."""
  return i.target.quotient_by(i.image_set())[1]


def exact_seq_from_sub(X, subset):
  """The canonical sequence S >--> X -->> X/S for an admissible subset.

  S and X/S are X's own ``subquotient`` objects, and ``subquotient`` checks
  admissibility (``InvalidStructure`` otherwise); the inclusion and the
  collapse are then morphisms.  Their mappings are built on the first ask
  for (X, S) and kept on X, with the exactness verdict, in a
  ``_KeptSequence``; each call wraps them in two fresh unchecked maps and
  a fresh ``ExactSeq`` that reads the kept verdict, so ``is_exact`` checks
  each (X, S) once.
  """
  s = frozenset(subset)
  sub, quo = X.subquotient(s)
  kept = X._derived.sequences        # subquotient made the slot
  record = kept.get(s)
  if record is None:
    base = X.base
    record = kept[s] = _KeptSequence(
        {x: x for x in sub.elements},
        {x: base if x in s else x for x in X.elements})
  seq = ExactSeq(ASetMap._trusted(sub, X, record.inclusion),
                 ASetMap._trusted(X, quo, record.projection))
  seq._kept = record
  return seq


# -- constructions ------------------------------------------------------------------


def _wedge_names(X, Y):
  """(X's names in X ∨ Y, Y's names in X ∨ Y, the wedge's carrier).

  Both basepoints go to X's.  The names are kept when X's carrier and Y's
  non-base elements are disjoint, else suffixed "#1" and "#2"; the wedge's
  names are checked distinct.
  """
  if X.monoid != Y.monoid or X.action.keys() != Y.action.keys():
    raise InvalidStructure("wedge needs a common acting monoid")
  base = X.base
  xs = X.nonbase()
  ys = Y.nonbase()
  if X._element_set.isdisjoint(ys):
    to_x = {x: x for x in xs}
    to_y = {y: y for y in ys}
  else:
    to_x = {x: f"{x}#1" for x in xs}
    to_y = {y: f"{y}#2" for y in ys}
  elements = [base, *to_x.values(), *to_y.values()]
  if len(set(elements)) != len(elements):
    raise InvalidStructure("the wedge's element names collide")
  to_x[base] = base
  to_y[Y.base] = base
  return to_x, to_y, elements


def wedge(X, Y):
  """(X ∨ Y, inclusion of X, inclusion of Y): disjoint union glued at ∗.
  Built unchecked but for the distinctness of the new names."""
  to_x, to_y, elements = _wedge_names(X, Y)
  action = {}
  for g, gx in X.action.items():
    gy = Y.action[g]
    m = {to_x[x]: to_x[gx[x]] for x in X.elements}
    m.update((to_y[y], to_y[gy[y]]) for y in Y.nonbase())
    action[g] = m
  W = FiniteASet._trusted(X.monoid, elements, action, X.base)
  return W, ASetMap._trusted(X, W, to_x), ASetMap._trusted(Y, W, to_y)


def point_aset(monoid, base=STAR):
  action = {g: {} for g in (["t"] if isinstance(monoid, NatMonoid)
                             else monoid.generators())}
  return FiniteASet(monoid, [base], action, base, name="point")


class _UnionFind:
  def __init__(self, items):
    self.parent = {x: x for x in items}

  def find(self, x):
    while self.parent[x] != x:
      self.parent[x] = self.parent[self.parent[x]]
      x = self.parent[x]
    return x

  def union(self, a, b):
    ra, rb = self.find(a), self.find(b)
    if ra != rb:
      self.parent[ra] = rb
      return True
    return False


def smash(X, Y):
  """X ∧_A Y: pairs modulo (a·x, y) ~ (x, a·y), pairs with a ∗ collapsed."""
  if X.monoid != Y.monoid:
    raise InvalidStructure("smash needs a common acting monoid")
  pairs = [(x, y) for x in X.nonbase() for y in Y.nonbase()]
  items = pairs + ["*base*"]
  uf = _UnionFind(items)

  def node(x, y):
    if x == X.base or y == Y.base:
      return "*base*"
    return (x, y)

  # one pass adds every elementary edge; their equivalence closure is already
  # a congruence (applying a generator to both sides of an elementary move
  # yields another elementary move)
  for (x, y) in pairs:
    for g in X.action:
      uf.union(node(X.action[g][x], y), node(x, Y.action[g][y]))
  reps = {}
  for (x, y) in pairs:
    reps.setdefault(uf.find((x, y)), []).append((x, y))
  base_root = uf.find("*base*")

  class_names = {root: "({},{})".format(*min(reps[root], key=str))
                 for root in reps if root != base_root}
  elements = [STAR] + sorted(class_names.values())
  action = {}
  for g in X.action:
    gmap = {STAR: STAR}
    for root, nm in class_names.items():
      x, y = reps[root][0]
      tgt = node(X.action[g][x], y)
      r = uf.find(tgt)
      gmap[nm] = STAR if r == base_root else class_names[r]
    action[g] = gmap
  return FiniteASet(X.monoid, elements, action, STAR)


def _class_names(elements, base, uf):
  """(element ↦ its class's name, the names in order) for the classes of
  ``uf`` on ``elements``.

  The basepoint's class is named ``base`` and any other class by the least
  ``str`` of its members; classes keep the order of their first members.
  The names are checked distinct (``InvalidStructure``).
  """
  find = uf.find
  root = {y: find(y) for y in elements}
  classes = {}
  for y, r in root.items():
    classes.setdefault(r, []).append(y)
  base_root = root[base]
  names = {r: base if r == base_root else min(map(str, members))
           for r, members in classes.items()}
  carrier = list(names.values())
  if len(set(carrier)) != len(carrier):
    raise InvalidStructure("two classes of the quotient have the same name")
  return {y: names[r] for y, r in root.items()}, carrier


def coequalizer_classes(f, g):
  """(y ↦ its class's name, the names in order): the classes of the
  coequalizer of morphisms f, g : X ⇉ Y, with no object built.

  Identifies f(x) ~ g(x) by one union-find pass; the basepoint's class is
  collapsed and any other class is named by the least ``str`` of its
  members (``_class_names``, which refuses two classes that print alike,
  as 1 and "1" do).  No closing under the action is needed: f and g are
  equivariant, so a·f(x) ~ a·g(x) is the pair of a·x, and the equivalence
  the pairs generate is already a congruence.
  """
  if not f.source.same_carrier(g.source) or not f.target.same_carrier(g.target):
    raise InvalidStructure("coequalizer needs a parallel pair")
  Y = f.target
  uf = _UnionFind(Y.elements)
  fm, gm = f.mapping, g.mapping
  for x in f.source.elements:
    uf.union(fm[x], gm[x])
  return _class_names(Y.elements, Y.base, uf)


def coequalizer(f, g, classes=None):
  """(Q, proj): the genuine coequalizer of morphisms f, g : X ⇉ Y.

  Q is Y's classes under ``coequalizer_classes(f, g)``, or under
  ``classes`` when the caller has already computed them, to decide from
  the classes alone whether Q is needed; Q's action is read through
  ``proj``.

  Contract: f and g are morphisms (the pair is not checked for
  equivariance).  Q and ``proj`` are built unchecked; only the class names
  are checked distinct.
  """
  proj, carrier = classes or coequalizer_classes(f, g)
  Y = f.target
  action = {g: {proj[y]: proj[gmap[y]] for y in Y.elements}
            for g, gmap in Y.action.items()}
  Q = FiniteASet._trusted(Y.monoid, carrier, action, Y.base)
  return Q, ASetMap._trusted(Y, Q, proj)


def _equivariant_maps(X, Y, choices, injective):
  """Each equivariant pointed map X → Y as a dict, x sent into ``choices[x]``.

  Backtracking over the non-base elements of X in order, each image in the
  order of ``choices[x]``; with ``injective``, an image already used is
  skipped.  The partial-equivariance prune checks every square
  f(g·x) = g·f(x) as soon as both ends are assigned, so every dict yielded
  is a morphism.  The search is iterative: its depth is the carrier size,
  not bounded by the recursion limit.  The generator sets must agree.
  """
  xs = X.nonbase()
  # per generator: its maps on X and Y, and each x's nonbase preimages
  gens = []
  for g, xmap in X.action.items():
    pre = {x: [] for x in xs}
    for z in xs:
      if xmap[z] != X.base:
        pre[xmap[z]].append(z)
    gens.append((xmap, Y.action[g], pre))
  assignment = {X.base: Y.base}
  used = set()

  def consistent(x):
    fx = assignment[x]
    for xmap, ymap, pre in gens:
      gx = xmap[x]
      if gx in assignment and assignment[gx] != ymap[fx]:
        return False
      for z in pre[x]:
        if z in assignment and ymap[assignment[z]] != fx:
          return False
    return True

  # tried[i]: how many images of xs[i] have been tried under the current
  # assignment of xs[:i]
  tried = [0] * len(xs)
  depth = 0
  while depth >= 0:
    if depth == len(xs):
      yield dict(assignment)
      depth -= 1
      continue
    x = xs[depth]
    ys = choices[x]
    if injective:
      used.discard(assignment.get(x))
    k = tried[depth]
    while k < len(ys):
      y = ys[k]
      k += 1
      if injective and y in used:
        continue
      assignment[x] = y
      if consistent(x):
        if injective:
          used.add(y)
        tried[depth] = k
        depth += 1
        break
    else:
      assignment.pop(x, None)
      tried[depth] = 0
      depth -= 1


def iter_hom_maps(X, Y):
  """Every A-set map X → Y, one at a time, by backtracking over images of
  nonbase elements.

  Intended for small carriers; the partial-equivariance prune keeps the
  search far below |Y|^|X| in practice.  The search (shared with
  ``find_isomorphism``, which restricts it to one-to-one maps between
  elements of equal invariant) checks every equivariance square, so the
  maps found are built unchecked.  Maps come in lexicographic order of
  their images, nonbase elements in order, each image in the order of
  ``Y.elements``.  The generator sets are compared on the call; the search
  runs only as far as the caller reads, so a search for a witness stops
  at it.
  """
  return iter_maps_within(X, Y, dict.fromkeys(X.nonbase(), Y.elements))


def iter_maps_within(X, Y, choices):
  """Every A-set map X → Y that sends each nonbase x into ``choices[x]``,
  one at a time: ``iter_hom_maps``' search with fewer images to try.

  Each ``choices[x]`` is a sublist of ``Y.elements`` in its order, so the
  maps come in ``iter_hom_maps``' order, and they are exactly the maps it
  yields that send each x into ``choices[x]``.  The generator sets are
  compared on the call.
  """
  if set(X.action) != set(Y.action):
    raise InvalidStructure("hom needs a common acting generator set")
  return (ASetMap._trusted(X, Y, m)
          for m in _equivariant_maps(X, Y, choices, False))


def hom_maps(X, Y):
  """Every A-set map X → Y, as a list: ``iter_hom_maps`` read to its end."""
  return list(iter_hom_maps(X, Y))


# -- structure predicates --------------------------------------------------------------


def is_pc_aset(X):
  """Partial cancellativity: a·x = b·x ≠ ∗ forces a = b.

  Over a finite monoid this is brute force on the full action table; over N
  it is loop detection (a repeat t^i x = t^j x ≠ ∗ with i < j is exactly a
  witness), so an N-set is pc exactly when it is a rooted tree.
  """
  if isinstance(X.monoid, NatMonoid):
    return is_rooted_tree(X)
  if isinstance(X.monoid, FiniteMonoid):
    table = X.full_action()
    elts = X.monoid.elements
    for x in X.nonbase():
      hit = {}
      for a in elts:
        y = table[a][x]
        if y == X.base:
          continue
        if y in hit and hit[y] != a:
          return False
        hit[y] = a
    return True
  raise Undecidable("pc is only decided over finite monoids and N")


def is_rooted_tree(X):
  """For an N-set: does every orbit fall into ∗ (no off-base loop)?"""
  if not isinstance(X.monoid, NatMonoid):
    raise InvalidStructure("rooted-tree shape is an N-set notion")
  return falls_into(X, X.nonbase(), (X.base,))


def falls_into(X, elements, dead):
  """For an N-set: does every x in ``elements`` reach ``dead``, an
  action-closed subset holding ∗, under some power of t?"""
  # each element is walked once: a walk stops at the first element already
  # known to fall, and then its whole path falls too
  step = X.action["t"]
  falls = set(dead)
  for x in elements:
    path = set()
    while x not in falls:
      if x in path:
        return False
      path.add(x)
      x = step[x]
    falls |= path
  return True


def orbit_decomposition(X):
  """Orbits and stabilizers of a Γ₊-set: list of (orbit, stabilizer) pairs.

  The acting monoid must be a finite group with zero; units never collapse a
  nonbase element, so the nonbase part is partitioned by the group action and
  each orbit is a coset object (Γ/H)₊ for its stabilizer H.
  """
  m = X.monoid
  if not isinstance(m, FiniteMonoid) or set(m.unit_elements()) != \
     set(e for e in m.elements if e != m.zero):
    raise InvalidStructure("orbit decomposition needs a group-with-zero action")
  table = X.full_action()
  units = m.unit_elements()
  seen = set()
  out = []
  for x in X.nonbase():
    if x in seen:
      continue
    orbit = frozenset(table[u][x] for u in units)
    assert X.base not in orbit, "a unit killed a nonbase element"
    seen |= orbit
    stab = frozenset(u for u in units if table[u][x] == x)
    out.append((orbit, stab))
  return out


class NotFiniteLength:
  """Certificate that no filtration with irreducible (A^×)₊ steps exists."""

  def __init__(self, stuck_subset, blocking_extension):
    self.stuck_subset = frozenset(stuck_subset)
    self.blocking_extension = frozenset(blocking_extension)

  def __repr__(self):
    return (f"NotFiniteLength(stuck={sorted(map(str, self.stuck_subset))}, "
            f"witness={sorted(map(str, self.blocking_extension))})")


def irreducible_chain(X):
  """The unit orbits a maximal irreducible chain adjoins, in order, or a
  NotFiniteLength witness.

  Irreducible means isomorphic to (A^x)_+: each step adjoins one free orbit
  of the unit group, all of whose non-unit translates land in the previous
  stage.  The chain's length is the object's length, and its stages are ∗
  plus the running unions of the orbits, so neither needs a stage to be
  built."""
  if isinstance(X.monoid, NatMonoid):
    units = []
    unit_count = 1
    table = None
  else:
    units = X.monoid.unit_elements()
    unit_count = len(units)
    table = X.full_action()

  def unit_orbit(x):
    if table is None:
      return frozenset({x})
    return frozenset(table[u][x] for u in units)

  def nonunit_images(x):
    if table is None:
      return {X.action["t"][x]}
    return {table[a][x] for a in X.monoid.elements
            if a not in units and a != X.monoid.one}

  # Units permute X∖{∗} and freeness does not depend on the stage, so an
  # orbit that can be adjoined stays adjoinable as the stage grows: adjoining
  # the first eligible orbit (in string order) either reaches the carrier or
  # stops at a stage no chain gets past, with no backtracking.  An element
  # with a free orbit waits on its non-unit images outside the stage; once
  # it waits on none it goes on a heap keyed by its string.
  cur = {X.base}
  name = {str(x): x for x in X.elements}
  missing = {}
  waiters = {}
  ready = []
  for x in X.nonbase():
    if len(unit_orbit(x)) != unit_count:
      continue
    blockers = nonunit_images(x) - cur
    missing[x] = len(blockers)
    for y in blockers:
      waiters.setdefault(y, []).append(x)
    if not blockers:
      ready.append(str(x))
  heapq.heapify(ready)
  chain = []
  while ready:
    x = name[heapq.heappop(ready)]
    if x in cur:
      continue
    orb = unit_orbit(x)
    chain.append(orb)
    cur |= orb
    for y in orb:
      for w in waiters.get(y, ()):
        missing[w] -= 1
        if not missing[w]:
          heapq.heappush(ready, str(w))
  if len(cur) < len(X.elements):
    # witness: cur is action-closed, so each smallest subobject above it
    # is cur plus one orbit; ties go to the first in subobject_sets() order
    pos = {x: i for i, x in enumerate(X.nonbase())}
    blocking = min((cur | X.orbit(x) for x in X.elements if x not in cur),
                   key=lambda s: (len(s), sorted(pos[y] for y in s - cur)))
    return NotFiniteLength(cur, blocking)
  return chain


def aset_length(X):
  """Number of irreducible steps, or None if X is not finite length."""
  chain = irreducible_chain(X)
  if isinstance(chain, NotFiniteLength):
    return None
  return len(chain)


# -- N-set conveniences ---------------------------------------------------------------


def nat_set(successor, base=STAR, name=None):
  """An N-set from a successor map (the basepoint may be left implicit)."""
  carrier = (set(successor) | set(successor.values())) - {base}
  elements = [base] + sorted(carrier)
  return FiniteASet(NatMonoid(), elements, {"t": dict(successor)}, base, name=name)


def truncated_line(k):
  """{1, t, ..., t^(k-1), ∗} as an N-set: the path that falls off the end."""
  if k == 0:
    return nat_set({}, name="line(0)")
  names = ["1"] + [f"t^{i}" if i > 1 else "t" for i in range(1, k)]
  succ = {names[i]: names[i + 1] for i in range(len(names) - 1)}
  succ[names[-1]] = STAR
  return nat_set(succ, name=f"line({k})")


def cycle_nset(k, tail=0):
  """A k-cycle with an optional tail hanging off it (k >= 1)."""
  cyc = [f"c{i}" for i in range(k)]
  succ = {cyc[i]: cyc[(i + 1) % k] for i in range(k)}
  for j in range(tail):
    succ[f"a{j}"] = cyc[0] if j == 0 else f"a{j-1}"
  return nat_set(succ, name=f"cycle({k})+tail({tail})")
