"""Serre subcategories of finite A-sets and the quotient category M/C.

A Serre subcategory is given by a *predicate* (support condition, torsion
condition, finite length, or an explicit iso-closed list).  The quotient
category has the same objects; a morphism X → Y is a germ of maps X′ → Y″
over the poset of windows (X′ ↪ X with cokernel in C, Y ↠ Y″ with kernel in
C).  The poset is finite and filtered with a maximum — the canonical window
(smallest admissible X′, most-collapsed Y″) — so a morphism *is* a map
from the canonical X′ to the canonical Y″: hom-sets are computed there, and
germ equality is literal equality after refining to it.  Closure of C
under subobjects, quotients and extensions gives that maximum one element at
a time: X′ is ∗ and each x with X/U_x ∉ C (U_x the largest subobject missing
x), and Y″ collapses each orbit whose cyclic subobject lies in C.

Each of those questions is about a subobject or a quotient of X on a set
closed by construction, so it goes to ``pred.contains_sub(X, s)`` or
``pred.contains_quotient(X, s)``.  Every kind but an ``explicit`` list
decides these on X's carrier and builds no object; a list builds the
object only when its size allows a match.  So a window half builds only X′
or Y″, and an admissible list builds nothing outside ``explicit``.

X′ depends only on (X, C) and Y″ only on (Y, C).  Each object keeps, in
its derived-data slot and per predicate under a weak reference, a source
half (X′'s carrier, X′) and a target half (K, Y/K), each computed together
on first use and fetched in one lookup, and so the admissible lists of
``index_poset`` (the sets S with X/S in C, the sets K in C).  Objects are
never mutated, so none of these can go stale.  A ``PredicateClosureError``
is not kept: it is raised again on every call.  A ``QuotientHom`` is a map
between the kept X′ and Y″; composing reads both off the representatives.
Under a predicate that is Serre by construction, condition (W)'s
candidates inherit their halves from V's, with no ``_dense_set`` or
``_kernel_set``: a dense S ⊆ V has V′ itself and K(V) ∩ S, a quotient
V/k has (V′ ∖ k) ∪ {∗} and (K(V) ∖ k) ∪ {∗}, with V″ itself as its
collapsed half, and a wedge V ∨ T has ι_V(V′) and ι_V(K(V)) ∪ ι_T(T).
``_iso_candidates`` proves each by closure under subobjects, quotients
and extensions.

What is checked where.  Only the public ``QuotientHom(...)`` and
``from_window`` check the representative they are given.  A rep built
inside is a morphism by construction and is built unchecked: a map
``hom_maps`` finds (``hom_quotient`` keeps the enumerator's order), or
``from_ambient(f)``, f on X′ followed by Y ↠ Y″ from the trivial window,
which every window refines.  ``_composite``, the one checked composition,
returns a dict; its two checks (f lands in Y′, the composite is
equivariant) fail only under a predicate that is not Serre, and raise
``PredicateClosureError``.  Every witness search reads its maps only up to
its witness: (W)'s arrows, ``monic_representative``, and, under an
``explicit`` list, ``_inverse``, which stops at the unique inverse.  An
arrow u: Xa → Xb of (W) must have pb ∘ u = pa, so under a predicate that
is Serre by construction its search (``iter_maps_within``) gives each x
of Xa′ only the y whose image in Xb″ pb's rep sends to pa's rep of x;
every map it reads is an arrow, in ``iter_hom_maps``' order, and still
passes ``_composite``.  Under an ``explicit`` list it reads the whole
hom-set (``iter_hom_maps``): C may not be closed there, and a map the
constraint would skip may be one whose composite raises
``PredicateClosureError`` before the first arrow.

Isomorphism in M/C is decided without a morphism search: ``reduced_object``
cuts X down to its minimal dense subobject X′ and collapses that one's
largest subobject in C, X′ ∩ K(X) with K(X) the largest subobject of X in
C, and two objects are isomorphic in M/C exactly when their reduced
objects red(X) are isomorphic A-sets.  The same points 1-4 of
``reduced_object`` decide whether one morphism f: X → Y is invertible.
Let m: X′ → Y″ be f's rep, and π: X → red(X), ι: red(Y) → Y the isos of
point 1.  If m sends X′ ∩ K(X) to ∗ and lands in Y′, it induces an A-set
map m̄: red(X) → red(Y), and f = ι ∘ m̄ ∘ π, since both sides have the rep
m at the canonical window; so f is invertible when m̄ is an A-set
isomorphism.  Conversely, if f is invertible, ι⁻¹ ∘ f ∘ π⁻¹ is an M/C
isomorphism between reduced objects, so an A-set isomorphism h (point 4);
f = ι ∘ h ∘ π has the rep x ↦ h(x̄), and as a germ has one rep, m is that
map.  So ``is_iso_quotient`` asks only that m send X′ ∩ K(X) to ∗ and
X′ ∖ K(X) one-to-one onto Y′ ∖ K(Y), read off the kept halves, and
``_iso_candidates`` writes the inverse of each projection V ↠ V/k down.
The argument needs C closed under subobjects, quotients and extensions,
which ``support_in``, ``torsion`` and ``finite_length`` are by their
definitions (``SerrePredicate.serre_by_construction``).  An ``explicit``
list may not be closed, so under it both still search for the inverse
(``_inverse``), and where closure fails a composite raises
``PredicateClosureError``.
"""

from __future__ import annotations

import itertools
import weakref

from .asets import (ASetMap, FiniteASet, coequalizer, coequalizer_classes,
                    falls_into, hom_maps, identity_map, iter_hom_maps,
                    iter_maps_within, wedge)
from .errors import (InvalidStructure, NotIso, PredicateClosureError,
                     Undecidable)
from .monoids import NatMonoid


class SerrePredicate:
  """Membership test for a would-be Serre subcategory.

  kinds: ``support_in`` (support contained in a set of primes, by label),
  ``torsion`` (every element killed by the multiplicative set), ``finite_length``,
  ``explicit`` (isomorphic to a listed object).  Predicates are data: the four
  kinds make closure checking decidable.

  ``contains`` takes an object; ``contains_sub`` and ``contains_quotient``
  take an admissible set s of X and ask about the subobject on s and about
  X/s.  Every kind but ``explicit`` decides all three on X's carrier
  (``_kills``); ``explicit`` builds the object only when its size is that
  of a listed object other than the point, since isomorphic objects have
  equal size and every one-element object is the point.
  """

  KINDS = ("support_in", "torsion", "finite_length", "explicit")

  def __init__(self, monoid, kind, primes=(), mult_set=(), objects=()):
    if kind not in self.KINDS:
      raise InvalidStructure(f"unknown Serre predicate kind {kind!r}")
    self.monoid = monoid
    self.kind = kind
    self.primes = frozenset(primes)
    self.mult_set = tuple(mult_set)
    self.objects = list(objects)
    self._sizes = frozenset(len(W.elements) for W in self.objects)
    self._rules = None              # the carrier test's killers, on first use

  # -- constructors ---------------------------------------------------------

  @classmethod
  def support_in(cls, monoid, prime_labels):
    return cls(monoid, "support_in", primes=prime_labels)

  @classmethod
  def torsion(cls, monoid, mult_set=None):
    if mult_set is None and isinstance(monoid, NatMonoid):
      mult_set = ["t"]
    return cls(monoid, "torsion", mult_set=mult_set or [])

  @classmethod
  def finite_length(cls, monoid):
    return cls(monoid, "finite_length")

  @classmethod
  def explicit(cls, monoid, objects):
    return cls(monoid, "explicit", objects=objects)

  @classmethod
  def zero(cls, monoid):
    """The zero subcategory, only the point: support in no prime."""
    return cls.support_in(monoid, ())

  @classmethod
  def everything(cls, monoid):
    return cls(monoid, "support_in",
               primes=[p.label for p in monoid.primes()])

  @property
  def serre_by_construction(self):
    """Is C Serre by its definition?  ``support_in``, ``torsion`` and
    ``finite_length`` are closed under subobjects, quotients and extensions
    whatever the monoid; an ``explicit`` list is Serre only if it happens
    to be closed, which nothing here checks."""
    return self.kind != "explicit"

  # -- membership -------------------------------------------------------------

  def contains(self, X):
    if self.serre_by_construction:
      return self._kills(X, X.nonbase(), (X.base,))
    return any(X.is_isomorphic(W) for W in self.objects)

  def contains_sub(self, X, s):
    """Is the subobject of X on the admissible set s in C?"""
    if self.serre_by_construction:
      return self._kills(X, [x for x in s if x != X.base], (X.base,))
    if len(s) == 1 or len(s) not in self._sizes:
      return len(s) in self._sizes
    return self.contains(X._sub_object(s))

  def contains_quotient(self, X, s):
    """Is X/s in C, for an admissible set s of X?"""
    if self.serre_by_construction:
      return self._kills(X, [x for x in X.elements if x not in s], s)
    size = len(X.elements) - len(s) + 1
    if size == 1 or size not in self._sizes:
      return size in self._sizes
    return self.contains(X._quotient_object(s))

  def _kills(self, X, elements, dead):
    """Is the object on ``elements`` ∪ {∗} in C, where ``dead`` (an
    action-closed set of X holding ∗ and none of ``elements``) is its ∗?

    That object's action is X's, with every image in ``dead`` read as ∗.
    It is in C when each rule has, for each x, an element sending x into
    ``dead``: under ``torsion`` the one rule is the multiplicative closure,
    otherwise the complements of the excluded primes (x is killed by no
    element of one exactly when that prime is in the support).  Units send
    no x into ``dead``, so a rule of units only (excluding m = A ∖ A^×, or
    (t) over N) asks for no elements; over N the other rules say that x
    falls into ``dead``.

    ``finite_length`` is support in {m} with A^× acting freely.  Each step
    of ``asets.irreducible_chain`` adjoins a free unit orbit whose non-unit
    images are in the chain, so the chain completes iff the units act
    freely and the non-units nilpotently: iff each non-unit idempotent e
    (a power of each non-unit) kills every x.  That holds iff the support
    lies in {m}: a prime p ≠ m misses a non-unit and so its idempotent
    power; for e ≠ 0 the divisors of e are the complement of a prime p ∌ e,
    so p ≠ m, and if a divisor b (bc = e) kills x then ex = cbx = ∗.
    """
    if self._rules is None:
      self._rules = self._carrier_rules()
    rules, units = self._rules
    if not all(rules):
      return not elements
    if units and not _units_act_freely(X, elements, units):
      return False
    if isinstance(self.monoid, NatMonoid):
      return not rules or falls_into(X, elements, dead)
    table = X.full_action() if rules else None
    return all(any(table[a][x] in dead for a in rule)
               for rule in rules for x in elements)

  def _carrier_rules(self):
    """``_kills``' rules, as lists of non-units (over N, ["t"] is the
    powers of t), and the units that must act freely, once per predicate."""
    m, nat = self.monoid, isinstance(self.monoid, NatMonoid)
    if self.kind == "torsion":
      if nat and self.mult_set != ("t",):
        raise Undecidable(
            "torsion over N supports the multiplicative set {t}")
      rules = [["t"] if nat else self._mult_closure()]
    else:
      # finite length is support in m, which holds every prime: the last
      kept = (self.primes if self.kind == "support_in"
              else {p.label for p in m.primes()[-1:]})
      rules = [(["t"] if p.label == "(0)" else []) if nat
               else [a for a in m.elements if a not in p.subset]
               for p in m.primes() if p.label not in kept]
    units = () if nat else m.unit_elements()
    rules = [[a for a in rule if a not in units] for rule in rules]
    return rules, (units if self.kind == "finite_length" else ())

  def _mult_closure(self):
    m = self.monoid
    seen = {m.one}
    frontier = [m.one]
    while frontier:
      a = frontier.pop()
      for s in self.mult_set:
        b = m.mul(a, s)
        if b not in seen:
          seen.add(b)
          frontier.append(b)
    return seen

  def __eq__(self, other):
    if self is other:               # skips the isomorphism tests of a list
      return True
    return (isinstance(other, SerrePredicate)
            and self.monoid == other.monoid
            and self.kind == other.kind
            and self.primes == other.primes
            and self.mult_set == other.mult_set
            and len(self.objects) == len(other.objects)
            and all(a.is_isomorphic(b)
                    for a, b in zip(self.objects, other.objects)))

  def __hash__(self):
    return hash((self.kind, self.primes, self.mult_set, len(self.objects)))

  def __repr__(self):
    detail = {"support_in": sorted(self.primes),
              "torsion": list(self.mult_set),
              "finite_length": "",
              "explicit": f"{len(self.objects)} object(s)"}[self.kind]
    return f"SerrePredicate({self.kind} {detail})".replace(" )", ")")

  def to_json(self):
    if self.kind == "support_in":
      return {"kind": "support_in", "primes": sorted(self.primes)}
    if self.kind == "torsion":
      return {"kind": "torsion", "mult_set": list(self.mult_set)}
    if self.kind == "finite_length":
      return {"kind": "finite_length"}
    return {"kind": "explicit",
            "objects": [{"elements": list(W.elements), "base": W.base,
                         "action": {g: dict(m) for g, m in W.action.items()}}
                        for W in self.objects]}

  @classmethod
  def from_json(cls, monoid, data):
    kind = data.get("kind")
    if kind == "support_in":
      return cls.support_in(monoid, data["primes"])
    if kind == "torsion":
      return cls.torsion(monoid, data.get("mult_set"))
    if kind == "finite_length":
      return cls.finite_length(monoid)
    if kind == "explicit":
      objs = [FiniteASet(monoid, w["elements"], w["action"], w["base"])
              for w in data["objects"]]
      return cls.explicit(monoid, objs)
    raise InvalidStructure(f"unknown Serre predicate kind {kind!r}")


def _units_act_freely(X, elements, units):
  """Does A^× act freely on ``elements``?  Orbits are walked on X's unit
  generators, as a product is a unit only when its factors are."""
  steps = [gmap for g, gmap in X.action.items() if g in units]
  left = set(elements)
  while left:
    orbit = [left.pop()]
    for y in orbit:
      for gmap in steps:
        if gmap[y] not in orbit:
          orbit.append(gmap[y])
    if len(orbit) != len(units):
      return False
    left.difference_update(orbit)
  return True


def support(X):
  """The primes where X does not vanish: each p such that X is not in
  ``support_in`` of the other primes, decided on X's carrier."""
  primes = X.monoid.primes()
  return [p for p in primes if not SerrePredicate.support_in(
      X.monoid, [q.label for q in primes if q is not p]).contains(X)]


# ------------------------------------------------------------------- windows


class WindowPair:
  """A window (X′ ↪ X, Y ↠ Y″): the subobject set and the kernel set.

  ``xsub`` is the carrier of X′ (cokernel X/X′ must lie in C); ``ykernel``
  is the collapsed subobject of Y (must lie in C), so Y″ = Y / ykernel.
  """

  __slots__ = ("xsub", "ykernel")

  def __init__(self, xsub, ykernel):
    self.xsub = frozenset(xsub)
    self.ykernel = frozenset(ykernel)

  def refines(self, other):
    """Deeper into the colimit: smaller subobject, larger kernel."""
    return self.xsub <= other.xsub and self.ykernel >= other.ykernel

  def __eq__(self, other):
    return (isinstance(other, WindowPair)
            and (self.xsub, self.ykernel) == (other.xsub, other.ykernel))

  def __hash__(self):
    return hash((self.xsub, self.ykernel))

  def __repr__(self):
    return (f"WindowPair(sub={sorted(self.xsub, key=str)}, "
            f"kernel={sorted(self.ykernel, key=str)})")


class IndexPoset:
  """The finite poset I_{X,Y}: all windows, ordered by refinement."""

  def __init__(self, X, Y, pred, pairs):
    self.X = X
    self.Y = Y
    self.pred = pred
    self.pairs = list(pairs)
    self._members = set(self.pairs)

  def __len__(self):
    return len(self.pairs)

  def __contains__(self, w):
    return w in self._members

  def leq(self, a, b):
    """a ≤ b iff b refines a (b is deeper toward the canonical window)."""
    return b.refines(a)

  def maximum(self):
    if not self.pairs:
      return None
    xs = frozenset.intersection(*(w.xsub for w in self.pairs))
    ks = frozenset.union(*(w.ykernel for w in self.pairs))
    top = WindowPair(xs, ks)
    return top if top in self._members else None


def admissible_subs(X, pred):
  """Subobject sets S ⊆ X whose cokernel X/S lies in C, in lattice order.

  Filtered from X's kept subobject masks, one frozenset at a time, by
  ``pred.contains_quotient``, which builds X/S only under ``explicit``.
  The list is kept with X's window halves, so X's
  lattice is walked once and each S decided once per predicate, whatever
  the number of callers.
  """
  return list(_window_half(X, pred, 2))


def admissible_kernels(Y, pred):
  """Subobject sets K ⊆ Y lying in C (kernels of admissible epics Y ↠ Y/K),
  in lattice order; filtered by ``pred.contains_sub`` and kept as
  ``admissible_subs`` is."""
  return list(_window_half(Y, pred, 3))


def index_poset(X, Y, pred):
  pairs = [WindowPair(s, k)
           for s in admissible_subs(X, pred)
           for k in admissible_kernels(Y, pred)]
  return IndexPoset(X, Y, pred, pairs)


class FilterReport:
  def __init__(self, ok, witness=None):
    self.ok = ok
    self.witness = witness

  def __bool__(self):
    return self.ok

  def __repr__(self):
    return "filtered" if self.ok else f"not filtered: no bound for {self.witness}"


def check_filtered(poset):
  """Does every pair of windows have an upper bound in the poset?

  (The parallel-arrow condition is vacuous in a poset.)  A finite poset is
  filtered exactly when it has at most one maximal element; otherwise the
  report carries two distinct maximal elements, which have no upper bound.
  """
  maximal = []
  for w in poset.pairs:
    if not any(poset.leq(w, m) for m in maximal):
      maximal = [m for m in maximal if not poset.leq(m, w)] + [w]
  if len(maximal) > 1:
    return FilterReport(False, tuple(maximal[:2]))
  return FilterReport(True)


def _window_half(X, pred, side):
  """X's source half (side 0: X′'s carrier, X′), target half (side 1:
  K, X/K), admissible subobjects (side 2) or admissible kernels (side 3)
  under pred, kept in X's derived-data slot.  The key's weak reference
  lets neither pin the other, even when an explicit pred lists X.
  """
  kept = X._kept().windows
  key = (side, weakref.ref(pred))
  half = kept.get(key)
  if half is None:
    if side == 0:
      dense = _dense_set(X, pred)
      half = dense, X._sub_object(dense)
    elif side == 1:
      kernel = _kernel_set(X, pred)
      half = kernel, X._quotient_object(kernel)
    else:
      # the lattice's sets are closed by construction, so pred decides each
      # on X's carrier.  A list, not tuple(generator): that tuple is
      # allocated at one size and freed at another, so CPython's tuple free
      # lists would keep growing
      test = pred.contains_quotient if side == 2 else pred.contains_sub
      half = [s for s in X._sets_of(X._masks()) if test(X, s)]
    kept[key] = half
  return half


def minimal_dense_sub(X, pred):
  """The smallest subobject of X with cokernel in C.

  It is ∗ and every x with X/U_x ∉ C, where U_x = {∗} ∪ {y : x ∉ orbit(y)}
  is the largest subobject missing x: X/U_x is a quotient of X/S for every
  S missing x, so by quotient closure exactly these x (orbits included) lie
  in every admissible S.  Subobject and extension closure make it admissible.
  """
  return _window_half(X, pred, 0)[0]


def _dense_set(X, pred):
  # U_x and every union of orbits are action-closed by construction, so
  # pred decides their quotients on X's carrier
  orbits = {x: X.orbit(x) for x in X.nonbase()}
  out = frozenset({X.base})
  for x in orbits:
    u_x = {X.base} | {y for y, o in orbits.items() if x not in o}
    if x not in out and not pred.contains_quotient(X, u_x):
      out |= orbits[x]
  if not pred.contains_quotient(X, out):
    raise PredicateClosureError(f"the predicate is not Serre: the cokernel "
                                f"of {sorted(out, key=str)} is not in C")
  return out


def maximal_kernel(Y, pred):
  """The largest subobject of Y in C: ∗ and every orbit(y) whose cyclic
  subobject lies in C.  By subobject closure nothing else lies in a kernel
  in C; by extension and quotient closure the union of these lies in C.
  """
  return _window_half(Y, pred, 1)[0]


def _kernel_set(Y, pred):
  # cyclic subobjects and their unions are action-closed by construction
  out = frozenset({Y.base})
  for y in Y.nonbase():
    cyclic = Y.orbit(y)
    if y not in out and pred.contains_sub(Y, cyclic):
      out |= cyclic
  if not pred.contains_sub(Y, out):
    raise PredicateClosureError(f"the predicate is not Serre: the kernel "
                                f"{sorted(out, key=str)} is not in C")
  return out


def _dense_sub(X, pred):
  """X′, the subobject on ``minimal_dense_sub(X, pred)``."""
  return _window_half(X, pred, 0)[1]


def _collapsed(Y, pred):
  """Y″, the quotient of Y by ``maximal_kernel(Y, pred)``."""
  return _window_half(Y, pred, 1)[1]


def canonical_window(X, Y, pred):
  return WindowPair(minimal_dense_sub(X, pred), maximal_kernel(Y, pred))


def reduced_object(X, pred):
  """X′/K, with X′ = minimal_dense_sub(X) and K = maximal_kernel(X′): the
  quotient half of X′, memoised with it.

  X ≅ Y in M/C exactly when their reduced objects are isomorphic A-sets:

  1. X ≅ X′/K in M/C: the dense inclusion X′ ↪ X and the projection
     X′ ↠ X′/K, whose kernel is in C, are both invertible in M/C.
  2. X′ has no proper dense subobject: if X′/S ∈ C, then X/S is an
     extension of X/X′ by X′/S, so X/S ∈ C and S ⊇ X′.  Hence X′/K has none
     either (a dense S/K would make S dense in X′).
  3. X′/K has no nonzero subobject in C: the preimage in X′ of one is an
     extension of it by K, so the preimage lies in C, hence inside K.
  4. So the canonical window between two reduced objects is trivial: their
     M/C maps, composites and identities are plain A-set maps, and an M/C
     isomorphism between them is an A-set isomorphism.
  """
  return _collapsed(_dense_sub(X, pred), pred)


# -------------------------------------------------------------- quotient homs


class QuotientHom:
  """A morphism of M/C: a map X′ → Y″ between the kept window halves.

  The canonical window is the maximum of the window poset, so every germ
  has exactly one representative there: a map from the source half that
  ``source`` keeps under pred to the target half that ``target`` keeps, or,
  for a map built outside the library, between objects with their carriers.
  The constructor refuses any other representative; ``from_window``
  canonicalizes one given at a coarser window, and ``_trusted``, for the
  reps built inside, checks nothing.
  """

  __slots__ = ("source", "target", "pred", "rep")

  def __init__(self, source, target, pred, rep):
    sub, quo = _dense_sub(source, pred), _collapsed(target, pred)
    if not ((rep.source is sub or rep.source.same_carrier(sub))
            and (rep.target is quo or rep.target.same_carrier(quo))):
      raise InvalidStructure(
          "representative is not a map X′ → Y″ at the canonical window")
    self.source = source
    self.target = target
    self.pred = pred
    self.rep = rep

  @classmethod
  def _trusted(cls, source, target, pred, rep):
    """A morphism whose rep the caller guarantees is a map X′ → Y″."""
    self = object.__new__(cls)
    self.source, self.target, self.pred, self.rep = source, target, pred, rep
    return self

  @property
  def window(self):
    return canonical_window(self.source, self.target, self.pred)

  @classmethod
  def from_window(cls, source, target, pred, window, m):
    """Canonicalize a representative m: X_w′ → Y_w″ given at ``window``."""
    dense, sub = _window_half(source, pred, 0)
    kernel, quo = _window_half(target, pred, 1)
    if not WindowPair(dense, kernel).refines(window):
      raise InvalidStructure("window does not refine to the canonical window")
    rep = ASetMap(sub, quo, _canonical_mapping(m, sub, kernel, target.base))
    return cls._trusted(source, target, pred, rep)

  @classmethod
  def from_ambient(cls, f, pred):
    """The image of an honest A-set map f: X → Y under the quotient functor.

    Its rep is f restricted to X′ and followed by Y ↠ Y″: a composite of
    morphisms, so it is built unchecked.  f sits at the trivial window
    (X, ∗), which every window refines, so no refinement is checked
    either.  The window halves still raise ``PredicateClosureError`` for
    a predicate that is not Serre.
    """
    source, target = f.source, f.target
    sub = _dense_sub(source, pred)
    kernel, quo = _window_half(target, pred, 1)
    rep = ASetMap._trusted(sub, quo,
                           _canonical_mapping(f, sub, kernel, target.base))
    return cls._trusted(source, target, pred, rep)

  def is_zero(self):
    return all(v == self.rep.target.base for v in self.rep.mapping.values())

  def __eq__(self, other):
    return (isinstance(other, QuotientHom)
            and self.pred == other.pred
            and self.source.same_carrier(other.source)
            and self.target.same_carrier(other.target)
            and self.rep.mapping == other.rep.mapping)

  def __hash__(self):
    return hash(frozenset(self.rep.mapping.items()))

  def __repr__(self):
    mapping, window = self.rep.mapping, self.window
    pairs = ", ".join(f"{x}->{mapping[x]}" for x in sorted(mapping, key=str))
    return (f"QuotientHom({sorted(window.xsub, key=str)} -> "
            f"{self.target.name or 'target'}/{sorted(window.ykernel, key=str)}"
            f": {pairs})")


def _canonical_mapping(m, sub, kernel, base):
  """m on X′ = ``sub``, with every image in the canonical kernel sent to ∗.

  m lands in a quotient of Y by a smaller kernel, whose survivors keep
  their names and whose basepoint is Y's; Y″ collapses the rest of the
  kernel.
  """
  raw = m.mapping
  return {x: base if raw[x] in kernel else raw[x] for x in sub.elements}


def identity_quotient(X, pred):
  return QuotientHom.from_ambient(identity_map(X), pred)


def hom_quotient(X, Y, pred):
  """All morphisms X → Y in M/C: the literal hom-set at the canonical window,
  in ``hom_maps``' order (lexicographic in the images, by carrier order)."""
  return [QuotientHom._trusted(X, Y, pred, m)
          for m in hom_maps(_dense_sub(X, pred), _collapsed(Y, pred))]


def _composite(sub, raw, n):
  """The mapping of m followed by n, for reps m: X′ → Y″ and n: Y′ → Z″,
  with m given as its source X′ = ``sub`` and its mapping ``raw``: the
  only parts of m read, so a caller with a mapping in hand wraps no map.

  The composite of canonical representatives is computed by restriction to
  D = m⁻¹(Y′ ∩ Y″) and descent of n; minimality of the canonical
  subobject forces D to be X′ again, so the result needs no further
  normalization.  As m lands in Y″, D is all of X′ exactly when m lands in
  Y′.  That, and the equivariance of the composite (each square, generator
  by generator, in the order ``ASetMap`` checks them), are the two checks
  that can fail, both only under a predicate that is not Serre; each
  raises ``PredicateClosureError``.  The carriers and the basepoint hold
  by construction.
  """
  y_sub = n.source._element_set                    # Y′
  if not y_sub.issuperset(raw.values()):
    domain = sorted((x for x in sub.elements if raw[x] in y_sub), key=str)
    raise PredicateClosureError(
        "composite window is not admissible: the predicate fails closure "
        f"at domain {domain}")
  images = n.mapping
  mapping = {x: images[raw[x]] for x in sub.elements}
  action = n.target.action
  for g, gmap in sub.action.items():
    tmap = action[g]
    for x in sub.elements:
      if mapping[gmap[x]] != tmap[mapping[x]]:
        raise PredicateClosureError(
            "composite representative is not equivariant (map is not "
            f"equivariant at generator {g!r}, element {x!r}); "
            "the predicate fails Serre closure")
  return mapping


def compose_quotient(f, g):
  """g ∘ f for f: X → Y, g: Y → Z in M/C (diagrammatic argument order).

  The rep is ``_composite`` of f's and g's, built unchecked.  The canonical
  window of (X, Z) is f's source half with g's target half.  No half is
  looked up: X′ and Y″ are the source and target of f's rep, and Y′ is
  the source of g's.
  """
  if not f.target.same_carrier(g.source) or f.pred != g.pred:
    raise InvalidStructure("quotient morphisms do not compose")
  m = f.rep
  rep = ASetMap._trusted(m.source, g.rep.target,
                         _composite(m.source, m.mapping, g.rep))
  return QuotientHom._trusted(f.source, g.target, f.pred, rep)


def _inverse(f):
  """f's two-sided inverse in M/C, or None.  Inverses are unique and each
  germ has one rep at the canonical window, so the search reads
  ``iter_hom_maps`` only up to the first map Y′ → X″ whose composites with
  f's rep are the identities' reps, and wraps only that one."""
  X, Y, pred = f.source, f.target, f.pred
  ident_s = identity_quotient(X, pred).rep.mapping
  ident_t = identity_quotient(Y, pred).rep.mapping
  m = f.rep
  for g in iter_hom_maps(_dense_sub(Y, pred), _collapsed(X, pred)):
    if (_composite(m.source, m.mapping, g) == ident_s
        and _composite(g.source, g.mapping, m) == ident_t):
      return QuotientHom._trusted(Y, X, pred, g)
  return None


def is_iso_quotient(f):
  """Does f have a two-sided inverse in M/C?

  Under a predicate that is Serre by construction this is read off the kept
  window halves, with no search: f's rep m: X′ → Y″ is invertible exactly
  when it sends X′ ∩ K(X) to ∗ and maps X′ ∖ K(X) one-to-one onto
  Y′ ∖ K(Y), that is, when it induces an A-set isomorphism
  red(X) → red(Y) (the module docstring has the proof).  Under an
  ``explicit`` list, which may not be Serre, the inverse is searched for
  (``_inverse``), and its composites raise ``PredicateClosureError`` where
  closure fails.
  """
  pred = f.pred
  if not pred.serre_by_construction:
    return _inverse(f) is not None
  base, x_kernel = f.target.base, maximal_kernel(f.source, pred)
  live = []
  for x, y in f.rep.mapping.items():
    if x not in x_kernel:
      live.append(y)
    elif y != base:
      return False
  image = set(live)
  return len(image) == len(live) and image == (
      minimal_dense_sub(f.target, pred) - maximal_kernel(f.target, pred))


def monic_representative(f):
  """An injective representative of an iso, split by an honest retraction.

  Searches the window poset (coarsest subobject first) for a representative
  m: X′ → Y″ of f that is injective and admits p: Y″ → X′ with p ∘ m = id.
  Each window's X′ and Y″ are built unchecked (the window's sets are
  admissible by construction) and only for the windows tried; both
  searches stop at their witness.
  """
  if not is_iso_quotient(f):
    raise NotIso("monic_representative needs an isomorphism of M/C")
  kernel = maximal_kernel(f.target, f.pred)
  windows = sorted(index_poset(f.source, f.target, f.pred).pairs,
                   key=lambda w: (-len(w.xsub), len(w.ykernel)))
  for w in windows:
    sub = f.source._sub_object(w.xsub)
    quo = f.target._quotient_object(w.ykernel)
    for m in iter_hom_maps(sub, quo):
      if not m.is_injective() or _canonical_mapping(
          m, f.rep.source, kernel, f.target.base) != f.rep.mapping:
        continue
      if any(all(p(m(x)) == x for x in sub.elements)
             for p in iter_hom_maps(quo, sub)):
        return m
  raise NotIso("no retract representative found in the finite window poset")


# ------------------------------------------------------------- condition (W)


def _iso_candidates(V, pred):
  """Objects (X, φ) with φ: X → V invertible in M/C, from the window moves.

  Three families: dense subobjects (φ the inclusion), quotients by kernels
  in C (φ the inverse of the projection), and wedges with a C-object (φ the
  collapse).  The sets are V's admissible lists, closed by construction,
  so each S, V/K and K is built once here, unchecked, and only where it is
  used; so are the inclusion, the projection and the collapse W → V (T's
  copy is action-closed in W), all morphisms.

  Under a predicate that is Serre by construction each candidate inherits
  its window halves from V's, written into its slot (``_keep_halves``), so
  neither ``_dense_set`` nor ``_kernel_set`` runs for it.  With V′ and K(V)
  V's halves, by closure under subobjects, quotients and extensions:

  - S with V/S ∈ C: S′ = V′, the same object, since V′ ⊆ S and a T dense
    in S is dense in V (V/T is an extension of V/S by S/T); K(S) =
    K(V) ∩ S, as K(S) is a subobject of V in C and K(V) ∩ S one of K(V).
  - Q = V/k with k ∈ C: Q′ = (V′ ∖ k) ∪ {∗}, the image of V′, since Q/Q′ is
    a quotient of V/V′ and a T dense in Q has T ∪ k dense in V
    (V/(T ∪ k) = Q/T); K(Q) = (K(V) ∖ k) ∪ {∗}, as the preimage of a
    subobject of Q in C is an extension of it by k; and Q″ = V/K(V) is
    V″'s object, as k ⊆ K(V).
  - W = V ∨ T: W′ = ι_V(V′), since W/W′ is an extension of V/V′ by T and
    a dense S in W meets ι_V(V) in a dense subobject of V (a subobject of
    W/S is V/(S ∩ V)); K(W) = ι_V(K(V)) ∪ ι_T(T), an extension of K(V) by
    T that holds each subobject L of W in C, as L ∩ ι_V(V) lies in C.

  The inverse of V ↠ Q = V/k is then written down, not searched for: it
  is the germ of Q's identity read as a map Q → V/k at the window (Q, k),
  and as Q″ is V″, its rep is Q's identity rep, x ↦ x on Q′ with K(V) sent
  to ∗.  Under an ``explicit`` list, which may not be closed, no half is
  inherited, the inverse is searched for (``_inverse``), and a projection
  with no inverse gives no candidate.
  """
  inherit = pred.serre_by_construction
  if inherit:
    dense, sub = _window_half(V, pred, 0)
    kernel, quo = _window_half(V, pred, 1)
  cands = []
  for s in admissible_subs(V, pred):
    S = V._sub_object(s)
    if inherit:
      s_kernel = kernel & s
      _keep_halves(S, pred, (dense, sub),
                   (s_kernel, S._quotient_object(s_kernel)))
    incl = ASetMap._trusted(S, V, {x: x for x in S.elements})
    cands.append((S, QuotientHom.from_ambient(incl, pred)))
  kernels = admissible_kernels(V, pred)
  base = V.base
  for k in kernels:
    Q = V._quotient_object(k)
    if inherit:
      q_dense = (dense - k) | {base}
      _keep_halves(Q, pred, (q_dense, Q._sub_object(q_dense)),
                   ((kernel - k) | {base}, quo))
      g = QuotientHom._trusted(Q, V, pred, identity_quotient(Q, pred).rep)
    else:
      g = _inverse(QuotientHom.from_ambient(ASetMap._trusted(
          V, Q, {x: base if x in k else x for x in V.elements}), pred))
    if g is not None:
      cands.append((Q, g))
  for k in kernels:
    if len(k) == 1:
      continue
    T = V._sub_object(k)
    W, inc_v, inc_t = wedge(V, T)
    if inherit:
      w_dense = frozenset([inc_v(x) for x in dense])
      w_kernel = frozenset([inc_v(x) for x in kernel] + [inc_t(t) for t in k])
      _keep_halves(W, pred, (w_dense, W._sub_object(w_dense)),
                   (w_kernel, W._quotient_object(w_kernel)))
    collapse = {inc_v(x): x for x in V.elements}
    collapse.update({inc_t(t): base for t in T.elements})
    cands.append((W, QuotientHom.from_ambient(
        ASetMap._trusted(W, V, collapse), pred)))
  return cands


def _keep_halves(X, pred, source, target):
  """Write X's source half (X′'s carrier, X′) and target half (K, X/K)
  under pred into X's slot, where ``_window_half`` finds them; the
  carrier and K are frozensets."""
  kept = X._kept().windows
  ref = weakref.ref(pred)
  kept[0, ref], kept[1, ref] = source, target


def _arrow_images(a, b, kernel):
  """The images an arrow a → b may give each nonbase x of Xa, for the
  candidates a = (Xa, pa) and b = (Xb, pb), with ``kernel`` = K(Xb).

  An arrow u has pb ∘ u = pa in M/C: pb's rep sends u(x), read in Xb″
  (K(Xb) sent to ∗), to pa's rep of x, for each x of Xa′.  So x of Xa′
  may go only to those y; any other x may go anywhere.  Each list keeps
  ``Xb.elements``' order.
  """
  (Xa, pa), (Xb, pb) = a, b
  base, back = Xb.base, pb.rep.mapping
  fibres = {}
  for y in Xb.elements:
    canon = base if y in kernel else y
    if canon in back:
      fibres.setdefault(back[canon], []).append(y)
  want = pa.rep.mapping
  return {x: fibres.get(want[x], []) if x in want else Xb.elements
          for x in Xa.nonbase()}


def check_condition_w(V, pred, pair_bound=40):
  """Is the category of M/C-isomorphs over V filtered? (finite check)

  Verifies (a) sampled pairs of candidate objects admit a common bound
  receiving honest maps compatible with the structure isos, and (b) sampled
  parallel pairs admit a weak coequalizer, built as the genuine coequalizer
  in M and verified to remain invertible over V.  An arrow a → b is an
  honest map u with pb ∘ u = pa in M/C; it is tested on the reps' dicts
  (``_composite``), and the maps u are enumerated only as far as the
  search reads.

  Under a predicate that is Serre by construction the candidates inherit
  V's window halves (``_iso_candidates``) and no inverse is searched for:
  ``_iso_candidates`` writes the structure isos down, and
  ``is_iso_quotient`` reads each projection's invertibility off the window
  halves.  An arrow search there tries for each x of Xa′ only the images
  that ``pb ∘ u = pa`` allows (``_arrow_images``), so every map it reads is
  an arrow, in the order of the full search.  Under an ``explicit`` list it
  reads the whole hom-set in order: there C may not be closed, and a map
  the constraint would skip may be the one whose composite raises
  ``PredicateClosureError`` before the first arrow.

  Part (b) judges each (target candidate, projection) once per call: pairs
  that coequalize to the same projection out of the same candidate ask one
  question, and Q is built only for a new projection.
  """
  cands = _iso_candidates(V, pred)

  def arrows(a, b):
    # u's image in M/C has the rep u on Xa′ followed by Xb ↠ Xb″: Xa′ is
    # pa's source, and Xb's target half is read once per pair
    (Xa, pa), (Xb, pb) = a, b
    sub, want = pa.rep.source, pa.rep.mapping
    kernel = maximal_kernel(Xb, pred)
    if pred.serre_by_construction:
      maps = iter_maps_within(Xa, Xb, _arrow_images(a, b, kernel))
    else:
      maps = iter_hom_maps(Xa, Xb)
    for u in maps:
      if _composite(sub, _canonical_mapping(u, sub, kernel, Xb.base),
                    pb.rep) == want:
        yield u

  reaches = {}

  def reach(a, c):
    """Is there some arrow cands[a] → cands[c]?  Decided once per call."""
    if (a, c) not in reaches:
      reaches[a, c] = next(arrows(cands[a], cands[c]), None) is not None
    return reaches[a, c]

  # (a) upper bounds
  for a, b in itertools.islice(
      itertools.combinations(range(len(cands)), 2), pair_bound):
    if not any(reach(a, c) and reach(b, c) for c in range(len(cands))):
      return False

  # (b) weak coequalizers; a projection out of b already judged is not
  # judged again, nor its Q built
  checked = 0
  judged = set()
  for a, b in itertools.combinations(range(len(cands)), 2):
    if checked >= pair_bound:
      break
    pair = list(itertools.islice(arrows(cands[a], cands[b]), 2))
    if len(pair) < 2:
      continue
    checked += 1
    u, v = pair
    classes = coequalizer_classes(u, v)
    key = (b, frozenset(classes[0].items()))
    if key in judged:
      continue
    _, proj = coequalizer(u, v, classes)
    if not is_iso_quotient(QuotientHom.from_ambient(proj, pred)):
      return False
    judged.add(key)
  return True


# ------------------------------------------------- quotient vs. localization


def _periodic_part(X):
  step = X.action["t"]
  periodic = set()
  for x in X.nonbase():
    y = x
    for _ in range(len(X.elements)):
      y = step[y]
    # y is now on the eventual cycle of x; x is periodic iff x is reachable
    z = y
    for _ in range(len(X.elements)):
      if z == x:
        periodic.add(x)
        break
      z = step[z]
  sub, _ = X.sub_aset(periodic | {X.base})
  return sub


def localized_hom_count(X, Y, z_labels):
  """Morphism count after restricting to the complement of the primes in Z.

  Over ℕ with Z = {(t)} this inverts t: both sets retract onto their
  periodic parts, where t acts bijectively, and equivariant pointed maps
  are counted there by brute force — a pipeline fully independent of the
  window machinery.
  """
  z = frozenset(z_labels)
  if not z:
    return len(hom_maps(X, Y))
  if isinstance(X.monoid, NatMonoid):
    all_labels = {p.label for p in X.monoid.primes()}
    if z == all_labels:
      return 1
    if z == {"(t)"}:
      return len(hom_maps(_periodic_part(X), _periodic_part(Y)))
    raise Undecidable(f"no localization model for Z = {sorted(z)} over N")
  all_labels = {p.label for p in X.monoid.primes()}
  if z == all_labels:
    return 1
  raise Undecidable(
      f"no independent localization model for Z = {sorted(z)} over "
      f"{X.monoid.name}")


class EquivalenceReport:
  def __init__(self, monoid, z_labels, rows):
    self.monoid = monoid
    self.z_labels = sorted(z_labels)
    self.rows = rows

  @property
  def mismatches(self):
    return [r for r in self.rows if r["quotient_homs"] != r["localized_homs"]]

  @property
  def ok(self):
    return not self.mismatches

  def __bool__(self):
    return self.ok

  def to_json(self):
    return {"schema_version": 1,
            "monoid": getattr(self.monoid, "name", "?"),
            "z": self.z_labels,
            "pairs": len(self.rows),
            "mismatches": len(self.mismatches),
            "rows": self.rows}

  def __str__(self):
    head = (f"quotient vs localization over {getattr(self.monoid, 'name', '?')}"
            f", Z = {self.z_labels}: {len(self.rows)} pairs, "
            f"{len(self.mismatches)} mismatch(es)")
    lines = [head]
    for r in self.mismatches:
      lines.append(f"  MISMATCH {r['X']} -> {r['Y']}: "
                   f"{r['quotient_homs']} vs {r['localized_homs']}")
    return "\n".join(lines)


def quotient_equivalence_report(monoid, z_labels, corpus=None):
  """Compare |Hom_{M/C}| with the localized hom count over a corpus.

  C is the support-in-Z subcategory; the localized side is computed by the
  independent model in ``localized_hom_count``.
  """
  if corpus is None:
    from .corpora import all_nsets
    if not isinstance(monoid, NatMonoid):
      raise Undecidable("a corpus must be supplied for finite monoids")
    corpus = all_nsets(4)
  pred = SerrePredicate.support_in(monoid, z_labels)
  rows = []
  for X, Y in itertools.product(corpus, corpus):
    q = len(hom_quotient(X, Y, pred))
    loc = localized_hom_count(X, Y, z_labels)
    rows.append({"X": X.name or "?", "Y": Y.name or "?",
                 "quotient_homs": q, "localized_homs": loc})
  return EquivalenceReport(monoid, z_labels, rows)
