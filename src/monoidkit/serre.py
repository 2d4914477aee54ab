"""Serre subcategories of finite A-sets and the quotient category M/C.

A Serre subcategory is given by a *predicate* (support condition, torsion
condition, finite length, or an explicit iso-closed list).  The quotient
category has the same objects; a morphism X → Y is a germ of maps X′ → Y″
over the poset of windows (X′ ↪ X with cokernel in C, Y ↠ Y″ with kernel in
C).  The poset is finite and filtered with a maximum — the canonical window
(smallest admissible X′, most-collapsed Y″) — so hom-sets are computed there
and germ equality is literal equality after refining to it.  Closure of C
under subobjects, quotients and extensions gives that maximum one element at
a time: X′ is ∗ and each x with X/U_x ∉ C (U_x the largest subobject missing
x), and Y″ collapses each orbit whose cyclic subobject lies in C.
"""

from __future__ import annotations

import itertools

from .asets import (ASetMap, FiniteASet, aset_length, coequalizer,
                    exact_seq_from_sub, hom_maps, identity_map, is_rooted_tree,
                    point_aset, product, support, wedge)
from .errors import (InvalidStructure, NotIso, PredicateClosureError,
                     Undecidable)
from .monoids import NatMonoid, ValidationReport


class SerrePredicate:
  """Membership test for a would-be Serre subcategory.

  kinds: ``support_in`` (support contained in a set of primes, by label),
  ``torsion`` (every element killed by the multiplicative set), ``finite_length``,
  ``explicit`` (isomorphic to a listed object).  Predicates are data: the four
  kinds make closure checking decidable.
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
    """The zero subcategory: only the point."""
    return cls.explicit(monoid, [point_aset(monoid)])

  @classmethod
  def everything(cls, monoid):
    return cls(monoid, "support_in",
               primes=[p.label for p in monoid.primes()])

  # -- membership -------------------------------------------------------------

  def contains(self, X):
    if self.kind == "support_in":
      return all(p.label in self.primes for p in support(X))
    if self.kind == "torsion":
      return self._is_torsion(X)
    if self.kind == "finite_length":
      return aset_length(X) is not None
    return any(X.is_isomorphic(W) for W in self.objects)

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

  def _is_torsion(self, X):
    if isinstance(self.monoid, NatMonoid):
      if tuple(self.mult_set) != ("t",):
        raise Undecidable("torsion over N supports the multiplicative set {t}")
      return is_rooted_tree(X)
    closure = self._mult_closure()
    table = X.full_action()
    return all(any(table[s][x] == X.base for s in closure)
               for x in X.nonbase())

  def __eq__(self, other):
    return (isinstance(other, SerrePredicate)
            and self.kind == other.kind
            and self.primes == other.primes
            and self.mult_set == other.mult_set
            and len(self.objects) == len(other.objects)
            and all(a.is_isomorphic(b)
                    for a, b in zip(self.objects, other.objects))
            and type(self.monoid) is type(other.monoid))

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


def validate_serre(pred, universe):
  """Closure report for a predicate over a subquotient-closed universe.

  Checks the two-out-of-three law on every exact sequence with middle object
  in the universe (which subsumes closure under subobjects and quotients),
  closure under binary products of members, and — for torsion predicates —
  cross-checks membership against the direct element-killing test.
  """
  v = []
  for X in universe:
    mid = pred.contains(X)
    for s in X.subobject_sets():
      seq = exact_seq_from_sub(X, s)
      ends = pred.contains(seq.sub) and pred.contains(seq.quotient)
      if mid != ends:
        v.append(f"two-out-of-three fails at {X.name or X.elements}"
                 f" with subobject {sorted(s)}: middle {mid}, ends {ends}")
  members = [X for X in universe if pred.contains(X)]
  for A, B in itertools.combinations_with_replacement(members, 2):
    P, _, _ = product(A, B)
    if not pred.contains(P):
      v.append(f"not closed under product of {A.name} and {B.name}")
  if pred.kind == "support_in" and isinstance(pred.monoid, NatMonoid) \
      and pred.primes == {"(t)"}:
    # membership should coincide with plain t-torsion
    for X in universe:
      step = X.action["t"]
      dies = all(_orbit_dies(step, x, X.base) for x in X.nonbase())
      if pred.contains(X) != dies:
        v.append(f"support membership disagrees with torsion test at {X.name}")
  return ValidationReport(repr(pred), v)


def _orbit_dies(step, x, base):
  for _ in range(len(step) + 1):
    x = step[x]
    if x == base:
      return True
  return False


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
    return f"WindowPair(sub={sorted(self.xsub)}, kernel={sorted(self.ykernel)})"


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
    xs = frozenset.intersection(*(w.xsub for w in self.pairs))
    ks = frozenset.union(*(w.ykernel for w in self.pairs))
    top = WindowPair(xs, ks)
    return top if top in self._members else None


def admissible_subs(X, pred):
  """Subobject sets S ⊆ X whose cokernel X/S lies in C."""
  out = []
  for s in X.subobject_sets():
    quo, _ = X.quotient_by(s)
    if pred.contains(quo):
      out.append(s)
  return out


def admissible_kernels(Y, pred):
  """Subobject sets K ⊆ Y lying in C (kernels of admissible epics Y ↠ Y/K)."""
  out = []
  for s in Y.subobject_sets():
    sub, _ = Y.sub_aset(s)
    if pred.contains(sub):
      out.append(s)
  return out


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
  """Every pair of windows must have an upper bound in the poset.

  (The parallel-arrow condition is vacuous in a poset.)  Returns a report
  carrying the offending pair on failure.
  """
  for a, b in itertools.combinations(poset.pairs, 2):
    if not any(poset.leq(a, w) and poset.leq(b, w) for w in poset.pairs):
      return FilterReport(False, (a, b))
  return FilterReport(True)


def minimal_dense_sub(X, pred):
  """The smallest subobject of X with cokernel in C.

  It is ∗ and every x with X/U_x ∉ C, where U_x = {∗} ∪ {y : x ∉ orbit(y)}
  is the largest subobject missing x: X/U_x is a quotient of X/S for every
  S missing x, so by quotient closure exactly these x (orbits included) lie
  in every admissible S.  Subobject and extension closure make it admissible.
  """
  orbits = {x: X.orbit(x) for x in X.nonbase()}
  out = frozenset({X.base})
  for x in orbits:
    u_x = [X.base] + [y for y, o in orbits.items() if x not in o]
    if x not in out and not pred.contains(X.quotient_by(u_x)[0]):
      out |= orbits[x]
  quo, _ = X.quotient_by(out)
  if not pred.contains(quo):
    raise PredicateClosureError(f"the predicate is not Serre: the cokernel "
                                f"of {sorted(out)} is not in C")
  return out


def maximal_kernel(Y, pred):
  """The largest subobject of Y in C: ∗ and every orbit(y) whose cyclic
  subobject lies in C.  By subobject closure nothing else lies in a kernel
  in C; by extension and quotient closure the union of these lies in C.
  """
  out = frozenset({Y.base})
  for y in Y.nonbase():
    cyclic = Y.orbit(y)
    if y not in out and pred.contains(Y.sub_aset(cyclic)[0]):
      out |= cyclic
  sub, _ = Y.sub_aset(out)
  if not pred.contains(sub):
    raise PredicateClosureError(f"the predicate is not Serre: the kernel "
                                f"{sorted(out)} is not in C")
  return out


def canonical_window(X, Y, pred):
  return WindowPair(minimal_dense_sub(X, pred), maximal_kernel(Y, pred))


# -------------------------------------------------------------- quotient homs


class QuotientHom:
  """A morphism of M/C, given at the canonical window of (source, target)."""

  __slots__ = ("source", "target", "pred", "window", "sub", "quo", "rep")

  def __init__(self, source, target, pred, rep, window):
    self.source = source
    self.target = target
    self.pred = pred
    self.window = window
    self.sub, _ = source.sub_aset(self.window.xsub)
    self.quo, _ = target.quotient_by(self.window.ykernel)
    if not rep.source.same_carrier(self.sub) or \
       not rep.target.same_carrier(self.quo):
      raise InvalidStructure("representative does not live at the window")
    self.rep = rep

  @classmethod
  def from_window(cls, source, target, pred, window, mapping_or_map):
    """Canonicalize a representative given at an arbitrary window."""
    can = canonical_window(source, target, pred)
    if not can.refines(window):
      raise InvalidStructure("window does not refine to the canonical window")
    raw = (mapping_or_map.mapping if isinstance(mapping_or_map, ASetMap)
           else dict(mapping_or_map))
    sub, _ = source.sub_aset(can.xsub)
    quo, proj = target.quotient_by(can.ykernel)
    wquo, _ = target.quotient_by(window.ykernel)
    mapping = {}
    for x in sub.elements:
      y = raw[x]
      mapping[x] = quo.base if y == wquo.base else proj(y)
    rep = ASetMap(sub, quo, mapping)
    return cls(source, target, pred, rep, can)

  @classmethod
  def from_ambient(cls, f, pred):
    """The image of an honest A-set map under the quotient functor."""
    trivial = WindowPair(frozenset(f.source.elements),
                         frozenset({f.target.base}))
    return cls.from_window(f.source, f.target, pred, trivial, f)

  def is_zero(self):
    return all(v == self.quo.base for v in self.rep.mapping.values())

  def __eq__(self, other):
    return (isinstance(other, QuotientHom)
            and self.pred == other.pred
            and self.source.same_carrier(other.source)
            and self.target.same_carrier(other.target)
            and self.rep.mapping == other.rep.mapping)

  def __hash__(self):
    return hash(frozenset(self.rep.mapping.items()))

  def __repr__(self):
    pairs = ", ".join(f"{x}->{y}" for x, y in sorted(self.rep.mapping.items()))
    return (f"QuotientHom({sorted(self.window.xsub)} -> "
            f"{self.target.name or 'target'}/{sorted(self.window.ykernel)}"
            f": {pairs})")


def identity_quotient(X, pred):
  return QuotientHom.from_ambient(identity_map(X), pred)


def zero_quotient(X, Y, pred):
  w = canonical_window(X, Y, pred)
  sub, _ = X.sub_aset(w.xsub)
  quo, _ = Y.quotient_by(w.ykernel)
  zero = ASetMap(sub, quo, {x: quo.base for x in sub.elements})
  return QuotientHom(X, Y, pred, zero, w)


def hom_quotient(X, Y, pred):
  """All morphisms X → Y in M/C: the literal hom-set at the canonical window."""
  w = canonical_window(X, Y, pred)
  sub, _ = X.sub_aset(w.xsub)
  quo, _ = Y.quotient_by(w.ykernel)
  out = [QuotientHom(X, Y, pred, m, w) for m in hom_maps(sub, quo)]
  out.sort(key=lambda f: sorted(f.rep.mapping.items()))
  return out


def hom_quotient_naive(X, Y, pred):
  """Oracle: germ count over ALL windows, identified by canonicalization.

  Every window's hom-set maps into the canonical one (restrict then project);
  the colimit cardinality is the number of distinct canonical images, since
  the canonical window is the poset maximum (cofinal).
  """
  seen = set()
  for w in index_poset(X, Y, pred).pairs:
    sub, _ = X.sub_aset(w.xsub)
    quo, _ = Y.quotient_by(w.ykernel)
    for m in hom_maps(sub, quo):
      canon = QuotientHom.from_window(X, Y, pred, w, m)
      seen.add(frozenset(canon.rep.mapping.items()))
  return len(seen)


def compose_quotient(f, g):
  """g ∘ f for f: X → Y, g: Y → Z in M/C (diagrammatic argument order).

  The composite of canonical representatives is computed by restriction to
  D = f⁻¹(image of Y′) and descent of g; minimality of the canonical
  subobject forces D to be the canonical subobject of X again, so the
  result needs no further normalization.  The canonical window of (X, Z)
  is f's source half with g's target half.
  """
  if not f.target.same_carrier(g.source) or f.pred != g.pred:
    raise InvalidStructure("quotient morphisms do not compose")
  y_sub = g.window.xsub          # canonical Y′ ⊆ Y
  visible = {f.quo.base} | (y_sub - f.window.ykernel)
  domain = frozenset(x for x in f.sub.elements
                     if f.rep(x) in visible)
  if domain != f.window.xsub:
    raise PredicateClosureError(
        "composite window is not admissible: the predicate fails closure "
        f"at domain {sorted(domain)}")
  mapping = {}
  for x in f.sub.elements:
    y = f.rep(x)
    mapping[x] = g.quo.base if y == f.quo.base else g.rep(y)
  try:
    rep = ASetMap(f.sub, g.quo, mapping)
  except InvalidStructure as err:
    raise PredicateClosureError(
        f"composite representative is not equivariant ({err}); "
        "the predicate fails Serre closure") from err
  return QuotientHom(f.source, g.target, f.pred, rep,
                     WindowPair(f.window.xsub, g.window.ykernel))


def _inverse(f):
  """f's two-sided inverse in M/C, or None."""
  ident_s = identity_quotient(f.source, f.pred)
  ident_t = identity_quotient(f.target, f.pred)
  for g in hom_quotient(f.target, f.source, f.pred):
    if compose_quotient(f, g) == ident_s and compose_quotient(g, f) == ident_t:
      return g
  return None


def is_iso_quotient(f):
  """Does f have a two-sided inverse in M/C?"""
  return _inverse(f) is not None


def monic_representative(f):
  """An injective representative of an iso, split by an honest retraction.

  Searches the window poset (coarsest subobject first) for a representative
  m: X′ → Y″ of f that is injective and admits p: Y″ → X′ with p ∘ m = id.
  """
  if not is_iso_quotient(f):
    raise NotIso("monic_representative needs an isomorphism of M/C")
  canon = f.rep.mapping
  poset = index_poset(f.source, f.target, f.pred)
  windows = sorted(poset.pairs,
                   key=lambda w: (-len(w.xsub), len(w.ykernel)))
  for w in windows:
    sub, _ = f.source.sub_aset(w.xsub)
    quo, _ = f.target.quotient_by(w.ykernel)
    for m in hom_maps(sub, quo):
      if not m.is_injective():
        continue
      if QuotientHom.from_window(f.source, f.target, f.pred, w, m).rep.mapping \
         != canon:
        continue
      for p in hom_maps(quo, sub):
        if all(p(m(x)) == x for x in sub.elements):
          return m
  raise NotIso("no retract representative found in the finite window poset")


# ------------------------------------------------------------- condition (W)


def _iso_candidates(V, pred):
  """Objects (X, φ) with φ: X → V invertible in M/C, from the window moves.

  Three families: dense subobjects (φ the inclusion), quotients by kernels
  in C (φ the inverse of the projection), and wedges with a C-object (φ the
  collapse).
  """
  cands = []
  for s in admissible_subs(V, pred):
    sub, incl = V.sub_aset(s)
    cands.append((sub, QuotientHom.from_ambient(incl, pred)))
  kernels = admissible_kernels(V, pred)
  for k in kernels:
    quo, proj = V.quotient_by(k)
    g = _inverse(QuotientHom.from_ambient(proj, pred))
    if g is not None:
      cands.append((quo, g))
  for k in kernels:
    if len(k) == 1:
      continue
    T, _ = V.sub_aset(k)
    W, inc_v, inc_t = wedge(V, T)
    collapse = {inc_v(x): x for x in V.elements}
    collapse.update({inc_t(t): V.base for t in T.elements})
    cands.append((W, QuotientHom.from_ambient(ASetMap(W, V, collapse), pred)))
  return cands


def check_condition_w(V, pred, pair_bound=40):
  """Is the category of M/C-isomorphs over V filtered? (finite check)

  Verifies (a) sampled pairs of candidate objects admit a common bound
  receiving honest maps compatible with the structure isos, and (b) sampled
  parallel pairs admit a weak coequalizer, built as the genuine coequalizer
  in M and verified to remain invertible over V.
  """
  cands = _iso_candidates(V, pred)

  def arrows(a, b):
    (Xa, pa), (Xb, pb) = a, b
    for u in hom_maps(Xa, Xb):
      if compose_quotient(QuotientHom.from_ambient(u, pred), pb) == pa:
        yield u

  # (a) upper bounds
  for a, b in itertools.islice(itertools.combinations(cands, 2), pair_bound):
    if not any(next(arrows(a, c), None) is not None
               and next(arrows(b, c), None) is not None
               for c in cands):
      return False

  # (b) weak coequalizers
  checked = 0
  for a, b in itertools.combinations(cands, 2):
    if checked >= pair_bound:
      break
    pair = list(itertools.islice(arrows(a, b), 2))
    if len(pair) < 2:
      continue
    checked += 1
    u, v = pair
    Q, proj = coequalizer(u, v)
    pq = QuotientHom.from_ambient(proj, pred)
    if not is_iso_quotient(pq):
      return False
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


def quotient_equivalence_report(monoid, z_labels, corpus=None, pair_bound=None):
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
  pairs = itertools.product(corpus, corpus)
  if pair_bound is not None:
    pairs = itertools.islice(pairs, pair_bound)
  for X, Y in pairs:
    q = len(hom_quotient(X, Y, pred))
    loc = localized_hom_count(X, Y, z_labels)
    rows.append({"X": X.name or "?", "Y": Y.name or "?",
                 "quotient_homs": q, "localized_homs": loc})
  return EquivalenceReport(monoid, z_labels, rows)
