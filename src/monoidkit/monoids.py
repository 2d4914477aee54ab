"""Pointed commutative monoids: finite multiplication tables and the free
rank-one monoid.

A pointed monoid here always has a unit 1 and an absorbing zero (written * in
element lists), with a*1 = a and a*0 = 0.  The two concrete representations
are a finite multiplication table (this module) and an affine lattice form
(module ``affine``); both expose the same structure-theory operations:
validation, prime ideals with heights, localization, unit groups, pc checks
and ideal quotients.
"""

from __future__ import annotations

import itertools

from .errors import InvalidStructure
from .groups import (AbelianGroupPresentation, FiniteAbelianGroup,
                     invariants_from_abelian_group)

STAR = "*"


class ValidationReport:
  """Outcome of an axiom check: a (possibly empty) list of violations."""

  def __init__(self, subject, violations=()):
    self.subject = subject
    self.violations = list(violations)

  @property
  def ok(self):
    return not self.violations

  def __bool__(self):
    return self.ok

  def __repr__(self):
    status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
    return f"ValidationReport({self.subject}: {status})"

  def to_json(self):
    return {"subject": self.subject, "ok": self.ok, "violations": self.violations}


class UnitGroupDescriptor:
  """Invariant-factor form of a finitely generated abelian unit group."""

  __slots__ = ("free_rank", "torsion")

  def __init__(self, free_rank=0, torsion=()):
    pres = AbelianGroupPresentation.from_cyclic_orders(
        [0] * int(free_rank) + [int(t) for t in torsion])
    self.free_rank = pres.free_rank
    self.torsion = pres.invariant_factors

  def presentation(self):
    return AbelianGroupPresentation(self.free_rank, self.torsion)

  def is_trivial(self):
    return self.free_rank == 0 and not self.torsion

  def is_finite(self):
    return self.free_rank == 0

  def __eq__(self, other):
    return (isinstance(other, UnitGroupDescriptor)
            and self.free_rank == other.free_rank and self.torsion == other.torsion)

  def __hash__(self):
    return hash((self.free_rank, tuple(self.torsion)))

  def __repr__(self):
    return f"UnitGroupDescriptor(free_rank={self.free_rank}, torsion={self.torsion})"

  def __str__(self):
    s = str(self.presentation())
    return "1" if s == "0" else s

  def to_json(self):
    return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

  @classmethod
  def from_json(cls, data):
    return cls(data.get("free_rank", 0), data.get("torsion", []))


class PrimeIdeal:
  """A prime ideal, tagged with its height.

  For a finite monoid the ideal is an explicit subset of elements; for an
  affine monoid it is the complement of a face of the cone and ``face`` holds
  the indices of the generators spanning that face; for the free rank-one
  monoid the two primes are the zero ideal and the ideal of the generator.
  """

  def __init__(self, monoid, height, subset=None, face=None, label=None):
    self.monoid = monoid
    self.height = height
    self.subset = frozenset(subset) if subset is not None else None
    self.face = tuple(face) if face is not None else None
    self.label = label or self._default_label()

  def _default_label(self):
    if self.subset is not None:
      gens = sorted(self.subset - {STAR})
      return "(" + ",".join(gens) + ")" if gens else "(0)"
    if self.face is not None:
      return "p_face{" + ",".join(map(str, self.face)) + "}"
    return "p"

  def __repr__(self):
    return f"PrimeIdeal({self.label}, height={self.height})"

  def __eq__(self, other):
    return (isinstance(other, PrimeIdeal) and self.subset == other.subset
            and self.face == other.face and self.height == other.height)

  def __hash__(self):
    return hash((self.subset, self.face, self.height))


class FiniteMonoid:
  """A pointed commutative monoid given by a full multiplication table.

  The table may be stored half-symmetrically; it is completed on
  construction.  Law violations (unit, zero, commutativity, associativity)
  are *not* errors at construction time: ``validate()`` reports them, so that
  a broken table can be loaded, inspected and reported on.
  """

  def __init__(self, elements, one, zero, table, name=None):
    elements = list(elements)
    if len(set(elements)) != len(elements):
      raise InvalidStructure("duplicate element identifiers")
    if one not in elements or zero not in elements:
      raise InvalidStructure("one and zero must appear among the elements")
    self.elements = elements
    self.one = one
    self.zero = zero
    self.name = name
    full = {}
    for (a, b), c in table.items():
      if a not in elements or b not in elements or c not in elements:
        raise InvalidStructure(f"table entry ({a},{b})->{c} uses unknown element")
      full[(a, b)] = c
      full.setdefault((b, a), c)
    for a in elements:
      for b in elements:
        if (a, b) not in full:
          raise InvalidStructure(f"table is missing the product {a}*{b}")
    self.table = full
    self._hash = None
    self._generators = None
    self._primes = None
    self._units = None
    self._unit_tree = False         # until computed: None is an answer

  def __eq__(self, other):
    """Equal when the elements, one, zero and table are; the name is a
    label.  Identity is checked first: objects compare their monoids on
    every isomorphism test."""
    return self is other or (
        isinstance(other, FiniteMonoid) and self.elements == other.elements
        and self.one == other.one and self.zero == other.zero
        and self.table == other.table)

  def __hash__(self):
    if self._hash is None:
      self._hash = hash((tuple(self.elements), self.one, self.zero,
                         frozenset(self.table.items())))
    return self._hash

  # -- basic structure ----------------------------------------------------

  def mul(self, a, b):
    return self.table[(a, b)]

  def power(self, a, k):
    out = self.one
    for _ in range(k):
      out = self.mul(out, a)
    return out

  def validate(self):
    v = []
    for a in self.elements:
      if self.mul(a, self.one) != a:
        v.append(f"unit law: {a}*1 = {self.mul(a, self.one)} != {a}")
      if self.mul(a, self.zero) != self.zero:
        v.append(f"zero law: {a}*0 = {self.mul(a, self.zero)} != 0")
    for a, b in itertools.combinations(self.elements, 2):
      if self.mul(a, b) != self.mul(b, a):
        v.append(f"commutativity: {a}*{b} != {b}*{a}")
    for a in self.elements:
      for b in self.elements:
        ab = self.mul(a, b)
        for c in self.elements:
          if self.mul(ab, c) != self.mul(a, self.mul(b, c)):
            v.append(f"associativity: ({a}*{b})*{c} != {a}*({b}*{c})")
    if self.one == self.zero and len(self.elements) > 1:
      v.append("one equals zero but the monoid has more than one element")
    return ValidationReport(self.name or "finite monoid", v)

  def generators(self):
    """A small generating set (greedy; not guaranteed minimal), as a tuple.
    The closure runs over the whole table, so it runs once and is kept."""
    if self._generators is not None:
      return self._generators
    generated = {self.one, self.zero}
    gens = []
    # close under products
    def close():
      changed = True
      while changed:
        changed = False
        for a in list(generated):
          for b in list(generated):
            c = self.mul(a, b)
            if c not in generated:
              generated.add(c)
              changed = True
    close()
    for a in self.elements:
      if a not in generated:
        gens.append(a)
        generated.add(a)
        close()
    self._generators = tuple(gens)
    return self._generators

  # -- units ---------------------------------------------------------------

  def unit_elements(self):
    """The invertible elements in element order, as a tuple.  The search
    runs over the whole table, so it runs once and is kept."""
    if self._units is None:
      self._units = tuple([a for a in self.elements
                           if any(self.mul(a, b) == self.one
                                  for b in self.elements)])
    return self._units

  def unit_tree(self):
    """The unit group as a breadth-first spanning tree, or None.

    When every nonzero element is a unit and the units form an abelian
    group (F1 is the trivial one), a tuple of (unit, parent, generator)
    triples, in breadth-first order from (one, -1, None) over
    ``generators()``: each unit is its parent's unit times the generator,
    so it acts as the parent's unit followed by the generator.  Otherwise
    None.  Computed once and kept.
    """
    if self._unit_tree is False:
      self._unit_tree = None
      units = self.unit_elements()
      gens = self.generators()
      if (set(units) | {self.zero} == set(self.elements)
          and all(self.mul(a, b) == self.mul(b, a)
                  for a in gens for b in gens)):
        tree = [(self.one, -1, None)]
        seen = {self.one}
        for parent, (u, _, _) in enumerate(tree):
          for g in gens:
            v = self.mul(u, g)
            if v not in seen:
              seen.add(v)
              tree.append((v, parent, g))
        if seen == set(units):
          self._unit_tree = tuple(tree)
    return self._unit_tree

  def units(self):
    U = self.unit_elements()
    pres = invariants_from_abelian_group(U, self.mul, self.one)
    return UnitGroupDescriptor(pres.free_rank, pres.invariant_factors)

  # -- ideals and primes ----------------------------------------------------

  def ideal_closure(self, gens):
    out = {self.zero}
    for g in gens:
      for s in self.elements:
        out.add(self.mul(g, s))
    return frozenset(out)

  def is_ideal(self, subset):
    return (self.zero in subset
            and all(self.mul(a, s) in subset for a in subset for s in self.elements))

  def is_prime_subset(self, subset):
    if self.one in subset or not self.is_ideal(subset):
      return False
    comp = [a for a in self.elements if a not in subset]
    return all(self.mul(a, b) not in subset for a in comp for b in comp)

  def primes(self):
    """All prime ideals, with heights computed from chains of primes, as a
    tuple.  The search runs over every subset, so it runs once and is kept."""
    if self._primes is not None:
      return self._primes
    rest = [a for a in self.elements if a not in (self.one, self.zero)]
    found = []
    for r in range(len(rest) + 1):
      for combo in itertools.combinations(rest, r):
        subset = frozenset(combo) | {self.zero}
        if self.is_prime_subset(subset):
          found.append(subset)
    found.sort(key=lambda s: (len(s), sorted(s)))
    heights = {}
    for s in found:
      below = [heights[t] for t in found if t < s]
      heights[s] = max(below) + 1 if below else 0
    self._primes = tuple([PrimeIdeal(self, heights[s], subset=s)
                          for s in found])
    return self._primes

  # -- localization -----------------------------------------------------------

  def localize(self, prime):
    """Invert the complement of a prime; the result is again finite.

    Fractions a/s are identified when u*a*t = u*b*s for some invertible
    denominator u; classes are named a/s, shortened to a when s = 1.
    """
    assert prime.subset is not None and self.is_prime_subset(prime.subset)
    T = [a for a in self.elements if a not in prime.subset]
    pairs = [(a, s) for a in self.elements for s in T]
    parent = {p: p for p in pairs}

    def find(p):
      while parent[p] != p:
        parent[p] = parent[parent[p]]
        p = parent[p]
      return p

    def union(p, q):
      rp, rq = find(p), find(q)
      if rp != rq:
        parent[rp] = rq

    for (a, s) in pairs:
      for (b, t) in pairs:
        if any(self.mul(self.mul(u, a), t) == self.mul(self.mul(u, b), s) for u in T):
          union((a, s), (b, t))

    def name_of(cls_members):
      whole = [a for (a, s) in cls_members if s == self.one]
      if whole:
        return sorted(whole)[0]
      a, s = sorted(cls_members)[0]
      return f"{a}/{s}"

    classes = {}
    for p in pairs:
      classes.setdefault(find(p), []).append(p)
    names = {root: name_of(members) for root, members in classes.items()}
    if len(set(names.values())) != len(names):  # defensive: disambiguate
      names = {root: f"{name_of(members)}#{i}"
               for i, (root, members) in enumerate(sorted(classes.items()))}
    table = {}
    for root_a, members_a in classes.items():
      a, s = members_a[0]
      for root_b, members_b in classes.items():
        b, t = members_b[0]
        prod = find((self.mul(a, b), self.mul(s, t)))
        table[(names[root_a], names[root_b])] = names[prod]
    return FiniteMonoid(sorted(set(names.values())),
                        names[find((self.one, self.one))],
                        names[find((self.zero, self.one))],
                        table,
                        name=f"{self.name or 'M'} localized at {prime.label}")

  # -- pc, quotients, comparisons ---------------------------------------------

  def is_pc(self):
    """Does a*c = b*c != 0 force a = b?"""
    for c in self.elements:
      seen = {}
      for a in self.elements:
        ac = self.mul(a, c)
        if ac == self.zero:
          continue
        if ac in seen and seen[ac] != a:
          return False
        seen[ac] = a
    return True

  def quotient_by_ideal(self, ideal_gens):
    """Collapse the ideal generated by the given elements to zero."""
    ideal = self.ideal_closure(ideal_gens)
    if self.one in ideal:
      return FiniteMonoid([STAR], STAR, STAR, {(STAR, STAR): STAR},
                          name="terminal monoid")
    survivors = [a for a in self.elements if a not in ideal]
    elements = survivors + [self.zero] if self.zero not in survivors else survivors
    table = {}
    for a in elements:
      for b in elements:
        c = self.mul(a, b)
        table[(a, b)] = c if c not in ideal else self.zero
    return FiniteMonoid(elements, self.one, self.zero, table,
                        name=f"{self.name or 'M'} mod ideal")

  def is_isomorphic(self, other):
    """Backtracking isomorphism test (pointed, unital, multiplicative)."""
    if not isinstance(other, FiniteMonoid):
      return False
    if len(self.elements) != len(other.elements):
      return False

    def profile(m, a):
      seen = set()
      cur = a
      while cur not in seen:
        seen.add(cur)
        cur = m.mul(cur, a)
      return (a == m.one, a == m.zero, len(seen),
              sum(1 for b in m.elements for c in m.elements if m.mul(b, c) == a))

    mine = sorted(profile(self, a) for a in self.elements)
    theirs = sorted(profile(other, a) for a in other.elements)
    if mine != theirs:
      return False

    assignment = {self.one: other.one, self.zero: other.zero}
    used = {other.one, other.zero}
    free = [a for a in self.elements if a not in (self.one, self.zero)]

    def consistent(a, fa, assignment):
      for b, fb in assignment.items():
        ab = self.mul(a, b)
        if ab in assignment and assignment[ab] != other.mul(fa, fb):
          return False
      return True

    def backtrack(i, assignment, used):
      if i == len(free):
        return all(other.mul(assignment[a], assignment[b]) == assignment[self.mul(a, b)]
                   for a in assignment for b in assignment
                   if self.mul(a, b) in assignment)
      a = free[i]
      for fa in other.elements:
        if fa in used or profile(self, a) != profile(other, fa):
          continue
        if consistent(a, fa, assignment):
          assignment[a] = fa
          used.add(fa)
          if backtrack(i + 1, assignment, used):
            return True
          del assignment[a]
          used.remove(fa)
      return False

    return backtrack(0, assignment, used)

  def __repr__(self):
    label = self.name or f"{len(self.elements)} elements"
    return f"FiniteMonoid({label})"

  # -- standard examples -------------------------------------------------------

  @classmethod
  def f1(cls):
    """The two-element initial pointed monoid {0, 1}."""
    return cls(["1", STAR], "1", STAR,
               {("1", "1"): "1", ("1", STAR): STAR, (STAR, STAR): STAR},
               name="F1")

  @classmethod
  def truncated_free(cls, top):
    """{1, t, ..., t^top, *} with t^(top+1) = *; top = 0 gives F1-like {1,*}."""
    names = {0: "1"}
    for k in range(1, top + 1):
      names[k] = "t" if k == 1 else f"t^{k}"
    elements = [names[k] for k in range(top + 1)] + [STAR]
    table = {}
    for i in range(top + 1):
      for j in range(top + 1):
        table[(names[i], names[j])] = names[i + j] if i + j <= top else STAR
      table[(names[i], STAR)] = STAR
    table[(STAR, STAR)] = STAR
    return cls(elements, "1", STAR, table, name=f"N/(t^{top + 1})")

  @classmethod
  def eventually_periodic(cls, n, d):
    """{1, t, ..., t^(n-1), *} with t^n = t^d (0 <= d < n) and an adjoined zero.

    For d >= 1 the relation t^n = t^d breaks partial cancellativity.
    """
    assert 0 <= d < n
    names = {k: ("1" if k == 0 else "t" if k == 1 else f"t^{k}") for k in range(n)}

    def reduce(k):
      return k if k < n else d + (k - d) % (n - d)

    elements = [names[k] for k in range(n)] + [STAR]
    table = {}
    for i in range(n):
      for j in range(n):
        table[(names[i], names[j])] = names[reduce(i + j)]
      table[(names[i], STAR)] = STAR
    table[(STAR, STAR)] = STAR
    return cls(elements, "1", STAR, table, name=f"<t | t^{n}=t^{d}>+")

  @classmethod
  def group_with_zero(cls, orders, name=None):
    """Gamma_+ for Gamma a finite abelian group given by cyclic orders."""
    G = FiniteAbelianGroup(orders)
    letters = "gabcdef"

    def elt_name(x):
      if x == G.identity:
        return "1"
      parts = []
      for i, e in enumerate(x):
        if e:
          letter = letters[0] if len(G.orders) == 1 else letters[1 + i]
          parts.append(letter if e == 1 else f"{letter}^{e}")
      return "".join(parts)

    names = {x: elt_name(x) for x in G.elements}
    elements = [names[x] for x in G.elements] + [STAR]
    table = {}
    for x in G.elements:
      for y in G.elements:
        table[(names[x], names[y])] = names[G.add(x, y)]
      table[(names[x], STAR)] = STAR
    table[(STAR, STAR)] = STAR
    label = name or ("(" + "x".join(f"Z/{n}" for n in orders) + ")+")
    return cls(elements, "1", STAR, table, name=label)


class NatMonoid:
  """The free pointed monoid on one generator t: {*, 1, t, t^2, ...}.

  Used as the acting monoid for successor-map sets; its own structure
  theory (two primes, trivial units) is built in.
  """

  generator = "t"

  def __init__(self):
    self.name = "N"

  def validate(self):
    return ValidationReport("N", [])

  def units(self):
    return UnitGroupDescriptor(0, [])

  def primes(self):
    zero_ideal = PrimeIdeal(self, 0, subset=frozenset({STAR}), label="(0)")
    t_ideal = PrimeIdeal(self, 1, subset=None, face=None, label="(t)")
    return [zero_ideal, t_ideal]

  def is_pc(self):
    return True

  def localize(self, prime):
    if prime.label == "(t)":
      return self
    from .affine import AffineMonoid  # deferred: affine depends on this module
    return AffineMonoid(dim=1, generators=[], units=UnitGroupDescriptor(1, []),
                        name="Z (group monoid)")

  def quotient_by_ideal(self, power):
    """N/(t^k) as a finite monoid (power is the exponent k >= 1)."""
    assert power >= 1
    return FiniteMonoid.truncated_free(power - 1)

  def __repr__(self):
    return "NatMonoid()"

  def __eq__(self, other):
    return isinstance(other, NatMonoid)

  def __hash__(self):
    return hash("NatMonoid")
