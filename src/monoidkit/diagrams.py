"""The nine-object subquotient diagram and its squares.

A square of horizontal monics and vertical comparison maps is distinguished
when the induced map of cokernels is an isomorphism; distinguished squares of
admissible maps are simultaneously pushouts and pullbacks.

``key_diagram`` assembles, from two exact sequences into a common object X,
the full lattice picture: the intersection and union of the two subobjects
on the monic side, the corresponding tower of quotients on the epic side, and
the two derived exact sequences.  Its ``verify`` method checks every claimed
universal property that actually holds in the ambient category, plus the
poset-level (double-categorical) ones for the quotient square.  The quotient
square is NOT an ambient fiber product in general — see ``KeyDiagram.verify``
for the three-element counterexample — so the pullback property on that side
is the kernel comparison (the square is distinguished both ways) and the
lattice version.

Every diagram on X shares X's subquotient objects
(``FiniteASet.subquotient``, which builds each (S, X/S) on its first ask
and refuses a set that is not a subobject), and the mappings and the
exactness verdict of each derived sequence S ↣ X ↠ X/S, which X keeps per
S for ``exact_seq_from_sub``: each is built and judged once per (X, S).
Per pair of sequences, ``KeyDiagram`` builds the eight square legs,
unchecked (the subsets are nested subobjects of X, so each leg is a
morphism), and wraps the derived sequences' kept mappings in four fresh
maps; ``is_exact`` reads their kept verdicts.  ``verify`` decides every
entry on X's carrier and the legs' mappings: a hash join for the pullback,
one union-find pass over the tagged wedge for each pushout, the set of
pairs for the product embedding, and the action closure of the meet and
the join.  It builds no object and no map, and composes none.
"""

from __future__ import annotations

from .asets import ASetMap, exact_seq_from_sub, is_exact
from .errors import InvalidStructure


def _kernels_correspond(across, leave, enter):
  """Does ``across`` send ker(leave) one-to-one onto ker(enter)?"""
  image = [across(x) for x in leave.preimage({leave.target.base})]
  dead = enter.preimage({enter.target.base})
  return len(image) == len(dead) and set(image) == dead


def _commutes(corner, first, then, other_first, other_then):
  """Do the two paths from ``corner`` agree at every element?"""
  a, b = first.mapping, then.mapping
  c, d = other_first.mapping, other_then.mapping
  return all(b[a[x]] == d[c[x]] for x in corner.elements)


def _equivariant(m):
  """Does m commute with every generator, at every element?"""
  mp, action = m.mapping, m.target.action
  return all(mp[gmap[x]] == action[g][mp[x]]
             for g, gmap in m.source.action.items() for x in m.source.elements)


def _pushout_is(f, g, to_1, to_2):
  """Is the cocone (to_1, to_2) under the span A <-f- W -g-> B a pushout?

  The pushout's elements are the classes of the wedge of A and B (the
  basepoints glued) under f(w) ~ g(w).  The cocone descends to them when
  it agrees across each such pair and at the basepoints, which it must
  send to T's.  One union-find pass over the tagged wedge (node i for A's
  i-th element, len(A) + j for B's j-th) counts the classes; the induced
  map is one-to-one onto T when they are as many as T's elements and the
  legs cover T.  The pushout's action is read through its legs, so the
  induced map is equivariant when the legs are.
  """
  A, B, T = f.target, g.target, to_1.target
  fm, gm, c1, c2 = f.mapping, g.mapping, to_1.mapping, to_2.mapping
  if c1[A.base] != T.base or c2[B.base] != T.base \
     or any(c1[fm[w]] != c2[gm[w]] for w in f.source.elements):
    return False              # the cocone does not descend, or misses ∗
  n, m = len(A.elements), len(B.elements)
  node_1 = dict(zip(A.elements, range(n)))
  node_2 = dict(zip(B.elements, range(n, n + m)))
  node_2[B.base] = node_1[A.base]
  parent = list(range(n + m))

  def find(i):
    while parent[i] != i:
      parent[i] = parent[parent[i]]
      i = parent[i]
    return i

  classes = n + m - 1
  for w in f.source.elements:
    a, b = find(node_1[fm[w]]), find(node_2[gm[w]])
    if a != b:
      parent[a] = b
      classes -= 1
  return (classes == len(T.elements)
          and set(c1.values()) | set(c2.values()) == T._element_set
          and _equivariant(to_1) and _equivariant(to_2))


class KeyDiagram:
  """The nine objects built from two admissible subobjects of X.

  Monic side: sub12 = S1 ∩ S2 inside sub1, sub2, and their union sub_u.
  Epic side: quo1 = X/S1, quo2 = X/S2, quo12 = X/(S1∩S2), quo_u = X/(S1∪S2).
  Derived sequences: sub12 ↣ X ↠ quo12 and sub_u ↣ X ↠ quo_u.
  """

  def __init__(self, X, set1, set2):
    self.X = X
    self.s1 = frozenset(set1)
    self.s2 = frozenset(set2)
    # subquotient refuses a set that is not a subobject (InvalidStructure)
    self.sub1, self.quo1 = X.subquotient(self.s1)
    self.sub2, self.quo2 = X.subquotient(self.s2)
    # meets and joins of action-closed subsets are action-closed
    self.s12 = self.s1 & self.s2
    self.su = self.s1 | self.s2
    self.sub12, self.quo12 = X.subquotient(self.s12)
    self.sub_u, self.quo_u = X.subquotient(self.su)

    # the legs are morphisms by construction (the subsets are nested
    # subobjects of X), so they are built unchecked
    base = X.base

    def inclusion(S, T):
      return ASetMap._trusted(S, T, {x: x for x in S.elements})

    def collapse(Q, R, dead):
      return ASetMap._trusted(
          Q, R, {x: base if x in dead else x for x in Q.elements})

    # monic square legs (all literal inclusions)
    self.i12_1 = inclusion(self.sub12, self.sub1)
    self.i12_2 = inclusion(self.sub12, self.sub2)
    self.i1_u = inclusion(self.sub1, self.sub_u)
    self.i2_u = inclusion(self.sub2, self.sub_u)

    # epic square legs (collapse the larger kernel)
    self.q12_1 = collapse(self.quo12, self.quo1, self.s1)
    self.q12_2 = collapse(self.quo12, self.quo2, self.s2)
    self.q1_u = collapse(self.quo1, self.quo_u, self.su)
    self.q2_u = collapse(self.quo2, self.quo_u, self.su)

    self.seq_meet = exact_seq_from_sub(X, self.s12)
    self.seq_join = exact_seq_from_sub(X, self.su)

  def objects(self):
    return {"X'12": self.sub12, "X'1": self.sub1, "X'2": self.sub2,
            "X'": self.sub_u, "X": self.X, "X''12": self.quo12,
            "X''1": self.quo1, "X''2": self.quo2, "X''": self.quo_u}

  def verify(self):
    """Name → bool for every checked property (all should hold).

    The subobject square is genuinely bicartesian in the ambient category:
    its pullback is the honest fiber product and its pushout the honest
    amalgam.  The quotient square is an honest pushout, but its "pullback"
    is the double-categorical one: over F1 take X = {∗,a,b} with S1 = {∗,a},
    S2 = {∗,b}; then X/(S1∩S2) has 3 elements while the fiber product of
    X/S1 → ∗ ← X/S2 has 4, so no ambient pullback property can hold.  What
    does hold — and is checked — is the kernel comparison (the square is
    distinguished in both directions) and the lattice universal property
    (a quotient X/K factors through the square iff K lies below both
    kernels iff it lies below their intersection).

    Distinguished means that q12_2 restricts to a bijection of ker q12_1
    onto ker q2_u, and q12_1 one of ker q12_2 onto ker q1_u.

    Every entry is decided on X's carrier and the legs' mappings, and each
    can fail; no object or map is built.  The ambient pullback is a hash
    join of X'1 and X'2 over X', the two pushouts are one union-find pass
    each (``_pushout_is``), and the product embedding is the set of pairs
    (q12_1 x, q12_2 x).  The lattice entries test that the meet and the
    join are subobjects: ``s12`` is S1 ∩ S2, ``su`` is S1 ∪ S2, and each
    holds ∗ and is closed under every generator.
    """
    out = {}

    # -- commutativity of both squares
    out["monic_square_commutes"] = _commutes(
        self.sub12, self.i12_1, self.i1_u, self.i12_2, self.i2_u)
    out["epic_square_commutes"] = _commutes(
        self.quo12, self.q12_1, self.q1_u, self.q12_2, self.q2_u)

    # -- derived sequences
    out["meet_sequence_exact"] = is_exact(self.seq_meet)
    out["join_sequence_exact"] = is_exact(self.seq_join)

    # -- monic square: genuine ambient pullback.  X'12 → X'1 ×_X' X'2 is an
    # isomorphism when the fiber product's pairs are exactly the diagonal
    # of X'12 and x ↦ (x, x) is equivariant.
    over = {}
    for y, z in self.i2_u.mapping.items():
      over.setdefault(z, []).append(y)
    pairs = {(x, y) for x, z in self.i1_u.mapping.items()
             for y in over.get(z, ())}
    meet = self.sub12
    a1, a2 = self.sub1.action, self.sub2.action
    out["monic_square_ambient_pullback"] = (
        pairs == {(x, x) for x in meet.elements}
        and all(a1[g][x] == gmap[x] == a2[g][x]
                for g, gmap in meet.action.items() for x in meet.elements))

    # -- monic square: genuine ambient pushout
    out["monic_square_ambient_pushout"] = _pushout_is(
        self.i12_1, self.i12_2, self.i1_u, self.i2_u)

    # -- the meet and the join are subobjects.  As S12 and Su are the set
    # meet and join, this is the lattice universal property: k ≤ S1 and
    # k ≤ S2 iff k ≤ S12, and dually.  Read on the quotient side these are
    # the cone conditions: X/K admits a cone over the cospan X''1 → X'' ←
    # X''2 iff K ≤ S1 and K ≤ S2, and it factors through X''12 iff K ≤ S12;
    # dually for cocones under the span.
    X = self.X
    out["lattice_meet"] = (self.s12 == self.s1 & self.s2
                           and X.is_admissible_subset(self.s12))
    out["lattice_join"] = (self.su == self.s1 | self.s2
                           and X.is_admissible_subset(self.su))

    # -- epic square: genuine ambient pushout
    out["epic_square_ambient_pushout"] = _pushout_is(
        self.q12_1, self.q12_2, self.q1_u, self.q2_u)

    # -- epic square: kernel comparison (distinguished in both directions)
    out["epic_square_kernel_comparison_1"] = _kernels_correspond(
        self.q12_2, self.q12_1, self.q2_u)
    out["epic_square_kernel_comparison_2"] = _kernels_correspond(
        self.q12_1, self.q12_2, self.q1_u)

    # -- the quotient by the meet embeds in the product of the quotients:
    # x ↦ (q12_1 x, q12_2 x) is one-to-one
    b1, b2 = self.q12_1.mapping, self.q12_2.mapping
    out["meet_quotient_embeds_in_product"] = (
        len({(b1[x], b2[x]) for x in self.quo12.elements})
        == len(self.quo12.elements))

    return out

  def ok(self):
    return all(self.verify().values())


def key_diagram(X, seq1, seq2):
  """Build the nine-object diagram from two exact sequences into X."""
  for seq in (seq1, seq2):
    if not seq.middle.same_carrier(X):
      raise InvalidStructure("both sequences must have middle object X")
    if not is_exact(seq):
      raise InvalidStructure("key diagram needs exact input sequences")
  return KeyDiagram(X, seq1.i.image_set(), seq2.i.image_set())
