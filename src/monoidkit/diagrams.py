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

Every diagram on X shares X's subquotient objects and subobject lattice
(``FiniteASet.subquotient``); only the maps and the checks are per diagram.
Per pair of sequences, ``KeyDiagram`` builds the eight square legs and the
two derived sequences' four maps, all unchecked: the subsets are members of
X's lattice and nested, so each leg is a morphism.  ``verify`` adds the
fiber product of the monic cospan, the two pushouts (``pushout``, one
union-find pass each, no wedge object), the product of the two quotients,
and four validated maps, which are the checks themselves: the pullback
witness, the product embedding and the two factorizations through the
pushouts.  It composes no maps.
"""

from __future__ import annotations

from .asets import (ASetMap, exact_seq_from_sub, fiber_product, is_exact,
                    product, pushout)
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


def _legs_factor_as_iso(Q, legs, target):
  """Does the cocone factor through Q by an isomorphism?

  ``legs`` is a tuple of (corner, corner → Q, corner → target).  Every
  element of Q must be hit by some leg (true for our pushouts);
  the universal map exists iff the leg assignments agree on overlaps.
  """
  assignment = {}
  for corner, to_q, to_target in legs:
    for x in corner.elements:
      q = to_q(x)
      t = to_target(x)
      if assignment.setdefault(q, t) != t:
        return False          # cocone does not descend to Q
  if set(assignment) != set(Q.elements):
    return False              # legs do not jointly cover Q
  try:
    w = ASetMap(Q, target, assignment)
  except InvalidStructure:
    return False
  return w.is_isomorphism()


class KeyDiagram:
  """The nine objects built from two admissible subobjects of X.

  Monic side: sub12 = S1 ∩ S2 inside sub1, sub2, and their union sub_u.
  Epic side: quo1 = X/S1, quo2 = X/S2, quo12 = X/(S1∩S2), quo_u = X/(S1∪S2).
  Derived sequences: sub12 ↣ X ↠ quo12 and sub_u ↣ X ↠ quo_u.
  """

  def __init__(self, X, set1, set2):
    subs = X.subobject_lattice()
    self.X = X
    self.s1 = frozenset(set1)
    self.s2 = frozenset(set2)
    if self.s1 not in subs or self.s2 not in subs:
      raise InvalidStructure("key diagram needs two admissible subobjects")
    self.s12 = self.s1 & self.s2
    self.su = self.s1 | self.s2

    # meets and joins of action-closed subsets are action-closed
    self.sub12, self.quo12 = X.subquotient(self.s12)
    self.sub1, self.quo1 = X.subquotient(self.s1)
    self.sub2, self.quo2 = X.subquotient(self.s2)
    self.sub_u, self.quo_u = X.subquotient(self.su)

    # the legs are morphisms by construction (the subsets are nested members
    # of X's lattice), so they are built unchecked
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
    onto ker q2_u, and q12_1 one of ker q12_2 onto ker q1_u.  The lattice is
    X's ``subobject_lattice()``, walked once per object.
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

    # -- monic square: genuine ambient pullback
    FP, f1, f2 = fiber_product(self.i1_u, self.i2_u)
    try:
      # the canonical map sub12 → FP is x ↦ (x, x); match via projections
      witness = {(f1(e), f2(e)): e for e in FP.elements}
      m = ASetMap(self.sub12, FP,
                  {x: witness[(x, x)] for x in self.sub12.elements})
      out["monic_square_ambient_pullback"] = m.is_isomorphism()
    except (KeyError, InvalidStructure):
      out["monic_square_ambient_pullback"] = False

    # -- monic square: genuine ambient pushout
    PO, j1, j2 = pushout(self.i12_1, self.i12_2)
    out["monic_square_ambient_pushout"] = _legs_factor_as_iso(
        PO, ((self.sub1, j1, self.i1_u), (self.sub2, j2, self.i2_u)),
        self.sub_u)

    # -- lattice universal properties, quantified over every subobject of X.
    # On the monic side these say S12 is the meet and Su the join.  Read on
    # the quotient side they are exactly the cone conditions: X/K admits a
    # cone over the cospan X''1 → X'' ← X''2 iff K ≤ S1 and K ≤ S2, and it
    # factors through X''12 iff K ≤ S12; dually for cocones under the span.
    subs = self.X.subobject_lattice()
    out["lattice_meet"] = all(
        (k <= self.s1 and k <= self.s2) == (k <= self.s12) for k in subs)
    out["lattice_join"] = all(
        (k >= self.s1 and k >= self.s2) == (k >= self.su) for k in subs)

    # -- epic square: genuine ambient pushout
    Q, k1, k2 = pushout(self.q12_1, self.q12_2)
    out["epic_square_ambient_pushout"] = _legs_factor_as_iso(
        Q, ((self.quo1, k1, self.q1_u), (self.quo2, k2, self.q2_u)),
        self.quo_u)

    # -- epic square: kernel comparison (distinguished in both directions)
    out["epic_square_kernel_comparison_1"] = _kernels_correspond(
        self.q12_2, self.q12_1, self.q2_u)
    out["epic_square_kernel_comparison_2"] = _kernels_correspond(
        self.q12_1, self.q12_2, self.q1_u)

    # -- the quotient by the meet embeds in the product of the quotients
    P, pr1, pr2 = product(self.quo1, self.quo2)
    pair_of = {}
    for e in P.elements:
      pair_of.setdefault((pr1(e), pr2(e)), e)
    emb = ASetMap(self.quo12, P,
                  {x: pair_of[(self.q12_1(x), self.q12_2(x))]
                   for x in self.quo12.elements})
    out["meet_quotient_embeds_in_product"] = emb.is_injective()

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
