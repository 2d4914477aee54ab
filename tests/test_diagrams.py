"""Distinguished squares and the nine-object diagram.

``KeyDiagram.verify`` decides its entries on X's carrier and the legs'
mappings.  The constructions it stood on before, the product, the fiber
product, the pushout and the factorization of a cocone through a pushout,
are kept here as the oracles of those checks, and are checked in turn
against their first, plain versions: ``oracle_fiber_product`` filters the
whole product, ``oracle_coequalizer`` sweeps every element until nothing
changes, and ``oracle_verify`` builds every kernel as an object and
compares kernels by an isomorphism search.
"""

import gc
import itertools
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoidkit.asets import (ASetMap, ExactSeq, FiniteASet, STAR,
                             _class_names, _UnionFind, _wedge_names,
                             coequalizer, exact_seq_from_sub, hom_maps,
                             identity_map, is_exact, point_aset,
                             truncated_line, wedge)
from monoidkit.corpora import all_nilpotent_asets, all_nsets, all_pointed_sets
from monoidkit.diagrams import KeyDiagram, _pushout_is, key_diagram
from monoidkit.errors import InvalidStructure
from monoidkit.monoids import FiniteMonoid
from monoidkit.selftest import case_11_key_diagram

F1 = FiniteMonoid.f1()
T3 = FiniteMonoid.truncated_free(2)          # N/(t^3)
KERNEL_KEYS = {"epic_square_kernel_comparison_1",
               "epic_square_kernel_comparison_2"}


def pointed_set(*names):
  """A pointed set viewed as an F1-set (no generators, no action to give)."""
  return FiniteASet(FiniteMonoid.f1(), [STAR, *names], {}, STAR)


def induced_cokernel_map(bottom, top, left, right):
  """The map Y'/X' → Y/X induced by a commuting square.

  Square layout (horizontal maps monic, verticals arbitrary comparison maps):

      X  >--top-->  Y
      ^             ^
    left          right
      |             |
      X' >-bottom-> Y'

  Returns (map, coker_bottom_seq, coker_top_seq).
  """
  if not (bottom.source.same_carrier(left.source)
          and bottom.target.same_carrier(right.source)
          and top.source.same_carrier(left.target)
          and top.target.same_carrier(right.target)):
    raise InvalidStructure("square corners do not match up")
  for x in bottom.source.elements:
    if right(bottom(x)) != top(left(x)):
      raise InvalidStructure("square does not commute")
  if not bottom.is_injective() or not top.is_injective():
    raise InvalidStructure("horizontal maps must be monic")
  qb, proj_b = bottom.target.quotient_by(bottom.image_set())
  qt, proj_t = top.target.quotient_by(top.image_set())
  # quotients keep survivor names, so the induced map reads off directly
  mapping = {}
  for y in bottom.target.elements:
    mapping[proj_b(y)] = proj_t(right(y))
  return ASetMap(qb, qt, mapping), proj_b, proj_t


def is_distinguished_square(bottom, top, left, right):
  """Is the induced map of cokernels an isomorphism?"""
  cmp_map, _, _ = induced_cokernel_map(bottom, top, left, right)
  return cmp_map.is_isomorphism()


# -------------------------------------------------------------------- oracles
#
# The product, fiber product and pushout objects, and the factorization of a
# cocone through a pushout: what ``KeyDiagram.verify`` built before it read
# its entries off the carrier, and what ``oracle_verify`` still builds.


def _pair_object(X, Y, pairs, name):
  """(P, to X, to Y) on ``pairs``, labelled "(x,y)", diagonal action; the
  caller guarantees that ``pairs`` is an action-closed pointed subset."""
  if X.monoid != Y.monoid or set(X.action) != set(Y.action):
    raise InvalidStructure("a product needs a common acting monoid")
  label = {p: f"({p[0]},{p[1]})" for p in pairs}
  if len(set(label.values())) != len(label):
    raise InvalidStructure("two pairs have the same label")
  action = {g: {label[p]: label[(gx[p[0]], Y.action[g][p[1]])] for p in pairs}
            for g, gx in X.action.items()}
  P = FiniteASet._trusted(X.monoid, list(label.values()), action,
                          label[(X.base, Y.base)], name)
  proj_x = ASetMap._trusted(P, X, {label[p]: p[0] for p in pairs})
  proj_y = ASetMap._trusted(P, Y, {label[p]: p[1] for p in pairs})
  return P, proj_x, proj_y


def product(X, Y, name=None):
  """Cartesian product with diagonal action and basepoint pair; projections
  (equivariant, though not pointed-set sections)."""
  return _pair_object(X, Y, [(x, y) for x in X.elements for y in Y.elements],
                      name)


def fiber_product(f, g, name=None):
  """(P, to_source_of_f, to_source_of_g) for maps f: X→Z ← Y :g.

  P is the subobject of X × Y where f(x) = g(y), with the product's order
  and labels, found by a hash join on Z.
  """
  if not f.target.same_carrier(g.target):
    raise InvalidStructure("fiber product needs a common target")
  over = {}
  for y in g.source.elements:
    over.setdefault(g.mapping[y], []).append(y)
  pairs = [(x, y) for x in f.source.elements
           for y in over.get(f.mapping[x], ())]
  return _pair_object(f.source, g.source, pairs, name)


def pushout(f, g):
  """(Q, X → Q, Y → Q): the pushout of a span X <--f-- W --g--> Y.

  One union-find pass on the wedge's names without building the wedge: the
  same names, action and legs as ``wedge`` then ``coequalizer``.  Q and the
  legs are built unchecked; only the wedge's and the classes' names are
  checked distinct (``InvalidStructure``).
  """
  if not f.source.same_carrier(g.source):
    raise InvalidStructure("pushout legs must share their source")
  X, Y = f.target, g.target
  to_x, to_y, elements = _wedge_names(X, Y)
  uf = _UnionFind(elements)
  fm, gm = f.mapping, g.mapping
  for w in f.source.elements:
    uf.union(to_x[fm[w]], to_y[gm[w]])
  proj, carrier = _class_names(elements, X.base, uf)
  jx = {x: proj[v] for x, v in to_x.items()}
  jy = {y: proj[v] for y, v in to_y.items()}
  action = {}
  for gen, gx in X.action.items():
    gy = Y.action[gen]
    m = {jx[x]: jx[gx[x]] for x in X.elements}
    m.update((jy[y], jy[gy[y]]) for y in Y.elements)
    action[gen] = m
  Q = FiniteASet._trusted(X.monoid, carrier, action, X.base)
  return Q, ASetMap._trusted(X, Q, jx), ASetMap._trusted(Y, Q, jy)


def legs_factor_as_iso(Q, legs, target):
  """Does the cocone factor through Q by an isomorphism?

  ``legs`` is a tuple of (corner, corner → Q, corner → target).  Every
  element of Q must be hit by some leg (true for pushouts); the universal
  map exists iff the leg assignments agree on overlaps.
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


def oracle_fiber_product(f, g):
  """The whole product X × Y, filtered to the pairs that agree in Z."""
  P, px, py = product(f.source, g.source)
  keep = frozenset(e for e in P.elements if f(px(e)) == g(py(e)))
  sub, incl = P.sub_aset(keep)
  return sub, incl.compose(px), incl.compose(py)


def oracle_coequalizer(f, g):
  """Identify f(x) ~ g(x), then sweep every element and generator, merging
  g·y with g·root(y), until a sweep merges nothing."""
  Y = f.target
  uf = _UnionFind(Y.elements)
  for x in f.source.elements:
    uf.union(f(x), g(x))
  changed = True
  while changed:
    changed = False
    for y in Y.elements:
      for gmap in Y.action.values():
        changed = uf.union(gmap[y], gmap[uf.find(y)]) or changed
  classes = {}
  for y in Y.elements:
    classes.setdefault(uf.find(y), []).append(y)
  base_root = uf.find(Y.base)
  names = {r: Y.base if r == base_root else sorted(map(str, members))[0]
           for r, members in classes.items()}
  action = {g: {names[r]: names[uf.find(gmap[members[0]])]
                for r, members in classes.items()}
            for g, gmap in Y.action.items()}
  Q = FiniteASet(Y.monoid, [names[r] for r in classes], action, Y.base)
  return Q, ASetMap(Y, Q, {y: names[uf.find(y)] for y in Y.elements})


def oracle_pushout_monics(i, j):
  V, inc_x, inc_y = wedge(i.target, j.target)
  Q, proj = oracle_coequalizer(i.compose(inc_x), j.compose(inc_y))
  return Q, inc_x.compose(proj), inc_y.compose(proj)


def oracle_verify(kd):
  """``KeyDiagram.verify`` as first written: element-wise commutativity, the
  product-then-filter pullback, the sweep coequalizers, X's lattice walked
  anew, and each kernel comparison as an isomorphism of kernel objects plus
  an image inclusion."""
  out = {}
  out["monic_square_commutes"] = all(
      kd.i12_1.compose(kd.i1_u)(x) == kd.i12_2.compose(kd.i2_u)(x)
      for x in kd.sub12.elements)
  out["epic_square_commutes"] = all(
      kd.q12_1.compose(kd.q1_u)(x) == kd.q12_2.compose(kd.q2_u)(x)
      for x in kd.quo12.elements)
  out["meet_sequence_exact"] = is_exact(
      ExactSeq(kd.seq_meet.i, kd.seq_meet.p))
  out["join_sequence_exact"] = is_exact(
      ExactSeq(kd.seq_join.i, kd.seq_join.p))

  FP, f1, f2 = oracle_fiber_product(kd.i1_u, kd.i2_u)
  try:
    witness = {(f1(e), f2(e)): e for e in FP.elements}
    m = ASetMap(kd.sub12, FP, {x: witness[(x, x)] for x in kd.sub12.elements})
    out["monic_square_ambient_pullback"] = m.is_isomorphism()
  except (KeyError, InvalidStructure):
    out["monic_square_ambient_pullback"] = False

  PO, j1, j2 = oracle_pushout_monics(kd.i12_1, kd.i12_2)
  out["monic_square_ambient_pushout"] = legs_factor_as_iso(
      PO, ((kd.sub1, j1, kd.i1_u), (kd.sub2, j2, kd.i2_u)), kd.sub_u)

  subs = kd.X.subobject_sets()
  out["lattice_meet"] = all(
      (k <= kd.s1 and k <= kd.s2) == (k <= kd.s12) for k in subs)
  out["lattice_join"] = all(
      (k >= kd.s1 and k >= kd.s2) == (k >= kd.su) for k in subs)

  V, a1, a2 = wedge(kd.quo1, kd.quo2)
  Q, proj = oracle_coequalizer(kd.q12_1.compose(a1), kd.q12_2.compose(a2))
  legs = ((kd.quo1, a1.compose(proj), kd.q1_u),
          (kd.quo2, a2.compose(proj), kd.q2_u))
  out["epic_square_ambient_pushout"] = legs_factor_as_iso(
      Q, legs, kd.quo_u)

  def kernel_set(pmap):
    return pmap.preimage({pmap.target.base})

  for key, across, leave, enter in (
      ("epic_square_kernel_comparison_1", kd.q12_2, kd.q12_1, kd.q2_u),
      ("epic_square_kernel_comparison_2", kd.q12_1, kd.q12_2, kd.q1_u)):
    k_in, k_out = kernel_set(leave), kernel_set(enter)
    obj_in, _ = leave.source.sub_aset(k_in)
    obj_out, _ = enter.source.sub_aset(k_out)
    out[key] = (obj_in.is_isomorphic(obj_out)
                and all(across(x) in k_out for x in k_in))

  P, pr1, pr2 = product(kd.quo1, kd.quo2)
  pair_of = {}
  for e in P.elements:
    pair_of.setdefault((pr1(e), pr2(e)), e)
  emb = ASetMap(kd.quo12, P, {x: pair_of[(kd.q12_1(x), kd.q12_2(x))]
                              for x in kd.quo12.elements})
  out["meet_quotient_embeds_in_product"] = emb.is_injective()
  return out


def test_identity_square_is_distinguished():
  X = truncated_line(2)
  sub, incl = X.sub_aset({"t", STAR})
  assert is_distinguished_square(incl, incl, identity_map(sub),
                                 identity_map(X))


def test_full_corners_square_is_distinguished():
  # bottom and top are the same monic line(1) >--> line(2), 1 |-> t
  Y = truncated_line(2)
  Yp = truncated_line(1)
  m = ASetMap(Yp, Y, {STAR: STAR, "1": "t"})
  assert is_distinguished_square(m, m, identity_map(Yp), identity_map(Y))


def test_cokernel_size_mismatch_is_not_distinguished():
  # Y' = {1,*} sits inside Y = {1,t,*} over a trivial sub on the other side;
  # the cokernels are the whole objects and have different sizes.
  Y = truncated_line(2)
  Yp = truncated_line(1)
  P = point_aset(Y.monoid)
  bottom = ASetMap(P, Yp, {STAR: STAR})
  top = ASetMap(P, Y, {STAR: STAR})
  right = ASetMap(Yp, Y, {STAR: STAR, "1": "t"})
  cmp_map, _, _ = induced_cokernel_map(bottom, top, identity_map(P), right)
  assert cmp_map.source.size() == 2
  assert cmp_map.target.size() == 3
  assert not is_distinguished_square(bottom, top, identity_map(P), right)


def test_non_commuting_square_rejected():
  Y = truncated_line(2)
  sub, incl = Y.sub_aset({"t", STAR})
  shift = ASetMap(Y, Y, {STAR: STAR, "1": "t", "t": STAR})
  with pytest.raises(InvalidStructure):
    is_distinguished_square(incl, incl, identity_map(sub), shift)


def test_distinguished_monic_square_is_pushout_and_pullback():
  # all-monic distinguished square: the subobject square of {*,a} and {*,b}
  # inside {*,a,b}; check the genuine universal properties directly.
  X = pointed_set("a", "b")
  s1, i1 = X.sub_aset({STAR, "a"})
  s2, i2 = X.sub_aset({STAR, "b"})
  s12, _ = X.sub_aset({STAR})
  bottom = ASetMap(s12, s1, {STAR: STAR})
  left = ASetMap(s12, s2, {STAR: STAR})
  assert is_distinguished_square(bottom, i2, left, i1)

  FP, f1, f2 = fiber_product(i1, i2)
  assert FP.size() == s12.size() == 1

  PO, j1, j2 = pushout(bottom, left)
  assert PO.size() == X.size()
  # the induced map to X is a bijection
  hits = {j1(x) for x in s1.elements} | {j2(x) for x in s2.elements}
  assert len(hits) == X.size()


# ---------------------------------------------------------------- key diagram


def all_checks(kd):
  report = kd.verify()
  bad = [k for k, v in report.items() if not v]
  assert not bad, f"failed checks: {bad}"


def test_key_diagram_diagonal_case():
  X = truncated_line(3)
  seq = exact_seq_from_sub(X, {"t", "t^2", STAR})
  kd = key_diagram(X, seq, seq)
  assert set(kd.sub12.elements) == set(kd.sub1.elements) == set(kd.sub_u.elements)
  assert set(kd.quo12.elements) == set(kd.quo_u.elements)
  all_checks(kd)


def test_key_diagram_nested_case():
  X = truncated_line(3)
  inner = exact_seq_from_sub(X, {"t^2", STAR})
  outer = exact_seq_from_sub(X, {"t", "t^2", STAR})
  kd = key_diagram(X, inner, outer)
  assert set(kd.sub_u.elements) == {"t", "t^2", STAR}     # union = larger
  assert set(kd.sub12.elements) == {"t^2", STAR}          # meet = smaller
  assert kd.quo_u.size() == 2
  all_checks(kd)


def test_key_diagram_wedge_arms():
  # two arms of a wedge intersect trivially; union is the whole wedge
  V, inc_a, inc_b = wedge(truncated_line(1), truncated_line(2))
  s1 = inc_a.image_set()
  s2 = inc_b.image_set()
  kd = KeyDiagram(V, s1, s2)
  assert set(kd.sub12.elements) == {STAR}
  assert set(kd.sub_u.elements) == set(V.elements)
  assert kd.quo12.size() == V.size()     # collapsing * changes nothing
  assert kd.quo_u.size() == 1
  all_checks(kd)


def test_key_diagram_quotient_square_is_not_an_ambient_pullback():
  # The classical fiber-product formula fails for the quotient square:
  # X = {*,a,b} with the two axes as subobjects gives X''12 = X (3 elements)
  # while the fiber product of X''1 -> X'' <- X''2 has 4.  The diagram still
  # verifies: the pullback property it carries is the lattice-level one.
  X = pointed_set("a", "b")
  kd = KeyDiagram(X, {STAR, "a"}, {STAR, "b"})
  assert kd.quo12.size() == 3
  FP, _, _ = fiber_product(kd.q1_u, kd.q2_u)
  assert FP.size() == 4
  all_checks(kd)


def test_key_diagram_rejects_non_admissible_input():
  X = truncated_line(2)
  with pytest.raises(InvalidStructure):
    KeyDiagram(X, {"1", STAR}, {STAR})   # {1,*} is not action-closed


def test_key_diagram_rejects_inexact_sequence():
  X = truncated_line(2)
  sub, incl = X.sub_aset({"t", STAR})
  collapse_all = ASetMap(X, point_aset(X.monoid),
                         {x: STAR for x in X.elements})
  with pytest.raises(InvalidStructure):
    key_diagram(X, ExactSeq(incl, collapse_all),
                exact_seq_from_sub(X, {"t", STAR}))


def test_key_diagram_over_truncated_monoid():
  A = FiniteMonoid.truncated_free(2)
  # free rank-1 A-set: carrier {1,t,t^2,*}; interesting subobject pair
  from test_asets import free_aset
  F = free_aset(A)
  kd = KeyDiagram(F, {"t", "t^2", STAR}, {"t^2", STAR})
  all_checks(kd)
  seqs = kd.seq_meet, kd.seq_join
  assert all(s.middle.same_carrier(F) for s in seqs)


def test_key_diagram_exhaustive_small_nset():
  X = truncated_line(3)
  subs = X.subobject_sets()
  for s1 in subs:
    for s2 in subs:
      all_checks(KeyDiagram(X, s1, s2))


def test_key_diagram_maps_pass_the_public_constructor():
  # the eight inclusions and collapses are built unchecked
  t3, f1 = FiniteMonoid.truncated_free(2), FiniteMonoid.f1()
  corpus = all_pointed_sets(f1, 5) + all_nilpotent_asets(t3, 5)
  diagrams = 0
  for X in corpus:
    subs = X.subobject_sets()
    for s1 in subs:
      for s2 in subs:
        kd = KeyDiagram(X, s1, s2)
        for m in (kd.i12_1, kd.i12_2, kd.i1_u, kd.i2_u,
                  kd.q12_1, kd.q12_2, kd.q1_u, kd.q2_u):
          assert m == ASetMap(m.source, m.target, m.mapping)
        diagrams += 1
  assert diagrams == 1323


# ----------------------------------------------------- the constructions vs oracles


SMALL = {"F1": all_pointed_sets(F1, 4), "N": all_nsets(4),
         "N/(t^3)": all_nilpotent_asets(T3, 4)}


@st.composite
def parallel_pairs(draw):
  objects = SMALL[draw(st.sampled_from(sorted(SMALL)))]
  X, Y = draw(st.sampled_from(objects)), draw(st.sampled_from(objects))
  maps = hom_maps(X, Y)
  return draw(st.sampled_from(maps)), draw(st.sampled_from(maps))


@st.composite
def cospans(draw):
  objects = SMALL[draw(st.sampled_from(sorted(SMALL)))]
  X, Y, Z = (draw(st.sampled_from(objects)) for _ in range(3))
  return (draw(st.sampled_from(hom_maps(X, Z))),
          draw(st.sampled_from(hom_maps(Y, Z))))


def assert_same_object(A, B):
  assert A.elements == B.elements
  assert A.base == B.base and A.action == B.action


@settings(max_examples=200, deadline=None)
@given(cospans())
def test_fiber_product_is_the_filtered_product(cospan):
  f, g = cospan
  P, px, py = fiber_product(f, g)
  P0, px0, py0 = oracle_fiber_product(f, g)
  assert_same_object(P, P0)
  assert px.mapping == px0.mapping and py.mapping == py0.mapping
  # built unchecked, and the public constructors agree that it is valid
  FiniteASet(P.monoid, P.elements, P.action, P.base)
  ASetMap(P, f.source, px.mapping)
  ASetMap(P, g.source, py.mapping)


def assert_public(Q, *maps):
  """Q and each map into or out of it pass the validating constructors."""
  FiniteASet(Q.monoid, Q.elements, Q.action, Q.base)
  for m in maps:
    ASetMap(m.source, m.target, m.mapping)


@settings(max_examples=300, deadline=None)
@given(parallel_pairs())
def test_coequalizer_is_the_sweep(pair):
  f, g = pair
  Q, proj = coequalizer(f, g)
  Q0, proj0 = oracle_coequalizer(f, g)
  assert_same_object(Q, Q0)
  assert proj.mapping == proj0.mapping
  # built unchecked, and the public constructors agree that it is valid
  assert_public(Q, proj)


@st.composite
def spans(draw):
  """X <-f- W -g-> Y; f is drawn non-monic whenever W → X has such a map."""
  objects = SMALL[draw(st.sampled_from(sorted(SMALL)))]
  W, X, Y = (draw(st.sampled_from(objects)) for _ in range(3))
  to_x = hom_maps(W, X)
  folds = [m for m in to_x if not m.is_injective()]
  f = draw(st.sampled_from(folds if folds and draw(st.booleans()) else to_x))
  return f, draw(st.sampled_from(hom_maps(W, Y)))


@settings(max_examples=300, deadline=None)
@given(spans())
def test_pushout_is_the_wedge_sweep(span):
  f, g = span
  Q, jx, jy = pushout(f, g)
  Q0, jx0, jy0 = oracle_pushout_monics(f, g)
  assert_same_object(Q, Q0)
  assert jx.mapping == jx0.mapping and jy.mapping == jy0.mapping
  assert_public(Q, jx, jy)


@st.composite
def cocones(draw):
  """A span X <-f- W -g-> Y of morphisms and two maps X → T ← Y: half the
  time the pushout's own legs followed by a bijection of the pushout (an
  automorphism or not, pointed or not), else any two pointed maps into
  any T."""
  objects = SMALL[draw(st.sampled_from(sorted(SMALL)))]
  W, X, Y = (draw(st.sampled_from(objects)) for _ in range(3))
  f = draw(st.sampled_from(hom_maps(W, X)))
  g = draw(st.sampled_from(hom_maps(W, Y)))
  Q, jx, jy = pushout(f, g)
  if draw(st.booleans()):
    T = Q
    h = dict(zip(Q.elements, draw(st.permutations(Q.elements))))
    legs = [{x: h[q] for x, q in j.mapping.items()} for j in (jx, jy)]
  else:
    T = draw(st.sampled_from(objects + [Q]))
    legs = [{x: T.base if x == S.base else draw(st.sampled_from(T.elements))
             for x in S.elements} for S in (X, Y)]
  return (f, g, ASetMap._trusted(X, T, legs[0]),
          ASetMap._trusted(Y, T, legs[1]))


@settings(max_examples=400, deadline=None)
@given(cocones())
def test_the_pushout_check_is_the_factorization_through_the_pushout(cocone):
  f, g, c1, c2 = cocone
  Q, jx, jy = pushout(f, g)
  assert _pushout_is(f, g, c1, c2) == legs_factor_as_iso(
      Q, ((f.target, jx, c1), (g.target, jy, c2)), c1.target)


def test_class_names_that_print_alike_are_refused():
  # 1 and "1" are distinct elements whose classes would both be named "1"
  X = FiniteASet(F1, [STAR, 1, "1"], {}, STAR)
  ident = identity_map(X)
  with pytest.raises(InvalidStructure):
    coequalizer(ident, ident)
  pt = point_aset(F1)
  with pytest.raises(InvalidStructure):
    pushout(ASetMap(pt, X, {STAR: STAR}), identity_map(pt))


def test_products_and_wedges_pass_the_public_constructors():
  # both are built unchecked
  for objects in SMALL.values():
    for X in objects[-3:]:
      for Y in objects[-3:]:
        P, px, py = product(X, Y)
        assert P.size() == X.size() * Y.size()
        FiniteASet(P.monoid, P.elements, P.action, P.base)
        ASetMap(P, X, px.mapping)
        ASetMap(P, Y, py.mapping)
        W, ix, iy = wedge(X, Y)
        assert W.size() == X.size() + Y.size() - 1
        FiniteASet(W.monoid, W.elements, W.action, W.base)
        ASetMap(X, W, ix.mapping)
        ASetMap(Y, W, iy.mapping)


def test_fiber_product_refuses_colliding_labels():
  # (a, "b,c") and ("a,b", c) are different pairs with one label "(a,b,c)"
  X = FiniteASet(F1, [STAR, "a", "a,b"], {}, STAR)
  Y = FiniteASet(F1, [STAR, "b,c", "c"], {}, STAR)
  Z = point_aset(F1)
  f = ASetMap(X, Z, {x: STAR for x in X.elements})
  g = ASetMap(Y, Z, {y: STAR for y in Y.elements})
  with pytest.raises(InvalidStructure):
    fiber_product(f, g)


def test_exact_seq_from_sub_reads_the_lattice():
  X = all_nilpotent_asets(T3, 5)[-1]
  for s in X.subobject_sets():
    S, Q = X.subquotient(s)
    for given_as in (set(s), list(s)):
      seq = exact_seq_from_sub(X, given_as)
      assert seq.sub is S and seq.middle is X and seq.quotient is Q
      assert is_exact(seq)
      # the maps are the checked constructors' maps, and pass the public one
      assert seq.i == X.sub_aset(s)[1] and seq.p == X.quotient_by(s)[1]
      assert_public(S, seq.i, seq.p)


@pytest.mark.parametrize("subset", [{STAR, "1"}, {STAR, "t", "nope"}],
                         ids=["not closed", "foreign element"])
def test_exact_seq_from_sub_refuses_a_non_subobject(subset):
  with pytest.raises(InvalidStructure):
    exact_seq_from_sub(truncated_line(2), subset)


def test_the_sequences_of_one_subobject_share_its_mappings_and_verdict():
  X = all_nilpotent_asets(T3, 5)[-1]
  for s in X.subobject_sets():
    seqs = [exact_seq_from_sub(X, given_as)
            for given_as in (s, s, set(s), list(s), frozenset(list(s)))]
    first = seqs[0]
    assert first._kept._exact is None               # not judged yet
    assert is_exact(seqs[-1])
    for seq in seqs:
      # a fresh sequence and fresh maps around the kept mappings
      assert seq is first or (seq.i is not first.i and seq.p is not first.p)
      assert seq.i.mapping is first.i.mapping
      assert seq.p.mapping is first.p.mapping
      assert seq.sub is first.sub and seq.quotient is first.quotient
      assert seq._kept is first._kept and seq._kept._exact is True
  assert len(X._derived.sequences) == len(X.subobject_sets())


def counted_verdicts(monkeypatch):
  """A Counter whose "verdicts" entry counts exactness checks run from now
  on: ``is_exact`` calls ``is_surjective`` once per check it runs."""
  calls = Counter()
  surjective = ASetMap.is_surjective

  def counted(m):
    calls["verdicts"] += 1
    return surjective(m)

  monkeypatch.setattr(ASetMap, "is_surjective", counted)
  return calls


def test_is_exact_checks_each_subobject_once(monkeypatch):
  X = all_nilpotent_asets(T3, 5)[-1]
  subs = X.subobject_sets()
  calls = counted_verdicts(monkeypatch)
  for _ in range(3):
    for s in subs:
      assert is_exact(exact_seq_from_sub(X, s))
  assert calls["verdicts"] == len(subs)
  # a sequence built by hand, even on the kept maps, is checked on its own
  kept = exact_seq_from_sub(X, subs[-1])
  by_hand = ExactSeq(kept.i, kept.p)
  assert is_exact(by_hand) and is_exact(by_hand)
  assert calls["verdicts"] == len(subs) + 1


@pytest.mark.parametrize("leg", ["i", "p"])
def test_a_corrupted_hand_built_sequence_does_not_touch_the_kept_verdict(leg):
  X = all_nilpotent_asets(T3, 5)[-1]
  s = next(s for s in X.subobject_sets() if 1 < len(s) < X.size())
  kept = exact_seq_from_sub(X, s)
  assert is_exact(kept)
  # the zero map: i is no longer one-to-one, and p kills more than S
  m = getattr(kept, leg)
  zero = corrupted(m, lambda x, y: m.target.base)
  assert zero.mapping != m.mapping
  maps = {"i": kept.i, "p": kept.p, leg: zero}
  by_hand = ExactSeq(maps["i"], maps["p"])
  assert by_hand.sub is kept.sub and by_hand.quotient is kept.quotient
  assert not is_exact(by_hand)
  assert kept._kept._exact is True
  assert is_exact(exact_seq_from_sub(X, s))
  # the kept mappings are the checked constructors' maps still
  assert kept.i == X.sub_aset(s)[1] and kept.p == X.quotient_by(s)[1]


def test_case_11_judges_each_sequence_of_its_corpus_once(monkeypatch):
  # 6,739 sequence pairs over 415 (X, S): one exactness check per (X, S),
  # not one per sequence built
  corpus = all_pointed_sets(F1, 6) + all_nilpotent_asets(T3, 6)
  assert sum(len(X.subobject_sets()) for X in corpus) == 415
  calls = counted_verdicts(monkeypatch)
  result = case_11_key_diagram()
  assert result.passed
  assert result.computed == "0 failures over 6739 sequence pairs"
  assert calls["verdicts"] == 415


def test_a_key_diagram_validates_only_its_checks(monkeypatch):
  # the legs and the derived sequences are built unchecked, and verify
  # decides every entry on the carrier: it builds no object and no map,
  # checked or not, and composes none
  six = [X for X in all_nilpotent_asets(T3, 6) if X.size() == 6]
  X = max(six, key=lambda Y: len(Y.subobject_sets()))
  subs = list(X.subobject_sets())
  counts = Counter()

  def counted(key, fn):
    def wrapper(*args, **kwargs):
      counts[key] += 1
      return fn(*args, **kwargs)
    return wrapper

  monkeypatch.setattr(FiniteASet, "__init__",
                      counted("objects", FiniteASet.__init__))
  monkeypatch.setattr(ASetMap, "__init__", counted("maps", ASetMap.__init__))
  monkeypatch.setattr(ASetMap, "compose",
                      counted("composites", ASetMap.compose))
  seq1 = exact_seq_from_sub(X, subs[len(subs) // 2])
  seq2 = exact_seq_from_sub(X, subs[-2])
  kd = key_diagram(X, seq1, seq2)
  assert counts["objects"] == counts["maps"] == counts["composites"] == 0
  for cls, key in ((FiniteASet, "trusted objects"), (ASetMap, "trusted maps")):
    monkeypatch.setattr(cls, "_trusted",
                        classmethod(counted(key, cls._trusted.__func__)))
  assert all(kd.verify().values())
  # objects, maps and composites are 0, and so are trusted objects and maps
  assert counts == Counter()


def sequence_pairs(X):
  seqs = [exact_seq_from_sub(X, s) for s in X.subobject_sets()]
  return [(s1, s2) for s1 in seqs for s2 in seqs]


def assert_verdicts_agree(X, s1, s2):
  kd = key_diagram(X, s1, s2)
  assert kd.verify() == oracle_verify(kd)
  # the shared subquotients and the derived sequences are what the
  # uncached constructors build
  for subset, sub, quo in ((kd.s12, kd.sub12, kd.quo12),
                           (kd.s1, kd.sub1, kd.quo1), (kd.s2, kd.sub2, kd.quo2),
                           (kd.su, kd.sub_u, kd.quo_u)):
    assert sub.same_carrier(X.sub_aset(subset)[0])
    assert quo.same_carrier(X.quotient_by(subset)[0])
  for seq, subset in ((kd.seq_meet, kd.s12), (kd.seq_join, kd.su)):
    want = exact_seq_from_sub(X, subset)
    assert seq.i == want.i and seq.p == want.p


def test_verify_agrees_with_the_oracle_up_to_five_elements():
  corpus = (all_pointed_sets(F1, 5) + all_nilpotent_asets(T3, 5)
            + all_nsets(5))
  pairs = 0
  for X in corpus:
    for s1, s2 in sequence_pairs(X):
      assert_verdicts_agree(X, s1, s2)
      pairs += 1
  assert pairs == 1323 + 4494


def test_verify_agrees_with_the_oracle_on_six_element_samples():
  rng = random.Random(11)
  six = [X for X in all_pointed_sets(F1, 6) + all_nilpotent_asets(T3, 6)
         if X.size() == 6]
  pairs = [(X, s1, s2) for X in six for s1, s2 in sequence_pairs(X)]
  assert len(pairs) == 6739 - 1323
  for X, s1, s2 in rng.sample(pairs, 400):
    assert_verdicts_agree(X, s1, s2)


def corrupted(m, image_of):
  """m with each nonbase x sent to image_of(x, m(x)), unchecked."""
  mapping = {x: y if x == m.source.base else image_of(x, y)
             for x, y in m.mapping.items()}
  return ASetMap._trusted(m.source, m.target, mapping)


LEGS = ("i12_1", "i12_2", "i1_u", "i2_u", "q12_1", "q12_2", "q1_u", "q2_u")


@pytest.mark.parametrize("leg", LEGS)
def test_a_corrupted_leg_fails_the_same_checks_under_both_versions(leg):
  # over F1 any pointed map is a morphism: send every element to the
  # first nonbase element of the target that it is not sent to already;
  # the zero map is a morphism over any monoid
  cases = [(pointed_set("a", "b", "c"), {STAR, "a", "b"}, {STAR, "b", "c"},
            lambda m: corrupted(m, lambda x, y: next(
                (z for z in m.target.nonbase() if z != y), y))),
           (truncated_line(3), {STAR, "t", "t^2"}, {STAR, "t^2"},
            lambda m: corrupted(m, lambda x, y: m.target.base)),
           (all_nilpotent_asets(T3, 6)[-1], None, None,
            lambda m: corrupted(m, lambda x, y: m.target.base))]
  failed_somewhere = False
  for X, set1, set2, corrupt in cases:
    if set1 is None:
      subs = X.subobject_sets()
      set1, set2 = subs[len(subs) // 2], subs[-2]
    kd = KeyDiagram(X, set1, set2)
    bad = corrupt(getattr(kd, leg))
    if bad.mapping == getattr(kd, leg).mapping:
      continue
    setattr(kd, leg, bad)
    new = {k for k, v in kd.verify().items() if not v}
    old = {k for k, v in oracle_verify(kd).items() if not v}
    assert new - KERNEL_KEYS == old - KERNEL_KEYS
    assert old & KERNEL_KEYS <= new & KERNEL_KEYS
    failed_somewhere = failed_somewhere or bool(old)
  assert failed_somewhere


def test_the_kernel_comparison_needs_a_bijection():
  # q12_2 folds ker q12_1 = {*, a, b} onto ker q2_u = {*, a}: onto, but not
  # one-to-one
  X = pointed_set("a", "b", "c")
  kd = KeyDiagram(X, {STAR, "a", "b"}, {STAR})
  kd.q12_2 = corrupted(kd.q12_2, lambda x, y: "a" if x == "b" else y)
  kd.q2_u = corrupted(kd.q2_u, lambda x, y: "c" if x == "b" else y)
  assert {kd.q12_2(x) for x in (STAR, "a", "b")} == {STAR, "a"}
  assert kd.q2_u.preimage({STAR}) == {STAR, "a"}
  assert not kd.verify()["epic_square_kernel_comparison_1"]


def a_diagram_with_room():
  """(kd, x): the first diagram on a 6-element N/(t³)-set with S1 and S2
  incomparable and S1 ∩ S2 ≠ ∗, and an element x outside S1 ∪ S2 whose
  image under t is outside S1 ∪ S2 ∪ {x}: adding x to any of the four
  sets leaves it not closed under t."""
  for X in all_nilpotent_asets(T3, 6):
    t = X.action["t"]
    for s1, s2 in itertools.combinations(X.subobject_sets(), 2):
      su = s1 | s2
      if s1 <= s2 or s2 <= s1 or len(s1 & s2) == 1:
        continue
      for x in X.nonbase():
        if x not in su and t[x] not in su | {x}:
          return KeyDiagram(X, s1, s2), x
  raise AssertionError("no such diagram")


def failing(report):
  return {k for k, v in report.items() if not v}


@pytest.mark.parametrize("attr, entry", [("s12", "lattice_meet"),
                                         ("su", "lattice_join")])
def test_a_meet_or_join_that_is_not_a_subobject_fails_its_entry(attr, entry):
  kd, x = a_diagram_with_room()
  assert failing(kd.verify()) == set()
  s = getattr(kd, attr)
  # not closed; misses ∗; a subobject, but S1 is neither S1 ∩ S2 nor S1 ∪ S2
  for bad in (s | {x}, s - {STAR}, kd.s1):
    setattr(kd, attr, bad)
    assert failing(kd.verify()) == {entry}


def test_the_lattice_entries_test_closure_not_only_the_set_identities():
  # x joins all four sets: S12 is still S1 ∩ S2 and Su still S1 ∪ S2, but
  # neither is closed.  The lattice walk the entries replaced tests only
  # the set identities, so it passes.
  kd, x = a_diagram_with_room()
  kd.s1, kd.s2, kd.s12, kd.su = (s | {x} for s in (kd.s1, kd.s2, kd.s12,
                                                    kd.su))
  assert kd.s12 == kd.s1 & kd.s2 and kd.su == kd.s1 | kd.s2
  assert failing(kd.verify()) == {"lattice_meet", "lattice_join"}
  assert failing(oracle_verify(kd)) == set()


def test_a_meet_object_with_another_action_fails_only_the_pullback():
  # the diagonal X'12 → X'1 ×_X' X'2 must be equivariant: X'12 on the same
  # carrier, with t acting as the identity, fails it and nothing else
  kd, _ = a_diagram_with_room()
  S = kd.sub12
  assert any(gmap[x] != x for gmap in S.action.values() for x in S.elements)
  kd.sub12 = FiniteASet._trusted(
      S.monoid, S.elements, {g: {x: x for x in S.elements} for g in S.action},
      S.base)
  assert failing(kd.verify()) == {"monic_square_ambient_pullback"}
  assert failing(oracle_verify(kd)) == {"monic_square_ambient_pullback"}


@pytest.mark.parametrize("leg, entry", [
    ("q12_1", "meet_quotient_embeds_in_product"),
    ("i1_u", "monic_square_ambient_pullback")])
def test_a_corrupted_leg_fails_the_product_and_pullback_entries(leg, entry):
  # the zero map is a morphism; q12_1 becomes non-injective on X''12, and
  # i1_u sends X'1 to ∗.  With the other legs right, the product
  # embedding follows from the kernel comparisons and the commuting epic
  # square, and the pullback from the commuting monic square and its
  # pushout, so neither can fail alone; the old code path fails the same
  # entries, up to its kernel comparison by isomorphism
  kd, _ = a_diagram_with_room()
  good = getattr(kd, leg)
  bad = corrupted(good, lambda x, y: good.target.base)
  if leg == "q12_1":
    assert not bad.is_injective()
  setattr(kd, leg, bad)
  new, old = failing(kd.verify()), failing(oracle_verify(kd))
  assert entry in new
  assert new - KERNEL_KEYS == old - KERNEL_KEYS


def _diagrams_on(X):
  # every sequence comes from exact_seq_from_sub and is dropped here
  for s1, s2 in sequence_pairs(X):
    kd = key_diagram(X, s1, s2)
    assert all(kd.verify().values())
  assert X.subquotient(kd.s1)[0] is kd.sub1        # the table is filled


def test_the_table_keeps_one_copy_of_each_subobject_set():
  X = all_nilpotent_asets(T3, 5)[-1]
  for s in X.subobject_sets():
    copy = frozenset(list(s))
    assert copy is not s
    S, Q = X.subquotient(copy)
    # the stored subobject's carrier set is the frozenset first asked for
    assert S._element_set is copy
    assert S.same_carrier(X.sub_aset(s)[0])
    assert Q.same_carrier(X.quotient_by(s)[0])
    assert X.subquotient(s)[0] is S and X.subquotient(s)[1] is Q
  # a foreign element, and a set inside the carrier that is not closed
  for Y, bad in ((X, {STAR, "not an element"}),
                 (truncated_line(2), {STAR, "1"})):
    with pytest.raises(InvalidStructure):
      Y.subquotient(frozenset(bad))


def test_the_object_table_pins_nothing():
  # with the cyclic collector off, X must die with its last reference: a
  # table entry that refers back to X would keep it alive
  enabled = gc.isenabled()
  gc.disable()
  try:
    X = all_nilpotent_asets(T3, 5)[-1]
    _diagrams_on(X)
    # every sequence's mappings and verdict are kept on X, and none of them
    # refers to X: X dies while a record of it is still held
    records = X._derived.sequences
    assert set(records) == set(X.subobject_sets())
    assert all(record._exact is True for record in records.values())
    alive = weakref.ref(X)
    del X
    assert alive() is None
    assert all(record._exact is True for record in records.values())
  finally:
    if enabled:
      gc.enable()
