"""Distinguished squares and the nine-object diagram."""

import pytest

from monoidkit.asets import (ASetMap, ExactSeq, FiniteASet, STAR,
                             exact_seq_from_sub, fiber_product, identity_map,
                             point_aset, pushout_monics, truncated_line, wedge)
from monoidkit.corpora import all_nilpotent_asets, all_pointed_sets
from monoidkit.diagrams import (KeyDiagram, induced_cokernel_map,
                                is_distinguished_square, key_diagram)
from monoidkit.errors import InvalidStructure
from monoidkit.monoids import FiniteMonoid


def pointed_set(*names):
  """A pointed set viewed as an F1-set (no generators, no action to give)."""
  return FiniteASet(FiniteMonoid.f1(), [STAR, *names], {}, STAR)


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

  PO, j1, j2 = pushout_monics(bottom, left)
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
  from monoidkit.asets import free_aset
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
