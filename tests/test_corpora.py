"""The corpus generators, cross-checked against raw table enumeration."""

import gc
import hashlib
import math
import random
import weakref

import pytest

from monoidkit import corpora
from monoidkit.asets import STAR, FiniteASet, is_rooted_tree, nat_set
from monoidkit.corpora import (NShape, all_gamma_asets, all_nilpotent_asets,
                               all_nsets, all_nshapes, all_pointed_sets,
                               brute_force_asets, close_under_subquotients,
                               crown_shapes, dedup_up_to_iso,
                               random_nset,
                               subquotient_relations,
                               tree_shapes, unit_subgroups)
from monoidkit.errors import ClosureBoundExceeded, InvalidStructure
from monoidkit.monoids import FiniteMonoid, NatMonoid


def test_rooted_tree_counts():
  # 1, 1, 2, 4, 9, 20 rooted trees on 1..6 nodes
  assert [len(tree_shapes(n)) for n in range(1, 7)] == [1, 1, 2, 4, 9, 20]


def test_crown_counts():
  assert [len(crown_shapes(n)) for n in range(1, 5)] == [1, 2, 4, 9]


def test_nset_classes_match_raw_enumeration():
  structural = all_nsets(6)
  raw = brute_force_asets(NatMonoid(), 6)
  assert len(structural) == len(raw)
  assert len(dedup_up_to_iso(structural)) == len(structural)


def test_dedup_keeps_the_first_of_each_class_in_input_order():
  classes = all_nsets(5)
  copies = [nat_set(X.action["t"]) for X in reversed(classes)]
  mixed = [X for pair in zip(copies, classes) for X in pair]
  kept = []
  for X in mixed:
    if not any(X.is_isomorphic(R) for R in kept):
      kept.append(X)
  assert [id(X) for X in dedup_up_to_iso(mixed)] == [id(X) for X in kept]


def test_tree_shapes_know_pc():
  for shape in all_nshapes(6):
    assert bool(shape.crowns) != is_rooted_tree(shape.to_aset())


def test_nilpotent_corpus_matches_raw_enumeration():
  A = FiniteMonoid.truncated_free(2)
  structural = all_nilpotent_asets(A, 5)
  raw = brute_force_asets(A, 5)
  assert len(structural) == len(raw)
  assert all(X.validate().ok for X in structural)


def test_pointed_set_corpus():
  F1 = FiniteMonoid.f1()
  corpus = all_pointed_sets(F1, 6)
  assert [X.size() for X in corpus] == [1, 2, 3, 4, 5, 6]
  assert len(brute_force_asets(F1, 6)) == 6


def test_unit_subgroups():
  assert len(unit_subgroups(FiniteMonoid.group_with_zero([2]))) == 2
  assert len(unit_subgroups(FiniteMonoid.group_with_zero([3]))) == 2
  assert len(unit_subgroups(FiniteMonoid.group_with_zero([2, 2]))) == 5
  assert len(unit_subgroups(FiniteMonoid.group_with_zero([4]))) == 3


def test_gamma_corpus_matches_raw_enumeration():
  G2 = FiniteMonoid.group_with_zero([2])
  structural = all_gamma_asets(G2, 4)
  raw = brute_force_asets(G2, 4)
  assert len(structural) == len(raw) == 6
  for X, stabilizers in structural:
    assert X.validate().ok
    assert sum((2 // s) for s in stabilizers) == X.size() - 1


def test_gamma_corpus_v4_sizes():
  V4 = FiniteMonoid.group_with_zero([2, 2])
  corpus = all_gamma_asets(V4, 5)
  # orbits have size 1, 2 (three ways), or 4; all multisets fitting in 4
  assert all(X.size() <= 5 for X, _ in corpus)
  assert len(dedup_up_to_iso([X for X, _ in corpus])) == len(corpus)


def test_subquotient_closure():
  from monoidkit.asets import truncated_line
  reps = close_under_subquotients([truncated_line(3)])
  assert len(reps) == 4      # lines of length 0..3
  with pytest.raises(ClosureBoundExceeded):
    close_under_subquotients([truncated_line(3)], bound=2)


def random_aset(rng, monoid, max_nonbase, attempts=200):
  """A random A-set over any supported monoid (rejection sampling fallback)."""
  if isinstance(monoid, NatMonoid):
    return random_nset(rng, max_nonbase)
  if set(monoid.unit_elements()) == set(monoid.elements) - {monoid.zero}:
    return rng.choice(all_gamma_asets(monoid, max_nonbase + 1))[0]
  gens = monoid.generators()
  for _ in range(attempts):
    m = rng.randint(0, max_nonbase)
    carrier = [f"x{i}" for i in range(1, m + 1)]
    action = {g: {x: rng.choice(carrier + [STAR]) for x in carrier}
              for g in gens}
    try:
      X = FiniteASet(monoid, [STAR] + carrier, action, STAR)
    except InvalidStructure:
      continue
    if X.validate().ok:
      return X
  raise InvalidStructure(
      f"no valid random action on {monoid.name} found in {attempts} attempts")


def test_samplers_are_seeded_and_valid():
  a = random_nset(random.Random(7), 6)
  b = random_nset(random.Random(7), 6)
  assert a.elements == b.elements and a.action == b.action
  V4 = FiniteMonoid.group_with_zero([2, 2])
  for seed in range(10):
    X = random_aset(random.Random(seed), V4, 7)
    assert X.validate().ok
  A = FiniteMonoid.truncated_free(3)
  for seed in range(10):
    X = random_aset(random.Random(seed), A, 5)
    assert X.validate().ok


def test_the_closure_walk_builds_what_sub_aset_and_quotient_by_build(
    monkeypatch):
  """Over N-sets, which have no canonical key, the walk indexes S, then X/S,
  for each subobject of each X it walks, in lattice order; each must be the
  object the public, checking constructors build, in the same element
  order."""
  walked, indexed = [], []
  walk, index = FiniteASet._walk_masks, corpora.IsoClasses.index

  def spy_walk(X):
    masks = walk(X)
    walked.append((X, list(X._sets_of(masks))))
    return masks

  def spy_index(classes, X):
    indexed.append(X)
    return index(classes, X)

  monkeypatch.setattr(FiniteASet, "_walk_masks", spy_walk)
  monkeypatch.setattr(corpora.IsoClasses, "index", spy_index)
  seeds = all_nsets(5)
  subquotient_relations(seeds, bound=128)
  built = iter(indexed[len(seeds):])
  pairs = 0
  for X, subs in walked:
    for s in subs:
      for got, want in ((next(built), X.sub_aset(s)[0]),
                        (next(built), X.quotient_by(s)[0])):
        assert got.elements == want.elements and got.same_carrier(want)
      pairs += 1
    assert X._derived is None        # the walk keeps nothing on X
  assert next(built, None) is None
  assert pairs > 200


def test_the_gamma_walk_builds_only_the_classes_it_opens(monkeypatch):
  """Over Γ₊-sets the walk builds S or X/S only when it opens a class, and
  builds it on the first subobject, in lattice order, of its sub-multiset
  of orbits: the object sub_aset or quotient_by builds there."""
  built = []

  def spy(name, make):
    def build(X, s, *args):
      built.append((name, X, s, make(X, s, *args)))
      return built[-1][3]
    return build

  for name in ("_sub_object", "_quotient_object"):
    monkeypatch.setattr(FiniteASet, name,
                        spy(name, getattr(FiniteASet, name)))
  seeds = []
  for orders in ([2], [3], [4], [2, 2]):
    G = FiniteMonoid.group_with_zero(orders)
    seeds += [X for X, _ in all_gamma_asets(G, 8) if X.size() >= 7]
  reps, _ = subquotient_relations(seeds, bound=256)
  monkeypatch.undo()
  opened = {id(R) for R in reps[len(seeds):]}
  assert len(built) == len(opened) > 20
  # the walk keeps nothing on X; the checks below read X's lattice
  assert all(X._derived is None for _, X, _, _ in built)
  for name, X, s, got in built:
    assert id(got) in opened
    want = (X.sub_aset(s) if name == "_sub_object" else X.quotient_by(s))[0]
    assert got.elements == want.elements and got.same_carrier(want)
    key = X.sub_aset(s)[0].canonical_key()
    first = next(t for t in X.subobject_sets()
                 if X.sub_aset(t)[0].canonical_key() == key)
    assert first == s


def test_derived_keys_are_the_built_objects_keys():
  """For every subobject s of every Γ₊-set to 8 elements, the walk's step
  for the sub-multiset of s carries the keys of S and X/S as built; the
  steps are the first subobject of each sub-multiset, in lattice order."""
  checked = 0
  for orders in ([2], [3], [4], [2, 2]):
    G = FiniteMonoid.group_with_zero(orders)
    for X, _ in all_gamma_asets(G, 8):
      steps = corpora._subobject_steps(X, X._orbit_masks())
      lattice = X.subobject_sets()
      by_key = {sub_key: (s, quotient_key)
                for s, sub_key, quotient_key in steps}
      assert len(by_key) == len(steps)
      positions = [lattice.index(s) for s, _, _ in steps]
      assert positions == sorted(positions)
      first = {}
      for s in lattice:
        S, Q = X.sub_aset(s)[0], X.quotient_by(s)[0]
        step, quotient_key = by_key[S.canonical_key()]
        assert quotient_key == Q.canonical_key(), (X, s)
        assert first.setdefault(S.canonical_key(), s) == step
        checked += 1
      assert len(first) == len(steps)
  assert checked > 2500


def per_subset_walk(seeds, bound):
  """The closure walk with no orbit multisets: S, then X/S, built and
  indexed for every subobject of every representative."""
  classes = corpora.IsoClasses()
  reps, work, ends = classes.reps, [], []

  def index(X):
    known = len(reps)
    i = classes.index(X)
    if i == known:
      assert known < bound
      work.append(i)
    return i

  for X in seeds:
    index(X)
  while work:
    i = work.pop()
    X = reps[i]
    for s in X.subobject_sets():
      ends.append((i, index(X._sub_object(s)), index(X._quotient_object(s))))
  rows = {}
  for i, j, k in ends:
    row = {i: 1}
    for t in (j, k):
      row[t] = row.get(t, 0) - 1
    row = {t: c for t, c in row.items() if c}
    rows.setdefault(frozenset(row.items()), row)
  return reps, list(rows.values())


def test_the_walk_matches_the_per_subset_walk_on_shuffled_carriers():
  """Orbits interleaved in the carrier order, seeds in random order: reps,
  rows and their order equal those of the per-subset walk."""
  rng = random.Random(22)
  for orders in ([2], [3], [4], [2, 2], [6]):
    G = FiniteMonoid.group_with_zero(orders)
    seeds = []
    for X, _ in all_gamma_asets(G, 8):
      if X.size() >= 5 and rng.random() < 0.5:
        elements = list(X.elements)
        rng.shuffle(elements)
        seeds.append(FiniteASet(G, elements, X.action, X.base))
    rng.shuffle(seeds)
    want_reps, want_rows = per_subset_walk(seeds, bound=256)
    reps, rows = subquotient_relations(seeds, bound=256)
    assert [content(X) for X in reps] == [content(X) for X in want_reps]
    assert repr(rows) == repr(want_rows), orders


# ------------------------------------------ iterative enumeration, same output


def content(X):
  """Name, basepoint, carrier and actions of X, all in their own order."""
  return (X.name, X.base, list(X.elements),
          [(g, list(m.items())) for g, m in X.action.items()])


def digest(parts):
  return hashlib.sha256(repr(list(parts)).encode()).hexdigest()


# SHA-256 of the enumerations as the recursive enumerators produced them
NSHAPES_7 = "6829e48cb1fe07dbc40f597a039b62deda3e1caed32caf4bd246bd7548e9b278"
GAMMA_9 = {
    (2,): "970da48bd83da022defcafa724ae8ac01b4e3e0db9c3323ec61687be1a572bdf",
    (3,): "2a041032a19d3b2df957f221acf148463c956f50720b26db376f5d03f7782985",
    (4,): "193323804d1a83bd3164e4de956f5290e025e42e285edb883a21241ec1b1f5e7",
    (2, 2): "b7aae31e1518d0ae06806c34a00be683a735f1f541d658e7cf337ab9658dcd46",
    (6,): "7595c072522ed465608eeb11e8930bdfc65c40c56e76f263e38a74cf692aac8e",
    (2, 4): "f756ba5e56ae55f8ee835a7541d4766cde11cee94d063908943f1037a59984dd",
    (2, 2, 2):
        "0a74cfda5303ac3db3bc943fa1524705499d37a51c9f315156c503473ebf2a70",
}
# and of subquotient_relations' (reps, rows) on each group and cap of the
# k0_presentation benchmark workload, from the isomorphism-search index
WALK = {
    (2,): "a04f645faa09af7aadecdba688aa0a10904bc54dea83a04add022d0898427943",
    (3,): "b5ed99bb4d4e715853e68eae3513daeeb334871bab93bc12c422e5f983090ca6",
    (2, 2): "16cbde3deb719365992e11b2f2b250dc7adcde3a2fa110b528226661604f9a50",
    (4,): "0db3be0c6810e5f42159137ed374529e066cbd9b7e1b3c7e5f75ad107b902aef",
    (5,): "81f595ab6894704bdb425c7287888ac3ad90118101eb8274626b8ba9d6e99e0f",
}


def test_nshape_and_gamma_enumerations_are_unchanged():
  assert digest(content(s.to_aset()) for s in all_nshapes(7)) == NSHAPES_7
  for orders, want in GAMMA_9.items():
    G = FiniteMonoid.group_with_zero(list(orders))
    assert digest((content(X), stabilizers)
                  for X, stabilizers in all_gamma_asets(G, 9)) == want, orders


def test_closure_walk_output_is_unchanged_on_the_k0_workload():
  for orders, want in WALK.items():
    G = FiniteMonoid.group_with_zero(list(orders))
    parts = []
    for cap in range(math.prod(orders) + 1, 9):
      reps, rows = subquotient_relations(
          [X for X, _ in all_gamma_asets(G, cap)], bound=128)
      parts.append((cap, [content(X) for X in reps], repr(rows)))
    assert digest(parts) == want, orders


def test_a_line_shape_deeper_than_the_recursion_limit_builds():
  shape = ()
  for _ in range(2999):
    shape = (shape,)
  X = NShape([shape]).to_aset()
  assert X.size() == 3001 and is_rooted_tree(X)
  assert X.action["t"]["x1"] == STAR and X.action["t"]["x3000"] == "x2999"
  assert NShape([shape]).height() == 3000
  assert repr(NShape([((), ())], [((),)])) == \
      "NShape(forest=(((), ()),), crowns=(((),),))"


def test_a_gamma_corpus_dies_with_its_last_reference():
  G = FiniteMonoid.group_with_zero([2, 2])
  gc.collect()
  gc.disable()
  try:
    corpus = all_gamma_asets(G, 6)
    last = weakref.ref(corpus[-1][0])
    del corpus
    assert last() is None        # freed by reference counting, no GC pass
  finally:
    gc.enable()
