import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoidkit import corpora
from monoidkit.asets import (ASetMap, ExactSeq, FiniteASet, NotFiniteLength,
                             aset_length, coequalizer,
                             cokernel, cycle_nset, exact_seq_from_sub,
                             hom_maps, identity_map,
                             irreducible_chain, is_exact, is_pc_aset,
                             is_rooted_tree, kernel,
                             nat_set, orbit_decomposition, point_aset,
                             smash, truncated_line, wedge)
from monoidkit.errors import InvalidStructure
from monoidkit.monoids import STAR, FiniteMonoid, NatMonoid
from monoidkit.serre import support
from test_diagrams import fiber_product, product, pushout

import math


A3 = FiniteMonoid.truncated_free(2)          # {1, t, t^2, *}
F1 = FiniteMonoid.f1()
Z2 = FiniteMonoid.group_with_zero([2])
Z4 = FiniteMonoid.group_with_zero([4])


def wedge_list(sets):
  """The wedge of ``sets``, left to right, by ``wedge``."""
  acc = sets[0]
  for nxt in sets[1:]:
    acc, _, _ = wedge(acc, nxt)
  return acc


def free_aset(monoid, rank=1):
  """A wedge of ``rank`` copies of the finite acting monoid itself."""
  copies = []
  for k in range(rank):
    tag = "" if rank == 1 else f"@{k}"
    rename = {a: f"{a}{tag}" for a in monoid.elements}
    rename[monoid.zero] = STAR
    elements = [rename[a] for a in monoid.elements]
    action = {g: {rename[a]: rename[monoid.mul(g, a)] for a in monoid.elements}
              for g in monoid.generators()}
    copies.append(FiniteASet(monoid, elements, action, STAR))
  return wedge_list(copies) if len(copies) > 1 else copies[0]


def oracle_support(X):
  """Primes where the localized set does not vanish, by a walk over each
  prime's complement: the ``support`` oracle."""
  out = []
  if isinstance(X.monoid, NatMonoid):
    for p in X.monoid.primes():
      if p.label == "(t)":
        alive = len(X.elements) > 1
      else:
        # inverting t kills exactly the torsion part
        alive = not is_rooted_tree(X)
      if alive:
        out.append(p)
    return out
  table = X.full_action()
  for p in X.monoid.primes():
    comp = [a for a in X.monoid.elements if a not in p.subset]
    if any(all(table[s][x] != X.base for s in comp) for x in X.nonbase()):
      out.append(p)
  return out


def codim_support(X):
  """Minimal height in the support; math.inf for the point."""
  return min((p.height for p in support(X)), default=math.inf)


def f1_set(n):
  """A pointed set with n non-base elements and no structure."""
  return FiniteASet(F1, [STAR] + [f"x{i}" for i in range(n)], {}, STAR)


def test_construction_and_validation():
  X = free_aset(A3)
  assert X.validate().ok
  assert X.act("t", "1") == "t"
  assert X.act("t^2", "t") == STAR
  # swapping two elements respects g*g = 1 ...
  good = FiniteASet(Z2, [STAR, "x", "y"], {"g": {"x": "y", "y": "x"}})
  assert good.validate().ok
  # ... but x -> y -> y breaks it
  bad = FiniteASet(Z2, [STAR, "x", "y"], {"g": {"x": "y", "y": "y"}})
  assert not bad.validate().ok
  with pytest.raises(InvalidStructure):
    bad.full_action()


def test_one_equal_to_zero_leaves_the_point_only():
  """Over a monoid with 1 = 0 the unit acts as the identity and as the
  basepoint map, so only the point is an A-set."""
  for M in (FiniteMonoid([STAR], STAR, STAR, {(STAR, STAR): STAR}),
            FiniteMonoid.truncated_free(2).quotient_by_ideal(["1"])):
    assert point_aset(M).validate().ok
    for n in (1, 2):
      X = FiniteASet(M, [STAR] + [f"x{i}" for i in range(n)], {}, STAR)
      report = X.validate()
      assert not report.ok and "unit law" in report.violations[0], report
      with pytest.raises(InvalidStructure):
        X.full_action()
    assert [X.elements for X in corpora.brute_force_asets(M, 4)] == [[STAR]]


def test_structural_errors():
  with pytest.raises(InvalidStructure):
    FiniteASet(NatMonoid(), [STAR, "a"], {"t": {"a": "b"}})   # unknown image
  with pytest.raises(InvalidStructure):
    FiniteASet(NatMonoid(), [STAR, "a"], {"t": {"a": "a", STAR: "a"}})
  with pytest.raises(InvalidStructure):
    FiniteASet(NatMonoid(), [STAR, "a"], {"s": {"a": "a"}})   # wrong generator


def test_map_constructor_rejects_bad_input():
  X = truncated_line(2)                       # 1 -> t -> *
  ident = {x: x for x in X.elements}
  with pytest.raises(InvalidStructure, match="not equivariant"):
    ASetMap(X, X, {STAR: STAR, "1": "1", "t": "1"})
  with pytest.raises(InvalidStructure, match="outside the target"):
    ASetMap(X, X, dict(ident, t="t^2"))
  with pytest.raises(InvalidStructure, match="exactly the source carrier"):
    ASetMap(X, X, {STAR: STAR, "1": "1"})
  with pytest.raises(InvalidStructure, match="exactly the source carrier"):
    ASetMap(X, X, dict(ident, extra="t"))
  # the constant map onto a fixed point is equivariant but moves ∗
  fixed = nat_set({"p": "p"})
  with pytest.raises(InvalidStructure, match="basepoint"):
    ASetMap(fixed, fixed, {STAR: "p", "p": "p"})


def test_kernel_cokernel_image():
  X = truncated_line(3)                       # {1, t, t^2, *}
  sub = frozenset({STAR, "t^2"})
  seq = exact_seq_from_sub(X, sub)
  assert is_exact(seq)
  # kernel of the projection recovers the subobject
  k = kernel(seq.p)
  assert k.source._element_set == {STAR, "t^2"}
  # cokernel of the inclusion recovers the quotient
  c = cokernel(seq.i)
  assert c.target._element_set == {STAR, "1", "t"}
  # cokernel of an identity-like inclusion is the point
  c2 = cokernel(identity_map(X))
  assert c2.target.is_trivial()

  f = ASetMap(truncated_line(2), truncated_line(1),
              {STAR: STAR, "1": "1", "t": STAR})
  epi, mono = image_factorization(f)
  assert epi.is_surjective() and mono.is_injective()
  assert mono.source._element_set == {STAR, "1"}
  assert epi.compose(mono) == f


def image_factorization(f):
  """f = mono ∘ epi through the image subobject of the target."""
  img, incl = f.target.sub_aset(f.image_set())
  epi = ASetMap(f.source, img, dict(f.mapping))
  return epi, incl


def test_exactness_judgement():
  X = truncated_line(2)
  Z = truncated_line(1)
  W, ix, iz = wedge(X, Z)
  proj = ASetMap(W, Z, {w: (w if w in Z._element_set and w != "1" else
                            ("1" if w == "1#2" else STAR))
                        for w in W.elements})
  # wedge carries renamed clashing element names; rebuild explicitly instead
  assert W.size() == 4


def test_split_sequence_is_exact():
  X = truncated_line(2)
  Z = cycle_nset(1)  # fixed point c0
  W, ix, iz = wedge(X, Z)
  collapse = {w: STAR for w in X.nonbase()}
  quo, proj = W.quotient_by(frozenset([STAR] + [ix(x) for x in X.nonbase()]))
  seq = ExactSeq(ix, proj)
  assert is_exact(seq)
  assert quo.is_isomorphic(Z)
  # identity into the point
  pt = point_aset(NatMonoid())
  seq2 = ExactSeq(identity_map(X), ASetMap(X, pt, {x: STAR for x in X.elements}))
  assert is_exact(seq2)
  # a non-surjective "projection" fails
  seq3 = ExactSeq(identity_map(pt), ASetMap(pt, X, {STAR: STAR}))
  assert not is_exact(seq3)
  # a projection that merges two elements outside the image fails, and the
  # verdict kept on the sequence says so again
  Y = f1_set(2)
  merge = ASetMap(Y, f1_set(1), {STAR: STAR, "x0": "x0", "x1": "x0"})
  seq4 = ExactSeq(ASetMap(point_aset(F1), Y, {STAR: STAR}), merge)
  assert not is_exact(seq4) and not is_exact(seq4)


def test_subobjects_of_line():
  X = truncated_line(2)   # 1 -> t -> *
  subs = X.subobject_sets()
  assert sorted(sorted(s) for s in subs) == [
      [STAR], [STAR, "1", "t"], [STAR, "t"]]


def filter_subobjects(X):
  """The 2^n filter over every subset: the oracle for subobject_sets()."""
  rest = X.nonbase()
  out = []
  for r in range(len(rest) + 1):
    for combo in itertools.combinations(rest, r):
      cand = frozenset(combo) | {X.base}
      if X.is_admissible_subset(cand):
        out.append(cand)
  return out


def lattice_corpus():
  """Small A-sets over N, F1, N/(t^3) and three groups with zero, plus
  seeded random N-sets with up to 10 non-base elements."""
  out = list(corpora.all_nsets(6))
  out += corpora.all_pointed_sets(F1, 6)
  out += corpora.all_nilpotent_asets(A3, 6)
  for orders in ([2], [3], [2, 2]):
    gamma = FiniteMonoid.group_with_zero(orders)
    out += [X for X, _ in corpora.all_gamma_asets(gamma, 6)]
  rng = random.Random(20261018)
  out += [corpora.random_nset(rng, 10) for _ in range(60)]
  return out


def test_subobject_sets_match_the_filter_in_order():
  for X in lattice_corpus():
    assert X.subobject_sets() == filter_subobjects(X), X


def test_subobject_sets_is_a_new_list_on_each_call():
  # the masks are kept on X, the frozensets and the list are not
  for X in lattice_corpus()[::7]:
    first = X.subobject_sets()
    want = filter_subobjects(X)
    assert first == want
    first.pop()
    first.append(frozenset({"not a subobject"}))
    second = X.subobject_sets()
    assert second is not first and second == want, X


def test_subobject_sets_of_a_long_line():
  # 41 subobjects out of 2^40 subsets: out of reach of the filter
  assert len(truncated_line(40).subobject_sets()) == 41


def test_subobject_sets_of_a_dense_carrier():
  # every subset of 12 fixed points is a subobject
  X = nat_set({f"p{i:02}": f"p{i:02}" for i in range(12)})
  assert X.subobject_sets() == filter_subobjects(X)


def filtration_stages(X):
  """X's irreducible chain as exact sequences, previous stage >--> next
  stage -->> step, each stage built by the public constructors; or the
  chain's NotFiniteLength witness."""
  chain = irreducible_chain(X)
  if isinstance(chain, NotFiniteLength):
    return chain
  steps, cur = [], frozenset({X.base})
  for orb in chain:
    mid, _ = X.sub_aset(cur | orb)
    steps.append(exact_seq_from_sub(mid, cur))
    cur |= orb
  return steps


def recursive_chain(X):
  """The recursive DFS the chain search ran before it was made iterative:
  the orbits of the first chain found, or None."""
  if isinstance(X.monoid, NatMonoid):
    units, table = [], None
  else:
    units, table = X.monoid.unit_elements(), X.full_action()
  unit_count = len(units) or 1

  def unit_orbit(x):
    return frozenset({x}) if table is None else \
        frozenset(table[u][x] for u in units)

  def nonunit_images(x):
    if table is None:
      return {X.action["t"][x]}
    return {table[a][x] for a in X.monoid.elements
            if a not in units and a != X.monoid.one}

  target, dead = frozenset(X.elements), set()

  def extend(cur):
    if cur == target:
      return []
    if cur in dead:
      return None
    for x in sorted(map(str, target - cur)):
      orb = unit_orbit(x)
      if orb & cur or len(orb) != unit_count or not nonunit_images(x) <= cur:
        continue
      rest = extend(cur | orb)
      if rest is not None:
        return [orb] + rest
    dead.add(cur)
    return None

  return extend(frozenset({X.base}))


def test_length_filtration_matches_the_recursive_search_and_witness():
  for X in lattice_corpus():
    res = filtration_stages(X)
    chain = recursive_chain(X)
    if chain is not None:
      assert [s.middle._element_set - s.sub._element_set for s in res] == \
          [set(orb) for orb in chain], X
      continue
    assert isinstance(res, NotFiniteLength), X
    stuck = res.stuck_subset
    # the witness before it was computed directly: a smallest subobject
    # above stuck, ties to the first in lattice order
    oracle = min((s for s in filter_subobjects(X) if stuck < s),
                 key=len, default=frozenset(X.elements))
    assert res.blocking_extension == oracle, X


def test_witness_on_many_fixed_points():
  # 2^24 subobjects; the witness must not list them
  X = nat_set({f"p{i}": f"p{i}" for i in range(24)})
  res = irreducible_chain(X)
  assert isinstance(res, NotFiniteLength)
  assert res.blocking_extension == frozenset({STAR, "p0"})


def test_witness_on_many_leaves_and_a_fixed_point():
  # every leaf is adjoinable, the fixed point never is: a backtracking
  # search would visit all 2^24 stages of leaves before giving up
  X = nat_set({**{f"l{i:02}": STAR for i in range(24)}, "f": "f"})
  start = time.perf_counter()
  res = irreducible_chain(X)
  assert time.perf_counter() - start < 1.0
  assert aset_length(X) is None
  assert isinstance(res, NotFiniteLength)
  assert res.stuck_subset == frozenset(X.elements) - {"f"}
  assert res.blocking_extension == frozenset(X.elements)


def test_length_of_a_very_long_line():
  # deeper than the default recursion limit
  assert aset_length(truncated_line(1200)) == 1200


def test_chain_search_is_linear():
  X = truncated_line(20000)
  start = time.perf_counter()
  assert aset_length(X) == 20000
  assert time.perf_counter() - start < 1.0


# ------------------------------------------------- trusted constructions


def trusted_corpus():
  """N-sets to 5 elements, Γ₊-sets of Z/2 and Z/3 and N/(t³)-sets to 6."""
  out = [corpora.all_nsets(5), corpora.all_nilpotent_asets(A3, 6)]
  for orders in ([2], [3]):
    gamma = FiniteMonoid.group_with_zero(orders)
    out.append([X for X, _ in corpora.all_gamma_asets(gamma, 6)])
  return out


def check_object(T, elements, action):
  """T is valid and is the object on ``elements`` with ``action``."""
  rebuilt = FiniteASet(T.monoid, T.elements, T.action, T.base)
  expected = FiniteASet(T.monoid, elements, action, T.base)
  assert rebuilt.same_carrier(T) and expected.same_carrier(T), T
  assert T.elements == elements


def check_map(f, mapping):
  """f is a valid morphism and has ``mapping``."""
  rebuilt = ASetMap(f.source, f.target, f.mapping)
  assert rebuilt.mapping == f.mapping == mapping


def test_trusted_constructions_pass_the_public_constructors():
  """Every object and map sub_aset, quotient_by, hom_maps and compose build
  unchecked is rebuilt through the validating constructors and compared
  with what it is by definition."""
  maps = 0
  for corpus in trusted_corpus():
    projections = {}
    for X in corpus:
      projections[X] = []
      for s in X.subobject_sets():
        sub, incl = X.sub_aset(s)
        keep = [x for x in X.elements if x in s]
        check_object(sub, keep, {g: {x: m[x] for x in keep}
                                 for g, m in X.action.items()})
        check_map(incl, {x: x for x in keep})
        quo, proj = X.quotient_by(s)
        push = {x: X.base if x in s else x for x in X.elements}
        keep = [x for x in X.elements if x not in s or x == X.base]
        check_object(quo, keep, {g: {x: push[m[x]] for x in keep}
                                 for g, m in X.action.items()})
        check_map(proj, push)
        check_map(incl.compose(proj), {x: X.base for x in sub.elements})
        projections[X].append(proj)
    for X in corpus:
      for Y in corpus:
        # each map is composed with one projection of Y, in rotation
        for f, p in zip(hom_maps(X, Y), itertools.cycle(projections[Y])):
          check_map(f, f.mapping)
          check_map(f.compose(p), {x: p(f(x)) for x in X.elements})
          maps += 1
  assert maps == 149001


def recursive_hom_maps(X, Y):
  """The recursive search hom_maps ran before it was made iterative."""
  xs = X.nonbase()
  gens = list(X.action)
  out = []
  assignment = {X.base: Y.base}

  def consistent(x):
    for g in gens:
      gx = X.action[g][x]
      if gx in assignment and assignment[gx] != Y.action[g][assignment[x]]:
        return False
      for z in xs:
        if X.action[g][z] == x and z in assignment and \
           Y.action[g][assignment[z]] != assignment[x]:
          return False
    return True

  def backtrack(i):
    if i == len(xs):
      out.append(ASetMap(X, Y, dict(assignment)))
      return
    x = xs[i]
    for y in Y.elements:
      assignment[x] = y
      if consistent(x):
        backtrack(i + 1)
      del assignment[x]

  backtrack(0)
  return out


def test_hom_maps_match_the_recursive_search_in_order():
  sets = corpora.all_nsets(4)
  for X in sets:
    for Y in sets:
      assert [f.mapping for f in hom_maps(X, Y)] == \
          [f.mapping for f in recursive_hom_maps(X, Y)], (X, Y)


def test_hom_maps_from_a_very_long_line():
  # deeper than the default recursion limit
  maps = hom_maps(truncated_line(1200), point_aset(NatMonoid()))
  assert len(maps) == 1


def test_smash_counts_over_f1():
  X, Y = f1_set(3), f1_set(4)
  S = smash(X, Y)
  assert S.size() == 3 * 4 + 1


def test_smash_unit_law():
  A_free = free_aset(A3)
  Y = truncated_line(2)
  Y_fin = FiniteASet(A3, Y.elements, {"t": dict(Y.action["t"])})
  S = smash(A_free, Y_fin)
  assert S.is_isomorphic(Y_fin)
  P = smash(point_aset(A3), Y_fin)
  assert P.is_trivial()


def test_wedge_and_product():
  X, Y = truncated_line(1), truncated_line(2)
  W, ix, iy = wedge(X, Y)
  assert W.size() == X.size() + Y.size() - 1
  assert ix.is_injective() and iy.is_injective()
  P, px, py = product(X, Y)
  assert P.size() == X.size() * Y.size()
  assert px.is_surjective() and py.is_surjective()


def test_constructions_accept_objects_over_equal_monoids():
  # two f1() calls build equal monoids, not one shared instance
  X = FiniteASet(FiniteMonoid.f1(), [STAR, "a"], {}, STAR)
  Y = FiniteASet(FiniteMonoid.f1(), [STAR, "b", "c"], {}, STAR)
  assert X.monoid is not Y.monoid and X.monoid == Y.monoid
  assert wedge(X, Y)[0].size() == 4
  assert product(X, Y)[0].size() == 6
  to_x = ASetMap(X, point_aset(FiniteMonoid.f1()),
                 {STAR: STAR, "a": STAR})
  to_y = ASetMap(Y, point_aset(FiniteMonoid.f1()),
                 {STAR: STAR, "b": STAR, "c": STAR})
  assert fiber_product(to_x, to_y)[0].size() == 6
  copy = FiniteASet(FiniteMonoid.f1(), [STAR, "a"], {}, STAR)
  assert copy.same_carrier(X) and copy.is_isomorphic(X)


def test_coequalizer_merges_and_closes():
  Y = truncated_line(2)            # 1 -> t -> *
  ident = identity_map(Y)
  shift = ASetMap(Y, Y, {STAR: STAR, "1": "t", "t": STAR})
  Q, proj = coequalizer(ident, shift)
  # 1 ~ t and t ~ *; the action closure collapses everything
  assert Q.is_trivial()
  assert proj.is_surjective()

  Q2, _ = coequalizer(ident, ident)
  assert Q2.is_isomorphic(Y)


def test_fiber_product_and_pushout():
  X = truncated_line(2)
  sub = frozenset({STAR, "t"})
  S, incl = X.sub_aset(sub)
  quo, proj = X.quotient_by(sub)
  # pullback of X -> X/S <- X/S recovers pairs agreeing downstairs
  P, p1, p2 = fiber_product(proj, identity_map(quo))
  assert p1.is_surjective()
  # pushout of S -> X along S -> point collapses S
  pt = point_aset(NatMonoid())
  out, jx, jpt = pushout(incl, ASetMap(S, pt, {s: STAR for s in S.elements}))
  assert out.is_isomorphic(quo)


def test_pc_trees_and_cycles():
  assert is_pc_aset(truncated_line(4))
  assert is_rooted_tree(truncated_line(4))
  branch = nat_set({"a": "c", "b": "c", "c": STAR})
  assert is_pc_aset(branch) and is_rooted_tree(branch)
  loop = cycle_nset(2)
  assert not is_pc_aset(loop) and not is_rooted_tree(loop)
  lasso = cycle_nset(3, tail=2)
  assert not is_pc_aset(lasso)
  assert is_rooted_tree(point_aset(NatMonoid()))


def repeats_off_base(X):
  """Does some orbit of the N-set X repeat before reaching ∗?  Each element
  is walked for |X| steps: the pc oracle for N-sets."""
  step = X.action["t"]
  for x in X.nonbase():
    for _ in range(len(X.elements)):
      x = step[x]
    if x != X.base:
      return True
  return False


def test_pc_and_rooted_trees_match_the_walk_on_nsets():
  nsets = [X for X in lattice_corpus() if isinstance(X.monoid, NatMonoid)]
  nsets += [truncated_line(300), cycle_nset(5, tail=300)]
  for X in nsets:
    assert is_pc_aset(X) == is_rooted_tree(X) == (not repeats_off_base(X)), X
  assert sum(map(is_rooted_tree, nsets)) == 55


def test_pc_rejects_eventually_periodic_orbit():
  # {1, t, ..., t^N, *} with t^N = t^d is the typical non-pc N-set
  X = nat_set({"1": "t", "t": "t2", "t2": "t"})   # N=2, d=1
  assert not is_pc_aset(X)


def test_pc_gamma_sets_freeness():
  free = free_aset(Z4)
  assert is_pc_aset(free)
  # coset (Z/4)/(Z/2): two elements swapped by g
  coset = FiniteASet(Z4, [STAR, "x", "gx"], {"g": {"x": "gx", "gx": "x"}})
  assert coset.validate().ok
  assert not is_pc_aset(coset)


def test_orbit_decomposition():
  free2 = free_aset(Z2, rank=2)
  orbs = orbit_decomposition(free2)
  assert len(orbs) == 2
  assert all(stab == frozenset({"1"}) for _, stab in orbs)
  fixed = FiniteASet(Z2, [STAR, "w"], {"g": {"w": "w"}})
  orbs2 = orbit_decomposition(fixed)
  assert len(orbs2) == 1
  assert orbs2[0][1] == frozenset({"1", "g"})


def test_length_filtration():
  # the monoid acting on itself: filtration by powers of the ideal, length 3
  steps = filtration_stages(free_aset(A3))
  assert not isinstance(steps, NotFiniteLength)
  assert len(steps) == 3
  for s in steps:
    assert is_exact(s)
  assert aset_length(point_aset(A3)) == 0
  assert aset_length(free_aset(Z2)) == 1      # Gamma_+ over itself
  assert aset_length(truncated_line(3)) == 3
  coset = FiniteASet(Z4, [STAR, "x", "gx"], {"g": {"x": "gx", "gx": "x"}})
  res = irreducible_chain(coset)
  assert isinstance(res, NotFiniteLength)
  loop = irreducible_chain(cycle_nset(2))
  assert isinstance(loop, NotFiniteLength)
  assert loop.blocking_extension


def test_support_and_codim():
  X = free_aset(A3)
  assert [p.height for p in support(X)] == [0]
  assert codim_support(X) == 0

  tor = truncated_line(3)
  sup = support(tor)
  assert [p.label for p in sup] == ["(t)"]
  assert codim_support(tor) == 1

  pt = point_aset(NatMonoid())
  assert support(pt) == []
  assert codim_support(pt) == math.inf

  loop = cycle_nset(2)
  assert {p.label for p in support(loop)} == {"(0)", "(t)"}
  assert codim_support(loop) == 0


def test_isomorphism_detection():
  a = nat_set({"p": "q", "q": STAR})
  b = nat_set({"u": "v", "v": STAR})
  assert a.is_isomorphic(b)
  assert not a.is_isomorphic(cycle_nset(2))
  assert not truncated_line(3).is_isomorphic(truncated_line(4))


# ------------------------------------------------------- isomorphism search


def recursive_find_isomorphism(self, other):
  """find_isomorphism as it was before it became the one-to-one hom search."""
  if self.monoid != other.monoid or self.size() != other.size():
    return None

  def profile(aset, x):
    hits = sum(1 for g in aset.action.values() for y in aset.elements
               if g[y] == x)
    img = tuple(sorted(str(g[x]) == str(aset.base) for g in aset.action.values()))
    return (hits, img, len(aset.orbit(x)))

  mine = self.nonbase()
  theirs = other.nonbase()
  mine_profile = {x: profile(self, x) for x in mine}
  their_profile = {y: profile(other, y) for y in theirs}
  if sorted(mine_profile.values()) != sorted(their_profile.values()):
    return None
  gens = list(self.action)
  if set(gens) != set(other.action):
    return None

  assignment = {self.base: other.base}
  used = {other.base}

  def ok(x, y):
    # partial equivariance: wherever the image of g·x is already decided,
    # it must match g·y
    for g in gens:
      gx = self.action[g][x]
      if gx in assignment and assignment[gx] != other.action[g][y]:
        return False
    return True

  def backtrack(i):
    if i == len(mine):
      # final full equivariance check
      for g in gens:
        for x in self.elements:
          if assignment[self.action[g][x]] != other.action[g][assignment[x]]:
            return False
      return True
    x = mine[i]
    for y in theirs:
      if y in used or mine_profile[x] != their_profile[y]:
        continue
      assignment[x] = y
      used.add(y)
      if ok(x, y) and backtrack(i + 1):
        return True
      del assignment[x]
      used.discard(y)
    return False

  if backtrack(0):
    return dict(assignment)
  return None


def fingerprint(X):
  """The bucket key the corpora used before ``iso_key``."""
  gens = sorted(X.action)
  local = []
  for x in X.nonbase():
    row = []
    for g in gens:
      y = X.action[g].get(x, STAR)
      row.append("*" if y == STAR else ("fix" if y == x else "move"))
    indeg = sum(1 for g in gens for z in X.nonbase()
                if X.action[g].get(z, STAR) == x)
    local.append((tuple(row), indeg))
  return (X.size(), tuple(sorted(local)))


def relabel(X, rng):
  """X with its non-base elements renamed and the carrier shuffled."""
  rest = X.nonbase()
  names = [f"r{k}" for k in range(len(rest))]
  rng.shuffle(names)
  ren = dict(zip(rest, names))
  ren[X.base] = X.base
  elements = [ren[x] for x in X.elements]
  rng.shuffle(elements)
  action = {g: {ren[x]: ren[y] for x, y in gmap.items()}
            for g, gmap in X.action.items()}
  return FiniteASet(X.monoid, elements, action, X.base)


def iso_corpora():
  """N-sets to 6 elements, Γ₊-sets of Z/2, Z/3, Z/2×Z/2 to 8, N/(t³)-sets to 6."""
  out = [corpora.all_nsets(6), corpora.all_nilpotent_asets(A3, 6)]
  for orders in ([2], [3], [2, 2]):
    gamma = FiniteMonoid.group_with_zero(orders)
    out.append([X for X, _ in corpora.all_gamma_asets(gamma, 8)])
  return out


def test_find_isomorphism_matches_the_recursive_search():
  rng = random.Random(61018)
  classes = searched = 0
  for corpus in iso_corpora():
    classes += len(corpus)
    copies = [relabel(Y, rng) for Y in corpus]
    for X in corpus:
      for Y in copies:
        expected = recursive_find_isomorphism(X, Y)
        assert X.find_isomorphism(Y) == expected, (X, Y)
        searched += X.iso_key() == Y.iso_key()
  # every class meets its own copy, and some distinct classes share a key
  assert searched > classes


def test_equal_iso_keys_have_equal_fingerprints():
  for corpus in iso_corpora():
    seen = {}
    for X in corpus:
      for s in X.subobject_sets():
        seq = exact_seq_from_sub(X, s)
        for Z in (seq.sub, seq.middle, seq.quotient):
          assert seen.setdefault(Z.iso_key(), fingerprint(Z)) == fingerprint(Z)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_iso_key_is_unchanged_under_relabelling(data):
  n = data.draw(st.integers(0, 8))
  succ = data.draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n))
  X = nat_set({f"x{i}": STAR if j < 0 else f"x{j}" for i, j in enumerate(succ)})
  Y = relabel(X, random.Random(data.draw(st.integers(0, 2**32))))
  assert X.iso_key() == Y.iso_key()
  assert ASetMap(X, Y, X.find_isomorphism(Y)).is_isomorphism()


def test_a_very_long_line_is_isomorphic_to_a_relabelled_copy():
  # deeper than the default recursion limit
  X = truncated_line(1200)
  Y = relabel(X, random.Random(7))
  assert ASetMap(X, Y, X.find_isomorphism(Y)).is_isomorphism()


# ------------------------------------------------------ canonical keys


def gamma_sets_with_subquotients(orders, cap=8):
  """The Γ₊-sets of Γ = Z/orders to ``cap`` elements, each with S and X/S
  for every set S of its lattice, one object per distinct carrier and
  action (equal content gets equal answers)."""
  gamma = FiniteMonoid.group_with_zero(orders)
  objects = {}
  for X, _ in corpora.all_gamma_asets(gamma, cap):
    for Z in [X] + [build(s) for s in X.subobject_sets()
                    for build in (X._sub_object, X._quotient_object)]:
      content = (tuple(Z.elements),
                 tuple((g, tuple(m.items())) for g, m in Z.action.items()))
      objects.setdefault(content, Z)
  return list(objects.values())


def test_canonical_key_equality_is_isomorphism_on_gamma_sets():
  pairs = matches = 0
  for orders in ([2], [3], [4], [2, 2]):
    by_size = {}
    for Z in gamma_sets_with_subquotients(orders):
      by_size.setdefault(Z.size(), []).append(Z)
    for same_size in by_size.values():
      for X, Y in itertools.combinations(same_size, 2):
        found = X.find_isomorphism(Y) is not None
        assert (X.canonical_key() == Y.canonical_key()) == found, (X, Y)
        pairs += 1
        matches += found
  assert pairs > 25000 and matches > 8000


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_canonical_key_is_unchanged_under_relabelling(data):
  orders = data.draw(st.sampled_from([[2], [3], [4], [2, 2], [6], [2, 4]]))
  corpus = corpora.all_gamma_asets(FiniteMonoid.group_with_zero(orders), 9)
  X, _ = data.draw(st.sampled_from(corpus))
  s = data.draw(st.sampled_from(X.subobject_sets()))
  X = data.draw(st.sampled_from([X, X._sub_object(s), X._quotient_object(s)]))
  Y = relabel(X, random.Random(data.draw(st.integers(0, 2**32))))
  assert X.canonical_key() is not None
  assert X.canonical_key() == Y.canonical_key()
  assert ASetMap(X, Y, X.find_isomorphism(Y)).is_isomorphism()


def test_canonical_key_exists_over_abelian_groups_with_zero_only():
  assert all(X.canonical_key() is None for X in corpora.all_nsets(5))
  assert all(X.canonical_key() is None
             for X in corpora.all_nilpotent_asets(A3, 6))
  # F1 is the trivial group with a zero: every element is a free orbit
  assert [X.canonical_key() for X in (f1_set(0), f1_set(3))] == [
      (F1, 1, ()), (F1, 4, (1, 1, 1))]
  # Z/4: the free orbit, Z/4/{1, g^2} and a fixed point, over units
  # 1, g, g^2, g^3 in tree order
  X = wedge_list([free_aset(Z4), orbit_of_index(Z4, 2), orbit_of_index(Z4, 1)])
  assert [u for u, _, _ in Z4.unit_tree()] == ["1", "g", "g^2", "g^3"]
  assert X.canonical_key() == (Z4, 8, (0b0001, 0b0101, 0b1111))


def orbit_of_index(gamma, index):
  subgroups = corpora.unit_subgroups(gamma)
  units = len(gamma.unit_elements())
  H = next(H for H in subgroups if units // len(H) == index)
  return corpora.coset_orbit_aset(gamma, H)


def test_is_isomorphic_compares_monoids_then_sizes_then_keys(monkeypatch):
  calls = []
  for name in ("canonical_key", "find_isomorphism"):
    method = getattr(FiniteASet, name)
    monkeypatch.setattr(FiniteASet, name, lambda self, *args, _m=method,
                        _n=name: calls.append(_n) or _m(self, *args))
  free = free_aset(Z2)
  assert not free.is_isomorphic(free_aset(Z4)) and calls == []
  assert not free.is_isomorphic(orbit_of_index(Z2, 1)) and calls == []
  assert not free.is_isomorphic(wedge_list([orbit_of_index(Z2, 1)] * 2))
  assert calls == ["canonical_key", "canonical_key"]
  assert free.is_isomorphic(relabel(free, random.Random(3)))
  assert "find_isomorphism" not in calls
  assert truncated_line(2).is_isomorphic(nat_set({"a": "b", "b": STAR}))
  assert calls[-1] == "find_isomorphism"


def test_pc_two_out_of_three_on_sequences():
  X = nat_set({"a": "b", "b": STAR, "c0": "c1", "c1": "c0"})
  for sub in X.subobject_sets():
    seq = exact_seq_from_sub(X, sub)
    assert is_exact(seq)
    middle = is_pc_aset(seq.middle)
    ends = is_pc_aset(seq.sub) and is_pc_aset(seq.quotient)
    assert middle == (ends and middle)  # middle pc => both ends pc
  tree = truncated_line(4)
  for sub in tree.subobject_sets():
    seq = exact_seq_from_sub(tree, sub)
    assert is_pc_aset(seq.sub) and is_pc_aset(seq.quotient)


def test_smash_preserves_exactness_over_f1():
  X = f1_set(3)
  Y = f1_set(2)
  for sub in X.subobject_sets():
    seq = exact_seq_from_sub(X, sub)
    sm_sub = smash(seq.sub, Y)
    sm_mid = smash(seq.middle, Y)
    sm_quo = smash(seq.quotient, Y)
    assert sm_mid.size() - 1 == (sm_sub.size() - 1) + (sm_quo.size() - 1)
