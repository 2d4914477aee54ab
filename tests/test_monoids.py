import itertools
import os

import pytest

from monoidkit import io
from monoidkit.errors import InvalidStructure
from monoidkit.monoids import (STAR, FiniteMonoid, NatMonoid, PrimeIdeal,
                               UnitGroupDescriptor)


def test_f1_is_valid():
  assert FiniteMonoid.f1().validate().ok


def test_prototypical_chain_is_valid_and_pc():
  m = FiniteMonoid.truncated_free(2)  # {1, t, t^2, *} with t^3 = *
  assert m.validate().ok
  assert m.elements == ["1", "t", "t^2", STAR]
  assert m.mul("t", "t^2") == STAR
  assert m.is_pc()


def test_unit_law_violation_reported():
  table = {("1", "1"): "1", ("1", "a"): "1", ("a", "a"): "a",
           ("1", STAR): STAR, ("a", STAR): STAR, (STAR, STAR): STAR}
  m = FiniteMonoid(["1", "a", STAR], "1", STAR, table)
  report = m.validate()
  assert not report.ok
  assert any("unit law" in v for v in report.violations)


def test_incomplete_table_rejected():
  with pytest.raises(InvalidStructure):
    FiniteMonoid(["1", STAR], "1", STAR, {("1", "1"): "1"})


def test_table_symmetric_completion():
  # storing only one triangle of the table is enough
  table = {("1", "1"): "1", ("1", "t"): "t", ("1", STAR): STAR,
           ("t", "t"): STAR, ("t", STAR): STAR, (STAR, STAR): STAR}
  m = FiniteMonoid(["1", "t", STAR], "1", STAR, table)
  assert m.mul("t", "1") == "t"
  assert m.validate().ok


def test_eventually_periodic_is_not_pc():
  m = FiniteMonoid.eventually_periodic(3, 1)  # t^3 = t
  assert m.validate().ok
  assert not m.is_pc()
  # and with d = 0 the relation t^n = 1 makes t invertible, still a monoid
  assert FiniteMonoid.eventually_periodic(3, 0).validate().ok


def test_chain_monoid_primes():
  m = FiniteMonoid.truncated_free(2)
  ps = m.primes()
  # the only prime is the maximal ideal {t, t^2, *}: the subset {*} is not
  # prime because t * t^2 = *
  assert len(ps) == 1
  assert ps[0].subset == frozenset({"t", "t^2", STAR})
  assert ps[0].height == 0


def test_group_with_zero_primes_and_units():
  m = FiniteMonoid.group_with_zero([2])
  assert m.validate().ok
  ps = m.primes()
  assert len(ps) == 1
  assert ps[0].subset == frozenset({STAR})
  assert ps[0].height == 0
  assert m.units() == UnitGroupDescriptor(0, [2])
  assert m.unit_elements() == ("1", "g")


def test_v4_units():
  m = FiniteMonoid.group_with_zero([2, 2])
  assert m.units() == UnitGroupDescriptor(0, [2, 2])


def test_f1_units_trivial():
  assert FiniteMonoid.f1().units().is_trivial()


def test_localize_at_maximal_is_identity_map():
  m = FiniteMonoid.truncated_free(2)
  p = m.primes()[0]
  loc = m.localize(p)
  assert sorted(loc.elements) == sorted(m.elements)
  assert loc.is_isomorphic(m)


def test_localize_inverts_complement():
  # in Gamma_+ localizing at {*} inverts the whole group: nothing changes
  m = FiniteMonoid.group_with_zero([3])
  loc = m.localize(m.primes()[0])
  assert loc.is_isomorphic(m)


def test_localization_collapses_nilpotents():
  # localizing {1,t,t^2,*} at its prime inverts only 1 (complement {1}),
  # but localizing a product monoid at a non-maximal prime can kill elements:
  # take N/(t^2) x nothing -- localize F1 at its prime
  m = FiniteMonoid.f1()
  loc = m.localize(m.primes()[0])
  assert loc.is_isomorphic(m)


def test_quotient_by_ideal():
  m = FiniteMonoid.truncated_free(3)  # {1,t,t^2,t^3,*}
  q = m.quotient_by_ideal(["t^2"])
  assert q.is_isomorphic(FiniteMonoid.truncated_free(1))
  assert q.validate().ok


def test_quotient_by_improper_ideal_is_terminal():
  m = FiniteMonoid.truncated_free(2)
  q = m.quotient_by_ideal(["1"])
  assert q.one == q.zero
  assert q.elements == [STAR]
  assert q.validate().ok


def test_terminal_flagged_when_padded():
  m = FiniteMonoid([STAR], STAR, STAR, {(STAR, STAR): STAR})
  assert m.one == m.zero
  assert m.validate().ok


def test_pc_brute_force_agreement_small_monoids():
  # is_pc must agree with the literal definition on every monoid we can build
  def brute(m):
    for a in m.elements:
      for b in m.elements:
        for c in m.elements:
          if m.mul(a, c) == m.mul(b, c) != m.zero and a != b:
            return False
    return True

  samples = [FiniteMonoid.f1(), FiniteMonoid.truncated_free(1),
             FiniteMonoid.truncated_free(3), FiniteMonoid.eventually_periodic(2, 1),
             FiniteMonoid.eventually_periodic(4, 2), FiniteMonoid.group_with_zero([2]),
             FiniteMonoid.group_with_zero([2, 2]), FiniteMonoid.group_with_zero([4])]
  for m in samples:
    assert m.is_pc() == brute(m), m


def test_prime_axiom_on_primes():
  for m in [FiniteMonoid.truncated_free(2), FiniteMonoid.group_with_zero([2]),
            FiniteMonoid.eventually_periodic(3, 1)]:
    for p in m.primes():
      assert m.is_prime_subset(p.subset)
      for a in m.elements:
        for b in m.elements:
          if m.mul(a, b) in p.subset:
            assert a in p.subset or b in p.subset


def test_heights_match_chain_lengths():
  # nilpotents force themselves into every prime (t*t = * lies in any ideal),
  # so the smash of two truncated lines has just one prime: the maximal ideal
  names = ["1", "t", "u", "tu", STAR]
  def mul(a, b):
    ta = a.count("t") + b.count("t")
    ua = a.count("u") + b.count("u")
    if a == STAR or b == STAR or ta > 1 or ua > 1:
      return STAR
    return {(0, 0): "1", (1, 0): "t", (0, 1): "u", (1, 1): "tu"}[(ta, ua)]
  table = {(a, b): mul(a, b) for a in names for b in names}
  m = FiniteMonoid(names, "1", STAR, table)
  assert m.validate().ok
  ps = m.primes()
  assert [p.height for p in ps] == [0]
  assert ps[0].subset == {"t", "u", "tu", STAR}

  # an idempotent splits the spectrum: {*} stays prime below {e, *}
  e = FiniteMonoid(
      ["1", "e", STAR], "1", STAR,
      {("1", "1"): "1", ("1", "e"): "e", ("1", STAR): STAR,
       ("e", "e"): "e", ("e", STAR): STAR, (STAR, STAR): STAR})
  assert e.validate().ok
  eps = e.primes()
  assert sorted(p.height for p in eps) == [0, 1]
  for mon, primes in ((m, ps), (e, eps)):
    for p in primes:
      below = [q for q in primes if q.subset < p.subset]
      assert p.height == (max((q.height for q in below), default=-1) + 1)


def test_isomorphism_detects_difference():
  assert not FiniteMonoid.truncated_free(2).is_isomorphic(
      FiniteMonoid.eventually_periodic(3, 1))
  assert FiniteMonoid.group_with_zero([2, 2]).is_isomorphic(
      FiniteMonoid.group_with_zero([2, 2]))
  assert not FiniteMonoid.group_with_zero([4]).is_isomorphic(
      FiniteMonoid.group_with_zero([2, 2]))


def test_monoids_compare_by_structure():
  a, b = FiniteMonoid.f1(), FiniteMonoid.f1()
  assert a is not b and a == b and hash(a) == hash(b)
  renamed = FiniteMonoid(a.elements, a.one, a.zero, a.table, name="other")
  assert renamed == a and len({a, b, renamed}) == 1
  assert FiniteMonoid.truncated_free(2) == FiniteMonoid.truncated_free(2)
  assert FiniteMonoid.truncated_free(2) != FiniteMonoid.truncated_free(3)
  # the same elements, one and zero under another table
  assert FiniteMonoid.truncated_free(2) != \
      FiniteMonoid.eventually_periodic(3, 1)
  assert FiniteMonoid.group_with_zero([4]) != \
      FiniteMonoid.group_with_zero([2, 2])
  assert a != NatMonoid() and NatMonoid() != a


def test_nat_monoid():
  n = NatMonoid()
  assert n.validate().ok
  assert n.units().is_trivial()
  ps = n.primes()
  assert [p.height for p in ps] == [0, 1]
  assert ps[1].label == "(t)"
  assert n.localize(ps[1]) is n
  grp = n.localize(ps[0])
  assert grp.units().free_rank == 1
  assert n.quotient_by_ideal(3).is_isomorphic(FiniteMonoid.truncated_free(2))


def greedy_generators(m):
  """The greedy generating set, computed afresh: the generators() oracle."""
  generated, gens = {m.one, m.zero}, []

  def close():
    while True:
      new = {m.mul(a, b) for a in generated for b in generated} - generated
      if not new:
        return
      generated.update(new)

  close()
  for a in m.elements:
    if a not in generated:
      gens.append(a)
      generated.add(a)
      close()
  return gens


def small_monoids():
  """Finite monoids of every kind the package builds, broken tables and
  localizations included, and the bundled fixture monoids."""
  names = ["1", "t", "u", "tu", STAR]

  def smash(a, b):
    ta, ua = a.count("t") + b.count("t"), a.count("u") + b.count("u")
    if a == STAR or b == STAR or ta > 1 or ua > 1:
      return STAR
    return {(0, 0): "1", (1, 0): "t", (0, 1): "u", (1, 1): "tu"}[(ta, ua)]

  broken_unit = {("1", "1"): "1", ("1", "a"): "1", ("a", "a"): "a",
                 ("1", STAR): STAR, ("a", STAR): STAR, (STAR, STAR): STAR}
  half_table = {("1", "1"): "1", ("1", "t"): "t", ("1", STAR): STAR,
                ("t", "t"): STAR, ("t", STAR): STAR, (STAR, STAR): STAR}
  idempotent = {("1", "1"): "1", ("1", "e"): "e", ("1", STAR): STAR,
                ("e", "e"): "e", ("e", STAR): STAR, (STAR, STAR): STAR}
  monoids = [FiniteMonoid.f1(), FiniteMonoid([STAR], STAR, STAR,
                                              {(STAR, STAR): STAR}),
             FiniteMonoid(["1", "a", STAR], "1", STAR, broken_unit),
             FiniteMonoid(["1", "t", STAR], "1", STAR, half_table),
             FiniteMonoid(["1", "e", STAR], "1", STAR, idempotent),
             FiniteMonoid(names, "1", STAR,
                          {(a, b): smash(a, b) for a in names for b in names}),
             FiniteMonoid.truncated_free(3).quotient_by_ideal(["t^2"]),
             FiniteMonoid.truncated_free(2).quotient_by_ideal(["1"])]
  monoids += [FiniteMonoid.truncated_free(n) for n in (1, 2, 3)]
  monoids += [FiniteMonoid.eventually_periodic(n, d)
              for n, d in ((3, 1), (3, 0), (2, 1), (4, 2))]
  monoids += [FiniteMonoid.group_with_zero(o)
              for o in ([2], [3], [4], [2, 2])]
  monoids += [m.localize(p) for m in monoids[-7:] for p in m.primes()]
  fixtures = os.path.join(os.path.dirname(io.__file__), "fixtures")
  monoids += [io.load_monoid(os.path.join(fixtures, name))
              for name in ("n_t3.json", "z2_with_zero.json")]
  return monoids


def test_generators_are_cached_and_equal_the_greedy_closure():
  for m in small_monoids():
    first = m.generators()
    assert first == tuple(greedy_generators(m)), m.name
    assert type(first) is tuple and m.generators() is first, m.name


def enumerated_primes(m):
  """{subset: height} of every prime, by a fresh search over all subsets:
  the primes() oracle."""
  rest = [a for a in m.elements if a not in (m.one, m.zero)]
  found = [frozenset(c) | {m.zero} for r in range(len(rest) + 1)
           for c in itertools.combinations(rest, r)]
  heights = {}
  for s in sorted(filter(m.is_prime_subset, found), key=len):
    heights[s] = max((heights[t] + 1 for t in heights if t < s), default=0)
  return heights


def test_primes_are_cached_and_equal_the_enumeration(monkeypatch):
  monoids = small_monoids()
  searched = []
  test = FiniteMonoid.is_prime_subset

  def counted(self, subset):
    searched.append(subset)
    return test(self, subset)

  monkeypatch.setattr(FiniteMonoid, "is_prime_subset", counted)
  for m in monoids:
    first = m.primes()
    assert type(first) is tuple, m.name
    assert len(first) == len(set(first)), m.name
    assert {p.subset: p.height for p in first} == enumerated_primes(m), m.name
    del searched[:]
    assert m.primes() is first and searched == [], m.name


def test_unit_elements_are_cached_and_equal_the_enumeration(monkeypatch):
  monoids = small_monoids()
  enumerated = [[a for a in m.elements
                 if any(m.mul(a, b) == m.one for b in m.elements)]
                for m in monoids]
  products = []
  mul = FiniteMonoid.mul

  def counted(self, a, b):
    products.append((a, b))
    return mul(self, a, b)

  monkeypatch.setattr(FiniteMonoid, "mul", counted)
  for m, units in zip(monoids, enumerated):
    first = m.unit_elements()
    assert type(first) is tuple and first == tuple(units), m.name
    del products[:]
    assert m.unit_elements() is first and products == [], m.name


def s3_with_zero():
  """S3 with an adjoined zero: a group table that is not commutative."""
  perms = list(itertools.permutations(range(3)))
  name = {p: "1" if p == (0, 1, 2) else "".join(map(str, p)) for p in perms}
  table = {(name[p], name[q]): name[tuple(p[q[i]] for i in range(3))]
           for p in perms for q in perms}
  for p in perms:
    table[(name[p], STAR)] = table[(STAR, name[p])] = STAR
  table[(STAR, STAR)] = STAR
  return FiniteMonoid([name[p] for p in perms] + [STAR], "1", STAR, table)


def test_unit_tree_spans_the_units_of_an_abelian_group_with_zero():
  abelian = 0
  for m in small_monoids() + [FiniteMonoid.group_with_zero([2, 2, 2]),
                              FiniteMonoid.group_with_zero([6])]:
    tree = m.unit_tree()
    assert m.unit_tree() is tree, m.name
    units = m.unit_elements()
    if set(units) | {m.zero} != set(m.elements) or not m.validate().ok:
      assert tree is None, m.name
      continue
    abelian += 1
    assert type(tree) is tuple and tree[0] == (m.one, -1, None), m.name
    assert sorted(u for u, _, _ in tree) == sorted(units), m.name
    parents = [parent for _, parent, _ in tree[1:]]
    assert parents == sorted(parents), m.name       # breadth first
    for k, (u, parent, g) in enumerate(tree[1:], 1):
      assert 0 <= parent < k, m.name
      assert g in m.generators() and u == m.mul(tree[parent][0], g), m.name
  assert abelian >= 8
  S3 = s3_with_zero()
  assert len(S3.unit_elements()) == 6 and S3.unit_tree() is None
