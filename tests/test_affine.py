import itertools

import pytest

from monoidkit.affine import AffineMonoid, solve_inequalities
from monoidkit.errors import InvalidStructure, Undecidable
from monoidkit.monoids import STAR, FiniteMonoid, UnitGroupDescriptor


def square_cone():
  return AffineMonoid.class_group_order_two()  # <(1,0),(1,1),(1,2)>


def test_fourier_motzkin_feasibility():
  # x >= 1, -x >= -3 is satisfiable; x >= 1, -x >= 0 is not
  assert solve_inequalities([((1,), 1), ((-1,), -3)], 1) is not None
  assert solve_inequalities([((1,), 1), ((-1,), 0)], 1) is None
  sol = solve_inequalities([((1, 0), 1), ((0, 1), 1), ((-1, -1), -5)], 2)
  assert sol is not None and sol[0] >= 1 and sol[1] >= 1


def test_sharpness():
  assert AffineMonoid.free(2).is_sharp()
  line = AffineMonoid(1, [[1], [-1]])
  assert not line.is_sharp()
  assert not line.validate().ok
  assert square_cone().validate().ok


def test_positive_functional_certifies_all_generators():
  for m in (AffineMonoid.free(3), square_cone(), AffineMonoid(2, [[2, 1], [1, 3]])):
    f = m.positive_functional()
    _, gens = m._reduced()
    assert all(sum(a * b for a, b in zip(f, g)) >= 1 for g in gens)


def semigroup_coefficients(A, x, bound=4):
  """Nonnegative coefficients below ``bound`` that combine A's generators to
  x, found by brute force, or None."""
  for coeffs in itertools.product(range(bound), repeat=len(A.generators)):
    total = [sum(c * g[i] for c, g in zip(coeffs, A.generators))
             for i in range(len(x))]
    if total == list(x):
      return list(coeffs)
  return None


def stalk_units(A, prime):
  """Units of the localization at a prime: Gamma plus the face lattice."""
  return UnitGroupDescriptor(A.unit_group.free_rank
                             + A.face_of_prime(prime).dim,
                             A.unit_group.torsion)


def test_membership():
  a = square_cone()
  assert a.semigroup_contains([2, 2])
  assert a.semigroup_contains([1, 1])
  assert a.semigroup_contains([3, 1])
  assert not a.semigroup_contains([0, 1])   # outside the cone
  assert not a.semigroup_contains([1, 3])   # outside the cone (b <= 2a fails)
  assert a.cone_contains([1, 1])
  assert not a.cone_contains([-1, 0])
  coeffs = semigroup_coefficients(a, [3, 1])
  assert coeffs is not None
  total = [0, 0]
  for c, g in zip(coeffs, a.generators):
    total = [t + c * gi for t, gi in zip(total, g)]
  assert total == [3, 1]


def test_facets_of_square_cone():
  normals = sorted(tuple(n) for n, _ in square_cone().facets())
  assert normals == [(0, 1), (2, -1)]
  # each facet is the single extreme ray it contains
  by_normal = {tuple(n): idx for n, idx in square_cone().facets()}
  assert by_normal[(0, 1)] == [0]
  assert by_normal[(2, -1)] == [2]


def test_primes_and_heights():
  n2 = AffineMonoid.free(2)
  assert sorted(p.height for p in n2.primes()) == [0, 1, 1, 2]
  assert sorted(p.height for p in square_cone().primes()) == [0, 1, 1, 2]
  n1 = AffineMonoid.free(1)
  assert sorted(p.height for p in n1.primes()) == [0, 1]
  # a group-like monoid (no cone part) has one prime of height 0
  g = AffineMonoid(0, [], UnitGroupDescriptor(1, []))
  assert [p.height for p in g.primes()] == [0]


def test_normality():
  assert AffineMonoid.free(1).is_normal()
  assert AffineMonoid.free(2).is_normal()
  assert AffineMonoid.free(3).is_normal()
  assert square_cone().is_normal()
  # (1,1) is in the cone and the ambient lattice but not the semigroup
  assert not AffineMonoid(2, [[1, 0], [1, 2]]).is_normal()
  # ambient convention: 2N sits in Z, and 1 is a cone lattice point outside it
  assert not AffineMonoid(1, [[2]]).is_normal()
  # a ray on a primitive vector is normal even when not full-dimensional
  assert AffineMonoid(2, [[1, 1]]).is_normal()


def test_zero_smoothness_and_dvm():
  assert AffineMonoid.free(2).is_zero_smooth()
  assert not AffineMonoid.free(2).is_dvm()
  assert AffineMonoid.free(1).is_dvm()
  assert AffineMonoid(2, [[1, 1]]).is_dvm()
  assert not square_cone().is_zero_smooth()        # three essential generators
  assert not AffineMonoid(2, [[1, 0], [1, 2]]).is_zero_smooth()  # index 2
  d = AffineMonoid.dvm(torsion=[3])
  assert d.is_dvm()
  assert d.units().torsion == [3]
  # redundant generators are discounted
  padded = AffineMonoid(1, [[1], [2], [3]])
  assert padded.is_zero_smooth() and padded.is_dvm()
  assert padded.essential_generator_indices() == [0]


def test_essential_generators_of_square_cone():
  assert square_cone().essential_generator_indices() == [0, 1, 2]


def test_localize_at_facet_prime():
  n2 = AffineMonoid.free(2)
  p = next(q for q in n2.primes() if q.height == 1 and tuple(q.face) == (0,))
  loc = n2.localize(p)
  assert loc.units().free_rank == 1
  assert loc.is_dvm()

  a = square_cone()
  p = next(q for q in a.primes() if q.height == 1 and tuple(q.face) == (2,))
  loc = a.localize(p)
  assert loc.units().free_rank == 1
  assert loc.is_dvm()


def test_localize_at_extreme_primes():
  a = square_cone()
  top = next(q for q in a.primes() if q.height == 2)
  assert a.localize(top).generators == a.generators
  bottom = next(q for q in a.primes() if q.height == 0)
  loc = a.localize(bottom)
  assert loc.generators == []
  assert loc.units().free_rank == 2
  assert loc.units().free_rank == a.group_completion_units().free_rank


def test_stalk_units_ranks():
  a = square_cone()
  ranks = sorted(stalk_units(a, p).free_rank for p in a.primes())
  assert ranks == [0, 1, 1, 2]


def test_quotient_to_finite_monoid():
  n = AffineMonoid.free(1)
  q = n.quotient_by_ideal([[3]])
  assert isinstance(q, FiniteMonoid)
  assert q.is_isomorphic(FiniteMonoid.truncated_free(2))


def test_quotient_by_face_complement():
  a = square_cone()
  q = a.quotient_by_ideal([[0, 1, 0], [0, 0, 1]])
  assert isinstance(q, AffineMonoid)
  assert q.ideal == []
  assert q.is_dvm()
  assert q.units().is_trivial()


def test_quotient_by_maximal_and_improper_ideal():
  a = square_cone()
  q = a.quotient_by_ideal([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
  assert isinstance(q, FiniteMonoid)
  assert q.is_isomorphic(FiniteMonoid.f1())
  t = a.quotient_by_ideal([[0, 0, 0]])
  assert t.one == t.zero


def test_quotient_with_units_keeps_torsion():
  d = AffineMonoid.dvm(torsion=[2])
  q = d.quotient_by_ideal([[2]])
  assert isinstance(q, FiniteMonoid)
  # (Z/2)_+ smash N/(t^2): elements 1, g, t, gt and *
  assert len(q.elements) == 5
  assert sorted(q.units().torsion) == [2]
  assert q.one != q.zero


def test_recorded_ideal_and_undecidable_pc():
  m = AffineMonoid(2, [[1, 0], [0, 1]], ideal=[[1, 1]])
  assert m.in_ideal([1, 1])
  assert m.in_ideal([2, 1])
  assert not m.in_ideal([3, 0])
  with pytest.raises(Undecidable):
    m.is_pc()
  with pytest.raises(InvalidStructure):
    m.primes()


def test_pc_of_cancellative_and_finite_quotients():
  assert AffineMonoid.free(2).is_pc()
  assert square_cone().is_pc()
  fin = AffineMonoid(2, [[1, 0], [0, 1]], ideal=[[2, 0], [0, 2]])
  assert fin.is_pc()


def test_localization_of_n_at_zero_is_group():
  n = AffineMonoid.free(1)
  p0 = next(q for q in n.primes() if q.height == 0)
  loc = n.localize(p0)
  assert loc.generators == []
  assert loc.units().free_rank == 1
