import random

import pytest

from monoidkit import intlin
from monoidkit.affine import AffineMonoid
from monoidkit.asets import (aset_length, cycle_nset, is_pc_aset, nat_set,
                             truncated_line)
from monoidkit.corpora import (all_gamma_asets, all_nilpotent_asets,
                               all_pointed_sets, random_nset,
                               subquotient_relations)
from monoidkit.errors import (ClosureBoundExceeded, InvalidStructure,
                              NotNormal, NotZeroSmooth, UnsupportedDegree)
from monoidkit.groups import AbelianGroupPresentation
from monoidkit.ktheory import (K0Result, LatticeComplex, QuotientK0Result,
                               StableConstants, burnside_rank, class_group,
                               coniveau_k0_report, devissage_check_k0,
                               div_matrix, dvm_report, gersten_complex,
                               gersten_exactness_check, k0_of_catspec, k_gamma,
                               localization_exactness_k0, w_group)
from monoidkit.monoids import FiniteMonoid, NatMonoid, UnitGroupDescriptor
from monoidkit.serre import SerrePredicate

Z = AbelianGroupPresentation.free
CYC = AbelianGroupPresentation.from_cyclic_orders


def square_cone():
  return AffineMonoid.class_group_order_two()  # <(1,0),(1,1),(1,2)>


# ------------------------------------------------------------ group constants


def test_k_gamma_low_degrees():
  triv = UnitGroupDescriptor(0, ())
  z2 = UnitGroupDescriptor(0, (2,))
  assert k_gamma(triv, 0) == Z(1)
  assert k_gamma(triv, 1) == CYC([2])
  assert k_gamma(z2, 1) == CYC([2, 2])
  # the stable summand is configurable
  c = StableConstants(pi1s=CYC([3]))
  assert k_gamma(z2, 1, c) == CYC([2, 3])


def test_k_gamma_refuses_higher_degrees():
  with pytest.raises(UnsupportedDegree):
    k_gamma(UnitGroupDescriptor(0, ()), 2)


def test_burnside_ranks():
  # trivial group, Z/2, and the Klein four group
  for torsion, want in (((), 1), ((2,), 2), ((2, 2), 5)):
    rank, subs = burnside_rank(UnitGroupDescriptor(0, torsion))
    assert rank == want == len(subs)


def test_burnside_needs_finite_units():
  with pytest.raises(InvalidStructure):
    burnside_rank(UnitGroupDescriptor(1, ()))


# --------------------------------------------------------- K0 of a catspec


def test_k0_of_pointed_sets_is_size_minus_one():
  """Pointed finite sets: K0 = Z and the class of X is |X| - 1."""
  corpus = all_pointed_sets(FiniteMonoid.f1(), 5)
  k0 = k0_of_catspec(corpus)
  assert k0.group == Z(1)
  for X in corpus:
    assert k0.class_of(X) == ((X.size() - 1,), ())
  assert k0.additivity_holds()


def test_k0_of_pc_truncated_sets_is_length():
  t3 = FiniteMonoid.truncated_free(2)  # N/(t^3)
  corpus = [X for X in all_nilpotent_asets(t3, 5)
            if is_pc_aset(X) and aset_length(X) is not None]
  k0 = k0_of_catspec(corpus)
  assert k0.group == Z(1)
  assert all(k0.class_of(X) == ((aset_length(X),), ()) for X in corpus)


def test_k0_of_z2_sets_has_rank_two():
  z2 = FiniteMonoid.group_with_zero([2])
  corpus = [X for X, _ in all_gamma_asets(z2, 6)]
  k0 = k0_of_catspec(corpus)
  assert k0.group == Z(2)
  assert k0.additivity_holds()


def test_k0_class_map_is_iso_invariant():
  a = nat_set({"p": "q", "q": "*"}, name="pq")
  b = nat_set({"u": "v", "v": "*"}, name="uv")
  k0 = k0_of_catspec([a, b])
  assert k0.class_of(a) == k0.class_of(b)


def test_k0_closure_bound_is_an_error_not_a_truncation():
  with pytest.raises(ClosureBoundExceeded):
    k0_of_catspec([truncated_line(4)], closure_bound=3)


def sequence_ends_oracle(reps):
  """(middle, sub, quotient) indices for every subobject of every
  representative, each end located by a linear iso scan over `reps`."""
  def locate(Y):
    return next(i for i, R in enumerate(reps)
                if R.size() == Y.size() and R.is_isomorphic(Y))

  ends = []
  for i, X in enumerate(reps):
    for s in X.subobject_sets():
      sub, _ = X.sub_aset(s)
      quo, _ = X.quotient_by(s)
      ends.append((i, locate(sub), locate(quo)))
  return ends


def oracle_rows(ends, column, n):
  """Distinct nonzero rows [X] - [S] - [X/S], with object i in column[i]."""
  rows = set()
  for i, j, k in ends:
    row = [0] * n
    row[column[i]] += 1
    row[column[j]] -= 1
    row[column[k]] -= 1
    if any(row):
      rows.add(tuple(row))
  return rows


def test_k0_additivity_on_random_corpora():
  rng = random.Random(20240816)
  corpora = [[random_nset(rng, 4) for _ in range(2)] for _ in range(12)]
  for orders in ([2], [3]):
    G = FiniteMonoid.group_with_zero(orders)
    corpora.append([X for X, _ in all_gamma_asets(G, 6)])
  for seeds in corpora:
    reps, rows = subquotient_relations(seeds, bound=96)
    n = len(reps)
    want = oracle_rows(sequence_ends_oracle(reps), range(n), n)
    got = {tuple(r) for r in rows}
    assert len(got) == len(rows)
    assert got == want
    k0 = K0Result(reps, rows)
    assert k0.group == AbelianGroupPresentation.from_relations(rows, n)
    assert k0.additivity_holds()


# ---------------------------------------------------------------- SNF, larger


def check_snf_contract(M):
  D, U, V = intlin.smith_normal_form(M)
  assert intlin.matmul(intlin.matmul(U, M), V) == D
  sympy = pytest.importorskip("sympy")
  assert abs(sympy.Matrix(U).det()) == 1
  assert abs(sympy.Matrix(V).det()) == 1
  diag = intlin.diagonal(D)
  for a, b in zip(diag, diag[1:]):
    if b:
      assert a and b % a == 0


def test_snf_contract_up_to_8x8():
  rng = random.Random(8)
  for trial in range(25):
    m = rng.randint(1, 8)
    n = rng.randint(1, 8)
    M = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
    check_snf_contract(M)


# -------------------------------------------------------- divisors and classes


def test_div_matrix_of_free_monoid_is_permuted_identity():
  rows = div_matrix(AffineMonoid.free(2))
  assert sorted(rows) == [[0, 1], [1, 0]]


def test_div_matrix_of_square_cone():
  assert div_matrix(square_cone()) == [[0, 1], [2, -1]]


def test_div_matrix_of_dvm_ignores_torsion_units():
  # the unit torsion sits in the kernel of div; the matrix only sees the cone
  assert div_matrix(AffineMonoid.dvm(torsion=(2,))) == [[1]]
  assert div_matrix(AffineMonoid.dvm()) == [[1]]


def test_div_matrix_requires_normality():
  numerical = AffineMonoid(1, [[2], [3]], name="<2,3>")
  assert not numerical.is_normal()
  with pytest.raises(NotNormal):
    div_matrix(numerical)


def test_class_groups():
  for n in (1, 2, 3):
    assert class_group(AffineMonoid.free(n)).is_trivial()
  assert class_group(square_cone()) == CYC([2])
  assert class_group(AffineMonoid.dvm(torsion=(2,))).is_trivial()


def test_w1_is_class_group_by_both_routes():
  """w_group(A, 1) uses the face-pair functionals; class_group uses facet
  normals directly.  They must present the same group."""
  for A in (AffineMonoid.free(1), AffineMonoid.free(2), AffineMonoid.free(3),
            square_cone(), AffineMonoid.dvm(torsion=(2,)),
            AffineMonoid.dvm(free_rank=1),
            AffineMonoid(2, [[1, 0], [1, 1], [1, 2], [1, 3]], name="deg3")):
    assert w_group(A, 1) == class_group(A)


# --------------------------------------------------------------- lattice data


def test_display_ranks_match_known_shapes():
  assert gersten_complex(AffineMonoid.free(2)).display_ranks() == [2, 2, 1]
  assert gersten_complex(square_cone()).display_ranks() == [2, 2, 1]
  # DVM with a free unit part: units Z + Gamma_free mapping onto one Z
  assert gersten_complex(AffineMonoid.dvm(free_rank=1)).display_ranks() == [2, 1]
  assert gersten_complex(AffineMonoid.dvm(torsion=(2,))).display_ranks() == [1, 1]


def test_differential_squares_to_zero():
  for A in (AffineMonoid.free(1), AffineMonoid.free(2), AffineMonoid.free(3),
            square_cone(), AffineMonoid.dvm(torsion=(2,)),
            AffineMonoid.dvm(free_rank=2, torsion=(3,))):
    assert gersten_complex(A).dd_is_zero()


def test_w_groups_of_free_monoids_vanish():
  for n in (1, 2, 3):
    cx = gersten_complex(AffineMonoid.free(n))
    for p in range(1, n + 1):
      assert cx.w_group(p).is_trivial()


def test_w2_of_square_cone_vanishes():
  assert w_group(square_cone(), 2).is_trivial()


def test_w_group_degree_bounds():
  cx = gersten_complex(AffineMonoid.free(2))
  with pytest.raises(InvalidStructure):
    cx.w_group(0)
  assert cx.w_group(5).is_trivial()  # beyond the cone dimension


def test_lattice_complex_requires_normality():
  with pytest.raises(NotNormal):
    LatticeComplex(AffineMonoid(1, [[2], [3]]))


# --------------------------------------------------------------------- reports


def test_coniveau_report_square_cone():
  rep = coniveau_k0_report(square_cone())
  assert [str(g) for g in rep.graded] == ["Z", "Z/2", "0"]
  assert rep.resolved
  assert rep.conclusion() == "Z+Z/2"
  data = rep.to_json()
  assert data["graded"][0] == {"free_rank": 1, "torsion": []}
  assert data["graded"][1] == {"free_rank": 0, "torsion": [2]}
  assert data["conclusion"] == "Z+Z/2"


def test_coniveau_report_free_monoids_and_dvm():
  for n in (1, 2, 3):
    rep = coniveau_k0_report(AffineMonoid.free(n))
    assert rep.conclusion() == "Z"
    assert all(g.is_trivial() for g in rep.graded[1:])
  rep = coniveau_k0_report(AffineMonoid.dvm(torsion=(2,)))
  assert [str(g) for g in rep.graded] == ["Z", "0"]
  assert rep.conclusion() == "Z"


def test_dvm_report_trivial_gamma():
  rep = dvm_report(UnitGroupDescriptor(0, ()))
  assert rep.d1_surjective
  assert rep.k_prime[0] == Z(1)
  assert rep.k_prime[1] == CYC([2])
  assert rep.d1_kernel == rep.expected_kernel == CYC([2])
  assert rep.ok
  assert rep.to_json()["assumption"] == "d1 vanishes on the stable summand"


def test_dvm_report_z2_gamma():
  rep = dvm_report(UnitGroupDescriptor(0, (2,)))
  assert rep.k_prime[1] == CYC([2, 2])
  assert rep.ok


def test_dvm_report_with_custom_stable_summand():
  rep = dvm_report(UnitGroupDescriptor(0, (2,)), StableConstants(CYC([3])))
  assert rep.k_prime[1] == CYC([2, 3])
  assert rep.ok


def test_gersten_exactness_on_smooth_monoids():
  smooth = [AffineMonoid.free(1), AffineMonoid.free(2), AffineMonoid.free(3),
            AffineMonoid.dvm(torsion=(2,))]
  for A in smooth:
    rep = gersten_exactness_check(A)
    assert rep.ok, str(rep)
    assert all(g.is_trivial() for g in rep.w_groups.values())


def test_gersten_control_is_an_expected_failure():
  control = square_cone()
  with pytest.raises(NotZeroSmooth):
    gersten_exactness_check(control)
  rep = gersten_exactness_check(control, strict=False)
  assert not rep.ok
  assert rep.expected_failure
  assert rep.h(1) == CYC([2])
  assert rep.h(2).is_trivial()
  assert rep.to_json()["expected_failure"]


# ------------------------------------------------------------------- devissage


@pytest.mark.parametrize("top", [1, 2, 3])
def test_devissage_truncated_free(top):
  rep = devissage_check_k0(FiniteMonoid.truncated_free(top), pc=True,
                           max_elements=5)
  assert rep.match
  assert rep.computed == Z(1)
  assert all(row["class"] == [row["length"]] for row in rep.rows)


def test_devissage_group_with_zero_both_modes():
  z2 = FiniteMonoid.group_with_zero([2])
  free_route = devissage_check_k0(z2, pc=False, max_elements=5)
  assert free_route.match and free_route.computed == Z(2)
  pc_route = devissage_check_k0(z2, pc=True, max_elements=5)
  assert pc_route.match and pc_route.computed == Z(1)


# ---------------------------------------------------------------- localization


N = NatMonoid()


def nset_cycle_lengths(closure):
  """Distinct cycle lengths of the t-action over a corpus (the simple
  objects of the localized category, hence the rank of its K0)."""
  lengths = set()
  for X in closure:
    step = X.action["t"]
    for x in X.nonbase():
      y = x
      for _ in range(len(X.elements)):
        y = step[y]
      if y == X.base:
        continue  # the orbit dies; the basepoint loop is not a cycle
      z, n = step[y], 1
      while z != y:
        z, n = step[z], n + 1
      lengths.add(n)
  return lengths


def test_localization_sequence_for_torsion_predicate():
  seeds = [truncated_line(3), cycle_nset(1, tail=2)]
  rep = localization_exactness_k0(seeds, SerrePredicate.torsion(N))
  assert rep.ok
  assert rep.q_group == Z(1)
  data = rep.to_json()
  assert data["composite_zero"] and data["middle_exact"]
  assert data["k0_M_mod_C"] == {"free_rank": 1, "torsion": []}


def test_localizing_at_nothing_changes_nothing():
  seeds = [truncated_line(2), cycle_nset(1, tail=1)]
  rep = localization_exactness_k0(seeds, SerrePredicate.zero(N))
  assert rep.ok
  assert rep.c_group.is_trivial()
  assert rep.m_group == rep.q_group


def test_localizing_at_everything_kills_k0():
  seeds = [truncated_line(2), cycle_nset(1, tail=1)]
  rep = localization_exactness_k0(seeds, SerrePredicate.everything(N))
  assert rep.ok
  assert rep.q_group.is_trivial()
  assert rep.c_group == rep.m_group


def test_localized_k0_rank_counts_cycle_lengths():
  """K0(M/C) for C = torsion sets is free on the cycle lengths present —
  compare the presented rank with a direct count on the closure."""
  corpora = [
      [truncated_line(3), cycle_nset(1, tail=2)],
      [cycle_nset(2, tail=1), truncated_line(2)],
      [cycle_nset(1), cycle_nset(2), truncated_line(2)],
      [cycle_nset(3, tail=1), cycle_nset(1)],
  ]
  torsion = SerrePredicate.torsion(N)
  for seeds in corpora:
    reps, rows = subquotient_relations(seeds, bound=64)
    want = len(nset_cycle_lengths(reps))
    rep = localization_exactness_k0(seeds, torsion)
    assert rep.ok
    assert rep.q_group == Z(want)
    quot = QuotientK0Result(reps, torsion, rows)
    want_rows = oracle_rows(sequence_ends_oracle(reps), quot.class_index,
                            quot.n_classes)
    assert intlin.lattice_equal(quot.relations, [list(r) for r in want_rows],
                                ambient_dim=quot.n_classes)
