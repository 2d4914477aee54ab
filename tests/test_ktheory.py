import json
import os
import random
import subprocess
import sys
import textwrap
import time

import pytest

from monoidkit import intlin, ktheory, selftest, serre
from monoidkit.affine import AffineMonoid
from monoidkit.asets import (aset_length, cycle_nset, is_pc_aset, nat_set,
                             point_aset, truncated_line)
from monoidkit.corpora import (all_gamma_asets, all_nilpotent_asets,
                               all_nsets, all_pointed_sets, random_nset,
                               subquotient_relations)
from monoidkit.errors import (ClosureBoundExceeded, InvalidStructure,
                              MonoidKitError, NotNormal, NotZeroSmooth,
                              PredicateClosureError, UnsupportedDegree)
from monoidkit.groups import AbelianGroupPresentation
from monoidkit.ktheory import (K0Result, LatticeComplex, QuotientK0Result,
                               StableConstants,
                               burnside_rank, class_group,
                               coniveau_k0_report, devissage_check_k0,
                               div_matrix, dvm_report, gersten_complex,
                               gersten_exactness_check, k0_of_catspec, k_gamma,
                               _exactness, localization_exactness_k0,
                               w_group)
from monoidkit.monoids import FiniteMonoid, NatMonoid, UnitGroupDescriptor
from monoidkit.serre import (SerrePredicate, canonical_window,
                             compose_quotient, hom_quotient,
                             identity_quotient, reduced_object)
from test_intlin import dense, lattice_contains, lattice_equal, matmul, sparse

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
    got = {tuple(dense(r, n)) for r in rows}
    assert len(got) == len(rows)
    assert got == want
    k0 = K0Result(reps, rows)
    assert k0.group == AbelianGroupPresentation.from_relations(
        [dense(r, n) for r in rows], n)
    assert k0.additivity_holds()


# ---------------------------------------------------------------- SNF, larger


def check_snf_contract(M):
  D, U, V = intlin.smith_normal_form(M)
  assert matmul(matmul(U, M), V) == D
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


def n_predicates():
  return [SerrePredicate.torsion(N), SerrePredicate.zero(N),
          SerrePredicate.everything(N), SerrePredicate.support_in(N, ["(t)"]),
          SerrePredicate.support_in(N, []), SerrePredicate.finite_length(N)]


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
    assert lattice_equal([dense(r, quot.n_classes) for r in quot.relations],
                         [list(r) for r in want_rows],
                         ambient_dim=quot.n_classes)


# ------------------------------------------ one reduction per presentation


def stand_ins(n, rng=None):
  """n pointed sets to stand for bare generators: K0Result reads only their
  sizes, which rank its pivots (random sizes when an rng is given)."""
  pool = all_pointed_sets(FiniteMonoid.f1(), 6)
  return [rng.choice(pool) if rng else pool[0] for _ in range(n)]


def assert_presents_the_dense_group(k0, rows, n):
  """k0's class map is an isomorphism Z^n/⟨rows⟩ → k0.group, checked exactly
  against the dense SNF: the group is the one it reads off ``rows``, every
  row has class zero, and the classes, with the torsion moduli, span the
  group.  A surjection between isomorphic finitely generated abelian groups
  is injective, so together these make the class map an isomorphism."""
  assert k0.group == AbelianGroupPresentation.from_relations(
      [dense(r, n) for r in rows], n)
  assert all(k0.is_zero(r) for r in rows)
  free, moduli = k0.group.free_rank, k0.group.invariant_factors
  width = free + len(moduli)
  span = [list(f) + list(t) for f, t in map(k0.class_vector, range(n))]
  span += [[d * (j == free + i) for j in range(width)]
           for i, d in enumerate(moduli)]
  assert intlin.invariant_factors(span) == [1] * width


def k0_corpora():
  """The Γ₊-set presentations of the k0 benchmark (Z/2, Z/3, Z/2×Z/2, Z/4
  and Z/5 at every cap from |Γ| + 1 to 8) and of selftest case 07."""
  for orders in ([2], [3], [2, 2], [4], [5]):
    G = FiniteMonoid.group_with_zero(orders)
    for cap in range(len(G.unit_elements()) + 1, 9):
      yield [X for X, _ in all_gamma_asets(G, cap)]
  for top in (1, 2, 3):
    t = FiniteMonoid.truncated_free(top)
    yield [X for X in all_nilpotent_asets(t, 5)
           if is_pc_aset(X) and aset_length(X) is not None]


def test_class_maps_are_isomorphisms_onto_the_dense_group():
  classes = 0
  for corpus in k0_corpora():
    reps, rows = subquotient_relations(corpus, bound=128)
    k0 = K0Result(reps, rows)
    assert_presents_the_dense_group(k0, rows, len(reps))
    assert k0.additivity_holds()
    classes += len(reps)
  assert classes == 446
  rng = random.Random(7)
  # random rows of the presentation shape e_X - e_S - e_Q, which pivot
  for _ in range(150):
    n = rng.randint(1, 8)
    rows = []
    for _ in range(rng.randint(0, 10)):
      row = [0] * n
      x, s, q = (rng.randrange(n) for _ in range(3))
      row[x] += 1
      row[s] -= 1
      row[q] -= 1
      rows.append(sparse(row))
    assert_presents_the_dense_group(K0Result(stand_ins(n, rng), rows), rows, n)
  # those are all free; random relations bring torsion, and leave a residual
  torsion_seen = 0
  for _ in range(150):
    n = rng.randint(1, 6)
    rows = [[rng.randint(-3, 3) for _ in range(n)]
            for _ in range(rng.randint(0, 5))]
    rows = list(map(sparse, rows))
    k0 = K0Result(stand_ins(n, rng), rows)
    assert_presents_the_dense_group(k0, rows, n)
    assert k0.additivity_holds()
    torsion_seen += bool(k0.group.invariant_factors)
  assert torsion_seen >= 30


def test_unit_pivots_leave_the_simple_objects():
  """Pivoting each row on its largest object eliminates every class but the
  simple objects' (the ones with no proper nonzero subobject, such as the
  orbits Γ/H) and leaves a Schur complement with no nonzero row, so the
  simple objects' classes are the standard basis."""
  for corpus in k0_corpora():
    reps, rows = subquotient_relations(corpus, bound=128)
    survivors, residual, _ = intlin.eliminate_unit_pivots(
        rows, len(reps), [X.size() for X in reps])
    simple = [j for j, X in enumerate(reps) if len(X.subobject_sets()) == 2]
    assert survivors == simple
    assert residual == []
    k0 = K0Result(reps, rows)
    basis = [tuple(int(i == j) for j in range(len(simple)))
             for i in range(len(simple))]
    assert [k0.class_vector(j) for j in simple] == [(e, ()) for e in basis]


def test_relation_rows_are_sparse_and_no_zero_row_reaches_the_snf(
    monkeypatch):
  snf_inputs = []
  smith = intlin.smith_normal_form

  def recorded(M):
    snf_inputs.append(M)
    return smith(M)

  monkeypatch.setattr(ktheory, "smith_normal_form", recorded)
  for corpus in k0_corpora():
    reps, rows = subquotient_relations(corpus, bound=128)
    for row in rows:
      assert type(row) is dict and 1 <= len(row) <= 3, row
      assert all(type(c) is int and c for c in row.values()), row
      assert set(row) <= set(range(len(reps))) and sum(row.values()) == -1
    del snf_inputs[:]
    k0 = K0Result(reps, rows)
    # every row pivots: the one SNF sees only the zero row standing in
    assert snf_inputs == [[[0] * k0.group.free_rank]]
  # random relations leave a residual: only its nonzero rows go through
  rng = random.Random(3)
  left = 0
  for _ in range(100):
    n = rng.randint(1, 6)
    rows = [[rng.randint(-3, 3) for _ in range(n)]
            for _ in range(rng.randint(1, 5))]
    rows = list(map(sparse, rows))
    reps = stand_ins(n, rng)
    survivors, residual, _ = intlin.eliminate_unit_pivots(
        rows, n, [X.size() for X in reps])
    assert all(map(any, residual))
    del snf_inputs[:]
    K0Result(reps, rows)
    assert snf_inputs == [residual or [[0] * len(survivors)]]
    left += bool(residual)
  assert left == 63


def test_a_corrupted_row_fails_the_certificate():
  G = FiniteMonoid.group_with_zero([2, 2])
  reps, rows = subquotient_relations([X for X, _ in all_gamma_asets(G, 6)])
  good = K0Result(reps, rows)
  simple = next(j for j in range(len(reps)) if any(good.class_vector(j)[0]))
  caught = 0
  for i in range(0, len(rows), 5):
    bad = [dense(r, len(reps)) for r in rows]
    bad[i][simple] += 1
    bad = list(map(sparse, bad))
    k0 = K0Result(reps, bad)
    assert k0.group != good.group or not k0.additivity_holds() or \
        not all(k0.is_zero(r) for r in rows)
    with pytest.raises(AssertionError):
      assert_presents_the_dense_group(k0, rows, len(reps))
    caught += 1
  assert caught >= 5


def test_k0_of_gamma_sets_at_cap_9_is_the_burnside_rank():
  for orders, rank in (([2, 2, 2], 16), ([2, 4], 8)):
    G = FiniteMonoid.group_with_zero(orders)
    start = time.perf_counter()
    k0 = k0_of_catspec([X for X, _ in all_gamma_asets(G, 9)],
                       closure_bound=2000)
    elapsed = time.perf_counter() - start
    assert burnside_rank(G.units())[0] == rank
    assert k0.group == Z(rank)
    assert k0.additivity_holds()
    assert elapsed < 60, f"{orders} at cap 9 took {elapsed:.1f} s"


def test_devissage_at_8_elements_gives_the_length():
  start = time.perf_counter()
  rep = devissage_check_k0(FiniteMonoid.truncated_free(4), pc=True,
                           max_elements=8, closure_bound=1000)
  elapsed = time.perf_counter() - start
  assert rep.computed == Z(1) and rep.match
  assert len(rep.rows) > 100
  assert all(row["class"] == [row["length"]] for row in rep.rows)
  assert elapsed < 30, f"N/(t^5) at 8 elements took {elapsed:.1f} s"


def test_index_of_searches_only_the_reps_of_equal_key():
  G = FiniteMonoid.group_with_zero([2, 2])
  corpus = [X for X, _ in all_gamma_asets(G, 6)]
  k0 = k0_of_catspec(corpus)
  for i, rep in enumerate(k0.reps):
    assert k0.index_of(rep) == i
  for X in corpus:
    assert k0.reps[k0.index_of(X)].is_isomorphic(X)
  outside = [X for X, _ in all_gamma_asets(G, 7) if X.size() == 7]
  with pytest.raises(InvalidStructure):
    k0.index_of(outside[0])
  with pytest.raises(InvalidStructure):
    k0.index_of(truncated_line(2))


def test_the_class_index_is_built_on_the_first_index_of(monkeypatch):
  from monoidkit.asets import FiniteASet
  G = FiniteMonoid.group_with_zero([2, 2])
  reps, rows = subquotient_relations([X for X, _ in all_gamma_asets(G, 6)])
  keys = []
  class_key = FiniteASet.class_key
  monkeypatch.setattr(FiniteASet, "class_key",
                      lambda self: keys.append(self) or class_key(self))
  k0 = K0Result(reps, rows)
  assert keys == []                   # the reps are filed on first use
  assert k0.index_of(reps[-1]) == len(reps) - 1
  assert len(keys) == len(reps) + 1
  keys.clear()
  assert k0.index_of(reps[0]) == 0 and len(keys) == 1


def test_gamma_set_classes_are_found_without_an_isomorphism_search(
    monkeypatch):
  from monoidkit.asets import FiniteASet
  calls = []
  for name in ("find_isomorphism", "iso_key"):
    method = getattr(FiniteASet, name)
    monkeypatch.setattr(FiniteASet, name, lambda self, *args, _m=method,
                        _n=name: calls.append(_n) or _m(self, *args))
  G = FiniteMonoid.group_with_zero([2, 2])
  corpus = [X for X, _ in all_gamma_asets(G, 8)]
  k0 = k0_of_catspec(corpus, closure_bound=256)
  assert (len(k0.reps), len(k0.relations)) == (80, 224)
  assert k0.group == AbelianGroupPresentation.free(5)
  assert [k0.reps[k0.index_of(X)].canonical_key() for X in corpus] == \
      [X.canonical_key() for X in corpus]
  explicit = SerrePredicate.explicit(G, corpus[::3])
  assert [explicit.contains(X) for X in corpus] == \
      [i % 3 == 0 for i in range(len(corpus))]
  assert calls == []
  # over N the same walk still searches inside its iso_key buckets
  k0_of_catspec(all_nsets(4))
  assert {"find_isomorphism", "iso_key"} <= set(calls)


def test_is_zero_reads_the_class_map():
  # Z^2 / <(2, 2)> = Z + Z/2: [a] + [b] is not zero, but twice it is
  k0 = K0Result(stand_ins(2), [{0: 2, 1: 2}])
  assert k0.group == CYC([0, 2])
  assert not k0.is_zero({0: 1, 1: 1})
  assert k0.is_zero({0: 2, 1: 2}) and k0.is_zero({})
  assert not k0.is_zero({0: 1, 1: -1}) and not k0.is_zero({0: 2})


def lattice_verdicts(n_m, m_rel, class_index, c_indices):
  """Composite zero and middle exactness as localization_exactness_k0
  decided them before it compared groups: the M/C relations pushed from
  m_rel, one lattice_contains per vector, and the kernel of the right map
  from kernel_basis compared with the image by lattice_equal."""
  n_q = max(class_index) + 1 if class_index else 0
  rows = {}
  for rel in m_rel:
    row = [0] * n_q
    for i, c in enumerate(rel):
      row[class_index[i]] += c
    if any(row):
      rows.setdefault(tuple(row), row)
  q_rel = list(rows.values())
  to_q = [[0] * n_m for _ in range(n_q)]
  for i in range(n_m):
    to_q[class_index[i]][i] = 1

  def q_zero(vec):
    img = intlin.mat_vec(to_q, vec)
    return lattice_contains(q_rel, img)

  composite_zero = all(q_zero([1 if j == i else 0 for j in range(n_m)])
                       for i in c_indices)
  m_rels_die = all(q_zero(r) for r in m_rel)
  ext = [to_q[r][:] + [-rel[r] for rel in q_rel] for r in range(n_q)]
  kernel_vecs = [v[:n_m] for v in intlin.kernel_basis(ext)]
  image_vecs = [[1 if j == i else 0 for j in range(n_m)] for i in c_indices]
  middle_exact = lattice_equal(kernel_vecs + m_rel,
                                      image_vecs + m_rel, ambient_dim=n_m)
  return composite_zero and m_rels_die, middle_exact, q_rel


def are_iso_in_quotient(X, Y, pred):
  """Is there an isomorphism X → Y in M/C?  Are the reduced objects
  isomorphic A-sets (see ``serre.reduced_object``)?  The oracle the M/C
  class partition and the hom search are checked against."""
  return reduced_object(X, pred).is_isomorphic(reduced_object(Y, pred))


def hom_search_iso(X, Y, pred):
  """Is there an isomorphism X → Y in M/C?  The morphism search
  are_iso_in_quotient ran before it compared reduced objects: a map of
  Hom(X, Y) with a two-sided inverse in Hom(Y, X), with the reverse hom-set
  and both identities computed once per pair.  It calls the window and
  composition functions in the order the per-map inverse search did, so it
  gives the same verdicts and raises the same errors."""
  if X.is_isomorphic(Y):
    return True
  forward = hom_quotient(X, Y, pred)
  if not forward:
    return False
  ident_x, ident_y = identity_quotient(X, pred), identity_quotient(Y, pred)
  backward = hom_quotient(Y, X, pred)
  return any(compose_quotient(f, g) == ident_x
             and compose_quotient(g, f) == ident_y
             for f in forward for g in backward)


def hom_search_partition(reps, pred):
  """M/C class numbers in order of first arrival, each object compared by
  hom_search_iso with the first object of every earlier class."""
  leaders = []
  out = []
  for X in reps:
    cls = next((c for c, L in enumerate(leaders)
                if hom_search_iso(X, L, pred)), len(leaders))
    if cls == len(leaders):
      leaders.append(X)
    out.append(cls)
  return out


def localization_oracle(objects, pred, closure_bound=64):
  """The report fields of the lattice computation above, with the M/C
  classes from the hom search and K₀(C) from a second closure walk over the
  objects in C; then the closure and its M/C partition."""
  reps, m_rel = subquotient_relations(objects, bound=closure_bound)
  m_rel = [dense(r, len(reps)) for r in m_rel]
  c_indices = [i for i, X in enumerate(reps) if pred.contains(X)]
  class_index = hom_search_partition(reps, pred)
  composite_zero, middle_exact, q_rel = lattice_verdicts(
      len(reps), m_rel, class_index, c_indices)
  c_objects = [reps[i] for i in c_indices]
  c_group = AbelianGroupPresentation.trivial()
  if c_objects:
    c_reps, c_rel = subquotient_relations(c_objects, bound=closure_bound)
    c_group = AbelianGroupPresentation.from_relations(
        [dense(r, len(c_reps)) for r in c_rel], len(c_reps))
  group = AbelianGroupPresentation.from_relations
  return ((c_group, group(m_rel, len(reps)),
           group(q_rel, len(set(class_index))), composite_zero, middle_exact),
          reps, class_index)


def oracle_fields(objects, pred):
  return localization_oracle(objects, pred)[0]


def localization_fields(objects, pred):
  rep = localization_exactness_k0(objects, pred)
  return (rep.c_group, rep.m_group, rep.q_group, rep.composite_zero,
          rep.middle_exact)


def outcome(fn, *args):
  try:
    return fn(*args)
  except MonoidKitError as err:
    return type(err)


def breaks_two_out_of_three(objects, pred):
  """Does a row of the closure have its positive term in C but not its
  negative terms, or the other way round?"""
  reps, rows = subquotient_relations(objects)
  rows = [dense(r, len(reps)) for r in rows]
  in_c = [pred.contains(X) for X in reps]
  return any(all(in_c[i] for i, c in enumerate(row) if c > 0) !=
             all(in_c[i] for i, c in enumerate(row) if c < 0)
             for row in rows)


def seed_sets():
  for seed in range(60):
    rng = random.Random(seed)
    yield [random_nset(rng, 4) for _ in range(2)]


def test_localization_matches_the_lattice_oracle_on_nsets():
  verdicts = set()
  for seeds in seed_sets():
    for pred in n_predicates():
      want, reps, classes = localization_oracle(seeds, pred)
      assert QuotientK0Result._partition(reps, pred) == classes, (seeds, pred)
      assert localization_fields(seeds, pred) == want, (seeds, pred)
      verdicts.add(want[3:])
  assert verdicts == {(True, True)}


def test_localization_matches_the_lattice_oracle_on_finite_monoids():
  corpora = [(G, [X for X, _ in all_gamma_asets(G, 5)])
             for G in map(FiniteMonoid.group_with_zero, ([2], [3], [2, 2]))]
  t3 = FiniteMonoid.truncated_free(2)
  corpora.append((t3, all_nilpotent_asets(t3, 5)))
  cases = 0
  for M, objects in corpora:
    preds = [SerrePredicate.zero(M), SerrePredicate.everything(M),
             SerrePredicate.finite_length(M)]
    preds += [SerrePredicate.support_in(M, [p.label]) for p in M.primes()]
    for pred in preds:
      want, reps, classes = localization_oracle(objects, pred)
      assert QuotientK0Result._partition(reps, pred) == classes, (M, pred)
      assert localization_fields(objects, pred) == want, (M, pred)
      cases += 1
  assert cases == 16


def test_non_serre_lists_either_match_the_oracle_or_are_refused():
  preds = [SerrePredicate.explicit(N, [point_aset(N), truncated_line(1)]),
           SerrePredicate.explicit(N, [truncated_line(1)])]
  refused = 0
  for seeds in seed_sets():
    for pred in preds:
      want = outcome(oracle_fields, seeds, pred)
      got = outcome(localization_fields, seeds, pred)
      if got != want:
        assert got is PredicateClosureError, (seeds, pred)
        assert breaks_two_out_of_three(seeds, pred), (seeds, pred)
        refused += 1
  assert refused == 6


def test_explicit_list_without_its_subquotients_is_refused():
  # line(2) is in C, its subobject and quotient line(1) are not; a second
  # walk from line(2) used to count line(1) and report K0(C) = Z, exact
  pred = SerrePredicate.explicit(N, [point_aset(N), truncated_line(2)])
  with pytest.raises(PredicateClosureError, match="two-out-of-three"):
    localization_exactness_k0([truncated_line(2)], pred)


class GivenPartition(QuotientK0Result):
  """QuotientK0Result over a given class partition of bare generators."""

  def __init__(self, class_index, m_relations):
    self._partition = lambda reps, pred: class_index
    super().__init__(stand_ins(len(class_index)), None, m_relations)


def test_exactness_matches_the_lattice_oracle_on_random_lattices():
  rng = random.Random(11)
  tally = {}
  for _ in range(400):
    n = rng.randint(1, 6)
    rows = [[rng.choice((-1, -1, 0, 0, 0, 1, 2)) for _ in range(n)]
            for _ in range(rng.randint(0, 5))]
    rows = [r for r in rows if any(r)]
    k = rng.randint(1, n)
    labels = [rng.randrange(k) for _ in range(n)]
    first = list(dict.fromkeys(labels))
    class_index = [first.index(c) for c in labels]
    c_indices = sorted(rng.sample(range(n), rng.randint(0, n)))
    sparse_rows = list(map(sparse, rows))
    quot = GivenPartition(class_index, sparse_rows)
    want = lattice_verdicts(n, rows, class_index, c_indices)
    assert [dense(r, quot.n_classes) for r in quot.relations] == want[2]
    got = _exactness(sparse_rows, quot, c_indices)
    assert got == want[:2], (rows, class_index, c_indices)
    tally[got] = tally.get(got, 0) + 1
  assert set(tally) == {(True, True), (True, False), (False, False)}, tally


def test_case_08_runs_four_reductions_and_one_walk(monkeypatch):
  snf, walks = [], []
  smith, walk = intlin.smith_normal_form, ktheory.subquotient_relations

  def counted_snf(M):
    snf.append(M)
    return smith(M)

  def counted_walk(*args, **kw):
    walks.append(args)
    return walk(*args, **kw)

  monkeypatch.setattr(intlin, "smith_normal_form", counted_snf)
  monkeypatch.setattr(ktheory, "smith_normal_form", counted_snf)
  monkeypatch.setattr(ktheory, "subquotient_relations", counted_walk)
  assert selftest.case_08_localization().passed
  assert (len(snf), len(walks)) == (4, 1)


# ------------------------------------- M/C isomorphism through reduced objects


def small_quotient_cases():
  """(objects, predicates): N-sets up to 4 elements under the six N
  predicates, and the Γ₊-sets of Z/2, Z/3 and Z/2×Z/2, the N/(t³)-sets and
  the F1-sets up to 4 elements under zero, everything, finite length and
  support in each prime and in none."""
  yield all_nsets(4), n_predicates()
  t3, f1 = FiniteMonoid.truncated_free(2), FiniteMonoid.f1()
  corpora = [(G, [X for X, _ in all_gamma_asets(G, 4)])
             for G in map(FiniteMonoid.group_with_zero, ([2], [3], [2, 2]))]
  corpora += [(t3, all_nilpotent_asets(t3, 4)), (f1, all_pointed_sets(f1, 4))]
  for M, objects in corpora:
    preds = [SerrePredicate.zero(M), SerrePredicate.everything(M),
             SerrePredicate.finite_length(M), SerrePredicate.support_in(M, [])]
    preds += [SerrePredicate.support_in(M, [p.label]) for p in M.primes()]
    yield objects, preds


def test_iso_in_quotient_matches_the_hom_search():
  pairs = isomorphic = 0
  for objects, preds in small_quotient_cases():
    for pred in preds:
      for X in objects:
        for Y in objects:
          want = hom_search_iso(X, Y, pred)
          assert are_iso_in_quotient(X, Y, pred) == want, (X, Y, pred)
          pairs += 1
          isomorphic += want
  assert (pairs, isomorphic) == (4955, 1777)


def test_reduced_objects_have_trivial_windows():
  reduced = 0
  for objects, preds in small_quotient_cases():
    for pred in preds:
      for X in objects:
        R = reduced_object(X, pred)
        window = canonical_window(R, R, pred)
        assert window.xsub == frozenset(R.elements), (X, pred)
        assert window.ykernel == {R.base}, (X, pred)
        reduced += 1
  assert reduced == 315


def test_quotient_classes_search_no_morphisms(monkeypatch):
  calls = []

  def counted(name):
    original = getattr(serre, name)

    def wrapper(*args):
      calls.append(name)
      return original(*args)
    return wrapper

  for name in ("hom_quotient", "_inverse", "compose_quotient"):
    monkeypatch.setattr(serre, name, counted(name))
  G = FiniteMonoid.group_with_zero([2, 2])
  reps, _ = subquotient_relations([X for X, _ in all_gamma_asets(G, 5)])
  for pred in (SerrePredicate.zero(G), SerrePredicate.finite_length(G)):
    classes = QuotientK0Result._partition(reps, pred)
    assert are_iso_in_quotient(reps[0], reps[-1], pred) == \
        (classes[0] == classes[-1])
  for pred in n_predicates():
    objects = all_nsets(4)
    QuotientK0Result._partition(objects, pred)
    are_iso_in_quotient(objects[1], objects[2], pred)
  assert calls == []


def test_localization_of_klein_four_sets_at_cap_8():
  G = FiniteMonoid.group_with_zero([2, 2])
  objects = [X for X, _ in all_gamma_asets(G, 8)]
  start = time.perf_counter()
  reports = [localization_exactness_k0(objects, pred(G), closure_bound=128)
             for pred in (SerrePredicate.finite_length, SerrePredicate.zero,
                          SerrePredicate.everything)]
  assert time.perf_counter() - start < 15
  length, zero, everything = reports
  assert (length.c_group, length.m_group, length.q_group) == (Z(1), Z(5), Z(4))
  assert zero.q_group == Z(5)
  assert everything.q_group.is_trivial()
  assert all(rep.ok for rep in reports)


def run_in_child(code):
  """Run ``code``, which sets a dict ``out``, in a fresh interpreter that
  prints ``out`` as one JSON line, with the child's own peak RSS, in MB,
  under "rss_mb".  The peak is the child's VmHWM: Linux carries the
  spawning process's peak RSS into a child's ru_maxrss across exec, and
  under pytest that is pytest's."""
  package_root = os.path.dirname(os.path.dirname(ktheory.__file__))
  env = dict(os.environ, PYTHONPATH=package_root)
  script = ("import json, time\n" + textwrap.dedent(code) +
            "\nwith open('/proc/self/status') as status:\n"
            "  peak_kb = int(status.read().split('VmHWM:')[1].split()[0])\n"
            "out['rss_mb'] = peak_kb / 1024\nprint(json.dumps(out))\n")
  done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                        capture_output=True, text=True, timeout=300)
  return json.loads(done.stdout)


def test_k0_of_gamma_sets_of_order_8_at_cap_10():
  out = run_in_child("""
      from monoidkit.corpora import all_gamma_asets
      from monoidkit.ktheory import k0_of_catspec
      from monoidkit.monoids import FiniteMonoid
      G = FiniteMonoid.group_with_zero([2, 2, 2])
      start = time.perf_counter()
      k0 = k0_of_catspec([X for X, _ in all_gamma_asets(G, 10)],
                         closure_bound=2000)
      out = {"group": str(k0.group), "classes": len(k0.reps),
             "rows": len(k0.relations), "additive": k0.additivity_holds(),
             "wall_s": time.perf_counter() - start}
      """)
  assert (out["group"], out["classes"], out["rows"], out["additive"]) == \
      (str(Z(16)), 1678, 9598, True)
  assert out["wall_s"] < 30, out
  assert out["rss_mb"] < 200, out


def test_k0_of_gamma_sets_of_order_8_at_cap_12():
  out = run_in_child("""
      from monoidkit.corpora import all_gamma_asets
      from monoidkit.ktheory import k0_of_catspec
      from monoidkit.monoids import FiniteMonoid
      G = FiniteMonoid.group_with_zero([2, 2, 2])
      start = time.perf_counter()
      k0 = k0_of_catspec([X for X, _ in all_gamma_asets(G, 12)],
                         closure_bound=6000)
      out = {"group": str(k0.group), "classes": len(k0.reps),
             "rows": len(k0.relations), "additive": k0.additivity_holds(),
             "wall_s": time.perf_counter() - start}
      """)
  assert (out["group"], out["classes"], out["rows"], out["additive"]) == \
      (str(Z(16)), 5406, 51795, True)
  assert out["wall_s"] < 8, out
  assert out["rss_mb"] < 150, out


def test_localization_of_gamma_sets_of_order_8_at_cap_9():
  G = FiniteMonoid.group_with_zero([2, 2, 2])
  objects = [X for X, _ in all_gamma_asets(G, 9)]
  start = time.perf_counter()
  reports = [localization_exactness_k0(objects, pred(G), closure_bound=2000)
             for pred in (SerrePredicate.finite_length, SerrePredicate.zero,
                          SerrePredicate.everything)]
  elapsed = time.perf_counter() - start
  groups = [(rep.c_group, rep.m_group, rep.q_group) for rep in reports]
  assert groups == [(Z(1), Z(16), Z(15)),
                    (Z(0), Z(16), Z(16)),
                    (Z(16), Z(16), Z(0))]
  assert all(rep.ok for rep in reports)
  assert elapsed < 30, f"three localizations at cap 9 took {elapsed:.1f} s"


def test_localization_of_gamma_sets_of_order_8_at_cap_11():
  """Finite length is decided on each object's carrier, so at cap 11 the
  localization builds no subobject or quotient to ask it about."""
  out = run_in_child("""
      from monoidkit.corpora import all_gamma_asets
      from monoidkit.ktheory import localization_exactness_k0
      from monoidkit.monoids import FiniteMonoid
      from monoidkit.serre import SerrePredicate
      G = FiniteMonoid.group_with_zero([2, 2, 2])
      start = time.perf_counter()
      rep = localization_exactness_k0(
          [X for X, _ in all_gamma_asets(G, 11)],
          SerrePredicate.finite_length(G), closure_bound=6000)
      out = {"groups": [str(rep.c_group), str(rep.m_group),
                        str(rep.q_group)],
             "ok": rep.ok, "wall_s": time.perf_counter() - start}
      """)
  assert out["groups"] == [str(Z(1)), str(Z(16)), str(Z(15))], out
  assert out["ok"], out
  assert out["wall_s"] < 6, out
  assert out["rss_mb"] < 100, out
