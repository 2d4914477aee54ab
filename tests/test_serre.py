import random

import pytest

from monoidkit.asets import (ASetMap, FiniteASet, cycle_nset, hom_maps,
                             nat_set, point_aset, truncated_line)
from monoidkit.corpora import (all_gamma_asets, all_nilpotent_asets,
                               all_nsets, random_nset)
from monoidkit.errors import NotIso, PredicateClosureError
from monoidkit.monoids import FiniteMonoid, NatMonoid
from monoidkit.serre import (IndexPoset, QuotientHom, SerrePredicate,
                             WindowPair, admissible_kernels, admissible_subs,
                             canonical_window, check_condition_w,
                             check_filtered, compose_quotient, hom_quotient,
                             hom_quotient_naive, identity_quotient,
                             index_poset, is_iso_quotient, maximal_kernel,
                             minimal_dense_sub, monic_representative,
                             quotient_equivalence_report, validate_serre,
                             zero_quotient)

N = NatMonoid()
TORSION = SerrePredicate.torsion(N)


# ---------------------------------------------------------------- predicates


def test_torsion_predicate_is_serre_on_small_nsets():
  report = validate_serre(TORSION, all_nsets(4))
  assert report.ok, report.violations


def test_zero_predicate_is_serre():
  report = validate_serre(SerrePredicate.zero(N), all_nsets(3))
  assert report.ok


def test_explicit_predicate_missing_a_subquotient_is_flagged():
  # the two-leaf fork has both one-leaf subobjects "in C", but is not itself
  fork = nat_set({"a": "*", "b": "*"}, name="fork")
  bad = SerrePredicate.explicit(N, [point_aset(N), truncated_line(1)])
  report = validate_serre(bad, [fork, truncated_line(1), point_aset(N)])
  assert not report.ok
  assert any("two-out-of-three" in v for v in report.violations)


def test_predicate_json_round_trip():
  for pred in (TORSION, SerrePredicate.support_in(N, ["(t)"]),
               SerrePredicate.finite_length(N),
               SerrePredicate.explicit(N, [truncated_line(1)])):
    assert SerrePredicate.from_json(N, pred.to_json()) == pred


# -------------------------------------------------------------- window poset


def test_index_poset_of_torsion_line_has_nine_windows_and_a_maximum():
  X = truncated_line(2)
  poset = index_poset(X, X, TORSION)
  assert len(poset) == 9
  top = poset.maximum()
  assert top == WindowPair({"*"}, set(X.elements))
  assert all(poset.leq(w, top) for w in poset.pairs)
  assert check_filtered(poset)


def test_generated_posets_are_filtered():
  for X in all_nsets(4):
    for Y in all_nsets(3):
      assert check_filtered(index_poset(X, Y, TORSION))


def test_artificial_antichain_is_reported_unfiltered():
  X = truncated_line(2)
  a = WindowPair({"*", "1", "t"}, {"*", "t"})
  b = WindowPair({"*", "t"}, {"*"})
  poset = IndexPoset(X, X, TORSION, [a, b])
  report = check_filtered(poset)
  assert not report
  assert set(report.witness) == {a, b}


def oracle_minimal_dense_sub(X, pred):
  """The enumerate-and-intersect minimal_dense_sub: the window oracle."""
  subs = admissible_subs(X, pred)
  if not subs:
    # even S = X is inadmissible, so C is missing the zero object
    raise PredicateClosureError(
        "no subobject of the source has cokernel in C; "
        "the predicate does not describe a Serre subcategory")
  out = frozenset.intersection(*map(frozenset, subs))
  quo, _ = X.quotient_by(out)
  if not pred.contains(quo):
    raise PredicateClosureError(
        "admissible subobjects are not closed under intersection; "
        "the predicate is not Serre on this object")
  return out


def oracle_maximal_kernel(Y, pred):
  """The enumerate-and-union maximal_kernel: the window oracle."""
  kernels = admissible_kernels(Y, pred)
  if not kernels:
    # even the point is inadmissible, so C is missing the zero object
    raise PredicateClosureError(
        "no subobject of the target lies in C; "
        "the predicate does not describe a Serre subcategory")
  out = frozenset.union(*map(frozenset, kernels))
  sub, _ = Y.sub_aset(out)
  if not pred.contains(sub):
    raise PredicateClosureError(
        "admissible kernels are not closed under union; "
        "the predicate is not Serre on this object")
  return out


def window_corpus():
  """(object, predicate) pairs: N-sets, Γ₊-sets and N/(t³)-sets to 6 elements.

  Over N: torsion, zero, support in (t), in all primes and in none, finite
  length, and two explicit lists that are not Serre (one misses the
  point).  Over the finite monoids: zero, everything, finite length and
  support in each prime and in none.
  """
  nat_preds = [TORSION, SerrePredicate.zero(N),
               SerrePredicate.support_in(N, ["(t)"]),
               SerrePredicate.everything(N), SerrePredicate.support_in(N, []),
               SerrePredicate.finite_length(N),
               SerrePredicate.explicit(N, [point_aset(N), truncated_line(1)]),
               SerrePredicate.explicit(N, [truncated_line(1)])]
  pairs = [(X, p) for X in all_nsets(6) for p in nat_preds]
  gammas = [FiniteMonoid.group_with_zero(o) for o in ([2], [3], [2, 2])]
  t3 = FiniteMonoid.truncated_free(2)
  corpora = [(G, [X for X, _ in all_gamma_asets(G, 6)]) for G in gammas]
  corpora.append((t3, all_nilpotent_asets(t3, 6)))
  for M, objects in corpora:
    preds = [SerrePredicate.zero(M), SerrePredicate.everything(M),
             SerrePredicate.finite_length(M), SerrePredicate.support_in(M, [])]
    preds += [SerrePredicate.support_in(M, [p.label]) for p in M.primes()]
    pairs += [(X, p) for X in objects for p in preds]
  return pairs


def outcome(fn, *args):
  try:
    return fn(*args)
  except PredicateClosureError:
    return PredicateClosureError


def test_canonical_window_matches_the_enumerating_oracle():
  pairs = window_corpus()
  assert len(pairs) == 1948
  raised = 0
  for X, pred in pairs:
    sub = outcome(oracle_minimal_dense_sub, X, pred)
    ker = outcome(oracle_maximal_kernel, X, pred)
    assert outcome(minimal_dense_sub, X, pred) == sub, (X, pred)
    assert outcome(maximal_kernel, X, pred) == ker, (X, pred)
    if PredicateClosureError in (sub, ker):
      raised += 1
      with pytest.raises(PredicateClosureError):
        canonical_window(X, X, pred)
      continue
    w = canonical_window(X, X, pred)
    assert w == WindowPair(sub, ker), (X, pred)
    assert index_poset(X, X, pred).maximum() == w, (X, pred)
  assert raised == 286


def test_window_functions_never_list_the_lattice(monkeypatch):
  lattice_calls = []
  monkeypatch.setattr(FiniteASet, "subobject_sets",
                      lambda self: lattice_calls.append(self))
  contains = SerrePredicate.contains
  pred_calls = []

  def counted(self, X):
    pred_calls.append(X)
    return contains(self, X)

  monkeypatch.setattr(SerrePredicate, "contains", counted)
  fixed = nat_set({f"p{i}": f"p{i}" for i in range(24)})
  preds = [TORSION, SerrePredicate.zero(N), SerrePredicate.everything(N),
           SerrePredicate.finite_length(N)]
  for X in all_nsets(5) + [fixed, truncated_line(30)]:
    n = len(X.nonbase())
    for pred in preds:
      for fn in (minimal_dense_sub, maximal_kernel):
        pred_calls.clear()
        fn(X, pred)
        # one test per non-base element at most, plus the closure check
        assert len(pred_calls) <= n + 1, (fn.__name__, X, pred)
      canonical_window(X, X, pred)
  assert lattice_calls == []


def test_canonical_window_on_24_fixed_points():
  X = nat_set({f"p{i}": f"p{i}" for i in range(24)})
  everything = SerrePredicate.everything(N)
  assert canonical_window(X, X, TORSION) == \
      WindowPair(X.elements, {X.base})
  assert canonical_window(X, X, everything) == \
      WindowPair({X.base}, X.elements)
  assert len(hom_quotient(X, X, everything)) == 1


# ------------------------------------------------------------------ hom-sets


def test_hom_through_zero_predicate_is_the_plain_hom_set():
  zero = SerrePredicate.zero(N)
  X, Y = cycle_nset(2, tail=1), truncated_line(3)
  for A, B in [(X, Y), (Y, X), (X, X)]:
    assert len(hom_quotient(A, B, zero)) == len(hom_maps(A, B))


def test_torsion_object_has_exactly_one_endomorphism_in_the_quotient():
  X = truncated_line(2)
  homs = hom_quotient(X, X, TORSION)
  assert len(homs) == 1
  assert homs[0].is_zero()
  # and the zero map is the identity here: X is killed by the quotient
  assert homs[0] == identity_quotient(X, TORSION)
  assert is_iso_quotient(homs[0])


def test_hom_sets_match_the_all_window_colimit_count():
  sets = all_nsets(4)
  for X in sets:
    for Y in sets:
      assert len(hom_quotient(X, Y, TORSION)) == \
          hom_quotient_naive(X, Y, TORSION)


def test_ambient_maps_equal_in_quotient_iff_equal_on_canonical_window():
  C = cycle_nset(2, tail=1)           # a0 feeds a 2-cycle
  ident = {x: x for x in C.elements}
  shifted = dict(ident, a0="c1")      # agrees with id on the periodic part
  f = ASetMap(C, C, ident)
  g = ASetMap(C, C, shifted)
  assert f != g
  assert QuotientHom.from_ambient(f, TORSION) == \
      QuotientHom.from_ambient(g, TORSION)


# --------------------------------------------------------------- composition


def test_identity_and_zero_laws():
  X, Y = cycle_nset(3), cycle_nset(2, tail=2)
  for f in hom_quotient(X, Y, TORSION):
    assert compose_quotient(identity_quotient(X, TORSION), f) == f
    assert compose_quotient(f, identity_quotient(Y, TORSION)) == f
    z = compose_quotient(f, zero_quotient(Y, X, TORSION))
    assert z == zero_quotient(X, X, TORSION)


def test_randomized_category_laws():
  rng = random.Random(20240817)
  rounds = 0
  while rounds < 60:
    X, Y, Z = (random_nset(rng, 5) for _ in range(3))
    fs = hom_quotient(X, Y, TORSION)
    gs = hom_quotient(Y, Z, TORSION)
    hs = hom_quotient(Z, X, TORSION)
    if not (fs and gs and hs):
      continue
    f, g, h = rng.choice(fs), rng.choice(gs), rng.choice(hs)
    assert compose_quotient(compose_quotient(f, g), h) == \
        compose_quotient(f, compose_quotient(g, h))
    rounds += 1


def test_quotient_functor_preserves_composition():
  X = cycle_nset(2, tail=1)
  Y = truncated_line(3)
  for u in hom_maps(X, X):
    for v in hom_maps(X, Y):
      lhs = QuotientHom.from_ambient(u.compose(v), TORSION)
      rhs = compose_quotient(QuotientHom.from_ambient(u, TORSION),
                             QuotientHom.from_ambient(v, TORSION))
      assert lhs == rhs


def test_non_serre_predicate_raises_closure_error():
  fork = nat_set({"a": "*", "b": "*"})
  bad = SerrePredicate.explicit(N, [point_aset(N), truncated_line(1)])
  with pytest.raises(PredicateClosureError):
    hom_quotient(fork, fork, bad)


# ------------------------------------------------------------ isos and monos


def test_dense_inclusion_is_an_iso_and_has_a_split_monic_representative():
  C = cycle_nset(2, tail=1)
  periodic = {"*", "c0", "c1"}
  sub, incl = C.sub_aset(periodic)
  f = QuotientHom.from_ambient(incl, TORSION)
  assert is_iso_quotient(f)
  m = monic_representative(f)
  assert m.is_injective()
  # the witness is split by an honest retraction, hence monic in M/C
  assert any(all(p(m(x)) == x for x in m.source.elements)
             for p in hom_maps(m.target, m.source))


def test_collapse_of_torsion_kernel_is_an_iso():
  C = cycle_nset(2, tail=1)
  T = {"*"} | {x for x in C.nonbase() if x.startswith("a")} - {"a0"}
  # collapsing nothing but the basepoint is trivially iso
  quo, proj = C.quotient_by(frozenset({"*"}))
  assert is_iso_quotient(QuotientHom.from_ambient(proj, TORSION))


def test_non_iso_raises_not_iso():
  X = cycle_nset(2)
  f = zero_quotient(X, X, TORSION)
  assert not is_iso_quotient(f)
  with pytest.raises(NotIso):
    monic_representative(f)


def test_canonical_window_of_mixed_object():
  C = cycle_nset(2, tail=1)
  w = canonical_window(C, C, TORSION)
  assert w.xsub == frozenset({"*", "c0", "c1"})   # the periodic part
  assert w.ykernel == frozenset({"*"})            # no torsion to kill


# --------------------------------------------------------------- condition W


@pytest.mark.parametrize("V", [truncated_line(2), cycle_nset(2, tail=1),
                               cycle_nset(3)])
def test_condition_w_holds_for_torsion(V):
  assert check_condition_w(V, TORSION) is True


def test_condition_w_with_zero_predicate_is_trivial():
  assert check_condition_w(truncated_line(2), SerrePredicate.zero(N)) is True


# ----------------------------------------------- quotient versus localization


def test_equivalence_report_inverting_t():
  report = quotient_equivalence_report(N, ["(t)"], corpus=all_nsets(4))
  assert len(report.rows) >= 20
  assert report.ok, str(report)


def test_equivalence_report_empty_z_is_the_identity_functor():
  report = quotient_equivalence_report(N, [], corpus=all_nsets(3))
  assert report.ok
  js = report.to_json()
  assert js["mismatches"] == 0 and js["pairs"] == len(report.rows)
