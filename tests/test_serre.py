import collections
import gc
import itertools
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoidkit import selftest, serre
from monoidkit.asets import (ASetMap, FiniteASet, aset_length, coequalizer,
                             cycle_nset, exact_seq_from_sub, hom_maps,
                             is_rooted_tree, nat_set, point_aset,
                             truncated_line, wedge)
from monoidkit.corpora import (all_gamma_asets, all_nilpotent_asets,
                               all_nsets, brute_force_asets, random_nset)
from monoidkit.errors import (InvalidStructure, NotIso, PredicateClosureError,
                              Undecidable)
from monoidkit.monoids import STAR, FiniteMonoid, NatMonoid, ValidationReport
from monoidkit.serre import (IndexPoset, QuotientHom, SerrePredicate,
                             WindowPair, admissible_kernels, admissible_subs,
                             canonical_window, check_condition_w,
                             check_filtered, compose_quotient, hom_quotient,
                             identity_quotient,
                             index_poset, is_iso_quotient, maximal_kernel,
                             minimal_dense_sub, monic_representative,
                             quotient_equivalence_report, reduced_object,
                             support)
from test_asets import oracle_support
from test_diagrams import product
from test_monoids import small_monoids

N = NatMonoid()
TORSION = SerrePredicate.torsion(N)


# ---------------------------------------------------------------- predicates


def validate_serre(pred, universe):
  """Closure report for a predicate over a subquotient-closed universe: the
  oracle that the predicates the tests use are Serre.

  Checks the two-out-of-three law on every exact sequence with middle object
  in the universe (which subsumes closure under subobjects and quotients),
  closure under binary products of members, and — for torsion predicates —
  cross-checks membership against the direct element-killing test.
  """
  v = []
  for X in universe:
    mid = pred.contains(X)
    for s in X.subobject_sets():
      seq = exact_seq_from_sub(X, s)
      ends = pred.contains(seq.sub) and pred.contains(seq.quotient)
      if mid != ends:
        v.append(f"two-out-of-three fails at {X.name or X.elements}"
                 f" with subobject {sorted(s)}: middle {mid}, ends {ends}")
  members = [X for X in universe if pred.contains(X)]
  for A, B in itertools.combinations_with_replacement(members, 2):
    P, _, _ = product(A, B)
    if not pred.contains(P):
      v.append(f"not closed under product of {A.name} and {B.name}")
  if pred.kind == "support_in" and isinstance(pred.monoid, NatMonoid) \
      and pred.primes == {"(t)"}:
    # membership should coincide with plain t-torsion
    for X in universe:
      step = X.action["t"]
      dies = all(_orbit_dies(step, x, X.base) for x in X.nonbase())
      if pred.contains(X) != dies:
        v.append(f"support membership disagrees with torsion test at {X.name}")
  return ValidationReport(repr(pred), v)


def _orbit_dies(step, x, base):
  for _ in range(len(step) + 1):
    x = step[x]
    if x == base:
      return True
  return False


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


def test_predicates_over_different_monoids_are_unequal():
  z2, z3 = FiniteMonoid.group_with_zero([2]), FiniteMonoid.group_with_zero([3])
  makers = [lambda M: SerrePredicate.torsion(M, ["*"]),
            SerrePredicate.finite_length,
            lambda M: SerrePredicate.support_in(M, [])]
  for make in makers:
    assert make(z2) == make(z2)
    assert make(z2) != make(z3)
    assert make(z2) != make(N)


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


def test_empty_poset_has_no_maximum():
  X = truncated_line(2)
  poset = index_poset(X, X, SerrePredicate.explicit(N, []))
  assert len(poset) == 0
  assert poset.maximum() is None
  assert check_filtered(poset)


def oracle_is_filtered(poset):
  """The pairwise definition: every two windows have an upper bound."""
  return all(any(poset.leq(a, w) and poset.leq(b, w) for w in poset.pairs)
             for a, b in itertools.combinations(poset.pairs, 2))


def test_check_filtered_matches_the_pairwise_oracle():
  rng = random.Random(20261018)
  posets = [index_poset(X, Y, TORSION)
            for X in all_nsets(4) for Y in all_nsets(3)]
  samples = []
  for P in rng.sample(posets, 60):
    for _ in range(4):
      k = rng.randint(0, len(P))
      samples.append(IndexPoset(P.X, P.Y, P.pred, rng.sample(P.pairs, k)))
  unfiltered = 0
  for P in posets + samples:
    report = check_filtered(P)
    assert bool(report) == oracle_is_filtered(P), P.pairs
    if not report:
      unfiltered += 1
      a, b = report.witness
      assert a != b
      assert not any(P.leq(a, w) and P.leq(b, w) for w in P.pairs)
  assert unfiltered > 0


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


def filtered_lattice(X, pred):
  """(admissible subobjects, admissible kernels) as first written: a fresh
  walk of X's lattice for each, every X/S and S built by the public,
  checking ``quotient_by`` and ``sub_aset``."""
  return ([s for s in X.subobject_sets() if pred.contains(X.quotient_by(s)[0])],
          [s for s in X.subobject_sets() if pred.contains(X.sub_aset(s)[0])])


def test_admissible_lists_match_the_public_constructor_filter():
  pairs = window_corpus()
  assert len(pairs) == 1948
  for X, pred in pairs:
    assert (admissible_subs(X, pred), admissible_kernels(X, pred)) == \
        filtered_lattice(X, pred), (X, pred)


def test_index_poset_walks_each_lattice_once(monkeypatch):
  walked = []
  walk = FiniteASet._walk_masks
  monkeypatch.setattr(FiniteASet, "_walk_masks",
                      lambda self: walked.append(self) or walk(self))
  corpus = all_nsets(4)
  for X in corpus:
    for Y in corpus:
      assert check_filtered(index_poset(X, Y, TORSION))
  assert len(corpus) ** 2 == 625
  assert len(walked) == len({id(X) for X in walked}) <= len(corpus)


def count_carrier_tests(monkeypatch, calls):
  """Log each ``contains_sub``/``contains_quotient`` call's object in calls."""
  for name in ("contains_sub", "contains_quotient"):
    test = getattr(SerrePredicate, name)
    monkeypatch.setattr(
        SerrePredicate, name,
        lambda self, X, s, test=test: calls.append(X) or test(self, X, s))


def test_admissible_lists_are_filtered_once_per_predicate(monkeypatch):
  calls = []
  count_carrier_tests(monkeypatch, calls)
  for X in all_nsets(4)[::3]:
    for pred in (TORSION, SerrePredicate.support_in(N, ["(t)"])):
      calls.clear()
      first = (admissible_subs(X, pred), admissible_kernels(X, pred))
      assert len(calls) == 2 * len(X.subobject_sets())
      calls.clear()
      assert (admissible_subs(X, pred), admissible_kernels(X, pred)) == first
      assert calls == [], (X, pred)


def test_the_lattice_of_a_window_holds_only_masks():
  # 4,096 subobjects and one window: X keeps its masks and the two
  # one-element admissible lists, not an S and an X/S per subobject
  X = nat_set({f"p{i}": f"p{i}" for i in range(12)})
  tracemalloc.start()
  try:
    poset = index_poset(X, X, TORSION)
    held, peak = tracemalloc.get_traced_memory()
  finally:
    tracemalloc.stop()
  assert len(poset) == 1 and len(X._derived.lattice) == 4096
  assert peak <= 2.9e6 and held <= 0.5e6, (peak, held)


def test_window_functions_never_list_the_lattice(monkeypatch):
  lattice_calls = []
  monkeypatch.setattr(FiniteASet, "_walk_masks",
                      lambda self: lattice_calls.append(self))
  pred_calls = []
  count_carrier_tests(monkeypatch, pred_calls)
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


def oracle_contains(pred, X):
  """Membership of a built object by the oracles: zero as one element, the
  support by ``oracle_support``, finite length by ``aset_length``, torsion
  by rooted-tree shape over N and by the full action table otherwise; an
  explicit list has only the object path."""
  if pred == SerrePredicate.zero(pred.monoid):
    return len(X.elements) == 1
  if pred.kind == "support_in":
    return all(p.label in pred.primes for p in oracle_support(X))
  if pred.kind == "finite_length":
    return aset_length(X) is not None
  if pred.kind == "torsion" and isinstance(X.monoid, NatMonoid):
    return is_rooted_tree(X)
  if pred.kind == "torsion":
    table, closure = X.full_action(), pred._mult_closure()
    return all(any(table[a][x] == X.base for a in closure)
               for x in X.nonbase())
  return pred.contains(X)


def test_carrier_tests_match_membership_of_the_built_objects():
  # the window corpus has torsion over N only and no list over the finite
  # monoids: add torsion over them, with and without the zero in the
  # multiplicative closure, and the list of the point
  z2, t3 = FiniteMonoid.group_with_zero([2]), FiniteMonoid.truncated_free(2)
  extra = [(X, pred)
           for M, objects in [(z2, [X for X, _ in all_gamma_asets(z2, 5)]),
                              (t3, all_nilpotent_asets(t3, 5))]
           for pred in [SerrePredicate.torsion(M, mult)
                        for mult in ([], ["1"], M.elements[1:2],
                                     M.elements[2:3])]
                        + [SerrePredicate.explicit(M, [point_aset(M)])]
           for X in objects]
  decisions, answers = [], collections.defaultdict(set)
  for pairs in (window_corpus(), extra):
    decisions.append(0)
    for X, pred in pairs:
      for s in X.subobject_sets():
        for got, built in [(pred.contains_sub(X, s), X._sub_object(s)),
                           (pred.contains_quotient(X, s),
                            X._quotient_object(s))]:
          assert got == pred.contains(built) == oracle_contains(pred, built), \
              (X, pred, sorted(s))
          answers[pred.kind, isinstance(pred.monoid, NatMonoid)].add(got)
          decisions[-1] += 1
  assert decisions == [41_442, 1_590]
  # every kind, over N and over the finite monoids, answers both ways
  assert len(answers) == 8, answers
  assert all(a == {True, False} for a in answers.values()), answers


def carrier_rule_corpora():
  """(monoid, objects) pairs: ``brute_force_asets`` to 4 elements of every
  ``small_monoids()`` monoid (broken tables and the one-element monoids
  included), the Γ₊-sets to 9 elements for Z/2, Z/3, Z/4, (Z/2)², Z/6,
  Z/2×Z/4 and (Z/2)³, and the nilpotent N/(t²)- and N/(t³)-sets and the
  N-sets to 7 elements."""
  out = [(M, brute_force_asets(M, 4)) for M in small_monoids()]
  for orders in ([2], [3], [4], [2, 2], [6], [2, 4], [2, 2, 2]):
    G = FiniteMonoid.group_with_zero(orders)
    out.append((G, [X for X, _ in all_gamma_asets(G, 9)]))
  for top in (1, 2):
    T = FiniteMonoid.truncated_free(top)
    out.append((T, all_nilpotent_asets(T, 7)))
  return out + [(N, all_nsets(7))]


def test_carrier_rules_equal_the_oracles_on_every_subquotient():
  """On every subobject and quotient of every object of the corpora,
  ``finite_length`` decided on X's carrier is whether ``aset_length`` of
  the built object is not None, and ``zero`` is whether it has one
  element; on every object, ``support`` is ``oracle_support``.  A Γ₊-set
  is ∗ plus orbits Γ/H, and its subobjects are unions of them, so the
  length oracle runs once per multiset of stabilizers: the orbits of X
  inside s for the subobject, outside s for the quotient."""
  lengths = {}

  def finite(X, bits, orbits, s, build, inside):
    if orbits is None:
      return aset_length(build(s)) is not None
    mask = sum(bits[x] for x in s)
    key = (X.monoid, inside, tuple(sorted(
        h for o, h in orbits if (o & mask == o) == inside)))
    if key not in lengths:
      lengths[key] = aset_length(build(s)) is not None
    return lengths[key]

  objects = decisions = 0
  answers = collections.Counter()
  for M, corpus in carrier_rule_corpora():
    length, zero = SerrePredicate.finite_length(M), SerrePredicate.zero(M)
    for X in corpus:
      assert support(X) == oracle_support(X), X
      objects += 1
      bits, orbits = X._bits(), X._orbit_masks()
      for s in X.subobject_sets():
        for ask, build, size in (
            ("contains_sub", X._sub_object, len(s)),
            ("contains_quotient", X._quotient_object,
             len(X.elements) - len(s) + 1)):
          got = getattr(length, ask)(X, s)
          inside = ask == "contains_sub"
          assert got == finite(X, bits, orbits, s, build, inside), \
              (X, ask, sorted(s, key=str))
          assert getattr(zero, ask)(X, s) == (size == 1), \
              (X, ask, sorted(s, key=str))
          answers[got] += 1
          decisions += 1
  assert (objects, decisions) == (2_365, 79_030)
  assert min(answers.values()) > 10_000, answers


def test_finite_length_refuses_a_fixed_point_and_a_loop():
  """Negative control: a Z/2₊ fixed point is no free orbit, and an N-set
  loop never falls to ∗, so neither is of finite length, nor is an object
  holding one; the free orbit and the line beside them are."""
  fixed = FiniteASet(Z2, [STAR, "x"], {"g": {"x": "x"}})
  free = FiniteASet(Z2, [STAR, "y", "gy"], {"g": {"y": "gy", "gy": "y"}})
  for bad, good in ((fixed, free), (cycle_nset(1), truncated_line(2))):
    pred = SerrePredicate.finite_length(bad.monoid)
    W, _, inc = wedge(bad, good)
    part = frozenset(inc(y) for y in good.elements)
    assert aset_length(bad) is None and aset_length(good) is not None
    assert not pred.contains(bad) and pred.contains(good)
    assert not pred.contains(W) and pred.contains_sub(W, part)
    assert not pred.contains_quotient(W, part)


def test_torsion_over_n_is_decided_for_the_powers_of_t_only():
  X = cycle_nset(2, tail=1)
  for pred in (SerrePredicate.torsion(N, []),
               SerrePredicate.torsion(N, ["t^2"])):
    for _ in range(2):
      for ask in (pred.contains, lambda X: minimal_dense_sub(X, pred),
                  lambda X: admissible_subs(X, pred)):
        with pytest.raises(Undecidable):
          ask(X)


def test_window_halves_and_admissible_lists_build_only_x_dense_and_y_collapsed(
    monkeypatch):
  builds = []

  def logged(kind):
    build = getattr(FiniteASet, kind)
    return lambda X, s: builds.append((kind, X, s)) or build(X, s)

  for kind in ("_sub_object", "_quotient_object"):
    monkeypatch.setattr(FiniteASet, kind, logged(kind))
  for X in all_nsets(4) + [cycle_nset(2, tail=2), truncated_line(5)]:
    # fresh predicates, so that no half is kept from an earlier test
    for pred in (SerrePredicate.torsion(N), SerrePredicate.zero(N),
                 SerrePredicate.support_in(N, ["(t)"])):
      builds.clear()
      dense, kernel = minimal_dense_sub(X, pred), maximal_kernel(X, pred)
      admissible_subs(X, pred), admissible_kernels(X, pred)
      assert builds == [("_sub_object", X, dense),
                        ("_quotient_object", X, kernel)], (X, pred)


def oracle_reduced_object(X, pred):
  sub, _ = X.sub_aset(oracle_minimal_dense_sub(X, pred))
  return sub.quotient_by(oracle_maximal_kernel(sub, pred))[0]


def carrier(R):
  return R.base, R._element_set, R.action


def test_memoised_windows_equal_the_oracle_in_either_call_order():
  # two fresh copies of the corpus, so that neither starts with a memo
  first, second = window_corpus()[::5], window_corpus()[::5]
  raised = 0
  for (X, pred), (X2, pred2) in zip(first, second):
    sub = outcome(oracle_minimal_dense_sub, X, pred)
    ker = outcome(oracle_maximal_kernel, X, pred)
    red = (PredicateClosureError if PredicateClosureError in (sub, ker)
           else outcome(lambda: carrier(oracle_reduced_object(X, pred))))
    raised += red is PredicateClosureError
    for Y, p, order in [(X, pred, ("sub", "ker", "red")),
                        (X2, pred2, ("red", "ker", "sub"))]:
      calls = {"sub": lambda: outcome(minimal_dense_sub, Y, p),
               "ker": lambda: outcome(maximal_kernel, Y, p),
               "red": lambda: outcome(lambda: carrier(reduced_object(Y, p)))}
      for _ in range(2):
        got = {name: calls[name]() for name in order}
        assert got == {"sub": sub, "ker": ker, "red": red}, (Y, p, order)
  assert len(first) == 390 and raised > 0


def test_closure_errors_are_raised_on_every_call():
  fork = nat_set({"a": STAR, "b": STAR})
  no_point = SerrePredicate.explicit(N, [truncated_line(1)])
  not_closed = SerrePredicate.explicit(N, [point_aset(N), truncated_line(1)])
  for fn, pred in [(minimal_dense_sub, no_point), (maximal_kernel, no_point),
                   (reduced_object, no_point), (reduced_object, not_closed)]:
    for _ in range(3):
      with pytest.raises(PredicateClosureError):
        fn(fork, pred)
  for _ in range(3):
    with pytest.raises(PredicateClosureError):
      hom_quotient(fork, fork, not_closed)


def test_the_window_memo_pins_no_object():
  gc.collect()
  X, Y = cycle_nset(2, tail=2), truncated_line(1)
  # an explicit predicate listing Y itself must not keep Y alive either
  listing_y = SerrePredicate.explicit(N, [point_aset(N), Y])
  for pred in (TORSION, listing_y):
    hom_quotient(X, Y, pred)
    hom_quotient(Y, X, pred)
    reduced_object(X, pred)
  # each object holds both halves under both predicates in its own slot
  assert len(X._derived.windows) == len(Y._derived.windows) == 4
  refs = [weakref.ref(X), weakref.ref(Y), weakref.ref(listing_y)]
  del X, Y, listing_y, pred
  gc.collect()
  assert [r() for r in refs] == [None, None, None]


def test_each_window_half_is_computed_once_per_object_and_predicate(
    monkeypatch):
  computed, builds = [], []

  def counted(log, fn):
    def wrapper(X, *args):
      log.append((fn.__name__, X, args))
      return fn(X, *args)
    return wrapper

  for name in ("_dense_set", "_kernel_set"):
    monkeypatch.setattr(serre, name, counted(computed, getattr(serre, name)))
  for name in ("sub_aset", "quotient_by"):
    monkeypatch.setattr(FiniteASet, name,
                        counted(builds, getattr(FiniteASet, name)))
  X, Y = cycle_nset(2, tail=1), truncated_line(2)
  for pred in (TORSION, SerrePredicate.support_in(N, ["(t)"])):
    computed.clear()
    assert check_condition_w(X, pred) is True
    halves = {(name, id(A)) for name, A, _ in computed}
    assert len(computed) == len(halves) > 0
    computed.clear()
    homs = hom_quotient(X, Y, pred)
    # condition (W) computed both of X's halves, which its candidates
    # inherit, so only Y's kernel is new here
    assert [(name, A) for name, A, _ in computed] == [("_kernel_set", Y)]
    R = reduced_object(X, pred)
    computed.clear()
    builds.clear()
    # asked again, nothing is computed and neither X′ nor Y″ is rebuilt
    for _ in range(3):
      assert hom_quotient(X, Y, pred) == homs
      assert canonical_window(X, Y, pred) == homs[0].window
    for f in homs:
      assert QuotientHom.from_window(X, Y, pred, f.window, f.rep) == f
    assert reduced_object(X, pred) is R
    assert computed == [] and builds == []


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


def hom_quotient_naive(X, Y, pred):
  """Oracle: germ count over ALL windows, identified by canonicalization.

  Every window's hom-set maps into the canonical one (restrict then project);
  the colimit cardinality is the number of distinct canonical images, since
  the canonical window is the poset maximum (cofinal).
  """
  seen = set()
  for w in index_poset(X, Y, pred).pairs:
    sub, _ = X.sub_aset(w.xsub)
    quo, _ = Y.quotient_by(w.ykernel)
    for m in hom_maps(sub, quo):
      canon = QuotientHom.from_window(X, Y, pred, w, m)
      seen.add(frozenset(canon.rep.mapping.items()))
  return len(seen)


def test_hom_sets_match_the_all_window_colimit_count():
  sets = all_nsets(4)
  for X in sets:
    for Y in sets:
      assert len(hom_quotient(X, Y, TORSION)) == \
          hom_quotient_naive(X, Y, TORSION)


@st.composite
def relabelled_nsets(draw, max_nonbase=4):
  """A random N-set and a copy with its elements renamed and reordered."""
  n = draw(st.integers(0, max_nonbase))
  succ = draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n))
  perm = draw(st.permutations(range(n)))

  def build(name):
    return nat_set({name(i): STAR if j < 0 else name(j)
                    for i, j in enumerate(succ)})

  return build(lambda i: f"x{i}"), build(lambda i: f"y{perm[i]}")


@settings(max_examples=60, deadline=None)
@given(relabelled_nsets(), relabelled_nsets())
def test_hom_counts_are_unchanged_under_relabelling(xs, ys):
  (X, X2), (Y, Y2) = xs, ys
  assert len(hom_maps(X, Y)) == len(hom_maps(X2, Y2))
  for pred in (TORSION, SerrePredicate.support_in(N, ["(t)"]),
               SerrePredicate.finite_length(N)):
    assert len(hom_quotient(X, Y, pred)) == len(hom_quotient(X2, Y2, pred))


def test_quotient_hom_rejects_a_representative_at_the_wrong_window():
  X = truncated_line(2)                     # 1 -> t -> *
  zero = SerrePredicate.zero(N)
  assert canonical_window(X, X, zero) == WindowPair(X.elements, {STAR})
  # under zero, X′ = Y″ = X: an outside map on X's carrier is accepted
  QuotientHom(X, X, zero, ASetMap(X, X, {x: x for x in X.elements}))
  # wrong carrier: the representative starts at the subobject {∗, t}
  _, incl = X.sub_aset({STAR, "t"})
  with pytest.raises(InvalidStructure):
    QuotientHom(X, X, zero, incl)
  # the right carrier with another action: 1 falls straight to ∗
  flat = nat_set({"1": STAR, "t": STAR})
  with pytest.raises(InvalidStructure):
    QuotientHom(X, X, zero, ASetMap(flat, X, {STAR: STAR, "1": "t",
                                              "t": STAR}))
  # a source holding an element X does not have
  extra = nat_set({"1": "t", "t": STAR, "z": STAR})
  with pytest.raises(InvalidStructure):
    QuotientHom(X, X, zero, ASetMap(extra, X, {STAR: STAR, "1": "1", "t": "t",
                                               "z": STAR}))
  # on the target side: X's carrier with the action of flat
  with pytest.raises(InvalidStructure):
    QuotientHom(X, X, zero, ASetMap(X, flat, {STAR: STAR, "1": "1",
                                              "t": STAR}))
  # {∗, 1} is not action-closed, though 1 -> ∗ on {∗, t} looks the part
  stub = nat_set({"t": STAR})
  with pytest.raises(InvalidStructure):
    QuotientHom(X, X, zero, ASetMap(X, stub, {x: STAR for x in X.elements}))
  # X/{∗, t} is a quotient of X, but its kernel line(1) is not in zero
  quo, _ = X.quotient_by({STAR, "t"})
  g = ASetMap(X, quo, {STAR: STAR, "1": "1", "t": STAR})
  with pytest.raises(InvalidStructure):
    QuotientHom(X, X, zero, g)
  # its 1 ↦ 1 has no germ in M/C = M: it is no map X → X
  assert g.mapping not in [f.rep.mapping for f in hom_quotient(X, X, zero)]


def test_every_morphism_lives_at_the_memoised_window():
  X, Y = cycle_nset(2, tail=1), cycle_nset(2, tail=2)
  for pred in (TORSION, SerrePredicate.support_in(N, ["(t)"]),
               SerrePredicate.zero(N), SerrePredicate.finite_length(N)):
    xy = hom_quotient(X, Y, pred)
    made = {"hom_quotient": xy,
            "from_ambient": [QuotientHom.from_ambient(u, pred)
                             for u in hom_maps(X, Y)],
            "compose_quotient": [compose_quotient(identity_quotient(X, pred),
                                                  f) for f in xy]
                                + [compose_quotient(f, g) for f in xy
                                   for g in hom_quotient(Y, Y, pred)]}
    ref = xy[0]
    assert ref.rep.source is serre._dense_sub(X, pred)
    assert ref.rep.target is serre._collapsed(Y, pred)
    for name, fs in made.items():
      assert fs, (name, pred)
      for f in fs:
        assert f.rep.source is ref.rep.source, (name, pred)
        assert f.rep.target is ref.rep.target, (name, pred)
        assert f.window == canonical_window(X, Y, pred), (name, pred)
    ident, xx = identity_quotient(X, pred), hom_quotient(X, X, pred)
    assert ident.rep.source is xx[0].rep.source is ref.rep.source
    assert ident.rep.target is xx[0].rep.target
    assert ident.window == canonical_window(X, X, pred)


def test_composition_checks_its_domain_under_non_serre_predicates():
  # the point plus one to three objects of all_nsets(2): lists that are not
  # Serre, under which some composites land outside Y′ ∩ Y″
  small, objects = all_nsets(2), all_nsets(3)
  composites = refused = 0
  for k in (1, 2, 3):
    for listed in itertools.combinations(small, k):
      pred = SerrePredicate.explicit(N, [point_aset(N), *listed])
      for X, Y, Z in itertools.product(objects, repeat=3):
        try:
          fs, gs = hom_quotient(X, Y, pred), hom_quotient(Y, Z, pred)
        except PredicateClosureError:
          continue
        # the domain check as the windows state it: f⁻¹ of ∗ and Y′ − K
        # must be all of X′
        visible = {Y.base} | (minimal_dense_sub(Y, pred)
                              - maximal_kernel(Y, pred))
        for f in fs:
          domain = {x for x, y in f.rep.mapping.items() if y in visible}
          inadmissible = domain != minimal_dense_sub(X, pred)
          for g in gs:
            composites += 1
            if not inadmissible:
              compose_quotient(f, g)
              continue
            refused += 1
            with pytest.raises(PredicateClosureError,
                               match="composite window is not admissible"):
              compose_quotient(f, g)
  assert (composites, refused) == (10248, 46)


def test_composition_reads_no_window_half(monkeypatch):
  lookups = []
  half = serre._window_half

  def counted(X, pred, side):
    lookups.append((X, side))
    return half(X, pred, side)

  monkeypatch.setattr(serre, "_window_half", counted)
  rng = random.Random(5)
  composed = 0
  for pred in (TORSION, SerrePredicate.support_in(N, ["(t)"]),
               SerrePredicate.zero(N)):
    for _ in range(30):
      X, Y, Z = (random_nset(rng, 4) for _ in range(3))
      lookups.clear()
      fs = hom_quotient(X, Y, pred)
      # one read of X's source half and one of Y's target half
      assert lookups == [(X, 0), (Y, 1)]
      gs = hom_quotient(Y, Z, pred)
      lookups.clear()
      for f in fs[:3]:
        for g in gs[:3]:
          compose_quotient(f, g)
          composed += 1
      assert lookups == []
  assert composed > 100


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


def zero_quotient(X, Y, pred):
  """The zero morphism X → Y of M/C, at the canonical window."""
  w = canonical_window(X, Y, pred)
  sub, _ = X.sub_aset(w.xsub)
  quo, _ = Y.quotient_by(w.ykernel)
  zero = ASetMap(sub, quo, {x: quo.base for x in sub.elements})
  return QuotientHom(X, Y, pred, zero)


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


@st.composite
def nsets(draw, max_nonbase=4):
  n = draw(st.integers(0, max_nonbase))
  succ = draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n))
  return nat_set({f"x{i}": STAR if j < 0 else f"x{j}"
                  for i, j in enumerate(succ)})


Z2 = FiniteMonoid.group_with_zero([2])


def z2_sets(max_nonbase=4):
  return st.integers(0, 2 ** 32).map(
      lambda seed: random.Random(seed).choice(
          all_gamma_asets(Z2, max_nonbase + 1))[0])


def check_category_laws(X, Y, Z, pred, data):
  """Identities, associativity on one drawn triple of maps, and an
  injective monic representative for every iso X → Y."""
  fs = hom_quotient(X, Y, pred)
  for f in fs:
    assert compose_quotient(identity_quotient(X, pred), f) == f
    assert compose_quotient(f, identity_quotient(Y, pred)) == f
    if is_iso_quotient(f):
      assert monic_representative(f).is_injective()
  f = data.draw(st.sampled_from(fs))
  g = data.draw(st.sampled_from(hom_quotient(Y, Z, pred)))
  h = data.draw(st.sampled_from(hom_quotient(Z, X, pred)))
  assert compose_quotient(compose_quotient(f, g), h) == \
      compose_quotient(f, compose_quotient(g, h))


@pytest.mark.parametrize("pred", [SerrePredicate.support_in(N, ["(t)"]),
                                  SerrePredicate.finite_length(N),
                                  SerrePredicate.support_in(N, [])],
                         ids=["support_in_t", "finite_length", "support_none"])
@settings(max_examples=60, deadline=None)
@given(X=nsets(), Y=nsets(), Z=nsets(), data=st.data())
def test_category_laws_beyond_torsion_on_nsets(pred, X, Y, Z, data):
  check_category_laws(X, Y, Z, pred, data)


@pytest.mark.parametrize("pred", [SerrePredicate.finite_length(Z2)] +
                         [SerrePredicate.support_in(Z2, [p.label])
                          for p in Z2.primes()],
                         ids=lambda pred: pred.kind)
@settings(max_examples=30, deadline=None)
@given(X=z2_sets(), Y=z2_sets(), Z=z2_sets(), data=st.data())
def test_category_laws_on_z2_sets(pred, X, Y, Z, data):
  check_category_laws(X, Y, Z, pred, data)


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


def test_condition_w_searches_each_ordered_pair_once_per_part(monkeypatch):
  """The upper-bound part decides "some arrow a → c" once per ordered pair
  of candidates; the weak-coequalizer part searches each pair once more at
  most.  Every verdict on the N-sets to 5 elements is True.  A search is
  a call of any enumerator: the arrow searches read ``iter_maps_within``
  (or ``iter_hom_maps`` under a list), ``hom_quotient`` lists
  ``hom_maps``."""
  searches = []

  def counted(search):
    return lambda X, Y, *choices: (searches.append((X, Y))
                                   or search(X, Y, *choices))

  # the objects are kept, so no id is reused within one call
  for name in ("hom_maps", "iter_hom_maps", "iter_maps_within"):
    monkeypatch.setattr(serre, name, counted(getattr(serre, name)))
  preds = [TORSION, SerrePredicate.zero(N),
           SerrePredicate.support_in(N, ["(t)"])]
  total = 0
  for k, V in enumerate(all_nsets(5)):
    searches.clear()
    assert check_condition_w(V, preds[k % 3], pair_bound=25) is True
    counts = collections.Counter((id(X), id(Y)) for X, Y in searches)
    assert max(counts.values(), default=0) <= 2, V
    total += len(searches)
  assert total > 1000


def test_condition_w_validates_no_map_and_reads_no_map_past_a_witness(
    monkeypatch):
  """Under each predicate of the ``quotient_laws`` benchmark, one
  check_condition_w builds no map through the validating ``ASetMap(...)``
  (the public ``from_window`` keeps one, and is not on this path), and each
  search reads maps only up to its witness.  An arrow search ends at an
  arrow, or at the end of the hom-set, and reads at most two arrows.  Under
  torsion, zero and support in (t) no inverse search runs, and an arrow
  search (``iter_maps_within``) reads only arrows, in the order of the
  full hom-set; under the list it reads a prefix of the hom-set
  (``iter_hom_maps``).  Under the list of the point, an inverse search
  (``_inverse``, tagged apart) reads a prefix of Hom(Y′, X″) and ends at
  the one map whose composites with f are the identities, or reads the
  whole hom-set and finds none."""
  V = nat_set({"a": "b", "b": STAR, "c": "d", "d": "c"})
  validated, runs, inverting = [], [], []
  init, candidates = ASetMap.__init__, serre._iso_candidates
  inverse = serre._inverse

  def counted_init(self, *args):
    validated.append(args)
    init(self, *args)

  def kept_candidates(V, pred):
    # (pred, candidates, arrow searches, inverse searches); _iso_candidates
    # itself asks for inverses, so the run is opened first
    runs.append((pred, [], [], []))
    runs[-1][1].extend(candidates(V, pred))
    return runs[-1][1]

  def tagged_inverse(f):
    inverting.append([])
    g = inverse(f)
    runs[-1][3].append((f, g, inverting.pop()))
    return g

  def reading(name):
    search = getattr(serre, name)

    def read(X, Y, *choices):
      if inverting:
        pulled = inverting[-1]
      else:
        pulled = []
        runs[-1][2].append((X, Y, pulled, name))
      for u in search(X, Y, *choices):
        pulled.append(u)
        yield u
    return read

  monkeypatch.setattr(ASetMap, "__init__", counted_init)
  monkeypatch.setattr(serre, "_iso_candidates", kept_candidates)
  monkeypatch.setattr(serre, "_inverse", tagged_inverse)
  for name in ("iter_hom_maps", "iter_maps_within"):
    monkeypatch.setattr(serre, name, reading(name))
  for pred in (TORSION, SerrePredicate.zero(N),
               SerrePredicate.support_in(N, ["(t)"]),
               SerrePredicate.explicit(N, [point_aset(N)])):
    assert check_condition_w(V, pred, pair_bound=25) is True
  monkeypatch.undo()
  assert validated == []
  read_maps = listed_maps = 0
  inverse_reads = inverse_listed = 0
  for pred, cands, searches, inversions in runs:
    assert searches, pred
    for X, Y, pulled, name in searches:
      (_, pa), = [c for c in cands if c[0] is X]
      (_, pb), = [c for c in cands if c[0] is Y]

      def is_arrow(u):
        return compose_quotient(QuotientHom.from_ambient(u, pred), pb) == pa

      arrows = [is_arrow(u) for u in pulled]
      listed = hom_maps(X, Y)
      listed_maps += len(listed)
      assert (name == "iter_maps_within") == pred.serre_by_construction
      if pred.serre_by_construction:
        # the constrained search reads only arrows, in the hom-set's order
        assert all(arrows), pred
        listed = [u for u in listed if is_arrow(u)]
      assert [u.mapping for u in pulled] == \
          [u.mapping for u in listed[:len(pulled)]]
      assert sum(arrows) <= 2 and (len(pulled) == len(listed) or arrows[-1])
      read_maps += len(pulled)
    if pred.serre_by_construction:
      # the structure isos are written down and invertibility is read off
      # the window halves: no inverse search at all
      assert inversions == [], pred
      continue
    assert inversions, pred
    for f, g, pulled in inversions:
      X, Y = f.source, f.target
      listed = hom_maps(serre._dense_sub(Y, pred), serre._collapsed(X, pred))
      assert [u.mapping for u in pulled] == \
          [u.mapping for u in listed[:len(pulled)]]
      inverses = [u for u in listed
                  if compose_quotient(f, QuotientHom(Y, X, pred, u))
                  == identity_quotient(X, pred)
                  and compose_quotient(QuotientHom(Y, X, pred, u), f)
                  == identity_quotient(Y, pred)]
      assert len(inverses) <= 1
      if g is None:
        assert not inverses and len(pulled) == len(listed)
      else:
        assert g.rep.mapping == pulled[-1].mapping == inverses[0].mapping
      inverse_reads += len(pulled)
      inverse_listed += len(listed)
  assert read_maps < listed_maps, (read_maps, listed_maps)
  assert inverse_reads < inverse_listed, (inverse_reads, inverse_listed)


# ------------------------------------------ condition (W) against its oracle
#
# from_ambient, compose_quotient, _inverse, _iso_candidates and
# check_condition_w as first written: every rep through the public,
# checking ASetMap, every composite a QuotientHom compared as one, and
# every hom-set listed in full.


def oracle_from_ambient(f, pred):
  trivial = WindowPair(frozenset(f.source.elements),
                       frozenset({f.target.base}))
  return QuotientHom.from_window(f.source, f.target, pred, trivial, f)


def oracle_identity(X, pred):
  return oracle_from_ambient(ASetMap(X, X, {x: x for x in X.elements}), pred)


def oracle_composite(m, n):
  """The rep of compose_quotient as first written, for reps m and n."""
  sub, quo = m.source, m.target                    # X′ and Y″
  y_sub = n.source._element_set                    # Y′
  if not y_sub.issuperset(m.mapping.values()):
    domain = sorted(x for x in sub.elements if m(x) in y_sub)
    raise PredicateClosureError(
        "composite window is not admissible: the predicate fails closure "
        f"at domain {domain}")
  mapping = {}
  for x in sub.elements:
    y = m(x)
    mapping[x] = n.target.base if y == quo.base else n(y)
  try:
    return ASetMap(sub, n.target, mapping)
  except InvalidStructure as err:
    raise PredicateClosureError(
        f"composite representative is not equivariant ({err}); "
        "the predicate fails Serre closure") from err


def oracle_compose_quotient(f, g):
  if not f.target.same_carrier(g.source) or f.pred != g.pred:
    raise InvalidStructure("quotient morphisms do not compose")
  return QuotientHom._trusted(f.source, g.target, f.pred,
                              oracle_composite(f.rep, g.rep))


def oracle_inverse(f):
  ident_s = oracle_identity(f.source, f.pred)
  ident_t = oracle_identity(f.target, f.pred)
  for g in sorted(hom_quotient(f.target, f.source, f.pred),
                  key=lambda g: sorted(g.rep.mapping.items())):
    if oracle_compose_quotient(f, g) == ident_s and \
       oracle_compose_quotient(g, f) == ident_t:
      return g
  return None


def oracle_iso_candidates(V, pred):
  cands = []
  for s in admissible_subs(V, pred):
    seq = exact_seq_from_sub(V, s)
    cands.append((seq.sub, oracle_from_ambient(seq.i, pred)))
  kernels = admissible_kernels(V, pred)
  for k in kernels:
    seq = exact_seq_from_sub(V, k)
    g = oracle_inverse(oracle_from_ambient(seq.p, pred))
    if g is not None:
      cands.append((seq.quotient, g))
  for k in kernels:
    if len(k) == 1:
      continue
    T = V.subquotient(k)[0]
    W, inc_v, inc_t = wedge(V, T)
    collapse = {inc_v(x): x for x in V.elements}
    collapse.update({inc_t(t): V.base for t in T.elements})
    cands.append((W, oracle_from_ambient(ASetMap(W, V, collapse), pred)))
  return cands


def oracle_check_condition_w(V, pred, pair_bound=40):
  cands = oracle_iso_candidates(V, pred)

  def arrows(a, b):
    (Xa, pa), (Xb, pb) = a, b
    for u in hom_maps(Xa, Xb):
      if oracle_compose_quotient(oracle_from_ambient(u, pred), pb) == pa:
        yield u

  reaches = {}

  def reach(a, c):
    if (a, c) not in reaches:
      reaches[a, c] = next(arrows(cands[a], cands[c]), None) is not None
    return reaches[a, c]

  for a, b in itertools.islice(
      itertools.combinations(range(len(cands)), 2), pair_bound):
    if not any(reach(a, c) and reach(b, c) for c in range(len(cands))):
      return False

  checked = 0
  for a, b in itertools.combinations(cands, 2):
    if checked >= pair_bound:
      break
    pair = list(itertools.islice(arrows(a, b), 2))
    if len(pair) < 2:
      continue
    checked += 1
    u, v = pair
    Q, proj = coequalizer(u, v)
    pq = oracle_from_ambient(proj, pred)
    if oracle_inverse(pq) is None:
      return False
  return True


def condition_w_corpus():
  """(V, pred) pairs: the N-sets with at most 4 non-base elements under
  torsion, zero, support in (t), finite length and the two lists of
  ``window_corpus`` that are not Serre, and the Z/2₊-sets to 5 elements
  under zero, finite length and support in each set of primes."""
  nat_preds = [TORSION, SerrePredicate.zero(N),
               SerrePredicate.support_in(N, ["(t)"]),
               SerrePredicate.finite_length(N),
               SerrePredicate.explicit(N, [point_aset(N), truncated_line(1)]),
               SerrePredicate.explicit(N, [truncated_line(1)])]
  z2_preds = [SerrePredicate.zero(Z2), SerrePredicate.finite_length(Z2),
              SerrePredicate.support_in(Z2, []), SerrePredicate.everything(Z2)]
  return ([(V, p) for V in all_nsets(5) for p in nat_preds]
          + [(V, p) for V, _ in all_gamma_asets(Z2, 5) for p in z2_preds])


def observed(fn, *args):
  """fn's value, or the type and message of what it raised."""
  try:
    return fn(*args)
  except Exception as err:        # every error is compared, of any type
    return type(err), str(err)


def mapping_of(f):
  return None if f is None else f.rep.mapping


def recording(calls, fn):
  """fn, appending (args, value or (type, message) raised) to ``calls``."""
  def call(*args):
    try:
      out = fn(*args)
    except Exception as err:
      calls.append((args, (type(err), str(err))))
      raise
    calls.append((args, out))
    return out
  return call


def test_condition_w_matches_its_oracle(monkeypatch):
  """On every (V, pred) of the corpus: the verdict, the candidates, every
  ambient image and every composite that condition (W) computes, the
  inverses of the candidates and of every endomorphism of V, and the
  public composites with identities, equal the oracle's, and so do the
  type and message of everything raised.  Under a predicate that is Serre
  by construction, condition (W) searches for no inverse, so every
  projection it judges is also inverted by ``_inverse`` and by the oracle:
  the two inverses must agree and the verdict must be whether one exists.
  Every composite computed on the way, the inverse searches' included, is
  compared with the oracle's; ``refused`` counts the composites that (W)
  itself refuses."""
  composites, images, judged = [], [], []
  monkeypatch.setattr(serre, "_composite",
                      recording(composites, serre._composite))
  monkeypatch.setattr(QuotientHom, "from_ambient", staticmethod(
      recording(images, QuotientHom.from_ambient)))
  monkeypatch.setattr(serre, "is_iso_quotient",
                      recording(judged, serre.is_iso_quotient))
  tally = collections.Counter()

  def compare_composites(refused, V, pred):
    for (sub, raw, n), mapping in composites:
      # _composite takes m: X′ → Y″ as its source and mapping; the oracle
      # reads m's target only for its basepoint, Y's, which Y′ shares
      m = ASetMap._trusted(sub, n.source, raw)
      want = observed(lambda: oracle_composite(m, n).mapping)
      assert mapping == want, (V, pred, raw, n.mapping)
      tally[refused if isinstance(mapping, tuple) else "composites"] += 1
    composites.clear()

  for V, pred in condition_w_corpus():
    composites.clear()
    images.clear()
    judged.clear()
    got = observed(check_condition_w, V, pred, 25)
    assert got == observed(oracle_check_condition_w, V, pred, 25), (V, pred)
    tally[got if isinstance(got, bool) else got[0].__name__] += 1
    for (u, _), image in images:
      assert image == observed(oracle_from_ambient, u, pred), (V, pred)
    # under an explicit list (W) searches for inverses itself, and their
    # composites are compared below with the rest
    for (f,), verdict in judged if pred.serre_by_construction else ():
      inverse = observed(lambda: mapping_of(serre._inverse(f)))
      assert inverse == observed(lambda: mapping_of(oracle_inverse(f))), \
          (V, pred)
      assert verdict == (inverse is not None), (V, pred)
      tally["judged"] += 1
    compare_composites("refused", V, pred)
    cands = observed(serre._iso_candidates, V, pred)
    want = observed(oracle_iso_candidates, V, pred)
    if isinstance(want, tuple):
      assert cands == want, (V, pred)
      compare_composites("refused later", V, pred)
      continue
    assert [(X.elements, X.action, p.rep.mapping) for X, p in cands] == \
        [(X.elements, X.action, p.rep.mapping) for X, p in want], (V, pred)
    # the structure isos, and V's first four endomorphisms (mostly not isos)
    ends = observed(hom_quotient, V, V, pred)
    for f in [p for _, p in cands] + ([] if isinstance(ends, tuple) else ends[:4]):
      inverse = observed(lambda: mapping_of(serre._inverse(f)))
      assert inverse == observed(lambda: mapping_of(oracle_inverse(f))), \
          (V, pred)
      tally["no inverse" if inverse is None else "inverse"] += 1
    for X, p in cands:
      for f, g in ((identity_quotient(X, pred), p),
                   (p, identity_quotient(V, pred))):
        assert compose_quotient(f, g) == oracle_compose_quotient(f, g)
    compare_composites("refused later", V, pred)
  assert (tally[True], tally[False], tally["PredicateClosureError"]) == \
      (346, 5, 105)
  assert tally["refused"] == 2        # both: not equivariant
  assert tally["composites"] > 50000
  assert tally["inverse"] > 0 and tally["no inverse"] > 0
  assert tally["judged"] > 0


def test_lazy_inverse_finds_the_one_inverse_and_validates_no_map(monkeypatch):
  """What the lazy ``_inverse`` rests on.  For every f whose inverse or
  invertibility is asked for while condition (W) runs on
  ``condition_w_corpus()``, and by ``is_iso_quotient`` on 200 random
  quotient-law triples (as in selftest case 09): at most one g in
  hom_quotient(Y, X) has both composites with f equal to the identities,
  and ``_inverse(f)`` returns that g or None.  Under a list that is not
  Serre a composite may be refused, and then ``_inverse`` may raise where
  the full scan skips.  ``is_iso_quotient`` on each f, and
  ``monic_representative`` on each iso whose source has at most 6 elements
  (a larger wedge takes seconds), build no map through the validating
  ``ASetMap(...)``; ``monic_representative`` finds no retract only under
  those lists."""
  asked = {}

  def kept(fn):
    def call(f):
      asked.setdefault((id(f.source), id(f.target), id(f.pred),
                        frozenset(f.rep.mapping.items())), f)
      return fn(f)
    return call

  # under the predicates that are Serre by construction is_iso_quotient
  # asks _inverse nothing, so both are watched
  for name in ("_inverse", "is_iso_quotient"):
    monkeypatch.setattr(serre, name, kept(getattr(serre, name)))
  for V, pred in condition_w_corpus():
    observed(check_condition_w, V, pred, 25)
  rng = random.Random(20240816)
  triples = 0
  while triples < 200:
    X, Y = random_nset(rng, 4), random_nset(rng, 4)
    fs = hom_quotient(X, Y, TORSION)
    if fs:
      serre.is_iso_quotient(rng.choice(fs))
      triples += 1
  monkeypatch.undo()

  tally = collections.Counter()
  expected = {}
  for key, f in asked.items():
    X, Y, pred = f.source, f.target, f.pred
    ident_x, ident_y = identity_quotient(X, pred), identity_quotient(Y, pred)
    inverses = []
    for g in hom_quotient(Y, X, pred):
      try:
        if compose_quotient(f, g) == ident_x and \
           compose_quotient(g, f) == ident_y:
          inverses.append(g.rep.mapping)
      except PredicateClosureError:
        tally["refused"] += 1
    assert len(inverses) <= 1, (X, Y, pred)
    expected[key] = inverses[0] if inverses else None

  validated = []
  init = ASetMap.__init__

  def counted_init(self, *args):
    validated.append(args)
    init(self, *args)

  monkeypatch.setattr(ASetMap, "__init__", counted_init)
  for key, f in asked.items():
    got = observed(lambda: mapping_of(serre._inverse(f)))
    if isinstance(got, tuple):
      assert got[0] is PredicateClosureError and tally["refused"], f.pred
      tally["raised"] += 1
      continue
    assert got == expected[key]
    assert is_iso_quotient(f) == (got is not None)
    tally["inverse" if got is not None else "no inverse"] += 1
    if got is not None and len(f.source.elements) <= 6:
      m = observed(monic_representative, f)
      if isinstance(m, tuple):
        # only under the lists of condition_w_corpus that are not Serre
        assert m[0] is NotIso and f.pred.kind == "explicit"
        tally["no retract"] += 1
      else:
        assert m.is_injective()
        tally["monic"] += 1
  monkeypatch.undo()
  assert validated == []
  assert len(asked) > 1000
  assert tally["inverse"] > 1000 and tally["no inverse"] > 0
  assert tally["monic"] > 1000


# --------------------------------- M/C invertibility on the window halves


def carrier_corpus():
  """The (V, pred) of ``condition_w_corpus()`` whose predicate is Serre by
  construction: the pairs where no inverse is searched for."""
  return [(V, pred) for V, pred in condition_w_corpus()
          if pred.serre_by_construction]


def test_carrier_rule_is_the_inverse_search_on_what_condition_w_judges(
    monkeypatch):
  """Every f whose invertibility condition (W) asks for, over the pairs of
  ``condition_w_corpus()`` under the predicates that are Serre by
  construction, with no pair bound: ``is_iso_quotient`` reads it off the
  window halves, and ``_inverse`` finds an inverse exactly then."""
  judged = []
  monkeypatch.setattr(serre, "is_iso_quotient",
                      recording(judged, serre.is_iso_quotient))
  verdicts = collections.Counter()
  for V, pred in carrier_corpus():
    verdicts[check_condition_w(V, pred, pair_bound=10 ** 9)] += 1
  monkeypatch.undo()
  tally = collections.Counter()
  for (f,), verdict in judged:
    assert verdict == (serre._inverse(f) is not None), (f, f.pred)
    tally[verdict] += 1
  assert verdicts[False] == 2 and verdicts[True] > 200
  assert tally[True] > 1000 and tally[False] == 2


def test_carrier_rule_is_the_inverse_search_on_small_monoid_hom_sets():
  """On a seeded sample of hom-sets between the A-sets of at most three
  non-base elements over every monoid of ``small_monoids()``, under finite
  length, torsion and support in one prime: the rule answers whether
  ``_inverse`` finds an inverse, on isos and on non-isos."""
  rng = random.Random(31)
  tally = collections.Counter()
  for M in small_monoids():
    objects = brute_force_asets(M, 4)
    primes = [p.label for p in M.primes()]
    killers = [a for a in M.elements if a != M.one]
    for pred in (SerrePredicate.finite_length(M),
                 SerrePredicate.torsion(M, killers[:1]),
                 SerrePredicate.support_in(M, primes[:1])):
      for _ in range(6):
        X, Y = rng.choice(objects), rng.choice(objects)
        for f in hom_quotient(X, Y, pred):
          iso = is_iso_quotient(f)
          assert iso == (serre._inverse(f) is not None), (M, pred, f)
          tally[iso] += 1
  assert tally[True] > 100 and tally[False] > 100


def test_written_down_candidate_inverse_is_the_searched_one():
  """For every (V, k) with k an admissible kernel of V, under the
  predicates of ``condition_w_corpus()`` that are Serre by construction:
  the quotient candidate's structure iso, written down by
  ``_iso_candidates``, is the inverse that ``_inverse`` finds for the
  public projection V ↠ V/k, rep, carriers and all."""
  pairs = 0
  for V, pred in carrier_corpus():
    cands = serre._iso_candidates(V, pred)
    kernels = admissible_kernels(V, pred)
    first = len(admissible_subs(V, pred))
    for k, (Q, g) in zip(kernels, cands[first:first + len(kernels)]):
      seq = exact_seq_from_sub(V, k)
      p = QuotientHom.from_ambient(seq.p, pred)
      h = serre._inverse(p)
      assert (Q.elements, Q.action) == \
          (seq.quotient.elements, seq.quotient.action)
      assert h is not None and g.rep.mapping == h.rep.mapping, (V, pred, k)
      assert g.rep.source is serre._dense_sub(Q, pred)
      assert g.rep.target is serre._collapsed(V, pred)
      assert is_iso_quotient(p)
      pairs += 1
  assert pairs > 700


def test_candidates_inherit_the_halves_a_fresh_copy_computes(monkeypatch):
  """Oracle for the window halves the candidates inherit from V.  For every
  (V, pred) of ``condition_w_corpus()`` whose pred is Serre by
  construction, each candidate's kept source and target halves are the
  sets ``_dense_set`` and ``_kernel_set`` compute on a fresh copy of it,
  built through the public ``FiniteASet(...)``, and the kept X′ and X/K
  are the copy's public ``sub_aset`` and ``quotient_by`` of those sets.
  ``_iso_candidates`` computes no half but V's."""
  dense_set, kernel_set = serre._dense_set, serre._kernel_set
  computed = []
  for name in ("_dense_set", "_kernel_set"):
    monkeypatch.setattr(serre, name, recording(computed, getattr(serre, name)))
  tally = collections.Counter()
  for V, pred in carrier_corpus():
    computed.clear()
    cands = serre._iso_candidates(V, pred)
    assert all(X is V for (X, _), _ in computed), (V, pred)
    for X, _ in cands:
      kept = X._derived.windows
      dense, sub = kept[0, weakref.ref(pred)]
      kernel, quo = kept[1, weakref.ref(pred)]
      copy = FiniteASet(X.monoid, X.elements, X.action, X.base)
      assert dense == dense_set(copy, pred), (V, pred, X.elements)
      assert kernel == kernel_set(copy, pred), (V, pred, X.elements)
      want_sub, want_quo = copy.sub_aset(dense)[0], copy.quotient_by(kernel)[0]
      assert (sub.elements, sub.action) == (want_sub.elements, want_sub.action)
      assert (quo.elements, quo.action) == (want_quo.elements, want_quo.action)
      tally[len(dense) < len(X.elements), len(kernel) > 1] += 1
  # proper dense halves, with and without a proper kernel, and full ones
  assert len(tally) == 3 and sum(tally.values()) > 2000, tally


def test_carrier_rule_refuses_an_iso_rep_with_one_image_changed():
  """Negative control.  For each structure iso of the candidates over the
  N-sets with at most 3 non-base elements and the Z/2₊-sets to 5 elements,
  under the predicates that are Serre by construction: changing one image
  of its rep to any other element of Y″ makes the rule answer False, and
  where the changed map is still a morphism, ``_inverse`` finds no
  inverse either."""
  tally = collections.Counter()
  corpus = [(V, pred) for V, pred in carrier_corpus()
            if len(V.elements) <= 4 or V.monoid is Z2]
  for V, pred in corpus:
    for _, f in serre._iso_candidates(V, pred):
      assert is_iso_quotient(f)
      rep = f.rep
      for x in rep.source.elements:
        for y in rep.target.elements:
          if y == rep.mapping[x]:
            continue
          changed = {**rep.mapping, x: y}
          g = QuotientHom._trusted(f.source, f.target, pred, ASetMap._trusted(
              rep.source, rep.target, changed))
          assert not is_iso_quotient(g), (f, x, y)
          tally["changed"] += 1
          try:
            ASetMap(rep.source, rep.target, changed)
          except InvalidStructure:
            continue
          assert serre._inverse(g) is None, (f, x, y)
          tally["morphism"] += 1
  assert tally["changed"] > 1000 and tally["morphism"] > 100


def test_carrier_kinds_search_for_no_inverse(monkeypatch):
  """Count guard.  Under support in (t), torsion, finite length and zero,
  ``check_condition_w``, ``is_iso_quotient`` and selftest cases 09 and 10
  call ``_inverse`` no time; under the list of the point the first two
  still search.  Part (b) asks ``is_iso_quotient`` once per (target
  candidate, projection), though some pairs coequalize to a projection
  already judged, and builds a coequalizer only for a projection it
  judges."""
  searches, judged, images, coequalized, classes = [], [], [], [], []
  monkeypatch.setattr(serre, "_inverse", recording(searches, serre._inverse))
  monkeypatch.setattr(serre, "is_iso_quotient",
                      recording(judged, serre.is_iso_quotient))
  monkeypatch.setattr(QuotientHom, "from_ambient", staticmethod(
      recording(images, QuotientHom.from_ambient)))
  monkeypatch.setattr(serre, "coequalizer",
                      recording(coequalized, serre.coequalizer))
  monkeypatch.setattr(serre, "coequalizer_classes",
                      recording(classes, serre.coequalizer_classes))
  corpus = all_nsets(4)
  repeats = 0
  for pred in (SerrePredicate.support_in(N, ["(t)"]), TORSION,
               SerrePredicate.finite_length(N), SerrePredicate.zero(N),
               SerrePredicate.explicit(N, [point_aset(N)])):
    searches.clear()
    for V in corpus:
      judged.clear()
      images.clear()
      coequalized.clear()
      classes.clear()
      assert check_condition_w(V, pred, pair_bound=25) is True
      made = {id(f): u for (u, _), f in images}
      asked = [(id(made[id(f)].source), frozenset(made[id(f)].mapping.items()))
               for (f,), _ in judged]
      assert len(asked) == len(set(asked)) == len(judged), (V, pred)
      assert len(coequalized) == len(judged), (V, pred)
      repeats += len(classes) - len(judged)
    for X, Y in itertools.product(corpus[:8], repeat=2):
      for f in hom_quotient(X, Y, pred):
        serre.is_iso_quotient(f)
    assert (searches == []) == pred.serre_by_construction, pred
  assert repeats > 0
  searches.clear()
  assert selftest.case_09_quotient_laws().passed
  assert selftest.case_10_filtered_and_condition_w().passed
  assert searches == []


def check_rep(rep, mapping):
  """rep passes the public ASetMap(...) and has ``mapping``."""
  assert ASetMap(rep.source, rep.target, rep.mapping).mapping == rep.mapping
  assert rep.mapping == mapping


def test_unchecked_quotient_reps_pass_the_public_constructor(monkeypatch):
  """Every rep from_ambient builds while condition (W) runs on the corpus,
  the rep of every map its arrow search tests, the identities of V and of
  each candidate, and the composites of each structure iso with them, all
  built unchecked, pass ``ASetMap(...)`` and equal what they are by
  definition: f on X′ followed by Y ↠ Y″, and the composite of the two
  reps."""
  images, mappings = [], []
  monkeypatch.setattr(QuotientHom, "from_ambient", staticmethod(
      recording(images, QuotientHom.from_ambient)))
  monkeypatch.setattr(serre, "_canonical_mapping",
                      recording(mappings, serre._canonical_mapping))
  checked = 0
  for V, pred in condition_w_corpus():
    images.clear()
    mappings.clear()
    try:
      check_condition_w(V, pred, 25)
      cands = serre._iso_candidates(V, pred)
    except PredicateClosureError:
      continue
    for X, p in cands:
      # identity_quotient is from_ambient of the identity: an image too
      for g, h in ((identity_quotient(X, pred), p),
                   (p, identity_quotient(V, pred))):
        check_rep(compose_quotient(g, h).rep,
                  {x: h.rep(g.rep(x)) for x in g.rep.source.elements})
        checked += 1
    for (u, _), f in images:
      kernel, base = maximal_kernel(f.target, pred), f.target.base
      check_rep(f.rep, {x: base if u(x) in kernel else u(x)
                        for x in minimal_dense_sub(f.source, pred)})
      checked += 1
    # from_ambient's and the arrow search's: each reads X′ and Y's kernel
    for (u, sub, kernel, _), mapping in mappings:
      assert sub is serre._dense_sub(u.source, pred)
      assert kernel == maximal_kernel(u.target, pred)
      base = u.target.base
      check_rep(ASetMap._trusted(sub, serre._collapsed(u.target, pred),
                                 mapping),
                {x: base if u(x) in kernel else u(x) for x in sub.elements})
      checked += 1
  assert checked > 10000


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
