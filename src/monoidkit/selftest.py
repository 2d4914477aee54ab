"""Every published value the package claims, re-computed as one suite.

Each case compares a stated value (class groups, graded pieces, K-groups,
law counts) with what the library computes from scratch, and the table of
expected-vs-computed is what ``monoidkit selftest`` prints.  Cases are
independent and run in id order; they share no state, so a harness may run
them concurrently as long as output stays sorted by id.
"""

from __future__ import annotations

import random
import time

from .affine import AffineMonoid
from .asets import (cycle_nset, exact_seq_from_sub, is_pc_aset, is_rooted_tree,
                    nat_set, truncated_line)
from .corpora import (all_gamma_asets, all_nsets, all_nilpotent_asets,
                      all_pointed_sets, random_nset)
from .diagrams import key_diagram
from .errors import NotZeroSmooth
from .groups import AbelianGroupPresentation
from .ktheory import (StableConstants, burnside_rank, class_group,
                      coniveau_k0_report, devissage_check_k0, dvm_report,
                      gersten_exactness_check, k_gamma, k0_of_catspec,
                      localization_exactness_k0, w_group)
from .monoids import FiniteMonoid, NatMonoid, UnitGroupDescriptor
from .serre import (SerrePredicate, check_condition_w, check_filtered,
                    compose_quotient, hom_quotient, identity_quotient,
                    index_poset, is_iso_quotient, monic_representative,
                    quotient_equivalence_report)

SCHEMA_VERSION = 1


class CaseResult:
  def __init__(self, case_id, name, expected, computed, passed, seconds):
    self.case_id = case_id
    self.name = name
    self.expected = expected
    self.computed = computed
    self.passed = passed
    self.seconds = seconds

  def __bool__(self):
    return self.passed

  def to_json(self):
    return {"id": self.case_id, "name": self.name, "expected": self.expected,
            "computed": self.computed, "pass": self.passed,
            "seconds": round(self.seconds, 3)}

  def row(self):
    flag = "pass" if self.passed else "FAIL"
    return (f"{self.case_id:>2}  {self.name:<34} {flag}  "
            f"expected {self.expected} | computed {self.computed} "
            f"[{self.seconds:.2f}s]")


def _case(case_id, name, expected, computed, passed, t0):
  return CaseResult(case_id, name, str(expected), str(computed), bool(passed),
                    time.perf_counter() - t0)


def _square_cone():
  return AffineMonoid.class_group_order_two()


def case_01_class_group():
  t0 = time.perf_counter()
  got = class_group(_square_cone())
  return _case(1, "class group of <(1,0),(1,1),(1,2)>", "Z/2", got,
               str(got) == "Z/2", t0)


def case_02_coniveau_graded():
  t0 = time.perf_counter()
  rep = coniveau_k0_report(_square_cone())
  w2 = w_group(_square_cone(), 2)
  got = f"({', '.join(str(g) for g in rep.graded)}) -> {rep.conclusion()}"
  ok = ([str(g) for g in rep.graded] == ["Z", "Z/2", "0"]
        and rep.conclusion() == "Z+Z/2" and rep.resolved and w2.is_trivial())
  return _case(2, "coniveau graded pieces", "(Z, Z/2, 0) -> Z+Z/2", got, ok, t0)


def case_03_factorial():
  t0 = time.perf_counter()
  groups = [class_group(AffineMonoid.free(n)) for n in (1, 2, 3)]
  got = ", ".join(str(g) for g in groups)
  return _case(3, "Cl(N^n) = 0 for n = 1,2,3", "0, 0, 0", got,
               all(g.is_trivial() for g in groups), t0)


def _orbit_never_dies(X):
  # independent loop oracle: power iteration instead of a seen-set walk
  step = X.action["t"]
  for x in X.nonbase():
    y = x
    for _ in range(len(X.elements)):
      y = step[y]
    if y != X.base:
      return True
  return False


def case_04_pc_is_rooted_tree(max_size=7):
  t0 = time.perf_counter()
  corpus = all_nsets(max_size)
  bad = [X.name for X in corpus
         if not (is_pc_aset(X) == is_rooted_tree(X) == (not _orbit_never_dies(X)))]
  got = f"{len(bad)} mismatches over {len(corpus)} classes"
  return _case(4, f"pc <=> rooted tree (N-sets <= {max_size})",
               f"0 mismatches over {len(corpus)} classes", got, not bad, t0)


def case_05_gamma_pc_is_free(max_size=8):
  t0 = time.perf_counter()
  total, bad = 0, 0
  for orders in ([2], [3], [2, 2]):
    G = FiniteMonoid.group_with_zero(orders)
    for X, stabilizers in all_gamma_asets(G, max_size):
      total += 1
      if is_pc_aset(X) != all(s == 1 for s in stabilizers):
        bad += 1
  got = f"{bad} mismatches over {total} classes"
  return _case(5, f"pc <=> free (Gamma-sets <= {max_size})",
               f"0 mismatches over {total} classes", got, bad == 0, t0)


def case_06_burnside():
  t0 = time.perf_counter()
  results, ok = [], True
  for orders, want in (([2], 2), ([3], 2), ([2, 2], 5)):
    G = FiniteMonoid.group_with_zero(orders)
    corpus = [X for X, _ in all_gamma_asets(G, 8)]
    k0 = k0_of_catspec(corpus, closure_bound=128)
    rank, _ = burnside_rank(G.units())
    results.append(str(k0.group))
    ok = ok and k0.group == AbelianGroupPresentation.free(want) and rank == want
  return _case(6, "Burnside rank 2, 2, 5", "Z^2, Z^2, Z^5",
               ", ".join(results), ok, t0)


def case_07_devissage():
  t0 = time.perf_counter()
  reports = [devissage_check_k0(FiniteMonoid.truncated_free(N - 1), pc=True,
                                max_elements=5)
             for N in (2, 3, 4)]
  ok = all(r.match for r in reports)
  got = ", ".join(str(r.computed) for r in reports)
  return _case(7, "devissage K0 = Z for N/(t^N), N <= 4", "Z, Z, Z", got, ok, t0)


def case_08_localization():
  t0 = time.perf_counter()
  N = NatMonoid()
  seeds = [truncated_line(4), cycle_nset(1, tail=3),
           nat_set({"a": "r", "b": "r", "r": "*"}, name="fork"),
           nat_set({"a": "c", "b": "c", "c": "c"}, name="fork to a fixed point")]
  rep = localization_exactness_k0(seeds, SerrePredicate.torsion(N),
                                  closure_bound=64)
  got = (f"K0(M/C) = {rep.q_group}, middle {'exact' if rep.middle_exact else 'NOT exact'}, "
         f"right {'onto' if rep.right_surjective else 'NOT onto'}")
  ok = rep.ok and str(rep.q_group) == "Z"
  return _case(8, "localization exactness at pi_0", "K0(M/C) = Z, exact, onto",
               got, ok, t0)


def case_09_quotient_laws(rounds=1000, seed=20240816):
  t0 = time.perf_counter()
  N = NatMonoid()
  pred = SerrePredicate.torsion(N)
  rng = random.Random(seed)
  instances = failures = isos = 0
  while instances < rounds:
    X, Y, Z = (random_nset(rng, 4) for _ in range(3))
    fs = hom_quotient(X, Y, pred)
    gs = hom_quotient(Y, Z, pred)
    if not fs or not gs:
      continue
    f, g = rng.choice(fs), rng.choice(gs)
    gf = compose_quotient(f, g)
    if compose_quotient(identity_quotient(X, pred), f) != f:
      failures += 1
    if compose_quotient(f, identity_quotient(Y, pred)) != f:
      failures += 1
    hs = hom_quotient(Z, X, pred)
    if hs:
      h = rng.choice(hs)
      if compose_quotient(gf, h) != compose_quotient(f, compose_quotient(g, h)):
        failures += 1
    if is_iso_quotient(f):
      isos += 1
      if not monic_representative(f).is_injective():
        failures += 1
    instances += 1
  got = f"{failures} failures ({instances} instances, {isos} isos retracted)"
  return _case(9, f"quotient laws ({rounds} random instances)",
               "0 failures", got, failures == 0, t0)


def case_10_filtered_and_condition_w(samples=100, seed=20240816):
  t0 = time.perf_counter()
  N = NatMonoid()
  torsion = SerrePredicate.torsion(N)
  corpus = all_nsets(4)
  unfiltered = 0
  for X in corpus:
    for Y in corpus:
      poset = index_poset(X, Y, torsion)
      if not check_filtered(poset).ok:
        unfiltered += 1
  rng = random.Random(seed)
  preds = [torsion, SerrePredicate.zero(N),
           SerrePredicate.support_in(N, ["(t)"])]
  w_failures = 0
  tested = 0
  while tested < samples:
    V = random_nset(rng, 4)
    if not check_condition_w(V, preds[tested % len(preds)], pair_bound=25):
      w_failures += 1
    tested += 1
  got = (f"{unfiltered} unfiltered posets of {len(corpus) ** 2}, "
         f"{w_failures} condition-W failures of {tested}")
  return _case(10, "filteredness and condition (W)",
               "0 unfiltered, 0 W failures", got,
               unfiltered == 0 and w_failures == 0, t0)


def case_11_key_diagram():
  t0 = time.perf_counter()
  f1 = FiniteMonoid.f1()
  t3 = FiniteMonoid.truncated_free(2)
  pairs = failures = 0
  for corpus in (all_pointed_sets(f1, 6), all_nilpotent_asets(t3, 6)):
    for X in corpus:
      seqs = [exact_seq_from_sub(X, s) for s in X.subobject_sets()]
      for s1 in seqs:
        for s2 in seqs:
          checks = key_diagram(X, s1, s2).verify()
          pairs += 1
          if not all(checks.values()):
            failures += 1
  got = f"{failures} failures over {pairs} sequence pairs"
  return _case(11, "key diagram squares (F1, N/(t^3))",
               "0 failures", got, failures == 0, t0)


def case_12_quotient_is_localization():
  t0 = time.perf_counter()
  rep = quotient_equivalence_report(NatMonoid(), ["(t)"], corpus=all_nsets(4))
  got = f"{len(rep.mismatches)} mismatches over {len(rep.rows)} pairs"
  ok = rep.ok and len(rep.rows) >= 20
  return _case(12, "quotient hom counts = localized",
               ">= 20 pairs, 0 mismatches", got, ok, t0)


def case_13_dvm(pi1s=2):
  t0 = time.perf_counter()
  constants = StableConstants(AbelianGroupPresentation.from_cyclic_orders([pi1s]))
  triv = dvm_report(UnitGroupDescriptor(0, ()), constants)
  z2 = dvm_report(UnitGroupDescriptor(0, (2,)), constants)
  expected_triv = k_gamma(UnitGroupDescriptor(0, ()), 1, constants)
  expected_z2 = k_gamma(UnitGroupDescriptor(0, (2,)), 1, constants)
  ok = (triv.ok and z2.ok and triv.d1_surjective
        and str(triv.k_prime[0]) == "Z"
        and triv.k_prime[1] == expected_triv and z2.k_prime[1] == expected_z2)
  got = (f"trivial: K'0 = {triv.k_prime[0]}, K'1 = {triv.k_prime[1]}; "
         f"Z/2: K'1 = {z2.k_prime[1]}")
  return _case(13, "DVM page: K'0, K'1, d1 onto",
               f"K'0 = Z, K'1 = {expected_triv}; K'1 = {expected_z2}",
               got, ok, t0)


def case_14_gersten():
  t0 = time.perf_counter()
  smooth = [AffineMonoid.free(1), AffineMonoid.free(2), AffineMonoid.free(3),
            AffineMonoid.dvm(torsion=(2,))]
  all_exact = all(gersten_exactness_check(A).ok for A in smooth)
  try:
    gersten_exactness_check(_square_cone())
    strict_refused = False
  except NotZeroSmooth:
    strict_refused = True
  control = gersten_exactness_check(_square_cone(), strict=False)
  control_ok = (not control.ok and control.expected_failure
                and str(control.h(1)) == "Z/2")
  got = (f"smooth family {'exact' if all_exact else 'NOT exact'}, "
         f"control H^1 = {control.h(1)}")
  return _case(14, "Gersten exactness + control", "exact, control H^1 = Z/2",
               got, all_exact and strict_refused and control_ok, t0)


ALL_CASES = (case_01_class_group, case_02_coniveau_graded, case_03_factorial,
             case_04_pc_is_rooted_tree, case_05_gamma_pc_is_free,
             case_06_burnside, case_07_devissage, case_08_localization,
             case_09_quotient_laws, case_10_filtered_and_condition_w,
             case_11_key_diagram, case_12_quotient_is_localization,
             case_13_dvm, case_14_gersten)


def run_all(max_size=None, seed=None, pi1s=2):
  """Run every case; knobs only tighten or reseed the sampled ones."""
  results = []
  for fn in ALL_CASES:
    kwargs = {}
    if fn is case_04_pc_is_rooted_tree and max_size:
      kwargs["max_size"] = max_size
    if fn is case_05_gamma_pc_is_free and max_size:
      kwargs["max_size"] = max_size
    if seed is not None and fn in (case_09_quotient_laws,
                                   case_10_filtered_and_condition_w):
      kwargs["seed"] = seed
    if fn is case_13_dvm:
      kwargs["pi1s"] = pi1s
    results.append(fn(**kwargs))
  return results


def render_table(results):
  lines = ["id  case                               result",
           "--  ---------------------------------  ------"]
  lines += [r.row() for r in sorted(results, key=lambda r: r.case_id)]
  passed = sum(1 for r in results if r.passed)
  lines.append(f"\n{passed}/{len(results)} cases pass")
  return "\n".join(lines)
