"""The four seeded workloads and the oracle that checks each item's verdict.

A workload turns a seed into a pool of rounds of plain input data (successor
maps, group orders, orderings).  ``Workload.items(round)`` yields the round's
items in order; calling an item builds the monoidkit objects it needs from
that data, runs the program, and returns ``(ok, verdict)``.  ``ok`` is the
oracle's judgement and ``verdict`` a hashable summary of what the program
answered, so a traced and an untraced pass can be compared item by item.

Every oracle is computed by the benchmark from the generated shape, not by
the code path under test: subobject counts of lines, cycles and trees, the
torsion part of a successor map, hom-set sizes between small N-sets, the
number of subgroups of a small abelian group, the number of height-bounded
rooted forests.

Functions are always reached through their module (``serre.hom_quotient``),
so the tracer's patches are seen here too.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import sys
from functools import partial
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import monoidkit  # noqa: E402
from monoidkit import (asets, corpora, diagrams, groups, ktheory,  # noqa: E402
                       monoids, serre)

if not Path(monoidkit.__file__).resolve().is_relative_to(SRC):
  raise ImportError(f"monoidkit was imported from {monoidkit.__file__}, "
                    f"not from the checkout's {SRC}")

STAR = monoids.STAR
# rounds of inputs generated per run; a run that needs more cycles through
# them, rebuilding every object from the data
POOL_ROUNDS = 16


def _predicate(kind):
  N = monoids.NatMonoid()
  if kind == "torsion":
    return serre.SerrePredicate.torsion(N)
  if kind == "zero":
    return serre.SerrePredicate.zero(N)
  return serre.SerrePredicate.support_in(N, ["(t)"])


def _random_successor(rng, max_nonbase):
  """A uniformly messy successor map on at most `max_nonbase` elements."""
  m = rng.randint(0, max_nonbase)
  carrier = [f"x{i}" for i in range(1, m + 1)]
  return {x: rng.choice(carrier + [STAR]) for x in carrier}


def _torsion_part(succ):
  """Elements whose forward orbit reaches the basepoint (and the basepoint)."""
  dead = {STAR}
  for x in succ:
    y = x
    for _ in range(len(succ) + 1):
      y = succ[y]
      if y == STAR:
        dead.add(x)
        break
  return frozenset(dead)


def _cycles(succ):
  """The cycles of a successor map, each as a frozenset of its nodes."""
  out = set()
  for x in succ:
    y = x
    for _ in range(len(succ)):
      y = succ[y]
      if y == STAR:
        break
    else:               # y now lies on the cycle x runs into
      ring = [y]
      while succ[ring[-1]] != y:
        ring.append(succ[ring[-1]])
      out.add(frozenset(ring))
  return out


def _hom_count(kind, xs, ys):
  """|Hom(X, Y)| in the quotient by the predicate, from the two maps.

  Over N, torsion and support_in((t)) are the same subcategory, and its
  hom-sets are the maps between the periodic parts: each cycle of X goes
  to a point of Y fixed by t^(cycle length), or to the basepoint.  Under
  the zero predicate every window is trivial: count the plain maps.
  """
  if kind != "zero":
    periodic = [y for ring in _cycles(ys) for y in ring]
    count = 1
    for ring in _cycles(xs):
      count *= 1 + sum(_power(ys, y, len(ring)) == y for y in periodic)
    return count
  ys = {**ys, STAR: STAR}
  xe = list(xs)
  count = 0
  for images in itertools.product(list(ys), repeat=len(xe)):
    f = dict(zip(xe, images), **{STAR: STAR})
    count += all(f[xs[x]] == ys[f[x]] for x in xe)
  return count


def _power(succ, y, n):
  for _ in range(n):
    y = succ[y]
  return y


# ------------------------------------------------------------ quotient_laws


@functools.cache
def _nset_classes(max_nonbase):
  """One successor map per iso class of N-sets on <= max_nonbase elements.

  Brute force over labelled maps (-1 is the basepoint), keeping the least
  relabelling as the class key.
  """
  def relabel(images, p):          # node k becomes p[k]
    out = [0] * len(images)
    for k, j in enumerate(images):
      out[p[k]] = j if j < 0 else p[j]
    return tuple(out)

  classes = {}
  for m in range(max_nonbase + 1):
    perms = list(itertools.permutations(range(m)))
    for images in itertools.product(range(-1, m), repeat=m):
      classes.setdefault(min(relabel(images, p) for p in perms), images)
  return tuple(classes.values())


def _quotient_round(rng, index):
  """Every class of X once, in seeded order and labels, with random Y, Z.

  X runs through the classes with at most 3 non-base elements: with 4 the
  cost of condition (W) ranges from 0.05 s to 2.5 s by class, so which
  classes a seed drew would swing the metrics.  The predicate of class i is rotated by
  the round index, so any three consecutive rounds pair every class with
  every predicate once.
  """
  kinds = ("torsion", "zero", "support_in")
  out = []
  for i, images in enumerate(_nset_classes(3)):
    names = [f"x{k}" for k in rng.sample(range(1, 10), len(images))]
    X = {names[k]: STAR if j < 0 else names[j] for k, j in enumerate(images)}
    maps = (X, _random_successor(rng, 4), _random_successor(rng, 4))
    kind = kinds[(i + index) % 3]
    homs = tuple(_hom_count(kind, maps[a], maps[b])
                 for a, b in ((0, 1), (1, 2), (2, 0)))
    out.append((kind, maps, tuple(rng.random() for _ in range(3)), homs))
  rng.shuffle(out)
  return out


def _quotient_item(kind, maps, picks, want_homs):
  pred = _predicate(kind)
  X, Y, Z = (asets.nat_set(s) for s in maps)
  homs = (serre.hom_quotient(X, Y, pred), serre.hom_quotient(Y, Z, pred),
          serre.hom_quotient(Z, X, pred))
  f, g, h = (hs[int(u * len(hs))] for hs, u in zip(homs, picks))
  compose = serre.compose_quotient
  laws = {
      "left_identity": compose(serre.identity_quotient(X, pred), f) == f,
      "right_identity": compose(f, serre.identity_quotient(Y, pred)) == f,
      "associativity": compose(compose(f, g), h) == compose(f, compose(g, h)),
  }
  iso = serre.is_iso_quotient(f)
  if iso:
    laws["iso_retraction"] = serre.monic_representative(f).is_injective()
  laws["condition_w"] = serre.check_condition_w(X, pred, pair_bound=25)
  counts = tuple(len(hs) for hs in homs)
  verdict = (counts, iso, tuple(sorted(laws.items())))
  return counts == want_homs and all(laws.values()), verdict


# ---------------------------------------------------------- k0_presentation

K0_CAP = 8
# Each group enters at every cap from |G|+1 to K0_CAP.  Half of the 22 items
# cost under 40 ms and half over 70 ms, so the median sits in that gap and
# does not jump between neighbouring items from run to run; adding Z/6 or
# Z/7 (all their items are over 70 ms) moved it by 20% between runs.
K0_GROUPS = ((2,), (3,), (2, 2), (4,), (5,))


def _subgroup_count(orders):
  """Subgroups of Z/o1 x ... x Z/ok, by brute force over subsets."""
  elements = list(itertools.product(*(range(k) for k in orders)))
  zero, rest = elements[0], elements[1:]

  def add(a, b):
    return tuple((x + y) % k for x, y, k in zip(a, b, orders))

  count = 0
  for r in range(len(rest) + 1):
    for combo in itertools.combinations(rest, r):
      s = set(combo) | {zero}
      if all(add(a, b) in s for a in s for b in s):
        count += 1
  return count


def _k0_round(rng, index):
  # the free orbit must fit under the cap, or K0 misses one Burnside class
  out = [(orders, cap, _subgroup_count(orders))
         for orders in K0_GROUPS
         for cap in range(math.prod(orders) + 1, K0_CAP + 1)]
  rng.shuffle(out)
  return out


def _k0_item(orders, cap, subgroups):
  G = monoids.FiniteMonoid.group_with_zero(list(orders))
  corpus = [X for X, _ in corpora.all_gamma_asets(G, cap)]
  k0 = ktheory.k0_of_catspec(corpus, closure_bound=128)
  rank, _ = ktheory.burnside_rank(G.units())
  ok = (rank == subgroups
        and k0.group == groups.AbelianGroupPresentation.free(rank))
  return ok, (str(k0.group), rank, len(k0.reps), len(k0.relations))


# ------------------------------------------------------------- key_diagrams

KEY_CAP = 6
KEY_HEIGHT = 3      # N/(t^3): successor forests of height <= 3


def _forest_counts(max_nodes, height):
  """Unlabelled rooted forests on m = 0..max_nodes nodes, height <= height."""
  forests = [1] + [0] * max_nodes
  for _ in range(height):
    trees = [0] + forests[:max_nodes]          # a root over a lower forest
    weight = [0] + [sum(d * trees[d] for d in range(1, k + 1) if k % d == 0)
                    for k in range(1, max_nodes + 1)]
    nxt = [1] + [0] * max_nodes
    for n in range(1, max_nodes + 1):          # Euler transform
      nxt[n] = sum(weight[k] * nxt[n - k] for k in range(1, n + 1)) // n
    forests = nxt
  return forests


def _key_round(rng, index):
  expected = (KEY_CAP, sum(_forest_counts(KEY_CAP - 1, KEY_HEIGHT)))
  return {"order_seed": rng.getrandbits(32), "classes": expected}


def _key_corpus_item(state, expected):
  pointed = corpora.all_pointed_sets(monoids.FiniteMonoid.f1(), KEY_CAP)
  nilpotent = corpora.all_nilpotent_asets(
      monoids.FiniteMonoid.truncated_free(KEY_HEIGHT - 1), KEY_CAP)
  state["corpus"] = pointed + nilpotent
  state["subobjects"] = [len(X.subobject_sets()) for X in state["corpus"]]
  classes = (len(pointed), len(nilpotent))
  return classes == expected, classes


def _key_row_item(X, i):
  """Sequence i of X against every sequence of X, each through key_diagram."""
  subs = X.subobject_sets()
  seq1 = asets.exact_seq_from_sub(X, subs[i])
  ok, verdict = True, []
  for s2 in subs:
    seq2 = asets.exact_seq_from_sub(X, s2)
    checks = diagrams.key_diagram(X, seq1, seq2).verify()
    ok = ok and all(checks.values())
    verdict.append(tuple(sorted(checks.items())))
  return ok, tuple(verdict)


def _key_items(rnd):
  """The corpus item first, then one row of pairs per sequence, seeded order.

  A row (sequence i of X against all of X's sequences) is the item, not a
  single pair: with 0.5 ms pairs the tail percentile of ~30000 items would
  be set by scheduler and collector pauses instead of by the work.
  """
  state = {}
  yield partial(_key_corpus_item, state, rnd["classes"])
  if "corpus" not in state:
    return
  rows = [(x, i) for x, n in enumerate(state["subobjects"]) for i in range(n)]
  random.Random(rnd["order_seed"]).shuffle(rows)
  for x, i in rows:
    yield partial(_key_row_item, state["corpus"][x], i)


# ----------------------------------------------------------- large_carriers

CARRIER_NONBASE = range(9, 16)      # carriers of 10..16 elements
TREE_MAX_SUBOBJECTS = 64


def _forest_subobjects(parent):
  """Successor-closed subsets of a rooted forest hanging on the basepoint."""
  children = {}
  for v, p in parent.items():
    children.setdefault(p, []).append(v)

  def closed_below(v):          # subsets of v's subtree that contain v
    out = 1
    for c in children.get(v, ()):
      out *= 1 + closed_below(c)
    return out

  return closed_below(STAR)


def _line(names):
  parent = {names[0]: STAR}
  parent.update({names[i]: names[i - 1] for i in range(1, len(names))})
  return parent


def _carrier(rng, family, k):
  """(successor map, cycle nodes, subobject count) for a seeded shape."""
  names = [f"v{i}" for i in rng.sample(range(100), k)]
  if family == "line":
    return _line(names), frozenset(), k + 1
  if family == "cycle":
    c = rng.randint(1, k - 1)
    ring, tail = names[:c], names[c:]
    succ = {ring[i]: ring[(i + 1) % c] for i in range(c)}
    succ.update(_line(tail))
    succ[tail[0]] = ring[0]
    return succ, frozenset(ring), len(tail) + 2
  while True:     # deep random tree, so the lattice stays small
    parent = {names[0]: STAR}
    for i in range(1, k):
      parent[names[i]] = rng.choice(
          [names[i - 1]] * 3 + [names[max(i - 2, 0)], STAR])
    count = _forest_subobjects(parent)
    if count <= TREE_MAX_SUBOBJECTS:
      return parent, frozenset(), count


def _carriers_round(rng, index):
  """Every size and shape once, in seeded order.

  For each size, one seeded shape is also checked against the index poset,
  so every round carries the same amount of work.
  """
  out = []
  for k in CARRIER_NONBASE:
    checked = rng.choice(("line", "cycle", "tree"))
    for family in ("line", "cycle", "tree"):
      succ, ring, subobjects = _carrier(rng, family, k)
      ysucc = _random_successor(rng, 4)
      kind = rng.choice(("torsion", "support_in"))
      want = {"subobjects": subobjects, "pc": not ring,
              "length": None if ring else k,
              "window": (ring | {STAR}, _torsion_part(ysucc)),
              "homs": _hom_count(kind, succ, ysucc)}
      if family == checked:
        want["poset_maximum"] = True
      out.append((succ, ysucc, kind, want))
  rng.shuffle(out)
  return out


def _carrier_item(succ, ysucc, kind, want):
  X = asets.nat_set(succ)
  Y = asets.nat_set(ysucc)
  pred = _predicate(kind)
  window = serre.canonical_window(X, Y, pred)
  got = {"subobjects": len(X.subobject_sets()),
         "window": (window.xsub, window.ykernel),
         "length": asets.aset_length(X), "pc": asets.is_pc_aset(X),
         "homs": len(serre.hom_quotient(X, Y, pred))}
  if "poset_maximum" in want:
    got["poset_maximum"] = serre.index_poset(X, Y, pred).maximum() == window
  return got == want, tuple(sorted(got.items()))


# ------------------------------------------------------------------ registry


def _per_spec(fn):
  """Items of a round that is a list of argument tuples for `fn`."""
  def items(rnd):
    for spec in rnd:
      yield partial(fn, *spec)
  return items


class Workload:
  """A named input generator plus the item stream built from its rounds.

  ``trace_items`` is how many leading items of the first round one traced
  pass runs; it is fixed so that counts from two passes match exactly.
  """

  def __init__(self, name, make_round, items, trace_items):
    self.name = name
    self.make_round = make_round
    self.items = items
    self.trace_items = trace_items

  def inputs(self, seed):
    rng = random.Random(f"{self.name}:{seed}")
    return [self.make_round(rng, index) for index in range(POOL_ROUNDS)]


WORKLOADS = {w.name: w for w in (
    Workload("quotient_laws", _quotient_round, _per_spec(_quotient_item), 25),
    Workload("k0_presentation", _k0_round, _per_spec(_k0_item), 22),
    Workload("key_diagrams", _key_round, _key_items, 60),
    Workload("large_carriers", _carriers_round, _per_spec(_carrier_item), 21),
)}
