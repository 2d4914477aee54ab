"""Finitely generated abelian groups in invariant-factor normal form.

>>> AbelianGroupPresentation(1, [2])
AbelianGroupPresentation(free_rank=1, invariant_factors=[2])
>>> print(AbelianGroupPresentation(1, [2]))
Z + Z/2
>>> print(AbelianGroupPresentation.from_cyclic_orders([2, 4, 3]))
Z/2 + Z/12
>>> print(AbelianGroupPresentation.from_relations([[0, 1], [2, -1]], 2))
Z/2

The canonical form (free rank plus a divisibility chain of torsion orders) is
unique, so equality of presentations is equality of groups.
"""

from __future__ import annotations

import itertools

from . import intlin


def _factorize(n):
  assert n > 0
  out = {}
  d = 2
  while d * d <= n:
    while n % d == 0:
      out[d] = out.get(d, 0) + 1
      n //= d
    d += 1
  if n > 1:
    out[n] = out.get(n, 0) + 1
  return out


def _merge_prime_powers(orders):
  """Turn a multiset of cyclic orders (> 1) into a divisibility chain."""
  primary = {}  # prime -> descending list of exponents
  for n in orders:
    for p, e in _factorize(n).items():
      primary.setdefault(p, []).append(e)
  for exps in primary.values():
    exps.sort(reverse=True)
  width = max((len(v) for v in primary.values()), default=0)
  chain = []
  for i in range(width):
    d = 1
    for p, exps in primary.items():
      if i < len(exps):
        d *= p ** exps[i]
    chain.append(d)
  chain.reverse()  # ascending, each dividing the next
  return chain


class AbelianGroupPresentation:
  """A finitely generated abelian group Z^r + Z/d1 + ... with d1 | d2 | ..."""

  __slots__ = ("free_rank", "invariant_factors")

  def __init__(self, free_rank=0, invariant_factors=()):
    factors = [int(d) for d in invariant_factors]
    assert free_rank >= 0
    assert all(d > 1 for d in factors), "torsion orders must exceed 1"
    for a, b in zip(factors, factors[1:]):
      assert b % a == 0, "invariant factors must form a divisibility chain"
    self.free_rank = int(free_rank)
    self.invariant_factors = factors

  @classmethod
  def trivial(cls):
    return cls(0, [])

  @classmethod
  def free(cls, rank):
    return cls(rank, [])

  @classmethod
  def cyclic(cls, n):
    if n == 0:
      return cls(1, [])
    return cls(0, [n]) if n > 1 else cls(0, [])

  @classmethod
  def from_cyclic_orders(cls, orders):
    """Direct sum of cyclic groups of the given orders (0 means Z)."""
    free = sum(1 for n in orders if n == 0)
    torsion = [n for n in orders if n > 1]
    return cls(free, _merge_prime_powers(torsion))

  @classmethod
  def from_relations(cls, relation_rows, n_generators):
    """Z^n modulo the subgroup generated by the given relation vectors."""
    free, torsion = intlin.cokernel_invariants(list(relation_rows), n_generators)
    return cls(free, torsion)

  def direct_sum(self, other):
    orders = [0] * (self.free_rank + other.free_rank)
    orders += self.invariant_factors + other.invariant_factors
    return AbelianGroupPresentation.from_cyclic_orders(orders)

  def is_trivial(self):
    return self.free_rank == 0 and not self.invariant_factors

  def order(self):
    """Number of elements, or None for an infinite group."""
    if self.free_rank:
      return None
    out = 1
    for d in self.invariant_factors:
      out *= d
    return out

  def __eq__(self, other):
    return (isinstance(other, AbelianGroupPresentation)
            and self.free_rank == other.free_rank
            and self.invariant_factors == other.invariant_factors)

  def __hash__(self):
    return hash((self.free_rank, tuple(self.invariant_factors)))

  def __repr__(self):
    return (f"AbelianGroupPresentation(free_rank={self.free_rank}, "
            f"invariant_factors={self.invariant_factors})")

  def __str__(self):
    parts = []
    if self.free_rank == 1:
      parts.append("Z")
    elif self.free_rank > 1:
      parts.append(f"Z^{self.free_rank}")
    parts.extend(f"Z/{d}" for d in self.invariant_factors)
    return " + ".join(parts) if parts else "0"

  def to_json(self):
    return {"free_rank": self.free_rank, "torsion": list(self.invariant_factors)}

  @classmethod
  def from_json(cls, data):
    return cls.from_cyclic_orders([0] * int(data.get("free_rank", 0))
                                  + list(data.get("torsion", [])))


class FiniteAbelianGroup:
  """A concrete product of cyclic groups, with subgroup enumeration.

  Elements are tuples of residues, written additively.
  """

  def __init__(self, orders):
    orders = [int(n) for n in orders]
    assert all(n >= 1 for n in orders)
    self.orders = orders
    self.identity = tuple([0 for _ in orders])
    self.elements = [tuple(x) for x in itertools.product(*(range(n) for n in orders))]

  def add(self, a, b):
    return tuple([(x + y) % n for x, y, n in zip(a, b, self.orders)])

  def neg(self, a):
    return tuple([(-x) % n for x, n in zip(a, self.orders)])

  def span(self, gens):
    seen = {self.identity}
    frontier = [self.identity]
    while frontier:
      x = frontier.pop()
      for g in gens:
        y = self.add(x, g)
        if y not in seen:
          seen.add(y)
          frontier.append(y)
    return frozenset(seen)

  def subgroups(self):
    """All subgroups, as frozensets of elements (brute-force closure)."""
    found = {self.span([])}
    frontier = [self.span([])]
    while frontier:
      H = frontier.pop()
      for g in self.elements:
        if g not in H:
          K = self.span(list(H) + [g])
          if K not in found:
            found.add(K)
            frontier.append(K)
    return sorted(found, key=lambda H: (len(H), sorted(H)))

  def presentation(self):
    return AbelianGroupPresentation.from_cyclic_orders(self.orders)


def invariants_from_abelian_group(elements, op, identity):
  """Invariant factors of a finite abelian group given by a multiplication op.

  Works by counting, for each prime p, the number of solutions of
  x^(p^k) = identity; those counts determine the p-primary type.
  """
  n = len(elements)
  orders = {}
  for x in elements:
    k, cur = 1, x
    while cur != identity:
      cur = op(cur, x)
      k += 1
    orders[x] = k
  primes = sorted(_factorize(n)) if n > 1 else []
  cyclic_parts = []
  for p in primes:
    p_part_size = sum(1 for x in elements if _is_p_power_order(orders[x], p))
    # a_k = log_p #{x : order(x) divides p^k}
    a = [0]
    k = 1
    while True:
      cnt = sum(1 for x in elements if p ** k % orders[x] == 0)
      e = 0
      while p ** e < cnt:
        e += 1
      assert p ** e == cnt, "element-order counts are not those of an abelian group"
      a.append(e)
      if cnt == p_part_size:
        break
      k += 1
    # m_k = #{summands with exponent >= k}
    m = [a[k] - a[k - 1] for k in range(1, len(a))]
    exps = []
    for k, count in enumerate(m, start=1):
      nxt = m[k] if k < len(m) else 0
      exps.extend([k] * (count - nxt))
    cyclic_parts.extend(p ** e for e in exps)
  return AbelianGroupPresentation.from_cyclic_orders(cyclic_parts)


def _is_p_power_order(k, p):
  while k % p == 0:
    k //= p
  return k == 1
