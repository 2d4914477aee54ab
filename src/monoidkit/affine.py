"""Affine lattice monoids: unit group smashed with a finitely generated
subsemigroup of Z^d spanning a sharp rational cone, optionally cut by an
ideal.

All cone geometry is exact.  Feasibility questions (sharpness, strictly
positive functionals) go through Fourier-Motzkin elimination over Fractions;
face enumeration intersects facet zero-sets; semigroup membership is a
depth-first search whose termination is guaranteed by a strictly positive
functional on the generators.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from . import intlin
from .errors import InvalidStructure, Undecidable
from .monoids import (STAR, FiniteMonoid, PrimeIdeal, UnitGroupDescriptor,
                      ValidationReport)


def _primitive(vec):
  g = 0
  for x in vec:
    g = gcd(g, abs(x))
  if g == 0:
    return list(vec)
  return [x // g for x in vec]


def _dot(a, b):
  return sum(x * y for x, y in zip(a, b))


def solve_inequalities(constraints, nvars):
  """A rational point x with coeffs . x >= rhs for every constraint, or None.

  Fourier-Motzkin elimination; exact, intended for a handful of variables.
  Constraints are (coeffs, rhs) pairs with Fraction-compatible entries.
  """
  constraints = [(tuple([Fraction(c) for c in coeffs]), Fraction(rhs))
                 for coeffs, rhs in constraints]
  if nvars == 0:
    return [] if all(rhs <= 0 for _, rhs in constraints) else None
  k = nvars - 1
  pos, neg, rest = [], [], []
  for coeffs, rhs in constraints:
    if coeffs[k] > 0:
      pos.append((coeffs, rhs))
    elif coeffs[k] < 0:
      neg.append((coeffs, rhs))
    else:
      rest.append((coeffs[:k], rhs))
  projected = list(rest)
  for cp, rp in pos:
    for cn, rn in neg:
      ap, an = cp[k], -cn[k]
      coeffs = tuple([an * cp[i] + ap * cn[i] for i in range(k)])
      projected.append((coeffs, an * rp + ap * rn))
  sub = solve_inequalities(projected, k)
  if sub is None:
    return None
  lo, hi = None, None
  for coeffs, rhs in pos:
    bound = (rhs - _dot(coeffs[:k], sub)) / coeffs[k]
    lo = bound if lo is None else max(lo, bound)
  for coeffs, rhs in neg:
    bound = (rhs - _dot(coeffs[:k], sub)) / coeffs[k]
    hi = bound if hi is None else min(hi, bound)
  if lo is None and hi is None:
    val = Fraction(0)
  elif lo is None:
    val = hi
  elif hi is None:
    val = lo
  else:
    assert lo <= hi
    val = (lo + hi) / 2
  return sub + [val]


class Face:
  """A face of the cone: the generator indices lying on it, plus lattice data."""

  def __init__(self, indices, dim, lattice_basis):
    self.indices = frozenset(indices)
    self.dim = dim
    self.lattice_basis = lattice_basis  # rows; basis of span(face) cap Z^r (reduced coords)

  def __repr__(self):
    return f"Face(indices={sorted(self.indices)}, dim={self.dim})"


class AffineMonoid:
  """Gamma_+ smash the semigroup generated by integer vectors in a sharp cone.

  Parameters
  ----------
  dim : ambient lattice rank.
  generators : list of integer vectors of length dim (the cone/semigroup part).
  units : UnitGroupDescriptor for Gamma (defaults to trivial).
  ideal : optional list of generator-exponent vectors; each exponent vector e
          denotes the element sum_i e[i] * generators[i], and the ideal they
          generate is collapsed to zero.
  """

  def __init__(self, dim, generators, units=None, ideal=None, name=None):
    self.dim = int(dim)
    self.generators = [list(map(int, g)) for g in generators]
    for g in self.generators:
      if len(g) != self.dim:
        raise InvalidStructure("generator has wrong length")
      if not any(g):
        raise InvalidStructure("zero vector is not a valid cone generator")
    self.unit_group = units or UnitGroupDescriptor(0, [])
    self.ideal = [list(map(int, e)) for e in (ideal or [])]
    for e in self.ideal:
      if len(e) != len(self.generators):
        raise InvalidStructure("ideal exponent vector has wrong length")
      if any(x < 0 for x in e):
        raise InvalidStructure("ideal exponents must be nonnegative")
    self.name = name
    self._reduced_cache = None
    self._faces_cache = None

  # -- reduced coordinates ---------------------------------------------------

  def _reduced(self):
    """(basis_rows, reduced_generators): coordinates on span(gens) cap Z^dim."""
    if self._reduced_cache is None:
      if not self.generators:
        self._reduced_cache = ([], [])
      else:
        orth = intlin.kernel_basis(self.generators)
        if orth:
          basis = intlin.kernel_basis(orth)
        else:
          basis = intlin.identity_matrix(self.dim)
        reduced = []
        for g in self.generators:
          coords = intlin.solve(intlin.transpose(basis), g)
          assert coords is not None, "generator outside its own saturated span"
          reduced.append(coords)
        self._reduced_cache = (basis, reduced)
    return self._reduced_cache

  @property
  def cone_dim(self):
    basis, _ = self._reduced()
    return len(basis)

  def positive_functional(self):
    """An integer functional f (reduced coords) with f.g >= 1 on generators."""
    _, gens = self._reduced()
    r = self.cone_dim
    if r == 0:
      return []
    sol = solve_inequalities([(g, 1) for g in gens], r)
    if sol is None:
      return None
    scale = 1
    for x in sol:
      scale = scale * x.denominator // gcd(scale, x.denominator)
    return [int(x * scale) for x in sol]

  def is_sharp(self):
    return not self.generators or self.positive_functional() is not None

  def units(self):
    """The unit group descriptor Gamma."""
    return self.unit_group

  def validate(self):
    v = []
    if not self.is_sharp():
      v.append("cone is not sharp: it contains a line")
    return ValidationReport(self.name or "affine monoid", v)

  # -- membership -------------------------------------------------------------

  def _in_span(self, x):
    basis, _ = self._reduced()
    if not basis:
      return all(c == 0 for c in x)
    coords = intlin.solve(intlin.transpose(basis), list(x))
    return coords

  def cone_contains(self, x):
    """Is the ambient vector x in the real cone spanned by the generators?"""
    coords = self._in_span(x)
    if coords is None or coords is False:
      return False
    if not self.generators:
      return True
    _, gens = self._reduced()
    # x in cone iff the facet functionals are nonnegative and x in span
    for normal, _ in self._facets():
      if _dot(normal, coords) < 0:
        return False
    # facets only cut the cone's span; containment within lower-dimensional
    # cones is already handled since we work in reduced coordinates
    return True

  def semigroup_contains(self, x):
    """Is the ambient vector x a nonnegative integer combination of generators?"""
    coords = self._in_span(x)
    if coords is None or coords is False:
      return False
    _, gens = self._reduced()
    if not gens:
      return all(c == 0 for c in coords)
    f = self.positive_functional()
    assert f is not None, "membership search needs a sharp cone"
    memo = {}

    def search(pt):
      if all(c == 0 for c in pt):
        return True
      key = tuple(pt)
      if key in memo:
        return memo[key]
      memo[key] = False
      if _dot(f, pt) < 0:
        return False
      for g in gens:
        nxt = [a - b for a, b in zip(pt, g)]
        if _dot(f, nxt) >= 0 and search(nxt):
          memo[key] = True
          return True
      return False

    return search(list(coords))

  # -- faces, facets, primes ---------------------------------------------------

  def _facets(self):
    """List of (primitive normal in reduced coords, frozenset of gen indices)."""
    _, gens = self._reduced()
    r = self.cone_dim
    if r == 0:
      return []
    if r == 1:
      sign = 1 if gens[0][0] > 0 else -1
      return [([sign], frozenset())]
    facets = {}
    for combo in itertools.combinations(range(len(gens)), r - 1):
      sub = [gens[i] for i in combo]
      ker = intlin.kernel_basis(sub)
      if len(ker) != 1:
        continue
      normal = _primitive(ker[0])
      vals = [_dot(normal, g) for g in gens]
      if all(v <= 0 for v in vals):
        normal = [-c for c in normal]
        vals = [-v for v in vals]
      elif not all(v >= 0 for v in vals):
        continue
      on_facet = frozenset(i for i, v in enumerate(vals) if v == 0)
      facet_gens = [gens[i] for i in on_facet]
      if facet_gens and intlin.rank(facet_gens) == r - 1:
        facets[tuple(normal)] = on_facet
    return [(list(n), idx) for n, idx in sorted(facets.items())]

  def facets(self):
    """(primitive inner normal, sorted generator indices) per facet.

    Normals live in the reduced coordinates of the cone's span and are
    nonnegative on every generator.
    """
    return [(list(n), sorted(idx)) for n, idx in self._facets()]

  def faces(self):
    """All faces of the cone (including the cone itself and its vertex)."""
    if self._faces_cache is not None:
      return self._faces_cache
    _, gens = self._reduced()
    all_idx = frozenset(range(len(gens)))
    facets = self._facets()
    seen = {}
    for k in range(len(facets) + 1):
      for combo in itertools.combinations(facets, k):
        idx = all_idx
        for _, on_facet in combo:
          idx &= on_facet
        if idx not in seen:
          face_gens = [gens[i] for i in sorted(idx)]
          if face_gens:
            orth = intlin.kernel_basis(face_gens)
            basis = intlin.kernel_basis(orth) if orth else intlin.identity_matrix(self.cone_dim)
          else:
            basis = []
          seen[idx] = Face(idx, len(basis), basis)
    faces = sorted(seen.values(), key=lambda f: (-f.dim, sorted(f.indices)))
    self._faces_cache = faces
    return faces

  def primes(self):
    """Primes correspond to faces; height = cone_dim - dim(face)."""
    if self.ideal:
      raise InvalidStructure("primes are computed on the cancellative form; "
                             "convert quotients to a finite monoid first")
    out = []
    for face in self.faces():
      height = self.cone_dim - face.dim
      label = "p_face(" + ",".join(map(str, sorted(face.indices))) + ")"
      out.append(PrimeIdeal(self, height, face=sorted(face.indices), label=label))
    return out

  def face_of_prime(self, prime):
    for face in self.faces():
      if face.indices == frozenset(prime.face):
        return face
    raise InvalidStructure("prime does not name a face of this cone")

  # -- structure theory ---------------------------------------------------------

  def group_completion_units(self):
    """Units of the localization at the minimal prime: Gamma + Z^cone_dim."""
    return UnitGroupDescriptor(self.unit_group.free_rank + self.cone_dim,
                               self.unit_group.torsion)

  def localize(self, prime):
    """Invert the face of a prime: its lattice span joins the units."""
    if self.ideal:
      raise InvalidStructure("localization is implemented on the cancellative form")
    face = self.face_of_prime(prime)
    _, gens = self._reduced()
    r = self.cone_dim
    if face.dim == 0:
      return AffineMonoid(self.dim, self.generators, self.unit_group, name=self.name)
    K = face.lattice_basis
    D, U, V = intlin.smith_normal_form(K)
    assert all(D[i][i] == 1 for i in range(len(K))), "face lattice must be saturated"
    f = len(K)
    survivors = [g for i, g in enumerate(gens) if i not in face.indices]
    new_gens = []
    for g in survivors:
      image = intlin.vec_mat(g, V)[f:]
      assert any(image), "non-face generator projected to zero"
      new_gens.append(image)
    new_units = UnitGroupDescriptor(self.unit_group.free_rank + f, self.unit_group.torsion)
    return AffineMonoid(r - f, new_gens, new_units,
                        name=f"{self.name or 'A'} localized at {prime.label}")

  def essential_generator_indices(self):
    """Generators that are not products of the others (after deduplication)."""
    _, gens = self._reduced()
    out = []
    seen = set()
    for i, g in enumerate(gens):
      if tuple(g) in seen:
        continue
      seen.add(tuple(g))
      others = [h for h in gens if tuple(h) != tuple(g)]
      if not others or not AffineMonoid(self.cone_dim, others).semigroup_contains(g):
        out.append(i)
    return out

  def is_normal(self):
    """Does the semigroup contain every ambient lattice point of its cone?

    Checked on the zonotope of the generators: the minimal lattice
    generators of the saturation all lie in the box spanned by generator
    sums, so scanning that box is exhaustive.
    """
    if self.ideal:
      raise InvalidStructure("normality applies to the cancellative form")
    if not self.generators:
      return True
    _, gens = self._reduced()
    r = self.cone_dim
    lo = [sum(min(0, g[j]) for g in gens) for j in range(r)]
    hi = [sum(max(0, g[j]) for g in gens) for j in range(r)]
    for point in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
      pt = list(point)
      basis, _ = self._reduced()
      ambient = intlin.vec_mat(pt, basis) if basis else []
      if not self.cone_contains(ambient):
        continue
      if not self.semigroup_contains(ambient):
        return False
    return True

  def is_zero_smooth(self):
    """Is this Gamma_+ smash a free monoid on part of a lattice basis?"""
    if self.ideal:
      return False
    ess = self.essential_generator_indices()
    _, gens = self._reduced()
    pts = [gens[i] for i in ess]
    if not pts:
      return True
    if intlin.rank(pts) != len(pts):
      return False
    return all(d == 1 for d in intlin.invariant_factors(pts))

  def is_dvm(self):
    """A discrete valuation monoid: 0-smooth with exactly one generator."""
    return self.is_zero_smooth() and len(self.essential_generator_indices()) == 1

  def is_pc(self):
    """Partial cancellativity.

    With an empty ideal the monoid is cancellative, hence pc.  With an
    ideal, the decision runs on the finite residue set when one exists
    (certified by every generator having a power inside the ideal);
    otherwise the question has no finite certificate here and Undecidable
    is raised.
    """
    if not self.ideal:
      return True
    finite, _ = self._residues_finite()
    if not finite:
      raise Undecidable("quotient has infinitely many residues; "
                        "no finite pc certificate available")
    reduced = self.cone_part_quotient_monoid()
    return reduced.is_pc()

  # -- ideal quotients -----------------------------------------------------------

  def ideal_points(self):
    """Ambient lattice points of the recorded ideal generators."""
    out = []
    for e in self.ideal:
      pt = [0] * self.dim
      for coeff, g in zip(e, self.generators):
        pt = [a + coeff * b for a, b in zip(pt, g)]
      out.append(pt)
    return out

  def in_ideal(self, x):
    """Is the ambient point x in the ideal generated by the recorded points?"""
    if not self.ideal:
      return False
    for m in self.ideal_points():
      diff = [a - b for a, b in zip(x, m)]
      if self.semigroup_contains(diff):
        return True
    return False

  def _residues_finite(self, power_bound=50):
    """(is_finite, per-generator power certificate) for the residue set."""
    if not self.ideal:
      return (not self.generators, [])
    certs = []
    for g in self.generators:
      found = None
      for k in range(1, power_bound + 1):
        if self.in_ideal([k * c for c in g]):
          found = k
          break
      if found is None:
        return (False, [])
      certs.append(found)
    return (True, certs)

  def residue_points(self):
    """The finitely many semigroup points outside the ideal (with certificate)."""
    finite, _ = self._residues_finite()
    if not finite:
      raise Undecidable("residue set is not finite (or certificate not found)")
    zero = [0] * self.dim
    seen = {tuple(zero)}
    frontier = [zero]
    out = [zero]
    while frontier:
      pt = frontier.pop()
      for g in self.generators:
        nxt = [a + b for a, b in zip(pt, g)]
        if tuple(nxt) in seen or self.in_ideal(nxt):
          continue
        seen.add(tuple(nxt))
        out.append(nxt)
        frontier.append(nxt)
    return sorted(out)

  def cone_part_quotient_monoid(self):
    """The finite monoid of residues (ignoring Gamma), ideal collapsed to *."""
    residues = self.residue_points()

    def pname(pt):
      if not any(pt):
        return "1"
      return "x(" + ",".join(map(str, pt)) + ")"

    names = {tuple(p): pname(p) for p in residues}
    elements = [names[tuple(p)] for p in residues] + [STAR]
    table = {}
    for p in residues:
      for q in residues:
        s = [a + b for a, b in zip(p, q)]
        if tuple(s) in names and not self.in_ideal(s):
          table[(names[tuple(p)], names[tuple(q)])] = names[tuple(s)]
        else:
          table[(names[tuple(p)], names[tuple(q)])] = STAR
      table[(names[tuple(p)], STAR)] = STAR
    table[(STAR, STAR)] = STAR
    return FiniteMonoid(elements, "1", STAR, table,
                        name=f"{self.name or 'A'} residues")

  def quotient_by_ideal(self, exponent_vectors):
    """Quotient by the ideal the given generator-exponent vectors generate.

    Returns a FiniteMonoid when the residue set (and the unit group) is
    finite; recognizes face quotients (ideal generated by the generators off
    a face); flags the terminal monoid when the ideal meets the units.
    Otherwise the ideal is recorded on a copy of this monoid.
    """
    exps = [list(map(int, e)) for e in exponent_vectors]
    for e in exps:
      if len(e) != len(self.generators):
        raise InvalidStructure("exponent vector length must match generator count")
      if all(x == 0 for x in e):
        return FiniteMonoid([STAR], STAR, STAR, {(STAR, STAR): STAR},
                            name="terminal monoid")
    combined = self.ideal + exps
    result = AffineMonoid(self.dim, self.generators, self.unit_group, combined,
                          name=f"{self.name or 'A'} mod ideal")
    finite, _ = result._residues_finite()
    if finite and self.unit_group.is_finite():
      base = result.cone_part_quotient_monoid()
      if self.unit_group.is_trivial():
        return base
      gamma = FiniteMonoid.group_with_zero(self.unit_group.torsion)
      return _smash_finite_monoids(gamma, base)
    # face quotient: ideal generated by single generators whose complement
    # spans a face
    single = [e.index(1) for e in combined
              if sum(e) == 1 and all(x in (0, 1) for x in e)]
    if len(single) == len(combined):
      removed = set(single)
      kept = [i for i in range(len(self.generators)) if i not in removed]
      for face in self.faces():
        if face.indices == frozenset(kept):
          return AffineMonoid(self.dim, [self.generators[i] for i in kept],
                              self.unit_group, name=f"{self.name or 'A'} face quotient")
    return result

  def __repr__(self):
    label = self.name or f"dim {self.dim}, {len(self.generators)} generators"
    return f"AffineMonoid({label})"

  # -- standard examples ----------------------------------------------------------

  @classmethod
  def free(cls, n):
    """N^n inside Z^n."""
    return cls(n, intlin.identity_matrix(n), name=f"N^{n}")

  @classmethod
  def dvm(cls, torsion=(), free_rank=0):
    """Discrete valuation monoid: Gamma_+ smash N."""
    return cls(1, [[1]], UnitGroupDescriptor(free_rank, torsion),
               name="DVM")

  @classmethod
  def class_group_order_two(cls):
    """The 2-dimensional normal monoid <(1,0), (1,1), (1,2)>."""
    return cls(2, [[1, 0], [1, 1], [1, 2]], name="A(2,2)")


def _smash_finite_monoids(a, b):
  """Smash product of finite pointed monoids (zeros identified)."""
  elements = []
  names = {}
  for x in a.elements:
    for y in b.elements:
      if x == a.zero or y == b.zero:
        continue
      nm = y if x == a.one else (x if y == b.one else f"{x}{y}")
      names[(x, y)] = nm
      elements.append(nm)
  elements.append(STAR)
  table = {}
  pairs = [(x, y) for x in a.elements for y in b.elements
           if x != a.zero and y != b.zero]
  for (x1, y1) in pairs:
    for (x2, y2) in pairs:
      x, y = a.mul(x1, x2), b.mul(y1, y2)
      if x == a.zero or y == b.zero:
        table[(names[(x1, y1)], names[(x2, y2)])] = STAR
      else:
        table[(names[(x1, y1)], names[(x2, y2)])] = names[(x, y)]
    table[(names[(x1, y1)], STAR)] = STAR
  table[(STAR, STAR)] = STAR
  return FiniteMonoid(elements, names[(a.one, b.one)], STAR, table,
                      name=f"{a.name or 'A'} smash {b.name or 'B'}")
