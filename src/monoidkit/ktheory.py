"""K₀-level invariants: category presentations, divisors, and the coniveau data.

Everything here is truncated to degree ≤ 1. Group K-theory enters through
two constants — K₀ of a group is ℤ, K₁ is the group plus a configured
stable summand — and all category-level K₀ groups are presented by
generators (iso classes) and relations (one per exact sequence), reduced
by Smith normal form.  On the geometric side, an affine monoid yields its
divisor matrix, class group, higher class groups W_p, and the units-lattice
shadow of the coniveau spectral sequence.
"""

from __future__ import annotations

from . import intlin
from .affine import AffineMonoid
from .asets import aset_length, is_pc_aset
from .corpora import (all_gamma_asets, all_nilpotent_asets, all_pointed_sets,
                      subquotient_relations)
from .errors import (InvalidStructure, NotNormal, NotZeroSmooth,
                     UnsupportedDegree)
from .groups import (AbelianGroupPresentation, FiniteAbelianGroup,
                     invariants_from_abelian_group)
from .intlin import smith_normal_form
from .monoids import UnitGroupDescriptor
from .serre import _inverse, hom_quotient

SCHEMA_VERSION = 1


class StableConstants:
  """Configured stable homotopy input: the group used for π₁ˢ."""

  def __init__(self, pi1s=None):
    self.pi1s = pi1s or AbelianGroupPresentation.from_cyclic_orders([2])

  def __repr__(self):
    return f"StableConstants(pi1s={self.pi1s})"

  def to_json(self):
    return {"pi1s": self.pi1s.to_json()}


def k_gamma(gamma, n, constants=None):
  """K_n of a finite abelian group, n ∈ {0, 1}.

  Degree 0 is ℤ; degree 1 is the group itself plus the configured stable
  summand.  Anything else is out of reach at this truncation.
  """
  constants = constants or StableConstants()
  if n == 0:
    return AbelianGroupPresentation.free(1)
  if n == 1:
    return gamma.presentation().direct_sum(constants.pi1s)
  raise UnsupportedDegree(f"K_{n} is not modeled; only degrees 0 and 1 are")


def burnside_rank(gamma):
  """Number of subgroups of a finite abelian group, with the subgroups.

  This is the rank of the Burnside ring: one basis orbit per subgroup.
  """
  if not gamma.is_finite():
    raise InvalidStructure("the Burnside ring needs a finite group")
  group = FiniteAbelianGroup(gamma.torsion or [1])
  subs = group.subgroups()
  return len(subs), subs


# --------------------------------------------------------- K0 presentations


class K0Result:
  """K₀ of a subquotient-closed list of objects, with the class map.

  ``group`` is the cokernel of the relation matrix in canonical form;
  ``class_of(X)`` locates X among the representatives and returns its class
  as (free coordinates, torsion coordinates) in that canonical form.
  """

  def __init__(self, reps, relations):
    self.reps = reps
    self.relations = relations
    self._free_slots, self._torsion_slots, self._basis = \
        self._coordinates(relations, len(reps))
    self.group = AbelianGroupPresentation(
        len(self._free_slots), [d for _, d in self._torsion_slots])

  @staticmethod
  def _coordinates(rows, n):
    if not rows:
      vt = intlin.identity_matrix(n)
      return list(range(n)), [], vt
    D, _, V = smith_normal_form(rows)
    vt = intlin.transpose(V)
    diag = intlin.diagonal(D)
    diag += [0] * (n - len(diag))
    free = [j for j, d in enumerate(diag) if d == 0]
    torsion = [(j, d) for j, d in enumerate(diag) if d > 1]
    return free, torsion, vt

  def _raw_class(self, index):
    e = [0] * len(self.reps)
    e[index] = 1
    y = intlin.mat_vec(self._basis, e)
    return ([y[j] for j in self._free_slots],
            [y[j] % d for j, d in self._torsion_slots])

  def _sign_table(self):
    # orient each free coordinate so the first object using it is positive
    signs = [0] * len(self._free_slots)
    for i in range(len(self.reps)):
      free, _ = self._raw_class(i)
      for k, v in enumerate(free):
        if signs[k] == 0 and v != 0:
          signs[k] = 1 if v > 0 else -1
      if all(signs):
        break
    return [s or 1 for s in signs]

  def class_vector(self, index):
    free, torsion = self._raw_class(index)
    signs = self._sign_table()
    free = [s * v for s, v in zip(signs, free)]
    return tuple(free), tuple(torsion)

  def index_of(self, X):
    for i, rep in enumerate(self.reps):
      if rep.size() == X.size() and rep.is_isomorphic(X):
        return i
    raise InvalidStructure("object is not in the closed corpus")

  def class_of(self, X):
    return self.class_vector(self.index_of(X))

  def additivity_holds(self):
    """Re-check every relation through the canonical class map."""
    signs = self._sign_table()
    for row in self.relations:
      free = [0] * len(self._free_slots)
      tors = [0] * len(self._torsion_slots)
      for i, c in enumerate(row):
        if not c:
          continue
        f, t = self._raw_class(i)
        free = [a + c * b for a, b in zip(free, f)]
        tors = [a + c * b for a, b in zip(tors, t)]
      if any(s * v != 0 for s, v in zip(signs, free)):
        return False
      if any(v % d for v, (_, d) in zip(tors, self._torsion_slots)):
        return False
    return True


def k0_of_catspec(objects, closure_bound=64):
  """Present K₀ of the quasi-exact category generated by the given objects.

  Closes the list under subquotients up to isomorphism (erroring past the
  bound), imposes one relation per distinct nonzero sequence class, and
  reduces.
  """
  return K0Result(*subquotient_relations(objects, bound=closure_bound))


# ----------------------------------------------------- K0 of M/C and MC=MC


def are_iso_in_quotient(X, Y, pred):
  """Is there an isomorphism X → Y in M/C?"""
  return X.is_isomorphic(Y) or any(_inverse(f) is not None
                                   for f in hom_quotient(X, Y, pred))


class QuotientK0Result:
  """K₀ of M/C on a closed corpus: M-objects, M/C iso classes, M-relations.

  The relations are the M-relations pushed onto the M/C classes (each
  M/C column is the sum of the M-columns it merges), without zero or
  repeated rows.
  """

  def __init__(self, reps, pred, m_relations):
    self.pred = pred
    self.reps = reps
    self.class_index = self._partition(reps, pred)
    n = max(self.class_index) + 1 if self.class_index else 0
    rows = {}
    for rel in m_relations:
      row = [0] * n
      for i, c in enumerate(rel):
        row[self.class_index[i]] += c
      if any(row):
        rows.setdefault(tuple(row), row)
    self.n_classes = n
    self.relations = list(rows.values())
    self.group = AbelianGroupPresentation.from_relations(self.relations, n)

  @staticmethod
  def _partition(reps, pred):
    owner = {}
    leaders = []
    for i, X in enumerate(reps):
      for cls, leader in enumerate(leaders):
        if are_iso_in_quotient(X, reps[leader], pred):
          owner[i] = cls
          break
      else:
        owner[i] = len(leaders)
        leaders.append(i)
    return [owner[i] for i in range(len(reps))]


def localization_exactness_k0(objects, pred, closure_bound=64):
  """π₀ shadow of the localization fibration: K₀(C) → K₀(M) → K₀(M/C).

  Verifies that the composite is zero, that the kernel of the right map is
  exactly the image of the left one (as subgroups of K₀(M)), and that the
  right map is surjective — all by integer lattice computations.
  """
  reps, m_rel = subquotient_relations(objects, bound=closure_bound)
  m_k0 = K0Result(reps, m_rel)
  c_indices = [i for i, X in enumerate(reps) if pred.contains(X)]
  quot = QuotientK0Result(reps, pred, m_rel)

  n_m = len(reps)
  # the right map sends the i-th M-generator to its M/C class generator
  to_q = [[0] * n_m for _ in range(quot.n_classes)]
  for i in range(n_m):
    to_q[quot.class_index[i]][i] = 1

  def q_zero(vec):
    img = intlin.mat_vec(to_q, vec)
    return intlin.lattice_contains(quot.relations, img)

  composite_zero = all(q_zero([1 if j == i else 0 for j in range(n_m)])
                       for i in c_indices)
  m_rels_die = all(q_zero(r) for r in m_rel)

  # kernel of K0(M) -> K0(M/C), as a sublattice of Z^{n_m} containing m_rel
  ext = [to_q[r][:] + [-rel[r] for rel in quot.relations]
         for r in range(quot.n_classes)]
  kernel_vecs = [v[:n_m] for v in intlin.kernel_basis(ext)]
  image_vecs = [[1 if j == i else 0 for j in range(n_m)] for i in c_indices]
  middle_exact = intlin.lattice_equal(kernel_vecs + m_rel,
                                      image_vecs + m_rel,
                                      ambient_dim=n_m)

  c_objects = [reps[i] for i in c_indices]
  c_k0 = k0_of_catspec(c_objects, closure_bound) if c_objects else \
      K0Result([], [])

  return LocalizationReport(
      c_group=c_k0.group, m_group=m_k0.group, q_group=quot.group,
      composite_zero=composite_zero and m_rels_die,
      middle_exact=middle_exact,
      right_surjective=True,  # M/C generators are classes of M objects
      n_classes_m=n_m, n_classes_q=quot.n_classes, pred=pred)


class LocalizationReport:
  def __init__(self, **kw):
    self.__dict__.update(kw)

  @property
  def ok(self):
    return self.composite_zero and self.middle_exact and self.right_surjective

  def __bool__(self):
    return self.ok

  def to_json(self):
    return {"schema_version": SCHEMA_VERSION,
            "k0_C": self.c_group.to_json(),
            "k0_M": self.m_group.to_json(),
            "k0_M_mod_C": self.q_group.to_json(),
            "composite_zero": self.composite_zero,
            "middle_exact": self.middle_exact,
            "right_surjective": self.right_surjective,
            "ok": self.ok}

  def __str__(self):
    flags = (f"composite zero: {self.composite_zero}, "
             f"exact at middle: {self.middle_exact}, "
             f"right map surjective: {self.right_surjective}")
    return (f"K0(C) = {self.c_group}  ->  K0(M) = {self.m_group}  ->  "
            f"K0(M/C) = {self.q_group}\n  {flags}")


# ------------------------------------------------------------------ devissage


def _unit_descriptor(monoid):
  units = monoid.unit_elements()
  pres = invariants_from_abelian_group(units, monoid.mul, monoid.one)
  return UnitGroupDescriptor(pres.free_rank, pres.invariant_factors)


def devissage_check_k0(monoid, pc, max_elements=None, closure_bound=64):
  """Compare K₀ of (pc) finite-length sets with the group-level answer.

  The pc route should see K₀(Γ) = ℤ with classes given by length; without
  pc the comparison is against the Burnside rank (one generator per
  subgroup of the units).
  """
  units = set(monoid.unit_elements())
  gamma = _unit_descriptor(monoid)
  if max_elements is None:
    max_elements = max(4, len(units) + 2)
  if units == set(monoid.elements) - {monoid.zero}:
    corpus = [X for X, _ in all_gamma_asets(monoid, max_elements)]
  elif not monoid.generators():
    corpus = all_pointed_sets(monoid, max_elements)
  else:
    corpus = all_nilpotent_asets(monoid, max_elements)
  if pc:
    corpus = [X for X in corpus
              if is_pc_aset(X) and aset_length(X) is not None]
    expected = k_gamma(gamma, 0)
  else:
    rank, _ = burnside_rank(gamma)
    expected = AbelianGroupPresentation.free(rank)

  k0 = k0_of_catspec(corpus, closure_bound)
  rows = []
  if pc:
    for X in corpus:
      free, tors = k0.class_of(X)
      rows.append({"object": X.name or "?", "class": list(free) + list(tors),
                   "length": aset_length(X)})
  class_ok = all(r["class"] == [r["length"]] for r in rows) if pc else True
  return DevissageReport(monoid=monoid, pc=pc, computed=k0.group,
                         expected=expected, rows=rows,
                         match=(k0.group == expected) and class_ok, k0=k0)


class DevissageReport:
  def __init__(self, **kw):
    self.__dict__.update(kw)

  def __bool__(self):
    return self.match

  def to_json(self):
    return {"schema_version": SCHEMA_VERSION,
            "monoid": self.monoid.name, "pc": self.pc,
            "computed": self.computed.to_json(),
            "expected": self.expected.to_json(),
            "classes": self.rows, "match": self.match}

  def __str__(self):
    side = "K0(Gamma)" if self.pc else "Burnside rank"
    return (f"devissage over {self.monoid.name} (pc={self.pc}): "
            f"computed {self.computed}, {side} gives {self.expected}: "
            f"{'match' if self.match else 'MISMATCH'}")


# ------------------------------------------------------ divisors and classes


def div_matrix(A):
  """Matrix of div: (cone part of) units(A₀) → ℤ^{height-1 primes}.

  Rows are indexed by the height-1 primes in facet order; columns by the
  reduced lattice basis of the cone's span.  Unit-group torsion (and the Γ
  free part) is killed by every valuation and is omitted: it sits in the
  kernel of div by construction.
  """
  if not A.is_normal():
    raise NotNormal(f"{A.name or 'monoid'} is not normal")
  return [list(normal) for normal, _ in A.facets()]


def class_group(A):
  """Cl(A): cokernel of the divisor map, in canonical form."""
  M = div_matrix(A)
  n = len(M)
  return AbelianGroupPresentation.from_relations(intlin.transpose(M), n)


# ------------------------------------------------ the coniveau lattice data


def _face_coordinates(face, vec):
  """Coordinates of vec in the saturated lattice basis of a face."""
  sol = intlin.solve(intlin.transpose(face.lattice_basis), list(vec))
  if sol is None:
    raise InvalidStructure("vector does not lie in the face lattice")
  return sol


def _pair_functional(A, face, subface):
  """Primitive functional on a face lattice vanishing on a facet of the face.

  Normalized to be nonnegative on the generators lying on the face (this is
  the valuation of the residue monoid at its height-1 prime given by the
  subface).
  """
  if subface.dim:
    rows = [_face_coordinates(face, r) for r in subface.lattice_basis]
    ker = intlin.kernel_basis(rows)
  else:
    ker = intlin.identity_matrix(face.dim)
  if len(ker) != 1:
    raise InvalidStructure("face pair is not of colength one")
  w = ker[0]
  _, gens = A._reduced()
  vals = []
  for i in sorted(face.indices):
    coords = _face_coordinates(face, gens[i])
    vals.append(sum(a * b for a, b in zip(w, coords)))
  if any(v < 0 for v in vals):
    if any(v > 0 for v in vals):
      raise InvalidStructure("face functional changes sign on the face")
    w = [-c for c in w]
  return w


class LatticeComplex:
  """Units-lattice shadow of the coniveau E₁ page of an affine monoid.

  For each height p the data holds the unit lattices u(s) of the residue
  groups at the height-p primes (free parts; unit torsion is carried once,
  globally) and the valuation matrix into the free abelian group on the
  height-(p+1) primes.  The differential drops degree by one, so the
  assembled square is zero; the stable summands are mapped to zero by
  modeling assumption.
  """

  def __init__(self, A, constants=None):
    if not A.is_normal():
      raise NotNormal(f"{A.name or 'monoid'} is not normal")
    self.monoid = A
    self.constants = constants or StableConstants()
    self.gamma_free = A.unit_group.free_rank
    self.gamma_torsion = list(A.unit_group.torsion)
    d = A.cone_dim
    faces = {frozenset(p.face): A.face_of_prime(p) for p in A.primes()}
    self.primes = [[] for _ in range(d + 1)]
    for p in A.primes():
      self.primes[p.height].append(p)
    for level in self.primes:
      level.sort(key=lambda p: p.face)
    self.val = [self._step_matrix(A, faces, p) for p in range(d)]

  def _step_matrix(self, A, faces, p):
    sources = [faces[frozenset(q.face)] for q in self.primes[p]]
    targets = [faces[frozenset(q.face)] for q in self.primes[p + 1]]
    width = sum(f.dim for f in sources)
    rows = []
    for tf in targets:
      row = []
      for sf in sources:
        # faces of a cone are ordered by inclusion of generator index sets,
        # and consecutive heights differ in dimension by exactly one, so
        # containment here always means "facet of".
        if tf.indices <= sf.indices:
          row.extend(_pair_functional(A, sf, tf))
        else:
          row.extend([0] * sf.dim)
      assert len(row) == width
      rows.append(row)
    return rows

  def unit_rank(self, p):
    """Free rank of ⊕ u(s) over the height-p primes (with the Γ parts)."""
    faces_dim = sum(self.monoid.cone_dim - q.height for q in self.primes[p])
    return faces_dim + self.gamma_free * len(self.primes[p])

  def k0_rank(self, p):
    return len(self.primes[p])

  def differential(self, p):
    return self.val[p]

  def dd_is_zero(self):
    """Assemble the total differential and square it.

    Unit lattices map only into the K₀ slots one height up, and K₀ slots
    map nowhere, so the square vanishes; this verifies it numerically on
    the assembled block matrix.
    """
    blocks = []
    offsets = {}
    pos = 0
    d = self.monoid.cone_dim
    for p in range(d + 1):
      offsets[("u", p)] = pos
      pos += sum(self.monoid.cone_dim - q.height for q in self.primes[p])
      offsets[("k", p)] = pos
      pos += self.k0_rank(p)
    total = [[0] * pos for _ in range(pos)]
    for p in range(d):
      M = self.val[p]
      r0, c0 = offsets[("k", p + 1)], offsets[("u", p)]
      for i, row in enumerate(M):
        for j, v in enumerate(row):
          total[r0 + i][c0 + j] = v
    sq = intlin.matmul(total, total)
    return all(all(v == 0 for v in row) for row in sq)

  def w_group(self, p):
    """W_p = E₂^{p,−p}: cokernel of the valuation matrix into height p."""
    if p < 1:
      raise InvalidStructure("W_p is defined for p >= 1")
    if p > self.monoid.cone_dim:
      return AbelianGroupPresentation.trivial()
    M = self.val[p - 1]
    return AbelianGroupPresentation.from_relations(intlin.transpose(M),
                                                   self.k0_rank(p))

  def display_ranks(self):
    """Rank sequence of the displayed complex: units(A₀), then K₀ slots."""
    return [self.unit_rank(0)] + \
        [self.k0_rank(p) for p in range(1, self.monoid.cone_dim + 1)]

  def __repr__(self):
    ranks = self.display_ranks()
    def term(r):
      return {0: "0", 1: "Z"}.get(r, f"Z^{r}")
    chain = " -> ".join(term(r) for r in ranks)
    return f"LatticeComplex({self.monoid.name or 'A'}: {chain})"


def gersten_complex(A, constants=None):
  """The units-lattice coniveau data of a normal affine monoid."""
  return LatticeComplex(A, constants)


def w_group(A, p):
  """Higher class group W_p of a normal affine monoid."""
  return gersten_complex(A).w_group(p)


# -------------------------------------------------------------------- reports


class ConiveauReport:
  def __init__(self, A, graded, conclusion_group, resolved, annotations):
    self.monoid = A
    self.graded = graded
    self.conclusion_group = conclusion_group
    self.resolved = resolved
    self.annotations = annotations

  def conclusion(self):
    if self.resolved:
      return str(self.conclusion_group).replace(" ", "")
    return "surjects onto " + str(self.conclusion_group).replace(" ", "")

  def to_json(self):
    return {"schema_version": SCHEMA_VERSION,
            "monoid": self.monoid.name,
            "graded": [g.to_json() for g in self.graded],
            "conclusion": self.conclusion(),
            "resolved": self.resolved,
            "annotations": self.annotations}

  def __str__(self):
    pieces = ", ".join(str(g) for g in self.graded)
    lines = [f"coniveau graded pieces of K'0({self.monoid.name or 'A'}): "
             f"({pieces})",
             f"K'0 {'=' if self.resolved else 'surjects onto'} "
             f"{self.conclusion_group}"]
    lines += [f"  note: {a}" for a in self.annotations]
    return "\n".join(lines)


def coniveau_k0_report(A):
  """E₂^{p,−p} ladder for K′₀: ℤ, then Cl, then the higher class groups.

  The target ℤ ⊕ Cl is always a quotient of K′₀; when every W_p (p ≥ 2)
  vanishes the graded group is complete and the one extension (by a free
  group) splits, so the conclusion is an isomorphism.
  """
  cx = gersten_complex(A)
  cl = class_group(A)
  graded = [AbelianGroupPresentation.free(1), cl]
  graded += [cx.w_group(p) for p in range(2, A.cone_dim + 1)]
  higher_vanish = all(g.is_trivial() for g in graded[2:])
  target = AbelianGroupPresentation.free(1).direct_sum(cl)
  annotations = [
      "filtration quotients beyond E_2 may shrink under higher "
      "differentials from stable summands; reported at E_2",
  ]
  if not higher_vanish:
    annotations.append("extension problem left unresolved: some W_p != 0")
  if A.cone_dim == 2 and A.is_normal():
    annotations.append("2-dimensional normal case: the kernel of "
                       "K'0 -> Z+Cl is generated by the residue class")
  return ConiveauReport(A, graded, target, higher_vanish, annotations)


class DvmReport:
  def __init__(self, gamma, constants, e1, d1_surjective, d1_kernel,
               expected_kernel, k_prime):
    self.gamma = gamma
    self.constants = constants
    self.e1 = e1
    self.d1_surjective = d1_surjective
    self.d1_kernel = d1_kernel
    self.expected_kernel = expected_kernel
    self.k_prime = k_prime

  @property
  def ok(self):
    return self.d1_surjective and self.d1_kernel == self.expected_kernel

  def __bool__(self):
    return self.ok

  def to_json(self):
    return {"schema_version": SCHEMA_VERSION,
            "gamma": self.gamma.to_json(),
            "pi1s": self.constants.pi1s.to_json(),
            "e1": {k: v.to_json() for k, v in self.e1.items()},
            "d1_surjective": self.d1_surjective,
            "d1_kernel": self.d1_kernel.to_json(),
            "K'0": self.k_prime[0].to_json(),
            "K'1": self.k_prime[1].to_json(),
            "assumption": "d1 vanishes on the stable summand",
            "ok": self.ok}

  def __str__(self):
    lines = [f"valuation monoid over Gamma = {self.gamma}: "
             f"(pi1s = {self.constants.pi1s})"]
    lines.append(f"  E1 column p=0: degree 0: {self.e1['00']}, "
                 f"degree 1: {self.e1['01']}")
    lines.append(f"  E1 column p=1: degree 1 slot: {self.e1['11']}")
    lines.append(f"  d1 onto Z: {'surjective' if self.d1_surjective else 'NOT surjective'}"
                 f", kernel {self.d1_kernel} "
                 f"(expected K1(Gamma) = {self.expected_kernel})")
    lines.append(f"  K'0 = {self.k_prime[0]}, K'1 = {self.k_prime[1]}")
    lines.append("  assumption: d1 is zero on the stable summand")
    return "\n".join(lines)


def dvm_report(gamma, constants=None):
  """E₁ data of a discrete valuation monoid Γ₊ ∧ ℕ in degrees ≤ 1.

  The height-0 stalk has units Γ × ℤ; d₁ projects its K₁ onto the ℤ slot
  of the height-1 point (the class of the parameter goes to ±1), so d₁ is
  onto with kernel K₁(Γ), leaving K′₀ = ℤ and K′₁ = K₁(Γ).
  """
  constants = constants or StableConstants()
  k1_gamma = k_gamma(gamma, 1, constants)
  # units of the height-0 stalk: Gamma x Z, plus the stable summand
  k1_stalk = gamma.presentation().direct_sum(
      AbelianGroupPresentation.free(1)).direct_sum(constants.pi1s)
  e1 = {"00": k_gamma(gamma, 0, constants),
        "01": k1_stalk,
        "11": k_gamma(gamma, 0, constants)}
  # d1 projects the free Z of the parameter onto K0(Gamma) = Z and kills
  # Gamma (units of the valuation monoid) and, by assumption, pi1s.
  surjective = k1_stalk.free_rank >= 1
  kernel = AbelianGroupPresentation.from_cyclic_orders(
      [0] * (k1_stalk.free_rank - 1) + list(k1_stalk.invariant_factors))
  return DvmReport(gamma, constants, e1,
                   d1_surjective=surjective, d1_kernel=kernel,
                   expected_kernel=k1_gamma,
                   k_prime={0: k_gamma(gamma, 0, constants), 1: k1_gamma})


class GerstenReport:
  def __init__(self, A, smooth, h0_ok, torsion_ok, w_groups, expected_failure):
    self.monoid = A
    self.smooth = smooth
    self.h0_ok = h0_ok
    self.torsion_ok = torsion_ok
    self.w_groups = w_groups
    self.expected_failure = expected_failure

  @property
  def ok(self):
    return self.h0_ok and self.torsion_ok and \
        all(g.is_trivial() for g in self.w_groups.values())

  def __bool__(self):
    return self.ok

  def h(self, p):
    return self.w_groups[p]

  def to_json(self):
    return {"schema_version": SCHEMA_VERSION,
            "monoid": self.monoid.name,
            "zero_smooth": self.smooth,
            "H0_is_units": self.h0_ok,
            "unit_torsion_matches": self.torsion_ok,
            "H": {str(p): g.to_json() for p, g in self.w_groups.items()},
            "exact": self.ok,
            "expected_failure": self.expected_failure}

  def __str__(self):
    status = "exact" if self.ok else \
        ("fails (expected: not 0-smooth)" if self.expected_failure
         else "FAILS")
    hs = ", ".join(f"H^{p} = {g}" for p, g in sorted(self.w_groups.items()))
    return (f"augmented units-lattice complex of {self.monoid.name or 'A'}: "
            f"{status}; {hs}")


def gersten_exactness_check(A, strict=True):
  """Exactness of 0 → units(A) → units(A₀) → C¹ → C² → … at the lattice level.

  H⁰ is the kernel of the divisor map (it must be exactly the units of A),
  H^p for p ≥ 1 is the cokernel of the valuation matrix arriving at height
  p.  0-smooth monoids must come out exact; anything else is refused unless
  ``strict`` is off, in which case the failure is reported as expected.
  """
  smooth = A.is_zero_smooth()
  if not smooth and strict:
    raise NotZeroSmooth(f"{A.name or 'monoid'} is not 0-smooth")
  cx = gersten_complex(A)
  div = cx.val[0] if cx.val else []
  h0_ok = not intlin.kernel_basis(div) if div else A.cone_dim == 0
  torsion_ok = list(A.unit_group.torsion) == \
      list(A.group_completion_units().torsion)
  ws = {p: cx.w_group(p) for p in range(1, A.cone_dim + 1)}
  return GerstenReport(A, smooth, h0_ok, torsion_ok, ws,
                       expected_failure=not smooth)
