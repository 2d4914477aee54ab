"""Exact integer linear algebra: Smith normal form, kernels, cokernels.

Matrices are plain lists of rows of Python ints, so all arithmetic is
arbitrary-precision and exact.  Everything here returns new objects and never
mutates its arguments.

A cokernel Z^n / ⟨rows⟩ is reduced in two phases.  ``eliminate_unit_pivots``
takes sparse rows, each a dict from a column to a nonzero int: it pivots on
±1 entries, which removes a column and a row at a time with no division, and
writes each removed column as an integer combination of the columns that
survive.  Only the nonzero rows of what is left, the Schur complement, go to
``smith_normal_form``, the dense phase, which also returns the unimodular
transforms; those are what turn a relation matrix into an explicit
isomorphism onto a direct sum of cyclic groups (needed for class maps, not
just for the isomorphism type).  ``solve`` and ``kernel_basis`` use the
dense phase alone.
"""

from __future__ import annotations


def dims(M):
  """Return (#rows, #cols) of a rectangular list-of-rows matrix."""
  m = len(M)
  n = len(M[0]) if m else 0
  assert all(len(row) == n for row in M), "ragged matrix"
  return m, n


def identity_matrix(n):
  return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy_matrix(M):
  return [list(row) for row in M]


def transpose(M):
  m, n = dims(M)
  return [[M[i][j] for i in range(m)] for j in range(n)]


def mat_vec(A, v):
  m, n = dims(A)
  assert len(v) == n
  return [sum(a * b for a, b in zip(row, v)) for row in A]


def vec_mat(v, A):
  m, n = dims(A)
  assert len(v) == m
  return [sum(v[i] * A[i][j] for i in range(m)) for j in range(n)]


def _extgcd(a, b):
  """(g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
  old_r, r = a, b
  old_s, s = 1, 0
  old_t, t = 0, 1
  while r:
    q = old_r // r
    old_r, r = r, old_r - q * r
    old_s, s = s, old_s - q * s
    old_t, t = t, old_t - q * t
  if old_r < 0:
    old_r, old_s, old_t = -old_r, -old_s, -old_t
  return old_r, old_s, old_t


def eliminate_unit_pivots(rows, n, weight):
  """Sparse first phase of Smith normal form: pivot on the ±1 entries.

  Each of ``rows`` is a dict from a column in range(n) to a nonzero int.
  The rows are taken in order.  A row, once the pivots before it have been
  cleared from it, pivots on its ±1 entry in the column j of largest
  ``weight[j]`` (the lowest such j on a tie), and that column is cleared
  from every row not yet pivoted.  Returns (survivors, residual, images):

  - ``survivors``: the columns never pivoted on, in ascending order;
  - ``residual``: the nonzero rows of the Schur complement, each dense over
    the survivors, one for each row that did not pivot and was not cleared
    to zero;
  - ``images[j]``: column j written over the survivors, as a dict from a
    position in ``survivors`` to a nonzero coefficient.

  Then e_j ↦ images[j] carries Z^n / ⟨rows⟩ isomorphically onto
  Z^len(survivors) / ⟨residual⟩: a pivot row says that its pivot column
  equals an integer combination of the columns still live, and every row
  it was subtracted from keeps the same span.
  """
  live = [dict(row) for row in rows]
  where = [set() for _ in range(n)]      # column -> live rows holding it
  for r, row in enumerate(live):
    for j in row:
      where[j].add(r)
  pivots = []
  for r, row in enumerate(live):
    units = [j for j, a in row.items() if a == 1 or a == -1]
    if not units:
      continue
    c = max(units, key=lambda j: (weight[j], -j))
    a = row.pop(c)
    for j in row:
      where[j].discard(r)
    where[c].discard(r)
    for r2 in where[c]:
      other = live[r2]
      f = other.pop(c) * a               # other -= (other[c] / a) * pivot row
      for j, b in row.items():
        v = other.get(j, 0) - f * b
        if v:
          other[j] = v
          where[j].add(r2)
        else:
          del other[j]
          where[j].discard(r2)
    where[c] = ()
    live[r] = None
    pivots.append((c, {j: -a * b for j, b in row.items()}))
  pivoted = {c for c, _ in pivots}
  survivors = [j for j in range(n) if j not in pivoted]
  images = [None] * n
  for p, j in enumerate(survivors):
    images[j] = {p: 1}
  for c, combination in reversed(pivots):
    image = {}
    for j, coefficient in combination.items():
      for p, v in images[j].items():
        image[p] = image.get(p, 0) + coefficient * v
    images[c] = {p: v for p, v in image.items() if v}
  residual = [[row.get(j, 0) for j in survivors] for row in live if row]
  return survivors, residual, images


def smith_normal_form(M):
  """Diagonalize an integer matrix by unimodular row/column operations.

  Returns (D, U, V) with D = U*M*V, U and V unimodular, D diagonal with
  nonnegative entries satisfying D[i][i] | D[i+1][i+1].

  The transforms matter: if the rows of M span a sublattice L of Z^n, then
  x |-> x*V carries Z^n/L isomorphically onto the standard quotient
  (+) Z/D[i][i] (+) Z^(n-r), which is how class vectors are computed.
  """
  m, n = dims(M)
  A = copy_matrix(M)
  U = identity_matrix(m)
  V = identity_matrix(n)

  def swap_rows(i, j):
    A[i], A[j] = A[j], A[i]
    U[i], U[j] = U[j], U[i]

  def swap_cols(i, j):
    for row in A:
      row[i], row[j] = row[j], row[i]
    for row in V:
      row[i], row[j] = row[j], row[i]

  def add_row(src, dst, c):
    # row[dst] += c * row[src]
    A[dst] = [x + c * y for x, y in zip(A[dst], A[src])]
    U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

  def add_col(src, dst, c):
    for row in A:
      row[dst] += c * row[src]
    for row in V:
      row[dst] += c * row[src]

  def bezout_rows(col, i, j):
    # 2x2 unimodular block on rows (i, j): A[i][col] becomes the gcd,
    # A[j][col] becomes zero.
    p, q = A[i][col], A[j][col]
    g, s, t = _extgcd(p, q)
    a, b, c, d = s, t, -(q // g), p // g
    A[i], A[j] = ([a * x + b * y for x, y in zip(A[i], A[j])],
                  [c * x + d * y for x, y in zip(A[i], A[j])])
    U[i], U[j] = ([a * x + b * y for x, y in zip(U[i], U[j])],
                  [c * x + d * y for x, y in zip(U[i], U[j])])

  def bezout_cols(row, j1, j2):
    p, q = A[row][j1], A[row][j2]
    g, s, t = _extgcd(p, q)
    a, b, c, d = s, t, -(q // g), p // g
    for X in (A, V):
      for r in X:
        x, y = r[j1], r[j2]
        r[j1], r[j2] = a * x + b * y, c * x + d * y

  def negate_row(i):
    A[i] = [-x for x in A[i]]
    U[i] = [-x for x in U[i]]

  k = 0
  while k < min(m, n):
    # Locate a pivot: nonzero entry of smallest magnitude in A[k:, k:].
    pivot = None
    for i in range(k, m):
      for j in range(k, n):
        if A[i][j] != 0 and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
          pivot = (i, j)
    if pivot is None:
      break
    swap_rows(k, pivot[0])
    swap_cols(k, pivot[1])

    while True:
      # Plain subtraction keeps row/column k intact when the pivot already
      # divides; otherwise a Bezout block strictly shrinks the pivot, which
      # bounds the number of passes.  (Repeated subtract-and-swap, by
      # contrast, lets the off-pivot entries blow up on dense matrices.)
      progressed = False
      for i in range(k + 1, m):
        if A[i][k] != 0:
          if A[i][k] % A[k][k] == 0:
            add_row(k, i, -(A[i][k] // A[k][k]))
          else:
            bezout_rows(k, k, i)
            progressed = True
      for j in range(k + 1, n):
        if A[k][j] != 0:
          if A[k][j] % A[k][k] == 0:
            add_col(k, j, -(A[k][j] // A[k][k]))
          else:
            bezout_cols(k, k, j)
            progressed = True
      if not progressed and all(A[i][k] == 0 for i in range(k + 1, m)):
        break
    if A[k][k] < 0:
      negate_row(k)
    # Enforce divisibility: pivot must divide every remaining entry.
    offender = None
    for i in range(k + 1, m):
      for j in range(k + 1, n):
        if A[i][j] % A[k][k] != 0:
          offender = i
          break
      if offender is not None:
        break
    if offender is not None:
      add_row(offender, k, 1)
      continue  # redo elimination at the same k
    k += 1

  D = A
  assert all(D[i][j] == 0 for i in range(m) for j in range(n) if i != j)
  for i in range(min(m, n) - 1):
    if D[i + 1][i + 1]:
      assert D[i][i] != 0 and D[i + 1][i + 1] % D[i][i] == 0
  return D, U, V


def diagonal(M):
  m, n = dims(M)
  return [M[i][i] for i in range(min(m, n))]


def invariant_factors(M):
  """Positive diagonal entries of the Smith form (including any 1s)."""
  D, _, _ = smith_normal_form(M)
  return [d for d in diagonal(D) if d != 0]


def rank(M):
  return len(invariant_factors(M))


def kernel_basis(M):
  """Basis of the right kernel {x : M x = 0} as a list of integer vectors.

  The returned vectors span the full (saturated) kernel lattice.
  """
  m, n = dims(M)
  if n == 0:
    return []
  if m == 0:
    return [row[:] for row in identity_matrix(n)]
  D, U, V = smith_normal_form(M)
  r = len([d for d in diagonal(D) if d != 0])
  # M x = 0 iff D y = 0 with x = V y, i.e. y supported on coordinates >= r.
  cols = transpose(V)
  return [cols[j] for j in range(r, n)]


def solve(M, b):
  """One integer solution x of M x = b, or None if none exists."""
  m, n = dims(M)
  assert len(b) == m
  if n == 0:
    return [] if all(x == 0 for x in b) else None
  D, U, V = smith_normal_form(M)
  c = mat_vec(U, b)
  y = [0] * n
  for i in range(m):
    d = D[i][i] if i < min(m, n) else 0
    if d == 0:
      if c[i] != 0:
        return None
    else:
      if c[i] % d != 0:
        return None
      y[i] = c[i] // d
  return mat_vec(V, y)


def cokernel_invariants(relation_rows, n):
  """Structure of Z^n modulo the row span: (free_rank, nontrivial factors)."""
  rows = [r for r in relation_rows if any(r)]
  if not rows:
    return n, []
  assert all(len(r) == n for r in rows)
  facs = invariant_factors(rows)
  free_rank = n - len(facs)
  torsion = [d for d in facs if d > 1]
  return free_rank, torsion

