import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoidkit import intlin

# ------------------------------------------------------ oracles (tests only)


def zero_matrix(m, n):
  return [[0] * n for _ in range(m)]


def matmul(A, B):
  """The product A·B, entry by entry."""
  assert intlin.dims(A)[1] == intlin.dims(B)[0]
  return [[sum(a * B[k][j] for k, a in enumerate(row))
           for j in range(intlin.dims(B)[1])] for row in A]


def det(M):
  """Exact determinant via fraction-free (Bareiss) elimination."""
  m, n = intlin.dims(M)
  assert m == n
  if n == 0:
    return 1
  A = intlin.copy_matrix(M)
  sign = 1
  prev = 1
  for k in range(n - 1):
    if A[k][k] == 0:
      for i in range(k + 1, n):
        if A[i][k] != 0:
          A[k], A[i] = A[i], A[k]
          sign = -sign
          break
      else:
        return 0
    for i in range(k + 1, n):
      for j in range(k + 1, n):
        A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
    prev = A[k][k]
  return sign * A[n - 1][n - 1]


def is_unimodular(M):
  m, n = intlin.dims(M)
  return m == n and det(M) in (1, -1)


def dense(row, n):
  """A sparse relation row {column: coefficient} as a list of n ints, the
  form the dense oracles take."""
  return [row.get(j, 0) for j in range(n)]


def sparse(row):
  """A dense row as the sparse form the package takes: its nonzero entries."""
  return {j: a for j, a in enumerate(row) if a}


def lattice_contains(spanning_rows, v):
  """Is v in the Z-span of the given (not necessarily independent) rows?"""
  if not spanning_rows:
    return all(x == 0 for x in v)
  assert all(len(r) == len(v) for r in spanning_rows)
  return intlin.solve(intlin.transpose(spanning_rows), list(v)) is not None


def lattice_equal(rows_a, rows_b, ambient_dim=None):
  """Do two spanning sets generate the same sublattice of Z^n?"""
  if ambient_dim is None:
    if rows_a:
      ambient_dim = len(rows_a[0])
    elif rows_b:
      ambient_dim = len(rows_b[0])
    else:
      return True
  zero = [0] * ambient_dim
  a = [r for r in rows_a if list(r) != zero]
  b = [r for r in rows_b if list(r) != zero]
  return all(lattice_contains(b, r) for r in a) and \
      all(lattice_contains(a, r) for r in b)


# ------------------------------------------------------------------- the SNF


def check_snf(M):
  D, U, V = intlin.smith_normal_form(M)
  m, n = intlin.dims(M)
  assert is_unimodular(U)
  assert is_unimodular(V)
  assert matmul(matmul(U, M), V) == D
  diag = intlin.diagonal(D)
  for i in range(m):
    for j in range(n):
      if i != j:
        assert D[i][j] == 0
  nonzero = [d for d in diag if d]
  assert all(d > 0 for d in nonzero)
  for a, b in zip(nonzero, nonzero[1:]):
    assert b % a == 0
  # once a zero appears on the diagonal, the rest are zero
  seen_zero = False
  for d in diag:
    if d == 0:
      seen_zero = True
    else:
      assert not seen_zero
  return D


def test_identity_is_fixed():
  D = check_snf(intlin.identity_matrix(3))
  assert intlin.diagonal(D) == [1, 1, 1]


def test_hand_example():
  # row/column elimination of [[0,1],[2,-1]] gives diag(1,2)
  D = check_snf([[0, 1], [2, -1]])
  assert intlin.diagonal(D) == [1, 2]


def test_zero_matrix():
  D = check_snf(zero_matrix(2, 3))
  assert intlin.diagonal(D) == [0, 0]


def test_degenerate_shapes():
  D, U, V = intlin.smith_normal_form([])  # 0x0
  assert (D, U, V) == ([], [], [])
  D, U, V = intlin.smith_normal_form([[], []])  # 2x0
  assert D == [[], []]
  assert intlin.dims(U) == (2, 2)
  assert V == []


def test_invariant_factors_include_ones():
  assert intlin.invariant_factors([[2, 0], [0, 3]]) == [1, 6]
  assert intlin.invariant_factors([[4, 0], [0, 6]]) == [2, 12]


def test_ragged_matrix_rejected():
  with pytest.raises(AssertionError):
    intlin.dims([[1, 2], [3]])


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10 ** 6))
def test_snf_random(m, n, seed):
  rng = random.Random(seed)
  M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
  check_snf(M)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10 ** 6))
def test_snf_matches_sympy(m, n, seed):
  sympy = pytest.importorskip("sympy")
  from sympy.matrices.normalforms import smith_normal_form as sympy_snf

  rng = random.Random(seed)
  M = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
  D, _, _ = intlin.smith_normal_form(M)
  S = sympy_snf(sympy.Matrix(M))
  ours = [abs(d) for d in intlin.diagonal(D)]
  theirs = [abs(S[i, i]) for i in range(min(m, n))]
  assert ours == theirs


def test_kernel_basis():
  M = [[1, 2, 3]]
  ker = intlin.kernel_basis(M)
  assert len(ker) == 2
  for v in ker:
    assert intlin.mat_vec(M, v) == [0]
  # the kernel lattice is saturated: (1,1,-1) lies in it
  assert lattice_contains(ker, [1, 1, -1])


def test_kernel_of_injective_map_is_trivial():
  assert intlin.kernel_basis([[1, 0], [0, 2]]) == []


def test_kernel_degenerate():
  assert intlin.kernel_basis([[0, 0]]) == [[1, 0], [0, 1]]
  assert intlin.kernel_basis([]) == []


def test_solve():
  M = [[2, 0], [0, 3]]
  assert intlin.solve(M, [4, 9]) == [2, 3]
  assert intlin.solve(M, [1, 0]) is None
  assert intlin.solve([[1, 1]], [5]) is not None
  assert intlin.solve([[0, 0]], [1]) is None


def test_lattice_membership_and_equality():
  rows = [[2, 0], [0, 2]]
  assert lattice_contains(rows, [4, -2])
  assert not lattice_contains(rows, [1, 0])
  assert lattice_equal([[1, 1], [0, 2]], [[1, -1], [0, 2]])
  assert not lattice_equal([[1, 1]], [[1, -1]])
  assert lattice_equal([], [[0, 0]], ambient_dim=2)


def test_cokernel_invariants():
  # Z^2 / <(0,1),(2,-1)> = Z/2
  assert intlin.cokernel_invariants([[0, 1], [2, -1]], 2) == (0, [2])
  assert intlin.cokernel_invariants([[1, 0]], 2) == (1, [])
  assert intlin.cokernel_invariants([], 2) == (2, [])



# ------------------------------------------------ the sparse unit-pivot phase


def check_elimination(rows, n, weight):
  """The images carry Z^n/<rows> onto Z^k/<residual>: both have the same
  invariants, every row maps into the residual's span, and the images of
  the unit vectors span Z^k modulo it.  No residual row is zero."""
  survivors, residual, images = intlin.eliminate_unit_pivots(rows, n, weight)
  rows = [dense(row, n) for row in rows]
  k = len(survivors)
  assert all(len(r) == k and any(r) for r in residual)
  assert len(residual) <= len(rows)
  for j, p in zip(survivors, range(k)):
    assert images[j] == {p: 1}
  image_matrix = [dense(image, k) for image in images]
  for row in rows:
    assert lattice_contains(residual, intlin.vec_mat(row, image_matrix))
  assert intlin.cokernel_invariants(residual, k) == \
      intlin.cokernel_invariants(rows, n)
  if k:
    assert intlin.invariant_factors(image_matrix + residual) == [1] * k
  return survivors, residual


def test_elimination_pivots_on_the_largest_unit():
  # x0 - x1 - x2 with x0 heaviest: x0 goes, x0 = x1 + x2
  survivors, residual, images = intlin.eliminate_unit_pivots(
      [{0: 1, 1: -1, 2: -1}], 3, [3, 1, 1])
  assert survivors == [1, 2] and residual == []
  assert images[0] == {0: 1, 1: 1}
  # with x2 heaviest it goes instead: x2 = x0 - x1
  survivors, _, images = intlin.eliminate_unit_pivots(
      [{0: 1, 1: -1, 2: -1}], 3, [1, 1, 3])
  assert survivors == [0, 1] and images[2] == {0: 1, 1: -1}


def test_elimination_keeps_rows_without_a_unit():
  survivors, residual = check_elimination([{0: 2, 1: 4}, {1: 6}], 2, [0, 1])
  assert survivors == [0, 1] and residual == [[2, 4], [0, 6]]
  # a row cleared to zero is dropped from the Schur complement
  survivors, residual, _ = intlin.eliminate_unit_pivots(
      [{0: 1, 1: -1}, {0: 2, 1: -2}, {0: 1, 1: 1}], 2, [0, 1])
  assert survivors == [0] and residual == [[2]]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.integers(0, 9), st.integers(0, 10 ** 6))
def test_elimination_presents_the_same_cokernel(n, m, seed):
  rng = random.Random(seed)
  rows = [[rng.choice((-2, -1, -1, 0, 0, 0, 0, 1, 1, 3)) for _ in range(n)]
          for _ in range(m)]
  rows = list(map(sparse, rows))
  weight = [rng.randint(0, 3) for _ in range(n)]
  check_elimination(rows, n, weight)
