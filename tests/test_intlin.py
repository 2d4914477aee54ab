import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoidkit import intlin


def check_snf(M):
  D, U, V = intlin.smith_normal_form(M)
  m, n = intlin.dims(M)
  assert intlin.is_unimodular(U)
  assert intlin.is_unimodular(V)
  assert intlin.matmul(intlin.matmul(U, M), V) == D
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
  D = check_snf(intlin.zero_matrix(2, 3))
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
  assert intlin.lattice_contains(ker, [1, 1, -1])


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
  assert intlin.lattice_contains(rows, [4, -2])
  assert not intlin.lattice_contains(rows, [1, 0])
  assert intlin.lattice_equal([[1, 1], [0, 2]], [[1, -1], [0, 2]])
  assert not intlin.lattice_equal([[1, 1]], [[1, -1]])
  assert intlin.lattice_equal([], [[0, 0]], ambient_dim=2)


def test_cokernel_invariants():
  # Z^2 / <(0,1),(2,-1)> = Z/2
  assert intlin.cokernel_invariants([[0, 1], [2, -1]], 2) == (0, [2])
  assert intlin.cokernel_invariants([[1, 0]], 2) == (1, [])
  assert intlin.cokernel_invariants([], 2) == (2, [])

