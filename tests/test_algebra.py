import random

import pytest

from spectral_switch.algebra import (
    SUPPORTED_Q,
    binom,
    field_table,
    gauss_binom,
)

from oracles import (
    count_rref_pivot_patterns,
    f2_rank,
    intersection_dim,
    is_rref,
    rank,
    subspace_counts_by_dim,
)


def test_binom_matches_product_formula():
    for n in range(0, 12):
        for k in range(0, n + 1):
            num, den = 1, 1
            for i in range(k):
                num *= n - i
                den *= i + 1
            assert binom(n, k) == num // den
    assert binom(7, 2) == 21
    assert binom(5, 7) == 0


def test_gauss_binom_known_values():
    assert gauss_binom(4, 2, 2) == 35
    assert gauss_binom(6, 3, 2) == 1395
    assert gauss_binom(6, 3, 3) == 33880
    assert gauss_binom(5, 2, 2) == 155
    assert gauss_binom(0, 0, 2) == 1
    assert gauss_binom(3, 5, 2) == 0


def test_gauss_binom_vs_rref_enumeration_oracle():
    # full range n <= 6 for q in {2, 3}
    for q in (2, 3):
        for n in range(0, 7):
            for k in range(0, n + 1):
                assert gauss_binom(n, k, q) == count_rref_pivot_patterns(n, k, q), (n, k, q)


def test_gauss_binom_vs_vector_set_closure_oracle():
    """Counting literal subspaces (sets of vectors closed under the
    operations) agrees with the product formula."""
    for n, q in ((4, 2), (5, 2), (3, 3), (4, 3)):
        counts = subspace_counts_by_dim(n, q, n)
        for k in range(n + 1):
            assert counts[k] == gauss_binom(n, k, q), (n, k, q)


def test_gauss_binom_q_pascal():
    for q in (2, 3, 4, 5):
        for n in range(1, 9):
            for k in range(1, n):
                lhs = gauss_binom(n, k, q)
                assert lhs == gauss_binom(n - 1, k - 1, q) + q ** k * gauss_binom(n - 1, k, q)


def test_gauss_binom_reduces_to_binom_at_q1_limit():
    # symmetry instead: [n k]_q == [n n-k]_q
    for q in (2, 3):
        for n in range(0, 8):
            for k in range(0, n + 1):
                assert gauss_binom(n, k, q) == gauss_binom(n, n - k, q)


@pytest.mark.parametrize("q", sorted(SUPPORTED_Q))
def test_field_axioms_exhaustive(q):
    # FieldTable construction re-verifies every axiom; failure raises
    tab = field_table(q)
    assert tab.q == q
    assert tab.add[0][0] == 0 and tab.mul[1][1] == 1
    # Fermat: a^(q-1) == 1 for a != 0
    for a in range(1, q):
        acc = 1
        for _ in range(q - 1):
            acc = tab.mul[acc][a]
        assert acc == 1


def test_field_table_rejects_unsupported():
    with pytest.raises(ValueError, match="unsupported"):
        field_table(6)
    with pytest.raises(ValueError):
        field_table(12)


def test_rref_hand_cases():
    # <110, 101> over F_2 reduces to <101, 011>: same row space, in RREF
    rows, reduced = [[1, 1, 0], [1, 0, 1]], [[1, 0, 1], [0, 1, 1]]
    assert is_rref(reduced) and not is_rref(rows)
    assert rank(rows, 2) == rank(reduced, 2) == rank(rows + reduced, 2) == 2
    # dependent and zero rows add nothing
    assert rank([[1, 1, 0], [1, 1, 0], [0, 0, 0]], 2) == 1
    assert not is_rref([[1, 1, 0], [0, 0, 0]])
    # F_3: <21, 12> is the line <12>; a pivot must be 1, alone in its column
    assert rank([[2, 1], [1, 2]], 3) == 1
    assert rank([[2, 1], [1, 2], [1, 2]], 3) == 1
    assert is_rref([[1, 2]]) and not is_rref([[2, 1]])
    assert not is_rref([[1, 1], [0, 1]])
    assert rank([[1, 1], [0, 1]], 3) == 2
    assert rank([], 2) == 0


def test_rank_vs_f2_rank_random():
    """Two unrelated eliminations must agree over F_2."""
    rng = random.Random(123)
    for _ in range(200):
        nr, nc = rng.randrange(1, 6), rng.randrange(1, 8)
        rows = [[rng.randrange(2) for _ in range(nc)] for _ in range(nr)]
        masks = [sum(e << j for j, e in enumerate(r)) for r in rows]
        assert rank(rows, 2) == f2_rank(masks)


def test_intersection_dim():
    xy = [[1, 0, 0, 0], [0, 1, 0, 0]]
    yz = [[0, 1, 0, 0], [0, 0, 1, 0]]
    zw = [[0, 0, 1, 0], [0, 0, 0, 1]]
    assert intersection_dim(xy, yz, 2) == 1
    assert intersection_dim(xy, zw, 2) == 0
    assert intersection_dim(xy, xy, 2) == 2
    with pytest.raises(ValueError):
        intersection_dim(xy, [[1, 0]], 2)
