import random

import networkx as nx
import numpy as np
import pytest

from spectral_switch import spectra
from spectral_switch.graphcore import Graph
from spectral_switch.spectra import (
    charpoly_mod_p,
    cospectral,
    eigenvalues_float,
    is_probable_prime,
    random_primes,
)

from oracles import charpoly_exact, det_mod_p, triangle_count_brute


def _mod(coeffs, p):
    return tuple(c % p for c in coeffs)


def test_charpoly_hand_values():
    p = 2_147_483_029
    k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert charpoly_mod_p(k3, p) == _mod([1, 0, -3, -2], p)
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert charpoly_mod_p(p3, p) == _mod([1, 0, -2, 0], p)
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert charpoly_mod_p(c4, p) == _mod([1, 0, -4, 0, 0], p)
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert charpoly_mod_p(k4, p) == _mod([1, 0, -6, -8, -3], p)
    empty = Graph.from_edges(3, [])
    assert charpoly_mod_p(empty, p) == (1, 0, 0, 0)


def test_charpoly_vs_exact_oracle_random():
    rng = random.Random(99)
    primes = random_primes(3, seed=17)
    for _ in range(25):
        n = rng.randrange(2, 13)
        nxg = nx.gnp_random_graph(n, rng.uniform(0.2, 0.8), seed=rng.randrange(10**6))
        g = Graph.from_edges(n, list(nxg.edges()))
        exact = charpoly_exact(g)
        for p in primes:
            assert charpoly_mod_p(g, p) == _mod(exact, p)


def test_charpoly_coefficient_identities_random():
    rng = random.Random(5)
    p = random_primes(1, seed=3)[0]
    for _ in range(20):
        n = rng.randrange(4, 14)
        nxg = nx.gnp_random_graph(n, 0.5, seed=rng.randrange(10**6))
        g = Graph.from_edges(n, list(nxg.edges()))
        cs = charpoly_mod_p(g, p)
        assert cs[0] == 1
        assert cs[1] == 0  # trace
        assert cs[2] == (-g.num_edges()) % p
        assert cs[3] == (-2 * triangle_count_brute(g)) % p


def test_charpoly_rejects_bad_prime():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        charpoly_mod_p(g, 10)
    with pytest.raises(ValueError):
        charpoly_mod_p(g, 2**31 + 11)  # prime but too wide


def test_random_primes_deterministic():
    a = random_primes(5, seed=0)
    b = random_primes(5, seed=0)
    assert a == b
    assert len(set(a)) == 5
    for p in a:
        assert 2**30 < p < 2**31
        assert is_probable_prime(p)
    assert random_primes(5, seed=1) != a


def test_miller_rabin_known_values():
    for p in (2, 3, 5, 2_147_483_647, 1_073_741_827):
        assert is_probable_prime(p)
    for c in (1, 0, 561, 41041, 3215031751, 2_147_483_645):
        assert not is_probable_prime(c)


def test_cospectral_saltire_pair():
    """C4 plus an isolated vertex and the 4-star share a spectrum."""
    a = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0)])
    b = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    v = cospectral(a, b)
    assert v.equal
    assert v.error_bound is not None and v.error_bound < 1e-6
    assert v.first_disagreeing_coefficient is None


def test_cospectral_detects_difference():
    a = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    b = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    v = cospectral(a, b)
    assert not v.equal
    assert v.first_disagreeing_coefficient is not None
    assert v.error_bound is None


def test_cospectral_different_sizes():
    a = Graph.from_edges(3, [])
    b = Graph.from_edges(4, [])
    assert not cospectral(a, b).equal


def test_cospectral_relabeled_graph(petersen):
    rng = random.Random(2)
    perm = list(range(petersen.n))
    rng.shuffle(perm)
    assert cospectral(petersen, petersen.relabel(perm)).equal


def test_eigenvalues_float(petersen):
    ev = eigenvalues_float(petersen)
    assert len(ev) == 10
    assert ev[-1] == pytest.approx(3.0)
    assert ev[0] == pytest.approx(-2.0)


def _panel_graphs(n, seed):
    """Graphs on n vertices whose reduction meets zero pivots and row swaps
    inside and across panels: a sparse random graph, and a disjoint union of
    two random graphs and isolated vertices under a random relabeling."""
    rng = random.Random(seed)
    sparse = nx.gnp_random_graph(n, 0.04, seed=rng.randrange(10**6))
    yield Graph.from_edges(n, list(sparse.edges()))
    a, iso = n // 3, n // 5
    parts = nx.disjoint_union(nx.gnp_random_graph(a, 0.3, seed=rng.randrange(10**6)),
                              nx.gnp_random_graph(n - a - iso, 0.15,
                                                  seed=rng.randrange(10**6)))
    perm = list(range(n))
    rng.shuffle(perm)
    yield Graph.from_edges(n, [(perm[u], perm[v]) for u, v in parts.edges()])


@pytest.mark.parametrize("block", [None, 5])
def test_charpoly_across_panels_matches_determinant(monkeypatch, block):
    """Schwartz-Zippel: charpoly_mod_p evaluated at random points equals
    det(xI - A) mod p from plain Gaussian elimination."""
    n = 2 * spectra.BLOCK + 7
    if block is not None:
        monkeypatch.setattr(spectra, "BLOCK", block)
    rng = random.Random(n)
    p = random_primes(1, seed=11)[0]
    for g in _panel_graphs(n, seed=n):
        cs = charpoly_mod_p(g, p)
        for _ in range(3):
            x = rng.randrange(p)
            value = 0
            for c in cs:
                value = (value * x + c) % p
            xa = [[(x if i == j else 0) - g.has_edge(i, j) for j in range(n)]
                  for i in range(n)]
            assert value == det_mod_p(xa, p)


@pytest.mark.parametrize("k", [2048, 2049, 4097])
def test_mulmod_exact_at_wide_inner_dimension(k):
    p = 2**31 - 1  # every entry p - 1 drives each partial sum next to 2^53
    a = np.full((3, k), float(p - 1))
    b = np.full((k, 2), float(p - 1))
    want = k * (p - 1) ** 2 % p
    assert (spectra._mulmod(a, b, p) == want).all()
    assert (spectra._mulmod(a, b[:, 0], p) == want).all()
    # entries next to p against b whose two low limbs are 2^11 - 1: unless
    # the inner dimension is cut at 2048, the partial sums pass 2^53
    rng = random.Random(k)
    ra = [[rng.randrange(p - 2**16, p) for _ in range(k)] for _ in range(2)]
    rb = [rng.randrange(511) << 22 | (2**22 - 1) for _ in range(k)]
    got = spectra._mulmod(np.array(ra, dtype=np.float64), np.array(rb, dtype=np.float64), p)
    assert [int(x) for x in got] == [sum(u * v for u, v in zip(row, rb)) % p for row in ra]


def test_cospectral_stops_at_first_disagreeing_prime(monkeypatch):
    calls = []
    real = spectra.charpoly_mod_p

    def counting(g, p):
        calls.append(p)
        return real(g, p)

    monkeypatch.setattr(spectra, "charpoly_mod_p", counting)
    a = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    b = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    primes = random_primes(3, seed=0)
    v = cospectral(a, b, num_primes=3, seed=0)
    assert not v.equal
    assert calls == [primes[0], primes[0]]
    assert v.primes_used == primes[:1]
    assert v.first_disagreeing_coefficient[0] == primes[0]


def test_cospectral_reports_primes_through_the_disagreeing_one(monkeypatch):
    primes = random_primes(4, seed=0)
    a, b = Graph.from_edges(2, []), Graph.from_edges(2, [(0, 1)])
    # the two graphs agree at the first prime only
    monkeypatch.setattr(spectra, "charpoly_mod_p",
                        lambda g, p: (1, 0, 0) if g is a or p == primes[0] else (1, 0, 1))
    v = cospectral(a, b, num_primes=4, seed=0)
    assert v.primes_used == primes[:2]
    assert v.first_disagreeing_coefficient == (primes[1], 2)


@pytest.mark.parametrize("n,k", [(5, 3), (70, 1), (924, 3), (1395, 3), (1395, 5)])
def test_equal_error_bound_from_first_principles(n, k):
    # A coefficient of det(xI - A) sums binom(n, i) principal minors, each at
    # most i^(i/2) (Hadamard), so a nonzero coefficient difference d has
    # d^2 <= (2 * 2^n * n^(n/2))^2 = 4^(n+1) n^n, and at most `bad` prime
    # factors above 2^30, where 2^(30 bad) <= |d|.
    d_sq = 4 ** (n + 1) * n ** n
    bad = 0
    while 2 ** (60 * (bad + 1)) <= d_sq:
        bad += 1
    # the bound may count fewer primes in (2^30, 2^31) than there are,
    # pi(2^31) - pi(2^30), but no fewer than Rosser-Schoenfeld's 3.5e7
    primes_in_range = spectra._PRIMES_IN_RANGE
    assert 3.5e7 <= primes_in_range <= 105_097_565 - 54_400_028
    want = 1.0
    for j in range(k):
        want *= bad / (primes_in_range - j)
    assert spectra._equal_error_bound(n, k) == pytest.approx(want, rel=1e-12)


def test_equal_error_bound_at_kneser63_size():
    assert 1e-16 < spectra._equal_error_bound(1395, 3) < 3e-16


def test_charpoly_size_limit_has_its_own_error(monkeypatch):
    monkeypatch.setattr(spectra, "MAX_CHARPOLY_N", 3)
    with pytest.raises(spectra.CharpolySizeError, match="limit of 3"):
        charpoly_mod_p(Graph.from_edges(4, []), random_primes(1, seed=0)[0])
