import random

import networkx as nx
import numpy as np
import pytest

from spectral_switch import spectra
from spectral_switch.graphcore import Graph, dense_adjacency
from spectral_switch.spectra import (
    charpoly_mod_p,
    cospectral,
    eigenvalues_float,
    is_probable_prime,
    random_primes,
)
from spectral_switch.switching import GmSpec, apply_switching, validate

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
    # P4 first: its spectrum is irrational, so the charpoly decides
    a = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    b = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
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
    a = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    b = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    primes = random_primes(3, seed=0)
    v = cospectral(a, b, num_primes=3, seed=0)
    assert not v.equal
    assert calls == [primes[0], primes[0]]
    assert v.primes_used == primes[:1]
    assert v.first_disagreeing_coefficient[0] == primes[0]


def test_cospectral_reports_primes_through_the_disagreeing_one(monkeypatch):
    primes = random_primes(4, seed=0)
    a, b = Graph.from_edges(3, [(0, 1), (1, 2)]), Graph.from_edges(3, [(0, 1)])
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


def _union(*graphs):
    """Disjoint union, vertices numbered graph by graph."""
    edges, off = [], 0
    for g in graphs:
        edges += [(u + off, v + off) for u in range(g.n) for v in range(u + 1, g.n)
                  if g.has_edge(u, v)]
        off += g.n
    return Graph.from_edges(off, edges)


def _nx(g):
    return Graph.from_edges(g.number_of_nodes(), list(g.edges()))


def _gm_mate_pair(rng, n):
    """A random graph with {0, 1, 2, 3} made a GM cell (a perfect matching
    inside; 0, 2 or 4 cell neighbours outside, vertex 4 with 2), and its
    switched mate."""
    rows = [[0] * n for _ in range(n)]
    for u in range(4, n):
        for v in range(u + 1, n):
            rows[u][v] = rows[v][u] = rng.randrange(2)
    for u, v in ((0, 1), (2, 3)):
        rows[u][v] = rows[v][u] = 1
    for v in range(4, n):
        cell = rng.sample(range(4), 2 if v == 4 else rng.choice([0, 2, 4]))
        for u in cell:
            rows[u][v] = rows[v][u] = 1
    g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                             if rows[u][v]])
    spec = GmSpec([[0, 1, 2, 3]])
    assert validate(g, spec).valid
    return g, apply_switching(g, spec)


def _integral_graphs():
    """Small graphs with integral spectra, several on each vertex count, and
    pairs of them that share an annihilating polynomial but not a spectrum."""
    k = lambda m: _nx(nx.complete_graph(m))
    e = lambda m: Graph.from_edges(m, [])
    yield from (k(4), _nx(nx.cycle_graph(4)), _union(k(2), k(2)), _union(k(2), e(2)),
                _union(k(3), e(1)), _nx(nx.star_graph(3)))
    yield from (_nx(nx.star_graph(4)), _union(_nx(nx.cycle_graph(4)), e(1)),
                _union(k(2), k(2), e(1)), _union(k(3), k(2)), k(5))
    yield from (_nx(nx.cycle_graph(6)), _nx(nx.complete_bipartite_graph(3, 3)),
                _union(k(3), k(3)), _union(_nx(nx.cycle_graph(4)), k(2)), k(6))
    yield from (_nx(nx.convert_node_labels_to_integers(nx.hypercube_graph(3))),
                _union(k(4), k(4)), _nx(nx.complete_bipartite_graph(2, 6)))
    petersen = _nx(nx.petersen_graph())
    yield from (petersen, petersen.complement(), _union(k(5), k(5)))


def _toggle(g, u, v):
    rows = list(g.rows)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return Graph(g.n, rows)


def _shuffled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return g.relabel(perm)


def test_minimal_polynomial_verdicts_match_exact_charpolys():
    """On graphs with integral spectra, random graphs, their relabelings and
    GM-switched mates, cospectral agrees with equality of exact charpolys."""
    rng = random.Random(11)
    graphs = list(_integral_graphs())
    for _ in range(12):
        n = rng.randrange(5, 12)
        graphs.append(_nx(nx.gnp_random_graph(n, rng.uniform(0.2, 0.8),
                                              seed=rng.randrange(10**6))))
    pairs = []
    for g in graphs:
        pairs.append((g, _shuffled(g, rng.random())))
        pairs += [(g, h) for h in graphs if h is not g and h.n == g.n]
    for n in (6, 8, 10):
        pairs.append(_gm_mate_pair(rng, n))
    seen = {}
    for a, b in pairs:
        v = cospectral(a, b)
        want = charpoly_exact(a) == charpoly_exact(b)
        assert v.equal == want, (a.rows, b.rows, v)
        if v.method == "minimal-polynomial":
            assert v.primes_used == () and v.error_bound == (0.0 if want else None)
        seen.setdefault(v.method, set()).add(want)
    assert seen == {"minimal-polynomial": {True, False}, "charpoly": {True, False}}


def test_minimal_polynomial_separates_equal_roots_by_traces():
    """K2 + 2K1 and 2K2 are both annihilated by (x + 1) x (x - 1): only the
    traces tell them apart, and the saltire pair C4 + K1 and K_{1,4} agree."""
    e = Graph.from_edges
    v = cospectral(e(4, [(0, 1)]), e(4, [(0, 1), (2, 3)]))
    assert v.method == "minimal-polynomial" and v.equal is False
    v = cospectral(e(5, [(0, 1), (1, 2), (2, 3), (3, 0)]),
                   e(5, [(0, 1), (0, 2), (0, 3), (0, 4)]))
    assert v.method == "minimal-polynomial" and v.equal is True


def test_gm_mate_of_a_non_scheme_graph_takes_the_charpoly():
    rng = random.Random(3)
    g, mate = _gm_mate_pair(rng, 12)
    ev = eigenvalues_float(g)
    assert any(abs(x - round(x)) > 1e-3 for x in ev)  # not an integral spectrum
    v = cospectral(g, mate)
    assert v.method == "charpoly" and v.equal
    assert charpoly_exact(g) == charpoly_exact(mate)


@pytest.mark.parametrize("wrong", [
    lambda roots: roots[:-1],  # a root missing: annihilates neither graph
    lambda roots: roots[:1] + (roots[0] + 1,) + roots[1:],  # a root too many: still exact
])
def test_wrong_hint_keeps_the_verdict(monkeypatch, petersen, wrong):
    real = spectra._eigenvalue_hint
    monkeypatch.setattr(spectra, "_eigenvalue_hint", lambda a, seed: wrong(real(a, seed)))
    roots = real(dense_adjacency(petersen), 0)
    method = "charpoly" if len(wrong(roots)) < len(roots) else "minimal-polynomial"
    for other, want in ((_shuffled(petersen, 4), True), (_toggle(petersen, 0, 1), False)):
        v = cospectral(petersen, other)
        assert v.equal is want and v.method == method


def test_exact_range_guard_falls_back_to_the_charpoly(monkeypatch, petersen):
    e = Graph.from_edges
    pairs = [(petersen, _shuffled(petersen, 5), True),
             (e(4, [(0, 1)]), e(4, [(0, 1), (2, 3)]), False)]
    for a, b, want in pairs:
        assert cospectral(a, b).method == "minimal-polynomial"
    # every product bound is at least 1
    monkeypatch.setattr(spectra, "_EXACT", 1.0)
    for a, b, want in pairs:
        v = cospectral(a, b)
        assert v.method == "charpoly" and v.equal is want


def test_hint_cap_falls_back_to_the_charpoly(monkeypatch, petersen):
    monkeypatch.setattr(spectra, "_MAX_ROOTS", 2)  # the Petersen graph has 3
    assert spectra._eigenvalue_hint(dense_adjacency(petersen), 0) is None
    v = cospectral(petersen, petersen)
    assert v.method == "charpoly" and v.equal


def test_corpus_pairs_proved_by_minimal_polynomial(corpus_reports):
    """Every recipe's original against a relabeled mate, with no spec: the
    exact path, never the charpoly."""
    for name, rep in corpus_reports.items():
        v = cospectral(rep.graph, _shuffled(rep.mate, name))
        assert v.equal and v.method == "minimal-polynomial", name
        assert v.error_bound == 0 and v.primes_used == (), name


def test_minimal_polynomial_keeps_charpoly_size_limit(monkeypatch, petersen):
    monkeypatch.setattr(spectra, "MAX_CHARPOLY_N", 9)
    with pytest.raises(spectra.CharpolySizeError):
        cospectral(petersen, petersen)


def test_primes_are_drawn_only_for_the_charpoly(monkeypatch, petersen):
    """The minimal polynomial uses no primes, so cospectral draws none for
    it; the charpoly draws its seed's."""
    drawn = []
    real = spectra.random_primes
    monkeypatch.setattr(spectra, "random_primes",
                        lambda count, seed: drawn.append((count, seed)) or real(count, seed))
    g, mate = _gm_mate_pair(random.Random(5), 12)
    assert cospectral(petersen, _shuffled(petersen, 2)).method == "minimal-polynomial"
    assert drawn == []
    v = cospectral(g, mate, num_primes=2, seed=7)
    assert v.method == "charpoly" and v.primes_used == real(2, 7)
    assert drawn == [(2, 7)]
