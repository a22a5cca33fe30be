import random
from collections import deque
from itertools import accumulate, combinations, product

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectral_switch import canon
from spectral_switch.canon import (
    BudgetExhaustedError,
    automorphism_generators,
    canonical_form,
    canonical_labeling,
    match_certificate,
    wl1_histogram,
)
from spectral_switch.graphcore import Graph, _mask, encode_graph6
from spectral_switch.schemes import SchemeParams, build

from oracles import (
    canon_reference,
    leaf_cert_reference,
    refine_reference,
    wl1_equivalent_reference,
)


def _random_relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def test_canonical_form_petersen_constructions(petersen):
    """Two unrelated constructions of the same graph canonicalize alike."""
    nxp = Graph.from_edges(10, list(nx.petersen_graph().edges()))
    kneser = []
    subsets = list(combinations(range(5), 2))
    for i, a in enumerate(subsets):
        for j, b in enumerate(subsets):
            if i < j and not set(a) & set(b):
                kneser.append((i, j))
    assert canonical_form(petersen) == canonical_form(nxp)
    assert canonical_form(Graph.from_edges(10, kneser)) == canonical_form(nxp)


def test_canonical_form_label_invariance():
    rng = random.Random(31)
    graphs = [
        Graph.from_edges(1, []),
        Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]),
        Graph.from_edges(9, list(nx.gnp_random_graph(9, 0.4, seed=4).edges())),
        Graph.from_edges(12, list(nx.gnp_random_graph(12, 0.6, seed=5).edges())),
        Graph.from_edges(14, list(nx.random_regular_graph(3, 14, seed=6).edges())),
    ]
    for g in graphs:
        want = canonical_form(g)
        for _ in range(40):
            assert canonical_form(_random_relabel(g, rng)) == want


def test_canonical_form_distinguishes():
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    two_c3 = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert canonical_form(c6) != canonical_form(two_c3)


def test_canonical_labeling_perm_is_valid(petersen):
    cert, perm = canonical_labeling(petersen)
    assert sorted(perm) == list(range(10))
    assert cert.count(b"|") >= 1


def test_canonical_form_respects_colors():
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    plain = canonical_form(p3)
    colored = canonical_form(p3, colors=[1, 0, 0])
    assert plain != colored
    # color-consistent relabeling keeps the certificate
    g2 = p3.relabel([2, 1, 0])
    assert canonical_form(g2, colors=[0, 0, 1]) == colored


def test_budget_exhaustion_raises(petersen):
    with pytest.raises(BudgetExhaustedError):
        canonical_labeling(petersen, budget=3)


def test_automorphism_generators_are_automorphisms(petersen):
    gens = automorphism_generators(petersen)
    assert gens  # a vertex-transitive graph must reveal some
    for p in gens:
        assert sorted(p) == list(range(10))
        for u, v in petersen.edges():
            assert petersen.has_edge(p[u], p[v])


def test_wl1_cannot_split_regular():
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    two_c3 = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert wl1_histogram(c6) == wl1_histogram(two_c3)  # the classic 1-WL blind spot
    assert wl1_histogram(c6) == (6, (), ((2,),))


def test_wl1_distinguishes_degree_patterns():
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert wl1_histogram(p4) != wl1_histogram(star)


def test_wl1_certificate_edge_cases():
    assert wl1_histogram(Graph.from_edges(0, [])) == (0, (), ())
    assert wl1_histogram(Graph.from_edges(1, [])) == (1, (), ((0,),))
    # a vertex with 300 neighbours in one cell: more than a uint8 holds
    star = Graph.from_edges(301, [(0, v) for v in range(1, 301)])
    n, trace, quotient = wl1_histogram(star)
    assert trace == ((0, ((1, 300), (300, 1))),)
    assert quotient == ((0, 1), (300, 0))


def _double_edge_swaps(g, k, rng):
    """g with k random double-edge swaps ab, cd -> ad, cb; degrees stay."""
    edges = set(g.edges())
    for _ in range(100 * k):
        if k == 0 or len(edges) < 2:
            break
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        if rng.random() < 0.5:
            c, d = d, c
        new = (min(a, d), max(a, d)), (min(c, b), max(c, b))
        if len({a, b, c, d}) == 4 and not set(new) & edges:
            edges -= {(min(a, b), max(a, b)), (min(c, d), max(c, d))}
            edges |= set(new)
            k -= 1
    return Graph.from_edges(g.n, edges)


def test_wl1_certificate_matches_disjoint_union_reference():
    """Equal certificates exactly when color refinement on the disjoint
    union gives both graphs the same color counts: 1000 pairs of random
    regular graphs of one degree and 1200 G(n, p) graphs against copies
    with 1-3 double-edge swaps, n <= 12."""
    rng = random.Random(2024)
    outcomes = {True: 0, False: 0}
    for seed in range(2200):
        n = rng.randint(4, 12)
        if seed < 1000:
            d = rng.choice([d for d in range(1, n - 1) if n * d % 2 == 0])
            g1, g2 = (Graph.from_edges(n, list(nx.random_regular_graph(
                d, n, seed=2 * seed + i).edges())) for i in range(2))
        else:
            g1 = Graph.from_edges(n, list(nx.gnp_random_graph(
                n, rng.uniform(0.2, 0.7), seed=seed).edges()))
            g2 = _double_edge_swaps(g1, rng.randint(1, 3), rng)
        want = wl1_equivalent_reference(g1, g2)
        assert (wl1_histogram(g1) == wl1_histogram(g2)) == want, seed
        outcomes[want] += 1
    assert min(outcomes.values()) > 300, outcomes


# -- the array refinement against the cell-by-cell reference ----------------

KERNEL_SIZES = (5, 12, 35, 64, 70, 129, 200, 252, 330, 400)


def _kernel_graph(n, seed):
    """Seeded graphs whose refinement does work: G(n, p) or random regular
    (one root cell until a vertex is individualized), half of them colored."""
    rng = random.Random(seed)
    if seed % 2:
        d = rng.choice([3, 4, 6]) if n > 6 else 2
        ng = nx.random_regular_graph(d if n * d % 2 == 0 else d + 1, n, seed=seed)
    else:
        ng = nx.gnp_random_graph(n, rng.uniform(0.05, 0.6), seed=seed)
    g = Graph.from_edges(n, list(ng.edges()))
    colors = [rng.randrange(3) for _ in range(n)] if seed % 4 >= 2 else None
    return g, colors, rng


def _cells(order, bnd):
    """canon's array partition (order, cell-start mask) as a list of vertex tuples."""
    verts = order.tolist()
    cuts = bnd.nonzero()[0].tolist() + [len(verts)]
    return [tuple(verts[a:b]) for a, b in zip(cuts, cuts[1:])]


def _root_cells(g, colors):
    colors = colors or [0] * g.n
    return [tuple(v for v in range(g.n) if colors[v] == c) for c in sorted(set(colors))]


@pytest.mark.parametrize("seed", range(len(KERNEL_SIZES) * 2))
def test_refinement_matches_reference(seed):
    """Root refinement, then individualization steps down to a discrete
    partition: the same cells in the same order and the same trace."""
    n = KERNEL_SIZES[seed % len(KERNEL_SIZES)]
    g, colors, rng = _kernel_graph(n, seed)
    adj, order, bnd, _, trace = canon._refine_root(g, colors)
    cells = _root_cells(g, colors)
    cells, want = refine_reference(g.rows, cells, deque(_mask(c) for c in cells))
    assert _cells(order, bnd) == cells
    assert trace == want
    for _ in range(8):
        big = [i for i, c in enumerate(cells) if len(c) > 1]
        if not big:
            break
        t = min(big, key=lambda i: (len(cells[i]), i))
        v = rng.choice(cells[t])
        s = sum(len(c) for c in cells[:t])
        order, bnd, trace = canon._individualize_refine(adj, order, bnd, t, s,
                                                        s + len(cells[t]), v)
        cells[t:t + 1] = [(v,), tuple(u for u in cells[t] if u != v)]
        cells, want = refine_reference(g.rows, cells, deque([1 << v]))
        assert _cells(order, bnd) == cells
        assert trace == (t,) + want


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 9, 35, 70, 129, 330))
def test_leaf_certificate_matches_reference(n):
    g, _, rng = _kernel_graph(n, 2 * n)
    adj = canon._refine_root(g, None)[0]
    upper = np.arange(n)[:, None] < np.arange(n)
    for _ in range(3):
        perm = list(range(n))
        rng.shuffle(perm)
        assert canon._leaf_cert(adj, np.array(perm), upper) == \
            leaf_cert_reference(g.rows, perm)


def test_match_certificate_maps_onto_a_relabeling():
    g = Graph.from_edges(14, list(nx.random_regular_graph(3, 14, seed=6).edges()))
    h = _random_relabel(g, random.Random(2))
    cert, perm = canonical_labeling(g)
    match = match_certificate(h, cert)
    iso = [0] * g.n
    for pos in range(g.n):
        iso[perm[pos]] = match[pos]
    assert g.relabel(iso) == h
    empty = Graph.from_edges(0, [])
    assert match_certificate(empty, canonical_labeling(empty)[0]) == ()
    assert match_certificate(empty, b"") is None


def test_match_certificate_rejects_a_header_without_search():
    """A root trace unlike the certificate's settles None before any node:
    with a budget of 0 the first search node would raise."""
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    p6 = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
    cert, _ = canonical_labeling(c6)
    assert match_certificate(p6, cert, budget=0) is None
    assert match_certificate(c6, cert, colors=[1, 0, 0, 0, 0, 0], budget=0) is None
    with pytest.raises(BudgetExhaustedError):
        match_certificate(c6, cert, budget=0)


def test_match_certificate_none_after_full_search():
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    two_c3 = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    cert, _ = canonical_labeling(c6)
    assert match_certificate(two_c3, cert) is None


# -- graphs with twins ------------------------------------------------------

def _blow_up(g, sizes, cliques):
    """Vertex v of g becomes sizes[v] twins: a clique where cliques[v],
    else an independent set, joined to every twin of each neighbour of v."""
    first = list(accumulate([0] + list(sizes)))
    block = [range(first[v], first[v + 1]) for v in range(g.n)]
    edges = [e for v in range(g.n) if cliques[v] for e in combinations(block[v], 2)]
    edges += [e for u, v in g.edges() for e in product(block[u], block[v])]
    return Graph.from_edges(first[-1], edges)


def _union(a, b, join):
    """Disjoint union of a and b, with every edge between them if join."""
    edges = list(a.edges()) + [(a.n + u, a.n + v) for u, v in b.edges()]
    if join:
        edges += [(u, a.n + v) for u in range(a.n) for v in range(b.n)]
    return Graph.from_edges(a.n + b.n, edges)


def _twin_free(g):
    """No two vertices share their open or their closed neighbourhood."""
    return (len(set(g.rows)) == g.n
            and len({row | 1 << v for v, row in enumerate(g.rows)}) == g.n)


def _graph_of_bits(n, bits):
    """The graph on n vertices whose i-th vertex pair is an edge iff bit i
    of bits is set."""
    pairs = combinations(range(n), 2)
    return Graph.from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


_base_graphs = st.integers(1, 7).flatmap(lambda n: st.builds(
    _graph_of_bits, st.just(n), st.integers(0, 2 ** (n * (n - 1) // 2) - 1)))


@st.composite
def _planted(draw, g):
    """g blown up with random class sizes and kinds."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=g.n, max_size=g.n))
    cliques = draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    return _blow_up(g, sizes, cliques)


# cographs collapse to one vertex through nested twin classes of both kinds
_cographs = st.recursive(
    st.just(Graph.from_edges(1, [])),
    lambda sub: st.builds(_union, sub, sub, st.booleans()),
    max_leaves=12)

_twin_graphs = st.one_of(
    _base_graphs.flatmap(_planted),
    _base_graphs.flatmap(_planted).flatmap(_planted),  # nested classes
    _cographs)


@st.composite
def _colored_relabeled(draw):
    """(g, colors or None, h, colors of h) with h a relabeling of g."""
    g = draw(_twin_graphs)
    colors = draw(st.none() | st.lists(st.integers(0, 1), min_size=g.n,
                                        max_size=g.n))
    perm = draw(st.permutations(range(g.n)))
    hcolors = None
    if colors is not None:
        hcolors = [0] * g.n
        for v, p in enumerate(perm):
            hcolors[p] = colors[v]
    return g, colors, g.relabel(perm), hcolors


def _joined(swaps, u, v):
    """Whether the transpositions in swaps connect u to v."""
    reach, frontier = {u}, [u]
    while frontier:
        x = frontier.pop()
        for s in swaps:
            if x in s:
                for y in s - reach:
                    reach.add(y)
                    frontier.append(y)
    return v in reach


@settings(max_examples=150, deadline=None)
@given(_colored_relabeled())
def test_twin_generators_are_colored_automorphisms(case):
    g, colors, _, _ = case
    colors = colors or [0] * g.n
    gens = automorphism_generators(g, colors=colors)
    assert len(set(gens)) == len(gens)
    for p in gens:
        assert sorted(p) == list(range(g.n)) and p != tuple(range(g.n))
        assert g.relabel(p).rows == g.rows
        assert [colors[p[v]] for v in range(g.n)] == colors
    # the returned transpositions join every pair of twins
    swaps = {frozenset(v for v in range(g.n) if p[v] != v)
             for p in gens if sum(p[v] != v for v in range(g.n)) == 2}
    for u, v in combinations(range(g.n), 2):
        twins = (colors[u] == colors[v]
                 and (g.rows[u] ^ g.rows[v]) & ~(1 << u | 1 << v) == 0)
        if twins:
            assert _joined(swaps, u, v)


@settings(max_examples=150, deadline=None)
@given(_colored_relabeled())
def test_twin_canonical_form_is_label_invariant(case):
    g, colors, h, hcolors = case
    assert canonical_form(h, colors=hcolors) == canonical_form(g, colors=colors)


@settings(max_examples=150, deadline=None)
@given(_colored_relabeled())
def test_twin_match_certificate_maps_graph_one_onto_graph_two(case):
    g, colors, h, hcolors = case
    cert, perm = canonical_labeling(g, colors=colors)
    assert sorted(perm) == list(range(g.n))
    match = match_certificate(h, cert, colors=hcolors)
    iso = [0] * g.n
    for pos in range(g.n):
        iso[perm[pos]] = match[pos]
    assert g.relabel(iso).rows == h.rows
    if colors is not None:
        assert all(hcolors[iso[v]] == colors[v] for v in range(g.n))


@settings(max_examples=100, deadline=None)
@given(_base_graphs.filter(_twin_free), st.data())
def test_twin_sizes_and_kinds_reach_the_certificate(base, data):
    """Blow-ups of one twin-free graph with equal vertex counts whose twin
    quotients have equal ranks, so equal quotient certificates, but other
    class sizes or kinds: never isomorphic, as the largest class or the
    edge count differs."""
    n = base.n
    small = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    s = sum(small)
    assume(0 < s < n)
    # sizes 1 < n + 2 against 1 + n - s < n + 2 - s: s + (n - s)(n + 2) vertices
    sized = [_blow_up(base, [a if x else b for x in small], [False] * n)
             for a, b in ((1, n + 2), (1 + n - s, n + 2 - s))]
    kinds = [_blow_up(base, [2] * n, [clique] * n) for clique in (False, True)]
    for a, b in (sized, kinds):
        assert a.n == b.n
        cert = canonical_labeling(a)[0]
        assert cert != canonical_labeling(b)[0]
        assert match_certificate(b, cert) is None


# -- backjumping against the search without it ------------------------------

def _circulant(n, jumps):
    return Graph.from_edges(n, [(v, (v + j) % n) for v in range(n) for j in jumps])


def _copies(g, k):
    """k disjoint copies of g."""
    return Graph.from_edges(g.n * k, [(i * g.n + u, i * g.n + v)
                                      for i in range(k) for u, v in g.edges()])


def _nx_graph(ng):
    return Graph.from_edges(ng.number_of_nodes(), list(ng.edges()))


def _latin_square_graph(square):
    """Cells of a Latin square, adjacent when they share a row, a column or
    a symbol: strongly regular, so refinement leaves deep search trees
    whose leaves are not all equivalent."""
    m = len(square)
    cells = [(r, c, square[r][c]) for r in range(m) for c in range(m)]
    return Graph.from_edges(m * m, [
        (i, j) for (i, a), (j, b) in combinations(enumerate(cells), 2)
        if any(x == y for x, y in zip(a, b))])


REFERENCE_GRAPHS = {
    **{f"gnp{seed}": (lambda seed=seed: _nx_graph(nx.gnp_random_graph(
        10 + 5 * seed, 0.15 + 0.1 * seed, seed=seed))) for seed in range(4)},
    **{f"regular{seed}": (lambda seed=seed: _nx_graph(nx.random_regular_graph(
        3 + seed % 2, 12 + 6 * seed, seed=seed))) for seed in range(4)},
    **{f"twins{seed}": (lambda seed=seed: _blow_up(
        _nx_graph(nx.gnp_random_graph(7, 0.4, seed=seed)),
        [1 + (seed + v) % 3 for v in range(7)], [v % 2 == 0 for v in range(7)]))
       for seed in range(3)},
    "circulant12": lambda: _circulant(12, (1, 5)),
    "circulant21": lambda: _circulant(21, (1, 3, 8)),
    "3-petersen": lambda: _copies(_nx_graph(nx.petersen_graph()), 3),
    "latin5": lambda: _latin_square_graph(
        [[0, 1, 3, 4, 2], [2, 0, 1, 3, 4], [4, 3, 2, 1, 0], [3, 4, 0, 2, 1],
         [1, 2, 4, 0, 3]]),
    "latin6": lambda: _latin_square_graph(
        [[3, 2, 1, 5, 0, 4], [1, 5, 2, 3, 4, 0], [4, 1, 3, 0, 5, 2],
         [2, 4, 0, 1, 3, 5], [5, 0, 4, 2, 1, 3], [0, 3, 5, 4, 2, 1]]),
    "J(7,3)": lambda: build(SchemeParams.parse("J{2}(7,3)")),
    "J2(8,4)": lambda: build(SchemeParams.parse("J{2}(8,4)")),
    "K2(4,2)": lambda: build(SchemeParams.parse("Jq{0}(4,2;q=2)")),
}


def _orbit_labels(n, gens):
    """Each vertex's least orbit mate under the generators, by union-find."""
    root = list(range(n))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for p in gens:
        for v in range(n):
            a, b = sorted((find(v), find(p[v])))
            root[b] = a
    return [find(v) for v in range(n)]


@pytest.mark.parametrize("colored", (False, True), ids=("plain", "colored"))
@pytest.mark.parametrize("name", REFERENCE_GRAPHS)
def test_backjumping_search_matches_the_reference(name, colored):
    """Labelings, forms and matches equal the search without backjumping
    byte for byte, and the generators have the same vertex orbits.  The
    colored runs set vertex 0 and its neighbours apart, which keeps part of
    the symmetry."""
    g = REFERENCE_GRAPHS[name]()
    colors = None
    if colored:
        colors = [2 if v == 0 else g.rows[0] >> v & 1 for v in range(g.n)]
    cert, perm, gens = canon_reference(g, colors)
    assert canonical_labeling(g, colors=colors) == (cert, perm)
    inv = [0] * g.n
    for pos, v in enumerate(perm):
        inv[v] = pos
    assert canonical_form(g, colors=colors) == encode_graph6(g.relabel(inv))
    assert (_orbit_labels(g.n, automorphism_generators(g, colors=colors))
            == _orbit_labels(g.n, gens))
    shuffle = list(range(g.n))
    random.Random(g.n).shuffle(shuffle)
    h = g.relabel(shuffle)
    hcolors = None
    if colors is not None:
        hcolors = [0] * g.n
        for v, w in enumerate(shuffle):
            hcolors[w] = colors[v]
    match = match_certificate(h, cert, colors=hcolors)
    assert match is not None
    assert match == canon_reference(h, hcolors, target=cert)[1]


def test_first_leaf_ends_the_first_path_of_the_search():
    """The descent that probes isomorphic pairs reaches the search's first
    leaf, and counts its nodes against the budget as the search does."""
    for name, make in REFERENCE_GRAPHS.items():
        g = make()
        adj, order, bnd, _, _ = canon._prepare(g, None)
        search = canon._Search(adj, canon.DEFAULT_NODE_BUDGET)
        search.dfs(order, bnd, 0)
        _, first, path = search.first
        leaf = canon._first_leaf(adj, order, bnd, len(path))
        assert leaf.tolist() == first.tolist(), name
        if path:
            with pytest.raises(BudgetExhaustedError):
                canon._first_leaf(adj, order, bnd, len(path) - 1)
