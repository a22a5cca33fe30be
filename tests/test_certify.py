"""Tests for the invariant ladder, lambda profiles, and triple scans."""

import hashlib
import random
import re
from itertools import combinations

import numpy as np
import pytest

from spectral_switch import canon, certify
from spectral_switch.certify import (
    LADDER_LEVELS,
    NonIsoVerdict,
    _selective_pair,
    canonical_form,
    lambda_profile,
    nonisomorphic,
    selective_neighbor_count,
    transitive_nonisomorphic,
    vertex_lambda_colors,
)
from spectral_switch.families import (
    recipe_halfrange_2kk,
    recipe_j2n4,
    recipe_qkneser,
    run_recipe,
)
from spectral_switch.graphcore import Graph, dense_adjacency
from spectral_switch.schemes import SchemeParams, build

from test_canon import REFERENCE_GRAPHS

from oracles import (
    scan_triple_property_reference,
    selective_count_brute,
    selective_pair_reference,
    vertex_lambda_colors_reference,
)


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _nonempty_subsets(k):
    return [set(S) for r in range(1, k + 1) for S in combinations(range(k), r)]


def random_graph(n, p, seed):
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def test_lambda_profile_hand_checks():
    # K4: six edges, each with two common neighbors, no non-edges
    assert lambda_profile(complete(4)) == lambda_profile(complete(4))
    p = lambda_profile(complete(4))
    assert p.edge == ((2, 6),)
    assert p.nonedge == ()
    # C4: four edges with no common neighbors, two diagonals with two each
    p = lambda_profile(cycle(4))
    assert p.edge == ((0, 4),)
    assert p.nonedge == ((2, 2),)
    # path on 3 vertices
    p = lambda_profile(Graph.from_edges(3, [(0, 1), (1, 2)]))
    assert p.edge == ((0, 2),)
    assert p.nonedge == ((1, 1),)


@pytest.mark.parametrize("n", [0, 1, 2, 255, 256, 257, 300])
def test_lambda_profile_matches_pairwise_count(n):
    # sizes on both sides of one block of rows of the A A product
    from collections import Counter

    assert certify._LAMBDA_ROWS == 256
    g = random_graph(n, 0.3, 7)
    nbrs = [{x for x in range(g.n) if g.has_edge(u, x)} for u in range(g.n)]
    edge, nonedge = Counter(), Counter()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            (edge if v in nbrs[u] else nonedge)[len(nbrs[u] & nbrs[v])] += 1
    p = lambda_profile(g)
    assert p.edge == tuple(sorted(edge.items()))
    assert p.nonedge == tuple(sorted(nonedge.items()))


def test_selective_count_matches_brute_force():
    for seed in range(10):
        g = random_graph(9, 0.5, seed)
        for a, b, c in [(0, 1, 2), (3, 7, 5), (8, 0, 4)]:
            assert selective_neighbor_count(g, a, b, c) == selective_count_brute(g, a, b, c)


def test_selective_count_rejects_repeats():
    g = cycle(5)
    with pytest.raises(ValueError, match="distinct"):
        selective_neighbor_count(g, 1, 1, 2)


def test_selective_count_refuses_vertices_out_of_range():
    g = cycle(5)
    for triple in ((-1, 1, 2), (0, 5, 2), (0, 1, 7)):
        with pytest.raises(ValueError, match="out of range for n=5$"):
            selective_neighbor_count(g, *triple)


def _selective_pairs(g):
    """_selective_pair at every vertex of g."""
    a = dense_adjacency(g, np.float32)
    return [_selective_pair(a, v) for v in range(g.n)]


def test_selective_pair_hand_examples():
    # a-b path plus two isolated vertices: lambda(a; c, d) = 1 via b and
    # lambda(b; c, d) = 1 via a; c and d have no neighbours to count
    assert _selective_pairs(Graph.from_edges(4, [(0, 1)])) == [(2, 3), (2, 3), None, None]
    # empty graph: every selective count is 0
    assert _selective_pairs(Graph(5, [0] * 5)) == [None] * 5
    # complete graph has no non-adjacent triples at all
    assert _selective_pairs(complete(5)) == [None] * 5


def test_scan_matches_reference_on_random_graphs():
    """Seeded G(n, p) graphs with n <= 12: the pair at every vertex is the
    reference's, and some vertex has one exactly when the whole-graph triple
    reference finds a triple, both outcomes many times over."""
    outcomes = {True: 0, False: 0}
    for seed in range(2400):
        rng = random.Random(seed)
        g = random_graph(rng.randrange(0, 13), rng.choice((0.2, 0.35, 0.5, 0.65, 0.8)),
                         seed)
        pairs = _selective_pairs(g)
        assert pairs == [selective_pair_reference(g, v) for v in range(g.n)], seed
        got = any(p is not None for p in pairs)
        assert got == scan_triple_property_reference(g), seed
        outcomes[got] += 1
    assert min(outcomes.values()) > 500, outcomes


@pytest.mark.parametrize("n", [4, 5])
def test_scan_matches_reference_on_qkneser_pairs(n):
    """No vertex of K_2(n,2) has a selective pair (it is vertex-transitive,
    so vertex 0 stands for all), and some vertex of its mate does."""
    from spectral_switch.switching import apply_switching

    r = recipe_qkneser(n, 2)
    g = build(r.params)
    mate = apply_switching(g, r.spec)
    assert _selective_pair(dense_adjacency(g, np.float32), 0) is None
    assert selective_pair_reference(g, 0) is None
    assert scan_triple_property_reference(g) is False
    pairs = _selective_pairs(mate)
    assert pairs == [selective_pair_reference(mate, v) for v in range(mate.n)]
    assert any(p is not None for p in pairs)
    assert scan_triple_property_reference(mate) is True


def test_scan_matches_brute_rotations():
    # the triple (v, b, c) is scanned at each of its vertices: the scan at v
    # finds a pair exactly when some pairwise non-adjacent b, c gives
    # lambda(v; b, c) = 1, counted here vertex by vertex
    for seed in range(6):
        g = random_graph(8, 0.55, seed)
        for v, pair in enumerate(_selective_pairs(g)):
            free = [u for u in range(8) if u != v and not g.has_edge(u, v)]
            brute = any(selective_count_brute(g, v, b, c) == 1
                        for b, c in combinations(free, 2) if not g.has_edge(b, c))
            assert (pair is not None) == brute, (seed, v)


def test_ladder_levels_constant():
    assert LADDER_LEVELS == (
        "degree-seq",
        "edge-lambda",
        "nonedge-lambda",
        "wl1-histogram",
        "canonical-form",
    )


def test_ladder_degree_seq_levels():
    v = nonisomorphic(cycle(4), cycle(5))
    assert v.distinguished and v.level == "degree-seq"
    assert "vertex counts differ" in v.witness
    # saltire pair: cospectral but degree sequences differ
    g1 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0)])  # C4 + K1
    g2 = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])  # star
    v = nonisomorphic(g1, g2)
    assert v.distinguished and v.level == "degree-seq"
    assert "sorted degree sequences differ" in v.witness


def test_ladder_edge_lambda_level():
    # C6 and 2*C3 are both 2-regular; triangle edges have a common neighbor
    c6 = cycle(6)
    cc = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    v = nonisomorphic(c6, cc)
    assert v.distinguished and v.level == "edge-lambda"
    assert "edge common-neighbor count" in v.witness


def test_ladder_nonedge_lambda_level():
    # C8 and 2*C4: 2-regular and triangle-free, so every edge has no common
    # neighbour; distance-2 pairs share one neighbour in C8, two in C4
    c44 = Graph.from_edges(8, [(i, (i + 1) % 4) for i in range(4)]
                           + [(4 + i, 4 + (i + 1) % 4) for i in range(4)])
    v = nonisomorphic(cycle(8), c44)
    assert v == NonIsoVerdict(True, "nonedge-lambda",
                              "non-edge common-neighbor count 0 appears 12 times "
                              "in graph 1 but 16 times in graph 2")


# An 11-vertex pair with one degree sequence and one lambda profile that
# color refinement separates only through the counts between its classes.
WL1_EDGES = [(0, 3), (0, 4), (0, 7), (0, 9), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6),
             (2, 8), (2, 9), (2, 10), (3, 4), (3, 6), (3, 9), (4, 5), (4, 9), (7, 10),
             (8, 9), (9, 10)]


def test_ladder_wl1_level():
    g1 = Graph.from_edges(11, WL1_EDGES)
    g2 = Graph.from_edges(11, [e for e in WL1_EDGES if e not in ((4, 5), (9, 10))]
                          + [(4, 10), (5, 9)])
    assert sorted(g1.degrees()) == sorted(g2.degrees())
    assert lambda_profile(g1) == lambda_profile(g2)
    v = nonisomorphic(g1, g2)
    assert v.distinguished and v.level == "wl1-histogram"
    assert v.witness == ("1-WL quotient entry (1, 3) differs: a vertex of cell 1 "
                         "has 1 neighbours in cell 3 in graph 1 but 0 in graph 2")


def test_wl1_witness_names_a_trace_step():
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    w = certify._wl1_witness(certify.wl1_histogram(p4), certify.wl1_histogram(star))
    assert w == ("1-WL refinement traces differ at step 0: "
                 "(0, ((1, 2), (2, 2))) vs (0, ((1, 3), (3, 1)))")


@pytest.fixture
def labelings(monkeypatch):
    """The graphs passed to certify.canonical_labeling, one entry per call."""
    calls = []
    real = certify.canonical_labeling

    def counted(g, *args):
        calls.append(g)
        return real(g, *args)

    monkeypatch.setattr(certify, "canonical_labeling", counted)
    return calls


def _relabeled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return g.relabel(perm)


def _shrikhande():
    """Cayley graph of Z_4 x Z_4 on the steps +-(1, 0), +-(0, 1), +-(1, 1)."""
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    return Graph.from_edges(16, [(a, b) for a, b in combinations(range(16), 2)
                                 if ((b // 4 - a // 4) % 4, (b - a) % 4) in steps])


def _rook(m):
    """The m x m rook's graph: cells adjacent in one row or one column."""
    return Graph.from_edges(m * m, [(a, b) for a, b in combinations(range(m * m), 2)
                                    if a // m == b // m or a % m == b % m])


# pairs that agree on every cheaper invariant: the q=2 Kneser pair, and the
# Shrikhande and 4 x 4 rook's graphs, both SRG(16, 6, 2, 2)
CANONICAL_LEVEL_PAIRS = {
    "qkneser(n=4,k=2)": lambda reports: (reports["qkneser(n=4,k=2)"].graph,
                                         reports["qkneser(n=4,k=2)"].mate),
    "shrikhande-rook4": lambda reports: (_shrikhande(), _rook(4)),
}


@pytest.mark.parametrize("pair", CANONICAL_LEVEL_PAIRS)
def test_ladder_canonical_level(corpus_reports, labelings, pair):
    """Distinguished after the first leaves differ: graph 1 is labeled once
    and graph 2 searched in full for its certificate.  Searching graph 2 for
    graph 1's first leaf instead would make no labeling call."""
    g1, g2 = CANONICAL_LEVEL_PAIRS[pair](corpus_reports)
    v = nonisomorphic(g1, g2)
    assert v.distinguished and v.level == "canonical-form"
    assert v.witness == "canonical certificates differ"
    assert labelings == [g1]


COMPARE_MATES = ("j2n4(n=8)", "halfrange(k=5)", "sporadic(J1-11-4)",
                 "sporadic(J24-10-5)")

# The inputs whose relabelings have first leaves unlike the original's, so
# that graph 1 is labeled and graph 2 matched; every other input is proved
# by the two first leaves.  Both paths must stay covered.
FALLBACK_INPUTS = ("latin5", "latin6")


@pytest.mark.parametrize("name", ["petersen", *REFERENCE_GRAPHS, *COMPARE_MATES])
def test_isomorphic_pair_yields_mapping(name, request, corpus_reports, labelings):
    """Also a cost guard: the compare mates are proved with no canonical
    labeling, where labeling graph 1 first made one call per pair."""
    if name in REFERENCE_GRAPHS:
        g = REFERENCE_GRAPHS[name]()
    elif name in COMPARE_MATES:
        g = corpus_reports[name].mate
    else:
        g = request.getfixturevalue(name)
    for seed in (0, 1, 2):
        labelings.clear()
        g2 = _relabeled(g, seed)
        v = nonisomorphic(g, g2)
        assert not v.distinguished
        assert v.level == "canonical-form"
        assert not v.node_budget_exhausted
        assert g.relabel(v.isomorphism).rows == g2.rows
        if name in FALLBACK_INPUTS:
            assert v.witness == "canonical certificates agree"
            assert labelings == [g]
        else:
            assert v.witness == "first leaves agree"
            assert labelings == []


def test_ladder_forms_a_a_once_per_graph(corpus_reports, monkeypatch):
    """Cost guard: the lambda rungs and the colours that seed canon read one
    float32 adjacency matrix per graph, where a profile pass and a colour
    pass formed two."""
    dtypes = []
    real = certify.dense_adjacency

    def counted(g, dtype=np.float64):
        dtypes.append(dtype)
        return real(g, dtype)

    monkeypatch.setattr(certify, "dense_adjacency", counted)
    mate = corpus_reports["j2n4(n=8)"].mate
    v = nonisomorphic(mate, _relabeled(mate, 0))
    assert v.level == "canonical-form" and v.isomorphism is not None
    assert dtypes.count(np.float32) == 2


def test_budget_exhaustion_is_unknown(petersen):
    v = nonisomorphic(petersen, petersen.relabel(list(range(1, 10)) + [0]), budget=3)
    assert not v.distinguished
    assert v.node_budget_exhausted
    assert v.witness is None


def test_verdict_json_shape():
    v = NonIsoVerdict(True, "edge-lambda", "w")
    d = v.to_json_dict()
    assert d == {
        "distinguished": True,
        "level": "edge-lambda",
        "witness": "w",
        "node_budget_exhausted": False,
    }
    v2 = NonIsoVerdict(False, "canonical-form", "ok", isomorphism=(1, 0))
    assert v2.to_json_dict()["isomorphism"] == [1, 0]


def test_vertex_lambda_colors_invariance():
    g = random_graph(12, 0.4, 3)
    colors = vertex_lambda_colors(g)
    rng = random.Random(7)
    perm = list(range(12))
    rng.shuffle(perm)
    g2 = g.relabel(perm)
    colors2 = vertex_lambda_colors(g2)
    assert all(colors2[perm[v]] == colors[v] for v in range(12))


def test_canonical_form_separates_and_identifies(petersen):
    c6 = cycle(6)
    cc = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert canonical_form(c6) != canonical_form(cc)
    g2 = petersen.relabel([3, 1, 4, 0, 5, 9, 2, 6, 8, 7])
    assert canonical_form(petersen) == canonical_form(g2)


def test_vertex_lambda_colors_match_reference():
    # sizes on both sides of one block of rows of the A A product
    for seed, n in enumerate((0, 1, 2, 9, 40, 257, 300)):
        g = random_graph(n, 0.1 + 0.1 * (seed % 5), seed)
        assert vertex_lambda_colors(g) == vertex_lambda_colors_reference(g), n


# sha256 of certify.canonical_form for every corpus original and mate with
# n <= 500, as computed before the refinement moved to arrays.  The search
# workload's K_2(4,2) and J_2(8,4) are the originals of qkneser(4,2) and
# j2n4(8), so their rows cover those two as well.
GOLDEN_FORMS = {
    ("j2n4(n=8)", "original"): "b938de129ea6fdd6aaa1aacaf1349bb60f7b88bb8a948f689633956c29d7ac2b",
    ("j2n4(n=8)", "mate"): "cb5fe68c0dbe2b81284b1b57e22bb64c28f52e1c7fb3144e6aa5c16f588446f6",
    ("halfrange(k=5)", "original"): "f4c8dcf0e7f382e43c4adf99cedb064d19f6c4123e758a703bc85bfbb81fa86e",
    ("halfrange(k=5)", "mate"): "c558faf4e3de8b1386fb0559c38f1d4554d555591643f1b73e8fc5995c705b46",
    ("qkneser(n=4,k=2)", "original"): "bb8c3d5d06c9bc69fc5d25e6896524e083dde8724d10777b8c1818da75199b7f",
    ("qkneser(n=4,k=2)", "mate"): "84e0db0c2373ea997b5e8aee90607889791f26333f69acb3669ecf919449cfe8",
    ("sporadic(J1-11-4)", "original"): "b0b2c51378fa16e3fb19d52b61a79f10979f4ee79935079891cb5d270bc8757c",
    ("sporadic(J1-11-4)", "mate"): "61f155f9641319b29678baa3d528aee1a96a8583500170e620f4e3bbe7d72c5b",
    ("sporadic(J24-10-5)", "original"): "d494e05e08f879089d8e2d7e1e85b1aae67bfef78dde7a5bc51c978fcfa17a17",
    ("sporadic(J24-10-5)", "mate"): "3e991c50d08a8376b396e2f4d32c1d8776ec17638cd9ea128e496ba0b478621d",
}


def test_canonical_forms_golden(corpus_reports, k242, j284):
    got = {}
    for rep in corpus_reports.values():
        if rep.graph.n <= 500:
            for tag, g in (("original", rep.graph), ("mate", rep.mate)):
                got[rep.recipe.name, tag] = hashlib.sha256(canonical_form(g)).hexdigest()
    assert got == GOLDEN_FORMS
    assert k242.rows == corpus_reports["qkneser(n=4,k=2)"].graph.rows
    assert j284.rows == corpus_reports["j2n4(n=8)"].graph.rows


def test_isomorphic_pair_labels_graph_one_only(corpus_reports, labelings):
    """Graph 2 is searched for graph 1's certificate, not labeled itself.
    This relabeling's first leaf differs from the mate's."""
    mate = corpus_reports["qkneser(n=4,k=2)"].mate
    other = _relabeled(mate, 3)
    v = nonisomorphic(mate, other)
    assert not v.distinguished and v.level == "canonical-form"
    assert mate.relabel(v.isomorphism).rows == other.rows
    assert labelings == [mate]


def test_budget_exhaustion_in_graph_two(corpus_reports):
    """The qkneser(4,2) original labels in 31 nodes; searching the mate for
    its certificate needs 63, so a budget of 50 runs out in graph 2."""
    rep = corpus_reports["qkneser(n=4,k=2)"]
    g1, g2 = rep.graph, rep.mate
    certify.canonical_labeling(g1, 50, vertex_lambda_colors(g1))
    v = nonisomorphic(g1, g2, budget=50)
    assert v == NonIsoVerdict(False, "canonical-form", None, node_budget_exhausted=True)
    assert nonisomorphic(g1, g2).witness == "canonical certificates differ"


def test_twin_quotient_proves_the_j24_12_6_mate_isomorphic(corpus_reports):
    """The J24-12-6 mate has 462 pairs of open twins, a 6-set and its
    complement.  Its 462-vertex twin quotient matches a relabeling within
    a budget of 1000 nodes; searched whole, it exhausted the default
    budget of 200000."""
    mate = corpus_reports["sporadic(J24-12-6)"].mate
    assert len(set(mate.rows)) == mate.n // 2
    perm = list(range(mate.n))
    random.Random(7).shuffle(perm)
    other = mate.relabel(perm)
    v = nonisomorphic(mate, other, budget=1000)
    assert not v.distinguished and not v.node_budget_exhausted
    assert v.level == "canonical-form"
    assert mate.relabel(v.isomorphism).rows == other.rows


def test_twins_call_canon_through_module_attributes_as_before(corpus_reports,
                                                               monkeypatch):
    """Reducing by twins inside canon calls no public canon function through
    its module attribute: canon.canonical_form still makes one
    canon.canonical_labeling call, and nonisomorphic goes through
    certify's own names only; its first leaves prove this pair, so it
    makes no call at all."""
    calls = []
    for module, name in ((canon, "canonical_labeling"),
                         (canon, "automorphism_generators"),
                         (certify, "canonical_labeling")):
        def counted(*args, _real=getattr(module, name),
                    _tag=f"{module.__name__.rsplit('.', 1)[1]}.{name}", **kwargs):
            calls.append(_tag)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    mate = corpus_reports["j2n4(n=8)"].mate
    assert len(set(mate.rows)) < mate.n
    canonical_form(mate)
    assert calls == ["canon.canonical_labeling"]
    calls.clear()
    perm = list(range(mate.n))
    random.Random(5).shuffle(perm)
    v = nonisomorphic(mate, mate.relabel(perm))
    assert v.isomorphism is not None
    assert calls == []


# -- transitive_nonisomorphic ------------------------------------------------

TRANSITIVE = [SchemeParams.johnson(n, k, S)
              for n, k in ((6, 3), (7, 3), (8, 4)) for S in _nonempty_subsets(k)]
TRANSITIVE += [SchemeParams.grassmann(n, 2, S, q)
               for n, q in ((4, 2), (5, 2), (4, 3)) for S in _nonempty_subsets(2)]


@pytest.mark.parametrize("params", TRANSITIVE, ids=SchemeParams.format)
def test_scheme_graphs_look_the_same_from_every_vertex(params):
    """The rung's precondition, checked rather than assumed: every vertex
    has vertex 0's lambda signature and selective answer."""
    g = build(params)
    assert transitive_nonisomorphic(g, g, range(g.n)) is None


def test_transitive_rung_never_separates_a_relabeled_original(corpus_reports):
    for seed, rep in enumerate(corpus_reports.values()):
        perm = list(range(rep.graph.n))
        random.Random(seed).shuffle(perm)
        relabeled = rep.graph.relabel(perm)
        assert transitive_nonisomorphic(rep.graph, relabeled, range(rep.graph.n)) is None


_LAMBDA_WITNESS = re.compile(
    r"^(edge|non-edge) common-neighbor count (\d+) appears (\d+) times at vertex 0 "
    r"of graph 1 but (\d+) times at vertex (\d+) of graph 2$")
_SELECTIVE_WITNESS = re.compile(r"^lambda\((\d+); (\d+), (\d+)\) = 1 at vertex \1 of graph 2")


def _lambda_count(g, v, lam, adjacent):
    return sum(1 for u in range(g.n)
               if u != v and g.has_edge(v, u) == adjacent and g.common_neighbors(v, u) == lam)


def _check_transitive_witness(g, mate, verdict):
    """Recount the witness's claim from the graphs by pairwise counts."""
    if verdict.level == "transitive-lambda":
        kind, lam, before, after, v = _LAMBDA_WITNESS.match(verdict.witness).groups()
        adjacent = kind == "edge"
        assert _lambda_count(g, 0, int(lam), adjacent) == int(before)
        assert _lambda_count(mate, int(v), int(lam), adjacent) == int(after)
    else:
        a, b, c = map(int, _SELECTIVE_WITNESS.match(verdict.witness).groups())
        assert not (mate.has_edge(a, b) or mate.has_edge(a, c) or mate.has_edge(b, c))
        assert selective_neighbor_count(mate, a, b, c) == 1
        assert not any(selective_neighbor_count(g, 0, b, c) == 1
                       for b in range(1, g.n) for c in range(b + 1, g.n)
                       if not (g.has_edge(0, b) or g.has_edge(0, c) or g.has_edge(b, c)))


def _agreement_reports(corpus_reports):
    yield from corpus_reports.values()
    for r in ([recipe_halfrange_2kk(7), recipe_qkneser(5, 2), recipe_qkneser(6, 3)]
              + [recipe_j2n4(n) for n in range(8, 17)]):
        yield run_recipe(r)


def test_transitive_rung_decides_and_agrees_with_the_ladder(corpus_reports):
    levels = {}
    for rep in _agreement_reports(corpus_reports):
        nv = rep.noniso_verdict
        levels[rep.recipe.name] = nv.level
        assert nv.distinguished and nv.level.startswith("transitive-"), rep.recipe.name
        _check_transitive_witness(rep.graph, rep.mate, nv)
        assert nonisomorphic(rep.graph, rep.mate).distinguished, rep.recipe.name
    assert {name for name, lvl in levels.items() if lvl == "transitive-selective"} == {
        "qkneser(n=4,k=2)", "qkneser(n=5,k=2)"}


def test_transitive_witness_names_the_mate_vertex(corpus_reports):
    assert corpus_reports["qkneser(n=4,k=2)"].noniso_verdict.witness.startswith(
        "lambda(24; ")
    assert "at vertex 126 of graph 2" in (
        corpus_reports["sporadic(J1-11-4)"].noniso_verdict.witness)


def test_selective_rung_only_up_to_the_scan_limit(corpus_reports, monkeypatch):
    rep = corpus_reports["qkneser(n=4,k=2)"]
    vertices = rep.recipe.spec.all_vertices() + (24,)
    monkeypatch.setattr(certify, "_SCAN_MAX_N", rep.graph.n)  # the limit is inclusive
    assert transitive_nonisomorphic(rep.graph, rep.mate, vertices).level == (
        "transitive-selective")
    monkeypatch.setattr(certify, "_SCAN_MAX_N", rep.graph.n - 1)
    assert transitive_nonisomorphic(rep.graph, rep.mate, vertices) is None


@pytest.mark.parametrize("bitwise_count", [True, False], ids=["numpy", "byte-table"])
@pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
def test_transitive_rung_lambda_rows_cross_row_blocks(monkeypatch, n, bitwise_count):
    """Key rows (lambda on edges, n + 1 + lambda on non-edges, -1 at the
    vertex itself) are packed-row popcounts formed a block of rows at a
    time; at 1 to 3 words per row, and in blocks of 37 words, every block
    must land in its own columns and every word must count, with numpy's
    popcount or the byte table that numpy < 2 uses."""
    if not bitwise_count:
        monkeypatch.delattr(np, "bitwise_count", raising=False)
    monkeypatch.setattr(certify, "_BLOCK_WORDS", 37)
    g = random_graph(n, 0.5, n)
    vertices = [0, 36, 37, n - 1]
    a = dense_adjacency(g, np.int64)
    want = a[vertices] @ a + (n + 1) * (1 - a[vertices])
    want[range(4), vertices] = -1
    assert certify._lambda_rows(g, vertices).tolist() == want.tolist()


def test_transitive_rung_checks_its_vertices():
    g = cycle(5)
    with pytest.raises(ValueError, match="^vertex 5 out of range for n=5$"):
        transitive_nonisomorphic(g, g, [0, 5])
    with pytest.raises(ValueError, match="^vertex -1 out of range for n=5$"):
        transitive_nonisomorphic(g, g, [-1])
    assert transitive_nonisomorphic(g, g, []) is None
    assert transitive_nonisomorphic(g, cycle(6), [0]) is None
    # C6 against two triangles: every vertex has degree 2, and lambda 1 on
    # an edge appears only in the triangles
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    verdict = transitive_nonisomorphic(cycle(6), two_triangles, [3])
    assert verdict.level == "transitive-lambda"
    assert verdict.witness == ("edge common-neighbor count 0 appears 2 times at vertex 0 "
                               "of graph 1 but 0 times at vertex 3 of graph 2")
    # vertex 0 of a triangle with a pendant path at each other corner has
    # C6's non-edge histogram {0: 1, 1: 2}, so only the edge one separates
    kite = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])
    verdict = transitive_nonisomorphic(cycle(6), kite, [0])
    assert verdict.level == "transitive-lambda"
    assert verdict.witness.startswith("edge common-neighbor count 0 appears 2 times")
