"""Search over candidate switching cells: budgets, dedup, pattern generators."""

import random
from itertools import combinations

import networkx as nx
import pytest

from spectral_switch import canon, search
from spectral_switch.certify import lambda_profile
from spectral_switch.families import recipe_j2n4, recipe_sporadic
from spectral_switch.graphcore import Graph
from spectral_switch.schemes import SchemeParams, build
from spectral_switch.search import (
    SearchConfig,
    SearchResult,
    johnson_block_triples,
    johnson_core_triples,
    search_gm4,
    search_wqh33,
)
from spectral_switch.switching import (
    GmSpec,
    WqhSpec,
    apply_switching,
    validate,
    validate_gm,
)

from oracles import search_wqh33_reference


def pair_key(spec):
    return frozenset((frozenset(spec.c1), frozenset(spec.c2)))


def test_config_validation():
    with pytest.raises(ValueError, match="unknown search mode"):
        SearchConfig(mode="dfs")
    with pytest.raises(ValueError, match="positive"):
        SearchConfig(max_candidates=0)
    with pytest.raises(ValueError, match="positive"):
        SearchConfig(time_budget=0)
    with pytest.raises(ValueError, match="positive"):
        SearchConfig(time_budget=float("nan"))  # a NaN deadline never passes


def test_gm4_raw_scan_on_q2_kneser(k242):
    res = search_gm4(k242, SearchConfig(dedup=False))
    assert not res.partial
    assert res.dedup_exact is None
    assert len(res.specs) == 840
    assert any(sorted(s.cells[0]) == [0, 10, 16, 28] for s in res.specs)
    # every returned spec actually validates
    for s in res.specs[:25]:
        assert validate(k242, s).valid
    # deterministic
    res2 = search_gm4(k242, SearchConfig(dedup=False))
    assert res.specs == res2.specs


def test_gm4_dedup_collapses_orbit(k242):
    res = search_gm4(k242, SearchConfig(dedup=True))
    assert not res.partial
    assert res.dedup_exact is True
    assert len(res.specs) == 2
    # the kept mates are genuinely different graphs, with one lambda-profile:
    # only their canonical forms tell them apart
    mates = [apply_switching(k242, s) for s in res.specs]
    assert lambda_profile(mates[0]) == lambda_profile(mates[1])
    assert search.canonical_form(mates[0]) != search.canonical_form(mates[1])
    assert all(m != k242 for m in mates)


def test_gm4_candidate_budget(k242):
    res = search_gm4(k242, SearchConfig(max_candidates=100, dedup=False))
    assert res.partial


def test_gm4_time_budget(k242):
    res = search_gm4(k242, SearchConfig(time_budget=1e-9, dedup=False))
    assert res.partial


def test_gm4_edgeless_identity_switches():
    g = Graph(8, [0] * 8)
    raw = search_gm4(g, SearchConfig(dedup=False))
    assert len(raw.specs) == 70  # C(8,4); every cell qualifies trivially
    deduped = search_gm4(g, SearchConfig(dedup=True))
    assert deduped.specs == ()  # nothing flips, all switches are identities


def test_gm4_raw_specs_are_the_cells_validate_gm_accepts():
    """The one parity test on outside vertices keeps exactly the 4-subsets
    that validate_gm accepts: seeded G(n, p) graphs, and the edgeless and
    complete graphs, where every 4-subset is a cell."""
    accepted = 0
    for seed in range(22):
        rng = random.Random(seed)
        n = rng.randint(7, 11)
        p = (0.0, 1.0)[seed] if seed < 2 else rng.uniform(0.2, 0.8)
        g = Graph.from_edges(n, list(nx.gnp_random_graph(n, p, seed=seed).edges()))
        want = [cell for cell in combinations(range(n), 4)
                if validate_gm(g, GmSpec([cell])).valid]
        raw = search_gm4(g, SearchConfig(dedup=False))
        assert [tuple(s.cells[0]) for s in raw.specs] == want, seed
        accepted += len(want) if seed >= 2 else 0
    assert accepted >= 25  # random graphs, not only the trivial two


def test_core_triples_shape():
    cands = johnson_core_triples(8, 4)
    assert len(cands) == 560  # C(8,3) * C(5,3)
    assert all(len(set(t)) == 3 for t in cands)
    with pytest.raises(ValueError, match="k >= 2"):
        johnson_core_triples(6, 1)


def test_block_triples_shape():
    cands = johnson_block_triples(11, 4)
    assert len(cands) == 560  # 280 partitions of {1..9} x 2 tails
    assert all(len(set(t)) == 3 for t in cands)
    with pytest.raises(ValueError, match="k >= 2"):
        johnson_block_triples(6, 1)
    assert len(johnson_block_triples(10, 4)) == 280  # one tail
    with pytest.raises(ValueError, match=r"needs n >= 3\(k-1\) \+ 1 = 10 for k=4, got n=9"):
        johnson_block_triples(9, 4)


def test_wqh33_rediscovers_j2n4_pair(j284):
    cands = johnson_core_triples(8, 4)
    res = search_wqh33(j284, cands, cands, SearchConfig(mode="wqh33", dedup=False))
    assert not res.partial
    assert len(res.specs) == 280
    assert pair_key(recipe_j2n4(8).spec) in {pair_key(s) for s in res.specs}
    for s in res.specs[:10]:
        assert validate(j284, s).valid


def test_wqh33_rediscovers_sporadic_pair():
    g = build(SchemeParams.johnson(11, 4, {1}))
    cands = johnson_block_triples(11, 4)
    res = search_wqh33(g, cands, cands, SearchConfig(mode="wqh33", dedup=False))
    assert len(res.specs) == 280
    assert pair_key(recipe_sporadic("J1-11-4").spec) in {pair_key(s) for s in res.specs}


def _wqh33_pairs(g, c1s, c2s, **cfg):
    res = search_wqh33(g, c1s, c2s, SearchConfig(mode="wqh33", dedup=False, **cfg))
    return [(s.c1, s.c2) for s in res.specs], res.partial


@pytest.mark.parametrize("job", ["core", "blocks"])
def test_wqh33_matches_reference_on_johnson_jobs(job, j284):
    """The search workload's two scans: J_2(8,4) core, J_1(11,4) blocks."""
    if job == "core":
        g, cands = j284, johnson_core_triples(8, 4)
    else:
        g, cands = build(SchemeParams.johnson(11, 4, {1})), johnson_block_triples(11, 4)
    assert _wqh33_pairs(g, cands, cands) == search_wqh33_reference(g, cands, cands)


def test_wqh33_matches_reference_on_random_graphs():
    """Seeded G(n, p) graphs with two different candidate lists, some
    triples repeated in another order, and the edgeless and complete graphs,
    where every disjoint pair is a WQH pair."""
    found = 0
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(7, 12)
        p = (0.0, 1.0)[seed] if seed < 2 else rng.uniform(0.2, 0.8)
        g = Graph.from_edges(n, list(nx.gnp_random_graph(n, p, seed=seed).edges()))
        triples = list(combinations(range(n), 3))
        c1 = rng.sample(triples, min(len(triples), 60))
        c2 = rng.sample(triples, min(len(triples), 45))
        c2 += [(c, a, b) for a, b, c in rng.sample(c1, 5)]
        want = search_wqh33_reference(g, c1, c2)
        assert _wqh33_pairs(g, c1, c2) == want, seed
        found += len(want[0])
    assert found > 100


def test_wqh33_candidate_budget(j284):
    """A cut after any number of pairs, inside a row or at its end, returns
    the full list's prefix over those pairs, partial when pairs are left."""
    c2 = johnson_core_triples(8, 4)
    c1 = c2[:30]
    pairs = len(c1) * len(c2)
    full, partial = _wqh33_pairs(j284, c1, c2)
    assert not partial and len(full) >= 30
    for cut in (1, 559, 560, 561, 7 * 560 + 100, pairs - 1, pairs):
        got = _wqh33_pairs(j284, c1, c2, max_candidates=cut)
        assert got == search_wqh33_reference(j284, c1, c2, cut)
        assert got[0] == full[:len(got[0])]
        assert got[1] == (cut < pairs)


def test_wqh33_time_budget(j284):
    cands = johnson_core_triples(8, 4)
    res = search_wqh33(j284, cands, cands,
                       SearchConfig(mode="wqh33", time_budget=1e-9, dedup=False))
    assert res.partial


def test_wqh33_candidate_validation(j284):
    cfg = SearchConfig(mode="wqh33")
    with pytest.raises(ValueError, match="candidate triple"):
        search_wqh33(j284, [(0, 1)], [(2, 3, 4)], cfg)
    with pytest.raises(ValueError, match="candidate triple"):
        search_wqh33(j284, [(0, 1, 1)], [(2, 3, 4)], cfg)
    with pytest.raises(ValueError, match="candidate triple"):
        search_wqh33(j284, [(0, 1, 70)], [(2, 3, 4)], cfg)
    for bad in (1, None, "abc", ("a", "b", "c"), (0, 1, 2.0), (0, 1, [2]), (-1, 1, 2)):
        with pytest.raises(ValueError, match="candidate triple"):
            search_wqh33(j284, [(2, 3, 4)], [(5, 6, 7), bad], cfg)


def test_wqh33_mirrored_pairs_deduplicated():
    # same candidate list on both sides must not double-report (C1,C2)/(C2,C1)
    g = build(SchemeParams.johnson(8, 4, {2}))
    r = recipe_j2n4(8)
    t1, t2 = tuple(r.spec.c1), tuple(r.spec.c2)
    res = search_wqh33(g, [t1, t2], [t1, t2], SearchConfig(mode="wqh33", dedup=False))
    assert len(res.specs) == 1


def test_search_result_json_shapes():
    assert SearchResult((), False, None).to_json_dict() == {
        "specs": [], "partial": False}
    d = SearchResult((), True, True).to_json_dict()
    assert d["partial"] and d["dedup_exact"] and "note" not in d


@pytest.fixture
def form_calls(monkeypatch):
    """Graphs passed to the dedup's canonical_form, one entry per call."""
    calls = []

    def counted(g, *args, _real=search.canonical_form):
        calls.append(g)
        return _real(g, *args)

    monkeypatch.setattr(search, "canonical_form", counted)
    return calls


@pytest.mark.parametrize("scheme, pattern, kept, forms", [
    # scheme, candidate pattern (None: gm4), kept specs, canonical forms
    # computed (None: not frozen)
    ("Jq{0}(4,2;q=2)", None, (GmSpec([(0, 1, 2, 3)]), GmSpec([(0, 1, 6, 7)])), 2),
    ("J{2}(8,4)", johnson_core_triples, (WqhSpec((0, 1, 5), (12, 13, 14)),), None),
    ("J{1}(11,4)", johnson_block_triples,
     (WqhSpec((126, 145, 209), (210, 229, 293)),), 0),
    # three mates, three lambda-profiles: no canonical form at all
    ("J{1}(6,3)", None,
     (GmSpec([(0, 1, 5, 7)]), GmSpec([(0, 1, 18, 19)]), GmSpec([(0, 7, 14, 18)])), 0),
], ids=["gm4-K2(4,2)", "core-J2(8,4)", "blocks-J1(11,4)", "gm4-J1(6,3)"])
def test_dedup_kept_specs_frozen(scheme, pattern, kept, forms, form_calls):
    params = SchemeParams.parse(scheme)
    g = build(params)
    if pattern is None:
        res = search_gm4(g, SearchConfig())
    else:
        cands = pattern(params.n, params.k)
        res = search_wqh33(g, cands, cands, SearchConfig(mode="wqh33"))
    assert res.specs == kept
    assert res.dedup_exact is True and not res.partial
    if forms is not None:
        assert len(form_calls) == forms


def test_dedup_exact_above_500_vertices():
    """J_2(13,4) has 715 vertices; colex ranks do not depend on n, so the
    core triples of J(7,4) are core triples of J(13,4), all in one orbit."""
    g = build(SchemeParams.parse("J{2}(13,4)"))
    assert g.n == 715
    cands = johnson_core_triples(7, 4)
    res = search_wqh33(g, cands, cands, SearchConfig(mode="wqh33"))
    assert res.specs == (WqhSpec((0, 1, 5), (12, 13, 14)),)
    assert res.dedup_exact is True and not res.partial


def test_dedup_matches_brute_force_reference():
    """Every raw spec switched, identity switches skipped, and the first spec
    in scan order kept for each canonical form of its mate."""
    g = build(SchemeParams.parse("J{1}(6,3)"))
    raw = search_gm4(g, SearchConfig(dedup=False)).specs
    assert len(raw) == 165
    firsts = {}
    for spec in raw:
        mate = apply_switching(g, spec)
        if mate != g:
            firsts.setdefault(search.canonical_form(mate), spec)
    assert tuple(firsts.values()) == search_gm4(g, SearchConfig()).specs


def _cycles(n, *cycles):
    """The permutation of range(n) with the given cycles."""
    perm = list(range(n))
    for cycle in cycles:
        for v, w in zip(cycle, cycle[1:] + cycle[:1]):
            perm[v] = w
    return tuple(perm)


def test_orbits_are_components_of_generator_images(monkeypatch):
    """Keys a, b, c: one generator maps a to c and another b to c, and no
    generator maps a key back.  One orbit, whose first key is a; an image
    that is not a key joins nothing.  The path on 10 vertices has no twins,
    so only the generators join keys."""
    a, b, c = (frozenset([frozenset(cell)]) for cell in ((0, 1), (2, 3), (4, 5)))
    gens = [_cycles(10, (0, 4, 6), (1, 5, 7)), _cycles(10, (2, 4, 8), (3, 5, 9))]
    monkeypatch.setattr(search, "automorphism_generators", lambda g, colors: gens)
    g = Graph.from_edges(10, [(v, v + 1) for v in range(9)])
    assert search._orbit_firsts(g, [a, b, c]) == [True, False, False]
    assert search._orbit_firsts(g, [c, b, a]) == [True, False, False]
    # without c, a and b reach only themselves and images outside the keys
    assert search._orbit_firsts(g, [a, b]) == [True, True]


def test_keys_equal_up_to_twins_are_joined_without_generators(monkeypatch):
    """In K_{2,3} plus an isolated vertex 5, {0, 1} and {2, 3, 4} are twin
    classes.  With no generators, keys whose cells hold the same number of
    each class's vertices are joined, and no others."""
    monkeypatch.setattr(search, "automorphism_generators", lambda g, colors: [])
    g = Graph.from_edges(6, [(u, v) for u in (0, 1) for v in (2, 3, 4)])
    keys = [frozenset(frozenset(c) for c in key) for key in (
        [(0, 2)], [(1, 3)], [(0, 1)], [(2, 3)], [(3, 4)], [(0, 5)],
        [(0, 2), (1, 3)], [(0, 3), (1, 4)], [(0, 1), (2, 3)])]
    assert search._orbit_firsts(g, keys) == [
        True, False, True, True, False, True, True, False, True]


def test_j2_8_4_core_keys_form_one_orbit(j284):
    """Up to twins (a 4-set and its complement), the generators join all 280
    specs of the J_2(8,4) core scan, so the dedup switches one mate."""
    cands = johnson_core_triples(8, 4)
    raw = search_wqh33(j284, cands, cands, SearchConfig(mode="wqh33", dedup=False)).specs
    assert len(raw) == 280
    assert sum(search._orbit_firsts(j284, [search._spec_key(s) for s in raw])) == 1


def test_j2_8_4_core_dedup_searches_the_twin_quotient(j284, monkeypatch):
    """J_2(8,4) has 35 pairs of open twins, a 4-set and its complement.
    The dedup's generators hold every twin swap, and the search of the
    35-vertex quotient stays below the generator cap; the dedup still keeps
    one spec, exactly."""
    seen = []

    def recorded(g, colors, _real=search.automorphism_generators):
        seen.append(_real(g, colors=colors))
        return seen[-1]

    monkeypatch.setattr(search, "automorphism_generators", recorded)
    cands = johnson_core_triples(8, 4)
    res = search_wqh33(j284, cands, cands, SearchConfig(mode="wqh33"))
    assert len(res.specs) == 1 and res.dedup_exact is True and not res.partial
    [gens] = seen
    pairs = {frozenset(v for v in range(j284.n) if j284.rows[v] == row)
             for row in j284.rows}
    assert len(pairs) == 35 and all(len(p) == 2 for p in pairs)
    swaps = {frozenset(v for v in range(j284.n) if p[v] != v) for p in gens
             if sum(p[v] != v for v in range(j284.n)) == 2}
    assert pairs <= swaps
    assert len(gens) - len(pairs) < canon._MAX_GENS
    for p in gens:
        assert j284.relabel(p).rows == j284.rows


@pytest.mark.parametrize("scheme, pattern, kept", [
    ("Jq{0}(4,2;q=2)", None, 2),
    ("J{2}(8,4)", johnson_core_triples, 1),
    ("J{1}(11,4)", johnson_block_triples, 1),
], ids=["gm4-K2(4,2)", "core-J2(8,4)", "blocks-J1(11,4)"])
def test_bench_search_jobs_stop_short_of_the_generator_cap(scheme, pattern, kept,
                                                           monkeypatch):
    """The canonical search backjumps after a leaf equivalent to the first
    or the best leaf, so each dedup's generator search fits in 100 nodes and
    returns fewer than _MAX_GENS generators.  Without backjumping K_2(4,2)
    stopped at the cap of 100 generators after 285 nodes and J_1(11,4) took
    226 nodes; the searches now take 31, 31 (on the twin quotient) and 62."""
    calls = []

    def bounded(g, colors, _real=search.automorphism_generators):
        try:
            calls.append(_real(g, budget=100, colors=colors))
        except canon.BudgetExhaustedError:
            pytest.fail("the generator search took more than 100 nodes")
        return calls[-1]

    monkeypatch.setattr(search, "automorphism_generators", bounded)
    params = SchemeParams.parse(scheme)
    g = build(params)
    if pattern is None:
        res = search_gm4(g, SearchConfig())
    else:
        cands = pattern(params.n, params.k)
        res = search_wqh33(g, cands, cands, SearchConfig(mode="wqh33"))
    assert len(res.specs) == kept and res.dedup_exact is True and not res.partial
    [gens] = calls
    assert len(gens) < canon._MAX_GENS
