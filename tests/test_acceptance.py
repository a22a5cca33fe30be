"""Acceptance gate: one test per top-level criterion.

Each test prints exactly one PASS/FAIL line (visible under pytest -s) and
asserts the same condition, including the stated runtime targets.
"""

import random
import time
from contextlib import contextmanager

from spectral_switch.algebra import binom, gauss_binom
from spectral_switch.certify import (
    canonical_form,
    lambda_profile,
    scan_triple_property,
)
from spectral_switch.families import (
    SPORADIC_NAMES,
    recipe_halfrange_2kk,
    recipe_j2n4,
    recipe_qkneser,
    recipe_sporadic,
    run_recipe,
)
from spectral_switch.graphcore import Graph, decode_graph6, encode_graph6
from spectral_switch.schemes import (
    SchemeParams,
    build,
    enumerate_vertices,
    johnson_rank,
)
from spectral_switch.search import (
    SearchConfig,
    johnson_block_triples,
    johnson_core_triples,
    search_gm4,
    search_wqh33,
)
from spectral_switch.spectra import charpoly_mod_p, cospectral, random_primes
from spectral_switch.switching import apply_switching, validate

from oracles import count_rref_pivot_patterns, triangle_count_matmul


@contextmanager
def criterion(num: int, title: str):
    info = {"detail": title}
    try:
        yield info
    except BaseException as exc:
        print(f"FAIL criterion {num}: {info['detail']} ({exc})")
        raise
    print(f"PASS criterion {num}: {info['detail']}")


def test_criterion_1_wqh_family_n8_to_12():
    with criterion(1, "WQH family on J_2(n,4)") as info:
        t0 = time.monotonic()
        for n in range(8, 13):
            r = recipe_j2n4(n)
            g = build(r.params)
            report = validate(g, r.spec)
            assert report.valid and not report.violations, f"n={n} spec invalid"
            mate = apply_switching(g, r.spec)
            cv = cospectral(g, mate, num_primes=3, seed=0)
            assert cv.equal, f"n={n} not cospectral"
            # every edge of the original has the same common-neighbor count
            expected = n * (n + 3) // 2 - 26
            prof = lambda_profile(g)
            assert prof.edge == ((expected, g.num_edges()),), (
                f"n={n}: edge lambda classes {prof.edge}, expected all {expected}")
            for w in r.witnesses:
                res = w.check(g, mate)
                assert res.passed, f"n={n}: {res.details}"
        elapsed = time.monotonic() - t0
        info["detail"] = (f"n=8..12 validated, cospectral, edge lambda "
                          f"n(n+3)/2-26, witnesses exact ({elapsed:.1f}s)")
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s over 10s target"


def test_criterion_2_gm_family_k5():
    with criterion(2, "GM family on J_{1,2}(10,5)") as info:
        t0 = time.monotonic()
        k = 5
        rep = run_recipe(recipe_halfrange_2kk(k))
        assert rep.graph.n == 252
        assert rep.validation_valid
        assert rep.cospectral_verdict.equal
        witness = rep.recipe.witnesses[0]
        u, v = witness.u, witness.v
        orig = rep.graph.rows[u] & rep.graph.rows[v]
        new = rep.mate.rows[u] & rep.mate.rows[v]
        added = (new & ~orig).bit_count()
        lost = (orig & ~new).bit_count()
        added_formula = binom(k - 2, (k - 3) // 2) * binom(k - 1, (k - 1) // 2)
        lost_floor_formula = binom(k - 2, (k - 3) // 2) * binom(k, (k + 1) // 2)
        assert added == added_formula == 18, (added, added_formula)
        assert lost >= lost_floor_formula == 30, (lost, lost_floor_formula)
        assert lost - added >= lost_floor_formula - added_formula == 12
        assert all(w.passed for w in rep.witness_results)
        assert rep.noniso_verdict.distinguished
        elapsed = time.monotonic() - t0
        info["detail"] = (f"252 vertices, added={added}, lost={lost}, net loss "
                          f">= 12, distinguished at {rep.noniso_verdict.level} "
                          f"({elapsed:.1f}s)")
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s over 30s target"


def test_criterion_3_q_kneser_pairs(corpus_reports, k242):
    with criterion(3, "q-Kneser GM pairs (4,2) and (6,3)") as info:
        rep42 = corpus_reports["qkneser(n=4,k=2)"]
        assert rep42.graph.n == 35
        assert rep42.validation_valid and rep42.cospectral_verdict.equal
        assert all(w.passed for w in rep42.witness_results)
        # the distinguishing property never holds anywhere in the original
        assert scan_triple_property(rep42.graph) is False
        assert scan_triple_property(rep42.mate) is True

        r63 = recipe_qkneser(6, 3)
        g63 = build(r63.params)
        assert g63.n == 1395
        report = validate(g63, r63.spec)
        assert report.valid and not report.violations
        mate63 = apply_switching(g63, r63.spec)
        t0 = time.monotonic()
        cv = cospectral(g63, mate63, num_primes=3, seed=0)
        exact_time = time.monotonic() - t0
        assert cv.equal and cv.method == "minimal-polynomial"
        # the charpoly kernel at the largest size the suite runs it
        p = random_primes(1, seed=0)[0]
        t0 = time.monotonic()
        assert charpoly_mod_p(g63, p) == charpoly_mod_p(mate63, p)
        charpoly_time = time.monotonic() - t0
        assert charpoly_time < 300.0, f"charpoly took {charpoly_time:.0f}s"
        res = r63.witnesses[0].check(g63, mate63)
        assert res.passed, res.details
        info["detail"] = (f"35 and 1395 vertices, triples hit 1 only in the "
                          f"mates, 35-vertex scan exhaustive, 1395 minimal "
                          f"polynomial {exact_time:.1f}s, charpoly at one prime "
                          f"{charpoly_time:.1f}s")


def test_criterion_4_sporadic_sets():
    with criterion(4, "sporadic switching sets") as info:
        t0 = time.monotonic()
        levels = {}
        for name in SPORADIC_NAMES:
            rep = run_recipe(recipe_sporadic(name))
            assert rep.validation_valid, name
            assert rep.cospectral_verdict.equal, name
            v = rep.noniso_verdict
            assert v.distinguished, f"{name}: not distinguished"
            assert not v.node_budget_exhausted, f"{name}: unknown verdict"
            assert v.level is not None
            levels[name] = v.level
        elapsed = time.monotonic() - t0
        info["detail"] = ("all three validate, cospectral, distinguished at "
                          + ", ".join(f"{n}:{l}" for n, l in sorted(levels.items()))
                          + f" ({elapsed:.1f}s)")
        assert elapsed < 300.0, f"runtime {elapsed:.1f}s over 5min target"


def test_criterion_5_property_suites(corpus_reports, k242, petersen):
    with criterion(5, "property suites") as info:
        # switching is an involution on every recipe
        for rep in corpus_reports.values():
            again = apply_switching(rep.mate, rep.recipe.spec)
            assert again == rep.graph, rep.recipe.name

        # charpoly coefficient identities across the corpus, originals and mates
        p = random_primes(1, seed=11)[0]
        graphs = [g for rep in corpus_reports.values() for g in (rep.graph, rep.mate)]
        for g in graphs:
            cs = charpoly_mod_p(g, p)
            assert cs[0] == 1 and cs[1] == 0
            assert cs[2] == (-g.num_edges()) % p
            assert cs[3] == (-2 * triangle_count_matmul(g)) % p

        # gauss binomials against the independent pivot-pattern oracle
        for q in (2, 3):
            for n in range(7):
                for kk in range(n + 1):
                    assert gauss_binom(n, kk, q) == count_rref_pivot_patterns(n, kk, q)

        # graph6 round trips on the corpus
        for g in graphs:
            assert decode_graph6(encode_graph6(g)).rows == g.rows

        # canonical form is label-invariant: 500 random relabelings
        rng = random.Random(2024)
        def gnp(n, prob, seed):
            r = random.Random(seed)
            return Graph.from_edges(
                n, [(i, j) for i in range(n) for j in range(i + 1, n)
                    if r.random() < prob])
        plan = [(petersen, 200), (gnp(16, 0.4, 1), 150), (gnp(24, 0.35, 2), 100),
                (k242, 50)]
        total = 0
        for g, reps in plan:
            base = canonical_form(g)
            for _ in range(reps):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert canonical_form(g.relabel(perm)) == base
                total += 1
        assert total == 500

        # complement identity and the S -> S + n - 2k correspondence
        assert petersen.complement().rows == build(SchemeParams.parse("J{1}(5,2)")).rows
        for n, kk, s in ((5, 2, 0), (6, 2, 1), (7, 3, 2)):
            g1 = build(SchemeParams.johnson(n, kk, {s}))
            shifted = {s + n - 2 * kk}
            g2 = build(SchemeParams.johnson(n, n - kk, shifted))
            full = (1 << n) - 1
            perm = [johnson_rank(full ^ v)
                    for v in enumerate_vertices(SchemeParams.johnson(n, kk, {s}))]
            assert g1.relabel(perm).rows == g2.rows, (n, kk, s)
        info["detail"] = ("involution, charpoly identities, gauss_binom oracle, "
                          "graph6 round trips, 500 relabelings, complement "
                          "identities")


def test_criterion_6_search_rediscovery(k242, j284):
    with criterion(6, "search rediscovery") as info:
        t0 = time.monotonic()
        res = search_gm4(k242, SearchConfig(dedup=False))
        assert not res.partial
        assert binom(35, 4) == 52360  # exhaustive range
        assert any(sorted(s.cells[0]) == [0, 10, 16, 28] for s in res.specs)

        cands = johnson_core_triples(8, 4)
        res2 = search_wqh33(j284, cands, cands,
                            SearchConfig(mode="wqh33", dedup=False))
        want = recipe_j2n4(8).spec
        key = frozenset((frozenset(want.c1), frozenset(want.c2)))
        found = {frozenset((frozenset(s.c1), frozenset(s.c2))) for s in res2.specs}
        assert key in found

        g11 = build(SchemeParams.johnson(11, 4, {1}))
        blocks = johnson_block_triples(11, 4)
        res3 = search_wqh33(g11, blocks, blocks,
                            SearchConfig(mode="wqh33", dedup=False))
        sp = recipe_sporadic("J1-11-4").spec
        key3 = frozenset((frozenset(sp.c1), frozenset(sp.c2)))
        found3 = {frozenset((frozenset(s.c1), frozenset(s.c2))) for s in res3.specs}
        assert key3 in found3
        elapsed = time.monotonic() - t0
        info["detail"] = (f"gm4 exhaustive over 52360 cells finds the 4-cell, "
                          f"wqh33 patterns refind both known pairs "
                          f"({elapsed:.1f}s)")
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s over 60s target"
