"""The benchmark's workloads: inputs made from a seed, timed items, checks.

Every item calls the program through module attributes (``families.run_recipe``,
``spectra.cospectral``, ...) looked up when the item runs, so the tracer's
wrappers see the calls. Checks call only names the tracer leaves alone and run
outside the timed region.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from spectral_switch import (
    certify,
    families,
    graphcore,
    schemes,
    search,
    spectra,
    switching,
)
from spectral_switch.graphcore import Graph
from spectral_switch.schemes import SchemeParams


@dataclass(frozen=True)
class Item:
    id: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right


def _check_report(report) -> str | None:
    if not report.passed:
        return "recipe report did not pass"
    if report.cospectral_verdict.error_bound is None:
        return "cospectral verdict carries no error bound"
    return None


# -- corpus ----------------------------------------------------------------

# all_recipes() in its own order, as (constructor, arguments), so that each
# item can time its constructor.
CORPUS = (
    ("recipe_j2n4", (8,)),
    ("recipe_halfrange_2kk", (5,)),
    ("recipe_qkneser", (4, 2)),
    ("recipe_sporadic", ("J1-11-4",)),
    ("recipe_sporadic", ("J24-10-5",)),
    ("recipe_sporadic", ("J24-12-6",)),
)


def _recipe_item(ctor: str, args: tuple, seed: int, num_primes: int) -> Item:
    def run():
        r = getattr(families, ctor)(*args)
        return families.run_recipe(r, num_primes=num_primes, seed=seed)

    label = ", ".join(str(a) for a in args)
    return Item(f"{ctor[len('recipe_'):]}({label})", run, _check_report)


def make_corpus(seed: int) -> list[Item]:
    want = [r.name for r in families.all_recipes()]
    have = [getattr(families, c)(*a).name for c, a in CORPUS]
    if have != want:
        raise RuntimeError(f"corpus {have} no longer matches all_recipes() {want}")
    return [_recipe_item(c, a, seed, 3) for c, a in CORPUS]


# -- kneser63 --------------------------------------------------------------

def make_kneser63(seed: int) -> list[Item]:
    # One prime, not the default three: a three-prime run takes about 45 s,
    # longer than one benchmark run may last. Each charpoly call is the same
    # work either way.
    return [_recipe_item("recipe_qkneser", (6, 3), seed, 1)]


# -- search ----------------------------------------------------------------

SEARCH_JOBS = (
    # (item id, scheme, candidate pattern or None for gm4, specs kept)
    ("gm4 Jq{0}(4,2;q=2)", "Jq{0}(4,2;q=2)", None, 2),
    ("wqh33-core J{2}(8,4)", "J{2}(8,4)", "johnson_core_triples", 1),
    ("wqh33-block J{1}(11,4)", "J{1}(11,4)", "johnson_block_triples", 1),
)


def _search_item(item_id: str, scheme: str, pattern: str | None, kept: int) -> Item:
    params = SchemeParams.parse(scheme)

    def run():
        g = schemes.build(params)
        if pattern is None:
            return g, search.search_gm4(g, search.SearchConfig())
        cands = getattr(search, pattern)(params.n, params.k)
        return g, search.search_wqh33(g, cands, cands, search.SearchConfig(mode="wqh33"))

    def check(out) -> str | None:
        g, res = out
        if res.partial:
            return "search stopped early"
        if res.dedup_exact is not True:
            return "dedup was not exact"
        if len(res.specs) != kept:
            return f"kept {len(res.specs)} specs, want {kept}"
        if not all(switching.validate(g, s).valid for s in res.specs):
            return "a kept spec does not validate"
        return None

    return Item(item_id, run, check)


def make_search(seed: int) -> list[Item]:
    return [_search_item(*job) for job in SEARCH_JOBS]


# -- compare ---------------------------------------------------------------

COMPARE = (
    ("recipe_j2n4", (8,)),
    ("recipe_halfrange_2kk", (5,)),
    ("recipe_sporadic", ("J1-11-4",)),
    ("recipe_sporadic", ("J24-10-5",)),
)

# How long canon takes to prove a pair isomorphic depends on the relabeling,
# by a factor of two or more between draws. So each isomorphic pair (b) has
# this many seeded relabelings, pass p of a run takes relabeling p mod
# ISO_RELABELINGS, and no single draw sets a run's figures. A run makes about
# three passes.
ISO_RELABELINGS = 3


def _shuffled(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _toggle_edge(g: Graph, u: int, v: int) -> Graph:
    rows = list(g.rows)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return Graph(g.n, rows)


def _compare_item(item_id: str, kind: str, variants, seed: int) -> Item:
    pending = itertools.cycle(variants)  # each call takes the next variant

    def run():
        g6_1, g6_2 = next(pending)
        g1 = graphcore.decode_graph6(g6_1)
        g2 = graphcore.decode_graph6(g6_2)
        return g1, g2, spectra.cospectral(g1, g2, seed=seed), certify.nonisomorphic(g1, g2)

    def check(out) -> str | None:
        g1, g2, cv, nv = out
        if kind == "a" and not (cv.equal and nv.distinguished):
            return "switched pair not cospectral and distinguished"
        if kind == "b":
            if not cv.equal or nv.distinguished or nv.isomorphism is None:
                return "relabeled pair not cospectral and proven isomorphic"
            if g1.relabel(nv.isomorphism).rows != g2.rows:
                return "returned isomorphism does not map graph 1 onto graph 2"
        if kind == "c" and (cv.equal or not nv.distinguished):
            return "edge-toggled pair reported cospectral or not distinguished"
        return None

    return Item(item_id, run, check)


def compare_pairs(seed: int) -> list[tuple[str, str, tuple[tuple[bytes, bytes], ...]]]:
    """(item id, kind, variants) for three pairs per recipe, each variant a
    (graph6, graph6): (a) the original vs a relabeled mate, (b) the mate vs
    each of ISO_RELABELINGS relabelings of itself, (c) the original vs itself
    with one edge toggled."""
    rng = random.Random(seed)
    enc = graphcore.encode_graph6
    out = []
    for ctor, args in COMPARE:
        r = getattr(families, ctor)(*args)
        g = schemes.build(r.params)
        mate = switching.apply_switching(g, r.spec)
        g6, mate6, n = enc(g), enc(mate), g.n
        a = (g6, enc(mate.relabel(_shuffled(rng, n))))
        b = tuple((mate6, enc(mate.relabel(_shuffled(rng, n))))
                  for _ in range(ISO_RELABELINGS))
        u, v = rng.sample(range(n), 2)
        c = (g6, enc(_toggle_edge(g, u, v)))
        out += [(f"{r.name}/a", "a", (a,)), (f"{r.name}/b", "b", b),
                (f"{r.name}/c", "c", (c,))]
    return out


def make_compare(seed: int) -> list[Item]:
    return [_compare_item(*pair, seed) for pair in compare_pairs(seed)]


# name -> function making the workload's items from a seed; BENCHMARK.json
# and README.md say why each workload is there
WORKLOADS = {
    "corpus": make_corpus,
    "kneser63": make_kneser63,
    "search": make_search,
    "compare": make_compare,
}
