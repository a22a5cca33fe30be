"""Bounded brute-force discovery of switching sets.

gm4 enumerates 4-subsets of the vertex set as single GM cells: the
within-cell regularity condition, then one parity test for every outside
vertex at once.
wqh33 validates pairs of caller-supplied (or pattern-generated) vertex
triples as WQH cells.  Results are deterministic given the config.

The optional dedup drops identity switches and keeps the first spec in scan
order of each isomorphism class of mate, exactly at every size: automorphism
orbits first (components of the spec keys, compared up to twins, joined by
generator images), then lambda-profiles, and canonical forms only where
profiles agree.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from itertools import combinations, compress

import numpy as np

from .canon import BudgetExhaustedError, _twin_classes, automorphism_generators
from .certify import canonical_form, lambda_profile, vertex_lambda_colors
from .graphcore import Graph, dense_adjacency
from .schemes import johnson_rank, mask_of_elements
from .switching import GmSpec, WqhSpec, apply_switching, spec_to_json_dict

__all__ = [
    "SearchConfig",
    "SearchResult",
    "search_gm4",
    "search_wqh33",
    "johnson_core_triples",
    "johnson_block_triples",
]


@dataclass(frozen=True)
class SearchConfig:
    mode: str = "gm4"
    max_candidates: int = 10_000_000
    time_budget: float = 300.0
    dedup: bool = True

    def __post_init__(self):
        if self.mode not in ("gm4", "wqh33"):
            raise ValueError(f"unknown search mode {self.mode!r}")
        if not (self.max_candidates > 0 and self.time_budget > 0):  # NaN is not > 0
            raise ValueError("budgets must be positive")


@dataclass(frozen=True)
class SearchResult:
    specs: tuple
    partial: bool
    dedup_exact: bool | None = None  # None: dedup disabled

    def to_json_dict(self) -> dict:
        out = {
            "specs": [spec_to_json_dict(s) for s in self.specs],
            "partial": self.partial,
        }
        if self.dedup_exact is not None:
            out["dedup_exact"] = self.dedup_exact
        return out


def _spec_key(spec) -> frozenset:
    """A spec as an unordered family of unordered cells (both kinds switch
    every listed cell the same way, so cell order never matters)."""
    if isinstance(spec, GmSpec):
        return frozenset(frozenset(c) for c in spec.cells)
    return frozenset((frozenset(spec.c1), frozenset(spec.c2)))


def _orbit_firsts(g: Graph, keys: list) -> list[bool]:
    """For each spec key, whether it is the first in scan order of its orbit.

    An automorphism maps a valid spec to one with an isomorphic mate, so one
    mate per orbit decides the orbit.  Keys are compared up to twins (a
    permutation inside a twin class is an automorphism): each cell as the
    multiset of its vertices' twin-class representatives.  Orbits are the
    components of the graph joining keys equal up to twins, and each key to
    its images under the discovered generators that are keys up to twins:
    union-find rooted at the least index, stopped at one component.  A
    component lies inside one group orbit; one too small only adds mates to
    compare.  The canonical search backjumps, so it returns a few generators
    of a large group (7 on K_2(4,2), 10 on J_1(11,4)).  Where the keys are
    not closed under the group, fewer generators join fewer keys, though the
    J_2(8,4) core job's 280 keys form one component.
    """
    if len(keys) < 2:
        return [True] * len(keys)
    try:
        gens = automorphism_generators(g, colors=vertex_lambda_colors(g))
    except BudgetExhaustedError:
        gens = []
    rep = list(range(g.n))
    for members, _ in _twin_classes(g, [0] * g.n) or ():
        for v in members:
            rep[v] = members[0]
    gens = [[rep[w] for w in p] for p in gens]

    def up_to_twins(key, perm) -> tuple:  # perm ends at twin representatives
        return tuple(sorted(tuple(sorted(map(perm.__getitem__, cell))) for cell in key))

    index: dict = {}
    root = [index.setdefault(up_to_twins(key, rep), i) for i, key in enumerate(keys)]

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    left = len(index)
    for i in index.values():
        if left == 1:
            break
        for p in gens:
            j = index.get(up_to_twins(keys[i], p))
            if j is not None:
                a, b = sorted((find(i), find(j)))
                if a != b:
                    root[b] = a
                    left -= 1
    return [find(i) == i for i in range(len(keys))]


def _dedup(g: Graph, specs: list, partial: bool) -> SearchResult:
    """Drop identity switches; keep the first spec in scan order of each
    isomorphism class of mate, exactly at every size.

    Both scans emit each spec key once: search_gm4 takes each 4-subset once
    from combinations, and search_wqh33 drops mirrored pairs in seen_pairs.
    Cheapest check first: only the first spec of each orbit is switched,
    mates are grouped by lambda-profile, since mates with different
    profiles are not isomorphic, and canonical forms are computed only once
    a second mate joins a group.
    """
    firsts = _orbit_firsts(g, [_spec_key(spec) for spec in specs])
    groups: dict = {}  # lambda-profile -> [[mate, canonical form or None]]
    kept = []
    for spec in compress(specs, firsts):
        mate = apply_switching(g, spec)
        if mate == g:
            continue
        group = groups.setdefault(lambda_profile(mate), [])
        form = None
        if group:
            first = group[0]
            if first[1] is None:  # only a group's first mate waits for its form
                first[1] = canonical_form(first[0])
            form = canonical_form(mate)
            if any(f == form for _, f in group):
                continue
        group.append([mate, form])
        kept.append(spec)
    return SearchResult(tuple(kept), partial, True)


def search_gm4(g: Graph, cfg: SearchConfig) -> SearchResult:
    """All single 4-cell GM specs on g, within candidate and time budgets."""
    rows = g.rows
    n = g.n
    deadline = time.monotonic() + cfg.time_budget
    specs = []
    partial = False
    examined = 0
    for cell in combinations(range(n), 4):
        if examined >= cfg.max_candidates:
            partial = True
            break
        examined += 1
        if examined % 1024 == 0 and time.monotonic() > deadline:
            partial = True
            break
        a, b, c, d = cell
        cmask = (1 << a) | (1 << b) | (1 << c) | (1 << d)
        k0 = (rows[a] & cmask).bit_count()
        if ((rows[b] & cmask).bit_count() != k0
                or (rows[c] & cmask).bit_count() != k0
                or (rows[d] & cmask).bit_count() != k0):
            continue
        # bit v of the XOR is the parity of v's count in the cell, and an
        # outside vertex must see 0, 2 or 4 cells: an even number
        if (rows[a] ^ rows[b] ^ rows[c] ^ rows[d]) & ~cmask == 0:
            specs.append(GmSpec([cell]))
    return _dedup(g, specs, partial) if cfg.dedup else SearchResult(tuple(specs), partial)


def _triples(candidates, n: int) -> list[tuple[int, ...]]:
    """The candidates as int tuples, in one pass; ValueError at the first
    entry that is not three distinct integers in range(n)."""
    out = []
    for t in candidates:
        try:
            triple = tuple(map(operator.index, t))
        except TypeError:
            triple = ()
        if len(triple) != 3 or len(set(triple)) != 3 or not all(0 <= v < n for v in triple):
            raise ValueError(f"candidate triple {t!r} invalid for n={n}")
        out.append(triple)
    return out


def search_wqh33(g: Graph, candidates1, candidates2, cfg: SearchConfig) -> SearchResult:
    """Validating WQH specs among pairs from two triple-candidate lists.

    With N1[v, i] = |N(v) & C1_i| and N2 alike, one array pass per C1 triple
    checks it against every C2 triple: disjoint cells, then one
    own-minus-other count over the six cell vertices, then, on the pairs
    left, counts (x, y) = (N1, N2) at every other vertex with x = y or
    (3, 0) or (0, 3).  Pairs are taken C1 outer, C2 inner, and
    max_candidates counts pairs.
    """
    c1s, c2s = _triples(candidates1, g.n), _triples(candidates2, g.n)
    t1 = np.array(c1s, dtype=np.intp).reshape(-1, 3)
    t2 = np.array(c2s, dtype=np.intp).reshape(-1, 3)
    a = dense_adjacency(g, np.int8)
    n1 = a[:, t1[:, 0]] + a[:, t1[:, 1]] + a[:, t1[:, 2]]
    n2 = a[:, t2[:, 0]] + a[:, t2[:, 1]] + a[:, t2[:, 2]]
    m2 = len(c2s)
    own2 = n2[t2, np.arange(m2)[:, None]]  # N2[t, j] for t in C2_j
    deadline = time.monotonic() + cfg.time_budget
    specs = []
    seen_pairs = set()
    partial = False
    for i, c1 in enumerate(t1):
        if time.monotonic() > deadline:
            partial = True
            break
        take = min(m2, cfg.max_candidates - i * m2)
        x, cells2 = n1[:, i], t2[:take]
        d1 = x[c1, None] - n2[c1, :take]
        d2 = own2[:take] - x[cells2]
        ok = ((cells2[:, :, None] != c1).all(axis=(1, 2))
              & (d1 == d1[0]).all(axis=0) & (d2 == d1[0, :, None]).all(axis=1))
        js = ok.nonzero()[0]
        y = n2[:, js]
        fine = (y == x[:, None]) | (y == 3 - x[:, None]) & (x[:, None] % 3 == 0)
        fine[c1] = True
        fine[t2[js], np.arange(len(js))[:, None]] = True
        for j in js[fine.all(axis=0)].tolist():
            spec = WqhSpec(c1s[i], c2s[j])
            key = _spec_key(spec)
            if key not in seen_pairs:
                seen_pairs.add(key)
                specs.append(spec)
        if take < m2:
            partial = True
            break
    return _dedup(g, specs, partial) if cfg.dedup else SearchResult(tuple(specs), partial)


def johnson_core_triples(n: int, k: int) -> list[tuple[int, int, int]]:
    """Triples {A u {x} : x in X} for (k-1)-sets A and disjoint 3-sets X.

    Vertex indices refer to the canonical order of J_S(n,k); the S plays no
    role in the candidate shape.
    """
    if k < 2:
        raise ValueError("pattern needs k >= 2")
    out = []
    universe = range(1, n + 1)
    for a in combinations(universe, k - 1):
        rest = [x for x in universe if x not in a]
        for xs in combinations(rest, 3):
            out.append(tuple(johnson_rank(mask_of_elements(a + (x,), n)) for x in xs))
    return out


def _block_partitions(elems: tuple[int, ...], size: int):
    """Partitions of elems into blocks of the given size, deterministic order."""
    if not elems:
        yield ()
        return
    first = elems[0]
    rest = elems[1:]
    for others in combinations(rest, size - 1):
        block = (first,) + others
        remaining = tuple(x for x in rest if x not in others)
        for tail in _block_partitions(remaining, size):
            yield (block,) + tail


def johnson_block_triples(n: int, k: int) -> list[tuple[int, int, int]]:
    """Triples {B u {x} : B in a partition of {1..3(k-1)}}, x outside it.

    Every partition of the first 3(k-1) ground elements into three
    (k-1)-blocks is combined with every later element x, so the pattern
    needs n >= 3(k-1) + 1.
    """
    if k < 2:
        raise ValueError("pattern needs k >= 2")
    need = 3 * (k - 1)
    if n <= need:
        raise ValueError(f"the blocks pattern needs n >= 3(k-1) + 1 = {need + 1} "
                         f"for k={k}, got n={n}")
    out = []
    for blocks in _block_partitions(tuple(range(1, need + 1)), k - 1):
        for x in range(need + 1, n + 1):
            out.append(tuple(
                johnson_rank(mask_of_elements(b + (x,), n)) for b in blocks
            ))
    return out
