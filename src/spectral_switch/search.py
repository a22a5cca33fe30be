"""Bounded brute-force discovery of switching sets.

gm4 enumerates 4-subsets of the vertex set as single GM cells, in array
passes of cells with one first vertex: the within-cell regularity condition,
then one parity test on the packed rows for every outside vertex at once.
wqh33 validates pairs of caller-supplied (or pattern-generated) vertex
triples as WQH cells, a block of C1 triples against every C2 triple in one
array pass.  Results are deterministic given the config, and the same as a
scan of one candidate at a time.

The optional dedup drops identity switches and keeps the first spec in scan
order of each isomorphism class of mate, exactly at every size: automorphism
orbits first (components of the spec keys, compared up to twins, joined by
generator images), then lambda-profiles, and canonical forms only where
profiles agree.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, compress

import numpy as np

from .canon import BudgetExhaustedError, _twin_classes, automorphism_generators
from .certify import canonical_form, lambda_profile, vertex_lambda_colors
from .graphcore import Graph, _integer, _packed_rows, _popcount, dense_adjacency
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

_GM4_CHUNK = 1 << 15  # cells per search_gm4 array pass
_WQH_ROWS = 8  # C1 triples per search_wqh33 array pass
_ONE_BIT = np.array([1, 2, 4, 8], dtype=np.uint8)  # N1 = x as the code 1 << x
# the x values an outside vertex with N2 = y may not have: only x = y,
# (3, 0) and (0, 3) are allowed
_FORBIDDEN = np.array([0b0110, 0b1101, 0b1011, 0b0110], dtype=np.uint8)


@dataclass(frozen=True)
class SearchConfig:
    mode: str = "gm4"
    max_candidates: int = 10_000_000
    time_budget: float = 300.0
    dedup: bool = True

    def __post_init__(self):
        if self.mode not in ("gm4", "wqh33"):
            raise ValueError(f"unknown search mode {self.mode!r}")
        # an int, as the scans count candidates: 1000.5 and True are refused
        try:
            object.__setattr__(self, "max_candidates", _integer(self.max_candidates))
        except TypeError:
            raise TypeError(f"max_candidates={self.max_candidates!r} is not an integer") from None
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
    its images under the discovered generators that are keys up to twins.

    The keys are one array of cells padded with the vertex n, which every
    map fixes, so keys of any shape take one path.  The images of all keys
    under the twin map and every generator are formed at once, each cell
    sorted and then the cells of each key, and one lexsort finds the first
    key equal to each image; components are labeled by their least key,
    through min-label propagation.  A component lies inside one group orbit;
    one too small only adds mates to compare.  The canonical search
    backjumps, so it returns a few generators of a large group (7 on
    K_2(4,2), 10 on J_1(11,4)).  Where the keys are not closed under the
    group, fewer generators join fewer keys, though the J_2(8,4) core job's
    280 keys form one component.
    """
    if len(keys) < 2:
        return [True] * len(keys)
    try:
        gens = automorphism_generators(g, colors=vertex_lambda_colors(g))
    except BudgetExhaustedError:
        gens = []
    n, m = g.n, len(keys)
    rep = np.arange(n + 1, dtype=np.int32)
    for members, _ in _twin_classes(g, [0] * n) or ():
        rep[members] = members[0]
    maps = np.full((len(gens) + 1, n + 1), n, dtype=np.int32)
    maps[0, :n] = range(n)
    if gens:
        maps[1:, :n] = gens
    maps = rep[maps]
    # a twin swap followed by the twin map is the twin map again
    maps = maps[np.r_[True, (maps[1:] != maps[0]).any(axis=1)]]

    width = max(len(cell) for key in keys for cell in key)
    blank = [n] * width
    cells = max(map(len, keys))
    padded = np.array([[[*cell, *blank[len(cell):]] for cell in key]
                       + [blank] * (cells - len(key)) for key in keys])
    images = maps[:, padded]  # (maps, keys, cells, width)
    images.sort(axis=-1)
    by_cell = np.lexsort(np.moveaxis(images, -1, 0)[::-1], axis=-1)
    images = np.take_along_axis(images, by_cell[..., None], axis=2).reshape(-1, cells * width)
    # equal images sort together in index order, so a run that holds a key
    # starts at the least such key
    order = np.lexsort(images.T[::-1])
    ranked = images[order]
    starts = np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)]
    first = np.empty(len(order), dtype=np.intp)
    first[order] = order[starts][np.cumsum(starts) - 1]
    # each key's neighbours: the first key equal to each of its images, or
    # the key itself where an image is no key
    near = np.where(first < m, first, np.arange(len(first)) % m).reshape(-1, m)
    label = np.arange(m)
    while True:
        # the least label one edge away, either way, then pointer jumping
        new = np.minimum(label, label[near].min(axis=0))
        np.minimum.at(new, near.ravel(), np.tile(label, len(near)))
        new = new[new]
        if (new == label).all():
            break
        label = new
    return (label == np.arange(m)).tolist()


def _dedup(g: Graph, specs: list, partial: bool) -> SearchResult:
    """Drop identity switches; keep the first spec in scan order of each
    isomorphism class of mate, exactly at every size.

    Both scans emit each spec key once: search_gm4 takes each 4-subset once,
    and search_wqh33 drops mirrored pairs in seen_pairs.
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
    """All single 4-cell GM specs on g, within candidate and time budgets.

    Cells {a, b, c, d}, a < b < c < d, are taken in lexicographic order, in
    array passes of at most _GM4_CHUNK cells with one first vertex a.  The
    triples (b, c, d) with b > a are a suffix of the lexicographic triples,
    and (c, d) one of the lexicographic pairs; both are decoded from their
    indices, so no table of them is formed.  A pass gathers the induced
    degrees from the 0/1 matrix, then tests every outside vertex of the
    regular cells at once on the packed rows.  max_candidates counts cells,
    and the deadline is read once per pass.
    """
    n = g.n
    adj = dense_adjacency(g, np.uint8)
    words = _packed_rows(g.rows, n)
    # pairs_from[v]: index of the first pair (u, w) with u >= v in
    # lexicographic order; triples_from[v]: of the first triple (u, w, x)
    pairs_from = np.r_[0, np.cumsum(np.arange(n - 1, -1, -1))]
    triples_from = np.r_[0, np.cumsum(pairs_from[-1] - pairs_from[1:])]
    total = int(triples_from[-1])
    deadline = time.monotonic() + cfg.time_budget
    left = cfg.max_candidates
    specs = []
    partial = False
    passes = ((a, lo) for a in range(n - 3)
              for lo in range(int(triples_from[a + 1]), total, _GM4_CHUNK))
    for a, lo in passes:
        if left == 0 or time.monotonic() > deadline:
            partial = True
            break
        t = np.arange(lo, min(lo + _GM4_CHUNK, total, lo + left))
        left -= len(t)
        b = np.searchsorted(triples_from, t, side="right") - 1
        pair = pairs_from[b + 1] + t - triples_from[b]
        c = np.searchsorted(pairs_from, pair, side="right") - 1
        d = c + 1 + pair - pairs_from[c]
        ab, ac, ad = adj[a, b], adj[a, c], adj[a, d]
        bc, bd, cd = adj[b, c], adj[b, d], adj[c, d]
        k = ab + ac + ad
        regular = (ab + bc + bd == k) & (ac + bc + cd == k) & (ad + bd + cd == k)
        b, c, d = b[regular], c[regular], d[regular]
        # bit v of the XOR is the parity of v's count in the cell, and an
        # outside vertex must see 0, 2 or 4 cells: an even number.  A cell
        # vertex's bit is the parity of its degree k in the cell, so the
        # XOR has 4 (k & 1) set bits when every outside vertex is even
        odd = words[a] ^ words[b] ^ words[c] ^ words[d]
        even = _popcount(odd).sum(axis=1) == 4 * (k[regular] & 1)
        specs.extend(GmSpec([(a, *bcd)])
                     for bcd in zip(b[even].tolist(), c[even].tolist(), d[even].tolist()))
    return _dedup(g, specs, partial) if cfg.dedup else SearchResult(tuple(specs), partial)


def _triples(candidates, n: int) -> list[tuple[int, ...]]:
    """The candidates as int tuples, in one pass; ValueError at the first
    entry that is not three distinct ints (no bools) in range(n)."""
    out = []
    for t in candidates:
        try:
            triple = tuple(map(_integer, t))
        except TypeError:
            triple = ()
        if len(triple) != 3 or len(set(triple)) != 3 or not all(0 <= v < n for v in triple):
            raise ValueError(f"candidate triple {t!r} invalid for n={n}")
        out.append(triple)
    return out


def _nibbles(codes: np.ndarray) -> np.ndarray:
    """Each row of 4-bit codes packed 16 to a uint64 word."""
    rows, n = codes.shape
    padded = np.zeros((rows, -(-n // 16) * 16), dtype=np.uint8)
    padded[:, :n] = codes
    return (padded[:, 0::2] | padded[:, 1::2] << 4).view(np.uint64)


def search_wqh33(g: Graph, candidates1, candidates2, cfg: SearchConfig) -> SearchResult:
    """Validating WQH specs among pairs from two triple-candidate lists.

    With N1[v, i] = |N(v) & C1_i| and N2 alike, one array pass per block of
    _WQH_ROWS C1 triples checks them against every C2 triple: one
    own-minus-other count over the six cell vertices, then disjoint cells,
    then (x, y) = (N1, N2) at every other vertex with x = y or (3, 0) or
    (0, 3).  That last test is one AND of packed 4-bit codes: C1_i's code
    at v has bit N1[v, i] set, C2_j's has the bits of the x values that
    N2[v, j] forbids, and both are 0 at their own cell.  Pairs are taken
    C1 outer, C2 inner, and max_candidates counts pairs.
    """
    c1s, c2s = _triples(candidates1, g.n), _triples(candidates2, g.n)
    t1 = np.array(c1s, dtype=np.intp).reshape(-1, 3)
    t2 = np.array(c2s, dtype=np.intp).reshape(-1, 3)
    a = dense_adjacency(g, np.int8)
    n1 = a[t1[:, 0]] + a[t1[:, 1]] + a[t1[:, 2]]  # n1[i, v] = N1[v, i]
    n2 = a[t2[:, 0]] + a[t2[:, 1]] + a[t2[:, 2]]
    m1, m2 = len(c1s), len(c2s)
    own1 = n1[np.arange(m1)[:, None], t1]  # N1[t, i] for t in C1_i
    own2 = n2[np.arange(m2)[:, None], t2]
    codes1, codes2 = _ONE_BIT[n1], _FORBIDDEN[n2]
    codes1[np.arange(m1)[:, None], t1] = 0
    codes2[np.arange(m2)[:, None], t2] = 0
    codes1, codes2 = _nibbles(codes1), _nibbles(codes2)
    deadline = time.monotonic() + cfg.time_budget
    specs = []
    seen_pairs = set()
    partial = False
    for lo in range(0, m1, _WQH_ROWS):
        if time.monotonic() > deadline:
            partial = True
            break
        rows = slice(lo, min(lo + _WQH_ROWS, m1))
        # own minus other at C1_i's vertices, then at C2_j's: (rows, 6, m2)
        diff = np.concatenate([own1[rows, :, None] - n2[:, t1[rows]].transpose(1, 2, 0),
                               own2.T - n1[rows][:, t2.T]], axis=1)
        # the outside test's first word is cheap on the whole block and
        # leaves few pairs for the other words
        ok = (diff == diff[:, :1]).all(axis=1) & ((codes1[rows, :1] & codes2[:, 0]) == 0)
        i, j = ok.nonzero()
        room = cfg.max_candidates - lo * m2
        if room < ok.size:
            partial = True
            kept = i * m2 + j < room
            i, j = i[kept], j[kept]
        i += lo
        ok = ((t1[i, :, None] != t2[j, None, :]).all(axis=(1, 2))
              & ~(codes1[i] & codes2[j]).any(axis=1))
        for x, y in zip(i[ok].tolist(), j[ok].tolist()):
            key = frozenset((frozenset(c1s[x]), frozenset(c2s[y])))
            if key not in seen_pairs:
                seen_pairs.add(key)
                specs.append(WqhSpec(c1s[x], c2s[y]))
        if partial:
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
