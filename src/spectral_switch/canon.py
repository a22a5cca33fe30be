"""Canonical labeling by individualization-refinement.

Equitable refinement splits an ordered partition by neighbor counts into
splitter cells; the search tree individualizes vertices of the first
smallest non-singleton cell.  The canonical leaf minimizes (refinement
trace, relabeled adjacency bytes), which is label-invariant.  Discovered
automorphisms prune sibling branches (orbit pruning restricted to
generators fixing the individualized prefix); refinement traces prune
subtrees that can no longer reach the minimum.

The search counts individualization nodes against a budget and raises
BudgetExhaustedError instead of ever returning a wrong answer.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Sequence

from .graphcore import Graph, _mask, encode_graph6

__all__ = [
    "BudgetExhaustedError",
    "DEFAULT_NODE_BUDGET",
    "automorphism_generators",
    "canonical_labeling",
    "canonical_form",
    "refine_partition",
    "wl1_colors",
    "wl1_histogram",
]

DEFAULT_NODE_BUDGET = 200_000


class BudgetExhaustedError(RuntimeError):
    """Search stopped after exceeding its node budget."""

    def __init__(self, budget: int):
        super().__init__(f"canonical labeling exceeded the node budget of {budget}")
        self.budget = budget


def _refine(rows, cells, queue):
    """Refine cells against the splitter queue; returns (cells, trace).

    The trace records (cell position, (count, size) pairs) for every split,
    which depends only on the isomorphism type of the colored graph.
    """
    trace = []
    while queue:
        smask = queue.popleft()
        i = 0
        while i < len(cells):
            cell = cells[i]
            if len(cell) > 1:
                groups: dict[int, list[int]] = {}
                for v in cell:
                    groups.setdefault((rows[v] & smask).bit_count(), []).append(v)
                if len(groups) > 1:
                    parts = [tuple(groups[c]) for c in sorted(groups)]
                    cells[i:i + 1] = parts
                    trace.append((i, tuple((c, len(groups[c])) for c in sorted(groups))))
                    queue.extend(_mask(part) for part in parts)
                    i += len(parts) - 1
            i += 1
    return cells, tuple(trace)


def _refine_root(g: Graph, colors: Sequence[int] | None):
    """(cells, (color, size) signature, trace) of the refined initial coloring."""
    if colors is None:
        colors = [0] * g.n
    elif len(colors) != g.n:
        raise ValueError("need one color per vertex")
    buckets: dict[int, list[int]] = {}
    for v in range(g.n):
        buckets.setdefault(colors[v], []).append(v)
    keys = sorted(buckets)
    cells = [tuple(buckets[c]) for c in keys]
    init_sig = tuple((c, len(buckets[c])) for c in keys)
    cells, trace = _refine(g.rows, cells, deque(_mask(c) for c in cells))
    return cells, init_sig, trace


def refine_partition(g: Graph, colors: Sequence[int] | None = None):
    """Equitable refinement of the initial coloring; list of vertex tuples."""
    return _refine_root(g, colors)[0]


def _individualize_refine(rows, cells, target_idx, v):
    new_cells = list(cells)
    rest = tuple(u for u in cells[target_idx] if u != v)
    new_cells[target_idx:target_idx + 1] = [(v,), rest]
    queue = deque([1 << v])
    new_cells, trace = _refine(rows, new_cells, queue)
    return new_cells, (target_idx,) + tuple(trace)


def _leaf_cert(rows, perm) -> bytes:
    """Upper-triangle bits of the relabeled adjacency, row-major, packed."""
    n = len(perm)
    acc = 0
    nbits = 0
    out = bytearray()
    for i in range(n):
        ri = rows[perm[i]]
        for j in range(i + 1, n):
            acc = (acc << 1) | ((ri >> perm[j]) & 1)
            nbits += 1
            if nbits == 8:
                out.append(acc)
                acc = 0
                nbits = 0
    if nbits:
        out.append(acc << (8 - nbits))
    return bytes(out)


_MAX_GENS = 100


class _Search:
    def __init__(self, rows, n, budget):
        self.rows = rows
        self.n = n
        self.budget = budget
        self.nodes = 0
        self.best_traces: list = []
        self.best_cert: bytes | None = None
        self.best_perm: tuple[int, ...] | None = None
        self.gens: list[tuple[int, ...]] = []
        self.path: list[int] = []

    def run(self, cells):
        self.dfs(cells, 0)
        assert self.best_perm is not None
        return self.best_cert, self.best_perm

    def target_cell(self, cells):
        best = -1
        size = None
        for i, c in enumerate(cells):
            if len(c) > 1 and (size is None or len(c) < size):
                best, size = i, len(c)
        return best

    def _orbit_find(self):
        """find() over orbits of the generators that fix the current path."""
        gens = [g for g in self.gens if all(g[v] == v for v in self.path)]
        parent = list(range(self.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for g in gens:
            for a in range(self.n):
                b = g[a]
                if b != a:
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        parent[ra] = rb
        return find

    def dfs(self, cells, depth):
        target = self.target_cell(cells)
        if target < 0:
            perm = tuple(c[0] for c in cells)
            cert = _leaf_cert(self.rows, perm)
            if self.best_cert is None or cert < self.best_cert:
                self.best_cert = cert
                self.best_perm = perm
            elif cert == self.best_cert:
                gamma = [0] * self.n
                for pos in range(self.n):
                    gamma[self.best_perm[pos]] = perm[pos]
                gamma = tuple(gamma)
                if (len(self.gens) < _MAX_GENS and gamma not in self.gens
                        and any(gamma[v] != v for v in range(self.n))):
                    self.gens.append(gamma)
            return
        explored: list[int] = []
        seen_gens = -1
        find = None
        for v in cells[target]:
            if explored:
                # rebuild orbits when new automorphisms appeared mid-loop
                if len(self.gens) != seen_gens:
                    find = self._orbit_find()
                    seen_gens = len(self.gens)
                rv = find(v)
                if any(find(w) == rv for w in explored):
                    continue
            explored.append(v)
            self.nodes += 1
            if self.nodes > self.budget:
                raise BudgetExhaustedError(self.budget)
            child, tr = _individualize_refine(self.rows, cells, target, v)
            d = depth + 1
            if len(self.best_traces) >= d:
                known = self.best_traces[d - 1]
                if tr > known:
                    continue
                if tr < known:
                    del self.best_traces[d - 1:]
                    self.best_traces.append(tr)
                    self.best_cert = None
                    self.best_perm = None
            else:
                self.best_traces.append(tr)
            self.path.append(v)
            self.dfs(child, d)
            self.path.pop()


def _run_search(g: Graph, budget: int, colors):
    cells, init_sig, root_trace = _refine_root(g, colors)
    search = _Search(g.rows, g.n, budget)
    search.run(cells)
    return search, init_sig, root_trace


def canonical_labeling(g: Graph, budget: int = DEFAULT_NODE_BUDGET,
                       colors: Sequence[int] | None = None):
    """(certificate bytes, permutation) minimal over the search tree.

    The permutation lists vertices in canonical position order: position i
    holds vertex perm[i].  Isomorphic graphs with isomorphic colorings get
    equal certificates.  Raises BudgetExhaustedError past the node budget.
    """
    if g.n == 0:
        return b"", ()
    search, init_sig, root_trace = _run_search(g, budget, colors)
    # the root refinement trace is shared by every leaf; keep it out of the
    # per-depth comparisons but fold it into the certificate prefix
    header = repr((g.n, init_sig, root_trace)).encode()
    return header + b"|" + search.best_cert, search.best_perm


def automorphism_generators(g: Graph, budget: int = DEFAULT_NODE_BUDGET,
                            colors: Sequence[int] | None = None):
    """Automorphisms discovered as a side effect of the canonical search.

    Each returned tuple maps vertex to image and is a verified automorphism
    (two leaves of the search produced identical relabeled adjacency).  The
    list usually does not generate the full automorphism group.
    """
    if g.n == 0:
        return []
    search, _, _ = _run_search(g, budget, colors)
    return list(search.gens)


def canonical_form(g: Graph, budget: int = DEFAULT_NODE_BUDGET,
                   colors: Sequence[int] | None = None) -> bytes:
    """Canonical byte string: graph6 of the canonically relabeled graph."""
    _, perm = canonical_labeling(g, budget, colors)
    n = g.n
    inv = [0] * n
    for pos, v in enumerate(perm):
        inv[v] = pos
    return encode_graph6(g.relabel(inv))


# -- 1-WL stable coloring --------------------------------------------------

def wl1_colors(g: Graph, rounds: int | None = None, colors: Sequence[int] | None = None):
    """Color-refinement colors after stabilization (or exactly `rounds`).

    Colors are 64-bit digests of (previous color, sorted neighbor colors),
    so color values are comparable across graphs round by round.
    """
    n = g.n
    cur = list(colors) if colors is not None else [0] * n
    done_rounds = 0

    def partition_of(cs):
        classes: dict[int, list[int]] = {}
        for v, c in enumerate(cs):
            classes.setdefault(c, []).append(v)
        return sorted(tuple(vs) for vs in classes.values())

    while True:
        if rounds is not None and done_rounds >= rounds:
            return cur, done_rounds
        nxt = []
        for v in range(n):
            nbr = sorted(cur[u] for u in g.neighbors(v))
            digest = hashlib.blake2b(
                repr((cur[v], nbr)).encode(), digest_size=8
            ).digest()
            nxt.append(int.from_bytes(digest, "big"))
        if rounds is None and partition_of(nxt) == partition_of(cur):
            return cur, done_rounds
        cur = nxt
        done_rounds += 1


def wl1_histogram(g: Graph, rounds: int | None = None):
    """(rounds, sorted (color, count) pairs) at the stable coloring."""
    cs, r = wl1_colors(g, rounds)
    hist: dict[int, int] = {}
    for c in cs:
        hist[c] = hist.get(c, 0) + 1
    return r, tuple(sorted(hist.items()))
