"""Non-isomorphism certification via an invariant ladder.

Cheapest first: sorted degree sequence, common-neighbor count multiset over
edges, the same over non-edges, the stable 1-WL partition (canon's root
refinement trace and quotient matrix, equal exactly when color refinement
cannot tell the graphs apart), and finally individualization-refinement
canonical forms.  The verdict names the level that distinguished, or
carries an explicit isomorphism when canonical forms match, or reports
unknown when the canonical search exhausts its budget.

Also provides the selective neighbor count lambda(a; b, c) = #{x ~ a, x !~ b,
x !~ c} and an exhaustive scan for pairwise non-adjacent triples realizing
lambda(a; b, c) = 1, one float32 product per vertex a.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .canon import (
    BudgetExhaustedError,
    DEFAULT_NODE_BUDGET,
    canonical_labeling,
    match_certificate,
    wl1_histogram,
)
from .graphcore import Graph, dense_adjacency

__all__ = [
    "LambdaProfile",
    "lambda_profile",
    "vertex_lambda_colors",
    "selective_neighbor_count",
    "scan_triple_property",
    "NonIsoVerdict",
    "nonisomorphic",
    "canonical_form",
    "LADDER_LEVELS",
]

LADDER_LEVELS = ("degree-seq", "edge-lambda", "nonedge-lambda", "wl1-histogram",
                 "canonical-form")


@dataclass(frozen=True)
class LambdaProfile:
    """Multisets of common-neighbor counts over edges and non-edges."""

    edge: tuple[tuple[int, int], ...]  # sorted (count, multiplicity)
    nonedge: tuple[tuple[int, int], ...]


_LAMBDA_ROWS = 256  # rows of A A formed at a time


def lambda_profile(g: Graph) -> LambdaProfile:
    """Common-neighbor counts over edges and non-edges, from A A.

    The product runs in float32, exact here: every entry is a count of at
    most n < 2^24.  It is formed a block of rows at a time, each row from
    its own column onward, so no n x n temporary appears.
    """
    n = g.n
    a = dense_adjacency(g, np.float32)
    edge = np.zeros(n + 1, dtype=np.int64)
    nonedge = np.zeros(n + 1, dtype=np.int64)
    for r0 in range(0, n, _LAMBDA_ROWS):
        r1 = min(r0 + _LAMBDA_ROWS, n)
        lam = (a[r0:r1] @ a[:, r0:]).astype(np.int32)
        upper = np.arange(r0, n) > np.arange(r0, r1)[:, None]
        adj = a[r0:r1, r0:] != 0
        edge += np.bincount(lam[upper & adj], minlength=n + 1)
        nonedge += np.bincount(lam[upper & ~adj], minlength=n + 1)
    return LambdaProfile(_histogram(edge), _histogram(nonedge))


def _histogram(counts: np.ndarray) -> tuple[tuple[int, int], ...]:
    return tuple((int(k), int(counts[k])) for k in np.flatnonzero(counts))


def vertex_lambda_colors(g: Graph) -> list[int]:
    """Per-vertex invariant color: degree plus local common-neighbor counts.

    Used to seed canonical labeling and give it a head start on graphs whose
    vertices differ in second-order structure; any label-invariant coloring
    is sound here.  Colors are the ranks of the sorted (degree, edge lambda
    histogram, non-edge lambda histogram) signatures.  A block of rows of
    A A at a time gives each vertex its sorted row of keys, lambda on edges
    and n + 1 + lambda on non-edges; equal rows mean equal signatures, so
    one signature is built per distinct row.
    """
    n = g.n
    a = dense_adjacency(g, np.float32)
    sig: dict[bytes, tuple] = {}  # distinct key row -> its signature
    keys = []
    for r0 in range(0, n, _LAMBDA_ROWS):
        r1 = min(r0 + _LAMBDA_ROWS, n)
        lam = (a[r0:r1] @ a).astype(np.int32)  # exact, as in lambda_profile
        lam[a[r0:r1] == 0] += n + 1
        lam[np.arange(r1 - r0), np.arange(r0, r1)] = -1  # v itself sorts first
        lam.sort(axis=1)
        for row in lam:
            key = row.tobytes()
            if key not in sig:
                vals, counts = np.unique(row[1:], return_counts=True)
                items = list(zip(vals.tolist(), counts.tolist()))
                edge = tuple((k, c) for k, c in items if k <= n)
                nonedge = tuple((k - n - 1, c) for k, c in items if k > n)
                sig[key] = (sum(c for _, c in edge), edge, nonedge)
            keys.append(key)
    rank = {s: i for i, s in enumerate(sorted(sig.values()))}
    return [rank[sig[k]] for k in keys]


def canonical_form(g: Graph, budget: int = DEFAULT_NODE_BUDGET) -> bytes:
    """Canonical byte string; equal iff graphs are isomorphic.

    Seeds the search with the vertex lambda coloring, which is part of the
    documented canonical form (certificates embed the coloring signature).
    """
    # imported per call, so perfbench's wrapper on canon.canonical_form sees it
    from .canon import canonical_form as base_form

    return base_form(g, budget, vertex_lambda_colors(g))


def selective_neighbor_count(g: Graph, a: int, b: int, c: int) -> int:
    """#\\{x : x ~ a, x !~ b, x !~ c, x not in {a,b,c}\\}."""
    if len({a, b, c}) != 3:
        raise ValueError("selective_neighbor_count needs three distinct vertices")
    full = (1 << g.n) - 1
    mask = g.rows[a] & ~g.rows[b] & ~g.rows[c] & full
    mask &= ~((1 << a) | (1 << b) | (1 << c))
    return mask.bit_count()


_SCAN_MAX_N = 2048  # largest vertex count scan_triple_property accepts


def scan_triple_property(g: Graph) -> bool:
    """Does some pairwise non-adjacent triple (a,b,c) have lambda(a;b,c) = 1?

    Exhaustive, and every vertex is tried as a.  With N the neighbours of
    a, M its other non-neighbours and B = A[M, N], every x counted by
    lambda(a; b, c) lies in N, so by inclusion-exclusion, for b, c in M,
    lambda(a; b, c) = d(a) - lambda(a, b) - lambda(a, c) + (B B^T)[b, c],
    where lambda(a, b) is row b's sum in B.  One product per vertex, in
    float32, exact here: every entry is a count of at most n < 2^24.
    """
    n = g.n
    if n > _SCAN_MAX_N:
        raise ValueError(f"the triple scan takes at most {_SCAN_MAX_N} vertices, "
                         f"got {n}")
    a = dense_adjacency(g, np.float32)
    adj = a != 0
    for v in range(n):
        nbrs = adj[v]
        others = ~nbrs
        others[v] = False
        if others.sum() < 2:
            continue
        b = a[others][:, nbrs]
        shared = b.sum(axis=1)  # lambda(v, x) for x in M
        count = (b @ b.T) - shared[:, None] - shared[None, :] + b.shape[1]
        free = ~adj[np.ix_(others, others)]
        np.fill_diagonal(free, False)
        if (free & (count == 1)).any():
            return True
    return False


@dataclass(frozen=True)
class NonIsoVerdict:
    distinguished: bool
    level: str | None
    witness: str | None
    node_budget_exhausted: bool = False
    isomorphism: tuple[int, ...] | None = None

    def to_json_dict(self) -> dict:
        out = {
            "distinguished": self.distinguished,
            "level": self.level,
            "witness": self.witness,
            "node_budget_exhausted": self.node_budget_exhausted,
        }
        if self.isomorphism is not None:
            out["isomorphism"] = list(self.isomorphism)
        return out


def _counter_witness(c1, c2, what: str) -> str:
    keys = sorted(set(dict(c1)) | set(dict(c2)))
    d1, d2 = dict(c1), dict(c2)
    for k in keys:
        a, b = d1.get(k, 0), d2.get(k, 0)
        if a != b:
            return (f"{what} {k} appears {a} times in graph 1 "
                    f"but {b} times in graph 2")
    raise AssertionError("counters compared equal")


def _wl1_witness(w1, w2) -> str:
    """The first difference of two wl1_histogram certificates of graphs
    with one vertex count: a refinement step, else a quotient entry."""
    (_, t1, q1), (_, t2, q2) = w1, w2
    for i, (a, b) in enumerate(zip_longest(t1, t2)):
        if a != b:
            return f"1-WL refinement traces differ at step {i}: {a} vs {b}"
    # equal traces give equal cell sizes, so the quotients have one shape
    i, j = next((i, j) for i, (r1, r2) in enumerate(zip(q1, q2))
                for j, (a, b) in enumerate(zip(r1, r2)) if a != b)
    return (f"1-WL quotient entry ({i}, {j}) differs: a vertex of cell {i} "
            f"has {q1[i][j]} neighbours in cell {j} in graph 1 "
            f"but {q2[i][j]} in graph 2")


def nonisomorphic(g1: Graph, g2: Graph,
                  budget: int = DEFAULT_NODE_BUDGET) -> NonIsoVerdict:
    """Run the invariant ladder; see module docstring for the levels."""
    if g1.n != g2.n:
        return NonIsoVerdict(True, "degree-seq",
                             f"vertex counts differ: {g1.n} vs {g2.n}")
    d1, d2 = sorted(g1.degrees()), sorted(g2.degrees())
    if d1 != d2:
        i = next(i for i, (a, b) in enumerate(zip(d1, d2)) if a != b)
        return NonIsoVerdict(True, "degree-seq",
                             f"sorted degree sequences differ at position {i}: "
                             f"{d1[i]} vs {d2[i]}")
    p1, p2 = lambda_profile(g1), lambda_profile(g2)
    if p1.edge != p2.edge:
        return NonIsoVerdict(True, "edge-lambda",
                             _counter_witness(p1.edge, p2.edge,
                                              "edge common-neighbor count"))
    if p1.nonedge != p2.nonedge:
        return NonIsoVerdict(True, "nonedge-lambda",
                             _counter_witness(p1.nonedge, p2.nonedge,
                                              "non-edge common-neighbor count"))
    w1, w2 = wl1_histogram(g1), wl1_histogram(g2)
    if w1 != w2:
        return NonIsoVerdict(True, "wl1-histogram", _wl1_witness(w1, w2))
    try:
        colors1 = vertex_lambda_colors(g1)
        colors2 = vertex_lambda_colors(g2)
        cert1, perm1 = canonical_labeling(g1, budget, colors1)
        # search g2 only for a leaf with g1's certificate
        perm2 = match_certificate(g2, cert1, budget, colors2)
    except BudgetExhaustedError:
        return NonIsoVerdict(False, "canonical-form", None, node_budget_exhausted=True)
    if perm2 is None:
        return NonIsoVerdict(True, "canonical-form",
                             "canonical certificates differ")
    # certificates agree: read off the isomorphism position by position
    iso = [0] * g1.n
    for pos in range(g1.n):
        iso[perm1[pos]] = perm2[pos]
    return NonIsoVerdict(False, "canonical-form", "canonical certificates agree",
                         isomorphism=tuple(iso))
