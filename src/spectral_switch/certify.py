"""Non-isomorphism certification: an invariant ladder, and a vertex-local
check for a graph known to be vertex-transitive.

Cheapest first: sorted degree sequence, common-neighbor count multiset over
edges, the same over non-edges (both from one float32 pass over A A per
graph, _lambda_pass, which also gives the vertex colors that seed the last
rung), the stable 1-WL partition (canon's root refinement trace and
quotient matrix, equal exactly when color refinement cannot tell the graphs
apart), and finally individualization-refinement.
That last rung first compares the two graphs' first search leaves, which
prove an isomorphic pair when their certificates agree; only when they
differ is graph 1 canonically labeled and graph 2 searched for its
certificate.  The verdict names the level that distinguished, or carries
an explicit isomorphism when first leaves or canonical forms match, or
reports unknown when a descent or search exhausts its budget.

transitive_nonisomorphic compares vertex invariants instead, at a few
listed vertices.  Every SchemeParams graph is vertex-transitive (S_n acts
transitively on k-sets and GL(n,q) on k-spaces, and both keep intersection
sizes), so a vertex invariant of such a graph takes vertex 0's value at every
vertex; one vertex of the other graph where the value differs proves the two
non-isomorphic (Godsil and McKay, Aequationes Math. 25, 1982).  Its levels,
"transitive-lambda" and "transitive-selective", are not ladder levels; the
first takes listed lambda rows from graphcore._common_bits, the scheme
build's kernel, and signatures from _lambda_signature, as _lambda_pass does.

Also provides the selective neighbor count lambda(a; b, c) = #{x ~ a, x !~ b,
x !~ c}; the "transitive-selective" level scans each listed vertex a for a
pairwise non-adjacent triple realizing lambda(a; b, c) = 1, one float32
product per vertex.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .canon import (
    BudgetExhaustedError,
    DEFAULT_NODE_BUDGET,
    _first_leaves,
    canonical_labeling,
    match_certificate,
    wl1_histogram,
)
from .graphcore import (Graph, _check_vertex, _common_bits, _packed_rows, _unpacked_rows,
                        dense_adjacency)

__all__ = [
    "LambdaProfile",
    "lambda_profile",
    "vertex_lambda_colors",
    "selective_neighbor_count",
    "NonIsoVerdict",
    "nonisomorphic",
    "transitive_nonisomorphic",
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
_BLOCK_WORDS = 1 << 20  # packed words per block of rows in _lambda_rows (8 MiB)


def _lambda_pass(g: Graph) -> tuple[list[int], LambdaProfile]:
    """Each vertex's lambda color (see vertex_lambda_colors) and g's
    LambdaProfile, from one pass over A A.

    The product runs in float32, exact here: every entry is a count of at
    most n < 2^24.  It is formed a block of rows at a time, so no n x n
    temporary appears.  Each row becomes its vertex's sorted key row, and
    one signature is built per distinct row.  Every unordered pair appears
    once in each of its two vertices' rows, so the profile is half the
    distinct rows' key counts, each weighted by how many vertices share it.
    """
    n = g.n
    a = dense_adjacency(g, np.float32)
    index: dict[bytes, int] = {}  # distinct key row -> its place in sigs
    sigs, place = [], []  # each distinct row's signature; each vertex's row
    for r0 in range(0, n, _LAMBDA_ROWS):
        r1 = min(r0 + _LAMBDA_ROWS, n)
        lam = (a[r0:r1] @ a - (n + 1) * a[r0:r1]).astype(np.int32) + n + 1
        lam[np.arange(r1 - r0), np.arange(r0, r1)] = -1  # v itself sorts first
        lam.sort(axis=1)
        for row in lam:
            i = index.setdefault(row.tobytes(), len(sigs))
            if i == len(sigs):
                sigs.append(_lambda_signature(row))
            place.append(i)
    counts = np.zeros(2 * n + 2, dtype=np.int64)
    mult = Counter(place)
    for i, key in enumerate(index):
        counts += mult[i] * np.bincount(np.frombuffer(key, np.int32)[1:], minlength=2 * n + 2)
    rank = {i: r for r, i in enumerate(sorted(range(len(sigs)), key=sigs.__getitem__))}
    profile = LambdaProfile(*(_histogram(c // 2) for c in np.split(counts, [n + 1])))
    return [rank[i] for i in place], profile


def _histogram(counts: np.ndarray) -> tuple[tuple[int, int], ...]:
    ks = np.flatnonzero(counts)
    return tuple(zip(ks.tolist(), counts[ks].tolist()))


def lambda_profile(g: Graph) -> LambdaProfile:
    """Common-neighbor counts over edges and non-edges (_lambda_pass)."""
    return _lambda_pass(g)[1]


def vertex_lambda_colors(g: Graph) -> list[int]:
    """Per-vertex invariant color: degree plus local common-neighbor counts.

    Used to seed canonical labeling and give it a head start on graphs whose
    vertices differ in second-order structure; any label-invariant coloring
    is sound here.  Colors are the ranks of the sorted (degree, edge lambda
    histogram, non-edge lambda histogram) signatures of _lambda_pass.
    """
    return _lambda_pass(g)[0]


def canonical_form(g: Graph, budget: int = DEFAULT_NODE_BUDGET) -> bytes:
    """Canonical byte string; equal iff graphs are isomorphic.

    The form is the graph6 of g relabeled by a search seeded with the vertex
    lambda coloring; it embeds no coloring, and it is canonical because that
    coloring is isomorphism-invariant.
    """
    # imported per call, so perfbench's wrapper on canon.canonical_form sees it
    from .canon import canonical_form as base_form

    return base_form(g, budget, vertex_lambda_colors(g))


def selective_neighbor_count(g: Graph, a: int, b: int, c: int) -> int:
    """#\\{x : x ~ a, x !~ b, x !~ c, x not in {a,b,c}\\}."""
    for v in (a, b, c):
        _check_vertex(v, g.n)
    if len({a, b, c}) != 3:
        raise ValueError("selective_neighbor_count needs three distinct vertices")
    mask = g.rows[a] & ~g.rows[b] & ~g.rows[c]  # no bit at n or above, as rows[a]
    mask &= ~((1 << a) | (1 << b) | (1 << c))
    return mask.bit_count()


_SCAN_MAX_N = 2048  # largest vertex count the "transitive-selective" level scans


def _selective_pair(a: np.ndarray, v: int) -> tuple[int, int] | None:
    """The first pairwise non-adjacent pair (b, c), b < c, non-adjacent to v,
    with lambda(v; b, c) = 1, or None; a is the dense float32 adjacency
    matrix.

    Exhaustive over the pairs at v.  With N the neighbours of v, M its other
    non-neighbours and B = A[M, N], every x counted by lambda(v; b, c) lies
    in N, so by inclusion-exclusion, for b, c in M,
    lambda(v; b, c) = d(v) - lambda(v, b) - lambda(v, c) + (B B^T)[b, c],
    where lambda(v, b) is row b's sum in B.  One product, in float32, exact
    here: every entry is a count of at most n < 2^24.
    """
    nbrs = a[v] != 0
    others = ~nbrs
    others[v] = False
    if others.sum() < 2:
        return None
    rows = a[others]
    b = rows[:, nbrs]
    shared = b.sum(axis=1)  # lambda(v, x) for x in M
    count = (b @ b.T) - shared[:, None] - shared[None, :] + b.shape[1]
    free = rows[:, others] == 0
    np.fill_diagonal(free, False)
    hit = free & (count == 1)
    if not hit.any():
        return None
    # hit is symmetric, so its first entry in row-major order has i < j
    i, j = divmod(int(hit.argmax()), len(hit))
    m = np.flatnonzero(others)
    return int(m[i]), int(m[j])


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


def _counter_witness(c1, c2, what: str,
                     where: tuple[str, str] = ("in graph 1", "in graph 2")) -> str:
    keys = sorted(set(dict(c1)) | set(dict(c2)))
    d1, d2 = dict(c1), dict(c2)
    for k in keys:
        a, b = d1.get(k, 0), d2.get(k, 0)
        if a != b:
            return (f"{what} {k} appears {a} times {where[0]} "
                    f"but {b} times {where[1]}")
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
    (colors1, p1), (colors2, p2) = _lambda_pass(g1), _lambda_pass(g2)
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
        witness = "first leaves agree"
        perms = _first_leaves(g1, g2, budget, colors1, colors2)
        if perms is None:
            witness = "canonical certificates agree"
            cert1, perm1 = canonical_labeling(g1, budget, colors1)
            # search g2 only for a leaf with g1's certificate
            perms = perm1, match_certificate(g2, cert1, budget, colors2)
    except BudgetExhaustedError:
        return NonIsoVerdict(False, "canonical-form", None, node_budget_exhausted=True)
    perm1, perm2 = perms
    if perm2 is None:
        return NonIsoVerdict(True, "canonical-form",
                             "canonical certificates differ")
    # certificates agree: read off the isomorphism position by position
    iso = [0] * g1.n
    for pos in range(g1.n):
        iso[perm1[pos]] = perm2[pos]
    return NonIsoVerdict(False, "canonical-form", witness, isomorphism=tuple(iso))


def _lambda_rows(g: Graph, vertices: list[int]) -> np.ndarray:
    """The listed vertices' key rows (see _lambda_signature): _common_bits of
    their packed rows and a block of g's at a time (at most 2^18 counts and
    _BLOCK_WORDS words, stored word-major so each word column is contiguous),
    so neither an n x n matrix nor g's unpacked rows are formed."""
    n = g.n
    listed = [g.rows[v] for v in vertices]
    sub = _packed_rows(listed, n)
    step = max(1, min((1 << 18) // len(vertices), _BLOCK_WORDS // sub.shape[1]))
    buf = np.empty((len(vertices), min(step, n)), dtype=np.uint64)
    lam = np.empty((len(vertices), n), dtype=np.int32)
    for r0 in range(0, n, step):
        block = np.asfortranarray(_packed_rows(g.rows[r0:r0 + step], n))
        lam[:, r0:r0 + len(block)] = _common_bits(sub, block, buf)
    lam[_unpacked_rows(listed, n) == 0] += n + 1
    lam[np.arange(len(vertices)), vertices] = -1
    return lam


def _lambda_signature(keys: np.ndarray):
    """(degree, edge lambda histogram, non-edge lambda histogram) of vertex v
    from its key row, in any order: lambda(v, u) for each neighbour u,
    n + 1 + lambda(v, u) for each other u, and -1 for v itself."""
    n = len(keys)
    counts = np.bincount(keys[keys >= 0], minlength=2 * n + 2)
    edge = _histogram(counts[:n + 1])
    return sum(c for _, c in edge), edge, _histogram(counts[n + 1:])


def _signature_witness(sig0, sig, v: int) -> str:
    where = ("at vertex 0 of graph 1", f"at vertex {v} of graph 2")
    if sig0[1] != sig[1]:
        return _counter_witness(sig0[1], sig[1], "edge common-neighbor count", where)
    return _counter_witness(sig0[2], sig[2], "non-edge common-neighbor count", where)


def _selective_witness(v: int, pair, pair0) -> str:
    if pair is not None:
        return (f"lambda({v}; {pair[0]}, {pair[1]}) = 1 at vertex {v} of graph 2, "
                f"but no pairwise non-adjacent triple (0, b, c) of graph 1 "
                f"has lambda(0; b, c) = 1")
    return (f"lambda(0; {pair0[0]}, {pair0[1]}) = 1 at vertex 0 of graph 1, "
            f"but no pairwise non-adjacent triple ({v}, b, c) of graph 2 "
            f"has lambda({v}; b, c) = 1")


def transitive_nonisomorphic(g: Graph, mate: Graph,
                             vertices: Iterable[int]) -> NonIsoVerdict | None:
    """Distinguish mate from g by vertex invariants at the listed vertices
    of mate, given that g is vertex-transitive.

    Precondition: g is vertex-transitive; the caller guarantees it.  Every
    SchemeParams graph is, because S_n acts transitively on k-sets and
    GL(n,q) on k-spaces, and both keep intersection sizes.  So any vertex
    invariant of g takes vertex 0's value at every vertex, an isomorphism
    would carry those values to mate, and one vertex of mate whose value
    differs from vertex 0's proves the pair non-isomorphic.

    Two invariants are compared, cheapest first:

    - "transitive-lambda": the signature (degree, edge lambda histogram,
      non-edge lambda histogram), from the vertices' lambda rows of mate
      and vertex 0's of g, each the popcounts of packed row ANDs formed a
      block of rows at a time, so no n x n matrix is formed;
    - "transitive-selective", only if that decides nothing and
      n <= _SCAN_MAX_N: whether some pairwise non-adjacent pair (b, c)
      gives lambda(v; b, c) = 1, by _selective_pair's product at v.

    The witness names the vertex of mate and its first entry that differs
    from vertex 0's.  None means neither invariant separates the graphs at
    these vertices, and proves nothing.  Vertices outside 0..n-1 raise
    ValueError.
    """
    vertices = list(dict.fromkeys(vertices))
    for v in vertices:
        _check_vertex(v, mate.n)
    if g.n != mate.n or not vertices:
        return None
    sig0 = _lambda_signature(_lambda_rows(g, [0])[0])
    for v, keys in zip(vertices, _lambda_rows(mate, vertices)):
        sig = _lambda_signature(keys)
        if sig != sig0:
            return NonIsoVerdict(True, "transitive-lambda", _signature_witness(sig0, sig, v))
    if g.n > _SCAN_MAX_N:
        return None
    pair0 = _selective_pair(dense_adjacency(g, np.float32), 0)
    a = dense_adjacency(mate, np.float32)
    for v in vertices:
        pair = _selective_pair(a, v)
        if (pair is None) != (pair0 is None):
            return NonIsoVerdict(True, "transitive-selective",
                                 _selective_witness(v, pair, pair0))
    return None
