"""Canonical labeling by individualization-refinement.

Equitable refinement splits an ordered partition by neighbor counts into
splitter cells; the search tree individualizes vertices of the first
smallest non-singleton cell.  A partition is an order array of the vertices
with a mask of cell starts, and one row sum of the 0/1 adjacency matrix
counts every vertex against a splitter at once, so only cells whose counts
differ are touched.  The canonical leaf minimizes (refinement trace,
relabeled adjacency bytes), which is label-invariant.  Discovered
automorphisms prune sibling branches (orbit pruning restricted to
generators fixing the individualized prefix); refinement traces prune
subtrees that can no longer reach the minimum.

A leaf whose certificate equals that of the first leaf or of the best leaf
so far yields an automorphism gamma, and the search backjumps: it unwinds
to the deepest node on both leaves' paths and goes on with that node's
next child, where gamma already feeds orbit pruning.  gamma fixes the
common path prefix and maps the earlier leaf's subtree below it onto the
current one, so everything skipped is an image of a leaf seen before, with
the same traces and certificate.  The canonical leaf, the first minimal
leaf in depth-first order, is never an image of an earlier leaf, and the
best leaf changes only on a strictly smaller one, so certificates,
labelings and forms are those of the search without backjumping; only the
generators found differ, far fewer on symmetric graphs.

To prove two graphs isomorphic, label one and search the other for a leaf
with the same certificate (match_certificate), with the same pruning; it
stops at the first such leaf.  This is the isomorphism-test mode of
McKay and Piperno, "Practical graph isomorphism, II" (J. Symbolic Comput.
60, 2014).  It needs the first graph's canonical leaf only so that the
second search can prune by trace order: two leaves with one certificate
prove the graphs isomorphic whichever leaves they are.  So a pair is first
probed at the two first leaves, the ends of the path each search visits
first (_first_leaves); only a pair whose first leaves differ is labeled
and matched.

All three searches run on the twin quotient.  Open twins share their
neighborhood, closed twins their neighborhood plus themselves; refinement
never splits twins, so a graph with many twin pairs would be searched one
pair per level.  Twin classes of one color are label-invariant, so, as
with any such reduction, the search may run on the quotient: one vertex
per class, adjacent where the members are, colored by the rank of
(color, class size, twin kind).  The quotient is reduced again until it
has no twins, so a cograph collapses to one vertex.  The certificate is
prefixed, per reduction, with n and the sorted table of those triples, so
a rank cannot hide a class size or kind; a graph without twins keeps the
certificate and labeling of the plain search.  Results lift class by
class: a labeling expands each class in place, members ascending, and an
automorphism maps the i-th member of a class to the i-th member of its
image; a transposition of each consecutive pair of members joins them.

The search counts individualization nodes against a budget and raises
BudgetExhaustedError instead of ever returning a wrong answer.

The same root refinement, from the uniform coloring, is the stable 1-WL
coloring: wl1_histogram reads its trace and quotient matrix as an exact
certificate of color-refinement equivalence, with no search.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np

from .graphcore import Graph, _bit_rows, dense_adjacency, encode_graph6

__all__ = [
    "BudgetExhaustedError",
    "DEFAULT_NODE_BUDGET",
    "automorphism_generators",
    "canonical_labeling",
    "canonical_form",
    "match_certificate",
    "wl1_histogram",
]

DEFAULT_NODE_BUDGET = 200_000


class BudgetExhaustedError(RuntimeError):
    """Search stopped after exceeding its node budget."""

    def __init__(self, budget: int):
        super().__init__(f"canonical labeling exceeded the node budget of {budget}")
        self.budget = budget


def _refine(adj, order, bnd, queue):
    """Refine the partition (order, bnd) in place against the splitter queue.

    The partition lists its cells as consecutive runs of `order`; bnd[p] is
    set where a cell starts.  A splitter is a vertex or an array of them,
    and one row (or row sum) of `adj` gives every vertex's count in it; only
    the cells whose counts differ are split, stably by count.  Returns the
    trace: (cell position, (count, size) pairs) for every split, which
    depends only on the isomorphism type of the colored graph.
    """
    n = len(order)
    inner = ~bnd[1:]
    ncells = n - int(np.count_nonzero(inner))
    trace = []
    # a discrete partition splits no further, so the rest of the queue is moot
    while queue and ncells < n:
        sv = queue.popleft()
        counts = adj[sv] if type(sv) is int else adj[sv].sum(axis=0)
        cp = counts[order]
        hits = ((cp[1:] != cp[:-1]) & inner).nonzero()[0]
        if not hits.size:
            continue
        starts = bnd.nonzero()[0]
        split = np.searchsorted(starts, hits, side="right") - 1
        starts = starts.tolist() + [n]
        added = 0
        for c in sorted(set(split.tolist())):
            s, e = starts[c], starts[c + 1]
            groups: dict[int, list[int]] = {}
            for k, v in zip(cp[s:e].tolist(), order[s:e].tolist()):
                groups.setdefault(k, []).append(v)
            keys = sorted(groups)
            trace.append((c + added, tuple((k, len(groups[k])) for k in keys)))
            for k in keys:
                part = groups[k]
                order[s:s + len(part)] = part
                bnd[s] = True
                s += len(part)
                queue.append(part[0] if len(part) == 1 else np.array(part))
            added += len(keys) - 1
        inner = ~bnd[1:]
        ncells += added
    return tuple(trace)


def _refine_root(g: Graph, colors: Sequence[int] | None):
    """(adj, order, bnd, (color, size) signature, trace) of the refined
    initial coloring; adj is the n x n uint8 adjacency matrix."""
    if colors is None:
        colors = [0] * g.n
    buckets: dict[int, list[int]] = {}
    for v in range(g.n):
        buckets.setdefault(colors[v], []).append(v)
    keys = sorted(buckets)
    init_sig = tuple((c, len(buckets[c])) for c in keys)
    cells = [np.array(buckets[c], dtype=np.intp) for c in keys]
    order = np.concatenate(cells) if cells else np.zeros(0, dtype=np.intp)
    bnd = np.zeros(g.n, dtype=bool)
    bnd[np.cumsum([0] + [len(c) for c in cells])[:-1]] = True
    adj = dense_adjacency(g, np.uint8)
    trace = _refine(adj, order, bnd, deque(cells))
    return adj, order, bnd, init_sig, trace


def _individualize_refine(adj, order, bnd, target_idx, s, e, v):
    """Split v off the front of cell target_idx = order[s:e] and refine."""
    new_order = order.copy()
    cell = order[s:e]
    new_order[s] = v
    new_order[s + 1:e] = cell[cell != v]
    new_bnd = bnd.copy()
    new_bnd[s + 1] = True
    trace = _refine(adj, new_order, new_bnd, deque([v]))
    return new_order, new_bnd, (target_idx,) + trace


def _target_cell(starts, n):
    """(index, start, end) of the first smallest non-singleton cell of a
    partition of n vertices whose cells start at `starts`: the cell every
    node of the search tree individualizes."""
    sizes = np.append(starts, n)[1:] - starts
    target = int(np.where(sizes > 1, sizes, n + 1).argmin())
    s = int(starts[target])
    return target, s, s + int(sizes[target])


def _leaf_cert(adj, perm, upper) -> bytes:
    """Upper-triangle bits of the relabeled adjacency, row-major, packed.

    `upper` is the n x n mask of the strict upper triangle."""
    return np.packbits(adj[perm][:, perm][upper]).tobytes()


_MAX_GENS = 100


class _Search:
    """Depth-first individualization-refinement over one graph.

    With a `target` leaf certificate the search stops at the first leaf
    that has it (`best` is that leaf); otherwise it runs to the end and
    `best` is the canonical leaf.  Pruning is the same either way.
    `gens` holds the automorphisms found, one per row.  `first` and `best`
    are the (certificate, order, path) of the first leaf and of the best
    leaf so far; `jump` is the depth the search unwinds to after a leaf
    equivalent to one of them, None otherwise.
    """

    def __init__(self, adj, budget, target: bytes | None = None):
        self.adj = adj
        self.n = n = len(adj)
        self.upper = np.arange(n)[:, None] < np.arange(n)
        self.budget = budget
        self.target = target
        self.nodes = 0
        self.best_traces: list = []
        self.first = None
        self.best = None
        self.gens = np.zeros((0, n), dtype=np.intp)
        self.path: list[int] = []
        self.jump: int | None = None

    def _orbits(self) -> list[int]:
        """Each vertex's orbit label, the least vertex of its orbit, under
        the generators that fix the current path."""
        lab = np.arange(self.n)
        gens = self.gens
        if self.path:
            gens = gens[(gens[:, self.path] == self.path).all(axis=1)]
        while len(gens):
            # the least label one generator step away, then pointer jumping
            new = np.minimum(lab, lab[gens].min(axis=0))
            new = new[new]
            if (new == lab).all():
                break
            lab = new
        return lab.tolist()

    def _leaf(self, order) -> bool:
        """Compare a leaf with the target, the best and the first leaf."""
        cert = _leaf_cert(self.adj, order, self.upper)
        if cert == self.target or self.best is None or cert < self.best[0]:
            self.best = cert, order, self.path.copy()
            self.first = self.first or self.best
            return cert == self.target
        # gamma maps the earlier leaf onto this one, so it fixes their common
        # path prefix and maps the earlier leaf's subtree below it onto this
        # leaf's: whatever is left of this subtree repeats what was seen
        earlier = (self.best,) if self.first is self.best else (self.best, self.first)
        for seen_cert, seen_order, seen_path in earlier:
            if cert != seen_cert:
                continue
            if len(self.gens) < _MAX_GENS:
                gamma = np.empty(self.n, dtype=np.intp)
                gamma[seen_order] = order
                if not (self.gens == gamma).all(axis=1).any():
                    self.gens = np.vstack([self.gens, gamma])
            d = next(i for i, (u, v) in enumerate(zip(seen_path, self.path)) if u != v)
            self.jump = d if self.jump is None else min(self.jump, d)
        return False

    def dfs(self, order, bnd, depth) -> bool:
        """Search below one node; True once a leaf matched the target."""
        starts = bnd.nonzero()[0]
        if len(starts) == self.n:
            return self._leaf(order)
        target, s, e = _target_cell(starts, self.n)
        explored: list[int] = []
        seen_gens = -1
        for v in order[s:e].tolist():
            if explored:
                # rebuild orbits when new automorphisms appeared mid-loop
                if len(self.gens) != seen_gens:
                    orbit = self._orbits()
                    seen_gens = len(self.gens)
                    done = {orbit[w] for w in explored}
                if orbit[v] in done:
                    continue
                done.add(orbit[v])
            explored.append(v)
            self.nodes += 1
            if self.nodes > self.budget:
                raise BudgetExhaustedError(self.budget)
            child, child_bnd, tr = _individualize_refine(self.adj, order, bnd,
                                                         target, s, e, v)
            d = depth + 1
            if len(self.best_traces) >= d:
                known = self.best_traces[d - 1]
                if tr > known:
                    continue
                if tr < known:
                    del self.best_traces[d - 1:]
                    self.best_traces.append(tr)
                    self.best = None
            else:
                self.best_traces.append(tr)
            self.path.append(v)
            found = self.dfs(child, child_bnd, d)
            self.path.pop()
            if found:
                return True
            if self.jump is not None:
                if self.jump < depth:
                    return False
                self.jump = None
        return False


def _header(g: Graph, init_sig, root_trace) -> bytes:
    # the root refinement trace is shared by every leaf; keep it out of the
    # per-depth comparisons but fold it into the certificate prefix
    return repr((g.n, init_sig, root_trace)).encode() + b"|"


def _twin_classes(g: Graph, colors):
    """The twin classes of the colored graph g, as (members, kind) pairs in
    order of least member, members ascending; None if no class has two
    vertices.

    Open twins (kind 1) share their neighborhood, closed twins (kind 2)
    their neighborhood plus themselves, and twins share a color; a lone
    vertex has kind 0.  No vertex v has twins of both kinds: an open twin u
    is not adjacent to v and a closed twin w is, so w lies in N(v) = N(u),
    and then u lies in N[w] = N[v], adjacent to v after all.
    """
    rows = g.rows
    open_: dict = {}
    closed: dict = {}
    for v, (row, c) in enumerate(zip(rows, colors)):
        open_.setdefault((row, c), []).append(v)
        closed.setdefault((row | 1 << v, c), []).append(v)
    if len(open_) == g.n and len(closed) == g.n:
        return None
    classes = []
    for v, (row, c) in enumerate(zip(rows, colors)):
        members, kind = open_[row, c], 1
        if len(members) == 1:
            members = closed[row | 1 << v, c]
            kind = 2 if len(members) > 1 else 0
        if members[0] == v:
            classes.append((members, kind))
    return classes


def _twin_quotient(g: Graph, colors):
    """(quotient, its colors, certificate prefix, class lists) of g reduced
    by twins until it has none; the class lists come one per reduction,
    outermost first, each indexed by quotient vertex.

    A quotient vertex is one twin class, adjacent where its members are,
    colored by the rank of (color, class size, twin kind).  Each reduction
    appends n and the sorted table of those triples to the prefix, so
    equal certificates mean equal class sizes and kinds, not just ranks.
    """
    if colors is None:
        colors = [0] * g.n
    elif len(colors) != g.n:
        raise ValueError("need one color per vertex")
    prefix = b""
    levels = []
    while (found := _twin_classes(g, colors)) is not None:
        triples = [(colors[m[0]], len(m), kind) for m, kind in found]
        table = sorted(set(triples))
        prefix += repr((g.n, table)).encode() + b"|"
        rank = {t: i for i, t in enumerate(table)}
        colors = [rank[t] for t in triples]
        reps = [m[0] for m, _ in found]
        sub = dense_adjacency(g, bool)[np.ix_(reps, reps)]
        g = Graph(len(reps), _bit_rows(sub), validate=False)
        levels.append([m for m, _ in found])
    return g, colors, prefix, levels


def _lift_order(levels, order) -> tuple:
    """A quotient's position order with each class expanded in place."""
    for classes in reversed(levels):
        order = [v for q in order for v in classes[q]]
    return tuple(order)


def _lift_gens(levels, gens) -> list:
    """Quotient automorphisms lifted class by class (the i-th member to the
    i-th member of the image class), plus one transposition per consecutive
    pair of members of each class."""
    for classes in reversed(levels):
        n = sum(map(len, classes))
        lifted = []
        for gamma in gens:
            image = [0] * n
            for members, target in zip(classes, gamma):
                for v, w in zip(members, classes[target]):
                    image[v] = w
            lifted.append(image)
        for members in classes:
            for v, w in zip(members, members[1:]):
                swap = list(range(n))
                swap[v], swap[w] = w, v
                lifted.append(swap)
        gens = lifted
    return gens


def _prepare(g: Graph, colors):
    """(adj, order, bnd, certificate header, class lists) of g's twin
    quotient, refined at the root."""
    q, qcolors, prefix, levels = _twin_quotient(g, colors)
    adj, order, bnd, init_sig, root_trace = _refine_root(q, qcolors)
    return adj, order, bnd, prefix + _header(q, init_sig, root_trace), levels


def _run_search(g: Graph, budget: int, colors):
    adj, order, bnd, header, levels = _prepare(g, colors)
    search = _Search(adj, budget)
    search.dfs(order, bnd, 0)
    return search, header, levels


def canonical_labeling(g: Graph, budget: int = DEFAULT_NODE_BUDGET,
                       colors: Sequence[int] | None = None):
    """(certificate bytes, permutation) minimal over the search tree.

    The permutation lists vertices in canonical position order: position i
    holds vertex perm[i].  Isomorphic graphs with isomorphic colorings get
    equal certificates.  Raises BudgetExhaustedError past the node budget.
    """
    search, header, levels = _run_search(g, budget, colors)
    cert, order, _ = search.best
    return header + cert, _lift_order(levels, order.tolist())


def match_certificate(g: Graph, cert: bytes, budget: int = DEFAULT_NODE_BUDGET,
                      colors: Sequence[int] | None = None):
    """A labeling of g whose certificate equals cert, or None if g has none.

    cert is another graph's canonical_labeling certificate.  A header
    (twin tables, then the quotient's n, color signature and root trace)
    unlike cert's settles None with no search.  Otherwise g's twin quotient
    is searched with canonical_labeling's pruning and the search stops at
    the first leaf whose certificate equals cert's; the permutation lists
    vertices in position order, as canonical_labeling's does, so position
    by position it maps the other graph onto g.  None after a full search
    means the certificates differ.  Raises BudgetExhaustedError past the
    node budget.
    """
    adj, order, bnd, header, levels = _prepare(g, colors)
    if not cert.startswith(header):
        return None
    search = _Search(adj, budget, cert[len(header):])
    if not search.dfs(order, bnd, 0):
        return None
    return _lift_order(levels, search.best[1].tolist())


def _first_leaf(adj, order, bnd, budget: int):
    """The position order of the first leaf below (order, bnd): the path
    _Search.dfs visits first, individualizing the first vertex of the
    target cell at every level.  Raises BudgetExhaustedError past budget
    individualizations, as the search does."""
    n = len(order)
    nodes = 0
    while len(starts := bnd.nonzero()[0]) < n:
        nodes += 1
        if nodes > budget:
            raise BudgetExhaustedError(budget)
        target, s, e = _target_cell(starts, n)
        order, bnd, _ = _individualize_refine(adj, order, bnd, target, s, e,
                                              int(order[s]))
    return order


def _first_leaves(g1: Graph, g2: Graph, budget: int, colors1: Sequence[int],
                  colors2: Sequence[int]):
    """Permutations of g1 and g2 in position order, one per graph, read off
    the first leaves of their search trees, or None when the two first-leaf
    certificates differ; the caller then labels g1 and matches g2.

    A first-leaf certificate has canonical_labeling's format, the header
    followed by the leaf's bytes.  Equal headers put equal colors at equal
    positions, and equal leaf bytes then make the position map an
    isomorphism of the twin quotients, which lifts class by class; so, as
    with match_certificate, position by position the permutations map g1
    onto g2.  Each descent raises BudgetExhaustedError past the node budget.
    """
    adj1, order1, bnd1, header1, levels1 = _prepare(g1, colors1)
    adj2, order2, bnd2, header2, levels2 = _prepare(g2, colors2)
    if header1 != header2:
        return None
    leaf1 = _first_leaf(adj1, order1, bnd1, budget)
    leaf2 = _first_leaf(adj2, order2, bnd2, budget)
    upper = np.arange(len(adj1))[:, None] < np.arange(len(adj1))
    if _leaf_cert(adj1, leaf1, upper) != _leaf_cert(adj2, leaf2, upper):
        return None
    return _lift_order(levels1, leaf1.tolist()), _lift_order(levels2, leaf2.tolist())


def automorphism_generators(g: Graph, budget: int = DEFAULT_NODE_BUDGET,
                            colors: Sequence[int] | None = None):
    """Automorphisms discovered as a side effect of the canonical search.

    Each returned tuple maps vertex to image and is a verified automorphism:
    two leaves of the quotient search produced identical relabeled
    adjacency, lifted class by class, or a swap of two twins.  The search
    backjumps after each such leaf, so it finds few generators: 7 on
    K_2(4,2) and 10 on J_1(11,4).  The list need not generate the full
    automorphism group, but its twin swaps generate every permutation
    inside each twin class.
    """
    search, _, levels = _run_search(g, budget, colors)
    return [tuple(gamma) for gamma in _lift_gens(levels, search.gens.tolist())]


def canonical_form(g: Graph, budget: int = DEFAULT_NODE_BUDGET,
                   colors: Sequence[int] | None = None) -> bytes:
    """Canonical byte string: graph6 of the canonically relabeled graph."""
    _, perm = canonical_labeling(g, budget, colors)
    n = g.n
    inv = [0] * n
    for pos, v in enumerate(perm):
        inv[v] = pos
    return encode_graph6(g.relabel(inv))


# -- 1-WL certificate -------------------------------------------------------

def wl1_histogram(g: Graph):
    """Label-invariant certificate of the stable 1-WL coloring: (n, root
    refinement trace, quotient matrix as a tuple of rows).

    The root refinement of the uniform coloring is the coarsest equitable
    partition, its cells in an isomorphism-invariant order; quotient entry
    (i, j) is how many neighbours one vertex of cell i has in cell j.  Two
    graphs get equal certificates exactly when color refinement cannot tell
    them apart: both are equivalent to equal cell sizes and quotients
    (Ramana, Scheinerman and Ullman, "Fractional isomorphism of graphs",
    Discrete Math. 132, 1994).
    """
    adj, order, bnd, _, trace = _refine_root(g, None)
    starts = bnd.nonzero()[0]
    quotient = np.add.reduceat(adj[order[starts]][:, order], starts, axis=1,
                               dtype=np.int64)
    return g.n, trace, tuple(map(tuple, quotient.tolist()))
