"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written against different algorithms than
the package: exact Faddeev-LeVerrier or a plain determinant mod p instead of
Hessenberg mod p, vector-set closure instead of RREF enumeration, itertools
set counting instead of bitmask rows.  Slow and simple on purpose.
"""

from itertools import combinations


def charpoly_exact(g):
    """Characteristic polynomial of the adjacency matrix, descending integer
    coefficients, via Faddeev-LeVerrier over exact Python ints."""
    n = g.n
    a = [[1 if g.has_edge(i, j) else 0 for j in range(n)] for i in range(n)]
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    coeffs = [1]
    for k in range(1, n + 1):
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        tr = sum(am[i][i] for i in range(n))
        assert tr % k == 0, "Faddeev-LeVerrier trace division must be exact"
        c = -(tr // k)
        coeffs.append(c)
        m = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs


def det_mod_p(mat, p):
    """Determinant of a square integer matrix (list of rows) modulo a prime,
    by plain Gaussian elimination over F_p with Python ints."""
    a = [[x % p for x in row] for row in mat]
    n = len(a)
    det = 1
    for i in range(n):
        piv = next((r for r in range(i, n) if a[r][i]), None)
        if piv is None:
            return 0
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            det = -det
        det = det * a[i][i] % p
        inv = pow(a[i][i], p - 2, p)
        for r in range(i + 1, n):
            f = a[r][i] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[i])]
    return det % p


def subspace_counts_by_dim(n: int, q: int, max_dim: int) -> dict:
    """Count subspaces of F_q^n per dimension by closing vector sets.

    A subspace is represented as the literal frozenset of its vectors; the
    closure of (S, v) is {s + c*v}.  No echelon forms anywhere.
    """
    zero = (0,) * n

    def add(u, v):
        return tuple((a + b) % q for a, b in zip(u, v))

    def scale(c, v):
        return tuple((c * a) % q for a in v)

    level = {frozenset([zero])}
    counts = {0: 1}
    all_vectors = []

    def gen(prefix):
        if len(prefix) == n:
            all_vectors.append(tuple(prefix))
            return
        for c in range(q):
            gen(prefix + [c])

    gen([])
    for dim in range(1, max_dim + 1):
        nxt = set()
        for space in level:
            for v in all_vectors:
                if v in space:
                    continue
                bigger = set(space)
                for c in range(1, q):
                    cv = scale(c, v)
                    bigger.update(add(s, cv) for s in space)
                nxt.add(frozenset(bigger))
        counts[dim] = len(nxt)
        level = nxt
    return counts


def count_rref_pivot_patterns(n: int, k: int, q: int) -> int:
    """Number of k x n RREF matrices of rank k: sum over pivot-column
    choices of q^(free entries).  Free entries in row i are the non-pivot
    columns to the right of pivot i."""
    if k == 0:
        return 1
    total = 0
    for pivots in combinations(range(n), k):
        free = 0
        for i, p in enumerate(pivots):
            later_pivots = k - i - 1
            free += (n - 1 - p) - later_pivots
        total += q ** free
    return total


def johnson_degree_direct(n: int, k: int, s_set, a=None) -> int:
    """Degree of a vertex of J_S(n,k) by brute-force subset counting."""
    if a is None:
        a = frozenset(range(1, k + 1))
    a = frozenset(a)
    deg = 0
    for b in combinations(range(1, n + 1), k):
        b = frozenset(b)
        if b != a and len(a & b) in s_set:
            deg += 1
    return deg


def triangle_count_brute(g) -> int:
    count = 0
    for i, j, k in combinations(range(g.n), 3):
        if g.has_edge(i, j) and g.has_edge(j, k) and g.has_edge(i, k):
            count += 1
    return count


def triangle_count_matmul(g) -> int:
    """trace(A^3) / 6 with float64 BLAS; exact while entries stay below 2^53."""
    import numpy as np

    n = g.n
    a = np.zeros((n, n))
    for u, v in g.edges():
        a[u, v] = 1.0
        a[v, u] = 1.0
    t = float(np.trace(a @ a @ a))
    assert t == round(t)
    return int(round(t)) // 6


def selective_count_brute(g, a: int, b: int, c: int) -> int:
    """Vertices adjacent to a but to neither b nor c, excluding a, b, c."""
    count = 0
    for x in range(g.n):
        if x in (a, b, c):
            continue
        if g.has_edge(x, a) and not g.has_edge(x, b) and not g.has_edge(x, c):
            count += 1
    return count


def f2_rank(rows) -> int:
    """Rank over F_2 of rows given as bitmask ints, by elimination on leading
    bits."""
    basis: dict[int, int] = {}  # leading bit -> reduced row
    for x in rows:
        while x:
            h = x.bit_length() - 1
            b = basis.get(h)
            if b is None:
                basis[h] = x
                break
            x ^= b
    return len(basis)


def refine_reference(rows, cells, queue):
    """Equitable refinement of a list of vertex tuples against a deque of
    splitter bitmasks, cell by cell with dict grouping: the refinement
    canon used before it moved to arrays.  Returns (cells, trace) with the
    trace entries (cell position, (count, size) pairs)."""
    trace = []
    while queue:
        smask = queue.popleft()
        i = 0
        while i < len(cells):
            cell = cells[i]
            if len(cell) > 1:
                groups = {}
                for v in cell:
                    groups.setdefault((rows[v] & smask).bit_count(), []).append(v)
                if len(groups) > 1:
                    parts = [tuple(groups[c]) for c in sorted(groups)]
                    cells[i:i + 1] = parts
                    trace.append((i, tuple((c, len(groups[c])) for c in sorted(groups))))
                    for part in parts:
                        mask = 0
                        for v in part:
                            mask |= 1 << v
                        queue.append(mask)
                    i += len(parts) - 1
            i += 1
    return cells, tuple(trace)


def leaf_cert_reference(rows, perm) -> bytes:
    """Upper-triangle bits of the relabeled adjacency, row-major, packed
    big-endian into bytes with zero padding, one bit at a time."""
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


def vertex_lambda_colors_reference(g) -> list:
    """Ranks of the sorted (degree, edge lambda histogram, non-edge lambda
    histogram) signatures, from pairwise popcounts of the bit rows."""
    from collections import Counter

    rows = g.rows
    sigs = []
    for v in range(g.n):
        rv = rows[v]
        ec = Counter()
        nc = Counter()
        for u in range(g.n):
            if u == v:
                continue
            lam = (rv & rows[u]).bit_count()
            if (rv >> u) & 1:
                ec[lam] += 1
            else:
                nc[lam] += 1
        sigs.append((rv.bit_count(), tuple(sorted(ec.items())), tuple(sorted(nc.items()))))
    order = {s: i for i, s in enumerate(sorted(set(sigs)))}
    return [order[s] for s in sigs]
