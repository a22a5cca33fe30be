"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written against different algorithms than
the package: exact Faddeev-LeVerrier or a plain determinant mod p instead of
Hessenberg mod p, vector-set closure instead of RREF enumeration, itertools
set counting instead of bitmask rows.  Slow and simple on purpose.  The
*_reference functions and SearchReference are the package's earlier
versions of a function, kept as the reference that its replacement must
equal.
"""

from itertools import combinations

import numpy as np

from spectral_switch import canon
from spectral_switch.algebra import field_table
from spectral_switch.graphcore import _bit_rows
from spectral_switch.schemes import elements_of_mask, enumerate_vertices


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


def wl1_equivalent_reference(g1, g2) -> bool:
    """Color refinement on the disjoint union of g1 and g2 with plain dicts:
    True when every stable color has as many vertices in g1 as in g2."""
    from collections import Counter

    nbrs = [list(g1.neighbors(v)) for v in range(g1.n)]
    nbrs += [[g1.n + u for u in g2.neighbors(v)] for v in range(g2.n)]
    colors = [0] * len(nbrs)
    while True:
        sigs = [(colors[v], tuple(sorted(colors[u] for u in nbrs[v])))
                for v in range(len(nbrs))]
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        if len(palette) == len(set(colors)):
            break  # no class split, so the coloring is stable
        colors = [palette[s] for s in sigs]
    return Counter(colors[:g1.n]) == Counter(colors[g1.n:])


def search_wqh33_reference(g, c1s, c2s, max_candidates=None):
    """(WQH (c1, c2) pairs with sorted cells, partial) by checking one
    candidate pair at a time on the bit rows, C1 outer and C2 inner, the
    first max_candidates pairs only; a pair mirrored or repeated as sets is
    reported once.  The scan search_wqh33 used before it moved to arrays."""
    rows = g.rows
    specs = []
    seen = set()
    examined = 0
    for t1 in c1s:
        m1 = (1 << t1[0]) | (1 << t1[1]) | (1 << t1[2])
        for t2 in c2s:
            if max_candidates is not None and examined >= max_candidates:
                return specs, True
            examined += 1
            m2 = (1 << t2[0]) | (1 << t2[1]) | (1 << t2[2])
            if m1 & m2:
                continue
            key = (min(m1, m2), max(m1, m2))
            if key in seen:
                continue
            ds = {(rows[v] & own).bit_count() - (rows[v] & other).bit_count()
                  for own, other, cell in ((m1, m2, t1), (m2, m1, t2)) for v in cell}
            if len(ds) != 1:
                continue
            ok = True
            for v in range(g.n):
                if ((m1 | m2) >> v) & 1:
                    continue
                x, y = (rows[v] & m1).bit_count(), (rows[v] & m2).bit_count()
                if x != y and (x, y) not in ((3, 0), (0, 3)):
                    ok = False
                    break
            if ok:
                seen.add(key)
                specs.append((tuple(sorted(t1)), tuple(sorted(t2))))
    return specs, False


def encode_graph6_reference(g) -> bytes:
    """graph6 of g, one upper-triangle bit at a time in column order,
    packed big-endian into 6-bit groups."""
    n = g.n
    if n <= 62:
        out = bytearray([n + 63])
    elif n <= 258047:
        out = bytearray([126] + [((n >> s) & 63) + 63 for s in (12, 6, 0)])
    else:
        out = bytearray([126, 126] + [((n >> s) & 63) + 63
                                      for s in (30, 24, 18, 12, 6, 0)])
    acc = 0
    nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | ((g.rows[j] >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = 0
                nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out)


def relabel_rows_reference(rows, perm) -> list:
    """Bit rows with vertex v moved to position perm[v], neighbor by
    neighbor."""
    out = [0] * len(rows)
    for v, row in enumerate(rows):
        new = 0
        while row:
            low = row & -row
            new |= 1 << perm[low.bit_length() - 1]
            row ^= low
        out[perm[v]] = new
    return out


def rank(rows, q: int) -> int:
    """Rank over F_q of a list of equal-length rows, by plain Gaussian
    elimination on field_table(q)'s add, mul, neg and inv tables."""
    f = field_table(q)
    work = [list(row) for row in rows]
    if len({len(row) for row in work}) > 1:
        raise ValueError("ragged rows")
    r = 0
    for c in range(len(work[0]) if work else 0):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        s = f.inv[work[r][c]]
        work[r] = [f.mul[s][e] for e in work[r]]
        for i in range(r + 1, len(work)):
            t = f.neg[work[i][c]]
            work[i] = [f.add[e][f.mul[t][x]] for e, x in zip(work[i], work[r])]
        r += 1
    return r


def intersection_dim(u, v, q: int) -> int:
    """dim(U cap V) for the row spaces U, V of two row lists over one
    ambient F_q^n, as dim U + dim V - dim(U + V); any spanning rows work."""
    if len({len(row) for row in list(u) + list(v)}) > 1:
        raise ValueError("mixed ambient dimensions")
    return rank(u, q) + rank(v, q) - rank(list(u) + list(v), q)


def is_rref(rows) -> bool:
    """True when the rows are in reduced row echelon form with no zero row:
    each leading entry is 1, strictly right of the one above, and the only
    nonzero entry of its column."""
    pivots = []
    for row in rows:
        lead = next((j for j, e in enumerate(row) if e), None)
        if lead is None or row[lead] != 1 or (pivots and lead <= pivots[-1]):
            return False
        pivots.append(lead)
    return all(sum(1 for row in rows if row[j]) == 1 for j in pivots)


def point_masks_reference(bases, q: int) -> list[int]:
    """Bitmask of the projective points each subspace contains, points
    numbered in first-seen order; the schemes module's earlier pure-Python
    loop over the combinations of each RREF basis whose first nonzero
    coefficient is 1."""
    f = field_table(q)
    add, mul = f.add, f.mul
    index = {}
    masks = []
    for b in bases:
        m = 0
        for i, lead in enumerate(b):
            vecs = [lead]
            for row in b[i + 1:]:
                vecs = [tuple(add[x][mul[c][y]] for x, y in zip(v, row))
                        for v in vecs for c in range(q)]
            for v in vecs:
                m |= 1 << index.setdefault(v, len(index))
        masks.append(m)
    return masks


def johnson_rows_reference(masks, counts) -> list[int]:
    """Adjacency rows, i ~ j iff |masks[i] & masks[j]| is in counts; the
    schemes module's earlier kernel, with up to 2^22 pairs per block, word
    popcounts through a byte table and a lookup table on the counts."""
    n_vertices = len(masks)
    words = (max(masks).bit_length() + 63) // 64
    arr = np.frombuffer(
        b"".join(m.to_bytes(8 * words, "little") for m in masks), dtype="<u8"
    ).reshape(n_vertices, words)
    byte_bits = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
    lut = np.zeros(64 * words + 1, dtype=bool)
    lut[sorted(counts)] = True
    rows = [0] * n_vertices
    chunk = max(1, (1 << 22) // n_vertices)
    for lo in range(0, n_vertices, chunk):
        hi = min(lo + chunk, n_vertices)
        cnt = np.zeros((hi - lo, n_vertices), dtype=np.min_scalar_type(64 * words))
        for w in range(words):
            both = arr[lo:hi, w, None] & arr[None, :, w]
            cnt += byte_bits[both[..., None].view(np.uint8)].sum(axis=-1, dtype=np.uint8)
        rows[lo:hi] = _bit_rows(lut[cnt])
    return rows


def build_reference(p):
    """(rows, labels) of schemes.build(p), from the schemes module's
    earlier point masks, kernel and labels."""
    verts = enumerate_vertices(p)
    if p.kind == "johnson":
        labels = ["{" + ",".join(map(str, elements_of_mask(m))) + "}" for m in verts]
        return johnson_rows_reference(verts, p.S), labels
    labels = ["<" + ",".join("".join("0123456789abcdef"[e] for e in row) for row in b) + ">"
              for b in verts]
    counts = {(p.q ** s - 1) // (p.q - 1) for s in p.S}
    return johnson_rows_reference(point_masks_reference(verts, p.q), counts), labels


def validate_reference(g, spec):
    """The GM or WQH validation report by one popcount per vertex and cell
    over every row of g; the validators before they read only the cell
    rows."""
    from spectral_switch.graphcore import _mask
    from spectral_switch.switching import (
        GmSpec, InvalidSpecError, ValidationReport, Violation, WqhSpec)

    if not isinstance(spec, (GmSpec, WqhSpec)):
        raise TypeError(f"unknown spec type {type(spec).__name__}")
    for v in spec.all_vertices():
        if not 0 <= v < g.n:
            raise InvalidSpecError(f"spec vertex {v} out of range for n={g.n}")
    rows = g.rows
    inside = _mask(spec.all_vertices())
    violations = []
    outside_classes = {}
    if isinstance(spec, GmSpec):
        cmasks = [_mask(c) for c in spec.cells]
        for i, ci in enumerate(spec.cells):
            for j, mj in enumerate(cmasks):
                counts = {(rows[v] & mj).bit_count() for v in ci}
                if len(counts) > 1:
                    violations.append(Violation(
                        "gm-i",
                        f"vertices of cell {i} have {sorted(counts)} neighbors in cell {j}",
                        cell=i,
                    ))
        for v in range(g.n):
            if (inside >> v) & 1:
                continue
            tags = []
            for j, (cj, mj) in enumerate(zip(spec.cells, cmasks)):
                cnt = (rows[v] & mj).bit_count()
                size = len(cj)
                if cnt == 0:
                    tags.append("gm-zero")
                elif cnt == size:
                    tags.append("gm-full")
                elif 2 * cnt == size:
                    tags.append("gm-half")
                else:
                    tags.append(None)
                    violations.append(Violation(
                        "gm-ii",
                        f"vertex {v} has {cnt} neighbors in cell {j} of size {size}",
                        vertex=v,
                        cell=j,
                    ))
            outside_classes[v] = tuple(tags)
        return ValidationReport(not violations, tuple(violations), None, outside_classes)
    m1, m2 = _mask(spec.c1), _mask(spec.c2)
    c = None
    for own, other, cell in ((m1, m2, spec.c1), (m2, m1, spec.c2)):
        for v in cell:
            d = (rows[v] & own).bit_count() - (rows[v] & other).bit_count()
            if c is None:
                c = d
            elif d != c:
                violations.append(Violation(
                    "wqh-ii",
                    f"vertex {v} has own-minus-other neighbor difference {d}, expected {c}",
                    vertex=v,
                ))
    size = len(spec.c1)
    for v in range(g.n):
        if (inside >> v) & 1:
            continue
        n1 = (rows[v] & m1).bit_count()
        n2 = (rows[v] & m2).bit_count()
        if n1 == size and n2 == 0:
            tag = "full-c1"
        elif n1 == 0 and n2 == size:
            tag = "full-c2"
        elif n1 == n2:
            tag = "balanced"
        else:
            tag = None
            violations.append(Violation(
                "wqh-iii",
                f"vertex {v} has ({n1},{n2}) neighbors in (C1,C2) of size {size}",
                vertex=v,
            ))
        outside_classes[v] = tag
    return ValidationReport(not violations, tuple(violations), c, outside_classes)


def apply_switching_reference(g, spec):
    """The switch as tags and XORs: each block (a GM cell, or C1 u C2 of a
    WQH pair) swaps its edges and non-edges with the outside vertices that
    validate_reference tagged as switched against it, "gm-half" for that
    cell, or "full-c1" and "full-c2".  The construction before
    apply_switching became Q^T A Q."""
    from spectral_switch.graphcore import Graph, _mask
    from spectral_switch.switching import GmSpec

    report = validate_reference(g, spec)
    assert report.valid, report.violations[:1]
    classes = report.outside_classes
    if isinstance(spec, GmSpec):
        blocks = [(c, [v for v, tags in classes.items() if tags[j] == "gm-half"])
                  for j, c in enumerate(spec.cells)]
    else:
        blocks = [(spec.all_vertices(),
                   [v for v, tag in classes.items() if tag in ("full-c1", "full-c2")])]
    rows = list(g.rows)
    for block, switched in blocks:
        bmask, smask = _mask(block), _mask(switched)
        for u in block:
            rows[u] ^= smask
        for v in switched:
            rows[v] ^= bmask
    return Graph(g.n, rows, g.labels, validate=False)


def switching_blocks_reference(spec) -> list:
    """(vertices, P, L) for each diagonal block of the spec's Q, with
    Q = P / L on those vertices: P = J - (m/2) I, L = m/2 on a GM cell of
    size m, and P = [[mI - J, J], [J, mI - J]], L = m on a WQH pair of
    m + m vertices.  Built block by block, where the package builds one
    block-diagonal P."""
    import numpy as np

    from spectral_switch.switching import GmSpec

    if isinstance(spec, GmSpec):
        out = []
        for c in spec.cells:
            half = len(c) // 2
            p = np.ones((len(c), len(c)), dtype=np.int64)
            p -= half * np.eye(len(c), dtype=np.int64)
            out.append((c, p, half))
        return out
    m = len(spec.c1)
    j = np.ones((m, m), dtype=np.int64)
    d = m * np.eye(m, dtype=np.int64) - j
    return [(spec.c1 + spec.c2, np.block([[d, j], [j, d]]), m)]


def switching_certificate_reference(g, mate, spec) -> bool:
    """Q^T A Q = A' checked on both the rows and the columns that meet the
    cells, with P^T P = L^2 I checked per block and repeated cell vertices
    refused: the certificate before it read the cell rows only."""
    import numpy as np

    from spectral_switch.graphcore import _mask, dense_adjacency
    from spectral_switch.switching import _check_spec_range

    blocks = switching_blocks_reference(spec)
    cells = [v for vs, _, _ in blocks for v in vs]
    _check_spec_range(g, cells)
    n = g.n
    if mate.n != n or len(set(cells)) != len(cells):
        return False
    for _, p, scale in blocks:
        if not np.array_equal(p.T @ p, scale * scale * np.eye(len(p), dtype=np.int64)):
            return False
    inside = _mask(cells)
    off = ((1 << n) - 1) ^ inside
    for v, (a, b) in enumerate(zip(g.rows, mate.rows)):
        if (a ^ b) & off and not (inside >> v) & 1:
            return False
    idx = np.array(cells)
    out = np.ones(n, dtype=bool)
    out[idx] = False

    def lines(h):
        a = dense_adjacency(h, np.int64)
        return a[idx], a[:, idx]

    (ra, ca), (rm, cm) = lines(g), lines(mate)
    starts = np.cumsum([0] + [len(p) for _, p, _ in blocks])
    slices = [slice(a, b) for a, b in zip(starts, starts[1:])]
    scales = np.repeat([s for _, _, s in blocks], np.diff(starts))
    aq = np.empty((len(cells), len(cells)), dtype=np.int64)
    for sl, (_, p, scale) in zip(slices, blocks):
        z = ca[:, sl] @ p
        if not np.array_equal(z[out], scale * cm[out, sl]):
            return False
        aq[:, sl] = z[idx]
    for sl, (_, p, scale) in zip(slices, blocks):
        if not np.array_equal(p.T @ ra[sl][:, out], scale * rm[sl][:, out]):
            return False
        if not np.array_equal(p.T @ aq[sl], scale * scales * cm[idx[sl]]):
            return False
    return True


def scan_triple_property_reference(g) -> bool:
    """Some pairwise non-adjacent triple with a selective count of 1: each
    triple listed from the bit rows, each of its three rotations counted by
    selective_neighbor_count.  The scan before it became one product per
    vertex."""
    from spectral_switch.certify import selective_neighbor_count as count

    full = (1 << g.n) - 1
    rows = g.rows
    for u in range(g.n):
        cu = ~rows[u] & full & ~((1 << (u + 1)) - 1)  # non-neighbors above u
        m = cu
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            rest = cu & ~rows[v] & ~((1 << (v + 1)) - 1)
            while rest:
                lw = rest & -rest
                w = lw.bit_length() - 1
                rest ^= lw
                if count(g, u, v, w) == 1 or count(g, v, u, w) == 1 or count(g, w, u, v) == 1:
                    return True
    return False


def selective_pair_reference(g, v):
    """The first pair (b, c), b < c in lexicographic order, with v, b and c
    pairwise non-adjacent and lambda(v; b, c) = 1, each pair counted by
    selective_neighbor_count; None if there is none."""
    from spectral_switch.certify import selective_neighbor_count as count

    free = [u for u in range(g.n) if u != v and not g.has_edge(u, v)]
    for i, b in enumerate(free):
        for c in free[i + 1:]:
            if not g.has_edge(b, c) and count(g, v, b, c) == 1:
                return b, c
    return None


class SearchReference:
    """canon's depth-first individualization-refinement as it was before
    backjumping: a leaf equivalent to the best leaf adds a generator, and
    the search carries on through the rest of its subtree.  The same
    refinement, leaf certificates, trace pruning and orbit pruning."""

    def __init__(self, adj, budget, target=None):
        self.adj = adj
        self.n = n = len(adj)
        self.upper = np.arange(n)[:, None] < np.arange(n)
        self.budget = budget
        self.target = target
        self.nodes = 0
        self.best_traces = []
        self.best_cert = None
        self.best_order = None
        self.gens = np.zeros((0, n), dtype=np.intp)
        self.path = []

    def _orbits(self):
        lab = np.arange(self.n)
        gens = self.gens
        if self.path:
            gens = gens[(gens[:, self.path] == self.path).all(axis=1)]
        while len(gens):
            new = np.minimum(lab, lab[gens].min(axis=0))
            new = new[new]
            if (new == lab).all():
                break
            lab = new
        return lab.tolist()

    def dfs(self, order, bnd, depth):
        n = self.n
        starts = bnd.nonzero()[0]
        if len(starts) == n:
            cert = canon._leaf_cert(self.adj, order, self.upper)
            if cert == self.target:
                self.best_cert, self.best_order = cert, order
                return True
            if self.best_cert is None or cert < self.best_cert:
                self.best_cert, self.best_order = cert, order
            elif cert == self.best_cert and len(self.gens) < canon._MAX_GENS:
                gamma = np.empty(n, dtype=np.intp)
                gamma[self.best_order] = order
                if ((gamma != np.arange(n)).any()
                        and not (self.gens == gamma).all(axis=1).any()):
                    self.gens = np.vstack([self.gens, gamma])
            return False
        bounds = np.append(starts, n)
        sizes = bounds[1:] - starts
        target = int(np.where(sizes > 1, sizes, n + 1).argmin())
        s = int(starts[target])
        e = s + int(sizes[target])
        explored = []
        seen_gens = -1
        for v in order[s:e].tolist():
            if explored:
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
                raise canon.BudgetExhaustedError(self.budget)
            child, child_bnd, tr = canon._individualize_refine(self.adj, order, bnd,
                                                               target, s, e, v)
            d = depth + 1
            if len(self.best_traces) >= d:
                known = self.best_traces[d - 1]
                if tr > known:
                    continue
                if tr < known:
                    del self.best_traces[d - 1:]
                    self.best_traces.append(tr)
                    self.best_cert = None
                    self.best_order = None
            else:
                self.best_traces.append(tr)
            self.path.append(v)
            found = self.dfs(child, child_bnd, d)
            self.path.pop()
            if found:
                return True
        return False


def canon_reference(g, colors=None, target=None, budget=canon.DEFAULT_NODE_BUDGET):
    """(certificate or None, labeling or None, generators) of g by
    SearchReference on canon's twin quotient, lifted as canon lifts them.
    With a target certificate the search stops at the first leaf that has
    it; the certificate and labeling are None when no leaf has it."""
    adj, order, bnd, header, levels = canon._prepare(g, colors)
    if target is not None and not target.startswith(header):
        return None, None, []
    search = SearchReference(adj, budget, target and target[len(header):])
    found = search.dfs(order, bnd, 0)
    gens = [tuple(p) for p in canon._lift_gens(levels, search.gens.tolist())]
    if target is not None and not found:
        return None, None, gens
    return (header + search.best_cert,
            canon._lift_order(levels, search.best_order.tolist()), gens)
