"""Generalized Johnson and Grassmann graph construction.

J_S(n,k): vertices are the k-subsets of {1..n}, u ~ v iff |u cap v| in S.
J_{q,S}(n,k): vertices are the k-dimensional subspaces of F_q^n, adjacency by
intersection dimension in S.  S is a set of sizes in {0..k-1}; S = {0} gives
the Kneser and q-Kneser graphs.

Both families share one adjacency kernel on bitmasks.  A subset is its own
mask.  A subspace is the set of its projective points: two k-spaces over F_q
meet in dimension d exactly when they share (q^d - 1)/(q - 1) points, so the
Grassmann graph is the Johnson kernel applied to point masks, with the
allowed counts {(q^s - 1)/(q - 1) : s in S}.  Point masks are formed in
numpy for all subspaces at once; a point's bit is the rank of its normalized
vector read base q, not its first-seen order, and rows read only popcounts
(graphcore._common_bits, the kernel of certify's transitive rung too).

Vertex order is canonical and deterministic: subsets ascend by bitmask value
(colex), subspaces sort by pivot-column tuple then by the flattened RREF
entries.  Builds refuse to enumerate past a configurable vertex cap.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, product

import numpy as np

from .algebra import binom, field_table, gauss_binom, SUPPORTED_Q
from .graphcore import Graph, _bit_rows, _common_bits, _integer, _packed_rows

__all__ = [
    "SchemeParams",
    "VertexCapExceeded",
    "DEFAULT_VERTEX_CAP",
    "count_vertices",
    "enumerate_vertices",
    "build",
    "degree_formula",
    "johnson_rank",
    "grassmann_rank",
    "mask_of_elements",
    "elements_of_mask",
]

DEFAULT_VERTEX_CAP = 100_000


class VertexCapExceeded(RuntimeError):
    """Raised when a build would enumerate more vertices than the cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"scheme has {count} vertices, exceeding the cap {cap}")
        self.count = count
        self.cap = cap


def mask_of_elements(elements, n: int) -> int:
    """Bitmask for a set of 1-based ground-set elements."""
    m = 0
    for e in elements:
        e = int(e)
        if not 1 <= e <= n:
            raise ValueError(f"element {e} outside ground set 1..{n}")
        b = 1 << (e - 1)
        if m & b:
            raise ValueError(f"duplicate element {e}")
        m |= b
    return m


def elements_of_mask(mask: int) -> tuple[int, ...]:
    """1-based elements of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _set_label(mask: int) -> str:
    return "{" + ",".join(str(e) for e in elements_of_mask(mask)) + "}"


_DIGITS = "0123456789abcdef"


_PARAM_RE = re.compile(
    r"^J(?P<grassmann>q)?\{(?P<S>[0-9,\s]*)\}"
    r"\((?P<n>\d+),(?P<k>\d+)(?:;q=(?P<q>\d+))?\)$"
)


@dataclass(frozen=True)
class SchemeParams:
    """Parameters of a generalized Johnson or Grassmann graph."""

    kind: str  # "johnson" | "grassmann"
    n: int
    k: int
    S: frozenset = field(default_factory=frozenset)
    q: int | None = None

    def __post_init__(self):
        if self.kind not in ("johnson", "grassmann"):
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        # integers only, as in Graph: int() would read S = {2.7} as {2}
        for name in ("n", "k"):
            object.__setattr__(self, name, _integer(getattr(self, name)))
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        S = frozenset(map(_integer, self.S))
        object.__setattr__(self, "S", S)
        if not S:
            raise ValueError("S must be a nonempty set of intersection sizes")
        if not all(0 <= s < self.k for s in S):
            raise ValueError(f"S={sorted(S)} must be a subset of 0..{self.k - 1}")
        if self.kind == "grassmann":
            if self.q is None:
                raise ValueError("grassmann schemes need q")
            object.__setattr__(self, "q", _integer(self.q))
            if self.q not in SUPPORTED_Q:
                raise ValueError(
                    f"unsupported q={self.q}; supported: {sorted(SUPPORTED_Q)}"
                )
        elif self.q is not None:
            raise ValueError("johnson schemes take no q")

    @classmethod
    def johnson(cls, n: int, k: int, S) -> "SchemeParams":
        return cls("johnson", n, k, frozenset(S))

    @classmethod
    def grassmann(cls, n: int, k: int, S, q: int) -> "SchemeParams":
        return cls("grassmann", n, k, frozenset(S), q)

    @classmethod
    def parse(cls, text: str) -> "SchemeParams":
        """Parse 'J{1,2}(10,5)' or 'Jq{0}(6,3;q=2)'."""
        m = _PARAM_RE.match(text.strip())
        if not m:
            raise ValueError(f"cannot parse scheme parameters from {text!r}")
        fields = [x.strip() for x in m.group("S").split(",")]
        if fields != [""] and not all(x.isdigit() for x in fields):
            raise ValueError(f"{text!r}: S takes integers separated by commas")
        S = frozenset(int(x) for x in fields if x)
        n, k = int(m.group("n")), int(m.group("k"))
        if m.group("grassmann"):
            if m.group("q") is None:
                raise ValueError(f"{text!r}: grassmann parameters need ;q=...")
            return cls("grassmann", n, k, S, int(m.group("q")))
        if m.group("q") is not None:
            raise ValueError(f"{text!r}: johnson parameters take no q")
        return cls("johnson", n, k, S)

    def format(self) -> str:
        s = ",".join(str(x) for x in sorted(self.S))
        if self.kind == "grassmann":
            return f"Jq{{{s}}}({self.n},{self.k};q={self.q})"
        return f"J{{{s}}}({self.n},{self.k})"

    def __str__(self):
        return self.format()


def count_vertices(p: SchemeParams) -> int:
    if p.kind == "johnson":
        return binom(p.n, p.k)
    return gauss_binom(p.n, p.k, p.q)


def _subset_masks(n: int, k: int) -> list[int]:
    """All k-subset bitmasks of an n-set in increasing numeric order."""
    if k == 0:
        return [0]
    out = []
    v = (1 << k) - 1
    limit = 1 << n
    while v < limit:
        out.append(v)
        # Gosper's hack: next larger int with the same popcount
        t = v | (v - 1)
        v = (t + 1) | (((~t & -(~t)) - 1) >> (v & -v).bit_length())
    return out


def _rref_free_positions(pivots: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """Row-major free entry positions of an RREF pattern with given pivots."""
    pivset = set(pivots)
    free = []
    for i, p in enumerate(pivots):
        for j in range(p + 1, n):
            if j not in pivset:
                free.append((i, j))
    return free


def _subspace_bases(n: int, k: int, q: int) -> list[tuple[tuple[int, ...], ...]]:
    """Canonical RREF bases of all k-subspaces of F_q^n, in canonical order,
    each as a tuple of k row tuples."""
    out = []
    for pivots in combinations(range(n), k):
        free = _rref_free_positions(pivots, n)
        base = [[0] * n for _ in range(k)]
        for i, p in enumerate(pivots):
            base[i][p] = 1
        # itertools.product ascends with the last position fastest, which is
        # ascending order of the flattened row-major entry tuple
        for values in product(range(q), repeat=len(free)):
            rows = [row[:] for row in base]
            for (i, j), val in zip(free, values):
                rows[i][j] = val
            out.append(tuple(map(tuple, rows)))
    return out


def enumerate_vertices(p: SchemeParams, cap: int = DEFAULT_VERTEX_CAP):
    """Vertices in canonical order: subset bitmasks for Johnson schemes, RREF
    bases as tuples of row tuples for Grassmann schemes.  Raises
    VertexCapExceeded before enumerating."""
    count = count_vertices(p)
    if count > cap:
        raise VertexCapExceeded(count, cap)
    if p.kind == "johnson":
        return _subset_masks(p.n, p.k)
    return _subspace_bases(p.n, p.k, p.q)


def johnson_rank(mask: int) -> int:
    """Index of a subset bitmask in the canonical (colex) vertex order."""
    r = 0
    i = 0
    while mask:
        low = mask & -mask
        i += 1
        r += binom(low.bit_length() - 1, i)
        mask ^= low
    return r


def grassmann_rank(basis, q: int) -> int:
    """Index of a k-space in the canonical vertex order, from the k >= 1
    rows of its RREF basis over F_q: q^|free| for each earlier pivot tuple
    (the k-spaces with those pivots), plus the free entries read row-major
    as a base-q number."""
    n = len(basis[0])
    pivots = tuple(next(j for j, e in enumerate(row) if e) for row in basis)
    offset = 0
    for earlier in combinations(range(n), len(pivots)):
        if earlier == pivots:
            break
        offset += q ** len(_rref_free_positions(earlier, n))
    r = 0
    for i, j in _rref_free_positions(pivots, n):
        r = r * q + basis[i][j]
    return offset + r


def _masks(p: SchemeParams, verts) -> np.ndarray:
    """(N, words) uint64 array: row v has the bits of v's points set.

    A subspace's points are the combinations of its RREF rows whose first
    nonzero coefficient is 1, which are its normalized vectors.
    """
    if p.kind == "johnson":
        return _packed_rows(verts, p.n)
    f = field_table(p.q)
    add, mul = np.array(f.add, dtype=np.uint8), np.array(f.mul, dtype=np.uint8)
    bases = np.array(verts, dtype=np.uint8)  # (N, k, n)
    coeffs = np.array([(0,) * i + (1,) + tail for i in range(p.k)
                       for tail in product(range(p.q), repeat=p.k - 1 - i)], dtype=np.uint8)
    points = np.zeros((len(verts), len(coeffs), p.n), dtype=np.uint8)
    for i in range(p.k):
        points = add[points, mul[coeffs[:, i, None], bases[:, None, i]]]
    codes = np.ravel_multi_index(np.moveaxis(points, -1, 0), (p.q,) * p.n)
    ids = np.unique(codes, return_inverse=True)[1].reshape(codes.shape)
    bits = np.zeros((len(verts), -(-(ids.max() + 1) // 64) * 64), dtype=bool)
    bits[np.arange(len(verts))[:, None], ids] = True
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")


def _adjacency_rows(masks: np.ndarray, counts) -> list[int]:
    """Adjacency rows: i ~ j iff masks i and j share a number of set bits
    that is in counts.

    Each mask has more set bits than the largest count, so no vertex is its
    own neighbour.  Blocks of at most 128 rows and 2^18 entries (2 MiB, to
    stay in cache) become row ints one at a time: no n x n array is formed.
    """
    n_vertices = len(masks)
    step = min(128, max(1, (1 << 18) // n_vertices))
    buf = np.empty((step, n_vertices), dtype=masks.dtype)
    first, *rest = counts
    rows = []
    for lo in range(0, n_vertices, step):
        cnt = _common_bits(masks[lo:lo + step], masks, buf)
        hit = cnt == first
        for c in rest:
            hit |= cnt == c
        rows += _bit_rows(hit)
    return rows


def build(p: SchemeParams, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Build the scheme graph with canonical vertex order and labels."""
    verts = enumerate_vertices(p, cap)
    if p.kind == "johnson":
        labels = [_set_label(m) for m in verts]
        counts = p.S
    else:
        row_text = cache(lambda row: "".join(_DIGITS[e] for e in row))
        labels = ["<" + ",".join(map(row_text, b)) + ">" for b in verts]
        counts = {(p.q ** s - 1) // (p.q - 1) for s in p.S}
    return Graph(len(verts), _adjacency_rows(_masks(p, verts), counts), labels, validate=False)


def degree_formula(p: SchemeParams) -> int:
    """Closed-form degree of the (regular) scheme graph."""
    if p.kind == "johnson":
        return sum(binom(p.k, s) * binom(p.n - p.k, p.k - s) for s in p.S)
    q = p.q
    return sum(
        q ** ((p.k - s) ** 2) * gauss_binom(p.k, s, q) * gauss_binom(p.n - p.k, p.k - s, q)
        for s in p.S
    )
