"""Generalized Johnson and Grassmann graph construction.

J_S(n,k): vertices are the k-subsets of {1..n}, u ~ v iff |u cap v| in S.
J_{q,S}(n,k): vertices are the k-dimensional subspaces of F_q^n, adjacency by
intersection dimension in S.  S is a set of sizes in {0..k-1}; S = {0} gives
the Kneser and q-Kneser graphs.

Both families share one adjacency kernel on bitmasks.  A subset is its own
mask.  A subspace is the set of its projective points: two k-spaces over F_q
meet in dimension d exactly when they share (q^d - 1)/(q - 1) points, so the
Grassmann graph is the Johnson kernel applied to point masks, with the
allowed counts {(q^s - 1)/(q - 1) : s in S}.

Vertex order is canonical and deterministic: subsets ascend by bitmask value
(colex), subspaces sort by pivot-column tuple then by the flattened RREF
entries.  Builds refuse to enumerate past a configurable vertex cap.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from .algebra import binom, field_table, gauss_binom, SUPPORTED_Q
from .graphcore import Graph, _bit_rows

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


def _subspace_label(basis) -> str:
    return "<" + ",".join("".join(_DIGITS[e] for e in row) for row in basis) + ">"


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
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        S = frozenset(int(s) for s in self.S)
        object.__setattr__(self, "S", S)
        if not S:
            raise ValueError("S must be a nonempty set of intersection sizes")
        if not all(0 <= s < self.k for s in S):
            raise ValueError(f"S={sorted(S)} must be a subset of 0..{self.k - 1}")
        if self.kind == "grassmann":
            if self.q is None:
                raise ValueError("grassmann schemes need q")
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
        if not all(x.isdigit() for x in fields if x):
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


def _popcount(x):
    """Set bits of each element of a uint64 array."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(x)
    # numpy < 2: count the eight bytes of each element through a table
    table = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
    return table[x[..., None].view(np.uint8)].sum(axis=-1, dtype=np.uint8)


def _point_masks(bases, q: int) -> list[int]:
    """Bitmask of the projective points each subspace contains.

    For an RREF basis, the combinations whose first nonzero coefficient is 1
    are exactly the normalized representatives (first nonzero entry 1) of the
    subspace's points.  Points get bit indices in first-seen order.
    """
    f = field_table(q)
    add, mul = f.add, f.mul
    index: dict[tuple[int, ...], int] = {}
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


def _johnson_rows(masks: list[int], counts) -> list[int]:
    """Adjacency rows: i ~ j iff |masks[i] & masks[j]| is in counts.

    Each mask has more set bits than the largest count, so no vertex is its
    own neighbour.  Masks of any width are split into 64-bit words and the
    popcounts of the words are summed.
    """
    n_vertices = len(masks)
    words = (max(masks).bit_length() + 63) // 64
    arr = np.frombuffer(
        b"".join(m.to_bytes(8 * words, "little") for m in masks), dtype="<u8"
    ).reshape(n_vertices, words)
    lut = np.zeros(64 * words + 1, dtype=bool)
    lut[sorted(counts)] = True
    rows = [0] * n_vertices
    chunk = max(1, (1 << 22) // n_vertices)  # bounds the & temporary
    for lo in range(0, n_vertices, chunk):
        hi = min(lo + chunk, n_vertices)
        cnt = np.zeros((hi - lo, n_vertices), dtype=np.min_scalar_type(64 * words))
        for w in range(words):
            cnt += _popcount(arr[lo:hi, w, None] & arr[None, :, w])
        rows[lo:hi] = _bit_rows(lut[cnt])
    return rows


def build(p: SchemeParams, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Build the scheme graph with canonical vertex order and labels."""
    verts = enumerate_vertices(p, cap)
    if p.kind == "johnson":
        labels = [_set_label(m) for m in verts]
        masks, counts = verts, p.S
    else:
        labels = [_subspace_label(b) for b in verts]
        masks = _point_masks(verts, p.q)
        counts = {(p.q ** s - 1) // (p.q - 1) for s in p.S}
    return Graph(len(verts), _johnson_rows(masks, counts), labels, validate=False)


def degree_formula(p: SchemeParams) -> int:
    """Closed-form degree of the (regular) scheme graph."""
    if p.kind == "johnson":
        return sum(binom(p.k, s) * binom(p.n - p.k, p.k - s) for s in p.S)
    q = p.q
    return sum(
        q ** ((p.k - s) ** 2) * gauss_binom(p.k, s, q) * gauss_binom(p.n - p.k, p.k - s, q)
        for s in p.S
    )
