"""Immutable simple graphs with bit-packed adjacency rows.

Vertices are 0..n-1.  Row v is a Python int whose bit u is set iff u ~ v, so
degree and common-neighbor counts are popcounts (_common_bits, on rows packed
into uint64 words, for many pairs at once).  Graphs are hashable and
compare by (n, rows, labels).  Serialization: bit-exact graph6 and a plain
edge-list JSON form.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Graph",
    "dense_adjacency",
    "encode_graph6",
    "decode_graph6",
    "Graph6ParseError",
]


def _mask(vertices: Iterable[int]) -> int:
    """Bitmask with bit v set for each vertex v."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _integer(x) -> int:
    """x as an int; TypeError for a bool (not a JSON number) or a non-integer."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is not an integer")
    return operator.index(x)


def _check_vertex(v: int, n: int) -> None:
    """ValueError unless 0 <= v < n; a negative v would index rows from the end."""
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range for n={n}")


def _packed_rows(rows: Sequence[int], n: int) -> np.ndarray:
    """The len(rows) x ceil(n / 64) uint64 array whose row i holds the bits
    of rows[i], least significant word first."""
    words = (n + 63) // 64
    buf = b"".join(row.to_bytes(8 * words, "little") for row in rows)
    return np.frombuffer(buf, dtype="<u8").reshape(len(rows), words)


def _unpacked_rows(rows: Sequence[int], n: int) -> np.ndarray:
    """The len(rows) x n uint8 0/1 matrix with entry [i, u] = bit u of rows[i]."""
    return np.unpackbits(_packed_rows(rows, n).view(np.uint8), axis=1,
                         bitorder="little", count=n)


_BYTE_BITS = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount(x: np.ndarray) -> np.ndarray:
    """Set bits of each element of a uint64 array, as uint8."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(x)
    # numpy < 2: count the eight bytes of each element through a table
    return _BYTE_BITS[x[..., None].view(np.uint8)].sum(axis=-1, dtype=np.uint8)


def _common_bits(block: np.ndarray, masks: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """[i, j] = how many bits packed rows block[i] and masks[j] share.  One
    word column at a time is ANDed into buf, a uint64 work array at least that
    shape, and its popcounts are summed in the least type that holds them."""
    out = buf[:len(block), :len(masks)]
    np.bitwise_and(block[:, :1], masks[:, 0], out=out)
    cnt = _popcount(out).astype(np.min_scalar_type(64 * block.shape[1]), copy=False)
    for w in range(1, block.shape[1]):
        np.bitwise_and(block[:, w, None], masks[:, w], out=out)
        cnt += _popcount(out)
    return cnt


def dense_adjacency(g: "Graph", dtype=np.float64) -> np.ndarray:
    """The n x n 0/1 adjacency matrix of g, unpacked from its bit rows."""
    return _unpacked_rows(g.rows, g.n).astype(dtype)


def _bit_rows(bits: np.ndarray) -> list[int]:
    """Row v of a bool matrix as an int with bit u set iff bits[v, u]."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    buf, w = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(buf[v * w:(v + 1) * w], "little") for v in range(len(bits))]


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    rows[v] is the neighborhood bitmask of v; labels is an optional tuple of
    per-vertex display strings carried through complement/relabel/switching.
    """

    __slots__ = ("n", "rows", "labels")

    def __init__(self, n: int, rows: Sequence[int], labels: Sequence[str] | None = None,
                 validate: bool = True):
        if n < 0:
            raise ValueError("n must be >= 0")
        rows = tuple(map(_integer, rows))
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        if labels is not None:
            labels = tuple(labels)
            for x in labels:
                if not isinstance(x, str):
                    raise TypeError(f"labels must be strings, got {x!r}")
            if len(labels) != n:
                raise ValueError(f"expected {n} labels, got {len(labels)}")
        if validate:
            for v, row in enumerate(rows):
                if row >> n:
                    raise ValueError(f"row {v} has bits beyond vertex {n - 1}")
                if (row >> v) & 1:
                    raise ValueError(f"self-loop at vertex {v}")
            # the first row-major entry of a != a.T is the least (v, u), v < u
            a = _unpacked_rows(rows, n)
            first = np.flatnonzero(a != a.T)[:1]
            if first.size:
                v, u = divmod(int(first[0]), n)
                raise ValueError(f"asymmetric adjacency between {v} and {u}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, *a):
        raise AttributeError("Graph is immutable")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]],
                   labels: Sequence[str] | None = None) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            u, v = _integer(u), _integer(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows, labels, validate=False)

    # -- basic queries ---------------------------------------------------

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self.rows)

    def has_edge(self, u: int, v: int) -> bool:
        _check_vertex(u, self.n)
        _check_vertex(v, self.n)
        return bool((self.rows[u] >> v) & 1)

    def common_neighbors(self, u: int, v: int) -> int:
        """Number of common neighbors of two distinct vertices."""
        _check_vertex(u, self.n)
        _check_vertex(v, self.n)
        if u == v:
            raise ValueError("common_neighbors needs two distinct vertices")
        return (self.rows[u] & self.rows[v]).bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        _check_vertex(v, self.n)  # here, not at the first next()

        def bits(row):
            while row:
                low = row & -row
                yield low.bit_length() - 1
                row ^= low

        return bits(self.rows[v])

    def num_edges(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            row = self.rows[v] >> (v + 1)
            u = v + 1
            while row:
                low = row & -row
                yield (v, u + low.bit_length() - 1)
                row ^= low

    def is_regular(self) -> int | None:
        """Common degree if the graph is regular, else None."""
        degs = set(self.degrees())
        if len(degs) == 1:
            return degs.pop()
        return None if degs else 0

    # -- derived graphs --------------------------------------------------

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        rows = [(~r & full) & ~(1 << v) for v, r in enumerate(self.rows)]
        return Graph(self.n, rows, self.labels, validate=False)

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Graph with vertex v moved to position perm[v]."""
        n = self.n
        perm = tuple(perm)
        if sorted(perm) != list(range(n)):
            raise ValueError("perm is not a permutation of 0..n-1")
        p = np.array(perm, dtype=np.intp)
        moved = np.empty((n, n), dtype=bool)
        moved[p[:, None], p] = dense_adjacency(self, bool)
        rows = _bit_rows(moved)
        labels = None
        if self.labels is not None:
            lab = [""] * n
            for v, s in enumerate(self.labels):
                lab[perm[v]] = s
            labels = lab
        return Graph(n, rows, labels, validate=False)

    # -- equality / serialization ---------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.rows == other.rows
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.n, self.rows, self.labels))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges()})"

    def to_json_dict(self) -> dict:
        out = {"n": self.n, "edges": [list(e) for e in self.edges()]}
        if self.labels is not None:
            out["labels"] = list(self.labels)
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Graph":
        try:
            n = _integer(obj["n"])
            edges = [(_integer(u), _integer(v)) for u, v in obj["edges"]]
            labels = obj.get("labels")
            if labels is not None and not (isinstance(labels, list) and len(labels) == n
                                           and all(isinstance(s, str) for s in labels)):
                raise ValueError(f"labels must be null or a list of {n} strings")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed graph JSON: {exc}") from exc
        return cls.from_edges(n, edges, labels)


class Graph6ParseError(ValueError):
    """graph6 decode failure; offset is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


_G6_MAX_N = 68719476735  # 2^36 - 1, the format's size limit
_SIX_BITS = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)  # one group, high bit first


def _encode_size(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    return bytes([126, 126] + [((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0)])


def encode_graph6(g: Graph) -> bytes:
    """Standard graph6 encoding (no header line, no trailing newline).

    Upper-triangle bits x(0,1), x(0,2), x(1,2), x(0,3), ... packed big-endian
    into 6-bit groups, each group printed as chr(value + 63).
    """
    n = g.n
    if n > _G6_MAX_N:
        raise ValueError(f"n={n} exceeds the graph6 size limit {_G6_MAX_N}")
    # x(i, j) of column j is entry (j, i): row-major order of the strict
    # lower triangle is the graph6 order of the upper one
    bits = dense_adjacency(g, np.uint8)[np.arange(n)[:, None] > np.arange(n)]
    groups = np.append(bits, np.zeros(-len(bits) % 6, np.uint8)).reshape(-1, 6)
    return _encode_size(n) + (groups @ _SIX_BITS + 63).tobytes()


def decode_graph6(data: bytes | str) -> Graph:
    """Decode a graph6 byte string; tolerates one trailing newline.

    Raises Graph6ParseError with the byte offset on malformed input.
    """
    if isinstance(data, str):
        data = data.encode("ascii")
    data = data.rstrip(b"\r\n")
    if data.startswith(b">>graph6<<"):
        data = data[10:]
    if not data:
        raise Graph6ParseError("empty input", 0)

    def sixbits(off: int) -> int:
        b = data[off]
        if not 63 <= b <= 126:
            raise Graph6ParseError(f"byte {b!r} outside graph6 range 63..126", off)
        return b - 63

    # n is one byte, or 126 and three bytes, or 126, 126 and six bytes
    skip = (data[0] == 126) + (data[:2] == b"~~")
    pos = (1, 4, 8)[skip]
    if len(data) < pos:
        raise Graph6ParseError(f"truncated {pos}-byte size header", len(data))
    n = 0
    for off in range(skip, pos):
        n = (n << 6) | sixbits(off)

    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - pos != need:
        raise Graph6ParseError(
            f"expected {need} payload bytes for n={n}, got {len(data) - pos}", pos
        )
    payload = np.frombuffer(data, dtype=np.uint8)[pos:]
    bad = ((payload < 63) | (payload > 126)).nonzero()[0]
    if bad.size:
        sixbits(pos + int(bad[0]))  # raises with the offending byte
    bits = np.unpackbits((payload - 63)[:, None], axis=1)[:, 2:].ravel()
    if bits[nbits:].any():
        raise Graph6ParseError("nonzero padding bits", len(data) - 1)
    # bit x(i, j) of column j lands at low[j, i]: row-major order of the
    # strict lower triangle is the graph6 order of the upper one
    low = np.zeros((n, n), dtype=bool)
    low[np.arange(n)[:, None] > np.arange(n)] = bits[:nbits]
    return Graph(n, _bit_rows(low | low.T), validate=False)
