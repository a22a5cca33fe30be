"""Godsil-McKay and WQH switching: validation, classification, application.

Each switch is an involution A -> Q^T A Q for a rational orthogonal Q,
block-diagonal over the cells and the identity elsewhere, so it keeps the
characteristic polynomial.  apply_switching forms Q^T A Q from the cell
rows alone, and the validators read only those rows too: v's count in a
cell is a column sum of the cell rows, since A is symmetric.  A spec is
valid exactly when Q^T A Q is a 0/1 matrix that agrees with A on the cells,
so apply_switching checks that instead of validating, and a mate it returns
is Q^T A Q exactly: that proves the pair cospectral, with nothing to
recheck:

- GM: disjoint even cells C_1..C_t, Q_i = (2/m_i) J - I on a cell of size
  m_i.  An outside column a with c neighbors in C_i maps to (2c/m_i) 1 - a:
  0/1 exactly when c is 0, m_i/2 or m_i (condition ii), where it is a, its
  complement or a.  A cell block B = A[C_i, C_j] with row sums r and column
  sums c maps to B_uw - 2 r_u/m_j - 2 c_w/m_i + 4|B|/(m_i m_j), so it is
  fixed exactly when r_u/m_j + c_w/m_i is the same for every (u, w): when
  each vertex of C_i has the same count in C_j and each of C_j the same in
  C_i (condition i, over both ordered pairs).
- WQH: two disjoint cells of size m, Q = I - d d^T/m with d = 1_C1 - 1_C2,
  a reflection.  An outside column with n1 neighbors in C1 and n2 in C2 maps
  to a - ((n1 - n2)/m) d: 0/1 exactly when (n1, n2) is (m, 0) or (0, m),
  where it is complemented, or n1 = n2, where it is kept (condition iii).
  The block on C1 u C2 is fixed exactly when it commutes with the
  reflection, B d = c d: own minus other neighbors is one constant c at
  every cell vertex (condition ii).
- 0/1 alone is not enough: with the single edge 0-2 on 4 vertices,
  GmSpec([[0, 1], [2, 3]]) fails condition i, yet Q swaps 0 with 1 and 2
  with 3, and Q^T A Q is the 0/1 matrix of the edge 1-3.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .graphcore import Graph, _bit_rows, _integer, _mask, _unpacked_rows

__all__ = [
    "GmSpec",
    "WqhSpec",
    "Violation",
    "ValidationReport",
    "InvalidSpecError",
    "validate_gm",
    "validate_wqh",
    "validate",
    "apply_switching",
    "spec_to_json_dict",
    "spec_from_json_dict",
]


class InvalidSpecError(ValueError):
    """A switching spec that fails its structural or graph-side conditions."""


@dataclass(frozen=True)
class GmSpec:
    """Disjoint cells of even size; vertices are indices into a host graph."""

    cells: tuple[tuple[int, ...], ...]

    def __init__(self, cells: Sequence[Sequence[int]]):
        norm = tuple(tuple(sorted(map(_integer, c))) for c in cells)
        if not norm:
            raise InvalidSpecError("a GM spec needs at least one cell")
        seen = set()
        for i, c in enumerate(norm):
            if len(c) < 2 or len(c) % 2:
                raise InvalidSpecError(f"cell {i} has size {len(c)}; cells must be even, >= 2")
            if len(set(c)) != len(c):
                raise InvalidSpecError(f"cell {i} repeats a vertex")
            if seen & set(c):
                raise InvalidSpecError(f"cell {i} overlaps an earlier cell")
            seen |= set(c)
        object.__setattr__(self, "cells", norm)

    def all_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(v for c in self.cells for v in c))


@dataclass(frozen=True)
class WqhSpec:
    """Two disjoint cells of equal size."""

    c1: tuple[int, ...]
    c2: tuple[int, ...]

    def __init__(self, c1: Sequence[int], c2: Sequence[int]):
        a = tuple(sorted(map(_integer, c1)))
        b = tuple(sorted(map(_integer, c2)))
        if not a or len(a) != len(set(a)) or len(b) != len(set(b)):
            raise InvalidSpecError("cells must be nonempty and duplicate-free")
        if len(a) != len(b):
            raise InvalidSpecError(f"cells have sizes {len(a)} != {len(b)}")
        if set(a) & set(b):
            raise InvalidSpecError("cells overlap")
        object.__setattr__(self, "c1", a)
        object.__setattr__(self, "c2", b)

    def all_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.c1 + self.c2))


@dataclass(frozen=True)
class Violation:
    condition: str  # "gm-i" | "gm-ii" | "wqh-ii" | "wqh-iii"
    message: str
    vertex: int | None = None
    cell: int | None = None

    def to_json_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[Violation, ...]
    wqh_constant: int | None = None
    outside_classes: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "valid": self.valid,
            "violations": [v.to_json_dict() for v in self.violations],
        }
        if self.wqh_constant is not None:
            out["wqh_constant"] = self.wqh_constant
        out["outside_classes"] = {str(v): list(tag) if isinstance(tag, tuple) else tag
                                  for v, tag in self.outside_classes.items()}
        return out


def _check_spec_range(g: Graph, vertices) -> None:
    for v in vertices:
        if not 0 <= v < g.n:
            raise InvalidSpecError(f"spec vertex {v} out of range for n={g.n}")


def _cell_counts(g: Graph, cells) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """(counts, out, outside): counts[j, v] = |N(v) & cells[j]|, a column sum
    of the cell rows; out, its columns at the vertices in no cell; and those
    vertices in order."""
    flat = [v for c in cells for v in c]
    _check_spec_range(g, sorted(flat))
    counts = np.array([_unpacked_rows([g.rows[v] for v in c], g.n).sum(axis=0, dtype=np.int64)
                       for c in cells])
    outside = np.ones(g.n, dtype=bool)
    outside[flat] = False
    return counts, counts[:, outside], np.flatnonzero(outside).tolist()


# outside tags by code: 0, all, half or another count of a cell's vertices
_GM_TAGS = np.array(["gm-zero", "gm-full", "gm-half", None], dtype=object)


def validate_gm(g: Graph, spec: GmSpec) -> ValidationReport:
    """Check both GM conditions; never raises on a merely-invalid spec."""
    counts, out, outside = _cell_counts(g, spec.cells)
    violations = []
    for i, ci in enumerate(spec.cells):
        for j, seen in enumerate(counts[:, list(ci)].tolist()):
            if len(set(seen)) > 1:
                violations.append(Violation("gm-i", f"vertices of cell {i} have "
                                            f"{sorted(set(seen))} neighbors in cell {j}", cell=i))
    sizes = np.array([len(c) for c in spec.cells])[:, None]
    code = np.select([out == 0, out == sizes, 2 * out == sizes], [0, 1, 2], 3)
    for at, j in np.argwhere(code.T == 3).tolist():
        violations.append(Violation("gm-ii", f"vertex {outside[at]} has {out[j, at]} neighbors "
                                    f"in cell {j} of size {sizes[j, 0]}", outside[at], j))
    tags = zip(*_GM_TAGS[code].tolist())
    return ValidationReport(not violations, tuple(violations), None, dict(zip(outside, tags)))


# outside tags by code: all of C1 and none of C2, the reverse, or as many of each
_WQH_TAGS = np.array(["full-c1", "full-c2", "balanced", None], dtype=object)


def validate_wqh(g: Graph, spec: WqhSpec) -> ValidationReport:
    """Check the WQH constant and outside classes."""
    counts, (n1, n2), outside = _cell_counts(g, (spec.c1, spec.c2))
    violations = []
    size, cells = len(spec.c1), spec.c1 + spec.c2
    diffs = ((counts[0] - counts[1])[list(cells)] * np.repeat([1, -1], size)).tolist()
    c = diffs[0]
    for v, d in zip(cells, diffs):
        if d != c:
            violations.append(Violation("wqh-ii", f"vertex {v} has own-minus-other neighbor "
                                        f"difference {d}, expected {c}", v))
    table = np.full((size + 1, size + 1), 3)  # the code of each count pair
    np.fill_diagonal(table, 2)
    table[size, 0], table[0, size] = 0, 1
    code = table[n1, n2]
    for at in np.flatnonzero(code == 3).tolist():
        violations.append(Violation("wqh-iii", f"vertex {outside[at]} has ({n1[at]},{n2[at]}) "
                                    f"neighbors in (C1,C2) of size {size}", outside[at]))
    tags = _WQH_TAGS[code].tolist()
    return ValidationReport(not violations, tuple(violations), c, dict(zip(outside, tags)))


def validate(g: Graph, spec) -> ValidationReport:
    if isinstance(spec, GmSpec):
        return validate_gm(g, spec)
    if isinstance(spec, WqhSpec):
        return validate_wqh(g, spec)
    raise TypeError(f"unknown spec type {type(spec).__name__}")


def apply_switching(g: Graph, spec) -> Graph:
    """The switched graph Q^T A Q; refuses an invalid spec, calling validate
    only then, to name its first violation."""
    delta = _conjugate(g, spec)
    cells = spec.all_vertices()
    inside = _mask(cells)
    if delta is None or any(delta[v] & inside for v in cells):
        report = validate(g, spec)
        kind = "GM" if isinstance(spec, GmSpec) else "WQH"
        more = len(report.violations) - 1
        raise InvalidSpecError(f"{kind} conditions fail: {report.violations[0].message}"
                               + (f" (+{more} more)" if more else ""))
    rows = list(g.rows)
    for v, d in delta.items():
        rows[v] ^= d
    return Graph(g.n, rows, g.labels, validate=False)


def _switching_matrix(spec) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray]:
    """(blocks, P, L): each diagonal block's vertices, the block-diagonal
    int64 P over them in block order and each row's scale L, so that Q = P / L
    on the cells and Q = I elsewhere; P^T P = L^2 I, so Q is orthogonal.  A
    GM cell of size m has P = J - (m/2) I and L = m/2; a WQH pair of m + m
    vertices has P = [[mI - J, J], [J, mI - J]] and L = m."""
    if isinstance(spec, GmSpec):
        sizes = [len(c) for c in spec.cells]
        scale = np.repeat(np.array(sizes, dtype=np.int64) // 2, sizes)
        block_of = np.repeat(np.arange(len(sizes)), sizes)
        return list(spec.cells), (block_of[:, None] == block_of) - np.diag(scale), scale
    if isinstance(spec, WqhSpec):
        m = len(spec.c1)
        scale = np.full(2 * m, m, dtype=np.int64)
        side = np.arange(2 * m) < m
        return [spec.c1 + spec.c2], np.diag(scale) - np.where(side[:, None] == side, 1, -1), scale
    raise TypeError(f"unknown spec type {type(spec).__name__}")


def _conjugate(g: Graph, spec) -> dict[int, int] | None:
    """Q^T A Q for the switching matrix Q of spec and the adjacency matrix A
    of g, as {v: row v of Q^T A Q XOR row v of A} for the cell vertices and
    the outside vertices whose rows change; None unless Q^T A Q is a 0/1
    matrix (then its diagonal is 0: each block of Q keeps its trace, 0).
    The spec need not be valid.

    For the cell rows R = A[cells, :] in exact int64, P^T R is L (Q^T A Q)
    off the cells and (P^T R)[:, cells] P is L L^T (Q^T A Q) on them.  A
    scaled entry is at most (3/2 m_a)(3/2 m_b) < 3 n^2 for blocks of m_a and
    m_b vertices, inside int64 for any n < 2^30, and must be 0 or its scale.
    A 0/1 result keeps or complements each block's column at an outside
    vertex in full, so one row per block shows which outside rows flip."""
    blocks, p, scale = _switching_matrix(spec)
    cells = [v for b in blocks for v in b]
    _check_spec_range(g, sorted(cells))
    idx = np.array(cells)
    old = _unpacked_rows([g.rows[v] for v in cells], g.n)
    x = p.T @ old.astype(np.int64)
    x[:, idx] = x[:, idx] @ p
    new = x == scale[:, None]
    new[:, idx] = x[:, idx] == scale[:, None] * scale
    if np.count_nonzero(x) != np.count_nonzero(new):
        return None
    changed = new != old
    delta = dict(zip(cells, _bit_rows(changed)))
    changed[:, idx] = False
    at = 0
    for b in blocks:
        bmask = _mask(b)
        for v in np.flatnonzero(changed[at]).tolist():
            delta[v] = delta.get(v, 0) ^ bmask
        at += len(b)
    return delta


def _resolve_vertices(entries, g: Graph | None):
    """Map a JSON cell (indices or label strings) to vertex indices."""
    if not isinstance(entries, list):
        raise ValueError(f"a spec cell must be a list, got {entries!r}")
    out = []
    label_index = None
    for e in entries:
        if isinstance(e, str):
            if g is None or g.labels is None:
                raise ValueError(f"label {e!r} in spec but no labeled graph to resolve it")
            if label_index is None:
                label_index = {s: i for i, s in enumerate(g.labels)}
            if e not in label_index:
                raise ValueError(f"label {e!r} not found in graph")
            out.append(label_index[e])
        else:
            try:
                out.append(_integer(e))
            except TypeError:
                raise ValueError(f"spec vertex {e!r} is not an integer") from None
    return out


def spec_to_json_dict(spec) -> dict:
    if isinstance(spec, GmSpec):
        return {"gm": {"cells": [list(c) for c in spec.cells]}}
    if isinstance(spec, WqhSpec):
        return {"wqh": {"c1": list(spec.c1), "c2": list(spec.c2)}}
    raise TypeError(f"unknown spec type {type(spec).__name__}")


def spec_from_json_dict(obj: dict, g: Graph | None = None):
    """Parse a switching spec; cell entries may be indices or vertex labels."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError("spec JSON must be an object with exactly one of 'gm', 'wqh'")
    if "gm" in obj:
        body = obj["gm"]
        cells = body.get("cells") if isinstance(body, dict) else None
        if not isinstance(cells, list):
            raise ValueError("gm spec needs a 'cells' list")
        _no_other_keys("gm", body, ("cells",))
        return GmSpec([_resolve_vertices(c, g) for c in cells])
    if "wqh" in obj:
        body = obj["wqh"]
        if not isinstance(body, dict) or "c1" not in body or "c2" not in body:
            raise ValueError("wqh spec needs 'c1' and 'c2' lists")
        _no_other_keys("wqh", body, ("c1", "c2"))
        return WqhSpec(_resolve_vertices(body["c1"], g), _resolve_vertices(body["c2"], g))
    raise ValueError("spec JSON must contain 'gm' or 'wqh'")


def _no_other_keys(kind: str, body: dict, keys: tuple[str, ...]) -> None:
    """Refuse a spec body with keys beyond its cell lists, which would
    otherwise be dropped unread."""
    extra = [k for k in body if k not in keys]
    if extra:
        raise ValueError(f"{kind} spec has unknown keys {', '.join(map(repr, extra))}; "
                         f"it takes only {', '.join(map(repr, keys))}")
