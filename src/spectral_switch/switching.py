"""Godsil-McKay and WQH switching: validation, classification, application.

A GM spec is a family of disjoint even cells C_1..C_t; the graph must induce
a constant number of neighbors from each cell into each cell (per vertex of
the source cell), and every outside vertex must see 0, half, or all of each
cell.  Switching complements the adjacency between each cell and its
half-seeing outside vertices.

A WQH spec is a pair of disjoint equal-size cells C_1, C_2 such that one
global constant c equals (neighbors in own cell) - (neighbors in the other
cell) for every vertex of C_1 u C_2, and every outside vertex either sees
all of C_1 and none of C_2, or none of C_1 and all of C_2, or equally many
in both.  Switching complements the adjacency between the first two kinds of
outside vertices and all of C_1 u C_2.

Both operations preserve the characteristic polynomial and are involutions.
Each is conjugation by a rational orthogonal matrix Q, block-diagonal over
the cells and the identity elsewhere.  apply_switching returns Q^T A Q,
formed from the cell rows alone, and switching_certificate compares it with
a mate, which proves the pair cospectral without a charpoly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    "switching_certificate",
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
        out = {"condition": self.condition, "message": self.message}
        if self.vertex is not None:
            out["vertex"] = self.vertex
        if self.cell is not None:
            out["cell"] = self.cell
        return out


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
        classes = {}
        for v, tag in self.outside_classes.items():
            classes[str(v)] = list(tag) if isinstance(tag, tuple) else tag
        out["outside_classes"] = classes
        return out


def _check_spec_range(g: Graph, vertices) -> None:
    for v in vertices:
        if not 0 <= v < g.n:
            raise InvalidSpecError(f"spec vertex {v} out of range for n={g.n}")


def validate_gm(g: Graph, spec: GmSpec) -> ValidationReport:
    """Check both GM conditions; never raises on a merely-invalid spec."""
    _check_spec_range(g, spec.all_vertices())
    rows = g.rows
    cmasks = [_mask(c) for c in spec.cells]
    inside = _mask(spec.all_vertices())
    violations = []
    for i, ci in enumerate(spec.cells):
        for j, mj in enumerate(cmasks):
            counts = {(rows[v] & mj).bit_count() for v in ci}
            if len(counts) > 1:
                violations.append(Violation(
                    "gm-i",
                    f"vertices of cell {i} have {sorted(counts)} neighbors in cell {j}",
                    cell=i,
                ))
    outside_classes = {}
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


def validate_wqh(g: Graph, spec: WqhSpec) -> ValidationReport:
    """Check the WQH constant and outside classes."""
    _check_spec_range(g, spec.all_vertices())
    rows = g.rows
    m1, m2 = _mask(spec.c1), _mask(spec.c2)
    inside = m1 | m2
    violations = []
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
    outside_classes = {}
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


def validate(g: Graph, spec) -> ValidationReport:
    if isinstance(spec, GmSpec):
        return validate_gm(g, spec)
    if isinstance(spec, WqhSpec):
        return validate_wqh(g, spec)
    raise TypeError(f"unknown spec type {type(spec).__name__}")


def apply_switching(g: Graph, spec, report: ValidationReport | None = None) -> Graph:
    """The switched graph Q^T A Q; refuses invalid specs.  A caller holding
    validate(g, spec) passes it as report, so the spec is validated once.

    Each block (a GM cell, or C1 u C2 of a WQH pair) swaps its edges and
    non-edges with the outside vertices switched against it: those seeing
    half of that GM cell, or all of C1 or all of C2.
    """
    if report is None:
        report = validate(g, spec)
    if not report.valid:
        kind = "GM" if isinstance(spec, GmSpec) else "WQH"
        more = len(report.violations) - 1
        raise InvalidSpecError(f"{kind} conditions fail: {report.violations[0].message}"
                               + (f" (+{more} more)" if more else ""))
    return Graph(g.n, _conjugate(g, spec), g.labels, validate=False)


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


def _conjugate(g: Graph, spec) -> list[int] | None:
    """The rows of Q^T A Q for the switching matrix Q of spec and the
    adjacency matrix A of g, or None unless it is a 0/1 matrix (then its
    diagonal is 0: each block of the orthogonal Q keeps its trace, 0).  The
    spec need not be valid.

    Q is the identity off the cells, so Q^T A Q differs from A only in the
    cell rows and, both being symmetric, the cell columns.  For the cell
    rows R = A[cells, :] in exact int64, P^T R is L (Q^T A Q) off the cells
    and (P^T R)[:, cells] P is L L^T (Q^T A Q) on them.  A scaled entry is
    at most (3/2 m_a)(3/2 m_b) < 3 n^2 for blocks of m_a and m_b vertices,
    inside int64 for any n < 2^30, and must be 0 or its scale.  In a 0/1
    result a block's column at an outside vertex is kept or complemented in
    full (see apply_switching), so one row per block shows which outside
    rows flip the block's mask.
    """
    blocks, p, scale = _switching_matrix(spec)
    cells = [v for b in blocks for v in b]
    _check_spec_range(g, cells)
    idx = np.array(cells)
    old = _unpacked_rows([g.rows[v] for v in cells], g.n)
    x = p.T @ old.astype(np.int64)
    x[:, idx] = x[:, idx] @ p
    new = x == scale[:, None]
    new[:, idx] = x[:, idx] == scale[:, None] * scale
    if np.count_nonzero(x) != np.count_nonzero(new):
        return None
    rows = list(g.rows)
    at = 0
    for b in blocks:
        bmask = _mask(b)
        for v in np.flatnonzero(new[at] != old[at]).tolist():
            rows[v] ^= bmask
        at += len(b)
    for v, row in zip(cells, _bit_rows(new)):  # after the flips, which also hit cell rows
        rows[v] = row
    return rows


def switching_certificate(g: Graph, mate: Graph, spec) -> bool:
    """True iff Q^T A Q = A' for the switching matrix Q of spec, where A and
    A' are the adjacency matrices of g and mate; then the pair is cospectral,
    whether or not the spec is valid."""
    return mate.n == g.n and _conjugate(g, spec) == list(mate.rows)


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
        return GmSpec([_resolve_vertices(c, g) for c in cells])
    if "wqh" in obj:
        body = obj["wqh"]
        if not isinstance(body, dict) or "c1" not in body or "c2" not in body:
            raise ValueError("wqh spec needs 'c1' and 'c2' lists")
        return WqhSpec(_resolve_vertices(body["c1"], g), _resolve_vertices(body["c2"], g))
    raise ValueError("spec JSON must contain 'gm' or 'wqh'")
