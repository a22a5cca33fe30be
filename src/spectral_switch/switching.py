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
the cells and the identity elsewhere; switching_certificate checks
Q^T A Q = A' exactly, which proves a pair cospectral without a charpoly.
It reads the cell rows in full and compares every other row bit by bit off
the cells, where Q is the identity: both sides are symmetric, so the cell
rows fix the cell columns too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graphcore import Graph, _mask, _unpacked_rows

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
        norm = tuple(tuple(sorted(int(v) for v in c)) for c in cells)
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
        a = tuple(sorted(int(v) for v in c1))
        b = tuple(sorted(int(v) for v in c2))
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
    """The switched graph; refuses invalid specs.  A caller holding
    validate(g, spec) passes it as report, so the spec is validated once.

    Each block (a GM cell, or C1 u C2 of a WQH pair) swaps its edges and
    non-edges with the outside vertices switched against it: those seeing
    half of that GM cell, or all of C1 or all of C2.
    """
    if report is None:
        report = validate(g, spec)
    classes = report.outside_classes
    if isinstance(spec, GmSpec):
        kind = "GM"
        blocks = [(c, [v for v, tags in classes.items() if tags[j] == "gm-half"])
                  for j, c in enumerate(spec.cells)]
    else:
        kind = "WQH"
        blocks = [(spec.all_vertices(),
                   [v for v, tag in classes.items() if tag in ("full-c1", "full-c2")])]
    if not report.valid:
        raise InvalidSpecError(
            f"{kind} conditions fail: {report.violations[0].message}"
            + (f" (+{len(report.violations) - 1} more)" if len(report.violations) > 1 else "")
        )
    rows = list(g.rows)
    for block, switched in blocks:
        bmask, smask = _mask(block), _mask(switched)
        for u in block:
            rows[u] ^= smask
        for v in switched:
            rows[v] ^= bmask
    return Graph(g.n, rows, g.labels, validate=False)


def _switching_blocks(spec) -> list[tuple[tuple[int, ...], np.ndarray, int]]:
    """(vertices, P, L) for each diagonal block of the spec's Q, with Q = P / L
    on those vertices: P = J - (m/2) I, L = m/2 on a GM cell of size m, and
    P = [[mI - J, J], [J, mI - J]], L = m on a WQH pair of m + m vertices."""
    if isinstance(spec, GmSpec):
        out = []
        for c in spec.cells:
            half = len(c) // 2
            p = np.ones((len(c), len(c)), dtype=np.int64)
            p -= half * np.eye(len(c), dtype=np.int64)
            out.append((c, p, half))
        return out
    if isinstance(spec, WqhSpec):
        m = len(spec.c1)
        j = np.ones((m, m), dtype=np.int64)
        d = m * np.eye(m, dtype=np.int64) - j
        return [(spec.c1 + spec.c2, np.block([[d, j], [j, d]]), m)]
    raise TypeError(f"unknown spec type {type(spec).__name__}")


def switching_certificate(g: Graph, mate: Graph, spec) -> bool:
    """True iff Q^T A Q = A' for the switching matrix Q of spec, where A and
    A' are the adjacency matrices of g and mate; then the pair is cospectral.

    Q has one block per GM cell or WQH pair (see _switching_blocks) and is
    the identity elsewhere.  The cell rows are read in full: R = A[cells, :]
    and R' = A'[cells, :].  Both sides of the identity are symmetric (every
    Graph is), so the cell columns are the transposes of the cell rows and
    need no check of their own.  Everything is checked exactly in int64,
    each block scaled by its own L: P_a^T R[C_a, T] = L_a R'[C_a, T] off
    the cells, P_a^T R[C_a, C_b] P_b = L_a L_b R'[C_a, C_b] on cell blocks,
    and, where Q is the identity, bit rows compared off the cell mask.  A
    scaled entry is at most (3/2 m_a)(3/2 m_b) < 3 n^2 for blocks of m_a and
    m_b vertices, inside int64 for any n < 2^30.  P^T P = L^2 I holds for
    every block by construction, and the spec constructors reject repeated
    vertices.  Only g, mate and spec are read: the answer does not depend on
    the spec being valid.
    """
    blocks = _switching_blocks(spec)
    cells = [v for vs, _, _ in blocks for v in vs]
    _check_spec_range(g, cells)
    n = g.n
    if mate.n != n:
        return False
    inside = _mask(cells)
    off = ((1 << n) - 1) ^ inside
    for v, (a, b) in enumerate(zip(g.rows, mate.rows)):
        if (a ^ b) & off and not (inside >> v) & 1:
            return False
    idx = np.array(cells)
    out = np.ones(n, dtype=bool)
    out[idx] = False

    # R = A[cells, :] and R' = A'[cells, :]
    r, rm = (_unpacked_rows([h.rows[v] for v in cells], n).astype(np.int64)
             for h in (g, mate))
    starts = np.cumsum([0] + [len(p) for _, p, _ in blocks])
    slices = [slice(a, b) for a, b in zip(starts, starts[1:])]
    scales = np.repeat([s for _, _, s in blocks], np.diff(starts))
    # L_b (R Q) on each block's cell columns
    rq = np.empty((len(cells), len(cells)), dtype=np.int64)
    for sl, (_, p, _) in zip(slices, blocks):
        rq[:, sl] = r[:, idx[sl]] @ p
    # L_a (Q^T A) off the cells, and L_a L_b (Q^T A Q) on cell blocks
    for sl, (_, p, scale) in zip(slices, blocks):
        if not np.array_equal(p.T @ r[sl][:, out], scale * rm[sl][:, out]):
            return False
        if not np.array_equal(p.T @ rq[sl], scale * scales * rm[sl][:, idx]):
            return False
    return True


def _resolve_vertices(entries, g: Graph | None):
    """Map a JSON cell (indices or label strings) to vertex indices."""
    out = []
    label_index = None
    for e in entries:
        if isinstance(e, str):
            if g is None or g.labels is None:
                raise ValueError(f"label {e!r} in spec but no labeled graph to resolve it")
            if label_index is None:
                label_index = {s: i for i, s in enumerate(g.labels)}
            try:
                out.append(label_index[e])
            except KeyError:
                raise ValueError(f"label {e!r} not found in graph") from None
        else:
            out.append(int(e))
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
        cells = obj["gm"].get("cells")
        if not isinstance(cells, list):
            raise ValueError("gm spec needs a 'cells' list")
        return GmSpec([_resolve_vertices(c, g) for c in cells])
    if "wqh" in obj:
        body = obj["wqh"]
        if not isinstance(body, dict) or "c1" not in body or "c2" not in body:
            raise ValueError("wqh spec needs 'c1' and 'c2' lists")
        return WqhSpec(_resolve_vertices(body["c1"], g), _resolve_vertices(body["c2"], g))
    raise ValueError("spec JSON must contain 'gm' or 'wqh'")
