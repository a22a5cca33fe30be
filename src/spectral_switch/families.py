"""Named switching constructions packaged as executable recipes.

Each recipe bundles scheme parameters, a switching spec in the canonical
vertex order, and witness assertions (expected common-neighbor changes or
selective-count values).  run_recipe builds the graph, validates and applies
the switch (the mate it builds is Q^T A Q for the spec's rational orthogonal
Q, so the switch itself proves the pair cospectral), checks every witness,
and proves the pair non-isomorphic at the cell and witness vertices (the
scheme graph is vertex-transitive; see certify.transitive_nonisomorphic),
with the invariant ladder only if that decides nothing, aggregating
everything into one JSON-serializable report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import binom
from .certify import (
    NonIsoVerdict,
    nonisomorphic,
    selective_neighbor_count,
    transitive_nonisomorphic,
)
from .canon import DEFAULT_NODE_BUDGET
from .graphcore import Graph, _check_vertex
from .schemes import (
    DEFAULT_VERTEX_CAP,
    SchemeParams,
    enumerate_vertices,
    grassmann_rank,
    johnson_rank,
    mask_of_elements,
)
from .spectra import _SWITCHING_VERDICT, CospectralVerdict, cospectral
from .switching import GmSpec, WqhSpec, apply_switching, spec_to_json_dict, validate

__all__ = [
    "Recipe",
    "RecipeStageError",
    "RecipeReport",
    "WitnessResult",
    "CommonNeighborChange",
    "CommonNeighborFloor",
    "AddedLostCount",
    "SelectiveTriple",
    "recipe_j2n4",
    "recipe_halfrange_2kk",
    "recipe_qkneser",
    "recipe_sporadic",
    "SPORADIC_NAMES",
    "all_recipes",
    "run_recipe",
    "REPORT_SCHEMA_VERSION",
    # re-exported: perfbench's tracer wraps families.enumerate_vertices
    "enumerate_vertices",
    # re-exported: perfbench's tracer wraps families.cospectral
    "cospectral",
]

REPORT_SCHEMA_VERSION = 4


class RecipeStageError(RuntimeError):
    """A run_recipe stage failed; the stage name prefixes the message."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.__cause__ = cause


@dataclass(frozen=True)
class WitnessResult:
    kind: str
    passed: bool
    details: str

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "passed": self.passed, "details": self.details}


def _pair_edges(g: Graph, mate: Graph, u: int, v: int,
                require_edge_orig, require_edge_mate):
    problems = []
    if require_edge_orig is not None and g.has_edge(u, v) != require_edge_orig:
        want = "an edge" if require_edge_orig else "a non-edge"
        problems.append(f"expected {want} in the original")
    if require_edge_mate is not None and mate.has_edge(u, v) != require_edge_mate:
        want = "an edge" if require_edge_mate else "a non-edge"
        problems.append(f"expected {want} in the mate")
    return problems


@dataclass(frozen=True)
class CommonNeighborChange:
    """lambda_mate(u,v) - lambda_orig(u,v) must equal `gain` exactly."""

    u: int
    v: int
    gain: int
    require_edge_orig: bool | None = None
    require_edge_mate: bool | None = None

    kind = "common-neighbor-change"

    @property
    def vertices(self) -> tuple[int, int]:
        return (self.u, self.v)

    def check(self, g: Graph, mate: Graph) -> WitnessResult:
        before = g.common_neighbors(self.u, self.v)
        after = mate.common_neighbors(self.u, self.v)
        problems = _pair_edges(g, mate, self.u, self.v,
                               self.require_edge_orig, self.require_edge_mate)
        if after - before != self.gain:
            problems.append(f"gain {after - before} != expected {self.gain}")
        detail = (f"pair ({self.u},{self.v}): lambda {before} -> {after}"
                  + ("; " + "; ".join(problems) if problems else
                     f"; gain {self.gain} as expected"))
        return WitnessResult(self.kind, not problems, detail)


@dataclass(frozen=True)
class CommonNeighborFloor:
    """lambda_mate(u,v) must be at least `minimum`."""

    u: int
    v: int
    minimum: int
    require_edge_orig: bool | None = None
    require_edge_mate: bool | None = None

    kind = "common-neighbor-floor"

    @property
    def vertices(self) -> tuple[int, int]:
        return (self.u, self.v)

    def check(self, g: Graph, mate: Graph) -> WitnessResult:
        after = mate.common_neighbors(self.u, self.v)
        problems = _pair_edges(g, mate, self.u, self.v,
                               self.require_edge_orig, self.require_edge_mate)
        if after < self.minimum:
            problems.append(f"lambda {after} < floor {self.minimum}")
        detail = (f"pair ({self.u},{self.v}): lambda {after} in mate, floor "
                  f"{self.minimum}" + ("; " + "; ".join(problems) if problems else ""))
        return WitnessResult(self.kind, not problems, detail)


@dataclass(frozen=True)
class AddedLostCount:
    """Common neighbors added exactly / lost at least, with a net-loss floor."""

    u: int
    v: int
    added_exact: int
    lost_min: int
    net_loss_min: int

    kind = "added-lost"

    @property
    def vertices(self) -> tuple[int, int]:
        return (self.u, self.v)

    def check(self, g: Graph, mate: Graph) -> WitnessResult:
        for x in (self.u, self.v):
            _check_vertex(x, min(g.n, mate.n))
        orig = g.rows[self.u] & g.rows[self.v]
        new = mate.rows[self.u] & mate.rows[self.v]
        added = (new & ~orig).bit_count()
        lost = (orig & ~new).bit_count()
        problems = []
        if added != self.added_exact:
            problems.append(f"added {added} != expected {self.added_exact}")
        if lost < self.lost_min:
            problems.append(f"lost {lost} < floor {self.lost_min}")
        if lost - added < self.net_loss_min:
            problems.append(f"net loss {lost - added} < floor {self.net_loss_min}")
        detail = (f"pair ({self.u},{self.v}): added {added}, lost {lost}, "
                  f"net loss {lost - added}"
                  + ("; " + "; ".join(problems) if problems else ""))
        return WitnessResult(self.kind, not problems, detail)


@dataclass(frozen=True)
class SelectiveTriple:
    """Selective count lambda(a; b, c) is 1 in the mate, not 1 in the original."""

    a: int
    b: int
    c: int

    kind = "selective-triple"

    @property
    def vertices(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def check(self, g: Graph, mate: Graph) -> WitnessResult:
        in_orig = selective_neighbor_count(g, self.a, self.b, self.c)
        in_mate = selective_neighbor_count(mate, self.a, self.b, self.c)
        problems = []
        if in_mate != 1:
            problems.append(f"mate count {in_mate} != 1")
        if in_orig == 1:
            problems.append("original count is 1 too")
        detail = (f"triple ({self.a};{self.b},{self.c}): count {in_orig} in "
                  f"original, {in_mate} in mate"
                  + ("; " + "; ".join(problems) if problems else ""))
        return WitnessResult(self.kind, not problems, detail)


@dataclass(frozen=True)
class Recipe:
    name: str
    params: SchemeParams
    spec: GmSpec | WqhSpec
    witnesses: tuple
    provenance: str


def _johnson_index(elements, n: int) -> int:
    return johnson_rank(mask_of_elements(elements, n))


def recipe_j2n4(n: int) -> Recipe:
    """WQH switching on J_{2}(n,4) for n >= 8.

    C1 holds the three 4-sets {1,2,3,x} for x in {4,5,6}; C2 the three
    {x,4,5,6} for x in {1,2,3}.  The pair ({1,2,3,4},{1,4,5,7}) gains
    exactly binom(n-7,2) common neighbors; at n=8 the disjoint pair
    ({1,2,3,4},{5,6,7,8}) becomes an edge with at least 30 common neighbors.
    """
    if n < 8:
        raise ValueError(f"the J_2(n,4) construction needs n >= 8, got {n}")
    params = SchemeParams.johnson(n, 4, {2})
    c1 = [_johnson_index(s, n) for s in ((1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6))]
    c2 = [_johnson_index(s, n) for s in ((1, 4, 5, 6), (2, 4, 5, 6), (3, 4, 5, 6))]
    spec = WqhSpec(c1, c2)
    v = _johnson_index((1, 2, 3, 4), n)
    w = _johnson_index((1, 4, 5, 7), n)
    witnesses: list = [CommonNeighborChange(v, w, binom(n - 7, 2),
                                            require_edge_orig=True,
                                            require_edge_mate=True)]
    if n == 8:
        w8 = _johnson_index((5, 6, 7, 8), n)
        witnesses.append(CommonNeighborFloor(v, w8, 30,
                                             require_edge_orig=False,
                                             require_edge_mate=True))
    return Recipe(f"j2n4(n={n})", params, spec, tuple(witnesses),
                  "two coclique triples with constant difference -3")


def recipe_halfrange_2kk(k: int) -> Recipe:
    """GM switching on J_{1..(k-1)/2}(2k,k) for odd k >= 5.

    Two cells of size k+1: the k-sets containing [k-1], and their
    complements.  The pair (v=[k], w={2..k+1}) gains exactly
    binom(k-2,(k-3)/2) * binom(k-1,(k-1)/2) common neighbors and loses at
    least binom(k-2,(k-3)/2) * binom(k,(k+1)/2).
    """
    if k < 5 or k % 2 == 0:
        raise ValueError(f"the half-range construction needs odd k >= 5, got {k}")
    n = 2 * k
    params = SchemeParams.johnson(n, k, frozenset(range(1, (k - 1) // 2 + 1)))
    base = tuple(range(1, k))  # [k-1]
    rest = tuple(range(k, n + 1))
    c1 = [_johnson_index(base + (x,), n) for x in rest]
    c2 = [_johnson_index(tuple(e for e in rest if e != x), n) for x in rest]
    spec = GmSpec([c1, c2])
    v = _johnson_index(tuple(range(1, k + 1)), n)
    w = _johnson_index(tuple(range(2, k + 2)), n)
    added = binom(k - 2, (k - 3) // 2) * binom(k - 1, (k - 1) // 2)
    lost = binom(k - 2, (k - 3) // 2) * binom(k, (k + 1) // 2)
    witness = AddedLostCount(v, w, added, lost, lost - added)
    return Recipe(f"halfrange(k={k})", params, spec, (witness,),
                  "cells: supersets of the first k-1 points, and complements")


def _e(n: int, *idx: int):
    """Sum of standard basis vectors e_i (1-based) in F_2^n."""
    v = [0] * n
    for i in idx:
        v[i - 1] ^= 1
    return v


def recipe_qkneser(n: int, k: int) -> Recipe:
    """GM switching on the q-Kneser graph K_2(n,k), one cell of four spaces.

    With p1=<e1>, p2=<e2>, p3=<e3>, p4=<e1+e2>, p5=<e1+e3> and
    pi=<e4..e_{k+1}>, the cell is {p1p2pi, p1p3pi, p2p3pi, p4p5pi}.  The
    witness triple (p1 tau, p2 tau, p4 tau) with tau=<e_{k+2}..e_{2k}>
    (tau=<e4> when k=2) realizes selective count 1 in the mate only.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if n < 2 * k:
        raise ValueError(f"need n >= 2k, got n={n}, k={k}")
    params = SchemeParams.grassmann(n, k, {0}, 2)
    pi = [_e(n, i) for i in range(4, k + 2)]
    e1, e2, e3 = _e(n, 1), _e(n, 2), _e(n, 3)
    tau = [_e(n, 4)] if k == 2 else [_e(n, i) for i in range(k + 2, 2 * k + 1)]
    # RREF bases, rows in pivot order: p4p5pi = <e1+e2, e1+e3, pi> reduces to
    # <e1+e3, e2+e3, pi>, and p4tau = <e1+e2, tau> is already reduced, since
    # e2 is not a pivot column
    cell = ([e1, e2], [e1, e3], [e2, e3], [_e(n, 1, 3), _e(n, 2, 3)])
    spec = GmSpec([[grassmann_rank(pair + pi, 2) for pair in cell]])
    witness = SelectiveTriple(*(grassmann_rank([x] + tau, 2) for x in (e1, e2, _e(n, 1, 2))))
    return Recipe(f"qkneser(n={n},k={k})", params, spec, (witness,),
                  "four k-spaces pairwise meeting in dimension k-1")


_SPORADIC_TABLE = {
    "J1-11-4": (
        SchemeParams.johnson(11, 4, {1}),
        "wqh",
        [[(1, 2, 3, 10), (4, 5, 6, 10), (7, 8, 9, 10)],
         [(1, 2, 3, 11), (4, 5, 6, 11), (7, 8, 9, 11)]],
    ),
    "J24-10-5": (
        SchemeParams.johnson(10, 5, {2, 4}),
        "gm",
        [[(1, 2, 3, 4, 5), (1, 2, 3, 6, 7), (1, 2, 4, 6, 8), (1, 2, 5, 7, 8)],
         [(6, 7, 8, 9, 10), (4, 5, 8, 9, 10), (3, 5, 7, 9, 10), (3, 4, 6, 9, 10)]],
    ),
    "J24-12-6": (
        SchemeParams.johnson(12, 6, {2, 4}),
        "gm",
        [[(1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 7, 8), (1, 2, 3, 5, 7, 9), (1, 2, 3, 6, 8, 9)],
         [(7, 8, 9, 10, 11, 12), (5, 6, 9, 10, 11, 12), (4, 6, 8, 10, 11, 12),
          (4, 5, 7, 10, 11, 12)]],
    ),
}

SPORADIC_NAMES = tuple(sorted(_SPORADIC_TABLE))


def recipe_sporadic(name: str) -> Recipe:
    """One of the three tabulated sporadic switching sets.

    These carry no pairwise witnesses; non-isomorphism is proved at the
    cell vertices alone.
    """
    try:
        params, kind, cells = _SPORADIC_TABLE[name]
    except KeyError:
        raise ValueError(f"unknown sporadic name {name!r}; "
                         f"choose from {', '.join(SPORADIC_NAMES)}") from None
    idx_cells = [[_johnson_index(s, params.n) for s in cell] for cell in cells]
    if kind == "wqh":
        spec: GmSpec | WqhSpec = WqhSpec(idx_cells[0], idx_cells[1])
    else:
        spec = GmSpec(idx_cells)
    return Recipe(f"sporadic({name})", params, spec, (),
                  "tabulated switching sets")


def all_recipes() -> list[Recipe]:
    """The desk-scale corpus: one instance of each construction."""
    return [
        recipe_j2n4(8),
        recipe_halfrange_2kk(5),
        recipe_qkneser(4, 2),
        recipe_sporadic("J1-11-4"),
        recipe_sporadic("J24-10-5"),
        recipe_sporadic("J24-12-6"),
    ]


@dataclass(frozen=True)
class RecipeReport:
    recipe: Recipe
    graph: Graph
    mate: Graph
    validation_valid: bool
    wqh_constant: int | None
    cospectral_verdict: CospectralVerdict
    witness_results: tuple[WitnessResult, ...]
    noniso_verdict: NonIsoVerdict
    seed: int
    num_primes: int

    @property
    def passed(self) -> bool:
        return (self.validation_valid
                and self.cospectral_verdict.equal
                and all(w.passed for w in self.witness_results)
                and self.noniso_verdict.distinguished)

    def to_json_dict(self) -> dict:
        deg = self.graph.is_regular()
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "kind": "recipe",
            "recipe": {
                "name": self.recipe.name,
                "params": self.recipe.params.format(),
                "provenance": self.recipe.provenance,
            },
            "graph": {
                "n": self.graph.n,
                "m": self.graph.num_edges(),
                "regular_degree": deg,
            },
            "switching_spec": spec_to_json_dict(self.recipe.spec),
            "validation": {
                "valid": self.validation_valid,
                "wqh_constant": self.wqh_constant,
            },
            "cospectral": self.cospectral_verdict.to_json_dict(),
            "witnesses": [w.to_json_dict() for w in self.witness_results],
            "nonisomorphic": self.noniso_verdict.to_json_dict(),
            "seed": self.seed,
            "num_primes": self.num_primes,
            "passed": self.passed,
        }


def run_recipe(r: Recipe, num_primes: int = 3, seed: int = 0,
               budget: int = DEFAULT_NODE_BUDGET,
               cap: int = DEFAULT_VERTEX_CAP) -> RecipeReport:
    """Execute a recipe end to end; a failure carries the name of the stage
    it reached."""
    # imported per call, so perfbench's wrapper on schemes.build sees it
    from .schemes import build

    stage = "build"
    try:
        g = build(r.params, cap)
        stage = "validate"
        report = validate(g, r.spec)
        if not report.valid:
            raise ValueError(report.violations[0].message)
        stage = "switch"
        mate = apply_switching(g, r.spec)
        stage = "witnesses"
        wr = tuple(w.check(g, mate) for w in r.witnesses)
        stage = "certify"
        vertices = r.spec.all_vertices() + tuple(x for w in r.witnesses for x in w.vertices)
        nv = transitive_nonisomorphic(g, mate, vertices)
        if nv is None:
            nv = nonisomorphic(g, mate, budget)
    except Exception as exc:
        raise RecipeStageError(stage, exc)
    return RecipeReport(r, g, mate, report.valid, report.wqh_constant, _SWITCHING_VERDICT, wr,
                        nv, seed, num_primes)
