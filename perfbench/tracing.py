"""Spans recorded from outside the program, around calls into its modules.

The tracer replaces a public function on the module attribute its caller
actually looks up (``families.cospectral``, ``spectra.charpoly_mod_p``,
``schemes.build`` which ``run_recipe`` imports at call time, ...) with a
wrapper that records one span per call: name, start, end, parent span and
item id. Spans stay in memory; the runner writes them out when the run ends.

Nothing is computed from a call's arguments or result while the clock runs:
the wrapper keeps references to the ones the per-layer counts need and
``layer_metrics`` reads them after the run.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from math import comb

from spectral_switch import (
    canon,
    certify,
    families,
    graphcore,
    schemes,
    search,
    spectra,
)

# Spans whose arguments or result feed a per-layer count.
_KEEP_ARGS = {"graphcore.decode_graph6", "spectra.charpoly_mod_p", "search.search_gm4",
              "search.search_wqh33"}
_KEEP_RESULT = {"schemes.build", "spectra.cospectral", "certify.nonisomorphic",
                "search.search_gm4", "search.search_wqh33"}

# (module, attribute the caller looks up, span name). A function reached
# through several names gets one wrapper per name, all with one span name.
SITES = (
    (families, "recipe_j2n4", "families.ctor"),
    (families, "recipe_halfrange_2kk", "families.ctor"),
    (families, "recipe_qkneser", "families.ctor"),
    (families, "recipe_sporadic", "families.ctor"),
    (families, "run_recipe", "families.run_recipe"),
    (schemes, "build", "schemes.build"),
    (schemes, "enumerate_vertices", "schemes.enumerate_vertices"),
    (families, "enumerate_vertices", "schemes.enumerate_vertices"),
    (families, "validate", "switching.validate"),
    (families, "apply_switching", "switching.apply_switching"),
    (search, "apply_switching", "switching.apply_switching"),
    (families, "cospectral", "spectra.cospectral"),
    (spectra, "cospectral", "spectra.cospectral"),
    (spectra, "charpoly_mod_p", "spectra.charpoly_mod_p"),
    (families, "nonisomorphic", "certify.nonisomorphic"),
    (certify, "nonisomorphic", "certify.nonisomorphic"),
    (certify, "lambda_profile", "certify.lambda_profile"),
    (search, "lambda_profile", "certify.lambda_profile"),
    (certify, "vertex_lambda_colors", "certify.vertex_lambda_colors"),
    (search, "vertex_lambda_colors", "certify.vertex_lambda_colors"),
    (search, "canonical_form", "certify.canonical_form"),
    (certify, "wl1_histogram", "canon.wl1_histogram"),
    (certify, "canonical_labeling", "canon.canonical_labeling"),
    (canon, "canonical_labeling", "canon.canonical_labeling"),
    (canon, "canonical_form", "canon.canonical_form"),
    (search, "automorphism_generators", "canon.automorphism_generators"),
    (search, "search_gm4", "search.search_gm4"),
    (search, "search_wqh33", "search.search_wqh33"),
    (search, "johnson_core_triples", "search.candidates"),
    (search, "johnson_block_triples", "search.candidates"),
    (graphcore, "decode_graph6", "graphcore.decode_graph6"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans; None for an item root
    item: str
    error: str | None = None
    args: tuple | None = None
    result: object = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "item": self.item, "error": self.error}


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _item: str = ""
    _saved: list = field(default_factory=list)

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self._item))
        self._stack.append(idx)
        return idx

    def wrap(self, name: str, fn):
        keep_args = name in _KEEP_ARGS
        keep_result = name in _KEEP_RESULT
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            idx = self._open(name)
            span = spans[idx]
            if keep_args:
                span.args = args
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.error = type(exc).__name__
                stack.pop()
                raise
            span.end = time.perf_counter()
            stack.pop()
            if keep_result:
                span.result = out
            return out

        traced.__wrapped__ = fn
        return traced

    def item(self, item_id: str, fn):
        """Run fn() as one item under a root span named "item"."""
        self._item = item_id
        idx = self._open("item")
        span = self.spans[idx]
        span.start = time.perf_counter()
        try:
            return fn()
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._item = ""

    # -- installation ----------------------------------------------------

    def __enter__(self):
        """Install a wrapper on every site; leaving the block restores them."""
        for module, attr, name in SITES:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        return False


def span_cost(calls: int = 20_000) -> float:
    """Seconds one wrapper adds to a call, measured on a no-op."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("bench.noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - t0
    return max(traced - bare, 0.0) / calls


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls are synchronous, so children of one span never overlap and their
    durations can be summed.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def item_breakdown(spans: list[Span]) -> dict[str, dict]:
    """Per item: wall time, self time per layer, and the unattributed rest."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s, st in zip(spans, selfs):
        rec = out.setdefault(s.item, {"wall": 0.0, "layers": {}, "unattributed": 0.0})
        if s.name == "item":
            rec["wall"] += s.duration
            rec["unattributed"] += st
        else:
            rec["layers"][s.layer] = rec["layers"].get(s.layer, 0.0) + st
    return out


def _needed_calls(verdict) -> int:
    """Charpoly calls needed to reach a cospectral verdict: all of them for
    an equal pair, two per prime up to the first disagreeing one otherwise."""
    if verdict.equal:
        return 2 * len(verdict.primes_used)
    p, _ = verdict.first_disagreeing_coefficient
    return 2 * (verdict.primes_used.index(p) + 1)


def _search_cands(span: Span) -> int:
    if span.name == "search.search_gm4":
        return comb(span.args[0].n, 4)
    return len(span.args[1]) * len(span.args[2])


PER_LAYER_UNITS = {
    "spectra.cospectral_s": "s",
    "spectra.charpoly_s": "s",
    "spectra.charpoly_calls": "count",
    "spectra.charpoly_per_call_s": "s",
    "spectra.useful_call_ratio": "ratio",
    "spectra.self_s": "s",
    "schemes.build_s": "s",
    "schemes.build_calls": "count",
    "schemes.enumerate_s": "s",
    "schemes.vertices": "count",
    "schemes.edges": "count",
    "schemes.self_s": "s",
    "switching.validate_s": "s",
    "switching.apply_s": "s",
    "switching.apply_calls": "count",
    "switching.self_s": "s",
    "certify.nonisomorphic_s": "s",
    "certify.lambda_profile_s": "s",
    "certify.vertex_colors_s": "s",
    "certify.self_s": "s",
    **{f"certify.rung.{lvl}": "count" for lvl in certify.LADDER_LEVELS},
    "canon.wl1_s": "s",
    "canon.labeling_s": "s",
    "canon.labeling_calls": "count",
    "canon.autgens_s": "s",
    "canon.form_s": "s",
    "canon.budget_exhausted": "count",
    "canon.self_s": "s",
    "search.self_s": "s",
    "search.cands": "count",
    "search.specs_kept": "count",
    "search.kept_per_cand": "ratio",
    "search.cands_per_s": "1/s",
    "graphcore.decode_s": "s",
    "graphcore.g6_bytes": "bytes",
    "families.ctor_s": "s",
    "families.self_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[Span], passes: int, cost_per_span: float) -> dict[str, float]:
    """Per-layer metrics, each a total over the run divided by its passes."""
    selfs = self_times(spans)

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def count(name):
        return sum(1 for s in spans if s.name == name)

    def layer_self(layer):
        return sum(st for s, st in zip(spans, selfs) if s.layer == layer)

    charpolys = [s for s in spans if s.name == "spectra.charpoly_mod_p"]
    largest_n = max((s.args[0].n for s in charpolys), default=0)
    at_largest = [s.duration for s in charpolys if s.args[0].n == largest_n]
    made: dict[int, int] = {}  # cospectral span index -> charpoly calls under it
    for s in charpolys:
        anc = _enclosing(spans, s, "spectra.cospectral")
        if anc is not None and spans[anc].result is not None:
            made[anc] = made.get(anc, 0) + 1
    needed = sum(_needed_calls(spans[i].result) for i in made)
    builds = [s for s in spans if s.name == "schemes.build" and s.result is not None]
    rungs = {lvl: 0 for lvl in certify.LADDER_LEVELS}
    for s in spans:
        if s.name == "certify.nonisomorphic" and s.result is not None:
            if s.result.distinguished or s.result.isomorphism is not None:
                rungs[s.result.level] += 1
    # the two calls that run the canonical search; outer spans re-raise theirs
    exhausted = sum(1 for s in spans if s.error == "BudgetExhaustedError"
                    and s.name in ("canon.canonical_labeling",
                                   "canon.automorphism_generators"))
    scans = ("search.search_gm4", "search.search_wqh33")
    searches = [s for s in spans if s.name in scans]
    cands = sum(_search_cands(s) for s in searches if not s.result.partial)
    kept = sum(len(s.result.specs) for s in searches)
    scan_self = sum(st for s, st in zip(spans, selfs) if s.name in scans)
    items = [s for s in spans if s.name == "item"]

    raw = {
        "spectra.cospectral_s": total("spectra.cospectral"),
        "spectra.charpoly_s": total("spectra.charpoly_mod_p"),
        "spectra.charpoly_calls": len(charpolys),
        "spectra.self_s": layer_self("spectra"),
        "schemes.build_s": total("schemes.build"),
        "schemes.build_calls": count("schemes.build"),
        "schemes.enumerate_s": total("schemes.enumerate_vertices"),
        "schemes.vertices": sum(s.result.n for s in builds),
        "schemes.edges": sum(s.result.num_edges() for s in builds),
        "schemes.self_s": layer_self("schemes"),
        "switching.validate_s": total("switching.validate"),
        "switching.apply_s": total("switching.apply_switching"),
        "switching.apply_calls": count("switching.apply_switching"),
        "switching.self_s": layer_self("switching"),
        "certify.nonisomorphic_s": total("certify.nonisomorphic"),
        "certify.lambda_profile_s": total("certify.lambda_profile"),
        "certify.vertex_colors_s": total("certify.vertex_lambda_colors"),
        "certify.self_s": layer_self("certify"),
        **{f"certify.rung.{lvl}": c for lvl, c in rungs.items()},
        "canon.wl1_s": total("canon.wl1_histogram"),
        "canon.labeling_s": total("canon.canonical_labeling"),
        "canon.labeling_calls": count("canon.canonical_labeling"),
        "canon.autgens_s": total("canon.automorphism_generators"),
        "canon.form_s": total("canon.canonical_form"),
        "canon.budget_exhausted": exhausted,
        "canon.self_s": layer_self("canon"),
        "search.self_s": layer_self("search"),
        "search.cands": cands,
        "search.specs_kept": kept,
        "graphcore.decode_s": total("graphcore.decode_graph6"),
        "graphcore.g6_bytes": sum(len(s.args[0]) for s in spans
                                  if s.name == "graphcore.decode_graph6"),
        "families.ctor_s": total("families.ctor"),
        "families.self_s": layer_self("families"),
        "trace.wall_s": sum(s.duration for s in items),
        "trace.unattributed_s": sum(st for s, st in zip(spans, selfs) if s.name == "item"),
        "trace.spans": len(spans) - len(items),
        "trace.overhead_s": (len(spans) - len(items)) * cost_per_span,
    }
    out = {k: v / passes for k, v in raw.items()}
    # ratios and per-call figures are not divided by the pass count
    out["spectra.charpoly_per_call_s"] = statistics.median(at_largest) if at_largest else 0.0
    out["spectra.useful_call_ratio"] = needed / sum(made.values()) if made else 0.0
    out["search.kept_per_cand"] = kept / cands if cands else 0.0
    out["search.cands_per_s"] = cands / scan_self if cands and scan_self > 0 else 0.0
    return {k: out[k] for k in PER_LAYER_UNITS}


def _enclosing(spans: list[Span], span: Span, name: str) -> int | None:
    """Index of the nearest ancestor of span with the given name."""
    p = span.parent
    while p is not None:
        if spans[p].name == name:
            return p
        p = spans[p].parent
    return None
