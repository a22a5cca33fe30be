"""Tests of the benchmark itself: which layers each workload reaches, that
the traced layers account for each item's wall time, and the run contract.

    python3 -m pytest perfbench/tests -q

Takes about a minute: one traced pass of every workload.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import suite
import tracing
import workloads
from spectral_switch import search, spectra

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

# Unattributed time an item may have: time inside the item's root span that
# no layer span covers (the benchmark's own glue between calls).
ADD_UP_SHARE = 0.01
ADD_UP_ABS_S = 0.001

# Span name -> workloads on which it must fire; it must not fire elsewhere.
FIRES_ON = {
    "spectra.charpoly_mod_p": {"corpus", "kneser63", "compare"},
    "spectra.cospectral": {"corpus", "kneser63", "compare"},
    "schemes.build": {"corpus", "kneser63", "search"},
    "schemes.enumerate_vertices": {"corpus", "kneser63", "search"},
    "switching.validate": {"corpus", "kneser63"},
    "switching.apply_switching": {"corpus", "kneser63", "search"},
    "certify.nonisomorphic": {"corpus", "kneser63", "compare"},
    "certify.lambda_profile": {"corpus", "kneser63", "compare"},
    "certify.vertex_lambda_colors": {"corpus", "search", "compare"},
    "certify.canonical_form": {"search"},
    "canon.canonical_labeling": {"corpus", "search", "compare"},
    "canon.canonical_form": {"search"},
    "canon.automorphism_generators": {"search"},
    "canon.wl1_histogram": {"corpus", "compare"},
    "search.search_gm4": {"search"},
    "search.search_wqh33": {"search"},
    "search.candidates": {"search"},
    "graphcore.decode_graph6": {"compare"},
    "families.ctor": {"corpus", "kneser63"},
    "families.run_recipe": {"corpus", "kneser63"},
}

# Items decided at each ladder rung in one pass.
RUNGS = {
    "corpus": {"edge-lambda": 5, "canonical-form": 1},
    "kneser63": {"nonedge-lambda": 1},
    "search": {},
    "compare": {"degree-seq": 4, "edge-lambda": 4, "canonical-form": 4},
}


@pytest.fixture(scope="module")
def traced():
    """One traced pass per workload: (spans, failures, metrics)."""
    out = {}
    for name, make in workloads.WORKLOADS.items():
        items = make(0)
        with tracing.Tracer() as tracer:
            _, _, failures = run.run_pass(items, 0, tracer)
        out[name] = (tracer.spans, failures,
                     tracing.layer_metrics(tracer.spans, 1, tracing.span_cost(1000)))
    return out


def test_every_output_check_passes(traced):
    for name, (_, failures, _) in traced.items():
        assert failures == [], name


def test_wrappers_are_removed_after_the_run(traced):
    assert not hasattr(spectra.charpoly_mod_p, "__wrapped__")
    assert not hasattr(search.canonical_form, "__wrapped__")


@pytest.mark.parametrize("span_name", sorted(FIRES_ON))
def test_span_fires_only_where_expected(traced, span_name):
    for name, (spans, _, _) in traced.items():
        calls = sum(1 for s in spans if s.name == span_name)
        if name in FIRES_ON[span_name]:
            assert calls > 0, f"{span_name} never fired on {name}"
        else:
            assert calls == 0, f"{span_name} fired {calls} times on {name}"


def test_canon_runs_on_corpus_only_for_qkneser_4_2(traced):
    spans, _, _ = traced["corpus"]
    items = {s.item for s in spans if s.name == "canon.canonical_labeling"}
    assert items == {"0/qkneser(4, 2)"}


def test_rung_counts(traced):
    for name, (_, _, metrics) in traced.items():
        got = {lvl: metrics[f"certify.rung.{lvl}"] for lvl in
               ("degree-seq", "edge-lambda", "nonedge-lambda", "wl1-histogram",
                "canonical-form")}
        want = {lvl: RUNGS[name].get(lvl, 0) for lvl in got}
        assert got == want, name


def test_layer_counts(traced):
    assert traced["kneser63"][2]["spectra.charpoly_calls"] == 2
    assert traced["kneser63"][2]["schemes.vertices"] == 1395
    assert traced["corpus"][2]["spectra.charpoly_calls"] == 36
    assert traced["search"][2]["search.cands"] == 52_360 + 2 * 560 * 560
    assert traced["search"][2]["search.specs_kept"] == 4
    # (a) and (b) pairs need all six calls, (c) pairs only the first prime's two
    assert traced["compare"][2]["spectra.useful_call_ratio"] == pytest.approx(56 / 72)
    for name, (_, _, metrics) in traced.items():
        assert metrics["canon.budget_exhausted"] == 0, name


def test_self_times_add_up_to_item_wall(traced):
    for name, (spans, _, _) in traced.items():
        for item, rec in tracing.item_breakdown(spans).items():
            layers = sum(rec["layers"].values())
            assert all(v >= 0 for v in rec["layers"].values()), (name, item)
            assert layers + rec["unattributed"] == pytest.approx(rec["wall"], abs=1e-9)
            assert rec["unattributed"] <= ADD_UP_SHARE * rec["wall"] + ADD_UP_ABS_S, \
                (name, item, rec)


def test_layer_self_metrics_add_up_to_traced_wall(traced):
    parts = ("graphcore.decode_s", "schemes.self_s", "switching.self_s", "spectra.self_s",
             "certify.self_s", "canon.self_s", "families.self_s", "search.self_s",
             "trace.unattributed_s")
    for name, (_, _, metrics) in traced.items():
        total = sum(metrics[k] for k in parts)
        assert total == pytest.approx(metrics["trace.wall_s"], rel=1e-9), name


def test_metric_names_match_benchmark_json(traced):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [m["name"] for m in bench["per_layer"]] == list(tracing.PER_LAYER_UNITS)
    assert [m["unit"] for m in bench["per_layer"]] == list(tracing.PER_LAYER_UNITS.values())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    for _, _, metrics in traced.values():
        assert list(metrics) == list(tracing.PER_LAYER_UNITS)


def test_same_seed_same_inputs():
    assert workloads.compare_pairs(3) == workloads.compare_pairs(3)
    assert workloads.compare_pairs(3) != workloads.compare_pairs(4)


def test_isomorphic_pairs_draw_a_relabeling_per_pass():
    for item_id, kind, variants in workloads.compare_pairs(0):
        want = workloads.ISO_RELABELINGS if kind == "b" else 1
        assert len(set(variants)) == want, item_id


def test_pooled_tail_keeps_ten_samples_beyond():
    xs = [float(i) for i in range(1, 21)]
    value, pct, n = suite.pooled_tail(xs)
    assert (value, n) == (10.0, 20)
    assert sum(x > value for x in xs) == 10
    assert suite.pooled_tail(xs[:10]) is None


def test_last_line_is_the_result():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
    for name, unit in run.END_TO_END_UNITS.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
