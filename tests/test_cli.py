"""End-to-end CLI tests driven in process through main(argv)."""

import json
from importlib import resources

import jsonschema
import pytest

from spectral_switch import cli
from spectral_switch.families import recipe_j2n4, run_recipe
from spectral_switch.graphcore import decode_graph6, encode_graph6, Graph
from spectral_switch.schemes import SchemeParams, build
from spectral_switch.switching import apply_switching, spec_to_json_dict


SCHEMA = json.loads(
    resources.files("spectral_switch").joinpath("schemas/report.schema.json").read_text())


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version():
    with pytest.raises(SystemExit) as e:
        cli.main(["--version"])
    assert e.value.code == 0


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == cli.EXIT_USAGE
    assert "invalid choice" in err


def test_build_stats_line(capsys):
    code, out, _ = run(capsys, "build", "J{2}(8,4)")
    assert code == 0
    assert out.strip() == "n=70 m=1260 k-regular=36"


def test_build_graph6_roundtrip(tmp_path, capsys):
    path = tmp_path / "g.g6"
    code, _, _ = run(capsys, "build", "J{0}(5,2)", "--out", str(path))
    assert code == 0
    # graph6 carries adjacency only, labels are dropped
    decoded = decode_graph6(path.read_bytes().strip())
    assert decoded.rows == build(SchemeParams.parse("J{0}(5,2)")).rows


def test_build_json_roundtrip(tmp_path, capsys):
    path = tmp_path / "g.json"
    code, _, _ = run(capsys, "build", "J{0}(5,2)", "--out", str(path),
                     "--format", "json")
    assert code == 0
    g = Graph.from_json_dict(json.loads(path.read_text()))
    assert g == build(SchemeParams.parse("J{0}(5,2)"))


def test_build_bad_params(capsys):
    code, _, err = run(capsys, "build", "J{}(8,4)")
    assert code == cli.EXIT_INVALID_SPEC
    assert "error:" in err
    code, _, err = run(capsys, "build", "Jq{0}(4,2;q=6)")
    assert code == cli.EXIT_INVALID_SPEC


def test_cap_flag_and_env(capsys):
    code, _, err = run(capsys, "build", "J{0}(40,20)", "--cap", "1000")
    assert code == cli.EXIT_CAP
    assert "cap" in err
    code, _, _ = run(capsys, "build", "J{2}(8,4)", "--cap", "100")
    assert code == 0


def test_charpoly_size_limit_exit_code(capsys, monkeypatch):
    from spectral_switch import spectra

    monkeypatch.setattr(spectra, "MAX_CHARPOLY_N", 5)
    code, _, err = run(capsys, "spectrum", "--graph", "J{0}(5,2)")
    assert code == cli.EXIT_CHARPOLY_SIZE == 5
    assert "charpoly size limit" in err
    # a recipe's pair is proved cospectral by its switching matrix, so the
    # charpoly limit never applies to it
    code, out, _ = run(capsys, "recipe", "j2n4", "--n", "8")
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["cospectral"]["method"] == "switching"


def test_missing_graph_file(capsys):
    code, _, err = run(capsys, "spectrum", "--graph", "no-such-file.g6")
    assert code == cli.EXIT_USAGE
    assert "neither parseable" in err


@pytest.mark.parametrize("argv", [
    ("switch", "--spec", "unused.json", "--graph"),
    ("verify", "--spec", "unused.json", "--graph"),
    ("search", "--mode", "gm4", "--graph"),
    ("spectrum", "--graph"),
    ("spectrum", "--graph", "J{0}(5,2)", "--compare"),
], ids=["switch", "verify", "search", "spectrum-graph", "spectrum-compare"])
def test_graph_argument_errors_exit_as_build_does(capsys, argv):
    """A scheme string with invalid values exits 2 with SchemeParams' own
    message, as build does; a string that is neither a scheme string nor a
    file exits 1."""
    for text, message in (("J{9}(8,4)", "S=[9] must be a subset of 0..3"),
                          ("Jq{0}(4,2;q=6)", "unsupported q=6"),
                          ("J{1 2}(8,4)", "S takes integers separated by commas"),
                          ("J{1,,2}(8,4)", "S takes integers separated by commas"),
                          ("J{2,}(8,4)", "S takes integers separated by commas")):
        code, _, err = run(capsys, "build", text)
        assert code == cli.EXIT_INVALID_SPEC and message in err
        assert run(capsys, *argv, text) == (code, "", err)
    code, _, err = run(capsys, *argv, "J{2}[8,4]")
    assert code == cli.EXIT_USAGE
    assert "neither parseable" in err


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec_to_json_dict(spec)))
    return str(path)


def test_switch_applies_and_writes(tmp_path, capsys):
    spec_path = write_spec(tmp_path, recipe_j2n4(8).spec)
    out_path = tmp_path / "mate.g6"
    code, out, _ = run(capsys, "switch", "--graph", "J{2}(8,4)",
                       "--spec", spec_path, "--out", str(out_path))
    assert code == 0
    assert out.strip() == "n=70 m=1260 k-regular=36"
    g = build(SchemeParams.parse("J{2}(8,4)"))
    mate = apply_switching(g, recipe_j2n4(8).spec)
    assert decode_graph6(out_path.read_bytes().strip()).rows == mate.rows


@pytest.mark.parametrize("command", ["switch", "verify"])
def test_cli_validates_spec_once(tmp_path, capsys, validations, command):
    spec_path = write_spec(tmp_path, recipe_j2n4(8).spec)
    code, _, _ = run(capsys, command, "--graph", "J{2}(8,4)", "--spec", spec_path)
    assert code == 0
    assert validations == ["WqhSpec"]


def test_switch_invalid_spec(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"gm": {"cells": [[0, 1, 2, 3]]}}))
    code, _, err = run(capsys, "switch", "--graph", "J{2}(8,4)", "--spec", str(path))
    assert code == cli.EXIT_INVALID_SPEC
    assert "violation" in err


def test_switch_malformed_spec_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "switch", "--graph", "J{2}(8,4)", "--spec", str(path))
    assert code == cli.EXIT_INVALID_SPEC
    assert "not valid JSON" in err


@pytest.mark.parametrize("body, message", [
    ('{"gm": 5}', "gm spec needs a 'cells' list"),
    ('{"wqh": {"c1": [1,2,3], "c2": 5}}', "a spec cell must be a list"),
    ('{"gm": {"cells": [5]}}', "a spec cell must be a list"),
    ('{"gm": {"cells": [[null, 2]]}}', "spec vertex None is not an integer"),
    ('{"gm": {"cells": [[0.9, 1.2], [2, 3]]}}', "spec vertex 0.9 is not an integer"),
    ('{"gm": {"cells": [[true, 2]]}}', "spec vertex True is not an integer"),
    ('{"gm": {"cells": [[0, 1]], "x": 1}}', "gm spec has unknown keys 'x'"),
    ('{"wqh": {"c1": [0], "c2": [1], "c3": [2]}}', "wqh spec has unknown keys 'c3'"),
])
def test_malformed_spec_body_is_invalid(tmp_path, capsys, body, message):
    """A spec file of the wrong shape exits 2 with a message, neither with a
    traceback nor after reading float or bool entries as other vertices."""
    path = tmp_path / "spec.json"
    path.write_text(body)
    for command in ("switch", "verify"):
        code, out, err = run(capsys, command, "--graph", "J{2}(8,4)", "--spec", str(path))
        assert (code, out) == (cli.EXIT_INVALID_SPEC, "") and message in err


@pytest.mark.parametrize("body", [
    '{"n": 3, "edges": [[0.5, 1.7]]}',
    '{"n": 3.9, "edges": []}',
])
def test_graph_json_with_non_integers_is_malformed(tmp_path, capsys, body):
    path = tmp_path / "g.json"
    path.write_text(body)
    code, out, err = run(capsys, "spectrum", "--graph", str(path))
    assert (code, out) == (cli.EXIT_USAGE, "") and "malformed graph JSON" in err


@pytest.mark.parametrize("labels", ["5", '"ab"', '[null, {"x": 1}]', '["a", "b"]'])
def test_graph_json_with_bad_labels_is_malformed(tmp_path, capsys, labels):
    """Labels are absent, null or a list of n strings; a number, a string or
    a list of other values or of another length is refused, not coerced."""
    path = tmp_path / "g.json"
    path.write_text(f'{{"n": 3, "edges": [[0, 1]], "labels": {labels}}}')
    spec = write_spec(tmp_path, recipe_j2n4(8).spec)
    code, out, err = run(capsys, "switch", "--graph", str(path), "--spec", spec)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert "malformed graph JSON: labels must be null or a list of 3 strings" in err


@pytest.mark.parametrize("fmt", ["json", "graph6"])
def test_cap_bounds_graph_files(tmp_path, capsys, fmt):
    """A graph file over --cap exits 4 with a message naming the file, its
    vertex count and the cap, like a scheme string over the cap."""
    g = Graph.from_edges(200, [(v, v + 1) for v in range(199)])
    path = tmp_path / f"g.{fmt}"
    cli._write_graph(g, str(path), fmt)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"gm": {"cells": [[0, 2]]}}))
    code, out, err = run(capsys, "switch", "--graph", str(path), "--spec", str(spec),
                         "--cap", "10")
    assert (code, out) == (cli.EXIT_CAP, "")
    assert err == f"error: {path}: graph has 200 vertices, exceeding the cap 10\n"
    code, _, _ = run(capsys, "switch", "--graph", str(path), "--spec", str(spec),
                     "--cap", "200")
    assert code == 0


def test_cap_read_before_a_json_graph_is_built(tmp_path, capsys):
    """A 34-byte file claiming 10^12 vertices is refused by the default cap
    before a row is allocated."""
    path = tmp_path / "huge.json"
    path.write_text('{"n": 1000000000000, "edges": []}')
    code, out, err = run(capsys, "spectrum", "--graph", str(path))
    assert (code, out) == (cli.EXIT_CAP, "")
    assert "graph has 1000000000000 vertices, exceeding the cap 100000" in err


def test_verify_passing(tmp_path, capsys):
    spec_path = write_spec(tmp_path, recipe_j2n4(8).spec)
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--graph", "J{2}(8,4)",
                       "--spec", spec_path, "--report", str(report_path))
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["passed"] is True
    assert doc["validation"]["valid"] is True
    assert doc["cospectral"]["equal"] is True
    assert doc["cospectral"]["method"] == "switching"
    assert doc["nonisomorphic"]["distinguished"] is True
    assert json.loads(report_path.read_text()) == doc


def test_the_switch_runs_once(tmp_path, capsys, monkeypatch):
    """recipe and verify take the cospectral verdict from the switch that
    built the mate, so each forms Q^T A Q exactly once."""
    from spectral_switch import switching

    calls = []
    real = switching._conjugate
    monkeypatch.setattr(switching, "_conjugate",
                        lambda g, spec: calls.append(spec) or real(g, spec))
    r = recipe_j2n4(8)
    assert run_recipe(r).cospectral_verdict.method == "switching"
    assert calls == [r.spec]
    calls.clear()
    code, out, _ = run(capsys, "verify", "--graph", r.params.format(),
                       "--spec", write_spec(tmp_path, r.spec))
    assert code == 0 and json.loads(out)["cospectral"]["method"] == "switching"
    assert calls == [r.spec]


def test_verify_proves_a_scheme_graph_at_its_cells_and_a_file_by_the_ladder(
        tmp_path, capsys):
    """A scheme string's graph is vertex-transitive, so verify compares
    vertex 0 with the cell vertices; a graph file gets the ladder."""
    spec_path = write_spec(tmp_path, recipe_j2n4(8).spec)
    gpath = tmp_path / "j284.g6"
    gpath.write_bytes(encode_graph6(build(SchemeParams.parse("J{2}(8,4)"))))
    levels = []
    for graph in ("J{2}(8,4)", str(gpath)):
        code, out, _ = run(capsys, "verify", "--graph", graph, "--spec", spec_path)
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["nonisomorphic"]["distinguished"] is True
        levels.append(doc["nonisomorphic"]["level"])
    assert levels == ["transitive-lambda", "edge-lambda"]


def test_verify_identity_switch_is_inconclusive(tmp_path, capsys):
    # on the edgeless graph the switch does nothing: valid, cospectral,
    # but certifiably isomorphic
    gpath = tmp_path / "empty.json"
    gpath.write_text(json.dumps({"n": 8, "edges": []}))
    spath = tmp_path / "spec.json"
    spath.write_text(json.dumps({"gm": {"cells": [[0, 1, 2, 3]]}}))
    code, out, _ = run(capsys, "verify", "--graph", str(gpath), "--spec", str(spath))
    assert code == cli.EXIT_INCONCLUSIVE
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["passed"] is False
    assert doc["nonisomorphic"]["distinguished"] is False
    assert doc["nonisomorphic"]["isomorphism"] == list(range(8))


def test_verify_invalid_spec(tmp_path, capsys):
    spath = tmp_path / "spec.json"
    spath.write_text(json.dumps({"gm": {"cells": [[0, 1, 2, 3]]}}))
    code, out, _ = run(capsys, "verify", "--graph", "J{2}(8,4)", "--spec", str(spath))
    assert code == cli.EXIT_INVALID_SPEC
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["validation"]["valid"] is False
    assert doc["validation"]["violations"]


def test_recipe_command(tmp_path, capsys):
    report_path = tmp_path / "r.json"
    code, out, _ = run(capsys, "recipe", "j2n4", "--n", "8",
                       "--report", str(report_path))
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["kind"] == "recipe"
    assert doc["passed"] is True
    assert doc["recipe"]["name"] == "j2n4(n=8)"


def test_recipe_stage_failures_exit_by_cause(capsys, monkeypatch):
    from spectral_switch import families

    code, _, err = run(capsys, "recipe", "j2n4", "--n", "8", "--cap", "10")
    assert code == cli.EXIT_CAP
    assert err.startswith("error: stage build: ")

    # a stage failing with an exception outside the table exits 2
    def broken(*args):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(families, "transitive_nonisomorphic", broken)
    code, _, err = run(capsys, "recipe", "j2n4", "--n", "8")
    assert code == cli.EXIT_INVALID_SPEC
    assert err.startswith("error: stage certify: boom")


def test_recipe_usage_errors(capsys):
    code, _, err = run(capsys, "recipe", "j2n4")
    assert code == cli.EXIT_USAGE and "--n" in err
    code, _, err = run(capsys, "recipe", "sporadic")
    assert code == cli.EXIT_USAGE and "J24-10-5" in err
    code, _, err = run(capsys, "recipe", "j2n4", "--n", "7")
    assert code == cli.EXIT_INVALID_SPEC
    code, _, err = run(capsys, "recipe", "sporadic", "--name", "bogus")
    assert code == cli.EXIT_INVALID_SPEC
    code, _, _ = run(capsys, "recipe", "j2n4", "--n", "8", "--cap", "10")
    assert code == cli.EXIT_CAP


def test_search_gm4_json(capsys):
    code, out, _ = run(capsys, "search", "--mode", "gm4",
                       "--graph", "Jq{0}(4,2;q=2)", "--no-dedup")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["kind"] == "search" and doc["mode"] == "gm4"
    assert len(doc["specs"]) == 840
    assert not doc["partial"]
    assert {"gm": {"cells": [[0, 10, 16, 28]]}} in doc["specs"]


def test_search_wqh33_pattern(capsys):
    code, out, _ = run(capsys, "search", "--mode", "wqh33",
                       "--graph", "J{2}(8,4)", "--pattern", "core", "--no-dedup")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["specs"]) == 280
    want = spec_to_json_dict(recipe_j2n4(8).spec)
    key = {frozenset(map(frozenset, (s["wqh"]["c1"], s["wqh"]["c2"])))
           for s in doc["specs"]}
    assert frozenset(map(frozenset, (want["wqh"]["c1"], want["wqh"]["c2"]))) in key


def test_search_wqh33_candidates_file(tmp_path, capsys):
    r = recipe_j2n4(8)
    cands = tmp_path / "c.json"
    cands.write_text(json.dumps([list(r.spec.c1), list(r.spec.c2)]))
    code, out, _ = run(capsys, "search", "--mode", "wqh33", "--graph", "J{2}(8,4)",
                       "--candidates", str(cands), "--no-dedup")
    assert code == 0
    assert len(json.loads(out)["specs"]) == 1


@pytest.mark.parametrize("flag", ["--limit", "--budget"])
def test_search_nonpositive_budget_is_usage_error(capsys, flag):
    code, out, err = run(capsys, "search", "--mode", "gm4",
                         "--graph", "Jq{0}(4,2;q=2)", flag, "0")
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == "error: budgets must be positive\n"


def test_search_nan_budget_is_usage_error(capsys):
    """A NaN time budget would never run out: it is refused like 0."""
    code, out, err = run(capsys, "search", "--mode", "gm4",
                         "--graph", "Jq{0}(4,2;q=2)", "--budget", "nan")
    assert (code, out, err) == (cli.EXIT_USAGE, "", "error: budgets must be positive\n")


@pytest.mark.parametrize("value", ["0", "-2"])
@pytest.mark.parametrize("command", [
    ("verify", "--graph", "J{2}(8,4)", "--spec", "spec.json"),
    ("recipe", "j2n4", "--n", "8"),
    ("spectrum", "--graph", "J{2}(8,4)"),
], ids=["verify", "recipe", "spectrum"])
def test_nonpositive_primes_is_usage_error(capsys, command, value):
    code, out, err = run(capsys, *command, "--primes", value)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert f"error: argument --primes: need at least one prime, got '{value}'" in err


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command, flag, noun", [
    (("build", "J{2}(8,4)"), "--cap", "vertex"),
    (("switch", "--graph", "J{2}(8,4)", "--spec", "spec.json"), "--cap", "vertex"),
    (("verify", "--graph", "J{2}(8,4)", "--spec", "spec.json"), "--cap", "vertex"),
    (("recipe", "qkneser", "--n", "4", "--k", "2"), "--cap", "vertex"),
    (("search", "--mode", "gm4", "--graph", "J{2}(8,4)"), "--cap", "vertex"),
    (("spectrum", "--graph", "J{2}(8,4)"), "--cap", "vertex"),
    (("verify", "--graph", "J{2}(8,4)", "--spec", "spec.json"), "--budget", "node"),
    (("recipe", "qkneser", "--n", "4", "--k", "2"), "--budget", "node"),
], ids=["build-cap", "switch-cap", "verify-cap", "recipe-cap", "search-cap",
        "spectrum-cap", "verify-budget", "recipe-budget"])
def test_nonpositive_cap_or_node_budget_is_usage_error(capsys, command, flag, noun, value):
    code, out, err = run(capsys, *command, flag, value)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert f"error: argument {flag}: need at least one {noun}, got '{value}'" in err


@pytest.mark.parametrize("content, message", [
    ("[1, 2, 3]", "candidate triple 1 invalid for n=70"),
    ('[["a", "b", "c"]]', "candidate triple ['a', 'b', 'c'] invalid for n=70"),
    ('{"c1": [1, 2, 3]}', "c.json: not a JSON list of candidate triples"),
])
def test_search_malformed_candidates_file_is_invalid(tmp_path, capsys, content, message):
    cands = tmp_path / "c.json"
    cands.write_text(content)
    code, out, err = run(capsys, "search", "--mode", "wqh33", "--graph", "J{2}(8,4)",
                         "--candidates", str(cands))
    assert code == cli.EXIT_INVALID_SPEC
    assert out == ""
    assert err.startswith("error: ") and err.endswith(f"{message}\n")


def test_search_stopped_by_budget_is_inconclusive(capsys):
    code, out, err = run(capsys, "search", "--mode", "gm4",
                         "--graph", "Jq{0}(4,2;q=2)", "--limit", "100")
    assert code == cli.EXIT_INCONCLUSIVE
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["partial"] is True
    assert err == "search budget reached: --limit 100, --budget 300.0 s\n"


def test_search_blocks_pattern_names_its_need(capsys):
    code, out, err = run(capsys, "search", "--mode", "wqh33", "--graph", "J{2}(8,4)",
                         "--pattern", "blocks")
    assert code == cli.EXIT_INVALID_SPEC
    assert out == ""
    assert err == ("error: the blocks pattern needs n >= 3(k-1) + 1 = 10 "
                   "for k=4, got n=8\n")


def test_search_wqh33_needs_candidates_for_plain_files(tmp_path, capsys):
    path = tmp_path / "g.g6"
    run(capsys, "build", "J{2}(8,4)", "--out", str(path))
    code, _, err = run(capsys, "search", "--mode", "wqh33", "--graph", str(path))
    assert code == cli.EXIT_USAGE
    assert "--candidates" in err


def test_search_wqh33_pattern_needs_johnson(capsys):
    code, _, err = run(capsys, "search", "--mode", "wqh33", "--graph", "Jq{0}(4,2;q=2)")
    assert code == cli.EXIT_USAGE
    assert "johnson" in err


def test_spectrum_signature_and_compare(tmp_path, capsys):
    path = tmp_path / "p.g6"
    run(capsys, "build", "J{0}(5,2)", "--out", str(path))
    code, out, _ = run(capsys, "spectrum", "--graph", "J{0}(5,2)",
                       "--compare", str(path), "--eigenvalues")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["kind"] == "spectrum"
    assert doc["signature"]["n"] == 10
    assert len(doc["signature"]["primes"]) == 3
    assert len(doc["eigenvalues_float"]) == 10
    assert max(doc["eigenvalues_float"]) == pytest.approx(3.0)
    assert doc["cospectral"]["equal"] is True
    assert doc["cospectral"]["method"] == "minimal-polynomial"
    assert doc["cospectral"]["error_bound"] == 0


@pytest.mark.parametrize("other_edges,equal", [
    ([(3, 1), (1, 0), (0, 2)], True),  # P4 relabeled: agrees at every prime
    ([(0, 1), (1, 2), (2, 3), (3, 0)], False),  # C4: separated at the first
])
def test_spectrum_compare_computes_each_charpoly_once(tmp_path, capsys, monkeypatch,
                                                       other_edges, equal):
    from spectral_switch import spectra

    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])  # irrational spectrum
    other = Graph.from_edges(4, other_edges)
    paths = []
    for name, g in (("p4.g6", p4), ("other.g6", other)):
        paths.append(tmp_path / name)
        paths[-1].write_bytes(encode_graph6(g) + b"\n")
    calls = []
    real = spectra.charpoly_mod_p
    monkeypatch.setattr(spectra, "charpoly_mod_p",
                        lambda g, p: calls.append((g.rows, p)) or real(g, p))
    code, out, _ = run(capsys, "spectrum", "--graph", str(paths[0]),
                       "--compare", str(paths[1]))
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["cospectral"]["method"] == "charpoly"
    assert doc["cospectral"]["equal"] is equal
    primes = tuple(doc["signature"]["primes"])
    used = tuple(doc["cospectral"]["primes_used"])
    assert used == (primes if equal else primes[:1])
    assert sorted(calls) == sorted([(p4.rows, p) for p in primes]
                                   + [(other.rows, p) for p in used])
