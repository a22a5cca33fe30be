"""Recipe construction, witness checks, and end-to-end report shape."""

import dataclasses
import json
from importlib import resources

import jsonschema
import pytest

from spectral_switch.certify import LADDER_LEVELS
from spectral_switch.families import (
    AddedLostCount,
    CommonNeighborChange,
    CommonNeighborFloor,
    Recipe,
    RecipeStageError,
    SPORADIC_NAMES,
    SelectiveTriple,
    WitnessResult,
    all_recipes,
    recipe_halfrange_2kk,
    recipe_j2n4,
    recipe_qkneser,
    recipe_sporadic,
    run_recipe,
)
from spectral_switch.graphcore import Graph
from spectral_switch.schemes import (
    SchemeParams,
    VertexCapExceeded,
    count_vertices,
    enumerate_vertices,
)
from spectral_switch.switching import GmSpec, WqhSpec

from oracles import rank


def load_schema():
    path = resources.files("spectral_switch").joinpath("schemas/report.schema.json")
    return json.loads(path.read_text())


def test_recipe_parameter_rejections():
    with pytest.raises(ValueError, match="n >= 8"):
        recipe_j2n4(7)
    with pytest.raises(ValueError):
        recipe_halfrange_2kk(4)  # even
    with pytest.raises(ValueError):
        recipe_halfrange_2kk(3)
    with pytest.raises(ValueError):
        recipe_qkneser(4, 1)
    with pytest.raises(ValueError):
        recipe_qkneser(3, 2)  # needs n >= 2k
    with pytest.raises(ValueError, match="J1-11-4"):
        recipe_sporadic("no-such-thing")


def test_sporadic_names_frozen():
    assert SPORADIC_NAMES == ("J1-11-4", "J24-10-5", "J24-12-6")
    assert isinstance(recipe_sporadic("J1-11-4").spec, WqhSpec)
    assert isinstance(recipe_sporadic("J24-10-5").spec, GmSpec)
    assert isinstance(recipe_sporadic("J24-12-6").spec, GmSpec)


def test_qkneser_recipe_shape():
    r = recipe_qkneser(4, 2)
    assert isinstance(r.spec, GmSpec)
    (cell,) = r.spec.cells
    assert sorted(cell) == [0, 10, 16, 28]
    (w,) = r.witnesses
    assert isinstance(w, SelectiveTriple)


@pytest.mark.parametrize("n, k, cell, witness", [
    (4, 2, (0, 10, 16, 28), (24, 32, 26)),
    (5, 2, (0, 36, 64, 120), (96, 136, 104)),
    (6, 2, (0, 136, 256, 496), (384, 560, 416)),
    (6, 3, (512, 656, 960, 1240), (1232, 1376, 1236)),
    (7, 3, (4096, 5184, 7936, 10416), (10304, 11600, 10336)),
])
def test_qkneser_specs_and_witnesses_frozen(n, k, cell, witness):
    r = recipe_qkneser(n, k)
    assert r.spec == GmSpec([cell])
    assert r.witnesses == (SelectiveTriple(*witness),)


@pytest.mark.parametrize("n, k, cell, witness", [
    (4, 2, (0, 10, 16, 28), (24, 32, 26)),
    (5, 2, (0, 36, 64, 120), (96, 136, 104)),
    (6, 3, (512, 656, 960, 1240), (1232, 1376, 1236)),
    (7, 3, (4096, 5184, 7936, 10416), (10304, 11600, 10336)),
    (8, 4, (126976, 135680, 166656, 188976), (188960, 200128, 188968)),
])
def test_qkneser_vertices_span_the_docstring_generators(n, k, cell, witness):
    """Each cell and witness index is the enumeration's vertex for the space
    that recipe_qkneser's docstring names by generators: p1p2pi, p1p3pi,
    p2p3pi, p4p5pi, then p1tau, p2tau, p4tau."""
    r = recipe_qkneser(n, k)
    assert tuple(r.spec.cells[0]) == cell
    (w,) = r.witnesses
    assert (w.a, w.b, w.c) == witness

    def e(*idx):
        return [int(i in idx) for i in range(1, n + 1)]

    p1, p2, p3, p4, p5 = e(1), e(2), e(3), e(1, 2), e(1, 3)
    pi = [e(i) for i in range(4, k + 2)]
    tau = [e(4)] if k == 2 else [e(i) for i in range(k + 2, 2 * k + 1)]
    verts = enumerate_vertices(r.params, cap=count_vertices(r.params))

    def spans(i, gens):
        return rank(list(verts[i]) + gens, 2) == rank(gens, 2) == k

    # a spec's cell is sorted, so each space matches one cell vertex
    cell_spaces = ([p1, p2] + pi, [p1, p3] + pi, [p2, p3] + pi, [p4, p5] + pi)
    assert sorted(i for g in cell_spaces for i in cell if spans(i, g)) == list(cell)
    for i, gens in zip(witness, ([p1] + tau, [p2] + tau, [p4] + tau)):
        assert spans(i, gens), (i, gens)


def test_common_neighbor_change_witness():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    ok = CommonNeighborChange(0, 2, 0, require_edge_orig=False,
                              require_edge_mate=True).check(path, tri)
    assert ok.passed and ok.kind == "common-neighbor-change"
    assert "gain 0 as expected" in ok.details
    bad = CommonNeighborChange(0, 2, 5).check(path, tri)
    assert not bad.passed and "!= expected 5" in bad.details
    flag = CommonNeighborChange(0, 2, 0, require_edge_orig=True).check(path, tri)
    assert not flag.passed and "expected an edge in the original" in flag.details


def test_common_neighbor_floor_witness():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert CommonNeighborFloor(0, 2, 1).check(path, tri).passed
    res = CommonNeighborFloor(0, 2, 2).check(path, tri)
    assert not res.passed and "lambda 1 < floor 2" in res.details


def test_added_lost_witness():
    g = Graph.from_edges(4, [(0, 1), (0, 2)])
    mate = Graph.from_edges(4, [(1, 3), (2, 3)])
    # pair (1,2): common neighbor 0 lost, 3 added
    ok = AddedLostCount(1, 2, added_exact=1, lost_min=1, net_loss_min=0).check(g, mate)
    assert ok.passed and "added 1, lost 1" in ok.details
    bad = AddedLostCount(1, 2, added_exact=1, lost_min=1, net_loss_min=1).check(g, mate)
    assert not bad.passed and "net loss 0 < floor 1" in bad.details


def test_added_lost_rejects_a_negative_vertex():
    """A negative u would read a row from the end of g.rows."""
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match=r"^vertex -1 out of range for n=3$"):
        AddedLostCount(-1, 0, 0, 0, 0).check(p3, p3)


def test_added_lost_rejects_a_vertex_past_n():
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match=r"^vertex 7 out of range for n=3$"):
        AddedLostCount(0, 7, 0, 0, 0).check(p3, p3)


def test_selective_triple_witness():
    empty = Graph(4, [0] * 4)
    mate = Graph.from_edges(4, [(0, 3)])
    res = SelectiveTriple(0, 1, 2).check(empty, mate)
    assert res.passed and "count 0 in original, 1 in mate" in res.details
    two = Graph.from_edges(5, [(0, 3), (0, 4)])
    res = SelectiveTriple(0, 1, 2).check(Graph(5, [0] * 5), two)
    assert not res.passed and "mate count 2 != 1" in res.details
    res = SelectiveTriple(0, 1, 2).check(mate, mate)
    assert not res.passed and "original count is 1 too" in res.details


def test_run_recipe_cap_failure():
    with pytest.raises(RecipeStageError) as err:
        run_recipe(recipe_j2n4(8), cap=10)
    assert err.value.stage == "build"
    assert isinstance(err.value.__cause__, VertexCapExceeded)
    assert "stage build" in str(err.value)


def test_run_recipe_validate_failure(monkeypatch):
    from spectral_switch import families

    # a cell that is not a GM cell of the Petersen graph
    bogus = Recipe("bogus", SchemeParams.johnson(5, 2, {0}),
                   GmSpec([[0, 1, 2, 3]]), (), "synthetic")
    with pytest.raises(RecipeStageError) as err:
        run_recipe(bogus)
    assert err.value.stage == "validate"

    # an exception raised inside validate itself carries the same stage
    def broken(g, spec):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(families, "validate", broken)
    with pytest.raises(RecipeStageError) as err:
        run_recipe(recipe_j2n4(8))
    assert str(err.value) == "stage validate: boom"
    assert isinstance(err.value.__cause__, ZeroDivisionError)


@pytest.mark.parametrize("recipe", [recipe_j2n4(8), recipe_halfrange_2kk(5)],
                         ids=lambda r: r.name)
def test_run_recipe_validates_spec_once(recipe, validations):
    assert run_recipe(recipe).passed
    assert validations == [type(recipe.spec).__name__]


def test_corpus_reports_pass(corpus_reports):
    sizes = {
        "j2n4(n=8)": (70, 1260),
        "halfrange(k=5)": (252, 15750),
        "qkneser(n=4,k=2)": (35, 280),
        "sporadic(J1-11-4)": (330, None),
        "sporadic(J24-10-5)": (252, None),
        "sporadic(J24-12-6)": (924, None),
    }
    assert set(corpus_reports) == set(sizes)
    for name, rep in corpus_reports.items():
        n, m = sizes[name]
        assert rep.graph.n == n, name
        if m is not None:
            assert rep.graph.num_edges() == m, name
        assert rep.passed, name
        assert rep.validation_valid
        assert rep.cospectral_verdict.equal
        assert all(w.passed for w in rep.witness_results)
        assert rep.noniso_verdict.distinguished
        assert rep.noniso_verdict.level in LADDER_LEVELS + ("transitive-lambda",
                                                           "transitive-selective")


def test_corpus_proves_noniso_at_cell_and_witness_vertices(monkeypatch):
    """No corpus recipe reaches the ladder: qkneser(4,2)'s selective triple
    is found at its witness vertex, not at a cell vertex."""
    from spectral_switch import families

    def ladder(*args):
        raise AssertionError("the invariant ladder ran")

    monkeypatch.setattr(families, "nonisomorphic", ladder)
    levels = {r.name: run_recipe(r).noniso_verdict.level for r in all_recipes()}
    assert levels == {
        "j2n4(n=8)": "transitive-lambda",
        "halfrange(k=5)": "transitive-lambda",
        "qkneser(n=4,k=2)": "transitive-selective",
        "sporadic(J1-11-4)": "transitive-lambda",
        "sporadic(J24-10-5)": "transitive-lambda",
        "sporadic(J24-12-6)": "transitive-lambda",
    }


def test_witnesses_list_their_vertices():
    assert CommonNeighborChange(3, 4, 0).vertices == (3, 4)
    assert CommonNeighborFloor(5, 1, 0).vertices == (5, 1)
    assert AddedLostCount(2, 7, 0, 0, 0).vertices == (2, 7)
    assert SelectiveTriple(24, 4, 5).vertices == (24, 4, 5)
    assert recipe_qkneser(4, 2).witnesses[0].vertices[0] == 24


def test_corpus_reports_match_schema(corpus_reports):
    schema = load_schema()
    for rep in corpus_reports.values():
        doc = rep.to_json_dict()
        jsonschema.validate(doc, schema)
        # and survives a JSON round trip unchanged
        assert json.loads(json.dumps(doc)) == doc


def test_report_passed_logic(corpus_reports):
    rep = corpus_reports["j2n4(n=8)"]
    assert rep.passed
    failed = dataclasses.replace(
        rep, witness_results=(WitnessResult("common-neighbor-change", False, "x"),))
    assert not failed.passed
    invalid = dataclasses.replace(rep, validation_valid=False)
    assert not invalid.passed


def test_all_recipes_cover_every_construction():
    names = [r.name for r in all_recipes()]
    assert names == [
        "j2n4(n=8)",
        "halfrange(k=5)",
        "qkneser(n=4,k=2)",
        "sporadic(J1-11-4)",
        "sporadic(J24-10-5)",
        "sporadic(J24-12-6)",
    ]


def test_wqh_constant_recorded(corpus_reports):
    assert corpus_reports["j2n4(n=8)"].wqh_constant == -3
    assert corpus_reports["halfrange(k=5)"].wqh_constant is None
