import random

import networkx as nx
import numpy as np
import pytest

from spectral_switch.algebra import MatrixFq, field_table
from spectral_switch.canon import canonical_form
from spectral_switch.graphcore import Graph
from spectral_switch.schemes import (
    SchemeParams,
    VertexCapExceeded,
    _johnson_rows,
    _point_masks,
    _subspace_bases,
    build,
    count_vertices,
    degree_formula,
    elements_of_mask,
    enumerate_vertices,
    grassmann_rank,
    johnson_rank,
)

from oracles import intersection_dim, johnson_degree_direct


def test_parse_format_round_trip():
    for text in ("J{2}(8,4)", "J{1,2}(10,5)", "Jq{0}(6,3;q=2)", "J{0}(5,2)",
                 "Jq{0,1}(5,2;q=3)"):
        p = SchemeParams.parse(text)
        assert p.format() == text
        assert SchemeParams.parse(p.format()) == p


def test_parse_rejections():
    with pytest.raises(ValueError, match="nonempty"):
        SchemeParams.parse("J{}(5,2)")
    with pytest.raises(ValueError):
        SchemeParams.parse("J{2}(5,2)")  # S must stay below k
    with pytest.raises(ValueError, match="q"):
        SchemeParams.parse("Jq{0}(5,2)")  # grassmann without q
    with pytest.raises(ValueError, match="no q"):
        SchemeParams.parse("J{0}(5,2;q=2)")
    with pytest.raises(ValueError, match="cannot parse"):
        SchemeParams.parse("K(5,2)")
    with pytest.raises(ValueError):
        SchemeParams.parse("J{0}(2,5)")  # k > n
    with pytest.raises(ValueError, match="unsupported q"):
        SchemeParams.parse("Jq{0}(4,2;q=6)")
    with pytest.raises(ValueError, match=r"'J\{1 2\}\(8,4\)': S takes integers separated by commas"):
        SchemeParams.parse("J{1 2}(8,4)")
    for text in ("J{1, 2}(8,4)", "J{ 1 ,2 }(8,4)"):
        assert SchemeParams.parse(text) == SchemeParams.johnson(8, 4, {1, 2})


def test_count_vertices_frozen():
    cases = {
        "J{2}(8,4)": 70,
        "J{1,2}(10,5)": 252,
        "J{1}(11,4)": 330,
        "J{2,4}(12,6)": 924,
        "Jq{0}(4,2;q=2)": 35,
        "Jq{0}(6,3;q=2)": 1395,
        "J{0}(5,2)": 10,
    }
    for text, n in cases.items():
        assert count_vertices(SchemeParams.parse(text)) == n, text


def test_vertex_cap_raises_before_enumeration():
    p = SchemeParams.johnson(40, 20, {1})
    with pytest.raises(VertexCapExceeded) as ei:
        enumerate_vertices(p)
    assert ei.value.count == 137846528820
    with pytest.raises(VertexCapExceeded):
        build(SchemeParams.parse("Jq{0}(6,3;q=2)"), cap=1000)


def test_johnson_enumeration_order_and_rank():
    p = SchemeParams.johnson(6, 3, {1})
    verts = enumerate_vertices(p)
    assert len(verts) == 20
    assert len(set(verts)) == 20
    for i, v in enumerate(verts):
        assert v.bit_count() == 3
        assert johnson_rank(v) == i
    assert elements_of_mask(verts[0]) == (1, 2, 3)


def test_build_labels_golden():
    assert build(SchemeParams.parse("J{0}(5,2)")).labels == (
        "{1,2}", "{1,3}", "{2,3}", "{1,4}", "{2,4}", "{3,4}",
        "{1,5}", "{2,5}", "{3,5}", "{4,5}")
    assert build(SchemeParams.parse("Jq{0}(2,1;q=16)")).labels == tuple(
        [f"<1{d}>" for d in "0123456789abcdef"] + ["<01>"])
    labels = build(SchemeParams.parse("Jq{1}(3,2;q=3)")).labels
    assert labels[:3] == ("<100,010>", "<100,011>", "<100,012>")
    assert labels[-1] == "<010,001>"


def test_subspace_enumeration():
    p = SchemeParams.grassmann(4, 2, {0}, 2)
    verts = enumerate_vertices(p)
    assert len(verts) == 35
    assert len(set(verts)) == 35
    for v in verts:
        assert MatrixFq(field_table(2), v, 4).is_rref()
        assert len(v) == 2
    assert verts[0] == ((1, 0, 0, 0), (0, 1, 0, 0))


@pytest.mark.parametrize("n, k, q", [(4, 2, 2), (5, 2, 2), (6, 3, 2), (4, 2, 3)])
def test_grassmann_rank_is_the_enumeration_index(n, k, q):
    verts = enumerate_vertices(SchemeParams.grassmann(n, k, {0}, q))
    assert [grassmann_rank(v, q) for v in verts] == list(range(len(verts)))


def test_subspace_bases_distinct_across_q():
    assert len(_subspace_bases(4, 2, 3)) == 130  # [4 2]_3
    assert len(_subspace_bases(5, 1, 2)) == 31


def test_petersen_is_kneser_5_2(petersen):
    nxp = nx.petersen_graph()
    mine = canonical_form(petersen)
    theirs = canonical_form(Graph.from_edges(10, list(nxp.edges())))
    assert mine == theirs
    assert petersen.is_regular() == 3


def test_degree_formula_vs_direct_count():
    for n, k, S in ((8, 4, {2}), (10, 5, {1, 2}), (7, 3, {0}), (6, 3, {1, 2}),
                    (11, 4, {1})):
        p = SchemeParams.johnson(n, k, S)
        assert degree_formula(p) == johnson_degree_direct(n, k, S), (n, k, S)


def test_johnson_rows_without_bitwise_count(monkeypatch):
    """The popcount fallback for numpy < 2 builds the same rows, also on
    point masks wider than one 64-bit word (121 points of F_3^5)."""
    masks = enumerate_vertices(SchemeParams.johnson(8, 4, {2}))
    want = _johnson_rows(masks, {2})
    gp = SchemeParams.grassmann(5, 2, {1}, 3)
    qmasks = _point_masks(_subspace_bases(5, 2, 3), 3)
    assert max(qmasks).bit_length() == 121
    qwant = _johnson_rows(qmasks, {1})
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    assert _johnson_rows(masks, {2}) == want
    assert _johnson_rows(qmasks, {1}) == qwant
    assert tuple(want) == build(SchemeParams.johnson(8, 4, {2})).rows
    assert tuple(qwant) == build(gp).rows


def test_degree_formula_matches_build(petersen, k242):
    assert petersen.is_regular() == degree_formula(SchemeParams.parse("J{0}(5,2)")) == 3
    assert k242.is_regular() == degree_formula(SchemeParams.parse("Jq{0}(4,2;q=2)")) == 16
    g = build(SchemeParams.parse("J{1,2}(10,5)"))
    assert g.is_regular() == degree_formula(SchemeParams.parse("J{1,2}(10,5)")) == 125
    p = SchemeParams.parse("Jq{0}(5,2;q=3)")
    assert build(p).is_regular() == degree_formula(p) == 1053


def test_build_labels():
    g = build(SchemeParams.johnson(5, 2, {0}))
    assert g.labels[0] == "{1,2}"
    assert len(set(g.labels)) == 10
    gq = build(SchemeParams.grassmann(4, 2, {1}, 2))
    assert gq.labels[0].startswith("<")


def _assert_matches_intersection_dim(p: SchemeParams, pairs):
    g = build(p)
    bases = [MatrixFq(field_table(p.q), v, p.n) for v in enumerate_vertices(p)]
    for i, j in pairs:
        want = i != j and intersection_dim(bases[i], bases[j]) in p.S
        assert g.has_edge(i, j) == want, (p.format(), i, j)


@pytest.mark.parametrize("text", [
    "Jq{0}(4,2;q=2)", "Jq{1}(4,2;q=2)", "Jq{0,1}(5,2;q=2)", "Jq{2}(5,3;q=2)", "Jq{0}(3,1;q=2)",
    "Jq{0}(4,2;q=3)", "Jq{1}(3,2;q=3)", "Jq{1}(4,3;q=4)", "Jq{0}(3,1;q=4)",
    "Jq{1}(3,2;q=5)",
])
def test_grassmann_build_matches_intersection_dim(text):
    """Every pair of a small Grassmann graph against rank-based intersection."""
    p = SchemeParams.parse(text)
    n = count_vertices(p)
    _assert_matches_intersection_dim(p, ((i, j) for i in range(n) for j in range(i, n)))


@pytest.mark.parametrize("text", ["Jq{0}(7,2;q=2)", "Jq{1}(5,2;q=3)", "Jq{1}(4,2;q=5)"])
def test_grassmann_build_matches_intersection_dim_multiword(text):
    """Point masks of 127, 121 and 156 bits span two or three words."""
    p = SchemeParams.parse(text)
    n = count_vertices(p)
    rng = random.Random(7)
    _assert_matches_intersection_dim(
        p, [(rng.randrange(n), rng.randrange(n)) for _ in range(2000)])


def test_grassmann_q3_small():
    p = SchemeParams.grassmann(3, 1, {0}, 3)
    g = build(p)
    assert g.n == 13  # [3 1]_3
    # distinct lines always meet trivially, so this graph is complete
    assert g.is_regular() == degree_formula(p) == 12


def test_complement_graph_identity(petersen):
    j152 = build(SchemeParams.johnson(5, 2, {1}))
    assert petersen.complement() == j152


def test_complement_map_isomorphism():
    """J_S(n,k) maps onto J_{S+n-2k}(n,n-k) by complementing vertex sets."""
    for n, k, S in ((5, 2, {0}), (5, 2, {1}), (6, 2, {0, 1}), (7, 3, {1})):
        g = build(SchemeParams.johnson(n, k, S))
        s2 = {s + n - 2 * k for s in S}
        h = build(SchemeParams.johnson(n, n - k, s2))
        full = (1 << n) - 1
        perm = [johnson_rank(full ^ v)
                for v in enumerate_vertices(SchemeParams.johnson(n, k, S))]
        assert g.relabel(perm).rows == h.rows, (n, k, S)
