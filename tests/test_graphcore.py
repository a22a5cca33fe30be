import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_switch.graphcore import (
    Graph,
    Graph6ParseError,
    decode_graph6,
    encode_graph6,
)

from oracles import encode_graph6_reference, relabel_rows_reference


def nx_random(n, p, seed):
    g = nx.gnp_random_graph(n, p, seed=seed)
    return Graph.from_edges(n, list(g.edges())), g


def test_graph_basics():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.num_edges() == 3
    assert g.degrees() == (1, 2, 2, 1)
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert list(g.neighbors(1)) == [0, 2]
    assert g.common_neighbors(0, 2) == 1
    assert g.is_regular() is None
    assert Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]).is_regular() == 2
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_accessors_refuse_vertices_out_of_range():
    """A negative vertex would index rows from the end, and one past n-1
    would read a bit that no row sets."""
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    for call in (lambda: g.has_edge(-2, 2), lambda: g.has_edge(2, -1),
                 lambda: g.common_neighbors(-1, 0), lambda: g.neighbors(-1)):
        with pytest.raises(ValueError, match="^vertex -[12] out of range for n=3$"):
            call()
    for call in (lambda: g.has_edge(0, 5), lambda: g.has_edge(5, 0),
                 lambda: g.common_neighbors(0, 5), lambda: g.neighbors(5)):
        with pytest.raises(ValueError, match="^vertex 5 out of range for n=3$"):
            call()


@pytest.mark.parametrize("labels", [[None, "b", "c"], ["a", 1.5, "c"], ["a", "b", {"x": 1}]])
def test_graph_refuses_labels_that_are_not_strings(labels):
    with pytest.raises(TypeError, match="^labels must be strings, got "):
        Graph(3, [0, 0, 0], labels=labels)
    with pytest.raises(TypeError, match="^labels must be strings, got "):
        Graph.from_edges(3, [], labels=labels)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(2, [2, 0])
    with pytest.raises(ValueError, match="self-loop"):
        Graph(2, [3, 1])
    assert Graph(2, [2, 1]).num_edges() == 1  # K2, row bits symmetric


def test_graph_validation_names_the_first_failure():
    """Range and self-loop checks run row by row before the symmetry check,
    which names the least asymmetric pair (v, u), v < u."""
    with pytest.raises(ValueError, match="asymmetric adjacency between 0 and 3"):
        Graph(4, [0b1000, 0b0100, 0, 0])
    with pytest.raises(ValueError, match="self-loop at vertex 2"):
        Graph(3, [0b010, 0, 0b100])
    with pytest.raises(ValueError, match="row 1 has bits beyond vertex 2"):
        Graph(3, [0b010, 0b1001, 0b011])
    rng = random.Random(3)
    for n in range(2, 40):
        rows = list(nx_random(n, 0.5, n)[0].rows)
        for _ in range(2):  # one or two off-diagonal bits flipped
            v, u = rng.sample(range(n), 2)
            rows[v] ^= 1 << u
        want = next(((v, u) for v in range(n) for u in range(v + 1, n)
                     if ((rows[v] >> u) ^ (rows[u] >> v)) & 1), None)
        if want is None:
            continue
        with pytest.raises(ValueError, match=f"between {want[0]} and {want[1]}$"):
            Graph(n, rows)


def test_graph_immutable():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(AttributeError):
        g.n = 5


def test_complement_involution():
    g, _ = nx_random(9, 0.4, 5)
    c = g.complement()
    assert c.complement() == g
    assert g.num_edges() + c.num_edges() == 9 * 8 // 2
    for u in range(9):
        for v in range(u + 1, 9):
            assert g.has_edge(u, v) != c.has_edge(u, v)


def test_relabel_roundtrip_and_composition():
    g, _ = nx_random(8, 0.5, 11)
    rng = random.Random(0)
    perm = list(range(8))
    rng.shuffle(perm)
    h = g.relabel(perm)
    inv = [0] * 8
    for v, p in enumerate(perm):
        inv[p] = v
    assert h.relabel(inv) == g
    for u, v in g.edges():
        assert h.has_edge(perm[u], perm[v])
    with pytest.raises(ValueError):
        g.relabel([0] * 8)


def test_labels_follow_relabel():
    g = Graph.from_edges(3, [(0, 1)], labels=["a", "b", "c"])
    h = g.relabel([2, 0, 1])
    assert h.labels == ("b", "c", "a")
    assert h.has_edge(2, 0)


def test_json_round_trip():
    g = Graph.from_edges(5, [(0, 4), (1, 2)], labels=list("abcde"))
    d = g.to_json_dict()
    assert d["n"] == 5 and sorted(map(tuple, d["edges"])) == [(0, 4), (1, 2)]
    assert Graph.from_json_dict(d) == g
    with pytest.raises(ValueError):
        Graph.from_json_dict({"edges": []})


@pytest.mark.parametrize("obj", [
    {"n": 3, "edges": [[0.5, 1.7]]},
    {"n": 3, "edges": [[0, 2.0]]},
    {"n": 3.9, "edges": []},
    {"n": True, "edges": []},
    {"n": 3, "edges": [[False, 1]]},
])
def test_json_takes_integers_only(obj):
    """A float or a bool where n or an edge endpoint belongs is malformed,
    not truncated to an integer."""
    with pytest.raises(ValueError, match="^malformed graph JSON: "):
        Graph.from_json_dict(obj)


@pytest.mark.parametrize("labels", [5, "ab", [None, {"x": 1}], ["a"], ("a", "b", "c")])
def test_json_labels_are_a_list_of_n_strings(labels):
    with pytest.raises(ValueError, match="^malformed graph JSON: labels must be null or "
                                         "a list of 3 strings$"):
        Graph.from_json_dict({"n": 3, "edges": [], "labels": labels})
    assert Graph.from_json_dict({"n": 3, "edges": [], "labels": None}).labels is None


def test_graph_takes_integers_only():
    """Rows and edge endpoints are integers (numpy's too), never a float or
    a bool truncated to one."""
    for bad in ([(0.5, 1.7)], [(0, 2.0)], [(True, 2)]):
        with pytest.raises(TypeError):
            Graph.from_edges(3, bad)
    for bad in ([2.7, 1.2], [2, True]):
        with pytest.raises(TypeError):
            Graph(2, bad)
    g = Graph.from_edges(3, [(np.int64(0), np.uint8(1))])
    assert g.rows == (2, 1, 0) and all(type(r) is int for r in g.rows)
    assert Graph(2, np.array([2, 1])).rows == (2, 1)


# -- graph6 ----------------------------------------------------------------

def test_graph6_frozen_values():
    # the path 0-1-2 and the star centered at 2 differ by one bit
    assert encode_graph6(Graph.from_edges(3, [(0, 1), (1, 2)])) == b"Bg"
    assert encode_graph6(Graph.from_edges(3, [(0, 2), (1, 2)])) == b"BW"
    assert encode_graph6(Graph.from_edges(1, [])) == b"@"
    assert encode_graph6(Graph.from_edges(0, [])) == b"?"
    pet = nx.petersen_graph()
    assert encode_graph6(Graph.from_edges(10, list(pet.edges()))) == b"IheA@GUAo"


@pytest.mark.parametrize("n", (0, 1, 2, 5, 7, 62, 63, 64, 100, 330))
def test_encode_and_relabel_match_bit_loop_references(n):
    g, _ = nx_random(n, 0.3, n)
    perm = list(range(n))
    random.Random(n).shuffle(perm)
    h = g.relabel(perm)
    assert list(h.rows) == relabel_rows_reference(g.rows, perm)
    assert encode_graph6(g) == encode_graph6_reference(g)
    assert encode_graph6(h) == encode_graph6_reference(h)


def test_graph6_decode_tolerates_header_and_newline():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert decode_graph6(b">>graph6<<Bg\n") == g
    assert decode_graph6("Bg") == g


@pytest.mark.parametrize("n,p,seed", [(1, 0, 0), (5, 0.5, 1), (30, 0.3, 2),
                                      (62, 0.2, 3), (63, 0.5, 4), (100, 0.1, 5)])
def test_graph6_matches_networkx(n, p, seed):
    g, ng = nx_random(n, p, seed)
    mine = encode_graph6(g)
    theirs = nx.to_graph6_bytes(ng, header=False).strip()
    assert mine == theirs
    assert decode_graph6(theirs) == g


def test_graph6_long_size_header():
    # n = 63 switches to the 4-byte size form
    g = Graph.from_edges(63, [(0, 62)])
    data = encode_graph6(g)
    assert data[0] == 126
    assert decode_graph6(data) == g


def test_graph6_decode_errors():
    with pytest.raises(Graph6ParseError) as ei:
        decode_graph6(b"B\x1f")
    assert ei.value.offset == 1
    with pytest.raises(Graph6ParseError):
        decode_graph6(b"B")  # truncated
    with pytest.raises(Graph6ParseError):
        decode_graph6(b"Bgg")  # trailing junk
    with pytest.raises(Graph6ParseError):
        decode_graph6(b"")
    # nonzero padding bits
    with pytest.raises(Graph6ParseError):
        decode_graph6(bytes([63 + 2, 63 + 1]))


def test_graph6_decode_error_messages_and_offsets():
    def error(data):
        with pytest.raises(Graph6ParseError) as ei:
            decode_graph6(data)
        return str(ei.value), ei.value.offset

    # n = 5: 10 bits in 2 payload bytes, the last with 2 padding bits
    assert error(b"D_\x20") == ("byte 32 outside graph6 range 63..126 (at byte 2)", 2)
    assert error(b"D\x7f?") == ("byte 127 outside graph6 range 63..126 (at byte 1)", 1)
    assert error(b"D?@") == ("nonzero padding bits (at byte 2)", 2)
    assert error(b"D?") == ("expected 2 payload bytes for n=5, got 1 (at byte 1)", 1)
    assert error(b"~??") == ("truncated 4-byte size header (at byte 3)", 3)
    assert error(b"~~???") == ("truncated 8-byte size header (at byte 5)", 5)
    # a bad byte before the last is reported ahead of bad padding after it
    bad = bytearray(encode_graph6(Graph.from_edges(41, [(0, 40)])))  # 820 bits
    bad[-1] += 1
    assert error(bytes(bad)) == ("nonzero padding bits (at byte 137)", 137)
    bad[7] = 10
    assert error(bytes(bad)) == ("byte 10 outside graph6 range 63..126 (at byte 7)", 7)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 24).flatmap(
    lambda n: st.tuples(st.just(n),
                        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))))
def test_graph6_round_trip_random(case):
    n, raw = case
    edges = [(u, v) for u, v in raw if u != v]
    g = Graph.from_edges(n, edges)
    assert decode_graph6(encode_graph6(g)) == g
