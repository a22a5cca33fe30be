import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest

from spectral_switch.families import recipe_halfrange_2kk, recipe_j2n4, recipe_qkneser
from spectral_switch.graphcore import Graph
from spectral_switch.schemes import build
from spectral_switch.search import SearchConfig, johnson_core_triples, search_gm4, search_wqh33
from spectral_switch.spectra import charpoly_mod_p, cospectral
from spectral_switch.switching import (
    GmSpec,
    InvalidSpecError,
    WqhSpec,
    _conjugate,
    _switching_matrix,
    apply_switching,
    spec_from_json_dict,
    spec_to_json_dict,
    validate,
)

from oracles import (
    apply_switching_reference,
    switching_certificate_reference,
    validate_reference,
)


def test_gm_spec_constructor_rejections():
    GmSpec([[0, 1, 2, 3]])
    GmSpec([[0, 1], [2, 3, 4, 5]])
    with pytest.raises(InvalidSpecError):
        GmSpec([[0, 1, 2]])  # odd cell
    with pytest.raises(InvalidSpecError):
        GmSpec([[0, 1], [1, 2]])  # overlap
    with pytest.raises(InvalidSpecError):
        GmSpec([[0, 0, 1, 2]])  # duplicate
    with pytest.raises(InvalidSpecError):
        GmSpec([])
    with pytest.raises(InvalidSpecError):
        GmSpec([[]])
    assert GmSpec([np.arange(4)]).cells == ((0, 1, 2, 3),)
    for bad in (0.5, 1.0, True, None, "1"):
        with pytest.raises(TypeError):
            GmSpec([[bad, 2]])


def test_wqh_spec_constructor_rejections():
    WqhSpec([0, 1, 2], [3, 4, 5])
    with pytest.raises(InvalidSpecError):
        WqhSpec([0, 1], [2, 3, 4])  # size mismatch
    with pytest.raises(InvalidSpecError):
        WqhSpec([0, 1], [1, 2])
    with pytest.raises(InvalidSpecError):
        WqhSpec([], [])
    for bad in (2.0, False):
        with pytest.raises(TypeError):
            WqhSpec([0, 1, bad], [3, 4, 5])


def test_recipe_specs_validate_cleanly(corpus_reports):
    for name, rep in corpus_reports.items():
        assert rep.validation_valid, name


def test_perturbed_recipe_spec_fails(j284):
    from spectral_switch.families import recipe_j2n4

    spec = recipe_j2n4(8).spec
    bad = WqhSpec(list(spec.c1[:2]) + [50], spec.c2)
    report = validate(j284, bad)
    assert not report.valid
    assert any(v.condition in ("wqh-ii", "wqh-iii") for v in report.violations)


def test_validate_reports_all_conditions():
    g = Graph.from_edges(6, [(0, 4), (1, 4)])
    report = validate(g, GmSpec([[0, 1, 2, 3]]))
    # vertex 4 sees 2 of 4: half, fine; vertex 5 sees 0: fine
    assert report.valid
    g2 = Graph.from_edges(6, [(0, 4)])
    report2 = validate(g2, GmSpec([[0, 1, 2, 3]]))
    assert not report2.valid
    assert report2.violations[0].condition == "gm-ii"
    assert report2.violations[0].vertex == 4


def test_gm_switch_hand_example():
    # cell {0,1,2,3} holding a perfect matching, vertex 4 sees {0,1} (half):
    # switching complements its cell neighbors to {2,3}
    g = Graph.from_edges(5, [(0, 4), (1, 4), (0, 1), (2, 3)])
    mate = apply_switching(g, GmSpec([[0, 1, 2, 3]]))
    assert mate.has_edge(2, 4) and mate.has_edge(3, 4)
    assert not mate.has_edge(0, 4) and not mate.has_edge(1, 4)
    assert mate.has_edge(0, 1) and mate.has_edge(2, 3)  # inside untouched


def test_gm_switch_flips_each_cell_apart():
    # cells {0,1} and {2,3}; vertex 4 sees half of the first and all of the
    # second, so only its edges to the first cell switch
    g = Graph.from_edges(5, [(0, 4), (2, 4), (3, 4)])
    spec = GmSpec([[0, 1], [2, 3]])
    mate = apply_switching(g, spec)
    assert sorted(mate.neighbors(4)) == [1, 2, 3]
    assert mate == apply_switching_reference(g, spec)
    assert switching_certificate_reference(g, mate, spec)


def test_wqh_switch_hand_example():
    # C1={0,1,2}, C2={3,4,5}; 6 sees all of C1 (full-c1): flip to all of C1 u C2
    edges = [(6, 0), (6, 1), (6, 2), (7, 0), (7, 3)]
    g = Graph.from_edges(8, edges)
    report = validate(g, WqhSpec([0, 1, 2], [3, 4, 5]))
    assert report.valid and report.wqh_constant == 0
    mate = apply_switching(g, WqhSpec([0, 1, 2], [3, 4, 5]))
    # 6 flips: loses C1, gains C2
    assert sorted(mate.neighbors(6)) == [3, 4, 5]
    # 7 balanced (1,1): untouched
    assert sorted(mate.neighbors(7)) == [0, 3]


def test_switching_involution_on_recipes(corpus_reports):
    for name, rep in corpus_reports.items():
        again = apply_switching(rep.mate, rep.recipe.spec)
        assert again == rep.graph, name


def test_invalid_spec_application_refused(j284):
    for bad, kind in ((GmSpec([[0, 1, 2, 3]]), "GM"), (WqhSpec([0, 1, 2], [3, 4, 5]), "WQH")):
        assert not validate(j284, bad).valid
        with pytest.raises(InvalidSpecError, match=f"^{kind} conditions fail: .* more\\)$"):
            apply_switching(j284, bad)


def _plant_gm_cell(rng, n=12):
    """Random graph adjusted so {0,1,2,3} is a valid single GM cell."""
    g = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            g[u][v] = g[v][u] = rng.randrange(2)
    # make the cell a perfect matching inside (constant 1 neighbor)
    for u in range(4):
        for v in range(u + 1, 4):
            g[u][v] = g[v][u] = 0
    g[0][1] = g[1][0] = 1
    g[2][3] = g[3][2] = 1
    # force each outside vertex to 0, 2, or 4 cell neighbors; keep at least
    # one half-seeing vertex so the switch moves edges
    for v in range(4, n):
        cnt = sum(g[v][u] for u in range(4))
        want = 2 if v == 4 else rng.choice([0, 2, 4])
        nbrs = [u for u in range(4) if g[v][u]]
        non = [u for u in range(4) if not g[v][u]]
        while cnt > want:
            u = nbrs.pop()
            g[v][u] = g[u][v] = 0
            cnt -= 1
        while cnt < want:
            u = non.pop()
            g[v][u] = g[u][v] = 1
            cnt += 1
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if g[u][v]]
    return Graph.from_edges(n, edges)


def test_planted_gm_cells_randomized():
    """Validity, involution, and cospectrality hold on planted cells; a
    one-bit perturbation of an outside vertex breaks validity."""
    rng = random.Random(42)
    spec = GmSpec([[0, 1, 2, 3]])
    p = 2_147_483_029
    for _ in range(60):
        g = _plant_gm_cell(rng)
        report = validate(g, spec)
        assert report.valid
        mate = apply_switching(g, spec)
        assert mate == apply_switching_reference(g, spec)
        assert apply_switching(mate, spec) == g
        assert charpoly_mod_p(g, p) == charpoly_mod_p(mate, p)
        assert switching_certificate_reference(g, mate, spec)
        # flip one cell edge of an outside vertex with count 2: now 1 or 3
        v = next(u for u in range(4, g.n)
                 if (g.rows[u] & 0b1111).bit_count() == 2)
        rows = list(g.rows)
        rows[v] ^= 1
        rows[0] ^= 1 << v
        broken = Graph(g.n, rows)
        assert not validate(broken, spec).valid
        for h in (g, broken):
            assert not switching_certificate_reference(h, broken, spec)


@pytest.fixture(scope="module")
def recipe_pairs(corpus_reports):
    """(graph, mate, spec) for the corpus, K_2(6,3) and j2n4(9..12)."""
    pairs = {name: (rep.graph, rep.mate, rep.recipe.spec)
             for name, rep in corpus_reports.items()}
    for r in (recipe_qkneser(6, 3), *map(recipe_j2n4, range(9, 13))):
        g = build(r.params)
        pairs[r.name] = (g, apply_switching(g, r.spec), r.spec)
    assert len(pairs) == 11
    return pairs


def test_recipe_pairs_proved_by_switching_certificate(corpus_reports):
    """Every corpus report records the switch's own verdict, an exact proof;
    the next test confirms Q^T A Q = A' with the dense reference certificate
    for the mate apply_switching returns on every recipe pair."""
    for name, rep in corpus_reports.items():
        v = rep.cospectral_verdict
        assert v.equal and v.method == "switching", name
        assert v.error_bound == 0 and v.primes_used == (), name


def test_certificate_matches_reference_on_toggled_mates(recipe_pairs):
    """The reference certificate accepts every recipe pair's mate and
    refuses seeded single-edge toggles of it inside the cells, between a
    cell and the outside, and outside."""
    for name, (g, mate, spec) in recipe_pairs.items():
        assert switching_certificate_reference(g, mate, spec), name
        rng = random.Random(name)
        cells = spec.all_vertices()
        outside = sorted(set(range(g.n)) - set(cells))
        for ends in ((cells, cells), (cells, outside), (outside, outside)):
            for _ in range(10):
                u, v = rng.choice(ends[0]), rng.choice(ends[1])
                while u == v:
                    v = rng.choice(ends[1])
                rows = list(mate.rows)
                rows[u] ^= 1 << v
                rows[v] ^= 1 << u
                bad = Graph(g.n, rows, validate=False)  # still symmetric
                assert not switching_certificate_reference(g, bad, spec), (name, u, v)


def test_switching_blocks_are_scaled_orthogonal():
    """P^T P = L^2 I for GM cells of every even size up to 64 and WQH pairs
    of every size up to 32, so the switch need not check it; P is
    block-diagonal over the cells, with one scale per block."""
    specs = [GmSpec([range(m)]) for m in range(2, 65, 2)]
    specs += [WqhSpec(range(m), range(m, 2 * m)) for m in range(1, 33)]
    specs.append(GmSpec([range(2), range(2, 8)]))
    for spec in specs:
        blocks, p, scale = _switching_matrix(spec)
        assert [v for b in blocks for v in b] == list(spec.all_vertices())
        assert p.shape == (len(scale), len(scale))
        assert (p.T @ p == np.diag(scale * scale)).all(), spec
    assert (p[:2, 2:] == 0).all() and list(scale) == [1, 1, 3, 3, 3, 3, 3, 3]


def test_apply_switching_matches_tag_and_xor_reference(recipe_pairs, halfrange7, k242, j284):
    """Q^T A Q equals the switch by the reference validator's tags, rows and
    labels, and the validators agree, on the
    recipe pairs, halfrange(7) and every raw spec of the K_2(4,2) gm4 scan
    and the J_2(8,4) core scan."""
    cases = [(g, spec) for g, _, spec in (*recipe_pairs.values(), halfrange7)]
    cases += [(k242, s) for s in search_gm4(k242, SearchConfig(dedup=False)).specs]
    core = johnson_core_triples(8, 4)
    cfg = SearchConfig(mode="wqh33", dedup=False)
    cases += [(j284, s) for s in search_wqh33(j284, core, core, cfg).specs]
    assert len(cases) == 11 + 1 + 840 + 280
    for g, spec in cases:
        assert apply_switching(g, spec) == apply_switching_reference(g, spec), spec
        assert validate(g, spec) == validate_reference(g, spec), spec


def _refusal(g, spec) -> str:
    """The InvalidSpecError text for an invalid spec: its first violation
    and how many more there are."""
    report = validate_reference(g, spec)
    kind = "GM" if isinstance(spec, GmSpec) else "WQH"
    more = len(report.violations) - 1
    return (f"{kind} conditions fail: {report.violations[0].message}"
            + (f" (+{more} more)" if more else ""))


def _check_against_reference(g, spec) -> bool:
    """Assert that validate's report equals the popcount reference, field
    by field and in its JSON text, and that apply_switching switches exactly
    when the spec is valid, to the reference's mate, and otherwise raises
    the reference's refusal.  True for an invalid spec whose Q^T A Q is
    still a 0/1 matrix, which only the cell check refuses."""
    report, ref = validate(g, spec), validate_reference(g, spec)
    assert report == ref, spec
    assert list(report.outside_classes) == list(ref.outside_classes)
    assert json.dumps(report.to_json_dict()) == json.dumps(ref.to_json_dict())
    if ref.valid:
        assert apply_switching(g, spec) == apply_switching_reference(g, spec)
        return False
    with pytest.raises(InvalidSpecError) as err:
        apply_switching(g, spec)
    assert str(err.value) == _refusal(g, spec)
    return _conjugate(g, spec) is not None


def _fuzz_cases(count: int, seed: int = 22):
    """Seeded random graphs on 4-12 vertices with random GM cells of sizes
    2, 4 and 6, or random WQH pairs of sizes 1-3."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(4, 13)
        density = rng.random()
        g = Graph.from_edges(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                                 if rng.random() < density])
        order = rng.sample(range(n), n)
        if rng.random() < 0.5:
            cells = []
            for m in rng.choices((2, 4, 6), k=rng.randrange(1, 4)):
                if m <= len(order):
                    cells.append([order.pop() for _ in range(m)])
            yield g, GmSpec(cells or [order[:2]])
        else:
            m = rng.randrange(1, min(3, n // 2) + 1)
            yield g, WqhSpec(order[:m], order[m:2 * m])


def test_validate_and_switch_match_reference_on_fuzz():
    """On 1500 seeded random specs, validate equals the popcount reference
    and the switch succeeds exactly on the valid ones; some invalid specs
    have a 0/1 Q^T A Q, so the cell check is exercised."""
    cases = list(_fuzz_cases(1500))
    valid = sum(validate(g, spec).valid for g, spec in cases)
    zero_one = sum(_check_against_reference(g, spec) for g, spec in cases)
    assert 450 < valid < 700
    assert zero_one >= 20


def test_validate_and_switch_match_reference_on_schemes(recipe_pairs, halfrange7, k242, j284):
    """validate and the switch match the reference on the recipe pairs
    (qkneser(6,3) among them) and halfrange(7), with their specs and with
    one cell vertex moved outside, on every 97th 4-subset of K_2(4,2) as one
    GM cell, and on every 991st disjoint pair of J_2(8,4) core triples."""
    cases = [(g, spec) for g, _, spec in (*recipe_pairs.values(), halfrange7)]
    for g, spec in list(cases):
        v = next(u for u in range(g.n) if u not in spec.all_vertices())
        if isinstance(spec, GmSpec):
            cases.append((g, GmSpec([(v,) + spec.cells[0][1:], *spec.cells[1:]])))
        else:
            cases.append((g, WqhSpec((v,) + spec.c1[1:], spec.c2)))
    cases += [(k242, GmSpec([c])) for c in
              itertools.islice(itertools.combinations(range(k242.n), 4), 0, None, 97)]
    core = johnson_core_triples(8, 4)
    pairs = ((a, b) for a, b in itertools.combinations(core, 2) if not set(a) & set(b))
    cases += [(j284, WqhSpec(a, b)) for a, b in itertools.islice(pairs, 0, None, 991)]
    assert len(cases) == 24 + 540 + 141
    for g, spec in cases:
        _check_against_reference(g, spec)
    assert sum(validate(g, spec).valid for g, spec in cases) == 12 + 12


def test_cell_check_refuses_a_0_1_conjugate():
    """Edge 0-2 with cells {0, 1} and {2, 3}: Q swaps 0 with 1 and 2 with 3,
    so Q^T A Q is the 0/1 matrix of the edge 1-3, but the cells see
    different counts of each other and the spec is invalid."""
    g = Graph.from_edges(4, [(0, 2)])
    spec = GmSpec([[0, 1], [2, 3]])
    assert _check_against_reference(g, spec)
    with pytest.raises(InvalidSpecError, match=r"^GM conditions fail: vertices of cell 0 "
                                               r"have \[0, 1\] neighbors in cell 1 \(\+1 more\)$"):
        apply_switching(g, spec)


@pytest.mark.parametrize("spec, least", [
    (GmSpec([[0, 9], [12, 1]]), 9),
    (GmSpec([[7, 8, 1, 2]]), 7),
    (WqhSpec([11, 0], [1, 6]), 6),
])
def test_out_of_range_spec_names_the_least_vertex(spec, least):
    g = Graph.from_edges(6, [(0, 1), (2, 3)])
    for call in (validate, validate_reference, apply_switching, _conjugate):
        with pytest.raises(InvalidSpecError, match=f"^spec vertex {least} out of range for n=6$"):
            call(g, spec)


def test_unknown_spec_type_refused(petersen):
    for call in (validate, apply_switching):
        with pytest.raises(TypeError, match="^unknown spec type tuple$"):
            call(petersen, ((0, 1),))


def test_apply_switching_validates_only_to_refuse(j284, validations):
    """A valid spec is switched with no validator call; an invalid one
    calls one, to name its first violation."""
    apply_switching(j284, recipe_j2n4(8).spec)
    assert validations == []
    with pytest.raises(InvalidSpecError):
        apply_switching(j284, GmSpec([[0, 1, 2, 3]]))
    assert validations == ["GmSpec"]


class _Rows:
    """A graph's rows that record which indices are read, and refuse to be
    iterated."""

    def __init__(self, rows):
        self.rows, self.read = rows, set()

    def __getitem__(self, v):
        self.read.add(v)
        return self.rows[v]

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        raise AssertionError("all rows were read")


@pytest.mark.parametrize("call", [validate, _conjugate])
def test_switching_reads_only_the_cell_rows(halfrange7, j284, call):
    """validate_gm, validate_wqh and _conjugate read g.rows at the cell
    vertices and nowhere else."""
    for g, spec in ((halfrange7[0], halfrange7[2]), (j284, recipe_j2n4(8).spec)):
        recorded = Graph(g.n, g.rows, g.labels, validate=False)
        rows = _Rows(g.rows)
        object.__setattr__(recorded, "rows", rows)
        call(recorded, spec)
        assert rows.read == set(spec.all_vertices())


def test_certificate_refuses_a_conjugate_that_is_not_0_1():
    """Vertex 4 sees 1 of the 4-cell, so its entries of Q^T A Q on the cell
    are J/2 - e_0 = (-1/2, 1/2, 1/2, 1/2): no graph is the mate."""
    g = Graph.from_edges(5, [(0, 4), (0, 1), (2, 3)])
    spec = GmSpec([[0, 1, 2, 3]])
    assert not validate(g, spec).valid
    assert _conjugate(g, spec) is None
    for mate in (g, Graph.from_edges(5, [(1, 4), (2, 4), (3, 4), (0, 1), (2, 3)])):
        assert not switching_certificate_reference(g, mate, spec)


@pytest.mark.parametrize("name", ["j2n4(n=8)", "qkneser(n=4,k=2)"])
@pytest.mark.parametrize("where", ["cells", "cell-outside", "outside"])
def test_toggled_mate_edge_fails_certificate(corpus_reports, name, where):
    rep = corpus_reports[name]
    g, spec = rep.graph, rep.recipe.spec
    cells = spec.all_vertices()
    outside = [v for v in range(g.n) if v not in cells]
    u, v = {"cells": (cells[0], cells[-1]),
            "cell-outside": (cells[0], outside[0]),
            "outside": (outside[0], outside[-1])}[where]
    rows = list(rep.mate.rows)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    bad = Graph(g.n, rows)
    assert switching_certificate_reference(g, rep.mate, spec)
    assert not switching_certificate_reference(g, bad, spec)
    cv = cospectral(g, bad)
    assert cv.method == "minimal-polynomial" and cv.equal is False


@pytest.mark.parametrize("complete", [True, False], ids=["K320", "empty320"])
def test_certificate_exact_with_coprime_cell_sizes(complete):
    """GM cells of sizes 2p for the primes p <= 31: one common denominator
    for Q would be lcm(2, 3, ..., 31), about 2^37.5, and its square overflows
    int64; scaling each block by its own m/2 stays exact."""
    sizes = [2 * p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)]
    n = sum(sizes)
    assert n == 320
    spec = GmSpec([range(s, s + m) for s, m in zip(itertools.accumulate([0] + sizes), sizes)])
    full = (1 << n) - 1
    g = Graph(n, [full ^ (1 << v) if complete else 0 for v in range(n)])
    mate = apply_switching(g, spec)
    assert switching_certificate_reference(g, mate, spec)


@pytest.fixture(scope="module")
def halfrange7():
    """(graph, mate, spec) of halfrange(7)."""
    r = recipe_halfrange_2kk(7)
    g = build(r.params)
    return g, apply_switching(g, r.spec), r.spec


def test_switch_packs_only_the_cell_rows(halfrange7):
    """One switch of halfrange(7) (n = 3432, 16 cell vertices) peaks below
    2.5 MiB: it packs the cell rows, not all n rows of the graph
    (n * ceil(n/8) bytes, 1.4 MiB)."""
    g, mate, spec = halfrange7
    tracemalloc.start()
    try:
        assert apply_switching(g, spec) == mate
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


def test_spec_json_round_trip():
    spec = GmSpec([[0, 1, 2, 3], [4, 5]])
    d = spec_to_json_dict(spec)
    assert spec_from_json_dict(json.loads(json.dumps(d))) == spec
    w = WqhSpec([0, 1, 2], [3, 4, 5])
    assert spec_from_json_dict(spec_to_json_dict(w)) == w
    with pytest.raises(ValueError):
        spec_from_json_dict({"gm": {"cells": [[0, 1]]}, "wqh": {}})
    with pytest.raises(ValueError):
        spec_from_json_dict({"neither": 1})


def test_spec_json_label_resolution():
    g = build(__import__("spectral_switch").SchemeParams.johnson(6, 2, {0}))
    d = {"gm": {"cells": [["{1,2}", "{3,4}", "{1,3}", "{2,4}"]]}}
    spec = spec_from_json_dict(d, g)
    assert isinstance(spec, GmSpec)
    assert len(spec.cells[0]) == 4
    with pytest.raises(ValueError, match="not found"):
        spec_from_json_dict({"gm": {"cells": [["{9,9}", "{3,4}"]]}}, g)
    with pytest.raises(ValueError, match="no labeled graph"):
        spec_from_json_dict(d)


@pytest.mark.parametrize("obj, message", [
    ({"gm": 5}, "gm spec needs a 'cells' list"),
    ({"gm": {"cells": 5}}, "gm spec needs a 'cells' list"),
    ({"wqh": {"c1": [1, 2, 3], "c2": 5}}, "a spec cell must be a list, got 5"),
    ({"gm": {"cells": [5]}}, "a spec cell must be a list, got 5"),
    ({"gm": {"cells": [[None, 2]]}}, "spec vertex None is not an integer"),
    ({"gm": {"cells": [[0.9, 1.2], [2, 3]]}}, "spec vertex 0.9 is not an integer"),
    ({"gm": {"cells": [[True, 2]]}}, "spec vertex True is not an integer"),
    ({"wqh": {"c1": [0, 1, 2.0], "c2": [3, 4, 5]}}, "spec vertex 2.0 is not an integer"),
    ({"gm": {"cells": [[0, 1]], "x": 1}}, "gm spec has unknown keys 'x'; it takes only 'cells'"),
    ({"wqh": {"c1": [0], "c2": [1], "c3": [2]}},
     "wqh spec has unknown keys 'c3'; it takes only 'c1', 'c2'"),
])
def test_spec_json_malformed_body(obj, message):
    """A spec body of the wrong shape or with keys beyond its cell lists, or
    a cell entry that is neither an integer nor a label, is a ValueError
    naming it, not a TypeError, a truncated index or a dropped key."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        spec_from_json_dict(obj)
