from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import htsp.graph
import htsp.hierarchy
from htsp.errors import (
    ConnectivityError,
    DegreeError,
    EmptyShore,
    FullShore,
    ParseError,
    SpecialTripleError,
)
from htsp.generators import generate_double_cycle, generate_random_4reg
from htsp.hierarchy import build_hierarchy
from htsp.graph import (
    HalfIntegralInstance,
    MultiGraph,
    augment,
    flow_arcs,
    normalize_to_special_triple,
    parse_instance,
    serialize_instance,
)
from tests.conftest import family_instance
from tests.reference import stoer_wagner_connectivity


def k5_graph():
    edges = [(i, u, v) for i, (u, v) in enumerate(
        (u, v) for u in range(5) for v in range(u + 1, 5))]
    return MultiGraph(5, edges)


def double_cycle_graph(k):
    edges = []
    for i in range(k):
        for _ in range(2):
            edges.append((len(edges), i, (i + 1) % k))
    return MultiGraph(k, edges)


def test_k5_plain_edge_list_is_4_regular_and_4ec():
    g = k5_graph()
    inst = HalfIntegralInstance(g, tuple(Fraction(1) for _ in range(g.m)), strict=False)
    inst.validate()  # passes without the root triple
    strict = HalfIntegralInstance(g, inst.costs, strict=True)
    with pytest.raises(SpecialTripleError):
        strict.validate()


def test_two_vertex_degenerate_instance():
    g = MultiGraph(2, [(i, 0, 1) for i in range(4)])
    inst = HalfIntegralInstance(g, (Fraction(1),) * 4, strict=False)
    inst.validate()
    assert g.degrees() == [4, 4]
    # no proper shores exist, only the one cut
    assert g.cut({0}).value == 4


def test_bridge_pair_rejected():
    # two K5-minus-an-edge blocks joined by two single edges: 4-regular
    # everywhere but only 2-edge-connected across the middle
    lines = []
    for base in (0, 5):
        for u in range(5):
            for v in range(u + 1, 5):
                if (u, v) == (0, 1):
                    continue
                lines.append(f"{base + u} {base + v} 1")
    lines.append("0 5 1")
    lines.append("1 6 1")
    text = "\n".join([f"htsp 10 {len(lines)}"] + lines)
    with pytest.raises(ConnectivityError):
        parse_instance(text, strict=False)


def test_degree_error():
    text = "htsp 3 4\n0 1 1\n0 1 1\n0 2 1\n0 2 1\n"
    with pytest.raises(DegreeError):
        parse_instance(text, strict=False)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_instance("nope 3 1\n0 1 1\n")
    with pytest.raises(ParseError):
        parse_instance("htsp 2 1\n0 0 1\n")  # self-loop
    with pytest.raises(ParseError):
        parse_instance("htsp 2 2\n0 1 1\n")  # count mismatch
    with pytest.raises(ParseError):
        parse_instance("htsp 2 1\n0 1 -3\n")  # bad cost literal


def test_cut_queries():
    g = k5_graph()
    assert g.cut({0}).value == 4
    assert g.cut({0, 1}).value == 6  # 2*4 - 2
    dc = double_cycle_graph(4)
    assert dc.cut({0, 1}).value == 4
    with pytest.raises(EmptyShore):
        g.cut(set())
    with pytest.raises(FullShore):
        g.cut(set(range(5)))


def test_contract():
    g = k5_graph()
    gc, mapping = g.contract({3, 4})
    assert gc.n == 4 and gc.m == 9
    merged = mapping[3]
    assert mapping[3] == mapping[4]
    assert gc.degree(merged) == 6
    assert gc.vertex_sets[merged] == frozenset({3, 4})
    # contracting all but one vertex leaves four parallel edges
    gc2, _ = g.contract(set(range(1, 5)))
    assert gc2.n == 2 and gc2.m == 4
    # contracting a singleton is the identity on the edge structure
    gc3, _ = g.contract({2})
    assert gc3.m == g.m and sorted(gc3.degrees()) == sorted(g.degrees())


def test_contract_degree_equals_cut():
    g = double_cycle_graph(6)
    shore = {1, 2, 3}
    cut = g.cut(shore)
    gc, mapping = g.contract(shore)
    merged = mapping[1]
    assert gc.degree(merged) == cut.value


def test_serialize_roundtrip_examples(any_instance):
    text = serialize_instance(any_instance)
    again = parse_instance(text)
    assert serialize_instance(again) == text
    assert again.graph.endpoints == any_instance.graph.endpoints
    assert again.costs == any_instance.costs


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=4, max_value=9), st.integers(min_value=0, max_value=10 ** 6))
def test_roundtrip_random_double_cycles(k, seed):
    inst = generate_double_cycle(k, np.random.default_rng(seed))
    assert parse_instance(serialize_instance(inst)).costs == inst.costs


def test_normalize_relabels_triple():
    # a double cycle written with the root at position 2
    g = double_cycle_graph(5)
    perm = {0: 2, 1: 0, 2: 3, 3: 4, 4: 1}
    edges = [(eid, perm[u], perm[v]) for eid, (u, v) in zip(g.edge_ids, g.endpoints)]
    inst = HalfIntegralInstance(
        MultiGraph(5, edges), (Fraction(1),) * 10, strict=False
    )
    fixed = normalize_to_special_triple(inst)
    fixed.validate()
    assert fixed.strict


def test_lp_cost_is_half_total():
    inst = generate_random_4reg(10, np.random.default_rng(0))
    assert inst.lp_cost() == sum(inst.costs, Fraction(0)) / 2


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=40),
       st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10 ** 6))
def test_edge_connectivity_equals_stoer_wagner(n, m, cross, seed):
    """Random multigraphs, disconnected and with low-degree vertices too:
    the edges fall inside two halves but for about ``cross`` of them, so
    the connectivity is often below the minimum degree."""
    rng = np.random.default_rng(seed)
    half = n // 2
    edges = []
    for _ in range(20 * m if n > 1 else 0):
        u, v = map(int, rng.integers(0, n, size=2))
        if u != v and ((u < half) == (v < half) or rng.random() < cross / max(m, 1)):
            edges.append((len(edges), u, v))
        if len(edges) == m:
            break
    g = MultiGraph(n, edges)
    assert g.edge_connectivity() == stoer_wagner_connectivity(g)


def test_edge_connectivity_below_the_minimum_degree():
    # two double triangles joined by one edge pair: degree 4 or 6, connectivity 2
    edges = [(0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (2, 0),
             (3, 4), (3, 4), (4, 5), (4, 5), (5, 3), (5, 3), (0, 3), (0, 3)]
    g = MultiGraph(6, [(i, u, v) for i, (u, v) in enumerate(edges)])
    assert min(g.degrees()) == 4
    assert g.edge_connectivity() == stoer_wagner_connectivity(g) == 2


def test_edge_connectivity_of_the_families(any_instance):
    g = any_instance.graph
    assert g.edge_connectivity() == stoer_wagner_connectivity(g) == 4


def test_augment_pushes_the_bottleneck():
    """A push carries the least residual room of its shortest path, and an
    arc of capacity c carries nothing backwards; a unit edge carries at
    most one unit either way."""
    # arcs 0->1, 1->2, 2->3 and the shortcut 0->2, of capacities 5, 3, 4, 2
    arcs = flow_arcs(4, [(0, 1), (1, 2), (2, 3), (0, 2)], [5, 3, 4, 2])
    flow = [0] * 4
    assert augment(arcs, flow, 1, 3) >> 3 & 1 and flow == [0, 0, 2, 2]
    assert augment(arcs, flow, 1, 3) >> 3 & 1 and flow == [2, 2, 4, 2]
    assert augment(arcs, flow, 1, 3) == 0b0111 and flow == [2, 2, 4, 2]
    unit = flow_arcs(2, [(0, 1)])
    flow = [0]
    assert augment(unit, flow, 0b01, 1) == 0b11 and flow == [1]
    assert augment(unit, flow, 0b01, 1) == 0b01
    # backwards the room is the unit sent plus one unit the other way
    assert augment(unit, flow, 0b10, 0) == 0b11 and flow == [-1]
    assert augment(unit, flow, 0b10, 0) == 0b10


# -- the double-cycle certificate ---------------------------------------------

def _count_augments(monkeypatch) -> list[int]:
    """A one-cell counter of unit-flow pushes, through every name that
    ``graph.py`` and ``hierarchy.py`` bind to ``augment``."""
    calls = [0]
    original = htsp.graph.augment

    def counted(*args):
        calls[0] += 1
        return original(*args)

    for module in (htsp.graph, htsp.hierarchy):
        monkeypatch.setattr(module, "augment", counted)
    return calls


@pytest.mark.parametrize("k", [24, 100, 200, 400])
def test_double_cycle_parses_without_a_flow(k, monkeypatch):
    """A double cycle is certified 4-edge-connected by its recognizer, and
    its hierarchy ends at once: neither runs a flow."""
    text = serialize_instance(generate_double_cycle(k, np.random.default_rng(1)))
    calls = _count_augments(monkeypatch)
    inst = parse_instance(text)
    build_hierarchy(inst)
    assert calls == [0]
    # the counter does see the flows of a graph that is not a double cycle
    parse_instance(serialize_instance(family_instance("zoo")))
    assert calls[0] > 0


def _graph_of(pairs, rng) -> MultiGraph:
    """The multigraph of the vertex pairs, its vertices relabelled and its
    edges shuffled by ``rng``."""
    n = 1 + max(max(p) for p in pairs)
    perm = rng.permutation(n).tolist()
    order = rng.permutation(len(pairs)).tolist()
    return MultiGraph(n, [(i, perm[pairs[j][0]], perm[pairs[j][1]]) for i, j in enumerate(order)])


def _double_cycle_pairs(k: int, base: int = 0) -> list[tuple[int, int]]:
    if k == 2:
        return [(base, base + 1)] * 4
    return [(base + i, base + (i + 1) % k) for i in range(k)] * 2


def _near_misses(rng) -> dict[str, list[tuple[int, int]]]:
    """Degree-4 graphs that are not double cycles: two disjoint double
    cycles, the same two joined by crossing one edge of each, a double
    cycle with two of its parallel pairs crossed, and K5."""
    a, b = (int(x) for x in rng.integers(2, 8, size=2))
    apart = _double_cycle_pairs(a) + _double_cycle_pairs(b, base=a)
    joined = list(apart)
    # one edge of (0, 1) and one of (a, a + 1) become (0, a) and (1, a + 1)
    joined.remove((0, 1))
    joined.remove((a, a + 1))
    joined += [(0, a), (1, a + 1)]
    k = int(rng.integers(4, 10))
    crossed = _double_cycle_pairs(k)
    j = int(rng.integers(2, k - 1))
    for _ in range(2):
        crossed.remove((0, 1))
        crossed.remove((j, j + 1))
    crossed += [(0, 1), (j, j + 1), (0, j), (1, j + 1)]
    k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    return {"apart": apart, "joined": joined, "crossed": crossed, "k5": k5}


def _connectivity_verdict(g: MultiGraph):
    """``validate``'s message on a non-strict instance of ``g``, or None."""
    try:
        HalfIntegralInstance(g, (Fraction(1),) * g.m, strict=False).validate()
    except (ConnectivityError, DegreeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


@pytest.mark.parametrize("seed", range(30))
def test_double_cycle_certificate_agrees_with_stoer_wagner(seed):
    """The recognizer's verdict on random double cycles, and the flow's on
    degree-4 near misses, is Stoer-Wagner's; a near miss below 4 raises
    the flow's message."""
    rng = np.random.default_rng(seed)
    g = _graph_of(_double_cycle_pairs(int(rng.integers(2, 30))), rng)
    assert g.double_cycle_order() is not None
    assert stoer_wagner_connectivity(g) == 4
    assert _connectivity_verdict(g) is None
    for name, pairs in _near_misses(rng).items():
        g = _graph_of(pairs, rng)
        assert g.double_cycle_order() is None and set(g.degrees()) == {4}, name
        conn = stoer_wagner_connectivity(g)
        want = None if conn == 4 else f"ConnectivityError: edge connectivity is {conn}, expected 4"
        assert _connectivity_verdict(g) == want, name
        assert conn == g.edge_connectivity()


@pytest.mark.parametrize("k", [2, 3, 7])
def test_a_degree_three_vertex_is_refused_first(k):
    """A double cycle less one edge is no double cycle and is below
    4-edge-connected, yet the degree check speaks first."""
    rng = np.random.default_rng(k)
    pairs = _double_cycle_pairs(k)
    g = _graph_of(pairs[1:], rng)
    assert _connectivity_verdict(g).startswith("DegreeError: ")
    assert "has degree 3, expected 4" in _connectivity_verdict(g)
