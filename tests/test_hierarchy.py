import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import htsp.hierarchy as hierarchy
from htsp.errors import AssemblyError, ConnectivityError, SizeLimitExceeded
from htsp.generators import (generate, generate_double_cycle, generate_k5_gadget,
                             generate_random_4reg)
from htsp.graph import MultiGraph
from htsp.hierarchy import (
    _root_external_pairs,
    build_cactus,
    build_hierarchy,
    crossing,
    min_cuts_via_hierarchy,
)
from htsp.pipeline import SamplerParams
from htsp.engine import BatchEngine
from tests.brute_min_cuts import brute_min_cuts
from tests.conftest import ALL_FAMILIES, family_instance
from tests.reference import cactus_min_cut_shores, enumerate_min_cuts, find_critical_set


def k5_graph():
    return MultiGraph(5, [(i, u, v) for i, (u, v) in enumerate(
        (u, v) for u in range(5) for v in range(u + 1, 5))])


def double_cycle_graph(k):
    edges = []
    for i in range(k):
        for _ in range(2):
            edges.append((len(edges), i, (i + 1) % k))
    return MultiGraph(k, edges)


def two_k4_gadget():
    """Two K4 blocks joined by a perfect matching: one proper tight set."""
    edges = []
    for base in (0, 4):
        edges += [(base + u, base + v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(i, i + 4) for i in range(4)]
    return MultiGraph(8, [(i, u, v) for i, (u, v) in enumerate(edges)])


def test_enumerate_min_cuts_double_cycle_five():
    cuts = enumerate_min_cuts(double_cycle_graph(5))
    singles = [c for c in cuts if len(c.shore) in (1, 4)]
    proper = [c for c in cuts if 1 < len(c.shore) < 4]
    assert len(singles) == 5
    assert len(proper) == 5  # C(5,2) minus the 5 non-adjacent pairs


def test_enumerate_min_cuts_k5():
    cuts = enumerate_min_cuts(k5_graph())
    assert all(len(c.shore) in (1, 4) for c in cuts)
    assert len(cuts) == 5


def test_enumerate_min_cuts_two_vertices():
    g = MultiGraph(2, [(i, 0, 1) for i in range(4)])
    cuts = enumerate_min_cuts(g)
    assert len(cuts) == 1 and cuts[0].value == 4


def test_size_limit():
    with pytest.raises(SizeLimitExceeded):
        brute_min_cuts(double_cycle_graph(30))


def cut_list(cuts):
    return [(c.shore, c.edge_ids, c.value) for c in cuts]


def assert_same_cuts(g: MultiGraph) -> None:
    """The flow enumeration returns the brute-force list, in the same order."""
    assert cut_list(enumerate_min_cuts(g)) == cut_list(brute_min_cuts(g))


@pytest.mark.parametrize("k", range(2, 21))
def test_min_cuts_match_brute_force_on_double_cycles(k):
    g = double_cycle_graph(k)
    assert_same_cuts(g)
    assert len(enumerate_min_cuts(g)) == k * (k - 1) // 2


@pytest.mark.parametrize("k", range(4, 22))
def test_min_cuts_match_brute_force_on_k5_gadgets(k):
    assert_same_cuts(generate_k5_gadget(k, np.random.default_rng(k)).graph)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=8, max_value=16), st.integers(min_value=0, max_value=10 ** 6))
def test_min_cuts_match_brute_force_property(n, seed):
    assert_same_cuts(generate_random_4reg(n, np.random.default_rng(seed)).graph)


def shore_masks(cuts) -> list[int]:
    return sorted(sum(1 << v for v in c.shore) for c in cuts)


def checked_build_lists(monkeypatch):
    """Hold every cut list a hierarchy build uses to brute force: its one
    enumeration, the filtered list of each contracted graph, and each
    degree-piece check's list.  Returns the graphs each was taken on."""
    seen = {"enumerated": [], "contracted": [], "pieces": [], "current": None}
    enum, contract, piece_from, sides = (hierarchy._min_cut_shores, hierarchy._contract,
                                         hierarchy._piece_from, hierarchy._sides_inside)

    def enum_checked(g):
        got = enum(g)
        assert sorted(got) == shore_masks(brute_min_cuts(g))
        seen["enumerated"].append(g)
        return got

    def contract_checked(g, shores, shore):
        gc, got = contract(g, shores, shore)
        assert sorted(got) == shore_masks(brute_min_cuts(gc))
        seen["contracted"].append(gc)
        return gc, got

    def piece_from_seen(inst, current, *args, **kwargs):
        seen["current"] = current
        return piece_from(inst, current, *args, **kwargs)

    def sides_checked(shores, shore):
        got = sides(shores, shore)
        g = seen["current"]
        piece, mapping = g.contract(v for v in range(g.n) if not (shore >> v) & 1)
        back = {new: old for old, new in mapping.items() if (shore >> old) & 1}
        ext = piece.n - 1
        want = []
        for c in brute_min_cuts(piece):
            side = c.shore if ext not in c.shore else frozenset(range(piece.n)) - c.shore
            want.append(sum(1 << back[v] for v in side))
        assert sorted(got) == sorted(want)
        seen["pieces"].append(piece)
        return got

    monkeypatch.setattr(hierarchy, "_min_cut_shores", enum_checked)
    monkeypatch.setattr(hierarchy, "_contract", contract_checked)
    monkeypatch.setattr(hierarchy, "_piece_from", piece_from_seen)
    monkeypatch.setattr(hierarchy, "_sides_inside", sides_checked)
    return seen


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_every_engine_min_cut_call_matches_brute_force(family, monkeypatch):
    seen = checked_build_lists(monkeypatch)
    inst = family_instance(family)
    engine = BatchEngine(inst, SamplerParams(sampler="mix"))
    below_root = [nd for nd in engine.h.non_leaves() if not nd.is_root]
    if family == "double-cycle":
        assert seen["enumerated"] == [] and below_root == []
    else:
        # the family graph itself, once, then filtered lists only
        assert len(seen["enumerated"]) == 1 and seen["enumerated"][0] is inst.graph
    assert len(seen["contracted"]) == len(below_root)
    assert len(seen["pieces"]) == sum(nd.kind == "degree" for nd in below_root)


@pytest.mark.parametrize("family,k,calls", [("double-cycle", 200, 0), ("k5-gadget", 100, 1)])
def test_hierarchy_build_enumerates_at_most_once(family, k, calls, monkeypatch):
    enum = hierarchy._min_cut_shores
    graphs = []

    def counted(g):
        graphs.append(g)
        return enum(g)

    monkeypatch.setattr(hierarchy, "_min_cut_shores", counted)
    inst = generate(family, np.random.default_rng(0), k=k)
    build_hierarchy(inst)
    assert len(graphs) == calls


def test_min_cuts_reject_graphs_below_four_edge_connectivity():
    with pytest.raises(ConnectivityError):
        enumerate_min_cuts(MultiGraph(2, [(i, 0, 1) for i in range(3)]))
    # two double cycles joined by one edge pair: a cut of value 2
    edges = [(0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (2, 0),
             (3, 4), (3, 4), (4, 5), (4, 5), (5, 3), (5, 3), (0, 3), (0, 3)]
    with pytest.raises(ConnectivityError):
        enumerate_min_cuts(MultiGraph(6, [(i, u, v) for i, (u, v) in enumerate(edges)]))


def test_double_cycle_past_the_old_cap():
    inst = generate_double_cycle(30, np.random.default_rng(5))
    h = build_hierarchy(inst)
    cuts = min_cuts_via_hierarchy(h)
    assert len(cuts) == 30 * 29 // 2
    assert cut_list(cuts) == cut_list(enumerate_min_cuts(inst.graph))


def test_k5_gadget_cactus_past_the_old_cap():
    inst = generate_k5_gadget(30, np.random.default_rng(5))
    assert inst.graph.n > 24
    h = build_hierarchy(inst)
    shores = cactus_min_cut_shores(build_cactus(h), inst.graph.n)
    assert shores == {c.shore for c in min_cuts_via_hierarchy(h)}


def test_double_cycle_past_the_old_cap_runs_feasibly():
    inst = generate_double_cycle(30, np.random.default_rng(5))
    st = BatchEngine(inst, SamplerParams(sampler="mix")).run(
        2_000, seed=4, join=True, verify=True, integral=True)
    assert st.trials == 2_000
    assert st.feasibility_failures == 0


def test_root_pairs_need_a_degree_four_external_vertex():
    inst = family_instance("double-cycle")
    # 0-1 and 1-2 doubled, 0-2 single: the external vertex 2 has degree 3
    piece = MultiGraph(3, [(0, 0, 1), (1, 0, 1), (2, 1, 2), (3, 1, 2), (4, 0, 2)],
                       [frozenset({1}), frozenset({2}), frozenset({0})])
    with pytest.raises(AssemblyError, match="degree 3"):
        _root_external_pairs(inst, piece, 2)


def test_crossing():
    full = 0b111111
    assert crossing(0b000111, 0b001100, full)
    assert not crossing(0b000011, 0b000111, full)  # nested
    assert not crossing(0b000011, 0b001100, full)  # disjoint
    assert not crossing(0b000111, 0b111100, full)  # covers


def test_find_critical_set():
    # a double cycle has no uncrossed proper tight set
    assert find_critical_set(double_cycle_graph(5), 0) is None
    # the two-K4 gadget has exactly one (up to complement)
    g = two_k4_gadget()
    assert find_critical_set(g, 0) == frozenset({4, 5, 6, 7})
    assert find_critical_set(g, 5) == frozenset({0, 1, 2, 3})
    # no proper tight set at all
    assert find_critical_set(k5_graph(), 0) is None


def test_hierarchy_double_cycle_is_flat():
    inst = family_instance("double-cycle")
    h = build_hierarchy(inst)
    non_leaves = h.non_leaves()
    assert len(non_leaves) == 1 and non_leaves[0].is_root
    assert all(h.nodes[c].kind == "leaf" for c in h.root.children)
    assert h.root.label == frozenset(range(1, inst.graph.n))


def test_hierarchy_k5_gadget():
    inst = family_instance("k5-gadget")
    h = build_hierarchy(inst)
    degree_nodes = [nd for nd in h.non_leaves() if nd.kind == "degree"]
    assert len(degree_nodes) == 1
    piece = degree_nodes[0].piece
    assert piece.graph.n == 5 and piece.graph.m == 10  # a K5 with the external


def test_hierarchy_nested_chain():
    inst = family_instance("nested")
    h = build_hierarchy(inst)
    internal = [nd for nd in h.non_leaves() if not nd.is_root]
    assert len(internal) >= 2
    by_label = sorted(internal, key=lambda nd: len(nd.label))
    child, parent = by_label[0], by_label[-1]
    assert child.label < parent.label  # strictly nested


def test_hierarchy_determinism(any_instance):
    h1 = build_hierarchy(any_instance)
    h2 = build_hierarchy(any_instance)
    assert [(nd.label, nd.kind, nd.children) for nd in h1.nodes] == [
        (nd.label, nd.kind, nd.children) for nd in h2.nodes
    ]


def test_piece_invariants(any_instance):
    h = build_hierarchy(any_instance)
    for nd in h.non_leaves():
        g = nd.piece.graph
        assert all(d == 4 for d in g.degrees())
        if nd.kind == "degree":
            assert g.n >= 5
            proper = [
                c for c in brute_min_cuts(g) if 1 < len(c.shore) < g.n - 1
            ]
            assert proper == []
        else:
            assert g.double_cycle_order() is not None


def test_min_cuts_via_hierarchy_matches_brute_force(any_instance):
    h = build_hierarchy(any_instance)
    brute = {frozenset(c.edge_ids) for c in brute_min_cuts(any_instance.graph)}
    via = {frozenset(c.edge_ids) for c in min_cuts_via_hierarchy(h)}
    assert via == brute


def test_min_cuts_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(10):
        inst = generate_random_4reg(int(rng.integers(8, 15)), rng)
        h = build_hierarchy(inst)
        brute = {frozenset(c.edge_ids) for c in brute_min_cuts(inst.graph)}
        via = {frozenset(c.edge_ids) for c in min_cuts_via_hierarchy(h)}
        assert via == brute


def test_cactus_single_cycle_for_double_cycle():
    inst = family_instance("double-cycle")
    h = build_hierarchy(inst)
    cac = build_cactus(h)
    assert len(cac.cycles) == 1
    assert len(cac.cycles[0]) == inst.graph.n


def test_cactus_degree_node_parallel_pairs():
    inst = family_instance("k5-gadget")
    h = build_hierarchy(inst)
    cac = build_cactus(h)
    two_cycles = [c for c in cac.cycles if len(c) == 2]
    degree_nodes = [nd for nd in h.non_leaves() if nd.kind == "degree"]
    assert len(two_cycles) == sum(len(nd.children) for nd in degree_nodes)


def test_cactus_every_edge_on_exactly_one_cycle(any_instance):
    h = build_hierarchy(any_instance)
    cac = build_cactus(h)
    seen = [eid for cyc in cac.cycles for eid in cyc]
    assert sorted(seen) == sorted(cac.graph.edge_ids)


def test_cactus_pullback_matches_min_cuts(any_instance):
    h = build_hierarchy(any_instance)
    cac = build_cactus(h)
    shores = cactus_min_cut_shores(cac, any_instance.graph.n)
    brute = {c.shore for c in brute_min_cuts(any_instance.graph)}
    assert shores == brute


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=8, max_value=14), st.integers(min_value=0, max_value=10 ** 6))
def test_min_cuts_equivalence_property(n, seed):
    """Hierarchy-implied min-cuts equal brute force on random instances."""
    inst = generate_random_4reg(n, np.random.default_rng(seed))
    h = build_hierarchy(inst)
    brute = {frozenset(c.edge_ids) for c in brute_min_cuts(inst.graph)}
    via = {frozenset(c.edge_ids) for c in min_cuts_via_hierarchy(h)}
    assert via == brute


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=8, max_value=13), st.integers(min_value=0, max_value=10 ** 6))
def test_contract_merged_degree_property(n, seed):
    """Degree of a contracted shore equals its cut value."""
    inst = generate_random_4reg(n, np.random.default_rng(seed))
    g = inst.graph
    rng = np.random.default_rng(seed + 1)
    size = int(rng.integers(2, n - 1))
    shore = set(map(int, rng.choice(n, size=size, replace=False)))
    cut = g.cut(shore)
    gc, mapping = g.contract(shore)
    assert gc.degree(mapping[next(iter(shore))]) == cut.value


def test_boundary_patterns_are_checked_per_node_kind():
    """A degree piece's boundary vertices carry one external edge each, a
    cycle piece's two: the hierarchy check refuses either pattern under
    the other kind, naming the first internal vertex's count."""
    from dataclasses import replace

    h = build_hierarchy(family_instance("zoo"))
    for nd in h.non_leaves():
        swapped = replace(nd, kind="cycle" if nd.kind == "degree" else "degree")
        nodes = tuple(swapped if other is nd else other for other in h.nodes)
        with pytest.raises(AssemblyError, match=r"boundary pattern [12] not allowed at a"):
            hierarchy._check_hierarchy(replace(h, nodes=nodes))
