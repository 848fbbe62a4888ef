import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import htsp.pipeline as pipeline
import htsp.trees as trees
from htsp.decomp import Decomposition
from htsp.errors import BoundaryTarget, InfeasibleShift, SizeLimitExceeded
from htsp.generators import standalone_piece
from htsp.graph import MultiGraph, bits
from htsp.hierarchy import build_hierarchy
from htsp.matching import ShiftedSolution, decompose_matchings
from htsp.pipeline import _piece_states
from htsp.trees import constrained_tree_weights, k5_paths
from tests.conftest import ALL_FAMILIES, family_instance
from tests.reference import (
    ConstrainedTreeDistribution,
    _marginals_reproduce,
    constrained_tree_distribution,
    enumerate_spanning_trees,
    forced_edges,
    fraction_marginal_check,
    interior_values,
    is_connected,
    maxent_fit,
    maxent_marginals,
    maxent_tree_distribution,
    per_class_mi_states,
    per_component_maxent_fit,
    shift,
    spanning_tree_count,
    state_values,
    tree_marginals,
    tree_sets,
)
from tests.single_draws import (
    maxent_sample,
    mi_sample,
    sample_double_cycle,
    sample_k5_path,
    select_submatching,
)
from tests.test_compiled_digests import instance
from tests.test_pipeline import degree_pieces

THIRD = Fraction(1, 3)


def shifted_on(graph, values, parts=()):
    """A state on ``graph`` alone (its own interior), at ``values`` in thirds."""
    thirds = tuple(int(3 * values[eid]) for eid in graph.edge_ids)
    assert all(Fraction(k, 3) == values[eid] for eid, k in zip(graph.edge_ids, thirds))
    return ShiftedSolution(graph, thirds, graph, thirds, tuple(parts), 0, 0)


def test_triangle_uniform():
    tri = MultiGraph(3, [(0, 0, 1), (1, 1, 2), (2, 0, 2)])
    sh = shifted_on(tri, {0: Fraction(2, 3), 1: Fraction(2, 3), 2: Fraction(2, 3)})
    dist = constrained_tree_distribution(sh)
    assert sorted(map(sorted, dist.trees)) == [[0, 1], [0, 2], [1, 2]]
    assert all(w == THIRD for w in dist.weights)


def test_tight_part_forces_exactly_one():
    # a four-cycle with one tight two-edge part
    c4 = MultiGraph(4, [(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 0)])
    values = {0: Fraction(2, 3), 1: Fraction(1, 3), 2: Fraction(1), 3: Fraction(1)}
    sh = shifted_on(c4, values, parts=((0, 1),))
    assert forced_edges(sh) == {2, 3}
    dist = constrained_tree_distribution(sh)
    for t in dist.trees:
        assert len({0, 1} & t) == 1
        assert {2, 3} <= t
    marg = tree_marginals(dist)
    assert marg[0] == Fraction(2, 3) and marg[1] == Fraction(1, 3)


def test_mi_distribution_matches_shift_exactly():
    piece = standalone_piece("k44")
    dist = decompose_matchings(piece)
    rng = np.random.default_rng(4)
    mk = dist.masks[1]
    sub = select_submatching(piece, mk, rng)
    sh = shift(piece, mk, sub)
    ctd = constrained_tree_distribution(sh)
    marg = tree_marginals(ctd)
    for eid, val in interior_values(sh).items():
        assert marg.get(eid, Fraction(0)) == val
    for part in sh.parts:
        for t in ctd.trees:
            assert len(set(part) & t) <= 1


def test_mi_sample_monte_carlo_marginals():
    piece = standalone_piece("k44")
    dist = decompose_matchings(piece)
    rng = np.random.default_rng(4)
    mk = dist.masks[0]
    sub = select_submatching(piece, mk, rng)
    sh = shift(piece, mk, sub)
    ctd = constrained_tree_distribution(sh)
    n = 100_000
    counts = {eid: 0 for eid in sorted(sh.interior_graph.edge_ids)}
    cdf = ctd.cdf()
    draws = np.searchsorted(cdf, np.random.default_rng(8).random(n), side="right")
    for d in np.minimum(draws, len(ctd.trees) - 1):
        for eid in ctd.trees[d]:
            counts[eid] += 1
    for eid, val in interior_values(sh).items():
        p = float(val)
        sd = max((p * (1 - p) / n) ** 0.5, 1e-9)
        assert abs(counts[eid] / n - p) <= 4 * sd


def test_maxent_c4_symmetry():
    c4 = MultiGraph(4, [(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 0)])
    targets = {e: Fraction(3, 4) for e in range(4)}
    fit = maxent_fit(c4, targets)
    assert fit.fit_error <= 1e-6
    marg = maxent_marginals(fit)
    assert all(abs(marg[e] - 0.75) <= 1e-9 for e in range(4))
    trees, probs = maxent_tree_distribution(fit)
    assert len(trees) == 4
    assert np.allclose(probs, 0.25, atol=1e-9)


def test_maxent_k44_shifted_fit():
    piece = standalone_piece("k44")
    dist = decompose_matchings(piece)
    sh = shift(piece, dist.masks[0], 0)
    fit = maxent_fit(sh.interior_graph, interior_values(sh))
    assert fit.fit_error <= 1e-6
    marg = maxent_marginals(fit)
    for eid, val in interior_values(sh).items():
        assert abs(marg[eid] - float(val)) <= 1e-6


def test_maxent_rejects_bad_targets():
    tri = MultiGraph(3, [(0, 0, 1), (1, 1, 2), (2, 0, 2)])
    with pytest.raises(BoundaryTarget):
        maxent_fit(tri, {0: Fraction(1, 2), 1: Fraction(1, 2), 2: Fraction(1, 2)})
    with pytest.raises(BoundaryTarget):
        maxent_fit(tri, {0: Fraction(3, 2), 1: Fraction(1, 4), 2: Fraction(1, 4)})


def test_maxent_sample_c4_uniform():
    c4 = MultiGraph(4, [(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 0)])
    targets = {e: Fraction(3, 4) for e in range(4)}
    fit = maxent_fit(c4, targets)
    rng = np.random.default_rng(3)
    n = 40_000
    counts: dict[frozenset, int] = {}
    for _ in range(n):
        t = maxent_sample(fit, rng)
        counts[t] = counts.get(t, 0) + 1
    assert len(counts) == 4
    for c in counts.values():
        p = c / n
        sd = (0.25 * 0.75 / n) ** 0.5
        assert abs(p - 0.25) <= 4 * sd


def test_maxent_sample_contains_forced():
    piece = standalone_piece("octahedron")
    dist = decompose_matchings(piece)
    sh = shift(piece, dist.masks[0], 0)
    fit = maxent_fit(sh.interior_graph, interior_values(sh))
    rng = np.random.default_rng(1)
    for _ in range(100):
        t = maxent_sample(fit, rng)
        assert forced_edges(sh) <= t
        assert len(t) == sh.interior_graph.n - 1


def test_maxent_sequential_matches_enumerated_distribution():
    """Sequential conditioning and the enumerated mixture agree."""
    piece = standalone_piece("octahedron")
    dist = decompose_matchings(piece)
    sh = shift(piece, dist.masks[2], 0)
    fit = maxent_fit(sh.interior_graph, interior_values(sh))
    trees, probs = maxent_tree_distribution(fit)
    idx = {t: i for i, t in enumerate(trees)}
    n = 60_000
    counts = np.zeros(len(trees))
    rng = np.random.default_rng(12)
    for _ in range(n):
        counts[idx[maxent_sample(fit, rng)]] += 1
    for i, p in enumerate(probs):
        sd = max((p * (1 - p) / n) ** 0.5, 1e-9)
        assert abs(counts[i] / n - p) <= 4.5 * sd


def test_maxent_negative_correlation_spot_check():
    piece = standalone_piece("k44")
    dist = decompose_matchings(piece)
    sh = shift(piece, dist.masks[0], 0)
    fit = maxent_fit(sh.interior_graph, interior_values(sh))
    trees, probs = maxent_tree_distribution(fit)
    ids = sorted(sh.interior_graph.edge_ids)
    fractional = [e for e in ids if 0 < state_values(sh)[e] < 1]
    for a, b in itertools.combinations(fractional[:6], 2):
        pa = sum(p for t, p in zip(trees, probs) if a in t)
        pb = sum(p for t, p in zip(trees, probs) if b in t)
        pab = sum(p for t, p in zip(trees, probs) if a in t and b in t)
        assert pab <= pa * pb + 1e-9


def test_sample_double_cycle():
    from tests.conftest import ALL_FAMILIES, family_instance
    from htsp.hierarchy import build_hierarchy

    inst = family_instance("double-cycle")
    h = build_hierarchy(inst)
    piece = h.root.piece
    pairs = piece.internal_pairs()
    rng = np.random.default_rng(0)
    n = 20_000
    counts = {e: 0 for p in pairs for e in p}
    for _ in range(n):
        t = sample_double_cycle(piece, rng)
        assert len(t) == len(pairs)
        for a, b in pairs:
            assert (a in t) != (b in t)
        for e in t:
            counts[e] += 1
    for e, c in counts.items():
        assert abs(c / n - 0.5) <= 4 * (0.25 / n) ** 0.5


def test_k5_paths():
    from tests.conftest import ALL_FAMILIES, family_instance
    from htsp.hierarchy import build_hierarchy

    inst = family_instance("k5-gadget")
    h = build_hierarchy(inst)
    piece = next(nd.piece for nd in h.non_leaves() if nd.kind == "degree")
    interior, _ = piece.internal_graph()
    paths = tree_sets(k5_paths(piece), interior.edge_ids)
    assert len(paths) == 12
    for p in paths:
        assert len(p) == 3
        deg = {v: 0 for v in range(4)}
        for eid in p:
            u, v = interior.endpoints[interior.edge_index(eid)]
            deg[u] += 1
            deg[v] += 1
        assert sorted(deg.values()) == [1, 1, 2, 2]
    # each interior edge lies on exactly six of the twelve paths
    for eid in interior.edge_ids:
        assert sum(1 for p in paths if eid in p) == 6
    rng = np.random.default_rng(0)
    seen = {sample_k5_path(piece, rng) for _ in range(500)}
    assert seen == set(paths)


def test_spanning_tree_enumeration_against_kirchhoff():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(3, 6))
        edges = []
        eid = 0
        for u in range(n):
            for v in range(u + 1, n):
                for _ in range(int(rng.integers(0, 3))):
                    edges.append((eid, u, v))
                    eid += 1
        g = MultiGraph(n, edges)
        if not is_connected(g):
            continue
        assert len(enumerate_spanning_trees(g)) == spanning_tree_count(g)


@st.composite
def loopless_multigraphs(draw) -> MultiGraph:
    """A loopless multigraph of 1 to 7 vertices and up to 14 edges, each
    edge an unordered pair drawn with either orientation; often
    disconnected."""
    n = draw(st.integers(1, 7))
    pairs = list(itertools.combinations(range(n), 2))
    ends = draw(st.lists(st.sampled_from(pairs), max_size=14)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(ends), max_size=len(ends)))
    return MultiGraph(n, [(i, v, u) if flip else (i, u, v)
                          for i, ((u, v), flip) in enumerate(zip(ends, flips))])


@settings(max_examples=300, deadline=None)
@given(loopless_multigraphs())
def test_shape_masks_equal_the_brute_force_enumeration(g):
    """``_shape`` lists the spanning trees that a brute force over every
    set of n - 1 edges finds, in the same order, as many as the Kirchhoff
    count."""
    masks = trees._shape(g.n, g.endpoints).masks.tolist()
    assert masks == list(enumerate_spanning_trees(g))
    assert len(masks) == spanning_tree_count(g)


def test_shape_masks_of_one_vertex_and_of_a_disconnected_graph():
    # one vertex: the empty tree; two parts: no tree
    one = MultiGraph(1, [])
    assert trees._shape(one.n, one.endpoints).masks.tolist() == [0] == list(
        enumerate_spanning_trees(one))
    apart = MultiGraph(4, [(0, 0, 1), (1, 0, 1), (2, 2, 3)])
    assert trees._shape(apart.n, apart.endpoints).masks.tolist() == [] == list(
        enumerate_spanning_trees(apart))
    assert spanning_tree_count(apart) == 0 and spanning_tree_count(one) == 1


def test_cached_spanning_trees_cannot_be_mutated():
    """Both routes share one record per graph shape: no caller can write
    into its tables, and a graph of other edge ids but the same shape gets
    the same record."""
    edges = [(0, 0, 1), (1, 1, 2), (2, 0, 2), (3, 0, 2)]
    g = MultiGraph(3, edges)
    record = trees._shape(g.n, g.endpoints)
    for table in (record.masks, record.positions, record.trees):
        with pytest.raises(ValueError):
            table[0] = 0
    with pytest.raises(AttributeError):
        record.masks = record.masks.copy()
    again = MultiGraph(3, [(7 + e, u, v) for e, u, v in edges])
    assert trees._shape(again.n, again.endpoints) is record
    assert len(record.masks) == spanning_tree_count(g) == 5
    # the 64-edge limit of a mask guards both routes at the record
    with pytest.raises(SizeLimitExceeded):
        trees._shape(2, ((0, 1),) * 65)


@pytest.mark.parametrize("name", ["zoo", "random-4reg-12-0"])
def test_every_shape_record_keeps_each_route_order(name, monkeypatch):
    """On every shape a ``mix`` compile meets, the max-entropy positions
    read back as the masks in enumeration order, and the decomposition's
    candidates are the masks ascending, as ``trees`` holds them."""
    records = {}
    real = trees._shape

    def recording(n, endpoints):
        record = real(n, endpoints)
        records[id(record)] = record
        return record

    monkeypatch.setattr(trees, "_shape", recording)
    pipeline.build_piece_samplers(build_hierarchy(instance(name)),
                                  pipeline.SamplerParams(sampler="mix"))
    assert len(records) > 1
    for record in records.values():
        masks = record.masks.tolist()
        assert [sum(1 << p for p in row) for row in record.positions.tolist()] == masks
        assert list(record.decomposition.cands) == record.trees.tolist() == sorted(masks)


def test_mi_sample_draws_constrained_trees():
    piece = standalone_piece("octahedron")
    dist = decompose_matchings(piece)
    rng = np.random.default_rng(21)
    mk = dist.masks[0]
    sub = select_submatching(piece, mk, rng)
    sh = shift(piece, mk, sub)
    for _ in range(50):
        t = mi_sample(sh, rng)
        assert forced_edges(sh) <= t
        assert len(t) == sh.interior_graph.n - 1
        for part in sh.parts:
            assert len(set(part) & t) <= 1


def test_maxent_nonconvergence_and_breakdown(monkeypatch):
    from htsp.errors import NonConvergence, NumericalBreakdown

    c4 = MultiGraph(4, [(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 0)])
    targets = {0: Fraction(7, 10), 1: Fraction(7, 10), 2: Fraction(7, 10),
               3: Fraction(9, 10)}
    monkeypatch.setattr(trees, "FIT_MAX_ROUNDS", 1)
    with pytest.raises(NonConvergence):
        maxent_fit(c4, targets)
    # a disconnected support never reaches the fit (the target sum check
    # rejects it first), but the Laplacian guard still protects sampling
    disconnected = MultiGraph(4, [(0, 0, 1), (1, 0, 1), (2, 2, 3), (3, 2, 3)])
    with pytest.raises(NumericalBreakdown):
        trees._fit_components([(disconnected, (0.5,) * 4)], 1e-6, 10)


def test_tree_weights_off_one_raise_infeasible_shift():
    with pytest.raises(InfeasibleShift, match="sum to 1"):
        ConstrainedTreeDistribution((frozenset({0}), frozenset({1})),
                                    (Fraction(1, 2), Fraction(1, 3)))


def test_tree_marginals_off_target_raise_infeasible_shift(monkeypatch):
    # a decomposition that sums to 1 but puts all mass on one tree
    tri = MultiGraph(3, [(0, 0, 1), (1, 1, 2), (2, 0, 2)])
    sh = shifted_on(tri, {0: Fraction(2, 3), 1: Fraction(2, 3), 2: Fraction(2, 3)})
    monkeypatch.setattr(trees, "decompose", lambda jobs: [
        Decomposition((int(np.flatnonzero(s.alive)[0]),), (1,), 1) for _, s in jobs])
    with pytest.raises(InfeasibleShift, match="marginals"):
        constrained_tree_distribution(sh)


@pytest.mark.parametrize("family", ["zoo", "random-4reg"])
def test_rejections_catch_corrupted_decompositions(family):
    """A decomposition with a tree swapped for another, its last tree
    dropped or mass moved between two trees fails ``_rejections``."""
    checked = 0
    for piece in degree_pieces(family_instance(family)):
        for _, sh in itertools.islice(per_class_mi_states(piece), 0, None, 5):
            (prep, state), = trees._tree_states([sh])
            shape = prep.record.decomposition
            (r,) = trees.decompose([(shape, state)])
            assert trees._rejections([(shape, state)], [r]) == [None]
            if len(r.order) < 2:
                continue
            swapped = r.order[:-1] + ((r.order[-1] + 1) % len(shape.cands),)
            moved = (r.numerators[0] + 1, r.numerators[1] - 1) + r.numerators[2:]
            variants = [
                r._replace(order=swapped),
                r._replace(order=r.order[:-1], numerators=r.numerators[:-1]),
                r._replace(numerators=moved),
            ]
            for verdict in trees._rejections([(shape, state)] * len(variants), variants):
                assert isinstance(verdict, InfeasibleShift)
            checked += 1
    assert checked


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_every_tree_weights_reproduces_its_state(family):
    """The compile's decompositions pass the oracles that re-check every
    interior edge: forced and zero edges as well as the minor's."""
    for piece in degree_pieces(family_instance(family)):
        states = _piece_states(piece, classes=True)[0]
        for sh, w in zip(states, constrained_tree_weights(states)):
            dist = ConstrainedTreeDistribution(
                tuple(tree_sets(w.trees, sh.interior_graph.edge_ids)),
                tuple(Fraction(k, w.denominator) for k in w.numerators))
            assert _marginals_reproduce(dist, interior_values(sh))
            fraction_marginal_check(sh, dist)


@pytest.mark.parametrize("name", [*ALL_FAMILIES, *(f"random-4reg-12-{s}" for s in range(4))])
def test_every_compiled_fit_and_tree_law_equals_the_per_component_reference(name, monkeypatch):
    """Each fit a compile makes in lockstep, and each tree law it builds as
    position masks, equals the one-component-at-a-time fit and the
    edge-id-set law bit for bit: weights, fit errors, trees and
    probabilities, in order."""
    fits, laws = [], []
    real_fits, real_law = pipeline.maxent_fits, pipeline.maxent_tree_law

    def recording_fits(problems):
        out = real_fits(problems)
        fits.extend(zip(problems, out))
        return out

    def recording_law(fit, edge_ids):
        masks, probs = real_law(fit, edge_ids)
        laws.append((fit, edge_ids, masks, probs))
        return masks, probs

    monkeypatch.setattr(pipeline, "maxent_fits", recording_fits)
    monkeypatch.setattr(pipeline, "maxent_tree_law", recording_law)
    pipeline.build_piece_samplers(build_hierarchy(instance(name)),
                                  pipeline.SamplerParams(sampler="maxent"))
    assert bool(fits) == bool(degree_pieces(instance(name)))
    if fits:
        # one batch more: a problem twice and a copy under other edge ids,
        # whose components are fitted once and handed to each under its ids
        (graph, row, den), _ = max(fits, key=lambda f: len(f[1].components))
        copy = MultiGraph(graph.n, [(100 + e, a, b) for e, (a, b) in
                                    zip(graph.edge_ids, graph.endpoints)], graph.vertex_sets)
        batch = [(graph, row, den), (graph, row, den), (copy, row, den)]
        sizes = []
        real_components = trees._fit_components
        monkeypatch.setattr(trees, "_fit_components",
                            lambda todo, *a: sizes.append(len(todo)) or real_components(todo, *a))
        out = trees.maxent_fits(batch)
        plan = trees._plan_fit(graph, row, den)
        assert sizes == [len({(g.n, g.endpoints, t) for g, t in plan.components})] != [0]
        fits.extend(zip(batch, out))
    for (graph, row, den), fit in fits:
        ref = per_component_maxent_fit(graph, {e: Fraction(k, den)
                                               for e, k in zip(graph.edge_ids, row)})
        assert (fit.forced, fit.zeros) == (ref.forced, ref.zeros)
        assert len(fit.components) == len(ref.components)
        for c, r in zip(fit.components, ref.components):
            assert c.graph.edge_ids == r.graph.edge_ids
            assert list(c.weights) == list(r.weights)
            assert (np.array(list(c.weights.values())).tobytes()
                    == np.array(list(r.weights.values())).tobytes())
            assert np.float64(c.fit_error).tobytes() == np.float64(r.fit_error).tobytes()
    assert bool(laws) == bool(fits)
    for fit, edge_ids, masks, probs in laws:
        want_trees, want_probs = maxent_tree_distribution(fit)
        assert [frozenset(edge_ids[i] for i in bits(m)) for m in masks.tolist()] == list(want_trees)
        assert probs.tobytes() == want_probs.tobytes()
