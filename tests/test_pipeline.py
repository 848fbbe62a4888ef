import gc
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import htsp.matching as matching
import htsp.pipeline as pipeline
import htsp.trees as trees
from htsp.decomp import Decomposition
from htsp.errors import AssemblyError, InfeasibleShift
from htsp.hierarchy import build_hierarchy
from htsp.pipeline import (
    DegreePieceSampler,
    EnumeratedPieceSampler,
    GuideTable,
    SamplerParams,
    build_piece_samplers,
    sample_r0_tree,
    validate_r0_tree,
)
from htsp.generators import generate_random_4reg
from htsp.matching import decompose_matchings, seven_coloring, shift
from tests.conftest import ALL_FAMILIES, family_instance
from tests.reference import (fraction_mi_mixture, fraction_piece_states, per_class_mi_states,
                             tree_sets)
from tests.single_draws import degree_piece_draw, restrict


def degree_pieces(inst):
    """The pieces that compile through the matching and tree routes."""
    return [nd.piece for nd in build_hierarchy(inst).non_leaves()
            if nd.kind != "cycle" and nd.piece.graph.n != 5]


def mi_mixture_sets(piece) -> dict[frozenset[int], Fraction]:
    """The compiled matroid-route mixture of a degree piece by edge-id set,
    its integer numerators over their denominator as ``Fraction``s."""
    sampler = DegreePieceSampler(piece, SamplerParams(sampler="mi"))
    masks, nums, den = sampler.mi_mixture()
    assert type(den) is int and all(type(k) is int for k in nums)
    return dict(zip(tree_sets(masks, sampler._edge_ids), (Fraction(k, den) for k in nums)))


@pytest.fixture(params=("mi", "mix"))
def sampler_params(request):
    return SamplerParams(sampler=request.param)


def test_sampled_trees_are_rooted_trees(any_instance, sampler_params):
    h = build_hierarchy(any_instance)
    samplers = build_piece_samplers(h, sampler_params)
    for trial in range(40):
        ts = sample_r0_tree(h, sampler_params, seed=42, trial=trial, samplers=samplers)
        assert len(ts.edges) == any_instance.graph.n  # validated inside as well


def test_edge_count_identity(any_instance):
    h = build_hierarchy(any_instance)
    total = 0
    for nd in h.non_leaves():
        interior = len(nd.piece.internal_vertices)
        total += interior - 1
        if nd.is_root:
            total += 2
    assert total == any_instance.graph.n


def test_compiled_exact_marginals_are_half(any_instance):
    h = build_hierarchy(any_instance)
    samplers = build_piece_samplers(h, SamplerParams(sampler="mi"))
    from htsp.join import classify
    from htsp.oracle import exact_marginals

    marg = exact_marginals(h, samplers, classify(h))
    for e in range(any_instance.graph.m):
        assert marg[e] == Fraction(1, 2)


def test_compiled_mix_marginals_near_half(zoo_instance):
    h = build_hierarchy(zoo_instance)
    samplers = build_piece_samplers(h, SamplerParams(sampler="mix"))
    from htsp.join import classify
    from htsp.oracle import exact_marginals

    marg = exact_marginals(h, samplers, classify(h))
    for e in range(zoo_instance.graph.m):
        assert abs(float(marg[e]) - 0.5) <= 2e-6


def test_generative_matches_compiled_distribution(k5_instance):
    """Frequencies from the generative path match the compiled mixture."""
    h = build_hierarchy(k5_instance)
    sp = SamplerParams(sampler="mi")
    samplers = build_piece_samplers(h, sp)
    degree = next(
        s for s in samplers.values() if getattr(s, "kind", "") in ("degree", "k5")
    )
    n = 30_000
    rng = np.random.default_rng(44)
    counts: dict[frozenset, int] = {}
    for _ in range(n):
        t, _ = degree.sample(rng)
        counts[t] = counts.get(t, 0) + 1
    assert set(counts) <= set(degree.trees)
    for t, p in zip(degree.trees, degree.probs):
        c = counts.get(t, 0)
        sd = max((p * (1 - p) / n) ** 0.5, 1e-9)
        assert abs(c / n - p) <= 4.5 * sd


def test_seeded_sampling_is_reproducible(zoo_instance):
    h = build_hierarchy(zoo_instance)
    sp = SamplerParams(sampler="mix")
    samplers = build_piece_samplers(h, sp)
    a = [sample_r0_tree(h, sp, seed=9, trial=t, samplers=samplers).edges for t in range(5)]
    b = [sample_r0_tree(h, sp, seed=9, trial=t, samplers=samplers).edges for t in range(5)]
    assert a == b
    c = [sample_r0_tree(h, sp, seed=10, trial=t, samplers=samplers).edges for t in range(5)]
    assert a != c


def test_restrict_parities(zoo_instance):
    h = build_hierarchy(zoo_instance)
    sp = SamplerParams(sampler="mi")
    samplers = build_piece_samplers(h, sp)
    ts = sample_r0_tree(h, sp, seed=5, trial=0, samplers=samplers)
    for nd in h.non_leaves():
        local, parity = restrict(h, ts.edges, nd.node_id)
        g = nd.piece.graph
        # interior edges of the restriction form a spanning tree of the piece
        interior_local = [e for e in local if e in set(nd.piece.internal_edge_ids)]
        assert len(interior_local) == len(nd.piece.internal_vertices) - 1
        assert sum(parity.values()) % 2 == 0
        # leaf nodes restrict to nothing
    for nd in h.nodes:
        if nd.kind == "leaf":
            local, parity = restrict(h, ts.edges, nd.node_id)
            assert local == frozenset() and parity == {}


def test_validate_rejects_bad_sets(zoo_instance):
    h = build_hierarchy(zoo_instance)
    from htsp.errors import AssemblyError

    with pytest.raises(AssemblyError):
        validate_r0_tree(h, frozenset(range(zoo_instance.graph.n - 1)))


def test_marginal_monte_carlo_loose(any_instance):
    h = build_hierarchy(any_instance)
    sp = SamplerParams(sampler="mix")
    samplers = build_piece_samplers(h, sp)
    n = 3_000
    counts = np.zeros(any_instance.graph.m)
    for trial in range(n):
        ts = sample_r0_tree(h, sp, seed=77, trial=trial, samplers=samplers)
        for e in ts.edges:
            counts[e] += 1
    sd = (0.25 / n) ** 0.5
    assert np.all(np.abs(counts / n - 0.5) <= 5 * sd)


def test_compiled_samplers_keep_no_python_object_per_tree():
    """A tree table is arrays, not one object per tree: the samplers of
    random-4reg n = 12, generator seed 3 (mix, 962 trees) hold under
    0.5 MB after the build, where one frozenset per tree came to 1 MB.
    The process-wide caches the build fills stay after the samplers are
    deleted, so they are not counted."""
    h = build_hierarchy(generate_random_4reg(12, np.random.default_rng(3)))
    gc.collect()
    tracemalloc.start()
    try:
        samplers = build_piece_samplers(h, SamplerParams(sampler="mix"))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del samplers
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 500_000


def test_enumerated_probabilities_off_one_raise_assembly_error():
    masks = np.array([0b01, 0b10], dtype=np.uint64)
    with pytest.raises(AssemblyError, match="sum to 1"):
        # 1/2 and 1/3 over 6
        EnumeratedPieceSampler("k5", (0, 1), masks, [3, 2], generative=None, den=6)


def test_mi_mixture_off_one_raises_assembly_error(monkeypatch):
    h = build_hierarchy(family_instance("zoo"))
    piece = min((nd.piece for nd in h.non_leaves()
                 if nd.kind != "cycle" and nd.piece.graph.n != 5),
                key=lambda p: p.graph.n)
    real_states = pipeline._piece_states
    # the first state alone, at half its probability
    monkeypatch.setattr(pipeline, "_piece_states", lambda p, classes, built: (
        real_states(p, classes)[0][:1], [(1, 0)], 2))
    with pytest.raises(AssemblyError, match="sum to 1"):
        DegreePieceSampler(piece, SamplerParams(sampler="mi")).mi_mixture()


@pytest.mark.parametrize("weights, message", [
    ((1,), "marginals"),      # every state's mass on its first tree
    ((1, 1), "sum to 1"),     # two trees at one each
])
def test_mi_mixture_checks_each_state_s_tree_weights(weights, message, monkeypatch):
    # the batched compile checks the weights it mixes, not only the greedy
    piece = min(degree_pieces(family_instance("zoo")), key=lambda p: p.graph.n)
    def fake(jobs):
        out = []
        for _, s in jobs:
            order = tuple(int(i) for i in np.flatnonzero(s.alive)[:len(weights)])
            out.append(Decomposition(order, weights[:len(order)], 1))
        return out

    monkeypatch.setattr(trees, "decompose", fake)
    with pytest.raises(InfeasibleShift, match=message):
        DegreePieceSampler(piece, SamplerParams(sampler="mi")).mi_mixture()


@pytest.mark.parametrize("name", [*ALL_FAMILIES, *(f"random-4reg-12-{s}" for s in range(4))])
def test_mi_mixture_equals_the_fraction_reference(name):
    if name in ALL_FAMILIES:
        inst = family_instance(name)
    else:
        inst = generate_random_4reg(12, np.random.default_rng(int(name.rsplit("-", 1)[1])))
    for piece in degree_pieces(inst):
        mix = mi_mixture_sets(piece)
        assert all(type(p) is Fraction for p in mix.values())
        assert mix == fraction_mi_mixture(piece)


@pytest.mark.parametrize("name", [*ALL_FAMILIES, *(f"random-4reg-12-{s}" for s in range(4))])
def test_the_walks_equal_the_fraction_walks(name):
    """Both routes' walks, run as a compile runs them (the max-entropy walk
    first, its states shared with the matroid route's), give the
    ``Fraction`` walk's states in its order, each with its values, parts,
    forced edges and provenance, and each visit its probability exactly."""
    from tests.test_compiled_digests import instance

    for piece in degree_pieces(instance(name)):
        built, ref_built = {}, {}
        for classes in (False, True):
            states, visits, den = pipeline._piece_states(piece, classes, built)
            want, want_visits = fraction_piece_states(piece, classes, ref_built)
            assert [(Fraction(k, den), i) for k, i in visits] == want_visits
            assert len(states) == len(want)
            for sh, ref in zip(states, want):
                assert list(sh.values.items()) == list(ref.values.items())
                assert list(sh.interior_values().items()) == list(ref.interior_values().items())
                assert (sh.parts, sh.forced, sh.provenance) == (ref.parts, ref.forced,
                                                                 ref.provenance)


def _state_key(shifted):
    return tuple(sorted(shifted.values.items())), shifted.parts


@pytest.mark.parametrize("n", [6, 7])
def test_a_state_of_several_color_classes_is_visited_and_decomposed_once(n, monkeypatch):
    (piece,) = [p for p in degree_pieces(family_instance("zoo")) if p.graph.n == n]
    # each state once, at the summed probability of its visits
    want: dict[tuple, Fraction] = {}
    for pr, sh in per_class_mi_states(piece):
        key = _state_key(sh)
        want[key] = want.get(key, 0) + pr
    states, visits, den = pipeline._piece_states(piece, classes=True)
    got: dict[tuple, Fraction] = {}
    for k, i in visits:
        key = _state_key(states[i])
        got[key] = got.get(key, 0) + Fraction(k, den)
    assert len(visits) < sum(1 for _ in per_class_mi_states(piece))
    assert len({_state_key(sh) for sh in states}) == len(states)
    assert got == want
    if n % 2 == 0:
        # the empty classes of a matching all give its unrestricted state
        dist = decompose_matchings(piece)
        mk, w = dist.masks[0], dist.weights[0]
        empty = sum(1 for c in seven_coloring(piece.graph, mk) if not c)
        assert empty >= 2
        assert got[_state_key(shift(piece, mk, 0))] == w * Fraction(empty, 7)
    else:
        # two surgery triggers at one boundary vertex visit one state
        assert len(visits) > len(states)
    # one decomposition per distinct state, every distinct state decomposed
    calls: dict = {}
    real = pipeline.constrained_tree_weights

    def counting(batch):
        for shifted in batch:
            calls[_state_key(shifted)] = calls.get(_state_key(shifted), 0) + 1
        return real(batch)

    monkeypatch.setattr(pipeline, "constrained_tree_weights", counting)
    DegreePieceSampler(piece, SamplerParams(sampler="mi")).mi_mixture()
    assert calls and set(calls.values()) == {1}
    assert set(calls) == set(want)


@pytest.mark.parametrize("n", [6, 7])
def test_each_split_piece_is_decomposed_once(n, monkeypatch):
    # both routes and the single draws share one decomposition per
    # pairing of an odd piece, and one of an even piece
    (piece,) = [p for p in degree_pieces(family_instance("zoo")) if p.graph.n == n]
    calls = []
    real = matching.matching_distributions
    monkeypatch.setattr(matching, "matching_distributions",
                        lambda gs: calls.append(len(gs)) or real(gs))
    sampler = DegreePieceSampler(piece, SamplerParams(sampler="mix"))
    compiled = sampler.compiled()
    rng = np.random.default_rng(0)
    for _ in range(30):
        compiled.sample(rng)
    # an odd piece's three split pieces go in one call
    assert calls == [3 if n % 2 else 1]


@pytest.mark.parametrize("family", ["nested", "random-4reg", "zoo"])
def test_single_draws_walk_the_states_step_by_step(family):
    """A degree piece's single draw, read off the sampler's tables, is the
    draw made step by step from a fresh decomposition of each step, and
    leaves the stream at the same place."""
    for piece in degree_pieces(family_instance(family)):
        for sampler in ("mi", "maxent", "mix"):
            params = SamplerParams(sampler=sampler)
            degree = DegreePieceSampler(piece, params)
            share = float(params.effective_lambda)
            a, b = np.random.default_rng(8), np.random.default_rng(8)
            for _ in range(40):
                assert degree._generative(a) == degree_piece_draw(piece, share, b)
            assert a.random() == b.random()


# ---------------------------------------------------------------------------
# guide-table lookup
# ---------------------------------------------------------------------------

def _search(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


@st.composite
def cdfs_and_draws(draw):
    """A cdf of K entries and draws in [0, 1) that sit on its entries, next
    to them, at 0, at 1 - 2**-53 and anywhere.  A skewed cdf packs many
    tiny masses after one large one, into one bucket of the guide table,
    so the draws between them outrun the stepping passes; its total is
    moved just below or just above 1."""
    k = draw(st.integers(1, 40))
    masses = np.array(draw(st.lists(st.floats(0, 1), min_size=k, max_size=k)))
    if draw(st.booleans()):
        tiny = draw(st.integers(1, 3 * k))
        masses = np.concatenate([masses, np.full(tiny, 1e-9)])
        masses[draw(st.integers(0, k - 1))] = float(len(masses))
    if masses.sum() == 0:
        masses[-1] = 1.0
    cdf = np.cumsum(masses / masses.sum())
    end = draw(st.sampled_from(["as-summed", "one", "ulp-below", "below", "ulp-above", "above"]))
    cdf[-1] = {"as-summed": cdf[-1], "one": 1.0, "ulp-below": np.nextafter(1.0, 0.0),
               "below": 1 - 1e-7, "ulp-above": np.nextafter(1.0, 2.0), "above": 1 + 1e-7}[end]
    cdf[:-1] = np.minimum(cdf[:-1], cdf[-1])
    near = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0)])
    u = np.concatenate([near, [0.0, 1 - 2.0 ** -53],
                        draw(st.lists(st.floats(0, 1, exclude_max=True), max_size=20))])
    return cdf, u[(u >= 0) & (u < 1)]


@settings(max_examples=300, deadline=None)
@given(cdfs_and_draws())
def test_guide_lookup_matches_searchsorted(case):
    cdf, u = case
    idx = GuideTable(cdf).lookup(u)
    assert idx.tolist() == _search(cdf, u).tolist()


def test_guide_lookup_edge_cases_and_fallback():
    one = GuideTable(np.array([1.0]))
    assert one.lookup(np.array([0.0, 0.5, 1 - 2.0 ** -53])).tolist() == [0, 0, 0]
    # 30 tiny masses after a large one share one bucket: a draw among them
    # needs more steps than the passes take, so it falls back to the search
    cdf = np.cumsum(np.concatenate([[0.3], np.full(30, 1e-9), np.full(10, 0.07 - 3e-9)]))
    table = GuideTable(cdf)
    u = cdf[:-1].copy()
    start = table.guide[np.maximum((u * len(table.guide)).astype(np.intp) - 1, 0)]
    assert (_search(cdf, u) - start > GuideTable.PASSES).any()
    assert table.lookup(u).tolist() == _search(cdf, u).tolist()
    # equal masses put entries on bucket edges j / 2K; just below one, u * 2K
    # can round up to j, which is why a draw starts one bucket lower
    for k in range(1, 100):
        cdf = np.cumsum(np.full(k, 1.0 / k))
        u = np.nextafter(cdf, 0.0)
        assert GuideTable(cdf).lookup(u).tolist() == _search(cdf, u).tolist()


def test_single_draws_and_block_draws_read_one_stream_alike():
    """``sample`` draws one uniform per call, ``draw_rows`` a row of them:
    from one seed they pick the same trees."""
    inst = family_instance("k5-gadget")
    h = build_hierarchy(inst)
    sampler = next(s for s in build_piece_samplers(h, SamplerParams()).values()
                   if isinstance(s, EnumeratedPieceSampler) and s.kind == "k5")
    rng = np.random.default_rng(4)
    singles = [sampler.sample(rng)[0] for _ in range(300)]
    T = np.zeros((inst.graph.m, 300), dtype=bool)
    sampler.draw_rows(T, np.random.default_rng(4))
    assert [frozenset(np.flatnonzero(T[:, t]).tolist()) for t in range(300)] == singles
