import csv
import gc
import io
import json
import time
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import htsp.matching as matching
import htsp.pipeline as pipeline
import htsp.trees as trees
from htsp.decomp import Decomposition
from htsp.engine import BatchEngine, CompiledInstance
from htsp.errors import AssemblyError, InfeasibleShift, SizeLimitExceeded
from htsp.hierarchy import build_hierarchy
from htsp.pipeline import (
    DegreePieceSampler,
    EnumeratedPieceSampler,
    GuideTable,
    SamplerParams,
    ShiftPosterior,
    build_piece_samplers,
)
from htsp.generators import generate_random_4reg
from htsp.params import FIT_TOLERANCE, HALF, SIGMAS
from htsp.matching import decompose_matchings, provenance, seven_coloring
from tests.conftest import ALL_FAMILIES, family_instance, trial_trees
from tests.reference import (forced_edges, fraction_mi_mixture, fraction_piece_states,
                             interior_values, per_class_mi_states, shift, state_provenance,
                             state_values, tree_sets, validate_r0_tree)
from tests.single_draws import degree_piece_draw, restrict, sample_k5_path


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
    ci = CompiledInstance(any_instance, sampler_params)
    for edges in trial_trees(ci, 40, 42):
        assert len(edges) == any_instance.graph.n
        validate_r0_tree(ci.h, edges)


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


@pytest.mark.parametrize("sampler", ["maxent", "mix"])
@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_fitted_marginals_within_the_fit_bound(family, sampler):
    """Where the max-entropy fit enters, every exact marginal lies within
    (2/3) * lam * ``FIT_TOLERANCE`` of one half, the bound that
    ``stats.is_half`` states, compared as ``Fraction``s."""
    from htsp.oracle import exact_marginals

    ci = CompiledInstance(family_instance(family), SamplerParams(sampler=sampler))
    bound = Fraction(2, 3) * ci.sp.effective_lambda * Fraction(FIT_TOLERANCE)
    marg = exact_marginals(ci.h, ci.samplers, ci.classes)
    assert sorted(marg) == list(range(ci.m))
    assert all(abs(m - HALF) <= bound for m in marg.values())


@pytest.mark.parametrize("gen_seed", [1, 5])
def test_a_piece_past_the_interior_limit_is_refused(gen_seed):
    """``random-4reg`` at n = 18 holds a degree piece of interior 13, one
    past the compile's limit: the compile refuses it at once, naming both."""
    inst = generate_random_4reg(18, np.random.default_rng(gen_seed))
    start = time.perf_counter()
    with pytest.raises(SizeLimitExceeded,
                       match="^piece interior 13 exceeds enumeration limit 12$"):
        CompiledInstance(inst)
    assert time.perf_counter() - start < 0.1


def test_generative_matches_compiled_distribution(k5_instance):
    """Frequencies of the step-by-step draw of a K5 piece (a uniform
    Hamiltonian path) match its compiled table."""
    h = build_hierarchy(k5_instance)
    samplers = build_piece_samplers(h, SamplerParams(sampler="mi"))
    nd = next(nd for nd in h.non_leaves() if nd.kind != "cycle")
    degree = samplers[nd.node_id]
    assert degree.kind == "k5"
    n = 30_000
    rng = np.random.default_rng(44)
    counts: dict[frozenset, int] = {}
    for _ in range(n):
        t = sample_k5_path(nd.piece, rng)
        counts[t] = counts.get(t, 0) + 1
    assert set(counts) <= set(degree.trees)
    for t, p in zip(degree.trees, degree.probs):
        c = counts.get(t, 0)
        sd = max((p * (1 - p) / n) ** 0.5, 1e-9)
        assert abs(c / n - p) <= 4.5 * sd


def test_seeded_sampling_is_reproducible(zoo_instance):
    ci = CompiledInstance(zoo_instance, SamplerParams(sampler="mix"))
    a = trial_trees(ci, 5, 9)
    assert a == trial_trees(ci, 5, 9)
    assert a != trial_trees(ci, 5, 10)


def test_restrict_parities(zoo_instance):
    ci = CompiledInstance(zoo_instance, SamplerParams(sampler="mi"))
    h = ci.h
    (edges,) = trial_trees(ci, 1, 5)
    for nd in h.non_leaves():
        local, parity = restrict(h, edges, nd.node_id)
        g = nd.piece.graph
        # interior edges of the restriction form a spanning tree of the piece
        interior_local = [e for e in local if e in set(nd.piece.internal_edge_ids)]
        assert len(interior_local) == len(nd.piece.internal_vertices) - 1
        assert sum(parity.values()) % 2 == 0
        # leaf nodes restrict to nothing
    for nd in h.nodes:
        if nd.kind == "leaf":
            local, parity = restrict(h, edges, nd.node_id)
            assert local == frozenset() and parity == {}


def test_validate_rejects_bad_sets(zoo_instance):
    h = build_hierarchy(zoo_instance)
    with pytest.raises(AssemblyError):
        validate_r0_tree(h, frozenset(range(zoo_instance.graph.n - 1)))


def test_marginal_monte_carlo_loose(any_instance):
    ci = CompiledInstance(any_instance, SamplerParams(sampler="mix"))
    n = 3_000
    counts = np.zeros(any_instance.graph.m)
    for edges in trial_trees(ci, n, 77):
        counts[list(edges)] += 1
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
        EnumeratedPieceSampler("k5", (0, 1), masks, [3, 2], den=6)


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
                assert list(state_values(sh).items()) == list(ref.values.items())
                assert list(interior_values(sh).items()) == list(ref.interior_values().items())
                assert (sh.parts, forced_edges(sh), state_provenance(sh)) == (
                    ref.parts, ref.forced, ref.provenance)


def _state_key(shifted):
    return tuple(sorted(state_values(shifted).items())), shifted.parts


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
    # both routes and the walk behind a drawn tree share one decomposition
    # per pairing of an odd piece, and one of an even piece
    (piece,) = [p for p in degree_pieces(family_instance("zoo")) if p.graph.n == n]
    calls = []
    real = matching.matching_distributions
    monkeypatch.setattr(matching, "matching_distributions",
                        lambda gs: calls.append(len(gs)) or real(gs))
    DegreePieceSampler(piece, SamplerParams(sampler="mix")).compiled()
    ShiftPosterior(piece, SamplerParams(sampler="mix"))
    # an odd piece's three split pieces go in one call
    assert calls == [3 if n % 2 else 1]


@pytest.mark.parametrize("family", ["nested", "random-4reg", "zoo"])
def test_single_draws_walk_the_states_step_by_step(family):
    """Every draw of the step-by-step walk of ``tests/single_draws.py``, a
    fresh decomposition at each step, is a visit of the compile's walk on
    its route, with its own ledger, whose state's tree law gives the drawn
    tree a positive probability."""
    for piece in degree_pieces(family_instance(family)):
        edge_ids = piece.internal_graph()[0].edge_ids
        for sampler in ("mi", "maxent", "mix"):
            params = SamplerParams(sampler=sampler)
            visits = DegreePieceSampler(piece, params).walk_visits()
            share = float(params.effective_lambda)
            rng = np.random.default_rng(8)
            memo: dict = {}
            for _ in range(40):
                tree, ledger = degree_piece_draw(piece, share, rng, memo)
                mask = sum(1 << i for i, e in enumerate(edge_ids) if e in tree)
                assert any(dict(provenance(*step), mode=route) == ledger
                           and law.get(mask, 0) > 0 for route, step, _, law in visits)


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
    """A block draw picks, for each trial, the tree that a search of the
    cdf gives for that trial's uniform, drawn one at a time from the same
    seed."""
    inst = family_instance("k5-gadget")
    h = build_hierarchy(inst)
    sampler = next(s for s in build_piece_samplers(h, SamplerParams()).values()
                   if isinstance(s, EnumeratedPieceSampler) and s.kind == "k5")
    rng = np.random.default_rng(4)
    cdf = np.cumsum(sampler.probs)
    singles = [sampler.trees[int(_search(cdf, np.array([rng.random()]))[0])]
               for _ in range(300)]
    T = np.zeros((inst.graph.m, 300), dtype=bool)
    sampler.draw_rows(T, np.random.default_rng(4))
    assert [frozenset(np.flatnonzero(T[:, t]).tolist()) for t in range(300)] == singles


# ---------------------------------------------------------------------------
# the one trial stream and the walk behind a drawn tree
# ---------------------------------------------------------------------------

def test_sample_join_and_stats_share_trial_t(tmp_path, capsys):
    """Trial t of ``htsp sample``, ``htsp join`` and ``stats`` (a
    ``BatchEngine.run``) at one trial count and seed is one tree: the
    trees ``sample`` prints are the helper's, ``join``'s tree costs are
    theirs, and the run's per-edge inclusion counts are their sums."""
    from htsp.cli import main

    inst = family_instance("zoo")
    path = str(tmp_path / "zoo.htsp")
    assert main(["generate", "--family", "zoo", "--seed", "3", "--out", path]) == 0
    trials, seed = 300, 6
    assert main(["sample", path, "--trials", str(trials), "--seed", str(seed)]) == 0
    printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    engine = BatchEngine(inst, SamplerParams())
    trees = trial_trees(engine, trials, seed)
    assert [(e["trial"], e["edges"]) for e in printed] == [(t, sorted(edges)) for t, edges
                                                          in enumerate(trees)]
    assert main(["join", path, "--trials", str(trials), "--seed", str(seed)]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [float(r["tree_cost"]) for r in rows] == [
        float(sum(inst.costs[e] for e in edges)) for edges in trees]
    incl = engine.run(trials, seed, join=False).incl
    want = np.zeros(inst.graph.m, dtype=np.int64)
    for edges in trees:
        want[list(edges)] += 1
    assert incl.tolist() == want.tolist()


def test_tree_check_names_the_first_trial_that_is_not_a_rooted_tree():
    """``tree_edges`` checks a whole block at once and names the first trial
    that ``validate_r0_tree``, one trial at a time, refuses: one non-root
    tree edge swapped for a non-tree edge that closes a cycle, then for one
    that leaves a leaf apart from the rest."""
    ci = CompiledInstance(family_instance("zoo"), SamplerParams())
    g, root = ci.inst.graph, ci.inst.root
    (first, T, _), = ci.tree_chunks(40, 3)
    assert len(ci.tree_edges(T, first)) == 40
    for t in range(40):
        validate_r0_tree(ci.h, frozenset(np.flatnonzero(T[:, t]).tolist()))
    trial = 17
    tree = set(np.flatnonzero(T[:, trial]).tolist())
    inner = [e for e in range(g.m) if root not in g.endpoints[e]]
    degree = np.bincount(np.array([g.endpoints[e] for e in tree]).ravel(), minlength=g.n)
    leaf = next(e for e in sorted(tree & set(inner))
                if min(degree[v] for v in g.endpoints[e]) == 1)
    cases = {
        "cycle": [(e, f) for e in sorted(tree & set(inner)) for f in inner if f not in tree],
        "split": [(leaf, f) for f in inner
                  if f not in tree and min(degree[v] for v in g.endpoints[f]) > 1],
    }
    for name, swaps in cases.items():
        for drop, add in swaps:
            broken = tree - {drop} | {add}
            try:
                validate_r0_tree(ci.h, frozenset(broken))
            except AssemblyError:
                break
        else:
            pytest.fail(f"no {name} swap breaks trial {trial}")
        B = T.copy()
        B[drop, trial], B[add, trial] = False, True
        B[:, trial + 5] = B[:, trial]
        with pytest.raises(AssemblyError, match=f"^trial {first + trial}:"):
            ci.tree_edges(B, first)


def test_no_degree_sampler_outlives_the_compile(monkeypatch):
    """A compile keeps only the tree tables: no ``DegreePieceSampler`` is
    reachable from the engine once it is built."""
    refs = []
    real = DegreePieceSampler.compiled

    def recording(self):
        refs.append(weakref.ref(self))
        return real(self)

    monkeypatch.setattr(DegreePieceSampler, "compiled", recording)
    engine = BatchEngine(family_instance("zoo"), SamplerParams())
    gc.collect()
    assert engine.samplers and refs
    assert [r() for r in refs] == [None] * len(refs)


def _table_masks(sampler: EnumeratedPieceSampler, edge_ids) -> list[int]:
    """Each tree of a tree table as its mask over the positions of
    ``edge_ids``."""
    position = {e: i for i, e in enumerate(edge_ids)}
    return [sum(1 << position[e] for e in tree) for tree in sampler.trees]


@pytest.mark.parametrize("sampler", ["mi", "maxent", "mix"])
@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_the_walk_posterior_sums_to_the_table_and_to_the_visits(family, sampler):
    """For every degree piece, the joint weights of the walk's visits with
    each tree of the piece's table sum over the visits to the table's
    probability of the tree, and over the table's trees to the walk's
    visit law (the ``Fraction`` walk's, times the route's share): exactly
    on the matroid route, to float rounding where a max-entropy law
    enters."""
    params = SamplerParams(sampler=sampler)
    lam = params.effective_lambda
    for piece in degree_pieces(family_instance(family)):
        table = DegreePieceSampler(piece, params).compiled()
        post = ShiftPosterior(piece, params)
        masks = _table_masks(table, post.position)
        exact = sampler == "mi"
        probs = ([Fraction(k, table.exact_den) for k in table.exact_nums] if exact
                 else table.probs.tolist())
        joints = [post.joint(tree) for tree in masks]
        by_visit = [sum(col) for col in zip(*joints)]
        # no walk reaches a tree outside the table
        assert {t for _, _, _, law in post.visits for t, q in law.items() if q} <= set(masks)
        want_visits = []
        for route, share in (("maxent", lam), ("mi", 1 - lam)):
            if share:
                ledgers: list = []
                _, ref_visits = fraction_piece_states(piece, route == "mi", None, ledgers)
                want_visits += [(route, share * pr, ledger)
                                for (pr, _), ledger in zip(ref_visits, ledgers)]
        assert [(route, p, provenance(*step)) for route, step, p, _ in post.visits] == \
            want_visits
        for joint, pr in zip(joints, probs):
            if exact:
                assert sum(joint) == pr
            else:
                assert float(sum(joint)) == pytest.approx(pr, rel=1e-9, abs=1e-15)
        for got, (_, pr, _) in zip(by_visit, want_visits):
            if exact:
                assert got == pr
            else:
                assert float(got) == pytest.approx(float(pr), rel=1e-9, abs=1e-15)


def test_the_ledger_matches_the_step_by_step_walk_on_zoo(tmp_path, capsys):
    """On zoo (mix), the joint frequencies of each degree piece's ledger
    and tree over the trials of ``htsp sample --dump-shift`` match those of
    as many draws of ``tests/single_draws.py``'s walk: the two-sample
    chi-square statistic over their cells lies within ``SIGMAS`` standard
    deviations (sqrt(2 df)) of its mean, df.  The printed trees do not
    depend on the flag."""
    from htsp.cli import _json_safe, main

    path = str(tmp_path / "zoo.htsp")
    assert main(["generate", "--family", "zoo", "--seed", "3", "--out", path]) == 0
    n = 8_000
    runs = {}
    for flags in ((), ("--dump-shift",)):
        assert main(["sample", path, "--trials", str(n), "--seed", "11", *flags]) == 0
        runs[flags] = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    printed = runs[("--dump-shift",)]
    assert [e["edges"] for e in printed] == [e["edges"] for e in runs[()]]
    h = build_hierarchy(family_instance("zoo"))
    share = float(SamplerParams().effective_lambda)
    nodes = [nd for nd in h.non_leaves() if nd.kind != "cycle" and nd.piece.graph.n != 5]
    assert nodes
    rng = np.random.default_rng(12)
    for nd in nodes:
        interior = set(nd.piece.internal_edge_ids)
        ledger: dict = {}
        for e in printed:
            key = (json.dumps(e["provenance"][str(nd.node_id)], sort_keys=True),
                   tuple(x for x in e["edges"] if x in interior))
            ledger[key] = ledger.get(key, 0) + 1
        walk: dict = {}
        memo: dict = {}
        for _ in range(n):
            tree, steps = degree_piece_draw(nd.piece, share, rng, memo)
            key = (json.dumps(_json_safe(steps), sort_keys=True), tuple(sorted(tree)))
            walk[key] = walk.get(key, 0) + 1
        cells = set(ledger) | set(walk)
        stat = sum((ledger.get(c, 0) - walk.get(c, 0)) ** 2 / (ledger.get(c, 0) + walk.get(c, 0))
                   for c in cells)
        df = len(cells) - 1
        assert df > 10
        assert stat <= df + SIGMAS * (2 * df) ** 0.5, (nd.node_id, stat, df)
