"""The integer greedy in ``htsp.decomp`` against the Fraction greedy it replaced.

Both must return equal weights in equal key order, and raise the same
``DecompositionFailure`` when the target is outside the polytope: one state
through ``fraction_decomp.exact_convex_decomposition``, and the batched ``decompose``
(shape, state) job by job.
"""

import sys
from fractions import Fraction

import numpy as np
import pytest

import htsp.decomp as decomp
from htsp.generators import generate_random_4reg
from htsp.graph import MultiGraph
from htsp.errors import InfeasibleShift, NoPerfectMatching
from htsp.matching import (_odd_set_lower_constraints, decompose_matchings,
                           enumerate_perfect_matchings)
from htsp.pipeline import SamplerParams, _piece_states
from htsp.engine import BatchEngine
from tests.conftest import ALL_FAMILIES, family_instance
from tests.fraction_decomp import exact_convex_decomposition, fraction_convex_decomposition
from tests.reference import constrained_tree_distribution, enumerate_spanning_trees
from tests.test_pipeline import degree_pieces
from tests.test_trees import shifted_on


def outcome(fn, *args, **kwargs):
    """Weights as an ordered item list, or the error's type and message."""
    try:
        return list(fn(*args, **kwargs).items())
    except decomp.DecompositionFailure as exc:
        return (type(exc), str(exc))


def target_of(state: decomp.DecompositionState) -> list[Fraction]:
    """A state's target as ``Fraction``s."""
    nums, den = state.integer_target
    return [Fraction(k, den) for k in nums]


def per_state_args(shape: decomp.DecompositionShape, state: decomp.DecompositionState):
    """A batched state as the arguments of one per-call decomposition."""
    cands = list(shape.cands)
    if state.alive is not None:
        cands = [cands[i] for i in np.flatnonzero(state.alive)]
    return cands, target_of(state), list(state.upper) + list(shape.upper), list(shape.lower)


def kernel_outcome(shape: decomp.DecompositionShape, res) -> object:
    """A batched result in the form of ``outcome``."""
    if isinstance(res, decomp.DecompositionFailure):
        return (type(res), str(res))
    return [(shape.cands[i], Fraction(k, res.denominator))
            for i, k in zip(res.order, res.numerators)]


def assert_jobs_same(jobs) -> int:
    """Compare the batched kernel with the Fraction greedy on each (shape,
    state) job; the number of states both rejected."""
    raised = 0
    for (shape, state), res in zip(jobs, decomp.decompose(jobs)):
        want = outcome(fraction_convex_decomposition, *per_state_args(shape, state))
        assert kernel_outcome(shape, res) == want
        raised += isinstance(want, tuple)
    return raised


def assert_same(*args) -> bool:
    """Compare both greedies on one input; True when both raised."""
    want = outcome(fraction_convex_decomposition, *args)
    got = outcome(exact_convex_decomposition, *args)
    assert got == want
    return isinstance(want, tuple)


def random_multigraph(rng, n: int) -> MultiGraph:
    """A connected multigraph on n vertices: a random tree plus extra edges,
    parallel ones allowed."""
    pairs = [(int(rng.integers(v)), v) for v in range(1, n)]
    for _ in range(int(rng.integers(1, n + 3))):
        u, v = rng.choice(n, size=2, replace=False)
        pairs.append((int(u), int(v)))
    return MultiGraph(n, [(i, u, v) for i, (u, v) in enumerate(pairs)])


def subset_constraints(g: MultiGraph) -> list[tuple[int, int]]:
    """x(E[S]) <= |S| - 1 for every vertex set S of two or more vertices."""
    out = []
    for s in range(1, 1 << g.n):
        size = s.bit_count()
        if size < 2:
            continue
        mask = 0
        for i, (u, v) in enumerate(g.endpoints):
            if (s >> u) & 1 and (s >> v) & 1:
                mask |= 1 << i
        if mask:
            out.append((mask, size - 1))
    return out


def random_parts(rng, m: int) -> list[int]:
    """Disjoint edge masks of two or three edges covering part of [0, m)."""
    order = [int(e) for e in rng.permutation(m)]
    parts = []
    while len(order) >= 2 and rng.random() < 0.7:
        size = min(len(order), int(rng.integers(2, 4)))
        mask = 0
        for e in order[:size]:
            mask |= 1 << e
        parts.append(mask)
        order = order[size:]
    return parts


def convex_point(rng, cands: list[int], m: int) -> list[Fraction]:
    """A combination of a few candidates with denominators of at most 12."""
    k = int(rng.integers(1, min(4, len(cands)) + 1))
    chosen = rng.choice(len(cands), size=k, replace=False)
    shares = [int(a) for a in rng.integers(1, 4, size=k)]
    total = sum(shares)
    x = [Fraction(0)] * m
    for i, a in zip(chosen, shares):
        for e in range(m):
            if (cands[int(i)] >> e) & 1:
                x[e] += Fraction(a, total)
    return x


def outside(rng, x: list[Fraction]) -> list[Fraction]:
    """Move all of one positive edge's mass onto another edge."""
    y = list(x)
    pos = [e for e, v in enumerate(y) if v > 0]
    a = int(rng.choice(pos))
    b = int(rng.integers(len(y)))
    if a != b:
        y[b] += y[a]
        y[a] = Fraction(0)
    return y


def test_random_constrained_trees_match_the_fraction_greedy():
    rng = np.random.default_rng(11)
    raised = done = 0
    while done < 60:
        g = random_multigraph(rng, int(rng.integers(3, 7)))
        parts = random_parts(rng, g.m)
        cands = [t for t in enumerate_spanning_trees(g)
                 if all((t & p).bit_count() <= 1 for p in parts)]
        if not cands:
            continue
        done += 1
        upper = [(p, 1) for p in parts] + subset_constraints(g)
        x = convex_point(rng, cands, g.m)
        assert not assert_same(cands, x, upper)
        raised += assert_same(cands, outside(rng, x), upper)
    assert raised > 0


def test_random_perfect_matchings_match_the_fraction_greedy():
    rng = np.random.default_rng(12)
    raised = done = 0
    while done < 40:
        g = random_multigraph(rng, int(rng.choice([2, 4, 6])))
        cands = enumerate_perfect_matchings(g)
        if not cands:
            continue
        done += 1
        lower = _odd_set_lower_constraints(g)
        x = convex_point(rng, cands, g.m)
        assert not assert_same(cands, x, (), lower)
        raised += assert_same(cands, outside(rng, x), (), lower)
    assert raised > 0


def test_large_prime_denominators_take_the_exact_int_path():
    k4 = MultiGraph(4, [(0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 1, 2), (4, 1, 3), (5, 2, 3)])
    cands = enumerate_spanning_trees(k4)
    p, q = 2 ** 61 - 1, 2 ** 31 - 1
    shares = {cands[0]: Fraction(1, p), cands[5]: Fraction(1, q)}
    shares[cands[9]] = 1 - sum(shares.values())
    x = [sum((w for c, w in shares.items() if (c >> e) & 1), Fraction(0))
         for e in range(k4.m)]
    # the first round's numerators live over p * q > 2**62, so int64 is refused
    assert p * q > decomp.INT64_SAFE
    assert not assert_same(cands, x, subset_constraints(k4))
    assert sum(exact_convex_decomposition(
        cands, x, subset_constraints(k4)).values()) == 1


def test_a_wide_state_keeps_its_exact_weights_in_an_int64_block(monkeypatch):
    """The prime-denominator state above, in one block between states whose
    rounds all fit int64: the block runs on Python ints, and every state
    still gets its own exact weights."""
    k4 = MultiGraph(4, [(0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 1, 2), (4, 1, 3), (5, 2, 3)])
    cands = enumerate_spanning_trees(k4)
    p, q = 2 ** 61 - 1, 2 ** 31 - 1
    shares = {cands[0]: Fraction(1, p), cands[5]: Fraction(1, q)}
    shares[cands[9]] = 1 - sum(shares.values())
    wide = [sum((w for c, w in shares.items() if (c >> e) & 1), Fraction(0))
            for e in range(k4.m)]
    shape = decomp.DecompositionShape(cands, k4.m, subset_constraints(k4))
    rng = np.random.default_rng(5)
    narrow = [convex_point(rng, list(shape.cands), k4.m) for _ in range(4)]
    states = [decomp.DecompositionState.of(tuple(x)) for x in narrow[:2] + [wide] + narrow[2:]]
    blocks = []
    real = decomp._decompose_block
    monkeypatch.setattr(decomp, "_decompose_block",
                        lambda *a: blocks.append((len(a[0]), len(a[-1]))) or real(*a))
    assert assert_jobs_same([(shape, state) for state in states]) == 0
    # one block: one shape, all five states
    assert blocks == [(1, len(states))]


def test_a_mixed_shape_block_settles_each_state_on_its_own(monkeypatch):
    """States of three small shapes share one ragged block, each reading
    its own shape's tables; the state pushed outside its polytope fails
    alone and every other state gets the Fraction greedy's weights."""
    rng = np.random.default_rng(21)
    graphs = [MultiGraph(3, [(0, 0, 1), (1, 1, 2), (2, 0, 2), (3, 0, 1)]),
              MultiGraph(4, [(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 0, 3), (4, 0, 2)]),
              MultiGraph(4, [(i, u, v) for i, (u, v) in enumerate(
                  [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])])]
    jobs = []
    for g in graphs:
        shape = decomp.DecompositionShape(enumerate_spanning_trees(g), g.m,
                                          subset_constraints(g))
        for _ in range(3):
            x = convex_point(rng, list(shape.cands), g.m)
            jobs.append((shape, decomp.DecompositionState.of(tuple(x))))
    bad = 4
    shape, state = jobs[bad]
    jobs[bad] = (shape, decomp.DecompositionState.of(tuple(outside(rng, target_of(state)))))
    blocks = []
    real = decomp._decompose_block
    monkeypatch.setattr(decomp, "_decompose_block",
                        lambda *a: blocks.append((len(a[0]), len(a[-1]))) or real(*a))
    assert assert_jobs_same(jobs) == 1
    assert isinstance(decomp.decompose(jobs)[bad], decomp.DecompositionFailure)
    # every call: one block of all three shapes and all nine states
    assert blocks == [(len(graphs), len(jobs))] * 2


def wide_k4_state() -> tuple[MultiGraph, list[int], list[Fraction]]:
    """K4, its spanning trees, and a point of their polytope whose weights
    have the primes 2**61 - 1 and 2**31 - 1 as denominators."""
    k4 = MultiGraph(4, [(0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 1, 2), (4, 1, 3), (5, 2, 3)])
    cands = enumerate_spanning_trees(k4)
    p, q = 2 ** 61 - 1, 2 ** 31 - 1
    shares = {cands[0]: Fraction(1, p), cands[5]: Fraction(1, q)}
    shares[cands[9]] = 1 - sum(shares.values())
    return k4, cands, [sum((w for c, w in shares.items() if (c >> e) & 1), Fraction(0))
                       for e in range(k4.m)]


@pytest.mark.parametrize("seed", range(4))
def test_one_call_of_mixed_jobs_matches_the_fraction_greedy(seed, monkeypatch):
    """One ``decompose`` call over tree shapes of several sizes (states
    with parts of their own and the trees those parts allow, some sharing
    a target so that their caps are shared), a matching shape, a state
    pushed outside its polytope and the wide prime-denominator state: one
    block, and every job gets the Fraction greedy's outcome."""
    rng = np.random.default_rng(100 + seed)
    jobs = []
    for n in (3, 4, 5, 6):
        g = random_multigraph(rng, n)
        trees = enumerate_spanning_trees(g)
        shape = decomp.DecompositionShape(trees, g.m, subset_constraints(g))
        for _ in range(2):
            x = tuple(convex_point(rng, trees, g.m))
            for _ in range(3):
                parts = random_parts(rng, g.m)
                alive = np.array([all((t & p).bit_count() <= 1 for p in parts)
                                  for t in shape.cands])
                if alive.any():
                    jobs.append((shape, decomp.DecompositionState.of(
                        x, tuple((p, 1) for p in parts), alive)))
    ring = MultiGraph(4, [(2 * i + j, i, (i + 1) % 4) for i in range(4) for j in range(2)])
    matchings = decomp.DecompositionShape(enumerate_perfect_matchings(ring), ring.m,
                                          lower=_odd_set_lower_constraints(ring))
    jobs.append((matchings, decomp.DecompositionState.of((Fraction(1, 4),) * ring.m)))
    shape, state = jobs[1]
    jobs.append((shape, decomp.DecompositionState.of(tuple(outside(rng, target_of(state))))))
    k4, cands, wide = wide_k4_state()
    jobs.append((decomp.DecompositionShape(cands, k4.m, subset_constraints(k4)),
                 decomp.DecompositionState.of(tuple(wide))))
    order = rng.permutation(len(jobs))
    jobs = [jobs[i] for i in order]
    blocks = []
    real = decomp._decompose_block
    monkeypatch.setattr(decomp, "_decompose_block",
                        lambda *a: blocks.append(len(a[-1])) or real(*a))
    assert assert_jobs_same(jobs) >= 1
    assert blocks == [len(jobs)]


def test_the_matroid_route_runs_in_few_blocks_and_rounds(monkeypatch):
    """The conftest random-4reg build, the slow structure, decomposes its
    383 tree states in a few blocks of a few lockstep rounds each (a
    layout of one shape's states per block took 42 blocks)."""
    tree_blocks, rounds = [], []
    real_block, real_slack = decomp._decompose_block, decomp._group_slack

    def block(shapes, which, states):
        # tree shapes carry upper rows, the matching shapes lower ones
        rounds.append(0 if shapes[0].upper else None)
        if shapes[0].upper:
            tree_blocks.append(len(states))
        return real_block(shapes, which, states)

    def slack(*args):
        if rounds[-1] is not None:
            rounds[-1] += 1
        return real_slack(*args)

    monkeypatch.setattr(decomp, "_decompose_block", block)
    monkeypatch.setattr(decomp, "_group_slack", slack)
    BatchEngine(family_instance("random-4reg"), SamplerParams(sampler="mix"))
    rounds = [r for r in rounds if r is not None]
    assert sum(tree_blocks) > 300
    assert len(tree_blocks) <= 10
    assert max(rounds) <= 4 and sum(rounds) <= 30


def test_conftest_random_4reg_is_the_slow_structure():
    """The engine check below covers random-4reg n=12 generator seed 3, the
    structure whose 9-vertex piece dominates compile time."""
    slow = generate_random_4reg(12, np.random.default_rng(3))
    assert family_instance("random-4reg").graph.endpoints == slow.graph.endpoints


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_every_engine_decomposition_matches_the_fraction_greedy(family, monkeypatch):
    """Every job of every ``decompose`` call an engine build makes gets the
    Fraction greedy's outcome, and the tree jobs are the distinct
    matroid-route states of the degree pieces, each once."""
    original = decomp.decompose
    tree_jobs = []

    def both(jobs):
        got = original(jobs)
        for (shape, state), res in zip(jobs, got):
            want = outcome(fraction_convex_decomposition, *per_state_args(shape, state))
            assert kernel_outcome(shape, res) == want
            if shape.upper:
                tree_jobs.append(want)
        return got

    for name, mod in list(sys.modules.items()):
        if name.startswith("htsp") and getattr(mod, "decompose", None) is original:
            monkeypatch.setattr(mod, "decompose", both)
    inst = family_instance(family)
    BatchEngine(inst, SamplerParams(sampler="mix"))
    distinct = sum(len(_piece_states(piece, classes=True)[0]) for piece in degree_pieces(inst))
    assert len(tree_jobs) == distinct
    if family in ("random-4reg", "zoo"):
        assert distinct


def test_only_the_greedys_own_failures_become_typed_errors(monkeypatch):
    """A failed greedy is a ``NoPerfectMatching`` or an ``InfeasibleShift``
    with the greedy's message; any other ``ValueError`` inside the kernel
    propagates unchanged."""
    ring = MultiGraph(4, [(2 * i + j, i, (i + 1) % 4) for i in range(4) for j in range(2)])
    tri = MultiGraph(3, [(0, 0, 1), (1, 1, 2), (2, 0, 2)])
    shifted = shifted_on(tri, {e: Fraction(2, 3) for e in range(3)})

    def failing(shapes, which, states):
        return [decomp.DecompositionFailure("decomposition did not exhaust the target")
                for _ in states]

    monkeypatch.setattr(decomp, "_decompose_block", failing)
    with pytest.raises(NoPerfectMatching, match="did not exhaust") as caught:
        decompose_matchings(ring)
    assert type(caught.value.__cause__) is decomp.DecompositionFailure
    with pytest.raises(InfeasibleShift, match="did not exhaust"):
        constrained_tree_distribution(shifted)

    bug = ValueError("operands could not be broadcast together")

    def broken(shapes, which, states):
        raise bug

    monkeypatch.setattr(decomp, "_decompose_block", broken)
    for call, arg in ((decompose_matchings, ring), (constrained_tree_distribution, shifted)):
        with pytest.raises(ValueError) as caught:
            call(arg)
        assert caught.value is bug
