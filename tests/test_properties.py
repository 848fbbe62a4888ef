"""Property tests over random 4-regular instances.

Hypothesis draws the vertex count (n <= 12: at n = 16 one degree piece can
take 10 s to build) and the generator seed.  On the matroid-intersection
route every exact marginal is one half as a ``Fraction``, no trial of a
full-flag run is infeasible, the batch even-at-last and reduction counts
agree with the exact oracle's probabilities, and every degree piece's tree
mixture equals the per-class ``Fraction`` reference.  Apart from these, a
mix k/10^7 is drawn and the parameter LP's solution held to the reference
solver's, and blocks of random tree and matching states over one to three
shapes are decomposed by the batched kernel and held to the Fraction
greedy state by state, and
the min-cuts the hierarchy build keeps after contracting a listed shore
are held to brute force on the contracted graph.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from htsp.decomp import DecompositionShape, DecompositionState
from htsp.generators import generate_random_4reg
from htsp.matching import _odd_set_lower_constraints, enumerate_perfect_matchings
from htsp.oracle import exact_marginals
from htsp.params import solve_amounts
from htsp.hierarchy import _contract, _min_cut_shores, build_hierarchy
from htsp.pipeline import SamplerParams
from htsp.engine import BatchEngine
from htsp.stats import binom_sigma, oracle_check
from tests.brute_min_cuts import brute_min_cuts
from tests.reference import (enumerate_spanning_trees, fraction_mi_mixture,
                             solve_amounts as reference_solve_amounts)
from tests.test_decomp import (
    assert_jobs_same,
    convex_point,
    outside,
    random_multigraph,
    random_parts,
    subset_constraints,
)
from tests.test_pipeline import mi_mixture_sets

TRIALS = 2_000
# at 3 sigma a row fails about once in 370 on correct code, and an example
# checks about fifty rows
SIGMAS = 6
ORACLE_ROWS = {"even-at-last": "eal", "reduction-rate-flattened": "reduced"}


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=6, max_value=12), st.integers(min_value=0, max_value=10 ** 6))
def test_matroid_route_on_random_4reg(n, gen_seed):
    inst = generate_random_4reg(n, np.random.default_rng(gen_seed))
    sp = SamplerParams(sampler="mi")
    engine = BatchEngine(inst, sp)
    marginals = exact_marginals(engine.h, engine.samplers, engine.classes)
    assert all(type(p) is Fraction and p == Fraction(1, 2) for p in marginals.values())

    stats = engine.run(TRIALS, gen_seed, join=True, verify=True, integral=True)
    assert stats.feasibility_failures == 0

    checked = 0
    for row in oracle_check(inst, sp).rows:
        field = ORACLE_ROWS.get(row.name.split("/")[0])
        if field is None:
            continue
        e = int(row.context.removeprefix("edge:"))
        estimate = getattr(stats, field)[e] / TRIALS
        sigma = binom_sigma(row.estimate, TRIALS)
        assert abs(estimate - row.estimate) <= SIGMAS * sigma, (row.name, e)
        checked += 1
    assert checked == 2 * engine.m


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=6, max_value=12), st.integers(min_value=0, max_value=10 ** 6))
def test_mi_mixture_equals_the_fraction_reference_on_random_4reg(n, gen_seed):
    inst = generate_random_4reg(n, np.random.default_rng(gen_seed))
    for nd in build_hierarchy(inst).non_leaves():
        if nd.kind == "cycle" or nd.piece.graph.n == 5:
            continue
        assert mi_mixture_sets(nd.piece) == fraction_mi_mixture(nd.piece)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 7))
def test_solve_amounts_equals_the_reference(k):
    lam = Fraction(k, 10 ** 7)
    assert solve_amounts(lam) == reference_solve_amounts(lam)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=1, max_value=8),
       st.booleans())
def test_batched_kernel_equals_the_fraction_greedy_per_state(seed, size, trees):
    """A block of random states over one to three shapes, some pushed
    outside the polytope: each state gets the Fraction greedy's weights, or
    fails where it fails.  Tree states bring their own part rows and
    candidates; matching states share their shape's odd-set rows."""
    rng = np.random.default_rng(seed)
    jobs = []
    for _ in range(int(rng.integers(1, 4))):
        while True:
            if trees:
                g = random_multigraph(rng, int(rng.integers(3, 7)))
                shape = DecompositionShape(enumerate_spanning_trees(g), g.m,
                                           subset_constraints(g))
            else:
                g = random_multigraph(rng, int(rng.choice([2, 4, 6])))
                cands = enumerate_perfect_matchings(g)
                if not cands:
                    continue
                shape = DecompositionShape(cands, g.m, (), _odd_set_lower_constraints(g))
            break
        for _ in range(size):
            # each part may hold up to 1, 2 or 3 of its edges: a bound above
            # one brings a step divisor the shape's own scale may lack
            rows = [(p, int(rng.integers(1, 4))) for p in random_parts(rng, g.m)] if trees else []
            alive = np.array([all((c & p).bit_count() <= b for p, b in rows)
                              for c in shape.cands])
            usable = [c for c, a in zip(shape.cands, alive) if a] or list(shape.cands)
            x = convex_point(rng, usable, g.m)
            if rng.random() < 0.3:
                x = outside(rng, x)
            jobs.append((shape, DecompositionState.of(tuple(x), tuple(rows), alive)))
    assert_jobs_same(jobs)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=6, max_value=14), st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=0, max_value=10 ** 6))
def test_filtered_shores_are_the_min_cuts_of_the_contraction(n, gen_seed, pick):
    g = generate_random_4reg(n, np.random.default_rng(gen_seed)).graph
    shores = _min_cut_shores(g)
    # a proper shore where there is one: a singleton contracts to a relabelling
    proper = [s for s in shores if 1 < s.bit_count() < n - 1] or shores
    gc, kept = _contract(g, shores, proper[pick % len(proper)])
    assert sorted(kept) == sorted(sum(1 << v for v in c.shore) for c in brute_min_cuts(gc))
