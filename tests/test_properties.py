"""Property tests over random 4-regular instances.

Hypothesis draws the vertex count (n <= 12: at n = 16 one degree piece can
take 10 s to build) and the generator seed.  On the matroid-intersection
route every exact marginal is one half as a ``Fraction``, no trial of a
full-flag run is infeasible, the batch even-at-last and reduction counts
agree with the exact oracle's probabilities, and every degree piece's tree
mixture equals the per-class ``Fraction`` reference.  Apart from these, a
mix k/10^7 is drawn and the parameter LP's solution held to the reference
solver's.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from htsp.generators import generate_random_4reg
from htsp.oracle import exact_marginals
from htsp.params import solve_amounts
from htsp.hierarchy import build_hierarchy
from htsp.pipeline import DegreePieceSampler, SamplerParams
from htsp.stats import BatchEngine, binom_sigma, oracle_check
from tests.reference import fraction_mi_mixture, solve_amounts as reference_solve_amounts

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
        mix = DegreePieceSampler(nd.piece, SamplerParams(sampler="mi")).mi_mixture()
        assert mix == fraction_mi_mixture(nd.piece)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 7))
def test_solve_amounts_equals_the_reference(k):
    lam = Fraction(k, 10 ** 7)
    assert solve_amounts(lam) == reference_solve_amounts(lam)
