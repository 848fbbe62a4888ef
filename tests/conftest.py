import functools
from fractions import Fraction

import numpy as np
import pytest

import htsp.engine
from htsp.generators import (
    generate_double_cycle,
    generate_k5_gadget,
    generate_nested,
    generate_random_4reg,
    generate_zoo,
)
from htsp.graph import HalfIntegralInstance

FAMILY_SEED = 3


@functools.cache
def family_instance(family: str):
    rng = np.random.default_rng(FAMILY_SEED)
    if family == "double-cycle":
        return generate_double_cycle(7, rng)
    if family == "k5-gadget":
        return generate_k5_gadget(6, rng)
    if family == "nested":
        return generate_nested(2, rng)
    if family == "random-4reg":
        return generate_random_4reg(12, rng)
    if family == "zoo":
        return generate_zoo(rng)
    raise KeyError(family)


@functools.cache
def fractional_cost_instance():
    """The zoo instance with a/b costs: every generator draws integer costs."""
    zoo = family_instance("zoo")
    costs = tuple(Fraction(int(c), 1 + e % 6) for e, c in enumerate(zoo.costs))
    return HalfIntegralInstance(zoo.graph, costs)


def trial_trees(ci, trials: int, seed: int) -> list[frozenset[int]]:
    """The trees of trials 0 to ``trials`` - 1 of ``ci.tree_chunks(trials,
    seed)``, each as its edge ids: trial t of ``htsp sample``, ``join`` and
    ``stats`` at that trial count and seed."""
    return [frozenset(edges) for first, T, _ in ci.tree_chunks(trials, seed)
            for edges in ci.tree_edges(T, first)]


ALL_FAMILIES = ("double-cycle", "k5-gadget", "nested", "random-4reg", "zoo")


@pytest.fixture(params=ALL_FAMILIES)
def any_instance(request):
    return family_instance(request.param)


@pytest.fixture
def zoo_instance():
    return family_instance("zoo")


@pytest.fixture
def k5_instance():
    return family_instance("k5-gadget")


@pytest.fixture
def one_process(monkeypatch):
    """Keeps every Monte Carlo run of a test in this process, for a test
    that watches chunk internals through their side effects here."""
    monkeypatch.setattr(htsp.engine, "cpu_count", lambda: 1)
