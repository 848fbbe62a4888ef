import functools

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
