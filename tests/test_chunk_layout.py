"""The edge-major batch chunk against the trial-major one it replaced.

Both layouts run on one built engine (see ``tests/rowmajor_chunk.py``), so
every ``BatchStats`` field must agree exactly, floats bit for bit, and the
integral join must fill the same cache with the same costs.
"""

import copy
import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest

from htsp.errors import OddSetTooLarge
from htsp.generators import generate_double_cycle
from htsp.join import ODD_SET_LIMIT
from htsp.pipeline import SamplerParams
from htsp.stats import BatchEngine, BatchStats, symmetry_pairs
from tests.conftest import ALL_FAMILIES, FAMILY_SEED, family_instance
from tests.rowmajor_chunk import rowmajor
from tests.test_join import _ring_edges_with_odd

TRIALS = 2_500
CHUNK = 1_000  # the last chunk holds 500 trials

FLAG_SETS = {
    "none": {"join": False},
    "join": {"join": True},
    "join+verify": {"join": True, "verify": True},
    "all+pairs": {"join": True, "verify": True, "integral": True, "pairs": True},
}


@functools.cache
def engine_for(family: str) -> BatchEngine:
    return BatchEngine(family_instance(family), SamplerParams(sampler="mix"))


@functools.cache
def double_cycle_engine(k: int) -> BatchEngine:
    inst = generate_double_cycle(k, np.random.default_rng(FAMILY_SEED))
    return BatchEngine(inst, SamplerParams(sampler="mix"))


def _exact(value):
    """A comparable form that tells floats apart by their bits."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.tolist()
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_exact(v) for v in value]
    if isinstance(value, float):
        return "float", value.hex()
    return type(value).__name__, value


def assert_same_stats(a: BatchStats, b: BatchStats) -> None:
    for f in dataclasses.fields(BatchStats):
        assert _exact(getattr(a, f.name)) == _exact(getattr(b, f.name)), f.name


def run_both(engine: BatchEngine, seed: int, flags: dict) -> tuple[BatchStats, BatchStats]:
    flags = dict(flags)
    pairs = symmetry_pairs(engine.m) if flags.pop("pairs", False) else ()
    return tuple(
        e.run(TRIALS, seed, chunk=CHUNK, symmetry_pairs=pairs, **flags)
        for e in (engine, rowmajor(engine))
    )


@pytest.mark.parametrize("flag_set", sorted(FLAG_SETS))
@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_edge_major_chunk_matches_row_major(family, flag_set):
    new, old = run_both(engine_for(family), 17, FLAG_SETS[flag_set])
    assert new.trials == TRIALS
    assert_same_stats(new, old)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_eal_flags_match_row_major(family):
    """Flags read from the even-at-last conditions equal, bit for bit, the
    flags of the old per-piece plans on one drawn chunk."""
    engine = engine_for(family)
    T = engine._draw_trees(CHUNK, np.random.default_rng(5))
    old = rowmajor(engine)._eal_flags(np.ascontiguousarray(T.T))
    assert np.array_equal(engine._eal_flags(T), old.T)


def _zero_repayments(engine):
    engine.degree_site_plan = [
        (src, cut, [(f, 0) for f, _ in targets])
        for src, cut, targets in engine.degree_site_plan
    ]
    engine.pair_site_plan = [
        (targets, [(0, members) for _, members in groups])
        for targets, groups in engine.pair_site_plan
    ]


def _triple_reductions(engine):
    engine.amount_int = engine.amount_int * 3


@pytest.mark.parametrize("corrupt", [_zero_repayments, _triple_reductions],
                         ids=["cut-cover", "edge-floor"])
def test_corrupted_charges_fail_alike_in_both_layouts(corrupt):
    """Zeroed repayments leave odd cuts short; tripled reductions push edges
    under the floor.  Both layouts must count the same infeasible trials."""
    bad = copy.copy(engine_for("zoo"))
    corrupt(bad)
    new, old = run_both(bad, 23, FLAG_SETS["join+verify"])
    assert new.feasibility_failures > 0
    assert_same_stats(new, old)


# ---------------------------------------------------------------------------
# integral join: distinct-key lookup against the per-trial loop
# ---------------------------------------------------------------------------

def _join_rows(engine: BatchEngine, trials: int, seed: int) -> np.ndarray:
    """A ``(trials, m)`` view of drawn trees, with up to three edges flipped
    in about half of the trials: many distinct odd sets, a few odd vertices
    each, spread over every word of a parity key."""
    rng = np.random.default_rng(seed)
    T = engine._draw_trees(trials, rng)
    cols = np.arange(trials)
    for _ in range(3):
        flip = rng.integers(0, engine.m, size=trials)
        on = rng.random(trials) < 0.5
        T[flip[on], cols[on]] ^= True
    return T.T


def _cold(engine: BatchEngine) -> BatchEngine:
    twin = copy.copy(engine)
    twin._join_cache = {}
    twin._dp_memo = {}
    return twin


def _assert_same_cache(new: BatchEngine, old: BatchEngine) -> None:
    items = list(new._join_cache.items())
    assert items == list(old._join_cache.items())
    assert all(type(k) is bytes and type(v) is int for k, v in items)


@pytest.mark.parametrize("name", ALL_FAMILIES + ("double-cycle-72",))
def test_integral_join_matches_per_trial_lookup(name):
    """Double cycle k = 72 has 72 vertices: its keys fill two words."""
    engine = _cold(double_cycle_engine(72) if name == "double-cycle-72"
                   else engine_for(name))
    old = rowmajor(engine)
    # a cold pass, a fully warm one, and one that mixes hits and misses
    for seed in (31, 31, 32):
        rows = _join_rows(engine, 3_000, seed)
        new_costs = engine._integral_costs(rows)
        old_costs = old._integral_costs(np.ascontiguousarray(rows))
        assert new_costs.dtype == old_costs.dtype
        assert new_costs.tolist() == old_costs.tolist()
        _assert_same_cache(engine, old)
    assert len(engine._join_cache) > 1


def test_integral_join_past_odd_set_limit_raises_alike():
    """A trial past the DP limit midway through a chunk raises in both
    lookups, after both cached the same earlier odd sets."""
    inst = generate_double_cycle(20, np.random.default_rng(0))
    engine = BatchEngine(inst, SamplerParams(sampler="mi"))
    old = rowmajor(engine)
    rows = np.array(_join_rows(engine, 400, 41))
    rows[200] = False
    rows[200, _ring_edges_with_odd(inst, ODD_SET_LIMIT + 2)] = True
    for e in (engine, old):
        with pytest.raises(OddSetTooLarge):
            e._integral_costs(rows)
    assert len(engine._join_cache) > 1
    _assert_same_cache(engine, old)


# ---------------------------------------------------------------------------
# chunk memory
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["zoo", "double-cycle-40"])
def test_full_flag_chunk_peak_memory(name):
    """A warm one-chunk full-flag run stays under 2.25 int64 charge blocks
    of traced peak: a float copy of the block, or a parity row kept for
    every min-cut, would push it past."""
    engine = double_cycle_engine(40) if name == "double-cycle-40" else engine_for(name)
    trials = 1 << 14
    flags = {"join": True, "verify": True, "integral": True}
    engine.run(trials, 1, **flags)
    tracemalloc.start()
    try:
        engine.run(trials, 2, **flags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * engine.m * trials * 8
