"""The edge-major batch chunk against the trial-major one it replaced.

Both layouts run on one built engine (see ``tests/rowmajor_chunk.py``), so
every ``BatchStats`` field must agree exactly, floats bit for bit.
"""

import copy
import dataclasses
import functools

import numpy as np
import pytest

from htsp.pipeline import SamplerParams
from htsp.stats import BatchEngine, BatchStats, symmetry_pairs
from tests.conftest import ALL_FAMILIES, family_instance
from tests.rowmajor_chunk import rowmajor

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
def test_mc_calibration_matches_row_major(family):
    engine = engine_for(family)
    # 20,000 trials: one full calibration chunk of 16,384 and a partial one
    new = engine._mc_calibration(20_000, 5)
    old = rowmajor(engine)._mc_calibration(20_000, 5)
    assert list(new) == list(old)
    assert [v.hex() for v in new.values()] == [v.hex() for v in old.values()]


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
