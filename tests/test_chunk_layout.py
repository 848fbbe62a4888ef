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

import htsp.engine
from htsp.engine import BatchEngine, BatchStats, _odd_rows, narrowest_lane
from htsp.errors import OddSetTooLarge, ScaleOverflow
from htsp.generators import generate, generate_double_cycle
from htsp.graph import HalfIntegralInstance
from htsp.join import ODD_SET_LIMIT
from htsp.pipeline import SamplerParams
from htsp.stats import symmetry_pairs
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
    """A comparable form that tells floats apart by their bits; an array
    compares as the list of its values, so the twin's list sums meet the
    engine's arrays."""
    if isinstance(value, np.ndarray):
        return _exact(value.tolist())
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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(htsp.engine, "MAX_CHUNK", CHUNK)
        return tuple(
            e.run(TRIALS, seed, symmetry_pairs=pairs, **flags)
            for e in (engine, rowmajor(engine))
        )


@pytest.mark.parametrize("flag_set", sorted(FLAG_SETS))
@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_edge_major_chunk_matches_row_major(family, flag_set):
    new, old = run_both(engine_for(family), 17, FLAG_SETS[flag_set])
    assert new.trials == TRIALS
    assert_same_stats(new, old)


@pytest.mark.parametrize("trials", [htsp.engine.MAX_CHUNK, 40_000])
@pytest.mark.parametrize("name", ALL_FAMILIES + ("double-cycle-24",))
def test_default_chunk_matches_row_major(name, trials):
    """At the default chunk size, and for 40,000 trials, which end in a
    ragged chunk of 7,232."""
    engine = double_cycle_engine(24) if name == "double-cycle-24" else engine_for(name)
    pairs = symmetry_pairs(engine.m)
    flags = {"join": True, "verify": True, "integral": True, "symmetry_pairs": pairs}
    new, old = (e.run(trials, 29, **flags) for e in (engine, rowmajor(engine)))
    assert_same_stats(new, old)


@pytest.mark.parametrize("name", ALL_FAMILIES + ("double-cycle-24",))
def test_second_moment_is_exact(name):
    """At default parameters each chunk's ``z_sumsq`` is its exact integer
    sum of squared charges, below 2**53, and the run's is those sums added
    in chunk order."""
    engine = double_cycle_engine(24) if name == "double-cycle-24" else engine_for(name)
    trials, seed = 40_000, 37
    folded = np.zeros(engine.m)
    for _, T, rng in engine.tree_chunks(trials, seed):
        z = engine._join(T, copy.deepcopy(rng))[3]
        record = engine._run_chunk(T, rng, True, True, True, ())
        exact = [sum(int(v) ** 2 for v in row) for row in z]
        assert max(exact) < 2 ** 53
        assert record.z_sumsq.tolist() == [float(s) for s in exact]
        folded += record.z_sumsq
    st = engine.run(trials, seed, join=True, verify=True, integral=True)
    assert _exact(st.z_sumsq) == _exact(folded)


@pytest.mark.parametrize("name", ["zoo", "double-cycle-24"])
def test_chunk_records_computed_last_first_fold_to_the_run(name, monkeypatch):
    """A chunk reads nothing another chunk left behind: its records,
    computed from the last chunk (the ragged one) back to the first on cold
    pairing memos and then folded in index order, give the run's stats."""
    engine = double_cycle_engine(24) if name == "double-cycle-24" else engine_for(name)
    monkeypatch.setattr(htsp.engine, "MAX_CHUNK", CHUNK)
    pairs = symmetry_pairs(engine.m)
    cold = _cold(engine)
    chunks = list(cold.tree_chunks(TRIALS, 31))
    assert [(first, T.shape[1]) for first, T, _ in chunks] == [
        (0, CHUNK), (CHUNK, CHUNK), (2 * CHUNK, TRIALS - 2 * CHUNK)]
    records = {idx: cold._run_chunk(T, rng, True, True, True, pairs)
               for idx, (_, T, rng) in reversed(list(enumerate(chunks)))}
    st = cold._record(0, pairs, True, True, z_type=object)
    for idx in range(len(chunks)):
        st.fold(records[idx])
    want = _cold(engine).run(TRIALS, 31, verify=True, integral=True, symmetry_pairs=pairs)
    assert_same_stats(st, want)


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
# verification through the hierarchy against the per-cut loop
# ---------------------------------------------------------------------------

# nested-3 has a degree piece inside a degree piece, so a direct check
# reads a label cut that is neither a leaf's nor a charge site's
VERIFY_CASES = ALL_FAMILIES + ("double-cycle-24", "double-cycle-100",
                               "k5-gadget-30", "nested-3")
# "one-short-edge": every charge a quarter, so each min-cut is covered to
# exactly 1, except one edge per trial at the floor of 1/6: the trial fails
# exactly the odd min-cuts through that edge, so every listed cut counts
CHARGES = ("engine", "cut-cover", "edge-floor", "one-short-edge")


def verify_engine(name: str) -> BatchEngine:
    """A conftest family, or ``<family>-<k or depth>``."""
    if name in ALL_FAMILIES:
        return engine_for(name)
    family, size = name.rsplit("-", 1)
    if family == "double-cycle":
        return double_cycle_engine(int(size))
    return sized_engine(family, int(size))


@functools.cache
def sized_engine(family: str, size: int) -> BatchEngine:
    inst = generate(family, np.random.default_rng(FAMILY_SEED), k=size, depth=size)
    return BatchEngine(inst, SamplerParams(sampler="mix"))


def _verify_inputs(engine: BatchEngine, charges: str, flip: bool, seed: int):
    """A chunk's trees, charges and charge-site parities.  Apart from
    ``one-short-edge``, the charges are the engine's own reductions and
    repayments, as corrupted by ``_zero_repayments`` or
    ``_triple_reductions``.  ``flip`` toggles up to three edges in about
    half the trials, so a partner pair can hold none or both of its edges
    and the trees break the sampler's invariants."""
    rng = np.random.default_rng(seed)
    T = engine._draw_trees(CHUNK, rng)
    cols = np.arange(CHUNK)
    if flip:
        for _ in range(3):
            edge = rng.integers(0, engine.m, size=CHUNK)
            on = rng.random(CHUNK) < 0.5
            T[edge[on], cols[on]] ^= True
    site_odd = [_odd_rows(T, ids) for ids in engine.site_cut_cols]
    D = engine.z_denom
    if charges == "one-short-edge":
        z = np.full((engine.m, CHUNK), D // 4, dtype=np.int64)
        z[rng.integers(0, engine.m, size=CHUNK), cols] = D // 6
        return T, z, site_odd
    engine = copy.copy(engine)
    if charges == "cut-cover":
        _zero_repayments(engine)
    elif charges == "edge-floor":
        _triple_reductions(engine)
    eal = engine._eal_flags(T)
    reduced = np.zeros_like(T)
    for members, rate in engine.groups:
        reduced[members] = eal[members] & (rng.random(CHUNK) < rate)
    return T, engine._charges(reduced, site_odd), site_odd


@pytest.mark.parametrize("trees", ["drawn", "flipped"])
@pytest.mark.parametrize("charges", CHARGES)
@pytest.mark.parametrize("name", VERIFY_CASES)
def test_verify_through_hierarchy_matches_per_cut_loop(name, charges, trees):
    """The two-minimum check per cycle piece plus the direct checks fail
    exactly the trials that one check per listed min-cut fails, bit for
    bit, on the sampler's trees and on trees that no sampler draws."""
    engine = verify_engine(name)
    T, z, site_odd = _verify_inputs(engine, charges, trees == "flipped", 43)
    new = engine._infeasible(T, z, site_odd)
    old = rowmajor(engine)._infeasible(np.ascontiguousarray(T.T),
                                       np.ascontiguousarray(z.T))
    assert new.dtype == old.dtype and np.array_equal(new, old)
    if trees == "flipped":
        assert 0 < new.sum() < CHUNK
    elif charges == "engine":
        assert not new.any()


def test_verify_plan_lists_no_min_cuts():
    """The engine keeps the hierarchy's pieces, not the quadratic cut list:
    a double cycle on 100 vertices has 4,950 min-cuts and one cycle piece
    of 100 gaps."""
    engine = verify_engine("double-cycle-100")
    assert not hasattr(engine, "cut_cols") and not hasattr(engine, "min_cuts")
    assert [len(gaps) for gaps in engine.cycle_gaps] == [100]
    assert engine.direct_cuts == []
    assert len(rowmajor(engine).cut_cols) == 100 * 99 // 2


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
    twin._memo = {0: (0, None)}
    return twin


def _mask(key: bytes) -> int:
    """The vertex bitmask of a trial-major parity key, packed as
    ``np.packbits`` packs it: vertex v is bit ``7 - v % 8`` of byte
    ``v // 8``."""
    return int.from_bytes(np.packbits(np.unpackbits(np.frombuffer(key, dtype=np.uint8)),
                                      bitorder="little").tobytes(), "little")


def _assert_same_cache(new: BatchEngine, old: BatchEngine) -> None:
    """The pairing memo holds the subsets the trial-major DP memo holds, in
    its order, with the empty set seeded first, and every odd set the
    trial-major cache met reads its cost there."""
    want = {0: (0, None), **old._dp_memo}
    assert list(new._memo.items()) == list(want.items())
    assert all(type(k) is int for k in new._memo)
    assert [new._memo[_mask(k)][0] for k in old._join_cache] == list(old._join_cache.values())


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
    assert len(engine._memo) > 1


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
    assert len(engine._memo) > 1
    _assert_same_cache(engine, old)


@pytest.mark.parametrize("name", ["zoo", "double-cycle-24"])
def test_capped_join_caches_give_the_same_stats(name, monkeypatch):
    """A memo capped at one subset empties before every miss, so it holds
    the subsets of one solve at most; the statistics must not notice.  The
    double cycle's trees are all even: its one key, the empty set, is a
    hit from the start."""
    engine = double_cycle_engine(24) if name == "double-cycle-24" else engine_for(name)
    flags = {"join": True, "verify": True, "integral": True}
    monkeypatch.setattr(htsp.engine, "MAX_CHUNK", CHUNK)
    warm = _cold(engine)
    want = warm.run(TRIALS, 51, **flags)
    monkeypatch.setattr(htsp.engine, "PAIRING_MEMO_LIMIT", 1)
    capped = _cold(engine)
    for _ in range(2):
        assert_same_stats(capped.run(TRIALS, 51, **flags), want)
        last = max(capped._memo)
        assert capped._memo[0] == (0, None)
        assert all(not mask & ~last for mask in capped._memo)
    if name == "zoo":
        assert len(capped._memo) < len(warm._memo)
    else:
        assert capped._memo == warm._memo == {0: (0, None)}


def test_join_cache_never_empties_on_zoo():
    # a 14-vertex instance has at most 2**13 even vertex subsets (mc-zoo
    # meets 512 parity keys), and one solve at the DP limit fills 2**17
    assert family_instance("zoo").graph.n == 14
    assert 2 ** 13 + 2 ** (ODD_SET_LIMIT - 1) < htsp.engine.PAIRING_MEMO_LIMIT


# ---------------------------------------------------------------------------
# chunk memory
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["zoo", "double-cycle-40", "double-cycle-100"])
def test_full_flag_chunk_peak_memory(name):
    """A warm one-chunk full-flag run stays under 1.1 int64 charge blocks
    of traced peak: an int64 charge block (these instances take the int16
    lane), a float copy of the block, a parity row kept for every min-cut,
    or a (gaps, trials) block per cycle piece would push it past."""
    engine = verify_engine(name)
    trials = 1 << 14
    flags = {"join": True, "verify": True, "integral": True}
    engine.run(trials, 1, **flags)
    tracemalloc.start()
    try:
        engine.run(trials, 2, **flags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * engine.m * trials * 8


# ---------------------------------------------------------------------------
# charge lanes: every lane against the int64 row-major oracle
# ---------------------------------------------------------------------------

LANE_CASES = ALL_FAMILIES + ("double-cycle-24",)


@pytest.mark.parametrize("bound,lane", [
    (0, np.int16), (2 ** 15 - 1, np.int16), (2 ** 15, np.int32),
    (2 ** 31 - 1, np.int32), (2 ** 31, np.int64), (2 ** 63 - 1, np.int64),
])
def test_narrowest_lane_at_its_edges(bound, lane):
    assert narrowest_lane(bound) is lane


def test_no_lane_past_int64():
    with pytest.raises(ScaleOverflow):
        narrowest_lane(2 ** 63)


def forced_lane(engine: BatchEngine, lane) -> BatchEngine:
    """A copy of ``engine`` whose chunk holds its charges in ``lane`` and
    its cost sums in int32, or in int64 with the int64 lane."""
    twin = copy.copy(engine)
    twin.lane = lane
    twin.sum_lane = np.int64 if lane is np.int64 else np.int32
    twin.degree_site_plan = [(src, k, [(f, lane(amt)) for f, amt in targets])
                             for src, k, targets in engine.degree_site_plan]
    twin.pair_site_plan = [(targets, [(lane(half), members) for half, members in groups])
                           for targets, groups in engine.pair_site_plan]
    return twin


@pytest.mark.parametrize("name", LANE_CASES)
def test_generated_instances_take_the_int16_lane(name):
    """The test instances run the narrowest lane, the one the benchmark
    workloads take."""
    engine = verify_engine(name)
    assert engine.lane is np.int16 and engine.sum_lane is np.int32


@pytest.mark.parametrize("lane", htsp.engine.LANES, ids=lambda t: np.dtype(t).name)
@pytest.mark.parametrize("name", LANE_CASES)
def test_every_lane_matches_row_major(name, lane):
    engine = forced_lane(verify_engine(name), lane)
    new, old = run_both(engine, 19, FLAG_SETS["all+pairs"])
    assert_same_stats(new, old)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_checked_joins_agree_in_every_lane(family):
    engine = engine_for(family)
    (_, T, rng), = engine.tree_chunks(120, 2)
    want = forced_lane(engine, np.int64).checked_joins(T, copy.deepcopy(rng), 0)
    for lane in htsp.engine.LANES:
        z = forced_lane(engine, lane).checked_joins(T, copy.deepcopy(rng), 0)
        assert z.dtype == lane and z.tolist() == want.tolist()


def _flat_cost_zoo(cost: int) -> BatchEngine:
    zoo = family_instance("zoo")
    inst = HalfIntegralInstance(zoo.graph, tuple(cost for _ in zoo.costs))
    return BatchEngine(inst, SamplerParams(sampler="mix"))


def test_int64_cost_sums_match_row_major():
    """Costs of 10**6 each put a trial's cost times charge past int32, so
    the engine adds its cost sums in int64."""
    engine = _flat_cost_zoo(10 ** 6)
    assert engine.lane is np.int16 and engine.sum_lane is np.int64
    new, old = run_both(engine, 19, FLAG_SETS["all+pairs"])
    assert_same_stats(new, old)


def test_cost_sums_are_no_narrower_than_the_charges():
    """Unit costs and a charge bound whose covers pass int32 while cost
    times charge stays within it: the cost sums read int64 charges, so
    they take int64 too.  The charge sits on one gap pair of the cycle
    piece, whose cover with D, doubled, is the bound."""
    engine = copy.copy(_flat_cost_zoo(1))
    (a, b), *_ = engine.cycle_gaps[0]
    most = [0] * engine.m
    most[a] = most[b] = 2 ** 29
    assert sum(most) < 2 ** 31 < 2 * (most[a] + most[b] + engine.z_denom)
    engine._choose_lanes(most)
    assert engine.lane is np.int64 and engine.sum_lane is np.int64


#: instances whose sum of the most charge over all edges took them to int32,
#: while every cover the check forms fits int16: family, size, generator seed
CUT_BOUNDED_CASES = {
    "k5-gadget-30-seed1": ("k5-gadget", {"k": 30}, 1),
    "k5-gadget-30-seed3": ("k5-gadget", {"k": 30}, 3),
    "random-4reg-20-seed3": ("random-4reg", {"n": 20}, 3),
}


@pytest.mark.parametrize("name", CUT_BOUNDED_CASES)
def test_lanes_bounded_by_the_cuts_the_check_reads(name):
    """The lane is bounded by a direct cut's cover, twice a gap pair's
    cover plus D, a single charge, D and the floor, not by every edge's
    charge: these take int16, and run as the int64 lane does, field for
    field."""
    family, size, seed = CUT_BOUNDED_CASES[name]
    engine = BatchEngine(generate(family, np.random.default_rng(seed), **size),
                         SamplerParams(sampler="mix"))
    most = engine._most_charges()
    assert 2 * sum(most) + 2 * engine.z_denom > np.iinfo(np.int16).max
    assert engine.lane is np.int16 and engine.sum_lane is np.int32
    flags = {"join": True, "verify": True, "integral": True}
    got = engine.run(3_000, 11, **flags)
    want = forced_lane(engine, np.int64).run(3_000, 11, **flags)
    assert got.feasibility_failures == 0
    assert_same_stats(got, want)
