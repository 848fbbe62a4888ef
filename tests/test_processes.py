"""Monte Carlo runs spread over an engine's helper processes.

Each test forces the process count P by monkeypatching
``htsp.engine.cpu_count``, and lowers ``MAX_CHUNK`` so that every run ends
in a ragged chunk.  P = 3 is more processes than a two-core host has, so
it doubles as the stress case.  Every wait is bounded: a run or a
collection under ``deadline``, a thread join by its timeout.
"""

import contextlib
import copy
import gc
import os
import re
import signal
import threading
import time

import pytest

import htsp.engine
from htsp.cli import main
from htsp.engine import BatchEngine, processes
from htsp.errors import AssemblyError, HelperLost
from htsp.pipeline import SamplerParams
from htsp.stats import ExperimentConfig, oracle_check, run_suite, symmetry_pairs
from tests.conftest import ALL_FAMILIES, family_instance
from tests.test_chunk_layout import assert_same_stats, double_cycle_engine, engine_for

CHUNK = 500
TRIALS = 2_750  # five full chunks and a ragged one of 250


@contextlib.contextmanager
def deadline(seconds: float = 120.0):
    """Raises ``TimeoutError`` in this process once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def at(P: int, monkeypatch) -> None:
    monkeypatch.setattr(htsp.engine, "cpu_count", lambda: P)


def helper_pids(engine: BatchEngine) -> list[int]:
    return [pid for pid, _, _ in engine._helpers.procs]


def assert_reaped(pids) -> None:
    """None of ``pids`` is a child of this process any more, live or not."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.fixture
def own_copy(monkeypatch):
    """Makes copies of cached engines, each with helpers of its own, at the
    lowered chunk size, and ends their helpers within a deadline when the
    test ends."""
    monkeypatch.setattr(htsp.engine, "MAX_CHUNK", CHUNK)
    made = []

    def make(engine: BatchEngine) -> BatchEngine:
        made.append(copy.copy(engine))
        return made[-1]

    yield make
    with deadline():
        for engine in made:
            engine._helpers.close()


@pytest.fixture
def zoo(own_copy):
    return own_copy(engine_for("zoo"))


@pytest.mark.parametrize("name", ALL_FAMILIES + ("double-cycle-24",))
def test_runs_are_bit_for_bit_at_any_process_count(name, own_copy, monkeypatch):
    """Every ``BatchStats`` field, floats by their bits, is the serial
    run's at P = 2 and 3, with every flag on and symmetry pairs set."""
    engine = own_copy(double_cycle_engine(24) if name == "double-cycle-24"
                      else engine_for(name))
    flags = {"join": True, "verify": True, "integral": True,
             "symmetry_pairs": symmetry_pairs(engine.m)}
    runs = {}
    for P in (1, 2, 3):
        at(P, monkeypatch)
        with deadline():
            runs[P] = engine.run(TRIALS, 37, **flags)
        assert len(helper_pids(engine)) == P - 1
    assert runs[1].trials == TRIALS
    for P in (2, 3):
        assert_same_stats(runs[P], runs[1])


def test_helpers_take_each_run_s_chunk_size(zoo, monkeypatch):
    """A helper forked at one chunk size runs its next chunks at the size
    its parent has when it sends them."""
    at(2, monkeypatch)
    with deadline():
        zoo.run(TRIALS, 37)
    monkeypatch.setattr(htsp.engine, "MAX_CHUNK", 400)
    with deadline():
        parallel = zoo.run(TRIALS, 38, integral=True)
    assert len(helper_pids(zoo)) == 1
    at(1, monkeypatch)
    assert_same_stats(parallel, zoo.run(TRIALS, 38, integral=True))


def _fail_chunks(engine: BatchEngine, failing: set[int]) -> None:
    """The chunks of index in ``failing`` raise ``AssemblyError`` as they
    draw, naming their index; a chunk's stream carries its index."""
    draw = engine._draw_trees

    def draw_or_fail(n, rng):
        idx = rng.bit_generator.seed_seq.spawn_key[0]
        if idx in failing:
            raise AssemblyError(f"chunk {idx} fails")
        return draw(n, rng)

    engine._draw_trees = draw_or_fail


# at P = 2 this process draws the even chunks and the helper the odd ones
@pytest.mark.parametrize("failing", [{3}, {3, 4}, {2, 3}, {4, 5}],
                         ids=["helper", "helper-first", "parent-first", "both"])
def test_a_failing_run_raises_its_lowest_failing_chunk_s_error(zoo, failing, monkeypatch):
    """The error of the lowest failing chunk, of the serial run's type and
    message, wherever that chunk ran; a chunk's error leaves the helper in
    step for the next run."""
    _fail_chunks(zoo, failing)
    errors = []
    for P in (1, 2):
        at(P, monkeypatch)
        with deadline(), pytest.raises(AssemblyError) as info:
            zoo.run(TRIALS, 37)
        errors.append((type(info.value), str(info.value)))
    assert errors == [(AssemblyError, f"chunk {min(failing)} fails")] * 2
    pids = helper_pids(zoo)
    assert len(pids) == 1
    with deadline():
        parallel = zoo.run(2 * CHUNK, 38)
    assert helper_pids(zoo) == pids
    at(1, monkeypatch)
    assert_same_stats(parallel, zoo.run(2 * CHUNK, 38))


class Stop(Exception):
    """An interruption of this process, as a budget alarm raises one."""


@pytest.mark.parametrize("where", ["own-chunk", "waiting"])
def test_an_exception_in_the_parent_ends_every_helper(zoo, where, monkeypatch):
    """An exception raised in this process while it draws its own chunks,
    or by an alarm while it waits for stalled helpers, kills and reaps every
    helper before it propagates; the next run forks new ones and equals the
    serial run."""
    at(3, monkeypatch)
    parent, armed, seen = os.getpid(), [True], []
    draw = zoo._draw_trees

    def interrupted(n, rng):
        if armed[0] and os.getpid() == parent and where == "own-chunk":
            seen.extend(helper_pids(zoo))
            raise KeyboardInterrupt
        if armed[0] and os.getpid() != parent and where == "waiting":
            time.sleep(120)
        return draw(n, rng)

    zoo._draw_trees = interrupted
    started = time.perf_counter()
    if where == "own-chunk":
        with deadline(), pytest.raises(KeyboardInterrupt):
            zoo.run(TRIALS, 37)
    else:
        def stop(signum, frame):
            seen.extend(helper_pids(zoo))
            raise Stop()

        previous = signal.signal(signal.SIGALRM, stop)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            with pytest.raises(Stop):
                zoo.run(TRIALS, 37)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - started < 60
    assert len(seen) == 2 and helper_pids(zoo) == []
    assert_reaped(seen)

    armed[0] = False
    with deadline():
        again = zoo.run(TRIALS, 37)
    assert len(helper_pids(zoo)) == 2 and not set(helper_pids(zoo)) & set(seen)
    at(1, monkeypatch)
    assert_same_stats(again, zoo.run(TRIALS, 37))


def test_a_collected_engine_reaps_its_helpers(monkeypatch):
    monkeypatch.setattr(htsp.engine, "MAX_CHUNK", CHUNK)
    at(3, monkeypatch)
    # not the fixture, which pytest holds on to
    engine = copy.copy(engine_for("zoo"))
    with deadline():
        engine.run(TRIALS, 37)
    pids = helper_pids(engine)
    assert len(pids) == 2
    del engine
    with deadline():
        gc.collect()
    assert_reaped(pids)


def test_a_run_beside_a_second_thread_forks_nothing(zoo, monkeypatch):
    """``fork`` copies only the calling thread, so a run while another
    thread lives stays in this process, with the same result."""
    at(3, monkeypatch)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(120,))
    thread.start()
    try:
        with deadline():
            beside = zoo.run(TRIALS, 37)
        assert helper_pids(zoo) == []
    finally:
        stop.set()
        thread.join(timeout=120)
    assert not thread.is_alive()
    with deadline():
        alone = zoo.run(TRIALS, 37)
    assert len(helper_pids(zoo)) == 2
    assert_same_stats(beside, alone)


def test_a_copy_forks_its_own_helpers(zoo, own_copy, monkeypatch):
    at(2, monkeypatch)
    with deadline():
        first = zoo.run(TRIALS, 37)
    twin = own_copy(zoo)
    assert helper_pids(twin) == []
    with deadline():
        second = twin.run(TRIALS, 37)
    mine, theirs = helper_pids(zoo), helper_pids(twin)
    assert len(mine) == len(theirs) == 1 and mine != theirs
    assert_same_stats(first, second)


def test_a_helper_that_dies_mid_task_is_named(zoo, monkeypatch, capsys):
    """A helper that leaves mid-task raises ``HelperLost`` naming it, every
    helper is reaped, and the CLI turns the error into exit code 2."""
    at(2, monkeypatch)
    parent = os.getpid()
    draw = BatchEngine._draw_trees

    def die_in_a_helper(self, n, rng):
        if os.getpid() != parent:
            os._exit(3)
        return draw(self, n, rng)

    monkeypatch.setattr(BatchEngine, "_draw_trees", die_in_a_helper)
    with deadline(), pytest.raises(HelperLost, match=r"helper process \d+ ended") as info:
        zoo.run(TRIALS, 37)
    assert helper_pids(zoo) == []
    assert_reaped([int(re.search(r"process (\d+)", str(info.value)).group(1))])

    capsys.readouterr()
    with deadline():
        code = main(["stats", "--family", "zoo", "--trials", str(TRIALS),
                     "--suite", "marginals"])
    assert code == 2
    assert re.match(r"htsp stats: HelperLost: helper process \d+ ended", capsys.readouterr().err)


# a warm engine's runs spread their ragged chunk too


@pytest.mark.parametrize("trials, warm, cpus, P", [
    (1, False, 2, 1), (1, True, 2, 1),
    (CHUNK, False, 2, 1), (CHUNK, True, 2, 1),
    (CHUNK + 1, False, 2, 1), (CHUNK + 1, True, 2, 2),
    (750, False, 2, 1), (750, True, 2, 2), (750, True, 1, 1),
    (2 * CHUNK, False, 2, 2), (2 * CHUNK, True, 2, 2),
    (1_250, False, 3, 2), (1_250, True, 3, 3), (1_250, True, 2, 2),
    (TRIALS, False, 8, 5), (TRIALS, True, 8, 6), (TRIALS, True, 3, 3),
])
def test_processes_counts_the_ragged_chunk_only_when_warm(trials, warm, cpus, P,
                                                          monkeypatch):
    monkeypatch.setattr(htsp.engine, "MAX_CHUNK", CHUNK)
    at(cpus, monkeypatch)
    assert processes(trials, warm) == P


@pytest.mark.parametrize("warm", [False, True])
def test_processes_is_one_without_fork_or_beside_a_second_thread(warm, monkeypatch):
    monkeypatch.setattr(htsp.engine, "MAX_CHUNK", CHUNK)
    at(3, monkeypatch)
    assert processes(TRIALS, warm) == 3
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(120,))
    thread.start()
    try:
        assert processes(TRIALS, warm) == 1
    finally:
        stop.set()
        thread.join(timeout=120)
    assert not thread.is_alive()
    monkeypatch.delattr(os, "fork")
    assert processes(TRIALS, warm) == 1


def test_a_warm_engine_s_ragged_chunk_goes_to_a_helper(zoo, monkeypatch):
    """One full chunk and a ragged one: a fresh engine's first run stays in
    this process, and its second puts the ragged chunk on a helper, with
    the serial run's result."""
    at(2, monkeypatch)
    with deadline():
        zoo.run(750, 37)
    assert helper_pids(zoo) == []
    with deadline():
        parallel = zoo.run(750, 38, integral=True)
    assert len(helper_pids(zoo)) == 1
    at(1, monkeypatch)
    assert_same_stats(parallel, zoo.run(750, 38, integral=True))


def test_a_warm_engine_forks_a_helper_for_its_ragged_chunk(zoo, monkeypatch):
    """Two full chunks and a ragged one at P = 3: the first run forks one
    helper, for the full chunks, and the second a second, for the ragged
    chunk."""
    at(3, monkeypatch)
    with deadline():
        first = zoo.run(1_250, 37)
    pids = helper_pids(zoo)
    assert len(pids) == 1
    with deadline():
        second = zoo.run(1_250, 37)
    assert len(helper_pids(zoo)) == 2 and helper_pids(zoo)[0] == pids[0]
    assert_same_stats(first, second)
    at(1, monkeypatch)
    assert_same_stats(second, zoo.run(1_250, 37))


def test_a_twin_of_a_warm_engine_starts_fresh(zoo, own_copy, monkeypatch):
    at(2, monkeypatch)
    with deadline():
        zoo.run(750, 37)
        zoo.run(750, 37)
    twin = own_copy(zoo)
    with deadline():
        twin.run(750, 37)
    assert len(helper_pids(zoo)) == 1 and helper_pids(twin) == []


@pytest.fixture
def forks(monkeypatch):
    """The pids ``_Helpers._fork`` forks, at the lowered chunk size and
    P = 2; a test's helpers are collected and reaped within a deadline when
    it ends."""
    monkeypatch.setattr(htsp.engine, "MAX_CHUNK", CHUNK)
    at(2, monkeypatch)
    fork, pids = htsp.engine._Helpers._fork, []

    def counted(self, engine):
        fork(self, engine)
        pids.append(self.procs[-1][0])

    monkeypatch.setattr(htsp.engine._Helpers, "_fork", counted)
    yield pids
    with deadline():
        gc.collect()
    assert_reaped(pids)


def test_one_shot_runs_fork_nothing_for_a_ragged_chunk(forks, capsys):
    """``run_suite``, ``htsp stats`` and ``oracle_check`` build a fresh
    engine and run it at most once, so one full chunk and a ragged one fork
    nothing."""
    with deadline():
        run_suite(ExperimentConfig(family="zoo", trials=750, suite="all"))
        assert main(["stats", "--family", "zoo", "--trials", "750"]) == 0
        oracle_check(family_instance("zoo"), SamplerParams(sampler="mix"))
    assert forks == []


def test_a_one_shot_run_of_two_full_chunks_forks_once(forks, capsys):
    with deadline():
        assert main(["stats", "--family", "zoo", "--trials", str(2 * CHUNK)]) == 0
    assert len(forks) == 1
