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
from htsp.engine import BatchEngine
from htsp.errors import AssemblyError, HelperLost
from htsp.stats import symmetry_pairs
from tests.conftest import ALL_FAMILIES
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
