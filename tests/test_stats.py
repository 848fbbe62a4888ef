import csv
import io

import numpy as np
import pytest

import htsp.engine
from htsp.engine import BatchEngine
from htsp.errors import AssemblyError, ConfigError, ScaleOverflow
from htsp.pipeline import CyclePieceSampler, SamplerParams, sample_r0_tree
from htsp.stats import (
    ExperimentConfig,
    StatReport,
    load_instance,
    oracle_check,
    run_suite,
    suite_correlations,
    suite_cost,
    suite_eal,
    suite_marginals,
    suite_reduction,
    suite_symmetry,
    symmetry_pairs,
)
from htsp.generators import standalone_piece
from tests.conftest import family_instance


@pytest.fixture(scope="module")
def zoo_engine():
    return BatchEngine(family_instance("zoo"), SamplerParams(sampler="mix"))


def test_engine_run_is_reproducible_for_one_chunk_size(zoo_engine, monkeypatch):
    monkeypatch.setattr(htsp.engine, "MAX_CHUNK", 512)
    a = zoo_engine.run(5_000, seed=3, join=True)
    c = zoo_engine.run(5_000, seed=3, join=True)
    assert np.array_equal(a.incl, c.incl)
    assert np.array_equal(a.z_sum, c.z_sum)
    assert a.trials == 5_000


def test_fold_adds_z_sums_as_python_ints(zoo_engine):
    """Two chunk records whose charge sums are 2**62 fold to exactly
    2**63, past int64: a run's ``z_sum`` cannot wrap."""
    record = zoo_engine._record(1, (), False, False)
    record.z_sum = np.full(zoo_engine.m, 2 ** 62, dtype=np.int64)
    st = zoo_engine._record(0, (), False, False, z_type=object)
    st.fold(record)
    st.fold(record)
    assert st.z_sum.tolist() == [2 ** 63] * zoo_engine.m
    assert st.trials == 2


def test_engine_first_chunk_sanity(zoo_engine):
    st = zoo_engine.run(1_000, seed=1, join=True, verify=True)
    assert st.feasibility_failures == 0
    n = family_instance("zoo").graph.n
    assert st.incl.sum() == 1_000 * n  # every trial contributes n edges


def passed(rows):
    return all(r.passed for r in rows)


def test_suite_marginals_rows(zoo_engine):
    rows = suite_marginals(zoo_engine, zoo_engine.run(20_000, seed=2, join=False))
    m = family_instance("zoo").graph.m
    assert len(rows) == 2 * m
    assert passed(rows)


def test_suite_eal_rows(zoo_engine):
    rows = suite_eal(zoo_engine, zoo_engine.run(50_000, seed=4))
    kinds = {r.name for r in rows}
    assert {"even-at-last/cycle", "even-at-last/special"} <= kinds
    assert passed(rows)


def test_suite_reduction_rows(zoo_engine):
    assert passed(suite_reduction(zoo_engine, zoo_engine.run(50_000, seed=5)))


def test_suite_cost_rows(zoo_engine):
    st = zoo_engine.run(30_000, seed=6, verify=True, integral=True)
    rows = suite_cost(zoo_engine, st)
    names = {r.name for r in rows}
    assert names == {
        "fractional-join-cost", "tree-plus-join-cost", "join-feasibility",
        "tree-cost",
    }
    assert passed(rows)


def test_suite_symmetry(zoo_engine):
    pairs = symmetry_pairs(zoo_engine.m)
    st = zoo_engine.run(40_000, seed=7, join=False, symmetry_pairs=pairs)
    rows = suite_symmetry(zoo_engine, st)
    assert len(rows) == 40
    assert passed(rows)


def test_report_csv_shape(zoo_engine):
    st = zoo_engine.run(5_000, seed=8, verify=True, integral=True)
    report = StatReport(suite_cost(zoo_engine, st))
    text = report.to_csv()
    lines = text.strip().splitlines()
    assert lines[0].startswith("suite,name")
    assert len(lines) == len(report.rows) + 1
    assert text == report.to_csv()  # deterministic formatting


@pytest.mark.parametrize("source", [{"family": "zoo", "suite": "all"},
                                    {"piece": "c8_12", "suite": "correlations"}])
def test_report_csv_rows_parse_to_eleven_fields(source):
    """Symmetry contexts (``pair:2,23``) and correlation contexts
    (``c8_12:(4, 5)``) hold commas; the writer quotes them, so every row
    parses back to the header's eleven fields and its own context."""
    report = run_suite(ExperimentConfig(**source, trials=2_000, seed=5))
    rows = list(csv.reader(io.StringIO(report.to_csv())))
    assert all(len(row) == 11 for row in rows)
    assert [row[3] for row in rows[1:]] == [r.context for r in report.rows]
    assert any("," in r.context for r in report.rows)


@pytest.mark.parametrize("suite", ["marginals", "eal", "cost", "symmetry", "correlations"])
def test_delta_floor_is_refused_where_no_suite_reads_it(suite):
    """Only the reduction suite reads a delta floor; any other suite refuses
    it rather than drop it."""
    with pytest.raises(ConfigError, match=f"delta floor 0.5 .* not '{suite}'"):
        run_suite(ExperimentConfig(family="zoo", suite=suite, trials=10, delta_floor=0.5))


def test_delta_floor_rows_come_with_the_reduction_suite():
    for suite in ("reduction", "all"):
        cfg = ExperimentConfig(family="zoo", suite=suite, trials=1_000, delta_floor=0.0)
        net = [r for r in run_suite(cfg).rows if r.name == "net-decrease"]
        assert len(net) == load_instance(cfg).graph.m
        assert all(r.kind == "lower" and r.bound == 0.0 for r in net)


def test_piece_batch_correlations():
    piece = standalone_piece("octahedron")
    rows = suite_correlations(piece, "mi", 30_000, seed=9, piece_label="oct")
    assert passed(rows)
    empirical = [r for r in rows if not r.name.endswith("/exact")]
    exact = [r for r in rows if r.name.endswith("/exact")]
    assert len(empirical) == len(exact) > 0


def test_oracle_check_passes():
    report = oracle_check(family_instance("nested"), SamplerParams(sampler="mi"))
    assert report.all_passed()
    rational = [r for r in report.rows if r.name == "marginal/rational"]
    assert rational and all(r.estimate == 0.5 for r in rational)


def test_run_suite_dispatcher(tmp_path):
    inst_path = tmp_path / "dc.htsp"
    from htsp.graph import serialize_instance

    inst_path.write_text(serialize_instance(family_instance("double-cycle")))
    cfg = ExperimentConfig(
        instance=str(inst_path), sampler="mi", trials=5_000, seed=3,
        suite="marginals",
    )
    report = run_suite(cfg)
    assert report.all_passed()
    cfg2 = ExperimentConfig(
        family="double-cycle", k=6, gen_seed=2, sampler="mix",
        trials=4_000, seed=3, suite="cost",
    )
    report2 = run_suite(cfg2)
    assert report2.all_passed()


def test_tree_check_runs_on_every_chunk(monkeypatch, one_process):
    """A tree table that goes bad after the first chunk still stops the run."""
    monkeypatch.setattr(htsp.engine, "MAX_CHUNK", 1_000)
    engine = BatchEngine(family_instance("nested"), SamplerParams(sampler="mi"))
    draw = engine._draw_trees

    def draw_then_corrupt(n, rng):
        trees = draw(n, rng)
        # every tree of the first tree-table piece loses one edge
        sampler = engine.samplers[engine.draw_order[0]]
        short = sampler.holds.copy()
        short[short.argmax(0), np.arange(short.shape[1])] = False
        sampler.holds = short
        return trees

    engine._draw_trees = draw_then_corrupt
    with pytest.raises(AssemblyError):
        engine.run(3_000, seed=1, join=False)


def test_one_run_serves_every_suite(zoo_engine):
    """The union-flag run gives each suite the counts of its own run."""
    pairs = symmetry_pairs(zoo_engine.m)
    full = zoo_engine.run(4_000, seed=12, verify=True, integral=True,
                          symmetry_pairs=pairs)
    own = {
        "marginals": zoo_engine.run(4_000, seed=12, join=False),
        "eal": zoo_engine.run(4_000, seed=12),
        "cost": zoo_engine.run(4_000, seed=12, verify=True, integral=True),
        "symmetry": zoo_engine.run(4_000, seed=12, join=False,
                                   symmetry_pairs=pairs),
    }
    assert np.array_equal(full.incl, own["marginals"].incl)
    assert np.array_equal(full.eal, own["eal"].eal)
    assert np.array_equal(full.reduced, own["eal"].reduced)
    assert np.array_equal(full.z_sum, own["eal"].z_sum)
    assert full.total_sum == own["cost"].total_sum
    assert all(np.array_equal(full.sym_counts[p], own["symmetry"].sym_counts[p])
               for p in pairs)


def test_suites_reject_incomplete_configs(zoo_engine):
    with pytest.raises(ConfigError):
        run_suite(ExperimentConfig(trials=10, suite="marginals"))
    with pytest.raises(ConfigError):
        run_suite(ExperimentConfig(family="nested", trials=10, suite="nope"))
    with pytest.raises(ConfigError):
        suite_cost(zoo_engine, zoo_engine.run(1_000, seed=8, integral=True))


@pytest.mark.parametrize("trials", [0, -5])
@pytest.mark.parametrize("join", [False, True])
def test_engine_rejects_counts_below_one(zoo_engine, trials, join):
    """A trial count below 1 once gave empty stats."""
    with pytest.raises(ConfigError, match="must be at least 1"):
        zoo_engine.run(trials, 1, join=join)


@pytest.mark.parametrize("past,match", [
    (0, "trials of cost times charge could overflow int64"),
    (1, "trials of tree plus join could overflow int64"),
])
def test_engine_refuses_a_max_chunk_past_the_checked_scale(monkeypatch, past, match):
    """The int64 chunk sums stay exact only for chunks of at most
    ``MAX_CHUNK`` trials, and both scale checks read the constant when an
    engine is built.  On zoo the largest chunk the tree-plus-join check
    lets through already fails the cost-times-charge check; one trial more
    fails the first."""
    total = int(BatchEngine(family_instance("zoo"), SamplerParams(sampler="mix")).cost_int.sum())
    monkeypatch.setattr(htsp.engine, "MAX_CHUNK", htsp.engine.INT64_MAX // (2 * total) + past)
    with pytest.raises(ScaleOverflow, match=match):
        BatchEngine(family_instance("zoo"), SamplerParams(sampler="mix"))


def test_chunks_of_one_run_draw_different_trials(zoo_engine, monkeypatch):
    """Each chunk index has its own stream: two full chunks of one seed
    differ, a chunk recomputed alone is the same, and the run is their
    fold."""
    monkeypatch.setattr(htsp.engine, "MAX_CHUNK", 1_000)
    first, second = (zoo_engine._run_chunk(T, rng, True, False, False, ())
                     for _, T, rng in zoo_engine.tree_chunks(2_000, 5))
    assert not np.array_equal(first.incl, second.incl)
    _, (_, T, rng) = zoo_engine.tree_chunks(2_000, 5)
    again = zoo_engine._run_chunk(T, rng, True, False, False, ())
    assert np.array_equal(second.incl, again.incl) and second.zc_sum == again.zc_sum
    st = zoo_engine.run(2_000, 5)
    assert np.array_equal(st.incl, first.incl + second.incl)
    assert st.z_sum.tolist() == (first.z_sum + second.z_sum).tolist()
    assert st.zc_sum == first.zc_sum + second.zc_sum


def test_piece_and_instance_suites_reject_counts_below_one():
    with pytest.raises(ConfigError):
        suite_correlations(standalone_piece("c7bar"), "mi", 0, 1)
    with pytest.raises(ConfigError):
        run_suite(ExperimentConfig(family="zoo", trials=0))


@pytest.mark.parametrize("case", ["run", "suite-seed", "suite-gen-seed", "correlations",
                                  "walk"])
def test_library_refuses_a_negative_seed(zoo_engine, case):
    """A negative seed is a ``ConfigError`` before numpy sees it, which
    would raise a bare ``ValueError``."""
    call = {
        "run": lambda: zoo_engine.run(10, -1),
        "suite-seed": lambda: run_suite(ExperimentConfig(family="zoo", trials=10, seed=-1,
                                                         suite="marginals")),
        "suite-gen-seed": lambda: run_suite(ExperimentConfig(family="zoo", trials=10,
                                                             gen_seed=-1, suite="marginals")),
        "correlations": lambda: suite_correlations(standalone_piece("c8_12"), "mi", 10, -3),
        "walk": lambda: sample_r0_tree(zoo_engine.h, zoo_engine.sp, seed=-1,
                                       samplers=zoo_engine.samplers),
    }[case]
    with pytest.raises(ConfigError, match="must be at least 0"):
        call()


def test_chunk_floor_follows_the_floor_constant(monkeypatch):
    """The chunk reads its floor from ``params.FLOOR`` through the join plan:
    raised to a quarter, it fails exactly the trials with a charge below a
    quarter, which the floor of 1/6 lets pass."""
    from htsp.params import QUARTER

    monkeypatch.setattr(htsp.engine, "FLOOR", QUARTER)
    engine = BatchEngine(family_instance("zoo"), SamplerParams(sampler="mix"))
    rng = np.random.default_rng(1)
    T = engine._draw_trees(2_000, rng)
    _, _, site_odd, z = engine._join(T, rng)
    under = (z < engine.z_denom // 4).any(axis=0)
    assert under.any()
    assert np.array_equal(engine._infeasible(T, z, site_odd), under)


def _cycle_samplers(engine):
    return [engine.samplers[nid] for nid in engine.draw_order
            if isinstance(engine.samplers[nid], CyclePieceSampler)]


def _move_root_edge(engine):
    """Swap a root edge with an edge of another partner pair of its cycle
    piece: every tree keeps its edge count, but about half the trees now
    hold one or three root edges."""
    root = set(engine.root_edges)
    sampler = next(s for s in _cycle_samplers(engine)
                   if root & {e for pair in s.pairs for e in pair})
    pairs = [list(pair) for pair in sampler.pairs]
    i = next(r for r, pr in enumerate(pairs) if root & set(pr))
    j = next(r for r, pr in enumerate(pairs) if not root & set(pr))
    pairs[i][1], pairs[j][1] = pairs[j][1], pairs[i][1]
    sampler.pairs = [tuple(pair) for pair in pairs]


def test_root_degree_check_runs_on_every_chunk(monkeypatch, one_process):
    """Cycle pairs that go bad after the first chunk, keeping every tree's
    edge count, are stopped by the root-degree check."""
    monkeypatch.setattr(htsp.engine, "MAX_CHUNK", 1_000)
    engine = BatchEngine(family_instance("nested"), SamplerParams(sampler="mi"))
    draw = engine._draw_trees
    calls = []

    def draw_then_corrupt(n, rng):
        trees = draw(n, rng)
        if not calls:
            _move_root_edge(engine)
        calls.append(n)
        return trees

    engine._draw_trees = draw_then_corrupt
    with pytest.raises(AssemblyError, match="degree 2 at root"):
        engine.run(3_000, seed=1, join=False)
    assert len(calls) == 2


def test_tree_checks_survive_python_O():
    """Under ``python -O`` corrupted cycle pairs still raise
    ``AssemblyError``, both for a lost edge and for a moved root edge."""
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    script = """
import numpy as np
from htsp.engine import BatchEngine
from htsp.errors import AssemblyError
from htsp.pipeline import SamplerParams
from tests.conftest import family_instance
from tests.test_stats import _cycle_samplers, _move_root_edge

try:
    assert False
except AssertionError:
    raise SystemExit("assertions are on")
for corrupt in ("lost-edge", "root-edge"):
    engine = BatchEngine(family_instance("nested"), SamplerParams(sampler="mi"))
    if corrupt == "lost-edge":
        sampler = _cycle_samplers(engine)[0]
        sampler.pairs = sampler.pairs[1:]
    else:
        _move_root_edge(engine)
    try:
        engine.run(1_000, seed=1, join=False)
    except AssemblyError as exc:
        print(corrupt, exc)
"""
    env = {"PATH": "", "PYTHONPATH": f"{root / 'src'}:{root}"}
    out = subprocess.run([sys.executable, "-O", "-c", script], cwd=root, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["lost-edge", "root-edge"]
    assert "edges" in lines[0] and "degree 2 at root" in lines[1]


def test_oracle_check_computes_eal_probabilities_once(monkeypatch):
    """The oracle compiles the instance once and hands its even-at-last
    probabilities, coin rates and charge sites to every row instead of
    computing them again."""
    import htsp.join
    import htsp.oracle
    import htsp.stats

    names = ("exact_eal_probabilities", "coin_rates", "build_charge_sites")
    calls = {name: 0 for name in names}
    for name in names:
        original = getattr(htsp.join, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for module in (htsp.engine, htsp.join, htsp.oracle, htsp.stats):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    for family in ("zoo", "random-4reg"):
        calls = dict.fromkeys(names, 0)
        report = oracle_check(family_instance(family), SamplerParams(sampler="mix"))
        assert report.all_passed()
        assert calls == dict.fromkeys(names, 1), family


def test_oracle_csv_digest_mi_random_4reg():
    """The matroid route's oracle report, pinned like the zoo digests of
    ``test_output_digests.py``: its rows are exact rationals printed."""
    import hashlib

    report = oracle_check(family_instance("random-4reg"), SamplerParams(sampler="mi"))
    assert hashlib.sha256(report.to_csv().encode()).hexdigest() == (
        "0bbefebd9ee0cdff1758990d2fa818f9c3e2311800b877fc88fee8f4c4f05f1e"
    )


def _shrunk_eal_probabilities(monkeypatch):
    """Make every even-at-last probability a hundredth of its exact value."""
    exact = htsp.engine.exact_eal_probabilities
    monkeypatch.setattr(
        htsp.engine, "exact_eal_probabilities",
        lambda *args: {e: p / 100 for e, p in exact(*args).items()},
    )


def test_probabilities_below_bound_stop_the_engine_not_the_oracle(monkeypatch, tmp_path):
    """Below their bounds, even-at-last probabilities make ``BatchEngine``
    raise, while ``oracle_check`` reports failing rows and ``htsp oracle``
    exits with code 1."""
    from htsp.cli import main
    from htsp.errors import EstimateBelowBound
    from htsp.graph import serialize_instance

    inst = family_instance("nested")
    _shrunk_eal_probabilities(monkeypatch)
    with pytest.raises(EstimateBelowBound):
        BatchEngine(inst, SamplerParams(sampler="mi"))
    report = oracle_check(inst, SamplerParams(sampler="mi"))
    failing = {r.name.split("/")[0] for r in report.rows if not r.passed}
    assert {"even-at-last", "reduction-rate-flattened"} <= failing
    path = tmp_path / "nested.htsp"
    path.write_text(serialize_instance(inst))
    assert main(["oracle", str(path), "--sampler", "mi", "--out",
                 str(tmp_path / "oracle.csv")]) == 1
