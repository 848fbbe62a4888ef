import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from htsp.cli import main
from htsp.errors import GenerationFailure
from htsp.generators import (
    GRID,
    PIECE_CATALOG,
    _distinct_points,
    generate,
    generate_nested,
    generate_random_4reg,
    standalone_piece,
)
from htsp.graph import MultiGraph, parse_instance, serialize_instance
from htsp.hierarchy import build_hierarchy
from tests.brute_min_cuts import brute_min_cuts
from tests.conftest import ALL_FAMILIES, family_instance, fractional_cost_instance


def test_catalog_graphs_are_valid_pieces():
    for name, (n, edges) in PIECE_CATALOG.items():
        g = MultiGraph(n, [(i, u, v) for i, (u, v) in enumerate(edges)])
        assert all(d == 4 for d in g.degrees()), name
        assert g.edge_connectivity() == 4, name
        proper = [c for c in brute_min_cuts(g) if 1 < len(c.shore) < n - 1]
        assert proper == [], name


def test_catalog_special_edges():
    # pieces used for the correlation rows must have the needed structures
    for name in ("c7bar", "c8_12"):
        piece = standalone_piece(name)
        boundary = set(piece.boundary_vertices)
        interior = [
            v for v in piece.internal_vertices if v not in boundary
        ]
        g = piece.graph
        special = [
            eid
            for eid in piece.internal_edge_ids
            if all(
                w not in boundary for w in g.endpoints[g.edge_index(eid)]
            )
        ]
        assert special, name
        full_interior_vertices = [
            v
            for v in piece.internal_vertices
            if all(
                e in set(piece.internal_edge_ids) for e in g.incident_ids(v)
            )
        ]
        assert full_interior_vertices, name


def test_every_family_generates_valid_instances():
    rng = np.random.default_rng(0)
    for family in ALL_FAMILIES:
        inst = generate(family, rng, k=6, n=10, depth=2)
        inst.validate()
        assert inst.strict


def test_metric_costs_satisfy_triangle_inequality():
    from htsp.engine import CompiledInstance

    ci = CompiledInstance(family_instance("zoo"))
    d = np.array(ci.metric[0])
    g = ci.inst.graph
    for eid, (u, v) in zip(g.edge_ids, g.endpoints):
        assert d[u, v] <= ci.cost_int[eid]
    # every d[a, b] <= d[a, c] + d[c, b], for all c at once
    assert (d[:, None, :] <= d[:, :, None] + d[None, :, :]).all()


def test_unit_costs_flag():
    rng = np.random.default_rng(1)
    inst = generate("double-cycle", rng, k=5, unit_costs=True)
    assert set(inst.costs) == {Fraction(1)}


def test_nested_depths():
    rng = np.random.default_rng(2)
    for depth in (2, 3):
        inst = generate_nested(depth, rng)
        h = build_hierarchy(inst)
        internal = [nd for nd in h.non_leaves() if not nd.is_root]
        chains = max(
            _chain_depth(h, nd) for nd in internal
        )
        assert chains >= depth


def _chain_depth(h, nd):
    depth = 1
    cur = nd
    while True:
        parent = next(
            (p for p in h.non_leaves() if cur.node_id in p.children), None
        )
        if parent is None or parent.is_root:
            return depth
        depth += 1
        cur = parent


def test_random_family_rejects_until_valid():
    rng = np.random.default_rng(3)
    for n in (8, 11, 13):
        inst = generate_random_4reg(n, rng)
        assert inst.graph.n == n
        assert inst.graph.edge_connectivity() == 4


def test_generated_instances_parse_roundtrip(any_instance):
    from htsp.graph import serialize_instance

    text = serialize_instance(any_instance)
    assert parse_instance(text).costs == any_instance.costs


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "htsp", *args],
        capture_output=True,
        text=True,
        check=False,
    )


@pytest.fixture(scope="module")
def instance_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("inst") / "zoo.htsp"
    r = run_cli("generate", "--family", "zoo", "--seed", "3", "--out", str(path))
    assert r.returncode == 0, r.stderr
    return str(path)


def test_cli_generate_is_deterministic(tmp_path):
    a = run_cli("generate", "--family", "nested", "--seed", "5")
    b = run_cli("generate", "--family", "nested", "--seed", "5")
    c = run_cli("generate", "--family", "nested", "--seed", "6")
    assert a.stdout == b.stdout
    assert a.stdout != c.stdout


def test_cli_generate_default_seed_is_the_stats_default():
    """``generate --family F`` without ``--seed`` writes the instance that
    ``stats --family F`` runs on, generator seed 1."""
    from htsp.stats import ExperimentConfig, load_instance

    for family in ("zoo", "nested"):
        r = run_cli("generate", "--family", family)
        assert r.returncode == 0, r.stderr
        want = serialize_instance(load_instance(ExperimentConfig(family=family)))
        assert r.stdout == want
        assert r.stdout == run_cli("generate", "--family", family, "--seed", "1").stdout


def test_cli_validate(instance_file):
    r = run_cli("validate", instance_file)
    assert r.returncode == 0 and "valid" in r.stdout


@pytest.mark.parametrize("family", ALL_FAMILIES + ("fractional-costs",))
def test_cli_validate_prints_half_the_total_cost(family, tmp_path, capsys):
    """``htsp validate`` prints the LP cost as half the ``Fraction`` sum of
    the costs, on every family and on a/b costs."""
    inst = fractional_cost_instance() if family == "fractional-costs" else family_instance(family)
    path = tmp_path / "inst.htsp"
    path.write_text(serialize_instance(inst))
    assert main(["validate", str(path)]) == 0
    g, lp = inst.graph, sum(inst.costs, Fraction(0)) / 2
    assert capsys.readouterr().out == f"valid: {g.n} vertices, {g.m} edges, lp cost {lp}\n"


def test_cli_hierarchy_and_cactus(instance_file):
    r = run_cli("hierarchy", instance_file)
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert "nodes" in payload and "min_cuts" in payload
    r2 = run_cli("cactus", instance_file)
    assert r2.returncode == 0
    cactus = json.loads(r2.stdout)
    assert cactus["cycles"] and cactus["phi"]


def test_cli_hierarchy_past_the_old_cap(tmp_path):
    path = tmp_path / "dc30.htsp"
    r = run_cli("generate", "--family", "double-cycle", "--k", "30", "--seed", "1",
                "--out", str(path))
    assert r.returncode == 0, r.stderr
    r = run_cli("hierarchy", str(path))
    assert r.returncode == 0, r.stderr
    assert len(json.loads(r.stdout)["min_cuts"]) == 30 * 29 // 2


def test_cli_sample_reproducible(instance_file):
    a = run_cli("sample", instance_file, "--trials", "3", "--seed", "9",
                "--dump-shift")
    b = run_cli("sample", instance_file, "--trials", "3", "--seed", "9",
                "--dump-shift")
    assert a.returncode == 0 and a.stdout == b.stdout
    first = json.loads(a.stdout.splitlines()[0])
    assert "provenance" in first and len(first["edges"]) == 14


def test_cli_join_csv_schema(instance_file):
    r = run_cli("join", instance_file, "--trials", "4", "--seed", "2")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    assert lines[0] == (
        "trial,seed,tree_cost,fractional_join_cost,integral_join_cost,"
        "tour_cost,ratio_to_cx"
    )
    assert len(lines) == 5
    r2 = run_cli("join", instance_file, "--trials", "4", "--seed", "2")
    assert r.stdout == r2.stdout


def test_cli_stats_marginals(instance_file):
    r = run_cli(
        "stats", "--instance", instance_file, "--suite", "marginals",
        "--trials", "4000", "--seed", "1", "--sampler", "mi",
    )
    assert r.returncode == 0, r.stdout + r.stderr
    lines = r.stdout.strip().splitlines()
    assert lines[0].startswith("suite,name,sampler")
    assert all(line.split(",")[9] == "1" for line in lines[1:])


def test_cli_stats_correlation_piece():
    r = run_cli(
        "stats", "--suite", "correlations", "--piece", "c8_12",
        "--sampler", "mi", "--trials", "3000", "--seed", "4",
    )
    assert r.returncode == 0, r.stdout + r.stderr


@pytest.mark.parametrize("args, named", [
    # a piece with a suite other than correlations, with and without a family
    (("--family", "zoo", "--piece", "c8_12", "--suite", "marginals"), ("'c8_12'", "'marginals'")),
    (("--piece", "c8_12", "--suite", "marginals"), ("'c8_12'", "'marginals'")),
    # two sources, which one run could only read one of
    (("--instance", "INSTANCE", "--family", "zoo"), ("instance, family",)),
    (("--family", "zoo", "--piece", "c8_12", "--suite", "correlations"), ("family, piece",)),
    # generator settings, which only a family source reads
    (("--instance", "INSTANCE", "--suite", "marginals", "--k", "40", "--unit-costs"),
     ("(k, unit_costs)", "instance")),
    (("--piece", "c8_12", "--suite", "correlations", "--n", "16", "--gen-seed", "9"),
     ("(n, gen_seed)", "piece 'c8_12'")),
    (("--instance", "INSTANCE", "--depth", "2"), ("(depth)",)),
    # a delta floor, which only the reduction suite reads
    (("--family", "zoo", "--suite", "marginals", "--delta-floor", "0.5"), ("0.5", "'marginals'")),
    (("--piece", "c8_12", "--suite", "correlations", "--delta-floor", "0.5"),
     ("0.5", "'correlations'")),
    # a size setting the family does not read
    (("--family", "double-cycle", "--n", "99", "--depth", "4", "--suite", "marginals"),
     ("'double-cycle' reads k", "not n, depth")),
    (("--family", "zoo", "--k", "5", "--suite", "marginals"), ("'zoo'", "not k")),
    # a sampler mix, which the correlations suite checks like the others
    (("--family", "nested", "--suite", "correlations", "--mix-lambda", "5"),
     ("mix_lambda 5 is outside",)),
    (("--family", "nested", "--suite", "correlations", "--mix-lambda", "nan"),
     ("mix_lambda nan is not",)),
])
def test_cli_stats_names_flags_it_cannot_honour(args, named, instance_file):
    r = run_cli("stats", *(instance_file if a == "INSTANCE" else a for a in args),
                "--trials", "10")
    assert r.returncode == 2
    assert r.stdout == ""
    assert len(r.stderr.strip().splitlines()) == 1
    assert r.stderr.startswith("htsp stats: ConfigError: ")
    assert all(name in r.stderr for name in named), r.stderr


def test_cli_generate_refuses_a_size_the_family_does_not_read():
    r = run_cli("generate", "--family", "zoo", "--k", "5")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "htsp generate: ConfigError: family 'zoo' reads no size setting, not k\n"


@pytest.mark.parametrize("seed", ["1", "5"])
def test_cli_oracle_refuses_a_piece_past_the_interior_limit(seed, tmp_path):
    """The compile's size refusal reaches the command line as one stderr
    line and exit status 2."""
    path = tmp_path / "4reg-18.htsp"
    r = run_cli("generate", "--family", "random-4reg", "--n", "18", "--seed", seed,
                "--out", str(path))
    assert r.returncode == 0, r.stderr
    r = run_cli("oracle", str(path))
    assert (r.returncode, r.stdout, r.stderr) == (
        2, "", "htsp oracle: SizeLimitExceeded: piece interior 13 exceeds enumeration limit 12\n")


def test_cli_a_size_the_family_reads_still_runs():
    r = run_cli("generate", "--family", "random-4reg", "--n", "10")
    assert r.returncode == 0, r.stderr
    assert r.stdout == serialize_instance(
        generate("random-4reg", np.random.default_rng(1), n=10))
    r = run_cli("stats", "--family", "random-4reg", "--n", "10", "--suite", "marginals",
                "--trials", "10")
    assert r.returncode == 0, r.stderr


def test_generator_settings_need_a_family_source(instance_file):
    """A set generator setting with a file or piece source is refused; an
    unset one takes the default of ``generators.generate``, gen_seed 1."""
    from htsp.errors import ConfigError
    from htsp.stats import ExperimentConfig, load_instance, run_suite

    for source in ({"instance": instance_file}, {"piece": "c7bar"}):
        for setting in ({"k": 7}, {"n": 12}, {"depth": 2}, {"gen_seed": 1},
                        {"unit_costs": True}):
            cfg = ExperimentConfig(**source, **setting, suite="correlations", trials=10)
            with pytest.raises(ConfigError, match=f"\\({next(iter(setting))}\\)"):
                run_suite(cfg)
    for family in ALL_FAMILIES:
        default = load_instance(ExperimentConfig(family=family))
        want = generate(family, np.random.default_rng(1))
        assert serialize_instance(default) == serialize_instance(want)


def test_more_points_than_the_grid_holds_fail_before_any_draw():
    rng = np.random.default_rng(0)
    with pytest.raises(GenerationFailure, match=f"{GRID * GRID + 1} distinct points"):
        _distinct_points(GRID * GRID + 1, rng)
    assert rng.random() == np.random.default_rng(0).random()
    # random-4reg checks its size before it draws a graph to give costs to
    with pytest.raises(GenerationFailure, match=f"5 to {GRID * GRID} vertices"):
        generate_random_4reg(GRID * GRID + 1, rng)


def test_cli_optimize_params():
    r = run_cli("optimize-params")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert abs(payload["lambda"] - 0.4715) <= 1e-4
    assert payload["binding"]


def test_cli_oracle(instance_file):
    r = run_cli("oracle", instance_file, "--sampler", "mi", "--format", "json")
    assert r.returncode == 0, r.stdout[-2000:]
    payload = json.loads(r.stdout)
    assert all(row["passed"] for row in payload["rows"])


def test_cli_oracle_takes_no_seed_or_trials(instance_file):
    # the oracle is exact: it neither samples nor seeds, so it takes
    # neither flag, and its plain report stays the pinned one
    from tests.test_output_digests import ORACLE_ZOO_MIX

    for flag in ("--trials", "--seed"):
        r = run_cli("oracle", instance_file, flag, "3")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "unrecognized arguments" in r.stderr
    r = run_cli("oracle", instance_file)
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == ORACLE_ZOO_MIX


def test_cli_normalize(tmp_path):
    # write a double cycle with the root parked at label 2
    from htsp.graph import serialize_instance
    from htsp.graph import HalfIntegralInstance

    edges = []
    for i in range(5):
        for _ in range(2):
            edges.append((len(edges), i, (i + 1) % 5))
    perm = {0: 2, 1: 0, 2: 3, 3: 4, 4: 1}
    edges = [(eid, perm[u], perm[v]) for eid, u, v in edges]
    inst = HalfIntegralInstance(
        MultiGraph(5, edges), (Fraction(1),) * 10, strict=False
    )
    path = tmp_path / "raw.htsp"
    path.write_text(serialize_instance(inst))
    r = run_cli("normalize", str(path))
    assert r.returncode == 0
    fixed = parse_instance(r.stdout)
    assert fixed.strict


@pytest.mark.parametrize("case", ["bad-instance", "missing-file", "no-source",
                                  "stats-mix", "oracle-mix", "join-mix",
                                  "stats-nan-mix", "stats-inf-mix",
                                  "oracle-nan-mix", "oracle-inf-mix",
                                  "stats-trials-0", "stats-trials-neg",
                                  "tour-trials-0", "join-trials-neg",
                                  "sample-trials-0", "sample-format",
                                  "join-format", "tour-format", "join-sampler",
                                  "join-text-trials", "generate-no-family",
                                  "sample-seed-neg", "join-seed-neg", "tour-seed-neg",
                                  "stats-seed-neg", "generate-seed-neg",
                                  "stats-gen-seed-neg", "stats-nan-floor",
                                  "stats-inf-floor"])
def test_cli_bad_input_is_one_line_with_exit_code_2(case, tmp_path, instance_file):
    bad = tmp_path / "bad.htsp"
    bad.write_text("htsp 3 2\n0 1 1\n")
    args = {
        "bad-instance": ("validate", str(bad)),
        "missing-file": ("oracle", str(tmp_path / "absent.htsp")),
        "no-source": ("stats", "--suite", "marginals", "--trials", "10"),
        "stats-mix": ("stats", "--family", "nested", "--mix-lambda", "2"),
        "oracle-mix": ("oracle", instance_file, "--mix-lambda", "2"),
        "join-mix": ("join", instance_file, "--mix-lambda", "2"),
        "stats-nan-mix": ("stats", "--family", "zoo", "--mix-lambda", "nan",
                          "--trials", "10"),
        "stats-inf-mix": ("stats", "--family", "zoo", "--mix-lambda", "inf",
                          "--trials", "10"),
        "oracle-nan-mix": ("oracle", instance_file, "--mix-lambda", "nan"),
        "oracle-inf-mix": ("oracle", instance_file, "--mix-lambda", "inf"),
        "stats-trials-0": ("stats", "--family", "zoo", "--trials", "0"),
        "stats-trials-neg": ("stats", "--family", "zoo", "--trials", "-5"),
        "tour-trials-0": ("tour", instance_file, "--trials", "0"),
        "join-trials-neg": ("join", instance_file, "--trials", "-1"),
        "sample-trials-0": ("sample", instance_file, "--trials", "0"),
        # only stats and oracle print a report, so only they take a format
        "sample-format": ("sample", instance_file, "--format", "json"),
        "join-format": ("join", instance_file, "--format", "json"),
        "tour-format": ("tour", instance_file, "--format", "csv"),
        # argparse's own errors: a bad choice, a bad type, a missing option
        "join-sampler": ("join", instance_file, "--sampler", "foo"),
        "join-text-trials": ("join", instance_file, "--trials", "x"),
        "generate-no-family": ("generate",),
        # a negative seed is refused before numpy sees it
        "sample-seed-neg": ("sample", instance_file, "--seed", "-1"),
        "join-seed-neg": ("join", instance_file, "--seed", "-1"),
        "tour-seed-neg": ("tour", instance_file, "--seed", "-1"),
        "stats-seed-neg": ("stats", "--instance", instance_file, "--seed", "-1",
                           "--trials", "10"),
        "generate-seed-neg": ("generate", "--family", "zoo", "--seed", "-1"),
        "stats-gen-seed-neg": ("stats", "--family", "zoo", "--gen-seed", "-1",
                               "--trials", "10"),
        "stats-nan-floor": ("stats", "--instance", instance_file, "--suite", "reduction",
                            "--delta-floor", "nan", "--trials", "10"),
        "stats-inf-floor": ("stats", "--instance", instance_file, "--suite", "reduction",
                            "--delta-floor", "inf", "--trials", "10"),
    }[case]
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stdout == ""
    assert len(r.stderr.strip().splitlines()) == 1
    assert r.stderr.startswith(f"htsp {args[0]}: ")
    if case.endswith(("-mix", "-floor")) or "-trials-" in case or "-seed-" in case:
        assert "ConfigError" in r.stderr
    if case.endswith("-format"):
        assert "unrecognized arguments: --format" in r.stderr


def _primes(k: int) -> list[int]:
    out: list[int] = []
    p = 3
    while len(out) < k:
        if all(p % q for q in out):
            out.append(p)
        p += 2
    return out


def _scaled_zoo(kind: str):
    """The zoo (generator seed 0): its costs times 10**15 ("huge") or
    10**10 ("charge"), each edge pair's costs over a distinct odd prime
    ("prime"), and unit costs ("unit") and unit costs times 10**12
    ("large")."""
    from htsp.graph import HalfIntegralInstance

    unit = kind in ("unit", "large")
    zoo = generate("zoo", np.random.default_rng(0), unit_costs=unit)
    if kind == "prime":
        costs = [c / p for c, p in zip(zoo.costs, np.repeat(_primes(zoo.graph.m // 2), 2))]
    else:
        scale = {"huge": 15, "charge": 10, "large": 12, "unit": 0}[kind]
        costs = [c * 10 ** scale for c in zoo.costs]
    return HalfIntegralInstance(zoo.graph, tuple(costs))


@pytest.fixture(scope="module")
def scaled_files(tmp_path_factory):
    from htsp.graph import serialize_instance

    root = tmp_path_factory.mktemp("scaled")
    paths = {}
    for kind in ("huge", "prime", "charge", "large", "unit"):
        paths[kind] = str(root / f"{kind}.htsp")
        with open(paths[kind], "w", encoding="utf-8") as fh:
            fh.write(serialize_instance(_scaled_zoo(kind)))
    return paths


STATS_COST = ("stats", "--suite", "cost", "--trials", "100", "--instance")


@pytest.mark.parametrize("kind,cmd", [
    *((kind, cmd) for kind in ("huge", "prime")
      for cmd in (STATS_COST, ("join",), ("tour",))),
    # tree and join costs fit; a chunk's sums of cost times charge do not
    ("charge", STATS_COST), ("charge", ("join",)),
])
def test_costs_past_the_int64_scale_are_refused(kind, cmd, scaled_files, capsys):
    """Costs whose int64 sums could wrap, as a chunk adds them up, stop
    every command that reads them with a one-line ``ScaleOverflow``."""
    from htsp.cli import main

    assert main([*cmd, scaled_files[kind]]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"htsp {cmd[0]}: ScaleOverflow: ")
    assert len(out.err.splitlines()) == 1


@pytest.mark.parametrize("kind", ["huge", "prime", "charge"])
def test_commands_without_costs_accept_any_scale(kind, scaled_files, capsys):
    from htsp.cli import main

    assert main(["oracle", scaled_files[kind]]) == 0
    assert main(["sample", scaled_files[kind], "--trials", "2"]) == 0
    if kind == "charge":
        # the tour sums no charges
        assert main(["tour", scaled_files[kind], "--trials", "2"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("kind", ["huge", "prime", "charge"])
def test_correlations_suite_reads_no_costs(kind, scaled_files, capsys):
    """The correlations suite lists the pieces and reads no cost: on any
    cost scale it gives the report it gives on unit costs."""
    from htsp.cli import main

    runs = {}
    for k in (kind, "unit"):
        code = main(["stats", "--suite", "correlations", "--sampler", "mi",
                     "--trials", "500", "--instance", scaled_files[k]])
        runs[k] = (code, *capsys.readouterr())
    assert runs[kind] == runs["unit"]
    assert runs[kind][1] and runs[kind][2] == ""


def test_costs_past_the_old_metric_sentinel_give_the_scaled_tour(scaled_files, capsys):
    """Costs of 10**12 and more, which the ``Fraction`` metric took for
    unreachable, give the unit-cost tour at 10**12 times its cost."""
    from htsp.cli import main

    reports = {}
    for kind in ("unit", "large"):
        assert main(["tour", scaled_files[kind], "--seed", "4"]) == 0
        reports[kind] = json.loads(capsys.readouterr().out)
    assert reports["large"]["tour"] == reports["unit"]["tour"]
    for key in ("tour_cost", "tree_cost", "join_cost"):
        assert reports["large"][key] == reports["unit"][key] * 10 ** 12
    assert reports["large"]["ratio_to_cx"] == reports["unit"]["ratio_to_cx"]


@pytest.mark.parametrize("cmd", [("sample", "--trials", "3"), ("join", "--trials", "3"),
                                 ("tour", "--trials", "3"), ("oracle",)])
def test_each_command_compiles_the_instance_once(cmd, instance_file, monkeypatch, capsys):
    """The hierarchy and the piece samplers are built once per command,
    under every name htsp looks them up by."""
    import htsp
    import htsp.cli
    import htsp.engine
    import htsp.hierarchy
    import htsp.pipeline
    import htsp.stats
    from htsp.cli import main

    calls = {"build_hierarchy": 0, "build_piece_samplers": 0}
    for name in calls:
        original = getattr(htsp.pipeline if name == "build_piece_samplers"
                           else htsp.hierarchy, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for module in (htsp, htsp.cli, htsp.engine, htsp.hierarchy, htsp.pipeline,
                       htsp.stats):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    assert main([cmd[0], instance_file, *cmd[1:]]) == 0
    capsys.readouterr()
    assert calls == {"build_hierarchy": 1, "build_piece_samplers": 1}
