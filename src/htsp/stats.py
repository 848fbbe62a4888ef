"""The statistic suites and their reports, read off the runs of
``engine.BatchEngine``.

The reports have one verdict rule: ``sampled_row`` passes a sampled
estimate within ``params.SIGMAS`` standard errors of its bound, on the side
its kind names, and ``binomial_row`` is its case for a frequency; every
other row is exact.  Each suite returns its rows, and ``run_suite``
dispatches the instance-level suites through one table, ``SUITES``, of the
engine flags each needs and its function.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from typing import Optional

import numpy as np

from . import generators
from .engine import BatchEngine, BatchStats, CompiledInstance, check_positive, check_seed
from .errors import ConfigError
from .graph import HalfIntegralInstance, parse_instance
from .hierarchy import build_hierarchy
from .join import ReductionParams, coin_kind
from .oracle import (
    correlation_event_probability,
    correlation_tuples,
    exact_expected_net_decrease,
    exact_marginals,
)
from .params import (CORRELATION_BOUNDS, DEFAULT_MIX_LAMBDA, EPSILON, FIT_TOLERANCE, HALF,
                     QUARTER, SIGMAS, TOUR_RATIO_BOUND, VARIANCE_FLOOR, eal_bounds)
from .pipeline import DegreePieceSampler, SamplerParams, k5_sampler

#: draws per block of the correlation suite's piece sampling
CORRELATION_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# report model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StatRow:
    suite: str
    name: str
    sampler: str
    context: str
    kind: str  # 'lower' | 'two-sided' | 'upper' | 'exact'
    bound: float
    estimate: float
    stderr: float
    trials: int
    passed: bool

    @property
    def slack(self) -> float:
        if self.kind == "lower":
            return self.estimate - self.bound
        if self.kind == "upper":
            return self.bound - self.estimate
        return abs(self.estimate - self.bound)


@dataclass
class StatReport:
    rows: list[StatRow] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_csv(self) -> str:
        """The rows as CSV; a field holding a comma is quoted."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([f.name for f in fields(StatRow)] + ["slack"])
        writer.writerows(
            (r.suite, r.name, r.sampler, r.context, r.kind, f"{r.bound:.10g}",
             f"{r.estimate:.10g}", f"{r.stderr:.10g}", r.trials, int(r.passed), f"{r.slack:.10g}")
            for r in self.rows
        )
        return out.getvalue()

    def to_json(self) -> str:
        rows = [{**asdict(r), "slack": r.slack} for r in self.rows]
        return json.dumps({"meta": self.meta, "rows": rows}, indent=2)


def binom_sigma(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), VARIANCE_FLOOR) / max(n, 1))


def sampled_row(suite, name, sampler, context, kind, bound, estimate, stderr,
                trials) -> StatRow:
    """A row of a sampled estimate under the package's one verdict rule: it
    passes when the estimate lies within ``SIGMAS`` standard errors of its
    bound, on the side that ``kind`` (``lower``, ``upper`` or
    ``two-sided``) names."""
    bound = float(bound)
    if kind == "lower":
        passed = estimate >= bound - SIGMAS * stderr
    elif kind == "upper":
        passed = estimate <= bound + SIGMAS * stderr
    elif kind == "two-sided":
        passed = abs(estimate - bound) <= SIGMAS * stderr
    else:
        raise ValueError(f"a sampled row is lower, upper or two-sided, not {kind!r}")
    return StatRow(suite, name, sampler, context, kind, bound, estimate, stderr, trials, passed)


def binomial_row(suite, name, sampler, context, kind, bound, count, n) -> StatRow:
    """The sampled row of a frequency, ``count`` hits in ``n`` trials."""
    est = count / n
    return sampled_row(suite, name, sampler, context, kind, bound, est, binom_sigma(est, n), n)


# ---------------------------------------------------------------------------
# derived statistics
# ---------------------------------------------------------------------------

def mean_and_sigma(total: int, sumsq: float, n: int, scale: float) -> tuple[float, float]:
    """The mean and standard error of ``n`` trials of a quantity in units of
    ``scale``, from the sum of its integers and the float sum of their
    squares."""
    mean = total / n * scale
    var = max(sumsq / n * scale * scale - mean * mean, 0.0)
    return mean, math.sqrt(var / n)


# ---------------------------------------------------------------------------
# piece-level suite (correlation rows)
# ---------------------------------------------------------------------------

def suite_correlations(piece, sampler: str, trials: int, seed: int,
                       piece_label: str = "piece") -> list[StatRow]:
    """Joint-inclusion lower bounds for every qualifying edge tuple, sampled
    from the piece's compiled tree table and exact.  Block ``idx`` of
    ``CORRELATION_BLOCK`` draws reads ``SeedSequence(seed, spawn_key=(idx,))``;
    the draws are counted per tree, then summed under each event."""
    check_positive(trials=trials)
    check_seed(seed=seed)
    if piece.graph.n == 5:
        compiled = k5_sampler(piece)
    else:
        compiled = DegreePieceSampler(piece, SamplerParams(sampler=sampler)).compiled()
    hits = np.zeros(len(compiled.probs), dtype=np.int64)
    for idx, done in enumerate(range(0, trials, CORRELATION_BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(idx,)))
        draws = compiled.table.lookup(rng.random(min(CORRELATION_BLOCK, trials - done)))
        hits += np.bincount(draws, minlength=len(hits))
    bounds = CORRELATION_BOUNDS[sampler]
    rows = []
    for row, tups in correlation_tuples(piece).items():
        for tup in tups:
            exact, event = correlation_event_probability(compiled, piece, row, tup)
            context = f"{piece_label}:{tup}"
            rows.append(binomial_row("correlations", row, sampler, context, "lower",
                                     bounds[row], int(hits[event].sum()), trials))
            rows.append(StatRow("correlations", row + "/exact", sampler, context, "exact",
                                float(bounds[row]), float(exact), 0.0, 0, exact >= bounds[row]))
    return rows


# ---------------------------------------------------------------------------
# instance-level suites
# ---------------------------------------------------------------------------

def is_half(marginal: Fraction, lam: Fraction) -> bool:
    """An exact marginal of one half at max-entropy share ``lam``: equal on
    the matroid route, and within ``FIT_TOLERANCE`` where the max-entropy
    fit enters, whose stopping rule keeps it within (2/3) * lam *
    ``FIT_TOLERANCE``."""
    return marginal == HALF or lam != 0 and abs(marginal - HALF) <= FIT_TOLERANCE


def symmetry_pairs(m: int) -> list[tuple[int, int]]:
    """Twenty random distinct edge pairs (all of them, if fewer) for the
    swap-symmetry suite, drawn at seed 2024."""
    rng = np.random.default_rng(20_24)
    pairs = set()
    while len(pairs) < min(20, m * (m - 1) // 2):
        a, b = sorted(map(int, rng.choice(m, size=2, replace=False)))
        pairs.add((a, b))
    return sorted(pairs)


def suite_marginals(engine: BatchEngine, st: BatchStats) -> list[StatRow]:
    """Every edge's inclusion frequency against one half (plus exact rows)."""
    sampler = engine.sp.sampler
    exact = exact_marginals(engine.h, engine.samplers, engine.classes)
    rows = [binomial_row("marginals", "edge-in-tree", sampler, f"edge:{e}", "two-sided",
                         HALF, int(st.incl[e]), st.trials)
            for e in range(engine.m)]
    rows += [StatRow("marginals", "edge-in-tree/exact", sampler, f"edge:{e}", "exact",
                     float(HALF), float(exact[e]), 0.0, 0,
                     is_half(exact[e], engine.sp.effective_lambda))
             for e in range(engine.m)]
    return rows


def suite_eal(engine: BatchEngine, st: BatchStats) -> list[StatRow]:
    """Even-at-last frequencies per class against the guaranteed table."""
    bounds = eal_bounds(engine.sp.sampler, engine.sp.effective_lambda)
    by_class: dict[str, list[int]] = {}
    for e, cl in engine.classes.items():
        by_class.setdefault(cl.kind, []).append(e)
    rows = []
    for kind, edges in sorted(by_class.items()):
        worst = min(edges, key=lambda e: st.eal[e])
        rows.append(binomial_row("eal", f"even-at-last/{kind}", engine.sp.sampler,
                                 f"worst-edge:{worst}(n={len(edges)})", "lower",
                                 bounds[coin_kind(kind)], int(st.eal[worst]), st.trials))
    return rows


def suite_reduction(engine: BatchEngine, st: BatchStats,
                    delta_floor: Optional[float] = None) -> list[StatRow]:
    """Reduction-rate flattening and, given a floor, per-edge mean net
    decrease."""
    trials, sampler = st.trials, engine.sp.sampler
    rows = []
    for e in range(engine.m):
        cl = engine.classes[e]
        rows.append(binomial_row("reduction", f"reduction-rate/{cl.kind}", sampler,
                                 f"edge:{e}", "two-sided", engine.coins[cl.coin_group].bound,
                                 int(st.reduced[e]), trials))
    if delta_floor is not None:
        for e in range(engine.m):
            mean_z, sigma = mean_and_sigma(st.z_sum[e], st.z_sumsq[e], trials, 1 / st.z_denom)
            rows.append(sampled_row("reduction", "net-decrease", sampler, f"edge:{e}",
                                    "lower", delta_floor, float(QUARTER) - mean_z,
                                    sigma, trials))
    return rows


def suite_cost(engine: BatchEngine, st: BatchStats) -> list[StatRow]:
    """Fractional and integral cost bounds plus join feasibility."""
    if not (st.verified and st.integral):
        raise ConfigError("the cost suite needs a run with verify and integral")
    trials, sampler = st.trials, engine.sp.sampler
    cx = float(engine.lp_cost)
    zc_mean, zc_sig = mean_and_sigma(
        st.zc_sum, st.zc_sumsq, trials, 1.0 / (st.z_denom * st.cost_denom)
    )
    tot_mean, tot_sig = mean_and_sigma(
        st.total_sum, st.total_sumsq, trials, 1.0 / st.cost_denom
    )
    tree_mean, tree_sig = mean_and_sigma(
        st.tree_sum, st.tree_sumsq, trials, 1.0 / st.cost_denom
    )
    failures = st.feasibility_failures
    return [
        sampled_row("cost", "fractional-join-cost", sampler, "mean", "upper",
                    (float(HALF) - EPSILON) * cx, zc_mean, zc_sig, trials),
        sampled_row("cost", "tree-plus-join-cost", sampler, "mean", "upper",
                    TOUR_RATIO_BOUND * cx, tot_mean, tot_sig, trials),
        StatRow("cost", "join-feasibility", sampler, f"failures:{failures}", "exact", 0.0,
                float(failures), 0.0, trials, failures == 0),
        sampled_row("cost", "tree-cost", sampler, "mean", "two-sided",
                    cx, tree_mean, tree_sig, trials),
    ]


def suite_symmetry(engine: BatchEngine, st: BatchStats) -> list[StatRow]:
    """Swap symmetry of half-marginal indicators for the run's edge pairs."""
    trials = st.trials
    rows = []
    for (a, b), c in st.sym_counts.items():
        n00, n01, n10, n11 = (int(x) for x in c)
        for name, x, y in (("p00-vs-p11", n00, n11), ("p01-vs-p10", n01, n10)):
            px, py = x / trials, y / trials
            # disjoint outcomes of one multinomial: the covariance term
            # enters the variance of the difference
            sd = math.sqrt(max(px + py - (px - py) ** 2, VARIANCE_FLOOR) / trials)
            rows.append(sampled_row("symmetry", name, engine.sp.sampler, f"pair:{a},{b}",
                                    "two-sided", 0.0, px - py, sd, trials))
    return rows


def oracle_check(inst: HalfIntegralInstance | CompiledInstance,
                 sampler_params: Optional[SamplerParams] = None,
                 reduction_params: Optional[ReductionParams] = None) -> StatReport:
    """Exact rows: marginals, even-at-last bounds, flattened reduction
    rates, and per-edge expected net decrease, all without sampling.  The
    members of a coin group share one even-at-last probability and one
    coin record (``join.coin_table``), so each record's values are read
    once.

    An already compiled instance (a ``BatchEngine`` is one) is read as it
    is, with its own sampler and reduction parameters, so it takes none."""
    if isinstance(inst, CompiledInstance):
        if sampler_params is not None or reduction_params is not None:
            raise ConfigError("a compiled instance carries its own sampler and "
                              "reduction parameters: give none")
        ci = inst
    else:
        ci = CompiledInstance(inst, sampler_params, reduction_params)
    sp, classes = ci.sp, ci.classes
    report = StatReport(meta={"suite": "oracle", "sampler": sp.sampler})
    rows, sampler = report.rows, sp.sampler
    half, lam = float(HALF), sp.effective_lambda
    exact = exact_marginals(ci.h, ci.samplers, classes)
    for e in range(ci.m):
        rows.append(
            StatRow("oracle", "marginal/rational", sampler, f"edge:{e}", "exact", half,
                    float(exact[e]), 0.0, 0, is_half(exact[e], lam))
        )
    # per coin record: its even-at-last probability against its coin
    # kind's even-at-last bound, and its flattened reduction rate against
    # its coin bound; the groups that share a record share its verdicts
    bounds = eal_bounds(sp.sampler, lam)
    verdicts: dict[int, tuple] = {}
    for cl in classes.values():
        coin = ci.coins[cl.coin_group]
        if id(coin) not in verdicts:
            bound, val = bounds[cl.coin_kind], coin.rate * coin.estimate
            verdicts[id(coin)] = ((float(bound), float(coin.estimate), coin.estimate >= bound),
                                  (float(coin.bound), float(val), val == coin.bound))
    per_edge = [verdicts[id(ci.coins[classes[e].coin_group])] for e in range(ci.m)]
    for e in range(ci.m):
        bound, est, ok = per_edge[e][0]
        rows.append(
            StatRow("oracle", f"even-at-last/{classes[e].kind}", sampler, f"edge:{e}",
                    "exact", bound, est, 0.0, 0, ok)
        )
    for e in range(ci.m):
        target, val, ok = per_edge[e][1]
        rows.append(
            StatRow("oracle", "reduction-rate-flattened", sampler,
                    f"edge:{e}", "exact", target, val, 0.0, 0, ok)
        )
    net = exact_expected_net_decrease(ci)
    for e in range(ci.m):
        rows.append(
            StatRow("oracle", "expected-net-decrease", sampler, f"edge:{e}",
                    "exact", 0.0, float(net[e]), 0.0, 0, net[e] > 0)
        )
    return report


# ---------------------------------------------------------------------------
# experiment configuration and dispatch
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """One experiment: an instance source, a sampler, and a suite."""

    instance: Optional[str] = None  # instance file path
    family: Optional[str] = None  # or a generator family name
    # a family's settings: unset ones take the defaults of
    # ``generators.generate``, and the generator's seed is then 1
    k: Optional[int] = None
    n: Optional[int] = None
    depth: Optional[int] = None
    unit_costs: bool = False
    gen_seed: Optional[int] = None
    piece: Optional[str] = None  # named piece for the correlation suite
    sampler: str = "mix"
    mix_lambda: float = float(DEFAULT_MIX_LAMBDA)
    trials: int = 100_000
    seed: int = 0
    suite: str = "all"
    delta_floor: Optional[float] = None

    def sampler_params(self) -> SamplerParams:
        return SamplerParams.from_float(self.sampler, self.mix_lambda)


def load_instance(cfg: ExperimentConfig) -> HalfIntegralInstance:
    if cfg.instance:
        with open(cfg.instance, "r", encoding="utf-8") as fh:
            return parse_instance(fh.read())
    if cfg.family:
        check_seed(gen_seed=cfg.gen_seed)
        reads = generators.size_setting(cfg.family)
        given = {name: getattr(cfg, name) for name in ("k", "n", "depth")
                 if getattr(cfg, name) is not None}
        stray = [name for name in given if name != reads]
        if stray:
            raise ConfigError(f"family {cfg.family!r} reads {reads or 'no size setting'}, "
                              f"not {', '.join(stray)}")
        rng = np.random.default_rng(1 if cfg.gen_seed is None else cfg.gen_seed)
        return generators.generate(cfg.family, rng, unit_costs=cfg.unit_costs, **given)
    raise ConfigError("config needs an instance path or a generator family")


#: the instance-level suites in report order, each with the engine flags it
#: needs from the shared run
SUITES = {
    "marginals": ((), suite_marginals),
    "eal": (("join",), suite_eal),
    "reduction": (("join",), suite_reduction),
    "cost": (("join", "verify", "integral"), suite_cost),
    "symmetry": ((), suite_symmetry),
}


def run_suite(cfg: ExperimentConfig) -> StatReport:
    """Run the configured statistic suite and return its report.

    The instance-level suites read one engine run, made with the union of
    the flags they need: every chunk draws its trees first from the RNG of
    (seed, chunk index), and verification and integral joins draw nothing,
    so each suite sees the counts a run of its own would give.
    """
    if cfg.suite not in ("all", "correlations", *SUITES):
        raise ConfigError(f"unknown suite {cfg.suite!r}")
    check_positive(trials=cfg.trials)
    check_seed(seed=cfg.seed)
    if cfg.piece and cfg.suite != "correlations":
        raise ConfigError(f"piece {cfg.piece!r} runs only the correlations suite, "
                          f"not {cfg.suite!r}")
    if cfg.delta_floor is not None and not math.isfinite(cfg.delta_floor):
        raise ConfigError(f"delta floor {cfg.delta_floor} is not a finite number")
    if cfg.delta_floor is not None and cfg.suite not in ("reduction", "all"):
        raise ConfigError(f"delta floor {cfg.delta_floor} is read only by the reduction "
                          f"suite, not {cfg.suite!r}")
    sources = [name for name in ("instance", "family", "piece") if getattr(cfg, name)]
    if len(sources) > 1:
        raise ConfigError(f"config names more than one source ({', '.join(sources)}): "
                          "give one")
    stray = [name for name in ("k", "n", "depth", "gen_seed") if getattr(cfg, name) is not None]
    stray += ["unit_costs"] * cfg.unit_costs
    if stray and sources and sources[0] != "family":
        raise ConfigError(f"generator settings ({', '.join(stray)}) need a family source, "
                          f"not {sources[0]} {getattr(cfg, sources[0])!r}")
    sp = cfg.sampler_params()
    report = StatReport(meta={
        "suite": cfg.suite, "sampler": cfg.sampler, "trials": cfg.trials,
        "seed": cfg.seed,
    })
    if cfg.suite == "correlations":
        if cfg.piece:
            pieces = [(generators.standalone_piece(cfg.piece), cfg.piece)]
        else:
            # each piece runs on its own: the suite reads no cost
            pieces = [(nd.piece, f"node{nd.node_id}")
                      for nd in build_hierarchy(load_instance(cfg)).non_leaves()
                      if nd.kind != "cycle" and nd.piece.graph.n > 5]
        routes = ("mi", "maxent") if cfg.sampler == "mix" else (cfg.sampler,)
        for piece, label in pieces:
            for route in routes:
                report.rows += suite_correlations(piece, route, cfg.trials, cfg.seed,
                                                  piece_label=label)
        return report

    engine = BatchEngine(load_instance(cfg), sp)
    names = tuple(SUITES) if cfg.suite == "all" else (cfg.suite,)
    flags = {f for name in names for f in SUITES[name][0]}
    pairs = symmetry_pairs(engine.m) if "symmetry" in names else ()
    st = engine.run(cfg.trials, cfg.seed, join="join" in flags,
                    verify="verify" in flags, integral="integral" in flags,
                    symmetry_pairs=pairs)
    for name in names:
        suite = SUITES[name][1]
        report.rows += (suite(engine, st, cfg.delta_floor) if name == "reduction"
                        else suite(engine, st))
    return report
