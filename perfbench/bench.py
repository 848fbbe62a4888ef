"""Workloads, operations and the correctness gate of the htsp benchmark.

A run makes its instances from the workload seed and times what a user of
htsp waits for: set-up (instance text to a ready ``BatchEngine``), the
Monte Carlo run, the statistic suite, the exact oracle and the parameter
LP.  The benchmark is a closed loop with one caller: each call waits for
the one before.  Every operation runs under a time budget and through the
correctness gate; a failure is recorded and the run goes on.

Everything here reaches htsp through its public functions, looked up on
their modules at call time, so that the traced run's wrappers see them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import re
import resource
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import htsp
import htsp.errors
import htsp.generators
import htsp.stats

from spans import Tracer, layer_metrics

#: longest one operation may run before it counts as failed
OP_BUDGET_S = 60.0
#: no operation starts this long after the run began, so a run ends in time
RUN_DEADLINE_S = 150.0
#: statistical suite rows fail the gate beyond this many standard errors
GATE_SIGMAS = 6.0
#: the optimized parameters of the paper, with the acceptance tolerances
PAPER_PARAMS = {
    "lambda": (0.4715, 1e-4),
    "tau": (0.0355, 1e-4),
    "gamma": (0.0401, 1e-4),
    "beta": (1 / 12, 1e-4),
    "delta": (0.0008475, 1e-4),
    "epsilon": (0.001695, 2e-4),
}
SAMPLER = "mix"

END_TO_END_UNITS = {
    "setup_s": "s",
    "trials_per_s": "trials/s",
    "suite_s": "s",
    "oracle_s": "s",
    "params_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

#: per-layer metric -> unit
LAYER_UNITS = {
    "graph.parse_s": "s",
    "hierarchy.build_s": "s",
    "hierarchy.enum_calls": "count",
    "hierarchy.enum_s": "s",
    "hierarchy.min_cuts": "count",
    "matching.decompose_calls": "count",
    "matching.decompose_s": "s",
    "decomp.calls": "count",
    "decomp.s": "s",
    "trees.constrained_calls": "count",
    "trees.constrained_s": "s",
    "trees.spanning_enum_s": "s",
    "trees.maxent_fit_calls": "count",
    "trees.maxent_fit_s": "s",
    "trees.maxent_fit_error": "prob",
    "pipeline.samplers_s": "s",
    "pipeline.pieces_degree": "count",
    "pipeline.pieces_cycle": "count",
    "pipeline.max_piece_n": "vertices",
    "pipeline.support_trees": "count",
    "join.classify_s": "s",
    "join.eal_exact_s": "s",
    "join.dp_calls": "count",
    "join.dp_s": "s",
    "stats.draw_s": "s",
    "stats.join_s": "s",
    "stats.verify_s": "s",
    "stats.integral_s": "s",
    "stats.join_cache_hit_ratio": "ratio",
    "stats.integral_lookups": "count",
    "stats.engine_runs_per_suite": "count",
    "oracle.samplers_s": "s",
    "oracle.marginals_s": "s",
    "oracle.net_decrease_s": "s",
    "params.solve_calls": "count",
    "params.solve_s": "s",
    "trace.round_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass(frozen=True)
class Workload:
    """One set of inputs and how much of each operation a run does.

    A run makes ``rounds`` rounds.  Each sets up every instance, runs the
    suite and the oracle once per instance, and puts a third of its share
    of the Monte Carlo window and one ``optimize()`` call before each of
    those; the last third of the window ends the round.  So the samples of
    every metric spread over the whole run, and a slow spell of the host
    moves every metric a little rather than one metric a lot.
    """

    name: str
    family: str
    size: dict
    #: fixed graph structures, each costed from the workload seed; empty
    #: means the generator draws the one instance from the seed
    structure_seeds: tuple[int, ...]
    mc_trials: int
    suite_trials: int
    rounds: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc-zoo", "zoo", {}, (), 100_000, 100_000, 3),
        Workload("compile-4reg", "random-4reg", {"n": 12}, tuple(range(4)),
                 20_000, 20_000, 2),
        Workload("cuts-dcycle", "double-cycle", {"k": 24}, (), 20_000, 20_000, 2),
    )
}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def recost(text: str, rng: np.random.Generator) -> str:
    """Redraw the costs of an instance text with the generators' cost law:
    L1 distances between distinct random integer points of a 200 x 200 grid."""
    head, *rows = text.splitlines()
    n = int(head.split()[1])
    points: list[tuple[int, int]] = []
    while len(points) < n:
        p = (int(rng.integers(0, 200)), int(rng.integers(0, 200)))
        if p not in points:
            points.append(p)
    out = [head]
    for row in rows:
        u, v, _ = row.split()
        (ax, ay), (bx, by) = points[int(u)], points[int(v)]
        out.append(f"{u} {v} {abs(ax - bx) + abs(ay - by)}")
    return "\n".join(out) + "\n"


def instance_texts(wl: Workload, seed: int) -> list[str]:
    """The workload's instances, in the text form ``htsp`` reads."""
    def draw(gen_seed) -> str:
        inst = htsp.generators.generate(
            wl.family, np.random.default_rng(gen_seed), **wl.size)
        return htsp.serialize_instance(inst)

    if not wl.structure_seeds:
        return [draw(seed)]
    return [recost(draw(s), np.random.default_rng([seed, s]))
            for s in wl.structure_seeds]


def trial_seed(seed: int, j: int) -> int:
    return seed * 1_000_003 + j


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# correctness gate: each check returns (problems, digest)
# ---------------------------------------------------------------------------

def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return sorted((str(k), _plain(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def check_batch(st, trials: int) -> tuple[list[str], str]:
    """A Monte Carlo run: every trial feasible, and as many as requested."""
    problems = []
    if st.feasibility_failures > 0:
        problems.append(f"{st.feasibility_failures} infeasible trials")
    if st.trials != trials:
        problems.append(f"ran {st.trials} trials, {trials} requested")
    counters = json.dumps(_plain(vars(st)), sort_keys=True, default=str)
    return problems, sha256(counters)


def check_report(report, trials: Optional[int]) -> tuple[list[str], str]:
    """A suite or oracle report.

    Exact rows (no standard error) must pass.  A statistical row fails the
    gate beyond ``GATE_SIGMAS`` standard errors: its own 3-sigma verdict
    fails about one row in 370 on correct code, which is one suite run in
    three at these row counts.  Rows that sampled must have sampled the
    requested number of trials.
    """
    problems = []
    if not report.rows:
        problems.append("empty report")
    for r in report.rows:
        where = f"{r.suite}/{r.name}/{r.context}"
        if r.stderr > 0 and r.kind in ("lower", "upper", "two-sided"):
            gap = {"lower": r.bound - r.estimate,
                   "upper": r.estimate - r.bound,
                   "two-sided": abs(r.estimate - r.bound)}[r.kind]
            if gap > GATE_SIGMAS * r.stderr:
                problems.append(f"{where}: {gap / r.stderr:.1f} sigma off")
        elif not r.passed:
            problems.append(f"{where}: exact row failed")
        if r.trials and r.trials != trials:
            problems.append(f"{where}: {r.trials} trials, {trials} requested")
    return problems, sha256(report.to_csv())


def check_params(res) -> tuple[list[str], str]:
    """``optimize()`` reproduces the paper's parameters."""
    got = res.as_floats()
    problems = [
        f"{k} = {got[k]:.6g}, expected {want:.6g}"
        for k, (want, tol) in PAPER_PARAMS.items()
        if abs(got[k] - want) > tol
    ]
    return problems, sha256(json.dumps(got, sort_keys=True))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

class BudgetExceeded(Exception):
    """An operation ran past its time budget."""


def _on_alarm(signum, frame):
    raise BudgetExceeded()


@contextmanager
def budget(seconds: float):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Run:
    """Runs operations under budget and gate, and keeps their records."""

    def __init__(self, started: float, tracer: Optional[Tracer] = None):
        self.deadline = started + RUN_DEADLINE_S
        self.tracer = tracer
        self.records: list[dict] = []
        self.correct = True

    def attempt(self, op: str, index: int, fn: Callable,
                check: Optional[Callable] = None):
        """Run one operation; return its value (None if it failed) and record."""
        rec = {"op": op, "instance": index, "ok": False}
        self.records.append(rec)
        left = self.deadline - time.perf_counter()
        if left <= 0:
            rec.update(error="RunDeadline", seconds=None)
            return None, rec
        gc.collect()
        t0 = time.perf_counter()
        try:
            with budget(min(OP_BUDGET_S, left)):
                if self.tracer is None:
                    value = fn()
                else:
                    with self.tracer.span("op." + op, instance=index):
                        value = fn()
        except (htsp.errors.HtspError, BudgetExceeded) as exc:
            rec.update(error=type(exc).__name__, seconds=time.perf_counter() - t0)
            return None, rec
        rec["seconds"] = time.perf_counter() - t0
        problems, digest = check(value) if check else ([], None)
        rec.update(ok=not problems, problems=problems, digest=digest)
        if problems:
            self.correct = False
            return None, rec
        return value, rec

    def same_digest(self, what: str, recs: list[dict]) -> None:
        """Outputs of one operation on one seed must be byte-identical."""
        digests = {r["digest"] for r in recs if r["ok"]}
        if len(digests) > 1:
            self.correct = False
            self.records.append({"op": what, "ok": False,
                                 "problems": ["digests differ on one seed"]})

    @property
    def attempted(self) -> int:
        return sum(1 for r in self.records if "instance" in r)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if "instance" in r and not r["ok"])


def op_seconds(rec: dict) -> float:
    """Time of one operation; a skipped attempt counts as the whole budget."""
    return OP_BUDGET_S if rec["seconds"] is None else rec["seconds"]


class Harness:
    """The operations of one workload on one seed."""

    def __init__(self, wl: Workload, seed: int, out_dir: Path):
        self.wl = wl
        self.seed = seed
        self.texts = instance_texts(wl, seed)
        inst_dir = out_dir / "instances"
        inst_dir.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for i, text in enumerate(self.texts):
            path = inst_dir / f"{wl.name}-{seed}-{i}.txt"
            path.write_text(text, encoding="utf-8")
            self.paths.append(str(path))
        self.sampler = htsp.SamplerParams(sampler=SAMPLER)

    def setup(self, run: Run, i: int):
        """Instance text to a ready engine."""
        return run.attempt(
            "setup", i,
            lambda: htsp.BatchEngine(htsp.parse_instance(self.texts[i]),
                                     self.sampler))

    def mc(self, run: Run, i: int, engine, j: int):
        trials = self.wl.mc_trials
        return run.attempt(
            "mc", i,
            lambda: engine.run(trials, trial_seed(self.seed, j), join=True,
                               verify=True, integral=True),
            lambda st: check_batch(st, trials))

    def suite(self, run: Run, i: int):
        cfg = htsp.ExperimentConfig(
            instance=self.paths[i], sampler=SAMPLER, trials=self.wl.suite_trials,
            seed=trial_seed(self.seed, 0), suite="all")
        return run.attempt("suite", i, lambda: htsp.run_suite(cfg),
                           lambda rep: check_report(rep, cfg.trials))

    def oracle(self, run: Run, i: int):
        return run.attempt(
            "oracle", i,
            lambda: htsp.stats.oracle_check(htsp.parse_instance(self.texts[i]),
                                            self.sampler),
            lambda rep: check_report(rep, None))

    def params(self, run: Run):
        return run.attempt("params", -1, htsp.optimize, check_params)

    def provenance(self) -> dict:
        return {
            "workload": self.wl.name,
            "seed": self.seed,
            "instances": [
                {"sha256": sha256(t), "path": os.path.basename(p)}
                for t, p in zip(self.texts, self.paths)
            ],
            "family": self.wl.family,
            "size": self.wl.size,
            "structure_seeds": list(self.wl.structure_seeds),
            "mc_trials": self.wl.mc_trials,
            "suite_trials": self.wl.suite_trials,
            "sampler_params": repr(self.sampler),
        }


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def measure(harness: Harness, run: Run, seconds: float) -> dict:
    """The end-to-end metrics, with tracing off."""
    wl = harness.wl
    n = len(harness.texts)
    sums = {"setup_s": [], "suite_s": [], "oracle_s": []}
    params = []
    trials, spent = 0, 0.0
    same_seed = {op: [[] for _ in range(n)] for op in ("mc", "suite", "oracle")}
    for _ in range(wl.rounds):
        engines, recs = zip(*(harness.setup(run, i) for i in range(n)))
        sums["setup_s"].append(sum(map(op_seconds, recs)))
        live = [(i, e) for i, e in enumerate(engines) if e is not None]
        # the first run fills the integral-join cache and is not timed
        for i, engine in live:
            harness.mc(run, i, engine, 0)
        j = 1
        # short operations go between the long ones, so that their samples
        # spread over the run like those of the long ones
        for op, fn in (("suite", harness.suite), ("oracle", harness.oracle), (None, None)):
            t_end = time.perf_counter() + seconds / wl.rounds / 3
            while j == 1 or time.perf_counter() < min(t_end, run.deadline):
                for i, engine in live:
                    st, rec = harness.mc(run, i, engine, j)
                    spent += op_seconds(rec)
                    trials += wl.mc_trials if st is not None else 0
                    if j == 1:
                        same_seed["mc"][i].append(rec)
                j += 1
            if op is not None:
                params.append(harness.params(run)[1])
                recs = [fn(run, i)[1] for i in range(n)]
                for i, rec in enumerate(recs):
                    same_seed[op][i].append(rec)
                sums[f"{op}_s"].append(sum(map(op_seconds, recs)))
    for op, per_instance in same_seed.items():
        for recs in per_instance:
            run.same_digest(f"{op}-repeat", recs)
    run.same_digest("params-repeat", params)

    values = {k: statistics.median(v) for k, v in sums.items()}
    values.update({
        "trials_per_s": trials / spent if spent else 0.0,
        "params_s": statistics.median(map(op_seconds, params)),
        "peak_rss_mb": peak_rss_mb(),
        "ok_ratio": 1.0 - run.failed / max(run.attempted, 1),
    })
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}


def one_round(harness: Harness, run: Run) -> list:
    """Each operation once per instance; returns the engines."""
    engines = []
    for i in range(len(harness.texts)):
        engine, _ = harness.setup(run, i)
        engines.append(engine)
        if engine is not None:
            harness.mc(run, i, engine, 0)
            harness.mc(run, i, engine, 1)
    for i in range(len(harness.texts)):
        harness.suite(run, i)
        harness.oracle(run, i)
    harness.params(run)
    return engines


STAGE_FLAGS = (
    ("draw", {"join": False}),
    ("join", {"join": True}),
    ("verify", {"join": True, "verify": True}),
    ("integral", {"join": True, "verify": True, "integral": True}),
)


def stage_seconds(engines: list, trials: int, seed: int) -> dict:
    """Chunk-stage costs as increments between runs on one seed with the
    flags added one at a time (median of three), summed over engines."""
    out = {name: 0.0 for name, _ in STAGE_FLAGS}
    for engine in engines:
        if engine is None:
            continue
        before = 0.0
        for name, flags in STAGE_FLAGS:
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                engine.run(trials, seed, **flags)
                times.append(time.perf_counter() - t0)
            now = statistics.median(times)
            out[name] += now - before
            before = now
    return out


def structure_metrics(engines: list) -> dict:
    """What set-up built: pieces by kind and size, support trees, min-cuts."""
    degree = cycle = max_n = trees = cuts = 0
    for engine in engines:
        if engine is None:
            continue
        # an engine without these attributes leaves its counts at 0
        nodes = engine.h.non_leaves() if hasattr(engine, "h") else []
        for nd in nodes:
            if nd.kind == "cycle":
                cycle += 1
            else:
                degree += 1
                max_n = max(max_n, nd.piece.graph.n)
        samplers = getattr(engine, "samplers", {})
        trees += sum(len(getattr(s, "trees", ())) for s in samplers.values())
        if nodes:
            cuts += len(htsp.min_cuts_via_hierarchy(engine.h))
    return {
        "pipeline.pieces_degree": degree,
        "pipeline.pieces_cycle": cycle,
        "pipeline.max_piece_n": max_n,
        "pipeline.support_trees": trees,
        "hierarchy.min_cuts": cuts,
    }


def trace_run(harness: Harness, run: Run, started: float) -> tuple[dict, Tracer]:
    """The per-layer metrics: one untraced round, then the same round traced.

    Both rounds must give identical outputs; the gap in their wall time is
    the tracing overhead."""
    plain = Run(started)
    t0 = time.perf_counter()
    one_round(harness, plain)
    plain_s = time.perf_counter() - t0

    tracer = Tracer()
    run.tracer = tracer
    tracer.install()
    try:
        t0 = time.perf_counter()
        engines = one_round(harness, run)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
        run.tracer = None
    for a, b in list(zip(plain.records, run.records)):
        run.same_digest(f"{a['op']}-traced", [a, b])
    run.records.extend(plain.records)
    run.correct = run.correct and plain.correct

    values = layer_metrics(tracer.spans)
    values.update(structure_metrics(engines))
    stages = stage_seconds(engines, harness.wl.mc_trials,
                           trial_seed(harness.seed, 1))
    values.update({f"stats.{k}_s": v for k, v in stages.items()})
    values["trace.round_s"] = plain_s
    values["trace.overhead_ratio"] = traced_s / plain_s - 1.0
    return values, tracer


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(root: Path) -> dict:
    """Versions and thread settings the numbers were measured with."""
    try:
        pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    except OSError:
        pyproject = ""
    version = re.search(r'^version\s*=\s*"([^"]+)"', pyproject, re.M)
    return {
        "htsp_version": version.group(1) if version else "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 out_dir: Path, root: Path) -> dict:
    """One benchmark run; writes its record to ``out_dir`` and returns the
    result object."""
    started = time.perf_counter()
    out_dir.mkdir(parents=True, exist_ok=True)
    harness = Harness(wl, seed, out_dir)
    run = Run(started)
    tracer = None
    if trace:
        values, tracer = trace_run(harness, run, started)
        metrics = {k: {"value": values.get(k, 0.0), "unit": unit}
                   for k, unit in LAYER_UNITS.items()}
    else:
        metrics = measure(harness, run, seconds)
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    stem = f"{wl.name}-seed{seed}-trace{int(trace)}"
    record = {
        "result": result,
        "provenance": harness.provenance(),
        "environment": environment(root),
        "seconds": seconds,
        "operations": run.records,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(out_dir / f"{stem}-spans.json")
    return result
