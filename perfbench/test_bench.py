"""Smoke test of the benchmark: every workload yields every metric with its
unit, and the correctness gate trips on corrupted results.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_bench.py -q
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import htsp  # noqa: E402
import htsp.errors  # noqa: E402
import htsp.stats  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(wl):
    return dataclasses.replace(
        wl, structure_seeds=wl.structure_seeds[:2], mc_trials=2_000,
        suite_trials=2_000, rounds=2)


def run_tiny(name, tmp_path, trace=False):
    return bench.run_workload(tiny(bench.WORKLOADS[name]), 7, 0.2, trace,
                              tmp_path, ROOT)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_with_its_unit(name, trace, tmp_path):
    res = run_tiny(name, tmp_path, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())
    record = json.loads((tmp_path / f"{name}-seed7-trace{int(trace)}.json").read_text())
    assert record["provenance"]["instances"][0]["sha256"]
    assert record["environment"]["nproc"] >= 1


@pytest.fixture(scope="module")
def zoo():
    inst = htsp.generators.generate("zoo", np.random.default_rng(3))
    return inst, htsp.BatchEngine(inst)


def test_gate_trips_on_infeasible_trial_or_short_run(zoo):
    _, engine = zoo
    st = engine.run(1_000, 1, join=True, verify=True, integral=True)
    assert bench.check_batch(st, 1_000)[0] == []
    bad = copy.copy(st)
    bad.feasibility_failures = 1
    assert bench.check_batch(bad, 1_000)[0]
    assert bench.check_batch(st, 2_000)[0]


def test_gate_trips_on_failed_report_row(zoo, tmp_path):
    inst, _ = zoo
    report = htsp.stats.oracle_check(inst)
    assert bench.check_report(report, None)[0] == []
    report.rows[0] = dataclasses.replace(report.rows[0], passed=False)
    assert bench.check_report(report, None)[0]

    path = tmp_path / "zoo.txt"
    path.write_text(htsp.serialize_instance(inst))
    suite = htsp.run_suite(htsp.ExperimentConfig(instance=str(path), trials=2_000))
    assert bench.check_report(suite, 2_000)[0] == []
    assert bench.check_report(suite, 3_000)[0]
    i = next(k for k, r in enumerate(suite.rows) if r.kind == "two-sided" and r.stderr > 0)
    row = suite.rows[i]
    suite.rows[i] = dataclasses.replace(row, estimate=row.bound + 10 * row.stderr)
    assert bench.check_report(suite, 2_000)[0]


def test_gate_trips_on_wrong_parameters():
    res = htsp.optimize()
    assert bench.check_params(res)[0] == []
    assert bench.check_params(dataclasses.replace(res, lam=res.lam + 1))[0]


def test_corrupted_run_is_reported_incorrect(tmp_path, monkeypatch):
    real_run = htsp.stats.BatchEngine.run

    def infeasible(self, *args, **kwargs):
        st = real_run(self, *args, **kwargs)
        st.feasibility_failures += 1
        return st

    monkeypatch.setattr(htsp.stats.BatchEngine, "run", infeasible)
    res = run_tiny("mc-zoo", tmp_path)
    assert not res["correct"] and res["failed"] > 0


def test_nondeterministic_output_is_reported_incorrect(tmp_path, monkeypatch):
    real_run = htsp.stats.BatchEngine.run
    calls = iter(range(10 ** 6))

    def drifting(self, *args, **kwargs):
        st = real_run(self, *args, **kwargs)
        st.tree_sum += next(calls)
        return st

    monkeypatch.setattr(htsp.stats.BatchEngine, "run", drifting)
    res = run_tiny("mc-zoo", tmp_path)
    assert not res["correct"]


def test_errors_and_overruns_are_failures_not_crashes(tmp_path, monkeypatch):
    def too_big(*args, **kwargs):
        raise htsp.errors.SizeLimitExceeded("injected")

    def slow():
        time.sleep(30)

    monkeypatch.setattr(htsp.stats, "oracle_check", too_big)
    monkeypatch.setattr(htsp, "optimize", slow)
    monkeypatch.setattr(bench, "OP_BUDGET_S", 5.0)
    res = run_tiny("mc-zoo", tmp_path)
    assert res["correct"]
    # per round: the oracle once and optimize() twice
    assert res["failed"] == 6
    assert res["metrics"]["ok_ratio"]["value"] == 1 - 6 / res["attempted"]
    ops = json.loads((tmp_path / "mc-zoo-seed7-trace0.json").read_text())["operations"]
    errors = {r["op"]: r.get("error") for r in ops if not r["ok"]}
    assert errors == {"oracle": "SizeLimitExceeded", "params": "BudgetExceeded"}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-zoo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
