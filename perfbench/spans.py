"""Span tracing for the benchmark's traced run.

Each wrapper replaces a function under every name by which htsp code looks
it up (a function imported with ``from .decomp import ...`` is bound in
several modules), records a span around the call, and is removed again
when the traced round ends.  Spans stay in memory until the run writes
them out.  A target that a later version of htsp no longer has is skipped
and listed in ``Tracer.missing``; its metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional


# notes read their values defensively: a traced round must not fail where
# the untraced one would not


def _engine_run_note(args, kwargs, result) -> dict:
    trials = args[1] if len(args) > 1 else kwargs.get("trials", 0)
    return {"trials": trials, "integral": bool(kwargs.get("integral", False))}


def _fit_note(args, kwargs, result) -> dict:
    return {"fit_error": float(getattr(result, "fit_error", 0.0))}


#: (where the function lives, span name, note on its result)
TARGETS: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("htsp.graph.parse_instance", "graph.parse", None),
    ("htsp.hierarchy.build_hierarchy", "hierarchy.build", None),
    ("htsp.hierarchy.enumerate_min_cuts", "hierarchy.enum", None),
    ("htsp.matching.decompose_matchings", "matching.decompose", None),
    ("htsp.decomp.exact_convex_decomposition", "decomp", None),
    ("htsp.trees.constrained_tree_distribution", "trees.constrained", None),
    ("htsp.trees.enumerate_spanning_trees", "trees.spanning_enum", None),
    ("htsp.trees.maxent_fit", "trees.maxent_fit", _fit_note),
    ("htsp.pipeline.build_piece_samplers", "pipeline.samplers", None),
    ("htsp.join.classify", "join.classify", None),
    ("htsp.join.exact_eal_probabilities", "join.eal_exact", None),
    ("htsp.join.min_cost_perfect_matching", "join.dp", None),
    ("htsp.stats.BatchEngine.run", "stats.engine_run", _engine_run_note),
    ("htsp.oracle.exact_marginals", "oracle.marginals", None),
    ("htsp.oracle.exact_expected_net_decrease", "oracle.net_decrease", None),
    ("htsp.params.solve_amounts", "params.solve", None),
)


def _resolve(path: str):
    """(owner, attribute, value) for a dotted path, or None if it is gone."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
        value = getattr(owner, parts[-1], None)
        return None if value is None else (owner, parts[-1], value)
    return None


class Tracer:
    """Spans in memory: name, start, end, parent index and notes."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **notes):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else -1, **notes}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn: Callable, name: str, note: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if note is not None:
                    rec.update(note(args, kwargs, result))
                return result
        return traced

    def install(self) -> None:
        for path, name, note in TARGETS:
            found = _resolve(path)
            if found is None:
                self.missing.append(path)
                continue
            owner, attr, fn = found
            wrapper = self._wrap(fn, name, note)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "htsp" or mod_name.startswith("htsp."):
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"missing": self.missing, "spans": self.spans}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

class _SpanIndex:
    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        # parents come before their children, so one pass finds each op
        self.op: list[Optional[str]] = []
        for s in spans:
            p = s["parent"]
            if p >= 0:
                self.child_time[p] += s["end"] - s["start"]
            if s["name"].startswith("op."):
                self.op.append(s["name"][3:])
            else:
                self.op.append(self.op[p] if p >= 0 else None)

    def _nested_in_same(self, i: int) -> bool:
        name, p = self.spans[i]["name"], self.spans[i]["parent"]
        while p >= 0:
            if self.spans[p]["name"] == name:
                return True
            p = self.spans[p]["parent"]
        return False

    def select(self, name: str, op: str) -> list[int]:
        return [i for i, s in enumerate(self.spans)
                if s["name"] == name and self.op[i] == op]

    def calls(self, name: str, op: str) -> int:
        return len(self.select(name, op))

    def seconds(self, name: str, op: str) -> float:
        """Inclusive time, counting a recursive call once."""
        return sum(self.spans[i]["end"] - self.spans[i]["start"]
                   for i in self.select(name, op) if not self._nested_in_same(i))

    def self_seconds(self, name: str, op: str) -> float:
        """Span time minus the time its child spans cover."""
        return sum(self.spans[i]["end"] - self.spans[i]["start"] - self.child_time[i]
                   for i in self.select(name, op))


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer values of one traced round.

    Build layers are taken inside set-up, so they compare with ``setup_s``;
    the integral join inside the Monte Carlo runs; ``oracle.*`` inside the
    oracle and ``params.*`` inside ``optimize()``.
    """
    ix = _SpanIndex(spans)
    out = {
        "graph.parse_s": ix.seconds("graph.parse", "setup"),
        "hierarchy.build_s": ix.seconds("hierarchy.build", "setup"),
        "hierarchy.enum_calls": ix.calls("hierarchy.enum", "setup"),
        "hierarchy.enum_s": ix.seconds("hierarchy.enum", "setup"),
        "matching.decompose_calls": ix.calls("matching.decompose", "setup"),
        "matching.decompose_s": ix.seconds("matching.decompose", "setup"),
        "decomp.calls": ix.calls("decomp", "setup"),
        "decomp.s": ix.seconds("decomp", "setup"),
        "trees.constrained_calls": ix.calls("trees.constrained", "setup"),
        "trees.constrained_s": ix.seconds("trees.constrained", "setup"),
        "trees.spanning_enum_s": ix.seconds("trees.spanning_enum", "setup"),
        "trees.maxent_fit_calls": ix.calls("trees.maxent_fit", "setup"),
        "trees.maxent_fit_s": ix.seconds("trees.maxent_fit", "setup"),
        "trees.maxent_fit_error": max(
            (spans[i].get("fit_error", 0.0) for i in ix.select("trees.maxent_fit", "setup")),
            default=0.0),
        "pipeline.samplers_s": ix.self_seconds("pipeline.samplers", "setup"),
        "join.classify_s": ix.seconds("join.classify", "setup"),
        "join.eal_exact_s": ix.seconds("join.eal_exact", "setup"),
        "join.dp_calls": ix.calls("join.dp", "mc"),
        "join.dp_s": ix.seconds("join.dp", "mc"),
        "oracle.samplers_s": ix.seconds("pipeline.samplers", "oracle"),
        "oracle.marginals_s": ix.seconds("oracle.marginals", "oracle"),
        "oracle.net_decrease_s": ix.seconds("oracle.net_decrease", "oracle"),
        "params.solve_calls": ix.calls("params.solve", "params"),
        "params.solve_s": ix.seconds("params.solve", "params"),
    }
    lookups = sum(spans[i].get("trials", 0) for i in ix.select("stats.engine_run", "mc")
                  if spans[i].get("integral"))
    out["stats.integral_lookups"] = lookups
    out["stats.join_cache_hit_ratio"] = 1.0 - out["join.dp_calls"] / lookups if lookups else 0.0
    suites = sum(1 for s in spans if s["name"] == "op.suite")
    out["stats.engine_runs_per_suite"] = (
        ix.calls("stats.engine_run", "suite") / suites if suites else 0.0)
    return out
