"""Checks over the package's own source."""

import ast
from pathlib import Path

import htsp

SRC = Path(htsp.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


def test_no_bare_assert_in_the_package():
    """Every check that certifies exactness raises an ``HtspError``: an
    ``assert`` statement would vanish under ``python -O``."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_guide_table_is_the_only_cdf_search():
    """Every draw from a cumulative distribution goes through
    ``pipeline.GuideTable``: no other code of the package searches a cdf."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        inside = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "GuideTable"
            for node in ast.walk(cls)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "searchsorted"
                or isinstance(node, ast.Name) and node.id == "searchsorted")
            and id(node) not in inside
        ]
    assert found == []


def test_one_matrix_inverse_site():
    """The max-entropy fit inverts every round's Laplacian minors in one
    stacked call: ``np.linalg.inv`` is written at exactly one place in the
    package."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "inv"
        and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
    ]
    assert len(found) == 1, found


def _defined(names: set[str]) -> list[str]:
    """Where the package defines a function or class of one of ``names``."""
    return [
        f"{path.name}:{node.lineno}:{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names
    ]


def test_one_join_construction():
    """The chunk kernels of ``engine.BatchEngine`` are the package's one join
    construction and check: the per-trial ``Fraction`` join lives only in
    ``tests/reference.py``, as the oracle the tests hold the engine to."""
    assert _defined({"build_join", "JoinSolution", "detect_eal", "verify_join",
                     "JoinReport", "verify_trial"}) == []


def test_test_only_helpers_live_in_tests():
    """The one-shot forms that only the tests call (the sorted min-cut list,
    every spanning tree of a graph, a single max-entropy fit) live in
    ``tests/reference.py``."""
    assert _defined({"enumerate_min_cuts", "enumerate_spanning_trees", "maxent_fit"}) == []


def test_one_verdict_rule():
    """Every sampled report row passes or fails by one rule: only
    ``stats.sampled_row`` reads ``SIGMAS``, and every other ``StatRow`` the
    package makes is an exact row, whose kind is the literal ``"exact"`` and
    whose standard error is the literal ``0.0``."""
    readers, sampled = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        inside = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "sampled_row"
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if id(node) in inside:
                continue
            if (isinstance(node, ast.Name) and node.id == "SIGMAS"
                    and isinstance(node.ctx, ast.Load)
                    or isinstance(node, ast.Attribute) and node.attr == "SIGMAS"):
                readers.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "StatRow":
                kind, stderr = (node.args[i] if len(node.args) > i else next(
                    (kw.value for kw in node.keywords if kw.arg == name), None)
                    for i, name in ((4, "kind"), (7, "stderr")))
                if not (isinstance(kind, ast.Constant) and kind.value == "exact"
                        and isinstance(stderr, ast.Constant) and stderr.value == 0.0
                        and isinstance(stderr.value, float)):
                    sampled.append(f"{path.name}:{node.lineno}")
    assert readers == [] and sampled == []


def test_one_charge_lane():
    """The chunk's trial-wide integer rows take their type from the join
    plan (``BatchEngine.lane`` and ``sum_lane``): ``_charges``,
    ``_infeasible`` and ``_run_chunk`` make no array as ``np.int64``.  A
    reduction to per-edge or chunk totals may still add in int64."""
    makers = {"empty", "zeros", "ones", "full", "empty_like", "zeros_like", "ones_like",
              "full_like", "array", "einsum", "astype", "multiply", "add", "subtract"}
    tree = ast.parse((SRC / "engine.py").read_text(encoding="utf-8"))
    engine = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "BatchEngine")
    methods = {node.name: node for node in engine.body if isinstance(node, ast.FunctionDef)}
    found = []
    for name in ("_charges", "_infeasible", "_run_chunk"):
        for node in ast.walk(methods[name]):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in makers):
                continue
            found += [
                f"{name}:{node.lineno}"
                for arg in [*node.args, *(kw.value for kw in node.keywords)]
                for sub in ast.walk(arg)
                if isinstance(sub, ast.Attribute) and sub.attr == "int64"
            ]
    assert found == []


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_engine_imports_no_report_or_cli():
    """The layer line: ``engine.py`` builds and runs the chunks, and imports
    nothing from ``stats`` (the reports) or ``cli``."""
    found = []
    for node in ast.walk(_parse(SRC / "engine.py")):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            paths = [base, *(f"{base}.{alias.name}" for alias in node.names)]
        elif isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        else:
            continue
        if any({"stats", "cli"} & set(path.split(".")) for path in paths):
            found.append(f"engine.py:{node.lineno}")
    assert found == []


def test_reports_read_no_engine_internal():
    """``stats.py`` reads the engine's results through its public names: it
    imports no ``_``-prefixed name from ``engine`` and reads no
    ``_``-prefixed attribute (dunders aside), so no chunk internal."""
    found = []
    for node in ast.walk(_parse(SRC / "stats.py")):
        if isinstance(node, ast.ImportFrom) and node.module == "engine":
            found += [f"stats.py:{node.lineno}:{alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and not node.attr.startswith("__")):
            found.append(f"stats.py:{node.lineno}:{node.attr}")
    assert found == []


def test_engine_names_are_imported_from_the_engine():
    """Each name ``engine.py`` defines is taken from ``htsp.engine``: no
    file of the package, the tests or the scripts imports it from
    ``htsp.stats`` or reads it as an attribute of ``stats``."""
    names = set()
    for node in _parse(SRC / "engine.py").body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    paths = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    found = []
    for path in sorted(paths):
        for node in ast.walk(_parse(path)):
            if (isinstance(node, ast.ImportFrom)
                    and (node.module == "htsp.stats" or node.level and node.module == "stats")):
                found += [f"{path.name}:{node.lineno}:{alias.name}"
                          for alias in node.names if alias.name in names]
            elif (isinstance(node, ast.Attribute) and node.attr in names
                  and (getattr(node.value, "id", None) == "stats"
                       or getattr(node.value, "attr", None) == "stats")):
                found.append(f"{path.name}:{node.lineno}:{node.attr}")
    assert names >= {"BatchEngine", "CompiledInstance", "MAX_CHUNK", "check_positive"}
    assert found == []


def test_one_trial_stream():
    """Every sampled command but ``htsp sample`` reads its trials from one
    stream per chunk: ``engine.py`` builds ``SeedSequence`` at exactly one
    site, ``CompiledInstance.tree_chunks``; no spawn key of the package
    holds the old per-trial coin key, one shifted left by 20; and
    ``cli.py`` runs the step-by-step walk, ``sample_r0_tree``, only in
    ``cmd_sample``."""
    engine = _parse(SRC / "engine.py")
    sites = [node.lineno for node in ast.walk(engine)
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "SeedSequence"]
    chunks = next(node for node in ast.walk(engine)
                  if isinstance(node, ast.FunctionDef) and node.name == "tree_chunks")
    assert len(sites) == 1 and chunks.lineno <= sites[0] <= chunks.end_lineno
    coin_keys = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.keyword) and node.arg == "spawn_key"
        and any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.LShift)
                and getattr(sub.left, "value", None) == 1
                and getattr(sub.right, "value", None) == 20
                for sub in ast.walk(node.value))
    ]
    assert coin_keys == []
    walks = [
        f"cli.py:{fn.name}:{node.lineno}"
        for fn in _parse(SRC / "cli.py").body if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sample_r0_tree"
    ]
    assert walks and all(w.startswith("cli.py:cmd_sample:") for w in walks)


def test_one_fork_site():
    """The package starts processes at one place, ``engine._Helpers``, by a
    plain ``os.fork``, and no file of it imports ``multiprocessing``, whose
    import alone raises a run's peak memory."""
    forks, imports = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr.startswith("fork")):
                forks.append(f"{path.name}:{ast.unparse(node.func)}")
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            imports += [f"{path.name}:{node.lineno}" for name in names
                        if name.split(".")[0] == "multiprocessing"]
    assert forks == ["engine.py:os.fork"]
    assert imports == []
