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
    every spanning tree of a graph, a single max-entropy fit, the minor of
    ``Fraction`` values, one shifted state or surgery branch, one state's
    decomposition as ``Fraction``s, a state's sorted interior edge ids, a
    state's interior values as ``Fraction``s) live in ``tests/``."""
    assert _defined({"enumerate_min_cuts", "enumerate_spanning_trees", "maxent_fit",
                     "contract_forced", "shift", "apply_surgery",
                     "exact_convex_decomposition", "interior_edge_ids", "interior_values"}) == []


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


def _names(tree: ast.Module) -> list[str]:
    """Every function, class and assigned plain name a module defines."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


#: the exact layer's functions, as (module, class or None, function)
EXACT_LAYER = (
    ("pipeline.py", "CyclePieceSampler", "parity_law"),
    ("pipeline.py", "EnumeratedPieceSampler", "parity_law"),
    ("join.py", None, "parity_law"),
    ("join.py", None, "event_weight"),
    ("join.py", None, "event_probability"),
    ("join.py", None, "exact_eal_probabilities"),
    ("oracle.py", None, "exact_expected_net_decrease"),
    ("oracle.py", None, "_product"),
    ("oracle.py", None, "_difference"),
)


def _function(module: str, cls, name: str) -> ast.FunctionDef:
    scope = _parse(SRC / module)
    if cls is not None:
        scope = next(node for node in scope.body
                     if isinstance(node, ast.ClassDef) and node.name == cls)
    return next(node for node in scope.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _in_loops(fn: ast.FunctionDef):
    """Every node inside a loop or a comprehension of ``fn``."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    return (node for loop in ast.walk(fn) if isinstance(loop, loops) for node in ast.walk(loop))


def _is_fraction_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == "Fraction"
        or isinstance(node.func, ast.Attribute) and node.func.attr == "Fraction")


#: the exact layer's readers of piece laws and their values, as (module,
#: class or None, function); ``oracle.exact_expected_net_decrease`` brings
#: the ``oracle.py`` functions it calls
ONE_NUMBER_TYPE = (
    ("join.py", None, "parity_law"),
    ("join.py", None, "event_weight"),
    ("join.py", None, "event_probability"),
    ("join.py", "Coin", "flatten"),
    ("join.py", None, "coin_table"),
    ("join.py", None, "check_eal_bounds"),
    ("oracle.py", None, "exact_expected_net_decrease"),
    ("pipeline.py", "EnumeratedPieceSampler", "probability"),
    ("pipeline.py", "EnumeratedPieceSampler", "parity_law"),
    ("pipeline.py", "EnumeratedPieceSampler", "exact_marginal"),
    ("stats.py", None, "is_half"),
    ("stats.py", None, "oracle_check"),
)
#: the names a piece law's denominator and numerators go by in the exact layer
DENOMINATORS = {"d", "den", "piece_den", "exact_den", "exact_nums"}


def _name_of(node: ast.AST):
    return getattr(node, "id", getattr(node, "attr", None))


def test_one_number_type_in_the_exact_layer():
    """Every piece table carries exact numerators, so the exact layer runs
    one arithmetic: none of its functions dispatches on ``isinstance(...,
    float)`` or ``isinstance(..., Fraction)``, or tests a denominator or the
    numerators against None."""
    fns = []
    for module, cls, name in ONE_NUMBER_TYPE:
        fn = _function(module, cls, name)
        fns.append((module, fn))
        if name == "exact_expected_net_decrease":
            own = {node.name: node for node in _parse(SRC / module).body
                   if isinstance(node, ast.FunctionDef)}
            called = {_name_of(node.func) for node in ast.walk(fn) if isinstance(node, ast.Call)}
            fns += [(module, own[helper]) for helper in sorted(called & set(own))]
    found = []
    for module, fn in fns:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and _name_of(node.func) == "isinstance":
                types = node.args[1]
                types = types.elts if isinstance(types, ast.Tuple) else [types]
                if {"float", "Fraction"} & set(map(_name_of, types)):
                    found.append(f"{module}:{fn.name}:{node.lineno}")
            elif isinstance(node, ast.Compare) and any(
                    isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
                operands = [node.left, *node.comparators]
                if (any(isinstance(o, ast.Constant) and o.value is None for o in operands)
                        and DENOMINATORS & set(map(_name_of, operands))):
                    found.append(f"{module}:{fn.name}:{node.lineno}")
    assert sorted(found) == []


def test_no_fraction_per_state_in_the_exact_layer():
    """The exact layer carries integer numerators over one denominator: no
    function of it calls ``Fraction`` inside a loop or a comprehension, so
    a value makes one ``Fraction`` at most, where it leaves the layer."""
    found = {f"{module}:{node.lineno}"
             for module, cls, name in EXACT_LAYER
             for node in _in_loops(_function(module, cls, name)) if _is_fraction_call(node)}
    assert sorted(found) == []


#: the compile's state layer: the walk, the state builders and the matroid
#: route's state preparation and mixture, as (module, class or None, function)
STATE_LAYER = (
    ("pipeline.py", None, "_piece_states"),
    ("matching.py", None, "_shifted"),
    ("trees.py", None, "constrained_tree_weights"),
    ("trees.py", None, "_tree_states"),
    ("trees.py", None, "_rejections"),
    ("pipeline.py", "DegreePieceSampler", "mi_mixture"),
)


def test_no_fraction_per_state_in_the_state_layer():
    """A compile's states carry their values as integer thirds and the
    walk's visits integer weights over one denominator per piece: no
    function of the state layer calls ``Fraction``, or reads a constant the
    package makes with one (``THIRD``, ``HALF``, ...), inside a loop or a
    comprehension."""
    constants = {
        target.id
        for path in sorted(SRC.glob("*.py"))
        for node in _parse(path).body if isinstance(node, (ast.Assign, ast.AnnAssign))
        and node.value is not None and any(map(_is_fraction_call, ast.walk(node.value)))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }
    assert {"THIRD", "HALF", "QUARTER"} <= constants
    found = {f"{module}:{name}:{node.lineno}"
             for module, cls, name in STATE_LAYER
             for node in _in_loops(_function(module, cls, name))
             if _is_fraction_call(node)
             or isinstance(node, ast.Name) and node.id in constants}
    assert sorted(found) == []


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
    """Every sampled command reads its trials from one stream per chunk:
    ``engine.py`` builds ``SeedSequence`` at exactly one site,
    ``CompiledInstance.tree_chunks``; no spawn key of the package holds the
    old per-trial coin key, one shifted left by 20; every command that
    prints trials (``sample``, ``join``, ``tour``) reads ``tree_chunks``;
    and the step-by-step walk is gone: no piece sampler defines ``sample``,
    ``GuideTable`` defines no ``draw``, and the package defines none of
    ``sample_r0_tree``, ``TreeSample``, ``odd_surgery`` and
    ``validate_r0_tree``, whose forms live in ``tests/``."""
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
    commands = {fn.name: fn for fn in _parse(SRC / "cli.py").body
                if isinstance(fn, ast.FunctionDef)}
    readers = {name for name in ("cmd_sample", "cmd_join", "cmd_tour")
               if any(isinstance(node, ast.Attribute) and node.attr == "tree_chunks"
                      for node in ast.walk(commands[name]))}
    assert readers == {"cmd_sample", "cmd_join", "cmd_tour"}
    methods = {
        (cls.name, fn.name)
        for cls in ast.walk(_parse(SRC / "pipeline.py")) if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, ast.FunctionDef)
    }
    samplers = {cls for cls, _ in methods if cls.endswith("PieceSampler")}
    assert {"CyclePieceSampler", "EnumeratedPieceSampler", "DegreePieceSampler"} <= samplers
    assert [(cls, fn) for cls, fn in methods
            if cls in samplers and fn == "sample" or (cls, fn) == ("GuideTable", "draw")] == []
    assert _defined({"sample_r0_tree", "TreeSample", "odd_surgery", "validate_r0_tree"}) == []


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


def test_one_pairing_memo():
    """The package pairs odd vertices at one place, ``CompiledInstance.pairing``,
    on its one memo, and keeps no cache limit but ``PAIRING_MEMO_LIMIT``."""
    calls, limits = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = _parse(path)
        owner = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef):
                        owner.update((id(node), f"{cls.name}.{fn.name}") for node in ast.walk(fn))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and ast.unparse(node.func).split(".")[-1] == "min_cost_perfect_matching"):
                calls.append(f"{path.name}:{owner.get(id(node))}")
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                limits += [f"{path.name}:{t.id}" for t in targets if isinstance(t, ast.Name)
                           and t.id.endswith(("_CACHE_LIMIT", "_MEMO_LIMIT"))]
    assert calls == ["engine.py:CompiledInstance.pairing"]
    assert limits == ["engine.py:PAIRING_MEMO_LIMIT"]


def test_one_integral_join_path():
    """A tree's integral join has one home, the compiled instance's odd sets
    and pairings: the package keeps no per-tree odd-vertex scan or second
    join path, and the CLI reads ``CompiledInstance.tours``, nothing of
    ``htsp.join``."""
    removed = {"odd_vertices", "TourResult", "integral_join_and_tour"}
    defined = [
        f"{path.name}:{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in removed
    ]
    assert defined == []

    def from_join(node) -> bool:
        if isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
            return node.module in ("join", "htsp.join") or (
                node.module in (None, "htsp") and "join" in names)
        return isinstance(node, ast.Import) and any(a.name == "htsp.join" for a in node.names)

    imports = [ast.unparse(node) for node in ast.walk(_parse(SRC / "cli.py")) if from_join(node)]
    assert imports == []


def test_one_second_moment_rule():
    """Each edge's squared charges are one reduction in the chunk, with no
    blocked square sum, and every report reads a ``*_sumsq`` field only
    through ``stats.mean_and_sigma``."""
    assert {"_square_sums", "SUMSQ_BLOCK"}.isdisjoint(_names(_parse(SRC / "engine.py")))

    tree = _parse(SRC / "stats.py")
    through = {
        id(node)
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and ast.unparse(call.func).split(".")[-1] == "mean_and_sigma"
        for arg in call.args
        for node in ast.walk(arg)
    }
    reads = [
        f"stats.py:{node.lineno}:{ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.endswith("_sumsq")
        and isinstance(node.ctx, ast.Load) and id(node) not in through
    ]
    assert reads == []


def test_one_table_per_graph_shape():
    """Both tree routes read one enumeration of a graph shape's spanning
    trees, the record ``trees._shape``: ``trees.py`` keeps no second table of
    them, and its only process-wide caches are that record and the
    forced-edge contraction."""
    removed = {"_spanning_tree_masks", "_ShapeTables", "_shape_tables", "_tree_positions"}
    tree = _parse(SRC / "trees.py")
    assert removed.isdisjoint(_names(tree))

    # every reference to a cache decorator, by the function it decorates
    owner = {id(n): fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             for d in fn.decorator_list for n in ast.walk(d)}
    caches = sorted(owner.get(id(n), f"line {n.lineno}") for n in ast.walk(tree)
                    if getattr(n, "attr", getattr(n, "id", None)) in ("lru_cache", "cache"))
    assert caches == ["_contract", "_shape"]


def test_one_max_flow_routine():
    """``graph.augment`` is the package's one augmenting-path step: ``join.py``
    defines no ``_max_flow`` and names no flow node by a string, and no
    function of the package but ``augment`` writes a flow entry."""
    join = _parse(SRC / "join.py")
    assert "_max_flow" not in _names(join)
    nodes = [f"join.py:{node.lineno}" for node in ast.walk(join)
             if isinstance(node, ast.Constant) and node.value in ("S", "T")]
    assert nodes == []
    writers = sorted({
        f"{path.name}:{fn.name}"
        for path in SRC.glob("*.py")
        for fn in ast.walk(_parse(path)) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn) if isinstance(node, (ast.Assign, ast.AugAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Subscript) and getattr(target.value, "id", None) == "flow"
    })
    assert writers == ["graph.py:augment"]


def test_one_block_layout():
    """``decomp.decompose`` runs every block on one ragged layout: the
    module keeps no threshold for shapes that share blocks and no padding
    helper, and only ``decompose`` calls the block's round loop,
    ``_decompose_block``."""
    tree = _parse(SRC / "decomp.py")
    assert {"SHARED_CELLS", "_stack"}.isdisjoint(_names(tree))
    callers = sorted({
        f"{path.name}:{fn.name}"
        for path in SRC.glob("*.py")
        for fn in ast.walk(_parse(path)) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_decompose_block"
    })
    assert callers == ["decomp.py:decompose"]


#: the functions that pass or fail a row with a float tolerance, as
#: (module, class or None, function)
TOLERANCE_SITES = (
    ("stats.py", None, "is_half"),
    ("stats.py", None, "oracle_check"),
    ("stats.py", None, "suite_correlations"),
    ("stats.py", None, "binom_sigma"),
    ("stats.py", None, "suite_symmetry"),
    ("join.py", "Coin", "flatten"),
    ("join.py", None, "coin_table"),
    ("join.py", None, "check_eal_bounds"),
)


def test_verdict_tolerances_are_named_in_params():
    """Every verdict tolerance and variance floor is a named constant of
    ``params.py``: the functions that apply one hold no float literal but
    0.0 and 1.0."""
    found = [
        f"{module}:{name}:{node.lineno}"
        for module, cls, name in TOLERANCE_SITES
        for node in ast.walk(_function(module, cls, name))
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
        and node.value not in (0.0, 1.0)
    ]
    assert found == []


def test_one_home_for_the_mix():
    """The sampler's share λ is a compile's one mix, and ``params.py`` the
    one home of the bounds read at it: ``ReductionParams`` holds the three
    reduction amounts alone, no other module reads ``EAL_BOUNDS`` or
    ``mixed_rates``, and ``join.py``'s coin table is its one walk over the
    coin groups, with no rate, threshold or value-key function beside it."""
    join = _parse(SRC / "join.py")
    rp = next(node for node in join.body
              if isinstance(node, ast.ClassDef) and node.name == "ReductionParams")
    assert [node.target.id for node in rp.body if isinstance(node, ast.AnnAssign)] == \
        ["tau", "gamma", "beta"]
    tables = {"EAL_BOUNDS", "mixed_rates"}
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.name != "params.py"
        for node in ast.walk(_parse(path))
        if _name_of(node) in tables
        or isinstance(node, ast.ImportFrom) and tables & {a.name for a in node.names}
    ]
    assert readers == []
    assert {"coin_rates", "coin_thresholds", "_value_key", "EDGE_KINDS"} & set(_names(join)) == set()


def test_every_import_is_used():
    """Every name an import binds in a module of the package is read in that
    module; ``__init__.py``, whose imports are its re-exports, and
    ``from __future__`` are left out."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [(a.asname or a.name.split(".")[0]) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno}:{name}" for name in bound
                       if name not in read]
    assert unused == []
