"""Spanning-tree samplers over piece interiors.

Two routes are faithful to shifted marginals: an exact convex decomposition
into constrained spanning trees (at most one edge per partition part), and
a weighted-uniform distribution whose edge weights are fitted so marginals
match the targets.  Cycle pieces and K5 pieces have their own elementary
samplers (one edge per partner pair; a uniform Hamiltonian path).

Fitting works on the minor obtained by contracting value-one edges and
deleting value-zero edges.  Shifted vectors can sit on a face of the
spanning-tree polytope (a vertex subset whose interior mass is already
full), in which case the distribution factorizes: the fit recurses into
the tight subset and its contraction, and sampling draws the components
independently.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .decomp import (
    Decomposition,
    DecompositionFailure,
    DecompositionShape,
    DecompositionState,
    decompose,
)
from .errors import (
    AssemblyError,
    BoundaryTarget,
    InfeasibleShift,
    NonConvergence,
    NumericalBreakdown,
    SizeLimitExceeded,
)
from .graph import MultiGraph, bits, find_root
from .hierarchy import LocalMultigraph
from .matching import ShiftedSolution

FIT_TOLERANCE = 1e-6
FIT_MAX_ROUNDS = 10_000


# ---------------------------------------------------------------------------
# small-graph utilities
# ---------------------------------------------------------------------------

def enumerate_spanning_trees(g: MultiGraph) -> tuple[int, ...]:
    """All spanning trees as bitmasks over edge positions."""
    return _spanning_tree_masks(g.n, g.endpoints)


@functools.lru_cache(maxsize=1024)
def _spanning_tree_masks(n: int, endpoints: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """Cached per graph shape: piece compiles meet the same small minors
    many times."""
    if n == 1:
        return (0,)
    out = []
    for combo in itertools.combinations(range(len(endpoints)), n - 1):
        parent = list(range(n))
        ok = True
        for i in combo:
            u, v = endpoints[i]
            ru, rv = find_root(parent, u), find_root(parent, v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            mask = 0
            for i in combo:
                mask |= 1 << i
            out.append(mask)
    return tuple(out)


def in_spanning_tree_polytope(g: MultiGraph, values: dict[int, Fraction]) -> bool:
    """Exact membership check by enumerating all vertex-subset constraints."""
    total = sum((values[eid] for eid in g.edge_ids), Fraction(0))
    if total != g.n - 1:
        return False
    if any(values[eid] < 0 for eid in g.edge_ids):
        return False
    for size in range(2, g.n):
        for sub in itertools.combinations(range(g.n), size):
            s = set(sub)
            inside = sum(
                (values[eid] for eid, (u, v) in zip(g.edge_ids, g.endpoints)
                 if u in s and v in s),
                Fraction(0),
            )
            if inside > size - 1:
                return False
    return True


@dataclass(frozen=True)
class _Minor:
    """Value-one edges contracted, value-zero edges deleted."""

    graph: MultiGraph
    forced: tuple[int, ...]
    zeros: tuple[int, ...]

    @property
    def edge_ids(self) -> tuple[int, ...]:
        return self.graph.edge_ids


def contract_forced(g: MultiGraph, values: dict[int, Fraction]) -> _Minor:
    forced = tuple(sorted(eid for eid in g.edge_ids if values[eid] == 1))
    zeros = tuple(sorted(eid for eid in g.edge_ids if values[eid] == 0))
    return _contract(g.n, g.edge_ids, g.endpoints, forced, zeros)


@functools.lru_cache(maxsize=1024)
def _contract(n: int, edge_ids: tuple[int, ...], endpoints: tuple[tuple[int, int], ...],
              forced: tuple[int, ...], zeros: tuple[int, ...]) -> _Minor:
    """Cached per graph and (forced, zero) pattern: the states of one piece
    share a few patterns."""
    parent = list(range(n))
    fset = set(forced)
    for eid, (u, v) in zip(edge_ids, endpoints):
        if eid in fset:
            ru, rv = find_root(parent, u), find_root(parent, v)
            if ru == rv:
                raise InfeasibleShift("forced edges contain a cycle")
            parent[ru] = rv
    roots = sorted({find_root(parent, v) for v in range(n)})
    renum = {r: i for i, r in enumerate(roots)}
    zset = set(zeros)
    edges = []
    for eid, (u, v) in zip(edge_ids, endpoints):
        if eid in fset or eid in zset:
            continue
        a, b = renum[find_root(parent, u)], renum[find_root(parent, v)]
        if a == b:
            raise InfeasibleShift("positive edge inside a forced component")
        edges.append((eid, a, b))
    return _Minor(MultiGraph(len(roots), edges), forced, zeros)


# ---------------------------------------------------------------------------
# exact constrained-tree distribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ShapeTables:
    """What every constrained decomposition on one minor shape shares."""

    #: the spanning trees as edge-position masks, ascending
    trees: np.ndarray
    #: the trees as candidates under x(E[S]) <= |S| - 1 for every vertex
    #: subset S holding an edge
    decomposition: DecompositionShape


@functools.lru_cache(maxsize=1024)
def _shape_tables(n: int, endpoints: tuple[tuple[int, int], ...]) -> _ShapeTables:
    if len(endpoints) > 64:
        raise SizeLimitExceeded(f"minor with {len(endpoints)} edges exceeds 64")
    trees = np.array(sorted(_spanning_tree_masks(n, endpoints)), dtype=np.uint64)
    trees.flags.writeable = False  # shared by every caller of the cache
    subsets = []
    for size in range(2, n + 1):
        for sub in itertools.combinations(range(n), size):
            s = set(sub)
            mask = 0
            for i, (u, v) in enumerate(endpoints):
                if u in s and v in s:
                    mask |= 1 << i
            if mask:
                subsets.append((mask, size - 1))
    return _ShapeTables(trees, DecompositionShape(trees.tolist(), len(endpoints), subsets))


class TreeWeights(NamedTuple):
    """A shifted state's exact tree distribution: each tree as a mask with
    bit ``eid`` set for each of its edge ids, the weights as numerators over
    their least common ``denominator``, trees in ascending order of their
    masks over the minor's edge positions."""

    trees: tuple[int, ...]
    numerators: tuple[int, ...]
    denominator: int


def _tree_state(shifted: ShiftedSolution) -> tuple[_Minor, _ShapeTables, DecompositionState]:
    """The minor of a shifted state, its shape and its own part rows."""
    g = shifted.interior_graph
    values = shifted.interior_values()
    minor = contract_forced(g, values)
    mg = minor.graph
    tables = _shape_tables(mg.n, mg.endpoints)
    pos_of = {eid: i for i, eid in enumerate(mg.edge_ids)}
    part_masks = []
    for part in shifted.parts:
        mask = 0
        for eid in part:
            if eid in pos_of:
                mask |= 1 << pos_of[eid]
        if mask:
            part_masks.append(mask)

    keep = np.ones(len(tables.trees), dtype=bool)
    for pm in part_masks:
        keep &= np.bitwise_count(tables.trees & np.uint64(pm)) <= 1
    if not keep.any():
        raise InfeasibleShift("no constrained spanning tree in the support")
    state = DecompositionState(tuple(values[eid] for eid in mg.edge_ids),
                               tuple((pm, 1) for pm in part_masks), keep)
    return minor, tables, state


def constrained_tree_weights(states: Sequence[ShiftedSolution]
                             ) -> list[Union[TreeWeights, InfeasibleShift]]:
    """Decompose each shifted interior vector over part-respecting trees,
    the states of one minor shape together; a state the decomposition or
    its marginal check rejects gets its ``InfeasibleShift``.  The one entry
    point of the matroid route: a piece's compile passes all its states, a
    single draw one.  Every tree holds the forced edges and no zero edge,
    and ``_rejections`` checks the minor's edges, so the trees of a state
    that passes reproduce its whole interior vector."""
    out: list = [None] * len(states)
    groups: dict[tuple, tuple[_ShapeTables, list]] = {}
    for i, shifted in enumerate(states):
        try:
            minor, tables, state = _tree_state(shifted)
        except InfeasibleShift as exc:
            out[i] = exc
            continue
        key = (minor.graph.n, minor.graph.endpoints)
        groups.setdefault(key, (tables, []))[1].append((i, minor, state))
    for tables, members in groups.values():
        shape = tables.decomposition
        group = [state for _, _, state in members]
        results = decompose(shape, group)
        for (i, minor, _), r, exc in zip(members, results,
                                         _rejections(shape, group, results)):
            if exc is not None:
                out[i] = exc
                continue
            bit = [1 << eid for eid in minor.edge_ids]
            forced = sum(1 << eid for eid in minor.forced)
            pairs = sorted(zip(r.order, r.numerators))
            out[i] = TreeWeights(
                tuple(forced + sum(bit[p] for p in bits(shape.cands[c])) for c, _ in pairs),
                tuple(k for _, k in pairs), r.denominator)
    return out


def _rejections(shape: DecompositionShape, states: Sequence[DecompositionState],
                results: Sequence[Union[Decomposition, DecompositionFailure]]
                ) -> list[Optional[InfeasibleShift]]:
    """Per state, the ``InfeasibleShift`` for a failed decomposition or for
    weights that do not sum to one or do not reproduce the target as tree
    marginals; None for a decomposition that passes.  The check runs on
    the integer numerators of all the shape's decompositions at once."""
    out: list[Optional[InfeasibleShift]] = []
    for r in results:
        out.append(None)
        if isinstance(r, DecompositionFailure):
            out[-1] = InfeasibleShift(str(r))
            out[-1].__cause__ = r
    done = [j for j, r in enumerate(results) if isinstance(r, Decomposition)]
    if not done:
        return out
    w = np.array([k for j in done for k in results[j].numerators], dtype=object)
    starts = np.cumsum([0] + [len(results[j].order) for j in done[:-1]])
    chosen = shape.member[[c for j in done for c in results[j].order]]
    marg = np.add.reduceat(chosen * w[:, None], starts, axis=0)
    sums = np.add.reduceat(w, starts).tolist()
    den = np.array([results[j].denominator for j in done], dtype=object)
    tden = np.array([math.lcm(*(x.denominator for x in states[j].target)) for j in done],
                    dtype=object)
    tnum = np.array([[x.numerator * (q // x.denominator) for x in states[j].target]
                     for j, q in zip(done, tden)], dtype=object).reshape(marg.shape)
    ok = (marg * tden[:, None] == tnum * den[:, None]).all(axis=1).tolist()
    for j, good, total, q in zip(done, ok, sums, den.tolist()):
        if total != q:
            out[j] = InfeasibleShift("tree weights do not sum to 1")
        elif not good:
            out[j] = InfeasibleShift("tree marginals do not reproduce the shifted vector")
    return out


# ---------------------------------------------------------------------------
# max-entropy route
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxEntComponent:
    graph: MultiGraph
    weights: dict[int, float]
    fit_error: float


@dataclass(frozen=True)
class MaxEntWeights:
    """Fitted weighted-uniform tree distribution, factored over tight sets.

    Components partition the fractional interior edges; a sample is the
    union of independent component trees plus every contracted forced edge.
    """

    components: tuple[MaxEntComponent, ...]
    forced: tuple[int, ...]
    zeros: tuple[int, ...]

    @property
    def fit_error(self) -> float:
        return max((c.fit_error for c in self.components), default=0.0)


def _laplacian_minor_inverse(g: MultiGraph, w: Sequence[float]) -> np.ndarray:
    lap = [[0.0] * g.n for _ in range(g.n)]
    for x, (u, v) in zip(w, g.endpoints):
        lap[u][u] += x
        lap[v][v] += x
        lap[u][v] -= x
        lap[v][u] -= x
    minor = np.array(lap)[:-1, :-1]
    try:
        return np.linalg.inv(minor)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown("singular weighted Laplacian minor") from exc


def _matrix_tree_marginals(g: MultiGraph, w: Sequence[float]) -> np.ndarray:
    """Inclusion probability of each edge under the weighted-uniform law."""
    # on Python floats: the same double arithmetic as numpy's, at a fraction
    # of the cost of indexing numpy scalars
    w = np.asarray(w, dtype=float).tolist()
    inv = _laplacian_minor_inverse(g, w).tolist()
    ground = g.n - 1
    out = []
    for x, (u, v) in zip(w, g.endpoints):
        if v == ground:
            u, v = v, u
        if u == ground:
            reff = inv[v][v]
        else:
            reff = inv[u][u] + inv[v][v] - 2 * inv[u][v]
        out.append(x * reff)
    return np.array(out)


def _fit_component(g: MultiGraph, targets: Sequence[float], tol: float,
                   max_rounds: int) -> MaxEntComponent:
    t = np.asarray(targets, dtype=float)
    w = np.ones(g.m)
    err = np.inf
    for _ in range(max_rounds):
        marg = _matrix_tree_marginals(g, w)
        if np.any(marg <= 0):
            raise NumericalBreakdown("nonpositive marginal during fitting")
        err = float(np.max(np.abs(marg / t - 1.0)))
        if err <= tol:
            break
        w = w * (t / marg)
        w = w / np.max(w)
    else:
        raise NonConvergence(f"fit error {err:.3e} after {max_rounds} rounds")
    return MaxEntComponent(g, {eid: float(x) for eid, x in zip(g.edge_ids, w)}, err)


def _find_tight_subset(g: MultiGraph, values: dict[int, Fraction]) -> Optional[tuple[int, ...]]:
    # the values as numerators over their least common denominator
    den = math.lcm(*(values[eid].denominator for eid in g.edge_ids))
    nums = [values[eid].numerator * (den // values[eid].denominator) for eid in g.edge_ids]
    for size in range(2, g.n):
        for sub in itertools.combinations(range(g.n), size):
            s = set(sub)
            inside = sum(x for x, (u, v) in zip(nums, g.endpoints) if u in s and v in s)
            if inside == (size - 1) * den:
                return sub
            if inside > (size - 1) * den:
                raise BoundaryTarget("targets outside the spanning-tree polytope")
    return None


def maxent_fit(interior_graph: MultiGraph, targets: dict[int, Fraction],
               tolerance: float = FIT_TOLERANCE,
               max_rounds: int = FIT_MAX_ROUNDS) -> MaxEntWeights:
    """Fit weighted-uniform tree weights matching the target marginals.

    Contracts value-one edges and deletes value-zero edges first, then
    factors across tight vertex subsets and fits each factor by
    multiplicative updates with matrix-tree marginals.
    """
    for eid in interior_graph.edge_ids:
        v = targets[eid]
        if v < 0 or v > 1:
            raise BoundaryTarget(f"target {v} for edge {eid} outside [0,1]")
    total = sum((targets[eid] for eid in interior_graph.edge_ids), Fraction(0))
    if total != interior_graph.n - 1:
        raise BoundaryTarget(
            f"targets sum to {total}, need {interior_graph.n - 1}"
        )
    minor = contract_forced(interior_graph, targets)
    components: list[MaxEntComponent] = []

    def rec(g: MultiGraph, vals: dict[int, Fraction]) -> None:
        if g.n == 1 or g.m == 0:
            return
        sub = _find_tight_subset(g, vals)
        if sub is None:
            components.append(
                _fit_component(g, [float(vals[eid]) for eid in g.edge_ids],
                               tolerance, max_rounds)
            )
            return
        s = set(sub)
        inner_edges = [
            (eid, u, v) for eid, (u, v) in zip(g.edge_ids, g.endpoints)
            if u in s and v in s
        ]
        renum = {old: i for i, old in enumerate(sorted(s))}
        inner = MultiGraph(len(s), [(e, renum[u], renum[v]) for e, u, v in inner_edges])
        rec(inner, {e: vals[e] for e, _, _ in inner_edges})
        contracted, _ = g.contract(s)
        rec(contracted, {eid: vals[eid] for eid in contracted.edge_ids})

    rec(minor.graph, {eid: targets[eid] for eid in minor.graph.edge_ids})
    return MaxEntWeights(tuple(components), minor.forced, minor.zeros)


def maxent_tree_distribution(fit: MaxEntWeights) -> tuple[tuple[frozenset[int], ...], np.ndarray]:
    """Enumerated support and probabilities of the fitted distribution.

    The product across components is exact up to float rounding; used by
    the batch harness and by cross-validation against sequential sampling.
    """
    trees: list[frozenset[int]] = [frozenset(fit.forced)]
    probs = np.array([1.0])
    for c in fit.components:
        masks = enumerate_spanning_trees(c.graph)
        wvec = [c.weights[eid] for eid in c.graph.edge_ids]
        cw = []
        for mask in masks:
            p = 1.0
            for i in bits(mask):
                p *= wvec[i]
            cw.append(p)
        cw = np.array(cw)
        cw = cw / cw.sum()
        ids = [frozenset(c.graph.edge_ids[i] for i in bits(mask)) for mask in masks]
        new_trees = []
        new_probs = np.empty(len(trees) * len(masks))
        k = 0
        for t, tp in zip(trees, probs):
            for tree, mp in zip(ids, cw):
                new_trees.append(t | tree)
                new_probs[k] = tp * mp
                k += 1
        trees = new_trees
        probs = new_probs
    return tuple(trees), probs


# ---------------------------------------------------------------------------
# elementary piece samplers
# ---------------------------------------------------------------------------

def k5_paths(piece: LocalMultigraph) -> list[frozenset[int]]:
    """The twelve Hamiltonian paths of the K4 interior, as edge-id sets."""
    interior, mapping = piece.internal_graph()
    if interior.n != 4 or interior.m != 6:
        raise AssemblyError(
            f"K5 piece interior has {interior.n} vertices and {interior.m} edges, not K4"
        )
    edge_of = {}
    for eid, (u, v) in zip(interior.edge_ids, interior.endpoints):
        edge_of[(u, v)] = eid
        edge_of[(v, u)] = eid
    out = []
    for perm in itertools.permutations(range(4)):
        if perm[0] > perm[-1]:
            continue
        out.append(frozenset(edge_of[(a, b)] for a, b in zip(perm, perm[1:])))
    return sorted(out, key=sorted)
