"""Spanning-tree samplers over piece interiors.

Two routes are faithful to shifted marginals: an exact convex decomposition
into constrained spanning trees (at most one edge per partition part), and
a weighted-uniform distribution whose edge weights are fitted so marginals
match the targets.  Cycle pieces and K5 pieces have their own elementary
samplers (one edge per partner pair; a uniform Hamiltonian path).

The matroid route has one entry point, ``constrained_tree_weights``: a
piece's compile passes all its distinct states and ``htsp sample``'s walk
one, and every state of every minor shape goes to ``decomp.decompose`` in one call.

Fitting works on the minor obtained by contracting value-one edges and
deleting value-zero edges.  Shifted vectors can sit on a face of the
spanning-tree polytope (a vertex subset whose interior mass is already
full), in which case the distribution factorizes: the fit recurses into
the tight subset and its contraction, and sampling draws the components
independently.  ``maxent_fits`` plans every fit of a batch first, then
fits all their components in one lockstep loop per vertex count, each
component with its own float arithmetic and its own stopping round, so a
batch gives every fit bit for bit as a fit on its own would.  A fit's
tree law (``maxent_tree_law``) is a uint64 mask per tree over the piece's
interior edge positions, with its probability; the matroid route's trees
(``TreeWeights``) and the K5 paths are masks over the same positions.
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

@dataclass(frozen=True, eq=False)
class _Shape:
    """One graph shape's spanning trees, enumerated once, for both routes;
    each route's form of them is built on its first use."""

    n: int
    endpoints: tuple[tuple[int, int], ...]
    #: the spanning trees as edge-position masks, in enumeration order
    masks: np.ndarray

    @functools.cached_property
    def positions(self) -> np.ndarray:
        """The max-entropy route's trees: one row per tree in enumeration
        order, its ascending edge positions."""
        held = (self.masks[:, None] >> np.arange(len(self.endpoints), dtype=np.uint64)) & 1
        # a copy: the column indices are a view into a two-row array
        pos = np.nonzero(held)[1].reshape(len(self.masks), self.n - 1).copy()
        pos.flags.writeable = False
        return pos

    @functools.cached_property
    def trees(self) -> np.ndarray:
        """The masks ascending: row for row the candidates of ``decomposition``."""
        trees = np.sort(self.masks)
        trees.flags.writeable = False
        return trees

    @functools.cached_property
    def decomposition(self) -> DecompositionShape:
        """The matroid route's trees as candidates under x(E[S]) <= |S| - 1
        for every vertex subset S holding an edge."""
        subsets = []
        for size in range(2, self.n + 1):
            for sub in itertools.combinations(range(self.n), size):
                s = set(sub)
                mask = 0
                for i, (u, v) in enumerate(self.endpoints):
                    if u in s and v in s:
                        mask |= 1 << i
                if mask:
                    subsets.append((mask, size - 1))
        return DecompositionShape(self.trees.tolist(), len(self.endpoints), subsets)


@functools.lru_cache(maxsize=1024)
def _shape(n: int, endpoints: tuple[tuple[int, int], ...]) -> _Shape:
    """The record of a graph shape, cached: piece compiles meet the same
    small minors many times."""
    if len(endpoints) > 64:
        raise SizeLimitExceeded(f"minor with {len(endpoints)} edges exceeds 64")
    out = []
    for combo in itertools.combinations(range(len(endpoints)), n - 1):
        parent = list(range(n))
        for i in combo:
            u, v = endpoints[i]
            ru, rv = find_root(parent, u), find_root(parent, v)
            if ru == rv:
                break
            parent[ru] = rv
        else:
            mask = 0
            for i in combo:
                mask |= 1 << i
            out.append(mask)
    masks = np.array(out, dtype=np.uint64)
    masks.flags.writeable = False  # shared by every caller of the cache
    return _Shape(n, endpoints, masks)


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

class TreeWeights(NamedTuple):
    """A shifted state's exact tree distribution: each tree as a mask over
    the positions of its interior graph's edge ids, the weights as
    numerators over their least common ``denominator``, trees in ascending
    order of their masks over the minor's edge positions."""

    trees: tuple[int, ...]
    numerators: tuple[int, ...]
    denominator: int


class _Prepared(NamedTuple):
    """What the states of one interior graph and value vector share: the
    minor, its shape's record, the minor's edge positions, and a state of
    the target alone, whose integer target every such state reuses."""

    minor: _Minor
    record: _Shape
    pos_of: dict[int, int]
    state: DecompositionState


def _prepare(shifted: ShiftedSolution) -> _Prepared:
    """The forced-edge contraction of a state's interior values, read once
    per interior graph and value vector."""
    g = shifted.interior_graph
    minor = contract_forced(g, shifted.values)
    mg = minor.graph
    return _Prepared(minor, _shape(mg.n, mg.endpoints),
                     {eid: i for i, eid in enumerate(mg.edge_ids)},
                     DecompositionState(tuple(shifted.values[eid] for eid in mg.edge_ids)))


def _tree_state(shifted: ShiftedSolution, prep: _Prepared, allowed: dict
                ) -> tuple[_Minor, _Shape, DecompositionState]:
    """The minor of a shifted state, its shape's record and its state with
    its own part rows.  ``prep`` is what the states of its interior graph
    and values share, and ``allowed`` holds the part-respecting trees by
    record and parts, filled as they are met."""
    part_masks = []
    for part in shifted.parts:
        mask = 0
        for eid in part:
            if eid in prep.pos_of:
                mask |= 1 << prep.pos_of[eid]
        if mask:
            part_masks.append(mask)
    key = (id(prep.record), tuple(part_masks))
    if key not in allowed:
        allowed[key] = (np.bitwise_count(
            prep.record.trees[:, None] & np.array(part_masks, dtype=np.uint64)) <= 1).all(axis=1)
    if not allowed[key].any():
        raise InfeasibleShift("no constrained spanning tree in the support")
    return prep.minor, prep.record, DecompositionState(
        prep.state.target, tuple((pm, 1) for pm in part_masks), allowed[key],
        prep.state.integer_target)


def constrained_tree_weights(states: Sequence[ShiftedSolution]
                             ) -> list[Union[TreeWeights, InfeasibleShift]]:
    """Decompose each shifted interior vector over part-respecting trees,
    all the states in one ``decompose`` call; a state the decomposition or
    its marginal check rejects gets its ``InfeasibleShift``.  The one entry
    point of the matroid route: a piece's compile passes all its states,
    ``htsp sample``'s walk one.  Every tree holds the forced edges and no zero edge,
    and ``_rejections`` checks the minor's edges, so the trees of a state
    that passes reproduce its whole interior vector.  The states of one
    interior graph and value vector share one ``_prepare``."""
    out: list = [None] * len(states)
    jobs: list[tuple[DecompositionShape, DecompositionState]] = []
    minors: list[tuple[int, _Minor]] = []
    prepared: dict[tuple, _Prepared] = {}
    allowed: dict = {}
    for i, shifted in enumerate(states):
        g = shifted.interior_graph
        vals = [shifted.values[eid] for eid in g.edge_ids]
        key = (g.n, g.edge_ids, g.endpoints, tuple([x.numerator for x in vals]),
               tuple([x.denominator for x in vals]))
        try:
            if key not in prepared:
                prepared[key] = _prepare(shifted)
            minor, record, state = _tree_state(shifted, prepared[key], allowed)
        except InfeasibleShift as exc:
            out[i] = exc
            continue
        jobs.append((record.decomposition, state))
        minors.append((i, minor))
    results = decompose(jobs)
    # per minor, its forced edges and each edge as interior positions; a
    # candidate of a minor as an interior mask, once per call: states share
    # minors
    lift: dict[int, tuple[int, list[int]]] = {}
    tree_of: dict[tuple[int, int], int] = {}
    for (i, minor), (shape, _), r, exc in zip(minors, jobs, results,
                                              _rejections(jobs, results)):
        if exc is not None:
            out[i] = exc
            continue
        if id(minor) not in lift:
            pos = {eid: p for p, eid in enumerate(states[i].interior_graph.edge_ids)}
            lift[id(minor)] = (sum(1 << pos[eid] for eid in minor.forced),
                               [1 << pos[eid] for eid in minor.edge_ids])
        forced, bit = lift[id(minor)]
        pairs = sorted(zip(r.order, r.numerators))
        for c, _ in pairs:
            if (id(minor), c) not in tree_of:
                tree_of[id(minor), c] = forced + sum(bit[p] for p in bits(shape.cands[c]))
        out[i] = TreeWeights(tuple(tree_of[id(minor), c] for c, _ in pairs),
                             tuple(k for _, k in pairs), r.denominator)
    return out


def _rejections(jobs: Sequence[tuple[DecompositionShape, DecompositionState]],
                results: Sequence[Union[Decomposition, DecompositionFailure]]
                ) -> list[Optional[InfeasibleShift]]:
    """Per (shape, state) job, the ``InfeasibleShift`` for a failed
    decomposition or for weights that do not sum to one or do not
    reproduce the target as tree marginals; None for a decomposition that
    passes.  The check runs on the integer numerators of all the
    decompositions at once, over the largest shape's edge positions."""
    out: list[Optional[InfeasibleShift]] = []
    for r in results:
        out.append(None)
        if isinstance(r, DecompositionFailure):
            out[-1] = InfeasibleShift(str(r))
            out[-1].__cause__ = r
    done = [j for j, r in enumerate(results) if isinstance(r, Decomposition)]
    if not done:
        return out
    m = max(jobs[j][0].m for j in done)
    sizes = [len(results[j].order) for j in done]
    starts = np.cumsum([0] + sizes[:-1])
    # the rows each decomposition took, gathered once per shape
    rows: dict[int, tuple[DecompositionShape, list[int], list[int]]] = {}
    for j, at, k in zip(done, starts.tolist(), sizes):
        shape = jobs[j][0]
        entry = rows.setdefault(id(shape), (shape, [], []))
        entry[1].extend(results[j].order)
        entry[2].extend(range(at, at + k))
    chosen = np.zeros((sum(sizes), m), dtype=bool)
    for shape, cands, where in rows.values():
        chosen[where, :shape.m] = shape.member[cands]
    w = np.array([k for j in done for k in results[j].numerators], dtype=object)
    marg = np.add.reduceat(chosen * w[:, None], starts, axis=0)
    sums = np.add.reduceat(w, starts).tolist()
    den = np.array([results[j].denominator for j in done], dtype=object)
    targets = [jobs[j][1].integer_target for j in done]
    tden = np.array([q for _, q in targets], dtype=object)
    tnum = np.zeros(marg.shape, dtype=object)
    for row, (nums, _) in zip(tnum, targets):
        row[:len(nums)] = nums
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


class _FitPlan(NamedTuple):
    """A fit before any weight is fitted: its components, each a graph
    with its float targets in edge order, and the contracted and deleted
    edges."""

    components: tuple[tuple[MultiGraph, tuple[float, ...]], ...]
    forced: tuple[int, ...]
    zeros: tuple[int, ...]


def _find_tight_subset(g: MultiGraph, nums: dict[int, int], den: int
                       ) -> Optional[tuple[int, ...]]:
    """The first vertex subset whose interior mass is full, on the values'
    numerators over their common denominator ``den``."""
    for size in range(2, g.n):
        for sub in itertools.combinations(range(g.n), size):
            s = set(sub)
            inside = sum(nums[e] for e, (u, v) in zip(g.edge_ids, g.endpoints)
                         if u in s and v in s)
            if inside == (size - 1) * den:
                return sub
            if inside > (size - 1) * den:
                raise BoundaryTarget("targets outside the spanning-tree polytope")
    return None


def _plan_fit(interior_graph: MultiGraph, targets: dict[int, Fraction]) -> _FitPlan:
    """Contract value-one edges, delete value-zero edges, then factor
    across tight vertex subsets: each factor is a component to fit.  The
    checks run on the targets' numerators over their least common
    denominator."""
    ids = interior_graph.edge_ids
    dens = [targets[eid].denominator for eid in ids]
    den = math.lcm(*dens)
    nums = {eid: targets[eid].numerator * (den // d) for eid, d in zip(ids, dens)}
    for eid in ids:
        if not 0 <= nums[eid] <= den:
            raise BoundaryTarget(f"target {targets[eid]} for edge {eid} outside [0,1]")
    total = sum(nums.values())
    if total != (interior_graph.n - 1) * den:
        raise BoundaryTarget(
            f"targets sum to {Fraction(total, den)}, need {interior_graph.n - 1}"
        )
    minor = contract_forced(interior_graph, targets)
    components: list[tuple[MultiGraph, tuple[float, ...]]] = []

    def rec(g: MultiGraph) -> None:
        if g.n == 1 or g.m == 0:
            return
        sub = _find_tight_subset(g, nums, den)
        if sub is None:
            # a numerator over the common denominator gives the float of
            # the target itself: int division rounds correctly
            components.append((g, tuple(nums[eid] / den for eid in g.edge_ids)))
            return
        s = set(sub)
        inner_edges = [
            (eid, u, v) for eid, (u, v) in zip(g.edge_ids, g.endpoints)
            if u in s and v in s
        ]
        renum = {old: i for i, old in enumerate(sorted(s))}
        rec(MultiGraph(len(s), [(e, renum[u], renum[v]) for e, u, v in inner_edges]))
        rec(g.contract(s)[0])

    rec(minor.graph)
    return _FitPlan(tuple(components), minor.forced, minor.zeros)


def _fit_components(components: Sequence[tuple[MultiGraph, Sequence[float]]],
                    tol: float, max_rounds: int) -> list[MaxEntComponent]:
    """Fit every component by multiplicative updates with matrix-tree
    marginals, the components of one vertex count in lockstep.

    Per component and round, exactly the float operations of a fit on its
    own: the weighted Laplacian summed cell by cell in edge order, its
    minor inverted (one stacked call for the round), each edge's
    effective resistance and marginal, the error, then the update and its
    division by the largest weight.  A component stops at the first round
    its error is within ``tol``.  Edges past a component's own are padded
    as zero-weight loops at vertex 0, which add zero to the Laplacian."""
    out: list = [None] * len(components)
    groups: dict[int, list[int]] = {}
    for i, (g, _) in enumerate(components):
        groups.setdefault(g.n, []).append(i)
    for n, idx in groups.items():
        m = max(components[i][0].m for i in idx)
        ends = np.zeros((len(idx), m, 2), dtype=np.intp)
        valid = np.zeros((len(idx), m), dtype=bool)
        t = np.ones((len(idx), m))
        for b, i in enumerate(idx):
            g, targets = components[i]
            ends[b, :g.m] = g.endpoints
            valid[b, :g.m] = True
            t[b, :g.m] = targets
        u, v = ends[:, :, 0], ends[:, :, 1]
        # per edge the Laplacian cells uu, vv, uv, vu, in edge order
        cells_r = np.stack([u, v, u, v], axis=2)
        cells_c = np.stack([u, v, v, u], axis=2)
        signs = np.array([1.0, 1.0, -1.0, -1.0])
        w = np.where(valid, 1.0, 0.0)
        err = np.full(len(idx), np.inf)
        live = np.arange(len(idx))
        for _ in range(max_rounds):
            k = len(live)
            lap = np.zeros((k, n, n))
            at = np.broadcast_to(np.arange(k)[:, None, None], cells_r[live].shape)
            np.add.at(lap, (at, cells_r[live], cells_c[live]),
                      w[live][:, :, None] * signs)
            inv = np.zeros((k, n, n))
            try:
                inv[:, :-1, :-1] = np.linalg.inv(lap[:, :-1, :-1])
            except np.linalg.LinAlgError as exc:
                raise NumericalBreakdown("singular weighted Laplacian minor") from exc
            # the ground row and column are zero: an edge at the ground
            # reads its other end's diagonal entry alone
            rows = np.arange(k)[:, None]
            lu, lv = u[live], v[live]
            reff = inv[rows, lu, lu] + inv[rows, lv, lv] - 2 * inv[rows, lu, lv]
            marg = w[live] * reff
            ok = valid[live]
            if ((marg <= 0) & ok).any():
                raise NumericalBreakdown("nonpositive marginal during fitting")
            tl = t[live]
            err[live] = np.where(ok, np.abs(marg / tl - 1.0), 0.0).max(axis=1)
            going = err[live] > tol
            live, marg, tl = live[going], marg[going], tl[going]
            if not live.size:
                break
            nw = w[live] * (tl / np.where(valid[live], marg, 1.0))
            w[live] = nw / nw.max(axis=1, keepdims=True)
        else:
            b = int(live[0])
            raise NonConvergence(f"fit error {err[b]:.3e} after {max_rounds} rounds")
        for b, i in enumerate(idx):
            g = components[i][0]
            out[i] = MaxEntComponent(g, dict(zip(g.edge_ids, w[b, :g.m].tolist())),
                                     float(err[b]))
    return out


def maxent_fits(problems: Sequence[tuple[MultiGraph, dict[int, Fraction]]]
                ) -> list[MaxEntWeights]:
    """Fit weighted-uniform tree weights matching each problem's target
    marginals to ``FIT_TOLERANCE`` within ``FIT_MAX_ROUNDS`` rounds: every
    fit is planned first (contraction, tight-set factoring), then all their
    components are fitted together."""
    plans = [_plan_fit(g, targets) for g, targets in problems]
    fitted = iter(_fit_components([c for p in plans for c in p.components],
                                  FIT_TOLERANCE, FIT_MAX_ROUNDS))
    return [MaxEntWeights(tuple(next(fitted) for _ in p.components), p.forced, p.zeros)
            for p in plans]


def maxent_tree_law(fit: MaxEntWeights, edge_ids: Sequence[int]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Enumerated support and probabilities of the fitted distribution:
    each tree as a uint64 mask over the positions of ``edge_ids``.

    Trees run over the components' trees in enumeration order, the first
    component outermost; a component tree's weight is the product of its
    edge weights in ascending edge order, normalized over the component,
    and a tree's probability the product of its components'."""
    position = {eid: i for i, eid in enumerate(edge_ids)}
    masks = np.array([sum(1 << position[e] for e in fit.forced)], dtype=np.uint64)
    probs = np.array([1.0])
    for c in fit.components:
        pos = _shape(c.graph.n, c.graph.endpoints).positions
        wvec = np.array([c.weights[eid] for eid in c.graph.edge_ids])
        cw = np.ones(len(pos))
        for j in range(pos.shape[1]):
            cw *= wvec[pos[:, j]]
        cw = cw / cw.sum()
        bit = np.array([1 << position[e] for e in c.graph.edge_ids], dtype=np.uint64)
        cm = np.bitwise_or.reduce(bit[pos], axis=1)
        masks = (masks[:, None] | cm[None, :]).ravel()
        probs = (probs[:, None] * cw[None, :]).ravel()
    return masks, probs


# ---------------------------------------------------------------------------
# elementary piece samplers
# ---------------------------------------------------------------------------

def k5_paths(piece: LocalMultigraph) -> np.ndarray:
    """The twelve Hamiltonian paths of the K4 interior, as uint64 masks over
    its interior edge positions."""
    interior, _ = piece.internal_graph()
    if interior.n != 4 or interior.m != 6:
        raise AssemblyError(
            f"K5 piece interior has {interior.n} vertices and {interior.m} edges, not K4"
        )
    pos_of = {}
    for i, (u, v) in enumerate(interior.endpoints):
        pos_of[u, v] = pos_of[v, u] = i
    return np.array([sum(1 << pos_of[a, b] for a, b in zip(perm, perm[1:]))
                     for perm in itertools.permutations(range(4)) if perm[0] < perm[-1]],
                    dtype=np.uint64)
