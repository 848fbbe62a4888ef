"""Spanning-tree samplers over piece interiors.

Two routes are faithful to shifted marginals: an exact convex decomposition
into constrained spanning trees (at most one edge per partition part), and
a weighted-uniform distribution whose edge weights are fitted so marginals
match the targets.  Cycle pieces and K5 pieces have their own elementary
samplers (one edge per partner pair; a uniform Hamiltonian path).

The matroid route has one entry point, ``constrained_tree_weights``: a
piece's compile (or the ledger of ``htsp sample --dump-shift``) passes all
its distinct states, and every state of every minor shape goes to
``decomp.decompose`` in one call.

Fitting works on the minor obtained by contracting value-one edges and
deleting value-zero edges.  Shifted vectors can sit on a face of the
spanning-tree polytope (a vertex subset whose interior mass is already
full), in which case the distribution factorizes: the fit recurses into
the tight subset and its contraction, and sampling draws the components
independently.  ``maxent_fits`` plans every fit of a batch first, then
fits their distinct components in one lockstep loop per vertex count, each
component with its own float arithmetic and its own stopping round, so a
batch gives every fit bit for bit as a fit on its own would.  A fit's
tree law (``maxent_tree_law``) is a uint64 mask per tree over the piece's
interior edge positions, with its probability; the matroid route's trees
(``TreeWeights``) and the K5 paths are masks over the same positions.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .decomp import (
    INT64_SAFE,
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
from .graph import MultiGraph, find_root
from .hierarchy import LocalMultigraph
from .matching import ShiftedSolution
from .params import FIT_TOLERANCE

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
    """Value-one edges contracted, value-zero edges deleted; ``at`` holds
    each minor edge's position in the graph it was made from, and
    ``forced_mask`` the forced edges' positions there."""

    graph: MultiGraph
    forced: tuple[int, ...]
    zeros: tuple[int, ...]
    at: tuple[int, ...]
    forced_mask: int

    @property
    def edge_ids(self) -> tuple[int, ...]:
        return self.graph.edge_ids

    def lifted(self) -> list[int]:
        """The minor's spanning trees in its shape record's order, as masks
        over the positions of the graph it was made from, the forced edges
        included."""
        trees = _shape(self.graph.n, self.graph.endpoints).trees
        held = (trees[:, None] >> np.arange(len(self.at), dtype=np.uint64)) & 1
        lifted = np.bitwise_or.reduce(held << np.array(self.at, dtype=np.uint64), axis=1)
        return (lifted | np.uint64(self.forced_mask)).tolist()


def contract_row(g: MultiGraph, row: Sequence[int], one: int) -> _Minor:
    """The minor of ``g`` at the values ``row``, numerators in its edge
    order over ``one``: value-one edges contracted, value-zero edges
    deleted."""
    return _contract(g.n, g.edge_ids, g.endpoints,
                     tuple(sorted(e for e, k in zip(g.edge_ids, row) if k == one)),
                     tuple(sorted(e for e, k in zip(g.edge_ids, row) if k == 0)))


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
    edges, at = [], []
    for p, (eid, (u, v)) in enumerate(zip(edge_ids, endpoints)):
        if eid in fset or eid in zset:
            continue
        a, b = renum[find_root(parent, u)], renum[find_root(parent, v)]
        if a == b:
            raise InfeasibleShift("positive edge inside a forced component")
        edges.append((eid, a, b))
        at.append(p)
    return _Minor(MultiGraph(len(roots), edges), forced, zeros, tuple(at),
                  sum(1 << p for p, eid in enumerate(edge_ids) if eid in fset))


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
    """What the states of one interior graph and value row share: the
    minor, its shape's record and the integer target every such state
    reuses."""

    minor: _Minor
    record: _Shape
    target: tuple[tuple[int, ...], int]


def _prepare(g: MultiGraph, row: Sequence[int]) -> _Prepared:
    """The forced-edge contraction of an interior value row in thirds (a
    state's ``interior_thirds``), read once per interior graph and row.
    The target is the minor's values over 3, or over 1 when every one is
    whole: over their least common denominator."""
    minor = contract_row(g, row, 3)
    nums = tuple(row[p] for p in minor.at)
    target = (nums, 3) if any(k % 3 for k in nums) else (tuple(k // 3 for k in nums), 1)
    mg = minor.graph
    return _Prepared(minor, _shape(mg.n, mg.endpoints), target)


#: candidates per pass of the part-respecting check
PART_CHECK_BLOCK = 2 ** 13


def _tree_states(states: Sequence[ShiftedSolution]
                 ) -> list[Union[tuple[_Prepared, DecompositionState], InfeasibleShift]]:
    """Each state's prepared minor and its decomposition state with its own
    part rows, or the ``InfeasibleShift`` that rules it out: forced edges
    with a cycle, a positive edge inside a forced component, or parts that
    no tree of the support respects.

    The states of one interior graph and value row share one ``_prepare``.
    The parts of all the states are read over their minors' edge positions
    together, and the part-respecting candidates of all the states are
    found in one pass over their candidates laid end to end."""
    out: list = [None] * len(states)
    # per interior graph object, the index of its structure and its
    # positions by edge id: the three split pieces of an odd piece have
    # one interior structure in three objects
    structures: dict[tuple, int] = {}
    graphs: dict[int, tuple[int, dict[int, int]]] = {}
    # per interior structure and value row, the index of its ``_prepare``
    # in ``preps``, or the failure of it
    prepared: dict[tuple, Union[int, InfeasibleShift]] = {}
    preps: list[_Prepared] = []
    interior_masks: dict[tuple, tuple[int, ...]] = {}
    # per part of the states that prepare, its interior mask and its
    # state's prep; per such state its parts' span
    live, masks, rows, spans = [], [], [], []
    for i, sh in enumerate(states):
        g = sh.interior_graph
        if id(g) not in graphs:
            graphs[id(g)] = (structures.setdefault((g.n, g.edge_ids, g.endpoints),
                                                   len(structures)),
                             {eid: p for p, eid in enumerate(g.edge_ids)})
        gkey, pos = graphs[id(g)]
        key = (gkey, sh.interior_thirds)
        if key not in prepared:
            try:
                preps.append(_prepare(g, sh.interior_thirds))
                prepared[key] = len(preps) - 1
            except InfeasibleShift as exc:
                prepared[key] = exc
        r = prepared[key]
        if isinstance(r, InfeasibleShift):
            out[i] = r
            continue
        pkey = (gkey, sh.parts)
        if pkey not in interior_masks:
            interior_masks[pkey] = tuple(sum(1 << pos[e] for e in part) for part in sh.parts)
        ms = interior_masks[pkey]
        live.append((i, preps[r]))
        spans.append(len(masks))
        masks += ms
        rows += [r] * len(ms)
    spans.append(len(masks))
    if not live:
        return out
    # each part over its minor's edge positions: the bits of its interior
    # mask at the minor's edges, in the minor's order; a part with no edge
    # in the minor drops out
    width = max(1, max(len(prep.minor.at) for prep in preps))
    at = np.zeros((len(preps), width), dtype=np.uint64)
    valid = np.zeros((len(preps), width), dtype=np.uint64)
    for r, prep in enumerate(preps):
        at[r, :len(prep.minor.at)] = prep.minor.at
        valid[r, :len(prep.minor.at)] = 1
    picked = (np.array(masks, dtype=np.uint64)[:, None] >> at[rows]) & valid[rows]
    pm = np.bitwise_or.reduce(picked << np.arange(width, dtype=np.uint64), axis=1)
    part_of = np.repeat(np.arange(len(live)), np.diff(spans))[pm != 0]
    pm = pm[pm != 0]
    counts = np.bincount(part_of, minlength=len(live))
    starts = np.cumsum(counts) - counts
    parts = np.zeros((len(live), int(counts.max(initial=0))), dtype=np.uint64)
    parts[part_of, np.arange(len(part_of)) - starts[part_of]] = pm
    # every state's candidates one after the other, each against its state's
    # parts: a candidate holding two edges of a part is out
    sizes = [len(prep.record.trees) for _, prep in live]
    trees = np.concatenate([prep.record.trees for _, prep in live])
    owner = np.repeat(np.arange(len(live)), sizes)
    alive = np.ones(len(trees), dtype=bool)
    for a in range(0, len(trees), PART_CHECK_BLOCK):
        held, whose = trees[a:a + PART_CHECK_BLOCK], owner[a:a + PART_CHECK_BLOCK]
        for col in parts.T:
            alive[a:a + PART_CHECK_BLOCK] &= np.bitwise_count(held & col[whose]) <= 1
    some = np.bincount(owner[alive], minlength=len(live)).tolist()
    pm, counts, starts = pm.tolist(), counts.tolist(), starts.tolist()
    end = 0
    for (i, prep), k, size, c, s0 in zip(live, some, sizes, counts, starts):
        end += size
        if not k:
            out[i] = InfeasibleShift("no constrained spanning tree in the support")
        else:
            out[i] = prep, DecompositionState(prep.target,
                                              tuple([(x, 1) for x in pm[s0:s0 + c]]),
                                              alive[end - size:end])
    return out


def constrained_tree_weights(states: Sequence[ShiftedSolution]
                             ) -> list[Union[TreeWeights, InfeasibleShift]]:
    """Decompose each shifted interior vector over part-respecting trees,
    all the states in one ``decompose`` call; a state ``_tree_states``, the
    decomposition or its marginal check rejects gets its
    ``InfeasibleShift``.  The one entry point of the matroid route: a
    piece's compile passes all its states.
    Every tree holds the forced edges and no zero edge, and
    ``_rejections`` checks the minor's edges, so the trees of a state that
    passes reproduce its whole interior vector."""
    out: list = [None] * len(states)
    jobs: list[tuple[DecompositionShape, DecompositionState]] = []
    preps: list[tuple[int, _Prepared]] = []
    for i, t in enumerate(_tree_states(states)):
        if isinstance(t, InfeasibleShift):
            out[i] = t
            continue
        prep, state = t
        jobs.append((prep.record.decomposition, state))
        preps.append((i, prep))
    results = decompose(jobs)
    # each minor's trees lifted once per call: states share minors
    lifted: dict[int, list[int]] = {}
    for (i, prep), r, exc in zip(preps, results, _rejections(jobs, results)):
        if exc is not None:
            out[i] = exc
            continue
        if id(prep.minor) not in lifted:
            lifted[id(prep.minor)] = prep.minor.lifted()
        trees = lifted[id(prep.minor)]
        pairs = sorted(zip(r.order, r.numerators))
        out[i] = TreeWeights(tuple([trees[c] for c, _ in pairs]),
                             tuple([k for _, k in pairs]), r.denominator)
    return out


def _rejections(jobs: Sequence[tuple[DecompositionShape, DecompositionState]],
                results: Sequence[Union[Decomposition, DecompositionFailure]]
                ) -> list[Optional[InfeasibleShift]]:
    """Per (shape, state) job, the ``InfeasibleShift`` for a failed
    decomposition or for weights that do not sum to one or do not
    reproduce the target as tree marginals; None for a decomposition that
    passes.  The check runs on the integer numerators of all the
    decompositions at once, over the largest shape's edge positions (at
    most 64, as every tree shape's), in int64 where every product fits and
    on exact Python ints otherwise."""
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
    # the trees each decomposition took, as rows of their edges
    cands = [jobs[j][0].cands for j in done]
    taken = np.array([c[i] for c, j in zip(cands, done) for i in results[j].order],
                     dtype=np.uint64)
    chosen = np.unpackbits(taken.astype("<u8").view(np.uint8).reshape(-1, 8), axis=1,
                           count=m, bitorder="little").view(bool)
    nums = [k for j in done for k in results[j].numerators]
    dens = [results[j].denominator for j in done]
    targets = [jobs[j][1].integer_target for j in done]
    tnums = [k for t, _ in targets for k in t]
    tdens = [q for _, q in targets]
    # a marginal and a sum are at most the largest weight times the most
    # trees a state took; each is compared after a product with a
    # denominator
    top = max(max(max(nums, default=0), -min(nums, default=0)) * max(sizes) * max(tdens),
              max(max(tnums, default=0), -min(tnums, default=0)) * max(dens))
    kind = np.int64 if top < INT64_SAFE else object
    w = np.array(nums, dtype=kind)
    marg = np.add.reduceat(chosen * w[:, None], starts, axis=0)
    sums = np.add.reduceat(w, starts).tolist()
    den = np.array(dens, dtype=kind)
    tden = np.array(tdens, dtype=kind)
    tnum = np.zeros(marg.shape, dtype=kind)
    lens = [len(t) for t, _ in targets]
    owner, offset = np.repeat(np.arange(len(done)), lens), np.arange(sum(lens))
    offset -= np.repeat(np.cumsum(lens) - lens, lens)
    tnum[owner, offset] = np.array(tnums, dtype=kind)
    ok = (marg * tden[:, None] == tnum * den[:, None]).all(axis=1).tolist()
    for j, good, total, q in zip(done, ok, sums, dens):
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


def _plan_fit(interior_graph: MultiGraph, row: Sequence[int], den: int) -> _FitPlan:
    """Contract value-one edges, delete value-zero edges, then factor
    across tight vertex subsets: each factor is a component to fit.  The
    targets are the numerators ``row``, in the graph's edge order, over
    ``den``, and the checks run on them."""
    nums = dict(zip(interior_graph.edge_ids, row))
    for eid, k in nums.items():
        if not 0 <= k <= den:
            raise BoundaryTarget(f"target {Fraction(k, den)} for edge {eid} outside [0,1]")
    total = sum(row)
    if total != (interior_graph.n - 1) * den:
        raise BoundaryTarget(
            f"targets sum to {Fraction(total, den)}, need {interior_graph.n - 1}"
        )
    minor = contract_row(interior_graph, row, den)
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
                    tol: float, max_rounds: int) -> list[tuple[list[float], float]]:
    """Fit every component by multiplicative updates with matrix-tree
    marginals, the components of one vertex count in lockstep; each
    component's weights in its edge order, with its fit error.

    Per component and round, exactly the float operations of a fit on its
    own: the weighted Laplacian summed cell by cell in edge order, its
    minor inverted (one stacked call for the round), each edge's
    effective resistance and marginal, the error, then the update and its
    division by the largest weight.  A component stops at the first round
    its error is within ``tol``.  Edges past a component's own are padded
    as zero-weight loops at vertex 0, which add zero to the Laplacian.
    The live components sit in compact rows, rebuilt only when one stops,
    and a round's Laplacians are one ``np.bincount`` over their flat cells,
    which adds each cell's terms in the order ``np.add.at`` would."""
    out: list = [None] * len(components)
    groups: dict[int, list[int]] = {}
    for i, (g, _) in enumerate(components):
        groups.setdefault(g.n, []).append(i)
    signs = np.array([1.0, 1.0, -1.0, -1.0])
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
        # per edge its Laplacian cells uu, vv, uv, vu, in edge order, as
        # flat indices into one n x n matrix
        cells = np.stack([u, v, u, v], axis=2) * n + np.stack([u, v, v, u], axis=2)
        w = np.where(valid, 1.0, 0.0)
        live = np.array(idx)
        for _ in range(max_rounds):
            k = len(live)
            flat = cells + (np.arange(k) * (n * n))[:, None, None]
            lap = np.bincount(flat.ravel(), (w[:, :, None] * signs).ravel(),
                              minlength=k * n * n).reshape(k, n, n)
            inv = np.zeros((k, n, n))
            try:
                inv[:, :-1, :-1] = np.linalg.inv(lap[:, :-1, :-1])
            except np.linalg.LinAlgError as exc:
                raise NumericalBreakdown("singular weighted Laplacian minor") from exc
            # the ground row and column are zero: an edge at the ground
            # reads its other end's diagonal entry alone
            rows = np.arange(k)[:, None]
            reff = inv[rows, u, u] + inv[rows, v, v] - 2 * inv[rows, u, v]
            marg = w * reff
            if ((marg <= 0) & valid).any():
                raise NumericalBreakdown("nonpositive marginal during fitting")
            err = np.where(valid, np.abs(marg / t - 1.0), 0.0).max(axis=1)
            going = err > tol
            if not going.all():
                for b in np.flatnonzero(~going).tolist():
                    g = components[live[b]][0]
                    out[live[b]] = (w[b, :g.m].tolist(), float(err[b]))
                if not going.any():
                    break
                live, u, v, valid, t, cells, w, marg, err = (
                    a[going] for a in (live, u, v, valid, t, cells, w, marg, err))
            nw = w * (t / np.where(valid, marg, 1.0))
            w = nw / nw.max(axis=1, keepdims=True)
        else:
            raise NonConvergence(f"fit error {err[0]:.3e} after {max_rounds} rounds")
    return out


def maxent_fits(problems: Sequence[tuple[MultiGraph, Sequence[int], int]]
                ) -> list[MaxEntWeights]:
    """Fit weighted-uniform tree weights matching each problem's target
    marginals to ``FIT_TOLERANCE`` within ``FIT_MAX_ROUNDS`` rounds.  A
    problem is a graph and its targets as numerators in its edge order
    over one denominator (a state's ``interior_thirds`` over 3).  Every
    fit is planned first (contraction, tight-set factoring), then their
    components are fitted together, each distinct one (vertex count,
    endpoints and targets) once; a plan gets its components' weights under
    its own edge ids."""
    plans = [_plan_fit(g, row, den) for g, row, den in problems]
    index: dict[tuple, int] = {}
    todo: list[tuple[MultiGraph, tuple[float, ...]]] = []
    for p in plans:
        for g, targets in p.components:
            key = (g.n, g.endpoints, targets)
            if key not in index:
                index[key] = len(todo)
                todo.append((g, targets))
    fitted = _fit_components(todo, FIT_TOLERANCE, FIT_MAX_ROUNDS)

    def component(g: MultiGraph, targets: tuple[float, ...]) -> MaxEntComponent:
        weights, err = fitted[index[g.n, g.endpoints, targets]]
        return MaxEntComponent(g, dict(zip(g.edge_ids, weights)), err)

    return [MaxEntWeights(tuple(component(*c) for c in p.components), p.forced, p.zeros)
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
