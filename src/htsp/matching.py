"""Perfect-matching layer of the piece samplers.

For an even piece: draw a perfect matching with exact quarter marginals,
pick an induced sub-matching by 7-coloring the matching-contracted graph,
and shift the half marginals to one on matched edges and one third
elsewhere.  Odd pieces first split the external vertex into two, then
repair the shifted interior vector by a local one-third increase or
decrease so it lands back in the spanning-tree polytope.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .decomp import DecompositionFailure, DecompositionShape, DecompositionState, decompose
from .errors import ColoringOverflow, InfeasibleShift, NoPerfectMatching
from .graph import MultiGraph, bits
from .hierarchy import LocalMultigraph
from .params import HALF, QUARTER

THIRD = Fraction(1, 3)

SPLIT_EDGE_A, SPLIT_EDGE_B = -1, -2  # synthetic ids for the added parallel pair


def _graph_of(piece) -> MultiGraph:
    return piece if isinstance(piece, MultiGraph) else piece.graph


# ---------------------------------------------------------------------------
# enumeration and exact decomposition
# ---------------------------------------------------------------------------

def enumerate_perfect_matchings(g: MultiGraph) -> list[int]:
    """All perfect matchings as bitmasks over edge positions."""
    if g.n % 2:
        return []
    out: list[int] = []

    def rec(covered: int, mask: int, v: int) -> None:
        while v < g.n and (covered >> v) & 1:
            v += 1
        if v == g.n:
            out.append(mask)
            return
        for i in g.incident(v):
            w = g.other_end(i, v)
            if not (covered >> w) & 1:
                rec(covered | (1 << v) | (1 << w), mask | (1 << i), v + 1)

    rec(0, 0, 0)
    return sorted(out)


def _odd_set_lower_constraints(g: MultiGraph) -> list[tuple[int, int]]:
    """Boundary masks of odd vertex sets, one per complement pair: the sets
    without vertex n - 1, in ascending order of their vertex masks.  Each
    edge's bit is set on every set it crosses at once, in 64-edge words."""
    sets = np.arange(1, 1 << (g.n - 1), dtype=np.int64)
    sets = sets[(np.bitwise_count(sets) & 1) == 1]
    words = np.zeros(((g.m + 63) // 64, len(sets)), dtype=np.uint64)
    for i, (u, v) in enumerate(g.endpoints):
        crosses = ((sets >> u) ^ (sets >> v)) & 1
        words[i // 64] |= crosses.astype(np.uint64) << np.uint64(i % 64)
    rows = words.tolist()
    masks = rows[0] if rows else [0] * len(sets)
    for w, word in enumerate(rows[1:], 1):
        masks = [mk | (x << (64 * w)) for mk, x in zip(masks, word)]
    return [(mk, 1) for mk in masks]


@dataclass(frozen=True)
class MatchingDistribution:
    """Exact convex combination of perfect matchings with quarter marginals."""

    graph: MultiGraph
    masks: tuple[int, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if not all(w > 0 for w in self.weights):
            raise NoPerfectMatching("matching weights must be positive")
        if sum(self.weights, Fraction(0)) != 1:
            raise NoPerfectMatching("matching weights do not sum to 1")
        if all(d == 4 for d in self.graph.degrees()):
            for pos in range(self.graph.m):
                mass = sum(
                    w for mk, w in zip(self.masks, self.weights) if (mk >> pos) & 1
                )
                if mass != QUARTER:
                    raise NoPerfectMatching(f"edge position {pos} has mass {mass}")


def decompose_matchings(piece: Union[LocalMultigraph, MultiGraph]) -> MatchingDistribution:
    """Exact quarter-mass decomposition over all perfect matchings."""
    (dist,) = matching_distributions([piece])
    return dist


def matching_distributions(pieces: Sequence[Union[LocalMultigraph, MultiGraph]]
                           ) -> list[MatchingDistribution]:
    """Each piece's exact quarter-mass decomposition over all its perfect
    matchings, all of them in one ``decompose`` call; the first piece that
    fails raises its ``NoPerfectMatching``."""
    graphs = [_graph_of(p) for p in pieces]
    # per piece its shape, or the failure it raises after the pieces before it
    shapes: list = []
    jobs = []
    for g in graphs:
        if g.n % 2:
            shapes.append(NoPerfectMatching("odd vertex count"))
            continue
        matchings = enumerate_perfect_matchings(g)
        if not matchings:
            shapes.append(NoPerfectMatching("piece has no perfect matching"))
            continue
        try:
            shapes.append(DecompositionShape(matchings, g.m,
                                             lower=_odd_set_lower_constraints(g)))
        except DecompositionFailure as exc:
            shapes.append(exc)
            continue
        jobs.append((shapes[-1], DecompositionState.of((QUARTER,) * g.m)))
    results = iter(decompose(jobs))
    out = []
    for g, shape in zip(graphs, shapes):
        if isinstance(shape, NoPerfectMatching):
            raise shape
        res = shape if isinstance(shape, DecompositionFailure) else next(results)
        if isinstance(res, DecompositionFailure):
            raise NoPerfectMatching(f"quarter-mass decomposition failed: {res}") from res
        w = {shape.cands[i]: Fraction(k, res.denominator)
             for i, k in zip(res.order, res.numerators)}
        masks = tuple(sorted(w))
        out.append(MatchingDistribution(g, masks, tuple(w[mk] for mk in masks)))
    return out


# ---------------------------------------------------------------------------
# induced sub-matching via 7-coloring
# ---------------------------------------------------------------------------

def seven_coloring(g: MultiGraph, matching_mask: int) -> list[list[int]]:
    """Color matched edges so no other edge touches two of one color.

    Contracting the matching leaves a 6-regular multigraph, so greedy
    coloring in edge order needs at most 7 colors.  Always returns exactly
    7 classes (some may be empty) of edge positions.
    """
    matched = [i for i in range(g.m) if (matching_mask >> i) & 1]
    owner: dict[int, int] = {}
    for i in matched:
        u, v = g.endpoints[i]
        owner[u] = i
        owner[v] = i
    adjacency: dict[int, set[int]] = {i: set() for i in matched}
    for j in range(g.m):
        if (matching_mask >> j) & 1:
            continue
        u, v = g.endpoints[j]
        a, b = owner[u], owner[v]
        if a != b:
            adjacency[a].add(b)
            adjacency[b].add(a)
    color: dict[int, int] = {}
    for i in matched:
        used = {color[j] for j in adjacency[i] if j in color}
        c = next(c for c in range(8) if c not in used)
        if c > 6:
            raise ColoringOverflow("greedy coloring needed more than 7 colors")
        color[i] = c
    classes: list[list[int]] = [[] for _ in range(7)]
    for i in matched:
        classes[color[i]].append(i)
    return classes


# ---------------------------------------------------------------------------
# shifted solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShiftedSolution:
    """Piece marginals after the matching shift (and odd surgery, if any).

    Every value is a multiple of one third (one on a matched edge, one third
    elsewhere, a surgery moving one edge by a third), so a state keeps its
    values as integer thirds: ``thirds`` per edge of its sampling graph
    ``graph``, and ``interior_thirds`` per edge of ``interior_graph``, each
    in its graph's edge order.  ``parts`` are the partition-matroid classes
    restricted to internal edges; each carries capacity one.
    """

    graph: MultiGraph
    thirds: tuple[int, ...]
    interior_graph: MultiGraph
    interior_thirds: tuple[int, ...]
    parts: tuple[tuple[int, ...], ...]
    matching_mask: int
    submatching_mask: int
    #: (kind, trigger, adjusted, dropped) of an odd piece's surgery branch
    surgery: Optional[tuple] = None
    #: an odd piece's split pairing
    pairing: Optional[tuple] = None


def provenance(g: MultiGraph, matching_mask: int, submatching_mask: int,
               surgery: Optional[tuple], pairing: Optional[tuple]) -> dict:
    """A walk step's ledger: the matching and sub-matching as edge ids of
    its sampling graph ``g``, the surgery branch and, on an odd piece, the
    split pairing."""
    out = {
        "matching": tuple(sorted(g.edge_ids[i] for i in bits(matching_mask))),
        "submatching": tuple(sorted(g.edge_ids[i] for i in bits(submatching_mask))),
        "surgery": surgery,
    }
    if pairing is not None:
        out["pairing"] = pairing
    return out


def _parts_from_submatching(g: MultiGraph, internal_ids: set[int],
                            submatching_mask: int) -> tuple[tuple[int, ...], ...]:
    parts = []
    for i in range(g.m):
        if not (submatching_mask >> i) & 1:
            continue
        for w in g.endpoints[i]:
            part = tuple(
                sorted(
                    g.edge_ids[j]
                    for j in g.incident(w)
                    if j != i and g.edge_ids[j] in internal_ids
                )
            )
            if part:
                parts.append(part)
    return tuple(sorted(parts))


def _interior_at(g: MultiGraph, interior_graph: MultiGraph) -> tuple[int, ...]:
    """The position in ``g`` of each edge of ``interior_graph``, in its order."""
    at = {eid: i for i, eid in enumerate(g.edge_ids)}
    return tuple(at[eid] for eid in interior_graph.edge_ids)


def _shifted(g: MultiGraph, interior_graph: MultiGraph, interior_at: tuple[int, ...],
             parts: tuple[tuple[int, ...], ...], matching_mask: int, submatching_mask: int,
             surgery: Optional[tuple] = None, move: int = 0,
             pairing: Optional[tuple] = None) -> ShiftedSolution:
    """Three thirds on matched edges, one elsewhere, plus ``move`` thirds on
    the surgery's adjusted edge; ``interior_at`` is ``_interior_at(g,
    interior_graph)``."""
    thirds = [1] * g.m
    for i in bits(matching_mask):
        thirds[i] = 3
    if surgery is not None:
        thirds[g.edge_index(surgery[2])] += move
    return ShiftedSolution(g, tuple(thirds), interior_graph,
                           tuple([thirds[i] for i in interior_at]),
                           parts, matching_mask, submatching_mask, surgery, pairing)


# ---------------------------------------------------------------------------
# odd pieces: split and surgery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitPiece:
    """Even companion of an odd piece: external vertex split into two.

    The graph keeps interior vertices first, then the two new external
    vertices; the added parallel pair carries synthetic negative ids.
    ``interior_cut_ids`` are the four original external edge ids.
    """

    base: LocalMultigraph
    graph: MultiGraph
    pairing: tuple[tuple[int, int], tuple[int, int]]
    interior_cut_ids: tuple[int, ...]

    @property
    def interior_vertex_count(self) -> int:
        return self.graph.n - 2

    def internal_edge_ids(self) -> list[int]:
        return list(self._internal_ids)

    def interior_graph(self) -> MultiGraph:
        return self._interior_graph

    @functools.cached_property
    def interior_at(self) -> tuple[int, ...]:
        """The position in ``graph`` of each interior edge, in the interior
        graph's order."""
        return _interior_at(self.graph, self._interior_graph)

    # built once per split piece: every surgery state shares them
    @functools.cached_property
    def _internal_ids(self) -> tuple[int, ...]:
        ext = set(self.interior_cut_ids) | {SPLIT_EDGE_A, SPLIT_EDGE_B}
        return tuple(sorted(e for e in self.graph.edge_ids if e not in ext))

    @functools.cached_property
    def _interior_graph(self) -> MultiGraph:
        k = self.interior_vertex_count
        internal = set(self._internal_ids)
        edges = [
            (eid, u, v)
            for eid, (u, v) in zip(self.graph.edge_ids, self.graph.endpoints)
            if eid in internal
        ]
        return MultiGraph(k, edges, self.graph.vertex_sets[:k])

    def parts(self, submatching_mask: int) -> tuple[tuple[int, ...], ...]:
        """The parts of a sub-matching, as an even piece's are built; built once
        per sub-matching, as every surgery branch of a state reads them."""
        if submatching_mask not in self._parts:
            self._parts[submatching_mask] = _parts_from_submatching(
                self.graph, set(self.internal_edge_ids()), submatching_mask)
        return self._parts[submatching_mask]

    @functools.cached_property
    def _parts(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        return {}

    def boundary_vertex_of(self, eid: int) -> int:
        pos = self.graph.edge_index(eid)
        u, v = self.graph.endpoints[pos]
        return u if u < self.interior_vertex_count else v


def pairings_of(ids: Sequence[int]) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    a, b, c, d = sorted(ids)
    return [((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))]


def split_external(piece: LocalMultigraph,
                   pairing: tuple[tuple[int, int], tuple[int, int]]) -> SplitPiece:
    """Replace the external vertex by two, each taking one pair of its edges."""
    interior, mapping = piece.internal_graph()
    k = interior.n
    r1, r2 = k, k + 1
    edges = [(eid, u, v) for eid, (u, v) in zip(interior.edge_ids, interior.endpoints)]
    ext_ids = piece.external_edge_ids
    side = {eid: r1 for eid in pairing[0]}
    side.update({eid: r2 for eid in pairing[1]})
    g = piece.graph
    for eid in ext_ids:
        pos = g.edge_index(eid)
        u, v = g.endpoints[pos]
        inner = u if u != piece.external_vertex else v
        edges.append((eid, mapping[inner], side[eid]))
    edges.append((SPLIT_EDGE_A, r1, r2))
    edges.append((SPLIT_EDGE_B, r1, r2))
    sets = list(interior.vertex_sets) + [frozenset(), frozenset()]
    return SplitPiece(
        base=piece,
        graph=MultiGraph(k + 2, edges, sets),
        pairing=pairing,
        interior_cut_ids=tuple(sorted(ext_ids)),
    )


def surgery_options(split: SplitPiece, matching_mask: int) -> list[tuple]:
    """All (kind, trigger edge, adjusted edge) branches with their weights.

    Decrease branches pick any of the four interior-cut edges and any of
    the three internal edges at its boundary endpoint.  Increase branches
    pick one of the two matched interior-cut edges instead.  Weights are
    exact probabilities conditioned on the matching.
    """
    g = split.graph
    matched_ids = {g.edge_ids[i] for i in bits(matching_mask)}
    cut_in_m = sorted(set(split.interior_cut_ids) & matched_ids)
    branches = []
    if not cut_in_m:
        pool = sorted(split.interior_cut_ids)
        p_e = QUARTER
        kind = "decrease"
    else:
        if len(cut_in_m) != 2:
            raise InfeasibleShift(
                f"matching crosses the interior cut {len(cut_in_m)} times, not 0 or 2"
            )
        pool = cut_in_m
        p_e = HALF
        kind = "increase"
    internal = set(split.internal_edge_ids())
    share = p_e * THIRD
    for eid in pool:
        u = split.boundary_vertex_of(eid)
        adj = sorted(
            g.edge_ids[j] for j in g.incident(u) if g.edge_ids[j] in internal
        )
        if len(adj) != 3:
            raise InfeasibleShift(
                f"boundary vertex {u} has {len(adj)} internal edges, not 3"
            )
        for f in adj:
            branches.append((kind, eid, f, share))
    return branches


def surgery_drops(split: SplitPiece, submatching_mask: int, kind: str,
                  adjusted: int) -> tuple[Optional[int], ...]:
    """The part member a surgery branch drops, one choice per equal share
    of the branch's weight.  An increase on an edge of a three-edge part
    drops either other member, so the surviving pair is tight at one; any
    other branch drops nothing (``None``).  Only an increase reads the
    parts."""
    if kind != "increase":
        return (None,)
    home = [p for p in split.parts(submatching_mask) if adjusted in p]
    if home and len(home[0]) == 3:
        return tuple(e for e in home[0] if e != adjusted)
    return (None,)


#: the thirds a surgery branch moves its adjusted edge by, per kind
SURGERY_MOVE = {"decrease": -1, "increase": 1}


def surgery_parts(split: SplitPiece, submatching_mask: int, adjusted: int,
                  dropped: Optional[int]) -> tuple[tuple[int, ...], ...]:
    """The parts of a surgery branch: the sub-matching's, less the member
    ``dropped`` from the part holding ``adjusted``."""
    parts = split.parts(submatching_mask)
    if dropped is None:
        return parts
    return tuple(sorted(tuple(e for e in p if e != dropped) if adjusted in p else p
                        for p in parts))
