"""Single-draw samplers and the per-node restriction that only tests use.

The package samples from compiled piece distributions; these walk the
generative steps one draw at a time (a matching, a color class, a pairing,
a surgery branch, a tree by sequential conditioning) so the tests can
check each step's law against the compiled one, and the ledger of
``htsp sample --dump-shift`` against the walk's joint law.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

import htsp.matching as matching
from htsp.errors import InfeasibleShift, NumericalBreakdown
from htsp.graph import MultiGraph, bits
from htsp.hierarchy import CutHierarchy, LocalMultigraph
from htsp.matching import (
    MatchingDistribution,
    ShiftedSolution,
    SplitPiece,
    _graph_of,
    _parts_from_submatching,
    decompose_matchings,
    pairings_of,
    seven_coloring,
    split_external,
)
from htsp.trees import MaxEntComponent, MaxEntWeights, k5_paths
from tests.reference import (
    apply_surgery,
    constrained_tree_distribution,
    interior_values,
    matrix_tree_marginals,
    maxent_tree_distribution,
    per_component_maxent_fit,
    shift,
    state_provenance,
)

MARGINAL_GUARD = 1e-9


# ---------------------------------------------------------------------------
# matchings
# ---------------------------------------------------------------------------

def sample_matching(dist: MatchingDistribution, rng: np.random.Generator) -> int:
    """Draw a matching bitmask with the distribution's listed weights, by
    the search a guide-table lookup matches."""
    cdf = np.cumsum(np.array([float(w) for w in dist.weights]))
    i = int(np.searchsorted(cdf, rng.random(), side="right"))
    return dist.masks[min(i, len(dist.masks) - 1)]


def select_submatching(piece: Union[LocalMultigraph, MultiGraph], matching_mask: int,
                       rng: np.random.Generator) -> int:
    """Uniformly chosen color class of the matching, as a bitmask."""
    g = _graph_of(piece)
    classes = seven_coloring(g, matching_mask)
    chosen = classes[int(rng.integers(0, 7))]
    mask = 0
    for i in chosen:
        mask |= 1 << i
    return mask


def odd_split(piece: LocalMultigraph, rng: np.random.Generator) -> SplitPiece:
    """Split with one of the three pairings of the external edges, uniformly."""
    options = pairings_of(piece.external_edge_ids)
    return split_external(piece, options[int(rng.integers(0, 3))])


def surgery_draw(split: SplitPiece, matching_mask: int, submatching_mask: int,
                 rng: np.random.Generator) -> ShiftedSolution:
    """A surgery branch drawn step by step: a trigger among the interior-cut
    edges (the two matched ones for an increase, all four for a decrease),
    an adjusted edge at its boundary vertex, and for an increase into a
    three-edge part the member it drops, each uniformly."""
    g = split.graph
    internal = set(split.internal_edge_ids())
    matched = {g.edge_ids[i] for i in bits(matching_mask)}
    pool = sorted(set(split.interior_cut_ids) & matched)
    kind = "increase" if pool else "decrease"
    pool = pool or sorted(split.interior_cut_ids)
    trigger = pool[int(rng.integers(0, len(pool)))]
    u = split.boundary_vertex_of(trigger)
    adj = sorted(g.edge_ids[j] for j in g.incident(u) if g.edge_ids[j] in internal)
    adjusted = adj[int(rng.integers(0, 3))]
    dropped = None
    if kind == "increase":
        parts = _parts_from_submatching(g, internal, submatching_mask)
        home = [p for p in parts if adjusted in p]
        if home and len(home[0]) == 3:
            others = [e for e in home[0] if e != adjusted]
            dropped = others[int(rng.integers(0, 2))]
    return apply_surgery(split, matching_mask, submatching_mask, kind,
                         trigger, adjusted, dropped)


def odd_surgery(split: SplitPiece, matching_mask: int, submatching_mask: int,
                rng: np.random.Generator) -> ShiftedSolution:
    """A surgery branch drawn by index into ``surgery_options``' list: a
    trigger edge, then one of the three adjusted edges at its boundary
    vertex, then one of the branch's drops, each uniformly; the stream is
    read as ``surgery_draw`` reads it."""
    branches = matching.surgery_options(split, matching_mask)
    kinds = {b[0] for b in branches}
    if len(kinds) != 1:
        raise InfeasibleShift(f"surgery branches of kinds {sorted(kinds)}, not one")
    # three branches per trigger, in trigger order
    i = int(rng.integers(0, len(branches) // 3))
    kind, trigger, adjusted, _ = branches[3 * i + int(rng.integers(0, 3))]
    drops = matching.surgery_drops(split, submatching_mask, kind, adjusted)
    dropped = drops[int(rng.integers(0, 2))] if len(drops) == 2 else None
    return apply_surgery(split, matching_mask, submatching_mask, kind,
                         trigger, adjusted, dropped)


def degree_piece_draw(piece: LocalMultigraph, maxent_share: float,
                      rng: np.random.Generator, memo: Optional[dict] = None
                      ) -> tuple[frozenset[int], dict]:
    """One degree-piece tree and its provenance, every step drawn here: the
    route, the pairing of an odd piece, a matching, the color class on the
    matroid route, the surgery branch, and the tree by a search of the
    state's cdf.  ``memo``, if given, keeps each split's matchings and each
    state's tree law for the next draws; the stream is read alike."""
    memo = {} if memo is None else memo
    use_maxent = bool(rng.random() < maxent_share)
    odd = piece.graph.n % 2 == 1
    split = odd_split(piece, rng) if odd else None
    key = split.pairing if odd else None
    if key not in memo:
        memo[key] = (split, decompose_matchings(split or piece))
    split, dist = memo[key]
    mk = sample_matching(dist, rng)
    sub = 0 if use_maxent else select_submatching(split or piece, mk, rng)
    shifted = surgery_draw(split, mk, sub, rng) if odd else shift(piece, mk, sub)
    key = (use_maxent, tuple(interior_values(shifted).items()), shifted.parts)
    if use_maxent:
        if key not in memo:
            fit = per_component_maxent_fit(shifted.interior_graph, interior_values(shifted))
            trees, probs = maxent_tree_distribution(fit)
            memo[key] = trees, np.cumsum(probs)
        trees, cdf = memo[key]
        i = int(np.searchsorted(cdf, rng.random(), side="right"))
        tree = trees[min(i, len(trees) - 1)]
    else:
        if key not in memo:
            memo[key] = constrained_tree_distribution(shifted)
        tree = memo[key].sample(rng)
    return tree, dict(state_provenance(shifted), mode="maxent" if use_maxent else "mi")


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------

def mi_sample(shifted: ShiftedSolution, rng: np.random.Generator) -> frozenset[int]:
    """One tree from the exact constrained decomposition."""
    return constrained_tree_distribution(shifted).sample(rng)


def _sample_component(c: MaxEntComponent, rng: np.random.Generator) -> set[int]:
    """Sequential conditioning: decide each edge from its conditional marginal."""
    g = c.graph
    chosen: set[int] = set()
    cur = g
    for eid in sorted(c.weights):
        if eid not in cur.edge_ids:
            continue
        if cur.n == 1:
            break
        w = [c.weights[e] for e in cur.edge_ids]
        pos = cur.edge_index(eid)
        p = float(matrix_tree_marginals(cur, w)[pos])
        if p < -MARGINAL_GUARD or p > 1 + MARGINAL_GUARD:
            raise NumericalBreakdown(f"conditional marginal {p} for edge {eid}")
        take = True if p >= 1 - 1e-12 else (False if p <= 1e-12 else rng.random() < p)
        u, v = cur.endpoints[pos]
        if take:
            chosen.add(eid)
            merged, _ = cur.contract({u, v})
            # the contracted edge disappears; parallels to it survive
            cur = merged
        else:
            cur = MultiGraph(
                cur.n,
                [
                    (e, a, b)
                    for e, (a, b) in zip(cur.edge_ids, cur.endpoints)
                    if e != eid
                ],
                cur.vertex_sets,
            )
    return chosen


def maxent_sample(fit: MaxEntWeights, rng: np.random.Generator) -> frozenset[int]:
    """One tree: forced edges plus independent component samples."""
    out: set[int] = set(fit.forced)
    for c in fit.components:
        out |= _sample_component(c, rng)
    return frozenset(out)


def sample_double_cycle(piece: LocalMultigraph, rng: np.random.Generator) -> frozenset[int]:
    """One edge from each partner pair of the chain, independently."""
    pairs = piece.internal_pairs()
    picks = rng.integers(0, 2, size=len(pairs))
    return frozenset(pair[int(k)] for pair, k in zip(pairs, picks))


def sample_k5_path(piece: LocalMultigraph, rng: np.random.Generator) -> frozenset[int]:
    """Uniformly random Hamiltonian path on the four interior vertices."""
    paths = k5_paths(piece)
    mask = int(paths[int(rng.integers(0, len(paths)))])
    return frozenset(piece.internal_graph()[0].edge_ids[i] for i in bits(mask))


# ---------------------------------------------------------------------------
# hierarchy nodes
# ---------------------------------------------------------------------------

def restrict(h: CutHierarchy, sample_edges: frozenset[int], node_id: int
             ) -> tuple[frozenset[int], dict[int, int]]:
    """Edges of the sample inside a node's piece, and piece-vertex parities."""
    nd = h.nodes[node_id]
    if nd.piece is None:
        return frozenset(), {}
    g = nd.piece.graph
    local = frozenset(eid for eid in g.edge_ids if eid in sample_edges)
    parity = {}
    for v in range(g.n):
        parity[v] = sum(1 for eid in g.incident_ids(v) if eid in local) % 2
    return local, parity
