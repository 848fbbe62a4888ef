"""Min-cut structure discovery: critical sets, the cut hierarchy, the cactus.

Every 4-regular 4-edge-connected multigraph decomposes into a rooted tree of
"critical" vertex sets (minimal proper tight sets not crossed by any other
proper tight set).  Contracting a node's children and its complement yields
its local multigraph, which is either a double cycle or has no proper
min-cuts.  The hierarchy encodes every min-cut of the graph: node cuts plus
contiguous-segment cuts of the cycle pieces.

A build lists the min-cuts of its input at most once, as vertex-mask
shores, and answers every later question from that list:
- the min-cuts of G/S are exactly the listed cuts that do not split S:
  contraction keeps those cuts at value 4 and makes no new one, since it
  cannot bring the connectivity below 4;
- a degree piece has no proper min-cut exactly when no listed cut has a
  side inside the critical set S with 2 to |S| - 1 vertices;
- the loop stops at the first double cycle without listing its cuts: on
  four or more vertices every proper tight set (a segment) is crossed by
  a shifted segment, and on three or fewer there is none, so no critical
  set is left.  A double-cycle input is never enumerated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from .errors import AssemblyError, ConnectivityError
from .graph import CutView, HalfIntegralInstance, MultiGraph, augment, bits, flow_arcs


# ---------------------------------------------------------------------------
# min-cut enumeration by unit max flows and residual closures
# ---------------------------------------------------------------------------

def _min_cut_shores(g: MultiGraph) -> list[int]:
    """The shores of all cuts of value 4, one per shore/complement pair, as
    vertex masks in the order found.  The shore is the side not containing
    vertex 0; the singleton cuts are included.

    Each cut is found once, at the smallest vertex t of its shore: with
    {0, ..., t-1} merged into the source, the cuts of value 4 between
    source and t are the residual-closed sets of a unit max flow of value 4
    (Picard and Queyranne, 1980).  Raises ConnectivityError when some flow
    is below 4.
    """
    n = g.n
    if n < 2:
        return []
    arcs = flow_arcs(n, g.endpoints)
    shores: list[int] = []
    for t in range(1, n):
        flow = [0] * g.m
        value = 0
        while value < 5:
            reached = augment(arcs, flow, (1 << t) - 1, t)
            if not (reached >> t) & 1:
                break
            value += 1
        if value < 4:
            raise ConnectivityError(
                f"flow {value} between vertex {t} and vertices 0..{t - 1}, expected 4"
            )
        if value == 4:
            shores += _closed_shores(arcs, flow, reached, t)
    return shores


def _closed_shores(arcs: list[list[tuple[int, int, int, int]]], flow: list[int],
                   reached: int, t: int) -> list[int]:
    """Shores, as vertex masks, of all minimum cuts between source and t.

    A source side is a minimum cut exactly when it holds what the source
    reaches, misses t, and no residual arc leaves it.  Branch on the free
    vertices in index order: "in" adds the vertex's forward residual
    closure to the source side, "out" adds its backward closure to the
    shore.  Neither closure can meet the other side, so every leaf is one
    cut.
    """
    n = len(arcs)
    succ = [0] * n
    pred = [0] * n
    for u in range(n):
        for pos, w, sign, limit in arcs[u]:
            if flow[pos] * sign < limit:
                succ[u] |= 1 << w
                pred[w] |= 1 << u
    full = (1 << n) - 1
    out = []
    stack = [(reached, _closure(pred, 0, 1 << t))]
    while stack:
        side, shore = stack.pop()
        free = full & ~(side | shore)
        if not free:
            out.append(shore)
            continue
        v = free & -free
        stack.append((side, _closure(pred, shore, v)))
        stack.append((_closure(succ, side, v), shore))
    return out


def _closure(nbrs: list[int], closed: int, start: int) -> int:
    """``closed`` plus every vertex that ``start`` reaches along the ``nbrs``
    masks; ``closed`` must already be closed under them."""
    seen = closed | start
    todo = list(bits(start))
    while todo:
        new = nbrs[todo.pop()] & ~seen
        seen |= new
        todo.extend(bits(new))
    return seen


def crossing(a: int, b: int, full: int) -> bool:
    """True when the vertex masks ``a`` and ``b`` cross inside ``full``:
    both differences, the intersection, and the outside are nonempty."""
    return bool(a & b and a & ~b and b & ~a and a | b != full)


def _critical_shore(g: MultiGraph, shores: list[int], root_vertex: int) -> Optional[int]:
    """Minimal proper tight set of the listed min-cut shores of ``g`` that
    none of them crosses, as a vertex mask; ties go to the smallest sorted
    original vertex ids.  None when every proper tight set is crossed (a
    double cycle) or none exists."""
    n = g.n
    full = (1 << n) - 1
    proper = [s for s in shores if 1 < s.bit_count() < n - 1]
    candidates = []
    for s in proper:
        # crossing is blind to complements, so test the side avoiding the root
        side = full ^ s if (s >> root_vertex) & 1 else s
        if not any(crossing(side, t, full) for t in proper):
            candidates.append(side)
    if not candidates:
        return None
    # a strict subset of s is s & c == c with c != s
    minimal = [s for s in candidates if not any(c != s and s & c == c for c in candidates)]

    def orig_key(s: int) -> list[int]:
        return sorted(v for idx in bits(s) for v in g.vertex_sets[idx])

    return min(minimal, key=orig_key)


def _contract(g: MultiGraph, shores: list[int], shore: int) -> tuple[MultiGraph, list[int]]:
    """G/S for S = ``shore``, and its min-cut shores: the listed cuts of G
    that do not split S, renumbered as ``MultiGraph.contract`` renumbers
    the vertices.  S avoids vertex 0, as every canonical shore does, so
    vertex 0 keeps its index and every kept shore stays canonical."""
    contracted, _ = g.contract(bits(shore))
    merged = 1 << (contracted.n - 1)
    removed = sorted(bits(shore), reverse=True)
    out = []
    for x in shores:
        inside = x & shore
        if inside and inside != shore:
            continue
        y = x & ~shore
        for p in removed:
            y = (y & ((1 << p) - 1)) | ((y >> (p + 1)) << p)
        out.append(y | merged if inside else y)
    return contracted, out


def _sides_inside(shores: list[int], shore: int) -> list[int]:
    """The min-cuts of the piece that contracts the complement of S =
    ``shore``, as their sides inside S: the listed cuts that do not split
    the complement.  S avoids vertex 0, so those are the canonical shores
    inside S."""
    return [x for x in shores if not x & ~shore]


# ---------------------------------------------------------------------------
# hierarchy data model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalMultigraph:
    """A node's neighbourhood graph: children and complement contracted.

    ``graph`` has the internal vertices first and the external vertex last.
    ``chain`` is the internal vertex order for cycle pieces (None for degree
    pieces).  ``root_pairs`` carries, for the topmost piece only, the two
    parallel pairs at the external vertex, as edge-id pairs.
    """

    graph: MultiGraph
    external_vertex: int
    child_map: tuple[Optional[int], ...]  # piece vertex -> node id (None for external)
    chain: Optional[tuple[int, ...]] = None
    root_pairs: Optional[tuple[tuple[int, int], tuple[int, int]]] = None

    @property
    def internal_vertices(self) -> list[int]:
        return [v for v in range(self.graph.n) if v != self.external_vertex]

    @property
    def boundary_vertices(self) -> list[int]:
        ext = self.external_vertex
        return sorted({self.graph.other_end(i, ext) for i in self.graph.incident(ext)})

    @property
    def external_edge_ids(self) -> list[int]:
        return sorted(self.graph.incident_ids(self.external_vertex))

    @property
    def internal_edge_ids(self) -> list[int]:
        ext = set(self.graph.incident_ids(self.external_vertex))
        return sorted(eid for eid in self.graph.edge_ids if eid not in ext)

    def internal_graph(self) -> tuple[MultiGraph, dict[int, int]]:
        """The piece without its external vertex, plus vertex renumbering."""
        graph, mapping = self._internal
        return graph, dict(mapping)

    @functools.cached_property
    def _internal(self) -> tuple[MultiGraph, dict[int, int]]:
        # built once: every shifted state of a degree piece shares it
        keep = self.internal_vertices
        mapping = {old: new for new, old in enumerate(keep)}
        edges = [
            (eid, mapping[u], mapping[v])
            for eid, (u, v) in zip(self.graph.edge_ids, self.graph.endpoints)
            if u != self.external_vertex and v != self.external_vertex
        ]
        sets = [self.graph.vertex_sets[old] for old in keep]
        return MultiGraph(len(keep), edges, sets), mapping

    @functools.cached_property
    def split_matchings(self) -> tuple:
        """(split piece, matching distribution) per split pairing of an odd
        piece, in ``pairings_of`` order; (None, distribution) alone for an
        even piece.  Built once, the split pieces' decompositions in one
        call: both sampler routes and the ``--dump-shift`` ledger of a
        degree piece share it."""
        from . import matching

        if self.graph.n % 2 == 0:
            return ((None, matching.decompose_matchings(self)),)
        splits = [matching.split_external(self, pairing)
                  for pairing in matching.pairings_of(self.external_edge_ids)]
        return tuple(zip(splits, matching.matching_distributions(splits)))

    def external_pairs(self) -> list[tuple[int, ...]]:
        """Parallel classes at the external vertex, as sorted edge-id tuples."""
        return list(self._external_pairs)

    def internal_pairs(self) -> list[tuple[int, int]]:
        """Partner edge-id pairs between consecutive chain vertices."""
        return list(self._internal_pairs)

    # built once: a compile reads them from every stage
    @functools.cached_property
    def _external_pairs(self) -> tuple[tuple[int, ...], ...]:
        if self.root_pairs is not None:
            return tuple(tuple(sorted(p)) for p in self.root_pairs)
        ext = self.external_vertex
        return tuple(tuple(sorted(self.graph.edge_ids[i] for i in pos))
                     for (a, b), pos in sorted(self.graph.parallel_classes().items())
                     if ext in (a, b))

    @functools.cached_property
    def _internal_pairs(self) -> tuple[tuple[int, int], ...]:
        if self.chain is None:
            return ()
        classes = {
            (min(a, b), max(a, b)): pos
            for (a, b), pos in self.graph.parallel_classes().items()
        }
        pairs = []
        for x, y in zip(self.chain, self.chain[1:]):
            pos = classes[(min(x, y), max(x, y))]
            pairs.append(tuple(sorted(self.graph.edge_ids[i] for i in pos)))
        return tuple(pairs)


@dataclass(frozen=True)
class HierarchyNode:
    """One node of the cut hierarchy."""

    node_id: int
    label: frozenset[int]
    kind: str  # 'degree' | 'cycle' | 'leaf'  (the root is a cycle node)
    children: tuple[int, ...]
    piece: Optional[LocalMultigraph]
    is_root: bool = False


@dataclass(frozen=True)
class CutHierarchy:
    instance: HalfIntegralInstance
    nodes: tuple[HierarchyNode, ...]
    root_id: int

    @property
    def root(self) -> HierarchyNode:
        return self.nodes[self.root_id]

    def non_leaves(self) -> list[HierarchyNode]:
        return [nd for nd in self.nodes if nd.kind != "leaf"]


# ---------------------------------------------------------------------------
# hierarchy construction
# ---------------------------------------------------------------------------

def _root_external_pairs(inst: HalfIntegralInstance, piece_graph: MultiGraph,
                         ext: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Split the four root edges into their two parallel pairs.

    When the terminal double cycle has three or more vertices the split is
    forced by the piece itself; on two vertices it falls back to the root
    triple's original endpoints, then to edge order.
    """
    ids = sorted(piece_graph.incident_ids(ext))
    if len(ids) != 4:
        raise AssemblyError(f"root piece's external vertex has degree {len(ids)}, expected 4")
    by_other: dict[int, list[int]] = {}
    root_orig = min(piece_graph.vertex_sets[ext])
    for eid in ids:
        u, v = inst.graph.endpoints[eid]
        other = v if u == root_orig else u
        by_other.setdefault(other, []).append(eid)
    groups = sorted(by_other.values())
    if len(groups) == 2 and all(len(g) == 2 for g in groups):
        return (tuple(groups[0]), tuple(groups[1]))
    return ((ids[0], ids[1]), (ids[2], ids[3]))


def _piece_from(inst: HalfIntegralInstance, current: MultiGraph, shore: int,
                node_ids: dict[frozenset[int], int], shores: Optional[list[int]],
                is_root: bool) -> tuple[LocalMultigraph, str]:
    """Contract the complement of ``shore`` and classify the piece; a piece
    that is not a double cycle is checked against ``shores``, the listed
    min-cuts of ``current``."""
    comp = ((1 << current.n) - 1) & ~shore
    if not comp:
        raise AssemblyError("piece must have an external side")
    # internal vertices in the order of their sorted original ids, then the
    # complement merged into the external vertex; edges keep their order
    internal = sorted(bits(shore), key=lambda v: sorted(current.vertex_sets[v]))
    ext = len(internal)
    renum = dict.fromkeys(bits(comp), ext)
    renum.update((v, i) for i, v in enumerate(internal))
    graph = MultiGraph(
        ext + 1,
        [
            (eid, renum[u], renum[v])
            for eid, (u, v) in zip(current.edge_ids, current.endpoints)
            if renum[u] != renum[v]
        ],
        [current.vertex_sets[v] for v in internal]
        + [frozenset().union(*(current.vertex_sets[v] for v in bits(comp)))],
    )
    child_map = tuple(
        node_ids[graph.vertex_sets[v]] if v != ext else None
        for v in range(graph.n)
    )

    cycle_order = graph.double_cycle_order()
    if cycle_order is not None:
        rot = cycle_order.index(ext)
        chain = tuple(cycle_order[rot + 1:] + cycle_order[:rot])
        chain = _canonical_chain(graph, chain)
        root_pairs = _root_external_pairs(inst, graph, ext) if is_root else None
        piece = LocalMultigraph(graph, ext, child_map, chain=chain, root_pairs=root_pairs)
        return piece, "cycle"

    size = shore.bit_count()
    if any(1 < side.bit_count() < size for side in _sides_inside(shores, shore)):
        raise AssemblyError(
            "piece is neither a double cycle nor free of proper min-cuts"
        )
    if graph.n < 5:
        raise AssemblyError("degree piece with fewer than five vertices")
    piece = LocalMultigraph(graph, ext, child_map)
    return piece, "degree"


def _canonical_chain(graph: MultiGraph, chain: tuple[int, ...]) -> tuple[int, ...]:
    if len(chain) < 2:
        return chain
    fwd = sorted(graph.vertex_sets[chain[0]])
    bwd = sorted(graph.vertex_sets[chain[-1]])
    return chain if fwd <= bwd else tuple(reversed(chain))


def build_hierarchy(inst: HalfIntegralInstance) -> CutHierarchy:
    """Run the contraction loop and assemble the hierarchy.

    Repeatedly contracts the minimal uncrossed proper tight set avoiding the
    root vertex; each such set becomes a node whose piece is the local
    multigraph at the moment of contraction.  The loop ends at the first
    double cycle, which becomes the root piece.  The min-cuts are listed
    once, on the first graph that is not a double cycle, and filtered after
    each contraction.
    """
    g0 = inst.graph
    if inst.strict:
        root_orig = 0
    elif g0.n == 2:
        root_orig = 0
    else:
        raise AssemblyError("hierarchy requires a strict instance")

    nodes: list[HierarchyNode] = []
    node_ids: dict[frozenset[int], int] = {}
    for v in range(g0.n):
        if v == root_orig:
            continue
        label = frozenset([v])
        node_ids[label] = len(nodes)
        nodes.append(HierarchyNode(len(nodes), label, "leaf", (), None))

    # the root stays vertex 0: no contracted shore holds it
    current = g0
    shores: Optional[list[int]] = None
    while current.double_cycle_order() is None:
        if shores is None:
            shores = _min_cut_shores(current)
        shore = _critical_shore(current, shores, 0)
        if shore is None:
            break
        piece, kind = _piece_from(inst, current, shore, node_ids, shores, is_root=False)
        label = frozenset().union(*(current.vertex_sets[v] for v in bits(shore)))
        children = tuple(
            piece.child_map[v] for v in piece.internal_vertices
        )
        node_ids[label] = len(nodes)
        nodes.append(HierarchyNode(len(nodes), label, kind, children, piece))
        current, shores = _contract(current, shores, shore)

    # the terminal graph must be a double cycle; it becomes the root piece
    shore = ((1 << current.n) - 1) & ~1
    piece, kind = _piece_from(inst, current, shore, node_ids, shores, is_root=True)
    if kind != "cycle":
        raise AssemblyError("terminal graph is not a double cycle")
    label = frozenset(range(g0.n)) - {root_orig}
    children = tuple(piece.child_map[v] for v in piece.internal_vertices)
    root_id = len(nodes)
    nodes.append(
        HierarchyNode(root_id, label, "cycle", children, piece, is_root=True)
    )
    h = CutHierarchy(inst, tuple(nodes), root_id)
    _check_hierarchy(h)
    return h


def _check_hierarchy(h: CutHierarchy) -> None:
    for nd in h.non_leaves():
        parts = [h.nodes[c].label for c in nd.children]
        union = frozenset().union(*parts)
        if union != nd.label or sum(len(p) for p in parts) != len(nd.label):
            raise AssemblyError(f"children of node {nd.node_id} do not partition it")
        g, ext = nd.piece.graph, nd.piece.external_vertex
        if any(d != 4 for d in g.degrees()):
            raise AssemblyError(f"piece of node {nd.node_id} is not 4-regular")
        allowed = {0, 2} if nd.kind == "cycle" else {0, 1}
        # a vertex's external edges are its edges to the external vertex
        pattern = [0] * g.n
        for pos in g.incident(ext):
            pattern[g.other_end(pos, ext)] += 1
        for v in nd.piece.internal_vertices:
            if pattern[v] not in allowed:
                raise AssemblyError(
                    f"boundary pattern {pattern[v]} not allowed at a {nd.kind} node"
                )


# ---------------------------------------------------------------------------
# min-cuts implied by the hierarchy
# ---------------------------------------------------------------------------

def _canonical_shore(shore: frozenset[int], n: int) -> frozenset[int]:
    return shore if 0 not in shore else frozenset(range(n)) - shore


def min_cuts_via_hierarchy(h: CutHierarchy) -> list[CutView]:
    """Every min-cut: node cuts plus chain-segment cuts of cycle pieces."""
    g = h.instance.graph
    seen: dict[frozenset[int], CutView] = {}

    def add(shore: frozenset[int]) -> None:
        shore = _canonical_shore(shore, g.n)
        cut = g.cut(shore)
        key = frozenset(cut.edge_ids)
        if key not in seen:
            if cut.value != 4:
                raise AssemblyError(f"hierarchy produced a non-minimum cut {sorted(shore)}")
            seen[key] = cut

    for nd in h.nodes:
        add(nd.label)
        if nd.kind == "cycle" and nd.piece is not None and nd.piece.chain:
            chain = nd.piece.chain
            labels = [nd.piece.graph.vertex_sets[v] for v in chain]
            for i in range(len(chain)):
                agg: set[int] = set()
                for j in range(i, len(chain)):
                    agg |= labels[j]
                    add(frozenset(agg))
    return sorted(seen.values(), key=lambda c: (len(c.shore), sorted(c.shore)))


# ---------------------------------------------------------------------------
# cactus representation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cactus:
    graph: MultiGraph
    phi: dict[int, int]  # original vertex -> cactus vertex
    cycles: tuple[tuple[int, ...], ...]  # edge-id groups, one per cycle


def build_cactus(h: CutHierarchy) -> Cactus:
    """Cactus whose min-cuts pull back to exactly the graph's min-cuts.

    Cycle nodes contribute a cycle through themselves and their children in
    chain order; degree nodes contribute a two-edge cycle to each child.
    """
    vert_of_node = {nd.node_id: i for i, nd in enumerate(h.nodes)}
    nvert = len(h.nodes)
    edges: list[tuple[int, int, int]] = []
    cycles: list[tuple[int, ...]] = []
    eid = 0

    def new_edge(a: int, b: int) -> int:
        nonlocal eid
        edges.append((eid, a, b))
        eid += 1
        return eid - 1

    for nd in h.non_leaves():
        me = vert_of_node[nd.node_id]
        if nd.kind == "cycle":
            ring = [vert_of_node[h.nodes[nd.piece.child_map[v]].node_id]
                    for v in nd.piece.chain]
            ring = [me] + ring
            cyc = []
            for a, b in zip(ring, ring[1:] + ring[:1]):
                cyc.append(new_edge(a, b))
            cycles.append(tuple(cyc))
        else:
            for c in nd.children:
                child = vert_of_node[c]
                cyc = (new_edge(me, child), new_edge(me, child))
                cycles.append(cyc)

    graph = MultiGraph(nvert, edges, [frozenset([i]) for i in range(nvert)])
    phi: dict[int, int] = {}
    root_orig = 0
    for nd in h.nodes:
        if nd.kind == "leaf":
            phi[min(nd.label)] = vert_of_node[nd.node_id]
    phi[root_orig] = vert_of_node[h.root_id]
    return Cactus(graph, phi, tuple(cycles))
