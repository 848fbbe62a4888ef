"""Multigraph primitives and validated half-integral TSP instances.

The support graph of a half-integral subtour-elimination solution (after
doubling integral edges) is a 4-regular, 4-edge-connected multigraph with
one half unit on every edge.  Everything downstream works on contractions
of that graph, so edge identities must survive contraction: every edge
carries a stable integer id assigned in file order and never renumbered.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    ConnectivityError,
    DegreeError,
    EmptyShore,
    FullShore,
    ParseError,
    SpecialTripleError,
)


def bits(mask: int):
    """Positions of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def lcm_denominator(values: Iterable[Fraction]) -> int:
    """The least common denominator of exact rationals: one lcm over their
    distinct denominators."""
    return math.lcm(*{v.denominator for v in values})


def in_units(value: Fraction, denom: int) -> int:
    """An exact rational in units of 1/``denom``, which its denominator
    divides: the one home of that scaling."""
    return value.numerator * (denom // value.denominator)


def find_root(parent: list[int], x: int) -> int:
    """Root of x in a union-find parent list, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


@dataclass(frozen=True)
class CutView:
    """Edges of a cut, its shore, and its size (x-value is half the size)."""

    shore: frozenset[int]
    edge_ids: tuple[int, ...]
    value: int


class MultiGraph:
    """Immutable multigraph with stable edge ids and contraction bookkeeping.

    Vertices are 0..n-1.  ``vertex_sets[v]`` is the set of original vertex
    ids merged into v; for an uncontracted graph these are singletons.
    Parallel edges are distinct entries; self-loops are never stored.
    """

    __slots__ = ("n", "edge_ids", "endpoints", "vertex_sets", "_adj", "_cycle_order")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int, int]],
        vertex_sets: Sequence[frozenset[int]] | None = None,
    ):
        self.n = n
        edges = tuple(edges)
        self.edge_ids = tuple(e[0] for e in edges)
        self.endpoints = tuple((e[1], e[2]) for e in edges)
        for eid, (u, v) in zip(self.edge_ids, self.endpoints):
            if u == v:
                raise ValueError(f"self-loop on vertex {u} (edge {eid})")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {eid} endpoint out of range")
        if vertex_sets is None:
            vertex_sets = tuple(frozenset([v]) for v in range(n))
        self.vertex_sets = tuple(vertex_sets)
        adj: list[list[int]] = [[] for _ in range(n)]
        for i, (u, v) in enumerate(self.endpoints):
            adj[u].append(i)
            adj[v].append(i)
        self._adj = tuple(tuple(a) for a in adj)
        # the walk of ``double_cycle_order``, taken on its first call
        self._cycle_order: tuple[int, ...] | None | bool = False

    # -- basic queries ---------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edge_ids)

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def degrees(self) -> list[int]:
        return [len(a) for a in self._adj]

    def incident(self, v: int) -> tuple[int, ...]:
        """Positions (not ids) of edges incident to v."""
        return self._adj[v]

    def incident_ids(self, v: int) -> list[int]:
        return [self.edge_ids[i] for i in self._adj[v]]

    def edge_index(self, eid: int) -> int:
        return self.edge_ids.index(eid)

    def other_end(self, pos: int, v: int) -> int:
        u, w = self.endpoints[pos]
        return w if u == v else u

    def cut(self, shore: Iterable[int]) -> CutView:
        """All edges with exactly one endpoint in the shore."""
        s = frozenset(shore)
        if not s:
            raise EmptyShore("cut shore is empty")
        if len(s) >= self.n:
            raise FullShore("cut shore covers every vertex")
        ids = tuple(
            eid
            for eid, (u, v) in zip(self.edge_ids, self.endpoints)
            if (u in s) != (v in s)
        )
        return CutView(shore=s, edge_ids=ids, value=len(ids))

    # -- contraction -----------------------------------------------------

    def contract(self, shore: Iterable[int]) -> tuple["MultiGraph", dict[int, int]]:
        """Merge the shore into one vertex, drop self-loops, keep edge ids.

        Returns the contracted graph and the old-vertex -> new-vertex map.
        """
        s = frozenset(shore)
        if not s:
            raise EmptyShore("contraction shore is empty")
        keep = [v for v in range(self.n) if v not in s]
        mapping: dict[int, int] = {}
        for new, old in enumerate(keep):
            mapping[old] = new
        merged = len(keep)
        for v in s:
            mapping[v] = merged
        new_sets = [self.vertex_sets[old] for old in keep]
        new_sets.append(frozenset().union(*(self.vertex_sets[v] for v in sorted(s))))
        new_edges = []
        for eid, (u, v) in zip(self.edge_ids, self.endpoints):
            nu, nv = mapping[u], mapping[v]
            if nu != nv:
                new_edges.append((eid, nu, nv))
        return MultiGraph(merged + 1, new_edges, new_sets), mapping

    # -- recognizers -----------------------------------------------------

    def parallel_classes(self) -> dict[tuple[int, int], list[int]]:
        """Edge positions grouped by unordered endpoint pair."""
        classes: dict[tuple[int, int], list[int]] = {}
        for i, (u, v) in enumerate(self.endpoints):
            key = (u, v) if u < v else (v, u)
            classes.setdefault(key, []).append(i)
        return classes

    def double_cycle_order(self) -> tuple[int, ...] | None:
        """Vertex order of the cycle if this is a double cycle, else None.

        A double cycle is a cycle with every edge doubled.  The degenerate
        two-vertex form (four parallel edges) is accepted; its pair split
        is up to the caller.  The graph is walked once, on the first call.
        """
        if self._cycle_order is False:
            self._cycle_order = self._walk_double_cycle()
        return self._cycle_order

    def _walk_double_cycle(self) -> tuple[int, ...] | None:
        n = self.n
        if n < 2 or any(len(a) != 4 for a in self._adj):
            return None
        if n == 2:
            return (0, 1)  # four parallel edges
        # each vertex's two neighbours, each joined to it by two edges: an
        # edge's end sum less v is its end other than v
        sums = [u + w for u, w in self.endpoints]
        nbrs = []
        for v, (p, q, r, s) in enumerate(self._adj):
            a, b, c, d = sorted((sums[p], sums[q], sums[r], sums[s]))
            if a != b or c != d or b == c:
                return None
            nbrs.append((a - v, c - v))
        # walk the cycle of parallel pairs from 0, lower neighbour first
        order = [0]
        prev, cur = 0, nbrs[0][0]
        while cur:
            order.append(cur)
            a, c = nbrs[cur]
            prev, cur = cur, c if a == prev else a
        return tuple(order) if len(order) == n else None

    # -- connectivity ----------------------------------------------------

    def edge_connectivity(self) -> int:
        """Global edge connectivity: the least unit max flow from vertex 0
        to another vertex.  No flow needs to pass the least value found so
        far, which starts at the minimum degree."""
        if self.n < 2:
            return 0
        arcs = flow_arcs(self.n, self.endpoints)
        best = min(self.degrees())
        for t in range(1, self.n):
            flow = [0] * self.m
            value = 0
            while value < best and (augment(arcs, flow, 1, t) >> t) & 1:
                value += 1
            best = value
        return best


def flow_arcs(n: int, endpoints: Sequence[tuple[int, int]],
              caps: Sequence[int] | None = None) -> list[list[tuple[int, int, int, int]]]:
    """Per vertex u, its arcs (edge position, other end, +1 if u is the
    edge's first end, the most flow the arc may carry that way).  Without
    ``caps`` every edge is a unit edge, 1 either way; with them, edge i is
    an arc of capacity ``caps[i]`` from its first end to its second."""
    arcs: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
    for pos, (u, v) in enumerate(endpoints):
        forward, back = (1, 1) if caps is None else (caps[pos], 0)
        arcs[u].append((pos, v, 1, forward))
        arcs[v].append((pos, u, -1, back))
    return arcs


def augment(arcs: list[list[tuple[int, int, int, int]]], flow: list[int],
            source: int, t: int) -> int:
    """Push the bottleneck along a shortest residual path from the
    ``source`` vertex mask to t, if there is one: the package's one
    augmenting-path step.

    ``flow`` holds the net flow along each edge, first end to second, and
    an arc has residual room while its flow that way is below its limit.
    Into one sink t over unit edges the bottleneck is 1: the last arc
    enters t, and no push takes flow out of t.  Returns the mask of the vertices seen: it holds t
    after a push, and is everything the source reaches otherwise.
    """
    seen = source
    via: dict[int, tuple[int, tuple[int, int, int, int]]] = {}
    queue = list(bits(source))
    for u in queue:
        for arc in arcs[u]:
            pos, w, sign, limit = arc
            if not (seen >> w) & 1 and flow[pos] * sign < limit:
                seen |= 1 << w
                via[w] = (u, arc)
                if w == t:
                    path = []
                    while w in via:
                        w, arc = via[w]
                        path.append(arc)
                    push = min(limit - flow[pos] * sign for pos, _, sign, limit in path)
                    for pos, _, sign, _ in path:
                        flow[pos] += sign * push
                    return seen
                queue.append(w)
    return seen


# ---------------------------------------------------------------------------
# Half-integral instances
# ---------------------------------------------------------------------------

SPECIAL_ROOT = 0


@dataclass(frozen=True)
class HalfIntegralInstance:
    """Support multigraph with costs; every edge carries x = 1/2.

    In strict form vertices 0, 1, 2 are the root triple: two parallel
    edges join 0-1 and two join 0-2.
    """

    graph: MultiGraph
    costs: tuple[Fraction, ...]
    strict: bool = True

    @property
    def root(self) -> int:
        return SPECIAL_ROOT

    @cached_property
    def cost_units(self) -> tuple[int, tuple[int, ...]]:
        """The costs' least common denominator D, and each cost in units of
        1/D."""
        denom = lcm_denominator(self.costs)
        return denom, tuple(in_units(c, denom) for c in self.costs)

    def lp_cost(self) -> Fraction:
        """Cost of the fractional solution: half the total edge cost."""
        denom, units = self.cost_units
        return Fraction(sum(units), 2 * denom)

    def validate(self) -> None:
        g = self.graph
        for v, d in enumerate(g.degrees()):
            if d != 4:
                raise DegreeError(f"vertex {v} has degree {d}, expected 4")
        # a double cycle is exactly 4-edge-connected: a cut crosses the
        # cycle twice, each time at a doubled edge, and two vertices are
        # joined by four edges; any other graph runs the flows
        if g.double_cycle_order() is None:
            conn = g.edge_connectivity()
            if conn != 4:
                raise ConnectivityError(f"edge connectivity is {conn}, expected 4")
        if any(u < 0 for u in self.cost_units[1]):
            raise ParseError("negative edge cost")
        if self.strict:
            if g.n < 3:
                raise SpecialTripleError("strict instances need at least 3 vertices")
            classes = g.parallel_classes()
            for pair in ((0, 1), (0, 2)):
                if len(classes.get(pair, [])) != 2:
                    raise SpecialTripleError(
                        f"vertices {pair} must be joined by exactly two parallel edges"
                    )


# -- instance file format ----------------------------------------------------
#
#   htsp <n> <m>
#   <u> <v> <cost>      (m lines, 0-based ids; duplicates = parallel edges)
#
# Comments start with '#'.  Costs are nonnegative decimals or a/b fractions.

_COST_RE = re.compile(r"^\d+(\.\d+)?$|^\d+/\d+$")


def _parse_cost(tok: str) -> Fraction:
    if not _COST_RE.match(tok):
        raise ParseError(f"bad cost literal {tok!r}")
    # an integer literal skips the string parse of ``Fraction``
    return Fraction(int(tok)) if tok.isdigit() else Fraction(tok)


def parse_instance(text: str, strict: bool = True) -> HalfIntegralInstance:
    """Parse and fully validate an instance file."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty instance")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "htsp":
        raise ParseError(f"bad header line {lines[0]!r}")
    try:
        n, m = int(head[1]), int(head[2])
    except ValueError as exc:
        raise ParseError(f"bad header counts in {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    costs = []
    # a cost literal is parsed once, however many edges carry it
    parsed: dict[str, Fraction] = {}
    for eid, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) != 3:
            raise ParseError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"bad endpoints in {ln!r}") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"endpoint out of range in {ln!r}")
        if u == v:
            raise ParseError(f"self-loop in {ln!r}")
        edges.append((eid, u, v))
        tok = parts[2]
        if tok not in parsed:
            parsed[tok] = _parse_cost(tok)
        costs.append(parsed[tok])
    inst = HalfIntegralInstance(MultiGraph(n, edges), tuple(costs), strict=strict)
    inst.validate()
    return inst


def serialize_instance(inst: HalfIntegralInstance) -> str:
    g = inst.graph
    out = [f"htsp {g.n} {g.m}"]
    for eid in range(g.m):
        u, v = g.endpoints[eid]
        c = inst.costs[eid]
        cost = str(c) if c.denominator > 1 else str(c.numerator)
        out.append(f"{u} {v} {cost}")
    return "\n".join(out) + "\n"


def normalize_to_special_triple(inst: HalfIntegralInstance) -> HalfIntegralInstance:
    """Relabel so some vertex with two parallel-pair neighbours becomes 0.

    Fails when no vertex of the graph has two distinct neighbours that are
    each joined to it by parallel edge pairs; such instances need a
    construction this package does not attempt.
    """
    g = inst.graph
    classes = g.parallel_classes()
    for r in range(g.n):
        mates = sorted(
            u_or_v
            for (a, b), pos in classes.items()
            if len(pos) >= 2 and r in (a, b)
            for u_or_v in (a, b)
            if u_or_v != r
        )
        if len(mates) >= 2:
            u, v = mates[0], mates[1]
            perm = {r: 0, u: 1, v: 2}
            rest = [w for w in range(g.n) if w not in (r, u, v)]
            for i, w in enumerate(rest):
                perm[w] = 3 + i
            edges = [
                (eid, perm[a], perm[b])
                for eid, (a, b) in zip(g.edge_ids, g.endpoints)
            ]
            out = HalfIntegralInstance(
                MultiGraph(g.n, edges), inst.costs, strict=True
            )
            out.validate()
            return out
    raise SpecialTripleError("no vertex with two parallel-pair neighbours")
