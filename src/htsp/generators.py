"""Instance generators and the catalog of no-proper-min-cut piece graphs.

Instances are assembled from a host double cycle whose vertices can be
expanded into clusters: a cluster is a small 4-regular-after-wiring gadget
whose local multigraph is one of the catalog graphs (K5, the octahedron,
circulant graphs with special edges) or a doubled chain (a nested cycle
set).  Costs come from L1 distances between random integer grid points, so
they are exact nonnegative integers satisfying the triangle inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import GenerationFailure
from .graph import HalfIntegralInstance, MultiGraph
from .hierarchy import LocalMultigraph

# ---------------------------------------------------------------------------
# catalog of 4-regular graphs with no proper min-cuts
# ---------------------------------------------------------------------------


def _circulant(n: int, steps: Sequence[int]) -> list[tuple[int, int]]:
    edges = set()
    for v in range(n):
        for s in steps:
            edges.add(tuple(sorted((v, (v + s) % n))))
    return sorted(edges)


def _octahedron() -> list[tuple[int, int]]:
    # complete tripartite K(2,2,2); antipodal pairs (0,1), (2,3), (4,5)
    anti = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}
    return [(u, v) for u in range(6) for v in range(u + 1, 6) if anti[u] != v]


def _k44() -> list[tuple[int, int]]:
    return [(u, v) for u in range(4) for v in range(4, 8)]


def _k5() -> list[tuple[int, int]]:
    return [(u, v) for u in range(5) for v in range(u + 1, 5)]


#: simple 4-regular graphs whose only min-cuts are the singletons
PIECE_CATALOG: dict[str, tuple[int, list[tuple[int, int]]]] = {
    "k5": (5, _k5()),
    "octahedron": (6, _octahedron()),
    "c7bar": (7, _circulant(7, (2, 3))),
    "c8_12": (8, _circulant(8, (1, 2))),
    "k44": (8, _k44()),
}


def standalone_piece(name: str, external: int = 0) -> LocalMultigraph:
    """A catalog graph packaged as a piece with the given external vertex."""
    n, edges = PIECE_CATALOG[name]
    order = [v for v in range(n) if v != external] + [external]
    renum = {old: new for new, old in enumerate(order)}
    g = MultiGraph(
        n,
        [(i, renum[u], renum[v]) for i, (u, v) in enumerate(edges)],
        [frozenset([old]) for old in order],
    )
    return LocalMultigraph(g, n - 1, tuple([None] * n))


# ---------------------------------------------------------------------------
# cluster expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cluster:
    """Gadget replacing one host vertex: internal edges plus 4 stub slots."""

    name: str
    vertices: int
    edges: tuple[tuple[int, int], ...]
    stubs: tuple[int, int, int, int]  # cluster vertices receiving the host slots


def _cluster_from_piece(name: str, removed: int = 0) -> Cluster:
    """Remove one vertex from a catalog graph; its old edges become stubs."""
    n, edges = PIECE_CATALOG[name]
    keep = [v for v in range(n) if v != removed]
    renum = {old: new for new, old in enumerate(keep)}
    inner = tuple(
        (renum[u], renum[v]) for u, v in edges if u != removed and v != removed
    )
    stubs = tuple(renum[w] for u, v in edges if removed in (u, v)
                  for w in (u, v) if w != removed)
    if len(stubs) != 4:
        raise GenerationFailure(
            f"{name} vertex {removed} leaves {len(stubs)} stubs, not 4"
        )
    return Cluster(name, n - 1, inner, tuple(sorted(stubs)))


def pair_cluster() -> Cluster:
    """Two vertices with a doubled edge; contracts to a 3-vertex double cycle."""
    return Cluster("pair", 2, ((0, 1), (0, 1)), (0, 0, 1, 1))


CLUSTERS: dict[str, Callable[[], Cluster]] = {
    "k4": lambda: _cluster_from_piece("k5"),
    "oct": lambda: _cluster_from_piece("octahedron"),
    "c7": lambda: _cluster_from_piece("c7bar"),
    "c8": lambda: _cluster_from_piece("c8_12"),
    "k44": lambda: _cluster_from_piece("k44"),
    "pair": pair_cluster,
}


class _Builder:
    """Edge list over hashable labels with vertex expansion."""

    def __init__(self) -> None:
        self.edges: list[tuple[object, object]] = []

    def add(self, u: object, v: object) -> None:
        self.edges.append((u, v))

    def slots_of(self, x: object) -> list[int]:
        return [i for i, (u, v) in enumerate(self.edges) if x in (u, v)]

    def expand(self, x: object, cluster: Cluster, tag: object) -> list[object]:
        """Replace vertex x by the cluster; returns the new internal labels."""
        slots = self.slots_of(x)
        if len(slots) != 4:
            raise GenerationFailure(f"can only expand degree-4 vertices, got {len(slots)}")
        fresh = [(tag, i) for i in range(cluster.vertices)]
        for slot, stub in zip(slots, cluster.stubs):
            u, v = self.edges[slot]
            other = v if u == x else u
            self.edges[slot] = (other, fresh[stub])
        for u, v in cluster.edges:
            self.add(fresh[u], fresh[v])
        return fresh

    def materialize(
        self,
        r0: object,
        u0: object,
        v0: object,
        rng: np.random.Generator,
        unit_costs: bool = False,
    ) -> HalfIntegralInstance:
        labels = sorted({x for e in self.edges for x in e} - {r0, u0, v0}, key=repr)
        order = [r0, u0, v0] + labels
        renum = {lab: i for i, lab in enumerate(order)}
        n = len(order)
        points = _distinct_points(n, rng)
        edges = []
        costs = []
        for eid, (u, v) in enumerate(sorted(self.edges, key=lambda e: (renum[e[0]], renum[e[1]]) if renum[e[0]] <= renum[e[1]] else (renum[e[1]], renum[e[0]]))):
            a, b = renum[u], renum[v]
            if a > b:
                a, b = b, a
            edges.append((eid, a, b))
            if unit_costs:
                costs.append(Fraction(1))
            else:
                pa, pb = points[a], points[b]
                costs.append(Fraction(abs(pa[0] - pb[0]) + abs(pa[1] - pb[1])))
        inst = HalfIntegralInstance(MultiGraph(n, edges), tuple(costs), strict=True)
        inst.validate()
        return inst


#: side of the integer grid that the cost points are drawn from
GRID = 200


def _distinct_points(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """``n`` distinct points of the grid, drawn uniformly, repeats redrawn;
    more than the grid holds fail before any draw."""
    if n > GRID * GRID:
        raise GenerationFailure(f"{n} distinct points do not fit a {GRID} x {GRID} grid")
    pts: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    while len(pts) < n:
        p = (int(rng.integers(0, GRID)), int(rng.integers(0, GRID)))
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts


def _host_cycle(k: int) -> tuple[_Builder, list[object]]:
    """Double cycle host: positions h0=r0, h1=u0, ..., h_{k-1}=v0."""
    if k < 3:
        raise GenerationFailure("host cycle needs at least 3 positions")
    b = _Builder()
    ring: list[object] = [("h", i) for i in range(k)]
    for i in range(k):
        u, v = ring[i], ring[(i + 1) % k]
        b.add(u, v)
        b.add(u, v)
    return b, ring


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def generate_double_cycle(k: int, rng: np.random.Generator,
                          unit_costs: bool = False) -> HalfIntegralInstance:
    b, ring = _host_cycle(k)
    return b.materialize(ring[0], ring[1], ring[-1], rng, unit_costs)


def generate_k5_gadget(k: int, rng: np.random.Generator,
                       unit_costs: bool = False) -> HalfIntegralInstance:
    """Host cycle with one mid position expanded into a K5 piece."""
    if k < 4:
        raise GenerationFailure("k5 gadget needs a host with at least 4 positions")
    b, ring = _host_cycle(k)
    b.expand(ring[k // 2], CLUSTERS["k4"](), "K")
    return b.materialize(ring[0], ring[1], ring[-1], rng, unit_costs)


def generate_nested(depth: int, rng: np.random.Generator,
                    unit_costs: bool = False) -> HalfIntegralInstance:
    """Critical sets nested ``depth`` levels below the root.

    Depth 2 plants a doubled-pair (cycle) set inside a degree piece; depth 3
    plants the degree piece inside another degree piece first.
    """
    if depth not in (2, 3):
        raise GenerationFailure("supported nesting depths: 2, 3")
    b, ring = _host_cycle(4)
    inner = b.expand(ring[2], CLUSTERS["c8"](), "C")
    # vertices 3,4,5 of c8_12 survive as cluster indices 2,3,4 and have no stubs
    if depth == 2:
        b.expand(inner[3], CLUSTERS["pair"](), "P")
    else:
        deeper = b.expand(inner[3], CLUSTERS["oct"](), "O")
        b.expand(deeper[0], CLUSTERS["pair"](), "P")
    return b.materialize(ring[0], ring[1], ring[-1], rng, unit_costs)


def generate_zoo(rng: np.random.Generator,
                 unit_costs: bool = False) -> HalfIntegralInstance:
    """One instance exercising even and odd degree pieces plus cycle sets."""
    b, ring = _host_cycle(5)
    b.expand(ring[2], CLUSTERS["oct"](), "O")
    b.expand(ring[3], CLUSTERS["c7"](), "S")
    return b.materialize(ring[0], ring[1], ring[-1], rng, unit_costs)


def generate_random_4reg(n: int, rng: np.random.Generator,
                         unit_costs: bool = False) -> HalfIntegralInstance:
    """Configuration-model multigraph around a pre-placed root triple.

    Rejects draws with self-loops, triple-or-more parallel edges, or edge
    connectivity below 4, up to 2,000 draws.
    """
    if not 5 <= n <= GRID * GRID:
        # checked before any draw: the cost points need n distinct grid points
        raise GenerationFailure(f"random instances need 5 to {GRID * GRID} vertices, not {n}")
    for _ in range(2000):
        stubs: list[int] = [1, 1, 2, 2]  # u0/v0 each owe two more half-edges
        for v in range(3, n):
            stubs.extend([v] * 4)
        perm = rng.permutation(len(stubs))
        stubs = [stubs[i] for i in perm]
        pairs = [(stubs[2 * i], stubs[2 * i + 1]) for i in range(len(stubs) // 2)]
        if any(u == v for u, v in pairs):
            continue
        fixed = [(0, 1), (0, 1), (0, 2), (0, 2)]
        all_pairs = fixed + [tuple(sorted(p)) for p in pairs]
        mult: dict[tuple[int, int], int] = {}
        for p in all_pairs:
            mult[p] = mult.get(p, 0) + 1
        if any(c > 2 for c in mult.values()):
            continue
        edges = [(eid, u, v) for eid, (u, v) in enumerate(sorted(all_pairs))]
        g = MultiGraph(n, edges)
        if g.edge_connectivity() != 4:
            continue
        points = _distinct_points(n, rng)
        costs = []
        for _, u, v in edges:
            if unit_costs:
                costs.append(Fraction(1))
            else:
                pa, pb = points[u], points[v]
                costs.append(Fraction(abs(pa[0] - pb[0]) + abs(pa[1] - pb[1])))
        inst = HalfIntegralInstance(g, tuple(costs), strict=True)
        inst.validate()
        return inst
    raise GenerationFailure("no valid random instance after 2000 tries")


#: each family's generator and the one size setting it reads (zoo reads none)
_FAMILIES = {
    "double-cycle": (generate_double_cycle, "k"),
    "k5-gadget": (generate_k5_gadget, "k"),
    "nested": (generate_nested, "depth"),
    "random-4reg": (generate_random_4reg, "n"),
    "zoo": (generate_zoo, None),
}
FAMILIES = tuple(_FAMILIES)


def size_setting(family: str) -> Optional[str]:
    """The size setting (``k``, ``n`` or ``depth``) that ``family`` reads, or
    None if it reads none."""
    if family not in _FAMILIES:
        raise GenerationFailure(f"unknown family {family!r}")
    return _FAMILIES[family][1]


def generate(family: str, rng: np.random.Generator, *, k: int = 7, n: int = 12,
             depth: int = 2, unit_costs: bool = False) -> HalfIntegralInstance:
    """Dispatch to a generator family by name; it reads the size that
    ``size_setting`` names and ignores the others."""
    size = size_setting(family)
    build = _FAMILIES[family][0]
    if size is None:
        return build(rng, unit_costs)
    return build({"k": k, "n": n, "depth": depth}[size], rng, unit_costs)
