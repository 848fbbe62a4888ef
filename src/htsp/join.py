"""Fractional odd-join construction with flow-routed charging.

Start from a quarter on every edge (half of each edge's fractional value).
An edge settled at a piece where the sampled tree left both its endpoints
even (or both canonical cuts evenly crossed) can afford a reduction; a
per-edge coin flattens the reduction probability down to the guaranteed
even-at-last lower bound for its class.  Reductions can push min-cuts at
lower hierarchy levels below one when those cuts are crossed oddly, so
each deficient cut is repaid by charging the cut's internal edges: degree
cuts split the repayment by a max-flow assignment, canonical cuts split it
evenly between the two partner edges.  Partner edges share one coin, so a
single repayment covers both of their canonical cuts at once.

This module builds the tables of that scheme once per instance; the chunk
kernels of ``engine.BatchEngine`` apply them to whole blocks of trees.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import (
    AssemblyError,
    EstimateBelowBound,
    FlowInfeasible,
    NoPerfectMatching,
    OddSetTooLarge,
)
from .graph import HalfIntegralInstance
from .hierarchy import CutHierarchy
from .params import BETA_CAP, DEFAULT_GAMMA, DEFAULT_MIX_LAMBDA, DEFAULT_TAU, mixed_rates
from .pipeline import PieceSampler

#: reduction classes an edge can be settled in
EDGE_KINDS = ("special", "half-special", "other-degree", "k5-degree", "cycle")


def coin_kind(kind: str) -> str:
    """The row of the even-at-last table that bounds an edge class."""
    return kind if kind in ("special", "half-special") else "other"


@dataclass(frozen=True)
class ReductionParams:
    """Reduction amounts, the sampler mix, and the flattened coin rates."""

    tau: Fraction
    gamma: Fraction
    beta: Fraction
    mix_lambda: Fraction

    def __post_init__(self):
        if not (0 <= self.tau <= self.gamma <= self.beta <= BETA_CAP):
            raise ValueError(f"need 0 <= tau <= gamma <= beta <= {BETA_CAP}")
        if self.beta < 2 * self.tau or self.beta < 2 * self.gamma:
            raise ValueError("need beta >= 2*tau and beta >= 2*gamma")
        if not 0 <= self.mix_lambda <= 1:
            raise ValueError("mix_lambda must be in [0, 1]")

    @classmethod
    def default(cls, mix_lambda: Fraction = DEFAULT_MIX_LAMBDA) -> "ReductionParams":
        return cls(
            tau=DEFAULT_TAU,
            gamma=DEFAULT_GAMMA,
            beta=BETA_CAP,  # the optimum sits at the cap
            mix_lambda=Fraction(mix_lambda),
        )

    @functools.cached_property
    def _rates(self) -> tuple[Fraction, Fraction, Fraction]:
        # every coin group reads one of these: evaluate the mix once
        return mixed_rates(self.mix_lambda)

    @property
    def p_other(self) -> Fraction:
        return self._rates[0]

    @property
    def p_special(self) -> Fraction:
        return self._rates[1]

    @property
    def p_half_special(self) -> Fraction:
        return self._rates[2]

    def coin_bound(self, kind: str) -> Fraction:
        if kind == "special":
            return self.p_special
        if kind == "half-special":
            return self.p_half_special
        return self.p_other  # other-degree, k5-degree, cycle

    def amount(self, kind: str) -> Fraction:
        if kind == "cycle":
            return self.beta
        if kind == "k5-degree":
            return self.gamma
        return self.tau


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeClass:
    settled: int  # node id
    kind: str  # 'special' | 'half-special' | 'other-degree' | 'k5-degree' | 'cycle'
    coin_group: tuple

    @property
    def coin_kind(self) -> str:
        return coin_kind(self.kind)


def classify(h: CutHierarchy) -> dict[int, EdgeClass]:
    """Settled node, reduction class, and coin group per edge: one coin per
    degree-piece edge, one per partner pair of a cycle piece.

    The topmost piece samples its own root pairs, so those four edges are
    settled at the root and behave like cycle edges.
    """
    out: dict[int, EdgeClass] = {}
    for nd in h.non_leaves():
        piece = nd.piece
        if nd.kind == "cycle":
            ext = piece.external_pairs() if nd.is_root else []
            for side, pairs in (("pair", piece.internal_pairs()), ("ext", ext)):
                for j, pair in enumerate(pairs):
                    for eid in pair:
                        out[eid] = EdgeClass(nd.node_id, "cycle", (nd.node_id, side, j))
        else:
            k5 = piece.graph.n == 5
            boundary = set(piece.boundary_vertices)
            for eid in piece.internal_edge_ids:
                pos = piece.graph.edge_index(eid)
                u, v = piece.graph.endpoints[pos]
                nb = (u not in boundary) + (v not in boundary)
                if k5:
                    kind = "k5-degree"
                elif nb == 2:
                    kind = "special"
                elif nb == 1:
                    kind = "half-special"
                else:
                    kind = "other-degree"
                out[eid] = EdgeClass(nd.node_id, kind, (eid,))
    m = h.instance.graph.m
    if len(out) != m or set(out) != set(range(m)):
        raise AssemblyError(f"{len(out)} of {m} edges settled at a piece")
    return out


# ---------------------------------------------------------------------------
# even at last
# ---------------------------------------------------------------------------

#: per edge id, its even-at-last event as ``(edge ids, parity)`` pairs
EalConditions = dict[int, tuple[tuple[frozenset[int], int], ...]]


def eal_conditions(h: CutHierarchy, classes: dict[int, EdgeClass]) -> EalConditions:
    """Each edge's even-at-last event, as ``(edge ids, parity)`` pairs.

    An edge is even at last when, for every pair, the tree holds a number
    of those edges with that parity (0 even, 1 odd): a degree-piece edge uv
    needs both endpoints even in its piece, an edge settled at a cycle piece
    (root pairs included) one edge of each external pair.
    """
    out: EalConditions = {}
    for eid in sorted(classes):
        nd = h.nodes[classes[eid].settled]
        g = nd.piece.graph
        if nd.kind == "cycle":
            out[eid] = tuple((frozenset(pair), 1) for pair in nd.piece.external_pairs())
        else:
            u, v = g.endpoints[g.edge_index(eid)]
            out[eid] = (frozenset(g.incident_ids(u)), 0), (frozenset(g.incident_ids(v)), 0)
    return out


def parity_law(samplers: dict[int, PieceSampler], classes: dict[int, EdgeClass],
               sets: Sequence[Iterable[int]]) -> dict[int, object]:
    """Joint law of the tree's parities on a few edge sets.

    Bit i of a state is the parity of the tree's edges in ``sets[i]``.
    Pieces sample independently, so the law is the XOR convolution of the
    pieces' own laws; it is exact when every piece law is.
    """
    by_piece: dict[int, list[set[int]]] = {}
    for i, ids in enumerate(sets):
        for e in ids:
            by_piece.setdefault(classes[e].settled, [set() for _ in sets])[i].add(e)
    law: dict[int, object] = {0: Fraction(1)}
    for nid in sorted(by_piece):
        piece_law = samplers[nid].parity_law(by_piece[nid])
        acc: dict[int, object] = {}
        for a, pa in law.items():
            for b, pb in piece_law.items():
                acc[a ^ b] = acc.get(a ^ b, 0) + pa * pb
        law = acc
    return law


def event_probability(samplers: dict[int, PieceSampler],
                      classes: dict[int, EdgeClass],
                      conditions: Sequence[tuple[frozenset[int], int]],
                      odd_cuts: Sequence[Iterable[int]] = ()) -> object:
    """Probability that every parity condition holds and, when ``odd_cuts``
    are given, the tree crosses at least one of them oddly."""
    k = len(conditions)
    want = sum(parity << i for i, (_, parity) in enumerate(conditions))
    law = parity_law(samplers, classes, [ids for ids, _ in conditions] + list(odd_cuts))
    return sum(pr for state, pr in law.items()
               if state & ((1 << k) - 1) == want and (state >> k or not odd_cuts))


def exact_eal_probabilities(conditions: EalConditions, classes: dict[int, EdgeClass],
                            samplers: dict[int, PieceSampler]) -> dict[int, object]:
    """Even-at-last probability per edge of ``eal_conditions``, exact where
    the samplers are exact."""
    by_conditions: dict[tuple, object] = {}
    out: dict[int, object] = {}
    for eid, conds in conditions.items():
        if conds not in by_conditions:
            by_conditions[conds] = event_probability(samplers, classes, conds)
        out[eid] = by_conditions[conds]
    return out


# ---------------------------------------------------------------------------
# charge routing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowAssignment:
    """Charge split fractions x(source, target) with unit row sums."""

    fractions: dict[tuple[int, int], Fraction]
    load: dict[int, Fraction]
    cap: Fraction

    def row(self, source: int) -> list[tuple[int, Fraction]]:
        return [
            (f, x) for (s, f), x in sorted(self.fractions.items()) if s == source
        ]


def bipartization_flow(piece, demands: dict[int, Fraction]) -> FlowAssignment:
    """Route each external edge's demand to the internal edges at its
    boundary vertex, keeping every internal edge's load under the cap.

    The cap is half the largest demand, except on a K5 piece where thirds
    are unavoidable and a uniform split meets two thirds of the maximum.
    """
    g = piece.graph
    ext_ids = set(piece.external_edge_ids)
    rows: dict[int, list[int]] = {}
    for s in demands:
        pos = g.edge_index(s)
        u, v = g.endpoints[pos]
        bv = u if v == piece.external_vertex else v
        rows[s] = sorted(
            e for e in g.incident_ids(bv) if e not in ext_ids
        )
    maxd = max(demands.values())
    if g.n == 5:
        fractions = {}
        load: dict[int, Fraction] = {}
        for s, targets in rows.items():
            if len(targets) != 3:
                raise FlowInfeasible(
                    f"K5 boundary vertex of edge {s} has {len(targets)} internal edges, not 3"
                )
            for f in targets:
                fractions[(s, f)] = Fraction(1, 3)
                load[f] = load.get(f, Fraction(0)) + demands[s] / 3
        cap = 2 * maxd / 3
        if any(l > cap for l in load.values()):
            raise FlowInfeasible("uniform thirds exceed the K5 cap")
        return FlowAssignment(fractions, load, cap)
    cap = maxd / 2
    flow = _max_flow(rows, demands, cap)
    if flow is None:
        raise FlowInfeasible(f"no assignment at cap {cap}")
    fractions = {}
    load = {}
    for (s, f), val in flow.items():
        if val:
            fractions[(s, f)] = val / demands[s]
            load[f] = load.get(f, Fraction(0)) + val
    for s in demands:
        total = sum((x for (ss, _), x in fractions.items() if ss == s), Fraction(0))
        if total != 1:
            raise FlowInfeasible(f"charge fractions of edge {s} sum to {total}, not 1")
    return FlowAssignment(fractions, load, cap)


def _max_flow(rows: dict[int, list[int]], demands: dict[int, Fraction],
              cap: Fraction) -> Optional[dict[tuple[int, int], Fraction]]:
    """Edmonds-Karp on source -> externals -> internals -> sink."""
    sources = sorted(rows)
    targets = sorted({f for ts in rows.values() for f in ts})
    S, T = "S", "T"
    capacity: dict[tuple, Fraction] = {}
    adj: dict = {S: [], T: []}
    for s in sources:
        capacity[(S, s)] = demands[s]
        adj[S].append(s)
        adj.setdefault(s, []).append(S)
    for f in targets:
        capacity[(f, T)] = cap
        adj.setdefault(f, []).append(T)
        adj[T].append(f)
    for s in sources:
        for f in rows[s]:
            capacity[(s, f)] = demands[s]
            adj[s].append(f)
            adj[f].append(s)
    flow: dict[tuple, Fraction] = {}

    def residual(a, b) -> Fraction:
        return capacity.get((a, b), Fraction(0)) - flow.get((a, b), Fraction(0)) + flow.get((b, a), Fraction(0))

    total = Fraction(0)
    while True:
        prev = {S: None}
        queue = [S]
        while queue and T not in prev:
            x = queue.pop(0)
            for y in adj[x]:
                if y not in prev and residual(x, y) > 0:
                    prev[y] = x
                    queue.append(y)
        if T not in prev:
            break
        path = []
        node = T
        while node != S:
            path.append((prev[node], node))
            node = prev[node]
        aug = min(residual(a, b) for a, b in path)
        for a, b in path:
            back = flow.get((b, a), Fraction(0))
            if back >= aug:
                flow[(b, a)] = back - aug
            else:
                flow[(a, b)] = flow.get((a, b), Fraction(0)) + aug - back
                if back:
                    flow[(b, a)] = Fraction(0)
        total += aug
    if total != sum(demands.values()):
        return None
    return {
        (s, f): flow.get((s, f), Fraction(0))
        for s in sources
        for f in rows[s]
    }


@dataclass(frozen=True)
class DegreeChargeSite:
    source: int
    amount: Fraction
    cut_ids: tuple[int, ...]
    targets: tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class PairChargeGroup:
    """Sources sharing one coin; one repayment serves all their cuts."""

    amount: Fraction
    members: tuple[tuple[int, tuple[int, ...]], ...]  # (source, cut edge ids)


@dataclass(frozen=True)
class PairChargeSite:
    targets: tuple[int, int]
    groups: tuple[PairChargeGroup, ...]


def build_charge_sites(h: CutHierarchy, classes: dict[int, EdgeClass],
                       params: ReductionParams
                       ) -> tuple[list[DegreeChargeSite], list[PairChargeSite]]:
    """Static charge-routing tables for one instance and parameter set."""
    degree_sites: list[DegreeChargeSite] = []
    pair_sites: list[PairChargeSite] = []
    for nd in h.non_leaves():
        piece = nd.piece
        g = piece.graph
        if nd.kind != "cycle":
            ext_ids = sorted(piece.external_edge_ids)
            demands = {}
            for s in ext_ids:
                kind = classes[s].kind
                amt = params.amount(kind)
                demands[s] = amt / 2 if kind == "cycle" else amt
            assign = bipartization_flow(piece, demands)
            for s in ext_ids:
                pos = g.edge_index(s)
                u, v = g.endpoints[pos]
                bv = u if v == piece.external_vertex else v
                cut = tuple(sorted(g.incident_ids(bv)))
                degree_sites.append(
                    DegreeChargeSite(
                        s, params.amount(classes[s].kind), cut, tuple(assign.row(s))
                    )
                )
        else:
            pairs = piece.internal_pairs()
            ext_pairs = piece.external_pairs()
            if not pairs or len(ext_pairs) != 2:
                continue
            left, right = _orient_end_pairs(piece, ext_pairs)
            for pair in pairs:
                entries: dict[tuple, list[tuple[int, tuple[int, ...]]]] = {}
                cut_l = tuple(sorted(left + pair))
                cut_r = tuple(sorted(right + pair))
                for s in left:
                    entries.setdefault(classes[s].coin_group, []).append((s, cut_l))
                for s in right:
                    entries.setdefault(classes[s].coin_group, []).append((s, cut_r))
                groups = []
                for _, members in sorted(entries.items()):
                    amounts = {params.amount(classes[s].kind) for s, _ in members}
                    if len(amounts) != 1:
                        # one repayment serves the whole coin group
                        raise FlowInfeasible(
                            f"coin group of edges {[s for s, _ in members]} has "
                            f"{len(amounts)} reduction amounts, not one"
                        )
                    groups.append(PairChargeGroup(amounts.pop(), tuple(members)))
                pair_sites.append(PairChargeSite(tuple(pair), tuple(groups)))
    return degree_sites, pair_sites


def _orient_end_pairs(piece, ext_pairs) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Order the two external pairs as (chain-start side, chain-end side)."""
    chain = piece.chain
    first = chain[0]
    out: list = [None, None]
    for pair in ext_pairs:
        pos = piece.graph.edge_index(pair[0])
        u, v = piece.graph.endpoints[pos]
        inner = u if u != piece.external_vertex else v
        if inner == first and out[0] is None:
            out[0] = tuple(pair)
        else:
            out[1] = tuple(pair)
    return out[0], out[1]


# ---------------------------------------------------------------------------
# coins
# ---------------------------------------------------------------------------

def coin_groups(classes: dict[int, EdgeClass]) -> dict[tuple, tuple[int, ...]]:
    groups: dict[tuple, list[int]] = {}
    for eid, cl in sorted(classes.items()):
        groups.setdefault(cl.coin_group, []).append(eid)
    return {k: tuple(v) for k, v in groups.items()}


def coin_rates(classes: dict[int, EdgeClass], params: ReductionParams,
               eal_probability: dict[int, object]) -> dict[tuple, object]:
    """Bernoulli rate per coin group: ``min(1, bound / estimate)``, a
    ``Fraction`` when the even-at-last estimate is one, a float otherwise."""
    rates: dict[tuple, object] = {}
    for grp, members in coin_groups(classes).items():
        ests = {eal_probability[e] for e in members}
        if len(ests) != 1:
            # one coin flattens every member to the bound only if they share
            # one even-at-last rate
            raise EstimateBelowBound(
                f"coin group {members} has {len(ests)} even-at-last estimates, not one"
            )
        est = ests.pop()
        bound = params.coin_bound(classes[members[0]].coin_kind)
        one = Fraction(1) if isinstance(est, Fraction) else 1.0
        rates[grp] = bound / est if est > bound else one
    return rates


def check_eal_bounds(classes: dict[int, EdgeClass], params: ReductionParams,
                     eal_probability: dict[int, object]) -> None:
    """Refuse an even-at-last estimate below its coin bound: exactly for a
    ``Fraction``, within a relative 1e-9 for a float."""
    for members in coin_groups(classes).values():
        est = eal_probability[members[0]]
        bound = params.coin_bound(classes[members[0]].coin_kind)
        below = est < bound if isinstance(est, Fraction) else float(bound) > est * (1 + 1e-9)
        if est <= 0 or below:
            raise EstimateBelowBound(
                f"even-at-last estimate {float(est):.6g} below bound "
                f"{float(bound):.6g} for edges {members}"
            )


def coin_thresholds(rates: dict[tuple, object]) -> dict[tuple, float]:
    """Per coin group, the double t with ``x < t`` exactly when x is below
    the group's rate, for every x that ``Generator.random()`` returns.

    Those x are multiples k / 2**53, and k < r * 2**53 holds exactly when
    k < ceil(r * 2**53); a rate is at most one, so that ceiling over 2**53
    is a double.  A coin then costs one float comparison, not a
    ``Fraction`` one, and falls the same way.
    """
    return {grp: math.ceil(Fraction(r) * 2 ** 53) / 2 ** 53 for grp, r in rates.items()}


# ---------------------------------------------------------------------------
# integral join and tour extraction
# ---------------------------------------------------------------------------

#: most odd vertices the exact pairing DP accepts
ODD_SET_LIMIT = 18


def min_cost_perfect_matching(odd: list[int], dist,
                              memo: Optional[dict] = None
                              ) -> tuple[object, list[tuple[int, int]]]:
    """Exact pairing by dynamic programming over vertex-id bitmasks.

    The memo is keyed by subsets of the full vertex set, so one dictionary
    can be shared across calls with different odd sets of one instance.
    The cost is in the metric's own numbers: integers on an integer metric.
    """
    k = len(odd)
    if k % 2:
        raise NoPerfectMatching(f"{k} odd vertices cannot be paired")
    if k == 0:
        return 0, []
    if k > ODD_SET_LIMIT:
        raise OddSetTooLarge(f"{k} odd vertices exceeds the exact limit {ODD_SET_LIMIT}")
    if memo is None:
        memo = {}
    if 0 not in memo:
        memo[0] = (0, None)

    def solve(mask: int):
        hit = memo.get(mask)
        if hit is not None:
            return hit[0]
        lowbit = mask & -mask
        i = lowbit.bit_length() - 1
        rest = mask ^ lowbit
        best = None
        best_j = None
        r = rest
        while r:
            jbit = r & -r
            j = jbit.bit_length() - 1
            r ^= jbit
            cand = dist[i][j] + solve(rest ^ jbit)
            if best is None or cand < best:
                best = cand
                best_j = j
        memo[mask] = (best, best_j)
        return best

    full = 0
    for v in odd:
        full |= 1 << v
    cost = solve(full)
    pairs = []
    mask = full
    while mask:
        _, j = memo[mask]
        i = (mask & -mask).bit_length() - 1
        pairs.append((i, j))
        mask ^= (1 << i) | (1 << j)
    return cost, pairs


def odd_vertices(inst: HalfIntegralInstance, tree_edges: frozenset[int]) -> list[int]:
    g = inst.graph
    deg = [0] * g.n
    for eid in tree_edges:
        u, v = g.endpoints[eid]
        deg[u] += 1
        deg[v] += 1
    return [v for v in range(g.n) if deg[v] % 2 == 1]


@dataclass(frozen=True)
class TourResult:
    join_cost: Fraction
    tour: tuple[int, ...]
    tour_cost: Fraction
    tree_cost: Fraction


def integral_join_and_tour(ci, tree_edges: frozenset[int],
                           shortcut: bool = True) -> TourResult:
    """Cheapest parity fix for the tree, then a closed tour, on the integer
    costs and metric of an ``engine.CompiledInstance``, whose pairing memo
    solves each odd set once; only the costs of the result are
    ``Fraction``s.

    The join pairs odd-degree vertices along shortest paths; the tour is
    the Euler circuit of the combined multigraph, shortcut to first visits
    and priced in the shortest-path metric (always a metric, so the
    shortcut never costs more than the walk).
    """
    inst = ci.inst
    g = inst.graph
    d, nxt = ci.metric
    join_cost, pairs = ci.pairing(odd_vertices(inst, tree_edges))
    legs: list[tuple[int, int]] = [g.endpoints[eid] for eid in tree_edges]
    for a, b in pairs:
        node = a
        while node != b:
            step = int(nxt[node, b])
            legs.append((node, step))
            node = step
    tree_cost = sum(int(ci.cost_int[eid]) for eid in tree_edges)

    # Euler circuit over the leg multiset
    adj: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for i, (u, v) in enumerate(legs):
        adj[u].append(i)
        adj[v].append(i)
    used = [False] * len(legs)
    stack = [inst.root]
    circuit: list[int] = []
    ptr = {v: 0 for v in adj}
    while stack:
        v = stack[-1]
        advanced = False
        while ptr[v] < len(adj[v]):
            i = adj[v][ptr[v]]
            if used[i]:
                ptr[v] += 1
                continue
            used[i] = True
            a, b = legs[i]
            w = b if a == v else a
            stack.append(w)
            advanced = True
            break
        if not advanced:
            circuit.append(stack.pop())
    if not all(used):
        raise AssemblyError("leg multiset is not connected")
    circuit.reverse()

    if shortcut:
        seen: set[int] = set()
        tour = []
        for v in circuit:
            if v not in seen:
                seen.add(v)
                tour.append(v)
        steps = zip(tour, tour[1:] + tour[:1])
    else:
        tour = circuit[:-1]
        steps = zip(circuit, circuit[1:])
    tour_cost = sum(int(d[a, b]) for a, b in steps)
    denom = ci.cost_denom
    return TourResult(
        join_cost=Fraction(int(join_cost), denom),
        tour=tuple(tour),
        tour_cost=Fraction(tour_cost, denom),
        tree_cost=Fraction(tree_cost, denom),
    )
